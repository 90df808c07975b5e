import pathlib

import numpy as np
import pytest

from dqlink import (
    Mechanism,
    MotionPolynomial,
    line_from_point_direction,
    load_mechanism,
)

DATA = pathlib.Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def sixbar():
    return load_mechanism(DATA / "sixbar.mech")


@pytest.fixture(scope="session")
def bennett():
    return load_mechanism(DATA / "bennett.mech")


def _random_linkage(rng, joints):
    """Motion of a chain of random revolute axes, driven by the first."""
    axes = [
        line_from_point_direction(rng.normal(size=3), rng.normal(size=3), normalized=True)
        for _ in range(joints)
    ]
    drive = np.concatenate([[rng.uniform(-0.5, 0.5)], axes[0].coeffs[1:4]])
    return Mechanism(motion=MotionPolynomial.from_axes(axes), driving_axis=drive)


@pytest.fixture(scope="session")
def random_linkage():
    """Builder of generated linkages: random_linkage(rng, joints)."""
    return _random_linkage


@pytest.fixture()
def rng():
    return np.random.default_rng(20260814)
