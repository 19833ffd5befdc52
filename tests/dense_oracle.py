"""Dense fiber representation: the oracle the tests check the engine's
gather operators and norm brackets against."""

import numpy as np

from hlslab.groupoid import _fiber_dtype, _scalar


def rho_dense(q, coeffs: dict, exact: bool = False):
    """Dense matrix of the fiber representation: row g, column h, entry
    f(g h^-1).  exact=True keeps coefficients as Python objects."""
    dtype = object if exact else _fiber_dtype(coeffs)
    m = np.zeros((q.order, q.order), dtype=dtype)
    cols = np.arange(q.order)
    for s, c in coeffs.items():
        m[q.left_mult_table(s), cols] += c if exact else _scalar(c, dtype)
    return m
