"""Certified operator norm brackets via thick-restart Lanczos iteration.

The engine never reports bare point values: every norm comes back as a
NormBracket [lower, upper] with provenance on both endpoints.  A bracket
of a signed or complex element comes from one Lanczos solve, and its
converged flag is that solve's; nonnegative fiber elements and the
radial truncation need none (groupoid).  Every solve keeps a basis of at
most MAX_BASIS vectors, and every start is drawn by seeded_vector from
the standard-library generator, so no run loads numpy.random.  Lower
bounds are Rayleigh quotients (always valid for the top eigenvalue of a
self-adjoint operator) less a rounding allowance; upper bounds combine
the Ritz residual estimate with whatever a-priori bound (l1, Haagerup)
the caller supplies.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

LANCZOS_SEED = int.from_bytes(b"HLS", "big")  # 0x48 0x4C 0x53
DEFAULT_TOL_REL = 1e-10
MAX_BASIS = 64  # Krylov rows of every solve: 64 * order * itemsize bytes
MAX_RESTARTS = 200  # up to 64 + 200 * 48 matvecs
RESIDUAL_PROVENANCE = "lanczos-residual"  # sqrt(theta + Ritz residual)
ROUNDING_ULPS = 256  # rounding allowance on both endpoints, in ulps


@dataclass(frozen=True)
class NormBracket:
    """Certified interval for an operator norm, with provenance tags.
    converged is False when the solve behind it stopped short of its
    requested width (the endpoints are still valid); max() keeps it only
    when both operands have it."""

    lower: float
    upper: float
    lower_provenance: str
    upper_provenance: str
    converged: bool = True

    def __post_init__(self):
        if self.lower < 0 or self.upper < self.lower - 1e-12:
            raise ValueError(
                f"invalid bracket [{self.lower}, {self.upper}]")

    @property
    def width(self) -> float:
        return self.upper - self.lower

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lower + self.upper)

    def max(self, other: "NormBracket") -> "NormBracket":
        """Endpointwise max: bracket for max of the two norms, converged
        when both operands are."""
        lo = max((self, other), key=lambda b: b.lower)
        hi = max((self, other), key=lambda b: b.upper)
        return NormBracket(lo.lower, hi.upper,
                           lo.lower_provenance, hi.upper_provenance,
                           self.converged and other.converged)


def seeded_vector(dim: int) -> np.ndarray:
    """Uniform vector on [-1, 1) of length dim, the same on every run:
    53-bit fractions from random.Random(LANCZOS_SEED).randbytes."""
    raw = random.Random(LANCZOS_SEED).randbytes(8 * dim)
    u = np.frombuffer(raw, dtype="<u8") >> np.uint64(11)
    return u * 2.0 ** -52 - 1.0


def _ritz_top(T, k):
    """Eigenpairs of the projected matrix T[:k, :k], in ascending order;
    the last pair is the top Ritz pair."""
    return np.linalg.eigh(T[:k, :k])


def lanczos_extreme(apply_op, dim: int, start: np.ndarray,
                    tol: float, dtype=np.float64,
                    max_basis: int = MAX_BASIS,
                    max_restarts: int = MAX_RESTARTS):
    """Largest eigenvalue of a self-adjoint operator by thick-restart
    Lanczos with full reorthogonalization.

    A cycle that ends unconverged keeps its top max(1, m // 4) Ritz
    vectors and the residual direction, so the projected matrix T of the
    next cycle starts as diag(Ritz values) with an arrow row and column
    (Wu and Simon, SIAM J. Matrix Anal. Appl. 22, 2000).  Returns
    (theta, residual, converged) where theta is the Rayleigh quotient of
    the top Ritz vector y (a certified lower bound) and residual =
    ||A y - theta y||.
    """
    v = np.asarray(start, dtype=dtype)
    nv = np.linalg.norm(v)
    if nv == 0:
        return 0.0, 0.0, True
    complex_basis = np.issubdtype(dtype, np.complexfloating)
    check_every = 8
    breakdown_ulp = ROUNDING_ULPS * np.finfo(float).eps
    best = (-np.inf, np.inf)
    m = min(max_basis, dim)
    keep = min(max(1, m // 4), m - 1)
    # Krylov basis as contiguous rows, shared by every restart
    V = np.empty((m, dim), dtype=dtype)
    T = np.zeros((m, m))
    np.divide(v, nv, out=V[0])
    first = 0  # rows kept from the previous cycle
    for _ in range(max_restarts):
        for j in range(first, m):
            w = apply_op(V[j])
            alpha = float(np.real(np.vdot(V[j], w)))
            T[j, j] = alpha
            w = w - alpha * V[j]  # a copy: never update the operator's output
            if j > first:
                w -= T[j - 1, j] * V[j - 1]
            elif first:
                w -= T[:first, j] @ V[:first]  # the arrow of a restart
            # full reorthogonalization, two passes
            active = V[: j + 1]
            for _pass in range(2):
                if complex_basis:
                    coeffs = (active @ w.conj()).conj()
                else:
                    coeffs = active @ w
                w -= coeffs @ active
            beta = float(np.linalg.norm(w))
            # rounding leaves a residual of a few ulps of the largest
            # |T[i, i]|; below that the Krylov space is exhausted
            breakdown = beta <= breakdown_ulp * max(
                1.0, float(np.abs(np.diagonal(T)).max()))
            if not breakdown and j + 1 < m:
                np.divide(w, beta, out=V[j + 1])
                T[j, j + 1] = T[j + 1, j] = beta
            if breakdown or (j + 1) % check_every == 0 or j + 1 == m:
                evals, evecs = _ritz_top(T, j + 1)
                theta = float(evals[-1])
                residual = abs(beta * evecs[-1, -1])
                if theta > best[0]:
                    best = (theta, residual)
                if residual <= tol or breakdown or j + 1 >= dim:
                    return best[0], residual, True
        # thick restart: the top Ritz vectors, then the residual direction
        top = evecs[:, m - keep:]
        V[:keep] = top.T @ V
        np.divide(w, beta, out=V[keep])
        T[:] = 0.0
        T[:keep, :keep] = np.diag(evals[m - keep:])
        T[keep, :keep] = T[:keep, keep] = beta * top[-1]
        first = keep
    return best[0], best[1], False


def _bracket(sigma: float, sigma_hi: float, upper_bound: float | None,
             lower_provenance: str, converged: bool = True) -> NormBracket:
    """[sigma, min(sigma_hi, upper_bound)]; the upper endpoint is tagged
    "l1" only when the caller's bound is the smaller one.  A sigma rounded
    above that endpoint is clipped to it, so the caller's bound stays a
    bound."""
    upper, upper_provenance = upper_bound, "l1"
    if upper_bound is None or sigma_hi < upper_bound:
        upper, upper_provenance = sigma_hi, RESIDUAL_PROVENANCE
    return NormBracket(min(sigma, upper), upper, lower_provenance,
                       upper_provenance, converged)


def singular_value_bracket(apply_m, apply_m_star, dim: int,
                           upper_bound: float | None = None,
                           lower_provenance: str = "fiber-representation",
                           dtype=np.float64,
                           tol_rel: float = DEFAULT_TOL_REL) -> NormBracket:
    """Bracket for the largest singular value of M via Lanczos on M*M.

    One solve on a MAX_BASIS-vector basis, whatever dim is, from 1 + u
    with u = seeded_vector(dim), or from 1 + u + i u' for complex dtypes,
    u and u' the two halves of one draw: the uniform part meets every
    eigenvector, and the constant part points at the Perron vector of a
    nonnegative M*M.  The lower endpoint is sqrt(theta) less a rounding
    allowance; the upper one is the smaller of sqrt(theta + residual)
    plus the same allowance, tagged "lanczos-residual", and the caller's
    upper_bound, tagged "l1".  converged is the solve's flag; the
    endpoints are valid either way.
    """
    if dim == 0:
        return NormBracket(0.0, 0.0, lower_provenance, "l1")

    def apply_a(x):
        return apply_m_star(apply_m(x))

    if dim == 1:
        v = np.ones(1, dtype=dtype)
        sigma = float(np.sqrt(max(np.real(apply_a(v)[0]), 0.0)))
        return _bracket(sigma, sigma, upper_bound, lower_provenance)

    if np.issubdtype(dtype, np.complexfloating):
        u = seeded_vector(2 * dim)
        start = 1.0 + u[:dim] + 1j * u[dim:]
    else:
        start = 1.0 + seeded_vector(dim)
    # residual tolerance for a sigma-bracket width near 2 tol_rel at sigma 1
    theta, res, converged = lanczos_extreme(apply_a, dim, start, 4 * tol_rel,
                                            dtype)
    # without the allowance, rounding can put sqrt(theta + residual) an
    # ulp below the norm it bounds, and sqrt(theta) a few ulps above it
    slack = ROUNDING_ULPS * np.finfo(float).eps * max(abs(theta), 1.0)
    sigma = float(np.sqrt(max(theta - slack, 0.0)))
    sigma_hi = float(np.sqrt(max(theta + res + slack, 0.0)))
    return _bracket(sigma, sigma_hi, upper_bound, lower_provenance, converged)
