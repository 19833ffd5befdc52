"""Certified operator norm brackets via restarted Lanczos iteration.

The engine never reports bare point values: every norm comes back as a
NormBracket [lower, upper] with provenance on both endpoints.  Lower
bounds are Rayleigh quotients (always valid for the top eigenvalue of a
self-adjoint operator); upper bounds combine the Ritz residual estimate
with whatever a-priori bound (l1, Haagerup) the caller supplies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError

LANCZOS_SEED = int.from_bytes(b"HLS", "big")  # 0x48 0x4C 0x53
DEFAULT_TOL_REL = 1e-10
MAX_BASIS = 160
MAX_RESTARTS = 60
RESIDUAL_PROVENANCE = "lanczos-residual"  # sqrt(theta + Ritz residual)
ROUNDING_ULPS = 256  # rounding allowance on theta + residual, in ulps


@dataclass(frozen=True)
class NormBracket:
    """Certified interval for an operator norm, with provenance tags.
    converged is False when the solve behind it stopped short of its
    requested width (the endpoints are still valid); max() drops it."""

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
        """Endpointwise max: bracket for max of the two norms."""
        lo = max((self, other), key=lambda b: b.lower)
        hi = max((self, other), key=lambda b: b.upper)
        return NormBracket(lo.lower, hi.upper,
                           lo.lower_provenance, hi.upper_provenance)


def _ritz_top(alphas, betas, V):
    k = len(alphas)
    T = np.diag(alphas)
    if k > 1:
        off = np.array(betas[: k - 1])
        T += np.diag(off, 1) + np.diag(off, -1)
    evals, evecs = np.linalg.eigh(T)
    s = evecs[:, -1]
    theta = float(evals[-1])
    y = s @ V[:k]
    return theta, y, s


def lanczos_extreme(apply_op, dim: int, start: np.ndarray,
                    tol: float, dtype=np.float64,
                    max_basis: int = MAX_BASIS,
                    max_restarts: int = MAX_RESTARTS):
    """Largest eigenvalue of a self-adjoint operator by restarted Lanczos
    with full reorthogonalization.

    Returns (theta, residual, converged) where theta is the Rayleigh
    quotient of the returned Ritz vector (a certified lower bound) and
    residual = ||A y - theta y||.
    """
    v = np.asarray(start, dtype=dtype)
    nv = np.linalg.norm(v)
    if nv == 0:
        return 0.0, 0.0, True
    v = v / nv
    complex_basis = np.issubdtype(dtype, np.complexfloating)
    check_every = 8
    best = (-np.inf, np.inf)
    m = min(max_basis, dim)
    # Krylov basis as contiguous rows, shared by every restart
    V = np.empty((m, dim), dtype=dtype)
    for _ in range(max_restarts):
        alphas: list[float] = []
        betas: list[float] = []
        V[0] = v
        breakdown = False
        y = None
        for j in range(m):
            w = apply_op(V[j])
            alpha = float(np.real(np.vdot(V[j], w)))
            alphas.append(alpha)
            w = w - alpha * V[j]  # a copy: never update the operator's output
            if j > 0:
                w -= betas[-1] * V[j - 1]
            # full reorthogonalization, two passes
            active = V[: j + 1]
            for _pass in range(2):
                if complex_basis:
                    coeffs = (active @ w.conj()).conj()
                else:
                    coeffs = active @ w
                w -= coeffs @ active
            beta = float(np.linalg.norm(w))
            betas.append(beta)
            if beta <= 1e-14 * max(1.0, abs(alpha)):
                breakdown = True
            elif j + 1 < m:
                np.divide(w, beta, out=V[j + 1])
            if breakdown or (j + 1) % check_every == 0 or j + 1 == m:
                theta, y, s = _ritz_top(alphas, betas[:-1], V)
                residual = 0.0 if breakdown else abs(betas[-1] * s[-1])
                if theta > best[0]:
                    best = (theta, residual)
                if residual <= tol or breakdown or len(alphas) >= dim:
                    return best[0], residual, True
            if breakdown:
                break
        v = y / np.linalg.norm(y)
    return best[0], best[1], False


def _starts(dim: int, dtype):
    rng = np.random.default_rng(LANCZOS_SEED)
    r = rng.standard_normal(dim)
    if np.issubdtype(dtype, np.complexfloating):
        r = r + 1j * rng.standard_normal(dim)
    yield np.asarray(r, dtype=dtype)
    yield np.ones(dim, dtype=dtype)


def _bracket(sigma: float, sigma_hi: float, upper_bound: float | None,
             lower_provenance: str, upper_provenance: str,
             converged: bool = True) -> NormBracket:
    """[sigma, min(sigma_hi, upper_bound)]; the upper endpoint keeps the
    caller's tag only when the caller's bound is the smaller one."""
    if upper_bound is None or sigma_hi < upper_bound:
        upper, upper_provenance = sigma_hi, RESIDUAL_PROVENANCE
    else:
        upper = upper_bound
    return NormBracket(sigma, max(upper, sigma), lower_provenance,
                       upper_provenance, converged)


def singular_value_bracket(apply_m, apply_m_star, dim: int,
                           upper_bound: float | None = None,
                           upper_provenance: str = "l1",
                           lower_provenance: str = "fiber-representation",
                           dtype=np.float64,
                           tol_rel: float = DEFAULT_TOL_REL) -> NormBracket:
    """Bracket for the largest singular value of M via Lanczos on M*M.

    Runs the deterministic seeded start and the constant-vector start and
    keeps the best.  The upper endpoint is the smaller of sqrt(theta +
    residual) plus a rounding allowance, tagged "lanczos-residual", and
    the caller's upper_bound, tagged upper_provenance.  Raises
    ConvergenceError (carrying the best verified bracket) if neither run
    certifies the requested width.
    """
    if dim == 0:
        return NormBracket(0.0, 0.0, lower_provenance, upper_provenance)

    def apply_a(x):
        return apply_m_star(apply_m(x))

    if dim == 1:
        v = np.ones(1, dtype=dtype)
        sigma = float(np.sqrt(max(np.real(apply_a(v)[0]), 0.0)))
        return _bracket(sigma, sigma, upper_bound, lower_provenance,
                        upper_provenance)

    best_theta, best_res = 0.0, np.inf
    converged_any = False
    basis = MAX_BASIS if dim <= 200_000 else 64  # cap memory for huge balls
    for start in _starts(dim, dtype):
        # residual tolerance matched to the requested sigma-bracket width
        sigma_guess = np.sqrt(max(best_theta, 1.0))
        tol = 2 * sigma_guess * tol_rel * (1 + sigma_guess)
        theta, res, conv = lanczos_extreme(apply_a, dim, start, tol, dtype,
                                           max_basis=basis)
        converged_any = converged_any or conv
        if theta > best_theta:
            best_theta, best_res = theta, res
    sigma = float(np.sqrt(max(best_theta, 0.0)))
    # without the allowance, rounding can put sqrt(theta + residual) an
    # ulp below the norm it bounds (4 on fd level 4 for the generator sum)
    slack = ROUNDING_ULPS * np.finfo(float).eps * max(abs(best_theta), 1.0)
    sigma_hi = float(np.sqrt(max(best_theta + best_res + slack, 0.0)))
    bracket = _bracket(sigma, sigma_hi, upper_bound, lower_provenance,
                       upper_provenance, converged_any)
    if not converged_any:
        raise ConvergenceError(
            "Lanczos did not certify the requested bracket width",
            bracket=bracket)
    return bracket


def symmetric_top_eigenvalue(apply_m, dim: int, project=None,
                             dtype=np.float64,
                             tol: float = 1e-11) -> float:
    """Largest (signed) eigenvalue of a self-adjoint operator, optionally
    restricted to a subspace via an orthogonal projection callable."""
    if dim == 1:
        if project is not None:
            return 0.0
        return float(np.real(apply_m(np.ones(1, dtype=dtype))[0]))

    def op(x):
        if project is not None:
            x = project(x)
        y = apply_m(x)
        if project is not None:
            y = project(y)
        return y

    best = -np.inf
    for start in _starts(dim, dtype):
        if project is not None:
            start = project(start)
        if np.linalg.norm(start) < 1e-300:
            continue
        theta, _res, _conv = lanczos_extreme(op, dim, start, tol, dtype)
        best = max(best, theta)
    return float(best)
