"""Certified operator norm brackets via two-pass Lanczos iteration.

The engine never reports bare point values: every norm comes back as a
NormBracket [lower, upper] with provenance on both endpoints.  A bracket
of a signed or complex element comes from one Lanczos solve, and its
converged flag is that solve's; nonnegative fiber elements and the
radial truncation need none (groupoid).  Every operator, 1x1 included,
takes the one solve path of singular_value_bracket.  A solve keeps the
recurrence's coefficients and a few vectors, whatever its step count, and
calls no LAPACK: the tridiagonal eigenproblem is solved in pure Python.  Every
start is drawn by seeded_vector from the standard-library generator, so
no run loads numpy.random.  Lower bounds are Rayleigh quotients of
explicit Ritz vectors (always valid for the top eigenvalue of a
self-adjoint operator) less a rounding allowance; upper bounds combine
the explicit residual with the a-priori bound (l1) the caller supplies.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

LANCZOS_SEED = int.from_bytes(b"HLS", "big")  # 0x48 0x4C 0x53
DEFAULT_TOL_REL = 1e-10
# the pass-1 step budget of a solve, one matvec a step:
# MAX_BASIS + (MAX_RESTARTS - 1) * (MAX_BASIS - MAX_BASIS // 4) = 9,616
MAX_BASIS = 64
MAX_RESTARTS = 200
RESIDUAL_PROVENANCE = "lanczos-residual"  # sqrt(theta + explicit residual)
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
        # written so that a nan endpoint fails the check too
        if not 0 <= self.lower <= self.upper + 1e-12:
            raise ValueError(
                f"invalid bracket [{self.lower}, {self.upper}]")

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


def _pivots(alpha, beta, sigma: float, floor: float) -> list:
    """The pivots d of T - sigma = L D L^T (L unit lower bidiagonal, no
    pivoting), every pivot smaller than floor lifted to floor with its
    sign.  By Sylvester's law of inertia the positive ones count the
    eigenvalues of T above sigma (of T perturbed by at most 2 floor)."""
    pivots, d = [], 1.0
    for a, b in zip(alpha, [0.0] + beta):
        d = a - sigma - b * b / d
        if abs(d) < floor:
            d = math.copysign(floor, d)
        pivots.append(d)
    return pivots


def _count_above(alpha, beta, sigma: float, floor: float) -> int:
    """Number of eigenvalues of T above sigma: a Sturm count."""
    return sum(d > 0 for d in _pivots(alpha, beta, sigma, floor))


def _solve_shifted(alpha, beta, sigma: float, x, floor: float) -> np.ndarray:
    """y with (T - sigma) y = x through the pivots: the inverse-iteration
    step, for which only the direction of y matters."""
    pivots = _pivots(alpha, beta, sigma, floor)
    z, zi = [], 0.0
    for xi, b, d in zip(x, [0.0] + beta, [1.0] + pivots):  # L z = x
        zi = xi - b / d * zi
        z.append(zi)
    y, yi = [], 0.0
    for zi, d, b in zip(z[::-1], pivots[::-1], [0.0] + beta[::-1]):
        yi = (zi - b * yi) / d  # D L^T y = z, from the last row up
        y.append(yi)
    return np.array(y[::-1])


def _rayleigh_tridiagonal(a: np.ndarray, b: np.ndarray, x: np.ndarray):
    """(theta, unit x, ||T x - theta x||) for the tridiagonal T with
    diagonal a and off-diagonal b."""
    x = x / np.linalg.norm(x)
    tx = a * x
    tx[:-1] += b * x[1:]
    tx[1:] += b * x[:-1]
    theta = float(x @ tx)
    return theta, x, float(np.linalg.norm(tx - theta * x))


def _tridiagonal_top(alpha: list, beta: list, x=None):
    """(theta, s): the top eigenvalue of the symmetric tridiagonal T with
    diagonal alpha and off-diagonal beta (one shorter), and a unit
    eigenvector, in pure Python and numpy (no LAPACK).

    Rayleigh quotient iteration by shifted tridiagonal solves refines x
    (the previous top Ritz vector padded with zeros; a seeded vector when
    None) until ||T s - theta s|| <= slack = 16 eps ||T||; a
    Sturm count then confirms that no eigenvalue lies above theta + 4
    slack.  Failing either, bisection on the Sturm count brackets the top
    eigenvalue to slack, and inverse iteration from the upper end, nearer
    the top eigenvalue than any other, finds s.
    """
    a, b = np.array(alpha, dtype=float), np.array(beta, dtype=float)
    k = len(a)
    radius = np.zeros(k)  # Gershgorin: the spectrum lies in [lo, hi]
    radius[:-1] += np.abs(b)
    radius[1:] += np.abs(b)
    lo, hi = float((a - radius).min()), float((a + radius).max())
    slack = 16 * np.finfo(float).eps * max(abs(lo), abs(hi))
    x = seeded_vector(k) if x is None else np.pad(x, (0, k - len(x)))
    if hi - lo <= slack:  # T is a multiple of the identity, up to slack
        theta, x, _ = _rayleigh_tridiagonal(a, b, x)
        return theta, x
    for _ in range(8):
        theta, x, residual = _rayleigh_tridiagonal(a, b, x)
        if residual <= slack:
            if not _count_above(alpha, beta, theta + 4 * slack, slack):
                return theta, x
            break
        x = _solve_shifted(alpha, beta, theta, x.tolist(), slack)
        if not np.isfinite(x).all():
            break
    while hi - lo > slack:  # about 50 halvings: slack >= 16 ulp(lo), ulp(hi)
        mid = 0.5 * (lo + hi)
        if _count_above(alpha, beta, mid, slack):
            lo = mid
        else:
            hi = mid
    x = seeded_vector(k)
    for _ in range(3):
        x = _solve_shifted(alpha, beta, hi, x.tolist(), slack)
        x /= np.linalg.norm(x)
    theta, x, _ = _rayleigh_tridiagonal(a, b, x)
    return theta, x


def _step(apply_op, q_prev, q, beta_prev: float, alpha=None):
    """One step of the three-term recurrence: (alpha, w) with w = A q -
    alpha q - beta_prev q_prev, alpha = <q, A q> unless given."""
    w = apply_op(q)
    if alpha is None:
        alpha = float(np.real(np.vdot(q, w)))
    w = w - alpha * q  # a copy: never update the operator's output
    if q_prev is not None:
        w -= beta_prev * q_prev
    return alpha, w


def _explicit_pair(apply_op, q, alphas, betas, s):
    """(theta, residual) of the Ritz vector y = sum_j s_j q_j: the Lanczos
    vectors q_j are regenerated from the unit start q by the recurrence
    with the stored coefficients, bit for bit those of pass 1, and one more
    matvec gives theta = <y, A y> and ||A y - theta y|| for the unit y."""
    y = s[0] * q
    q_prev = None
    for j in range(1, len(s)):
        _, w = _step(apply_op, q_prev, q, betas[j - 2] if j > 1 else 0.0,
                     alphas[j - 1])
        w /= betas[j - 1]
        q_prev, q = q, w
        y += s[j] * q
    y /= np.linalg.norm(y)
    ay = apply_op(y)
    theta = float(np.real(np.vdot(y, ay)))
    return theta, float(np.linalg.norm(ay - theta * y))


def lanczos_extreme(apply_op, dim: int, start: np.ndarray,
                    tol: float, dtype=np.float64,
                    max_basis: int = MAX_BASIS,
                    max_restarts: int = MAX_RESTARTS):
    """Largest eigenvalue of a self-adjoint operator by two-pass Lanczos
    (Paige 1980; Cullum and Willoughby 1985).

    Pass 1 runs the three-term recurrence without reorthogonalization and
    keeps its coefficients and two vectors.  At a breakdown, at the last
    step and every max(8, k // 16) steps, _tridiagonal_top finds the top
    Ritz pair (theta, s) of the tridiagonal T_k.  A check costs O(k); as
    the spacing grows with k past k = 128, the checks of a k-step solve
    cost O(k) in all, not O(k^2).  Lost orthogonality only repeats
    converged Ritz values, so the top one still converges to the top
    eigenvalue.  Once |beta_k s_k| <= tol, pass 2 (_explicit_pair) replays
    the recurrence to form the Ritz vector y and returns (theta, residual,
    converged): theta, the Rayleigh quotient of y, is a certified lower
    bound; residual = ||A y - theta y||; converged means residual <= tol,
    or a breakdown.  Below the rounding floor ROUNDING_ULPS eps max|alpha|
    a beta is a breakdown (the Krylov space is exhausted) and a residual
    counts as <= tol, so the test does not depend on the operator's scale.
    Otherwise pass 1 resumes, and the next replay waits until the step
    count has doubled, so replays cost at most twice the pass-1 steps.
    Pass 1 takes at most max_basis + (max_restarts - 1) * (max_basis -
    max_basis // 4) steps.
    """
    v = np.asarray(start, dtype=dtype)
    nv = np.linalg.norm(v)
    if nv == 0:
        return 0.0, 0.0, True
    next_check = 8
    steps = max_basis + (max_restarts - 1) * (max_basis - max_basis // 4)
    alphas, betas, s = [], [], None
    top_alpha, next_replay = 1.0, 0
    q_prev, q = None, v / nv
    while True:
        alpha, w = _step(apply_op, q_prev, q, betas[-1] if betas else 0.0)
        beta = float(np.linalg.norm(w))
        alphas.append(alpha)
        betas.append(beta)
        k = len(alphas)
        top_alpha = max(top_alpha, abs(alpha))
        floor = ROUNDING_ULPS * np.finfo(float).eps * top_alpha
        breakdown = beta <= floor
        if not breakdown:
            w /= beta
            q_prev, q = q, w
        last = breakdown or k >= steps
        if not last and k < next_check:
            continue
        next_check = k + max(8, k // 16)
        _theta, s = _tridiagonal_top(alphas, betas[:-1], s)
        done = max(tol, floor)
        if not last and (abs(beta * s[-1]) > done or k < next_replay):
            continue
        theta, residual = _explicit_pair(apply_op, v / nv, alphas, betas, s)
        if residual <= done or last:
            return theta, residual, bool(residual <= done or breakdown)
        next_replay = 2 * k


def singular_value_bracket(apply_m, apply_m_star, dim: int,
                           upper_bound: float, dtype=np.float64,
                           tol_rel: float = DEFAULT_TOL_REL) -> NormBracket:
    """Bracket for the largest singular value of M via Lanczos on M*M.

    One solve, holding a few dim-length vectors, from 1 + u with u =
    seeded_vector(dim), or from 1 + u + i u' for complex dtypes, u and u'
    the two halves of one draw: the uniform part meets every eigenvector,
    and the constant part points at the Perron vector of a nonnegative
    M*M.  The lower endpoint is sqrt(theta) less a rounding allowance,
    tagged "fiber-representation"; the upper one is the smaller of
    sqrt(theta + residual) plus the same allowance, tagged
    "lanczos-residual", and the caller's upper_bound, tagged "l1".
    converged is the solve's flag; the endpoints are valid either way.
    Every dim takes this path: a 1x1 operator's solve breaks down at its
    first step, and its endpoints get the same allowance.
    """
    def apply_a(x):
        return apply_m_star(apply_m(x))

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
    upper, upper_provenance = upper_bound, "l1"
    if sigma_hi < upper_bound:
        upper, upper_provenance = sigma_hi, RESIDUAL_PROVENANCE
    # a sigma rounded above upper is clipped, so the caller's bound holds
    return NormBracket(min(sigma, upper), upper, "fiber-representation",
                       upper_provenance, converged)
