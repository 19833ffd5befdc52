"""The HLS groupoid over an approximating sequence: fibered functions,
fiber representations, certified norm brackets, and amenability
certificates.

The groupoid is the tower of finite quotients over N with the free group
at infinity, so an ApproximatedGroup stands for it.  A compactly
supported continuous function on the groupoid is stored as a tail (its
value on the infinity fiber, pushed forward to every fiber at or above a
threshold level) plus finitely many explicit fiber overrides below the
threshold.  Functions with zero tail are exactly the block-diagonal
part supported over the finite fibers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import reduce

import numpy as np

from . import spectral
from .balls import BallIndex
from .errors import DegenerateCertificateError, InputError, ResourceError
from .exact import (imag_part, is_exact, over_common_denominator,
                    real_part)
from .quotients import DEFAULT_DEPTH_CAP, ApproximatedGroup, FiniteQuotient
from .spectral import ROUNDING_ULPS, NormBracket, singular_value_bracket
from .words import (DEFAULT_BALL_CAP, GroupAlgebraElement, Word,
                    adjoint_coeffs, ball_size, convolve_coeffs, l1_of)

INFINITY = "inf"
TRUNCATION_TOL_REL = 1e-9  # the ball solve's requested relative width


def _clean(d: dict) -> dict:
    return {k: v for k, v in d.items() if v}


@dataclass(frozen=True)
class FiberedFunction:
    """Element of C_c(G): tail at infinity plus overrides below the
    threshold level.  f(n,.) = pushforward of tail for n >= threshold,
    overrides[n] (default 0) for n < threshold, tail itself at infinity."""

    groupoid: ApproximatedGroup
    tail: GroupAlgebraElement
    threshold: int = 1
    overrides: dict = field(default_factory=dict)  # n -> {elem index: coeff}

    def __post_init__(self):
        if self.threshold < 1:
            raise InputError("threshold must be >= 1")
        if self.tail.rank != self.groupoid.rank:
            raise InputError("tail rank does not match the groupoid")
        clean = {}
        for n, fib in self.overrides.items():
            if not (1 <= n < self.threshold):
                raise InputError(
                    f"override level {n} outside [1, threshold)")
            fib = _clean(dict(fib))
            if fib:
                clean[n] = fib
        object.__setattr__(self, "overrides", clean)

    def fiber(self, n: int) -> dict:
        """Explicit coefficients of f(n,.) as {element index: coeff}."""
        if n < 1:
            raise InputError("fiber level must be >= 1")
        if n < self.threshold:
            return dict(self.overrides.get(n, {}))
        return self.groupoid.quotient(n).pushforward(self.tail)

    def override_levels(self) -> list[int]:
        return sorted(self.overrides)

    def same_function(self, other: "FiberedFunction") -> bool:
        """Exact equality as functions on the groupoid."""
        if self.groupoid is not other.groupoid:
            raise InputError("functions live on different groupoids")
        if dict(self.tail.coeffs) != dict(other.tail.coeffs):
            return False
        top = max(self.threshold, other.threshold)
        return all(self.fiber(n) == other.fiber(n) for n in range(1, top))

    def __add__(self, other: "FiberedFunction") -> "FiberedFunction":
        top = max(self.threshold, other.threshold)
        overrides = {}
        for n in range(1, top):
            fib = dict(self.fiber(n))
            for i, c in other.fiber(n).items():
                fib[i] = fib.get(i, 0) + c
            overrides[n] = fib
        return FiberedFunction(self.groupoid, self.tail + other.tail,
                               top, overrides)

    def scale(self, s) -> "FiberedFunction":
        overrides = {n: {i: s * c for i, c in fib.items()}
                     for n, fib in self.overrides.items()}
        return FiberedFunction(self.groupoid, self.tail.scale(s),
                               self.threshold, overrides)


# -- C_c(G) arithmetic -------------------------------------------------------

def convolve_fibered(f: FiberedFunction, g: FiberedFunction) -> FiberedFunction:
    """Fiberwise convolution; the result threshold is the max of the input
    thresholds (pushforward commutes with convolution above it)."""
    if f.groupoid is not g.groupoid:
        raise InputError("operands live on different groupoids")
    top = max(f.threshold, g.threshold)
    overrides = {}
    for n in range(1, top):
        q = f.groupoid.quotient(n)
        overrides[n] = convolve_coeffs(f.fiber(n), g.fiber(n), q.multiply)
    return FiberedFunction(f.groupoid, f.tail.convolve(g.tail), top, overrides)


def adjoint_fibered(f: FiberedFunction) -> FiberedFunction:
    overrides = {n: adjoint_coeffs(fib, f.groupoid.quotient(n).invert_element)
                 for n, fib in f.overrides.items()}
    return FiberedFunction(f.groupoid, f.tail.adjoint(), f.threshold, overrides)


def standard_lift(x: GroupAlgebraElement, groupoid: ApproximatedGroup,
                  depth_cap: int = DEFAULT_DEPTH_CAP) -> FiberedFunction:
    """The canonical lift of x: zero below the first level whose quotient
    map is injective on supp(x), pushforward of x from there on."""
    support = x.support()
    n = groupoid.separation_level(support, depth_cap=depth_cap)
    return FiberedFunction(groupoid, x, n, {})


# -- fiber representations and norm brackets --------------------------------

def _fiber_dtype(coeffs: dict):
    if any(imag_part(c) != 0 for c in coeffs.values()):
        return np.complex128
    return np.float64


def _scalar(c, dtype):
    """c as an entry of an operator of the given float or complex dtype."""
    c = complex(c)
    return c if np.issubdtype(dtype, np.complexfloating) else c.real


def _gather_matvec(terms, size: int, dtype):
    """The operator v -> sum of c * v[gather] over the (c, gather) terms.
    A gather entry equal to size reads a zero slot past the end of v."""
    terms = [(_scalar(c, dtype), gather) for c, gather in terms]
    buf = np.zeros(size + 1, dtype=dtype)  # buf[size] stays 0

    def apply(v):
        buf[:-1] = v
        out = np.zeros(size, dtype=dtype)
        for c, gather in terms:
            out += c * buf[gather]
        return out

    return apply


def fiber_matvec(q: FiniteQuotient, coeffs: dict):
    """Left-convolution operator on l2 of the quotient:
    (rho(f) xi)(g) = sum_s f(s) xi(s^-1 g)."""
    return _gather_matvec(
        [(c, q.left_mult_table(q.invert_element(s)))
         for s, c in coeffs.items()], q.order, _fiber_dtype(coeffs))


def fiber_norm_bracket(q: FiniteQuotient, coeffs: dict) -> NormBracket:
    """Certified bracket for the operator norm of the fiber representation.

    The fiber is the regular representation of a finite group.  When
    every coefficient is real and >= 0, rho(f) is a nonnegative matrix
    whose rows and columns all sum to sum f, so the constant vector is its
    Perron vector and the norm is sum f.  One matvec then gives the lower
    endpoint, the Rayleigh quotient mean(rho(f) 1) clipped to the l1 norm
    rounded down, tagged "constant-vector"; the upper endpoint is the l1
    norm rounded up (also the Schur test with constant weight), and no
    solve runs.  On the trivial group rho(f) is a scalar, and its bracket
    is the l1 pair (l1_of).  Every other element takes one Lanczos solve
    on rho(f)* rho(f) (singular_value_bracket)."""
    coeffs = _clean(coeffs)
    if not coeffs:
        return NormBracket(0.0, 0.0, "fiber-representation", "l1")
    l1_lower, l1 = l1_of(coeffs)
    if q.order == 1:  # rho(f) is the one coefficient, as a scalar
        return NormBracket(l1_lower, l1, "trivial-representation",
                           "trivial-representation")
    if all(imag_part(c) == 0 and real_part(c) >= 0 for c in coeffs.values()):
        rayleigh = float(fiber_matvec(q, coeffs)(np.ones(q.order)).mean())
        return NormBracket(min(rayleigh, l1_lower), l1, "constant-vector",
                           "l1")
    return singular_value_bracket(
        fiber_matvec(q, coeffs),
        fiber_matvec(q, adjoint_coeffs(coeffs, q.invert_element)), q.order,
        upper_bound=l1, dtype=_fiber_dtype(coeffs))


def _radial_scale(x: GroupAlgebraElement) -> float | None:
    """c when x = c * (generator sum) with real c > 0 and rank >= 2, else
    None."""
    values = list(x.coeffs.values())
    if (x.rank < 2 or len(values) != 2 * x.rank
            or any(len(w) != 1 for w in x.coeffs)
            or any(v != values[0] for v in values)):
        return None
    c = complex(values[0])
    return c.real if c.imag == 0 and c.real > 0 else None


def _radial_lower(c: float, rank: int, radius: int) -> float:
    """Lower bound for the norm of the compression of c * (generator sum)
    to the ball of the given radius, from its exact radial reduction.

    The compression M is nonnegative and commutes with the tree
    automorphisms fixing the root, so its Perron vector is radial.  On the
    normalized sphere indicators M acts as the (r+1)-square tridiagonal T
    with zero diagonal and off-diagonals b0 = c sqrt(2k), then q =
    c sqrt(2k-1).  With lambda = 2q cos t, the Perron vector of T is
    phi_j = sin((r+1-j) t) for j >= 1 and phi_0 = b0 phi_1 / lambda, where
    t is the root in (0, pi/(r+1)) of 2q^2 cos t sin((r+1) t) =
    b0^2 sin(r t).  Whatever the accuracy of t, the Rayleigh quotient of
    phi (that of the lifted radial vector on M) is a lower bound; it is
    moved down by ROUNDING_ULPS ulps of max(value, 1).
    """
    if radius == 0:
        return 0.0
    k2 = 2 * rank

    def secular(t):  # positive on (0, t*), negative at pi/(r+1)
        return (2 * (k2 - 1) * math.cos(t) * math.sin((radius + 1) * t)
                - k2 * math.sin(radius * t))

    lo, hi = 0.0, math.pi / (radius + 1)
    mid = 0.5 * hi
    while lo < mid < hi:
        if secular(mid) > 0:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    q = c * math.sqrt(k2 - 1)
    off = np.full(radius, q)
    off[0] = c * math.sqrt(k2)
    phi = np.sin((radius + 1 - np.arange(radius + 1)) * lo)
    phi[0] = off[0] * phi[1] / (2 * q * math.cos(lo))
    t_phi = np.zeros(radius + 1)
    t_phi[:-1] += off * phi[1:]
    t_phi[1:] += off * phi[:-1]
    rayleigh = float(phi @ t_phi / (phi @ phi))
    ulps = ROUNDING_ULPS * float(np.finfo(float).eps)
    return max(rayleigh - ulps * max(rayleigh, 1.0), 0.0)


def truncation_points(x: GroupAlgebraElement, radius: int,
                      ball_cap: int = DEFAULT_BALL_CAP) -> int:
    """The points the truncation of x to the ball of the given radius
    stores: none for an empty x, radius + 1 on the radial path
    (_radial_scale), the ball's words otherwise.  Raises ResourceError
    when they exceed ball_cap, so a caller can refuse the truncation
    before any other work."""
    if not x.coeffs:
        return 0
    radial = _radial_scale(x) is not None
    points = radius + 1 if radial else ball_size(radius, x.rank)
    if points > ball_cap:
        raise ResourceError(
            f"the {'radial reduction' if radial else 'solve'} on "
            f"ball({radius}, {x.rank}) stores {points} points, exceeding "
            f"the configured element cap {ball_cap}")
    return points


def truncation_lower_bound(x: GroupAlgebraElement, radius: int,
                           ball_cap: int = DEFAULT_BALL_CAP
                           ) -> tuple[float, bool]:
    """(lower, converged): the norm of the compression of the regular
    representation of x to the ball of the given radius, a certified lower
    bound for the reduced free-group norm.  An empty x gives (0.0, True);
    a positive multiple of the generator sum in rank >= 2 takes the radial
    reduction; anything else takes Lanczos on the ball.  The cap bounds
    the points the chosen path stores (truncation_points).  The l1 norm
    is read first, so one rule refuses a norm too large to solve on both
    paths.  An unconverged solve yields its Rayleigh lower bound, still
    certified, with converged False."""
    if not x.coeffs:
        return 0.0, True
    l1 = x.l1_norm()
    truncation_points(x, radius, ball_cap)
    c = _radial_scale(x)
    if c is not None:
        return _radial_lower(c, x.rank, radius), True
    bi = BallIndex(x.rank, radius, cap=ball_cap)
    dtype = _fiber_dtype(x.coeffs)
    x_star = x.adjoint()
    # one gather table per support word, shared by x and its adjoint
    gathers = {w: bi.word_move(w) for w in {*x.coeffs, *x_star.coeffs}}
    compressions = [
        _gather_matvec([(c, gathers[w]) for w, c in y.coeffs.items()],
                       bi.size, dtype) for y in (x, x_star)]
    bracket = singular_value_bracket(*compressions, bi.size, l1, dtype=dtype,
                                     tol_rel=TRUNCATION_TOL_REL)
    return bracket.lower, bracket.converged


def infinity_norm_bracket(x: GroupAlgebraElement, radius: int,
                          ball_cap: int = DEFAULT_BALL_CAP) -> NormBracket:
    """Bracket for the reduced norm of x on the infinity fiber: the
    truncation (truncation_lower_bound) below, min(l1, Haagerup) above;
    an empty x reads [0, 0].  converged is False when the truncation solve
    did not certify its requested width."""
    l1 = x.l1_norm()
    lower, converged = truncation_lower_bound(x, radius, ball_cap)
    upper, upper_prov = l1, "l1"
    if x.rank >= 2:
        haag = x.haagerup_bound()
        if haag < upper:
            upper, upper_prov = haag, "haagerup"
    return NormBracket(min(lower, upper), upper, "truncation", upper_prov,
                       converged)


def rho_norm(f: FiberedFunction, n, radius: int | None = None,
             ball_cap: int = DEFAULT_BALL_CAP) -> NormBracket:
    """Norm bracket of the fiber representation rho_n(f); n may be a level
    or the infinity marker "inf", whose bracket needs the truncation
    radius (a finite level ignores it).  rho_norm(FiberedFunction(G, x),
    n) is the quasi-regular norm of x at level n."""
    if n == INFINITY:
        if radius is None:
            raise InputError("the infinity fiber needs a truncation radius")
        return infinity_norm_bracket(f.tail, radius, ball_cap)
    return fiber_norm_bracket(f.groupoid.quotient(n), f.fiber(n))


@dataclass(frozen=True)
class LevelRow:
    level: int
    order: int
    bracket: NormBracket


@dataclass(frozen=True)
class NormProfile:
    """Norm brackets of one fibered function: a row per finite level,
    the infinity fiber, the supremum over the finite rows, and the
    reduced groupoid norm (the supremum over every fiber)."""

    rows: tuple            # LevelRow per finite level, ascending
    infinity: NormBracket
    sup_finite: NormBracket
    reduced: NormBracket

    @property
    def monotone_ok(self) -> bool:
        """The lower endpoints do not fall along the tower, up to a slack
        of 1e-8 relative to max(1, |lower|), so the check does not depend
        on the element's scale."""
        return all(b.bracket.lower + 1e-8 * max(1.0, abs(a.bracket.lower))
                   >= a.bracket.lower
                   for a, b in zip(self.rows, self.rows[1:]))

    def gap(self, ceiling: float | None = None) -> tuple[float, bool]:
        """(ceiling used, flagged): the infinity upper endpoint, sharpened
        by an externally supplied analytic ceiling when one is given, and
        whether the certified finite sup lies strictly above it, which
        proves that some finite fiber's norm exceeds the infinity fiber's.
        No analytic constant is built in."""
        used = self.infinity.upper
        if ceiling is not None:
            used = min(used, ceiling)
        return used, bool(self.sup_finite.lower > used)


def norm_profile(f: FiberedFunction, n_max: int, radius: int,
                 ball_cap: int = DEFAULT_BALL_CAP) -> NormProfile:
    """Per-level norm profile of f, the one loop over fibers.

    Levels 1..n_max and every override level are computed, and the
    infinity fiber from the radius truncation.  The other fibers are zero
    or pushforwards of the tail, so the l1 norm of the tail dominates them:
    the reduced bracket is the finite sup maxed with the infinity bracket
    whose upper endpoint is that l1 norm, valid for the true supremum.
    """
    levels = sorted(set(range(1, n_max + 1)) | set(f.override_levels()))
    rows = tuple(LevelRow(n, f.groupoid.quotient(n).order, rho_norm(f, n))
                 for n in levels)
    sup_finite = reduce(NormBracket.max, (r.bracket for r in rows))
    infinity = rho_norm(f, INFINITY, radius, ball_cap)
    tail_bound = replace(infinity, upper=f.tail.l1_norm(),
                         upper_provenance="l1")
    return NormProfile(rows, infinity, sup_finite, sup_finite.max(tail_bound))


# -- property (tau) contrast -------------------------------------------------

def markov_element(rank: int = 2) -> GroupAlgebraElement:
    gen_sum = GroupAlgebraElement.generator_sum(rank)
    return gen_sum.scale(Fraction(1, 2 * rank))


def tau_spectral_gap(base: ApproximatedGroup, n: int) -> tuple[float, bool]:
    """(value, converged): the second eigenvalue of the Markov operator on
    l2 of the level-n quotient, i.e. the top eigenvalue of the
    quasi-regular image restricted to the orthogonal complement of the
    constant vector, and the flag of the Lanczos solve behind it: (0.0,
    True) on a one-element quotient, where the projected start is 0."""
    if base.rank < 2:
        raise InputError("the tau contrast needs a rank-2 family")
    q = base.quotient(n)
    coeffs = q.pushforward(markov_element(base.rank))
    apply_m = fiber_matvec(q, coeffs)

    def project(v):
        return v - v.mean()

    def op(v):
        return project(apply_m(project(v)))

    start = project(spectral.seeded_vector(q.order))
    # looked up on the module, so a patched solver sees this solve too
    theta, _res, converged = spectral.lanczos_extreme(op, q.order, start,
                                                      1e-11)
    return float(theta), converged


# -- amenability certificates -------------------------------------------------

def _check_unit_range(value) -> None:
    r = real_part(value)
    if imag_part(value) != 0 or r < 0 or r > 1:
        raise InputError(f"certificate value {value!r} outside [0, 1]")


@dataclass(frozen=True)
class AmenabilityCertificate:
    """eta: [0,1]-valued compactly supported function; K: finite set of
    groupoid elements, each (level, element index) or ("inf", Word)."""

    eta: FiberedFunction
    K: tuple
    epsilon: float

    def __post_init__(self):
        if self.epsilon <= 0:
            raise InputError("epsilon must be positive")
        object.__setattr__(self, "K", tuple(self.K))
        for c in self.eta.tail.coeffs.values():
            _check_unit_range(c)
        for fib in self.eta.overrides.values():
            for c in fib.values():
                _check_unit_range(c)


@dataclass(frozen=True)
class CertificateRow:
    element: object        # (level, index) or ("inf", Word)
    normalization_defect: object
    translation_defect: object


@dataclass(frozen=True)
class CertificateReport:
    rows: tuple
    epsilon: float

    @property
    def worst_normalization(self):
        return max((r.normalization_defect for r in self.rows), default=0)

    @property
    def worst_translation(self):
        return max((r.translation_defect for r in self.rows), default=0)

    @property
    def passed(self) -> bool:
        return (self.worst_normalization < self.epsilon
                and self.worst_translation < self.epsilon)


def defects(coeffs: dict, g, multiply, inverse) -> tuple:
    """Normalization defect |sum_h eta(h) - 1| and translation defect
    sum_h |eta(h) - eta(h g)| of one fiber's coefficients.  An h outside
    the support S counts only as h = s g^-1 with s in S, adding |eta(s)|.
    Rational coefficients are summed as integer numerators over their
    common denominator d (over_common_denominator), divided once."""
    eta, d = over_common_denominator(coeffs)
    g_inv = inverse(g)
    translation = sum(abs(c - eta.get(multiply(h, g), 0))
                      + (0 if multiply(h, g_inv) in eta else abs(c))
                      for h, c in eta.items())
    return abs(sum(eta.values()) - d) / d, translation / d


def check_certificate(cert: AmenabilityCertificate) -> CertificateReport:
    """Evaluates the two amenability defects exactly over the fiber of each
    element of K; failure is a report outcome, not an error."""
    eta = cert.eta
    rows = []
    for level, item in cert.K:
        if isinstance(item, str):
            item = Word.parse(item, eta.groupoid.rank)
        if level == INFINITY:
            g, coeffs = item, eta.tail.coeffs
            group = (Word.__mul__, Word.inverse)
        else:
            q = eta.groupoid.quotient(level)
            g = item if isinstance(item, int) else q.evaluate(item)
            coeffs, group = eta.fiber(level), (q.multiply, q.invert_element)
        rows.append(CertificateRow((level, g), *defects(coeffs, g, *group)))
    return CertificateReport(tuple(rows), cert.epsilon)


def certificate_from_folner(xi: GroupAlgebraElement,
                            groupoid: ApproximatedGroup,
                            K, epsilon: float) -> AmenabilityCertificate:
    """eta(n, g) = sum of xi over the preimage of g: threshold-1 fibered
    function whose groupoid defects equal the group defects of xi."""
    eta = FiberedFunction(groupoid, xi, 1, {})
    return AmenabilityCertificate(eta, tuple(K), epsilon)


def folner_from_certificate(cert: AmenabilityCertificate) -> GroupAlgebraElement:
    """Normalized restriction of eta to the infinity fiber."""
    tail = cert.eta.tail
    mass = tail.sum_of_coefficients()
    mass_r = real_part(mass)
    if not mass_r:
        raise DegenerateCertificateError(
            "certificate has zero mass on the infinity fiber")
    if is_exact(mass):
        inv = Fraction(1) / Fraction(mass_r)
    else:
        inv = 1.0 / float(mass_r)
    return tail.scale(inv)
