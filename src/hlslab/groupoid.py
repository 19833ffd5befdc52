"""The HLS groupoid over an approximating sequence: fibered functions,
fiber representations, certified norm brackets, and amenability
certificates.

A compactly supported continuous function on the groupoid is stored as a
tail (its value on the infinity fiber, pushed forward to every fiber at or
above a threshold level) plus finitely many explicit fiber overrides below
the threshold.  Functions with zero tail are exactly the block-diagonal
part supported over the finite fibers.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import reduce

import numpy as np

from .balls import BallIndex
from .errors import ConvergenceError, DegenerateCertificateError, InputError
from .exact import RationalComplex, is_exact, real_part
from .quotients import ApproximatedGroup, FiniteQuotient
from .spectral import NormBracket, singular_value_bracket, symmetric_top_eigenvalue
from .words import (DEFAULT_BALL_CAP, GroupAlgebraElement, Word,
                    adjoint_coeffs, convolve_coeffs, l1_of)

INFINITY = "inf"
DEFAULT_GAP_MARGIN = 0.25
DEFAULT_LIFT_DEPTH_CAP = 20


class HLSGroupoid:
    """Bundle of the finite quotients over N with the free group at
    infinity."""

    def __init__(self, base: ApproximatedGroup):
        self.base = base

    @property
    def rank(self) -> int:
        return self.base.rank

    def quotient(self, n: int) -> FiniteQuotient:
        return self.base.quotient(n)


def _clean(d: dict) -> dict:
    return {k: v for k, v in d.items() if v}


@dataclass(frozen=True)
class FiberedFunction:
    """Element of C_c(G): tail at infinity plus overrides below the
    threshold level.  f(n,.) = pushforward of tail for n >= threshold,
    overrides[n] (default 0) for n < threshold, tail itself at infinity."""

    groupoid: HLSGroupoid
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

    def is_tail_zero(self) -> bool:
        return not self.tail.coeffs

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

    # -- serialization -------------------------------------------------------

    def to_json_dict(self) -> dict:
        overrides = {}
        for n in sorted(self.overrides):
            q = self.groupoid.quotient(n)
            dense = []
            for i in range(q.order):
                c = complex(self.overrides[n].get(i, 0))
                dense.append([c.real, c.imag])
            overrides[str(n)] = dense
        import json
        return {"tail": json.loads(self.tail.to_json()),
                "threshold": self.threshold,
                "overrides": overrides}

    @staticmethod
    def from_json_dict(data: dict, groupoid: HLSGroupoid) -> "FiberedFunction":
        import json
        tail = GroupAlgebraElement.from_json(
            json.dumps(data["tail"]), rank=groupoid.rank)
        overrides = {}
        for n_s, dense in data.get("overrides", {}).items():
            fib = {}
            for i, (re_v, im_v) in enumerate(dense):
                c = complex(re_v, im_v)
                if c:
                    fib[i] = c.real if c.imag == 0 else c
            overrides[int(n_s)] = fib
        return FiberedFunction(groupoid, tail, int(data["threshold"]),
                               overrides)


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


def restrict_to_infinity(f: FiberedFunction) -> GroupAlgebraElement:
    """The quotient map onto the group algebra of the base group."""
    return f.tail


def standard_lift(x: GroupAlgebraElement, groupoid: HLSGroupoid,
                  depth_cap: int = DEFAULT_LIFT_DEPTH_CAP) -> FiberedFunction:
    """The canonical lift of x: zero below the first level whose quotient
    map is injective on supp(x), pushforward of x from there on."""
    support = x.support()
    n = groupoid.base.separation_level(support, depth_cap=depth_cap)
    return FiberedFunction(groupoid, x, n, {})


# -- fiber representations and norm brackets --------------------------------

def _fiber_dtype(coeffs: dict):
    for c in coeffs.values():
        if isinstance(c, complex) and c.imag != 0:
            return np.complex128
        if isinstance(c, RationalComplex) and c.im != 0:
            return np.complex128
    return np.float64


def fiber_matvec(q: FiniteQuotient, coeffs: dict):
    """Left-convolution operator on l2 of the quotient:
    (rho(f) xi)(g) = sum_s f(s) xi(s^-1 g)."""
    tables = [(complex(c), q.left_mult_table(q.invert_element(s)))
              for s, c in coeffs.items()]

    def apply(x):
        y = np.zeros(q.order, dtype=x.dtype)
        for c, tbl in tables:
            cc = c if np.issubdtype(x.dtype, np.complexfloating) else c.real
            y += cc * x[tbl]
        return y

    return apply


def rho_dense(q: FiniteQuotient, coeffs: dict, exact: bool = False):
    """Dense matrix of the fiber representation: row g, column h, entry
    f(g h^-1).  exact=True keeps coefficients as Python objects."""
    if exact:
        m = [[0] * q.order for _ in range(q.order)]
        for s, c in coeffs.items():
            tbl = q.left_mult_table(s)
            for h in range(q.order):
                m[int(tbl[h])][h] += c
        return m
    m = np.zeros((q.order, q.order), dtype=_fiber_dtype(coeffs))
    for s, c in coeffs.items():
        tbl = q.left_mult_table(s)
        cc = complex(c)
        m[tbl, np.arange(q.order)] += (
            cc if m.dtype == np.complex128 else cc.real)
    return m


def fiber_norm_bracket(q: FiniteQuotient, coeffs: dict,
                       tol_rel: float = 1e-10) -> NormBracket:
    """Certified bracket for the operator norm of the fiber representation."""
    coeffs = _clean(coeffs)
    if not coeffs:
        return NormBracket(0.0, 0.0, "fiber-representation", "l1")
    l1 = l1_of(coeffs)
    if q.order == 1:
        v = abs(sum(complex(c) for c in coeffs.values()))
        return NormBracket(v, v, "trivial-representation",
                           "trivial-representation")
    dtype = _fiber_dtype(coeffs)
    apply_m = fiber_matvec(q, coeffs)
    apply_ms = fiber_matvec(q, adjoint_coeffs(coeffs, q.invert_element))
    return singular_value_bracket(apply_m, apply_ms, q.order,
                                  upper_bound=l1, dtype=dtype,
                                  tol_rel=tol_rel)


def _truncation_matvec(bi: BallIndex, x: GroupAlgebraElement, dtype,
                       gathers: dict[Word, np.ndarray]):
    """Compression of the left-regular action of x to the ball: one gather
    per support word through a zero-padded buffer.  gathers caches the
    word tables, so x and its adjoint share those of common words."""
    complex_op = np.issubdtype(dtype, np.complexfloating)
    terms = []
    for w, c in x.coeffs.items():
        if w not in gathers:
            gathers[w] = bi.word_move(w)
        c = complex(c)
        terms.append((c if complex_op else c.real, gathers[w]))
    buf = np.zeros(bi.size + 1, dtype=dtype)  # buf[size] stays 0

    def apply(v):
        buf[:-1] = v
        out = np.zeros(bi.size, dtype=dtype)
        for c, gather in terms:
            out += c * buf[gather]
        return out

    return apply


def _truncation_bracket(x: GroupAlgebraElement, radius: int, ball_cap: int,
                        tol_rel: float) -> NormBracket:
    """Bracket for the norm of the compression of x to the ball of the
    given radius.  An unconverged solve yields its bracket, with converged
    False: the Rayleigh lower endpoint is still certified."""
    bi = BallIndex(x.rank, radius, cap=ball_cap)
    dtype = _fiber_dtype(x.coeffs)
    gathers: dict[Word, np.ndarray] = {}
    try:
        return singular_value_bracket(
            _truncation_matvec(bi, x, dtype, gathers),
            _truncation_matvec(bi, x.adjoint(), dtype, gathers), bi.size,
            upper_bound=None, lower_provenance="truncation",
            dtype=dtype, tol_rel=tol_rel)
    except ConvergenceError as err:
        return err.bracket


def truncation_lower_bound(x: GroupAlgebraElement, radius: int,
                           ball_cap: int = DEFAULT_BALL_CAP,
                           tol_rel: float = 1e-9) -> float:
    """Norm of the compression of the regular representation of x to the
    ball of the given radius: a certified lower bound for the reduced
    free-group norm, also when the solve did not converge."""
    if not x.coeffs:
        return 0.0
    return _truncation_bracket(x, radius, ball_cap, tol_rel).lower


def infinity_norm_bracket(x: GroupAlgebraElement, radius: int,
                          ball_cap: int = DEFAULT_BALL_CAP,
                          tol_rel: float = 1e-9) -> NormBracket:
    """Bracket for the reduced norm of x on the infinity fiber: truncation
    compression below, min(l1, Haagerup) above.  converged is False when
    the truncation solve did not certify its requested width."""
    if not x.coeffs:
        return NormBracket(0.0, 0.0, "truncation", "l1")
    truncation = _truncation_bracket(x, radius, ball_cap, tol_rel)
    l1 = x.l1_norm()
    upper, upper_prov = l1, "l1"
    if x.rank >= 2:
        haag = x.haagerup_bound()
        if haag < upper:
            upper, upper_prov = haag, "haagerup"
    return NormBracket(min(truncation.lower, upper), upper, "truncation",
                       upper_prov, truncation.converged)


def rho_norm(f: FiberedFunction, n, radius: int = 8,
             ball_cap: int = DEFAULT_BALL_CAP,
             tol_rel: float = 1e-10) -> NormBracket:
    """Norm bracket of the fiber representation rho_n(f); n may be a level
    or the infinity marker "inf"."""
    if n == INFINITY:
        return infinity_norm_bracket(f.tail, radius, ball_cap,
                                     max(tol_rel, 1e-9))
    return fiber_norm_bracket(f.groupoid.quotient(n), f.fiber(n), tol_rel)


def quasi_regular_norm(x: GroupAlgebraElement, groupoid: HLSGroupoid, n,
                       radius: int = 8,
                       ball_cap: int = DEFAULT_BALL_CAP,
                       tol_rel: float = 1e-10) -> NormBracket:
    """Bracket for the quasi-regular representation norm of x at level n
    (the pushforward acting on l2 of the quotient), or at infinity."""
    f = FiberedFunction(groupoid, x, 1, {})
    return rho_norm(f, n, radius, ball_cap, tol_rel)


@dataclass(frozen=True)
class LevelRow:
    level: object  # int or "inf"
    order: object  # int or "inf"
    bracket: NormBracket


@dataclass(frozen=True)
class ReducedNormReport:
    rows: tuple
    bracket: NormBracket


def _level_rows(f: FiberedFunction, n_max: int,
                tol_rel: float) -> list[LevelRow]:
    return [LevelRow(n, f.groupoid.quotient(n).order,
                     rho_norm(f, n, tol_rel=tol_rel))
            for n in range(1, n_max + 1)]


def reduced_norm_estimate(f: FiberedFunction, n_max: int, radius: int = 8,
                          ball_cap: int = DEFAULT_BALL_CAP,
                          tol_rel: float = 1e-10) -> ReducedNormReport:
    """Bracket for sup over all fibers of the fiber representation norms.

    Levels above n_max are dominated by the l1 norm of the tail, so the
    upper endpoint is valid for the true supremum.
    """
    rows = _level_rows(f, n_max, tol_rel)
    brackets = [r.bracket for r in rows]
    if not f.is_tail_zero():
        inf_bracket = rho_norm(f, INFINITY, radius, ball_cap, tol_rel)
        rows.append(LevelRow(INFINITY, INFINITY, inf_bracket))
        # the tail's l1 norm dominates every uncomputed fiber
        brackets.append(replace(inf_bracket, upper=f.tail.l1_norm(),
                                upper_provenance="l1"))
    return ReducedNormReport(tuple(rows), reduce(NormBracket.max, brackets))


@dataclass(frozen=True)
class GapReport:
    family: str
    rows: tuple            # LevelRow per finite level
    infinity: NormBracket
    sup_finite: NormBracket
    trivial_lower: float   # |sum of coefficients|: a maximal-norm lower bound
    l1_upper: float
    monotone_ok: bool
    monotone_failures: tuple
    gap_margin: float
    infinity_ceiling_used: float
    gap_flagged: bool


def fd_norm_profile(x: GroupAlgebraElement, groupoid: HLSGroupoid,
                    n_max: int, radius: int = 12,
                    margin: float = DEFAULT_GAP_MARGIN,
                    infinity_ceiling: float | None = None,
                    ball_cap: int = DEFAULT_BALL_CAP,
                    tol_rel: float = 1e-10) -> GapReport:
    """Per-level quasi-regular norm profile with the gap diagnosis.

    The GAP flag is raised when the certified finite-level sup exceeds the
    infinity-fiber upper bound by more than the margin.  The engine's own
    upper bound (l1 / Haagerup) can be sharpened by an externally supplied
    analytic ceiling; no analytic constant is built in.
    """
    if not x.is_self_adjoint(tol=1e-12):
        raise InputError("profile element must be self-adjoint")
    f = FiberedFunction(groupoid, x, 1, {})
    rows = _level_rows(f, n_max, tol_rel)
    failures = [(a.level, b.level) for a, b in zip(rows, rows[1:])
                if b.bracket.lower + 1e-8 < a.bracket.lower]
    sup_finite = reduce(NormBracket.max, (r.bracket for r in rows))
    inf_bracket = rho_norm(f, INFINITY, radius, ball_cap, tol_rel)
    ceiling = inf_bracket.upper
    if infinity_ceiling is not None:
        ceiling = min(ceiling, infinity_ceiling)
    return GapReport(
        family=groupoid.base.family,
        rows=tuple(rows),
        infinity=inf_bracket,
        sup_finite=sup_finite,
        trivial_lower=float(abs(complex(x.sum_of_coefficients()))),
        l1_upper=x.l1_norm(),
        monotone_ok=not failures,
        monotone_failures=tuple(failures),
        gap_margin=margin,
        infinity_ceiling_used=ceiling,
        gap_flagged=bool(sup_finite.lower >= ceiling + margin),
    )


# -- property (tau) contrast -------------------------------------------------

def markov_element(rank: int = 2) -> GroupAlgebraElement:
    gen_sum = GroupAlgebraElement.generator_sum(rank)
    return gen_sum.scale(Fraction(1, 2 * rank))


def tau_spectral_gap(groupoid_or_base, n: int) -> float:
    """Second eigenvalue of the Markov operator on l2 of the level-n
    quotient: the top eigenvalue of the quasi-regular image restricted to
    the orthogonal complement of the constant vector."""
    base = (groupoid_or_base.base
            if isinstance(groupoid_or_base, HLSGroupoid) else groupoid_or_base)
    if base.rank < 2:
        raise InputError("the tau contrast needs a rank-2 family")
    q = base.quotient(n)
    coeffs = q.pushforward(markov_element(base.rank))
    if q.order == 1:
        return 0.0
    apply_m = fiber_matvec(q, coeffs)

    def project(v):
        return v - v.mean()

    return symmetric_top_eigenvalue(apply_m, q.order, project=project)


# -- amenability certificates -------------------------------------------------

def _check_unit_range(value) -> None:
    r = real_part(value)
    im = value.im if isinstance(value, RationalComplex) else (
        value.imag if isinstance(value, complex) else 0)
    if im != 0 or r < 0 or r > 1:
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
    sum_h |eta(h) - eta(h g)| of one fiber's coefficients."""
    g_inv = inverse(g)
    hs = set(coeffs) | {multiply(h, g_inv) for h in coeffs}
    translation = sum(abs(coeffs.get(h, 0) - coeffs.get(multiply(h, g), 0))
                      for h in hs)
    return abs(sum(coeffs.values()) - 1), translation


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


def certificate_from_folner(xi: GroupAlgebraElement, groupoid: HLSGroupoid,
                            K, epsilon: float) -> AmenabilityCertificate:
    """eta(n, g) = sum of xi over the preimage of g: threshold-1 fibered
    function whose groupoid defects equal the group defects of xi."""
    for c in xi.coeffs.values():
        _check_unit_range(c)
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
