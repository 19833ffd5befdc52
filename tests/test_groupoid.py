import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hlslab.errors import (DegenerateCertificateError, InputError,
                           ResourceError)
from hlslab.exact import RationalComplex
from hlslab.groupoid import (INFINITY, AmenabilityCertificate, FiberedFunction,
                             HLSGroupoid, adjoint_fibered, certificate_from_folner,
                             check_certificate, convolve_fibered,
                             fd_norm_profile, fiber_norm_bracket,
                             folner_from_certificate, infinity_norm_bracket,
                             markov_element, quasi_regular_norm,
                             reduced_norm_estimate, restrict_to_infinity,
                             rho_dense, rho_norm, standard_lift,
                             tau_spectral_gap, truncation_lower_bound)
from hlslab.words import GroupAlgebraElement, Word, ball


@pytest.fixture(scope="module")
def gfd(fd):
    return HLSGroupoid(fd)


@pytest.fixture(scope="module")
def gcyc(cyclic):
    return HLSGroupoid(cyclic)


@pytest.fixture(scope="module")
def gcong(congruence):
    return HLSGroupoid(congruence)


def gen_sum(rank=2):
    return GroupAlgebraElement.generator_sum(rank)


def exact_elements(rank, radius=2, max_size=4):
    words = ball(radius, rank)
    frac = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    pair = st.tuples(st.sampled_from(words),
                     st.builds(RationalComplex, frac, frac))
    return st.lists(pair, max_size=max_size).map(
        lambda ps: GroupAlgebraElement.from_pairs(ps, rank))


# -- fibered arithmetic -------------------------------------------------------

def test_single_fiber_delta_convolution(gfd):
    # block supported on one finite fiber: convolution stays in that fiber
    q = gfd.quotient(2)
    a_idx = q.evaluate(Word((1,), 2))
    b_idx = q.evaluate(Word((2,), 2))
    f = FiberedFunction(gfd, GroupAlgebraElement.zero(2), 3, {2: {a_idx: 1}})
    g = FiberedFunction(gfd, GroupAlgebraElement.zero(2), 3, {2: {b_idx: 1}})
    prod = convolve_fibered(f, g)
    assert prod.fiber(2) == {q.multiply(a_idx, b_idx): 1}
    assert prod.fiber(1) == {}
    assert prod.is_tail_zero()


def test_cross_fiber_product_vanishes(gfd):
    # blocks over distinct fibers multiply to zero
    f = FiberedFunction(gfd, GroupAlgebraElement.zero(2), 3, {1: {0: 1}})
    g = FiberedFunction(gfd, GroupAlgebraElement.zero(2), 3, {2: {0: 1}})
    prod = convolve_fibered(f, g)
    assert prod.is_tail_zero()
    assert all(prod.fiber(n) == {} for n in (1, 2))


def test_lift_of_generator_sum_squared(gfd):
    x = gen_sum()
    f = standard_lift(x, gfd)
    sq = convolve_fibered(f, f)
    # identity coefficient of x*x is 4, support has 13 words
    assert sq.tail.coeffs[Word.identity(2)] == 4
    assert len(sq.tail.coeffs) == 13
    # the lift vanishes below its threshold, so the square does too
    for n in range(1, sq.threshold):
        assert sq.fiber(n) == {}
    # from the threshold on, fibers are pushforwards of the square
    q = gfd.quotient(sq.threshold)
    a = q.pushforward(x)
    direct = {}
    for i, ci in a.items():
        for j, cj in a.items():
            k = q.multiply(i, j)
            direct[k] = direct.get(k, 0) + ci * cj
    assert sq.fiber(sq.threshold) == {k: v for k, v in direct.items() if v}


def test_adjoint_fixes_involutive_elements(gfd):
    x = gen_sum()
    f = standard_lift(x, gfd)
    assert adjoint_fibered(f).same_function(f)
    g = FiberedFunction(gfd, GroupAlgebraElement.delta(Word((1,), 2)), 1, {})
    gs = adjoint_fibered(g)
    assert gs.tail.coeffs == {Word((-1,), 2): 1}


def test_restrict_to_infinity(gfd):
    x = gen_sum()
    f = FiberedFunction(gfd, x, 3, {1: {0: 5.0}})
    assert restrict_to_infinity(f) is x


def test_addition_and_scaling(gfd):
    f = standard_lift(gen_sum(), gfd)
    g = f + f.scale(-1)
    assert g.is_tail_zero()
    assert all(g.fiber(n) == {} for n in range(1, g.threshold))


# -- standard lift thresholds -------------------------------------------------

def test_lift_threshold_identity(gfd):
    f = standard_lift(GroupAlgebraElement.delta(Word.identity(2)), gfd)
    assert f.threshold == 1


def test_lift_threshold_two_letters(gfd):
    x = GroupAlgebraElement.from_pairs(
        [(Word((1,), 2), 1), (Word((2,), 2), 1)], 2)
    assert standard_lift(x, gfd).threshold == 2


def test_lift_threshold_cyclic_ball(gcyc):
    x = GroupAlgebraElement.from_pairs(
        [(Word((1,), 1) ** j, 1) for j in range(-2, 3)], 1)
    assert standard_lift(x, gcyc).threshold == 3


def test_lift_depth_cap(gfd):
    x = GroupAlgebraElement.from_pairs(
        [(Word.identity(2), 1), (Word.parse("abAB"), 1)], 2)
    with pytest.raises(ResourceError):
        standard_lift(x, gfd, depth_cap=4)


# -- norms at finite levels and at infinity -----------------------------------

def test_generator_sum_fiber_norm_is_4(gfd):
    f = FiberedFunction(gfd, gen_sum(), 1, {})
    for n in (1, 2, 3):
        br = rho_norm(f, n)
        assert br.lower <= 4.0 + 1e-9
        assert abs(br.midpoint - 4.0) < 1e-8


def test_radius_2_truncation_is_sqrt7():
    assert abs(truncation_lower_bound(gen_sum(), 2) - math.sqrt(7)) < 1e-9


def test_infinity_upper_is_haagerup(gfd):
    br = infinity_norm_bracket(gen_sum(), radius=2)
    assert br.upper == pytest.approx(4.0)
    assert br.upper_provenance in ("haagerup", "l1")


def test_cyclic_circulant_norm_and_character_formula(gcyc):
    # delta_a + delta_{a^-1} on Z/2^n is a circulant: norm max_k 2cos(2 pi k/N)
    x = GroupAlgebraElement.from_pairs(
        [(Word((1,), 1), 1), (Word((-1,), 1), 1)], 1)
    for n in (2, 3, 4):
        N = 2 ** n
        expected = max(abs(2 * math.cos(2 * math.pi * k / N))
                       for k in range(N))
        br = quasi_regular_norm(x, gcyc, n)
        assert abs(br.lower - expected) < 1e-9
        assert br.upper >= expected - 1e-12


def test_character_formula_random_cyclic(gcyc):
    rng = random.Random(7)
    n = 4
    N = 2 ** n
    a = Word((1,), 1)
    for _ in range(5):
        coeffs = [rng.randint(-3, 3) for _ in range(5)]
        x = GroupAlgebraElement.from_pairs(
            [(a ** j, c) for j, c in enumerate(coeffs)], 1)
        expected = max(
            abs(sum(c * cmath.exp(2j * math.pi * j * k / N)
                    for j, c in enumerate(coeffs)))
            for k in range(N))
        br = quasi_regular_norm(x, gcyc, n)
        assert abs(br.lower - expected) < 1e-8 * max(1.0, expected)


def test_upper_endpoint_not_below_exact_norm(gfd, gcyc):
    # the generator sum has norm exactly 4 on every fd fiber and a + A has
    # norm exactly 2 on every cyclic fiber; sqrt(theta + residual) alone
    # rounds one ulp below both
    for n in (1, 2, 3, 4):
        assert quasi_regular_norm(gen_sum(), gfd, n).upper >= 4.0
    x = GroupAlgebraElement.from_pairs([("a", 1), ("A", 1)], 1)
    for n in range(1, 9):
        assert quasi_regular_norm(x, gcyc, n).upper >= 2.0


def test_trivial_fiber_is_scalar(gfd):
    br = quasi_regular_norm(gen_sum(), gfd, 1)
    assert br.lower == br.upper == 4.0
    assert br.lower_provenance == "trivial-representation"


# -- oracle cross-checks on the fiber representation --------------------------

def test_lanczos_matches_dense_eigensolver(gfd, gcong):
    rng = random.Random(5)
    words = ball(2, 2)
    for g in (gfd, gcong):
        for n in (2, 3):
            q = g.quotient(n)
            if q.order > 500:
                continue
            pairs = [(rng.choice(words), complex(rng.uniform(-2, 2),
                                                 rng.uniform(-2, 2)))
                     for _ in range(5)]
            x = GroupAlgebraElement.from_pairs(pairs, 2)
            coeffs = q.pushforward(x)
            if not coeffs:
                continue
            m = rho_dense(q, coeffs)
            expected = float(np.linalg.norm(m, 2))
            br = fiber_norm_bracket(q, coeffs)
            assert abs(br.lower - expected) < 1e-9 * max(1.0, expected)
            assert br.upper >= expected - 1e-12


@pytest.fixture(scope="module")
def small_fibers(gfd, gcong):
    return [g.quotient(n) for g, n in
            ((gfd, 2), (gfd, 3), (gfd, 4), (gcong, 2), (gcong, 3))]


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_bracket_endpoints_name_their_source(small_fibers, data):
    q = data.draw(st.sampled_from(small_fibers))
    coeff = st.floats(-2, 2, allow_nan=False).filter(lambda c: abs(c) > 1e-3)
    pairs = data.draw(st.lists(
        st.tuples(st.sampled_from(ball(2, 2)), coeff),
        min_size=5, max_size=5))
    coeffs = q.pushforward(GroupAlgebraElement.from_pairs(pairs, 2))
    if not coeffs or q.order == 1:
        return
    br = fiber_norm_bracket(q, coeffs)
    l1 = sum(abs(c) for c in coeffs.values())
    truth = float(np.linalg.norm(rho_dense(q, coeffs), 2))
    assert br.lower <= truth + 1e-12
    assert br.upper_provenance in ("l1", "lanczos-residual")
    if br.upper_provenance == "l1":
        assert br.upper == pytest.approx(l1, rel=1e-12, abs=1e-12)
    else:
        assert br.upper < l1


def test_representation_property_exact(gfd):
    # rho_n(x * y) == rho_n(x) rho_n(y) with exact rational arithmetic
    q = gfd.quotient(3)
    rng = random.Random(3)
    words = ball(2, 2)
    for _ in range(3):
        x = GroupAlgebraElement.from_pairs(
            [(rng.choice(words),
              RationalComplex(Fraction(rng.randint(-3, 3), 2),
                              Fraction(rng.randint(-3, 3), 2)))
             for _ in range(4)], 2)
        y = GroupAlgebraElement.from_pairs(
            [(rng.choice(words),
              RationalComplex(Fraction(rng.randint(-3, 3), 2),
                              Fraction(0)))
             for _ in range(4)], 2)
        mx = rho_dense(q, q.pushforward(x), exact=True)
        my = rho_dense(q, q.pushforward(y), exact=True)
        mxy = rho_dense(q, q.pushforward(x.convolve(y)), exact=True)
        order = q.order
        for i in range(order):
            for j in range(order):
                acc = 0
                for k in range(order):
                    if mx[i][k] and my[k][j]:
                        acc = acc + mx[i][k] * my[k][j]
                assert acc == mxy[i][j] or (not acc and not mxy[i][j])


def test_c_star_identity(gfd):
    # || rho(f* f) || == || rho(f) ||^2 for each fiber
    x = GroupAlgebraElement.from_pairs(
        [(Word((1,), 2), 1.0), (Word((2,), 2), 0.5),
         (Word.parse("ab"), -1.0)], 2)
    f = FiberedFunction(gfd, x, 1, {})
    ff = convolve_fibered(adjoint_fibered(f), f)
    for n in (2, 3):
        a = rho_norm(f, n).midpoint
        b = rho_norm(ff, n).midpoint
        assert abs(b - a * a) < 1e-6 * max(1.0, a * a)


@settings(max_examples=20, deadline=None)
@given(exact_elements(2), exact_elements(2), exact_elements(2))
def test_star_algebra_axioms_fiberwise(fd, x, y, z):
    g = HLSGroupoid(fd)
    fx = FiberedFunction(g, x, 1, {})
    fy = FiberedFunction(g, y, 1, {})
    fz = FiberedFunction(g, z, 1, {})
    left = convolve_fibered(convolve_fibered(fx, fy), fz)
    right = convolve_fibered(fx, convolve_fibered(fy, fz))
    assert left.same_function(right)
    # (xy)* == y* x*
    a = adjoint_fibered(convolve_fibered(fx, fy))
    b = convolve_fibered(adjoint_fibered(fy), adjoint_fibered(fx))
    assert a.same_function(b)
    # involution
    assert adjoint_fibered(adjoint_fibered(fx)).same_function(fx)


# -- truncation bounds --------------------------------------------------------

def test_truncation_monotone_in_radius():
    x = gen_sum()
    vals = [truncation_lower_bound(x, r) for r in (1, 2, 4, 6)]
    for a, b in zip(vals, vals[1:]):
        assert b + 1e-9 >= a
    assert all(v <= x.l1_norm() + 1e-9 for v in vals)


def _dense_compression(x, radius):
    """Matrix of P_r lambda(x) P_r on the ball of the given radius, built
    by multiplying words."""
    words = ball(radius, x.rank)
    index = {w: i for i, w in enumerate(words)}
    m = np.zeros((len(words), len(words)), dtype=complex)
    for j, u in enumerate(words):
        for w, c in x.coeffs.items():
            i = index.get(w * u)
            if i is not None:
                m[i, j] += complex(c)
    return m


@pytest.mark.parametrize("rank,radius", [(2, 3), (3, 2)])
def test_complex_truncation_matches_dense_compression(rank, radius):
    rng = random.Random(17)
    words = [w for w in ball(2, rank) if not w.is_identity()]
    for _ in range(3):
        pairs = [(rng.choice(words), complex(rng.uniform(-2, 2),
                                             rng.uniform(-2, 2)))
                 for _ in range(4)]
        x = GroupAlgebraElement.from_pairs(pairs, rank)
        m = _dense_compression(x, radius)
        expected = math.sqrt(np.linalg.eigvalsh(m.conj().T @ m)[-1])
        got = truncation_lower_bound(x, radius)
        assert abs(got - expected) < 1e-9 * expected
        assert got <= expected + 1e-12


def test_unconverged_truncation_is_reported(one_short_restart):
    x = GroupAlgebraElement.from_pairs([("a", 1), ("A", 1)], rank=1)
    br = infinity_norm_bracket(x, 30)
    assert not br.converged
    # the plain lower bound is still returned, and is still a lower bound
    lower = truncation_lower_bound(x, 30)
    assert isinstance(lower, float)
    assert lower == br.lower
    assert lower <= 2 * math.cos(math.pi / 62)


def test_trivial_bound_for_nonnegative_element(gfd):
    # nonnegative coefficients: quasi-regular norms approach the l1 norm
    x = GroupAlgebraElement.from_pairs(
        [(Word((1,), 2), Fraction(1)), (Word((-2,), 2), Fraction(2)),
         (Word.identity(2), Fraction(1, 2))], 2)
    total = complex(x.sum_of_coefficients()).real
    br = quasi_regular_norm(x, gfd, 1)
    assert abs(br.lower - total) < 1e-8


def test_norm_monotonicity_along_tower(gfd, gcong):
    # kernels shrink along the tower, so fiber norms are nondecreasing
    rng = random.Random(13)
    words = ball(2, 2)
    for g in (gfd, gcong):
        for _ in range(3):
            pairs = [(rng.choice(words), rng.uniform(-2, 2))
                     for _ in range(4)]
            x = GroupAlgebraElement.from_pairs(pairs, 2)
            x = x + x.adjoint()
            f = FiberedFunction(g, x, 1, {})
            lows = [rho_norm(f, n).lower for n in (1, 2, 3)]
            ups = [rho_norm(f, n).upper for n in (1, 2, 3)]
            for n in range(2):
                assert ups[n + 1] + 1e-7 >= lows[n]


# -- supremum over fibers -----------------------------------------------------

UPPER_TAGS = ("l1", "lanczos-residual", "trivial-representation", "haagerup")


def test_reduced_norm_tail_zero_block(gfd):
    q = gfd.quotient(2)
    f = FiberedFunction(gfd, GroupAlgebraElement.zero(2), 3,
                        {2: {q.evaluate(Word((1,), 2)): 2.0}})
    rep = reduced_norm_estimate(f, 3)
    # a single translation scaled by 2 is a partial isometry times 2
    assert rep.bracket.lower == pytest.approx(2.0, abs=1e-9)
    assert rep.bracket.upper == pytest.approx(2.0, abs=1e-9)
    assert rep.bracket.upper_provenance in UPPER_TAGS
    assert all(r.level != INFINITY for r in rep.rows)


def test_reduced_norm_generator_sum(gfd):
    f = standard_lift(gen_sum(), gfd)
    rep = reduced_norm_estimate(f, 4)
    assert rep.bracket.lower == pytest.approx(4.0, abs=1e-7)
    assert rep.bracket.upper == pytest.approx(4.0, abs=1e-7)
    assert rep.bracket.upper_provenance in UPPER_TAGS
    # the lower endpoint carries the tag of the row that attains it
    best = max(rep.rows, key=lambda r: r.bracket.lower)
    assert rep.bracket.lower_provenance == best.bracket.lower_provenance


def test_reduced_norm_cyclic_tight_bracket(gcyc):
    # delta_e - (delta_a + delta_A)/2 has fiber norms increasing to 2
    x = GroupAlgebraElement.from_pairs(
        [(Word.identity(1), 1.0), (Word((1,), 1), -0.5),
         (Word((-1,), 1), -0.5)], 1)
    f = FiberedFunction(gcyc, x, 1, {})
    rep = reduced_norm_estimate(f, 8, radius=600)
    assert rep.bracket.lower <= 2.0 + 1e-9
    assert rep.bracket.upper >= 2.0 - 1e-3
    assert rep.bracket.width <= 1e-3
    inf_row = rep.rows[-1]
    assert inf_row.level == INFINITY


# -- gap profile --------------------------------------------------------------

def test_profile_requires_self_adjoint(gfd):
    with pytest.raises(InputError):
        fd_norm_profile(GroupAlgebraElement.delta(Word((1,), 2)), gfd, 2)


def test_gap_flag_uses_external_ceiling(gfd):
    x = gen_sum()
    rep = fd_norm_profile(x, gfd, 3, radius=6,
                          infinity_ceiling=2 * math.sqrt(3))
    assert rep.monotone_ok
    assert rep.sup_finite.lower == pytest.approx(4.0, abs=1e-7)
    assert rep.infinity_ceiling_used == pytest.approx(2 * math.sqrt(3))
    assert rep.gap_flagged


def test_gap_flag_without_ceiling(gfd):
    # engine-only upper bound is the l1 norm 4, so no gap can be certified
    rep = fd_norm_profile(gen_sum(), gfd, 2, radius=4)
    assert not rep.gap_flagged
    assert rep.infinity_ceiling_used == pytest.approx(4.0)


def test_no_gap_for_cyclic(gcyc):
    x = GroupAlgebraElement.from_pairs(
        [(Word((1,), 1), 1.0), (Word((-1,), 1), 1.0)], 1)
    rep = fd_norm_profile(x, gcyc, 6, radius=400)
    assert rep.monotone_ok
    assert not rep.gap_flagged
    assert rep.sup_finite.lower <= rep.infinity.upper + 1e-6


# -- tau contrast -------------------------------------------------------------

def test_tau_fd_small_levels(fd):
    assert tau_spectral_gap(fd, 1) == pytest.approx(0.0, abs=1e-12)
    assert tau_spectral_gap(fd, 2) == pytest.approx(0.0, abs=1e-9)
    assert tau_spectral_gap(fd, 3) == pytest.approx(0.75, abs=1e-9)


def test_tau_congruence_levels(congruence):
    assert tau_spectral_gap(congruence, 2) == pytest.approx(0.0, abs=1e-9)
    assert tau_spectral_gap(congruence, 3) == pytest.approx(
        math.sqrt(2) / 2, abs=1e-8)


def test_tau_rejects_rank_1(cyclic):
    with pytest.raises(InputError):
        tau_spectral_gap(cyclic, 3)


# -- amenability certificates -------------------------------------------------

def test_unit_indicator_has_zero_defects(gcyc):
    xi = GroupAlgebraElement.delta(Word.identity(1))
    K = [(INFINITY, Word.identity(1)), (2, 0), (3, 0)]
    cert = certificate_from_folner(xi, gcyc, K, 0.5)
    report = check_certificate(cert)
    assert report.worst_normalization == 0
    # translating by the identity moves nothing
    assert report.worst_translation == 0
    assert report.passed


def test_cyclic_folner_defect_exact(gcyc):
    # uniform mass on {e, a, ..., a^(N-1)} translated by a: defect 2/N
    for n in (3, 5):
        N = 2 ** n
        a = Word((1,), 1)
        xi = GroupAlgebraElement.from_pairs(
            [(a ** j, Fraction(1, N)) for j in range(N)], 1)
        K = [(INFINITY, a), (n, 1)]
        cert = certificate_from_folner(xi, gcyc, K, 3.0 / N)
        report = check_certificate(cert)
        assert report.worst_normalization == 0
        inf_row = [r for r in report.rows if r.element[0] == INFINITY][0]
        assert inf_row.translation_defect == Fraction(2, N)
        # at level n the preimage mass wraps around: exact invariance
        lvl_row = [r for r in report.rows if r.element[0] == n][0]
        assert lvl_row.translation_defect == 0
        assert report.passed


def test_fd_ball_indicator_has_positive_defect(gfd):
    words = ball(2, 2)
    M = len(words)
    xi = GroupAlgebraElement.from_pairs(
        [(w, Fraction(1, M)) for w in words], 2)
    cert = certificate_from_folner(
        xi, gfd, [(INFINITY, Word((1,), 2))], 0.9)
    report = check_certificate(cert)
    inf_row = report.rows[0]
    assert inf_row.normalization_defect == 0
    # free groups are not amenable: indicator balls always leak mass
    assert inf_row.translation_defect > Fraction(1, 10)


def test_certificate_mass_preserved_on_fibers(gcyc):
    xi = GroupAlgebraElement.from_pairs(
        [(Word((1,), 1) ** j, Fraction(1, 4)) for j in range(4)], 1)
    cert = certificate_from_folner(xi, gcyc, [(2, 0), (4, 0)], 0.5)
    for level, _ in cert.K:
        fib = cert.eta.fiber(level)
        assert sum(fib.values()) == 1


def test_certificate_round_trip_exact(gcyc):
    xi = GroupAlgebraElement.from_pairs(
        [(Word((1,), 1) ** j, Fraction(1, 8)) for j in range(8)], 1)
    cert = certificate_from_folner(xi, gcyc, [(3, 1)], 0.5)
    back = folner_from_certificate(cert)
    assert dict(back.coeffs) == dict(xi.scale(Fraction(1)).coeffs)


def test_certificate_rejects_out_of_range(gcyc):
    xi = GroupAlgebraElement.from_pairs([(Word.identity(1), 2)], 1)
    with pytest.raises(InputError):
        certificate_from_folner(xi, gcyc, [(1, 0)], 0.5)


def test_zero_mass_certificate_error(gcyc):
    eta = FiberedFunction(gcyc, GroupAlgebraElement.zero(1), 2,
                          {1: {0: Fraction(1)}})
    cert = AmenabilityCertificate(eta, ((1, 0),), 0.5)
    with pytest.raises(DegenerateCertificateError):
        folner_from_certificate(cert)


# -- serialization ------------------------------------------------------------

def test_fibered_function_json_round_trip(gfd):
    q = gfd.quotient(2)
    f = FiberedFunction(
        gfd, gen_sum(), 3,
        {1: {0: 2.5}, 2: {q.evaluate(Word((1,), 2)): 1 + 2j}})
    g = FiberedFunction.from_json_dict(f.to_json_dict(), gfd)
    assert g.same_function(f)
    assert g.threshold == f.threshold
