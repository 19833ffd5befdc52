import cmath
import itertools
import math
import random
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hlslab import spectral
from hlslab.balls import BallIndex
from hlslab.errors import (DegenerateCertificateError, InputError,
                           ResourceError)
from hlslab.exact import RationalComplex
from hlslab.groupoid import (INFINITY, AmenabilityCertificate, FiberedFunction,
                             adjoint_fibered, certificate_from_folner,
                             check_certificate, convolve_fibered, defects,
                             fiber_matvec, fiber_norm_bracket,
                             folner_from_certificate, infinity_norm_bracket,
                             markov_element, norm_profile,
                             rho_norm, standard_lift,
                             tau_spectral_gap, truncation_lower_bound,
                             _radial_lower)
from hlslab.words import GroupAlgebraElement, Word, ball

from dense_oracle import rho_dense


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

def test_single_fiber_delta_convolution(fd):
    # block supported on one finite fiber: convolution stays in that fiber
    q = fd.quotient(2)
    a_idx = q.evaluate(Word.parse("a", 2))
    b_idx = q.evaluate(Word.parse("b", 2))
    f = FiberedFunction(fd, GroupAlgebraElement.zero(2), 3, {2: {a_idx: 1}})
    g = FiberedFunction(fd, GroupAlgebraElement.zero(2), 3, {2: {b_idx: 1}})
    prod = convolve_fibered(f, g)
    assert prod.fiber(2) == {q.multiply(a_idx, b_idx): 1}
    assert prod.fiber(1) == {}
    assert not prod.tail.coeffs


def test_cross_fiber_product_vanishes(fd):
    # blocks over distinct fibers multiply to zero
    f = FiberedFunction(fd, GroupAlgebraElement.zero(2), 3, {1: {0: 1}})
    g = FiberedFunction(fd, GroupAlgebraElement.zero(2), 3, {2: {0: 1}})
    prod = convolve_fibered(f, g)
    assert not prod.tail.coeffs
    assert all(prod.fiber(n) == {} for n in (1, 2))


def test_lift_of_generator_sum_squared(fd):
    x = gen_sum()
    f = standard_lift(x, fd)
    sq = convolve_fibered(f, f)
    # identity coefficient of x*x is 4, support has 13 words
    assert sq.tail.coeffs[Word.identity(2)] == 4
    assert len(sq.tail.coeffs) == 13
    # the lift vanishes below its threshold, so the square does too
    for n in range(1, sq.threshold):
        assert sq.fiber(n) == {}
    # from the threshold on, fibers are pushforwards of the square
    q = fd.quotient(sq.threshold)
    a = q.pushforward(x)
    direct = {}
    for i, ci in a.items():
        for j, cj in a.items():
            k = q.multiply(i, j)
            direct[k] = direct.get(k, 0) + ci * cj
    assert sq.fiber(sq.threshold) == {k: v for k, v in direct.items() if v}


def test_adjoint_fixes_involutive_elements(fd):
    x = gen_sum()
    f = standard_lift(x, fd)
    assert adjoint_fibered(f).same_function(f)
    g = FiberedFunction(fd, GroupAlgebraElement.delta(Word.parse("a", 2)), 1,
                        {})
    gs = adjoint_fibered(g)
    assert gs.tail.coeffs == {Word.parse("A", 2): 1}


def test_restrict_to_infinity(fd):
    x = gen_sum()
    f = FiberedFunction(fd, x, 3, {1: {0: 5.0}})
    assert f.tail is x  # the quotient map onto the base group's algebra


def test_addition_and_scaling(fd):
    f = standard_lift(gen_sum(), fd)
    g = f + f.scale(-1)
    assert not g.tail.coeffs
    assert all(g.fiber(n) == {} for n in range(1, g.threshold))


# -- standard lift thresholds -------------------------------------------------

def test_lift_threshold_identity(fd):
    f = standard_lift(GroupAlgebraElement.delta(Word.identity(2)), fd)
    assert f.threshold == 1


def test_lift_threshold_two_letters(fd):
    x = GroupAlgebraElement.from_pairs(
        [(Word.parse("a", 2), 1), (Word.parse("b", 2), 1)], 2)
    assert standard_lift(x, fd).threshold == 2


def test_lift_threshold_cyclic_ball(cyclic):
    x = GroupAlgebraElement.from_pairs(
        [(Word.parse("a", 1) ** j, 1) for j in range(-2, 3)], 1)
    assert standard_lift(x, cyclic).threshold == 3


def test_lift_depth_cap(fd):
    x = GroupAlgebraElement.from_pairs(
        [(Word.identity(2), 1), (Word.parse("abAB"), 1)], 2)
    with pytest.raises(ResourceError, match="no level <= 4 separates"):
        standard_lift(x, fd, depth_cap=4)


# -- norms at finite levels and at infinity -----------------------------------

def test_generator_sum_fiber_norm_is_4(fd):
    f = FiberedFunction(fd, gen_sum(), 1, {})
    for n in (1, 2, 3):
        br = rho_norm(f, n)
        assert abs(br.lower - 4.0) < 1e-8
        assert abs(br.upper - 4.0) < 1e-8


def test_radius_2_truncation_is_sqrt7():
    assert abs(truncation_lower_bound(gen_sum(), 2)[0] - math.sqrt(7)) < 1e-9


def test_infinity_upper_is_haagerup(fd):
    br = infinity_norm_bracket(gen_sum(), radius=2)
    assert br.upper == pytest.approx(4.0)
    assert br.upper_provenance in ("haagerup", "l1")


def test_cyclic_circulant_norm_and_character_formula(cyclic):
    # delta_a + delta_{a^-1} on Z/2^n is a circulant: norm max_k 2cos(2 pi k/N)
    x = GroupAlgebraElement.from_pairs(
        [(Word.parse("a", 1), 1), (Word.parse("A", 1), 1)], 1)
    for n in (2, 3, 4):
        N = 2 ** n
        expected = max(abs(2 * math.cos(2 * math.pi * k / N))
                       for k in range(N))
        br = rho_norm(FiberedFunction(cyclic, x), n)
        assert abs(br.lower - expected) < 1e-9
        assert br.upper >= expected - 1e-12


def test_character_formula_random_cyclic(cyclic):
    rng = random.Random(7)
    n = 4
    N = 2 ** n
    a = Word.parse("a", 1)
    for _ in range(5):
        coeffs = [rng.randint(-3, 3) for _ in range(5)]
        x = GroupAlgebraElement.from_pairs(
            [(a ** j, c) for j, c in enumerate(coeffs)], 1)
        expected = max(
            abs(sum(c * cmath.exp(2j * math.pi * j * k / N)
                    for j, c in enumerate(coeffs)))
            for k in range(N))
        br = rho_norm(FiberedFunction(cyclic, x), n)
        assert abs(br.lower - expected) < 1e-8 * max(1.0, expected)


def test_upper_endpoint_not_below_exact_norm(fd, cyclic):
    # the generator sum has norm exactly 4 on every fd fiber and a + A has
    # norm exactly 2 on every cyclic fiber; sqrt(theta + residual) alone
    # rounds one ulp below both
    for n in (1, 2, 3, 4):
        assert rho_norm(FiberedFunction(fd, gen_sum()), n).upper >= 4.0
    x = GroupAlgebraElement.from_pairs([("a", 1), ("A", 1)], 1)
    for n in range(1, 9):
        assert rho_norm(FiberedFunction(cyclic, x), n).upper >= 2.0


def test_trivial_fiber_is_scalar(fd):
    br = rho_norm(FiberedFunction(fd, gen_sum()), 1)
    assert br.lower == br.upper == 4.0
    assert br.lower_provenance == "trivial-representation"


# -- oracle cross-checks on the fiber representation --------------------------

def test_lanczos_matches_dense_eigensolver(fd, congruence):
    rng = random.Random(5)
    words = ball(2, 2)
    for g in (fd, congruence):
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


@pytest.mark.parametrize("family,n", [("fd", 3), ("congruence", 3)])
@pytest.mark.parametrize("complex_coeffs", [False, True])
def test_fiber_matvec_matches_dense(fd, congruence, family, n, complex_coeffs):
    q = {"fd": fd, "congruence": congruence}[family].quotient(n)
    rng = random.Random(n)
    coeffs = {}
    for s in rng.sample(range(q.order), 5):
        c = rng.uniform(-2, 2)
        coeffs[s] = complex(c, rng.uniform(-2, 2)) if complex_coeffs else c
    m = rho_dense(q, coeffs)
    v = np.random.default_rng(n).standard_normal(q.order).astype(m.dtype)
    assert np.allclose(fiber_matvec(q, coeffs)(v), m @ v, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", [3, 5])
@pytest.mark.parametrize("c", [0.7, 1.5, 2, 3])
@pytest.mark.parametrize("w", ["a", "ab", "aB"])
def test_scaled_translation_bracket_holds_its_norm(fd, n, c, w):
    # c * delta_w is |c| times a unitary, so its norm is exactly |c|
    q = fd.quotient(n)
    br = fiber_norm_bracket(q, {q.evaluate(Word.parse(w)): c})
    assert br.lower <= abs(c) <= br.upper


NONNEGATIVE_COEFFS = {
    "int": (1, 2, 3, 1),
    "fraction": (Fraction(1, 2), Fraction(1, 3), Fraction(2), Fraction(5, 7)),
    "float": (0.5, 1.25, 0.1, 3.0),
    "zero-imaginary": (complex(0.5), RationalComplex(Fraction(1, 3)),
                       2 + 0j, RationalComplex(Fraction(5, 7))),
}


@pytest.mark.parametrize("family,n", [("fd", n) for n in (2, 3, 4)]
                         + [("congruence", n) for n in (2, 3, 4)]
                         + [("cyclic", n) for n in range(1, 7)])
@pytest.mark.parametrize("kind", sorted(NONNEGATIVE_COEFFS))
def test_constant_vector_bracket_matches_dense(fd, congruence, cyclic,
                                               no_solver, family, n, kind):
    # rho(f) of a nonnegative f has every row and column sum equal to sum f
    g = {"fd": fd, "congruence": congruence, "cyclic": cyclic}[family]
    q = g.quotient(n)
    words = ["", "a", "B", "ab"] if g.rank == 2 else ["", "a", "A", "aaa"]
    x = GroupAlgebraElement.from_pairs(
        zip(words, NONNEGATIVE_COEFFS[kind]), g.rank)
    coeffs = q.pushforward(x)
    br = fiber_norm_bracket(q, coeffs)
    truth = float(np.linalg.norm(rho_dense(q, coeffs), 2))
    assert br.lower - 1e-12 <= truth <= br.upper + 1e-12
    assert (br.lower_provenance, br.upper_provenance) == (
        "constant-vector", "l1")
    assert br.converged


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_exact_l1_endpoints_hold_the_sum(fd, data):
    # nonnegative rational coefficients have norm exactly sum c on every
    # fiber; the float endpoints must hold it as rationals, so an l1 sum
    # that no float represents rounds outward, not to nearest
    q = fd.quotient(data.draw(st.sampled_from([1, 2, 3])))
    coeffs = data.draw(st.dictionaries(
        st.integers(0, q.order - 1),
        st.fractions(min_value=0, max_value=4,
                     max_denominator=30).filter(bool),
        min_size=1, max_size=4))
    br = fiber_norm_bracket(q, coeffs)
    assert Fraction(br.lower) <= sum(coeffs.values()) <= Fraction(br.upper)


@pytest.mark.parametrize("c,lower,upper", [
    (Fraction(4), 4.0, 4.0),
    (Fraction(1, 10), math.nextafter(0.1, 0), 0.1),
    (Fraction(1, 3), 1 / 3, math.nextafter(1 / 3, 1)),
])
def test_exact_l1_endpoints_move_one_ulp(fd, c, lower, upper):
    q = fd.quotient(3)
    br = fiber_norm_bracket(q, {5: c})
    assert (br.lower, br.upper) == (lower, upper)


def test_complex_l1_endpoints_hold_the_modulus(fd):
    # rho(c delta_s) is c times a unitary, so its norm is |c| exactly; the
    # endpoints must hold it against the exact |c|^2 (for 426 of these c,
    # such as 1 + 29/36 i, the float nearest |c| is below it)
    q = fd.quotient(3)
    for p, d in itertools.product(range(1, 30), repeat=2):
        c = RationalComplex(Fraction(p, d), Fraction(d, p + 7))
        br = fiber_norm_bracket(q, {5: c})
        assert br.upper_provenance == "l1"
        assert Fraction(br.lower) ** 2 <= c.re ** 2 + c.im ** 2 \
            <= Fraction(br.upper) ** 2


def test_haagerup_endpoint_holds_the_exact_bound():
    # eleven words of length 2, each with coefficient 1: the Haagerup bound
    # is 3 sqrt(11), and its float must not sit below it
    x = GroupAlgebraElement.from_pairs(
        [(w, 1) for w in "aa ab aB AA Ab AB ba bA bb Ba BA".split()], 2)
    br = infinity_norm_bracket(x, 2)
    assert br.upper_provenance == "haagerup"
    assert Fraction(br.upper) ** 2 >= 99
    assert Fraction(math.nextafter(br.upper, 0)) ** 2 < 99  # the tightest


@pytest.fixture(scope="module")
def small_fibers(fd, congruence):
    return [g.quotient(n) for g, n in
            ((fd, 2), (fd, 3), (fd, 4), (congruence, 2), (congruence, 3))]


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_bracket_endpoints_name_their_source(small_fibers, data):
    q = data.draw(st.sampled_from(small_fibers))
    nonnegative = data.draw(st.booleans())
    coeff = st.floats(0 if nonnegative else -2, 2,
                      allow_nan=False).filter(lambda c: abs(c) > 1e-3)
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
    if nonnegative:
        assert br.lower_provenance == "constant-vector"
        assert truth <= br.upper + 1e-12


def test_representation_property_exact(fd):
    # rho_n(x * y) == rho_n(x) rho_n(y) with exact rational arithmetic
    q = fd.quotient(3)
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


def test_c_star_identity(fd):
    # || rho(f* f) || == || rho(f) ||^2 for each fiber
    x = GroupAlgebraElement.from_pairs(
        [(Word.parse("a", 2), 1.0), (Word.parse("b", 2), 0.5),
         (Word.parse("ab"), -1.0)], 2)
    f = FiberedFunction(fd, x, 1, {})
    ff = convolve_fibered(adjoint_fibered(f), f)
    for n in (2, 3):
        a = rho_norm(f, n).lower
        b = rho_norm(ff, n).lower
        assert abs(b - a * a) < 1e-6 * max(1.0, a * a)


@settings(max_examples=20, deadline=None)
@given(exact_elements(2), exact_elements(2), exact_elements(2))
def test_star_algebra_axioms_fiberwise(fd, x, y, z):
    fx = FiberedFunction(fd, x, 1, {})
    fy = FiberedFunction(fd, y, 1, {})
    fz = FiberedFunction(fd, z, 1, {})
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
    vals = [truncation_lower_bound(x, r)[0]
            for r in (1, 2, 4, 6, 10, 10**2, 10**3, 10**5)]
    for a, b in zip(vals, vals[1:]):
        assert b >= a
    assert all(v <= x.l1_norm() + 1e-9 for v in vals)
    assert vals[-1] < 2 * math.sqrt(3)


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


def _dense_truncation_norm(x, radius):
    m = _dense_compression(x, radius)
    return math.sqrt(max(np.linalg.eigvalsh(m.conj().T @ m)[-1], 0.0))


@pytest.mark.parametrize("rank,radius", [(2, 3), (3, 2)])
def test_complex_truncation_matches_dense_compression(rank, radius):
    rng = random.Random(17)
    words = [w for w in ball(2, rank) if not w.is_identity()]
    for _ in range(3):
        pairs = [(rng.choice(words), complex(rng.uniform(-2, 2),
                                             rng.uniform(-2, 2)))
                 for _ in range(4)]
        x = GroupAlgebraElement.from_pairs(pairs, rank)
        expected = _dense_truncation_norm(x, radius)
        got = truncation_lower_bound(x, radius)[0]
        assert abs(got - expected) < 1e-9 * expected
        assert got <= expected + 1e-12


@settings(max_examples=60, deadline=None)
@given(re=st.fractions(min_value=-3, max_value=3, max_denominator=7),
       im=st.fractions(min_value=-3, max_value=3, max_denominator=7),
       rest=exact_elements(2))
# sqrt(2.0) rounds to 1.4142135623730951, above the norm sqrt(2)
@example(re=Fraction(1), im=Fraction(1),
         rest=GroupAlgebraElement.from_pairs([("a", 1)], 2))
def test_radius_0_truncation_stays_below_the_identity_coefficient(re, im,
                                                                  rest):
    # the compression to ball(0) is the scalar x(e): |x(e)| is the norm,
    # and the 1x1 solve's lower endpoint must not round above it
    x = rest + GroupAlgebraElement.from_pairs(
        [(Word.identity(2), RationalComplex(re, im))], 2)
    c = RationalComplex.of(x.coeffs.get(Word.identity(2), 0))
    br = infinity_norm_bracket(x, 0)
    assert Fraction(br.lower) ** 2 <= c.re ** 2 + c.im ** 2
    assert br.lower >= math.sqrt(c.re ** 2 + c.im ** 2) - 1e-11
    assert br.lower_provenance == "truncation" and br.converged


def test_unconverged_truncation_is_reported(one_short_restart):
    x = GroupAlgebraElement.from_pairs([("a", 1), ("A", 1)], rank=1)
    br = infinity_norm_bracket(x, 30)
    assert not br.converged
    # the truncation returns the same flag and a lower bound all the same
    lower, converged = truncation_lower_bound(x, 30)
    assert isinstance(lower, float) and not converged
    assert lower == br.lower
    assert lower <= 2 * math.cos(math.pi / 62)


def _signed_element():
    return GroupAlgebraElement.from_pairs(
        [("a", 1), ("A", 1), ("b", -1), ("B", -1), ("ab", 1), ("BA", 1)])


def test_unconverged_fiber_bracket_is_reported(fd, one_short_restart):
    # the constant vector is an eigenvector of every finite fiber, so a
    # solve from it alone stops after one matvec, converged
    q = fd.quotient(4)
    coeffs = q.pushforward(_signed_element())
    br = fiber_norm_bracket(q, coeffs)
    assert not br.converged
    assert br.lower <= np.linalg.norm(rho_dense(q, coeffs), 2)


def test_one_solve_per_bracket(fd, monkeypatch):
    dims = []
    solve = spectral.lanczos_extreme

    def counting(apply_op, dim, *args, **kwargs):
        dims.append(dim)
        return solve(apply_op, dim, *args, **kwargs)

    monkeypatch.setattr(spectral, "lanczos_extreme", counting)
    orders = []
    for n in (2, 3, 4):
        q = fd.quotient(n)
        assert fiber_norm_bracket(q,
                                  q.pushforward(_signed_element())).converged
        orders.append(q.order)
        assert dims == orders
        # a nonnegative element takes no solve on the same fiber
        assert fiber_norm_bracket(q, q.pushforward(gen_sum())).converged
        assert dims == orders
    assert infinity_norm_bracket(_signed_element(), 3).converged
    assert dims == orders + [BallIndex(2, 3).size]


def _permutation_matrix(p):
    """The matrix sending basis vector e_i to e_p[i]."""
    m = np.zeros((len(p), len(p)))
    m[list(p), range(len(p))] = 1.0
    return m


def _generated_order(gens):
    """Order of the group of permutation matrices that gens generate."""
    identity = np.eye(len(gens[0]))
    seen, frontier = {identity.tobytes()}, [identity]
    while frontier:
        new = []
        for g in frontier:
            for s in gens:
                h = g @ s
                if h.tobytes() not in seen:
                    seen.add(h.tobytes())
                    new.append(h)
        frontier = new
    return len(seen)


@pytest.mark.parametrize("pairs", [
    [("a", 1), ("A", 1), ("b", -1), ("B", -1), ("ab", 1), ("BA", 1)],
    [("", 1), ("a", 1), ("B", 2), ("ab", 1)],
], ids=["signed", "nonnegative"])
def test_property_fd_permutation_norms_stay_below_the_fiber(fd, pairs):
    # a -> sigma, b -> tau with a group of order <= n factors through fd
    # level n, so its norm is at most the regular representation's there
    x = GroupAlgebraElement.from_pairs(pairs)
    for n in (2, 3, 4):
        q = fd.quotient(n)
        upper = fiber_norm_bracket(q, q.pushforward(x)).upper
        checked = 0
        for m in range(1, 5):
            perms = [_permutation_matrix(p)
                     for p in itertools.permutations(range(m))]
            for sigma, tau in itertools.product(perms, repeat=2):
                if _generated_order([sigma, tau]) > n:
                    continue
                letters = {"a": sigma, "A": sigma.T, "b": tau, "B": tau.T}
                dense = sum(c * reduce(np.matmul, (letters[ch] for ch in w),
                                       np.eye(m)) for w, c in pairs)
                assert np.linalg.norm(dense, 2) <= upper + 1e-12
                checked += 1
        assert checked > 0


# rank 3 stops at radius 4: the dense matrix of its radius-5 ball (4,687
# words) takes 350 MB, of its radius-6 ball (23,437 words) 8.8 GB
@pytest.mark.parametrize("rank,radius", [(2, r) for r in range(7)]
                         + [(3, r) for r in range(5)])
@pytest.mark.parametrize("scale", [1, "markov", 2.5])
def test_radial_truncation_matches_dense_compression(rank, radius, scale):
    x = (markov_element(rank) if scale == "markov"
         else gen_sum(rank).scale(scale))
    # the compression is real symmetric: its norm is its largest |eigenvalue|
    m = _dense_compression(x, radius).real
    dense = np.abs(np.linalg.eigvalsh(m)).max()
    lower, converged = truncation_lower_bound(x, radius, 5_000_000)
    assert abs(lower - dense) <= 1e-12
    assert converged


def test_radial_truncation_radius_12():
    assert truncation_lower_bound(gen_sum(), 12)[0] == pytest.approx(
        3.387575719275113, abs=1e-12)


def test_radial_truncation_rounds_below_the_norm():
    # 3.37609191200161451789... by mpmath at 40 digits; the Rayleigh
    # quotient alone rounds to 3.376091912001615
    lower = _radial_lower(1.0, 2, 11, 5_000_000)
    assert lower <= 3.3760919120016145
    assert lower == pytest.approx(3.3760919120016145, abs=1e-12)


@pytest.mark.parametrize("radius", range(1, 13))
def test_radial_endpoints_are_exact_bounds(radius):
    # Sylvester's law of inertia: the LDL^T pivots of T - lambda, exact in
    # rationals since only the squared off-diagonals 4 and 3 enter, count
    # the eigenvalues of the radial tridiagonal T below lambda
    def eigenvalues_below(lam):
        lam, d, below = Fraction(lam), None, 0
        for j in range(radius + 1):
            d = -lam if d is None else -lam - (4 if j == 1 else 3) / d
            below += d < 0
        return below

    assert eigenvalues_below(_radial_lower(1.0, 2, radius, 5_000_000)) \
        < radius + 1


def test_truncation_refuses_a_norm_too_large_to_solve():
    # l1 = 5e160 is above 2^255: the ball solve on x* x would overflow
    # into nan, so both callers refuse x before it; the radial path reads
    # the same rule, so 1e160 times the generator sum and a coefficient
    # beyond the largest float are refused too
    for x in (GroupAlgebraElement.from_pairs(
                  [("a", 1e160), ("b", 1e160), ("A", 1e160), ("B", 2e160)],
                  2),
              gen_sum().scale(1e160), gen_sum().scale(10 ** 400)):
        with pytest.raises(InputError):
            truncation_lower_bound(x, 3)
        with pytest.raises(InputError):
            infinity_norm_bracket(x, 3)


def test_infinity_fiber_needs_a_radius(fd):
    f = FiberedFunction(fd, gen_sum())
    with pytest.raises(InputError):
        rho_norm(f, INFINITY)
    assert rho_norm(f, INFINITY, 2) == infinity_norm_bracket(gen_sum(), 2)
    assert rho_norm(f, 3) == rho_norm(f, 3, 2)  # a finite level ignores it


def test_radial_truncation_checks_its_cap():
    # r + 1 points are stored, not the ball's words
    assert truncation_lower_bound(gen_sum(), 14, 15)[0] > 3.4
    with pytest.raises(ResourceError):
        truncation_lower_bound(gen_sum(), 14, 14)


def test_generator_sum_builds_no_ball(balls_built):
    truncation_lower_bound(gen_sum(), 4)
    truncation_lower_bound(markov_element(3), 4)
    assert balls_built == []


@pytest.mark.parametrize("x", [
    GroupAlgebraElement.from_pairs([("a", 1), ("A", 1)], rank=1),
    gen_sum().scale(-1),
    gen_sum() + GroupAlgebraElement.from_pairs([("a", 1)]),
    gen_sum() + GroupAlgebraElement.delta(Word.identity(2)),
], ids=["rank-1", "negated", "one-doubled", "plus-identity"])
def test_other_elements_keep_the_ball_solve(balls_built, x):
    radius = 6 if x.rank == 1 else 3
    got = truncation_lower_bound(x, radius)[0]
    assert len(balls_built) == 1
    expected = _dense_truncation_norm(x, radius)
    assert abs(got - expected) < 1e-9 * expected
    assert got <= expected + 1e-12


def test_trivial_bound_for_nonnegative_element(fd):
    # nonnegative coefficients: quasi-regular norms approach the l1 norm
    x = GroupAlgebraElement.from_pairs(
        [("a", Fraction(1)), ("B", Fraction(2)), ("e", Fraction(1, 2))], 2)
    total = complex(x.sum_of_coefficients()).real
    br = rho_norm(FiberedFunction(fd, x), 1)
    assert abs(br.lower - total) < 1e-8


def test_norm_monotonicity_along_tower(fd, congruence):
    # kernels shrink along the tower, so fiber norms are nondecreasing
    rng = random.Random(13)
    words = ball(2, 2)
    for g in (fd, congruence):
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


def test_reduced_norm_tail_zero_block(fd):
    q = fd.quotient(2)
    f = FiberedFunction(fd, GroupAlgebraElement.zero(2), 3,
                        {2: {q.evaluate(Word.parse("a", 2)): 2.0}})
    rep = norm_profile(f, 3, radius=8)
    # a single translation scaled by 2 is a partial isometry times 2
    assert rep.reduced.lower == pytest.approx(2.0, abs=1e-9)
    assert rep.reduced.upper == pytest.approx(2.0, abs=1e-9)
    assert rep.reduced.upper_provenance in UPPER_TAGS
    # a zero tail adds nothing at infinity
    assert (rep.infinity.lower, rep.infinity.upper) == (0.0, 0.0)
    assert rep.reduced == rep.sup_finite


def test_reduced_norm_generator_sum(fd):
    f = standard_lift(gen_sum(), fd)
    rep = norm_profile(f, 4, radius=8)
    assert rep.reduced.lower == pytest.approx(4.0, abs=1e-7)
    assert rep.reduced.upper == pytest.approx(4.0, abs=1e-7)
    assert rep.reduced.upper_provenance in UPPER_TAGS
    # the lower endpoint carries the tag of the row that attains it
    best = max(rep.rows, key=lambda r: r.bracket.lower)
    assert rep.reduced.lower_provenance == best.bracket.lower_provenance


def test_reduced_norm_counts_overrides_above_n_max(fd):
    # an override at level 3 is a fiber that the tail's l1 norm does not
    # dominate, so it must enter the supremum even when n_max is 2
    a = fd.quotient(3).evaluate(Word.parse("a"))
    zero_tail = FiberedFunction(fd, GroupAlgebraElement.zero(2), 4,
                                {3: {a: 2.0}})
    assert rho_norm(zero_tail, 3).lower == pytest.approx(2.0, abs=1e-9)
    rep = norm_profile(zero_tail, 2, radius=8)
    assert rep.reduced.lower == pytest.approx(2.0, abs=1e-9)
    assert rep.reduced.upper >= 2.0
    gen_tail = FiberedFunction(fd, gen_sum(), 4, {3: {a: 9.0}})
    rep = norm_profile(gen_tail, 2, radius=8)
    assert rep.reduced.lower == pytest.approx(9.0, abs=1e-9)
    assert rep.reduced.upper >= 9.0


def test_reduced_norm_cyclic_tight_bracket(cyclic):
    # delta_e - (delta_a + delta_A)/2 has fiber norms increasing to 2
    x = GroupAlgebraElement.from_pairs(
        [(Word.identity(1), 1.0), (Word.parse("a", 1), -0.5),
         (Word.parse("A", 1), -0.5)], 1)
    f = FiberedFunction(cyclic, x, 1, {})
    rep = norm_profile(f, 8, radius=600)
    assert rep.reduced.lower <= 2.0 + 1e-9
    assert rep.reduced.upper >= 2.0 - 1e-3
    assert rep.reduced.upper - rep.reduced.lower <= 1e-3
    assert [r.level for r in rep.rows] == list(range(1, 9))
    assert rep.infinity.lower_provenance == "truncation"


# -- gap profile --------------------------------------------------------------

def test_gap_flag_uses_external_ceiling(fd):
    rep = norm_profile(FiberedFunction(fd, gen_sum()), 3, radius=6)
    ceiling, flagged = rep.gap(0.25, 2 * math.sqrt(3))
    assert rep.monotone_ok
    assert rep.sup_finite.lower == pytest.approx(4.0, abs=1e-7)
    assert ceiling == pytest.approx(2 * math.sqrt(3))
    assert flagged


def test_gap_flag_without_ceiling(fd):
    # engine-only upper bound is the l1 norm 4, so no gap can be certified
    rep = norm_profile(FiberedFunction(fd, gen_sum()), 2, radius=4)
    ceiling, flagged = rep.gap(0.25)
    assert not flagged
    assert ceiling == pytest.approx(4.0)


def test_no_gap_for_cyclic(cyclic):
    x = GroupAlgebraElement.from_pairs(
        [(Word.parse("a", 1), 1.0), (Word.parse("A", 1), 1.0)], 1)
    rep = norm_profile(FiberedFunction(cyclic, x), 6, radius=400)
    assert rep.monotone_ok
    assert not rep.gap(0.25)[1]
    assert rep.sup_finite.lower <= rep.infinity.upper + 1e-6


# -- tau contrast -------------------------------------------------------------

def test_tau_fd_small_levels(fd):
    assert tau_spectral_gap(fd, 1) == (0.0, True)
    value, converged = tau_spectral_gap(fd, 2)
    assert converged and value == pytest.approx(0.0, abs=1e-9)
    value, converged = tau_spectral_gap(fd, 3)
    assert converged and value == pytest.approx(0.75, abs=1e-9)


def test_tau_congruence_levels(congruence):
    assert tau_spectral_gap(congruence, 1) == (0.0, True)
    value, converged = tau_spectral_gap(congruence, 2)
    assert converged and value == pytest.approx(0.0, abs=1e-9)
    value, converged = tau_spectral_gap(congruence, 3)
    assert converged and value == pytest.approx(math.sqrt(2) / 2, abs=1e-8)


def test_tau_reports_an_unconverged_solve(fd, one_short_restart):
    # order 144, far more distinct eigenvalues than one 8-vector cycle sees
    value, converged = tau_spectral_gap(fd, 4)
    assert not converged
    assert value < 0.933  # below the converged 0.933013


def test_tau_rejects_rank_1(cyclic):
    with pytest.raises(InputError):
        tau_spectral_gap(cyclic, 3)


# -- amenability certificates -------------------------------------------------

def test_unit_indicator_has_zero_defects(cyclic):
    xi = GroupAlgebraElement.delta(Word.identity(1))
    K = [(INFINITY, Word.identity(1)), (2, 0), (3, 0)]
    cert = certificate_from_folner(xi, cyclic, K, 0.5)
    report = check_certificate(cert)
    assert report.worst_normalization == 0
    # translating by the identity moves nothing
    assert report.worst_translation == 0
    assert report.passed


def test_cyclic_folner_defect_exact(cyclic):
    # uniform mass on {e, a, ..., a^(N-1)} translated by a: defect 2/N
    for n in (3, 5):
        N = 2 ** n
        a = Word.parse("a", 1)
        xi = GroupAlgebraElement.from_pairs(
            [(a ** j, Fraction(1, N)) for j in range(N)], 1)
        K = [(INFINITY, a), (n, 1)]
        cert = certificate_from_folner(xi, cyclic, K, 3.0 / N)
        report = check_certificate(cert)
        assert report.worst_normalization == 0
        inf_row = [r for r in report.rows if r.element[0] == INFINITY][0]
        assert inf_row.translation_defect == Fraction(2, N)
        # at level n the preimage mass wraps around: exact invariance
        lvl_row = [r for r in report.rows if r.element[0] == n][0]
        assert lvl_row.translation_defect == 0
        assert report.passed


def test_fd_ball_indicator_has_positive_defect(fd):
    words = ball(2, 2)
    M = len(words)
    xi = GroupAlgebraElement.from_pairs(
        [(w, Fraction(1, M)) for w in words], 2)
    cert = certificate_from_folner(
        xi, fd, [(INFINITY, Word.parse("a", 2))], 0.9)
    report = check_certificate(cert)
    inf_row = report.rows[0]
    assert inf_row.normalization_defect == 0
    # free groups are not amenable: indicator balls always leak mass
    assert inf_row.translation_defect > Fraction(1, 10)


def test_certificate_mass_preserved_on_fibers(cyclic):
    xi = GroupAlgebraElement.from_pairs(
        [(Word.parse("a", 1) ** j, Fraction(1, 4)) for j in range(4)], 1)
    cert = certificate_from_folner(xi, cyclic, [(2, 0), (4, 0)], 0.5)
    for level, _ in cert.K:
        fib = cert.eta.fiber(level)
        assert sum(fib.values()) == 1


def test_certificate_round_trip_exact(cyclic):
    xi = GroupAlgebraElement.from_pairs(
        [(Word.parse("a", 1) ** j, Fraction(1, 8)) for j in range(8)], 1)
    cert = certificate_from_folner(xi, cyclic, [(3, 1)], 0.5)
    back = folner_from_certificate(cert)
    assert dict(back.coeffs) == dict(xi.scale(Fraction(1)).coeffs)


def set_translation_defect(coeffs, g, multiply, inverse):
    """sum_h |eta(h) - eta(h g)| over the set S | S g^-1, S the support."""
    g_inv = inverse(g)
    hs = set(coeffs) | {multiply(h, g_inv) for h in coeffs}
    return sum(abs(coeffs.get(h, 0) - coeffs.get(multiply(h, g), 0))
               for h in hs)


@pytest.mark.parametrize("fiber,g,involution", [
    ("inf-2", "e", False), ("inf-2", "aB", False), ("inf-1", "aa", False),
    ("fd-2", "a", True), ("fd-3", "e", False), ("fd-3", "ab", False),
    ("cyclic-1", "a", True), ("cyclic-3", "aaaa", True),
    ("cyclic-3", "a", False),
])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_translation_defect_matches_the_set_sum(fd, cyclic, fiber, g,
                                                involution, data):
    name, level = fiber.split("-")
    rank = 1 if name == "cyclic" or fiber == "inf-1" else 2
    g = Word.parse(g, rank)
    if name == "inf":
        keys = st.sampled_from(ball(3, rank))
        group = (Word.__mul__, Word.inverse)
    else:
        q = (fd if name == "fd" else cyclic).quotient(int(level))
        g = q.evaluate(g)
        assert not involution or (g and q.multiply(g, g) == 0)
        keys = st.integers(0, q.order - 1)
        group = (q.multiply, q.invert_element)
    coeffs = data.draw(st.dictionaries(
        keys, st.fractions(-3, 3, max_denominator=12).filter(bool),
        max_size=8))
    assert defects(coeffs, g, *group)[1] == \
        set_translation_defect(coeffs, g, *group)


def test_certificate_rejects_out_of_range(cyclic):
    xi = GroupAlgebraElement.from_pairs([(Word.identity(1), 2)], 1)
    with pytest.raises(InputError):
        certificate_from_folner(xi, cyclic, [(1, 0)], 0.5)


def test_zero_mass_certificate_error(cyclic):
    eta = FiberedFunction(cyclic, GroupAlgebraElement.zero(1), 2,
                          {1: {0: Fraction(1)}})
    cert = AmenabilityCertificate(eta, ((1, 0),), 0.5)
    with pytest.raises(DegenerateCertificateError):
        folner_from_certificate(cert)
