import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hlslab.errors import InputError, ResourceError
from hlslab.exact import RationalComplex
from hlslab.words import GroupAlgebraElement, Word, ball, ball_size

A, Ai, B, Bi = 1, -1, 2, -2


def w(*letters):
    return Word.reduce(letters, 2)


# -- free reduction -----------------------------------------------------------

def test_reduce_cancellation():
    assert w(A, Ai) == Word.identity(2)
    assert w(A, B, Bi, A) == Word((A, A), 2)
    assert w(A, B, Ai) == Word((A, B, Ai), 2)


def test_reduce_rejects_bad_letters():
    with pytest.raises(InputError):
        Word.reduce([3], rank=2)
    with pytest.raises(InputError):
        Word.reduce([0], rank=2)


letters_strategy = st.lists(st.sampled_from([A, Ai, B, Bi]), max_size=12)


@given(letters_strategy)
def test_reduce_idempotent(letters):
    once = Word.reduce(letters, 2)
    assert Word.reduce(once.letters, 2) == once


@given(letters_strategy, letters_strategy, letters_strategy)
def test_group_axioms(ls, ms, ns):
    u, v, x = (Word.reduce(t, 2) for t in (ls, ms, ns))
    assert (u * v) * x == u * (v * x)
    e = Word.identity(2)
    assert u * e == u and e * u == u
    assert u * u.inverse() == e and u.inverse() * u == e


def test_multiply_examples():
    assert w(A) * w(Ai) == Word.identity(2)
    assert w(A, B).inverse() == Word((Bi, Ai), 2)
    assert w(A, B) * w(Bi, A) == Word((A, A), 2)


def test_rank_mismatch():
    with pytest.raises(InputError):
        Word((1,), 1) * Word((1,), 2)


# -- ball enumeration ---------------------------------------------------------

def test_ball_sizes():
    assert [len(ball(r, 2)) for r in (0, 1, 2)] == [1, 5, 17]
    for r in range(11):
        assert ball_size(r, 2) == 2 * 3 ** r - 1


def test_ball_shortlex_order():
    words = ball(3, 2)
    keys = [x.shortlex_key() for x in words]
    assert keys == sorted(keys)
    assert words[0] == Word.identity(2)
    assert len(words) == len(set(words))


def test_ball_cap():
    with pytest.raises(ResourceError):
        ball(10, 2, cap=100)


# -- group algebra ------------------------------------------------------------

def gen_sum():
    return GroupAlgebraElement.generator_sum(2)


MIXED_VALUES = [3, -2, 0, Fraction(5, 7), Fraction(-1, 3), 0.5, -1.25, 0.1,
                complex(1.5, -2), 2j,
                RationalComplex(Fraction(1, 2), Fraction(-3, 4)),
                RationalComplex(Fraction(2)), RationalComplex(Fraction(0))]


def test_rational_complex_mixed_arithmetic():
    # plain +, - and * on coefficients equal the RationalComplex
    # computation, in value and type, whenever one operand is exact-complex
    pairs = [(a, b) for a in MIXED_VALUES for b in MIXED_VALUES
             if RationalComplex in (type(a), type(b))]
    for a, b in pairs:
        ra, rb = RationalComplex.of(a), RationalComplex.of(b)
        for got, want in ((a + b, ra + rb), (a - b, ra - rb),
                          (a * b, ra * rb)):
            assert type(got) is RationalComplex, (a, b)
            assert (got.re, got.im) == (want.re, want.im), (a, b)


def test_convolve_deltas():
    x = GroupAlgebraElement.delta(w(A))
    y = GroupAlgebraElement.delta(w(Ai))
    assert x.convolve(y).coeffs == {Word.identity(2): 1}


def test_adjoint_of_generators():
    x = GroupAlgebraElement.from_pairs([("a", 1), ("b", 1)])
    assert x.adjoint().coeffs == {w(Ai): 1, w(Bi): 1}


def test_generator_sum_squared():
    sq = gen_sum().convolve(gen_sum())
    assert sq.coeffs[Word.identity(2)] == 4
    assert len(sq.coeffs) == 13


small_rational = st.builds(Fraction,
                           st.integers(-4, 4), st.integers(1, 4))


def random_element():
    words = st.sampled_from(ball(3, 2))
    return st.lists(st.tuples(words, small_rational), min_size=1, max_size=4)\
        .map(lambda pairs: GroupAlgebraElement.from_pairs(pairs, 2))


@settings(max_examples=40, deadline=None)
@given(random_element(), random_element(), random_element())
def test_convolution_associative_exact(x, y, z):
    assert x.convolve(y).convolve(z).coeffs == x.convolve(y.convolve(z)).coeffs


@settings(max_examples=40, deadline=None)
@given(random_element(), random_element())
def test_adjoint_antihomomorphism(x, y):
    assert x.convolve(y).adjoint().coeffs == \
        y.adjoint().convolve(x.adjoint()).coeffs


def test_adjoint_involutive_complex():
    c = RationalComplex(Fraction(1, 3), Fraction(2, 5))
    x = GroupAlgebraElement.from_pairs([("ab", c), ("e", 2)])
    assert x.adjoint().adjoint().coeffs == x.coeffs


# -- sphere decomposition -----------------------------------------------------

def test_sphere_decomposition_examples():
    e = GroupAlgebraElement.delta(Word.identity(2))
    assert e.sphere_decomposition() == [(0, e, 1.0)]
    x = GroupAlgebraElement.from_pairs([("a", 1), ("b", 1)])
    [(k, comp, norm)] = x.sphere_decomposition()
    assert k == 1 and comp.coeffs == x.coeffs
    assert norm == pytest.approx(math.sqrt(2))
    y = GroupAlgebraElement.from_pairs([("e", 1), ("ab", 2)])
    decomp = y.sphere_decomposition()
    assert [(k, n) for k, _, n in decomp] == [(0, 1.0), (2, 2.0)]


@settings(max_examples=30, deadline=None)
@given(random_element())
def test_sphere_pythagoras(x):
    total = sum(comp.l2_norm_squared()
                for _, comp, _ in x.sphere_decomposition())
    assert total == x.l2_norm_squared()


def test_haagerup_bound_generator_sum():
    assert gen_sum().haagerup_bound() == pytest.approx(4.0)


# -- serialization ------------------------------------------------------------

def test_json_round_trip_rational_bit_exact():
    x = GroupAlgebraElement.from_pairs(
        [("a", Fraction(1, 3)), ("aB", Fraction(-7, 2)),
         ("e", RationalComplex(Fraction(0), Fraction(2, 9)))])
    back = GroupAlgebraElement.from_json(x.to_json())
    assert back.coeffs == x.coeffs
    assert back.to_json() == x.to_json()


def test_json_round_trip_float():
    x = GroupAlgebraElement.from_pairs([("a", 0.5), ("B", 1.25 + 0.5j)])
    back = GroupAlgebraElement.from_json(x.to_json())
    assert back.coeffs == x.coeffs


def test_json_word_alphabet():
    x = GroupAlgebraElement.from_pairs([("aAbB", 1)])  # reduces to e
    assert x.coeffs == {Word.identity(2): 1}
    assert GroupAlgebraElement.from_json('[["e", 1, 0]]').coeffs == x.coeffs


def test_json_bad_input():
    with pytest.raises(InputError):
        GroupAlgebraElement.from_json("{not json")
    with pytest.raises(InputError):
        GroupAlgebraElement.from_json('[["a", 1]]')
