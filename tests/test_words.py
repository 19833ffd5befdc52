import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hlslab.errors import InputError, ResourceError
from hlslab.exact import RationalComplex
from hlslab.words import GroupAlgebraElement, Word, ball, ball_size

A, Ai, B, Bi = 0, 1, 2, 3  # letter codes: a, A, b, B


def w(*letters):
    return Word.reduce(letters, 2)


# -- free reduction -----------------------------------------------------------

def test_reduce_cancellation():
    assert w(A, Ai) == Word.identity(2)
    assert w(A, B, Bi, A) == Word((A, A), 2)
    assert w(A, B, Ai) == Word((A, B, Ai), 2)


def test_reduce_rejects_bad_letters():
    with pytest.raises(InputError):
        Word.reduce([4], rank=2)
    with pytest.raises(InputError):
        Word.reduce([-1], rank=2)


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
        Word.parse("a", 1) * Word.parse("a", 2)


@st.composite
def reduced_words(draw, rank):
    letters = draw(st.lists(st.integers(0, 2 * rank - 1), max_size=40))
    return Word.reduce(letters, rank)


@st.composite
def word_pairs(draw):
    rank = draw(st.integers(1, 3))
    u = draw(reduced_words(rank))
    if draw(st.booleans()):
        # v starts with a stretch of u^-1, so the product cancels at the
        # junction, fully when the stretch is all of u and the tail empty
        cut = draw(st.integers(0, len(u)))
        tail = draw(reduced_words(rank))
        v = Word.reduce(u.inverse().letters[:cut] + tail.letters, rank)
    else:
        v = draw(reduced_words(rank))
    return u, v


@settings(max_examples=200)
@given(word_pairs())
def test_multiply_matches_reducing_the_concatenation(pair):
    u, v = pair
    want = Word.reduce(u.letters + v.letters, u.rank)
    got = u * v
    assert got == want and got.letters == want.letters
    assert u.inverse() == Word.reduce(
        tuple(l ^ 1 for l in reversed(u.letters)), u.rank)
    e = Word.identity(u.rank)
    assert u * e == u and e * u == u and u * u.inverse() == e


@given(st.integers(1, 25).flatmap(reduced_words))
@example(Word((8,), 5))  # the fifth generator alone, once spelled "e"
def test_parse_reads_what_str_writes(u):
    assert Word.parse(str(u), u.rank) == u


@settings(max_examples=200)
@given(st.integers(1, 3).flatmap(reduced_words), st.integers(-6, 6))
def test_power_is_the_repeated_product(u, n):
    want = Word.identity(u.rank)
    for _ in range(abs(n)):
        want = want * (u if n > 0 else u.inverse())
    got = u ** n
    assert got == want and got.letters == want.letters


SPELLING = "aAbBcC"
# characters that are no letter of rank 3 or below, written or not
NON_LETTERS = "e dDx1?\t\u00e9\u2603"


@st.composite
def spellings(draw):
    """(rank, string): letters of the rank, often beside their inverses,
    some non-letters, and whitespace around them."""
    rank = draw(st.integers(1, 3))
    letters = SPELLING[:2 * rank]
    pairs = [letters[c] + letters[c ^ 1] for c in range(2 * rank)]
    chunk = st.one_of(st.sampled_from(letters), st.sampled_from(pairs),
                      st.sampled_from(NON_LETTERS))
    body = "".join(draw(st.lists(chunk, max_size=16)))
    if draw(st.booleans()):
        body = draw(st.sampled_from(["", "e"]))
    pad = st.sampled_from(["", " ", "\t", "\n  "])
    return rank, draw(pad) + body + draw(pad)


@settings(max_examples=300)
@given(spellings())
def test_parse_reduces_the_codes_and_names_the_first_bad_letter(case):
    rank, s = case
    letters = SPELLING[:2 * rank]
    body = s.strip()
    bad = next((c for c in body if c not in letters), None)
    if body in ("", "e"):
        assert Word.parse(s, rank) == Word.identity(rank)
    elif bad is not None:
        with pytest.raises(InputError) as err:
            Word.parse(s, rank)
        assert str(err.value) == f"letter {bad!r} not valid for rank {rank}"
    else:
        got = Word.parse(s, rank)
        want = Word.reduce([letters.index(c) for c in body], rank)
        assert got == want and type(got.letters) is bytes


def test_rank_is_1_to_25_and_e_is_no_letter():
    # "e" spells the identity, so the fifth generator is "f"
    assert str(Word((8, 7), 5)) == "fD" and Word.parse("fD", 5) == Word(
        (8, 7), 5)
    assert str(Word((48, 1), 25)) == "zA"
    for rank in (0, 26, True, 2.0):
        for build in (lambda: Word((), rank), lambda: Word.reduce([], rank),
                      lambda: Word.parse("a", rank)):
            with pytest.raises(InputError, match=r"^rank must be an "
                               r"integer in 1\.\.25"):
                build()


def test_parse_reduces_and_names_the_first_bad_letter():
    assert Word.parse("aA") == Word.identity(2)
    assert Word.parse("abBA") == Word.identity(2)
    assert Word.parse(" aBbb ") == Word((A, B), 2)
    assert Word.parse("cC", rank=3) == Word.identity(3)
    with pytest.raises(InputError, match=r"^letter 'c' not valid for rank 2$"):
        Word.parse("abcxC")
    with pytest.raises(InputError, match=r"^letter 'B' not valid for rank 1$"):
        Word.parse("aB", rank=1)
    with pytest.raises(InputError, match=r"^letter '1' not valid for rank 2$"):
        Word.parse("a1")


# -- ball enumeration ---------------------------------------------------------

def test_ball_sizes():
    assert [len(ball(r, 2)) for r in (0, 1, 2)] == [1, 5, 17]
    for r in range(11):
        assert ball_size(r, 2) == 2 * 3 ** r - 1
    for rank, radius in ((1, 7), (3, 4), (4, 3)):
        assert [ball_size(r, rank) for r in range(radius + 1)] == \
            [len(ball(r, rank)) for r in range(radius + 1)]


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


# -- the Haagerup bound: sum_k (k+1) ||x_k||_2 over the spheres x_k ----------

def test_sphere_decomposition_examples():
    e = GroupAlgebraElement.delta(Word.identity(2))
    assert e.haagerup_bound() == 1.0
    # one sphere of radius 1 with l2 norm sqrt(2); the float sqrt(2) lies
    # above the root, and twice it is exact
    x = GroupAlgebraElement.from_pairs([("a", 1), ("b", 1)])
    assert Fraction(math.sqrt(2)) ** 2 > 2
    assert x.haagerup_bound() == 2 * math.sqrt(2)
    # spheres 0 and 2 with l2 norms 1 and 2: 1*1 + 3*2
    y = GroupAlgebraElement.from_pairs([("e", 1), ("ab", 2)])
    assert y.haagerup_bound() == 7.0
    # words of one length share a sphere: 3 * sqrt(3^2 + 4^2)
    z = GroupAlgebraElement.from_pairs([("ab", 3), ("BA", -4)])
    assert z.haagerup_bound() == 15.0


@settings(max_examples=30, deadline=None)
@given(random_element())
def test_sphere_pythagoras(x):
    # the spheres' l2 norms squared sum to ||x||_2^2, and the bound is at
    # least the sum of those norms, hence at least ||x||_2
    l2_squared = sum(abs(c) ** 2 for c in x.coeffs.values())
    assert Fraction(x.haagerup_bound()) ** 2 >= l2_squared


def test_haagerup_bound_generator_sum():
    assert gen_sum().haagerup_bound() == 4.0  # exact inputs stay exact


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
