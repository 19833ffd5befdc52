import numpy as np
import pytest

from hlslab.balls import BallIndex
from hlslab.errors import ResourceError
from hlslab.words import Word, ball


def shortlex_index(radius, rank):
    return {w: i for i, w in enumerate(ball(radius, rank))}


@pytest.mark.parametrize("rank,radius", [(1, 6), (2, 5), (3, 3)])
def test_index_matches_shortlex_enumeration(rank, radius):
    bi = BallIndex(rank, radius)
    words = ball(radius, rank)
    index = shortlex_index(radius, rank)
    assert bi.size == len(words)
    for i, w in enumerate(words):
        # the word's index, walked through the table from the identity
        j = 0
        for letter in w.letters:
            j = bi.table[j, letter]
        assert j == index[w] == i
        # the word at index i, read back along the BFS tree
        letters = []
        while j:
            letters.append(bi.letter[j])
            j = bi.parent[j]
        assert Word(tuple(int(c) for c in reversed(letters)), rank) == w


@pytest.mark.parametrize("rank,radius", [(1, 6), (2, 4), (3, 3)])
def test_right_table_matches_shortlex_dict(rank, radius):
    bi = BallIndex(rank, radius)
    index = shortlex_index(radius, rank)
    assert bi.table.shape == (bi.size + 1, 2 * rank)
    for w, i in index.items():
        for c in range(2 * rank):
            product = w * Word((c,), rank)
            assert bi.table[i, c] == index.get(product, bi.size)
    assert (bi.table[bi.size] == bi.size).all()  # the sentinel row


@pytest.mark.parametrize("rank,radius", [(1, 5), (2, 4)])
def test_letter_moves_against_direct_multiplication(rank, radius):
    bi = BallIndex(rank, radius)
    words = ball(radius, rank)
    index = shortlex_index(radius, rank)
    for letter in range(2 * rank):
        move = bi.letter_move(letter)
        for i, w in enumerate(words):
            product = Word((letter,), rank) * w
            expected = index[product] if len(product) <= radius else bi.size
            assert move[i] == expected


def test_moves_are_injective_where_defined():
    bi = BallIndex(2, 6)
    for letter in range(4):
        move = bi.letter_move(letter)
        defined = move[move < bi.size]
        assert len(np.unique(defined)) == len(defined)


def test_apply_word_move_matches_single_letters():
    bi = BallIndex(2, 4)
    rng = np.random.default_rng(7)
    v = rng.standard_normal(bi.size)
    w = Word.parse("ab")
    a, b = w.letters
    out = bi.apply_word_move(w, v)
    # compose by hand: b first, then a
    step = np.zeros_like(v)
    mb = bi.letter_move(b)
    ok = mb < bi.size
    step[mb[ok]] = v[ok]
    out2 = np.zeros_like(v)
    ma = bi.letter_move(a)
    ok = ma < bi.size
    out2[ma[ok]] = step[ok]
    assert np.allclose(out, out2)


def test_ball_cap_enforced():
    with pytest.raises(ResourceError):
        BallIndex(2, 15, cap=1000)


def _scatter_letters(bi, w, vec):
    """Left multiplication by w, one letter_move scatter at a time."""
    out = vec
    for letter in reversed(w.letters):
        move = bi.letter_move(letter)
        nxt = np.zeros_like(out)
        ok = move < bi.size
        nxt[move[ok]] = out[ok]
        out = nxt
    return out


@pytest.mark.parametrize("rank,radius", [(1, 5), (2, 3), (3, 2)])
@pytest.mark.parametrize("pad", [0, 3])
def test_word_move_matches_letter_composition(rank, radius, pad):
    bi = BallIndex(rank, radius + pad)
    index = shortlex_index(radius + pad, rank)
    rng = np.random.default_rng(11)
    vec = rng.standard_normal(bi.size)  # nonzero up to the boundary
    for w in ball(3, rank):
        if w.is_identity():
            continue
        table = bi.word_move(w)
        assert table.shape == (bi.size,)
        assert np.array_equal(bi.apply_word_move(w, vec),
                              _scatter_letters(bi, w, vec))
        if pad:
            # no intermediate product leaves the padded ball: the gather
            # is exact left multiplication on the inner ball
            for j, u in enumerate(ball(radius, rank)):
                assert table[index[w * u]] == j

