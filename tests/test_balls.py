import numpy as np
import pytest

from hlslab.balls import BallIndex
from hlslab.errors import ResourceError
from hlslab.words import Word, ball


@pytest.mark.parametrize("rank,radius", [(1, 6), (2, 5), (3, 3)])
def test_index_matches_shortlex_enumeration(rank, radius):
    bi = BallIndex(rank, radius)
    words = ball(radius, rank)
    assert bi.size == len(words)
    for i, w in enumerate(words):
        assert bi.word_to_index(w) == i
        assert bi.word_at(i) == w


@pytest.mark.parametrize("rank,radius", [(1, 5), (2, 4)])
def test_letter_moves_against_direct_multiplication(rank, radius):
    bi = BallIndex(rank, radius)
    words = ball(radius, rank)
    for g in range(1, rank + 1):
        for letter in (g, -g):
            move = bi.letter_move(letter)
            for i, w in enumerate(words):
                product = Word((letter,), rank) * w
                expected = (bi.word_to_index(product)
                            if len(product) <= radius else -1)
                assert move[i] == expected


def test_moves_are_injective_where_defined():
    bi = BallIndex(2, 6)
    for letter in (1, -1, 2, -2):
        move = bi.letter_move(letter)
        defined = move[move >= 0]
        assert len(np.unique(defined)) == len(defined)


def test_apply_word_move_matches_single_letters():
    bi = BallIndex(2, 4)
    rng = np.random.default_rng(7)
    v = rng.standard_normal(bi.size)
    w = Word.parse("ab")
    out = bi.apply_word_move(w, v)
    # compose by hand: b first, then a
    step = np.zeros_like(v)
    mb = bi.letter_move(2)
    ok = mb >= 0
    step[mb[ok]] = v[ok]
    out2 = np.zeros_like(v)
    ma = bi.letter_move(1)
    ok = ma >= 0
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
        ok = move >= 0
        nxt[move[ok]] = out[ok]
        out = nxt
    return out


@pytest.mark.parametrize("rank,radius", [(1, 5), (2, 3), (3, 2)])
@pytest.mark.parametrize("pad", [0, 3])
def test_word_move_matches_letter_composition(rank, radius, pad):
    bi = BallIndex(rank, radius + pad)
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
                assert table[bi.word_to_index(w * u)] == j

