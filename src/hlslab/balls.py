"""Shortlex indexing of free-group balls by their right Cayley table.

For the infinity-fiber truncation bound the engine needs, for every word v
in a ball of ~10^6 words, the ball index of s*v for support words s.
A Word's letter code c is also the table's column c (a, A, b, B, ... are
0, 1, 2, 3, ..., and c ^ 1 inverts c).  Shortlex order on the ball is BFS
order by right multiplication with the letters in code order: a word's
children are contiguous, in code order, skipping the inverse of its last
letter.  The index keeps that right Cayley table, built one layer at a
time with vectorized writes, and left-multiplication tables come from
propagating the BFS tree through it (perms.propagate), as on a finite
quotient; the tree's layer ends are the ball sizes in closed form.  A
word's table is composed from its letters' tables as a gather, so applying
it costs one indexed read per ball word.
"""

from __future__ import annotations

import numpy as np

from .errors import ResourceError
from .perms import propagate
from .words import DEFAULT_BALL_CAP, Word, ball_size


class BallIndex:
    """Shortlex index and right Cayley table of the ball of a given radius
    in F_k."""

    def __init__(self, rank: int, radius: int, cap: int = DEFAULT_BALL_CAP):
        self.rank = rank
        self.radius = radius
        self.size = ball_size(radius, rank)
        if self.size > cap:
            raise ResourceError(
                f"ball({radius}, {rank}) has {self.size} words, exceeding "
                f"the configured element cap {cap}")
        n_letters = 2 * rank
        # table[i, c] = index of w_i * (letter c), or the sentinel
        # size when that leaves the ball; row size is the sentinel's own
        self.table = np.full((self.size + 1, n_letters), self.size,
                             dtype=np.int32)
        self.parent = np.zeros(self.size, dtype=np.int32)
        self.letter = np.zeros(self.size, dtype=np.int8)
        # BFS layer r is the sphere of radius r
        self.layer_ends = [ball_size(r, rank) for r in range(radius + 1)]
        # allowed[c] = the letters that may follow letter c, ascending
        allowed = np.array([[x for x in range(n_letters) if x != c ^ 1]
                            for c in range(n_letters)], dtype=np.int8)
        parents = np.zeros(1, dtype=np.int32)
        letters = np.arange(n_letters, dtype=np.int8)  # the root's children
        start = 1
        for _ in range(radius):
            kids = np.arange(start, start + len(letters), dtype=np.int32)
            par = np.repeat(parents, len(letters) // len(parents))
            self.table[par, letters] = kids
            self.table[kids, letters ^ 1] = par
            self.parent[kids] = par
            self.letter[kids] = letters
            parents, letters = kids, allowed[letters].reshape(-1)
            start += len(kids)
        self._move_cache: dict[int, np.ndarray] = {}

    def letter_move(self, letter: int) -> np.ndarray:
        """Index table for left multiplication by a letter code, which
        names table column letter as in Word.

        out[i] = index of (letter * w_i) if the product stays in the ball,
        else size.  Left multiplication is injective, so the entries below
        size are distinct.
        """
        if letter not in self._move_cache:
            # the one-letter word has index 1 + its code (the sentinel when
            # the ball is the identity alone)
            start = min(1 + letter, self.size)
            self._move_cache[letter] = propagate(
                self.table, self.parent, self.letter, self.layer_ends, start)
        return self._move_cache[letter]

    def word_move(self, w: Word) -> np.ndarray:
        """Gather table for left multiplication by w on ball coordinates.

        out[i] = j where w_i = w * w_j with both in the ball, and
        out[i] = size where there is no such j, so (w . vec) =
        vec_padded[out] with vec_padded = vec + [0].  As w is reduced, the
        products of w_j with the right factors of w are never longer than
        the longer of w_j and w * w_j, so this equals applying w letter by
        letter and truncating at the boundary.  The table is built anew on
        each call; a caller applying w repeatedly keeps it.
        """
        # w_j = w^-1 * w_i: left-multiply by the inverse, letter ^ 1, of
        # each letter of w; the sentinel size maps to itself
        table = np.arange(self.size)
        for letter in w.letters:
            table = np.append(self.letter_move(letter ^ 1), self.size)[table]
        return table

    def apply_word_move(self, w: Word, vec: np.ndarray) -> np.ndarray:
        """Left multiplication by w on ball coordinates (truncating at the
        boundary, as in word_move)."""
        return np.append(vec, 0)[self.word_move(w)]
