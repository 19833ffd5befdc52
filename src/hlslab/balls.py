"""Arithmetic shortlex indexing of free-group balls.

For the infinity-fiber truncation bound the engine needs, for every word v
in a ball of ~10^6 words, the ball index of s*v for support words s.
Storing the words in shortlex order makes the index a closed-form base-
(2k-1) expansion, so left-multiplication tables are built with vectorized
integer arithmetic and no dictionary.  A word's table is composed from
its letters' tables as a gather, so applying it costs one indexed read
per ball word.

Index layout for rank k: offset(0) = 0; length-L block starts at
offset(L) = 1 + sum_{j<L} 2k*(2k-1)^(j-1) and is ordered lexicographically
by letter rank (a < A < b < B < ...).  Within a word, the first letter
contributes its rank among all 2k letters; each later letter contributes
its rank among the 2k-1 letters distinct from the inverse of its
predecessor.
"""

from __future__ import annotations

import numpy as np

from .errors import ResourceError
from .words import Word, ball_size, letter_rank, letters_in_order


class BallIndex:
    """Shortlex index tables for the ball of a given radius in F_k."""

    def __init__(self, rank: int, radius: int, cap: int = 5_000_000):
        self.rank = rank
        self.radius = radius
        self.size = ball_size(radius, rank)
        if self.size > cap:
            raise ResourceError(
                f"ball({radius}, {rank}) has {self.size} words, exceeding "
                f"the configured element cap {cap}")
        self.n_letters = 2 * rank
        self.branch = self.n_letters - 1
        # letters sorted by normative rank; rank r letter = _letters[r]
        self._letters = np.array(
            sorted(letters_in_order(rank), key=letter_rank), dtype=np.int8)
        self.offsets = [0]
        count = 1
        block = self.n_letters
        for _ in range(radius):
            self.offsets.append(count)
            count += block
            block *= self.branch
        self.offsets.append(count)  # offset(radius+1) == size
        self._build_tables()
        self._move_cache: dict[int, np.ndarray] = {}

    def _build_tables(self):
        # per length L >= 1: first letter (int8), first/second true ranks,
        # adjusted-rank matrix S (N_L x L)
        self.first_letter: list[np.ndarray | None] = [None]
        self.rank01: list[np.ndarray | None] = [None]
        self.adj: list[np.ndarray | None] = [None]
        if self.radius == 0:
            return
        # allowed_next[r] = ranks of letters allowed after the rank-r letter,
        # ascending; the inverse of a rank-r letter has rank r ^ 1
        nl = self.n_letters
        allowed = np.empty((nl, self.branch), dtype=np.int8)
        for r in range(nl):
            allowed[r] = [x for x in range(nl) if x != (r ^ 1)]
        ranks = np.arange(nl, dtype=np.int8)  # length-1 words, rank order
        S = ranks.reshape(-1, 1)
        first = self._letters.copy()
        R01 = np.stack([ranks, np.full(nl, -1, dtype=np.int8)], axis=1)
        self.first_letter.append(first)
        self.rank01.append(R01)
        self.adj.append(S)
        last_rank = ranks
        for L in range(2, self.radius + 1):
            n_prev = S.shape[0]
            new_rank = allowed[last_rank].reshape(-1)          # true ranks
            prev_inv = np.repeat(last_rank ^ 1, self.branch)
            new_adj = new_rank - (new_rank > prev_inv)
            S = np.concatenate(
                [np.repeat(S, self.branch, axis=0),
                 new_adj.reshape(-1, 1).astype(np.int8)], axis=1)
            first = np.repeat(first, self.branch)
            r0 = np.repeat(R01[:, 0], self.branch)
            r1 = (np.repeat(R01[:, 1], self.branch) if L > 2
                  else new_rank.astype(np.int8))
            R01 = np.stack([r0, r1], axis=1).astype(np.int8)
            self.first_letter.append(first)
            self.rank01.append(R01)
            self.adj.append(S)
            last_rank = new_rank

    def _powers(self, n: int) -> np.ndarray:
        # [branch^(n-1), ..., branch, 1]
        return self.branch ** np.arange(n - 1, -1, -1, dtype=np.int64)

    def word_to_index(self, w: Word) -> int:
        L = len(w.letters)
        if L > self.radius:
            raise ValueError("word longer than ball radius")
        if L == 0:
            return 0
        idx = self.offsets[L]
        ranks = [letter_rank(l) for l in w.letters]
        pw = self._powers(L)
        idx += ranks[0] * int(pw[0])
        for i in range(1, L):
            s = ranks[i] - (ranks[i] > (ranks[i - 1] ^ 1))
            idx += s * int(pw[i])
        return idx

    def word_at(self, idx: int) -> Word:
        L = 0
        while idx >= self.offsets[L + 1]:
            L += 1
        if L == 0:
            return Word.identity(self.rank)
        rem = idx - self.offsets[L]
        pw = self._powers(L)
        r0 = rem // int(pw[0])
        rem -= r0 * int(pw[0])
        letters = [int(self._letters[r0])]
        prev = r0
        for i in range(1, L):
            s = rem // int(pw[i])
            rem -= s * int(pw[i])
            r = s + (1 if s >= (prev ^ 1) else 0)
            letters.append(int(self._letters[r]))
            prev = r
        return Word(tuple(letters), self.rank)

    def letter_move(self, letter: int) -> np.ndarray:
        """Index table for left multiplication by a single letter.

        out[i] = index of (letter * w_i) if the product stays in the ball,
        else -1.  Left multiplication is injective, so the defined entries
        are distinct.
        """
        if letter in self._move_cache:
            return self._move_cache[letter]
        out = np.full(self.size, -1, dtype=np.int64)
        s_rank = letter_rank(letter)
        s_inv_rank = s_rank ^ 1
        # length 0 -> the letter itself
        if self.radius >= 1:
            out[0] = self.offsets[1] + s_rank
        for L in range(1, self.radius + 1):
            base = self.offsets[L]
            n = self.adj[L].shape[0]
            first = self.first_letter[L]
            cancel = first == np.int8(-letter)
            # cancellation: drop the first letter
            if L == 1:
                out[base:base + n][cancel] = 0
            else:
                c = np.nonzero(cancel)[0]
                if c.size:
                    S = self.adj[L]
                    pw = self._powers(L - 1)
                    tgt = np.full(c.size, self.offsets[L - 1], dtype=np.int64)
                    tgt += self.rank01[L][c, 1].astype(np.int64) * pw[0]
                    if L > 2:
                        tgt += S[c, 2:].astype(np.int64) @ pw[1:]
                    out[base + c] = tgt
            # prepend: only when the extended word still fits
            if L + 1 <= self.radius:
                p = np.nonzero(~cancel)[0]
                if p.size:
                    S = self.adj[L]
                    pw = self._powers(L + 1)
                    r0 = self.rank01[L][p, 0].astype(np.int64)
                    adj0 = r0 - (r0 > s_inv_rank)
                    tgt = np.full(p.size, self.offsets[L + 1], dtype=np.int64)
                    tgt += s_rank * pw[0]
                    tgt += adj0 * pw[1]
                    if L >= 2:
                        tgt += S[p, 1:].astype(np.int64) @ pw[2:]
                    out[base + p] = tgt
        self._move_cache[letter] = out
        return out

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
        # w_j = w^-1 * w_i: left-multiply by l^-1 for each letter l of w
        table = np.arange(self.size, dtype=np.int64)
        for letter in w.letters:
            table = np.where(table >= 0, self.letter_move(-letter)[table], -1)
        table[table < 0] = self.size
        return table

    def apply_word_move(self, w: Word, vec: np.ndarray) -> np.ndarray:
        """Left multiplication by w on ball coordinates (truncating at the
        boundary, as in word_move)."""
        return np.append(vec, 0)[self.word_move(w)]
