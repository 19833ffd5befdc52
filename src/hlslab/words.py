"""Reduced words in the free group F_k and exact group-algebra arithmetic.

Letters are nonzero signed generator indices: +i is the i-th generator,
-i its inverse (1-based, i <= rank).  The normative letter order used for
shortlex enumeration and serialization is a < A < b < B < ... where a
capital letter denotes an inverse.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator

from .errors import InputError, ResourceError
from .exact import RationalComplex, conj, imag_part, is_exact, real_part

DEFAULT_BALL_CAP = 5_000_000

_ALPHABET = "abcdefghijklmnopqrstuvwxyz"
# character -> letter for each rank: a -> 1, A -> -1, b -> 2, ...
_LETTER_CODES = [
    {c: sign * (i + 1) for i, low in enumerate(_ALPHABET[:rank])
     for c, sign in ((low, 1), (low.upper(), -1))}
    for rank in range(len(_ALPHABET) + 1)]


def letter_rank(letter: int) -> int:
    """Position of a letter in the normative order a, A, b, B, ..."""
    return 2 * (abs(letter) - 1) + (0 if letter > 0 else 1)


def letters_in_order(rank: int) -> list[int]:
    return [l for g in range(1, rank + 1) for l in (g, -g)]


def check_letters(letters: Iterable[int], rank: int) -> None:
    for l in letters:
        if not isinstance(l, int) or l == 0 or abs(l) > rank:
            raise InputError(f"invalid generator index {l!r} for rank {rank}")


def free_reduce(letters: Iterable[int]) -> tuple[int, ...]:
    out: list[int] = []
    for l in letters:
        if out and out[-1] == -l:
            out.pop()
        else:
            out.append(l)
    return tuple(out)


@dataclass(frozen=True)
class Word:
    """A freely reduced word; the empty tuple is the identity."""

    letters: tuple[int, ...]
    rank: int = 2

    def __post_init__(self):
        check_letters(self.letters, self.rank)
        for x, y in zip(self.letters, self.letters[1:]):
            if x == -y:
                raise InputError(f"word {self.letters} is not freely reduced")

    @classmethod
    def _unchecked(cls, letters: tuple[int, ...], rank: int) -> "Word":
        """A Word from letters already known to be valid and reduced."""
        w = object.__new__(cls)
        object.__setattr__(w, "letters", letters)
        object.__setattr__(w, "rank", rank)
        return w

    @staticmethod
    def identity(rank: int = 2) -> "Word":
        return Word((), rank)

    @staticmethod
    def reduce(letters: Iterable[int], rank: int = 2) -> "Word":
        letters = tuple(letters)
        check_letters(letters, rank)
        return Word._unchecked(free_reduce(letters), rank)

    def __len__(self) -> int:
        return len(self.letters)

    def __mul__(self, other: "Word") -> "Word":
        if self.rank != other.rank:
            raise InputError("rank mismatch in word multiplication")
        # both factors are reduced, so letters cancel only at the junction
        a, b = self.letters, other.letters
        cut, most = 0, min(len(a), len(b))
        while cut < most and a[-1 - cut] == -b[cut]:
            cut += 1
        return Word._unchecked(a[:len(a) - cut] + b[cut:], self.rank)

    def inverse(self) -> "Word":
        return Word._unchecked(tuple(-l for l in reversed(self.letters)),
                               self.rank)

    def __pow__(self, n: int) -> "Word":
        base = self if n >= 0 else self.inverse()
        out = Word.identity(self.rank)
        for _ in range(abs(n)):
            out = out * base
        return out

    def is_identity(self) -> bool:
        return not self.letters

    def shortlex_key(self) -> tuple:
        return (len(self.letters), tuple(letter_rank(l) for l in self.letters))

    def __str__(self) -> str:
        if not self.letters:
            return "e"
        out = []
        for l in self.letters:
            c = _ALPHABET[abs(l) - 1]
            out.append(c if l > 0 else c.upper())
        return "".join(out)

    @staticmethod
    def parse(s: str, rank: int = 2) -> "Word":
        s = s.strip()
        if s in ("", "e"):
            return Word.identity(rank)
        codes = _LETTER_CODES[max(0, min(rank, len(_ALPHABET)))]
        try:
            letters = [codes[c] for c in s]
        except KeyError:
            bad = next(c for c in s if c not in codes)
            raise InputError(
                f"letter {bad!r} not valid for rank {rank}") from None
        return Word._unchecked(free_reduce(letters), rank)


def ball_size(radius: int, rank: int) -> int:
    if radius < 0:
        raise InputError("radius must be nonnegative")
    if rank == 1:
        return 2 * radius + 1
    # 1 + sum over 1 <= r' <= radius of the sphere size 2k (2k - 1)^(r' - 1)
    return 1 + rank * ((2 * rank - 1) ** radius - 1) // (rank - 1)


def ball(radius: int, rank: int = 2, cap: int = DEFAULT_BALL_CAP) -> list[Word]:
    """All reduced words of length <= radius in shortlex order."""
    if radius < 0:
        raise InputError("radius must be nonnegative")
    size = ball_size(radius, rank)
    if size > cap:
        raise ResourceError(
            f"ball({radius}, {rank}) has {size} words, exceeding the "
            f"configured element cap {cap}")
    order = sorted(letters_in_order(rank), key=letter_rank)
    words = [Word.identity(rank)]
    frontier = [()]
    for _ in range(radius):
        nxt = []
        for w in frontier:
            for l in order:
                if w and w[-1] == -l:
                    continue
                nxt.append(w + (l,))
        words.extend(Word(w, rank) for w in nxt)
        frontier = nxt
    return words


# -- finitely supported functions on a group --------------------------------
# Coefficient dicts {group element: coeff} over any group given by its
# multiply and inverse: Words at infinity, element indices in a quotient.

def convolve_coeffs(a: dict, b: dict, multiply) -> dict:
    """(a*b)(g) = sum over multiply(u, v) = g of a(u) b(v); no zeros."""
    out: dict = {}
    for u, cu in a.items():
        for v, cv in b.items():
            w = multiply(u, v)
            out[w] = out.get(w, 0) + cu * cv
    return {w: c for w, c in out.items() if c}


def adjoint_coeffs(a: dict, inverse) -> dict:
    """a*(g) = conj(a(g^-1))."""
    return {inverse(g): conj(c) for g, c in a.items()}


def l1_of(a: dict) -> tuple[float, float]:
    """sum |c| as (lower, upper) floats.  For real coefficients (int,
    Fraction, float) the sum is exact, and an end moves one ulp outward
    only when the float of the sum is not the sum, so 4 stays [4, 4].
    Complex coefficients go through abs (hypot) and round to nearest."""
    if any(imag_part(c) for c in a.values()):
        s = float(sum(abs(c) for c in a.values()))
        return s, s
    s = sum(abs(Fraction(real_part(c))) for c in a.values())
    f = float(s)
    return (f if f <= s else math.nextafter(f, -math.inf),
            f if f >= s else math.nextafter(f, math.inf))


def _abs_squared(c):
    if isinstance(c, RationalComplex):
        return c.abs_squared()
    if isinstance(c, complex):
        return c.real * c.real + c.imag * c.imag
    return c * c


@dataclass(frozen=True)
class GroupAlgebraElement:
    """Finitely supported function F_k -> C; no zero coefficients stored.

    Coefficients may be exact (int, Fraction, RationalComplex) or double
    precision (float, complex); exact and float inputs can be mixed but
    exact-mode guarantees then no longer apply.
    """

    rank: int
    coeffs: dict = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for w, c in self.coeffs.items():
            if not isinstance(w, Word):
                raise InputError("coefficient keys must be Words")
            if w.rank != self.rank:
                raise InputError("word rank does not match element rank")
            if c:
                clean[w] = c
        object.__setattr__(self, "coeffs", clean)

    @staticmethod
    def zero(rank: int = 2) -> "GroupAlgebraElement":
        return GroupAlgebraElement(rank, {})

    @staticmethod
    def delta(word: Word, coeff=1) -> "GroupAlgebraElement":
        return GroupAlgebraElement(word.rank, {word: coeff})

    @staticmethod
    def from_pairs(pairs, rank: int = 2) -> "GroupAlgebraElement":
        coeffs: dict = {}
        for w, c in pairs:
            if isinstance(w, str):
                w = Word.parse(w, rank)
            coeffs[w] = coeffs.get(w, 0) + c
        return GroupAlgebraElement(rank, coeffs)

    @staticmethod
    def generator_sum(rank: int = 2) -> "GroupAlgebraElement":
        """Sum of all generators and their inverses (the Cayley adjacency)."""
        return GroupAlgebraElement(
            rank, {Word((l,), rank): 1 for l in letters_in_order(rank)})

    def support(self) -> list[Word]:
        return sorted(self.coeffs, key=Word.shortlex_key)

    def __add__(self, other: "GroupAlgebraElement") -> "GroupAlgebraElement":
        self._check_rank(other)
        coeffs = dict(self.coeffs)
        for w, c in other.coeffs.items():
            coeffs[w] = coeffs.get(w, 0) + c
        return GroupAlgebraElement(self.rank, coeffs)

    def __sub__(self, other: "GroupAlgebraElement") -> "GroupAlgebraElement":
        return self + other.scale(-1)

    def scale(self, s) -> "GroupAlgebraElement":
        return GroupAlgebraElement(
            self.rank, {w: s * c for w, c in self.coeffs.items()})

    def _check_rank(self, other):
        if self.rank != other.rank:
            raise InputError("rank mismatch between group algebra elements")

    def convolve(self, other: "GroupAlgebraElement") -> "GroupAlgebraElement":
        """(x*y)(g) = sum_h x(g h^-1) y(h)."""
        self._check_rank(other)
        return GroupAlgebraElement(self.rank, convolve_coeffs(
            self.coeffs, other.coeffs, Word.__mul__))

    def adjoint(self) -> "GroupAlgebraElement":
        """x*(g) = conj(x(g^-1))."""
        return GroupAlgebraElement(
            self.rank, adjoint_coeffs(self.coeffs, Word.inverse))

    def is_self_adjoint(self, tol: float = 0.0) -> bool:
        adj = self.adjoint()
        keys = set(self.coeffs) | set(adj.coeffs)
        for w in keys:
            a = complex(self.coeffs.get(w, 0))
            b = complex(adj.coeffs.get(w, 0))
            if abs(a - b) > tol:
                return False
        return True

    def sum_of_coefficients(self):
        return sum(self.coeffs.values())

    def l1_norm(self) -> float:
        """sum |c|, rounded up: an upper bound for every fiber norm."""
        return l1_of(self.coeffs)[1]

    def l2_norm_squared(self):
        return sum(_abs_squared(c) for c in self.coeffs.values())

    def l2_norm(self) -> float:
        return math.sqrt(float(self.l2_norm_squared()))

    def sphere_decomposition(self) -> list[tuple[int, "GroupAlgebraElement", float]]:
        """Split by word length: x = sum_k x_k, with the l2 norm of each x_k."""
        by_len: dict[int, dict] = {}
        for w, c in self.coeffs.items():
            by_len.setdefault(len(w), {})[w] = c
        out = []
        for k in sorted(by_len):
            comp = GroupAlgebraElement(self.rank, by_len[k])
            out.append((k, comp, comp.l2_norm()))
        return out

    def haagerup_bound(self) -> float:
        """sum_k (k+1)*||x_k||_2; an upper bound for the reduced norm when
        rank >= 2."""
        return sum((k + 1) * n for k, _, n in self.sphere_decomposition())

    # -- serialization: JSON array of [word, re, im] triples ---------------

    def to_json(self) -> str:
        rows = []
        for w in self.support():
            c = self.coeffs[w]
            if is_exact(c):
                rc = RationalComplex.of(c)
                rows.append([str(w), str(rc.re), str(rc.im)])
            else:
                c = complex(c)
                rows.append([str(w), c.real, c.imag])
        return json.dumps(rows)

    @staticmethod
    def from_json(text: str, rank: int = 2) -> "GroupAlgebraElement":
        try:
            rows = json.loads(text)
        except json.JSONDecodeError as e:
            raise InputError(f"bad element JSON: {e}") from e
        if not isinstance(rows, list):
            raise InputError("element JSON must be an array of triples")
        coeffs: dict = {}
        for row in rows:
            if not (isinstance(row, list) and len(row) == 3):
                raise InputError(f"bad element row {row!r}")
            word_s, re_v, im_v = row
            w = Word.parse(word_s, rank)
            if isinstance(re_v, str) or isinstance(im_v, str):
                c = RationalComplex(Fraction(str(re_v)), Fraction(str(im_v)))
                if c.im == 0 and c.re.denominator == 1:
                    c = int(c.re)
                elif c.im == 0:
                    c = c.re
            else:
                c = complex(re_v, im_v)
                if c.imag == 0:
                    c = c.real
            coeffs[w] = coeffs.get(w, 0) + c
        return GroupAlgebraElement(rank, coeffs)

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = [f"{self.coeffs[w]}*{w}" for w in self.support()]
        return " + ".join(parts)
