"""Reduced words in the free group F_k and exact group-algebra arithmetic.

A letter is a column of a right Cayley table: code c in range(2 * rank),
where 2i is the (i+1)-th generator and 2i + 1 its inverse, so c ^ 1
inverts c.  Written out, code c is the c-th character of "aAbBcCdDfF...zZ"
(a capital letter denotes an inverse; "e" is the identity, not a letter,
so the rank is at most 25), and the numeric order of the codes is the
normative order a < A < b < B < ... used for shortlex enumeration and
serialization.  A Word stores its letters as bytes, one code per byte,
so parsing, inversion and spelling are each one bytes.translate.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable

from .errors import InputError, ResourceError
from .exact import RationalComplex, conj, imag_part, is_exact, real_part

DEFAULT_BALL_CAP = 5_000_000

# code c is the c-th character: a -> 0, A -> 1, b -> 2, ...
_LETTERS = "".join(c + c.upper() for c in "abcdfghijklmnopqrstuvwxyz")
MAX_RANK = len(_LETTERS) // 2


def _code_table(rank: int) -> bytes:
    """bytes.translate table: the character of code c < 2 * rank -> c, any
    other character -> 255."""
    table = bytearray(b"\xff" * 256)
    for c, char in enumerate(_LETTERS[:2 * rank]):
        table[ord(char)] = c
    return bytes(table)


# bytes.translate tables: code -> its character, code -> its inverse, and
# per rank, character -> code
_SPELL = bytes.maketrans(bytes(range(len(_LETTERS))), _LETTERS.encode())
_INVERT = bytes(c ^ 1 for c in range(256))
_CODES = {rank: _code_table(rank) for rank in range(1, MAX_RANK + 1)}
# a letter next to its inverse, as written: "aA", "Aa", "bB", ...
_CANCELLING = tuple(_LETTERS[c] + _LETTERS[c ^ 1]
                    for c in range(len(_LETTERS)))


def check_letters(letters: Iterable[int], rank: int) -> None:
    if not (type(rank) is int and 1 <= rank <= MAX_RANK):
        raise InputError(f"rank must be an integer in 1..{MAX_RANK}, "
                         f"not {rank!r}")
    for l in letters:
        if not isinstance(l, int) or not 0 <= l < 2 * rank:
            raise InputError(f"invalid letter code {l!r} for rank {rank}")


def free_reduce(letters: Iterable[int]) -> bytes:
    out: list[int] = []
    for l in letters:
        if out and out[-1] == l ^ 1:
            out.pop()
        else:
            out.append(l)
    return bytes(out)


@dataclass(frozen=True)
class Word:
    """A freely reduced word: its letter codes as bytes (any iterable of
    codes is accepted and stored as bytes); b"" is the identity."""

    letters: bytes
    rank: int = 2

    def __post_init__(self):
        check_letters(self.letters, self.rank)
        letters = bytes(self.letters)
        for x, y in zip(letters, letters[1:]):
            if x == y ^ 1:
                raise InputError(f"word {tuple(letters)} is not freely "
                                 "reduced")
        object.__setattr__(self, "letters", letters)

    def __hash__(self) -> int:
        return hash(self.letters)  # cached by the bytes object

    @classmethod
    def _unchecked(cls, letters: bytes, rank: int) -> "Word":
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
        while cut < most and a[-1 - cut] == b[cut] ^ 1:
            cut += 1
        return Word._unchecked(a[:len(a) - cut] + b[cut:], self.rank)

    def inverse(self) -> "Word":
        return Word._unchecked(self.letters[::-1].translate(_INVERT),
                               self.rank)

    def __pow__(self, n: int) -> "Word":
        """w^n = u v^n u^-1, where w = u v u^-1 with v cyclically reduced,
        so v^n and the whole power are reduced as concatenated."""
        if n == 0:
            return Word.identity(self.rank)
        a = (self if n > 0 else self.inverse()).letters
        k = 0
        while 2 * k + 1 < len(a) and a[k] == a[-1 - k] ^ 1:
            k += 1
        return Word._unchecked(
            a[:k] + a[k:len(a) - k] * abs(n) + a[len(a) - k:], self.rank)

    def is_identity(self) -> bool:
        return not self.letters

    def shortlex_key(self) -> tuple:
        return (len(self.letters), self.letters)

    def __str__(self) -> str:
        return self.letters.translate(_SPELL).decode("ascii") or "e"

    @staticmethod
    def parse(s: str, rank: int = 2) -> "Word":
        """The reduced word spelled by s; free_reduce runs only when s
        writes a letter next to its inverse."""
        if not isinstance(s, str):
            raise InputError(f"a word must be a string, not {s!r}")
        check_letters((), rank)
        s = s.strip()
        if s in ("", "e"):
            return Word.identity(rank)
        # "replace" writes each non-ASCII character as one "?", no letter
        letters = s.encode("ascii", "replace").translate(_CODES[rank])
        bad = letters.find(255)
        if bad >= 0:
            raise InputError(f"letter {s[bad]!r} not valid for rank {rank}")
        if any(pair in s for pair in _CANCELLING[:2 * rank]):
            letters = free_reduce(letters)
        return Word._unchecked(letters, rank)


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
    words = [Word.identity(rank)]
    frontier = [b""]
    for _ in range(radius):
        nxt = []
        for w in frontier:
            for l in range(2 * rank):
                if w and w[-1] == l ^ 1:
                    continue
                nxt.append(w + bytes((l,)))
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


def _abs_squared(c) -> Fraction:
    """|c|^2, exactly."""
    re, im = Fraction(real_part(c)), Fraction(imag_part(c))
    return re * re + im * im


def _sqrt_bracket(sq: Fraction, guess: float) -> tuple[Fraction, Fraction]:
    """Floats lo <= sqrt(sq) <= hi, as Fractions: guess (a float near the
    root, such as math.hypot's) stepped an ulp at a time until each side
    holds, checked exactly (a float's square is an exact Fraction)."""
    lo = hi = guess
    while Fraction(lo) ** 2 > sq:
        lo = math.nextafter(lo, -math.inf)
    while Fraction(hi) ** 2 < sq:
        hi = math.nextafter(hi, math.inf)
    return Fraction(lo), Fraction(hi)


def _outward(lo: Fraction, hi: Fraction) -> tuple[float, float]:
    """Floats a <= lo and b >= hi: each the nearest float, moved one ulp
    outward only when that one is on the wrong side."""
    a, b = float(lo), float(hi)
    return (a if a <= lo else math.nextafter(a, -math.inf),
            b if b >= hi else math.nextafter(b, math.inf))


# every solve runs on rho(x)* rho(x), whose norm is at most l1^2, and
# squares the norms of its vectors: l1 must keep l1^4 a finite float
L1_LIMIT = 2.0 ** 255


def _fits_float(c) -> bool:
    """True iff c converts to a finite complex float."""
    try:
        z = complex(c)
    except OverflowError:  # an exact c beyond the largest float
        return False
    return math.isfinite(z.real) and math.isfinite(z.imag)


def l1_of(a: dict) -> tuple[float, float]:
    """sum |c| as (lower, upper) floats.  |c| is exact for a real c and
    bracketed by floats (_sqrt_bracket) for a complex one; the ends are
    summed exactly and rounded outward (_outward), so 4 stays [4, 4].
    Raises InputError on a coefficient that is not a finite float, and
    when the sum is above L1_LIMIT, before any solve can overflow."""
    lo = hi = Fraction(0)
    for c in a.values():
        if not _fits_float(c):
            raise InputError(f"coefficient {c} is not a finite float")
        if imag_part(c):
            c_lo, c_hi = _sqrt_bracket(_abs_squared(c), abs(complex(c)))
        else:
            c_lo = c_hi = abs(Fraction(real_part(c)))
        lo, hi = lo + c_lo, hi + c_hi
    if hi > L1_LIMIT:  # hi may be beyond the largest float: no float(hi)
        raise InputError("l1 norm above 2^255, so a solve on x* x would "
                         "overflow a float")
    return _outward(lo, hi)


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
            rank, {Word((l,), rank): 1 for l in range(2 * rank)})

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

    def sum_of_coefficients(self):
        return sum(self.coeffs.values())

    def l1_norm(self) -> float:
        """sum |c|, rounded up: an upper bound for every fiber norm."""
        return l1_of(self.coeffs)[1]

    def haagerup_bound(self) -> float:
        """sum_k (k+1)*||x_k||_2, rounded up, where x_k is the part of x on
        words of length k; an upper bound for the reduced norm when rank >=
        2.  Each ||x_k||_2^2 is exact, and its root is bracketed
        (_sqrt_bracket, from math.hypot's guess) and summed upward
        (_outward)."""
        spheres: dict[int, list] = {}
        for w, c in self.coeffs.items():
            spheres.setdefault(len(w), []).append(c)
        total = Fraction(0)
        for k, cs in sorted(spheres.items()):
            guess = math.hypot(*(abs(complex(c)) for c in cs))
            total += (k + 1) * _sqrt_bracket(sum(map(_abs_squared, cs)),
                                             guess)[1]
        return _outward(total, total)[1]

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
            if not all(isinstance(v, str) or type(v) in (int, float)
                       for v in (re_v, im_v)):
                raise InputError(f"coefficients must be numbers or "
                                 f"strings, not {row!r}")
            try:
                if isinstance(re_v, str) or isinstance(im_v, str):
                    c = RationalComplex(Fraction(str(re_v)),
                                        Fraction(str(im_v)))
                    if c.im == 0 and c.re.denominator == 1:
                        c = int(c.re)
                    elif c.im == 0:
                        c = c.re
                else:
                    c = complex(re_v, im_v)
                    if c.imag == 0:
                        c = c.real
            except (ValueError, ZeroDivisionError, OverflowError) as e:
                raise InputError(f"bad coefficient in row {row!r}: {e}") from e
            coeffs[w] = coeffs.get(w, 0) + c
        for w, c in coeffs.items():  # every solve runs in floats
            if not _fits_float(c):
                raise InputError(f"the coefficient of {w} is not a finite "
                                 f"float")
        return GroupAlgebraElement(rank, coeffs)

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = [f"{self.coeffs[w]}*{w}" for w in self.support()]
        return " + ".join(parts)
