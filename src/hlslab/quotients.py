"""Concrete approximating sequences for free groups.

Three families are provided:

* ``fd`` (rank 2): level-n kernel = intersection of kernels of all
  homomorphisms F_2 -> F with |F| <= n, realized by enumerating pairs of
  permutations in S_n and deduplicating by kernel equality.
* ``congruence`` (rank 2): image of the Sanov matrices [[1,2],[0,1]],
  [[1,0],[2,1]] in SL(2, Z/2^n), acting on (Z/2^n)^2.
* ``cyclic`` (rank 1): Z/2^n with the generator mapping to 1.

A quotient is its generator permutations and its right Cayley table, and
FiniteQuotient(gen_perms, table) is its one constructor: elements are
indexed 0..order-1 by Cayley-graph BFS from the identity in the fixed
generator order (g1, g1^-1, g2, g2^-1, ...), and the BFS tree is derived
from the table (perms.bfs_tree).  ApproximatedGroup._build is the one
build site: it closes a level with perms.layer_closure under the fiber
cap, on keys of a few coordinates instead of whole permutations (fd
level n in Q_(n-1) x the new kernel reps, congruence and cyclic by
base-point images).  perms.bfs_order, keyed by whole permutations, stays
for the many tiny capped closures of kernel enumeration, where it is the
cheaper one.

The disk cache stores each level as one quotient-<family>-<n>.v3.npz
holding format_version, the generators and the table.  A load reads them
and checks them in a few vectorised passes (shapes, ranges, inverse
letter pairs, and bfs_tree's BFS-order check) instead of redoing the BFS;
zip's CRC-32 catches corrupt bytes.  The tie to the generators is the
Schreier-Sims order check the quotients report runs on every level.

Nesting and separation read the same tables: kernel_refines is one
propagation of a level's BFS tree through the level below, and
check_separation reads each level's girth off its own BFS tree.
"""

from __future__ import annotations

import itertools
import os
import tempfile
import zipfile
from pathlib import Path

import numpy as np

from .errors import InputError, ResourceError
from .perms import (bfs_order, bfs_tree, layer_closure, point_table,
                    propagate, schreier_sims_order)
from .words import GroupAlgebraElement, Word

CACHE_FORMAT_VERSION = 3
DEFAULT_FIBER_CAP = 2_000_000
DEFAULT_HOM_LEVEL_CAP = 6
DEFAULT_DEPTH_CAP = 20  # deepest level separation_level tries

FAMILIES = ("fd", "congruence", "cyclic")
FAMILY_RANK = {"fd": 2, "congruence": 2, "cyclic": 1}


class FiniteQuotient:
    """A finite quotient of F_k given by one permutation per generator.

    Elements are indexed by BFS over the Cayley graph (right
    multiplication by g1, g1^-1, g2, g2^-1, ... in that order), so the
    identity has index 0 and indices are reproducible.  The constructor
    takes the generators (int32) and their right Cayley table in that BFS
    order (as perms.bfs_order and perms.layer_closure return it), and
    derives only the BFS tree (perms.bfs_tree); every group operation is
    a walk through the table.
    The constructor runs no BFS, so a load from the disk cache
    (from_cache_dict) takes the stored table as it is, after checking it.
    """

    def __init__(self, gen_perms: list[np.ndarray], table: np.ndarray):
        self.rank = len(gen_perms)
        self.gen_perms = gen_perms
        self.degree = len(gen_perms[0])
        self.table = table
        self.order = len(table)
        self.parent, self.letter, self.layer_ends = bfs_tree(table)
        self._left_tables: dict[int, np.ndarray] = {}

    # -- group structure on element indices --------------------------------

    def evaluate(self, w: Word) -> int:
        """Index of the image of w under the quotient map."""
        if w.rank != self.rank:
            raise InputError("word rank does not match quotient rank")
        i = 0
        for letter in w.letters:
            i = self.table.item(i, letter)
        return i

    def multiply(self, i: int, j: int) -> int:
        """Index of element_i * element_j: j's tree word walked from i."""
        word = []
        while j:
            word.append(self.letter.item(j))
            j = self.parent.item(j)
        for c in reversed(word):
            i = self.table.item(i, c)
        return i

    def invert_element(self, i: int) -> int:
        """Index of element_i^-1: i's tree word, reversed and with every
        letter inverted, walked from the identity."""
        k = 0
        while i:
            k = self.table.item(k, self.letter.item(i) ^ 1)
            i = self.parent.item(i)
        return k

    def left_mult_table(self, t: int) -> np.ndarray:
        """arr[v] = index of element_t * element_v, for all v."""
        tbl = self._left_tables.get(t)
        if tbl is None:
            tbl = propagate(self.table, self.parent, self.letter,
                            self.layer_ends, t)
            self._left_tables[t] = tbl
        return tbl

    def pushforward(self, x: GroupAlgebraElement) -> dict[int, object]:
        """Pushforward of a group algebra element: sums coefficients over
        preimage classes.  The support is evaluated in length order, so a
        word whose parent (the word less its last letter) is in the
        support is one table step from the parent's image, and a
        prefix-closed support such as a ball or a Folner window costs one
        step per word; any other word is evaluated letter by letter."""
        image: dict[bytes, int] = {}
        for w in sorted(x.coeffs, key=len):
            parent = image.get(w.letters[:-1]) if w.letters else None
            image[w.letters] = (self.evaluate(w) if parent is None else
                                self.table.item(parent, w.letters[-1]))
        out: dict[int, object] = {}
        for w, c in x.coeffs.items():
            i = image[w.letters]
            out[i] = out.get(i, 0) + c
        return {i: c for i, c in out.items() if c}

    def verify_schreier_sims(self) -> bool:
        """Independent order check: stabilizer-chain order == BFS count."""
        return schreier_sims_order(self.gen_perms) == self.order

    # -- cache serialization -----------------------------------------------

    def to_cache_dict(self) -> dict[str, np.ndarray]:
        """The arrays of this quotient's cache file (np.savez keywords)."""
        return {"format_version": np.array(CACHE_FORMAT_VERSION),
                "generators": np.stack(self.gen_perms), "table": self.table}

    @staticmethod
    def from_cache_dict(data, cap: int = DEFAULT_FIBER_CAP) -> "FiniteQuotient":
        """The quotient whose to_cache_dict arrays data maps to (an open
        .npz file will do), without a BFS.  Raises ResourceError if its
        order exceeds cap, InputError unless the table is a right Cayley
        table in inverse letter pairs, and ValueError (from bfs_tree)
        unless it is in BFS order; each check is one vectorised pass."""
        if data["format_version"] != CACHE_FORMAT_VERSION:
            raise InputError("unsupported cache format version")
        gens, table = data["generators"], data["table"]
        if gens.dtype != np.int32 or table.dtype != np.int32:
            raise InputError("cached arrays are not int32")
        if not (gens.ndim == 2 and gens.shape[0] >= 1 and gens.shape[1] >= 1
                and table.ndim == 2 and table.shape[1] == 2 * gens.shape[0]
                and len(table) >= 1):
            raise InputError("cached quotient arrays have mismatched shapes")
        rank, order = gens.shape[0], len(table)
        if order > cap:
            raise ResourceError(f"quotient order exceeds the fiber cap {cap}")
        # hit[i, j]: point j is the image of some point under generator i
        hit = np.zeros(gens.shape, dtype=bool)
        if 0 <= gens.min() and gens.max() < gens.shape[1]:
            hit[np.arange(rank)[:, None], gens] = True
        if not hit.all():
            raise InputError("cached generators are not permutations")
        if not (0 <= table.min() and table.max() < order):
            raise InputError("cached quotient entries out of range")
        inverse_cols = np.arange(2 * rank) ^ 1
        if not (table[table, inverse_cols] == np.arange(order)[:, None]).all():
            raise InputError("cached table columns are not inverse pairs")
        return FiniteQuotient(list(gens), table)


def kernel_refines(p: FiniteQuotient, q: FiniteQuotient) -> bool:
    """True iff ker(pi_p) <= ker(pi_q).

    phi sends each element of p to the image in q of its BFS-tree word.
    The inclusion holds exactly when phi is a well-defined homomorphism,
    i.e. when it commutes with right multiplication by every letter:
    phi[R_p] == R_q[phi] for the right Cayley tables R, compared one
    letter column at a time.
    """
    if p.rank != q.rank:
        raise InputError("rank mismatch in kernel_refines")
    phi = propagate(q.table, p.parent, p.letter, p.layer_ends, 0)
    return all(np.array_equal(phi[p.table[:, c]], q.table[phi, c])
               for c in range(p.table.shape[1]))


# -- Lubotzky-Shalom FD kernel enumeration ---------------------------------

def _class_reps(n: int) -> list[np.ndarray]:
    """One permutation of {0..n-1} per cycle type (partition of n), each a
    product of cycles on consecutive points."""
    def partitions(m, largest):
        if m == 0:
            yield ()
        for k in range(min(m, largest), 0, -1):
            for rest in partitions(m - k, k):
                yield (k,) + rest

    reps = []
    for parts in partitions(n, n):
        p = np.arange(n, dtype=np.int32)
        for start, k in zip(np.cumsum((0,) + parts), parts):
            p[start:start + k] = np.roll(p[start:start + k], -1)
        reps.append(p)
    return reps


def _check_hom_level(n: int, hom_level_cap: int) -> None:
    if n > hom_level_cap:
        raise ResourceError(
            f"kernel enumeration at level {n} exceeds the homomorphism "
            f"enumeration cap {hom_level_cap}")


def enumerate_kernel_reps(n: int, hom_level_cap: int = DEFAULT_HOM_LEVEL_CAP
                          ) -> list[FiniteQuotient]:
    """One quotient per distinct kernel of a homomorphism F_2 -> F, |F| <= n.

    Every group of order <= n embeds in S_n, and a kernel only depends on
    the corestriction to the image, so pairs (sigma, tau) of permutations in
    S_n generating a subgroup of order <= n exhaust all kernels.
    Simultaneous conjugation keeps the kernel, so sigma runs over one
    representative per cycle type.  BFS indexing is canonical for a
    labelled Cayley graph, so two kernels are equal exactly when the right
    Cayley tables are byte-identical; deduplication is by table bytes, and
    only a table not seen before becomes a quotient.
    """
    if n < 1:
        raise InputError("level must be >= 1")
    _check_hom_level(n, hom_level_cap)
    reps: list[FiniteQuotient] = []
    seen: set[bytes] = set()
    taus = [np.array(t, dtype=np.int32)
            for t in itertools.permutations(range(n))]
    for sigma in _class_reps(n):
        for tau in taus:
            table = bfs_order([sigma, tau], cap=n)
            if table is None:
                continue
            key = table.tobytes()
            if key not in seen:
                seen.add(key)
                reps.append(FiniteQuotient([sigma, tau], table))
    return reps


class ApproximatedGroup:
    """A free group with one of the three approximating sequences, with a
    persistent disk cache of constructed quotients."""

    def __init__(self, family: str, cache_dir: str | os.PathLike | None = None,
                 fiber_cap: int = DEFAULT_FIBER_CAP,
                 hom_level_cap: int = DEFAULT_HOM_LEVEL_CAP):
        if family not in FAMILIES:
            raise InputError(f"unknown family {family!r}; choose from {FAMILIES}")
        self.family = family
        self.rank = FAMILY_RANK[family]
        self.fiber_cap = fiber_cap
        self.hom_level_cap = hom_level_cap
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self._memory: dict[int, FiniteQuotient] = {}

    # -- construction and caching ------------------------------------------

    def _cache_path(self, n: int) -> Path | None:
        if self.cache_dir is None:
            return None
        return self.cache_dir / f"quotient-{self.family}-{n}.v3.npz"

    def check_level(self, n: int) -> None:
        """Raises ResourceError if building level n would exceed a cap:
        the homomorphism enumeration cap for fd, else the fiber cap
        against the closed-form order."""
        if self.family == "fd":
            _check_hom_level(n, self.hom_level_cap)
            return
        # the Sanov image in SL(2, Z/2^n) has order 2^(3n - 4) for n >= 2
        order = 2 ** n if self.family == "cyclic" else 2 ** max(3 * n - 4, 0)
        if order > self.fiber_cap:
            raise ResourceError(
                f"{self.family} level {n} has order {order}, above the "
                f"fiber cap {self.fiber_cap}")

    def check_levels(self, levels) -> None:
        """Raises ResourceError, before anything is built, if building one
        of the given levels would exceed a cap.  Levels already in memory
        or in the disk cache are loaded, not built, so only the fiber cap
        applies to them, when they load."""
        for n in levels:
            path = self._cache_path(n)
            if n not in self._memory and not (path is not None
                                              and path.exists()):
                self.check_level(n)

    def _build(self, n: int) -> FiniteQuotient:
        """Level n: its generators, closed by perms.layer_closure on short
        keys (every array int32, so cache bytes do not depend on the
        closure).

        fd: the kernel reps' generators side by side, the k-th on points
        k*n...  ker_n is ker_(n-1) met with the kernels of the reps of
        order exactly n (a rep of smaller order is a rep at level n - 1),
        so Q_n is the image of F in Q_(n-1) x R_1 x R_2 x ..., closed over
        their tables from the identity; a cold level n builds and caches
        level n - 1 first.  congruence: the Sanov matrices [[1,2],[0,1]]
        and [[1,0],[2,1]] on (Z/m)^2, point x*m + y (int64, as (x + 2y)*m
        overflows int32 from n = 15); a linear map is fixed by its images
        of (1, 0) and (0, 1).  cyclic: i -> i+1 on Z/m, fixed by the image
        of 0."""
        self.check_level(n)
        m = 2 ** n
        if self.family == "fd":
            reps = enumerate_kernel_reps(n, self.hom_level_cap)
            gens = [np.concatenate([r.gen_perms[g] + k * n
                                    for k, r in enumerate(reps)]
                                   ).astype(np.int32) for g in (0, 1)]
            tables = [r.table for r in reps if r.order == n]
            if n > 1:
                tables.insert(0, self.quotient(n - 1).table)
            start = [0] * len(tables)
        elif self.family == "congruence":
            x, y = np.divmod(np.arange(m * m, dtype=np.int64), m)
            gens = [((x + 2 * y) % m * m + y).astype(np.int32),
                    (x * m + (2 * x + y) % m).astype(np.int32)]
            tables, start = [point_table(gens)] * 2, [m, 1]
        else:
            gens = [np.roll(np.arange(m, dtype=np.int32), -1)]
            tables, start = [point_table(gens)], [0]
        table = layer_closure(tables, start, self.fiber_cap)
        if table is None:
            raise ResourceError(
                f"quotient order exceeds the fiber cap {self.fiber_cap}")
        return FiniteQuotient(gens, table)

    def quotient(self, n: int) -> FiniteQuotient:
        if n < 1:
            raise InputError("quotient level must be >= 1")
        q = self._memory.get(n)
        if q is not None:
            return q
        path = self._cache_path(n)
        if path is not None and path.exists():
            try:
                with np.load(path, allow_pickle=False) as data:
                    q = FiniteQuotient.from_cache_dict(data,
                                                       cap=self.fiber_cap)
            except (OSError, ValueError, KeyError, EOFError,
                    zipfile.BadZipFile) as e:
                raise InputError(f"bad cache file {path}: {e}") from e
        else:
            q = self._build(n)
            if path is not None:
                try:
                    path.parent.mkdir(parents=True, exist_ok=True)
                    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
                    try:
                        with os.fdopen(fd, "wb") as fh:
                            np.savez(fh, **q.to_cache_dict())
                        os.replace(tmp, path)  # atomic for concurrent writers
                    except BaseException:
                        if os.path.exists(tmp):
                            os.unlink(tmp)
                        raise
                except OSError as e:
                    raise InputError(f"cannot write {path}: {e}") from e
        self._memory[n] = q
        return q

    # -- Definition-level checks ---------------------------------------------

    def check_separation(self, radius: int, depth: int) -> list[int]:
        """Separation radius of each level 1..depth: the largest r <= radius
        such that every nontrivial word of length <= r maps to a
        nontrivial element at that level (or an earlier one: the kernels
        are nested, as the quotients report's nesting_ok checks).

        That is min(girth - 1, radius).  The Cayley graph is
        vertex-transitive, so its girth is the least d(g) + d(h) + 1 over
        the edges g -> h = R[g, c] off the BFS tree (d the BFS depth); the
        identity's loops and parallel edges are off it, so a trivial level
        reads 0 and Z/2 reads 1.  Adjacent depths differ by at most 1, so
        an edge closing a cycle of length <= radius + 1 has its shallower
        end at depth <= radius // 2, and only those rows are read.
        """
        radii = []
        for n in range(1, depth + 1):
            q = self.quotient(n)
            ends = q.layer_ends
            rows = ends[min(radius // 2, len(ends) - 1)]
            g = np.arange(rows)[:, None]
            h = q.table[:rows]
            c = np.arange(h.shape[1])
            tree = (((q.parent[h] == g) & (q.letter[h] == c) & (h > 0))
                    | ((q.parent[g] == h) & (q.letter[g] == c ^ 1) & (g > 0)))
            cycles = (np.searchsorted(ends, g, side="right")
                      + np.searchsorted(ends, h, side="right") + 1)[~tree]
            girth = int(cycles.min()) if cycles.size else radius + 1
            radii.append(min(girth - 1, radius))
        return radii

    def separation_level(self, words: list[Word],
                         depth_cap: int = DEFAULT_DEPTH_CAP) -> int:
        """Minimal N with pi_N injective on the given set of words."""
        if len(set(words)) < len(words):
            raise InputError("duplicate words in separation query")
        if len(words) < 2:
            return 1
        for n in range(1, depth_cap + 1):
            q = self.quotient(n)
            if len({q.evaluate(w) for w in words}) == len(words):
                return n
        raise ResourceError(
            f"no level <= {depth_cap} separates the given support "
            f"(family {self.family})")
