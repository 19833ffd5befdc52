"""Permutation utilities, the Cayley-table core and a deterministic
Schreier-Sims order check.

Two closures return the same right Cayley table.  layer_closure builds
every level of a quotient family: an element is a short tuple of
coordinates (base-point images, or indices in smaller quotients) stored
as one int64 key, and each BFS layer is one gather per letter.
bfs_order keys each element by its whole permutation and visits
elements one at a time; it is the cheaper of the two on the many tiny
capped closures of kernel enumeration.  bfs_tree derives a table's BFS
tree, and propagate walks the tree through a table.  schreier_sims_order
checks an order without either closure: Sims' algorithm completes a
stabilizer chain with full transversals one level at a time, from the
deepest up.  Permutations are numpy int64/int32 arrays p with p[i] =
image of point i; composition is (p @ q)(i) = p[q[i]] = p.take(q)[i].
"""

from __future__ import annotations

import math
from array import array

import numpy as np

from .errors import ResourceError


def invert(p: np.ndarray) -> np.ndarray:
    out = np.empty_like(p)
    out[p] = np.arange(len(p), dtype=p.dtype)
    return out


def bfs_order(gens: list[np.ndarray], cap: int | None = None):
    """Breadth-first closure of <gens>, right-multiplying by g1, g1^-1,
    g2, g2^-1, ... in turn, so the identity gets index 0.

    Returns the right Cayley table, order x 2k int32, or None if the group
    has more than cap elements: table[i, c] is the index of element_i *
    (letter c), where letter c is the c-th of g1, g1^-1, g2, g2^-1, ...,
    so column c ^ 1 holds the inverse letter; a Word spells that letter
    with the same code c.  Its BFS tree is
    bfs_tree(table).  Generators need not include inverses (the group is
    finite).
    """
    degree = len(gens[0])
    letters = []
    for g in gens:
        letters.append(np.asarray(g, dtype=np.int32))
        letters.append(invert(letters[-1]))
    letters = np.stack(letters)
    width = letters.itemsize * degree
    found = [np.arange(degree, dtype=np.int32).tobytes()]
    seen = {found[0]: 0}
    table = array("i")
    for element in found:  # grows while it is walked
        # row c is element * (letter c); its bytes are the element's key
        keys = np.frombuffer(element, dtype=np.int32)[letters].tobytes()
        for c in range(len(letters)):
            k = keys[c * width:(c + 1) * width]
            j = seen.get(k)
            if j is None:
                if cap is not None and len(seen) >= cap:
                    return None
                j = seen[k] = len(found)
                found.append(k)
            table.append(j)
    return np.frombuffer(table, dtype=np.int32).reshape(-1, len(letters))


def point_table(gens: list[np.ndarray]) -> np.ndarray:
    """degree x 2k int64: column c is the inverse of letter c (g1, g1^-1,
    g2, ...) as a map on points.  x^-1(p) moves through it under right
    multiplication, (x s)^-1(p) = s^-1(x^-1(p)), so it is a layer_closure
    table for the base-point images of x^-1."""
    cols = []
    for g in gens:
        g = np.asarray(g, dtype=np.int64)
        cols += [g, invert(g)]
    return np.stack([cols[c ^ 1] for c in range(len(cols))], axis=1)


def layer_closure(tables: list[np.ndarray], start, cap: int | None = None):
    """The right Cayley table bfs_order would return, built one BFS layer
    at a time on short keys, or None if the group has more than cap
    elements.

    An element is a tuple of coordinates, the t-th in range(len(tables[t]))
    and moved by letter c through tables[t][:, c]; the identity is start.
    The tuple must determine the element (base-point images of x^-1 with a
    point_table, or indices in quotients whose kernels meet in the
    wanted one), and column c ^ 1 must invert column c.  The tuple is one
    mixed-radix int64 key.  Each layer's neighbours are one gather per
    coordinate; since the letters come in inverse pairs they lie in the
    previous, current or next layer, so a key is looked up by searchsorted
    in the two sorted layers before it, and the new ones are numbered in
    order of first discovery (element-major, letter-minor) as bfs_order
    numbers them.  Raises ResourceError if the key space reaches 2^63.
    """
    tables = [np.asarray(t, dtype=np.int64) for t in tables]
    sizes = [len(t) for t in tables]
    if math.prod(sizes) >= 2 ** 63:
        raise ResourceError(f"key space {math.prod(sizes)} of the closure "
                            "does not fit an int64 key")
    strides = [math.prod(sizes[t + 1:]) for t in range(len(sizes))]
    width = tables[0].shape[1]
    key = np.array([sum(s * k for s, k in zip(start, strides))],
                   dtype=np.int64)
    # prev, cur: a layer's keys sorted, and their indices; key: the
    # current layer's keys in index order
    prev = (np.empty(0, np.int64), np.empty(0, np.int64))
    cur = (key, np.zeros(1, dtype=np.int64))
    out = array("i")
    hi = 1  # elements numbered so far
    while len(key):
        nbr = np.zeros((len(key), width), dtype=np.int64)
        for tab, size, stride in zip(tables, sizes, strides):
            nbr += tab[key // stride % size] * stride
        nbr = nbr.ravel()
        rows = np.empty(len(nbr), dtype=np.int64)
        new = np.ones(len(nbr), dtype=bool)
        for keys, index in (prev, cur):
            if len(keys):
                pos = np.minimum(np.searchsorted(keys, nbr), len(keys) - 1)
                hit = keys[pos] == nbr
                rows[hit] = index[pos[hit]]
                new &= ~hit
        fresh, first, inverse = np.unique(nbr[new], return_index=True,
                                          return_inverse=True)
        if cap is not None and hi + len(fresh) > cap:
            return None
        # number the new keys by first discovery
        by_first = np.argsort(first)
        number = np.empty(len(fresh), dtype=np.int64)
        number[by_first] = np.arange(hi, hi + len(fresh))
        rows[new] = number[inverse]
        out.frombytes(rows.astype(np.int32).tobytes())
        prev, cur, key = cur, (fresh, number), fresh[by_first]
        hi += len(fresh)
    return np.frombuffer(out, dtype=np.int32).reshape(-1, width)


def bfs_tree(table: np.ndarray):
    """(parent, letter, layer_ends): the BFS tree of a right Cayley table
    in BFS order whose column c ^ 1 inverts column c (bfs_order's, or a
    BallIndex table without its sentinel row).

    element_i = element_parent[i] * (letter letter[i]) for i > 0.  The BFS
    reaches i first from its smallest neighbour, the smallest entry of
    row i, by the smallest c with table[parent[i], c] == i.  BFS layer r
    (word length r) is [layer_ends[r - 1], layer_ends[r]), with
    layer_ends[0] = 1 and layer_ends[-1] = order.  Raises ValueError
    unless the keys parent * 2k + letter strictly increase and parent[i] <
    i, i.e. unless the table is in BFS order.
    """
    order, width = table.shape
    parent = np.zeros(order, dtype=np.int32)
    parent[1:] = table[1:].min(axis=1)
    letter = (table[parent] == np.arange(order)[:, None]).argmax(axis=1)
    letter = letter.astype(np.int8)
    letter[0] = 0
    keys = parent[1:].astype(np.int64) * width + letter[1:]
    if not ((np.diff(keys) > 0).all()
            and (parent[1:] < np.arange(1, order)).all()):
        raise ValueError("table is not in BFS order")
    # parent is nondecreasing, so the children of [lo, hi) end at the
    # first index whose parent is hi or more: layer_ends[r + 1] =
    # child_end[layer_ends[r]], the orbit of 1 under child_end, which
    # stays at order once there.  Pointer doubling: with step = child_end
    # composed m times, step[ends] extends the first m orbit points by m.
    step = np.searchsorted(parent, np.arange(order + 1))  # child_end
    ends = np.array([1], dtype=np.int64)
    while ends[-1] < order:
        ends = np.concatenate([ends, step[ends]])
        step = step[step]
    return parent, letter, ends[:np.searchsorted(ends, order) + 1].copy()


def propagate(table: np.ndarray, parent: np.ndarray, letter: np.ndarray,
              layer_ends, start: int) -> np.ndarray:
    """out[i] = table-index of x * element_i, where x has index start and
    element_i runs over a BFS tree (parent, letter, layer_ends, as
    bfs_tree returns them) of the same letters: x * element_i = (x *
    element_parent[i]) * (letter letter[i]), so each BFS layer is one
    gather through the right Cayley table.  out is an intp array, so
    gathers through it need no index conversion."""
    out = np.empty(len(parent), dtype=np.intp)
    out[0] = start
    for lo, hi in zip(layer_ends[:-1], layer_ends[1:]):
        out[lo:hi] = table[out[parent[lo:hi]], letter[lo:hi]]
    return out


def schreier_sims_order(gens: list[np.ndarray]) -> int:
    """|<gens>| by Sims' algorithm: the product of the basic orbit sizes
    of a stabilizer chain read from the generators alone (no Cayley table,
    no BFS count; Holt, Eick and O'Brien 2005, 4.4.2).

    Level i holds a base point base[i], strong generators strong[i] fixing
    base[:i] and a full transversal trans[i]: for each point p of the
    orbit of base[i], the inverse of a u_p with u_p(base[i]) = p.  Level 0
    holds gens.  Levels are completed from the deepest one up: each
    Schreier generator u_(s(p))^-1 s u_p of level i is sifted from level
    i + 1, and a non-identity residue h left at level j joins levels
    i + 1 ... j, whose orbits are rebuilt, and the work resumes at level
    j.  Level i is complete when every Schreier generator sifts to the
    identity.  The group is finite, so orbits need no inverse generators.
    """
    gens = [np.asarray(g, dtype=np.int32) for g in gens]
    ident = np.arange(len(gens[0]) if gens else 0, dtype=np.int32)
    gens = [g for g in gens if not np.array_equal(g, ident)]
    if not gens:
        return 1
    base, strong, trans = [], [], []  # p.take(q) is p[q], and faster

    def add(h, i):
        """h, which fixes base[:i], joins level i; its orbit is rebuilt."""
        if i == len(base):  # a new base point, one that h moves
            base.append(int(np.flatnonzero(h != ident)[0]))
            strong.append([])
            trans.append(None)
        strong[i].append((h, invert(h)))
        t, orbit = {base[i]: ident}, [base[i]]
        for p in orbit:  # grows while it is walked
            for s, s_inv in strong[i]:
                q = int(s[p])
                if q not in t:  # u_q = s u_p
                    t[q] = t[p].take(s_inv)
                    orbit.append(q)
        trans[i] = t

    def residue(i):
        """(h, j) for the first Schreier generator of level i that sifts
        to a non-identity h at level j; (None, i - 1) if none does, for
        level i is then complete."""
        for p, u_inv in trans[i].items():
            for s, _ in strong[i]:
                w = trans[i][int(s[p])].take(s)  # u_(s(p))^-1 s
                if np.array_equal(w, u_inv):  # s u_p is u_(s(p))
                    continue
                h, j = np.empty_like(w), i + 1
                h[u_inv] = w  # h = w u_p
                while j < len(base) and int(h[base[j]]) in trans[j]:
                    h, j = trans[j][int(h[base[j]])].take(h), j + 1
                if not np.array_equal(h, ident):
                    return h, j
        return None, i - 1

    for g in gens:
        add(g, 0)
    i = 0
    while i >= 0:  # the levels past i are complete
        h, j = residue(i)
        for level in range(i + 1, j + 1):
            add(h, level)
        i = j
    return math.prod(len(t) for t in trans)
