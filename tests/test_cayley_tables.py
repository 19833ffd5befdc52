"""Independent oracles for the right Cayley tables of the quotients.

Everything here is checked against plain permutation arithmetic written
in this file: numpy fancy indexing for composition, argsort for inverses,
and a FIFO closure over permutation bytes for the indexing and the BFS
tree.  The tree a table yields (perms.bfs_tree) is also checked against
the shortlex tree BallIndex builds for itself, and the layer closure
that builds every level (perms.layer_closure) against perms.bfs_order,
the closure that keys each element by its whole permutation.
"""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hlslab import perms, quotients
from hlslab.balls import BallIndex
from hlslab.errors import ResourceError
from hlslab.perms import bfs_order, bfs_tree, layer_closure, point_table
from hlslab.quotients import (ApproximatedGroup, FiniteQuotient, _class_reps,
                              enumerate_kernel_reps, kernel_refines)
from hlslab.words import Word, ball


def letter_perms(gens):
    """Permutations of the letters in code order: g1, g1^-1, g2, ..."""
    return [p for g in gens for p in (g, np.argsort(g).astype(g.dtype))]


def fifo_closure(gens):
    """Index of every element of <gens> (permutation bytes -> index), in
    FIFO discovery order by right multiplication with the letters in code
    order, and the discovery tree: tree[i] = (index, letter code) of the
    element and letter that first reached element i.  Composition (p q)(i)
    = p[q[i]]."""
    letters = letter_perms(gens)
    elements = [np.arange(len(gens[0]), dtype=np.int32)]
    index = {elements[0].tobytes(): 0}
    tree = [(0, 0)]
    for i, g in enumerate(elements):  # grows while it is walked
        for c, s in enumerate(letters):
            h = g[s]
            if h.tobytes() not in index:
                index[h.tobytes()] = len(elements)
                elements.append(h)
                tree.append((i, c))
    return index, tree


def tree_perms(q):
    """Each element's permutation, rebuilt along the BFS tree."""
    letters = letter_perms(q.gen_perms)
    perms = [np.arange(q.degree, dtype=np.int32)]
    for i in range(1, q.order):
        assert q.parent[i] < i
        perms.append(perms[q.parent[i]][letters[q.letter[i]]])
    return perms


def paired_refines(p, q):
    """ker p <= ker q iff the paired generator images (g_p, g_q) generate
    a subgroup of im p x im q of order |im p|: it projects onto im p,
    injectively exactly when the kernels nest."""
    paired = [np.concatenate([gp, gq + p.degree]).astype(np.int32)
              for gp, gq in zip(p.gen_perms, q.gen_perms)]
    return len(fifo_closure(paired)[0]) == p.order


FAMILY_LEVELS = [("fd", n) for n in range(1, 5)] + \
    [("congruence", n) for n in range(1, 5)] + \
    [("cyclic", n) for n in range(1, 7)]


@pytest.fixture()
def towers(fd, congruence, cyclic):
    return {"fd": fd, "congruence": congruence, "cyclic": cyclic}


@pytest.mark.parametrize("family,n", FAMILY_LEVELS)
def test_table_is_right_multiplication_of_tree_perms(towers, family, n):
    q = towers[family].quotient(n)
    perms = tree_perms(q)
    assert len({p.tobytes() for p in perms}) == q.order
    letters = letter_perms(q.gen_perms)
    assert q.table.shape == (q.order, 2 * q.rank)
    for i, p in enumerate(perms):
        for c, s in enumerate(letters):
            assert np.array_equal(perms[q.table[i, c]], p[s])


@pytest.mark.parametrize("family,n", [(f, n) for f in quotients.FAMILIES
                                      for n in (1, 2, 3)])
def test_a_letter_code_is_a_table_column(towers, family, n):
    # letter code c is column c of every table and character c of aAbB...
    q = towers[family].quotient(n)
    ball_index = BallIndex(q.rank, 2)
    for c in range(2 * q.rank):
        letter = Word((c,), q.rank)
        assert q.evaluate(letter) == q.table[0, c]
        assert ball_index.letter_move(c)[0] == 1 + c
        assert str(letter) == "aAbBcC"[c]


@pytest.mark.parametrize("family,n", FAMILY_LEVELS)
def test_evaluate_matches_fifo_closure(towers, family, n):
    q = towers[family].quotient(n)
    index, _ = fifo_closure(q.gen_perms)
    assert len(index) == q.order
    letters = letter_perms(q.gen_perms)
    for w in ball(4, q.rank):
        p = np.arange(q.degree, dtype=np.int32)
        for letter in w.letters:
            p = p[letters[letter]]
        assert q.evaluate(w) == index[p.tobytes()]


@pytest.mark.parametrize("family,n", FAMILY_LEVELS)
def test_tree_matches_fifo_discovery(towers, family, n):
    q = towers[family].quotient(n)
    _, tree = fifo_closure(q.gen_perms)
    assert [(int(p), int(c)) for p, c in zip(q.parent, q.letter)] == tree
    depth = [0] * q.order
    for i in range(1, q.order):
        depth[i] = depth[tree[i][0]] + 1
    ends = np.cumsum(np.bincount(depth))
    assert np.array_equal(q.layer_ends, ends)


@pytest.mark.parametrize("rank,radius", [(1, 20), (2, 5)])
def test_tree_of_a_ball_table_is_its_shortlex_tree(rank, radius):
    bi = BallIndex(rank, radius)
    parent, letter, layer_ends = bfs_tree(bi.table[:-1])  # no sentinel row
    assert np.array_equal(parent, bi.parent)
    assert np.array_equal(letter, bi.letter)
    assert layer_ends.tolist() == bi.layer_ends


def test_tree_refuses_tables_out_of_bfs_order():
    # Z/3 in BFS order: e, a, A
    z3 = np.array([[1, 2], [2, 0], [0, 1]], dtype=np.int32)
    assert [a.tolist() for a in bfs_tree(z3)] == [[0, 0, 0], [0, 0, 1],
                                                  [1, 3]]
    with pytest.raises(ValueError):  # a and A trade indices
        bfs_tree(np.array([[2, 1], [0, 2], [1, 0]], dtype=np.int32))
    # two copies of Z/2: element 2 is never reached from the identity
    with pytest.raises(ValueError):
        bfs_tree(np.array([[1, 1], [0, 0], [3, 3], [2, 2]], dtype=np.int32))


def layer_ends_one_layer_at_a_time(parent):
    """BFS layer ends by one step per layer: the children of the layer
    [lo, hi) end at the first index whose parent is hi or more."""
    child_end = np.searchsorted(parent, np.arange(len(parent) + 1))
    ends = [1]
    while ends[-1] < len(parent):
        ends.append(int(child_end[ends[-1]]))
    return ends


@pytest.mark.parametrize("family,levels", [("fd", range(1, 5)),
                                           ("congruence", range(2, 6)),
                                           ("cyclic", range(1, 13))])
def test_layer_ends_by_doubling_match_the_layer_loop(towers, family, levels):
    for n in levels:
        parent, _, layer_ends = bfs_tree(
            bfs_order(towers[family].quotient(n).gen_perms))
        assert layer_ends.dtype == np.int64
        assert layer_ends.tolist() == layer_ends_one_layer_at_a_time(parent)


@pytest.mark.parametrize("rank,radius", [(1, 0), (1, 1), (1, 37), (2, 1),
                                         (2, 6), (3, 3)])
def test_layer_ends_by_doubling_match_the_loop_on_balls(rank, radius):
    parent, _, layer_ends = bfs_tree(BallIndex(rank, radius).table[:-1])
    assert layer_ends.tolist() == layer_ends_one_layer_at_a_time(parent)


@pytest.mark.parametrize("family", ["fd", "congruence"])
def test_group_operations_match_permutations(towers, family):
    q = towers[family].quotient(3)
    perms = tree_perms(q)
    index = {p.tobytes(): i for i, p in enumerate(perms)}
    for i, p in enumerate(perms):
        assert q.invert_element(i) == index[np.argsort(p).astype(
            np.int32).tobytes()]
        table = q.left_mult_table(i)
        for j, r in enumerate(perms):
            k = index[p[r].tobytes()]
            assert q.multiply(i, j) == k
            assert table[j] == k


def test_kernel_refines_matches_paired_closure_on_enumeration():
    outcomes = set()
    for n in range(1, 5):
        reps = enumerate_kernel_reps(n)
        for sigma in _class_reps(n):
            for tau in itertools.permutations(range(n)):
                gens = [sigma, np.array(tau, dtype=np.int32)]
                table = bfs_order(gens, cap=n)
                if table is None:
                    continue
                cand = FiniteQuotient(gens, table)
                for r in reps:
                    for p, q in ((cand, r), (r, cand)):
                        got = kernel_refines(p, q)
                        assert got == paired_refines(p, q)
                        outcomes.add(got)
    assert outcomes == {True, False}


def test_kernel_refines_matches_paired_closure_on_nesting(towers):
    outcomes = set()
    for family, top in (("fd", 4), ("congruence", 5), ("cyclic", 8)):
        levels = [towers[family].quotient(n) for n in range(1, top + 1)]
        for small, big in zip(levels, levels[1:]):
            for p, q in ((big, small), (small, big)):
                got = kernel_refines(p, q)
                assert got == paired_refines(p, q)
                outcomes.add(got)
    assert outcomes == {True, False}


def whole_table_refines(p, q):
    """kernel_refines by one comparison of the whole tables."""
    phi = perms.propagate(q.table, p.parent, p.letter, p.layer_ends, 0)
    return bool(np.array_equal(phi[p.table], q.table[phi]))


def test_kernel_refines_column_by_column_matches_the_whole_table(towers):
    fd = [towers["fd"].quotient(n) for n in range(1, 6)]
    cong = [towers["congruence"].quotient(n) for n in range(2, 6)]
    pairs = list(zip(fd[1:], fd)) + list(zip(cong[1:], cong))
    for p, q in pairs:
        assert kernel_refines(p, q) == whole_table_refines(p, q) is True
    p, q = fd[2], fd[3]  # fd 3 does not map onto fd 4
    assert kernel_refines(p, q) == whole_table_refines(p, q) is False
    # one letter column at a time: phi, one gathered column and the
    # comparison, where the whole tables take 2k = 4 intp per element
    p, q = fd[4], fd[3]
    tracemalloc.start()
    try:
        assert kernel_refines(p, q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * p.order * np.dtype(np.intp).itemsize


# -- the layer closure against bfs_order ------------------------------------

@pytest.mark.parametrize("family,top", [("fd", 5), ("congruence", 6),
                                        ("cyclic", 10)])
def test_layer_closure_builds_the_bfs_order_tables(monkeypatch, family, top):
    calls = []
    closure = quotients.layer_closure
    monkeypatch.setattr(quotients, "layer_closure",
                        lambda *a, **k: calls.append(a) or closure(*a, **k))
    base = ApproximatedGroup(family)  # no cache: every level is built
    for n in range(1, top + 1):
        q = base.quotient(n)
        table = bfs_order(q.gen_perms)
        assert q.table.dtype == table.dtype == np.int32
        assert q.table.tobytes() == table.tobytes(), n
    assert len(calls) == top


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_layer_closure_on_every_base_point_matches_bfs_order(data):
    d = data.draw(st.integers(1, 8), label="degree")
    gens = [np.array(data.draw(st.permutations(range(d))), dtype=np.int32)
            for _ in range(2)]
    # the images of x^-1 on every point are x^-1 itself
    tables, start = [point_table(gens)] * d, list(range(d))
    table = bfs_order(gens)
    got = layer_closure(tables, start)
    assert got.dtype == np.int32 and got.tobytes() == table.tobytes()
    order = len(table)
    for cap in {max(order - 1, 1), order}:
        assert (layer_closure(tables, start, cap) is None) == (order > cap)


def test_layer_closure_refuses_keys_past_int64():
    def fixed(size):  # every letter fixes every point
        return np.broadcast_to(np.arange(size)[:, None], (size, 2))

    with pytest.raises(ResourceError):
        layer_closure([fixed(2 ** 21)] * 3, [0, 0, 0])  # 2^63 keys
    # 2^63 - 1 keys still fit: the trivial group closes on the last key
    sizes = [7, 7, 73, 127, 337, 92737, 649657]
    assert np.prod(sizes, dtype=object) == 2 ** 63 - 1
    got = layer_closure([fixed(s) for s in sizes], [s - 1 for s in sizes])
    assert got.tolist() == [[0, 0]]


def test_point_table_columns_invert_the_letters():
    gens = [np.array([1, 2, 0, 3], dtype=np.int32),
            np.array([0, 1, 3, 2], dtype=np.int32)]
    pt = point_table(gens)
    letters = [g for s in gens for g in (s, perms.invert(s))]
    for c, s in enumerate(letters):
        assert np.array_equal(s[pt[:, c]], np.arange(4))
