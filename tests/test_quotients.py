import hashlib
import itertools
import json
import math
import random
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hlslab import quotients
from hlslab.errors import InputError, ResourceError
from hlslab.perms import bfs_order, bfs_tree, schreier_sims_order
from hlslab.quotients import (ApproximatedGroup, FiniteQuotient,
                              enumerate_kernel_reps, kernel_refines)
from hlslab.words import GroupAlgebraElement, Word, ball


def cyclic_perm(m, shift):
    return np.roll(np.arange(m, dtype=np.int32), -shift)


def quotient(gens):
    return FiniteQuotient(gens, bfs_order(gens))


# -- kernel enumeration -------------------------------------------------------

def test_kernel_reps_level_1():
    reps = enumerate_kernel_reps(1)
    assert len(reps) == 1
    assert reps[0].order == 1


def test_kernel_reps_level_2():
    # trivial-image kernel plus the three index-2 kernels
    reps = enumerate_kernel_reps(2)
    assert len(reps) == 4
    assert sorted(r.order for r in reps) == [1, 2, 2, 2]


def test_kernel_reps_level_3():
    # all groups of order <= 3 are cyclic: 1 trivial + 3 onto Z/2 + 4 onto Z/3
    reps = enumerate_kernel_reps(3)
    assert sorted(r.order for r in reps) == [1, 2, 2, 2, 3, 3, 3, 3]


def test_kernel_reps_cap():
    with pytest.raises(ResourceError):
        enumerate_kernel_reps(7)


@pytest.mark.parametrize("n,count", [(1, 1), (2, 4), (3, 8), (4, 15)])
def test_kernel_reps_match_all_pairs(n, count):
    # brute force: every pair (sigma, tau) in S_n x S_n, deduplicated by
    # mutual refinement, against sigma over cycle types only
    def same(p, q):
        return kernel_refines(p, q) and kernel_refines(q, p)

    brute = []
    for sigma, tau in itertools.product(itertools.permutations(range(n)),
                                        repeat=2):
        gens = [np.array(sigma, dtype=np.int32), np.array(tau, dtype=np.int32)]
        q = quotient(gens)
        if q.order > n:
            continue
        equal = [same(q, r) for r in brute]
        # the enumeration's key: equal kernels have identical right tables
        assert equal == [q.table.tobytes() == r.table.tobytes()
                         for r in brute]
        if not any(equal):
            brute.append(q)
    reps = enumerate_kernel_reps(n)
    assert len(brute) == len(reps) == count
    assert all(any(same(p, q) for q in brute) for p in reps)


def test_kernels_refine_to_next_level():
    # every kernel at level n persists (as an equal kernel) at level n+1
    reps = {n: enumerate_kernel_reps(n) for n in (1, 2, 3, 4)}
    for n in (1, 2, 3):
        for p in reps[n]:
            assert any(kernel_refines(q, p) and kernel_refines(p, q)
                       for q in reps[n + 1] if q.order == p.order)


# -- kernel_refines -----------------------------------------------------------

def test_kernel_refines_trivial_map():
    trivial = quotient([cyclic_perm(1, 0), cyclic_perm(1, 0)])
    z2 = quotient([cyclic_perm(2, 1), cyclic_perm(2, 0)])
    assert not kernel_refines(trivial, z2)
    assert kernel_refines(trivial, trivial)
    assert kernel_refines(z2, trivial)
    assert kernel_refines(z2, z2)


def test_kernel_refines_z4_to_z2():
    p = quotient([cyclic_perm(4, 1), cyclic_perm(4, 0)])
    q = quotient([cyclic_perm(2, 1), cyclic_perm(2, 0)])
    assert kernel_refines(p, q)
    assert not kernel_refines(q, p)


# -- quotient towers ----------------------------------------------------------

def test_fd_orders(fd):
    t0 = time.monotonic()
    orders = [fd.quotient(n).order for n in (1, 2, 3)]
    assert orders == [1, 4, 36]
    assert time.monotonic() - t0 < 15.0


def test_cyclic_orders(cyclic):
    assert [cyclic.quotient(n).order for n in range(1, 6)] == [2, 4, 8, 16, 32]


def test_congruence_orders(congruence):
    # |SL(2, Z/2^n) image of the Sanov group| = 2^(3n - 4) for n >= 2
    assert [congruence.quotient(n).order for n in range(1, 6)] == \
        [1] + [2 ** (3 * n - 4) for n in range(2, 6)] == \
        [1, 4, 32, 256, 2048]


def test_order_divisibility(fd, congruence, cyclic):
    for base, top in ((fd, 4), (congruence, 5), (cyclic, 10)):
        orders = [base.quotient(n).order for n in range(1, top + 1)]
        for a, b in zip(orders, orders[1:]):
            assert b % a == 0


def test_schreier_sims_matches_bfs(fd, congruence, cyclic):
    for base, top in ((fd, 4), (congruence, 4), (cyclic, 8)):
        for n in range(1, top + 1):
            assert base.quotient(n).verify_schreier_sims()


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_schreier_sims_order_is_the_bfs_count(data):
    d = data.draw(st.integers(1, 8), label="degree")
    k = data.draw(st.integers(1, 3), label="generators")
    gens = [np.array(data.draw(st.permutations(range(d))), dtype=np.int32)
            for _ in range(k)]
    assert schreier_sims_order(gens) == len(bfs_order(gens))


def cycle(degree, *cycles):
    """The permutation of range(degree) with the given cycles (1-based
    points, as they are usually written)."""
    p = np.arange(degree, dtype=np.int32)
    for c in cycles:
        for a, b in zip(c, c[1:] + c[:1]):
            p[a - 1] = b - 1
    return p


def known_groups():
    """Generators of groups whose orders are classical, and the order."""
    yield pytest.param([cycle(11, tuple(range(1, 12))),
                        cycle(11, (3, 7, 11, 8), (4, 10, 5, 6))], 7920,
                       id="M11")
    for n in range(2, 8):
        yield pytest.param([cycle(n, tuple(range(1, n + 1))),
                            cycle(n, (1, 2))], math.factorial(n), id=f"S{n}")
    for n in range(3, 8):  # A_n is generated by the 3-cycles (1 2 i)
        yield pytest.param([cycle(n, (1, 2, i)) for i in range(3, n + 1)],
                           math.factorial(n) // 2, id=f"A{n}")
    for n in range(3, 9):  # the rotations and reflections of an n-gon
        yield pytest.param([cycle(n, tuple(range(1, n + 1))),
                            cycle(n, *[(i, n + 2 - i)
                                       for i in range(2, (n + 3) // 2)])],
                           2 * n, id=f"D{n}")
    yield pytest.param([np.arange(5, dtype=np.int32)] * 2, 1, id="identity")
    yield pytest.param([], 1, id="empty")


@pytest.mark.parametrize("gens,order", known_groups())
def test_schreier_sims_known_orders(gens, order):
    assert schreier_sims_order(gens) == order


def test_unknown_family():
    with pytest.raises(InputError):
        ApproximatedGroup("nope")


def test_fiber_cap():
    small = ApproximatedGroup("cyclic", fiber_cap=16)
    with pytest.raises(ResourceError):
        small.quotient(6)


@pytest.mark.parametrize("family,kwargs,ok,too_deep", [
    ("fd", {"hom_level_cap": 4}, 4, 5),
    ("congruence", {"fiber_cap": 2048}, 5, 6),  # orders 2^11 and 2^14
    ("cyclic", {"fiber_cap": 64}, 6, 7),
    ("congruence", {}, 8, 9),  # 2^20 and 2^23 against 2,000,000
])
def test_check_level_is_a_priori(family, kwargs, ok, too_deep):
    base = ApproximatedGroup(family, **kwargs)
    base.check_level(ok)
    with pytest.raises(ResourceError):
        base.check_level(too_deep)
    assert base._memory == {}  # nothing was built


# -- evaluation ---------------------------------------------------------------

def test_evaluate_identity(fd, cyclic):
    assert fd.quotient(3).evaluate(Word.identity(2)) == 0
    assert cyclic.quotient(3).evaluate(Word.identity(1)) == 0


def test_commutator_dies_in_abelian_quotient(fd):
    comm = Word.parse("abAB")
    assert fd.quotient(2).evaluate(comm) == 0
    assert fd.quotient(3).evaluate(comm) == 0


def test_evaluate_cyclic_power(cyclic):
    q = cyclic.quotient(3)  # Z/8
    a = Word.parse("a", 1)
    assert q.evaluate(a ** 5) == q.evaluate(a ** -3)
    assert q.evaluate(a ** 8) == 0
    # the index-5 element is reached by composing the generator 5 times
    idx = 0
    a_idx = q.evaluate(a)
    for _ in range(5):
        idx = q.multiply(a_idx, idx)
    assert q.evaluate(a ** 5) == idx


def test_evaluate_homomorphism_property(fd):
    q = fd.quotient(3)
    rng = random.Random(11)
    words = ball(3, 2)
    for _ in range(25):
        u, v = rng.choice(words), rng.choice(words)
        assert q.evaluate(u * v) == q.multiply(q.evaluate(u), q.evaluate(v))
        assert q.evaluate(u.inverse()) == q.invert_element(q.evaluate(u))


def pushforward_by_words(q, x):
    """The pushforward with every word evaluated letter by letter."""
    out = {}
    for w, c in x.coeffs.items():
        i = q.evaluate(w)
        out[i] = out.get(i, 0) + c
    return {i: c for i, c in out.items() if c}


def prefix_closed(rank, kind, size):
    """A ball of radius size, or the window a^0 .. a^(size - 1), or its
    mirror A^0 .. A^(1 - size) followed by the words b a^j (rank 2)."""
    if kind == "ball":
        return ball(size, rank)
    a, A = Word.parse("a", rank), Word.parse("A", rank)
    words = [a ** j for j in range(size)] + [A ** j for j in range(1, size)]
    if rank == 2:
        words += [Word.parse("b", 2) * a ** j for j in range(size)]
    return words


@pytest.mark.parametrize("family,n", [("fd", 3), ("fd", 4),
                                      ("congruence", 5), ("cyclic", 6)])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_pushforward_is_the_sum_of_word_evaluations(request, family, n,
                                                    data):
    base = request.getfixturevalue(family)
    q, rank = base.quotient(n), base.rank
    coeff = st.one_of(st.integers(-3, 3),
                      st.fractions(-2, 2, max_denominator=6))
    if data.draw(st.booleans()):
        kind = data.draw(st.sampled_from(["ball", "window"]))
        size = data.draw(st.integers(0, 3 if kind == "ball" else 12))
        words = prefix_closed(rank, kind, size)
        if data.draw(st.booleans()):  # not prefix-closed any more
            words = data.draw(st.permutations(words))[:len(words) // 2]
    else:
        letters = st.lists(st.integers(0, 2 * rank - 1), max_size=20)
        words = data.draw(st.lists(letters.map(
            lambda ls: Word.reduce(ls, rank)), max_size=30))
    x = GroupAlgebraElement.from_pairs(
        [(w, data.draw(coeff)) for w in words], rank)
    want = pushforward_by_words(q, x)
    got = q.pushforward(x)
    assert list(got.items()) == list(want.items())  # in the same order


def test_pushforward_steps_from_parents(fd, cyclic, monkeypatch):
    # on a prefix-closed support only the identity is evaluated; a word
    # whose parent is missing is evaluated whole
    seen = []
    evaluate = FiniteQuotient.evaluate

    def recording(self, w):
        seen.append(str(w))
        return evaluate(self, w)

    monkeypatch.setattr(FiniteQuotient, "evaluate", recording)
    fd.quotient(3).pushforward(GroupAlgebraElement.from_pairs(
        [(w, 1) for w in ball(4, 2)], 2))
    cyclic.quotient(5).pushforward(GroupAlgebraElement.from_pairs(
        [(Word.parse("a", 1) ** j, 1) for j in range(512)], 1))
    assert seen == ["e", "e"]
    fd.quotient(3).pushforward(GroupAlgebraElement.from_pairs(
        [("abab", 1), ("aba", 1), ("ba", 1), ("bab", 1), ("BB", 1)], 2))
    assert seen[2:] == ["ba", "BB", "aba"]


# -- separation ---------------------------------------------------------------

def brute_separation(base, radius, depth):
    """Word by word: for each level n <= depth, the largest r <= radius
    such that every nontrivial word of length <= r maps to a nontrivial
    element at level n or an earlier one."""
    quotients = [base.quotient(n) for n in range(1, depth + 1)]
    radii = [radius] * depth
    for w in ball(radius, base.rank)[1:]:
        images = [q.evaluate(w) for q in quotients]
        for n in range(depth):
            if not any(images[:n + 1]):
                radii[n] = min(radii[n], len(w) - 1)
    return radii


@pytest.mark.parametrize("family,depth,radius", [
    ("fd", 4, 0), ("fd", 4, 3), ("fd", 4, 8),
    ("congruence", 4, 0), ("congruence", 4, 5), ("congruence", 4, 8),
    # level 5's girth is 10, so it separates every word up to length 9
    ("congruence", 5, 9),
    ("cyclic", 6, 0), ("cyclic", 6, 20), ("cyclic", 6, 70),
])
def test_separation_matches_word_by_word_search(request, family, depth,
                                                radius):
    # radius 70 lies past cyclic level 6's separation radius 63
    base = request.getfixturevalue(family)
    assert base.check_separation(radius, depth) == \
        brute_separation(base, radius, depth)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_separation_is_the_girth_of_any_quotient(data):
    # one level from arbitrary permutations: odd girths (Z/3, S_3) and a
    # trivial generator beside a nontrivial one occur here, not in the
    # three families
    rank = data.draw(st.sampled_from([1, 2]), label="rank")
    d = data.draw(st.integers(1, 6), label="degree")
    gens = [np.array(data.draw(st.permutations(range(d))), dtype=np.int32)
            for _ in range(rank)]
    base = ApproximatedGroup("cyclic" if rank == 1 else "fd")
    base._memory[1] = quotient(gens)
    top = 12 if rank == 1 else 7
    want = brute_separation(base, top, 1)[0]
    assert [base.check_separation(r, 1)[0] for r in range(top + 1)] == \
        [min(want, r) for r in range(top + 1)]


def test_separation_builds_no_ball(congruence, balls_built):
    # each level's girth is read off its own BFS tree, so a radius whose
    # ball would hold 1,062,881 words costs no more than a small one
    assert congruence.check_separation(12, 6) == [0, 1, 3, 7, 9, 11]
    assert balls_built == []


def test_separation_fd_radius_2(fd):
    assert fd.check_separation(2, 3) == [0, 1, 2]


def test_separation_commutator_unseparated(fd):
    comm = Word.parse("abAB")
    assert all(fd.quotient(n).evaluate(comm) == 0 for n in range(1, 4))
    assert fd.check_separation(4, 3)[-1] == 3


def test_separation_cyclic(cyclic):
    assert cyclic.check_separation(5, 3) == [1, 3, 5]


def brute_separation_level(base, words, depth_cap):
    """Pairwise differences: the first level where no u * v^-1 with u != v
    maps to the identity, or None."""
    diffs = [u * v.inverse() for u, v in itertools.combinations(words, 2)]
    for n in range(1, depth_cap + 1):
        q = base.quotient(n)
        if all(q.evaluate(d) != 0 for d in diffs):
            return n
    return None


@pytest.mark.parametrize("family,radius,depth_cap", [
    ("fd", 2, 5), ("congruence", 3, 5), ("cyclic", 6, 6)])
def test_separation_level_matches_pairwise_differences(request, family,
                                                       radius, depth_cap):
    base = request.getfixturevalue(family)
    words = ball(radius, base.rank)
    rng = random.Random(7)
    for _ in range(40):
        support = rng.sample(words, rng.randint(2, 6))
        want = brute_separation_level(base, support, depth_cap)
        if want is None:
            with pytest.raises(ResourceError):
                base.separation_level(support, depth_cap=depth_cap)
        else:
            assert base.separation_level(support, depth_cap=depth_cap) == want
    a, b = Word.parse("a", base.rank), Word.parse("aa", base.rank)
    with pytest.raises(InputError):
        base.separation_level([a, b, Word.parse("aAa", base.rank)])
    assert base.separation_level([a]) == base.separation_level([]) == 1


def test_separation_level_for_supports(fd, cyclic):
    a, b = Word.parse("a", 2), Word.parse("b", 2)
    assert fd.separation_level([a, b, Word.identity(2)]) == 2
    gens = [Word.parse(c, 2) for c in "aAbB"]
    assert fd.separation_level(gens) == 3
    span = [Word.parse("a", 1) ** j for j in range(-2, 3)]
    assert cyclic.separation_level(span) == 3


def test_separation_level_depth_cap(fd):
    with pytest.raises(ResourceError, match="no level <= 4 separates"):
        fd.separation_level([Word.identity(2), Word.parse("abAB")],
                            depth_cap=4)


def test_separation_level_reports_the_cap_that_stops_it():
    # groups of order <= 3 send a^6 to the identity, so fd needs level 4,
    # which the homomorphism cap refuses; cyclic needs level 4 (order 16),
    # which the fiber cap refuses
    fd = ApproximatedGroup("fd", hom_level_cap=3)
    with pytest.raises(ResourceError, match="homomorphism enumeration cap 3"):
        fd.separation_level([Word.identity(2), Word.parse("aaaaaa")])
    cyclic = ApproximatedGroup("cyclic", fiber_cap=8)
    with pytest.raises(ResourceError, match="above the fiber cap 8"):
        cyclic.separation_level([Word.identity(1), Word.parse("a", 1) ** 8])


# -- disk cache ---------------------------------------------------------------

def test_cache_round_trip(tmp_path, monkeypatch):
    ApproximatedGroup("fd", cache_dir=tmp_path).quotient(3)
    with np.load(tmp_path / "quotient-fd-3.v3.npz") as data:
        assert sorted(data.files) == ["format_version", "generators",
                                      "table"]
    fresh = ApproximatedGroup("fd").quotient(3)
    calls = []
    for name in ("bfs_order", "layer_closure"):
        closure = getattr(quotients, name)
        monkeypatch.setattr(quotients, name, lambda *a, closure=closure, **k:
                            calls.append(a) or closure(*a, **k))
    reloaded = ApproximatedGroup("fd", cache_dir=tmp_path).quotient(3)
    assert calls == []  # a load is a read, not a BFS; the tree is derived
    assert (reloaded.order, reloaded.degree, reloaded.rank) == \
        (fresh.order, fresh.degree, fresh.rank)
    for name in ("table", "parent", "letter", "layer_ends"):
        a, b = getattr(reloaded, name), getattr(fresh, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert np.stack(reloaded.gen_perms).tobytes() == \
        np.stack(fresh.gen_perms).tobytes()
    assert reloaded.verify_schreier_sims()


def test_congruence_6_builds_in_small_memory():
    # a closure keyed by whole permutations holds order x degree x 4 bytes
    # of keys here, about 270 MB
    tracemalloc.start()
    try:
        q = ApproximatedGroup("congruence").quotient(6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert q.order == 2 ** (3 * 6 - 4)
    assert peak < 32 * 2 ** 20


def _swap_table_entries(arrays):
    # two entries of column 0 off the BFS tree: column 1 no longer inverts
    # column 0
    t = arrays["table"]
    parent, letter, _ = bfs_tree(t)
    tree = set(zip(parent[1:].tolist(), letter[1:].tolist()))
    i, j = [i for i in range(len(t)) if (i, 0) not in tree][:2]
    t[i, 0], t[j, 0] = t[j, 0], t[i, 0]


def _relabel_two_elements(arrays):
    # elements 1 and order - 1 trade indices: still a right Cayley table
    # in inverse letter pairs, but not in BFS order
    t = arrays["table"]
    swap = np.arange(len(t), dtype=t.dtype)
    swap[[1, -1]] = swap[[-1, 1]]
    arrays["table"] = swap[t[swap]]


def _entry_out_of_range(arrays):
    arrays["table"][0, 0] = len(arrays["table"])


def _drop_a_column(arrays):
    arrays["table"] = np.ascontiguousarray(arrays["table"][:, :3])


def _missing_table(arrays):
    del arrays["table"]


def _repeat_a_point(arrays):
    g = arrays["generators"]
    g[0, 0] = g[0, 1]


def _wrong_version(arrays):
    arrays["format_version"] = np.array(1)


def _wrong_dtype(arrays):
    arrays["table"] = arrays["table"].astype(np.int64)


# each mutation and the check that must refuse it
MUTATIONS = {_swap_table_entries: "not inverse pairs",
             _relabel_two_elements: "not in BFS order",
             _entry_out_of_range: "out of range",
             _drop_a_column: "mismatched shapes",
             _missing_table: "not a file in the archive",
             _repeat_a_point: "not permutations",
             _wrong_version: "format version",
             _wrong_dtype: "not int32"}


@pytest.mark.parametrize("mutate", list(MUTATIONS))
def test_cache_rejects_inconsistent_arrays(tmp_path, mutate):
    ApproximatedGroup("fd", cache_dir=tmp_path).quotient(3)
    path = tmp_path / "quotient-fd-3.v3.npz"
    with np.load(path) as data:
        arrays = dict(data)
    mutate(arrays)
    np.savez(path, **arrays)
    with pytest.raises(InputError, match=MUTATIONS[mutate]):
        ApproximatedGroup("fd", cache_dir=tmp_path).quotient(3)


def _flip_table_byte(raw, table):
    # .npz members are stored uncompressed, so the table's bytes appear
    # verbatim; zip's CRC-32 catches the flipped one
    i = raw.index(table.tobytes()) + 5
    return raw[:i] + bytes([raw[i] ^ 1]) + raw[i + 1:]


@pytest.mark.parametrize("damage", [
    lambda raw, table: raw[:len(raw) // 2],  # truncated
    _flip_table_byte,
])
def test_cache_rejects_damaged_file(tmp_path, damage):
    q = ApproximatedGroup("fd", cache_dir=tmp_path).quotient(3)
    path = tmp_path / "quotient-fd-3.v3.npz"
    path.write_bytes(damage(path.read_bytes(), q.table))
    with pytest.raises(InputError):
        ApproximatedGroup("fd", cache_dir=tmp_path).quotient(3)


def test_cache_load_checks_the_fiber_cap(tmp_path):
    ApproximatedGroup("cyclic", cache_dir=tmp_path).quotient(5)  # order 32
    small = ApproximatedGroup("cyclic", cache_dir=tmp_path, fiber_cap=16)
    with pytest.raises(ResourceError):
        small.quotient(5)


def test_cache_ignores_stale_v1_json(tmp_path):
    stale = tmp_path / "quotient-fd-3.json"
    stale.write_text(json.dumps({"format_version": 1, "family": "fd",
                                 "n": 3, "rank": 2, "order": "99",
                                 "generators": [["0"], ["0"]]}))
    q = ApproximatedGroup("fd", cache_dir=tmp_path).quotient(3)
    assert q.order == 36  # rebuilt, not read from the stale file
    assert (tmp_path / "quotient-fd-3.v3.npz").exists()


def test_cache_ignores_stale_v2_npz(tmp_path):
    # format 2 stored the rank and the BFS tree besides the table
    stale = tmp_path / "quotient-fd-3.npz"
    np.savez(stale, format_version=np.array(2), rank=np.array(2),
             generators=np.zeros((2, 1), np.int32),
             table=np.zeros((99, 4), np.int32),
             parent=np.zeros(99, np.int32), letter=np.zeros(99, np.int8),
             layer_ends=np.array([1, 99]))
    before = stale.read_bytes()
    q = ApproximatedGroup("fd", cache_dir=tmp_path).quotient(3)
    assert q.order == 36  # rebuilt, not read from the stale file
    assert (tmp_path / "quotient-fd-3.v3.npz").exists()
    assert stale.read_bytes() == before


def test_cache_is_used(tmp_path):
    base1 = ApproximatedGroup("cyclic", cache_dir=tmp_path)
    base1.quotient(4)
    base2 = ApproximatedGroup("cyclic", cache_dir=tmp_path)
    q = base2.quotient(4)
    assert q.order == 16


# sha256 prefixes of the int32 bytes of each level's cached generators
# and table: cache files written by any version must stay byte-identical
CACHE_DIGESTS = {
    ("fd", 1): ("af5570f5a1810b7a", "374708fff7719dd5"),
    ("fd", 2): ("8b9bb9ec73549328", "f3be0dcd55322210"),
    ("fd", 3): ("5ee39ec637420b33", "539f23369e671ed3"),
    ("fd", 4): ("c47237fa21260ebe", "0d8a354496ac423e"),
    ("congruence", 1): ("a9dc0497ada8a830", "374708fff7719dd5"),
    ("congruence", 2): ("96943aeaf29bfd17", "f3be0dcd55322210"),
    ("congruence", 3): ("16a819bff0a8d5f1", "60c3449a92a6e1ea"),
    ("congruence", 4): ("7249ae48478163b1", "8afb65f9dba2a1a2"),
    ("congruence", 5): ("8665e67d4bf7dc2c", "2a3563c8f34b1566"),
    ("cyclic", 1): ("7c9fa136d4413fa6", "b35c194be488b20a"),
    ("cyclic", 2): ("81c1a5a2f482e82c", "ac7aac47c446a19a"),
    ("cyclic", 3): ("452d964aea414d0b", "758af666afcb27e5"),
    ("cyclic", 4): ("c0f72076dea99f98", "f453e2477185dd20"),
    ("cyclic", 5): ("56d7f20b1fc768a4", "6ee73e01cc4d41f4"),
    ("cyclic", 6): ("21cc68151fe05407", "6f0d03aba48e4700"),
}


@pytest.mark.parametrize("family,n", list(CACHE_DIGESTS))
def test_cache_arrays_keep_their_bytes(family, n):
    arrays = ApproximatedGroup(family).quotient(n).to_cache_dict()
    assert arrays["generators"].dtype == arrays["table"].dtype == np.int32
    assert tuple(hashlib.sha256(arrays[k].tobytes()).hexdigest()[:16]
                 for k in ("generators", "table")) == CACHE_DIGESTS[family, n]
