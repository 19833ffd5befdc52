"""Permutation utilities and a deterministic Schreier-Sims order check.

Permutations are numpy int64/int32 arrays p with p[i] = image of point i;
composition is (p @ q)(i) = p[q[i]].
"""

from __future__ import annotations

import numpy as np


def identity_perm(degree: int) -> np.ndarray:
    return np.arange(degree, dtype=np.int32)


def compose(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    return p[q]


def invert(p: np.ndarray) -> np.ndarray:
    out = np.empty_like(p)
    out[p] = np.arange(len(p), dtype=p.dtype)
    return out


def perm_key(p: np.ndarray) -> bytes:
    return p.tobytes()


def is_identity(p: np.ndarray) -> bool:
    return bool(np.array_equal(p, np.arange(len(p), dtype=p.dtype)))


def bfs_order(gens: list[np.ndarray],
              cap: int | None = None) -> dict[bytes, int] | None:
    """Breadth-first closure of <gens>: perm_key -> index in discovery
    order, right-multiplying by g1, g1^-1, g2, g2^-1, ... in turn.

    Returns None if the group has more than cap elements.  Generators need
    not include inverses (the group is finite).
    """
    degree = len(gens[0])
    ident = identity_perm(degree)
    all_gens = []
    for g in gens:
        all_gens.append(np.asarray(g, dtype=np.int32))
        all_gens.append(invert(all_gens[-1]))
    seen = {perm_key(ident): 0}
    frontier = [ident]
    while frontier:
        nxt = []
        for g in frontier:
            for s in all_gens:
                h = compose(g, s)
                k = perm_key(h)
                if k not in seen:
                    if cap is not None and len(seen) >= cap:
                        return None
                    seen[k] = len(seen)
                    nxt.append(h)
        frontier = nxt
    return seen


def _orbit_transversal(beta: int, gens: list[np.ndarray], degree: int):
    trans = {beta: identity_perm(degree)}
    queue = [beta]
    while queue:
        p = queue.pop(0)
        u = trans[p]
        for s in gens:
            q = int(s[p])
            if q not in trans:
                trans[q] = compose(s, u)
                queue.append(q)
    return trans


def schreier_sims_order(gens: list[np.ndarray]) -> int:
    """Group order via a stabilizer chain (independent of BFS counting)."""
    gens = [np.asarray(g, dtype=np.int32) for g in gens if not is_identity(g)]
    if not gens:
        return 1
    degree = len(gens[0])
    levels: list[dict] = []  # {'beta', 'gens', 'trans'}

    def strip(g):
        for i, lvl in enumerate(levels):
            img = int(g[lvl["beta"]])
            u = lvl["trans"].get(img)
            if u is None:
                return g, i
            g = compose(invert(u), g)
        return g, len(levels)

    def gens_at(i):
        # strong generators fixing the first i base points: everything
        # installed at level i or deeper
        out = []
        for lvl in levels[i:]:
            out.extend(lvl["gens"])
        return out

    def sift_in(g):
        """Sift g; if a nontrivial residue remains, install it.  Returns
        True when the chain changed."""
        h, i = strip(g)
        if is_identity(h):
            return False
        if i == len(levels):
            beta = int(np.nonzero(h != np.arange(degree))[0][0])
            levels.append({"beta": beta, "gens": [],
                           "trans": {beta: identity_perm(degree)}})
        levels[i]["gens"].append(h)
        # the new generator lives in every stabilizer up to level i, so all
        # of those orbits may grow
        for j in range(i + 1):
            levels[j]["trans"] = _orbit_transversal(
                levels[j]["beta"], gens_at(j), degree)
        return True

    for g in gens:
        sift_in(g)
        sift_in(invert(g))

    # closure: all Schreier generators must sift to the identity
    changed = True
    while changed:
        changed = False
        for i in range(len(levels)):
            lvl = levels[i]
            for p, u in list(lvl["trans"].items()):
                for s in gens_at(i):
                    rep = lvl["trans"][int(s[p])]
                    schreier = compose(invert(rep), compose(s, u))
                    if sift_in(schreier):
                        changed = True
            if changed:
                break

    order = 1
    for lvl in levels:
        order *= len(lvl["trans"])
    return order
