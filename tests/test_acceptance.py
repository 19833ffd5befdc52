"""Acceptance gate: one test per top-level quantitative criterion.

Each test prints a single PASS/FAIL line so a plain ``pytest -s
tests/test_acceptance.py`` doubles as a human-readable checklist.
"""

import cmath
import itertools
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from hlslab.cli import main
from hlslab.groupoid import (INFINITY, FiberedFunction, HLSGroupoid,
                             adjoint_fibered, certificate_from_folner,
                             check_certificate, convolve_fibered,
                             fiber_norm_bracket, folner_from_certificate,
                             norm_profile, rho_norm,
                             tau_spectral_gap, truncation_lower_bound)
from hlslab.quotients import kernel_refines
from hlslab.words import GroupAlgebraElement, Word, ball

from dense_oracle import rho_dense

KESTEN_4_REGULAR = 2 * math.sqrt(3)


def report(name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def gen_sum():
    return GroupAlgebraElement.generator_sum(2)


# -- 1: quotient orders against brute-force enumeration ------------------------

def brute_force_order(n):
    """Order of the level-n quotient by raw enumeration: all pairs of
    permutations of <= n points that generate a group of order <= n give
    the image in the direct product over every homomorphism, realized on
    disjoint point sets."""
    def comp0(p, q):
        return tuple(p[i] for i in q)

    def subgroup_order(a, b):
        m = len(a)
        seen = {tuple(range(m))}
        frontier = list(seen)
        while frontier:
            nxt = []
            for p in frontier:
                for s in (a, b):
                    q = comp0(s, p)
                    if q not in seen:
                        seen.add(q)
                        nxt.append(q)
            frontier = nxt
        return len(seen)

    blocks = []
    for m in range(1, n + 1):
        perms = list(itertools.permutations(range(m)))
        blocks.extend((a, b) for a in perms for b in perms
                      if subgroup_order(a, b) <= n)
    offsets = []
    off = 0
    for a, _ in blocks:
        offsets.append(off)
        off += len(a)
    def glue(which):
        out = []
        for (a, b), o in zip(blocks, offsets):
            out.extend(p + o for p in (a if which == 0 else b))
        return tuple(out)
    g0, g1 = glue(0), glue(1)
    def comp(p, q):
        return tuple(p[i] for i in q)
    def inv(p):
        r = [0] * len(p)
        for i, v in enumerate(p):
            r[v] = i
        return tuple(r)
    gens = [g0, inv(g0), g1, inv(g1)]
    seen = {tuple(range(off))}
    frontier = list(seen)
    while frontier:
        nxt = []
        for p in frontier:
            for s in gens:
                q = comp(s, p)
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return len(seen)


def test_criterion_1_fd_quotient_orders(fd):
    orders, times = [], []
    for n in (1, 2, 3):
        t0 = time.monotonic()
        orders.append(fd.quotient(n).order)
        times.append(time.monotonic() - t0)
    oracle = [brute_force_order(n) for n in (1, 2, 3)]
    ok = orders == [1, 4, 36] and orders == oracle and all(
        t < 5.0 for t in times)
    report("criterion 1: FD quotient orders 1, 4, 36 vs brute force, < 5 s",
           ok, f"orders={orders} oracle={oracle} "
               f"max_time={max(times):.2f}s")


# -- 2: divisibility and nesting -----------------------------------------------

def test_criterion_2_divisibility_and_nesting(fd, congruence, cyclic):
    ok = True
    for base, top in ((fd, 4), (congruence, 5), (cyclic, 10)):
        qs = [base.quotient(n) for n in range(1, top + 1)]
        for a, b in zip(qs, qs[1:]):
            ok = ok and b.order % a.order == 0 and kernel_refines(b, a)
    report("criterion 2: order divisibility and kernel nesting, "
           "all families", ok)


# -- 3: fiber norm exactness ----------------------------------------------------

def test_criterion_3_fiber_norm_exactness(fd, cyclic):
    G = HLSGroupoid(fd)
    f = FiberedFunction(G, gen_sum(), 1, {})
    ok = True
    worst = 0.0
    for n in (1, 2, 3, 4):
        br = rho_norm(f, n)
        worst = max(worst, abs(br.lower - 4.0), abs(br.upper - 4.0))
    ok = ok and worst <= 1e-8
    # cyclic fibers against the character formula
    Gc = HLSGroupoid(cyclic)
    rng = random.Random(17)
    a = Word((1,), 1)
    worst_c = 0.0
    for n in range(1, 9):
        N = 2 ** n
        for _ in range(5):
            coeffs = {j: rng.randint(-3, 3) for j in
                      rng.sample(range(-3, 4), 4)}
            x = GroupAlgebraElement.from_pairs(
                [(a ** j, c) for j, c in coeffs.items()], 1)
            expected = max(
                abs(sum(c * cmath.exp(2j * math.pi * j * k / N)
                        for j, c in coeffs.items()))
                for k in range(N))
            br = rho_norm(FiberedFunction(Gc, x), n)
            worst_c = max(worst_c, abs(br.lower - expected))
    ok = ok and worst_c <= 1e-9 * 20
    report("criterion 3: generator-sum FD fiber norms = 4 within 1e-8; "
           "cyclic Lanczos matches character formula",
           ok, f"fd_err={worst:.2e} cyc_err={worst_c:.2e}")


# -- 4: monotonicity along the tower ---------------------------------------------

def test_criterion_4_monotonicity(fd, congruence):
    rng = random.Random(41)
    words = ball(2, 2)
    ok = True
    for base in (fd, congruence):
        G = HLSGroupoid(base)
        for _ in range(10):
            x = GroupAlgebraElement.from_pairs(
                [(rng.choice(words), rng.uniform(-2, 2)) for _ in range(4)],
                2)
            x = x + x.adjoint()
            f = FiberedFunction(G, x, 1, {})
            lows = [rho_norm(f, n).lower for n in (1, 2, 3, 4)]
            for a, b in zip(lows, lows[1:]):
                ok = ok and b + 1e-8 >= a
    report("criterion 4: fiber norms nondecreasing along both rank-2 "
           "towers, 10 random self-adjoint elements each", ok)


# -- 5: the gap experiment --------------------------------------------------------

def test_criterion_5_gap_experiment(fd):
    t0 = time.monotonic()
    x = gen_sum()
    G = HLSGroupoid(fd)
    truncs = [truncation_lower_bound(x, r) for r in (2, 6, 12)]
    monotone = all(b + 1e-9 >= a for a, b in zip(truncs, truncs[1:]))
    sqrt7_ok = abs(truncs[0] - math.sqrt(7)) < 1e-9
    ceiling_ok = all(t <= KESTEN_4_REGULAR + 1e-6 for t in truncs)
    profile = norm_profile(FiberedFunction(G, x), 3, radius=6)
    _, flagged = profile.gap(0.25, KESTEN_4_REGULAR)
    sup_ok = (abs(profile.sup_finite.lower - 4.0) < 1e-8
              and abs(profile.sup_finite.upper - 4.0) < 1e-8)
    elapsed = time.monotonic() - t0
    ok = (monotone and sqrt7_ok and ceiling_ok and sup_ok
          and flagged and elapsed < 120.0)
    report("criterion 5: gap witness: finite sup = 4, truncations monotone, "
           "radius-2 = sqrt(7), all <= 2*sqrt(3), GAP flagged, < 2 min",
           ok, f"truncs={[f'{t:.6f}' for t in truncs]} "
               f"elapsed={elapsed:.1f}s")


# -- 6: amenable control ----------------------------------------------------------

def test_criterion_6_amenable_control(cyclic):
    G = HLSGroupoid(cyclic)
    x = GroupAlgebraElement.from_pairs(
        [(Word((1,), 1), 1.0), (Word((-1,), 1), 1.0)], 1)
    profile = norm_profile(FiberedFunction(G, x), 8, radius=3200)
    sup_ok = abs(profile.sup_finite.lower - 2.0) < 1e-6
    inf_ok = (abs(profile.infinity.lower - 2.0) < 1e-6
              and abs(profile.infinity.upper - 2.0) < 1e-6)
    ok = sup_ok and inf_ok and not profile.gap(0.25)[1]
    report("criterion 6: cyclic control: finite sup and infinity bracket "
           "both 2 within 1e-6, NO GAP",
           ok, f"sup={profile.sup_finite.lower:.8f} "
               f"inf=[{profile.infinity.lower:.8f},"
               f"{profile.infinity.upper:.8f}]")
    # the ball is the path on 6,401 words: its top eigenvalue is
    # 2 cos(pi/6402), and the solve behind it must have converged
    path_top = 2 * math.cos(math.pi / 6402)
    report("criterion 6: the radius-3200 truncation converged to the path "
           "eigenvalue within 1e-12",
           profile.infinity.converged
           and abs(profile.infinity.lower - path_top) < 1e-12,
           f"converged={profile.infinity.converged} "
           f"lower-path={profile.infinity.lower - path_top:.3e}")


# -- 7: block-diagonal norm identity ----------------------------------------------

def test_criterion_7_block_diagonal_norms(fd, congruence):
    rng = random.Random(7)
    ok = True
    worst = 0.0
    cases = 0
    bases = [(fd, [2, 3, 4]), (congruence, [2, 3, 4])]
    while cases < 20:
        base, levels = bases[cases % 2]
        G = HLSGroupoid(base)
        top = rng.choice(levels)
        overrides = {}
        for n in range(1, top + 1):
            q = G.quotient(n)
            if q.order > 500:
                continue
            if rng.random() < 0.7:
                overrides[n] = {
                    rng.randrange(q.order): complex(rng.uniform(-2, 2),
                                                    rng.uniform(-2, 2))
                    for _ in range(3)}
        if not overrides:
            continue
        f = FiberedFunction(G, GroupAlgebraElement.zero(2), top + 1,
                            overrides)
        rep = norm_profile(f, top, radius=8)
        expected = max(
            float(np.linalg.norm(rho_dense(G.quotient(n), fib), 2))
            for n, fib in overrides.items())
        err = max(abs(rep.reduced.lower - expected),
                  abs(rep.reduced.upper - expected))
        worst = max(worst, err)
        ok = ok and err < 1e-9 * max(1.0, expected)
        cases += 1
    report("criterion 7: tail-zero supremum equals max per-fiber dense "
           "norm within 1e-9, 20 random cases", ok, f"worst_err={worst:.2e}")


# -- 8: *-algebra suite -------------------------------------------------------------

def test_criterion_8_star_algebra_suite(fd):
    G = HLSGroupoid(fd)
    rng = random.Random(8)
    words = ball(2, 2)

    def random_exact():
        tail = GroupAlgebraElement.from_pairs(
            [(rng.choice(words), Fraction(rng.randint(-3, 3),
                                          rng.randint(1, 4)))
             for _ in range(3)], 2)
        top = rng.choice([1, 2, 3])
        overrides = {}
        for n in range(1, top):
            q = G.quotient(n)
            overrides[n] = {rng.randrange(q.order):
                            Fraction(rng.randint(-2, 2), rng.randint(1, 3))
                            for _ in range(2)}
        return FiberedFunction(G, tail, top, overrides)

    ok = True
    for _ in range(100):
        f, g, h = random_exact(), random_exact(), random_exact()
        assoc = convolve_fibered(convolve_fibered(f, g), h).same_function(
            convolve_fibered(f, convolve_fibered(g, h)))
        invol = adjoint_fibered(convolve_fibered(f, g)).same_function(
            convolve_fibered(adjoint_fibered(g), adjoint_fibered(f)))
        ok = ok and assoc and invol

    # representation property, exact, on fibers of order <= 200
    for n in (2, 3):
        q = G.quotient(n)
        if q.order > 200:
            continue
        for _ in range(3):
            x = GroupAlgebraElement.from_pairs(
                [(rng.choice(words), Fraction(rng.randint(-3, 3)))
                 for _ in range(4)], 2)
            y = GroupAlgebraElement.from_pairs(
                [(rng.choice(words), Fraction(rng.randint(-3, 3)))
                 for _ in range(4)], 2)
            mx = rho_dense(q, q.pushforward(x), exact=True)
            my = rho_dense(q, q.pushforward(y), exact=True)
            mxy = rho_dense(q, q.pushforward(x.convolve(y)), exact=True)
            for i in range(q.order):
                for j in range(q.order):
                    acc = sum(mx[i][k] * my[k][j] for k in range(q.order)
                              if mx[i][k] and my[k][j])
                    ok = ok and (acc == mxy[i][j]
                                 or (not acc and not mxy[i][j]))
    report("criterion 8: exact associativity/involution on 100 random "
           "instances; representation property exact on small fibers", ok)


# -- 9: certificate round-trip --------------------------------------------------------

def test_criterion_9_certificate_round_trip(cyclic):
    G = HLSGroupoid(cyclic)
    a = Word((1,), 1)
    ok = True
    for n in (3, 5, 7):  # N = 8, 32, 128
        N = 2 ** n
        xi = GroupAlgebraElement.from_pairs(
            [(a ** j, Fraction(1, N)) for j in range(N)], 1)
        cert = certificate_from_folner(xi, G, [(INFINITY, a)], 3.0 / N)
        rep = check_certificate(cert)
        defect = rep.rows[0].translation_defect
        ok = ok and defect == Fraction(2, N)
        ok = ok and rep.rows[0].normalization_defect == 0
        back = folner_from_certificate(cert)
        ok = ok and dict(back.coeffs) == dict(xi.coeffs)
    report("criterion 9: uniform-window translation defect exactly 2/N "
           "for N in {8, 32, 128}; Folner round-trip exact", ok)


# -- 10: tau contrast --------------------------------------------------------------

def test_criterion_10_tau_contrast(fd, congruence, tmp_path):
    (v2, c2), (v3, c3), (v4, c4) = (tau_spectral_gap(fd, n)
                                    for n in (2, 3, 4))
    fd_ok = (c2 and c3 and c4 and abs(v2 - 0.0) < 1e-9
             and abs(v3 - 0.75) < 1e-9 and v4 + 1e-9 >= v3)
    # congruence snapshot: first run records, second must agree
    cache = tmp_path / "tau-cache"
    out = tmp_path / "tau.csv"
    args = ["tau", "--family", "fd", "--n-max", "4",
            "--cache-dir", str(cache), "--out", str(out)]
    snap_ok = main(args) == 0 and main(args) == 0
    ok = fd_ok and snap_ok
    report("criterion 10: FD second eigenvalues 0.0, 0.75 within 1e-9, "
           "converged and nondecreasing; congruence snapshot stable on "
           "re-run",
           ok, f"fd=({v2:.2e}, {v3:.10f}, {v4:.10f})")


# -- 11: determinism --------------------------------------------------------------

def test_criterion_11_determinism(tmp_path):
    cache = str(tmp_path / "cache")
    runs = [
        ["quotients", "--family", "fd", "--n-max", "3"],
        ["gap", "--family", "fd", "--n-max", "3", "--radius", "4"],
        ["gap", "--family", "cyclic", "--n-max", "4", "--radius", "50"],
        ["tau", "--family", "fd", "--n-max", "3"],
        ["convolve-check", "--family", "fd", "--n-max", "2"],
    ]
    ok = True
    for i, args in enumerate(runs):
        a, b = tmp_path / f"r{i}a.csv", tmp_path / f"r{i}b.csv"
        code1 = main(args + ["--cache-dir", cache, "--out", str(a)])
        code2 = main(args + ["--cache-dir", cache, "--out", str(b)])
        ok = ok and code1 == 0 and code2 == 0
        ok = ok and a.read_bytes() == b.read_bytes()
    report("criterion 11: every CSV report byte-identical across two "
           "warm-cache runs", ok)
