"""Output oracles that share no code with the program under test.

Each oracle recomputes a reported number from first principles (closed
forms, dense eigensolvers, brute-force group closures) so that a wrong
report is caught even when the program's own checks agree with it.
"""

from __future__ import annotations

import csv
import io
import itertools
import math

import numpy as np

# Orders of the Lubotzky-Shalom fd quotients of F_2 (brute-force closure
# of all homomorphisms to groups of order <= n); see fd_group below.
FD_ORDERS = {1: 1, 2: 4, 3: 36, 4: 144, 5: 3600, 6: 97200}
DENSE_LIMIT = 4096


# -- report parsing --------------------------------------------------------

def parse_report(text: str) -> tuple[list[dict], dict]:
    """CSV rows and the `# result k=v` trailers of an hlslab report."""
    results = {}
    body = []
    for line in text.splitlines():
        if line.startswith("# result "):
            key, _, value = line[len("# result "):].partition("=")
            results[key] = value
        elif not line.startswith("#"):
            body.append(line)
    rows = list(csv.DictReader(io.StringIO("\n".join(body))))
    return rows, results


def printed(value: float) -> float:
    """The value as the reports print it (12 significant digits)."""
    return float(format(value, ".12g"))


# -- closed forms ----------------------------------------------------------

def kesten_top(radius: int, degree: int = 4) -> float:
    """Top eigenvalue of the radial compression of the generator sum of
    F_{degree/2} to the ball of the given radius: the (r+1)-square
    tridiagonal with off-diagonals sqrt(degree), sqrt(degree-1), ...
    (Kesten 1959; Haagerup 1979)."""
    off = [math.sqrt(degree)] + [math.sqrt(degree - 1)] * (radius - 1)
    t = np.diag(off[:radius], 1)
    return float(np.linalg.eigvalsh(t + t.T)[-1])


def path_top(radius: int) -> float:
    """Top eigenvalue of the adjacency of the path on 2r+1 vertices: the
    compression of a + a^-1 on Z to the ball of radius r."""
    return 2 * math.cos(math.pi / (2 * radius + 2))


# -- brute-force quotient groups --------------------------------------------

def _closure(gens: list[np.ndarray], cap: int | None = None):
    """Elements of <gens> (with inverses) by BFS, or None above cap.
    Returns (elements, index, right-multiplication steps)."""
    steps = []
    for g in gens:
        inv = np.empty_like(g)
        inv[g] = np.arange(len(g), dtype=g.dtype)
        steps += [g, inv]
    ident = np.arange(len(gens[0]), dtype=gens[0].dtype)
    elements = [ident]
    index = {ident.tobytes(): 0}
    head = 0
    while head < len(elements):
        g = elements[head]
        head += 1
        for s in steps:
            h = g[s]
            key = h.tobytes()
            if key not in index:
                if cap is not None and len(elements) >= cap:
                    return None
                index[key] = len(elements)
                elements.append(h)
    return elements, index, steps


def fd_group(n: int) -> list[np.ndarray]:
    """Generators of the level-n fd quotient: the image of F_2 in the
    product of every pair (sigma, tau) in S_n that generates a group of
    order <= n.  Duplicate kernels do not change the image."""
    gens_a, gens_b = [], []
    offset = 0
    for sigma in itertools.permutations(range(n)):
        for tau in itertools.permutations(range(n)):
            pair = [np.array(sigma), np.array(tau)]
            if _closure(pair, cap=n) is None:
                continue
            gens_a.append(pair[0] + offset)
            gens_b.append(pair[1] + offset)
            offset += n
    return [np.concatenate(gens_a), np.concatenate(gens_b)]


def congruence_group(n: int) -> list[np.ndarray]:
    """Generators of the image of the Sanov matrices [[1,2],[0,1]] and
    [[1,0],[2,1]] in SL(2, Z/2^n), as permutations of (Z/2^n)^2."""
    m = 2 ** n
    x, y = np.divmod(np.arange(m * m), m)
    return [(x + 2 * y) % m * m + y, x * m + (2 * x + y) % m]


def markov_second_eigenvalue(gens: list[np.ndarray]) -> tuple[int, float]:
    """(order, second-largest eigenvalue) of the simple random walk on the
    Cayley graph, from a dense symmetric eigensolver."""
    elements, index, steps = _closure(gens)
    order = len(elements)
    if order == 1:
        return 1, 0.0
    m = np.zeros((order, order))
    for i, g in enumerate(elements):
        for s in steps:
            m[i, index[g[s].tobytes()]] += 1.0 / len(steps)
    return order, float(np.linalg.eigvalsh(m)[-2])


# -- per-workload checks ----------------------------------------------------
# Each returns a list of failure messages; empty means the report passed.

def check_fd_gap(text: str, n_max: int, radius: int) -> list[str]:
    rows, res = parse_report(text)
    errs = []
    finite = [r for r in rows if r["level"] != "inf"]
    if [int(r["level"]) for r in finite] != list(range(1, n_max + 1)):
        errs.append("finite levels missing")
    for r in finite:
        if int(r["order"]) != FD_ORDERS[int(r["level"])]:
            errs.append(f"level {r['level']} order {r['order']}")
        if (float(r["lower"]), float(r["upper"])) != (4.0, 4.0):
            errs.append(f"level {r['level']} bracket is not [4, 4]")
    if res.get("gap_flagged") != "true":
        errs.append("gap not flagged")
    lower = float(res.get("infinity_lower", "nan"))
    if not abs(lower - kesten_top(radius)) <= 1e-9:
        errs.append(f"infinity_lower {lower} != Kesten {kesten_top(radius)}")
    return errs


def check_cyclic_gap(text: str, n_max: int, radius: int) -> list[str]:
    rows, res = parse_report(text)
    errs = []
    finite = [r for r in rows if r["level"] != "inf"]
    if [int(r["level"]) for r in finite] != list(range(1, n_max + 1)):
        errs.append("finite levels missing")
    for r in finite:
        if int(r["order"]) != 2 ** int(r["level"]):
            errs.append(f"level {r['level']} order {r['order']}")
        if (float(r["lower"]), float(r["upper"])) != (2.0, 2.0):
            errs.append(f"level {r['level']} bracket is not [2, 2]")
    if res.get("gap_flagged") != "false":
        errs.append("amenable control flagged a gap")
    lower = float(res.get("infinity_lower", "nan"))
    top = path_top(radius)
    # a lower bound never exceeds the truth; compare at printed precision
    if not (lower <= printed(top) and top - lower <= 1e-9):
        errs.append(f"infinity_lower {lower} vs path eigenvalue {top}")
    return errs


def check_folner(text: str, window: int, kset: list) -> list[str]:
    """kset: [(level, exponent)]; the uniform window {a^0..a^(N-1)} has
    translation defect 2|k|/N at infinity and 0 on levels 2^n | N, exactly
    up to the report's printed precision (exact for N a power of two)."""
    rows, res = parse_report(text)
    errs = []
    if len(rows) != len(kset):
        return [f"{len(rows)} rows for {len(kset)} K elements"]
    for r, (level, k) in zip(rows, kset):
        want = 2 * abs(k) / window if level == "inf" else 0.0
        if r["element_level"] != str(level):
            errs.append(f"row level {r['element_level']} != {level}")
        if float(r["normalization_defect"]) != 0:
            errs.append(f"normalization defect {r['normalization_defect']}")
        if float(r["translation_defect"]) != printed(want):
            errs.append(f"translation defect {r['translation_defect']} "
                        f"!= {want} at {level}")
    if res.get("passed") != "true":
        errs.append("certificate not passed")
    return errs


def check_tower(text: str, n_max: int) -> list[str]:
    rows, res = parse_report(text)
    errs = []
    if [int(r["level"]) for r in rows] != list(range(1, n_max + 1)):
        errs.append("levels missing")
    for r in rows:
        if int(r["order"]) != FD_ORDERS[int(r["level"])]:
            errs.append(f"level {r['level']} order {r['order']}")
        if r["schreier_sims_ok"] != "true" or r["nesting_ok"] != "true":
            errs.append(f"level {r['level']} check failed")
    if res.get("all_checks_passed") != "true":
        errs.append("all_checks_passed is not true")
    return errs


def tau_expected(n_max: int) -> dict[int, tuple[float, float]]:
    """Second eigenvalues (fd, congruence) per level 2..n_max from dense
    eigensolvers; quotients above DENSE_LIMIT elements are refused."""
    out = {}
    for n in range(2, n_max + 1):
        vals = []
        for gens in (fd_group(n), congruence_group(n)):
            order, second = markov_second_eigenvalue(gens)
            if order > DENSE_LIMIT:
                raise ValueError(f"level {n} order {order} above dense limit")
            vals.append(second)
        out[n] = tuple(vals)
    return out


def check_tau(text: str, expected: dict) -> list[str]:
    rows, res = parse_report(text)
    errs = []
    if [int(r["level"]) for r in rows] != sorted(expected):
        errs.append("levels missing")
    for r in rows:
        want = expected.get(int(r["level"]))
        if want is None:
            continue
        got = (float(r["fd_second_eigenvalue"]),
               float(r["congruence_second_eigenvalue"]))
        if any(abs(g - w) > 1e-8 for g, w in zip(got, want)):
            errs.append(f"level {r['level']}: {got} != {want}")
    if res.get("snapshot_ok") != "true":
        errs.append("snapshot_ok is not true")
    return errs
