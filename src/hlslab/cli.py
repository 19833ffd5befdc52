"""Batch front-end: quotient towers, gap profiles, amenability checks and
the tau contrast, all emitted as deterministic CSV reports.

Exit codes: 0 all checks passed, 1 a check failed, 2 input error,
3 resource error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import random
import sys
from dataclasses import replace
from decimal import ROUND_CEILING, ROUND_FLOOR, Context, Decimal
from fractions import Fraction
from pathlib import Path

from . import groupoid as gpd
from .config import ExperimentConfig
from .errors import InputError, ResourceError
from .quotients import FAMILIES, ApproximatedGroup, kernel_refines
from .words import GroupAlgebraElement, Word, ball, l1_of

SNAPSHOT_FORMAT_VERSION = 1

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_RESOURCE_ERROR = 3


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format(v, ".12g")
    return str(v)


def _endpoint(v: float, rounding: str) -> str:
    """A bracket endpoint at the 12 digits _fmt prints, rounded outward
    (ROUND_FLOOR for a lower endpoint, ROUND_CEILING for an upper one)
    instead of to nearest, so the printed bracket still holds the norm.
    The rounded decimal has 12 digits, so its float prints back as it."""
    return _fmt(float(Context(prec=12, rounding=rounding).plus(Decimal(v))))


def _write_text(path: Path, text: str, what: str) -> None:
    """Writes text to path, making its parent; an OSError becomes an
    InputError naming the path."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    except OSError as e:
        raise InputError(f"cannot write {what} {path}: {e}") from e


def _write_report(config: ExperimentConfig, command: str,
                  fieldnames: list[str], rows: list[dict],
                  summary: dict) -> None:
    buf = io.StringIO()
    buf.write(f"# hlslab report: {command}\n")
    for k, v in config.header_items():
        buf.write(f"# config {k}={v}\n")
    writer = csv.DictWriter(buf, fieldnames=fieldnames, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: _fmt(v) for k, v in row.items()})
    for k in sorted(summary):
        buf.write(f"# result {k}={_fmt(summary[k])}\n")
    text = buf.getvalue()
    if config.out:
        _write_text(Path(config.out), text, "report")
    else:
        sys.stdout.write(text)


def _load_element(config: ExperimentConfig,
                  default: GroupAlgebraElement | None = None
                  ) -> GroupAlgebraElement:
    if config.element is None:
        if default is not None:
            return default
        raise InputError("an element is required (--element)")
    text = config.element.strip()
    if not text.startswith("["):
        try:
            text = Path(config.element).read_text()
        except OSError as e:
            raise InputError(f"cannot read element file: {e}") from e
    return GroupAlgebraElement.from_json(text, rank=config.rank)


def _base(config: ExperimentConfig) -> ApproximatedGroup:
    return ApproximatedGroup(config.family, cache_dir=config.cache_dir,
                             fiber_cap=config.fiber_cap,
                             hom_level_cap=config.hom_level_cap)


# -- subcommands --------------------------------------------------------------

def cmd_quotients(config: ExperimentConfig) -> int:
    base = _base(config)
    levels = range(1, config.n_max + 1)
    base.check_levels(levels)
    quotients = [base.quotient(n) for n in levels]
    sep_radii = base.check_separation(config.radius, config.n_max)
    rows = []
    failed = False
    for n, q in enumerate(quotients, start=1):
        ss_ok = q.verify_schreier_sims()
        nest_ok = (kernel_refines(quotients[n], q)
                   if n < config.n_max else True)
        if not (ss_ok and nest_ok):
            failed = True
            print(f"check failed at level {n} (schreier_sims_ok={ss_ok}, "
                  f"nesting_ok={nest_ok})", file=sys.stderr)
        rows.append({"level": n, "order": q.order, "degree": q.degree,
                     "schreier_sims_ok": ss_ok, "nesting_ok": nest_ok,
                     "separation_radius": sep_radii[n - 1]})
    _write_report(config, "quotients",
                  ["level", "order", "degree", "schreier_sims_ok",
                   "nesting_ok", "separation_radius"], rows,
                  {"all_checks_passed": not failed})
    return EXIT_CHECK_FAILED if failed else EXIT_OK


def _gap_row(level, order, bracket):
    return {"level": level, "order": order,
            "lower": _endpoint(bracket.lower, ROUND_FLOOR),
            "upper": _endpoint(bracket.upper, ROUND_CEILING),
            "provenance": f"{bracket.lower_provenance}|"
                          f"{bracket.upper_provenance}",
            "converged": bracket.converged}


def cmd_gap(config: ExperimentConfig) -> int:
    x = _load_element(config,
                      default=GroupAlgebraElement.generator_sum(config.rank))
    if not x.is_self_adjoint(tol=1e-12):
        raise InputError("gap experiment element must be self-adjoint")
    base = _base(config)
    levels = range(1, config.n_max + 1)
    base.check_levels(levels)
    for n in levels:  # build every level, then profile
        base.quotient(n)
    profile = gpd.norm_profile(gpd.FiberedFunction(base, x), config.n_max,
                               config.radius, config.ball_cap)
    ceiling, flagged = profile.gap(config.margin, config.infinity_ceiling)
    rows = [_gap_row(r.level, r.order, r.bracket) for r in profile.rows]
    rows.append(_gap_row("inf", "inf", profile.infinity))
    fields = ["level", "order", "lower", "upper", "provenance", "converged"]
    summary = {
        "sup_finite_lower": _endpoint(profile.sup_finite.lower, ROUND_FLOOR),
        "sup_finite_upper": _endpoint(profile.sup_finite.upper,
                                      ROUND_CEILING),
        "infinity_lower": _endpoint(profile.infinity.lower, ROUND_FLOOR),
        "infinity_upper": _endpoint(profile.infinity.upper, ROUND_CEILING),
        "infinity_ceiling_used": _endpoint(ceiling, ROUND_CEILING),
        "infinity_converged": profile.infinity.converged,
        # |sum of coefficients|: the norm in the trivial representation,
        # a lower bound for the maximal norm, rounded down like level 1's
        "trivial_representation_lower": _endpoint(
            l1_of({0: x.sum_of_coefficients()})[0], ROUND_FLOOR),
        "l1_upper": _endpoint(x.l1_norm(), ROUND_CEILING),
        "monotone_ok": profile.monotone_ok,
        "gap_margin": config.margin,
        "gap_flagged": flagged,
    }
    _write_report(config, "gap", fields, rows, summary)
    return EXIT_OK if profile.monotone_ok else EXIT_CHECK_FAILED


def _parse_kset(config: ExperimentConfig) -> list:
    if config.kset is None:
        letters = "ab"[: config.rank]
        return [("inf", Word.parse(c, config.rank)) for c in letters]
    try:
        raw = json.loads(config.kset)
    except json.JSONDecodeError as e:
        raise InputError(f"bad K set JSON: {e}") from e
    if not isinstance(raw, list):
        raise InputError("a K set must be a JSON list of [level, word] pairs")
    out = []
    for pair in raw:
        if not (isinstance(pair, list) and len(pair) == 2):
            raise InputError(f"bad K set entry {pair!r}: expected [level, "
                             "word]")
        level, word_s = pair
        if isinstance(level, str) and level.isdecimal():
            level = int(level)
        if level != "inf" and not (type(level) is int and level >= 1):
            raise InputError(f"bad K set level {pair[0]!r}: expected \"inf\" "
                             "or an integer >= 1")
        out.append((level, Word.parse(word_s, config.rank)))
    return out


def cmd_amen(config: ExperimentConfig) -> int:
    xi = _load_element(config)
    kset = _parse_kset(config)
    cert = gpd.certificate_from_folner(xi, _base(config), kset,
                                       config.epsilon)
    gpd.folner_from_certificate(cert)  # rejects degenerate certificates
    report = gpd.check_certificate(cert)
    rows = []
    for row in report.rows:
        level, g = row.element
        rows.append({"element_level": level,
                     "element": str(g),
                     "normalization_defect": float(row.normalization_defect),
                     "translation_defect": float(row.translation_defect)})
    summary = {
        "epsilon": config.epsilon,
        "worst_normalization_defect": float(report.worst_normalization),
        "worst_translation_defect": float(report.worst_translation),
        "passed": report.passed,
    }
    _write_report(config, "amen",
                  ["element_level", "element", "normalization_defect",
                   "translation_defect"], rows, summary)
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def _snapshot_path(config: ExperimentConfig) -> Path:
    return Path(config.cache_dir) / "snapshots" / "tau-congruence.json"


def _read_snapshot(path: Path) -> dict:
    """The values of a tau snapshot file, level -> recorded value; an
    InputError names the file unless it holds a snapshot of this format."""
    try:
        data = json.loads(path.read_text())
    except (OSError, ValueError) as e:
        raise InputError(f"bad tau snapshot {path}: {e}") from e
    if not (isinstance(data, dict)
            and data.get("format_version") == SNAPSHOT_FORMAT_VERSION):
        raise InputError(f"bad tau snapshot {path}: not a format "
                         f"{SNAPSHOT_FORMAT_VERSION} snapshot")
    values = data.get("values", {})
    if not (isinstance(values, dict)
            and all(type(v) in (int, float) and math.isfinite(v)
                    for v in values.values())):
        raise InputError(f"bad tau snapshot {path}: values must be finite "
                         "numbers")
    return values


def cmd_tau(config: ExperimentConfig) -> int:
    if config.rank < 2:
        raise InputError("the tau contrast needs a rank-2 family")
    if config.n_max < 2:
        raise InputError("the tau contrast starts at level 2: n_max >= 2")
    snap_path = _snapshot_path(config)
    recorded = {}  # read before any work, so a bad file fails fast
    if snap_path.exists() and not config.update_snapshots:
        recorded = _read_snapshot(snap_path)
    fd, cong = (_base(replace(config, family=f))
                for f in ("fd", "congruence"))
    levels = list(range(2, config.n_max + 1))
    fd.check_levels(levels)
    cong.check_levels(levels)
    for n in levels:
        fd.quotient(n)
        cong.quotient(n)
    fd_res = [gpd.tau_spectral_gap(fd, n) for n in levels]
    cong_res = [gpd.tau_spectral_gap(cong, n) for n in levels]
    cong_vals = [cv for cv, _ in cong_res]
    rows = [{"level": n, "fd_second_eigenvalue": fv,
             "congruence_second_eigenvalue": cv}
            for n, (fv, _), (cv, _) in zip(levels, fd_res, cong_res)]
    snapshot_ok = True
    for n, cv in zip(levels, cong_vals):
        old = recorded.get(str(n))
        if old is not None and abs(old - cv) > 1e-6:
            snapshot_ok = False
            print(f"tau snapshot mismatch at level {n}: "
                  f"recorded {old}, computed {cv}", file=sys.stderr)
    new_values = dict(recorded)
    new_values.update({str(n): cv for n, cv in zip(levels, cong_vals)})
    if config.update_snapshots or not snap_path.exists():
        _write_text(snap_path, json.dumps(
            {"format_version": SNAPSHOT_FORMAT_VERSION, "values": new_values},
            sort_keys=True), "tau snapshot")
    _write_report(config, "tau",
                  ["level", "fd_second_eigenvalue",
                   "congruence_second_eigenvalue"],
                  rows, {"snapshot_ok": snapshot_ok,
                         "converged": all(c for _, c in fd_res + cong_res)})
    return EXIT_OK if snapshot_ok else EXIT_CHECK_FAILED


def cmd_convolve_check(config: ExperimentConfig) -> int:
    """Randomized *-algebra property suite in exact rational arithmetic."""
    base = _base(config)
    rng = random.Random(2024)
    levels = [1, 2] if config.family == "fd" else [1, 2, 3]
    words = ball(2, config.rank)
    failures = []
    n_cases = 60

    def random_element():
        return GroupAlgebraElement.from_pairs(
            [(rng.choice(words), Fraction(rng.randint(-3, 3), rng.randint(1, 4)))
             for _ in range(3)], rank=config.rank)

    def random_fibered():
        tail = random_element() if rng.random() < 0.7 else \
            GroupAlgebraElement.zero(config.rank)
        top = rng.choice(levels) + 1
        overrides = {}
        for n in range(1, top):
            if rng.random() < 0.6:
                q = base.quotient(n)
                overrides[n] = {rng.randrange(q.order):
                                Fraction(rng.randint(-2, 2), rng.randint(1, 3))
                                for _ in range(2)}
        return gpd.FiberedFunction(base, tail, top, overrides)

    for i in range(n_cases):
        f, g, h = random_fibered(), random_fibered(), random_fibered()
        lhs = gpd.convolve_fibered(gpd.convolve_fibered(f, g), h)
        rhs = gpd.convolve_fibered(f, gpd.convolve_fibered(g, h))
        if not lhs.same_function(rhs):
            failures.append(f"associativity case {i}")
        star = gpd.adjoint_fibered(gpd.convolve_fibered(f, g))
        split = gpd.convolve_fibered(gpd.adjoint_fibered(g),
                                     gpd.adjoint_fibered(f))
        if not star.same_function(split):
            failures.append(f"involution case {i}")
    rows = [{"check": "associativity", "cases": n_cases,
             "passed": not any("assoc" in f for f in failures)},
            {"check": "involution", "cases": n_cases,
             "passed": not any("invol" in f for f in failures)}]
    for f in failures:
        print(f"FAILED: {f}", file=sys.stderr)
    _write_report(config, "convolve-check", ["check", "cases", "passed"],
                  rows, {"all_checks_passed": not failures})
    return EXIT_OK if not failures else EXIT_CHECK_FAILED


# -- argument parsing ----------------------------------------------------------

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", choices=FAMILIES,
                   help="approximating sequence family")
    p.add_argument("--n-max", type=int, dest="n_max",
                   help="deepest quotient level")
    p.add_argument("--radius", type=int,
                   help="truncation / separation radius")
    p.add_argument("--margin", type=float, help="gap flag margin")
    p.add_argument("--cache-dir", dest="cache_dir",
                   help="quotient cache directory (env HLSLAB_CACHE)")
    p.add_argument("--out", help="write the CSV report here (default stdout)")
    p.add_argument("--element",
                   help="group algebra element: inline JSON or a file path")
    p.add_argument("--epsilon", type=float, help="certificate tolerance")
    p.add_argument("--kset",
                   help='compact set for amen: JSON like [["inf","a"],[3,"b"]]')
    p.add_argument("--fiber-cap", type=int, dest="fiber_cap",
                   help="max quotient order")
    p.add_argument("--ball-cap", type=int, dest="ball_cap",
                   help="max points the infinity truncation stores: ball "
                        "words, or radius + 1 on the radial path")
    p.add_argument("--hom-level-cap", type=int, dest="hom_level_cap",
                   help="max level for kernel enumeration")
    p.add_argument("--infinity-ceiling", type=float, dest="infinity_ceiling",
                   help="external analytic upper bound for the infinity fiber")
    p.add_argument("--update-snapshots", action="store_true", default=None,
                   dest="update_snapshots",
                   help="regenerate recorded tau snapshots")


COMMANDS = {
    "quotients": cmd_quotients,
    "gap": cmd_gap,
    "amen": cmd_amen,
    "tau": cmd_tau,
    "convolve-check": cmd_convolve_check,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="hlslab",
        description="HLS groupoids at desk scale: quotient towers, norm "
                    "brackets, amenability certificates.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__)
        _add_common(p)
    args = parser.parse_args(argv)
    try:
        config = ExperimentConfig(**{k: v for k, v in vars(args).items()
                                     if k != "command" and v is not None})
        return COMMANDS[args.command](config)
    except InputError as e:
        print(f"input error: {e}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except ResourceError as e:
        print(f"resource error: {e}", file=sys.stderr)
        return EXIT_RESOURCE_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
