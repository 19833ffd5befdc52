"""hlslab benchmark: paper workloads run as fresh CLI processes.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all     # every workload, one table

Each run sets the workload up at least SETUP_REPS times and for at least
SETUP_MIN_S (empty work directory, import warm-up, quotient-cache warm-up,
generated inputs) and reports the median as setup_s.  It then runs samples
for --seconds: one sample is every CLI invocation of the workload, each in
a fresh interpreter (`python3 -m hlslab.cli`).  Every report is checked
against the oracles in oracles.py and must be byte-identical to the run's
first report for that invocation.

--trace 0 prints the end-to-end metrics: median sample wall time, median
of each sample's largest peak RSS, and setup_s.  --trace 1 alternates
untraced samples with traced ones (traced_cli.py, spans around each
layer's public functions) and prints the per-layer metrics: medians over
traced samples, plus cli.trace_overhead_s, the traced minus the untraced
median wall time.  Failed samples count in `failed`; failed_frac is
printed in the summary line.

The last line of standard output is the JSON result.  Work files, reports
and span files go to perfbench/.work/<workload>/.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import shutil
import signal
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median, quantiles

import tracing
from launcher import Launcher
from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
SETUP_REPS = 5           # set-up runs at least this often ...
SETUP_MIN_S = 2.0        # ... and until this much time has gone into it
MIN_SAMPLES = 3          # untraced samples per --trace 0 run
PROCESS_TIMEOUT_S = 120
RUN_LIMIT_S = 150        # stop sampling past this, whatever --seconds says

END_TO_END = {
    "wall_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "setup_s": ("s", "lower"),
}


@dataclass
class Proc:
    rc: int
    wall_s: float
    cpu_s: float
    rss_mb: float


@dataclass
class Sample:
    traced: bool
    procs: list[Proc] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    layer: dict | None = None
    import_s: list[float] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(p.wall_s for p in self.procs)

    @property
    def cpu_s(self) -> float:
        return sum(p.cpu_s for p in self.procs)

    @property
    def rss_mb(self) -> float:
        return max(p.rss_mb for p in self.procs)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    env["HLSLAB_CACHE"] = str(WORK / "unused-cache")
    return env


def hlslab_cmd(argv: list[str]) -> list[str]:
    return [sys.executable, "-m", "hlslab.cli", *argv]


class Run:
    def __init__(self, wl: Workload, seed: int, launcher: Launcher):
        self.wl = wl
        self.seed = seed
        self.launcher = launcher
        self.dir = WORK / wl.name
        self.cache = self.dir / "cache"
        self.log = self.dir / "stderr.log"
        self.reference: list[bytes] | None = None

    def run_process(self, cmd: list[str]) -> Proc:
        return Proc(**self.launcher.run(cmd, child_env(), str(ROOT),
                                        str(self.log), PROCESS_TIMEOUT_S))

    def setup_once(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        (self.dir / "inputs").mkdir(parents=True)
        # interpreter, numpy and hlslab off disk and compiled before timing
        proc = self.run_process([sys.executable, "-c", "import hlslab.cli"])
        if proc.rc != 0:
            raise RuntimeError("cannot import hlslab")
        self.invocations, self.ctx = self.wl.prepare(self.seed,
                                                     self.dir / "inputs")
        for argv in self.wl.warm:
            proc = self.run_process(
                hlslab_cmd(argv + ["--cache-dir", str(self.cache)]))
            if proc.rc != 0:
                raise RuntimeError(f"set-up step {argv} exited {proc.rc}")

    def setup(self) -> list[float]:
        times: list[float] = []
        while len(times) < SETUP_REPS or sum(times) < SETUP_MIN_S:
            t0 = time.perf_counter()
            self.setup_once()
            times.append(time.perf_counter() - t0)
        self.ctx = self.wl.expect(self.ctx)
        return times

    def sample(self, index: int, traced: bool) -> Sample:
        if self.wl.cold:
            shutil.rmtree(self.cache, ignore_errors=True)
        s = Sample(traced)
        reports, spans = [], []
        for i, argv in enumerate(self.invocations):
            out = self.dir / f"report-{index}-{i}.csv"
            full = argv + ["--cache-dir", str(self.cache), "--out", str(out)]
            if traced:
                span_file = self.dir / f"spans-{index}-{i}.jsonl"
                cmd = [sys.executable, str(HERE / "traced_cli.py"),
                       str(span_file), f"{self.wl.name}/{index}", "--", *full]
            else:
                cmd = hlslab_cmd(full)
            proc = self.run_process(cmd)
            s.procs.append(proc)
            if proc.rc != 0:
                s.errors.append(f"invocation {i} exited {proc.rc}")
                return s
            reports.append(out.read_bytes())
            if traced:
                head, *lines = span_file.read_text().splitlines()
                meta = json.loads(head)
                s.import_s.append(meta["import_s"])
                if meta["skipped"]:
                    print(f"untraced (missing) points: {meta['skipped']}",
                          file=sys.stderr)
                for line in lines:
                    d = json.loads(line)
                    # ids are per process; keep them distinct across processes
                    base = i * 10**9
                    spans.append([base + d["id"],
                                  None if d["parent"] is None
                                  else base + d["parent"],
                                  d["name"], d["start"], d["end"], d["attrs"]])
        if self.reference is None:
            self.reference = reports
        elif reports != self.reference:
            s.errors.append("report bytes differ from the run's first report")
        s.errors += self.wl.check([r.decode() for r in reports], self.ctx)
        if traced:
            s.layer = tracing.span_metrics(spans)
        return s

    def measure(self, seconds: float, trace: bool) -> list[Sample]:
        """Samples until the next one would end past `seconds` (or past
        RUN_LIMIT_S), but at least MIN_SAMPLES untraced ones, or one of
        each kind with trace."""
        samples: list[Sample] = []
        t0 = time.perf_counter()
        while True:
            traced = trace and len(samples) % 2 == 1
            s = self.sample(len(samples), traced)
            samples.append(s)
            print(f"sample {len(samples) - 1} traced={traced} "
                  f"wall_s={s.wall_s:.4f} errors={s.errors}", file=sys.stderr)
            elapsed = time.perf_counter() - t0
            n_plain = sum(not x.traced for x in samples)
            n_traced = len(samples) - n_plain
            enough = (n_plain >= 1 and n_traced >= 1) if trace \
                else n_plain >= MIN_SAMPLES
            next_end = elapsed + median(x.wall_s for x in samples)
            if (next_end > seconds and enough) or elapsed > RUN_LIMIT_S:
                return samples


def metadata() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = quantiles(values, n=4)
    return f"n={len(values)}, quartiles {q1:.4g}..{q3:.4g}"


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool,
                 launcher: Launcher) -> dict:
    run = Run(wl, seed, launcher)
    setup_times = run.setup()
    samples = run.measure(seconds, trace)
    plain = [s for s in samples if not s.traced]
    failed = sum(bool(s.errors) for s in samples)
    walls = [s.wall_s for s in plain]
    print(f"{wl.name} seed={seed}: wall_s {median(walls):.4f} s "
          f"({spread(walls)}); peak_rss_mb "
          f"{median(s.rss_mb for s in plain):.1f} MB (n={len(plain)}); "
          f"setup_s {median(setup_times):.4f} s ({spread(setup_times)}); "
          f"failed_frac {failed}/{len(samples)}")
    if trace:
        traced = [s for s in samples if s.layer is not None]
        if not traced:
            raise RuntimeError("no traced sample completed")
        layer = tracing.median_metrics([s.layer for s in traced])
        layer["cli.import_s"] = median(x for s in traced for x in s.import_s)
        layer["cli.cpu_s"] = median(s.cpu_s for s in plain)
        layer["cli.trace_overhead_s"] = (median(s.wall_s for s in traced)
                                         - median(walls))
        units = {**{k: v[0] for k, v in tracing.SPAN_METRICS.items()},
                 **{k: v[0] for k, v in tracing.RUN_METRICS.items()}}
        metrics = {k: {"value": v, "unit": units[k]}
                   for k, v in sorted(layer.items())}
    else:
        values = {"wall_s": median(walls),
                  "peak_rss_mb": median(s.rss_mb for s in plain),
                  "setup_s": median(setup_times)}
        metrics = {k: {"value": v, "unit": END_TO_END[k][0]}
                   for k, v in values.items()}
    return {"correct": failed == 0, "attempted": len(samples),
            "failed": failed, "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "hlslab" / "cli.py").is_file():
        print(f"hlslab sources not found under {SRC}", file=sys.stderr)
        return 2
    # a terminated run still closes the launcher, which stops its child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    print(json.dumps({"metadata": metadata()}), file=sys.stderr)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    with Launcher() as launcher:
        for name in names:
            try:
                results[name] = run_workload(WORKLOADS[name], args.seed,
                                             args.seconds, bool(args.trace),
                                             launcher)
            except RuntimeError as e:
                print(f"{name}: {e}", file=sys.stderr)
                return 1
    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {"correct": all(r["correct"] for r in results.values()),
                  "attempted": sum(r["attempted"] for r in results.values()),
                  "failed": sum(r["failed"] for r in results.values()),
                  "metrics": {f"{n}.{k}": v for n, r in results.items()
                              for k, v in r["metrics"].items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
