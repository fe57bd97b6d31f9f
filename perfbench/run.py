"""Benchmark of the mgstrat CLI, end to end and layer by layer.

    python3 perfbench/run.py --workload eta-sweep --seed 1 --seconds 24 --trace 0

``--trace 0`` runs the workload's CLI calls (see ``workloads.py``) as fresh
``python -m mgstrat.cli`` processes against ``src/``, one at a time, in
closed-loop passes until ``--seconds`` have gone, and reports medians over
the passes:

- ``wall_s``: wall time of one pass, i.e. what a user waits for the files;
- ``setup_s``: wall time of ``mgstrat --version`` in a fresh process
  (interpreter start, imports, parser), sampled once before each pass;
- ``peak_rss_mb``: the largest max-RSS among the pass's processes;
- ``ok_frac``: CLI calls that exited 0 and passed their output checks,
  over calls attempted.

``--trace 1`` instead runs one untraced pass, one traced in-process pass
through ``mgstrat.cli.main`` and the standalone probes of ``spans.py``, and
reports the per-layer metrics.  ``--smoke`` swaps in tiny inputs and runs
each probe once; ``test_smoke.py`` uses it.

The last line of stdout is the JSON result; the line before it holds the
provenance and the raw samples.  Spans of a traced run are written to
``.perfbench-work/spans-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from spans import (SpanRecorder, check_coverage, import_seconds, probe_metrics,
                   span_metrics, traced_pass)
from workloads import WORKLOADS, check_outputs, seeded

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
DEFAULT_SEED = 1
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def load_package():
    """Import mgstrat from this checkout's ``src/``, refusing any other copy."""
    sys.path.insert(0, str(SRC))
    try:
        import mgstrat
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import mgstrat from {SRC}: {exc}")
    where = Path(mgstrat.__file__).resolve()
    if not where.is_relative_to(SRC.resolve()):
        raise SystemExit(f"perfbench: mgstrat resolves to {where}, not under {SRC}")
    return mgstrat


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(mgstrat, seed: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mgstrat": mgstrat.__version__,
        "mgstrat_file": mgstrat.__file__,
        "commit": git_commit(),
        "seed": seed,
        "thread_env": {name: os.environ.get(name) for name in THREAD_ENV},
    }


def unit_of(metric: str) -> str:
    for marker, unit in (("days_per_s", "1/s"), ("_ms", "ms"), ("_us", "us"),
                         ("_mb", "MB"), ("_frac", "frac")):
        if marker in metric:
            return unit
    return "s" if metric.endswith("_s") else "count"


class Runner:
    """Runs CLI calls as fresh processes and checks what they write."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.workdir = Path(tempfile.mkdtemp(dir=WORK))
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        self.attempted = 0
        self.failed = 0
        self._launcher = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("launcher.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def close(self) -> None:
        self._launcher.stdin.close()
        self._launcher.wait()
        self._launcher.stdout.close()
        shutil.rmtree(self.workdir, ignore_errors=True)

    def child(self, argv: list[str]) -> tuple[float, float, int]:
        """(wall s, max RSS MB, exit code) of one ``python -m mgstrat.cli``."""
        request = {"argv": [sys.executable, "-m", "mgstrat.cli", *argv],
                   "cwd": str(ROOT), "env": self.env,
                   "stderr": str(self.workdir / "stderr.txt")}
        self._launcher.stdin.write(json.dumps(request) + "\n")
        self._launcher.stdin.flush()
        wall, rss_kib, code = json.loads(self._launcher.stdout.readline())
        return wall, rss_kib / 1024, code

    def setup_seconds(self) -> float:
        """Wall time of one ``mgstrat --version`` in a fresh process."""
        wall, _, code = self.child(["--version"])
        if code:
            raise SystemExit(f"perfbench: mgstrat --version exited {code}")
        return wall

    def record(self, argv: list[str], outdir: Path, code: int) -> None:
        """Count one call and whether its exit code and outputs pass."""
        self.attempted += 1
        if code:
            tail = (self.workdir / "stderr.txt").read_text(errors="replace")[-500:]
            errors = [f"exit code {code}: {tail}"]
        else:
            errors = check_outputs(argv, outdir)
        if errors:
            self.failed += 1
            print(f"perfbench: FAILED {' '.join(argv)}: {errors}", file=sys.stderr)

    def run_pass(self, calls) -> tuple[float, float]:
        """(summed wall s, largest max-RSS MB) of one pass over the calls."""
        wall = peak = 0.0
        for index, call in enumerate(calls):
            outdir = self.workdir / f"call{index}"
            shutil.rmtree(outdir, ignore_errors=True)
            argv = seeded(call, self.seed) + ["--outdir", str(outdir)]
            seconds, rss, code = self.child(argv)
            wall += seconds
            peak = max(peak, rss)
            self.record(argv, outdir, code)
        return wall, peak


def end_to_end(runner: Runner, calls, seconds: float):
    runner.setup_seconds()  # untimed: a fresh tree compiles its bytecode here
    samples = {"setup_s": [], "wall_s": [], "peak_rss_mb": []}
    start = perf_counter()
    while not samples["wall_s"] or perf_counter() - start < seconds:
        # One set-up sample per pass spreads them over the same period.
        samples["setup_s"].append(runner.setup_seconds())
        wall, peak = runner.run_pass(calls)
        samples["wall_s"].append(wall)
        samples["peak_rss_mb"].append(peak)
    metrics = {name: statistics.median(values) for name, values in samples.items()}
    metrics["ok_frac"] = 1.0 - runner.failed / runner.attempted
    return metrics, samples


def traced(runner: Runner, workload, calls, smoke: bool, name: str):
    reps = 1 if smoke else 3
    runner.setup_seconds()
    setup = statistics.median(runner.setup_seconds() for _ in range(reps))
    untraced_wall, _ = runner.run_pass(calls)

    recorder = SpanRecorder()
    outdirs = [runner.workdir / f"traced{i}" for i in range(len(calls))]
    argvs = [seeded(call, runner.seed) + ["--outdir", str(outdir)]
             for call, outdir in zip(calls, outdirs)]
    for argv, outdir, code in zip(argvs, outdirs, traced_pass(recorder, argvs)):
        runner.record(argv, outdir, code)
    recorder.write(WORK / f"spans-{name}.json")
    check_coverage(recorder, workload.expect)

    metrics, main_wall = span_metrics(recorder)
    metrics["cli.output_bytes"] = sum(
        path.stat().st_size for outdir in outdirs for path in outdir.iterdir())
    metrics["cli.import_s"] = import_seconds(sys.executable, runner.env, reps)
    metrics["trace.overhead_frac"] = (
        main_wall / (untraced_wall - len(calls) * setup) - 1.0)
    metrics.update(probe_metrics(runner.seed, reps))
    return metrics, {"setup_s": setup, "untraced_wall_s": untraced_wall}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the smoke test; no timing value")
    args = parser.parse_args()

    workload = WORKLOADS[args.workload]
    calls = workload.smoke_calls if args.smoke else workload.calls
    WORK.mkdir(exist_ok=True)
    runner = Runner(args.seed)  # before numpy is imported; see launcher.py
    try:
        mgstrat = load_package()
        if args.trace:
            metrics, samples = traced(runner, workload, calls, args.smoke, args.workload)
        else:
            metrics, samples = end_to_end(runner, calls, args.seconds)
    finally:
        runner.close()

    print(json.dumps({"provenance": provenance(mgstrat, args.seed), "samples": samples}))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
