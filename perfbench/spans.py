"""Traced in-process run and standalone probes: the per-layer metrics.

Span recorders wrap the public entry points each mgstrat module binds, so
the program itself carries no tracing code:

- ``mgstrat.cli``: ``main`` (layer ``cli``), ``run`` (``engine``),
  ``solve_lambda`` (``solver``), ``expected_payoffs`` (``payoff``),
  ``kpr_run`` (``kpr``) and the ``stats`` functions it calls;
- ``mgstrat.engine``: ``LambdaTable`` (``solver``);
- ``mgstrat.solver`` and ``mgstrat.payoff``: every ``dist`` kernel they
  import (``dist``).

A missing entry point raises at patch time, and an expected one that
recorded no span raises after the run, so a rename cannot silently drop a
layer from the numbers.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterator

_STATS_SPANS = {
    "c_autocorrelation": "stats.c_autocorr_s",
    "s_autocorrelation": "stats.s_autocorr_s",
    "inefficiency_eta": "stats.eta_s",
    "episode_lengths": "stats.episode_s",
    "delta_histogram": "stats.hist_s",
}


def _count_run(counts: Counter, trajectory: Any) -> None:
    counts["engine.days"] += trajectory.days - 1
    counts["engine.resets"] += len(trajectory.reset_days)
    if trajectory.choice_matrix is not None:
        counts["engine.choice_bytes"] += trajectory.choice_matrix.nbytes


def _count_kpr(counts: Counter, result: Any) -> None:
    counts["kpr.days"] += len(result.utilization) - 1
    counts["kpr.unconverged"] += result.convergence_day is None


class SpanRecorder:
    """In-memory spans ``[name, layer, start, end, parent index]`` and counts."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def wrap(
        self,
        name: str,
        layer: str,
        fn: Callable[..., Any],
        count: Callable[[Counter, Any], None] | None = None,
    ) -> Callable[..., Any]:
        def traced(*args: Any, **kwargs: Any) -> Any:
            parent = self._stack[-1] if self._stack else -1
            span = [name, layer, perf_counter(), 0.0, parent]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                self._stack.pop()
            if count is not None:
                count(self.counts, result)
            return result

        return traced

    def write(self, path: Path) -> None:
        path.write_text(
            json.dumps({"fields": ["name", "layer", "start", "end", "parent"],
                        "spans": self.spans}),
            encoding="utf-8",
        )


@contextlib.contextmanager
def patched(recorder: SpanRecorder) -> Iterator[None]:
    """Wrap every traced entry point for the duration of the block."""
    import mgstrat.cli as cli
    import mgstrat.dist as dist
    import mgstrat.engine as engine
    import mgstrat.payoff as payoff
    import mgstrat.solver as solver

    targets = [
        (cli, "main", "cli", None),
        (cli, "run", "engine", _count_run),
        (cli, "solve_lambda", "solver", None),
        (cli, "expected_payoffs", "payoff", None),
        (cli, "kpr_run", "kpr", _count_kpr),
        *((cli, name, "stats", None) for name in _STATS_SPANS),
        (engine, "LambdaTable", "solver", None),
    ]
    for module in (solver, payoff):
        for name, value in vars(module).items():
            if callable(value) and getattr(value, "__module__", None) == dist.__name__:
                targets.append((module, name, "dist", None))
    saved = []
    try:
        for module, name, layer, count in targets:
            original = getattr(module, name)
            saved.append((module, name, original))
            span_name = f"dist.{name}" if layer == "dist" else name
            setattr(module, name, recorder.wrap(span_name, layer, original, count))
        yield
    finally:
        for module, name, original in reversed(saved):
            setattr(module, name, original)


def clear_caches() -> None:
    """Empty every ``lru_cache`` in mgstrat, as a fresh process would have it."""
    import mgstrat.cli  # noqa: F401  (imports every module)

    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("mgstrat"):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


def traced_pass(recorder: SpanRecorder, argvs: list[list[str]]) -> list[int]:
    """Run each argv through ``mgstrat.cli.main`` in-process, traced; exit codes."""
    import mgstrat.cli as cli

    codes = []
    with patched(recorder):
        for argv in argvs:
            clear_caches()
            with contextlib.redirect_stdout(io.StringIO()):
                codes.append(cli.main(argv))
    return codes


def check_coverage(recorder: SpanRecorder, expect: tuple[str, ...]) -> None:
    """Raise unless every expected span name (or layer) recorded a span."""
    seen = {span[0] for span in recorder.spans} | {span[1] for span in recorder.spans}
    missing = [name for name in expect if name not in seen]
    if missing:
        raise RuntimeError(f"traced run recorded no span for {missing}")


def span_metrics(recorder: SpanRecorder) -> tuple[dict[str, float], float]:
    """Per-layer times and counts from the recorded spans, and cli.main's wall.

    Self time is a span's duration minus that of its direct children.
    """
    spans = recorder.spans
    children = [0.0] * len(spans)
    for _, _, start, end, parent in spans:
        if parent >= 0:
            children[parent] += end - start
    total: Counter = Counter()
    own: Counter = Counter()
    calls: Counter = Counter()
    for index, (name, layer, start, end, _) in enumerate(spans):
        total[name] += end - start
        own[name] += end - start - children[index]
        calls[layer] += 1
    main_children = sum(c for c, s in zip(children, spans) if s[0] == "main")
    metrics = {
        "cli.self_s": own["main"],
        "trace.coverage_frac": main_children / total["main"],
        "solver.solve_s": total["solve_lambda"] + total["LambdaTable"],
        "solver.calls": calls["solver"],
        "dist.self_s": sum(own[n] for n in own if n.startswith("dist.")),
        "dist.calls": calls["dist"],
        "payoff.expected_payoffs_s": total["expected_payoffs"],
        "engine.run_s": own["run"],
        "kpr.run_s": total["kpr_run"],
    }
    metrics.update({metric: total[name] for name, metric in _STATS_SPANS.items()})
    for name in ("engine.days", "engine.resets", "engine.choice_bytes",
                 "kpr.days", "kpr.unconverged"):
        metrics[name] = recorder.counts[name]
    return metrics, total["main"]


def _median_seconds(fn: Callable[[], Any], reps: int) -> float:
    times = []
    for _ in range(reps):
        start = perf_counter()
        fn()
        times.append(perf_counter() - start)
    return statistics.median(times)


def import_seconds(python: str, env: dict[str, str], reps: int) -> float:
    """Median time a fresh interpreter spends in ``import mgstrat.cli``."""
    code = ("import time; t = time.perf_counter(); import mgstrat.cli; "
            "print(time.perf_counter() - t)")
    return statistics.median(
        float(subprocess.run([python, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout)
        for _ in range(reps)
    )


def probe_metrics(seed: int, reps: int) -> dict[str, float]:
    """Standalone timings of single public calls, each a median of ``reps``."""
    from mgstrat import dist, engine, kpr, solver, stats

    metrics: dict[str, float] = {}

    for delta in (10, 1000):
        def cold_root() -> None:
            clear_caches()
            solver.solve_lambda(delta)
        metrics[f"solver.root_ms.d{delta}"] = 1e3 * _median_seconds(cold_root, reps)

    batch = 100
    metrics["dist.poisson_cdf_us.l1000"] = 1e6 / batch * _median_seconds(
        lambda: [dist.poisson_cdf(1000, 1000.0) for _ in range(batch)], reps)

    days = 2000
    for n, record, name in ((2001, False, "engine.days_per_s.n2001"),
                            (20001, False, "engine.days_per_s.n20001"),
                            (2001, True, "engine.record_days_per_s.n2001")):
        config = engine.StrategyConfig(n=n, seed=seed)
        engine.run(config, 1)  # builds the lambda table outside the timing
        metrics[name] = days / _median_seconds(
            lambda: engine.run(config, days, record_choices=record), reps)

    choices = engine.run(engine.StrategyConfig(n=2001, seed=seed), days,
                         record_choices=True).choice_matrix
    tracemalloc.start()
    try:
        stats.c_autocorrelation(choices, 10)
        metrics["stats.c_autocorr_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()

    for n, kpr_days in ((64, 400), (1024, 30), (4096, 8)):
        start_state = kpr.kpr_init(n, engine.derive_rng(seed, n))

        def kpr_days_run() -> None:
            rng = engine.derive_rng(seed, n, 1)
            state = start_state
            for _ in range(kpr_days):
                state = kpr.kpr_step(state, rng)

        metrics[f"kpr.days_per_s.n{n}"] = kpr_days / _median_seconds(kpr_days_run, reps)
    return metrics
