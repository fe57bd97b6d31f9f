"""The benchmark's trace hooks still find every entry point they wrap."""

from pathlib import Path

import mgstrat.cli as cli
import mgstrat.engine as engine

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_trace_hooks_patch_and_restore(monkeypatch):
    # patched() raises when a traced name (cli.run, engine.LambdaTable, a
    # dist kernel bound in solver or payoff, ...) is renamed or deleted.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    main, table = cli.main, engine.LambdaTable
    with spans.patched(spans.SpanRecorder()):
        assert cli.main is not main and engine.LambdaTable is not table
    assert cli.main is main and engine.LambdaTable is table


def test_benchmark_probes_run_against_the_library(monkeypatch):
    # probe_metrics calls the library directly (a recorded run, its choice
    # matrix, c_autocorrelation on it, kpr_init and kpr_step), so a change
    # that breaks a probe fails here too.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    metrics = spans.probe_metrics(7, 1)
    assert all(value > 0 for value in metrics.values()), metrics


def test_every_workload_records_its_expected_spans(monkeypatch, tmp_path):
    # The benchmark's traced pass fails a workload whose expected spans (say
    # eta-sweep's LambdaTable or a dist kernel bound in solver) go missing;
    # this runs every workload's smoke calls the same way, in-process.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans
    import workloads

    for name, workload in workloads.WORKLOADS.items():
        argvs = [
            workloads.seeded(call, 7) + ["--outdir", str(tmp_path / name / str(index))]
            for index, call in enumerate(workload.smoke_calls)
        ]
        recorder = spans.SpanRecorder()
        assert spans.traced_pass(recorder, argvs) == [0] * len(argvs), name
        for argv in argvs:
            assert workloads.check_outputs(argv, Path(argv[-1])) == [], argv
        spans.check_coverage(recorder, workload.expect)
