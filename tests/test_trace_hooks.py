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
