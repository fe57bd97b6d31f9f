"""Workloads of the mgstrat benchmark and the checks on their outputs.

A workload is a fixed list of ``mgstrat`` CLI calls.  The benchmark seed is
appended as ``--seed`` to every call whose subcommand takes one
(``solve-lambda`` and ``payoff-table`` are deterministic and take none).

The checks hold for any random stream: they test exact identities, an
independent oracle, and orderings whose margins dwarf the sampling noise,
never particular simulated values.  A call whose checks return any message
counts as failed.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

SEEDED_SUBCOMMANDS = frozenset({"simulate", "sweep", "kpr"})


@dataclass(frozen=True)
class Workload:
    calls: tuple[tuple[str, ...], ...]
    smoke_calls: tuple[tuple[str, ...], ...]
    # Span names (or layer names, for "dist") that the traced run must record.
    expect: tuple[str, ...]


# Why each workload exists is recorded next to its name in BENCHMARK.json.
WORKLOADS: dict[str, Workload] = {
    "eta-sweep": Workload(
        calls=(
            ("sweep", "--n", "20001", "--epsilons", "0.3,0.5,0.7",
             "--seeds", "2", "--steps", "10000"),
        ),
        smoke_calls=(
            ("sweep", "--n", "201", "--epsilons", "0.3,0.5,0.7",
             "--seeds", "2", "--steps", "500"),
        ),
        expect=("run", "LambdaTable", "inefficiency_eta", "dist"),
    ),
    "choice-stats": Workload(
        calls=(
            ("simulate", "--n", "2001", "--steps", "10000",
             "--stats", "--tau-max", "100"),
        ),
        smoke_calls=(
            ("simulate", "--n", "101", "--steps", "300",
             "--stats", "--tau-max", "10"),
        ),
        expect=(
            "run", "LambdaTable", "inefficiency_eta", "episode_lengths",
            "delta_histogram", "s_autocorrelation", "c_autocorrelation", "dist",
        ),
    ),
    "rate-tables": Workload(
        calls=(
            ("solve-lambda", "--delta-max", "2000"),
            ("payoff-table", "--delta-max", "1000"),
        ),
        smoke_calls=(
            ("solve-lambda", "--delta-max", "50"),
            ("payoff-table", "--delta-max", "20"),
        ),
        expect=("solve_lambda", "expected_payoffs", "dist"),
    ),
    "kpr-converge": Workload(
        calls=(("kpr", "--n", "1024", "--seeds", "100"),),
        smoke_calls=(("kpr", "--n", "32", "--seeds", "5"),),
        expect=("kpr_run",),
    ),
}


def seeded(call: tuple[str, ...], seed: int) -> list[str]:
    """The CLI argv of one call, with the seed appended where it applies."""
    argv = list(call)
    if argv[0] in SEEDED_SUBCOMMANDS:
        argv += ["--seed", str(seed)]
    return argv


def _read_csv(path: Path) -> dict[str, list[float]]:
    """Columns of one of the CLI's CSV files, skipping its ``#`` header lines."""
    with path.open(encoding="utf-8") as handle:
        rows = list(csv.reader(line for line in handle if not line.startswith("#")))
    header, body = rows[0], rows[1:]
    return {name: [float(row[i]) for row in body] for i, name in enumerate(header)}


@lru_cache(maxsize=None)
def _oracle_lambda(delta: int) -> float:
    """The cheat-proof rate from scipy's Poisson CDF, independent of mgstrat."""
    from scipy.optimize import brentq
    from scipy.special import pdtr
    from scipy.stats import poisson

    def residual(lam: float) -> float:
        return 2.0 * pdtr(delta - 1, lam) - 1.0 + poisson.pmf(delta, lam)

    return brentq(residual, delta, delta + 1, xtol=1e-12)


def _lambda_errors(table: dict[str, list[float]]) -> list[str]:
    for delta, lam in zip(table["delta"], table["lambda"]):
        if abs(lam - _oracle_lambda(int(delta))) > 1e-6:
            return [f"lambda({int(delta)}) = {lam} disagrees with the oracle"]
    return []


def _check_solve_lambda(outdir: Path, params: dict) -> list[str]:
    table = _read_csv(outdir / "lambda_table.csv")
    errors: list[str] = []
    if table["delta"] != [float(d) for d in range(1, params["delta_max"] + 1)]:
        errors.append("lambda_table.csv does not list delta = 1..delta_max")
        return errors
    errors += _lambda_errors(table)
    if abs(table["gap"][-1] - 1.0 / 6.0) > 1e-3:
        errors.append(f"gap at delta_max is {table['gap'][-1]}, not about 1/6")
    return errors


def _check_payoff_table(outdir: Path, params: dict) -> list[str]:
    table = _read_csv(outdir / "payoff_table.csv")
    errors: list[str] = []
    if len(table["delta"]) != params["delta_max"]:
        errors.append("payoff_table.csv has the wrong number of rows")
        return errors
    errors += _lambda_errors(table)
    for thin, crowd, switch in zip(
        table["thin_stay"], table["crowd_stay"], table["crowd_switch"]
    ):
        if abs(thin + crowd - 1.0) > 1e-9:
            errors.append("thin_stay + crowd_stay != 1")
            break
        if abs(crowd - switch) > 1e-8:
            errors.append("crowd_stay != crowd_switch at the cheat-proof rate")
            break
    return errors


def _check_sweep(outdir: Path, params: dict) -> list[str]:
    table = _read_csv(outdir / "sweep.csv")
    etas = [eta for _, eta in sorted(zip(table["epsilon"], table["eta_mean"]))]
    errors: list[str] = []
    if len(etas) != len(params["epsilons"]):
        errors.append("sweep.csv has the wrong number of rows")
    if any(b <= a for a, b in zip(etas, etas[1:])):
        errors.append(f"eta does not increase with epsilon: {etas}")
    if not all(0.0 < eta < 1.0 for eta in etas):
        errors.append(f"eta outside (0, 1): {etas}")
    return errors


def _check_simulate(outdir: Path, params: dict) -> list[str]:
    errors: list[str] = []
    rows = len(_read_csv(outdir / "trajectory.csv")["day"])
    if rows != params["steps"] + 1:
        errors.append(f"trajectory.csv has {rows} rows, expected steps + 1")
    for name in ("c_autocorr.csv", "s_autocorr.csv"):
        values = _read_csv(outdir / name)["value"]
        if len(values) != params["tau_max"] + 1:
            errors.append(f"{name} has the wrong number of lags")
        elif values[0] != 1.0 or any(abs(v) > 1.0 for v in values):
            errors.append(f"{name}: lag 0 is not 1 or some |value| > 1")
    total = math.fsum(_read_csv(outdir / "delta_hist.csv")["frequency"])
    if abs(total - 1.0) > 1e-9:
        errors.append(f"delta_hist.csv frequencies sum to {total}")
    return errors


def _check_kpr(outdir: Path, params: dict) -> list[str]:
    table = _read_csv(outdir / "kpr_runs.csv")
    errors: list[str] = []
    if len(table["seed_index"]) != params["seeds"]:
        errors.append("kpr_runs.csv has the wrong number of rows")
    if any(day < 0 for day in table["convergence_day"]):
        errors.append("some seed did not converge")
    if any(u != 1.0 for u in table["final_utilization"]):
        errors.append("some seed ended below full utilization")
    return errors


_CHECKS = {
    "solve-lambda": _check_solve_lambda,
    "payoff-table": _check_payoff_table,
    "sweep": _check_sweep,
    "simulate": _check_simulate,
    "kpr": _check_kpr,
}


def check_outputs(argv: list[str], outdir: Path) -> list[str]:
    """Messages for every check the outputs of one CLI call fail; empty if none."""
    try:
        manifest = json.loads((outdir / "manifest.json").read_text(encoding="utf-8"))
        missing = [name for name in manifest["outputs"] if not (outdir / name).is_file()]
        if missing:
            return [f"missing outputs: {missing}"]
        return _CHECKS[argv[0]](outdir, manifest["params"])
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"unreadable outputs: {exc!r}"]
