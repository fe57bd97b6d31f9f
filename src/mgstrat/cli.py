"""``mgstrat``: command-line front end.

Subcommands: ``solve-lambda`` (tabulate cheat-proof switch-rate means),
``payoff-table`` (stay/switch winning probabilities at the solved rate),
``simulate`` (one crowd run, optionally with derived statistics),
``sweep`` (inefficiency versus epsilon over many seeds), and
``kpr`` (convergence of the ranked-restaurant cyclic strategy).

Every run resolves flags over config-file values over built-in defaults
into a manifest, then writes its outputs into one directory: data as CSV
whose first lines are ``#`` comments embedding the manifest hash, plus
``manifest.json`` and ``summary.json`` whose first key is that same hash.
Outputs are byte-deterministic: same subcommand, parameters, and package
version give identical files, whatever the output directory.

Exit codes: 0 success, 2 usage error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from . import __version__
from .engine import MODE_BASELINE, MODE_STRATEGY, StrategyConfig, check_record_size, derive_rng, run
from .kpr import kpr_run
from .payoff import expected_payoffs
from .solver import MAX_TOLERANCE, NumericError, solve_lambda
from .stats import (
    EpisodeStats,
    c_autocorrelation,
    delta_histogram,
    episode_lengths,
    inefficiency_eta,
    s_autocorrelation,
)

__all__ = [
    "RunManifest", "parse_config", "dispatch", "main", "cli_entry", "OUTDIR_ENV", "MAX_EPSILONS",
]

OUTDIR_ENV = "MGSTRAT_OUTDIR"

# Most values an epsilons range may expand to; checked before the list is built.
MAX_EPSILONS = 100_000


def _number(name: str, value: Any, kind: type) -> int | float:
    """``value`` as a finite int or float; ValueError naming ``name`` otherwise."""
    what = "an integer" if kind is int else "a finite number"
    try:
        finite = not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):  # not a number, or an int past float range
        finite = False
    if not finite or (kind is int and value != int(value)):
        raise ValueError(f"{name} must be {what}, got {value!r}")
    return kind(value)


def _epsilon_values(raw: Any) -> list[Any]:
    """The entries of a ``start:stop:step`` range, a comma list or a JSON list."""
    if isinstance(raw, list):
        values = raw
    elif isinstance(raw, str):
        try:
            parts = [float(p) for p in raw.replace(":", ",").split(",") if p.strip()]
        except ValueError:
            raise ValueError(f"epsilons must be numbers, got {raw!r}") from None
        if ":" in raw:
            if raw.count(":") != 2 or len(parts) != 3:
                raise ValueError(f"epsilons range must be start:stop:step, got {raw!r}")
            start, stop, step = (_number("epsilons", p, float) for p in parts)
            if step <= 0:
                raise ValueError(f"epsilons step must be positive, got {step}")
            count = math.floor(min((stop - start) / step, MAX_EPSILONS) + 1e-9) + 1
            if count > MAX_EPSILONS:
                raise ValueError(
                    f"epsilons range {raw!r} expands to more than {MAX_EPSILONS} values"
                )
            parts = [start + i * step for i in range(max(count, 0))]
        values = parts
    else:
        raise ValueError(f"epsilons must be a string or a list, got {raw!r}")
    if not values:
        raise ValueError(f"epsilons resolves to an empty list: {raw!r}")
    return values


@dataclass(frozen=True)
class Param:
    """One parameter of a subcommand, declared once.

    The declaration builds the ``--flag``, names the config-file key, gives
    the default and checks every value, whether it came from a flag or a
    file.  ``kind`` is int, float, bool (a bare on/off flag), str (one of
    ``choices``) or list (the epsilons syntax, bounded entry by entry).
    ``lo`` and ``hi`` are inclusive bounds, except that ``lo`` excludes
    itself when ``lo_open`` is set.
    """

    name: str
    kind: type
    default: Any
    help: str
    lo: float | None = None
    hi: float | None = None
    lo_open: bool = False
    choices: tuple[str, ...] = ()

    def bounds_text(self) -> str:
        if self.hi is not None:
            return f"lie in {'(' if self.lo_open else '['}{self.lo:g}, {self.hi:g}]"
        return f"be {'greater than' if self.lo_open else 'at least'} {self.lo:g}"

    def _bounded(self, value: int | float) -> int | float:
        low = self.lo is not None and (value <= self.lo if self.lo_open else value < self.lo)
        if low or (self.hi is not None and value > self.hi):
            raise ValueError(f"{self.name} must {self.bounds_text()}, got {value}")
        return value

    def coerce(self, value: Any) -> Any:
        """``value`` as this parameter's type; ValueError naming the key otherwise."""
        if self.kind is bool:
            if not isinstance(value, bool):
                raise ValueError(f"{self.name} must be true or false, got {value!r}")
            return value
        if self.kind is str:
            if value not in self.choices:
                raise ValueError(
                    f"{self.name} must be one of {', '.join(self.choices)}, got {value!r}"
                )
            return value
        if self.kind is list:
            return [
                self._bounded(round(_number(self.name, v, float), 12))
                for v in _epsilon_values(value)
            ]
        return self._bounded(_number(self.name, value, self.kind))


_N = Param("n", int, 2001, "population size, odd", lo=1)
_STEPS = Param("steps", int, 10000, "days simulated after day 0", lo=1)
_SEED = Param("seed", int, 1, "master random seed", lo=0)
_WAIT_T = Param("wait_t", int, 0, "marginal days before a reset", lo=0)
_PREFACTOR = Param(
    "reset_prefactor", float, 0.5, "reset flip probability is this times m**(epsilon-1)",
    lo=0.0, lo_open=True,
)
_BURN_IN = Param("burn_in", int, 0, "leading days left out of the statistics", lo=0)

# Every parameter of every subcommand, with the subcommand's help line.
_SUBCOMMANDS: dict[str, tuple[str, tuple[Param, ...]]] = {
    "solve-lambda": ("tabulate cheat-proof switch-rate means", (
        Param("delta_max", int, 10, "largest imbalance tabulated", lo=1),
        Param("tolerance", float, 1e-10, "bisection stops once |residual| is below this",
              lo=0.0, hi=MAX_TOLERANCE, lo_open=True),
    )),
    "payoff-table": ("stay/switch winning probabilities at the solved rate", (
        Param("delta_max", int, 50, "largest imbalance tabulated", lo=1),
    )),
    "simulate": ("run the two-restaurant crowd simulation", (
        _N,
        Param("epsilon", float, 0.5, "reset exponent", lo=0.0, hi=1.0),
        _STEPS,
        _SEED,
        _WAIT_T,
        _PREFACTOR,
        Param("mode", str, MODE_STRATEGY, "strategy, or a uniform redraw every day",
              choices=(MODE_STRATEGY, "baseline", MODE_BASELINE)),
        Param("record_choices", bool, False, "keep every agent's daily choice"),
        Param("stats", bool, False, "also write the derived statistics; turns on "
              "choice recording"),
        _BURN_IN,
        Param("tau_max", int, 100, "largest autocorrelation lag", lo=1),
    )),
    "sweep": ("inefficiency versus epsilon over many seeds", (
        _N,
        Param("epsilons", list, "0.1:0.9:0.1", "start:stop:step or comma list",
              lo=0.0, hi=1.0),
        Param("seeds", int, 20, "runs per epsilon", lo=1),
        _STEPS,
        _SEED,
        _WAIT_T,
        _PREFACTOR,
        _BURN_IN,
    )),
    "kpr": ("ranked-restaurant cyclic-strategy convergence", (
        Param("n", int, 64, "agents and restaurants", lo=1),
        Param("seeds", int, 200, "independent runs", lo=1),
        Param("max_steps", int, 10000, "days before a run counts as unconverged", lo=1),
        _SEED,
    )),
}


@dataclass(frozen=True)
class RunManifest:
    """Fully resolved description of one CLI run.

    The hash covers everything that determines output bytes -- subcommand,
    parameters, package version, output names -- and deliberately not the
    output directory, so the same run lands identical files anywhere.
    """

    subcommand: str
    params: dict[str, Any]
    seed: int | None
    version: str
    outputs: tuple[str, ...]
    outdir: Path

    def canonical(self) -> str:
        payload = {
            "subcommand": self.subcommand,
            "params": self.params,
            "seed": self.seed,
            "version": self.version,
            "outputs": list(self.outputs),
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def digest(self) -> str:
        return hashlib.sha256(self.canonical().encode("utf-8")).hexdigest()[:16]

    def document(self) -> dict[str, Any]:
        return {
            "manifest_hash": self.digest(),
            "subcommand": self.subcommand,
            "params": self.params,
            "seed": self.seed,
            "version": self.version,
            "outputs": list(self.outputs),
        }


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mgstrat",
        description="Win-stay/lose-shift minority-game strategy toolkit.",
    )
    parser.add_argument(
        "--version", action="version", version=f"mgstrat {__version__}"
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for subcommand, (help_line, table) in _SUBCOMMANDS.items():
        p = sub.add_parser(subcommand, help=help_line)
        p.add_argument("--config", type=Path, help="JSON file of key/value settings")
        p.add_argument(
            "--outdir",
            type=Path,
            help=f"output directory (default: ${OUTDIR_ENV} or ./out)",
        )
        for param in table:
            flag = "--" + param.name.replace("_", "-")
            if param.kind is bool:
                p.add_argument(flag, dest=param.name, action="store_const", const=True,
                               help=param.help)
                continue
            bounds = "" if param.lo is None else f"; must {param.bounds_text()}"
            p.add_argument(
                flag,
                dest=param.name,
                type=str if param.kind is list else param.kind,
                choices=param.choices or None,
                help=f"{param.help}{bounds} (default: {param.default})",
            )
    return parser


def _load_config_file(path: Path, allowed: Iterable[str]) -> dict[str, Any]:
    allowed = set(allowed)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ValueError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    out: dict[str, Any] = {}
    for key, value in raw.items():
        norm = str(key).replace("-", "_")
        if norm not in allowed:
            raise ValueError(f"config file {path}: unknown key {key!r}")
        out[norm] = value
    return out


def _apply_cross_key_rules(subcommand: str, params: dict[str, Any]) -> None:
    """The rules that tie a key to another key or to the subcommand."""
    if "n" in params and subcommand != "kpr" and params["n"] % 2 == 0:
        raise ValueError(f"n must be odd, got {params['n']}")
    if params.get("mode") == "baseline":
        params["mode"] = MODE_BASELINE
    if "burn_in" in params and params["burn_in"] >= params["steps"]:
        raise ValueError(f"burn_in must be smaller than steps, got {params['burn_in']}")
    if params.get("stats"):
        if params["tau_max"] >= params["steps"]:
            raise ValueError(f"tau_max must be smaller than steps, got {params['tau_max']}")
        # C(tau) needs the per-agent record, so --stats implies it.
        params["record_choices"] = True
    if "steps" in params:
        check_record_size(params["n"], params["steps"], params.get("record_choices", False))


def _planned_outputs(subcommand: str, params: dict[str, Any]) -> list[str]:
    data = {
        "solve-lambda": ["lambda_table.csv"],
        "payoff-table": ["payoff_table.csv"],
        "simulate": ["trajectory.csv"],
        "sweep": ["sweep.csv"],
        "kpr": ["kpr_runs.csv"],
    }[subcommand]
    if subcommand == "simulate" and params["stats"]:
        data += ["delta_hist.csv", "s_autocorr.csv", "c_autocorr.csv"]
    return data + ["manifest.json", "summary.json"]


def parse_config(
    argv: Sequence[str] | None = None, config_file: str | Path | None = None
) -> RunManifest:
    """Resolve argv (and an optional config file) into a RunManifest.

    Precedence: command-line flags beat config-file values beat built-in
    defaults.  An explicit ``--config`` flag beats the ``config_file``
    argument.  Raises ValueError naming the offending key on bad input;
    argparse itself exits with code 2 on malformed flags.
    """
    namespace = _build_parser().parse_args(argv)
    subcommand = namespace.subcommand
    table = _SUBCOMMANDS[subcommand][1]
    raw = {param.name: param.default for param in table}
    config_path = namespace.config or (Path(config_file) if config_file else None)
    if config_path is not None:
        raw.update(_load_config_file(config_path, raw))
    for param in table:
        flag_value = getattr(namespace, param.name)
        if flag_value is not None:
            raw[param.name] = flag_value
    params = {param.name: param.coerce(raw[param.name]) for param in table}
    _apply_cross_key_rules(subcommand, params)
    outdir = namespace.outdir or Path(os.environ.get(OUTDIR_ENV) or "out")
    return RunManifest(
        subcommand=subcommand,
        params=params,
        seed=params.get("seed"),
        version=__version__,
        outputs=tuple(_planned_outputs(subcommand, params)),
        outdir=Path(outdir),
    )


def _format_value(value: Any) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.12g}"
    return str(value)


def _write_csv(
    path: Path, manifest: RunManifest, columns: Sequence[str], rows: Iterable[Sequence[Any]]
) -> None:
    with path.open("w", encoding="utf-8") as handle:
        handle.write(f"# mgstrat {manifest.subcommand} v{manifest.version}\n")
        handle.write(f"# manifest: {manifest.digest()}\n")
        handle.write(",".join(columns) + "\n")
        for row in rows:
            handle.write(",".join(_format_value(v) for v in row) + "\n")


def _write_json(path: Path, document: dict[str, Any]) -> None:
    path.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")


def _strategy_config(params: dict[str, Any], epsilon: float | None = None) -> StrategyConfig:
    return StrategyConfig(
        n=params["n"],
        epsilon=params["epsilon"] if epsilon is None else epsilon,
        wait_t=params["wait_t"],
        reset_prefactor=params["reset_prefactor"],
        seed=params["seed"],
        mode=params.get("mode", MODE_STRATEGY),
    )


def _run_solve_lambda(manifest: RunManifest, outdir: Path) -> dict[str, Any]:
    params = manifest.params
    rows = []
    for delta in range(1, params["delta_max"] + 1):
        lam = solve_lambda(delta, params["tolerance"])
        rows.append((delta, lam, lam - delta))
    _write_csv(outdir / "lambda_table.csv", manifest, ["delta", "lambda", "gap"], rows)
    return {
        "rows": len(rows),
        "gap_at_delta_max": rows[-1][2],
        "asymptotic_gap": 1.0 / 6.0,
    }


def _run_payoff_table(manifest: RunManifest, outdir: Path) -> dict[str, Any]:
    params = manifest.params
    rows = []
    worst_sum_error = 0.0
    for delta in range(1, params["delta_max"] + 1):
        lam = solve_lambda(delta)
        q = expected_payoffs(delta, lam)
        worst_sum_error = max(worst_sum_error, abs(q.thin_stay + q.crowd_stay - 1.0))
        rows.append(
            (delta, lam, q.thin_stay, q.thin_switch, q.crowd_stay, q.crowd_switch)
        )
    _write_csv(
        outdir / "payoff_table.csv",
        manifest,
        ["delta", "lambda", "thin_stay", "thin_switch", "crowd_stay", "crowd_switch"],
        rows,
    )
    return {"rows": len(rows), "max_stay_sum_error": worst_sum_error}


def _run_simulate(manifest: RunManifest, outdir: Path) -> dict[str, Any]:
    params = manifest.params
    config = _strategy_config(params)
    trajectory = run(config, params["steps"], record_choices=params["record_choices"])
    deltas, reset = trajectory.deltas, trajectory.reset
    _write_csv(
        outdir / "trajectory.csv",
        manifest,
        ["day", "delta", "minority_side", "reset"],
        zip(range(trajectory.days), deltas, trajectory.minority_side, reset),
    )
    results: dict[str, Any] = {
        "eta": inefficiency_eta(trajectory, burn_in=params["burn_in"]),
        "days": trajectory.days,
        "resets": int(np.count_nonzero(reset)),
        "delta_min": int(deltas.min()),
        "delta_max": int(deltas.max()),
    }
    episodes = episode_lengths(trajectory)
    if episodes.size:
        summary = EpisodeStats.from_lengths(episodes)
        results["episodes"] = {
            "count": int(episodes.size),
            "mean": summary.mean,
            "median": summary.median,
            "max": summary.max,
        }
    if params["stats"]:
        hist = delta_histogram(trajectory, burn_in=params["burn_in"])
        _write_csv(
            outdir / "delta_hist.csv",
            manifest,
            ["delta", "frequency"],
            sorted(hist.items()),
        )
        s_acf = s_autocorrelation(trajectory, params["tau_max"])
        _write_csv(
            outdir / "s_autocorr.csv",
            manifest,
            ["lag", "value"],
            enumerate(s_acf),
        )
        c_acf = c_autocorrelation(trajectory.choice_matrix, params["tau_max"])
        _write_csv(
            outdir / "c_autocorr.csv",
            manifest,
            ["lag", "value"],
            enumerate(c_acf),
        )
        results["c_at_tau_max"] = float(c_acf[-1])
    return results


def _run_sweep(manifest: RunManifest, outdir: Path) -> dict[str, Any]:
    params = manifest.params
    rows = []
    means = []
    for i, epsilon in enumerate(params["epsilons"]):
        config = _strategy_config(params, epsilon=epsilon)
        etas = np.empty(params["seeds"])
        for j in range(params["seeds"]):
            stream = derive_rng(params["seed"], i, j)
            trajectory = run(config, params["steps"], rng=stream)
            etas[j] = inefficiency_eta(trajectory, burn_in=params["burn_in"])
        mean = float(etas.mean())
        stderr = (
            float(etas.std(ddof=1) / math.sqrt(params["seeds"]))
            if params["seeds"] > 1
            else 0.0
        )
        rows.append((epsilon, mean, stderr, params["seeds"]))
        means.append(mean)
    _write_csv(
        outdir / "sweep.csv", manifest, ["epsilon", "eta_mean", "eta_stderr", "seeds"], rows
    )
    increases = sum(1 for a, b in zip(means, means[1:]) if b > a)
    return {
        "points": len(rows),
        "eta_min": min(means),
        "eta_max": max(means),
        "monotone_increasing_fraction": (
            increases / (len(means) - 1) if len(means) > 1 else 1.0
        ),
    }


def _run_kpr(manifest: RunManifest, outdir: Path) -> dict[str, Any]:
    params = manifest.params
    rows = []
    convergence_days = []
    for index in range(params["seeds"]):
        stream = derive_rng(params["seed"], index)
        result = kpr_run(params["n"], params["max_steps"], stream)
        day = -1 if result.convergence_day is None else result.convergence_day
        if day >= 0:
            convergence_days.append(day)
        rows.append((index, day, result.utilization[-1]))
    _write_csv(
        outdir / "kpr_runs.csv",
        manifest,
        ["seed_index", "convergence_day", "final_utilization"],
        rows,
    )
    results: dict[str, Any] = {
        "seeds": params["seeds"],
        "converged": len(convergence_days),
        "unconverged": params["seeds"] - len(convergence_days),
    }
    if convergence_days:
        results["mean_convergence_day"] = float(np.mean(convergence_days))
        results["median_convergence_day"] = float(np.median(convergence_days))
        results["max_convergence_day"] = int(np.max(convergence_days))
    return results


_RUNNERS: dict[str, Callable[[RunManifest, Path], dict[str, Any]]] = {
    "solve-lambda": _run_solve_lambda,
    "payoff-table": _run_payoff_table,
    "simulate": _run_simulate,
    "sweep": _run_sweep,
    "kpr": _run_kpr,
}


def dispatch(manifest: RunManifest) -> int:
    """Run the manifest's subcommand and write all of its outputs."""
    outdir = manifest.outdir
    outdir.mkdir(parents=True, exist_ok=True)
    results = _RUNNERS[manifest.subcommand](manifest, outdir)
    _write_json(outdir / "manifest.json", manifest.document())
    _write_json(
        outdir / "summary.json",
        {
            "manifest_hash": manifest.digest(),
            "subcommand": manifest.subcommand,
            "results": results,
        },
    )
    for name in manifest.outputs:
        print(f"wrote {outdir / name}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    try:
        manifest = parse_config(argv)
    except SystemExit as exc:  # argparse has already printed its message
        code = exc.code
        return code if isinstance(code, int) else 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return dispatch(manifest)
    except NumericError as exc:
        print(f"numeric failure in {exc.__class__.__module__}: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def cli_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    cli_entry()
