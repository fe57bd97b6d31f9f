"""``mgstrat``: command-line front end.

Subcommands: ``solve-lambda`` (tabulate cheat-proof switch-rate means),
``payoff-table`` (stay/switch winning probabilities at the solved rate),
``simulate`` (one crowd run, optionally with derived statistics),
``sweep`` (inefficiency versus epsilon over many seeds), and
``kpr`` (convergence of the ranked-restaurant cyclic strategy).

Every run resolves flags over config-file values over built-in defaults
into a manifest.  Each subcommand declares its data files, with their CSV
headers, in one table; its runner maps the parameters to the files'
columns, and ``dispatch`` writes them, all or none, into one directory:
CSV whose first lines are ``#`` comments embedding the manifest hash, plus
``manifest.json`` and ``summary.json`` whose first key is that same hash.
Outputs are byte-deterministic: same subcommand, parameters, and package
version give identical files, whatever the output directory.

Exit codes: 0 success, 2 usage error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import bisect
import errno
import functools
import gc
import itertools
import json
import math
import os
import sys
from pathlib import Path
from typing import Any, Callable, Iterable, NamedTuple, Sequence

from . import MAX_TOLERANCE, MODE_BASELINE, MODE_STRATEGY, NumericError, __version__

__all__ = [
    "RunManifest", "parse_config", "dispatch", "main", "cli_entry", "OUTDIR_ENV", "MAX_EPSILONS",
    "MAX_DELTA_MAX", "MAX_SEEDS",
]

OUTDIR_ENV = "MGSTRAT_OUTDIR"

# Most values an epsilons range may expand to; checked before the list is built.
MAX_EPSILONS = 100_000

# Largest imbalance solve-lambda and payoff-table tabulate: 10**6 rows take
# ~2 s (solve-lambda) or ~3 s (payoff-table) and 161 MB of max RSS on
# 2 vCPUs; a larger value could exhaust memory.
MAX_DELTA_MAX = 10**6

# Most runs sweep (per epsilon) and kpr take: sweep keeps 8 bytes per seed
# and kpr 16 (two numpy columns; 16.4 by tracemalloc from 20 000 to 120 000
# seeds), so 10**6 seeds stay near 16 MB.
MAX_SEEDS = 10**6

# Most agents kpr takes: it keeps about 49 bytes of arrays per agent
# (peak RSS 82 MB at n = 10**6, 222 MB at 4 * 10**6, 410 MB at this cap),
# so these stay below the engine's 1 GiB MAX_RECORD_BYTES.
_KPR_MAX_N = 8 * 10**6

def _export(name: str) -> Callable[..., Any]:
    """A stand-in for the package export ``name``, resolved on each call.

    The package imports the defining module on first use (PEP 562), so
    ``cli`` loads none of them, nor numpy, with itself.  The runners call
    these module globals, so a name set from outside, by a test's or a
    tracer's patch, is the one they call, and a deleted one stays deleted.
    """

    def call(*args: Any, **kwargs: Any) -> Any:
        return getattr(sys.modules[__package__], name)(*args, **kwargs)

    call.__name__ = call.__qualname__ = name
    return call


derive_rng = _export("derive_rng")
run = _export("run")
kpr_run = _export("kpr_run")
expected_payoffs = _export("expected_payoffs")
solve_lambda = _export("solve_lambda")
c_autocorrelation = _export("c_autocorrelation")
delta_histogram = _export("delta_histogram")
episode_lengths = _export("episode_lengths")
inefficiency_eta = _export("inefficiency_eta")
s_autocorrelation = _export("s_autocorrelation")


def _epsilon_values(raw: Any) -> list[Any]:
    """The entries of a ``start:stop:step`` range, a comma list or a JSON list."""
    from ._checks import number, positive

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
            start, stop = (number(p, "epsilons") for p in parts[:2])
            step = positive(parts[2], "epsilons step")
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


class Param(NamedTuple):
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
        spec = "d" if self.kind is int else "g"
        if self.hi is not None:
            return f"lie in {'(' if self.lo_open else '['}{self.lo:{spec}}, {self.hi:{spec}}]"
        return f"be {'greater than' if self.lo_open else 'at least'} {self.lo:{spec}}"

    def _bounded(self, value: int | float) -> int | float:
        low = self.lo is not None and (value <= self.lo if self.lo_open else value < self.lo)
        if low or (self.hi is not None and value > self.hi):
            raise ValueError(f"{self.name} must {self.bounds_text()}, got {value}")
        return value

    def coerce(self, value: Any) -> Any:
        """``value`` as this parameter's type; ValueError naming the key otherwise."""
        from ._checks import number

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
                self._bounded(round(number(v, self.name), 12))
                for v in _epsilon_values(value)
            ]
        return self._bounded(number(value, self.name, self.kind))


_N = Param("n", int, 2001, "population size, odd", lo=1)
_STEPS = Param("steps", int, 10000, "days simulated after day 0", lo=1)
_SEED = Param("seed", int, 1, "master random seed", lo=0)
_WAIT_T = Param("wait_t", int, 0, "marginal days before a reset", lo=0)
_PREFACTOR = Param(
    "reset_prefactor", float, 0.5, "reset flip probability is this times m**(epsilon-1)",
    lo=0.0, lo_open=True,
)
_BURN_IN = Param(
    "burn_in", int, 0,
    "leading days left out of eta and simulate's delta_hist.csv; other outputs use all days",
    lo=0,
)


@functools.cache
def _builtin_sha256() -> Callable[[bytes], Any] | None:
    """The interpreter's own SHA-256 constructor, or None in a build without one.

    random.py takes its sha512 the same way: hashlib would load OpenSSL's
    libcrypto (3.6 MB of RSS) to hash a ~200-byte manifest.  The probe runs
    once a process: a failed import walks ``sys.path`` again each time.
    """
    try:
        from _sha2 import sha256  # Python 3.12+
    except ImportError:
        try:
            from _sha256 import sha256  # Python 3.10-3.11
        except ImportError:
            return None
    return sha256


class RunManifest(NamedTuple):
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

    def _payload(self) -> dict[str, Any]:
        return {
            "subcommand": self.subcommand,
            "params": self.params,
            "seed": self.seed,
            "version": self.version,
            "outputs": list(self.outputs),
        }

    def canonical(self) -> str:
        return json.dumps(self._payload(), sort_keys=True, separators=(",", ":"))

    def digest(self) -> str:
        sha256 = _builtin_sha256()
        if sha256 is None:
            from hashlib import sha256
        return sha256(self.canonical().encode("utf-8")).hexdigest()[:16]

    def document(self) -> dict[str, Any]:
        return {"manifest_hash": self.digest(), **self._payload()}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mgstrat",
        description="Win-stay/lose-shift minority-game strategy toolkit.",
    )
    parser.add_argument(
        "--version", action="version", version=f"mgstrat {__version__}"
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for subcommand, entry in _SUBCOMMANDS.items():
        p = sub.add_parser(subcommand, help=entry.help)
        p.add_argument("--config", type=Path, help="JSON file of key/value settings")
        p.add_argument(
            "--outdir",
            type=Path,
            help=f"output directory (default: ${OUTDIR_ENV} or ./out)",
        )
        for param in entry.params:
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
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"config file {path} cannot be read: {exc}") from None
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


def _apply_cross_key_rules(params: dict[str, Any]) -> None:
    """The rules that tie a key to another key; ``StrategyConfig`` checks the rest."""
    if params.get("mode") == "baseline":
        params["mode"] = MODE_BASELINE
    if "burn_in" in params and params["burn_in"] >= params["steps"]:
        raise ValueError(f"burn_in must be smaller than steps, got {params['burn_in']}")
    if params.get("stats") and params["tau_max"] >= params["steps"]:
        raise ValueError(f"tau_max must be smaller than steps, got {params['tau_max']}")
    if "steps" in params:
        from .engine import check_record_size

        check_record_size(params["n"], params["steps"], False)
    if "reset_prefactor" in params:
        # The reset probability, prefactor * m**(epsilon - 1), is monotone in epsilon.
        epsilons = params.get("epsilons") or [params["epsilon"]]
        for epsilon in (min(epsilons), max(epsilons)):
            _strategy_config(params, epsilon)


def parse_config(argv: Sequence[str] | None = None) -> RunManifest:
    """Resolve argv into a RunManifest.

    Precedence: command-line flags beat ``--config`` file values beat
    built-in defaults.  Raises ValueError naming the offending key on bad
    input; argparse itself exits with code 2 on malformed flags.
    """
    namespace = _build_parser().parse_args(argv)
    subcommand = namespace.subcommand
    entry = _SUBCOMMANDS[subcommand]
    raw = {param.name: param.default for param in entry.params}
    if namespace.config is not None:
        raw.update(_load_config_file(namespace.config, raw))
    for param in entry.params:
        flag_value = getattr(namespace, param.name)
        if flag_value is not None:
            raw[param.name] = flag_value
    params = {param.name: param.coerce(raw[param.name]) for param in entry.params}
    _apply_cross_key_rules(params)
    outdir = namespace.outdir or Path(os.environ.get(OUTDIR_ENV) or "out")
    return RunManifest(
        subcommand=subcommand,
        params=params,
        seed=params.get("seed"),
        version=__version__,
        outputs=(*(name for name, (flag, _) in entry.data.items() if flag is None or params[flag]),
                 "manifest.json", "summary.json"),
        outdir=Path(outdir),
    )


# Most cells a CSV block formats at once, with one ``%`` call over a
# template of the block's rows.  A cell, as a Python object plus its share
# of the object array, list and tuple that hold it, takes about 50 bytes, so
# a block takes about 0.4 MB however many columns the file has.
CSV_BLOCK_CELLS = 1 << 13


def _write_csv(
    path: Path,
    manifest: RunManifest,
    header: Sequence[str],
    columns: Sequence[Sequence[Any] | Callable[[int, int], Any]],
) -> None:
    """Write equal-length ``columns`` as CSV rows under the manifest comments.

    Each column is written by its numpy kind: floats with 12 significant
    digits (``%.12g``), integers as they are and bools as 0/1 (``%d``).
    A column may also be a function of ``(start, stop)`` that makes rows
    start .. stop - 1 of it, so that it is built one block at a time
    (``np.arange`` for an index); the sequences give the number of rows.
    """
    import numpy as np

    rows = len(next(column for column in columns if not callable(column)))
    step = max(1, CSV_BLOCK_CELLS // len(columns))
    with path.open("w", encoding="utf-8") as handle:
        handle.write(f"# mgstrat {manifest.subcommand} v{manifest.version}\n")
        handle.write(f"# manifest: {manifest.digest()}\n")
        handle.write(",".join(header) + "\n")
        for start in range(0, rows, step):
            stop = min(start + step, rows)
            blocks = [
                np.asarray(column(start, stop) if callable(column) else column[start:stop])
                for column in columns
            ]
            # Row-major Python objects: filling an object array converts each
            # column once, and its ravel interleaves the cells row by row.
            cells = np.empty((stop - start, len(blocks)), dtype=object)
            for index, block in enumerate(blocks):
                cells[:, index] = block
            line = ",".join("%.12g" if b.dtype.kind == "f" else "%d" for b in blocks) + "\n"
            handle.write(line * len(cells) % tuple(cells.ravel().tolist()))


def _write_json(path: Path, document: dict[str, Any]) -> None:
    path.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")


def _strategy_config(params: dict[str, Any], epsilon: float) -> StrategyConfig:
    from .engine import StrategyConfig

    return StrategyConfig(
        n=params["n"],
        epsilon=epsilon,
        wait_t=params["wait_t"],
        reset_prefactor=params["reset_prefactor"],
        seed=params["seed"],
        mode=params.get("mode", MODE_STRATEGY),
    )


_Result = tuple[list[Sequence[Sequence[Any]]], dict[str, Any]]


def _tally_summary(tally: Any) -> dict[str, Any]:
    """Count, mean, median and max of the values a tally counts, k ``tally[k]`` times.

    It adds exact integers over the tally's entries and rounds each result
    once, so while the values' sum stays below 2**53 each result equals
    numpy's ``size``, ``mean``, ``median`` and ``max`` of the values
    written out, bit for bit.  The tally counts at least one value.
    """
    counts = tally.tolist()
    cumulative = list(itertools.accumulate(counts))
    total = cumulative[-1]
    # The values at sorted positions (total - 1) // 2 and total // 2.
    low, high = (bisect.bisect_right(cumulative, rank) for rank in ((total - 1) // 2, total // 2))
    return {
        "count": total,
        "mean": sum(value * count for value, count in enumerate(counts)) / total,
        "median": (low + high) / 2,
        "max": bisect.bisect_left(cumulative, total),
    }


def _run_solve_lambda(params: dict[str, Any]) -> _Result:
    import numpy as np

    from .solver import ASYMPTOTIC_GAP

    deltas = np.arange(1, params["delta_max"] + 1)
    lams = solve_lambda(deltas, params["tolerance"])
    gaps = lams - deltas
    return [(deltas, lams, gaps)], {
        "rows": len(deltas),
        "gap_at_delta_max": float(gaps[-1]),
        "asymptotic_gap": ASYMPTOTIC_GAP,
    }


def _run_payoff_table(params: dict[str, Any]) -> _Result:
    import numpy as np

    deltas = np.arange(1, params["delta_max"] + 1)
    lams = solve_lambda(deltas)
    q = expected_payoffs(deltas, lams)
    table = (deltas, lams, q.thin_stay, q.thin_switch, q.crowd_stay, q.crowd_switch)
    worst_sum_error = float(np.abs(q.thin_stay + q.crowd_stay - 1.0).max())
    return [table], {"rows": len(deltas), "max_stay_sum_error": worst_sum_error}


def _run_simulate(params: dict[str, Any]) -> _Result:
    import numpy as np

    config = _strategy_config(params, params["epsilon"])
    trajectory = run(config, params["steps"])
    deltas, reset = trajectory.deltas, trajectory.reset
    results: dict[str, Any] = {
        "eta": inefficiency_eta(trajectory, burn_in=params["burn_in"]),
        "days": trajectory.days,
        "resets": int(np.count_nonzero(reset)),
        "delta_min": int(deltas.min()),
        "delta_max": int(deltas.max()),
    }
    episodes = episode_lengths(trajectory)
    if episodes.size:
        results["episodes"] = _tally_summary(episodes)
    stats_tables = []
    if params["stats"]:
        hist = delta_histogram(trajectory, burn_in=params["burn_in"])
        s_acf = s_autocorrelation(trajectory, params["tau_max"])
        c_acf = c_autocorrelation(trajectory, params["tau_max"])
        stats_tables = [
            list(zip(*sorted(hist.items()))),
            (np.arange(s_acf.size), s_acf),
            (np.arange(c_acf.size), c_acf),
        ]
        results["c_at_tau_max"] = float(c_acf[-1])

    def minority_side(start: int, stop: int) -> Any:
        # +1 on days A held the smaller crowd, -1 otherwise, one block of rows at a time.
        return np.where(deltas[start:stop] >= 0, np.int8(1), np.int8(-1))

    return [(np.arange, deltas, minority_side, reset), *stats_tables], results


def _run_sweep(params: dict[str, Any]) -> _Result:
    import numpy as np

    epsilons, seeds = params["epsilons"], params["seeds"]
    means, stderrs = [], []
    for i, epsilon in enumerate(epsilons):
        config = _strategy_config(params, epsilon)
        etas = np.empty(seeds)
        for j in range(seeds):
            # No run's record outlives its eta, so the next run does not
            # allocate beside it.
            stream = derive_rng(params["seed"], i, j)
            etas[j] = inefficiency_eta(run(config, params["steps"], rng=stream),
                                       burn_in=params["burn_in"])
        means.append(float(etas.mean()))
        stderrs.append(float(etas.std(ddof=1) / math.sqrt(seeds)) if seeds > 1 else 0.0)
    increases = sum(1 for a, b in zip(means, means[1:]) if b > a)
    return [(epsilons, means, stderrs, [seeds] * len(means))], {
        "points": len(means),
        "eta_min": min(means),
        "eta_max": max(means),
        "monotone_increasing_fraction": (
            increases / (len(means) - 1) if len(means) > 1 else 1.0
        ),
    }


def _run_kpr(params: dict[str, Any]) -> _Result:
    import numpy as np

    seeds = params["seeds"]
    days = np.empty(seeds, dtype=np.int64)
    utilization = np.empty(seeds)
    for index in range(seeds):
        stream = derive_rng(params["seed"], index)
        result = kpr_run(params["n"], params["max_steps"], stream)
        days[index] = -1 if result.convergence_day is None else result.convergence_day
        utilization[index] = result.utilization[-1]
    tally = np.bincount(days[days >= 0])
    converged = int(tally.sum())
    results: dict[str, Any] = {
        "seeds": seeds,
        "converged": converged,
        "unconverged": seeds - converged,
    }
    if converged:
        summary = _tally_summary(tally)
        for key in ("mean", "median", "max"):
            results[f"{key}_convergence_day"] = summary[key]
    return [(np.arange(seeds), days, utilization)], results


class _Subcommand(NamedTuple):
    """Everything one subcommand declares.

    ``data`` maps each data file, in output order, to the bool parameter
    that turns it on (None for a file always written) and its CSV header.
    ``runner`` maps the resolved parameters to the columns of every data
    file turned on, in that order, and the summary results.
    """

    help: str
    params: tuple[Param, ...]
    data: dict[str, tuple[str | None, tuple[str, ...]]]
    runner: Callable[[dict[str, Any]], _Result]


_SUBCOMMANDS = {
    "solve-lambda": _Subcommand("tabulate cheat-proof switch-rate means", (
        Param("delta_max", int, 10, "largest imbalance tabulated", lo=1, hi=MAX_DELTA_MAX),
        Param("tolerance", float, 1e-10, "root search stops once |residual| is below this",
              lo=0.0, hi=MAX_TOLERANCE, lo_open=True),
    ), {"lambda_table.csv": (None, ("delta", "lambda", "gap"))}, _run_solve_lambda),
    "payoff-table": _Subcommand("stay/switch winning probabilities at the solved rate", (
        Param("delta_max", int, 50, "largest imbalance tabulated", lo=1, hi=MAX_DELTA_MAX),
    ), {"payoff_table.csv": (None, (
        "delta", "lambda", "thin_stay", "thin_switch", "crowd_stay", "crowd_switch",
    ))}, _run_payoff_table),
    "simulate": _Subcommand("run the two-restaurant crowd simulation", (
        _N,
        Param("epsilon", float, 0.5, "reset exponent", lo=0.0, hi=1.0),
        _STEPS,
        _SEED,
        _WAIT_T,
        _PREFACTOR,
        Param("mode", str, MODE_STRATEGY, "strategy, or a uniform redraw every day",
              choices=(MODE_STRATEGY, "baseline", MODE_BASELINE)),
        Param("stats", bool, False, "also write the derived statistics; C(tau) is "
              "read off the head counts, so no choice is recorded"),
        _BURN_IN,
        Param("tau_max", int, 100, "largest autocorrelation lag", lo=1),
    ), {
        "trajectory.csv": (None, ("day", "delta", "minority_side", "reset")),
        "delta_hist.csv": ("stats", ("delta", "frequency")),
        "s_autocorr.csv": ("stats", ("lag", "value")),
        "c_autocorr.csv": ("stats", ("lag", "value")),
    }, _run_simulate),
    "sweep": _Subcommand("inefficiency versus epsilon over many seeds", (
        _N,
        Param("epsilons", list, "0.1:0.9:0.1", "start:stop:step or comma list",
              lo=0.0, hi=1.0),
        Param("seeds", int, 20, "runs per epsilon", lo=1, hi=MAX_SEEDS),
        _STEPS,
        _SEED,
        _WAIT_T,
        _PREFACTOR,
        _BURN_IN,
    ), {"sweep.csv": (None, ("epsilon", "eta_mean", "eta_stderr", "seeds"))}, _run_sweep),
    "kpr": _Subcommand("ranked-restaurant cyclic-strategy convergence", (
        Param("n", int, 64, "agents and restaurants", lo=1, hi=_KPR_MAX_N),
        Param("seeds", int, 200, "independent runs", lo=1, hi=MAX_SEEDS),
        Param("max_steps", int, 10000, "days before a run counts as unconverged", lo=1),
        _SEED,
    ), {"kpr_runs.csv": (None, ("seed_index", "convergence_day", "final_utilization"))},
        _run_kpr),
}


def dispatch(manifest: RunManifest) -> int:
    """Run the manifest's subcommand and write all of its outputs."""
    entry = _SUBCOMMANDS[manifest.subcommand]
    outdir = manifest.outdir
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValueError(f"outdir {outdir} cannot be created: {exc.strerror}") from None
    tables, results = entry.runner(manifest.params)
    names = [name for name in manifest.outputs if name in entry.data]
    data = dict(zip(names, tables, strict=True))
    documents = {
        "manifest.json": manifest.document(),
        "summary.json": {
            "manifest_hash": manifest.digest(),
            "subcommand": manifest.subcommand,
            "results": results,
        },
    }
    # Each file is written under a temporary name and moved into place only
    # once all are written, so a failure leaves the outdir as it was.
    staged = {outdir / name: outdir / f".{name}.{os.getpid()}.tmp" for name in manifest.outputs}
    try:
        for name, (path, temporary) in zip(manifest.outputs, staged.items()):
            if name in data:
                _write_csv(temporary, manifest, entry.data[name][1], data[name])
            else:
                _write_json(temporary, documents[name])
        # A file cannot replace a directory; find one before any file moves.
        for path in staged:
            if path.is_dir():
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        for path, temporary in staged.items():
            temporary.replace(path)
    except OSError as exc:
        raise ValueError(
            f"outdir {outdir} cannot be written: {path}: {exc.strerror or exc}"
        ) from None
    finally:
        for temporary in staged.values():
            temporary.unlink(missing_ok=True)
    for name in manifest.outputs:
        print(f"wrote {outdir / name}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    try:
        return dispatch(parse_config(argv))
    except SystemExit as exc:  # argparse has already printed its message
        return exc.code if isinstance(exc.code, int) else 2
    except NumericError as exc:
        # Only the rate solver raises NumericError.
        print(f"numeric failure in mgstrat.solver: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def cli_entry() -> None:
    # Freezing moves every object made so far out of the collector's reach,
    # so no later collection walks it: first the interpreter's and cli's own
    # start-up heap, then, once main() returns, what the subcommand imported
    # (~22 000 objects with numpy and the rate stack), which the collection
    # at exit would otherwise walk.
    # main() never freezes: tests and library callers keep normal collection.
    # Nor does it block _hashlib.  Here, when the interpreter has its own
    # SHA-256 for the manifest hash, the None marker makes hmac and hashlib
    # (which numpy.random.bit_generator, loaded by every seeded subcommand
    # even without numpy.random's start-up, imports through secrets) take
    # their built-in fallbacks, so no subcommand maps OpenSSL's libcrypto
    # (3.5 MB of RSS), which none calls.
    # Nor does main() set OPENBLAS_NUM_THREADS.  Here it defaults to 1:
    # mgstrat makes no BLAS call, yet numpy's OpenBLAS starts a pool of
    # worker threads when it loads, and the pool can spin for up to ~0.09 s
    # of CPU (no subcommand loads scipy's own OpenBLAS: dist takes its one
    # kernel from an extension that does not link it).  A value the caller
    # set is kept.
    if _builtin_sha256() is not None:
        sys.modules.setdefault("_hashlib", None)
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    gc.freeze()
    code = main()
    gc.freeze()
    raise SystemExit(code)


if __name__ == "__main__":
    cli_entry()
