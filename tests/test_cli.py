"""Command-line front-end tests: parsing, precedence, dispatch, determinism."""

import gc
import hashlib
import inspect
import json
import os
import re
import subprocess
import sys
import tracemalloc
import types
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any, Sequence

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import pdtr
from test_solver import scalar_lambda_root

import mgstrat
from mgstrat import __version__, cli, engine, kpr, solver, stats
from mgstrat.cli import (
    MAX_EPSILONS,
    OUTDIR_ENV,
    RunManifest,
    dispatch,
    main,
    parse_config,
)
from mgstrat.engine import MAX_WAIT_T, StrategyConfig, derive_rng, run
from mgstrat.kpr import kpr_run
from mgstrat.solver import NumericError
from mgstrat.stats import episode_lengths


class TestParseConfig:
    def test_simulate_defaults(self):
        manifest = parse_config(["simulate"])
        assert manifest.subcommand == "simulate"
        assert manifest.params["n"] == 2001
        assert manifest.params["epsilon"] == 0.5
        assert manifest.params["steps"] == 10000
        assert manifest.seed == manifest.params["seed"]

    def test_epsilon_bound_names_the_key(self, capsys):
        code = main(["simulate", "--epsilon", "1.5"])
        assert code == 2
        assert "epsilon" in capsys.readouterr().err

    def test_even_population_names_the_key(self, capsys):
        code = main(["simulate", "--n", "2000"])
        assert code == 2
        assert "n must be odd" in capsys.readouterr().err

    def test_flag_beats_file_beats_default(self, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"epsilon": 0.3, "steps": 777}))
        file_only = parse_config(["simulate", "--config", str(config)])
        assert file_only.params["epsilon"] == 0.3
        assert file_only.params["steps"] == 777
        both = parse_config(
            ["simulate", "--config", str(config), "--epsilon", "0.7"]
        )
        assert both.params["epsilon"] == 0.7
        assert both.params["steps"] == 777  # file still beats default

    def test_unknown_config_key_rejected(self, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"populaton": 11}))
        with pytest.raises(ValueError, match="populaton"):
            parse_config(["simulate", "--config", str(config)])

    def test_malformed_config_file(self, tmp_path):
        config = tmp_path / "run.json"
        config.write_text("{not json")
        with pytest.raises(ValueError, match="not valid JSON"):
            parse_config(["simulate", "--config", str(config)])

    def test_missing_config_file(self, tmp_path):
        with pytest.raises(ValueError, match="not found"):
            parse_config(["simulate", "--config", str(tmp_path / "absent.json")])

    def test_mode_spelling_normalized(self):
        short = parse_config(["simulate", "--mode", "baseline"])
        long = parse_config(["simulate", "--mode", "random-baseline"])
        assert short.params["mode"] == long.params["mode"] == "random-baseline"

    def test_epsilons_range_expansion(self):
        manifest = parse_config(["sweep", "--epsilons", "0.1:0.9:0.1"])
        assert manifest.params["epsilons"] == pytest.approx(
            [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
        )

    def test_epsilons_comma_list_and_file_list(self, tmp_path):
        manifest = parse_config(["sweep", "--epsilons", "0.25,0.75"])
        assert manifest.params["epsilons"] == [0.25, 0.75]
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"epsilons": [0.2, 0.4]}))
        manifest = parse_config(["sweep", "--config", str(config)])
        assert manifest.params["epsilons"] == [0.2, 0.4]

    def test_epsilons_validation(self, capsys):
        assert main(["sweep", "--epsilons", "0.5:2.0:0.5"]) == 2
        assert "epsilons" in capsys.readouterr().err
        assert main(["sweep", "--epsilons", "0.1:0.9"]) == 2
        assert "start:stop:step" in capsys.readouterr().err

    def test_epsilons_range_size_capped_before_expansion(self):
        assert len(parse_config(["sweep", "--epsilons", "0:0.99999:1e-5"]).params[
            "epsilons"]) == MAX_EPSILONS
        with pytest.raises(ValueError, match="^epsilons range .* more than"):
            parse_config(["sweep", "--epsilons", "0:1:1e-5"])

    def test_stats_plans_its_three_files_and_only_with_the_flag(self):
        stats_files = {"delta_hist.csv", "s_autocorr.csv", "c_autocorr.csv"}
        assert stats_files <= set(parse_config(["simulate", "--stats"]).outputs)
        assert not stats_files & set(parse_config(["simulate"]).outputs)

    def test_choice_recording_is_no_longer_a_key(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"record_choices": True}))
        assert main(["simulate", "--config", str(config)]) == 2
        assert "unknown key 'record_choices'" in capsys.readouterr().err
        assert main(["simulate", "--record-choices"]) == 2
        assert "--record-choices" in capsys.readouterr().err

    def test_outdir_resolution(self, monkeypatch, tmp_path):
        monkeypatch.delenv(OUTDIR_ENV, raising=False)
        assert parse_config(["kpr"]).outdir.name == "out"
        monkeypatch.setenv(OUTDIR_ENV, str(tmp_path / "envdir"))
        assert parse_config(["kpr"]).outdir == tmp_path / "envdir"
        flagged = parse_config(["kpr", "--outdir", str(tmp_path / "flagdir")])
        assert flagged.outdir == tmp_path / "flagdir"

    def test_usage_errors_from_argparse(self):
        assert main(["no-such-command"]) == 2
        assert main([]) == 2

    def test_manifest_hash_ignores_outdir_but_not_params(self, tmp_path):
        a = parse_config(["kpr", "--outdir", str(tmp_path / "x")])
        b = parse_config(["kpr", "--outdir", str(tmp_path / "y")])
        c = parse_config(["kpr", "--seed", "9", "--outdir", str(tmp_path / "x")])
        assert a.digest() == b.digest()
        assert a.digest() != c.digest()

    def test_kpr_allows_even_population(self):
        manifest = parse_config(["kpr", "--n", "64"])
        assert manifest.params["n"] == 64


# (subcommand, key, JSON text of a value the key must refuse)
BAD_CONFIG_VALUES = [
    (subcommand, key, value)
    for subcommand, key in (
        ("simulate", "n"),
        ("simulate", "epsilon"),
        ("solve-lambda", "tolerance"),
        ("simulate", "mode"),
        ("sweep", "epsilons"),
        ("simulate", "seed"),
    )
    for value in ("null", "Infinity", "NaN", "[0.5]", '"abc"', "true")
    if not (key == "epsilons" and value == "[0.5]")  # a valid epsilons list
] + [
    ("sweep", "epsilons", '[0.5, "abc"]'),
    ("sweep", "epsilons", "[0.5, null]"),
    ("sweep", "epsilons", '"0.1:Infinity:0.1"'),
    ("simulate", "stats", "null"),
    ("kpr", "max_steps", "2.5"),
    ("simulate", "reset_prefactor", "1e400"),
    ("solve-lambda", "delta_max", "1000000000000000"),
    ("payoff-table", "delta_max", "1000000000000000"),
]


@pytest.mark.parametrize("subcommand,key,value", BAD_CONFIG_VALUES)
def test_bad_config_value_exits_2_naming_the_key(tmp_path, capsys, subcommand, key, value):
    config = tmp_path / "run.json"
    config.write_text(f'{{"{key}": {value}}}')
    code = main([subcommand, "--config", str(config), "--outdir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: {key} "), err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv,key",
    [
        (["solve-lambda", "--tolerance", "1e300"], "tolerance"),
        (["solve-lambda", "--tolerance", "0"], "tolerance"),
        (["simulate", "--seed", "-1"], "seed"),
        (["simulate", "--epsilon", "nan"], "epsilon"),
        (["sweep", "--epsilons", "0.1:nan:0.1"], "epsilons"),
        (["sweep", "--steps", "100", "--burn-in", "100"], "burn_in"),
        (["sweep", "--epsilons", "0:1:5e-324"], "epsilons"),
        (["sweep", "--steps", "100000000000000"], "steps"),
        (["simulate", "--steps", "100000000000000"], "steps"),
        (["simulate", "--n", "200001", "--steps", "100000000000000", "--stats"], "steps"),
        (["solve-lambda", "--delta-max", "1000000000000000"], "delta_max"),
        (["payoff-table", "--delta-max", "1000000000000000"], "delta_max"),
    ],
)
def test_bad_flag_value_exits_2_naming_the_key(tmp_path, capsys, argv, key):
    code = main(argv + ["--outdir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: {key} "), err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--reset-prefactor", "3", "--epsilons", "0.1:0.9:0.1"],
        ["sweep", "--reset-prefactor", "5e-324", "--epsilons", "0.5,1"],
        ["simulate", "--reset-prefactor", "3", "--epsilon", "0.9"],
    ],
    ids=["sweep-top-epsilon", "sweep-bottom-epsilon", "simulate"],
)
def test_impossible_reset_probability_refused_before_any_run(tmp_path, monkeypatch, capsys, argv):
    # At n = 2001 (m = 1000), prefactor 3 gives 3 * 1000**-0.1 > 1 at epsilon 0.9 only,
    # and 5e-324 underflows to 0 at epsilon 0.5 only.
    def never_run(*args, **kwargs):
        raise AssertionError("simulated before refusing the reset probability")

    monkeypatch.setattr(cli, "run", never_run)
    code = main(argv + ["--n", "2001", "--outdir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: reset_prefactor "), err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "flag,relative,key",
    [
        ("--outdir", "a_file", "outdir"),
        ("--outdir", "a_file/out", "outdir"),
        ("--config", "a_dir", "config file"),
        ("--config", "latin1.json", "config file"),
    ],
    ids=["outdir-is-a-file", "outdir-under-a-file", "config-is-a-directory", "config-not-utf8"],
)
def test_unusable_path_exits_2_naming_it(tmp_path, capsys, flag, relative, key):
    (tmp_path / "a_file").write_text("{}")
    (tmp_path / "a_dir").mkdir()
    (tmp_path / "latin1.json").write_bytes('{"n": "\xe9"}'.encode("latin-1"))
    path = tmp_path / relative
    code = main(["kpr", "--seeds", "1", "--outdir", str(tmp_path / "out"), flag, str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: {key} {path} "), err


@pytest.mark.parametrize("name", ["lambda_table.csv", "summary.json"])
def test_unwritable_output_exits_2_naming_outdir_and_file(tmp_path, capsys, name):
    # An older run's files, one of them replaced by a directory: the failed
    # run must leave every one of them, and nothing else, as it was.
    outdir = tmp_path / "out"
    assert main(["solve-lambda", "--delta-max", "3", "--outdir", str(outdir)]) == 0
    (outdir / name).unlink()
    (outdir / name).mkdir()
    (outdir / name / "kept").write_text("x")
    before = {path.name: path.is_dir() or path.read_bytes() for path in outdir.iterdir()}
    capsys.readouterr()
    code = main(["solve-lambda", "--outdir", str(outdir)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: outdir {outdir} "), err
    assert f" {outdir / name}: " in err, err
    after = {path.name: path.is_dir() or path.read_bytes() for path in outdir.iterdir()}
    assert after == before
    assert [path.name for path in (outdir / name).iterdir()] == ["kept"]


# 24 bytes per agent must stay within 1 GiB: 2**30 // 24 = 44 739 242, so
# 44 739 241 is the largest odd n simulate and sweep take; kpr takes 8 * 10**6.
POPULATION_BOUNDS = [("simulate", 44739241, 2), ("sweep", 44739241, 2), ("kpr", 8 * 10**6, 1)]


@pytest.fixture
def never_dispatch(monkeypatch):
    def allocate(manifest):
        raise AssertionError(f"dispatched {manifest.params}")

    monkeypatch.setattr(cli, "dispatch", allocate)


@pytest.mark.usefixtures("never_dispatch")
class TestPopulationBound:
    """An n whose arrays would pass 1 GiB is refused while parsing, before any allocation."""

    @pytest.mark.parametrize("subcommand,bound,step", POPULATION_BOUNDS)
    def test_one_past_the_bound_exits_2_naming_n(self, tmp_path, capsys, subcommand, bound, step):
        assert parse_config([subcommand, "--n", str(bound)]).params["n"] == bound
        code = main([subcommand, "--n", str(bound + step), "--outdir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: n "), err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("subcommand", ["simulate", "sweep"])
    def test_huge_config_population_exits_2_naming_n(self, tmp_path, capsys, subcommand):
        config = tmp_path / "run.json"
        config.write_text('{"n": 1000000000000000000000001}')
        code = main([subcommand, "--config", str(config), "--outdir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: n 1000000000000000000000001 "), err
        assert not (tmp_path / "out").exists()


@pytest.mark.usefixtures("never_dispatch")
@pytest.mark.parametrize("subcommand", ["simulate", "sweep"])
class TestSizeGuardsNameTheirLimits:
    """A refused run names the largest value of the refused key that fits."""

    def test_one_step_past_the_record_names_the_largest_steps(self, tmp_path, capsys, subcommand):
        # 13 bytes a day, for days 0 .. steps: 2**30 // 13 - 1 = 82 595 523
        argv = [subcommand, "--n", "2001", "--steps"]
        assert parse_config([*argv, "82595523"]).params["steps"] == 82595523
        code = main([*argv, "82595524", "--outdir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: steps 82595524 at n 2001 needs a 1 GiB record, above "
                              "the 1 GiB limit; at most 82595523 steps fit at that n\n"), err
        assert not (tmp_path / "out").exists()

    def test_one_odd_n_past_the_arrays_names_the_largest_n(self, tmp_path, capsys, subcommand):
        code = main([subcommand, "--n", "44739243", "--outdir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: n 44739243 needs 1 GiB of per-agent arrays, above the "
                              "1 GiB limit; the largest odd n is 44739241\n"), err
        assert not (tmp_path / "out").exists()


@pytest.mark.usefixtures("never_dispatch")
class TestSeedsBound:
    """A seeds count past 10**6 is refused while parsing, before any run."""

    @pytest.mark.parametrize("subcommand", ["sweep", "kpr"])
    def test_the_cap_itself_parses(self, subcommand):
        assert parse_config([subcommand, "--seeds", str(10**6)]).params["seeds"] == 10**6

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("seeds", [10**6 + 1, 10**12, 10**20])
    @pytest.mark.parametrize("subcommand", ["sweep", "kpr"])
    def test_past_the_cap_exits_2_naming_seeds(self, tmp_path, capsys, subcommand, seeds, source):
        argv = [subcommand, "--outdir", str(tmp_path / "out")]
        if source == "flag":
            argv += ["--seeds", str(seeds)]
        else:
            config = tmp_path / "run.json"
            config.write_text(f'{{"seeds": {seeds}}}')
            argv += ["--config", str(config)]
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: seeds must lie in [1, 1000000], got {seeds}"), err
        assert not (tmp_path / "out").exists()


class TestWaitBound:
    """wait_t stops at 2**62, so the engine's int64 day counts cannot wrap."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_the_bound_runs_like_a_wait_past_the_horizon(self, tmp_path, seed):
        # No reset falls inside 200 days at wait_t = 200, nor at the bound.
        rows = {}
        for wait_t in (MAX_WAIT_T, 200):
            outdir = tmp_path / str(wait_t)
            argv = ["simulate", "--n", "201", "--steps", "200", "--seed", str(seed),
                    "--wait-t", str(wait_t), "--outdir", str(outdir)]
            assert main(argv) == 0
            rows[wait_t] = (outdir / "trajectory.csv").read_text(encoding="utf-8").splitlines()[3:]
        assert len(rows[200]) == 201
        assert rows[MAX_WAIT_T] == rows[200]

    @pytest.mark.usefixtures("never_dispatch")
    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("subcommand", ["simulate", "sweep"])
    def test_one_past_the_bound_exits_2_naming_wait_t(self, tmp_path, capsys, subcommand, source):
        wait_t = MAX_WAIT_T + 1
        argv = [subcommand, "--outdir", str(tmp_path / "out")]
        if source == "flag":
            argv += ["--wait-t", str(wait_t)]
        else:
            config = tmp_path / "run.json"
            config.write_text(f'{{"wait_t": {wait_t}}}')
            argv += ["--config", str(config)]
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2
        message = f"error: wait_t must be at most 2**62 = {MAX_WAIT_T}, got {wait_t}"
        assert err.startswith(message), err
        assert not (tmp_path / "out").exists()


def test_kpr_keeps_at_most_64_bytes_per_seed(tmp_path, monkeypatch):
    # Every seed gets the same one-day run, so what grows with the seed count
    # is what the subcommand keeps per seed, including its CSV rows.
    result = kpr_run(1, 1, derive_rng(0))
    monkeypatch.setattr(cli, "kpr_run", lambda n, max_steps, rng: result)
    monkeypatch.setattr(cli, "derive_rng", lambda *key: None)
    peaks = []
    for seeds in (20_000, 120_000):
        manifest = parse_config(["kpr", "--n", "1", "--max-steps", "1", "--seeds", str(seeds),
                                 "--outdir", str(tmp_path)])
        tracemalloc.start()
        try:
            cli.dispatch(manifest)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert (peaks[1] - peaks[0]) / 100_000 <= 64, peaks


def _one_value_tally(value: int, count: int) -> list[int]:
    return [0] * value + [count]


@pytest.mark.parametrize("parity", [0, 1], ids=["even", "odd"])
@given(tally=st.one_of(
    st.lists(st.integers(0, 40), min_size=1, max_size=60),
    st.builds(_one_value_tally, st.integers(0, 5000), st.integers(1, 40)),
))
@settings(max_examples=150, deadline=None)
def test_tally_summary_is_numpy_of_the_values_bit_for_bit(parity, tally):
    # Far below 2**53: no sum of the values here passes 5000 * 40.
    assume(sum(tally) % 2 == parity and sum(tally))
    values = np.repeat(np.arange(len(tally)), tally)
    summary = cli._tally_summary(np.array(tally))
    assert list(summary) == ["count", "mean", "median", "max"]
    assert type(summary["count"]) is type(summary["max"]) is int
    assert summary["count"] == values.size and summary["max"] == np.max(values)
    for key, expected in (("mean", np.mean(values)), ("median", np.median(values))):
        assert type(summary[key]) is float
        assert summary[key].hex() == float(expected).hex(), key


@pytest.mark.parametrize("n", [5, 2001])
@pytest.mark.parametrize("argv", [
    ["simulate", "--stats", "--tau-max", "5"],
    ["simulate", "--stats", "--tau-max", "5", "--mode", "baseline"],
    ["sweep", "--epsilons", "0.5", "--seeds", "1"],
], ids=["simulate", "simulate-baseline", "sweep"])
def test_dispatch_holds_the_record_plus_a_fixed_block(tmp_path, argv, n):
    # Beyond the 13 bytes a day the record guard counts, simulate --stats
    # keeps S(tau)'s one-byte winning-side series, and sweep nothing; every
    # other stage, the tally of recovery episodes included, works in fixed
    # blocks.
    def manifest(steps):
        return parse_config([*argv, "--n", str(n), "--steps", str(steps),
                             "--outdir", str(tmp_path)])

    dispatch(manifest(10))  # imports and the rate table, outside the measurement
    excess = []
    for days in (10**5, 10**6):
        planned = manifest(days)
        tracemalloc.start()
        try:
            dispatch(planned)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held = 13 * (days + 1)
        if argv[0] == "simulate":
            held += days + 1
        excess.append(peak - held)
    assert max(excess) <= 2**22, excess
    assert excess[1] <= excess[0] + 2**18, excess


def test_kpr_rows_are_per_seed(tmp_path):
    # Row i depends on stream i alone: more seeds keep the first rows, and
    # each row is a lone kpr_run, unconverged ones (-1) included.  Seed 10
    # leaves row 2 unconverged after 3 days.
    rows = {}
    for seeds in (3, 5):
        outdir = tmp_path / str(seeds)
        assert main(["kpr", "--n", "16", "--max-steps", "3", "--seeds", str(seeds),
                     "--seed", "10", "--outdir", str(outdir)]) == 0
        rows[seeds] = (outdir / "kpr_runs.csv").read_text().splitlines()[3:]
    assert rows[5][:3] == rows[3]
    expected = []
    for index in range(5):
        result = kpr_run(16, 3, derive_rng(10, index))
        day = -1 if result.convergence_day is None else result.convergence_day
        expected.append(f"{index},{day},{result.utilization[-1]:.12g}")
    assert rows[5] == expected
    assert ",-1," in rows[3][2]


def test_integral_config_number_is_an_integer(tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"n": 201.0, "epsilon": 1}))
    params = parse_config(["simulate", "--config", str(config)]).params
    assert params["n"] == 201 and type(params["n"]) is int
    assert params["epsilon"] == 1.0 and type(params["epsilon"]) is float


_STATS_CALL = "simulate --n 11 --steps 20 --stats --tau-max 5"

# Each data file's header line as README documents it, written out here rather
# than read from the CLI's own table, and a small call that writes the file.
DOCUMENTED_HEADERS = {
    "lambda_table.csv": ("delta,lambda,gap", "solve-lambda --delta-max 3"),
    "payoff_table.csv": ("delta,lambda,thin_stay,thin_switch,crowd_stay,crowd_switch",
                         "payoff-table --delta-max 3"),
    "trajectory.csv": ("day,delta,minority_side,reset", "simulate --n 11 --steps 20"),
    "delta_hist.csv": ("delta,frequency", _STATS_CALL),
    "s_autocorr.csv": ("lag,value", _STATS_CALL),
    "c_autocorr.csv": ("lag,value", _STATS_CALL),
    "sweep.csv": ("epsilon,eta_mean,eta_stderr,seeds",
                  "sweep --n 11 --steps 20 --seeds 2 --epsilons 0.2,0.4"),
    "kpr_runs.csv": ("seed_index,convergence_day,final_utilization",
                     "kpr --n 4 --seeds 2 --max-steps 50"),
}


class TestDispatch:
    def test_solve_lambda_reference_values(self, tmp_path):
        manifest = parse_config(
            ["solve-lambda", "--delta-max", "10", "--outdir", str(tmp_path)]
        )
        assert dispatch(manifest) == 0
        lines = (tmp_path / "lambda_table.csv").read_text().splitlines()
        assert lines[0].startswith("# mgstrat solve-lambda")
        assert manifest.digest() in lines[1]
        assert lines[2] == "delta,lambda,gap"
        rows = [line.split(",") for line in lines[3:]]
        assert len(rows) == 10
        table = {int(r[0]): float(r[1]) for r in rows}
        assert table[1] == pytest.approx(1.14619, abs=1e-5)
        assert table[10] == pytest.approx(10.16448, abs=1e-5)

    def test_every_csv_embeds_manifest_hash(self, tmp_path):
        manifest = parse_config(
            [
                "simulate",
                "--n",
                "201",
                "--steps",
                "400",
                "--stats",
                "--tau-max",
                "50",
                "--outdir",
                str(tmp_path),
            ]
        )
        assert dispatch(manifest) == 0
        digest = manifest.digest()
        for name in manifest.outputs:
            path = tmp_path / name
            assert path.exists(), name
            if name.endswith(".csv"):
                head = path.read_text().splitlines()[:2]
                assert head[0].startswith("#")
                assert digest in head[1]
            else:
                document = json.loads(path.read_text())
                assert next(iter(document)) == "manifest_hash"
                assert document["manifest_hash"] == digest

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve-lambda", "--delta-max", "3"],
            ["payoff-table", "--delta-max", "3"],
            ["simulate", "--n", "11", "--steps", "20"],
            ["simulate", "--n", "11", "--steps", "20", "--stats", "--tau-max", "5"],
            ["sweep", "--n", "11", "--steps", "20", "--seeds", "2", "--epsilons", "0.2,0.4"],
            ["kpr", "--n", "4", "--seeds", "2", "--max-steps", "50"],
        ],
        ids=["solve-lambda", "payoff-table", "simulate", "simulate-stats", "sweep", "kpr"],
    )
    def test_writes_exactly_the_planned_files(self, tmp_path, argv):
        manifest = parse_config(argv + ["--outdir", str(tmp_path)])
        assert dispatch(manifest) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(manifest.outputs)

    @pytest.mark.parametrize("name", DOCUMENTED_HEADERS)
    def test_csv_header_is_the_documented_one(self, tmp_path, name):
        header, call = DOCUMENTED_HEADERS[name]
        assert main(call.split() + ["--outdir", str(tmp_path)]) == 0
        assert (tmp_path / name).read_text(encoding="utf-8").splitlines()[2] == header

    def test_simulate_row_count_and_summary(self, tmp_path):
        code = main(
            ["simulate", "--n", "201", "--steps", "500", "--outdir", str(tmp_path)]
        )
        assert code == 0
        lines = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert len(lines) == 3 + 501  # two comments, header, day 0..500
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["results"]["days"] == 501
        assert summary["results"]["eta"] > 0

    def test_episodes_summarize_the_run_and_baseline_has_none(self, tmp_path):
        args = ["simulate", "--n", "201", "--steps", "3000", "--wait-t", "2", "--seed", "9"]
        assert main(args + ["--outdir", str(tmp_path / "strategy")]) == 0
        assert main(args + ["--mode", "baseline", "--outdir", str(tmp_path / "baseline")]) == 0

        def results(name):
            return json.loads((tmp_path / name / "summary.json").read_text())["results"]

        tally = episode_lengths(run(StrategyConfig(n=201, wait_t=2, seed=9), 3000))
        lengths = np.repeat(np.arange(tally.size), tally)
        assert lengths.size
        assert results("strategy")["episodes"] == {
            "count": lengths.size,
            "mean": lengths.mean(),
            "median": np.median(lengths),
            "max": lengths.max(),
        }
        assert "episodes" not in results("baseline")

    def test_burn_in_reaches_eta_and_the_histogram_only(self, tmp_path):
        args = ["simulate", "--n", "201", "--steps", "50", "--stats", "--tau-max", "10"]
        for burn_in in (0, 40):
            outdir = str(tmp_path / str(burn_in))
            assert main(args + ["--burn-in", str(burn_in), "--outdir", outdir]) == 0

        def rows(burn_in, name):  # past the two hash comments and the header
            return (tmp_path / str(burn_in) / name).read_text().splitlines()[3:]

        def results(burn_in):
            return json.loads((tmp_path / str(burn_in) / "summary.json").read_text())["results"]

        for name in ("trajectory.csv", "s_autocorr.csv", "c_autocorr.csv"):
            assert rows(0, name) == rows(40, name), name
        full, burned = results(0), results(40)
        assert "episodes" in full
        assert {**burned, "eta": None} == {**full, "eta": None}
        # eta and the histogram read days 40..50 of the shared trajectory
        deltas = np.array([int(row.split(",")[1]) for row in rows(0, "trajectory.csv")])
        kept = deltas[40:]
        assert burned["eta"] == pytest.approx(4.0 / 201 * np.mean((kept + 0.5) ** 2), rel=1e-12)
        values, counts = np.unique(kept, return_counts=True)
        assert [int(row.split(",")[0]) for row in rows(40, "delta_hist.csv")] == values.tolist()
        assert [float(row.split(",")[1]) for row in rows(40, "delta_hist.csv")] == pytest.approx(
            (counts / kept.size).tolist(), rel=1e-12
        )

    def test_payoff_table_monotone(self, tmp_path):
        assert main(["payoff-table", "--delta-max", "20", "--outdir", str(tmp_path)]) == 0
        lines = (tmp_path / "payoff_table.csv").read_text().splitlines()[3:]
        thin = [float(line.split(",")[2]) for line in lines]
        assert all(b < a for a, b in zip(thin, thin[1:]))

    def test_sweep_output_shape(self, tmp_path):
        code = main(
            [
                "sweep",
                "--n",
                "201",
                "--epsilons",
                "0.3,0.7",
                "--seeds",
                "3",
                "--steps",
                "500",
                "--outdir",
                str(tmp_path),
            ]
        )
        assert code == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[2] == "epsilon,eta_mean,eta_stderr,seeds"
        rows = [line.split(",") for line in lines[3:]]
        assert [float(r[0]) for r in rows] == [0.3, 0.7]
        assert all(float(r[2]) >= 0 for r in rows)
        assert all(int(r[3]) == 3 for r in rows)

    def test_kpr_output(self, tmp_path):
        code = main(
            [
                "kpr",
                "--n",
                "8",
                "--seeds",
                "10",
                "--max-steps",
                "200",
                "--outdir",
                str(tmp_path),
            ]
        )
        assert code == 0
        lines = (tmp_path / "kpr_runs.csv").read_text().splitlines()
        assert len(lines) == 3 + 10
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["results"]["converged"] == 10

    def test_kpr_summary_reads_the_converged_rows(self, tmp_path):
        # Seed 6 leaves row 5 of 7 unconverged (-1); the other six converge
        # on day 2 or 3, three each, so the median falls between two days.
        assert main(["kpr", "--n", "32", "--max-steps", "3", "--seeds", "7", "--seed", "6",
                     "--outdir", str(tmp_path)]) == 0
        rows = (tmp_path / "kpr_runs.csv").read_text().splitlines()[3:]
        days = np.array([int(row.split(",")[1]) for row in rows])
        converged = days[days >= 0]
        assert converged.size % 2 == 0 and days[5] == -1
        results = json.loads((tmp_path / "summary.json").read_text())["results"]
        assert results == {
            "seeds": 7,
            "converged": converged.size,
            "unconverged": days.size - converged.size,
            "mean_convergence_day": np.mean(converged),
            "median_convergence_day": np.median(converged),
            "max_convergence_day": np.max(converged),
        }
        assert results["median_convergence_day"] == 2.5

    def test_kpr_summary_has_no_days_when_no_seed_converges(self, tmp_path):
        assert main(["kpr", "--n", "16", "--max-steps", "1", "--seeds", "4", "--seed", "10",
                     "--outdir", str(tmp_path)]) == 0
        results = json.loads((tmp_path / "summary.json").read_text())["results"]
        assert results == {"seeds": 4, "converged": 0, "unconverged": 4}

    def test_byte_identical_reruns(self, tmp_path):
        args = ["simulate", "--n", "201", "--steps", "400", "--seed", "7", "--stats",
                "--tau-max", "50"]
        assert main(args + ["--outdir", str(tmp_path / "one")]) == 0
        assert main(args + ["--outdir", str(tmp_path / "two")]) == 0
        names = [p.name for p in sorted((tmp_path / "one").iterdir())]
        assert names
        for name in names:
            assert (tmp_path / "one" / name).read_bytes() == (
                tmp_path / "two" / name
            ).read_bytes(), name

    def test_numeric_failure_exit_code(self, tmp_path, monkeypatch, capsys):
        def explode(*args, **kwargs):
            raise NumericError("synthetic failure")

        monkeypatch.setattr("mgstrat.cli.solve_lambda", explode)
        code = main(["solve-lambda", "--outdir", str(tmp_path)])
        assert code == 3
        err = capsys.readouterr().err
        assert "numeric failure" in err
        assert "solver" in err

    def test_unreachable_tolerance_exits_3_naming_the_imbalance(self, tmp_path, capsys):
        # filterwarnings = error: a numpy warning on the way fails the test.
        code = main(["solve-lambda", "--tolerance", "1e-300", "--outdir", str(tmp_path)])
        assert code == 3
        assert re.search(r"after 200 steps for imbalance \d+$", capsys.readouterr().err)

    def test_version_flag(self, capsys):
        code = main(["--version"])
        assert code == 0
        assert "mgstrat" in capsys.readouterr().out

    def test_version_matches_pyproject(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        project = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]
        assert project["version"] == __version__


class TestManifest:
    def test_document_round_trip(self, tmp_path):
        manifest = parse_config(["solve-lambda", "--outdir", str(tmp_path)])
        document = manifest.document()
        assert document["manifest_hash"] == manifest.digest()
        assert document["params"]["delta_max"] == 10
        assert document["outputs"][0] == "lambda_table.csv"
        assert isinstance(manifest, RunManifest)

    def test_hash_is_stable_literal(self):
        # canonical form is sorted compact JSON; the digest must not depend
        # on dict insertion order
        a = RunManifest("kpr", {"n": 8, "seeds": 2}, 1, "0.1.0", ("x.csv",), None)
        b = RunManifest("kpr", {"seeds": 2, "n": 8}, 1, "0.1.0", ("x.csv",), None)
        assert a.digest() == b.digest()

    # Where digest() takes SHA-256 from, and the imports it must find missing
    # first.  Each route but the interpreter's own gets a recording stand-in.
    ROUTES = {
        "interpreter": (),
        "_sha2": (),
        "_sha256": ("_sha2",),
        "hashlib": ("_sha2", "_sha256"),
    }

    @pytest.mark.parametrize("route", list(ROUTES))
    @pytest.mark.parametrize("subcommand", list(cli._SUBCOMMANDS))
    def test_digest_is_the_sha256_prefix(
        self, tmp_path, monkeypatch, request, subcommand, route
    ):
        manifest = parse_config([subcommand, "--outdir", str(tmp_path)])
        payload = manifest.canonical().encode("utf-8")
        hashed = []

        def sha256(data):
            hashed.append(data)
            return hashlib.sha256(data)

        for missing in self.ROUTES[route]:
            monkeypatch.setitem(sys.modules, missing, None)
        if route != "interpreter":
            monkeypatch.setitem(sys.modules, route, types.SimpleNamespace(sha256=sha256))
        # The probe runs once a process; clear it so it meets this route, and
        # again afterwards so no later test meets this route's stand-in.
        cli._builtin_sha256.cache_clear()
        request.addfinalizer(cli._builtin_sha256.cache_clear)
        assert manifest.digest() == hashlib.sha256(payload).hexdigest()[:16]
        assert hashed == ([] if route == "interpreter" else [payload])


def _format_value(value: Any) -> str:
    """The former one-cell-at-a-time CSV formatter, kept as the oracle."""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.12g}"
    return str(value)


def _per_row_csv(columns: Sequence[Sequence[Any]]) -> str:
    """The former data rows of ``_write_csv``, one format call per row, kept as the oracle."""
    blocks = [np.asarray(column) for column in columns]
    line = ",".join("{:.12g}" if b.dtype.kind == "f" else "{:d}" for b in blocks) + "\n"
    return "".join(map(line.format, *(b.tolist() for b in blocks)))


class TestCsvBlocks:
    @pytest.mark.parametrize("block_cells", [1, 7, cli.CSV_BLOCK_CELLS])
    def test_blocks_match_the_per_cell_formatter(self, tmp_path, monkeypatch, block_cells):
        # 6 columns: 1 and 7 cells make one-row blocks
        monkeypatch.setattr(cli, "CSV_BLOCK_CELLS", block_cells)
        rng = derive_rng(400)
        rows = 50
        floats = rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, rows)
        floats[:7] = [0.0, -0.0, 1 / 3, 1e16, 123456789012.5, np.inf, np.nan]
        columns = (
            range(rows),
            rng.integers(-(10**15), 10**15, rows),
            rng.integers(-3, 3, rows).astype(np.int8),
            floats,
            rng.random(rows) < 0.5,
            [float(x) for x in rng.random(rows)],
        )
        manifest = parse_config(["kpr", "--outdir", str(tmp_path)])
        path = tmp_path / "table.csv"
        cli._write_csv(path, manifest, ["a", "b", "c", "d", "e", "f"], columns)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[2] == "a,b,c,d,e,f"
        assert lines[3:] == [",".join(_format_value(v) for v in row) for row in zip(*columns)]

    def test_blocks_match_the_per_row_formatter_for_every_column_kind(self, tmp_path, monkeypatch):
        # 7 rows of 9 cells in blocks of 3 rows: two full blocks and a one-row tail.
        monkeypatch.setattr(cli, "CSV_BLOCK_CELLS", 3 * 9)
        int64, int32 = np.iinfo(np.int64), np.iinfo(np.int32)
        columns = (
            range(7),
            np.arange(7),
            np.array([int64.min, int64.max, 0, -1, 1, int64.min + 1, int64.max - 1]),
            np.array([int32.min, int32.max, 0, -1, 1, 7, -7], dtype=np.int32),
            np.array([-128, 127, 0, -1, 1, 2, -2], dtype=np.int8),
            np.array([True, False, True, True, False, False, True]),
            np.array([-0.0, 5e-324, 1e16, 0.1, 1 / 3, -1.7976931348623157e308, 0.0]),
            [0.1, 0.2, 0.3, 1e-300, 2.5, -3.0, 1e21],
            (1, 2, 3, 4, 5, 6, 7),
        )
        header = [f"c{i}" for i in range(len(columns))]
        manifest = parse_config(["kpr", "--outdir", str(tmp_path)])
        path = tmp_path / "table.csv"
        cli._write_csv(path, manifest, header, columns)
        expected = (f"# mgstrat kpr v{__version__}\n# manifest: {manifest.digest()}\n"
                    + ",".join(header) + "\n" + _per_row_csv(columns))
        assert path.read_bytes() == expected.encode("utf-8")

    @pytest.mark.parametrize("mode", [engine.MODE_STRATEGY, engine.MODE_BASELINE])
    @pytest.mark.parametrize("block_cells", [4, 12, cli.CSV_BLOCK_CELLS],
                             ids=["rows-1", "rows-3", "default"])
    def test_trajectory_rows_match_the_whole_run_columns(
        self, tmp_path, monkeypatch, mode, block_cells
    ):
        # The day index and the winning side are made a block at a time.
        # Four columns make blocks of 1, 3 and 2 048 rows; at 3 and 2 048
        # the last block is a partial one.
        steps = 5_000 if block_cells == cli.CSV_BLOCK_CELLS else 300
        monkeypatch.setattr(cli, "CSV_BLOCK_CELLS", block_cells)
        assert main(["simulate", "--n", "201", "--steps", str(steps), "--mode", mode,
                     "--seed", "5", "--outdir", str(tmp_path)]) == 0
        trajectory = run(StrategyConfig(n=201, seed=5, mode=mode), steps)
        minority_side = np.where(trajectory.deltas >= 0, 1, -1)
        columns = (np.arange(trajectory.days), trajectory.deltas, minority_side, trajectory.reset)
        lines = (tmp_path / "trajectory.csv").read_text(encoding="utf-8").splitlines(True)
        assert "".join(lines[3:]) == _per_row_csv(columns)


class TestRateTables:
    """Data rows built from the scalar oracle roots and the per-cell formatter."""

    def test_solve_lambda_rows(self, tmp_path):
        assert main(["solve-lambda", "--delta-max", "3000", "--outdir", str(tmp_path)]) == 0
        lines = (tmp_path / "lambda_table.csv").read_text(encoding="utf-8").splitlines()
        expected = []
        for delta in range(1, 3001):
            lam = scalar_lambda_root(delta)
            expected.append(",".join(map(_format_value, (delta, lam, lam - delta))))
        assert lines[3:] == expected

    def test_payoff_table_rows(self, tmp_path):
        assert main(["payoff-table", "--delta-max", "1000", "--outdir", str(tmp_path)]) == 0
        lines = (tmp_path / "payoff_table.csv").read_text(encoding="utf-8").splitlines()
        expected = []
        for delta in range(1, 1001):
            lam = scalar_lambda_root(delta)
            cells = (
                delta,
                lam,
                float(pdtr(delta, lam)),
                1.0 - float(pdtr(delta + 1, lam)),
                1.0 - float(pdtr(delta, lam)),
                float(pdtr(delta - 1, lam)),
            )
            expected.append(",".join(map(_format_value, cells)))
        assert lines[3:] == expected


def _python(*args: str) -> subprocess.CompletedProcess:
    """This interpreter run on the mgstrat under test, in a fresh process."""
    src = str(Path(mgstrat.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


# A fresh process's CLI call, by whether it goes through ``cli_entry``, as
# the ``mgstrat`` script runs it, or has ``runpy`` run ``mgstrat.cli`` as
# ``__main__``, as ``python -m mgstrat.cli`` does.
_ENTRY_CALLS = {
    True: "from mgstrat import cli; cli.cli_entry()",
    False: "import runpy; runpy.run_module('mgstrat.cli', run_name='__main__', alter_sys=True)",
}


def _fresh_call(
    argv: list[str], entry: bool, blocked: Sequence[str] = ()
) -> tuple[int, str, set[str], set[str] | None]:
    """Exit code, stderr, every module loaded and scipy's mapped libraries, of one call.

    The call runs in a fresh process; ``entry`` picks the route, as in
    ``_ENTRY_CALLS``.  The ``blocked`` modules are set to None in
    ``sys.modules`` first, so that importing them fails.  A None entry is a
    refusal, not a module, and is not counted as loaded.  The last item
    holds the files under a ``scipy.libs`` directory (the shared libraries
    scipy's wheels bundle: OpenBLAS, libgfortran) that the process maps
    once the call returns, or None where ``/proc/self/maps`` does not exist.
    """
    code = (
        "import os, sys\n"
        f"sys.modules.update(dict.fromkeys({list(blocked)!r}))\n"
        f"sys.argv[1:] = {argv!r}\n"
        "try:\n"
        f"    {_ENTRY_CALLS[entry]}\n"
        "finally:\n"
        "    loaded = [name for name, module in sys.modules.items() if module is not None]\n"
        "    print('modules:', *loaded, file=sys.stderr)\n"
        "    if os.path.exists('/proc/self/maps'):\n"
        "        with open('/proc/self/maps') as maps:\n"
        "            files = {line.split()[-1] for line in maps if '/scipy.libs/' in line}\n"
        "        print('scipy.libs:', *sorted(files), file=sys.stderr)\n"
    )
    result = _python("-c", code)

    def last(prefix: str) -> set[str] | None:
        lines = [line for line in result.stderr.splitlines() if line.startswith(prefix)]
        return set(lines[-1].split()[1:]) if lines else None

    return result.returncode, result.stderr, last("modules: ") or set(), last("scipy.libs:")


_RATE_STACK = {"mgstrat.solver", "mgstrat.dist", "mgstrat.payoff", "mgstrat.stats", "scipy"}
_CROWD_STACK = {"mgstrat.engine", "mgstrat.kpr", "mgstrat.stats"}
# OpenSSL's libcrypto, which _hashlib maps, costs a process 3.6 MB of RSS.
# The manifest hash takes the interpreter's own SHA-256, so a rate
# subcommand never imports hashlib.  A seeded one does, through
# numpy.random.bit_generator (secrets, hmac), but the console entry points
# block _hashlib, so hashlib falls back to the interpreter's own hashes too.
_RATE_CALL_LEFT_OUT = _CROWD_STACK | {"_hashlib", "hashlib"}
# The CDFs take gammaincc from scipy.special._special_ufuncs, which links only
# the C++ runtime and libm.  scipy.special._ufuncs, which holds pdtr and
# betaincc, links scipy's own OpenBLAS and libgfortran and loads six more
# extensions (_ufuncs_cxx among them) and scipy._lib._ccallback; only the
# finite-crowd solver needs it.
_UFUNCS = {"scipy.special._ufuncs", "scipy.special._ufuncs_cxx", "scipy._lib._ccallback"}
# A seeded subcommand loads numpy's Generator, PCG64 and SeedSequence without
# numpy.random's package start-up, which would also load these.
_NUMPY_RANDOM_INIT = {
    "numpy.random", "numpy.random.mtrand", "numpy.random._mt19937",
    "numpy.random._philox", "numpy.random._sfc64", "numpy.random._pickle",
}


def test_kpr_and_version_never_import_scipy(tmp_path):
    # Each call imports only what its subcommand runs: argv, exit code, a
    # module it must load, and the modules (a top-level name covers its
    # submodules) it must leave out.
    calls = [
        (["--version"], 0, "mgstrat", {"numpy", "scipy"}),
        (["--help"], 0, "mgstrat", {"numpy", "scipy"}),
        ([], 2, "mgstrat", {"numpy", "scipy"}),
        (["kpr", "--n", "16", "--seeds", "3"], 0, "mgstrat.kpr",
         _RATE_STACK | _NUMPY_RANDOM_INIT | {"_hashlib"}),
        (["kpr", "--n", "0"], 2, "mgstrat._checks", _RATE_STACK | _NUMPY_RANDOM_INIT),
        (["solve-lambda", "--delta-max", "5"], 0, "mgstrat.solver",
         _RATE_CALL_LEFT_OUT | _UFUNCS),
        (["payoff-table", "--delta-max", "5"], 0, "mgstrat.payoff",
         _RATE_CALL_LEFT_OUT | _UFUNCS),
        (["simulate", "--n", "21", "--steps", "20"], 0, "mgstrat.engine",
         {"mgstrat.kpr", "mgstrat.payoff", "_hashlib"} | _UFUNCS | _NUMPY_RANDOM_INIT),
        (["sweep", "--n", "21", "--epsilons", "0.5", "--seeds", "2", "--steps", "20"], 0,
         "mgstrat.engine",
         {"mgstrat.kpr", "mgstrat.payoff", "_hashlib"} | _UFUNCS | _NUMPY_RANDOM_INIT),
    ]
    jobs = [
        (argv, entry, exit_code, needed, left_out)
        for argv, exit_code, needed, left_out in calls
        for entry in (False, True)
    ]

    def call(job):
        argv, entry, exit_code = job[:3]
        if exit_code == 0 and argv[0] in cli._SUBCOMMANDS:
            argv = [*argv, "--outdir", str(tmp_path / f"{argv[0]}-{entry}")]
        return _fresh_call(argv, entry)

    # Two fresh processes at a time, one per vCPU of the machine the suite is timed on.
    with ThreadPoolExecutor(max_workers=2) as pool:
        results = list(pool.map(call, jobs))
    for (argv, entry, exit_code, needed, left_out), (code, err, loaded, mapped) in zip(
        jobs, results
    ):
        assert code == exit_code, (argv, entry, err)
        assert needed in loaded, (argv, entry, sorted(loaded))
        found = {name for name in loaded if {name, name.split(".")[0]} & left_out}
        assert found == set(), (argv, entry)
        # No call maps a library of scipy's own (numpy's OpenBLAS stays);
        # unchecked where the process cannot list its mappings.
        assert mapped is None or mapped == set(), (argv, entry, mapped)


def test_rate_subcommands_load_the_ufuncs_without_scipy_special(tmp_path):
    calls = [
        ["solve-lambda", "--delta-max", "5"],
        ["payoff-table", "--delta-max", "5"],
        ["simulate", "--n", "21", "--steps", "20", "--stats", "--tau-max", "3"],
        ["sweep", "--n", "21", "--epsilons", "0.5", "--seeds", "1", "--steps", "20"],
    ]
    argvs = [[*call, "--outdir", str(tmp_path / str(i))] for i, call in enumerate(calls)]
    code = (
        "import json, sys\n"
        "from mgstrat import dist\n"
        "from mgstrat.cli import main\n"
        f"for argv in {argvs!r}:\n"
        "    assert main(argv) == 0, argv\n"
        "loaded = sorted({'scipy.special', 'scipy._lib._array_api', 'numpy.f2py',\n"
        "                 'scipy.special._special_ufuncs', 'scipy.special._ufuncs'}\n"
        "                & set(sys.modules))\n"
        "import scipy.special\n"
        "same = scipy.special.gammaincc is dist._special('_special_ufuncs').gammaincc\n"
        "print(json.dumps([loaded, same]))\n"
    )
    result = _python("-c", code)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout.splitlines()[-1]) == [["scipy.special._special_ufuncs"], True]


def test_runners_read_only_names_the_import_binds():
    # Every global a runner reads (its LOAD_GLOBAL names, nested code
    # included) is bound by a bare ``import mgstrat.cli``, which loads no
    # numpy.  The package exports among them are stand-ins named after the
    # export they forward to: the names the benchmark's tracer and the tests
    # patch on ``cli``.
    code = (
        "import builtins, dis, json, sys\n"
        "import mgstrat.cli as cli\n"
        "def reads(code):\n"
        "    names = {i.argval for i in dis.get_instructions(code) if i.opname == 'LOAD_GLOBAL'}\n"
        "    for const in code.co_consts:\n"
        "        if hasattr(const, 'co_code'):\n"
        "            names |= reads(const)\n"
        "    return names - set(vars(builtins))\n"
        "unbound = {s: sorted(reads(e.runner.__code__) - set(vars(cli)))\n"
        "           for s, e in cli._SUBCOMMANDS.items()}\n"
        "numpy_loaded = 'numpy' in sys.modules\n"
        "import mgstrat\n"
        "read = set().union(*(reads(e.runner.__code__) for e in cli._SUBCOMMANDS.values()))\n"
        "stand_ins = {n: [getattr(cli, n).__name__, hasattr(mgstrat, n)]\n"
        "             for n in sorted(read & set(mgstrat._EXPORTS))}\n"
        "print(json.dumps([unbound, numpy_loaded, stand_ins]))\n"
    )
    result = _python("-c", code)
    assert result.returncode == 0, result.stderr
    unbound, numpy_loaded, stand_ins = json.loads(result.stdout)
    assert unbound == {name: [] for name in cli._SUBCOMMANDS}
    assert not numpy_loaded
    assert stand_ins == {name: [name, True] for name in (
        "c_autocorrelation", "delta_histogram", "derive_rng", "episode_lengths",
        "expected_payoffs", "inefficiency_eta", "kpr_run", "run", "s_autocorrelation",
        "solve_lambda",
    )}


# Names only the tests and the benchmark's probes reach: the per-agent
# choice record's check, the KPR stepper, the finite-n solver and the
# reset-day list.
RECORD_ONLY = (
    (stats, "binary"), (kpr, "kpr_init"), (kpr, "kpr_step"), (kpr, "KPRState"),
    (solver, "solve_p_finite"), (solver, "binomial_cdf"),
)


@pytest.mark.parametrize(
    "argv",
    [
        ["solve-lambda", "--delta-max", "50"],
        ["payoff-table", "--delta-max", "20"],
        ["simulate", "--n", "101", "--steps", "300", "--stats", "--tau-max", "10"],
        ["simulate", "--n", "101", "--steps", "300", "--stats", "--tau-max", "10",
         "--mode", "baseline"],
        ["sweep", "--n", "201", "--epsilons", "0.3,0.5,0.7", "--seeds", "2", "--steps", "500"],
        ["kpr", "--n", "32", "--seeds", "5"],
    ],
    ids=["solve-lambda", "payoff-table", "simulate-stats", "simulate-stats-baseline", "sweep",
         "kpr"],
)
def test_no_cli_call_runs_record_only_code(tmp_path, monkeypatch, argv):
    # Each stand-in notes that it was reached and forwards, so a failure
    # names every record-only name the call ran.
    reached = []

    def noting(name, original):
        def stand_in(*args, **kwargs):
            reached.append(name)
            return original(*args, **kwargs)

        return stand_in

    for module, name in RECORD_ONLY:
        monkeypatch.setattr(module, name, noting(name, getattr(module, name)))
    reset_days = engine.Trajectory.reset_days.fget
    monkeypatch.setattr(
        engine.Trajectory, "reset_days", property(noting("Trajectory.reset_days", reset_days))
    )
    signature, forward = inspect.signature(engine.run), cli.run

    def run_unrecorded(*args, **kwargs):
        passed = signature.bind(*args, **kwargs).arguments
        reached.extend(sorted({"record_choices", "initial_choices"} & passed.keys()))
        return forward(*args, **kwargs)

    monkeypatch.setattr(cli, "run", run_unrecorded)
    assert main(argv + ["--outdir", str(tmp_path)]) == 0
    assert reached == []


class TestCliEntry:
    """The console entry point freezes the import-time heap; main() never does."""

    def test_main_leaves_the_freeze_count_unchanged(self, tmp_path):
        before = gc.get_freeze_count()
        assert main(["kpr", "--n", "16", "--seeds", "3", "--outdir", str(tmp_path)]) == 0
        assert main(["solve-lambda", "--delta-max", "5", "--outdir", str(tmp_path)]) == 0
        assert gc.get_freeze_count() == before

    def test_cli_entry_freezes_before_main(self):
        code = (
            "import gc\n"
            "from mgstrat import cli\n"
            "cli.main = lambda: print(gc.get_freeze_count()) or 0\n"
            "cli.cli_entry()\n"
        )
        result = _python("-c", code)
        assert result.returncode == 0, result.stderr
        assert int(result.stdout) > 0

    @pytest.mark.parametrize("argv", [
        ["solve-lambda", "--delta-max", "50"],
        ["kpr", "--n", "16", "--seeds", "3"],
    ])
    def test_module_run_writes_the_in_process_bytes(self, tmp_path, argv):
        assert main([*argv, "--outdir", str(tmp_path / "main")]) == 0
        result = _python("-m", "mgstrat.cli", *argv, "--outdir", str(tmp_path / "module"))
        assert result.returncode == 0, result.stderr
        names = sorted(path.name for path in (tmp_path / "main").iterdir())
        assert names == sorted(path.name for path in (tmp_path / "module").iterdir())
        for name in names:
            module_bytes = (tmp_path / "module" / name).read_bytes()
            assert module_bytes == (tmp_path / "main" / name).read_bytes(), name

    def test_cli_entry_freezes_what_main_made(self):
        # The subcommand's imports happen inside main(), so cli_entry freezes
        # again once it returns: the exit collection skips their heap too.
        code = (
            "import gc\n"
            "from mgstrat import cli\n"
            "def main():\n"
            "    cli.made = [[] for _ in range(10_000)]\n"
            "    print(gc.get_freeze_count())\n"
            "    return 0\n"
            "cli.main = main\n"
            "try:\n"
            "    cli.cli_entry()\n"
            "except SystemExit as exc:\n"
            "    print(exc.code, gc.get_freeze_count())\n"
        )
        result = _python("-c", code)
        assert result.returncode == 0, result.stderr
        inside, ending = result.stdout.splitlines()
        exit_code, after = ending.split()
        assert exit_code == "0"
        assert int(after) - int(inside) > 10_000

    def test_main_leaves_the_hashlib_entry_as_it_found_it(self, tmp_path):
        # Only cli_entry blocks _hashlib; main() keeps the caller's hashlib.
        missing = object()
        before = sys.modules.get("_hashlib", missing)
        assert main(["kpr", "--n", "16", "--seeds", "3", "--outdir", str(tmp_path / "k")]) == 0
        assert sys.modules.get("_hashlib", missing) is before
        assert main(["solve-lambda", "--delta-max", "5", "--outdir", str(tmp_path / "s")]) == 0
        assert sys.modules.get("_hashlib", missing) is before

    def test_main_leaves_the_environment_as_it_found_it(self, tmp_path):
        # Only cli_entry defaults OPENBLAS_NUM_THREADS; main() sets nothing.
        before = dict(os.environ)
        assert main(["kpr", "--n", "16", "--seeds", "3", "--outdir", str(tmp_path / "k")]) == 0
        assert dict(os.environ) == before
        assert main(["solve-lambda", "--delta-max", "5", "--outdir", str(tmp_path / "s")]) == 0
        assert dict(os.environ) == before

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                        reason="threads are counted in /proc/self/task")
    def test_a_fresh_cli_process_runs_on_one_thread(self, tmp_path, monkeypatch):
        # numpy's OpenBLAS would start a pool of worker threads as it loads
        # (a CLI process loads no scipy OpenBLAS); no subcommand calls BLAS,
        # so both console routes start none.
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        jobs = [
            (argv, entry)
            for argv in (
                ["solve-lambda", "--delta-max", "5"],
                ["simulate", "--n", "21", "--steps", "20"],
                ["kpr", "--n", "16", "--seeds", "3"],
            )
            for entry in (True, False)
        ]

        def call(job):
            argv, entry = job
            argv = [*argv, "--outdir", str(tmp_path / f"{argv[0]}-{entry}")]
            return _python("-c", (
                "import os, sys\n"
                f"sys.argv[1:] = {argv!r}\n"
                "try:\n"
                f"    {_ENTRY_CALLS[entry]}\n"
                "finally:\n"
                "    print('threads:', len(os.listdir('/proc/self/task')), file=sys.stderr)\n"
            ))

        # Two fresh processes at a time, one per vCPU of the machine the suite is timed on.
        with ThreadPoolExecutor(max_workers=2) as pool:
            results = list(pool.map(call, jobs))
        for job, result in zip(jobs, results):
            assert result.returncode == 0, (job, result.stderr)
            assert result.stderr.splitlines()[-1] == "threads: 1", job

    @pytest.mark.parametrize("value, seen", [(None, "1"), ("2", "2")])
    def test_cli_entry_keeps_an_explicit_openblas_thread_count(self, monkeypatch, value, seen):
        # The default is set before main() imports numpy, and only where the
        # caller set nothing.
        if value is None:
            monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        else:
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", value)
        code = (
            "import os, sys\n"
            "from mgstrat import cli\n"
            "cli.main = lambda: print(os.environ['OPENBLAS_NUM_THREADS'], 'numpy' in sys.modules)"
            " or 0\n"
            "cli.cli_entry()\n"
        )
        result = _python("-c", code)
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == [seen, "False"]

    @pytest.mark.parametrize("argv", [
        ["kpr", "--n", "16", "--seeds", "3"],
        ["solve-lambda", "--delta-max", "5"],
    ])
    def test_without_a_builtin_sha256_openssl_stays_and_hashes(self, tmp_path, argv):
        # A build without the interpreter's own SHA-256 (FIPS builds, say)
        # keeps _hashlib, and the manifest hash comes from hashlib's.
        code, err, loaded, _ = _fresh_call([*argv, "--outdir", str(tmp_path)], True,
                                           blocked=("_sha2", "_sha256"))
        assert code == 0, err
        assert "_hashlib" in loaded
        document = json.loads((tmp_path / "manifest.json").read_text(encoding="utf-8"))
        digest = document.pop("manifest_hash")
        canonical = json.dumps(document, sort_keys=True, separators=(",", ":"))
        assert digest == hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]
        summary = json.loads((tmp_path / "summary.json").read_text(encoding="utf-8"))
        assert summary["manifest_hash"] == digest

    def test_module_usage_error_exits_2(self, tmp_path):
        for argv, named in [
            (["solve-lambda", "--delta-max", "0"], "delta_max"),
            (["kpr", "--n", "0"], "error: n must"),
        ]:
            result = _python("-m", "mgstrat.cli", *argv, "--outdir", str(tmp_path))
            assert result.returncode == 2
            assert named in result.stderr
