"""Command-line front-end tests: parsing, precedence, dispatch, determinism."""

import gc
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path
from typing import Any

import numpy as np
import pytest
from scipy.special import pdtr
from test_solver import scalar_lambda_root

import mgstrat
from mgstrat import __version__, cli
from mgstrat.cli import (
    MAX_EPSILONS,
    OUTDIR_ENV,
    RunManifest,
    dispatch,
    main,
    parse_config,
)
from mgstrat.engine import derive_rng
from mgstrat.kpr import kpr_run
from mgstrat.solver import NumericError


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

    def test_stats_implies_choice_recording(self):
        manifest = parse_config(["simulate", "--stats"])
        assert "c_autocorr.csv" in manifest.outputs

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
        assert err.startswith(f"error: seeds must lie in [1, 1e+06], got {seeds}"), err
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


def _format_value(value: Any) -> str:
    """The former one-cell-at-a-time CSV formatter, kept as the oracle."""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.12g}"
    return str(value)


class TestCsvBlocks:
    @pytest.mark.parametrize("block_rows", [1, 7, cli.CSV_BLOCK_ROWS])
    def test_blocks_match_the_per_cell_formatter(self, tmp_path, monkeypatch, block_rows):
        monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", block_rows)
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


def test_kpr_and_version_never_import_scipy(tmp_path):
    code = (
        "import sys\n"
        "from mgstrat.cli import main\n"
        "assert main(['--version']) == 0\n"
        f"assert main(['kpr', '--n', '16', '--seeds', '3', '--outdir', {str(tmp_path)!r}]) == 0\n"
        "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))\n"
    )
    result = _python("-c", code)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[]"


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
        "loaded = sorted({'scipy.special', 'scipy._lib._array_api', 'numpy.f2py'}"
        " & set(sys.modules))\n"
        "ufuncs_loaded = 'scipy.special._ufuncs' in sys.modules\n"
        "import scipy.special\n"
        "same = [getattr(scipy.special, name) is getattr(dist._special(), name)\n"
        "        for name in ('pdtr', 'betaincc')]\n"
        "print(json.dumps([loaded, ufuncs_loaded, same]))\n"
    )
    result = _python("-c", code)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout.splitlines()[-1]) == [[], True, [True, True]]


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

    def test_module_usage_error_exits_2(self, tmp_path):
        result = _python(
            "-m", "mgstrat.cli", "solve-lambda", "--delta-max", "0", "--outdir", str(tmp_path)
        )
        assert result.returncode == 2
        assert "delta_max" in result.stderr
