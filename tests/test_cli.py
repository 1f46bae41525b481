"""End-to-end CLI tests on small fixtures: exit codes, manifests, determinism."""

from __future__ import annotations

import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import chpdispatch
from chpdispatch.cli import SIDECAR_KEYS, main
from chpdispatch.data import SyntheticSpec, generate_synthetic, write_scenarios
from chpdispatch.grid_model import config_to_dict, default_config, save_config
from chpdispatch.policy import InputNormalization, PolicyNetwork, save_policy, weight_count


@pytest.fixture(scope="module")
def scenario_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "winter3.csv"
    write_scenarios(generate_synthetic(SyntheticSpec(seed=51, days=3)), path)
    return path


@pytest.fixture(scope="module")
def trained(tmp_path_factory, scenario_csv):
    out = tmp_path_factory.mktemp("train") / "run"
    code = main(
        [
            "train",
            "--scenarios", str(scenario_csv),
            "--nfe", "2000",
            "--seed", "1",
            "--out", str(out),
        ]
    )
    assert code == 0
    return out.with_suffix(".csv")


def read_archive_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


class TestTrain:
    def test_produces_feasible_archive(self, trained):
        rows = read_archive_rows(trained)
        assert len(rows) >= 1
        assert any(float(r["violation"]) == 0.0 for r in rows)
        sidecar = json.loads(trained.with_suffix(".json").read_text())
        assert sidecar["epsilons"] == [10.0, 1.0, 0.01]
        assert sidecar["genome_length"] == 185

    def test_rerun_is_byte_identical(self, tmp_path, scenario_csv):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(
                [
                    "train", "--scenarios", str(scenario_csv),
                    "--nfe", "600", "--seed", "9", "--out", str(out),
                ]
            ) == 0
            outs.append((out.with_suffix(".csv")).read_bytes())
        assert outs[0] == outs[1]

    def test_repeated_calls_in_one_process_keep_their_own_seeds(self, tmp_path, scenario_csv):
        # main reuses one parser per process; no parsed value may carry over.
        for name, seeds in (("a", [1, 2]), ("b", [3]), ("c", [])):
            argv = ["train", "--scenarios", str(scenario_csv), "--nfe", "40", "--population", "20"]
            argv += [arg for seed in seeds for arg in ("--seed", str(seed))]
            assert main([*argv, "--out", str(tmp_path / name)]) == 0
            manifest = json.loads((tmp_path / f"{name}.manifest.json").read_text())
            assert manifest["arguments"]["seeds"] == (seeds or [0])
        assert sorted(p.name for p in tmp_path.glob("*.csv")) == [
            "a_seed1.csv", "a_seed2.csv", "b.csv", "c.csv",
        ]  # fmt: skip

    def test_missing_scenario_file_exits_2(self, tmp_path, capsys):
        code = main(
            ["train", "--scenarios", str(tmp_path / "absent.csv"), "--out", str(tmp_path / "x")]
        )
        assert code == 2
        assert "not found" in capsys.readouterr().err

    def test_non_finite_config_coefficient_exits_2_naming_it(self, tmp_path, scenario_csv, capsys):
        doc = config_to_dict(default_config("winter"))
        doc["chp"][0]["heating_value"] = float("nan")
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))
        code = main(
            [
                "train",
                "--scenarios", str(scenario_csv),
                "--config", str(config),
                "--nfe", "10",
                "--population", "10",
                "--out", str(tmp_path / "run"),
            ]
        )
        assert code == 2
        assert "chp[0]: heating_value must be finite, got nan" in capsys.readouterr().err
        assert not (tmp_path / "run.csv").exists()

    @pytest.mark.parametrize(
        "epsilons, message",
        [
            ("nan,1,1", "epsilons[0] must be finite and > 0, got nan"),
            ("10,inf,0.01", "epsilons[1] must be finite and > 0, got inf"),
            ("10,1,0", "epsilons[2] must be finite and > 0, got 0.0"),
        ],
    )
    def test_bad_epsilon_exits_2_naming_it(self, tmp_path, scenario_csv, capsys, epsilons, message):
        code = main(
            [
                "train",
                "--scenarios", str(scenario_csv),
                "--epsilons", epsilons,
                "--nfe", "100",
                "--out", str(tmp_path / "run"),
            ]
        )
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "run.csv").exists()

    @pytest.mark.parametrize("bound", ["inf", "nan"])
    def test_non_finite_bound_exits_2_naming_it(self, tmp_path, scenario_csv, capsys, bound):
        code = main(
            [
                "train",
                "--scenarios", str(scenario_csv),
                "--bound", bound,
                "--nfe", "100",
                "--out", str(tmp_path / "run"),
            ]
        )
        assert code == 2
        assert f"bound must be finite and > 0, got {bound}" in capsys.readouterr().err
        assert not (tmp_path / "run.csv").exists()

    @pytest.mark.parametrize(
        "option, value, message",
        [
            ("--workers", "0", "--workers must be an integer >= 1, got 0"),
            ("--workers", "-3", "--workers must be an integer >= 1, got -3"),
            ("--hidden", "-1", "--hidden must be an integer >= 1, got -1"),
            ("--hidden", "0", "--hidden must be an integer >= 1, got 0"),
            ("--seed", "1", "--seed 1 is given twice"),
            ("--seed", "-1", "--seed must be an integer >= 0, got -1"),
            ("--population", "1", "--population must be an integer >= 2, got 1"),
            ("--population", "101", "--nfe must be at least --population (101), got 100"),
            ("--bound", "nan", "--bound must be finite and > 0, got nan"),
            ("--bound", "-1", "--bound must be finite and > 0, got -1.0"),
            ("--bound", "0", "--bound must be finite and > 0, got 0.0"),
        ],
    )
    def test_bad_integer_option_exits_2_naming_it(
        self, tmp_path, scenario_csv, capsys, option, value, message
    ):
        code = main(
            [
                "train",
                "--scenarios", str(scenario_csv),
                "--seed", "1", "--seed", "2",
                option, value,
                "--nfe", "100",
                "--out", str(tmp_path / "run"),
            ]
        )
        assert code == 2
        assert message in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "option, value", [("--population", "1"), ("--population", "101"), ("--bound", "nan")]
    )
    def test_bad_search_option_is_named_before_the_scenarios_load(
        self, tmp_path, capsys, option, value
    ):
        missing = tmp_path / "missing.csv"
        code = main(
            ["train", "--scenarios", str(missing), option, value, "--nfe", "100",
             "--out", str(tmp_path / "run")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert option in err and "not found" not in err

    def test_import_leaves_multiprocessing_unloaded(self):
        # Only a multi-worker train needs the process pool; every other
        # command would pay for importing multiprocessing at start-up.
        src = str(Path(chpdispatch.__file__).parents[1])
        probe = "import sys, chpdispatch.cli; print('multiprocessing' in sys.modules)"
        done = subprocess.run(
            [sys.executable, "-c", probe],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            check=True,
        )
        assert done.stdout.strip() == "False"

    def test_reads_inputs_once(self, tmp_path, scenario_csv, monkeypatch):
        import chpdispatch.cli as cli
        from chpdispatch.batch import BatchEvaluator

        calls = {"load": 0, "evaluator": 0}
        load, init = cli.load_scenarios, BatchEvaluator.__init__

        def counted_load(*args, **kwargs):
            calls["load"] += 1
            return load(*args, **kwargs)

        def counted_init(*args, **kwargs):
            calls["evaluator"] += 1
            init(*args, **kwargs)

        monkeypatch.setattr(cli, "load_scenarios", counted_load)
        monkeypatch.setattr(BatchEvaluator, "__init__", counted_init)
        assert main(
            [
                "train", "--scenarios", str(scenario_csv), "--nfe", "200",
                "--seed", "1", "--seed", "2", "--out", str(tmp_path / "once"),
            ]
        ) == 0
        assert calls == {"load": 1, "evaluator": 1}

    def test_manifest_digests_match_outputs(self, trained):
        manifest = json.loads(trained.with_name("run.manifest.json").read_text())
        for path, digest in manifest["output_digests"].items():
            actual = hashlib.sha256(open(path, "rb").read()).hexdigest()
            assert actual == digest
        assert manifest["command"] == "train"
        assert manifest["version"]


class TestMerge:
    def test_merges_multi_seed_runs(self, tmp_path, scenario_csv):
        out = tmp_path / "multi"
        assert main(
            [
                "train", "--scenarios", str(scenario_csv),
                "--nfe", "600", "--seed", "1", "--seed", "2",
                "--out", str(out),
            ]
        ) == 0
        seed_csvs = [tmp_path / "multi_seed1.csv", tmp_path / "multi_seed2.csv"]
        assert all(p.exists() for p in seed_csvs)
        merged = tmp_path / "joint"
        assert main(["merge", *map(str, seed_csvs), "--out", str(merged)]) == 0
        rows = read_archive_rows(merged.with_suffix(".csv"))
        assert len(rows) >= 1
        sidecar = json.loads(merged.with_suffix(".json").read_text())
        assert sidecar["seeds"] == [1, 2]

    def test_sidecar_bytes_do_not_depend_on_how_archives_are_named(
        self, tmp_path, scenario_csv, monkeypatch
    ):
        out = tmp_path / "runs" / "multi"
        assert main(
            [
                "train", "--scenarios", str(scenario_csv),
                "--nfe", "300", "--seed", "1", "--seed", "2",
                "--out", str(out),
            ]
        ) == 0
        names = ["multi_seed1.csv", "multi_seed2.csv"]
        merged = tmp_path / "merged" / "joint"
        assert main(["merge", *(str(out.with_name(n)) for n in names), "--out", str(merged)]) == 0
        by_absolute = merged.with_suffix(".json").read_bytes()
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        assert main(
            ["merge", *(f"../runs/{n}" for n in names), "--out", "../merged/joint"]
        ) == 0
        assert merged.with_suffix(".json").read_bytes() == by_absolute
        sidecar = json.loads(by_absolute)
        assert sidecar["merged_from"] == [f"../runs/{n}" for n in names]

    def test_worker_pool_matches_sequential(self, tmp_path, scenario_csv):
        outs = {}
        for name, extra in (("seq", []), ("par", ["--workers", "2"])):
            out = tmp_path / name
            assert main(
                [
                    "train", "--scenarios", str(scenario_csv), "--nfe", "600",
                    "--seed", "4", "--seed", "5", "--out", str(out), *extra,
                ]
            ) == 0
            outs[name] = [
                (tmp_path / f"{name}_seed4.csv").read_bytes(),
                (tmp_path / f"{name}_seed5.csv").read_bytes(),
            ]
        assert outs["seq"] == outs["par"]

    def test_epsilon_mismatch_exits_2(self, tmp_path, scenario_csv, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        for out, eps in ((a, "10,1,0.01"), (b, "5,1,0.01")):
            assert main(
                [
                    "train", "--scenarios", str(scenario_csv), "--nfe", "600",
                    "--seed", "3", "--epsilons", eps, "--out", str(out),
                ]
            ) == 0
        code = main(
            ["merge", str(a.with_suffix(".csv")), str(b.with_suffix(".csv")),
             "--out", str(tmp_path / "joint")]
        )
        assert code == 2
        assert "epsilon" in capsys.readouterr().err

    def test_shared_seed_exits_2_naming_it_and_both_files(
        self, tmp_path, scenario_csv, trained, capsys
    ):
        """A seed in two inputs would count its NFE twice in the sidecar."""
        second = tmp_path / "second"
        assert main(
            ["train", "--scenarios", str(scenario_csv), "--nfe", "40", "--population", "20",
             "--seed", "2", "--out", str(second)]
        ) == 0  # fmt: skip
        joint = tmp_path / "joint"
        runs = [str(trained), str(second.with_suffix(".csv"))]
        assert main(["merge", *runs, "--out", str(joint)]) == 0
        for first, again in ((trained, trained), (joint.with_suffix(".csv"), trained)):
            out = tmp_path / "again"
            assert main(["merge", str(first), str(again), "--out", str(out)]) == 2
            assert f"seed 1 is in both {first} and {again}" in capsys.readouterr().err
            assert not out.with_suffix(".csv").exists()


class TestEvaluate:
    def test_archive_row_reproduces_recorded_objectives(self, tmp_path, scenario_csv, trained):
        out = tmp_path / "eval"
        assert main(
            [
                "evaluate", "--scenarios", str(scenario_csv),
                "--archive", str(trained), "--row", "0", "--out", str(out),
            ]
        ) == 0
        recorded = read_archive_rows(trained)[0]
        doc = json.loads((out / "objectives.json").read_text())
        assert doc["cost"] == float(recorded["cost"])
        assert doc["emission"] == float(recorded["emission"])
        assert doc["heat_waste"] == float(recorded["heat_waste"])
        traces = sorted(out.glob("trace_*.csv"))
        assert len(traces) == 3
        assert len(traces[0].read_text().splitlines()) == 25

    def test_stale_traces_removed(self, tmp_path, scenario_csv):
        from chpdispatch.data import load_scenarios

        summer_csv = tmp_path / "summer2.csv"
        write_scenarios(
            generate_synthetic(SyntheticSpec(seed=52, days=2, season="summer")), summer_csv
        )
        config_path = tmp_path / "summer.json"
        save_config(default_config("summer"), config_path)
        out = tmp_path / "eval"
        for csv_path, config in ((scenario_csv, None), (summer_csv, config_path)):
            config_args = ["--config", str(config)] if config else []
            k = 7 if config else 5
            norm = InputNormalization.from_scenarios(load_scenarios(csv_path))
            artifact = tmp_path / f"policy{k}.json"
            save_policy(
                PolicyNetwork(6, 15, k, np.zeros(weight_count(6, 15, k)), norm), artifact
            )
            assert main(
                [
                    "evaluate", "--scenarios", str(csv_path), "--policy", str(artifact),
                    *config_args, "--out", str(out),
                ]
            ) == 0
        assert len(list(out.glob("trace_*.csv"))) == 2
        manifest = json.loads((out / "manifest.json").read_text())
        listed = {Path(p).name for p in manifest["output_digests"]}
        on_disk = {p.name for p in out.iterdir() if p.name != "manifest.json"}
        assert listed == on_disk

    def test_policy_artifact_mode(self, tmp_path, scenario_csv):
        from chpdispatch.data import load_scenarios

        scenarios = load_scenarios(scenario_csv)
        norm = InputNormalization.from_scenarios(scenarios)
        policy = PolicyNetwork(6, 15, 5, np.zeros(weight_count(6, 15, 5)), norm)
        artifact = tmp_path / "policy.json"
        save_policy(policy, artifact)
        out = tmp_path / "eval"
        assert main(
            [
                "evaluate", "--scenarios", str(scenario_csv),
                "--policy", str(artifact), "--out", str(out),
            ]
        ) == 0
        doc = json.loads((out / "objectives.json").read_text())
        assert doc["heat_waste"] == 24.0  # midpoint dispatch wastes every hour

    def test_zero_policy_on_constant_fixture_matches_hand_oracle(self, tmp_path):
        from conftest import constant_scenario
        from chpdispatch.data import load_scenarios

        fixture = tmp_path / "constant.csv"
        write_scenarios(constant_scenario(), fixture)
        scenarios = load_scenarios(fixture)
        norm = InputNormalization.from_scenarios(scenarios)
        policy = PolicyNetwork(6, 15, 5, np.zeros(weight_count(6, 15, 5)), norm)
        artifact = tmp_path / "zero.json"
        save_policy(policy, artifact)
        out = tmp_path / "eval"
        assert main(
            ["evaluate", "--scenarios", str(fixture), "--policy", str(artifact),
             "--out", str(out)]
        ) == 0
        doc = json.loads((out / "objectives.json").read_text())

        # hand arithmetic for the stationary u = 0.5 hour, daily = 24x
        p, q, qb = 14000.0, 76.5, 270.0
        steam = 2 * q + qb  # 423 klb/h, above the turbine breakpoint
        st = -1.9341 * steam + 6042.6
        p_e = 24000.0 - 2 * p - st - 1000.0 - 50.0
        gas = 0.0
        for a, b, c, aq, bq in (
            (0.088094, 0.42435, 0.19291, 1.1766, 65.881),
            (-0.027957, 0.80107, 0.34667, 1.3293, 77.25),
        ):
            r = p / 16000.0
            gas += p / (293.0 * (a + b * r + c * r * r)) + max(aq * q - bq, 0.0)
        gas += 0.0009 * qb**2 + 1.0968 * qb + 3.7742
        hour_cost = gas * 3.5 + p_e * 0.05
        hour_emission = gas * 116.65 + 0.932 * max(p_e, 0.0)
        assert doc["cost"] == pytest.approx(24.0 * hour_cost, rel=1e-9)
        assert doc["emission"] == pytest.approx(24.0 * hour_emission / 2204.62, rel=1e-9)
        assert doc["heat_waste"] == 24.0  # 423 klb vs 150 klb load every hour
        assert doc["violation"] == 0.0

    def test_wrong_architecture_exits_2(self, tmp_path, scenario_csv, capsys):
        from chpdispatch.data import load_scenarios

        scenarios = load_scenarios(scenario_csv)
        norm = InputNormalization.from_scenarios(scenarios)
        policy = PolicyNetwork(6, 15, 7, np.zeros(weight_count(6, 15, 7)), norm)
        artifact = tmp_path / "policy7.json"
        save_policy(policy, artifact)
        code = main(
            [
                "evaluate", "--scenarios", str(scenario_csv),
                "--policy", str(artifact), "--out", str(tmp_path / "eval"),
            ]
        )
        assert code == 2
        assert "outputs" in capsys.readouterr().err


class TestTvsaCommand:
    def test_writes_csv_and_svgs(self, tmp_path, scenario_csv, trained):
        out = tmp_path / "tvsa"
        assert main(
            [
                "tvsa", "--scenarios", str(scenario_csv),
                "--archive", str(trained), "--row", "0", "--out", str(out),
            ]
        ) == 0
        assert (out / "tvsa.csv").exists()
        svgs = sorted(out.glob("tvsa_*.svg"))
        assert len(svgs) == 5
        assert svgs[0].read_text().startswith("<svg")

    def test_needs_two_scenarios(self, tmp_path, trained, capsys):
        single = tmp_path / "one.csv"
        write_scenarios(generate_synthetic(SyntheticSpec(seed=5, days=1)), single)
        code = main(
            [
                "tvsa", "--scenarios", str(single),
                "--archive", str(trained), "--out", str(tmp_path / "t"),
            ]
        )
        assert code == 2
        assert "2 scenarios" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["evaluate", "tvsa"])
def test_analysis_manifest_digests_match_files(tmp_path, scenario_csv, trained, command):
    out = tmp_path / command
    assert main(
        [
            command, "--scenarios", str(scenario_csv),
            "--archive", str(trained), "--row", "0", "--out", str(out),
        ]
    ) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == command
    on_disk = {
        str(p): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in out.iterdir()
        if p.name != "manifest.json"
    }
    assert manifest["output_digests"] == on_disk
    assert len(on_disk) == (4 if command == "evaluate" else 6)


def copy_archive(trained, directory, edit_rows=None, edit_sidecar=None):
    """The trained archive and its sidecar copied into ``directory``,
    after ``edit_rows`` (on the CSV rows) and ``edit_sidecar`` (on the
    sidecar document) have changed them in place."""
    with open(trained, newline="") as fh:
        rows = list(csv.reader(fh))
    sidecar = json.loads(trained.with_suffix(".json").read_text())
    if edit_rows:
        edit_rows(rows)
    if edit_sidecar:
        edit_sidecar(sidecar)
    path = directory / "archive.csv"
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    path.with_suffix(".json").write_text(json.dumps(sidecar))
    return path


@pytest.mark.parametrize("command", ["evaluate", "tvsa"])
class TestPolicySourceValidation:
    def run(self, command, scenario_csv, source, out):
        return main([command, "--scenarios", str(scenario_csv), *source, "--out", str(out)])

    @pytest.mark.parametrize("sources", ["both", "neither"])
    def test_needs_exactly_one_source(
        self, tmp_path, scenario_csv, trained, capsys, command, sources
    ):
        """Both sources or neither: exit 2 before any input is read."""
        artifact = tmp_path / "policy.json"
        norm = InputNormalization(offsets=(0.0,) * 6, scales=(1.0,) * 6)
        save_policy(PolicyNetwork(6, 15, 5, np.zeros(185), norm), artifact)
        given = ["--archive", str(trained), "--policy", str(artifact)] if sources == "both" else []
        out = tmp_path / "out"
        assert self.run(command, scenario_csv, given, out) == 2
        assert "provide exactly one of --archive or --policy" in capsys.readouterr().err
        assert not out.exists()

    def test_config_with_archive_exits_2(self, tmp_path, scenario_csv, trained, capsys, command):
        """An archive's sidecar holds its plant; a --config beside it would be ignored."""
        config = tmp_path / "summer.json"
        save_config(default_config("summer"), config)
        out = tmp_path / "out"
        source = ["--archive", str(trained), "--config", str(config)]
        assert self.run(command, scenario_csv, source, out) == 2
        assert "--config applies to --policy only" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_artifact_weight_exits_2_naming_it(
        self, tmp_path, scenario_csv, capsys, command
    ):
        artifact = tmp_path / "policy.json"
        norm = InputNormalization(offsets=(0.0,) * 6, scales=(1.0,) * 6)
        save_policy(PolicyNetwork(6, 15, 5, np.zeros(185), norm), artifact)
        doc = json.loads(artifact.read_text())
        doc["weights"][3] = float("nan")
        artifact.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert self.run(command, scenario_csv, ["--policy", str(artifact)], out) == 2
        assert "weights[3] must be finite, got nan" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_archive_weight_exits_2_naming_it(
        self, tmp_path, scenario_csv, trained, capsys, command
    ):
        def poison(rows):
            rows[1][rows[0].index("w3")] = "nan"

        archive = copy_archive(trained, tmp_path, edit_rows=poison)
        out = tmp_path / "out"
        assert self.run(command, scenario_csv, ["--archive", str(archive)], out) == 2
        assert "weights[3] must be finite, got nan" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_sidecar_normalization_exits_2_naming_it(
        self, tmp_path, scenario_csv, trained, capsys, command
    ):
        def poison(sidecar):
            sidecar["normalization"]["scales"][2] = float("inf")

        archive = copy_archive(trained, tmp_path, edit_sidecar=poison)
        assert self.run(command, scenario_csv, ["--archive", str(archive)], tmp_path / "o") == 2
        assert "scales[2] must be finite, got inf" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["hidden_dim", "normalization"])
    def test_sidecar_missing_field_exits_2_as_malformed(
        self, tmp_path, scenario_csv, trained, capsys, command, field
    ):
        archive = copy_archive(trained, tmp_path, edit_sidecar=lambda doc: doc.pop(field))
        assert self.run(command, scenario_csv, ["--archive", str(archive)], tmp_path / "o") == 2
        sidecar = archive.with_suffix(".json")
        assert f"malformed archive sidecar {sidecar}: missing '{field}'" in capsys.readouterr().err

    def test_dominated_archive_row_exits_2_naming_rows(
        self, tmp_path, scenario_csv, trained, capsys, command
    ):
        def add_dominated_row(rows):
            # A copy of row 0 with every objective and the violation worse.
            worse = list(rows[1])
            for col in range(4):
                worse[col] = repr(float(worse[col]) * 2.0 + 100.0)
            rows.insert(1, worse)

        archive = copy_archive(trained, tmp_path, edit_rows=add_dominated_row)
        assert self.run(command, scenario_csv, ["--archive", str(archive)], tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert f"{archive}: rows 0 and 1 share an epsilon box or one dominates the other" in err


class TestSidecarKeys:
    """Every command that reads an archive names a sidecar key it lacks."""

    @pytest.mark.parametrize("key", SIDECAR_KEYS)
    def test_merge_exits_2_naming_missing_key(self, tmp_path, trained, capsys, key):
        for name in ("a", "b"):
            (tmp_path / name).mkdir()
        first = copy_archive(trained, tmp_path / "a")
        second = copy_archive(trained, tmp_path / "b", edit_sidecar=lambda doc: doc.pop(key))
        code = main(["merge", str(first), str(second), "--out", str(tmp_path / "joint")])
        assert code == 2
        sidecar = second.with_suffix(".json")
        assert f"error: malformed archive sidecar {sidecar}: missing '{key}'" in (
            capsys.readouterr().err
        )
        assert not (tmp_path / "joint.csv").exists()

    @pytest.mark.parametrize("key", SIDECAR_KEYS)
    def test_evaluate_exits_2_naming_missing_key(
        self, tmp_path, scenario_csv, trained, capsys, key
    ):
        archive = copy_archive(trained, tmp_path, edit_sidecar=lambda doc: doc.pop(key))
        out = tmp_path / "out"
        code = main(
            ["evaluate", "--scenarios", str(scenario_csv), "--archive", str(archive),
             "--out", str(out)]
        )  # fmt: skip
        assert code == 2
        sidecar = archive.with_suffix(".json")
        assert f"error: malformed archive sidecar {sidecar}: missing '{key}'" in (
            capsys.readouterr().err
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value",
        [
            ("seeds", 3), ("seeds", []), ("seeds", [1, 1]), ("seeds", [-1]), ("seeds", ["1"]),
            ("seeds", [True]), ("nfe", "x"), ("nfe", 0), ("nfe", 1.5),
        ],
        ids=str,
    )  # fmt: skip
    @pytest.mark.parametrize("command", ["merge", "report"])
    def test_malformed_seeds_or_nfe_exit_2_naming_the_sidecar(
        self, tmp_path, trained, capsys, command, key, value
    ):
        def edit(sidecar):
            sidecar[key] = value

        archive = copy_archive(trained, tmp_path, edit_sidecar=edit)
        out = tmp_path / "out"
        inputs = [str(archive)] if command == "merge" else ["--archive", str(archive)]
        assert main([command, *inputs, "--out", str(out)]) == 2
        rule = {
            "seeds": "a non-empty list of distinct integers >= 0",
            "nfe": "an integer >= 1",
        }[key]
        message = f"{key} must be {rule}, got {value!r}"
        sidecar = archive.with_suffix(".json")
        assert f"error: malformed archive sidecar {sidecar}: {message}" in capsys.readouterr().err
        assert not out.exists() and not out.with_suffix(".csv").exists()

    @pytest.mark.parametrize(
        "text, message",
        [("5", "not a JSON object"), ("{", "Expecting property name enclosed in double quotes")],
    )
    def test_report_exits_2_on_unreadable_sidecar(self, tmp_path, trained, capsys, text, message):
        archive = copy_archive(trained, tmp_path)
        sidecar = archive.with_suffix(".json")
        sidecar.write_text(text)
        assert main(["report", "--archive", str(archive), "--out", str(tmp_path / "r")]) == 2
        assert f"error: malformed archive sidecar {sidecar}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("epsilons", [None, 5, ["a"]])
    @pytest.mark.parametrize("command", ["report", "evaluate", "tvsa", "merge"])
    def test_mistyped_epsilons_exit_2_as_malformed(
        self, tmp_path, scenario_csv, trained, capsys, command, epsilons
    ):
        archive = copy_archive(
            trained, tmp_path, edit_sidecar=lambda doc: doc.update(epsilons=epsilons)
        )
        out = tmp_path / "out"
        argv = {
            "report": ["--archive", str(archive)],
            "evaluate": ["--scenarios", str(scenario_csv), "--archive", str(archive)],
            "tvsa": ["--scenarios", str(scenario_csv), "--archive", str(archive)],
            "merge": [str(trained), str(archive)],
        }[command]
        assert main([command, *argv, "--out", str(out)]) == 2
        sidecar = archive.with_suffix(".json")
        assert f"error: malformed archive sidecar {sidecar}: epsilons: " in (
            capsys.readouterr().err
        )
        assert not out.exists() and not out.with_suffix(".csv").exists()


def manifest_pin(path):
    """A manifest's command, its arguments and the files it hashes as inputs."""
    doc = json.loads(path.read_text())
    return doc["command"], doc["arguments"], set(doc["input_digests"])


class TestManifestPins:
    """Every command records the same arguments and input files."""

    def test_train(self, tmp_path, scenario_csv):
        config = tmp_path / "plant.json"
        save_config(default_config("winter"), config)
        base = ["train", "--scenarios", str(scenario_csv), "--nfe", "40", "--population", "20"]
        one, two = tmp_path / "one", tmp_path / "two"
        assert main([*base, "--seed", "3", "--out", str(one)]) == 0
        assert main(
            [
                *base, "--config", str(config), "--seed", "1", "--seed", "2",
                "--epsilons", "5,1,0.1", "--bound", "4", "--hidden", "3", "--out", str(two),
            ]
        ) == 0  # fmt: skip
        settings = {"scenarios": str(scenario_csv), "nfe": 40, "population": 20}
        assert manifest_pin(one.with_suffix(".manifest.json")) == (
            "train",
            {
                **settings, "config": None, "seeds": [3],
                "epsilons": [10.0, 1.0, 0.01], "bound": 10.0, "hidden": 15,
            },
            {str(scenario_csv)},
        )  # fmt: skip
        assert manifest_pin(two.with_suffix(".manifest.json")) == (
            "train",
            {
                **settings, "config": str(config), "seeds": [1, 2],
                "epsilons": [5.0, 1.0, 0.1], "bound": 4.0, "hidden": 3,
            },
            {str(scenario_csv), str(config)},
        )  # fmt: skip

    def test_merge(self, tmp_path, scenario_csv, trained):
        second = tmp_path / "second"
        assert main(
            ["train", "--scenarios", str(scenario_csv), "--nfe", "40", "--population", "20",
             "--seed", "2", "--out", str(second)]
        ) == 0  # fmt: skip
        archives = [str(trained), str(second.with_suffix(".csv"))]
        joint = tmp_path / "joint"
        assert main(["merge", *archives, "--out", str(joint)]) == 0
        assert manifest_pin(joint.with_suffix(".manifest.json")) == (
            "merge",
            {"archives": archives},
            {*archives, str(trained.with_suffix(".json")), str(second.with_suffix(".json"))},
        )

    @pytest.mark.parametrize("mode", ["archive", "policy"])
    @pytest.mark.parametrize(
        "command, extra",
        [
            ("evaluate", {}),
            ("tvsa", {"gradient_at": "mean"}),
            ("tvsa", {"gradient_at": "per-scenario"}),
        ],
    )
    def test_analysis(self, tmp_path, scenario_csv, trained, command, extra, mode):
        if mode == "archive":
            source = ["--archive", str(trained), "--row", "0"]
            arguments = {"archive": str(trained), "row": 0, "policy": None, "config": None}
            inputs = {str(trained), str(trained.with_suffix(".json"))}
        else:
            artifact, config = tmp_path / "policy.json", tmp_path / "plant.json"
            norm = InputNormalization(offsets=(0.0,) * 6, scales=(1.0,) * 6)
            save_policy(PolicyNetwork(6, 15, 5, np.zeros(185), norm), artifact)
            save_config(default_config("winter"), config)
            source = ["--policy", str(artifact), "--config", str(config)]
            arguments = {"archive": None, "row": 0, "policy": str(artifact), "config": str(config)}
            inputs = {str(artifact), str(config)}
        if "gradient_at" in extra:
            source += ["--gradient-at", extra["gradient_at"]]
        out = tmp_path / "out"
        assert main([command, "--scenarios", str(scenario_csv), *source, "--out", str(out)]) == 0
        assert manifest_pin(out / "manifest.json") == (
            command,
            {"scenarios": str(scenario_csv), **arguments, **extra},
            {str(scenario_csv), *inputs},
        )

    @pytest.mark.parametrize("reference", [None, "33000,690,24"])
    def test_report(self, tmp_path, trained, reference):
        out = tmp_path / "report"
        overlay = [] if reference is None else ["--reference", reference]
        assert main(["report", "--archive", str(trained), *overlay, "--out", str(out)]) == 0
        assert manifest_pin(out / "manifest.json") == (
            "report",
            {"archive": str(trained), "reference": reference},
            {str(trained), str(trained.with_suffix(".json"))},
        )


class TestReport:
    def test_writes_plots_and_summary(self, tmp_path, trained):
        out = tmp_path / "report"
        assert main(["report", "--archive", str(trained), "--out", str(out)]) == 0
        svg = (out / "pareto.svg").read_text()
        assert svg.startswith("<svg") and "polygon" in svg
        rows = list(csv.DictReader(open(out / "summary.csv")))
        assert len(rows) == len(read_archive_rows(trained))

    def test_reference_overlay_and_determinism(self, tmp_path, trained):
        a, b = tmp_path / "r1", tmp_path / "r2"
        for out in (a, b):
            assert main(
                [
                    "report", "--archive", str(trained), "--out", str(out),
                    "--reference", "33000,690,24",
                ]
            ) == 0
        assert (a / "pareto.svg").read_bytes() == (b / "pareto.svg").read_bytes()

    @pytest.mark.parametrize("reference", ["nan,1,1", "33000,inf,24", "a,b,c", "1,2"])
    def test_bad_reference_exits_2_naming_it(self, tmp_path, trained, capsys, reference):
        out = tmp_path / "r"
        code = main(
            ["report", "--archive", str(trained), "--out", str(out), "--reference", reference]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert f"--reference must be three finite numbers, got {reference!r}" in err
        assert not (out / "pareto.svg").exists()

    def test_missing_archive_exits_2(self, tmp_path):
        assert main(
            ["report", "--archive", str(tmp_path / "no.csv"), "--out", str(tmp_path / "r")]
        ) == 2
