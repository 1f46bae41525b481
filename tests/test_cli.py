"""End-to-end CLI tests on small fixtures: exit codes, manifests, determinism."""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from chpdispatch.cli import main
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
                "--out", str(tmp_path / "run"),
            ]
        )
        assert code == 2
        assert "chp[0]: heating_value must be finite, got nan" in capsys.readouterr().err
        assert not (tmp_path / "run.csv").exists()

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
                PolicyNetwork.decode(np.zeros(weight_count(6, 15, k)), 6, 15, k, norm), artifact
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
        policy = PolicyNetwork.decode(np.zeros(weight_count(6, 15, 5)), 6, 15, 5, norm)
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
        policy = PolicyNetwork.decode(np.zeros(weight_count(6, 15, 5)), 6, 15, 5, norm)
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
        policy = PolicyNetwork.decode(np.zeros(weight_count(6, 15, 7)), 6, 15, 7, norm)
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

    def test_requires_exactly_one_source(self, tmp_path, scenario_csv):
        assert main(
            ["evaluate", "--scenarios", str(scenario_csv), "--out", str(tmp_path / "o")]
        ) == 2


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

    def test_missing_archive_exits_2(self, tmp_path):
        assert main(
            ["report", "--archive", str(tmp_path / "no.csv"), "--out", str(tmp_path / "r")]
        ) == 2
