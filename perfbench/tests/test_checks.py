"""The output checks pass on real CLI output and fail on perturbed copies."""

import csv
import io
import json
import shutil
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

import checks
import inputs
from chpdispatch import cli

ROOT = Path(__file__).resolve().parents[2]
EPSILONS = (10.0, 1.0, 0.01)


@pytest.fixture(scope="module")
def study(tmp_path_factory):
    """Train, evaluate archive row 0 and run TVSA on a 3-day summer set."""
    d = tmp_path_factory.mktemp("study")
    days = inputs.write_scenarios(d / "s.csv", "summer", 3, seed=5)
    plant = inputs.write_config(d / "c.json", "summer")
    scen = ["--scenarios", str(d / "s.csv")]
    row = ["--archive", str(d / "a.csv"), "--row", "0"]
    commands = [
        ["train", *scen, "--config", str(d / "c.json"), "--seed", "3", "--nfe", "60",
         "--population", "10", "--out", str(d / "a")],
        ["evaluate", *scen, *row, "--out", str(d / "eval")],
        ["tvsa", *scen, *row, "--out", str(d / "tvsa")],
    ]  # fmt: skip
    for argv in commands:
        with redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
    return {"dir": d, "days": days, "plant": plant, "oracle": checks.load_oracle(ROOT)}


@pytest.fixture
def copy(study, tmp_path):
    """A fresh copy of the study's outputs to perturb."""
    shutil.copytree(study["dir"], tmp_path / "out")
    return tmp_path / "out"


def rewrite_csv(path, edit):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def bump(text, factor=1.0 + 1e-6):
    return repr(float(text) * factor)


def check_archive(study, out):
    return checks.check_archive(
        out / "a.csv", study["days"], study["plant"], EPSILONS, study["oracle"]
    )


def check_evaluation(study, out):
    members = checks.read_archive(out / "a.csv")
    norm = json.loads((out / "a.json").read_text())["normalization"]
    checks.check_evaluation(
        out / "eval", study["days"], study["plant"], members[0]["genome"],
        norm["offsets"], norm["scales"], study["oracle"], members[0],
    )  # fmt: skip


def check_tvsa(study, out):
    checks.check_tvsa(out / "tvsa", checks.decision_labels(study["plant"]))


def test_real_outputs_pass(study):
    members = check_archive(study, study["dir"])
    assert members
    check_evaluation(study, study["dir"])
    check_tvsa(study, study["dir"])


# --- archive ----------------------------------------------------------------


@pytest.mark.parametrize("column", [0, 1, 2, 3])
def test_archive_value_perturbed(study, copy, column):
    def edit(rows):
        rows[1][column] = bump(rows[1][column]) if rows[1][column] != "0.0" else "0.001"

    rewrite_csv(copy / "a.csv", edit)
    with pytest.raises(checks.CheckError, match="oracle"):
        check_archive(study, copy)


def test_archive_genome_perturbed(study, copy):
    def edit(rows):
        rows[1][5:] = [repr(-float(w)) for w in rows[1][5:]]

    rewrite_csv(copy / "a.csv", edit)
    with pytest.raises(checks.CheckError, match="oracle"):
        check_archive(study, copy)


def test_archive_duplicate_member(study, copy):
    rewrite_csv(copy / "a.csv", lambda rows: rows.append(list(rows[1])))
    with pytest.raises(checks.CheckError, match="share an epsilon box"):
        check_archive(study, copy)


def test_archive_dominated_member(study, copy):
    """Append a correctly simulated policy that an archive member dominates."""
    members = checks.read_archive(copy / "a.csv")
    norm = json.loads((copy / "a.json").read_text())["normalization"]
    rng = np.random.default_rng(0)
    for _ in range(50):
        genome = rng.uniform(-10.0, 10.0, inputs.genome_length(study["plant"])).tolist()
        objectives, violation = checks.oracle_objectives(
            study["oracle"], genome, norm["offsets"], norm["scales"], study["days"], study["plant"]
        )
        candidate = {"objectives": objectives, "violation": violation}
        if any(checks.eps_dominates(m, candidate, EPSILONS) for m in members):
            break
    else:
        pytest.fail("no dominated random policy found")
    row = [repr(v) for v in objectives] + [repr(violation), "um"] + [repr(w) for w in genome]
    rewrite_csv(copy / "a.csv", lambda rows: rows.append(row))
    with pytest.raises(checks.CheckError, match="epsilon-dominates"):
        check_archive(study, copy)


def test_archive_normalization_perturbed(study, copy):
    doc = json.loads((copy / "a.json").read_text())
    doc["normalization"]["scales"][0] *= 1.001
    (copy / "a.json").write_text(json.dumps(doc))
    with pytest.raises(checks.CheckError, match="input scales"):
        check_archive(study, copy)


def test_eps_dominates_rules():
    feasible = {"objectives": [25.0, 5.0, 5.0], "violation": 0.0}
    infeasible = {"objectives": [0.0, 0.0, 0.0], "violation": 0.1}
    worse = {"objectives": [0.0, 0.0, 0.0], "violation": 0.2}
    better_box = {"objectives": [14.0, 5.0, 5.0], "violation": 0.0}
    same_box = {"objectives": [25.5, 5.5, 5.005], "violation": 0.0}
    assert checks.eps_dominates(feasible, infeasible, EPSILONS)
    assert not checks.eps_dominates(infeasible, feasible, EPSILONS)
    assert checks.eps_dominates(infeasible, worse, EPSILONS)
    assert checks.eps_dominates(better_box, feasible, EPSILONS)
    assert not checks.eps_dominates(feasible, better_box, EPSILONS)
    assert not checks.eps_dominates(same_box, feasible, EPSILONS)


# --- evaluate ---------------------------------------------------------------


def first_trace(out):
    return sorted((out / "eval").glob("trace_*.csv"))[0]


def trace_column(path, name):
    with open(path, newline="") as fh:
        return next(csv.reader(fh)).index(name)


@pytest.mark.parametrize(
    "column, match",
    [
        ("exchange_kw", "electric balance"),
        ("chp1_power_kw", "electric balance"),
        ("cost_usd", "trace means"),
        ("emission_lb", "trace means"),
    ],
)
def test_trace_value_perturbed(study, copy, column, match):
    path = first_trace(copy)
    c = trace_column(path, column)

    def edit(rows):
        rows[5][c] = bump(rows[5][c], 1.001)

    rewrite_csv(path, edit)
    with pytest.raises(checks.CheckError, match=match):
        check_evaluation(study, copy)


def test_trace_heat_waste_flag_flipped(study, copy):
    path = first_trace(copy)
    c = trace_column(path, "heat_waste_flag")

    def edit(rows):
        rows[3][c] = "0" if rows[3][c] == "1" else "1"

    rewrite_csv(path, edit)
    with pytest.raises(checks.CheckError, match="trace means"):
        check_evaluation(study, copy)


def test_trace_reliability_flags_changed(study, copy):
    """All hours unreliable (or, if they already were, all reliable), which
    moves the day's violation either way."""
    path = first_trace(copy)
    c = trace_column(path, "reliability_flag")

    def edit(rows):
        flag = "0" if any(r[c] == "1" for r in rows[1:]) else "1"
        for r in rows[1:]:
            r[c] = flag

    rewrite_csv(path, edit)
    with pytest.raises(checks.CheckError, match="trace means"):
        check_evaluation(study, copy)


def test_trace_missing(study, copy):
    first_trace(copy).unlink()
    with pytest.raises(FileNotFoundError):
        check_evaluation(study, copy)


@pytest.mark.parametrize("key", ["cost", "emission", "heat_waste", "violation"])
def test_objectives_json_perturbed(study, copy, key):
    path = copy / "eval" / "objectives.json"
    doc = json.loads(path.read_text())
    doc[key] = doc[key] * (1.0 + 1e-6) if doc[key] else 0.01
    path.write_text(json.dumps(doc))
    with pytest.raises(checks.CheckError, match="objectives.json"):
        check_evaluation(study, copy)


# --- tvsa -------------------------------------------------------------------


def nonempty_rows(rows):
    return [i for i, r in enumerate(rows) if i > 0 and r[2] == "first"]


def test_tvsa_share_perturbed(study, copy):
    def edit(rows):
        i = nonempty_rows(rows)[0]
        rows[i][5] = repr(float(rows[i][5]) + 1e-6)

    rewrite_csv(copy / "tvsa" / "tvsa.csv", edit)
    with pytest.raises(checks.CheckError, match="shares sum"):
        check_tvsa(study, copy)


def test_tvsa_negative_first_order(study, copy):
    def edit(rows):
        i = nonempty_rows(rows)[0]
        rows[i][4] = repr(-abs(float(rows[i][4])) - 1e-3)

    rewrite_csv(copy / "tvsa" / "tvsa.csv", edit)
    with pytest.raises(checks.CheckError, match="negative first-order"):
        check_tvsa(study, copy)


def test_tvsa_cell_missing(study, copy):
    def edit(rows):
        last = rows[-1][:2]
        rows[:] = [r for r in rows if r[:2] != last]

    rewrite_csv(copy / "tvsa" / "tvsa.csv", edit)
    with pytest.raises(checks.CheckError, match="missing or extra"):
        check_tvsa(study, copy)


def test_tvsa_svg_broken(study, copy):
    svg = sorted((copy / "tvsa").glob("tvsa_*.svg"))[0]
    svg.write_text(svg.read_text()[:-20])
    with pytest.raises(checks.CheckError):
        check_tvsa(study, copy)
