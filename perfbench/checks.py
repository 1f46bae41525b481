"""Checks of the program's output files, made apart from the program.

Every check reads the files the CLI wrote and compares them with the
benchmark's own inputs, with the independent oracle in ``tests/oracle.py``
(plain Python loops, no package imports), and with properties the method
must have.  A failed check raises :class:`CheckError` naming the file.
"""

from __future__ import annotations

import csv
import importlib.util
import json
import math
import xml.etree.ElementTree as ET
from pathlib import Path
from typing import Sequence

import inputs

LB_PER_TONNE = 2204.62
REL_TOL = 1e-9


class CheckError(Exception):
    """An output file disagrees with what the benchmark expects."""


def load_oracle(root: Path):
    path = root / "tests" / "oracle.py"
    spec = importlib.util.spec_from_file_location("chpdispatch_bench_oracle", path)
    if spec is None or spec.loader is None:
        raise FileNotFoundError(path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-12)


def _expect_close(what: str, got: Sequence[float], want: Sequence[float]) -> None:
    for g, w in zip(got, want):
        if not close(g, w):
            raise CheckError(f"{what}: {list(got)} != expected {list(want)}")


def decision_labels(plant: dict) -> list[str]:
    nc = len(plant["chp"])
    labels = [f"chp{i + 1}_power" for i in range(nc)]
    labels += [f"chp{i + 1}_steam" for i in range(nc)]
    labels.append("boiler_steam")
    return labels + [f"{u}_commit" for u in inputs.commit_units(plant)]


def oracle_objectives(
    oracle, weights: Sequence[float], offsets, scales, days: inputs.Days, plant: dict
) -> tuple[list[float], float]:
    """Ensemble-mean (cost, emission, heat waste) and violation by the oracle."""
    net = {
        "input_dim": inputs.INPUT_DIM,
        "hidden_dim": inputs.HIDDEN_DIM,
        "output_dim": inputs.decision_count(plant),
        "offsets": list(offsets),
        "scales": list(scales),
    }
    cfg = inputs.oracle_config(plant)
    init = inputs.initial_power(plant)
    sums = [0.0, 0.0, 0.0, 0.0]
    for d in range(len(days.labels)):
        for j, value in enumerate(
            oracle.oracle_simulate_day(days.oracle_day(d, init), list(weights), net, cfg)
        ):
            sums[j] += value
    n = len(days.labels)
    return [s / n for s in sums[:3]], sums[3] / n


# --- archives -------------------------------------------------------------


def read_archive(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0][:5] != ["cost", "emission", "heat_waste", "violation", "operator"]:
        raise CheckError(f"{path}: unexpected archive header")
    members = []
    for row in rows[1:]:
        members.append(
            {
                "objectives": [float(x) for x in row[:3]],
                "violation": float(row[3]),
                "operator": row[4],
                "genome": [float(x) for x in row[5:]],
            }
        )
    return members


def box(objectives: Sequence[float], epsilons: Sequence[float]) -> tuple[int, ...]:
    return tuple(math.floor(o / e) for o, e in zip(objectives, epsilons))


def eps_dominates(a: dict, b: dict, epsilons: Sequence[float]) -> bool:
    """Feasibility first, then smaller violation, then epsilon boxes."""
    va, vb = a["violation"], b["violation"]
    if va == 0.0 and vb > 0.0:
        return True
    if va > 0.0 and vb > 0.0 and va != vb:
        return va < vb
    if (va == 0.0) != (vb == 0.0):
        return False
    ba, bb = box(a["objectives"], epsilons), box(b["objectives"], epsilons)
    return ba != bb and all(x <= y for x, y in zip(ba, bb))


def check_archive(
    csv_path: Path,
    days: inputs.Days,
    plant: dict,
    epsilons: Sequence[float],
    oracle,
) -> list[dict]:
    """Re-simulate every member with the oracle and check the archive is a
    set of mutually non-dominated solutions, one per epsilon box."""
    members = read_archive(csv_path)
    if not members:
        raise CheckError(f"{csv_path}: empty archive")
    sidecar = json.loads(csv_path.with_suffix(".json").read_text())
    offsets, scales = sidecar["normalization"]["offsets"], sidecar["normalization"]["scales"]
    own_offsets, own_scales = days.normalization()
    _expect_close(f"{csv_path}: input offsets", offsets, own_offsets)
    _expect_close(f"{csv_path}: input scales", scales, own_scales)
    if sidecar["hidden_dim"] != inputs.HIDDEN_DIM:
        raise CheckError(f"{csv_path}: hidden_dim {sidecar['hidden_dim']}")
    for i, m in enumerate(members):
        if len(m["genome"]) != inputs.genome_length(plant):
            raise CheckError(f"{csv_path}: row {i} genome has {len(m['genome'])} weights")
        objectives, violation = oracle_objectives(
            oracle, m["genome"], offsets, scales, days, plant
        )
        _expect_close(
            f"{csv_path}: row {i} objectives and violation vs oracle",
            m["objectives"] + [m["violation"]],
            objectives + [violation],
        )
    boxes = [box(m["objectives"], epsilons) for m in members]
    if len(set(boxes)) != len(boxes):
        raise CheckError(f"{csv_path}: two members share an epsilon box")
    for i, a in enumerate(members):
        for j, b in enumerate(members):
            if i != j and eps_dominates(a, b, epsilons):
                raise CheckError(f"{csv_path}: row {i} epsilon-dominates row {j}")
    return members


# --- evaluate -------------------------------------------------------------


def _read_trace(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        rows = [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]
    if len(rows) != inputs.HOURS:
        raise CheckError(f"{path}: {len(rows)} hours")
    return rows


def check_evaluation(
    out: Path,
    days: inputs.Days,
    plant: dict,
    weights: Sequence[float],
    offsets: Sequence[float],
    scales: Sequence[float],
    oracle,
    expected: dict | None = None,
) -> None:
    """``objectives.json`` against the traces (``simulate_day``'s path), the
    oracle and, from an archive row, the objectives stored in training."""
    doc = json.loads((out / "objectives.json").read_text())
    got = [doc["cost"], doc["emission"], doc["heat_waste"]]
    nc = len(plant["chp"])
    sums = [0.0, 0.0, 0.0]
    violation = 0.0
    for d, label in enumerate(days.labels):
        path = out / f"trace_{label}.csv"
        reliable = 0
        for t, row in enumerate(_read_trace(path)):
            supplied = sum(row[f"chp{i + 1}_power_kw"] for i in range(nc)) + row["st_power_kw"]
            expected_exchange = (
                days.load[d][t] - supplied - days.hydro[d][t] - days.solar[d][t]
            )
            if abs(row["exchange_kw"] - expected_exchange) > REL_TOL * days.load[d][t]:
                raise CheckError(f"{path}: hour {t} does not close the electric balance")
            sums[0] += row["cost_usd"]
            sums[1] += row["emission_lb"] / LB_PER_TONNE
            sums[2] += row["heat_waste_flag"]
            reliable += int(row["reliability_flag"])
        violation += max(0.0, 22 / 24 - reliable / 24)
    n = len(days.labels)
    _expect_close(
        f"{out}/objectives.json vs trace means",
        got + [doc["violation"]],
        [s / n for s in sums] + [violation / n],
    )
    objectives, oracle_violation = oracle_objectives(oracle, weights, offsets, scales, days, plant)
    _expect_close(
        f"{out}/objectives.json vs oracle",
        got + [doc["violation"]],
        objectives + [oracle_violation],
    )
    if expected is not None:
        _expect_close(
            f"{out}/objectives.json vs archive row",
            got + [doc["violation"]],
            expected["objectives"] + [expected["violation"]],
        )


# --- tvsa -----------------------------------------------------------------


def check_tvsa(out: Path, labels: Sequence[str]) -> None:
    """Every (decision, hour) cell is present; a non-empty cell's absolute
    normalized shares sum to 1 and its first-order raw terms are >= 0."""
    path = out / "tvsa.csv"
    cells: dict[tuple[str, int], list[dict]] = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            cells.setdefault((row["decision"], int(row["hour"])), []).append(row)
    want = {(label, t) for label in labels for t in range(inputs.HOURS)}
    if set(cells) != want:
        raise CheckError(f"{path}: cells {sorted(set(cells) ^ want)[:3]} missing or extra")
    for (label, t), rows in cells.items():
        kinds = [r["term_type"] for r in rows]
        if kinds == ["empty"]:
            continue
        if kinds.count("first") != 5 or "empty" in kinds:
            raise CheckError(f"{path}: cell {label} hour {t} has terms {kinds}")
        share = sum(abs(float(r["normalized"])) for r in rows)
        if not close(share, 1.0):
            raise CheckError(f"{path}: cell {label} hour {t} shares sum to {share!r}")
        if any(float(r["raw"]) < 0.0 for r in rows if r["term_type"] == "first"):
            raise CheckError(f"{path}: cell {label} hour {t} has a negative first-order term")
    for label in labels:
        svg = out / f"tvsa_{label}.svg"
        try:
            root = ET.fromstring(svg.read_text())
        except (OSError, ET.ParseError) as exc:
            raise CheckError(f"{svg}: {exc}") from exc
        if not root.tag.endswith("svg"):
            raise CheckError(f"{svg}: root element is {root.tag}")
