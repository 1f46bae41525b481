"""Acceptance gate: one test per criterion, each printing a pass line.

The heavyweight studies (the DTLZ2 efficacy run and the desk-scale
end-to-end study) are session fixtures so the reproducibility criterion
can rerun them and compare bytes without paying for a third run.
Run with ``pytest tests/test_acceptance.py -s`` to see the pass lines.
"""

from __future__ import annotations

import dataclasses
import json
import time
from types import SimpleNamespace

import numpy as np
import pytest

from chpdispatch.batch import BatchEvaluator
from chpdispatch.cli import main
from chpdispatch.data import SyntheticSpec, generate_synthetic, load_scenarios, write_scenarios
from chpdispatch.environment import HOURLY_FIELDS, Ensemble, dispatch, simulate_day
from chpdispatch.grid_model import (
    boiler_fuel,
    chp_efficiency,
    chp_power_fuel,
    chp_steam_fuel,
    default_config,
    steam_turbine_power,
)
from chpdispatch.moea import (
    Dominance,
    EpsilonArchive,
    MoeaConfig,
    Solution,
    box_index,
    eps_dominates,
    run,
    write_archive_csv,
)
from chpdispatch.policy import InputNormalization, PolicyNetwork, weight_count
from chpdispatch.tvsa import build_report

from conftest import config_to_plain, make_policy, policy_to_plain, scenario_to_plain
from oracle import oracle_simulate_day
from test_tvsa import LinearPolicy, ensemble


def test_criterion_1_component_model_unit_suite():
    started = time.perf_counter()
    cfg = default_config("winter")
    chp1, boiler, turbine = cfg.chp[0], cfg.boiler, cfg.steam_turbine

    assert abs(chp_efficiency(16000.0, chp1) - 0.705354) < 1e-6
    breakeven = chp1.free_steam_limit
    assert round(breakeven, 2) == 55.99
    assert abs(breakeven - 55.99269080401155) < 1e-6
    assert chp_steam_fuel(55.99, chp1) == 0.0
    assert abs(boiler_fuel(100.0, boiler) - 122.4542) < 1e-6
    assert abs(steam_turbine_power(300.0, turbine) - 5462.37) < 1e-6
    assert abs(steam_turbine_power(215.0, turbine) - 8842.205) < 1e-6
    # remaining worked examples, frozen from hand arithmetic
    assert abs(chp_efficiency(0.0, chp1) - 0.088094) < 1e-9
    assert abs(chp_efficiency(12000.0, chp1) - 0.514868375) < 1e-9
    assert chp_power_fuel(0.0, chp1) == 0.0
    assert abs(chp_power_fuel(16000.0, chp1) - 77.41858489839599) < 1e-9
    assert abs(chp_power_fuel(12000.0, chp1) - 79.54582838636652) < 1e-9
    assert abs(chp_steam_fuel(100.0, chp1) - 51.779) < 1e-6
    assert boiler_fuel(0.0, boiler, committed=False) == 0.0
    assert abs(boiler_fuel(0.0, boiler) - 3.7742) < 1e-9
    assert abs(steam_turbine_power(100.0, turbine) - 4942.9) < 1e-6

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"\n[PASS] criterion 1: component-model unit suite ({elapsed:.3f}s)")


def test_criterion_2_simulator_matches_independent_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    winter = generate_synthetic(SyntheticSpec(seed=61, days=10))
    summer = generate_synthetic(SyntheticSpec(seed=62, days=10, season="summer"))
    worst = 0.0
    for i in range(20):
        season = "winter" if i % 2 == 0 else "summer"
        config = default_config(season)
        scenario = (winter if season == "winter" else summer)[i // 2]
        policy = make_policy(rng, config, scenario, scale=5.0)
        day = simulate_day(policy, scenario, config)
        expected = oracle_simulate_day(
            scenario_to_plain(scenario, config),
            [float(w) for w in policy.weights],
            policy_to_plain(policy),
            config_to_plain(config),
        )
        for got, want in zip(day.objectives, expected[:3]):
            worst = max(worst, abs(float(got) - want))
        assert day.violation == expected[3]
    assert worst < 1e-9
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    print(f"[PASS] criterion 2: oracle equivalence, max |diff| {worst:.2e} ({elapsed:.3f}s)")


def test_criterion_3_feasibility_and_load_balance_invariants():
    # Each case is one hour dispatched from its own random previous state:
    # the case's decisions and hidden state fill a one-day row of the
    # kernel, whose initial CHP power is that previous state.
    rng = np.random.default_rng(31337)
    configs = []
    for season in ("winter", "summer"):
        base = default_config(season)
        configs.append(base)
        tight = dataclasses.replace(
            base,
            chp=tuple(dataclasses.replace(c, ramp_down=-1500.0, ramp_up=1500.0) for c in base.chp),
        )
        configs.append(tight)
    pools = {
        "winter": generate_synthetic(SyntheticSpec(seed=71, days=10)),
        "summer": generate_synthetic(SyntheticSpec(seed=72, days=10, season="summer")),
    }
    policies = {
        id(cfg): [make_policy(rng, cfg, pools[cfg.season], scale=8.0) for _ in range(5)]
        for cfg in configs
    }

    cases = 10_000
    rows = {id(cfg): [] for cfg in configs}  # (decisions, day, hour, previous power)
    for n in range(cases):
        cfg = configs[n % len(configs)]
        scenario = pools[cfg.season][int(rng.integers(10))]
        hour = int(rng.integers(24))
        policy = policies[id(cfg)][int(rng.integers(5))]
        prev = []
        for c in cfg.chp:
            if rng.random() < 0.25:
                prev.append(0.0)  # unit was off
            else:
                prev.append(float(rng.uniform(c.p_min, c.p_max)))
        u = policy.forward(scenario.policy_inputs()[0, hour])
        rows[id(cfg)].append((u, scenario, hour, prev))

    worst_residual = 0.0
    checked = 0
    for cfg in configs:
        group = rows[id(cfg)]

        def hourly(field):
            at_hour = np.array([getattr(day, field)[0, hour] for _, day, hour, _ in group])
            return np.repeat(at_hour[:, None], 24, axis=1)

        days = Ensemble(
            labels=[day.labels[0] for _, day, _, _ in group],
            signals=hourly("signals"),
            **{field: hourly(field) for field in HOURLY_FIELDS},
            init_power=np.array([prev for _, _, _, prev in group]),
        )
        u = np.repeat(np.array([u for u, _, _, _ in group])[:, None, :], 24, axis=1)
        d = dispatch(u, days, cfg)
        prev = days.init_power
        for i, c in enumerate(cfg.chp):
            on, p, q = d.chp_on[:, 0, i], d.power[:, 0, i], d.steam[:, 0, i]
            assert np.all((c.p_min <= p[on]) & (p[on] <= c.p_max))  # power limits
            assert np.all((c.q_min <= q[on]) & (q[on] <= c.q_max))  # steam limits
            ramping = on & (prev[:, i] > 0.0)
            delta = p[ramping] - prev[ramping, i]
            assert np.all((c.ramp_down <= delta) & (delta <= c.ramp_up))  # ramp window
            assert np.all(p[~on] == 0.0) and np.all(q[~on] == 0.0)
        b = cfg.boiler
        qb = d.boiler_steam[:, 0]
        assert np.all((b.q_min <= qb) & (qb <= b.q_max))
        residual = np.abs(
            d.power[:, 0].sum(axis=1)
            + d.st_power[:, 0]
            + days.hydro[:, 0]
            + days.solar[:, 0]
            + d.exchange[:, 0]
            - days.electric_load[:, 0]
        )
        worst_residual = max(worst_residual, float(residual.max()))
        assert np.all(residual < 1e-9)
        checked += len(group)
    assert checked == cases
    print(
        f"[PASS] criterion 3: {cases} feasibility cases, max residual {worst_residual:.2e}"
    )


def test_criterion_4_gradient_correctness():
    # Gate: 1e-6 relative with a 1e-9 absolute floor for vanishing entries
    # (a pure ratio is meaningless where the analytic gradient is ~0).
    rng = np.random.default_rng(404)
    worst_rel = 0.0
    worst_abs = 0.0
    for _ in range(100):
        k = int(rng.integers(1, 8))
        hidden = int(rng.integers(2, 20))
        scales = tuple(float(s) for s in rng.uniform(0.3, 50.0, 6))
        offsets = tuple(float(o) for o in rng.uniform(-10.0, 10.0, 6))
        norm = InputNormalization(offsets=offsets, scales=scales)
        n = weight_count(6, hidden, k)
        net = PolicyNetwork(6, hidden, k, rng.uniform(-3.0, 3.0, n), norm)
        raw = np.array(offsets) + np.array(scales) * rng.uniform(0.0, 1.0, 6)
        analytic = net.input_gradient(raw)
        numeric = np.zeros_like(analytic)
        for a in range(6):
            h = 1e-5 * scales[a]
            hi, lo = raw.copy(), raw.copy()
            hi[a] += h
            lo[a] -= h
            numeric[:, a] = (net.forward(hi) - net.forward(lo)) / (2.0 * h)
        diff = np.abs(analytic - numeric)
        assert np.all(diff <= 1e-6 * np.abs(analytic) + 1e-9)
        healthy = np.abs(analytic) >= 1e-6
        if healthy.any():
            worst_rel = max(worst_rel, float((diff[healthy] / np.abs(analytic[healthy])).max()))
        worst_abs = max(worst_abs, float(diff.max()))
    assert worst_rel < 1e-6
    print(
        f"[PASS] criterion 4: 100 gradient checks, max relative error {worst_rel:.2e} "
        f"(max absolute {worst_abs:.2e})"
    )


def test_criterion_5_tvsa_exactness():
    # (a) exactly linear policy: decomposition reproduces Var(u) to 1e-9
    rng = np.random.default_rng(505)
    for _ in range(10):
        g = rng.normal(0.0, 0.5, 5)
        policy = LinearPolicy([0.1], [g])
        rows = rng.normal(0.0, 1.0, (40, 5)) * rng.uniform(0.2, 5.0, 5)
        scenarios = ensemble(rows.tolist())
        from chpdispatch.tvsa import decompose

        first, second = decompose(policy, scenarios, 13, 0)
        total = float(first.sum() + 2.0 * np.triu(second, 1).sum())
        u = policy.forward(scenarios.policy_inputs()[:, 13])[:, 0]
        assert abs(total - float(np.var(u, ddof=1))) < 1e-9 * max(1.0, abs(total))

    # (b) near-linear sigmoid policy on a 200-scenario ensemble: within 5 %
    rng = np.random.default_rng(123)
    rows = np.column_stack(
        [
            rng.normal(0.0, 1.0, 200),
            rng.normal(5.0, 0.5, 200),
            rng.normal(150.0, 10.0, 200),
            rng.normal(10.0, 1.0, 200),
            rng.normal(0.05, 0.005, 200),
        ]
    )
    scenarios = ensemble(rows.tolist())
    norm = InputNormalization.from_scenarios(scenarios)
    weights = rng.uniform(-0.4, 0.4, weight_count(6, 15, 5))
    policy = PolicyNetwork(6, 15, 5, weights, norm)
    report = build_report(policy, scenarios)
    worst_rel = 0.0
    fields = (
        "first_order", "second_order", "empirical_variance",
        "normalized_first", "normalized_second",
    )  # fmt: skip
    for t, d in np.ndindex(report.empirical_variance.shape):
        cell = SimpleNamespace(**{name: getattr(report, name)[t, d] for name in fields})
        total = float(cell.first_order.sum() + 2.0 * np.triu(cell.second_order, 1).sum())
        assert cell.empirical_variance > 0.0
        rel = abs(total - cell.empirical_variance) / cell.empirical_variance
        worst_rel = max(worst_rel, rel)
        assert rel < 0.05
        # (c) normalized absolute shares sum to one
        share_sum = float(
            np.abs(cell.normalized_first).sum()
            + np.abs(np.triu(cell.normalized_second, 1)).sum()
        )
        assert abs(share_sum - 1.0) < 1e-9
    print(
        f"[PASS] criterion 5: TVSA exact for linear policy; sigmoid total within "
        f"{worst_rel:.2%} of empirical variance"
    )


def _assert_archive_sound(archive: EpsilonArchive) -> None:
    members = archive.members
    eps = archive.epsilons
    boxes = [box_index(m.objectives, eps) for m in members]
    assert len(set(boxes)) == len(boxes), "two members share an epsilon box"
    for i, a in enumerate(members):
        for b in members[i + 1 :]:
            assert eps_dominates(a, b, eps) is Dominance.NEITHER
    if any(m.feasible for m in members):
        assert all(m.feasible for m in members), "feasibility-first violated"


def test_criterion_6_archive_insertion_fuzz():
    # Objectives concentrate near a spherical tradeoff surface so the
    # archive holds a genuine multi-box front; uniform-dominated and
    # infeasible candidates are mixed in to exercise every insert path.
    rng = np.random.default_rng(606)
    eps = (1.5, 1.5, 1.5)
    archive = EpsilonArchive(eps)
    inserted_feasible = False
    peak_size = 0
    for n in range(100_000):
        draw = rng.random()
        if draw < 0.6:
            direction = np.abs(rng.standard_normal(3)) + 1e-12
            objectives = rng.uniform(9.0, 11.0) * direction / np.linalg.norm(direction)
        else:
            objectives = rng.uniform(0.0, 15.0, 3) + 5.0
        # first fifth: infeasible-only regime, so violation ordering and the
        # equal-violation box fall-through get real coverage before the
        # first feasible insert wipes the infeasible members
        v_draw = rng.random()
        if n >= 20_000 and v_draw < 0.6:
            violation = 0.0
        elif v_draw < 0.8:
            violation = float(rng.uniform(0.01, 1.0))
        else:
            violation = float(rng.choice([0.1, 0.2, 0.3]))
        sol = Solution(
            genome=np.zeros(2),
            objectives=objectives,
            violation=violation,
            operator_tag="init",
        )
        archive.insert(sol)
        peak_size = max(peak_size, len(archive))
        inserted_feasible = inserted_feasible or violation == 0.0
        if inserted_feasible:
            assert all(m.feasible for m in archive), "feasibility-first violated"
        if (n + 1) % 5000 == 0:
            _assert_archive_sound(archive)
    assert inserted_feasible
    _assert_archive_sound(archive)
    assert peak_size >= 20, "fuzz never built a multi-box front"
    print(
        f"[PASS] criterion 6: 100000 fuzz insertions, archive size {len(archive)} "
        f"(peak {peak_size}) sound"
    )


# ---------------------------------------------------------------------------
# DTLZ2 efficacy study (criterion 7) and its reproducibility (criterion 9)

DTLZ2_BOUND = 10.0
DTLZ2_VARS = 12
DTLZ2_EPS = (0.05, 0.05, 0.05)
DTLZ2_NFE = 10_000
DTLZ2_SEEDS = (0, 1, 2, 3, 4)


def dtlz2(genome):
    x = (np.asarray(genome) + DTLZ2_BOUND) / (2.0 * DTLZ2_BOUND)
    g = float(((x[2:] - 0.5) ** 2).sum())
    a0, a1 = 0.5 * np.pi * x[0], 0.5 * np.pi * x[1]
    f = (1.0 + g) * np.array(
        [np.cos(a0) * np.cos(a1), np.cos(a0) * np.sin(a1), np.sin(a0)]
    )
    return f, 0.0


def generational_distance(archive: EpsilonArchive) -> float:
    # every DTLZ2 objective vector has norm 1 + g, so the distance to the
    # spherical front is the norm minus one
    return float(np.mean([np.linalg.norm(m.objectives) - 1.0 for m in archive.members]))


def _dtlz2_moea_archive(seed: int) -> EpsilonArchive:
    config = MoeaConfig(
        genome_length=DTLZ2_VARS, epsilons=DTLZ2_EPS, max_nfe=DTLZ2_NFE,
        bound=DTLZ2_BOUND,
    )
    return run(config, dtlz2, seed=seed)


def _dtlz2_random_archive(seed: int) -> EpsilonArchive:
    rng = np.random.default_rng(seed)
    archive = EpsilonArchive(DTLZ2_EPS)
    for _ in range(DTLZ2_NFE):
        genome = rng.uniform(-DTLZ2_BOUND, DTLZ2_BOUND, DTLZ2_VARS)
        objectives, violation = dtlz2(genome)
        archive.insert(
            Solution(genome=genome, objectives=objectives, violation=violation,
                     operator_tag="random")
        )
    return archive


@pytest.fixture(scope="session")
def dtlz2_study(tmp_path_factory):
    out = tmp_path_factory.mktemp("dtlz2")
    started = time.perf_counter()
    archives = [_dtlz2_moea_archive(seed) for seed in DTLZ2_SEEDS]
    moea_gd = [generational_distance(a) for a in archives]
    random_gd = [generational_distance(_dtlz2_random_archive(1000 + s)) for s in DTLZ2_SEEDS]
    elapsed = time.perf_counter() - started
    archive_bytes = []
    for seed, archive in zip(DTLZ2_SEEDS, archives):
        path = out / f"dtlz2_seed{seed}.csv"
        write_archive_csv(archive, path, ("f0", "f1", "f2"))
        archive_bytes.append(path.read_bytes())
    return {
        "moea_gd": moea_gd,
        "random_gd": random_gd,
        "elapsed": elapsed,
        "archive_bytes": archive_bytes,
    }


def test_criterion_7_optimizer_efficacy_on_dtlz2(dtlz2_study):
    moea_median = float(np.median(dtlz2_study["moea_gd"]))
    random_median = float(np.median(dtlz2_study["random_gd"]))
    assert moea_median < random_median
    assert dtlz2_study["elapsed"] < 120.0
    print(
        f"[PASS] criterion 7: DTLZ2 median GD {moea_median:.4f} vs random "
        f"{random_median:.4f} ({dtlz2_study['elapsed']:.0f}s)"
    )


# ---------------------------------------------------------------------------
# Desk-scale end-to-end study (criterion 8) and reproducibility (criterion 9)

STUDY_SEEDS = (1, 2, 3)
STUDY_NFE = 20_000


def _run_study(base_dir, scenarios_csv):
    seed_args = []
    for seed in STUDY_SEEDS:
        seed_args += ["--seed", str(seed)]
    out = base_dir / "run"
    assert main(
        [
            "train", "--scenarios", str(scenarios_csv), "--nfe", str(STUDY_NFE),
            *seed_args, "--out", str(out),
        ]
    ) == 0
    seed_csvs = [base_dir / f"run_seed{seed}.csv" for seed in STUDY_SEEDS]
    joint = base_dir / "joint"
    assert main(["merge", *map(str, seed_csvs), "--out", str(joint)]) == 0
    return seed_csvs, joint.with_suffix(".csv")


@pytest.fixture(scope="session")
def desk_study(tmp_path_factory):
    base = tmp_path_factory.mktemp("study")
    scenarios_csv = base / "winter7.csv"
    write_scenarios(generate_synthetic(SyntheticSpec(seed=7, days=7)), scenarios_csv)
    started = time.perf_counter()
    seed_csvs, joint_csv = _run_study(base, scenarios_csv)
    elapsed = time.perf_counter() - started
    return {
        "base": base,
        "scenarios_csv": scenarios_csv,
        "seed_csvs": seed_csvs,
        "joint_csv": joint_csv,
        "elapsed": elapsed,
    }


def test_criterion_8_end_to_end_desk_study(desk_study):
    from chpdispatch.moea import read_archive_csv

    sidecar = json.loads(desk_study["joint_csv"].with_suffix(".json").read_text())
    epsilons = tuple(sidecar["epsilons"])
    archive = read_archive_csv(desk_study["joint_csv"], epsilons)
    members = archive.members

    # (a) at least five mutually non-epsilon-dominated feasible solutions
    feasible = [m for m in members if m.feasible]
    assert len(feasible) >= 5
    _assert_archive_sound(archive)

    # (b) some archived policy weakly improves every objective over the
    # zero-weight baseline (u = 0.5 everywhere)
    scenarios = load_scenarios(desk_study["scenarios_csv"])
    config = default_config("winter")
    normalization = InputNormalization(
        offsets=tuple(sidecar["normalization"]["offsets"]),
        scales=tuple(sidecar["normalization"]["scales"]),
    )
    evaluator = BatchEvaluator(scenarios, config, normalization)
    baseline, baseline_violation = evaluator(np.zeros(evaluator.genome_length))
    assert baseline_violation == 0.0
    improving = [
        m for m in feasible if np.all(m.objectives <= baseline)
    ]
    assert improving, f"no archive member weakly improves baseline {baseline}"

    # (c) heat reliability holds for every archived solution
    assert all(m.violation == 0.0 for m in members)

    assert desk_study["elapsed"] < 300.0
    print(
        f"[PASS] criterion 8: joint archive {len(members)} solutions, "
        f"{len(improving)} dominate the baseline, all feasible "
        f"({desk_study['elapsed']:.0f}s)"
    )


def test_criterion_9_reproducibility(desk_study, dtlz2_study, tmp_path_factory):
    # rerun the DTLZ2 seeds: archives must serialize byte-identically
    out = tmp_path_factory.mktemp("dtlz2_rerun")
    for seed, expected in zip(DTLZ2_SEEDS, dtlz2_study["archive_bytes"]):
        archive = _dtlz2_moea_archive(seed)
        path = out / f"dtlz2_seed{seed}.csv"
        write_archive_csv(archive, path, ("f0", "f1", "f2"))
        assert path.read_bytes() == expected, f"DTLZ2 seed {seed} not reproducible"

    # rerun the desk study end to end with the same seeds
    rerun_base = tmp_path_factory.mktemp("study_rerun")
    scenarios_csv = rerun_base / "winter7.csv"
    write_scenarios(generate_synthetic(SyntheticSpec(seed=7, days=7)), scenarios_csv)
    assert scenarios_csv.read_bytes() == desk_study["scenarios_csv"].read_bytes()
    seed_csvs, joint_csv = _run_study(rerun_base, scenarios_csv)
    for fresh, original in zip(seed_csvs, desk_study["seed_csvs"]):
        assert fresh.read_bytes() == original.read_bytes(), f"{fresh.name} differs"
    assert joint_csv.read_bytes() == desk_study["joint_csv"].read_bytes()
    print("[PASS] criterion 9: DTLZ2 and desk-study archives byte-identical on rerun")
