"""Command-line pipeline: train, merge, evaluate, tvsa, report.

Every subcommand is deterministic given its inputs and seed, and every
output set carries a manifest (JSON next to the outputs) recording the
tool version, argument values, and SHA-256 digests of all input and output
files.  Data outputs (archive CSVs, sidecars, traces, SVGs) are
byte-reproducible on rerun; only the manifest's wall-clock field varies.

Each input has one way in.  Every archive CSV is read with its sidecar
by ``_read_archive``, and ``evaluate`` and ``tvsa`` share one set-up,
``_analysis_inputs``: the policy is an archive row or a ``--policy``
artifact, and ``--config`` goes only with the latter.  ``merge`` rejects
inputs that share a seed.  ``train --workers`` (default 1) alone sets the
process count.

Exit codes: 0 success, 2 usage or input error, 1 unexpected failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import sys
import time
from functools import cache
from itertools import repeat
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import __version__
from .batch import BatchEvaluator
from .data import ScenarioLoadError, load_scenarios
from .environment import (
    Ensemble,
    day_objectives,
    decision_dim,
    decision_names,
    dispatch,
    export_trace,
)
from .grid_model import (
    MicrogridConfig,
    config_from_dict,
    config_to_dict,
    default_config,
    load_config,
)
from .moea import (
    EpsilonArchive,
    MoeaConfig,
    merge_archives,
    read_archive_csv,
    run,
    validate_epsilons,
    write_archive_csv,
)
from .plots import pareto_scatter_svg, tvsa_stacked_bars_svg
from .policy import (
    DEFAULT_HIDDEN_DIM,
    InputNormalization,
    PolicyNetwork,
    load_policy,
    policy_from_doc,
)
from .tvsa import build_report, export_report_csv

OBJECTIVE_NAMES = ("cost", "emission", "heat_waste")
DEFAULT_EPSILONS = (10.0, 1.0, 0.01)
#: Sidecar keys that a command reading an archive relies on.
SIDECAR_KEYS = (
    "epsilons", "normalization", "microgrid_config", "hidden_dim", "genome_length",
    "decision_names", "seeds", "nfe",
)  # fmt: skip


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _write_text(path: Path, text: str) -> str:
    """Write ``text`` as UTF-8; returns the sha256 of the bytes written."""
    data = text.encode()
    path.write_bytes(data)
    return _sha256(data)


def _write_json(path: Path, doc: dict) -> str:
    return _write_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _write_manifest(
    path: Path,
    command: str,
    arguments: dict,
    inputs: Sequence[Path],
    outputs: Mapping[Path, str],
    started: float,
) -> None:
    """The manifest of one command: inputs are hashed from disk, outputs
    arrive with the sha256 of the bytes the command wrote."""
    _write_json(
        path,
        {
            "tool": "chpdispatch",
            "version": __version__,
            "command": command,
            "arguments": arguments,
            "input_digests": {str(p): _sha256(Path(p).read_bytes()) for p in inputs},
            "output_digests": {str(p): digest for p, digest in outputs.items()},
            "wall_clock_s": round(time.monotonic() - started, 3),
        },
    )


def _resolve_config(config_path: str | None) -> tuple[MicrogridConfig, list[Path]]:
    if config_path is None:
        return default_config("winter"), []
    path = Path(config_path)
    if not path.exists():
        raise FileNotFoundError(f"config file not found: {path}")
    return load_config(path), [path]


def _sidecar_path(archive_csv: Path) -> Path:
    return archive_csv.with_suffix(".json")


def _read_archive(path: Path) -> tuple[EpsilonArchive, dict]:
    """An archive CSV and its sidecar, the one way every command reads them.
    Rejects a sidecar that is not a JSON object, lacks a key that ``merge``,
    ``evaluate``, ``tvsa`` or ``report`` reads, or holds epsilons that are
    not a list of positive finite numbers, seeds that are not a non-empty
    list of distinct integers >= 0, or an nfe that is not an integer >= 1."""
    if not path.exists():
        raise FileNotFoundError(f"archive not found: {path}")
    sidecar = _sidecar_path(path)
    if not sidecar.exists():
        raise FileNotFoundError(f"archive sidecar not found: {sidecar}")

    def malformed(what: object) -> ValueError:
        return ValueError(f"malformed archive sidecar {sidecar}: {what}")

    try:
        doc = json.loads(sidecar.read_text())
    except json.JSONDecodeError as exc:
        raise malformed(exc) from exc
    if not isinstance(doc, dict):
        raise malformed("not a JSON object")
    for key in SIDECAR_KEYS:
        if key not in doc:
            raise malformed(f"missing {key!r}")
    try:
        epsilons = validate_epsilons(doc["epsilons"])
    except (TypeError, ValueError) as exc:
        raise malformed(f"epsilons: {exc}") from exc
    seeds, nfe = doc["seeds"], doc["nfe"]
    # ``type(s) is int`` rejects JSON true and false, which are ints to isinstance.
    whole = isinstance(seeds, list) and all(type(s) is int and s >= 0 for s in seeds)
    if not (whole and 0 < len(seeds) == len(set(seeds))):
        raise malformed(f"seeds must be a non-empty list of distinct integers >= 0, got {seeds!r}")
    if not (type(nfe) is int and nfe >= 1):
        raise malformed(f"nfe must be an integer >= 1, got {nfe!r}")
    return read_archive_csv(path, epsilons), doc


def _parse_epsilons(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(x) for x in text.split(","))
    except ValueError as exc:
        raise ValueError(f"bad epsilon list {text!r}") from exc
    if len(values) != 3:
        raise ValueError("exactly three epsilons are required (cost,emission,heat_waste)")
    return validate_epsilons(values)


def _parse_reference(text: str) -> list[float]:
    try:
        values = [float(x) for x in text.split(",")]
    except ValueError:
        values = []
    if len(values) != 3 or not np.all(np.isfinite(values)):
        raise ValueError(f"--reference must be three finite numbers, got {text!r}")
    return values


def _at_least_one(name: str, value: int) -> None:
    if value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value}")


def _cmd_train(args: argparse.Namespace) -> int:
    started = time.monotonic()
    _at_least_one("--hidden", args.hidden)
    # MoeaConfig checks these too, but only once the scenarios are loaded.
    if args.population < 2:
        raise ValueError(f"--population must be an integer >= 2, got {args.population}")
    if args.nfe < args.population:
        raise ValueError(f"--nfe must be at least --population ({args.population}), got {args.nfe}")
    if not (math.isfinite(args.bound) and args.bound > 0.0):
        raise ValueError(f"--bound must be finite and > 0, got {args.bound}")
    _at_least_one("--workers", args.workers)
    seeds = args.seed if args.seed else [0]
    for i, seed in enumerate(seeds):
        if seed < 0:
            raise ValueError(f"--seed must be an integer >= 0, got {seed}")
        if seed in seeds[:i]:
            raise ValueError(f"--seed {seed} is given twice")
    scenarios_path = Path(args.scenarios)
    scenarios = load_scenarios(scenarios_path)
    config, config_inputs = _resolve_config(args.config)
    epsilons = _parse_epsilons(args.epsilons)
    normalization = InputNormalization.from_scenarios(scenarios)
    evaluator = BatchEvaluator(scenarios, config, normalization, hidden_dim=args.hidden)

    moea_config = MoeaConfig(
        genome_length=evaluator.genome_length,
        epsilons=epsilons,
        max_nfe=args.nfe,
        population_size=args.population,
        bound=args.bound,
    )

    if args.workers > 1 and len(seeds) > 1:
        # Imported here: multiprocessing costs every other command's start-up.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=args.workers) as pool:
            archives = list(pool.map(run, repeat(moea_config), repeat(evaluator), seeds))
    else:
        archives = [run(moea_config, evaluator, s) for s in seeds]

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    outputs: dict[Path, str] = {}
    # Every seed's sidecar but for its "seeds".
    sidecar = {
        "objective_names": list(OBJECTIVE_NAMES),
        "epsilons": list(epsilons),
        "nfe": args.nfe,
        "population_size": args.population,
        "bound": args.bound,
        "hidden_dim": args.hidden,
        "genome_length": evaluator.genome_length,
        "decision_names": decision_names(config),
        "normalization": {
            "offsets": list(normalization.offsets),
            "scales": list(normalization.scales),
        },
        "microgrid_config": config_to_dict(config),
    }
    for seed, archive in zip(seeds, archives):
        stem = out if len(seeds) == 1 else out.with_name(f"{out.name}_seed{seed}")
        csv_path = stem.with_suffix(".csv")
        outputs[csv_path] = write_archive_csv(archive, csv_path, OBJECTIVE_NAMES)
        sidecar_path = _sidecar_path(csv_path)
        outputs[sidecar_path] = _write_json(sidecar_path, {**sidecar, "seeds": [seed]})
        feasible = sum(1 for m in archive if m.feasible)
        print(f"seed {seed}: archive size {len(archive)}, feasible {feasible}")
    _write_manifest(
        out.with_suffix(".manifest.json"),
        "train",
        {
            "scenarios": str(scenarios_path),
            "config": args.config,
            "seeds": seeds,
            "nfe": args.nfe,
            "population": args.population,
            "epsilons": list(epsilons),
            "bound": args.bound,
            "hidden": args.hidden,
        },
        [scenarios_path, *config_inputs],
        outputs,
        started,
    )
    return 0


def _cmd_merge(args: argparse.Namespace) -> int:
    started = time.monotonic()
    paths = [Path(p) for p in args.archives]
    archives, sidecars = zip(*(_read_archive(p) for p in paths))
    for p, sc in zip(paths[1:], sidecars[1:]):
        if sc["epsilons"] != sidecars[0]["epsilons"]:
            raise ValueError(f"{p}: epsilon vector differs from {paths[0]}")
        for key in ("normalization", "microgrid_config", "hidden_dim", "genome_length"):
            if sc[key] != sidecars[0][key]:
                raise ValueError(f"{p}: {key} differs from {paths[0]}; archives are incompatible")
    source_of: dict[int, Path] = {}
    for p, sc in zip(paths, sidecars):
        for seed in sc["seeds"]:
            if seed in source_of:
                raise ValueError(
                    f"seed {seed} is in both {source_of[seed]} and {p}; "
                    "merging them would count its evaluations twice"
                )
            source_of[seed] = p
    merged = merge_archives(archives)

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    csv_path = out.with_suffix(".csv")
    outputs = {csv_path: write_archive_csv(merged, csv_path, OBJECTIVE_NAMES)}
    doc = dict(sidecars[0])
    doc["seeds"] = sorted(source_of)
    doc["nfe"] = sum(sc["nfe"] for sc in sidecars)
    # Relative to the merged archive, so that its sidecar's bytes do not
    # depend on where the archives lie or how they were named.
    doc["merged_from"] = [
        Path(os.path.relpath(p.resolve(), csv_path.parent.resolve())).as_posix() for p in paths
    ]
    outputs[_sidecar_path(csv_path)] = _write_json(_sidecar_path(csv_path), doc)
    _write_manifest(
        out.with_suffix(".manifest.json"),
        "merge",
        {"archives": [str(p) for p in paths]},
        paths + [_sidecar_path(p) for p in paths],
        outputs,
        started,
    )
    print(f"merged archive size {len(merged)}")
    return 0


def _analysis_inputs(
    args: argparse.Namespace,
) -> tuple[Ensemble, PolicyNetwork, MicrogridConfig, list[Path], dict]:
    """What ``evaluate`` and ``tvsa`` share: the scenarios, the policy and
    its plant config, the input files and the arguments of the manifest.
    The policy is an archive row, whose sidecar holds the plant config, or
    a standalone artifact with the plant of ``--config``."""
    if (args.archive is None) == (args.policy is None):
        raise ValueError("provide exactly one of --archive or --policy")
    if args.archive is not None and args.config is not None:
        raise ValueError("--config applies to --policy only; an archive's sidecar holds its config")
    scenarios_path = Path(args.scenarios)
    scenarios = load_scenarios(scenarios_path)
    if args.archive is not None:
        archive_path = Path(args.archive)
        archive, sidecar = _read_archive(archive_path)
        if not 0 <= args.row < len(archive):
            raise ValueError(f"row {args.row} out of range for archive of {len(archive)}")
        inputs = [archive_path, _sidecar_path(archive_path)]
        config = config_from_dict(sidecar["microgrid_config"])
        genome = archive.members[args.row].genome
        policy = policy_from_doc(sidecar, f"archive sidecar {inputs[1]}", genome)
    else:
        policy_path = Path(args.policy)
        if not policy_path.exists():
            raise FileNotFoundError(f"policy artifact not found: {policy_path}")
        policy = load_policy(policy_path)
        config, config_inputs = _resolve_config(args.config)
        inputs = [policy_path, *config_inputs]
    expected = decision_dim(config)
    if policy.output_dim != expected:
        raise ValueError(f"policy has {policy.output_dim} outputs but the config needs {expected}")
    arguments = {
        "scenarios": str(scenarios_path),
        "archive": args.archive,
        "row": args.row,
        "policy": args.policy,
        "config": args.config,
    }
    return scenarios, policy, config, [scenarios_path, *inputs], arguments


def _cmd_evaluate(args: argparse.Namespace) -> int:
    started = time.monotonic()
    scenarios, policy, config, inputs, arguments = _analysis_inputs(args)

    trace = dispatch(policy.forward(scenarios.policy_inputs()), scenarios, config)
    day_obj, day_violation = day_objectives(trace)
    objectives, violation = day_obj.mean(axis=1), float(day_violation.mean())

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for stale in out.glob("trace_*.csv"):
        stale.unlink()
    doc = {name: float(v) for name, v in zip(OBJECTIVE_NAMES, objectives)}
    doc["violation"] = violation
    objective_path = out / "objectives.json"
    outputs = {objective_path: _write_json(objective_path, doc)}
    for s, label in enumerate(scenarios.labels):
        trace_path = out / f"trace_{label}.csv"
        outputs[trace_path] = export_trace(trace, s, trace_path)
    print(" ".join(f"{name}={value!r}" for name, value in doc.items()))
    _write_manifest(out / "manifest.json", "evaluate", arguments, inputs, outputs, started)
    return 0


def _cmd_tvsa(args: argparse.Namespace) -> int:
    started = time.monotonic()
    scenarios, policy, config, inputs, arguments = _analysis_inputs(args)

    report = build_report(
        policy, scenarios, gradient_at=args.gradient_at.replace("-", "_"), config=config
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "tvsa.csv"
    outputs = {csv_path: export_report_csv(report, csv_path)}
    for d, label in enumerate(report.decision_labels):
        svg_path = out / f"tvsa_{label}.svg"
        outputs[svg_path] = _write_text(svg_path, tvsa_stacked_bars_svg(report, d))
    arguments["gradient_at"] = args.gradient_at
    _write_manifest(out / "manifest.json", "tvsa", arguments, inputs, outputs, started)
    print(f"wrote TVSA for {len(report.decision_labels)} decisions to {out}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    started = time.monotonic()
    archive_path = Path(args.archive)
    members = _read_archive(archive_path)[0].members
    if not members:
        raise ValueError(f"{archive_path}: archive is empty")
    reference = None if args.reference is None else _parse_reference(args.reference)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    objectives = np.array([m.objectives for m in members])
    svg_path = out / "pareto.svg"
    summary_path = out / "summary.csv"
    summary = io.StringIO()
    writer = csv.writer(summary, lineterminator="\n")
    writer.writerow(["index", *OBJECTIVE_NAMES, "violation", "operator"])
    for i, m in enumerate(members):
        writer.writerow(
            [i] + [repr(float(o)) for o in m.objectives] + [repr(m.violation), m.operator_tag]
        )
    outputs = {
        svg_path: _write_text(
            svg_path, pareto_scatter_svg(objectives, OBJECTIVE_NAMES, reference)
        ),
        summary_path: _write_text(summary_path, summary.getvalue()),
    }
    _write_manifest(
        out / "manifest.json",
        "report",
        {"archive": str(archive_path), "reference": args.reference},
        [archive_path, _sidecar_path(archive_path)],
        outputs,
        started,
    )
    print(f"report for {len(members)} solutions written to {out}")
    return 0


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: every default is
    immutable, so no parse leaves state behind for the next."""
    parser = argparse.ArgumentParser(
        prog="chpdispatch",
        description="Train, merge, evaluate, and explain microgrid dispatch policies.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="run the evolutionary policy search")
    train.add_argument("--scenarios", required=True, help="training scenario CSV")
    train.add_argument("--config", default=None, help="microgrid config JSON")
    train.add_argument(
        "--seed", type=int, action="append", help="random seed (repeat for multi-seed runs)"
    )
    train.add_argument("--nfe", type=int, default=20000, help="evaluation budget per seed")
    train.add_argument("--population", type=int, default=100)
    train.add_argument(
        "--epsilons",
        default=",".join(str(e) for e in DEFAULT_EPSILONS),
        help="archive epsilons: cost,emission,heat_waste",
    )
    train.add_argument("--bound", type=float, default=10.0, help="weight search half-width")
    train.add_argument("--hidden", type=int, default=DEFAULT_HIDDEN_DIM)
    train.add_argument("--workers", type=int, default=1, help="process count for multi-seed runs")
    train.add_argument("--out", required=True, help="output path prefix")
    train.set_defaults(func=_cmd_train)

    merge = sub.add_parser("merge", help="merge archives into a joint frontier")
    merge.add_argument("archives", nargs="+", help="archive CSVs to merge")
    merge.add_argument("--out", required=True)
    merge.set_defaults(func=_cmd_merge)

    def add_policy_source(p: argparse.ArgumentParser) -> None:
        p.add_argument("--archive", default=None, help="archive CSV holding the policy")
        p.add_argument("--row", type=int, default=0, help="archive row index")
        p.add_argument("--policy", default=None, help="standalone policy artifact JSON")
        p.add_argument("--config", default=None, help="microgrid config JSON (policy mode)")

    evaluate = sub.add_parser("evaluate", help="evaluate one policy on scenarios")
    evaluate.add_argument("--scenarios", required=True)
    add_policy_source(evaluate)
    evaluate.add_argument("--out", required=True, help="output directory")
    evaluate.set_defaults(func=_cmd_evaluate)

    tvsa = sub.add_parser("tvsa", help="time-varying sensitivity analysis of a policy")
    tvsa.add_argument("--scenarios", required=True)
    add_policy_source(tvsa)
    tvsa.add_argument(
        "--gradient-at",
        choices=("mean", "per-scenario"),
        default="mean",
        help="gradient evaluation point",
    )
    tvsa.add_argument("--out", required=True, help="output directory")
    tvsa.set_defaults(func=_cmd_tvsa)

    report = sub.add_parser("report", help="Pareto scatter and summary table")
    report.add_argument("--archive", required=True)
    report.add_argument(
        "--reference", default=None, help="objective triple to overlay, e.g. 15784,189.79,0.79"
    )
    report.add_argument("--out", required=True, help="output directory")
    report.set_defaults(func=_cmd_report)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc}", file=sys.stderr)
        return 2
    except (ScenarioLoadError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"unexpected failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
