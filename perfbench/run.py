"""Benchmark of the chpdispatch CLI: train, evaluate and tvsa, timed end to
end and, in a separate traced run, per module.

    python3 perfbench/run.py --workload desk-summer-train --seed 1 \
        --seconds 30 --trace 0

The workload seed makes the inputs: a synthetic scenario CSV, the plant
config JSON and, for the analysis workload, seeded policy artifacts.  Each
run repeats whole rounds of the same CLI commands in this one process until
``--seconds`` have passed, checks the outputs of the first round in which
no command failed against computations made apart from the program, checks
that every later such round wrote the same bytes, and prints one JSON line:
``correct``, ``attempted`` and ``failed`` (CLI commands) and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the functions of each module are wrapped from here and the per-layer
metrics are printed instead.  Times are reference seconds (see
``speed.py``).  See README.md.
"""

from __future__ import annotations

import os
import sys

# One BLAS thread: OpenBLAS would otherwise start a thread per core and the
# benchmark would compete with itself on a 2-core machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["CHPDISPATCH_WORKERS"] = "1"

import speed  # noqa: E402  (standard library only)

# The clocks start before the rest is imported, so set-up time counts the
# imports; the interpreter start before this point is counted in raw seconds.
METER = speed.ReferenceMeter()
STARTUP_S = 0.0
if __name__ == "__main__":
    STARTUP_S = speed.seconds_since_process_start()
    METER.start()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402
from hypervolume import hypervolume  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
#: ``train --epsilons``: the archive's box sizes (cost, emission, heat waste).
EPSILONS = (10.0, 1.0, 0.01)
#: Hypervolume reference point (cost $/day, emission t/day, heat waste h/day).
#: README.md shows why it lies far beyond every front.
REFERENCE = (150000.0, 3000.0, 72.0)
#: Archive rows that ``evaluate`` and ``tvsa`` analyze after ``train``.
ARCHIVE_ROWS = 3


@dataclass(frozen=True)
class Workload:
    season: str
    days: int
    nfe: int
    population: int
    #: Seeded policy artifacts to analyze; 0 analyzes archive rows instead.
    policies: int


WORKLOADS = {
    "desk-summer-train": Workload("summer", 7, 3000, 100, 0),
    "season-winter-train": Workload("winter", 180, 1000, 100, 0),
    "season-summer-analyze": Workload("summer", 180, 100, 20, 2),
}

#: Layers reported with a call count and inclusive seconds.
COUNTED_SPANS = (
    "data.load_scenarios", "batch.init", "moea.insert", "variation.vary",
    "environment.simulate_day", "policy.forward", "policy.input_gradient",
)  # fmt: skip
#: Layers reported with inclusive seconds only.
TIMED_SPANS = (
    "moea.select_operator", "moea.write_archive_csv", "environment.export_trace",
    "tvsa.build_report", "tvsa.forced_off_mask", "tvsa.export_report_csv",
    "plots.tvsa_stacked_bars_svg",
)  # fmt: skip


class Bench:
    """One run: inputs, set-up, timed rounds, then checks."""

    def __init__(self, name: str, seed: int, trace: bool) -> None:
        self.name, self.seed, self.trace = name, seed, trace
        self.wl = WORKLOADS[name]
        self.work = OUT / f"work-{name}-seed{seed}-pid{os.getpid()}"
        self.attempted = 0
        #: (round, message) of every failed command.
        self.failures: list[tuple[int, str]] = []
        self.errors: list[str] = []

    # -- inputs and set-up -------------------------------------------------

    def make_inputs(self) -> None:
        wl = self.wl
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.csv = self.work / "scenarios.csv"
        self.config = self.work / "plant.json"
        self.days = inputs.write_scenarios(self.csv, wl.season, wl.days, self.seed)
        self.plant = inputs.write_config(self.config, wl.season)
        self.policies = []
        for p in range(wl.policies):
            path = self.work / f"policy{p}.json"
            doc = inputs.write_policy(path, self.plant, self.days, seed=1000 * self.seed + p)
            self.policies.append((path, doc))

    def set_up(self) -> None:
        """What a user of the library pays before the first command: import,
        scenario load, config and evaluator construction."""
        sys.path.insert(0, str(ROOT / "src"))
        from chpdispatch import batch, cli
        from chpdispatch.data import load_scenarios
        from chpdispatch.grid_model import load_config
        from chpdispatch.policy import InputNormalization

        self.cli, self.batch = cli, batch
        scenarios = load_scenarios(self.csv)
        config = load_config(self.config)
        batch.BatchEvaluator(scenarios, config, InputNormalization.from_scenarios(scenarios))
        self.scenario_count = len(scenarios)

    # -- one round -----------------------------------------------------------

    def command(self, r: int, argv: list[str]) -> speed.Reading | None:
        """Run one CLI command in-process in round ``r``; its raw and
        reference seconds, or None if it failed."""
        self.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        start = METER.read()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(argv)
        except Exception as exc:  # a crash counts as a failed operation
            code, err = 1, io.StringIO(repr(exc))
        elapsed = METER.read() - start
        if code != 0:
            self.failures.append((r, f"{argv[0]} exited {code}: {err.getvalue().strip()}"))
            return None
        return elapsed

    def round(self, r: int) -> dict:
        wl, d = self.wl, self.work / f"round{r}"
        scen = ["--scenarios", str(self.csv)]
        timings: dict = {"evaluate": [], "tvsa": []}
        self.counter.calls = 0
        timings["train"] = self.command(
            r,
            ["train", *scen, "--config", str(self.config), "--seed", str(self.seed),
             "--nfe", str(wl.nfe), "--population", str(wl.population),
             "--epsilons", ",".join(map(str, EPSILONS)), "--out", str(d / "train" / "archive")]
        )  # fmt: skip
        timings["train_evaluations"] = self.counter.calls
        archive = d / "train" / "archive.csv"
        if wl.policies:
            sources = [["--policy", str(p), "--config", str(self.config)] for p, _ in self.policies]
        else:
            rows = ARCHIVE_ROWS
            if archive.exists():
                rows = min(ARCHIVE_ROWS, len(checks.read_archive(archive)))
            sources = [["--archive", str(archive), "--row", str(i)] for i in range(rows)]
        for p, source in enumerate(sources):
            timings["evaluate"].append(
                self.command(r, ["evaluate", *scen, *source, "--out", str(d / f"evaluate{p}")])
            )
            modes = [
                self.command(
                    r,
                    ["tvsa", *scen, *source, "--gradient-at", mode,
                     "--out", str(d / f"tvsa{p}-{mode}")]
                )  # fmt: skip
                for mode in ("mean", "per-scenario")
            ]
            timings["tvsa"].append(None if None in modes else modes[0] + modes[1])
        return timings

    # -- checks ------------------------------------------------------------

    @staticmethod
    def digests(directory: Path) -> dict[str, str]:
        """SHA-256 of every data output; manifests hold a wall-clock field."""
        return {
            str(p.relative_to(directory)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.rglob("*"))
            if p.is_file() and not p.name.endswith("manifest.json")
        }

    def check_round(self, r: int, timings: dict) -> list[dict]:
        """Full checks of one round's outputs; returns the archive members."""
        d = self.work / f"round{r}"
        oracle = checks.load_oracle(ROOT)
        if timings["train_evaluations"] != self.wl.nfe:
            raise checks.CheckError(
                f"train made {timings['train_evaluations']} evaluations, budget {self.wl.nfe}"
            )
        members = checks.check_archive(
            d / "train" / "archive.csv", self.days, self.plant, EPSILONS, oracle
        )
        labels = checks.decision_labels(self.plant)
        if self.wl.policies:
            targets = [(doc, None) for _, doc in self.policies]
        else:
            norm = json.loads((d / "train" / "archive.json").read_text())["normalization"]
            targets = [
                ({"weights": m["genome"], "normalization": norm}, m)
                for m in members[:ARCHIVE_ROWS]
            ]
        for p, (doc, expected) in enumerate(targets):
            norm = doc["normalization"]
            checks.check_evaluation(
                d / f"evaluate{p}", self.days, self.plant, doc["weights"],
                norm["offsets"], norm["scales"], oracle, expected,
            )  # fmt: skip
            for mode in ("mean", "per-scenario"):
                checks.check_tvsa(d / f"tvsa{p}-{mode}", labels)
        return members

    # -- per-layer figures ---------------------------------------------------

    def layer_metrics(self, tracer: tracing.Tracer, factor: float) -> dict:
        """One round's per-layer figures.  Seconds are rescaled by the
        round's ratio of reference to raw seconds."""

        def seconds(name: str, field: str, command: str | None = None) -> float:
            return getattr(tracer.stat(name, command), field) * factor

        m: dict[str, float] = {}
        for command in ("train", "evaluate", "tvsa"):
            m[f"cli.{command}.self_s"] = seconds(f"cli.{command}", "self_time")
        for name in COUNTED_SPANS:
            m[f"{name}.calls"] = tracer.stat(name).calls
            m[f"{name}.s"] = seconds(name, "total")
        # The optimizer's evaluator: calls made under ``train`` only, so the
        # count equals the budget (``evaluate`` makes one more per policy).
        calls = tracer.stat("batch.call", "cli.train").calls
        m["batch.call.calls"] = calls
        m["batch.call.s"] = seconds("batch.call", "total", "cli.train")
        m["batch.decisions.s"] = seconds("batch.decisions", "total", "cli.train")
        m["batch.dispatch.self_s"] = seconds("batch.call", "self_time", "cli.train")
        m["batch.call.us_per_scenario_day"] = (
            1e6 * m["batch.call.s"] / max(calls * self.scenario_count, 1)
        )
        m["moea.run.self_s"] = seconds("moea.run", "self_time")
        m["moea.eps_dominates.calls"] = tracer.stat("moea.eps_dominates").calls
        for name in TIMED_SPANS:
            m[f"{name}.s"] = seconds(name, "total")
        return m

    # -- the run ---------------------------------------------------------------

    def run(self, seconds: float) -> dict:
        t = METER.read()
        self.make_inputs()
        t_inputs = METER.read()
        self.set_up()
        t_setup = METER.read()
        setup_s = STARTUP_S + t.ref + (t_setup - t_inputs).ref

        self.counter = tracing.CallCounter(self.batch.BatchEvaluator, "__call__")
        tracer = tracing.Tracer() if self.trace else None
        if tracer:
            tracer.install()
        rounds, layers = [], []
        kept, first = None, None  # the first round without a failed command
        begin = METER.read()
        while True:
            r = len(rounds)
            d = self.work / f"round{r}"
            if tracer:
                tracer.reset()
                tracer.keep_spans = r == 0
            before = METER.read()
            rounds.append(self.round(r))
            spent = METER.read() - before
            if tracer:
                layers.append(self.layer_metrics(tracer, spent.ref / spent.raw))
            if any(fr == r for fr, _ in self.failures):
                shutil.rmtree(d, ignore_errors=True)
            elif kept is None:
                kept, first = r, self.digests(d)
            else:
                if self.digests(d) != first:
                    self.errors.append(f"round {r} wrote other bytes than round {kept}")
                shutil.rmtree(d)
            if (METER.read() - begin).raw >= seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer:
            tracer.uninstall()
        self.counter.uninstall()

        members: list[dict] = []
        hv = 0.0
        if kept is None:
            self.errors.append("every round had a failed command, so no output was checked")
        else:
            try:
                members = self.check_round(kept, rounds[kept])
                feasible = [m["objectives"] for m in members if m["violation"] == 0.0]
                hv = hypervolume(feasible, REFERENCE)
                if hv <= 0.0:
                    self.errors.append("hypervolume of the feasible archive is 0")
            except (checks.CheckError, OSError, KeyError, ValueError) as exc:
                self.errors.append(f"check of round {kept} failed: {exc}")

        def median_seconds(command: str, clock: str = "ref") -> float:
            """Median over rounds and policies of one command."""
            values = [
                getattr(v, clock)
                for r in rounds
                for v in (r[command] if command != "train" else [r[command]])
                if v is not None
            ]
            return statistics.median(values) if values else float("nan")

        if tracer:
            metrics = {
                k: (statistics.median_low if isinstance(v, int) else statistics.median)(
                    layer[k] for layer in layers
                )
                for k, v in layers[0].items()
            }
            metrics["moea.archive_size"] = len(members)
            self.write_spans(tracer)
        else:
            metrics = {
                "setup_s": setup_s,
                "train_nfe_per_s": self.wl.nfe / median_seconds("train"),
                "hypervolume": hv,
                "evaluate_s": median_seconds("evaluate"),
                "tvsa_s": median_seconds("tvsa"),
                "peak_rss_mb": peak_rss_mb,
            }
        detail = {
            "workload": self.name,
            "seed": self.seed,
            "trace": self.trace,
            "clocks": list(speed.Reading._fields),
            "rounds": rounds,
            "raw_wall_s": {c: median_seconds(c, "raw") for c in ("train", "evaluate", "tvsa")},
            "raw_cpu_s": {c: median_seconds(c, "cpu") for c in ("train", "evaluate", "tvsa")},
            "ref_s": {c: median_seconds(c) for c in ("train", "evaluate", "tvsa")},
            "per_round_layers": layers,
            "probes": METER.probes,
            "archive_size": len(members),
            "failures": self.failures,
            "errors": self.errors,
            "metrics": metrics,
        }
        kind = "trace" if self.trace else "result"
        (OUT / f"{kind}-{self.name}-seed{self.seed}.json").write_text(
            json.dumps(detail, indent=1) + "\n"
        )
        return metrics

    def write_spans(self, tracer: tracing.Tracer) -> None:
        doc = {
            "round": 0,
            "fields": ["id", "parent", "command", "name", "start_s", "end_s"],
            "spans": tracer.spans,
        }
        (OUT / f"spans-{self.name}-seed{self.seed}.json").write_text(json.dumps(doc) + "\n")


UNITS = {
    "setup_s": "s",
    "train_nfe_per_s": "evaluations/s",
    "hypervolume": "USD.t.h/day3",
    "evaluate_s": "s/policy",
    "tvsa_s": "s/policy",
    "peak_rss_mb": "MiB",
}


def layer_unit(name: str) -> str:
    if name.endswith(".calls") or name == "moea.archive_size":
        return "count"
    if name.endswith("us_per_scenario_day"):
        return "us"
    return "s"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bench = Bench(args.workload, args.seed, bool(args.trace))
    try:
        metrics = bench.run(args.seconds)
    finally:
        METER.stop()
        shutil.rmtree(bench.work, ignore_errors=True)
    for r, message in bench.failures:
        print(f"perfbench: round {r}: {message}", file=sys.stderr)
    for message in bench.errors:
        print(f"perfbench: {message}", file=sys.stderr)
    result = {
        "correct": not bench.errors,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": {
            name: {"value": value, "unit": UNITS.get(name) or layer_unit(name)}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
