"""Print one SHA-256 per output of a fixed set of seeded CLI runs.

    python3 tools/byte_identity.py > digests.txt

The script builds seeded synthetic scenario files, a plant config and
policy artifacts, then runs ``train`` (single- and multi-seed, on 7 winter,
7 summer and 180 winter days), ``merge``, ``report`` (with and without a
reference point), ``evaluate`` and both ``tvsa`` modes, all in this process
with the package of the checkout the script lives in.  It prints
``<sha256>  <path>`` for every data output, sorted by path.  Manifests are
left out: they hold a wall-clock field and absolute paths.  Instead, every
manifest's ``output_digests`` must equal the sha256 of the files on disk;
the script names each file where they differ and exits 1.

Run it on two checkouts and ``diff`` the outputs to show that a change
keeps every archive, sidecar, objective file, trace, TVSA table and SVG
byte-identical.  ``byte_identity.sha256`` next to this script holds the
listing with numpy 2.4.6, and CI diffs a fresh listing against it:

    python3 tools/byte_identity.py | diff tools/byte_identity.sha256 -

``--work DIR`` keeps the outputs in DIR; by default they go to a temporary
directory that is removed afterwards.
"""

from __future__ import annotations

import os

# One BLAS thread, so that products do not depend on the machine's cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from chpdispatch import cli as chpdispatch  # noqa: E402
from chpdispatch.data import SyntheticSpec, generate_synthetic, write_scenarios  # noqa: E402
from chpdispatch.environment import decision_dim  # noqa: E402
from chpdispatch.grid_model import default_config, save_config  # noqa: E402
from chpdispatch.policy import (  # noqa: E402
    InputNormalization,
    PolicyNetwork,
    save_policy,
    weight_count,
)

#: The numpy ``byte_identity.sha256`` was computed with.
PINNED_NUMPY = "2.4.6"

#: (name, season, days, data seed, train seeds, NFE, most archive rows analyzed)
STUDIES = (
    ("winter7", "winter", 7, 7, (1, 2), 3000, 3),
    ("summer7", "summer", 7, 8, (4,), 3000, 3),
    ("winter180", "winter", 180, 9, (1,), 1000, 1),
)
#: Seeded policy artifacts analyzed on the 7 summer days.
POLICIES = 2


def cli(*argv: str) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = chpdispatch.main(list(argv))
    if code != 0:
        raise SystemExit(f"chpdispatch {' '.join(argv)} exited {code}")


def analyze(work: Path, scenarios: Path, source: list[str], name: str) -> None:
    """``evaluate`` and both ``tvsa`` modes of one policy source."""
    cli("evaluate", "--scenarios", str(scenarios), *source, "--out", str(work / f"eval_{name}"))
    for mode in ("mean", "per-scenario"):
        cli(
            "tvsa", "--scenarios", str(scenarios), *source, "--gradient-at", mode,
            "--out", str(work / f"tvsa_{name}_{mode}"),
        )  # fmt: skip


def run_all(work: Path) -> None:
    for name, season, days, data_seed, seeds, nfe, rows in STUDIES:
        scenarios = work / f"{name}.csv"
        write_scenarios(
            generate_synthetic(SyntheticSpec(seed=data_seed, days=days, season=season)),
            scenarios,
        )
        config = work / f"{name}.plant.json"
        save_config(default_config(season), config)
        out = work / name / "run"
        seed_args = [a for s in seeds for a in ("--seed", str(s))]
        cli(
            "train", "--scenarios", str(scenarios), "--config", str(config), *seed_args,
            "--nfe", str(nfe), "--population", "50", "--out", str(out),
        )  # fmt: skip
        if len(seeds) > 1:
            archive = work / name / "joint.csv"
            runs = [str(out.with_name(f"run_seed{s}.csv")) for s in seeds]
            cli("merge", *runs, "--out", str(archive.with_suffix("")))
        else:
            archive = out.with_suffix(".csv")
        cli("report", "--archive", str(archive), "--out", str(work / f"report_{name}"))
        cli(
            "report", "--archive", str(archive), "--reference", "150000,3000,72",
            "--out", str(work / f"report_{name}_ref"),
        )  # fmt: skip
        members = len(archive.read_text().splitlines()) - 1
        for row in range(min(rows, members)):
            analyze(work, scenarios, ["--archive", str(archive), "--row", str(row)],
                    f"{name}_row{row}")  # fmt: skip

    scenarios = work / "summer7.csv"
    config = default_config("summer")
    ensemble = generate_synthetic(SyntheticSpec(seed=8, days=7, season="summer"))
    norm = InputNormalization.from_scenarios(ensemble)
    k = decision_dim(config)
    for p in range(POLICIES):
        rng = np.random.default_rng(100 + p)
        weights = rng.uniform(-2.0, 2.0, weight_count(6, 15, k))
        artifact = work / f"policy{p}.json"
        save_policy(PolicyNetwork(6, 15, k, weights, norm), artifact)
        source = ["--policy", str(artifact), "--config", str(work / "summer7.plant.json")]
        analyze(work, scenarios, source, f"policy{p}")


def manifest_mismatches(work: Path) -> list[str]:
    """Each output a manifest lists whose file is missing or has other
    bytes than its recorded sha256."""
    found = []
    for manifest in sorted(work.rglob("*manifest.json")):
        for name, digest in json.loads(manifest.read_text())["output_digests"].items():
            path = Path(name)
            if not path.is_file():
                found.append(f"{manifest}: {name} is missing")
            elif hashlib.sha256(path.read_bytes()).hexdigest() != digest:
                found.append(f"{manifest}: {name} does not match its output digest")
    return found


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--work", default=None, help="keep the outputs in this directory")
    args = parser.parse_args()
    if np.__version__ != PINNED_NUMPY:
        print(
            f"note: numpy {np.__version__}, but byte_identity.sha256 was computed"
            f" with numpy {PINNED_NUMPY}; digests may differ for that reason alone",
            file=sys.stderr,
        )
    with contextlib.ExitStack() as stack:
        if args.work is None:
            work = Path(stack.enter_context(tempfile.TemporaryDirectory()))
        else:
            work = Path(args.work)
            work.mkdir(parents=True, exist_ok=True)
        # Paths relative to the work directory, so that the listing reads
        # the same wherever the outputs go.
        stack.enter_context(contextlib.chdir(work))
        run_all(Path())
        for path in sorted(Path().rglob("*")):
            if path.is_file() and not path.name.endswith("manifest.json"):
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                print(f"{digest}  {path}")
        mismatches = manifest_mismatches(Path())
    for message in mismatches:
        print(f"byte_identity: {message}", file=sys.stderr)
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
