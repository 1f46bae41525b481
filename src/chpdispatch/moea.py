"""Steady-state multi-objective evolutionary optimizer.

The search maintains a working population plus an epsilon-box archive of
non-dominated solutions.  Of two solutions the lower constraint violation
wins, and equal violations compare objective boxes floor(objective /
epsilon); feasible solutions have zero violation, so any feasible solution
beats any infeasible one.  Two solutions in the same box contest it by
Euclidean distance to the box's lower corner (in epsilon-normalized space),
with ties kept by the incumbent.

The rule is stated over arrays.  A solution's key is its violation
followed by its float64 box; :func:`_dominance` compares one key with a
(1 + m, n) matrix of keys in a few array operations, and
:func:`eps_dominates` is its one-row case.  The population and the archive
each hold their members' keys as the columns of one matrix, in member
order, and update one column per replacement or insert.  These matrices
are the only place a key lives: a solution carries no epsilon state, and
tournaments compare two columns of the population's matrix by
:func:`_pair_score`, the rule's scalar form, which a test pins to it.

Each offspring comes from one of six real-coded operators chosen with
probability proportional to (archive members produced by that operator + 1),
so operators that fill the archive get used more, while every operator
keeps nonzero probability.  Its parents are picked by binary tournaments
(``TOURNAMENT_SIZE``).  When no insertion has claimed a previously empty
box for a full window of evaluations, the search restarts: the population
is rebuilt from the archive plus uniformly mutated archive copies and
resized to max(archive size / ``INJECTION_RATIO``, the configured
population size).  Both constants are the Borg MOEA's (Hadka & Reed 2013,
"Borg: an auto-adaptive many-objective evolutionary computing framework",
Evolutionary Computation 21(2)): a tournament of 2 % of its 100-member
population, and a population-to-archive ratio of 4 after a restart.

The search is an ask/tell object, :class:`Search`, with evaluation kept
outside it: ``ask`` returns the next genome and its operator tag, and
``tell`` takes that genome's (objectives, violation).  ``tell`` is the one
place a result becomes a solution and enters the archive, and one rule
builds every population, the initial one from an empty archive and each
restart's from the archive's members.  :func:`run` is the loop of ``ask``,
the evaluator and ``tell`` until the budget is spent.  A search draws from
a single seeded generator and evaluation draws nothing, so with a pure
evaluator a (config, seed) pair always reproduces its archive exactly.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate
from operator import gt, lt
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np

from .variation import OPERATOR_ARITY, OPERATOR_NAMES, um, vary

TOURNAMENT_SIZE = 2
INJECTION_RATIO = 0.25


class Dominance(Enum):
    A_DOMINATES = "a"
    B_DOMINATES = "b"
    SAME_BOX = "same_box"
    NEITHER = "neither"


def validate_epsilons(epsilons: Sequence[float]) -> tuple[float, ...]:
    """The epsilon vector as floats; rejects an empty vector and any entry
    that is not finite and strictly positive, naming it."""
    eps = tuple(float(e) for e in epsilons)
    if len(eps) == 0:
        raise ValueError("epsilons must not be empty")
    for i, e in enumerate(eps):
        if not (math.isfinite(e) and e > 0.0):
            raise ValueError(f"epsilons[{i}] must be finite and > 0, got {e}")
    return eps


@dataclass
class Solution:
    genome: np.ndarray
    objectives: np.ndarray
    violation: float
    operator_tag: str

    def __post_init__(self) -> None:
        if not (math.isfinite(self.violation) and self.violation >= 0.0):
            raise ValueError(f"violation must be finite and >= 0, got {self.violation}")
        if not all(map(math.isfinite, self.objectives.tolist())):
            raise ValueError("objectives must be finite")

    @property
    def feasible(self) -> bool:
        return self.violation == 0.0


def box_index(objectives: Sequence[float], epsilons: Sequence[float]) -> tuple[int, ...]:
    """Epsilon-box coordinates floor(objective / epsilon), per dimension."""
    if len(objectives) != len(epsilons):
        raise ValueError(f"{len(epsilons)} epsilons for {len(objectives)} objectives")
    return tuple(
        math.floor(float(o) / float(e)) for o, e in zip(objectives, epsilons)
    )


def corner_distance(objectives: Sequence[float], epsilons: Sequence[float]) -> float:
    """Distance to the occupied box's lower corner, in units of epsilon."""
    total = 0.0
    for o, e in zip(objectives, epsilons):
        r = float(o) / float(e)
        frac = r - math.floor(r)
        total += frac * frac
    return math.sqrt(total)


def _key(solution: Solution, epsilons: Sequence[float]) -> np.ndarray:
    """[violation, *box_index(objectives)] as float64, what
    :func:`_dominance` compares.  Float64 holds each box exactly, since it
    is the floor of a float64 quotient (an int64 box would overflow above
    9.2e18)."""
    return np.array(
        (solution.violation, *box_index(solution.objectives.tolist(), epsilons)), dtype=float
    )


def _dominance(key: np.ndarray, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Constrained epsilon-box domination of one solution's key against
    others': the lower violation wins, and equal violations compare boxes.

    ``key`` and ``keys`` are two (1 + m,) keys, or a (1 + m, 1) column
    and a (1 + m, n) matrix with one key per column.  Returns (best,
    worst), the max and min over each column of sign(other - solution),
    with the violation's sign counted double so that it outranks every box
    coordinate.  Then per column: best + worst > 0 where the solution
    dominates, < 0 where the other dominates, and best == worst (both 0)
    where the two share a box and a violation."""
    signs = np.sign(keys - key)
    signs[0] *= 2.0
    return np.maximum.reduce(signs), np.minimum.reduce(signs)


def eps_dominates(a: Solution, b: Solution, epsilons: Sequence[float]) -> Dominance:
    """:func:`_dominance` of one pair."""
    best, worst = _dominance(_key(a, epsilons), _key(b, epsilons))
    score = best + worst
    if score > 0.0:
        return Dominance.A_DOMINATES
    if score < 0.0:
        return Dominance.B_DOMINATES
    return Dominance.SAME_BOX if best == worst else Dominance.NEITHER


def _pair_score(a: list[float], b: list[float]) -> int:
    """The sign of :func:`_dominance`'s best + worst for two keys as lists
    of floats: the lower violation wins outright, and equal violations
    score (any coordinate of ``a`` lower) - (any coordinate higher)."""
    if a[0] != b[0]:
        return 1 if a[0] < b[0] else -1
    return any(map(lt, a, b)) - any(map(gt, a, b))


class EpsilonArchive:
    """Bounded-diversity archive: at most one solution per epsilon box.

    Members are kept in insertion order, with their keys as the columns of
    one matrix and a count of members per operator tag.  ``insert``
    reports (accepted, eps_progress); progress means the candidate claimed
    a previously empty box, the stagnation signal the optimizer's restart
    trigger watches.

    An archive may start from ``members`` kept in their given order, such
    as an archive file's rows.  They must be mutually non-dominated and in
    distinct boxes, or a ValueError names the first two rows that are not.
    """

    def __init__(self, epsilons: Sequence[float], members: Sequence[Solution] = ()):
        self._eps = validate_epsilons(epsilons)
        self._members = list(members)
        self._keys = np.empty((1 + len(self._eps), len(members)))
        for i, m in enumerate(members):
            self._keys[:, i] = _key(m, self._eps)
        # Each row against the rows after it, so memory stays linear in n.
        for i in range(len(members) - 1):
            best, worst = _dominance(self._keys[:, i : i + 1], self._keys[:, i + 1 :])
            clash = np.flatnonzero((best + worst != 0.0) | (best == worst))
            if len(clash):
                raise ValueError(
                    f"rows {i} and {i + 1 + clash[0]} share an epsilon box"
                    " or one dominates the other"
                )
        self._counts: dict[str, int] = Counter(m.operator_tag for m in members)
        self._cdf: list[float] | None = None

    @property
    def epsilons(self) -> tuple[float, ...]:
        return self._eps

    @property
    def members(self) -> list[Solution]:
        return list(self._members)

    def __len__(self) -> int:
        return len(self._members)

    def __iter__(self) -> Iterator[Solution]:
        return iter(self._members)

    def operator_counts(self) -> dict[str, int]:
        return dict(self._counts)

    def operator_cdf(self) -> list[float]:
        """:func:`operator_cdf` of the counts, rebuilt after they change."""
        if self._cdf is None:
            self._cdf = operator_cdf(self._counts)
        return self._cdf

    def insert(self, candidate: Solution, key: np.ndarray | None = None) -> tuple[bool, bool]:
        """Offer a candidate; ``key`` is its key under this archive's
        epsilons, for a caller that has built it already."""
        eps = self._eps
        if key is None:
            key = _key(candidate, eps)
        key = key[:, None]
        best, worst = _dominance(key, self._keys)
        score = best + worst
        if np.count_nonzero(score < 0.0):
            return False, False
        same_box = (self._keys[1:] == key[1:]).all(axis=0)
        rival = np.flatnonzero(best == worst)
        # Keep whichever sits nearer the box's lower corner, the incumbent
        # on an exact tie.
        if len(rival) and corner_distance(candidate.objectives, eps) >= corner_distance(
            self._members[rival[0]].objectives, eps
        ):
            return False, False
        removed = (score > 0.0) | same_box
        if removed.any():
            for i in np.flatnonzero(removed):
                tag = self._members[i].operator_tag
                self._counts[tag] -= 1
                if self._counts[tag] == 0:
                    del self._counts[tag]
            keep = ~removed
            self._members = [m for m, k in zip(self._members, keep) if k]
            self._keys = self._keys[:, keep]
        self._members.append(candidate)
        self._keys = np.concatenate((self._keys, key), axis=1)
        tag = candidate.operator_tag
        self._counts[tag] = self._counts.get(tag, 0) + 1
        self._cdf = None
        return True, not same_box.any()


def merge_archives(archives: Sequence[EpsilonArchive]) -> EpsilonArchive:
    """Joint non-dominated frontier of several runs; idempotent, and every
    archive must use the same epsilon vector."""
    if len(archives) == 0:
        raise ValueError("need at least one archive to merge")
    eps = archives[0].epsilons
    for other in archives[1:]:
        if other.epsilons != eps:
            raise ValueError(
                f"epsilon vectors differ: {eps} vs {other.epsilons}"
            )
    merged = EpsilonArchive(eps)
    for archive in archives:
        for member in archive:
            merged.insert(member)
    return merged


def operator_cdf(counts: dict[str, int]) -> list[float]:
    """Operator probabilities proportional to archive count plus one (so an
    empty archive gives uniform 1/6), cumulated and renormalized in the
    float64 steps of ``Generator.choice``, on Python floats."""
    weights = [float(counts.get(name, 0) + 1) for name in OPERATOR_NAMES]
    total = sum(weights)  # whole numbers, so exact in any order
    cdf = list(accumulate(w / total for w in weights))
    return [c / cdf[-1] for c in cdf]


def select_operator(rng: np.random.Generator, archive: EpsilonArchive) -> str:
    """``rng.choice`` over the archive's :func:`operator_cdf`, without its
    argument checks; a test pins the two to the same draws."""
    return OPERATOR_NAMES[bisect_right(archive.operator_cdf(), rng.random())]


@dataclass(frozen=True)
class MoeaConfig:
    """Run settings.  Only the epsilon vector, evaluation budget and seed
    count come from the study design; everything else is a documented
    default of this implementation.  The search's fixed settings are
    constants: ``TOURNAMENT_SIZE`` (2) and ``INJECTION_RATIO`` (0.25) here,
    and the operators' in :mod:`chpdispatch.variation`, all from Hadka &
    Reed 2013.

    ``restart_window`` of None means the current population size; restarts
    resize the population to max(|archive| / INJECTION_RATIO,
    population_size).
    """

    genome_length: int
    epsilons: tuple[float, ...]
    max_nfe: int
    population_size: int = 100
    bound: float = 10.0
    restart_window: int | None = None

    def __post_init__(self) -> None:
        if self.genome_length < 1:
            raise ValueError("genome_length must be >= 1")
        validate_epsilons(self.epsilons)
        if self.max_nfe < self.population_size:
            raise ValueError("max_nfe must be at least the population size")
        if self.population_size < 2:
            raise ValueError("population_size must be >= 2")
        if not (math.isfinite(self.bound) and self.bound > 0.0):
            raise ValueError(f"bound must be finite and > 0, got {self.bound}")
        if self.restart_window is not None and self.restart_window < 1:
            raise ValueError(f"restart_window must be >= 1, got {self.restart_window}")


Evaluator = Callable[[np.ndarray], tuple[Sequence[float], float]]


class _Population:
    """The working population: its solutions, with their keys as the
    columns of one matrix."""

    def __init__(self, members: list[Solution], epsilons: tuple[float, ...]):
        self.members = members
        self.keys = np.stack([_key(m, epsilons) for m in members], axis=1)


def _tournament(rng: np.random.Generator, population: _Population, size: int) -> Solution:
    """The member left after ``size`` draws: a challenger replaces the
    incumbent if it dominates it, keeps out if the incumbent dominates it,
    and otherwise wins on a fair coin."""
    keys = population.keys.T
    winner = int(rng.integers(len(population.members)))
    for _ in range(size - 1):
        challenger = int(rng.integers(len(population.members)))
        score = _pair_score(keys[challenger].tolist(), keys[winner].tolist())
        if score > 0 or (score == 0 and rng.random() < 0.5):
            winner = challenger
    return population.members[winner]


def _replace_in_population(
    rng: np.random.Generator,
    population: _Population,
    child: Solution,
    key: np.ndarray,
) -> int:
    """Put the child, whose key is ``key``, in place of a random member it
    dominates, or of a random member when it dominates none; returns the
    member's index."""
    best, worst = _dominance(key[:, None], population.keys)
    dominated = (best + worst > 0.0).nonzero()[0]
    if len(dominated):
        index = int(dominated[rng.integers(len(dominated))])
    else:
        index = int(rng.integers(len(population.members)))
    population.members[index] = child
    population.keys[:, index] = key
    return index


class Search:
    """One seeded search, driven by ``ask`` and ``tell``.

    ``ask`` returns the next genome to evaluate with its operator tag, and
    ``tell`` takes that genome's (objectives, violation): it builds the
    solution and inserts it in the archive, the one place a result enters
    the search.

    A population is built by one rule, first from the empty archive and
    then at each restart: the list starts as the archive's members, and
    ``ask`` draws, without looking at any result, ``um`` copies of random
    members of that start (uniform genomes when it is empty) until the list
    holds max(start size / INJECTION_RATIO, population size) members.  The
    list then becomes the population; each child comes from the chosen
    operator's tournaments and variation and replaces a population member.
    """

    def __init__(self, config: MoeaConfig, seed: int):
        self.config = config
        self.rng = np.random.default_rng(seed)
        self.archive = EpsilonArchive(config.epsilons)
        self.nfe = 0
        self._asked: tuple[np.ndarray, str] | None = None
        self._restart()

    def _restart(self) -> None:
        # The population, or while ``_population`` is a list, the members
        # being built into one; its first ``_bases`` are the archive's.
        self._population: _Population | list[Solution] = self.archive.members
        self._bases = len(self._population)
        self._target = max(
            math.ceil(self._bases / INJECTION_RATIO),
            self.config.population_size,
        )
        self._stall = 0

    def ask(self) -> tuple[np.ndarray, str]:
        """The next genome to evaluate, and its operator tag.  The genome
        asked before must have been told first."""
        if self._asked is not None:
            raise RuntimeError("ask with an ask pending")
        config, rng, population = self.config, self.rng, self._population
        if not isinstance(population, list):
            tag = select_operator(rng, self.archive)
            parents = [
                _tournament(rng, population, TOURNAMENT_SIZE).genome
                for _ in range(OPERATOR_ARITY[tag])
            ]
            genome = vary(rng, tag, parents, config.bound)
        elif self._bases:
            tag = "um"
            base = population[int(rng.integers(self._bases))]
            genome = um(rng, base.genome, config.bound)
        else:
            tag = "init"
            genome = rng.uniform(-config.bound, config.bound, config.genome_length)
        self._asked = genome, tag
        return genome, tag

    def tell(self, objectives: Sequence[float], violation: float) -> None:
        """Take the result of the genome last asked.  Each ``ask`` takes one
        ``tell``; a result that is rejected leaves the ask pending."""
        if self._asked is None:
            raise RuntimeError("tell without a pending ask")
        config = self.config
        genome, tag = self._asked
        child = Solution(genome, np.asarray(objectives, dtype=float), float(violation), tag)
        key = _key(child, config.epsilons)
        self._asked = None
        _, progress = self.archive.insert(child, key)
        self.nfe += 1
        if isinstance(self._population, list):
            self._population.append(child)
        else:
            _replace_in_population(self.rng, self._population, child, key)
            self._stall = 0 if progress else self._stall + 1
            window = config.restart_window if config.restart_window is not None else self._target
            if self._stall >= window and self.nfe < config.max_nfe:
                self._restart()  # drops the old population before the injections arrive
        if isinstance(self._population, list) and len(self._population) >= self._target:
            self._population = _Population(self._population, config.epsilons)


def run(config: MoeaConfig, evaluator: Evaluator, seed: int) -> EpsilonArchive:
    """Optimize until the evaluation budget is spent and return the archive.

    The evaluator must be a pure function of the genome returning
    (objectives, violation); given that, runs replay bit-identically for a
    fixed seed.
    """
    search = Search(config, seed)
    while search.nfe < config.max_nfe:
        genome, _ = search.ask()
        search.tell(*evaluator(genome))
    return search.archive


def write_archive_csv(
    archive: EpsilonArchive,
    path: str | Path,
    objective_names: Sequence[str] = ("cost", "emission", "heat_waste"),
) -> str:
    """One row per solution: objectives, violation, producing operator,
    then the genome, all floats at full round-trip precision.  The file is
    written in one write; returns the sha256 of the bytes written."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    members = archive.members
    genome_length = len(members[0].genome) if members else 0
    writer.writerow(
        [*objective_names, "violation", "operator"] + [f"w{i}" for i in range(genome_length)]
    )
    for sol in members:
        writer.writerow(
            [repr(float(o)) for o in sol.objectives]
            + [repr(sol.violation), sol.operator_tag]
            + [repr(float(w)) for w in sol.genome]
        )
    data = buffer.getvalue().encode()
    Path(path).write_bytes(data)
    return hashlib.sha256(data).hexdigest()


def read_archive_csv(path: str | Path, epsilons: Sequence[float]) -> EpsilonArchive:
    """The archive a file holds, its rows as members in file order.  A row
    that does not parse, has another number of weights than the header, or
    holds a non-finite objective is rejected by number, as are rows that an
    archive could not hold together."""
    path = Path(path)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty archive file")
        try:
            violation_col = header.index("violation")
            operator_col = header.index("operator")
        except ValueError as exc:
            raise ValueError(f"{path}: missing archive columns") from exc
        n_objectives = violation_col
        if len(epsilons) != n_objectives:
            raise ValueError(
                f"{path}: {n_objectives} objectives but {len(epsilons)} epsilons"
            )
        genome_length = len(header) - operator_col - 1
        members = []
        for i, row in enumerate(reader):
            try:
                if len(row) != len(header):
                    weights = len(row) - operator_col - 1
                    if weights < 0:
                        raise ValueError(f"{len(row)} fields, but the header has {len(header)}")
                    raise ValueError(f"{weights} weights, but the header has {genome_length}")
                members.append(
                    Solution(
                        genome=np.array([float(x) for x in row[operator_col + 1 :]]),
                        objectives=np.array([float(x) for x in row[:n_objectives]]),
                        violation=float(row[violation_col]),
                        operator_tag=row[operator_col],
                    )
                )
            except ValueError as exc:
                raise ValueError(f"{path}: row {i}: {exc}") from exc
    try:
        return EpsilonArchive(epsilons, members)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
