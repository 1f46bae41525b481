"""Epsilon-archive, domination, operator selection, and search-loop tests."""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chpdispatch import moea
from chpdispatch.batch import BatchEvaluator
from chpdispatch.data import SyntheticSpec, generate_synthetic
from chpdispatch.grid_model import default_config
from chpdispatch.moea import (
    Dominance,
    EpsilonArchive,
    MoeaConfig,
    Solution,
    box_index,
    corner_distance,
    eps_dominates,
    merge_archives,
    read_archive_csv,
    run,
    select_operator,
    write_archive_csv,
)
from chpdispatch.policy import InputNormalization
from chpdispatch.variation import OPERATOR_NAMES
from chpdispatch.variation import um as moea_um

EPS3 = (10.0, 1.0, 0.01)


def sol(objectives, violation=0.0, tag="init", genome=None):
    if genome is None:
        genome = np.zeros(3)
    return Solution(
        genome=np.asarray(genome, dtype=float),
        objectives=np.asarray(objectives, dtype=float),
        violation=violation,
        operator_tag=tag,
    )


class TestEpsDominates:
    def test_box_comparison_example(self):
        a = sol([100.0, 10.0, 0.10])
        b = sol([115.0, 11.0, 0.12])
        assert box_index(a.objectives, EPS3) == (10, 10, 10)
        assert box_index(b.objectives, EPS3) == (11, 11, 12)
        assert eps_dominates(a, b, EPS3) is Dominance.A_DOMINATES
        assert eps_dominates(b, a, EPS3) is Dominance.B_DOMINATES

    def test_self_comparison_is_same_box(self):
        a = sol([100.0, 10.0, 0.10])
        assert eps_dominates(a, a, EPS3) is Dominance.SAME_BOX

    def test_feasible_beats_infeasible_regardless_of_objectives(self):
        good = sol([1e9, 1e9, 1e9], violation=0.0)
        bad = sol([0.0, 0.0, 0.0], violation=0.1)
        assert eps_dominates(good, bad, EPS3) is Dominance.A_DOMINATES
        assert eps_dominates(bad, good, EPS3) is Dominance.B_DOMINATES

    def test_infeasible_compare_by_violation(self):
        worse = sol([0.0, 0.0, 0.0], violation=0.5)
        better = sol([1e9, 1e9, 1e9], violation=0.2)
        assert eps_dominates(better, worse, EPS3) is Dominance.A_DOMINATES

    def test_equal_violation_falls_through_to_boxes(self):
        a = sol([5.0, 0.5, 0.005], violation=0.25)
        b = sol([25.0, 1.5, 0.025], violation=0.25)
        assert eps_dominates(a, b, EPS3) is Dominance.A_DOMINATES

    def test_incomparable_boxes(self):
        a = sol([0.0, 5.0, 0.0])
        b = sol([50.0, 0.0, 0.0])
        assert eps_dominates(a, b, EPS3) is Dominance.NEITHER

    def test_negative_objectives_box_correctly(self):
        a = sol([-25.0, 0.0, 0.0])
        assert box_index(a.objectives, EPS3)[0] == -3

    def test_box_overflow_raises(self):
        # an infinite box would compare as NaN; it must stop the run instead
        with pytest.raises(OverflowError):
            box_index([1e300, 1.0, 1.0], (1e-300, 1.0, 1.0))
        with pytest.raises(OverflowError):
            EpsilonArchive((1e-300, 1.0, 1.0)).insert(sol([1e300, 1.0, 1.0]))

    def test_epsilon_count_must_match_objectives(self):
        with pytest.raises(ValueError, match="1 epsilons for 3 objectives"):
            box_index([100.0, 10.0, 0.1], (10.0,))
        with pytest.raises(ValueError):
            eps_dominates(sol([100.0, 10.0, 0.1]), sol([90.0, 11.0, 0.1]), (10.0, 1.0))

    @pytest.mark.parametrize("violation", [float("nan"), float("inf"), -0.1])
    def test_solution_rejects_bad_violation(self, violation):
        with pytest.raises(ValueError, match="violation"):
            sol([1.0, 1.0, 1.0], violation=violation)

    def test_corner_distance(self):
        assert corner_distance([5.0, 0.5, 0.005], EPS3) == pytest.approx(
            np.sqrt(3 * 0.25), abs=1e-12
        )


class TestArchiveInsert:
    def test_first_insert_makes_progress(self):
        archive = EpsilonArchive(EPS3)
        accepted, progress = archive.insert(sol([100.0, 10.0, 0.1]))
        assert accepted and progress and len(archive) == 1

    def test_reinsert_identical_rejected(self):
        archive = EpsilonArchive(EPS3)
        archive.insert(sol([100.0, 10.0, 0.1]))
        accepted, progress = archive.insert(sol([100.0, 10.0, 0.1]))
        assert not accepted and not progress and len(archive) == 1

    def test_dominating_two_members_shrinks_archive(self):
        eps = (1.0, 1.0, 1.0)
        archive = EpsilonArchive(eps)
        assert archive.insert(sol([2.5, 2.5, 2.5]))[0]
        assert archive.insert(sol([3.5, 1.5, 1.5]))[0]
        assert len(archive) == 2
        accepted, progress = archive.insert(sol([1.5, 1.5, 0.5]))
        assert accepted and progress
        assert len(archive) == 1

    def test_same_box_contest_keeps_corner_nearer(self):
        eps = (1.0, 1.0, 1.0)
        archive = EpsilonArchive(eps)
        far = sol([2.9, 2.9, 2.9], genome=[1, 1, 1])
        near = sol([2.1, 2.1, 2.1], genome=[2, 2, 2])
        archive.insert(far)
        accepted, progress = archive.insert(near)
        assert accepted and not progress
        assert np.array_equal(archive.members[0].genome, near.genome)
        # a farther challenger loses
        assert archive.insert(far)[0] is False

    def test_feasible_insert_clears_infeasible_members(self):
        archive = EpsilonArchive(EPS3)
        archive.insert(sol([0.0, 0.0, 0.0], violation=0.4))
        archive.insert(sol([90.0, 9.0, 0.09], violation=0.2))  # lower violation wins
        assert len(archive) == 1 and archive.members[0].violation == 0.2
        archive.insert(sol([500.0, 50.0, 0.5], violation=0.0))
        assert len(archive) == 1 and archive.members[0].feasible
        accepted, _ = archive.insert(sol([0.0, 0.0, 0.0], violation=0.1))
        assert not accepted

    def test_progress_only_for_new_boxes(self):
        archive = EpsilonArchive(EPS3)
        archive.insert(sol([100.0, 10.0, 0.1]))
        # different box that does not dominate: progress again
        accepted, progress = archive.insert(sol([90.0, 11.0, 0.1]))
        assert accepted and progress
        # replacement inside an occupied box: no progress
        accepted, progress = archive.insert(sol([90.1, 11.1, 0.101]))
        assert not progress

    def test_bad_epsilons_rejected(self):
        with pytest.raises(ValueError):
            EpsilonArchive((1.0, 0.0))

    @pytest.mark.parametrize(
        "epsilons, bad",
        [
            ((1.0, float("nan"), 1.0), r"epsilons\[1\] must be finite and > 0, got nan"),
            ((float("inf"), 1.0, 1.0), r"epsilons\[0\] must be finite and > 0, got inf"),
            ((1.0, 1.0, float("-inf")), r"epsilons\[2\] must be finite and > 0, got -inf"),
            ((1.0, -2.0, 1.0), r"epsilons\[1\] must be finite and > 0, got -2.0"),
            ((), "epsilons must not be empty"),
        ],
    )
    def test_non_finite_and_empty_epsilons_named(self, epsilons, bad):
        with pytest.raises(ValueError, match=bad):
            EpsilonArchive(epsilons)
        with pytest.raises(ValueError, match=bad):
            MoeaConfig(genome_length=4, epsilons=epsilons, max_nfe=100)

    def test_wrong_epsilon_count_rejected_on_insert(self):
        archive = EpsilonArchive((1.0,))
        with pytest.raises(ValueError, match="1 epsilons for 3 objectives"):
            archive.insert(sol([1.0, 2.0, 3.0]))
        archive = EpsilonArchive((1.0, 1.0, 1.0, 1.0))
        with pytest.raises(ValueError, match="4 epsilons for 3 objectives"):
            archive.insert(sol([1.0, 2.0, 3.0]))
        assert len(archive) == 0

    def test_operator_counts_follow_inserts_and_removals(self):
        archive = EpsilonArchive((1.0, 1.0, 1.0))
        rng = np.random.default_rng(3)
        for _ in range(2000):
            tag = OPERATOR_NAMES[int(rng.integers(len(OPERATOR_NAMES)))]
            violation = float(rng.choice([0.0, 0.0, 0.5, 1.0]))
            archive.insert(sol(rng.uniform(0.0, 8.0, 3), violation=violation, tag=tag))
            counts: dict = {}
            for m in archive:
                counts[m.operator_tag] = counts.get(m.operator_tag, 0) + 1
            assert archive.operator_counts() == counts

    def test_box_coverage_only_lost_to_domination(self):
        # An accepted candidate may evict a box only by dominating its
        # occupant (or winning its own box); rejections change nothing.
        eps = (1.0, 1.0, 1.0)
        archive = EpsilonArchive(eps)
        rng = np.random.default_rng(71)
        for _ in range(3000):
            direction = np.abs(rng.standard_normal(3)) + 1e-12
            objectives = rng.uniform(6.0, 9.0) * direction / np.linalg.norm(direction)
            candidate = sol(objectives, violation=0.0)
            before = {
                box_index(m.objectives, eps): m for m in archive.members
            }
            accepted, _ = archive.insert(candidate)
            after = {box_index(m.objectives, eps) for m in archive.members}
            if not accepted:
                assert after == set(before)
                continue
            cand_box = box_index(candidate.objectives, eps)
            for bkey, member in before.items():
                if bkey in after and bkey != cand_box:
                    continue
                outcome = eps_dominates(candidate, member, eps)
                assert outcome in (Dominance.A_DOMINATES, Dominance.SAME_BOX)


def _reference_insert(boxes: dict, candidate: Solution, eps) -> tuple[bool, bool]:
    """The archive's insertion rule written out with its own feasibility
    branches and box comparison, as the archive once held it inline; the
    differential test below checks ``EpsilonArchive.insert`` against it."""
    key = box_index(candidate.objectives, eps)
    occupied_before = key in boxes
    cv = candidate.violation
    to_remove = []
    for bkey, member in boxes.items():
        mv = member.violation
        if cv == 0.0 and mv > 0.0:
            to_remove.append(bkey)
            continue
        if mv == 0.0 and cv > 0.0:
            return False, False
        if cv > 0.0 and mv > 0.0 and cv != mv:
            if cv < mv:
                to_remove.append(bkey)
                continue
            return False, False
        if bkey == key:
            if corner_distance(candidate.objectives, eps) < corner_distance(
                member.objectives, eps
            ):
                to_remove.append(bkey)
                continue
            return False, False
        better = any(c < m for c, m in zip(key, bkey))
        worse = any(c > m for c, m in zip(key, bkey))
        if better and not worse:
            to_remove.append(bkey)
        elif worse and not better:
            return False, False
    for bkey in to_remove:
        del boxes[bkey]
    boxes[key] = candidate
    return True, not occupied_before


class TestInsertMatchesReferenceRule:
    @pytest.mark.parametrize("feasible_share", [0.0, 0.3, 0.7, 1.0])
    def test_every_step_matches(self, feasible_share):
        eps = (1.0, 0.5, 0.25)
        rng = np.random.default_rng(int(feasible_share * 10) + 500)
        archive = EpsilonArchive(eps)
        reference: dict = {}
        seen: list[Solution] = []
        for _ in range(600):
            draw = rng.random()
            if seen and draw < 0.1:
                # exact duplicate of an earlier candidate's objectives
                base = seen[int(rng.integers(len(seen)))]
                objectives = base.objectives.copy()
            elif seen and draw < 0.25:
                # elsewhere in an earlier candidate's box
                base = seen[int(rng.integers(len(seen)))]
                corner = np.floor(base.objectives / eps) * eps
                objectives = corner + rng.uniform(0.0, 1.0, 3) * eps
            else:
                objectives = rng.uniform(-3.0, 3.0, 3) * eps * 4.0
            if rng.random() < feasible_share:
                violation = 0.0
            elif rng.random() < 0.6:
                violation = float(rng.choice([0.25, 0.5, 1.0]))
            else:
                violation = float(rng.uniform(0.0, 2.0))
            candidate = sol(objectives, violation=violation)
            seen.append(candidate)
            assert archive.insert(candidate) == _reference_insert(reference, candidate, eps)
            members = archive.members
            assert len(members) == len(reference)
            assert all(a is b for a, b in zip(members, reference.values()))
        assert any(m.objectives.min() < 0.0 for m in seen)


def _reference_dominates(child: Solution, member: Solution, eps) -> bool:
    """Whether the child epsilon-dominates the member, written out with its
    own violation branch over integer boxes, as the population scan once
    applied the rule member by member."""
    cv, mv = child.violation, member.violation
    if cv != mv:
        return cv < mv
    cbox, mbox = box_index(child.objectives, eps), box_index(member.objectives, eps)
    better = any(c < m for c, m in zip(cbox, mbox))
    worse = any(c > m for c, m in zip(cbox, mbox))
    return better and not worse


class TestReplacementMatchesReferenceRule:
    """Population replacement over the key matrix picks the same dominated
    rows and, from the same generator state, the same replaced index as
    the scalar rule applied member by member."""

    @pytest.mark.parametrize("scale", [1.0, 4e18])
    @pytest.mark.parametrize("feasible_share", [0.0, 0.5, 1.0])
    def test_every_step_matches(self, scale, feasible_share):
        eps = (1.0, 0.5, 0.25)
        rng = np.random.default_rng(int(feasible_share * 10) + (7 if scale > 1.0 else 0))

        def draw(seen):
            pick = rng.random()
            if seen and pick < 0.15:
                # exact duplicate of an earlier solution's objectives
                objectives = seen[int(rng.integers(len(seen)))].objectives.copy()
            elif seen and pick < 0.3:
                # elsewhere in an earlier solution's box
                base = seen[int(rng.integers(len(seen)))]
                objectives = np.floor(base.objectives / eps) * eps
                if scale == 1.0:  # at 4e18 every float is a box corner
                    objectives = objectives + rng.uniform(0.0, 1.0, 3) * eps
            elif pick < 0.45:
                # exactly on a box edge (epsilons are powers of two)
                objectives = rng.integers(-12, 12, 3) * np.asarray(eps) * scale
            else:
                objectives = rng.uniform(-3.0, 3.0, 3) * np.asarray(eps) * 4.0 * scale
            if rng.random() < feasible_share:
                violation = 0.0
            elif rng.random() < 0.6:
                violation = float(rng.choice([0.25, 0.5, 1.0]))
            else:
                violation = float(rng.uniform(0.0, 2.0))
            return sol(objectives, violation=violation)

        seen: list[Solution] = []
        for _ in range(40):
            seen.append(draw(seen))
        population = moea._Population(list(seen), eps)
        reference = list(seen)
        ours, theirs = np.random.default_rng(11), np.random.default_rng(11)
        for _ in range(400):
            child = draw(seen)
            seen.append(child)
            best, worst = moea._dominance(moea._key(child, eps)[:, None], population.keys)
            want = [i for i, m in enumerate(reference) if _reference_dominates(child, m, eps)]
            assert list(np.flatnonzero(best + worst > 0.0)) == want
            index = moea._replace_in_population(
                ours, population, child, moea._key(child, eps)
            )
            if want:
                expected = want[int(theirs.integers(len(want)))]
            else:
                expected = int(theirs.integers(len(reference)))
            reference[expected] = child
            assert index == expected
            assert all(a is b for a, b in zip(population.members, reference))
            assert np.array_equal(
                population.keys, np.stack([moea._key(m, eps) for m in reference], axis=1)
            )
        assert any(m.objectives.min() < 0.0 for m in seen)
        if scale > 1.0:
            # boxes beyond the int64 range still compare exactly
            assert max(abs(b) for m in seen for b in box_index(m.objectives, eps)) > 2**63


def _pair_tournament(rng, members, eps, size, outcomes):
    """The tournament as a loop of :func:`eps_dominates` calls over
    solutions, as it was written before it read the key matrix; counts
    each comparison's outcome in ``outcomes``."""
    best = members[int(rng.integers(len(members)))]
    for _ in range(size - 1):
        challenger = members[int(rng.integers(len(members)))]
        outcome = eps_dominates(challenger, best, eps)
        outcomes[outcome] = outcomes.get(outcome, 0) + 1
        if outcome is Dominance.A_DOMINATES:
            best = challenger
        elif outcome is not Dominance.B_DOMINATES and rng.random() < 0.5:
            best = challenger
    return best


class TestTournamentMatchesPairRule:
    """The tournament over the population's key matrix picks the same
    winner with the same draws as the pairwise rule over solutions."""

    def test_same_winner_and_generator_state(self):
        eps = (1.0, 0.5, 0.25)
        shapes = np.random.default_rng(23)
        outcomes: dict[Dominance, int] = {}
        for seed in range(200):
            members: list[Solution] = []
            for _ in range(int(shapes.integers(2, 12))):
                pick = shapes.random()
                if members and pick < 0.25:
                    # an earlier member's box, at its corner or inside it
                    base = members[int(shapes.integers(len(members)))]
                    objectives = np.floor(base.objectives / eps) * eps
                    if shapes.random() < 0.5:
                        objectives = objectives + shapes.uniform(0.0, 1.0, 3) * eps
                elif pick < 0.5:
                    # exactly on a box edge (epsilons are powers of two)
                    objectives = shapes.integers(-3, 3, 3) * np.asarray(eps)
                else:
                    objectives = shapes.uniform(-2.0, 2.0, 3)
                if shapes.random() < 0.5:
                    violation = 0.0
                elif shapes.random() < 0.6:
                    violation = float(shapes.choice([0.25, 0.5]))
                else:
                    violation = float(shapes.uniform(0.0, 1.0))
                members.append(sol(objectives, violation=violation))
            population = moea._Population(list(members), eps)
            size = seed % 4 + 1
            ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(20):
                want = _pair_tournament(theirs, members, eps, size, outcomes)
                assert moea._tournament(ours, population, size) is want
                assert ours.bit_generator.state == theirs.bit_generator.state
        assert set(outcomes) == set(Dominance)


EDGE_EPS = (1.0, 0.5, 0.25)  # powers of two: multiples sit exactly on box edges


@st.composite
def solution_pairs(draw):
    """Two solutions that often tie: violations from a short list, points
    on box edges, and a second solution that may share the first's
    violation, its objectives or its box."""
    violations = st.one_of(st.sampled_from([0.0, 0.25, 0.5]), st.floats(0.0, 2.0))
    triple = st.lists(st.integers(-4, 4), min_size=3, max_size=3)
    objectives = st.one_of(
        triple.map(lambda k: np.multiply(k, EDGE_EPS)),
        st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3).map(np.array),
    )
    a_objectives, a_violation = draw(objectives), draw(violations)
    case = draw(st.sampled_from(("any", "equal violations", "violation only", "same box")))
    if case == "any":
        b_objectives, b_violation = draw(objectives), draw(violations)
    elif case == "equal violations":
        b_objectives, b_violation = draw(objectives), a_violation
    elif case == "violation only":
        b_objectives, b_violation = a_objectives, draw(violations)
    else:
        fraction = draw(st.lists(st.floats(0.0, 0.99), min_size=3, max_size=3))
        corner = np.floor(a_objectives / EDGE_EPS) * EDGE_EPS
        b_objectives, b_violation = corner + np.multiply(fraction, EDGE_EPS), a_violation
    return sol(a_objectives, violation=a_violation), sol(b_objectives, violation=b_violation)


class TestPairScoreMatchesDominance:
    """The tournament's scalar pair rule gives the sign of
    :func:`moea._dominance`'s best + worst, for every pair of keys."""

    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(pair=solution_pairs())
    def test_sign_of_best_plus_worst(self, pair):
        a, b = (moea._key(s, EDGE_EPS) for s in pair)
        best, worst = moea._dominance(a, b)
        assert moea._pair_score(a.tolist(), b.tolist()) == np.sign(best + worst)
        assert moea._pair_score(b.tolist(), a.tolist()) == -np.sign(best + worst)

    @pytest.mark.parametrize(
        "a, b, score",
        [
            (([1.0, 0.2, 0.1], 0.5), ([0.5, 0.6, 0.1], 0.5), 0),  # equal violations, incomparable
            (([1.0, 0.5, 0.25], 0.0), ([0.999, 0.5, 0.25], 0.0), -1),  # a box edge apart
            (([1.0, 0.5, 0.25], 0.0), ([1.0, 0.5, 0.25], 0.5), 1),  # violation only
            (([3.0, 0.0, 0.0], 0.25), ([0.0, 3.0, 3.0], 0.5), 1),  # violation outranks boxes
            (([1.0, 0.5, 0.25], 0.5), ([1.9, 0.9, 0.4], 0.5), 0),  # same box
        ],
    )
    def test_named_cases(self, a, b, score):
        ka, kb = (moea._key(sol(o, violation=v), EDGE_EPS) for o, v in (a, b))
        assert moea._pair_score(ka.tolist(), kb.tolist()) == score


class TestBoxFollowsEpsilons:
    def test_comparisons_under_two_epsilon_vectors(self):
        a = sol([100.0, 10.0, 0.10])
        b = sol([95.0, 12.0, 0.10])
        coarse = (50.0, 5.0, 1.0)
        for _ in range(2):
            assert eps_dominates(a, b, EPS3) is Dominance.NEITHER
            assert eps_dominates(a, b, coarse) is Dominance.B_DOMINATES
            assert tuple(moea._key(a, EPS3)[1:]) == box_index(a.objectives, EPS3) == (10, 10, 10)
            assert tuple(moea._key(a, coarse)[1:]) == box_index(a.objectives, coarse) == (2, 2, 0)

    def test_interleaved_archives(self):
        a = sol([100.0, 10.0, 0.10])
        b = sol([95.0, 12.0, 0.10])
        fine = EpsilonArchive(EPS3)
        coarse = EpsilonArchive((50.0, 5.0, 1.0))
        for s in (a, b):
            fine.insert(s)
            coarse.insert(s)
        assert len(fine) == 2 and fine.members[0] is a and fine.members[1] is b
        assert len(coarse) == 1 and coarse.members[0] is b


class TestMergeArchives:
    def _archive_with(self, *solutions):
        archive = EpsilonArchive(EPS3)
        for s in solutions:
            archive.insert(s)
        return archive

    def test_merge_with_self_is_identity(self):
        a = self._archive_with(sol([100, 10, 0.1]), sol([90, 11, 0.1]))
        merged = merge_archives([a, a])
        assert {box_index(m.objectives, EPS3) for m in merged} == {
            box_index(m.objectives, EPS3) for m in a
        }
        assert len(merged) == len(a)

    def test_merge_with_empty(self):
        a = self._archive_with(sol([100, 10, 0.1]))
        merged = merge_archives([EpsilonArchive(EPS3), a])
        assert len(merged) == 1
        assert np.array_equal(merged.members[0].objectives, a.members[0].objectives)

    def test_merge_disjoint_dominating_singletons(self):
        a = self._archive_with(sol([100, 10, 0.1]))
        b = self._archive_with(sol([50, 5, 0.05]))
        merged = merge_archives([a, b])
        assert len(merged) == 1
        assert merged.members[0].objectives[0] == 50

    def test_epsilon_mismatch_rejected(self):
        a = EpsilonArchive(EPS3)
        b = EpsilonArchive((1.0, 1.0, 1.0))
        with pytest.raises(ValueError):
            merge_archives([a, b])


class TestSelectOperator:
    def test_empty_archive_is_uniform(self):
        archive = EpsilonArchive(EPS3)
        rng = np.random.default_rng(4)
        draws = 100_000
        counts = {name: 0 for name in OPERATOR_NAMES}
        for _ in range(draws):
            counts[select_operator(rng, archive)] += 1
        p = 1.0 / 6.0
        sigma = np.sqrt(p * (1 - p) / draws)
        for name in OPERATOR_NAMES:
            assert abs(counts[name] / draws - p) < 3 * sigma + 1e-12

    def test_probabilities_follow_archive_credit(self):
        archive = EpsilonArchive((1.0, 1.0, 1.0))
        # 14 mutually non-dominated points; 9 credited to sbx, 1 to each other
        tags = ["sbx"] * 9 + ["de", "pcx", "spx", "undx", "um"]
        for j, tag in enumerate(tags):
            accepted, _ = archive.insert(
                sol([j + 0.5, 100.0 - j + 0.5, 50.5], tag=tag)
            )
            assert accepted
        assert archive.operator_counts()["sbx"] == 9
        expected = {name: (10.0 if name == "sbx" else 2.0) / 20.0 for name in OPERATOR_NAMES}
        rng = np.random.default_rng(1)
        draws = 100_000
        counts = {name: 0 for name in OPERATOR_NAMES}
        for _ in range(draws):
            counts[select_operator(rng, archive)] += 1
        for name, p in expected.items():
            sigma = np.sqrt(p * (1 - p) / draws)
            assert abs(counts[name] / draws - p) < 3 * sigma + 1e-12

    def test_draws_as_generator_choice(self):
        """The same draws as ``rng.choice(6, p=probs)``, which it replaces:
        a numpy that changes ``Generator.choice`` fails here."""

        class Counts:
            def __init__(self, counts):
                self.counts = dict(zip(OPERATOR_NAMES, counts))

            def operator_counts(self):
                return self.counts

            def operator_cdf(self):
                return moea.operator_cdf(self.counts)

        vectors = np.random.default_rng(5)
        for seed in range(300):
            high = (1, 5, 50, 5000)[seed % 4]
            archive = Counts(vectors.integers(0, high, len(OPERATOR_NAMES)).tolist())
            ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
            weights = np.array([c + 1 for c in archive.counts.values()], dtype=float)
            probs = weights / weights.sum()
            for _ in range(50):
                want = OPERATOR_NAMES[int(theirs.choice(len(OPERATOR_NAMES), p=probs))]
                assert select_operator(ours, archive) == want
            assert ours.random() == theirs.random()

    def test_cached_probabilities_follow_counts_across_evictions(self):
        """Every draw is ``rng.choice`` with the probabilities recomputed
        from ``operator_counts()``, while inserts evict and add members."""
        archive = EpsilonArchive((1.0, 1.0, 1.0))
        shapes = np.random.default_rng(8)
        ours, theirs = np.random.default_rng(9), np.random.default_rng(9)
        evictions = 0
        for _ in range(400):
            before = len(archive)
            tag = OPERATOR_NAMES[int(shapes.integers(len(OPERATOR_NAMES)))]
            if len(archive) and shapes.random() < 0.3:  # below a member: evicts it
                base = archive.members[int(shapes.integers(len(archive)))].objectives
                objectives = base - shapes.uniform(0.0, 1.5, 3)
            else:
                objectives = shapes.uniform(0.0, 6.0, 3)
            accepted, _ = archive.insert(sol(objectives, tag=tag))
            evictions += accepted and len(archive) <= before
            for _ in range(int(shapes.integers(1, 4))):
                counts = archive.operator_counts()
                weights = np.array([counts.get(n, 0) + 1 for n in OPERATOR_NAMES], dtype=float)
                p = weights / weights.sum()
                want = OPERATOR_NAMES[int(theirs.choice(len(OPERATOR_NAMES), p=p))]
                assert select_operator(ours, archive) == want
        assert evictions > 50


def sphereish(genome):
    """Cheap 3-objective test problem with no constraints."""
    x = np.asarray(genome)
    return (
        np.array(
            [float((x - 1.0) @ (x - 1.0)), float((x + 1.0) @ (x + 1.0)), float(x @ x)]
        ),
        0.0,
    )


class TestRun:
    def test_budget_equal_to_population_keeps_initial_front(self):
        config = MoeaConfig(genome_length=4, epsilons=(0.5, 0.5, 0.5), max_nfe=20,
                            population_size=20, bound=2.0)
        archive = run(config, sphereish, seed=3)
        # replay the generator to recover the initial population exactly
        rng = np.random.default_rng(3)
        expected = EpsilonArchive(config.epsilons)
        for _ in range(20):
            genome = rng.uniform(-2.0, 2.0, 4)
            objectives, violation = sphereish(genome)
            expected.insert(sol(objectives, violation, "init", genome))
        got = {box_index(m.objectives, config.epsilons) for m in archive}
        want = {box_index(m.objectives, config.epsilons) for m in expected}
        assert got == want
        for m, e in zip(archive.members, expected.members):
            assert np.array_equal(m.genome, e.genome)

    def test_same_seed_reproduces_archive_exactly(self):
        config = MoeaConfig(genome_length=6, epsilons=(0.2, 0.2, 0.2), max_nfe=1500,
                            population_size=40, bound=3.0)
        a = run(config, sphereish, seed=11)
        b = run(config, sphereish, seed=11)
        assert len(a) == len(b)
        for ma, mb in zip(a.members, b.members):
            assert np.array_equal(ma.genome, mb.genome)
            assert np.array_equal(ma.objectives, mb.objectives)
            assert ma.operator_tag == mb.operator_tag

    def test_archive_is_sound_and_within_bounds(self):
        config = MoeaConfig(genome_length=5, epsilons=(0.3, 0.3, 0.3), max_nfe=2000,
                            population_size=30, bound=2.5)
        archive = run(config, sphereish, seed=29)
        members = archive.members
        assert len(members) >= 1
        for m in members:
            assert np.all(np.abs(m.genome) <= 2.5)
        for i, a in enumerate(members):
            for b in members[i + 1 :]:
                outcome = eps_dominates(a, b, config.epsilons)
                assert outcome in (Dominance.NEITHER,), (
                    a.objectives,
                    b.objectives,
                    outcome,
                )

    def test_restarts_reset_population_from_archive(self):
        # A tiny window forces restarts; the run must still terminate at
        # the budget and produce a sound archive.
        config = MoeaConfig(genome_length=4, epsilons=(5.0, 5.0, 5.0), max_nfe=800,
                            population_size=10, bound=2.0, restart_window=15)
        archive = run(config, sphereish, seed=5)
        assert len(archive) >= 1

    def test_feasibility_first_in_constrained_run(self):
        def constrained(genome):
            x = np.asarray(genome)
            objectives, _ = sphereish(x)
            return objectives, max(0.0, 1.0 - float(np.linalg.norm(x)))

        config = MoeaConfig(genome_length=4, epsilons=(0.5, 0.5, 0.5), max_nfe=1200,
                            population_size=30, bound=2.0)
        archive = run(config, constrained, seed=17)
        assert len(archive) >= 1
        assert all(m.feasible for m in archive)  # feasible points exist and win

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            MoeaConfig(genome_length=4, epsilons=(0.5,), max_nfe=10, population_size=20)
        with pytest.raises(ValueError):
            MoeaConfig(genome_length=4, epsilons=(0.5, -1.0), max_nfe=100)

    @pytest.mark.parametrize("field, value", [("restart_window", 0), ("restart_window", -5)])
    def test_tournament_and_restart_window_must_be_positive(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be >= 1, got {value}"):
            MoeaConfig(genome_length=4, epsilons=(0.5, 0.5, 0.5), max_nfe=100, **{field: value})

    def test_fields_are_the_run_settings(self):
        # The search's fixed settings are module constants, not fields.
        assert [f.name for f in dataclasses.fields(MoeaConfig)] == [
            "genome_length", "epsilons", "max_nfe", "population_size", "bound", "restart_window",
        ]  # fmt: skip

    @pytest.mark.parametrize("value", [0.0, -1.0, float("inf"), float("-inf"), float("nan")])
    def test_bound_must_be_finite_and_positive(self, value):
        with pytest.raises(ValueError, match=f"bound must be finite and > 0, got {value}"):
            MoeaConfig(genome_length=4, epsilons=(0.5, 0.5, 0.5), max_nfe=100, bound=value)

    def test_wrong_epsilon_count_rejected_by_run(self):
        config = MoeaConfig(genome_length=4, epsilons=(0.5,), max_nfe=20, population_size=10)
        with pytest.raises(ValueError, match="1 epsilons for 3 objectives"):
            run(config, sphereish, seed=0)


class TestArchiveCsv:
    def test_round_trip(self, tmp_path):
        config = MoeaConfig(genome_length=4, epsilons=(0.5, 0.5, 0.5), max_nfe=300,
                            population_size=20, bound=2.0)
        archive = run(config, sphereish, seed=7)
        path = tmp_path / "archive.csv"
        write_archive_csv(archive, path)
        loaded = read_archive_csv(path, config.epsilons)
        assert len(loaded) == len(archive)
        for a, b in zip(archive.members, loaded.members):
            assert np.array_equal(a.objectives, b.objectives)
            assert np.array_equal(a.genome, b.genome)
            assert a.violation == b.violation and a.operator_tag == b.operator_tag

    def test_write_is_deterministic(self, tmp_path):
        config = MoeaConfig(genome_length=4, epsilons=(0.5, 0.5, 0.5), max_nfe=200,
                            population_size=20, bound=2.0)
        archive = run(config, sphereish, seed=13)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        digest = write_archive_csv(archive, p1)
        assert write_archive_csv(archive, p2) == digest
        assert p1.read_bytes() == p2.read_bytes()
        assert digest == hashlib.sha256(p1.read_bytes()).hexdigest()

    @pytest.mark.parametrize(
        "rows, pair",
        [
            # row 1 dominates row 0: inserting would drop row 0 and shift row 1 up
            (["5.0,5.0,5.0,0.0", "1.0,1.0,1.0,0.0", "9.0,0.5,9.0,0.0"], "rows 0 and 1"),
            # rows 0 and 2 share a box
            (["1.2,5.0,5.003,0.0", "9.0,0.5,9.0,0.0", "1.7,5.9,5.006,0.0"], "rows 0 and 2"),
            # a feasible row beats an infeasible one in any box
            (["1.0,9.0,1.0,0.0", "9.0,1.0,9.0,0.0", "0.0,0.0,0.0,2.0"], "rows 0 and 2"),
        ],
    )
    def test_rows_that_an_archive_cannot_hold_are_rejected_by_number(self, tmp_path, rows, pair):
        path = tmp_path / "archive.csv"
        path.write_text(
            "cost,emission,heat_waste,violation,operator,w0\n"
            + "".join(f"{row},init,{i}.0\n" for i, row in enumerate(rows))
        )
        with pytest.raises(ValueError, match=f"{path}: {pair} share an epsilon box or one"):
            read_archive_csv(path, EPS3)

    def test_rows_read_in_file_order(self, tmp_path):
        path = tmp_path / "archive.csv"
        path.write_text(
            "cost,emission,heat_waste,violation,operator,w0\n"
            "9.0,0.5,9.0,0.0,sbx,0.0\n"
            "5.0,5.0,5.0,0.0,pcx,1.0\n"
            "0.5,9.0,1.0,0.0,sbx,2.0\n"
        )
        archive = read_archive_csv(path, EPS3)
        assert [m.genome[0] for m in archive.members] == [0.0, 1.0, 2.0]
        assert archive.operator_counts() == {"sbx": 2, "pcx": 1}
        assert np.array_equal(
            archive._keys, np.stack([moea._key(m, EPS3) for m in archive.members], axis=1)
        )

    HEADER = "cost,emission,heat_waste,violation,operator,w0,w1\n"

    def assert_rejects(self, path, rows, message):
        path.write_text(self.HEADER + "".join(f"{row}\n" for row in rows))
        with pytest.raises(ValueError) as info:
            read_archive_csv(path, EPS3)
        assert str(info.value) == f"{path}: {message}"

    def test_non_finite_objective_rejected_by_row(self, tmp_path):
        rows = ["9.0,0.5,9.0,0.0,sbx,0.0,1.0", "nan,9.0,1.0,0.0,pcx,2.0,3.0"]
        self.assert_rejects(tmp_path / "a.csv", rows, "row 1: objectives must be finite")

    def test_non_numeric_weight_rejected_by_row(self, tmp_path):
        rows = ["9.0,0.5,9.0,0.0,sbx,x,1.0"]
        message = "row 0: could not convert string to float: 'x'"
        self.assert_rejects(tmp_path / "a.csv", rows, message)

    @pytest.mark.parametrize("weights", ["0.0", "0.0,1.0,2.0"])
    def test_genome_length_other_than_header_rejected_by_row(self, tmp_path, weights):
        rows = ["9.0,0.5,9.0,0.0,sbx,0.0,1.0", f"0.5,9.0,1.0,0.0,pcx,{weights}"]
        message = f"row 1: {len(weights.split(','))} weights, but the header has 2"
        self.assert_rejects(tmp_path / "a.csv", rows, message)

    def test_row_missing_columns_rejected_by_row(self, tmp_path):
        message = "row 0: 3 fields, but the header has 7"
        self.assert_rejects(tmp_path / "a.csv", ["9.0,0.5,9.0"], message)

    def test_epsilon_count_mismatch_rejected(self, tmp_path):
        archive = EpsilonArchive(EPS3)
        archive.insert(sol([1.0, 1.0, 0.0]))
        path = tmp_path / "archive.csv"
        write_archive_csv(archive, path)
        with pytest.raises(ValueError):
            read_archive_csv(path, (1.0, 1.0))


def dtlz2(genome):
    x = (np.asarray(genome) + 10.0) / 20.0
    g = float(((x[2:] - 0.5) ** 2).sum())
    a0, a1 = 0.5 * np.pi * x[0], 0.5 * np.pi * x[1]
    return (1.0 + g) * np.array(
        [np.cos(a0) * np.cos(a1), np.cos(a0) * np.sin(a1), np.sin(a0)]
    ), 0.0


def quantized_constraint(genome):
    """Shifted sphere objectives (some negative) and a violation rounded to
    0.1, so that equal nonzero violations are common."""
    x = np.asarray(genome)
    objectives, _ = sphereish(x)
    return objectives - 2.0, round(max(0.0, 1.5 - float(np.linalg.norm(x))), 1)


class TestPinnedArchives:
    """sha256 of short runs' archive CSVs: two toy problems, and two studies
    through :class:`BatchEvaluator`.  A change to the optimizer's bookkeeping
    or to the evaluator must keep these bytes; one that means to move them
    must say so and record the new digests."""

    def _digest(self, tmp_path, config, evaluator, seed, names):
        path = tmp_path / "archive.csv"
        write_archive_csv(run(config, evaluator, seed), path, names)
        return hashlib.sha256(path.read_bytes()).hexdigest()

    def test_dtlz2(self, tmp_path):
        config = MoeaConfig(genome_length=12, epsilons=(0.05, 0.05, 0.05), max_nfe=2000,
                            bound=10.0)
        assert self._digest(tmp_path, config, dtlz2, 0, ("f0", "f1", "f2")) == (
            "e000af2719efbe6d8c621115ca33568d70b2f99409819cdd04b4ce42a3fd4159"
        )

    def test_constrained_with_restarts(self, tmp_path, monkeypatch):
        injected = []
        monkeypatch.setattr(moea, "um", lambda *args: injected.append(1) or moea_um(*args))
        config = MoeaConfig(genome_length=4, epsilons=(0.5, 0.5, 0.5), max_nfe=1000,
                            population_size=10, bound=2.0, restart_window=15)
        digest = self._digest(
            tmp_path, config, quantized_constraint, 3, ("cost", "emission", "heat_waste")
        )
        assert injected  # restarts happened
        assert digest == "37c4d8f67c55d50f6ab004260206509f9aaf0e333e7fef767636d1e3c1c3e0dc"

    def test_budget_ends_inside_injections(self, tmp_path, monkeypatch):
        evaluations, draws = [], []

        def evaluator(genome):
            evaluations.append(1)
            return quantized_constraint(genome)

        monkeypatch.setattr(
            moea, "um", lambda *args: draws.append(len(evaluations)) or moea_um(*args)
        )
        config = MoeaConfig(genome_length=4, epsilons=(0.5, 0.5, 0.5), max_nfe=110,
                            population_size=10, bound=2.0, restart_window=15)
        digest = self._digest(tmp_path, config, evaluator, 3, ("cost", "emission", "heat_waste"))
        # The one restart starts after 92 evaluations from 13 archive members
        # and targets 52, so the budget cuts its 39 injections at 18.
        assert draws == list(range(92, 110))
        assert digest == "66417422bdc885759c858599fe72306aca8e55b06fa3909b14f38f45a91d0209"

    @pytest.mark.parametrize(
        "season, days, nfe, digest",
        [
            (
                "summer", 7, 1500,
                "e04af8753a8573f80209ea5c51bea473302ab5920a62f139f71e091f3638c28a",
            ),
            # 60 days: each (15, 1440) hidden-layer array is larger than
            # malloc's 128 KB mmap threshold.
            (
                "winter", 60, 400,
                "2da6f6e138b38161edf378bf6a4847d7d8ff2dcfc1668744aead3016a6a3c376",
            ),
        ],
    )
    def test_batch_evaluator(self, tmp_path, season, days, nfe, digest):
        scenarios = generate_synthetic(SyntheticSpec(seed=31, days=days, season=season))
        evaluator = BatchEvaluator(
            scenarios, default_config(season), InputNormalization.from_scenarios(scenarios)
        )
        config = MoeaConfig(genome_length=evaluator.genome_length, epsilons=EPS3,
                            max_nfe=nfe, population_size=50)
        names = ("cost", "emission", "heat_waste")
        assert self._digest(tmp_path, config, evaluator, 2, names) == digest


class TestSearch:
    def test_ask_and_tell_by_hand_match_run(self):
        config = MoeaConfig(genome_length=4, epsilons=(0.5, 0.5, 0.5), max_nfe=1000,
                            population_size=10, bound=2.0, restart_window=15)
        search = moea.Search(config, 3)
        tags = []
        while search.nfe < config.max_nfe:
            genome, tag = search.ask()
            tags.append(tag)
            search.tell(*quantized_constraint(genome))
        assert tags[:10] == ["init"] * 10 and "um" in tags  # restarts happened
        want = run(config, quantized_constraint, 3).members
        assert len(search.archive) == len(want)
        for got, w in zip(search.archive.members, want):
            assert got.genome.tobytes() == w.genome.tobytes()
            assert got.objectives.tobytes() == w.objectives.tobytes()
            assert (got.violation, got.operator_tag) == (w.violation, w.operator_tag)

    def test_tell_needs_a_pending_ask(self):
        config = MoeaConfig(genome_length=4, epsilons=(0.5, 0.5, 0.5), max_nfe=20,
                            population_size=10)
        search = moea.Search(config, 3)
        with pytest.raises(RuntimeError, match="tell without a pending ask"):
            search.tell([1.0, 1.0, 1.0], 0.0)
        genome, _ = search.ask()
        search.tell(*sphereish(genome))
        with pytest.raises(RuntimeError, match="tell without a pending ask"):
            search.tell([0.0, 0.0, 0.0], 0.0)
        assert search.nfe == 1
        assert len(search.archive) == 1 and search.archive.members[0].genome is genome

    def test_ask_needs_the_last_ask_told(self):
        config = MoeaConfig(genome_length=4, epsilons=(0.5, 0.5, 0.5), max_nfe=20,
                            population_size=10)
        search = moea.Search(config, 3)
        genome, _ = search.ask()
        state = search.rng.bit_generator.state
        with pytest.raises(RuntimeError, match="ask with an ask pending"):
            search.ask()
        assert search.rng.bit_generator.state == state  # nothing was drawn
        search.tell(*sphereish(genome))
        assert search.nfe == 1 and search.archive.members[0].genome is genome
        second, _ = search.ask()
        assert second is not genome

    def test_rejected_result_leaves_the_ask_pending(self):
        config = MoeaConfig(genome_length=4, epsilons=(0.5, 0.5, 0.5), max_nfe=20,
                            population_size=10)
        search = moea.Search(config, 3)
        genome, _ = search.ask()
        with pytest.raises(ValueError, match="objectives must be finite"):
            search.tell([np.nan, 1.0, 1.0], 0.0)
        assert search.nfe == 0
        search.tell(*sphereish(genome))
        assert search.nfe == 1
