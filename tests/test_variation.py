"""Variation operator tests: fixed points, arity, bounds, and statistics."""

from __future__ import annotations

import numpy as np
import pytest

from chpdispatch import variation
from chpdispatch.variation import (
    OPERATOR_ARITY,
    OPERATOR_NAMES,
    _polynomial_mutation,
    vary,
)

B = 10.0
L = 12


class TestFixedPoints:
    def test_sbx_identical_parents_without_mutation(self, monkeypatch):
        monkeypatch.setattr(variation, "_polynomial_mutation", lambda rng, child, *_: child)
        rng = np.random.default_rng(1)
        parent = rng.uniform(-B, B, L)
        child = vary(rng, "sbx", [parent, parent.copy()], B)
        assert np.array_equal(child, parent)

    def test_multiparent_operators_collapse_on_identical_parents(self):
        rng = np.random.default_rng(2)
        parent = rng.uniform(-B, B, L)
        for name in ("pcx", "spx", "undx"):
            child = vary(rng, name, [parent.copy() for _ in range(3)], B)
            assert np.allclose(child, parent, atol=1e-12), name


class TestValidation:
    def test_arity_mismatch_rejected(self):
        rng = np.random.default_rng(3)
        parent = np.zeros(L)
        with pytest.raises(ValueError):
            vary(rng, "de", [parent, parent], B)

    def test_unknown_operator_rejected(self):
        with pytest.raises(ValueError):
            vary(np.random.default_rng(0), "xover", [np.zeros(L)], B)


class TestBounds:
    @pytest.mark.parametrize("name", OPERATOR_NAMES)
    def test_children_stay_in_box(self, name):
        rng = np.random.default_rng(5)
        for _ in range(200):
            parents = [rng.uniform(-B, B, L) for _ in range(OPERATOR_ARITY[name])]
            child = vary(rng, name, parents, B)
            assert child.shape == (L,)
            assert np.all(np.isfinite(child))
            assert np.all(child >= -B) and np.all(child <= B)

    def test_de_clips_at_edge(self):
        rng = np.random.default_rng(6)
        base = np.full(L, B)
        x2 = np.full(L, B)
        x3 = np.full(L, -B)
        child = vary(rng, "de", [base, x2, x3], B)
        # Crossed genes are base + 0.5*(2B), clipped back to B; the others
        # are the base's, already at B.
        assert np.all(child == B)

    def test_polynomial_mutation_of_genes_outside_the_box(self):
        # SBX can leave a gene outside the box before mutation; a gene at
        # 4 bounds out gives a negative base on the side away from it.
        for seed in range(20):
            rng = np.random.default_rng(seed)
            genes = np.tile([4.0 * B, -4.0 * B, 3.0 * B, -1.5 * B], 3)
            child = _polynomial_mutation(rng, genes, B, variation.PM_INDEX, 1.0)
            assert np.all(np.isfinite(child)), seed


class TestStatistics:
    def test_de_children_center_on_base_parent(self):
        rng = np.random.default_rng(7)
        base = rng.uniform(-3, 3, L)
        draws = 10_000
        children = np.empty((draws, L))
        for i in range(draws):
            x2 = rng.uniform(-5, 5, L)
            x3 = rng.uniform(-5, 5, L)
            children[i] = vary(rng, "de", [base, x2, x3], B)
        mean = children.mean(axis=0)
        se = children.std(axis=0, ddof=1) / np.sqrt(draws)
        assert np.all(np.abs(mean - base) < 3.0 * se + 1e-12)

    def test_spx_children_center_on_centroid(self):
        rng = np.random.default_rng(8)
        parents = [rng.uniform(-3, 3, L) for _ in range(3)]
        centroid = np.mean(parents, axis=0)
        draws = 10_000
        children = np.empty((draws, L))
        for i in range(draws):
            children[i] = vary(rng, "spx", [p.copy() for p in parents], B)
        se = children.std(axis=0, ddof=1) / np.sqrt(draws)
        assert np.all(np.abs(children.mean(axis=0) - centroid) < 4.0 * se + 1e-9)

    def test_undx_children_center_on_parent_midpoint(self):
        rng = np.random.default_rng(9)
        p1, p2, p3 = (rng.uniform(-3, 3, L) for _ in range(3))
        midpoint = 0.5 * (p1 + p2)
        draws = 10_000
        children = np.empty((draws, L))
        for i in range(draws):
            children[i] = vary(rng, "undx", [p1, p2, p3], B)
        se = children.std(axis=0, ddof=1) / np.sqrt(draws)
        assert np.all(np.abs(children.mean(axis=0) - midpoint) < 4.0 * se + 1e-9)

    def test_um_mutates_at_configured_rate(self):
        rng = np.random.default_rng(10)
        parent = np.zeros(L)
        draws = 5_000
        changed = 0
        for _ in range(draws):
            child = vary(rng, "um", [parent], B)
            changed += int((child != parent).sum())
        rate = changed / (draws * L)
        # 1/L, with a standard error of about 0.0011 over 60 000 genes
        assert abs(rate - 1.0 / L) < 0.005
