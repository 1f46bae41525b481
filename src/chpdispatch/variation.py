"""Real-coded variation operators for the evolutionary search.

Six operators produce one child genome each, every gene clipped to the
symmetric search box [-bound, bound]; L is the genome length:

    sbx   simulated binary crossover (index SBX_INDEX = 15), then
          polynomial mutation (index PM_INDEX = 20, rate 1/L)
    de    differential evolution rand/1/bin, DE_STEP = 0.5, DE_CROSSOVER = 0.1
    pcx   parent-centric crossover, 3 parents, sigma_eta = PCX_ETA = 0.1,
          sigma_zeta = PCX_ZETA = 0.1
    spx   simplex crossover, 3 parents, expansion SPX_EXPANSION = 2.0
    undx  unimodal normal distribution crossover, 3 parents,
          sigma_zeta = UNDX_ZETA = 0.5, sigma_eta = UNDX_ETA / sqrt(L) = 0.35 / sqrt(L)
    um    uniform mutation, single parent, per-gene rate 1/L

The settings are fixed constants, the operator defaults of the Borg MOEA
(Hadka & Reed 2013, "Borg: an auto-adaptive many-objective evolutionary
computing framework", Evolutionary Computation 21(2)), except that the
multi-parent operators take 3 parents and give one child, and SPX expands
by sqrt(3 + 1) = 2.0, which Tsutsui, Yamamura & Higuchi (1999) recommend
for 3 parents.  All randomness comes from the generator handed in, so runs
replay exactly.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

OPERATOR_NAMES = ("sbx", "de", "pcx", "spx", "undx", "um")
OPERATOR_ARITY = {"sbx": 2, "de": 3, "pcx": 3, "spx": 3, "undx": 3, "um": 1}

SBX_INDEX = 15.0
PM_INDEX = 20.0
DE_STEP = 0.5
DE_CROSSOVER = 0.1
PCX_ETA = 0.1
PCX_ZETA = 0.1
SPX_EXPANSION = 2.0
UNDX_ZETA = 0.5
UNDX_ETA = 0.35

_GENE_EPS = 1e-14  # genes closer than this do not cross in SBX


def _polynomial_mutation(
    rng: np.random.Generator, child: np.ndarray, bound: float, index: float, rate: float
) -> np.ndarray:
    lo, hi = -bound, bound
    span = hi - lo
    mask = rng.random(child.size) < rate
    hits = np.count_nonzero(mask)
    if not hits:
        return child
    x = child[mask]
    u = rng.random(hits)
    low_side = u < 0.5
    reach = np.where(low_side, x - lo, hi - x) / span
    # Both sides share one formula in min(u, 1 - u): on the high side,
    # 1 - 2(1 - u) is 2(u - 0.5) exactly.
    twice = 2.0 * np.minimum(u, 1.0 - u)
    # A gene outside the box, as SBX can leave one, has a reach outside
    # [0, 1] and can give a negative base, whose fractional power is NaN.
    # Clamped at 0, it takes the longest step, and the clip keeps the
    # child in the box.
    base = twice + (1.0 - twice) * (1.0 - reach) ** (index + 1.0)
    root = np.maximum(base, 0.0) ** (1.0 / (index + 1.0))
    delta = np.where(low_side, root - 1.0, 1.0 - root)
    child[mask] = x + delta * span
    return child


def sbx(rng: np.random.Generator, p1: np.ndarray, p2: np.ndarray, bound: float) -> np.ndarray:
    """SBX + polynomial mutation.  Identical parents are a fixed point of
    the crossover (genes only cross when they differ)."""
    n = p1.size
    child = p1.copy()
    cross = (rng.random(n) < 0.5) & (np.abs(p1 - p2) > _GENE_EPS)
    crossed = np.count_nonzero(cross)
    if crossed:
        u = rng.random(crossed)
        beta = np.where(u <= 0.5, 2.0 * u, 0.5 / (1.0 - u)) ** (1.0 / (SBX_INDEX + 1.0))
        np.negative(beta, out=beta, where=rng.random(crossed) >= 0.5)
        a, b = p1[cross], p2[cross]
        child[cross] = 0.5 * ((a + b) + beta * (b - a))
    child = _polynomial_mutation(rng, child, bound, PM_INDEX, 1.0 / n)
    return child.clip(-bound, bound)


def de(
    rng: np.random.Generator, base: np.ndarray, x2: np.ndarray, x3: np.ndarray, bound: float
) -> np.ndarray:
    """rand/1/bin: base plus a scaled difference on the crossed genes; one
    gene always crosses so the child is not a pure copy."""
    n = base.size
    mask = rng.random(n) < DE_CROSSOVER
    mask[rng.integers(n)] = True
    child = np.where(mask, base + DE_STEP * (x2 - x3), base)
    return child.clip(-bound, bound)


def _orthogonal_noise(
    rng: np.random.Generator, direction: np.ndarray, norm2: float, scale: float
) -> np.ndarray:
    """Isotropic Gaussian restricted to the hyperplane orthogonal to
    ``direction``, whose squared norm is ``norm2`` (projection trick;
    avoids building a full basis)."""
    noise = rng.standard_normal(direction.size) * scale
    if norm2 > 0.0:
        noise -= (noise @ direction) / norm2 * direction
    return noise


def pcx(rng: np.random.Generator, parents: Sequence[np.ndarray], bound: float) -> np.ndarray:
    stack = np.array(parents)
    centroid = stack.sum(axis=0) / len(stack)  # np.mean's arithmetic
    pick = int(rng.integers(len(parents)))
    anchor = stack[pick]
    d = anchor - centroid
    others = [stack[j] for j in range(len(parents)) if j != pick]
    norm2 = float(d @ d)
    if norm2 > 0.0:
        dists = []
        for p in others:
            v = p - anchor
            perp = v - (v @ d) / norm2 * d
            dists.append(math.sqrt(perp @ perp))
        mean_dist = float(np.add.reduce(dists)) / len(dists)  # np.mean's arithmetic
    else:
        mean_dist = float(np.mean([np.linalg.norm(p - anchor) for p in others]))
    child = (
        anchor
        + rng.standard_normal() * PCX_ZETA * d
        + _orthogonal_noise(rng, d, norm2, PCX_ETA * mean_dist)
    )
    return child.clip(-bound, bound)


def spx(rng: np.random.Generator, parents: Sequence[np.ndarray], bound: float) -> np.ndarray:
    stack = np.array(parents)
    centroid = stack.sum(axis=0) / len(stack)  # np.mean's arithmetic
    expanded = centroid + SPX_EXPANSION * (stack - centroid)
    child = expanded[0]
    accum = np.zeros_like(child)
    # r_k = u^(1/k) samples uniformly over the expanded simplex and keeps
    # the children centered on the parents' centroid.
    for k in range(1, len(parents)):
        r = rng.random() ** (1.0 / k)
        accum = r * (expanded[k - 1] - expanded[k] + accum)
        child = expanded[k] + accum
    return child.clip(-bound, bound)


def undx(rng: np.random.Generator, parents: Sequence[np.ndarray], bound: float) -> np.ndarray:
    p1, p2, p3 = parents
    midpoint = 0.5 * (p1 + p2)
    d = p2 - p1
    norm2 = float(d @ d)
    if norm2 > 0.0:
        v = p3 - p1
        perp = v - (v @ d) / norm2 * d
        span = math.sqrt(perp @ perp)
    else:
        span = float(np.linalg.norm(p3 - p1))
    child = (
        midpoint
        + rng.standard_normal() * UNDX_ZETA * d
        + _orthogonal_noise(rng, d, norm2, UNDX_ETA / math.sqrt(p1.size) * span)
    )
    return child.clip(-bound, bound)


def um(rng: np.random.Generator, parent: np.ndarray, bound: float) -> np.ndarray:
    """Resample each gene uniformly in the box with probability 1/L."""
    n = parent.size
    child = parent.copy()
    mask = rng.random(n) < 1.0 / n
    child[mask] = rng.uniform(-bound, bound, np.count_nonzero(mask))
    return child


def vary(
    rng: np.random.Generator, operator: str, parents: Sequence[np.ndarray], bound: float
) -> np.ndarray:
    """Apply ``operator`` to ``parents`` and return one clipped child."""
    if operator not in OPERATOR_NAMES:
        raise ValueError(f"unknown operator {operator!r}")
    if len(parents) != OPERATOR_ARITY[operator]:
        raise ValueError(
            f"{operator} needs {OPERATOR_ARITY[operator]} parents, got {len(parents)}"
        )
    parents = [np.asarray(p, dtype=float) for p in parents]
    if operator == "sbx":
        return sbx(rng, parents[0], parents[1], bound)
    if operator == "de":
        return de(rng, parents[0], parents[1], parents[2], bound)
    if operator == "pcx":
        return pcx(rng, parents, bound)
    if operator == "spx":
        return spx(rng, parents, bound)
    if operator == "undx":
        return undx(rng, parents, bound)
    return um(rng, parents[0], bound)
