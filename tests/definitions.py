"""Constructions of the paper that no command reaches, kept as references
for the tests.

``refined_packing_value`` is the paper's packing outer measure at desk
scale: the infimum over partitions of Z of the summed per-block packing
values.  ``masked_packing_value`` is one block's value, the packing over
the candidate balls centred in the block, with the exact/greedy rule of
``caratheodory.value``'s packing family.
"""

from __future__ import annotations

import itertools

import numpy as np

from mmdim.caratheodory import (PACKING_P, OuterMeasureProblem,
                                StructureValue, _candidates, _log_weights,
                                value)
from mmdim.errors import ConfigurationError
from mmdim.solvers import greedy_disjoint, max_weight_independent

PARTITION_EXACT = 8  # refined packings try every partition up to this |Z|


def masked_packing_value(problem: OuterMeasureProblem, lam: float,
                         center_mask: np.ndarray) -> StructureValue:
    """Max-weight pairwise-disjoint closed family of the balls centred at
    the points ``center_mask`` selects, under the problem's (packing)
    structure."""
    cands = _candidates(problem)
    idx = np.repeat(center_mask, len(cands.levels))
    weights = np.exp(_log_weights(problem, lam, cands)[idx])
    if not weights.size:
        raise ConfigurationError("no candidate balls centered in the block")
    M = cands.closed_members[idx]
    order = sorted(range(len(weights)), key=lambda i: -weights[i])
    if len(weights) <= 3 * problem.exact_cap:
        # two balls conflict iff some point of Z lies in both
        _, total = max_weight_independent(M @ M.T, weights, order)
        return StructureValue(value=total, exact=True)
    picked = greedy_disjoint(M, order)
    return StructureValue(value=float(weights[picked].sum()), exact=False)


def _partitions(indices: list[int], max_blocks: int):
    """All set partitions of the indices into at most max_blocks blocks."""
    if not indices:
        yield []
        return
    first, rest = indices[0], indices[1:]
    for part in _partitions(rest, max_blocks):
        for bi in range(len(part)):
            yield part[:bi] + [part[bi] + [first]] + part[bi + 1:]
        if len(part) < max_blocks:
            yield part + [[first]]


def refined_packing_value(problem: OuterMeasureProblem, lam: float,
                          partition_cap: int = 4) -> StructureValue:
    """Minimum over partitions of Z of the per-block packing-P values.

    Exact over all partitions (up to ``partition_cap`` blocks) when Z is
    small; greedy agglomerative otherwise, which still yields a valid
    upper bound for the infimum.
    """
    problem = problem.with_structure(PACKING_P)
    m = len(problem.points)

    def split(blocks) -> StructureValue:
        """The packing values of the blocks of one partition, summed."""
        total, exact_all = 0.0, True
        for block in blocks:
            mask = np.zeros(m, dtype=bool)
            mask[block] = True
            sv = masked_packing_value(problem, lam, mask)
            total += sv.value
            exact_all &= sv.exact
        return StructureValue(value=total, exact=exact_all)

    trivial = value(problem, lam)
    best = trivial
    if m <= PARTITION_EXACT:
        for part in _partitions(list(range(m)), partition_cap):
            if len(part) > 1:
                sv = split(part)
                if sv.value < best.value - 1e-15:
                    best = sv
        return best
    # agglomerative: start from singletons, merge while the value drops
    blocks = [[i] for i in range(m)]
    current = split(blocks).value
    improved = True
    while improved and len(blocks) > 1:
        improved = False
        for a, b in itertools.combinations(range(len(blocks)), 2):
            trial = [blk for i, blk in enumerate(blocks) if i not in (a, b)]
            trial.append(blocks[a] + blocks[b])
            val = split(trial).value
            if val < current - 1e-15:
                blocks, current, improved = trial, val, True
                break
    return StructureValue(value=min(current, trivial.value), exact=False)
