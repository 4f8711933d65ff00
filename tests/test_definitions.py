"""The reference constructions of ``definitions`` against the valuations
of ``mmdim.caratheodory``."""

from __future__ import annotations

import numpy as np
import pytest

from definitions import masked_packing_value, refined_packing_value
from mmdim.caratheodory import PACKING_P, value
from mmdim.systems import Potential
from test_caratheodory import full_shift, problem


class TestRefinedPacking:
    def test_refined_trivial_partition_matches(self):
        sys = full_shift()
        pts = sys.enumerate_points(2)
        prob = problem(sys, pts, Potential.constant(0.0), 0.6, N=1, n_max=2,
                       structure=PACKING_P)
        for lam in (0.0, 0.8):
            p = value(prob, lam).value
            refined = refined_packing_value(prob, lam, partition_cap=1)
            assert refined.value == pytest.approx(p)

    def test_refined_never_above_packing(self):
        sys = full_shift()
        pts = sys.enumerate_points(2)
        phi = Potential.from_table([0.3, 0.8])
        prob = problem(sys, pts, phi, 0.5, N=1, n_max=2, structure=PACKING_P)
        for lam in (0.0, 0.5, 1.5):
            assert refined_packing_value(prob, lam, partition_cap=4).value \
                <= value(prob, lam).value + 1e-12

    def test_refined_equals_packing_at_fixed_order_range(self):
        # splitting Z cannot help at desk scale: any disjoint family splits
        # by center block, so the per-block packing values add up to at
        # least the joint one; exhaustive partition enumeration confirms.
        sys = full_shift()
        pts = sys.enumerate_points(2)[:2]
        phi = Potential.from_table([0.3, 0.8])
        for lam in (0.2, 0.9, 2.0):
            prob = problem(sys, pts, phi, 0.5, N=1, n_max=3,
                           structure=PACKING_P)
            refined = refined_packing_value(prob, lam, partition_cap=2)
            assert refined.value == pytest.approx(
                value(prob, lam).value)


@pytest.mark.parametrize("exact_cap", [0, 8])  # greedy and exact packings
def test_full_mask_is_the_packing_value(exact_cap):
    sys = full_shift()
    prob = problem(sys, sys.enumerate_points(3),
                   Potential.from_table([0.3, 0.8]), 0.5, n_max=2,
                   structure=PACKING_P, exact_cap=exact_cap)
    every = np.ones(len(prob.points), dtype=bool)
    for lam in (0.0, 0.7, 2.0):
        assert masked_packing_value(prob, lam, every) == value(prob, lam)
