from __future__ import annotations

import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from mmdim.bowen import ball_masks
from mmdim.measures import wilson_interval
from mmdim.pressure import _logsumexp, pressure_sum
from mmdim.systems import Potential, ShiftSystem, combine
from pointwise import birkhoff_sum, bowen_distance

SYS = ShiftSystem(kind="full-shift", alphabet_size=2, window=12, eps_min=0.2)
GRID = ShiftSystem(kind="grid-shift", alphabet_size=3, window=12, eps_min=0.2)

words = st.lists(st.integers(0, 1), min_size=1, max_size=10)
grid_words = st.lists(st.integers(0, 2), min_size=1, max_size=10)


@settings(max_examples=80, deadline=None)
@given(words, words, words)
def test_metric_triangle_inequality(a, b, c):
    x, y, z = SYS.points([a]), SYS.points([b]), SYS.points([c])
    assert bowen_distance(SYS, x, z, 1) <= (
        bowen_distance(SYS, x, y, 1) + bowen_distance(SYS, y, z, 1) + 1e-12)


@settings(max_examples=80, deadline=None)
@given(grid_words, grid_words, st.integers(1, 4))
def test_bowen_metric_axioms(a, b, n):
    x, y = GRID.points([a]), GRID.points([b])
    d = bowen_distance(GRID, x, y, n)
    assert d >= 0
    assert d == pytest.approx(bowen_distance(GRID, y, x, n))
    if x == y:
        assert d == 0.0
    if n > 1:
        assert d >= bowen_distance(GRID, x, y, n - 1) - 1e-12


@settings(max_examples=60, deadline=None)
@given(grid_words, st.integers(1, 3), st.integers(1, 3))
def test_birkhoff_cocycle(word, n, m):
    phi = Potential.from_table([0.2, 0.7, 0.4])
    x = GRID.points([word])
    sx = GRID.points([x.symbols[0, n:]])  # sigma^n x
    lhs = birkhoff_sum(GRID, phi, x, n + m)
    rhs = birkhoff_sum(GRID, phi, x, n) + birkhoff_sum(GRID, phi, sx, m)
    assert lhs == pytest.approx(rhs)


@settings(max_examples=40, deadline=None)
@given(st.floats(0.1, 2.0), st.floats(0.1, 2.0),
       st.floats(0.15, 0.9), st.integers(1, 4))
def test_pressure_family_inequalities(b1, b2, eps, n):
    # Lipschitz and strict-decrease per-term mechanisms on a fixed witness
    pts = SYS.enumerate_points(4)[:6]
    phi = Potential.from_table([0.1, 0.6])
    psi = Potential.from_table([1.0, 1.5])
    L = math.log(1.0 / eps)

    def log_sum(beta):
        return pressure_sum(SYS, pts, combine(phi, psi, -beta, SYS), n, eps)

    assert abs(log_sum(b1) - log_sum(b2)) \
        <= abs(b1 - b2) * psi.norm * n * L + 1e-9
    lo, hi = min(b1, b2), max(b1, b2)
    assert log_sum(hi) <= log_sum(lo) - (hi - lo) * psi.min * n * L + 1e-9


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 500), st.integers(1, 500))
@example(0, 4)
@example(7, 0)
def test_wilson_interval_contains_point_estimate(hits, extra):
    samples = hits + extra
    lo, hi = wilson_interval(hits, samples)
    assert 0.0 <= lo <= hits / samples <= hi <= 1.0


@settings(max_examples=40, deadline=None)
@given(grid_words, grid_words, st.integers(1, 3),
       st.floats(0.1, 1.5))
def test_membership_consistent_with_distance(a, b, n, eps):
    x, y = GRID.points([a]), GRID.points([b])
    inside = bool(ball_masks(GRID, x.symbols, y.symbols, n, eps)[0, 0])
    d = bowen_distance(GRID, x, y, n)
    if inside:
        assert d < eps
    else:
        assert d + GRID.truncation_slack(n) >= eps


lse_entries = st.one_of(st.floats(-5.0, 5.0), st.floats(-800.0, 800.0),
                        st.sampled_from([math.inf, -math.inf]))


@st.composite
def lse_inputs(draw):
    values = draw(st.one_of(
        st.lists(lse_entries, max_size=300),
        st.integers(1, 6).map(lambda n: [-math.inf] * n)))
    if values and draw(st.booleans()):
        # ties at the maximum, placed anywhere
        values = values + [max(values)] * draw(st.integers(1, 4))
        values = draw(st.permutations(values))
    return np.asarray(values) if draw(st.booleans()) else list(values)


@settings(max_examples=400, deadline=None)
@given(lse_inputs())
@example([])
@example(np.array([]))
@example([2.5])
@example([-math.inf, -math.inf])
@example(np.array([1.0, 1.0, 0.5]))
@example([math.inf, -math.inf, 0.0])
def test_logsumexp_matches_scipy_bit_for_bit(values):
    ours = _logsumexp(values)
    theirs = float(logsumexp(values))
    assert isinstance(ours, float)
    assert struct.pack("<d", ours) == struct.pack("<d", theirs), \
        (ours, theirs)
