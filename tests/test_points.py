"""``Points``, the one point type, against the point windows it stands for.

Each reference pool below is built one ``Window`` at a time, the way
``enumerate_points`` and ``sample_points`` built their lists of single
points before a point became a one-row pool.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmdim.bowen import max_separated
from mmdim.errors import ConfigurationError, WindowExhaustedError
from mmdim.measures import MeasureModel
from mmdim.pressure import pressure_sum
from mmdim.systems import (
    CONSTANT,
    ONE_SIDED,
    TWO_SIDED,
    Points,
    Potential,
    ShiftSystem,
    check_genuine,
)

POOL_KINDS = ("enumerated", "product", "empirical")


@dataclass(frozen=True)
class Window:
    """A single point as a word padded to the window, coordinate j at
    ``symbols[origin + j]``; ``exact_tail`` marks the coordinates past the
    word as genuine zeros (enumerated words) or unknown (samples)."""

    symbols: tuple[int, ...]
    origin: int = 0
    exact_tail: bool = True

    def genuine_depth(self) -> float:
        """Coordinates from the origin onward that are known."""
        right = len(self.symbols) - self.origin
        return math.inf if self.exact_tail else float(right)


def stack(system: ShiftSystem, windows, exact_tail: bool) -> Points:
    return system.points([x.symbols for x in windows], exact_tail)


def reference_windows(system: ShiftSystem, kind: str, data) -> tuple:
    """``(pool, windows)``: a pool of the given kind and its point windows,
    built one at a time."""
    k, L, o = system.alphabet_size, system.word_length, system.origin_index
    if kind == "enumerated":
        depth = data.draw(st.integers(1, 3), label="depth")
        windows = [Window(symbols=word + (0,) * (L - depth), origin=o)
                   for word in itertools.product(range(k), repeat=depth)]
        return system.enumerate_points(depth), windows
    seed = data.draw(st.integers(0, 2 ** 16), label="seed")
    if kind == "empirical":
        support = system.enumerate_points(2)
        weights = np.random.default_rng(seed).random(len(support)) + 0.1
        mu = MeasureModel.empirical(system, support, weights / weights.sum())
    else:
        mu = MeasureModel.product_uniform(system, seed=seed)
    count = data.draw(st.integers(0, 12), label="count")
    stream = data.draw(st.integers(0, 5), label="stream")
    windows = [Window(symbols=tuple(int(a) for a in row), origin=o,
                      exact_tail=not mu.is_product)
               for row in mu.sample_matrix(count, stream)]
    return mu.sample_points(count, stream), windows


systems = st.builds(
    lambda k, sidedness, window: ShiftSystem(
        kind="full-shift", alphabet_size=k, sidedness=sidedness,
        window=window, eps_min=1.0),
    st.integers(2, 4), st.sampled_from([ONE_SIDED, TWO_SIDED]),
    st.integers(5, 8))


@settings(max_examples=60, deadline=None)
@given(systems, st.sampled_from(POOL_KINDS), st.data())
def test_pool_rows_are_the_windows_built_one_at_a_time(system, kind, data):
    pool, windows = reference_windows(system, kind, data)
    exact = kind != "product"
    assert len(pool) == len(windows)
    for i, x in enumerate(windows):
        got = pool[i]
        assert got == pool[i:i + 1] == pool[i - len(pool)]
        assert hash(got) == hash(pool[i:i + 1]) == hash(pool[i - len(pool)])
        assert (tuple(got.symbols[0].tolist()), got.origin, got.depth[0]) == \
            (x.symbols, x.origin, x.genuine_depth())
        assert x.exact_tail == exact and got == stack(system, [x], exact)
    assert list(pool) == [pool[i] for i in range(len(pool))]
    again = stack(system, windows, exact)
    assert again == pool and again is not pool
    assert hash(again) == hash(pool)
    assert system.as_points(pool) is pool
    mask = np.arange(len(pool)) % 2 == 0
    assert pool[mask] == stack(system, windows[::2], exact) == pool[::2]
    assert pool[[i - 1 for i in range(len(pool))]] == \
        stack(system, windows[-1:] + windows[:-1], exact)


@settings(max_examples=40, deadline=None)
@given(systems, st.integers(1, 3))
def test_enumerated_rows_follow_product_order(system, depth):
    pool = system.enumerate_points(depth)
    words = list(itertools.product(range(system.alphabet_size),
                                   repeat=depth))
    assert [tuple(row[:depth]) for row in pool.symbols.tolist()] == words
    assert not pool.symbols[:, depth:].any()
    assert pool == system.enumerate_points(depth)
    assert hash(pool) == hash(system.enumerate_points(depth))
    assert not pool.symbols.flags.writeable and not pool.depth.flags.writeable


def reference_check_genuine(phi: Potential, windows, orders) -> None:
    """``check_genuine`` as a loop over point windows: the orders in turn,
    each over every point."""
    if phi.kind == CONSTANT:
        return
    sampled = [x for x in windows if not x.exact_tail]
    r = phi.effective_range()
    for n in orders:
        for x in sampled:
            if n - 1 + r > x.genuine_depth():
                raise WindowExhaustedError(
                    f"Birkhoff sum of order {n} reads {n - 1 + r} coordinates "
                    f"but only {x.genuine_depth():.0f} are genuine")


def outcome(fn) -> str:
    try:
        fn()
    except WindowExhaustedError as exc:
        return f"raised: {exc}"
    return "passed"


@settings(max_examples=80, deadline=None)
@given(systems, st.sampled_from(POOL_KINDS), st.integers(1, 3),
       st.lists(st.integers(0, 12), max_size=4), st.data())
def test_check_genuine_names_the_same_first_failure(system, kind, r, orders,
                                                    data):
    pool, windows = reference_windows(system, kind, data)
    k = system.alphabet_size
    phi = Potential.from_range_table(np.linspace(0.1, 1.0, k ** r), r)
    got = outcome(lambda: check_genuine(phi, pool, orders))
    assert got == outcome(lambda: reference_check_genuine(phi, windows,
                                                           orders))


def test_as_points_rejects_a_longer_window():
    # max_separated once computed on the window-16 words as they were
    system = ShiftSystem(window=14, eps_min=0.05)
    words = ShiftSystem(window=16, eps_min=0.05).enumerate_points(3)
    with pytest.raises(ConfigurationError, match="word length 16"):
        max_separated(system, words, 2, 0.6)


def test_as_points_rejects_a_mixed_list():
    # numpy once raised a bare ValueError on the ragged rows; a pool is one
    # ``Points`` now, and a list of them is no pool
    system = ShiftSystem(window=14, eps_min=0.05)
    words = list(system.enumerate_points(2)) + list(
        ShiftSystem(window=16, eps_min=0.05).enumerate_points(2))
    with pytest.raises(ConfigurationError, match="expected Points, got list"):
        max_separated(system, words, 2, 0.6)
    two_sided = ShiftSystem(sidedness=TWO_SIDED, window=14, eps_min=0.05)
    with pytest.raises(ConfigurationError, match="origin 0"):
        two_sided.as_points(Points(np.zeros((1, two_sided.word_length)),
                                   [math.inf], 0))


def test_empirical_draws_keep_their_support_depth():
    # draws from a snapshot of sampled windows were once marked exact, so
    # a sum past the window read zeros there where the snapshot raised
    system = ShiftSystem(window=8, eps_min=1.0)
    snapshot = MeasureModel.product_uniform(system, seed=3).to_empirical(16)
    draws = snapshot.sample_points(32, stream=4)
    assert np.array_equal(draws.symbols, snapshot.sample_matrix(32, stream=4))
    assert set(snapshot.support.depth) == set(draws.depth) == {8.0}
    phi = Potential.from_table([0.2, 0.7])
    for pool in (snapshot.support, draws):
        with pytest.raises(WindowExhaustedError):
            pressure_sum(system, pool, phi, 12, 0.5)
