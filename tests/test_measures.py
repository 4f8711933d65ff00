from __future__ import annotations

import math
import statistics

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mmdim import bowen, measures
from mmdim.bowen import ball_masks, centre_exits, max_separated
from mmdim.errors import (ConfigurationError, PoolInsufficientError,
                          WindowExhaustedError)
from mmdim.measures import (
    MeasureModel,
    ball_mass_bracket,
    bracket_reach,
    brin_katok,
    bs_entropy,
    estimate_ball_mass,
    exact_cylinder_bracket,
    generic_subset,
    katok_entropy,
    katok_rn,
    ps_entropy,
    wilson_interval,
)
from mmdim.solvers import greedy_weighted_cover
from mmdim.systems import ABSOLUTE, DISCRETE, Potential, ShiftSystem
from test_solvers import one_part


def grid_system(eps, two_sided=False):
    k = math.ceil(1.0 / eps)
    window = max(16, int(math.ceil(math.log2(40.0 / eps))))
    sided = "two-sided" if two_sided else "one-sided"
    return ShiftSystem(kind="grid-shift", alphabet_size=k, window=window,
                       eps_min=eps / 2, sidedness=sided)


def full_shift(k=2, window=14, eps_min=0.05):
    return ShiftSystem(kind="full-shift", alphabet_size=k, window=window,
                       eps_min=eps_min)


class TestMeasureModel:
    def test_probability_vector_checked(self):
        sys = full_shift()
        with pytest.raises(ConfigurationError):
            MeasureModel.bernoulli(sys, [0.7, 0.7])

    @pytest.mark.parametrize("p", [(1.5, -0.5), (math.nan, 0.5),
                                   (math.inf, 0.0)])
    def test_negative_or_non_finite_probabilities_rejected(self, p):
        # the sums 1.0 and nan both pass the tolerance test on the sum
        sys = full_shift()
        with pytest.raises(ConfigurationError, match="non-negative"):
            MeasureModel.bernoulli(sys, p)

    def test_empirical_weights_checked(self):
        sys = full_shift()
        pts = sys.enumerate_points(2)
        with pytest.raises(ConfigurationError):
            MeasureModel.empirical(sys, pts, [0.5, 0.5, 0.5, 0.5])
        for bad in ([math.nan, 0.5, 0.25, 0.25], [math.inf, 0, 0, 0]):
            with pytest.raises(ConfigurationError, match="finite"):
                MeasureModel.empirical(sys, pts, bad)

    def test_sampling_deterministic(self):
        sys = full_shift()
        mu = MeasureModel.bernoulli(sys, [0.3, 0.7], seed=11)
        a = mu.sample_matrix(50, stream=2)
        b = mu.sample_matrix(50, stream=2)
        assert (a == b).all()
        c = mu.sample_matrix(50, stream=3)
        assert not (a == c).all()

    def test_support_matrix_is_built_once_and_read_only(self):
        sys = full_shift()
        pts = sys.enumerate_points(3)
        mu = MeasureModel.empirical(sys, pts)
        Z = mu.support.symbols
        assert Z is mu.support.symbols
        assert (Z == pts.symbols).all() and not Z.flags.writeable
        assert mu == MeasureModel.empirical(sys, pts)

    def test_coordinate_mass(self):
        sys = grid_system(1.0 / 8)
        mu = MeasureModel.product_uniform(sys)
        k = sys.alphabet_size
        # symbols within open radius 1.5/k of symbol 0: {0, 1}
        assert mu.coordinate_mass_within(0, 1.5 / k) == pytest.approx(2.0 / k)


def _choice_reference(mu, count, stream):
    """``sample_matrix`` as ``Generator.choice`` draws it."""
    rng = mu.rng(stream)
    if mu.is_product:
        return rng.choice(mu.system.alphabet_size,
                          size=(count, mu.system.word_length),
                          p=np.asarray(mu.p))
    idx = rng.choice(len(mu.support), size=count,
                     p=np.asarray(mu.support_weights))
    return mu.support.symbols[idx]


@st.composite
def probability_vectors(draw, max_k=64, positive=False):
    """Probability vectors with zeros, ties and skew: uniform, a few large
    entries among tiny ones (several CDF points per guide bucket), or
    arbitrary weights raised to a power."""
    k = draw(st.integers(1, max_k))
    low = 1e-9 if positive else 0.0
    shape = draw(st.sampled_from(["uniform", "spiky", "power"]))
    if shape == "uniform":
        w = np.ones(k)
    elif shape == "spiky":
        w = np.array(draw(st.lists(st.sampled_from([low, 1e-6, 1e-3, 1.0]),
                                   min_size=k, max_size=k)))
    else:
        w = np.array(draw(st.lists(st.floats(low, 1.0), min_size=k,
                                   max_size=k)))
        w **= draw(st.sampled_from([1, 4, 16]))
        w = np.maximum(w, low)
    if not w.any():
        w[draw(st.integers(0, k - 1))] = 1.0
    return tuple((w / w.sum()).tolist())


def _count(chunk, which):
    return {"one": 1, "below": chunk - 1, "at": chunk,
            "above": chunk + 1}.get(which, which)


SAMPLE_COUNTS = st.sampled_from(["one", "below", "at", "above"]) | \
    st.integers(0, 300)


class TestSampleMatrix:
    @settings(max_examples=60, deadline=None)
    @given(p=probability_vectors(), window=st.integers(4, 7),
           which=SAMPLE_COUNTS, seed=st.integers(0, 2 ** 32 - 1),
           stream=st.integers(0, 10 ** 6))
    @example(p=(0.01, 0.01, 0.01, 0.97), window=4, which="above", seed=1,
             stream=0)
    @example(p=(0.0, 0.5, 0.0, 0.5, 0.0), window=5, which=40, seed=2,
             stream=3)
    def test_product_draws_match_generator_choice(self, p, window, which,
                                                  seed, stream):
        sys = ShiftSystem(kind="full-shift", alphabet_size=len(p),
                          window=window, eps_min=0.9)
        mu = MeasureModel.bernoulli(sys, p, seed=seed)
        count = _count(measures.SAMPLE_CHUNK // window, which)
        got = mu.sample_matrix(count, stream)
        want = _choice_reference(mu, count, stream)
        assert got.dtype == sys.symbol_dtype and want.dtype == np.int64
        assert got.shape == (count, window)
        assert np.array_equal(got, want)

    @settings(max_examples=30, deadline=None)
    @given(w=probability_vectors(positive=True),
           which=SAMPLE_COUNTS, seed=st.integers(0, 2 ** 32 - 1))
    def test_empirical_draws_match_generator_choice(self, w, which, seed):
        sys = full_shift(k=2, window=6, eps_min=0.5)
        pts = sys.enumerate_points(6)[:len(w)]
        mu = MeasureModel.empirical(sys, pts, w, seed=seed)
        count = _count(measures.SAMPLE_CHUNK, which)
        got = mu.sample_matrix(count, stream=4)
        if count:
            want = _choice_reference(mu, count, stream=4)
            assert want.dtype == np.int64
            assert np.array_equal(got, want)
        assert got.dtype == sys.symbol_dtype and got.shape == (count, 6)

    @settings(max_examples=60, deadline=None)
    @given(p=probability_vectors())
    @example(p=(0.5, 0.5))
    @example(p=(0.25, 0.0, 0.0, 0.75))
    def test_guide_table_inverts_the_cdf_at_its_own_points(self, p):
        # uniforms that land exactly on a CDF point or a bucket edge, where
        # searchsorted's side="right" decides the symbol
        cdf = np.asarray(p).cumsum()
        cdf /= cdf[-1]
        edges = np.arange(1024) / 1024
        u = np.concatenate([cdf, np.nextafter(cdf, 0), edges,
                            np.nextafter(edges[1:], 0), [1 - 2.0 ** -53]])
        u = u[u < 1.0]

        class Uniforms:
            def __init__(self):
                self.at = 0

            def random(self, shape):
                n = math.prod(shape)
                self.at += n
                return u[self.at - n:self.at].reshape(shape)

        got = measures._choice_into(Uniforms(), p,
                                    np.empty(len(u), dtype=np.int64))
        assert np.array_equal(got, np.searchsorted(cdf, u, side="right"))


class TestBallMassBracket:
    def test_paper_example_eps_eighth(self):
        sys = grid_system(1.0 / 8)
        mu = MeasureModel.product_uniform(sys)
        x = mu.sample_points(1, stream=5)[0]
        lo, hi = ball_mass_bracket(mu, x, 2, 1.0 / 8)
        assert bracket_reach(1.0 / 8) == 6
        assert lo == pytest.approx((1.0 / 48.0) ** 14)
        assert hi == pytest.approx((1.0 / 2.0) ** 2)

    def test_degenerate_order_zero(self):
        # orders below 1 once gave (0, 1) at n = 0 and upper bounds past 1
        # on a probability below it, e.g. 64 at n = -3
        sys = grid_system(1.0 / 16)
        mu = MeasureModel.product_uniform(sys)
        x = mu.sample_points(1, stream=5)[0]
        for bracket in (ball_mass_bracket, exact_cylinder_bracket):
            for n in (0, -1):
                with pytest.raises(ConfigurationError, match="order"):
                    bracket(mu, x, n, 1.0 / 16)

    def test_eps_too_large(self):
        sys = grid_system(1.0 / 8)
        mu = MeasureModel.product_uniform(sys)
        x = mu.sample_points(1, stream=5)[0]
        with pytest.raises(ConfigurationError):
            ball_mass_bracket(mu, x, 2, 0.3)

    def test_exact_bracket_nested_in_closed_form(self):
        for eps in (2.0 ** -4, 2.0 ** -5):
            sys = grid_system(eps)
            mu = MeasureModel.product_uniform(sys, seed=9)
            for x in mu.sample_points(5, stream=1):
                for n in range(1, 7):
                    glo, ghi = exact_cylinder_bracket(mu, x, n, eps)
                    clo, chi = ball_mass_bracket(mu, x, n, eps)
                    assert clo <= glo <= ghi <= chi
                    assert glo > 0

    @pytest.mark.parametrize("p", [None, (0.1, 0.2, 0.3, 0.15, 0.25)])
    def test_exact_bracket_is_the_product_of_marginals(self, p):
        # the per-(measure, radius) marginals give the same bits as
        # multiplying coordinate_mass_within coordinate by coordinate
        eps = 2.0 ** -3
        sys = grid_system(eps) if p is None else ShiftSystem(
            kind="grid-shift", alphabet_size=5, window=16, eps_min=eps / 2)
        mu = (MeasureModel.product_uniform(sys, seed=3) if p is None
              else MeasureModel.bernoulli(sys, p, seed=3))
        r = bracket_reach(eps)
        for x in mu.sample_points(3, stream=2):
            word = x.symbols[0, x.origin:].tolist()
            for n in range(1, 5):
                lo = hi = 1.0
                for i in range(n + r):
                    lo *= mu.coordinate_mass_within(word[i], eps / 6)
                for j in range(n):
                    hi *= mu.coordinate_mass_within(word[j], eps)
                assert exact_cylinder_bracket(mu, x, n, eps) == (lo, hi)

    def test_exact_bracket_contains_true_mass_small_model(self):
        # brute force over an enumerated two-symbol grid model
        eps = 0.24
        sys = ShiftSystem(kind="grid-shift", alphabet_size=2, window=16,
                          eps_min=0.1)
        mu = MeasureModel.product_uniform(sys, seed=1)
        depth = 8
        pool = sys.enumerate_points(depth)
        # empirical snapshot of the product measure truncated to depth
        Z = pool.symbols
        for x in pool[:3]:
            for n in (1, 2):
                inside = ball_masks(sys, x.symbols, Z, n, eps)
                mass = float(inside.sum()) / len(pool)
                lo, hi = exact_cylinder_bracket(mu, x, n, eps)
                # the enumerated tail is all zeros, so compare loosely on
                # the lower side and strictly on the necessary-condition side
                assert mass <= hi + 1e-12


class TestEstimateBallMass:
    def test_wilson_interval_basics(self):
        lo, hi = wilson_interval(0, 1000)
        assert lo == 0.0 and 0 < hi < 0.02
        lo, hi = wilson_interval(500, 1000)
        assert lo < 0.5 < hi

    def test_radius_beyond_diameter(self):
        sys = grid_system(1.0 / 4)
        mu = MeasureModel.product_uniform(sys, seed=2)
        x = mu.sample_points(1, stream=4)[0]
        est = estimate_ball_mass(mu, x, 1, 10.0, samples=2000)
        assert est.p_hat == 1.0

    def test_zero_hits_flagged(self):
        eps = 2.0 ** -5
        sys = grid_system(eps)
        mu = MeasureModel.product_uniform(sys, seed=2)
        x = mu.sample_points(1, stream=4)[0]
        est = estimate_ball_mass(mu, x, 6, eps, samples=2000)
        assert est.zero_hits
        assert est.ci[0] == 0.0

    def test_estimate_consistent_with_exact_bracket(self):
        eps = 2.0 ** -4
        sys = grid_system(eps)
        mu = MeasureModel.product_uniform(sys, seed=7)
        for x in mu.sample_points(2, stream=3):
            for n in (1, 2, 3):
                est = estimate_ball_mass(mu, x, n, eps, samples=40_000)
                lo, hi = exact_cylinder_bracket(mu, x, n, eps)
                assert not est.refutes(lo, hi)

    def test_empirical_exact_path(self):
        sys = full_shift()
        pts = sys.enumerate_points(3)
        mu = MeasureModel.empirical(sys, pts)
        est = estimate_ball_mass(mu, pts[0], 2, 0.6, samples=5000)
        assert est.ci[0] == est.ci[1] == est.p_hat

    def test_order_past_reliable_depth_rejected(self):
        # window 12 at eps 0.4 is reliable to order 8; at order 12 the
        # slack (0.5) exceeds eps, the centre leaves its own ball, and both
        # masses read 0
        sys = ShiftSystem(kind="grid-shift", alphabet_size=3, window=12,
                          eps_min=0.1)
        eps = 0.4
        assert sys.max_reliable_order(eps) == 8
        assert sys.truncation_slack(12) == 0.5
        product = MeasureModel.product_uniform(sys, seed=3)
        x = product.sample_points(1, stream=4)[0]
        point = MeasureModel.point_mass(sys, x)
        est = estimate_ball_mass(product, x, 8, eps, samples=2000)
        assert 0 <= est.hits <= est.samples == 2000
        assert est.p_hat == est.hits / 2000
        assert est.ci == wilson_interval(est.hits, 2000)
        assert est.zero_hits == (est.hits == 0)
        assert point.empirical_ball_mass(x, 8, eps) == 1.0
        for n in (9, 12):
            for mu in (product, point):
                with pytest.raises(WindowExhaustedError,
                                   match="reliable depth 8"):
                    estimate_ball_mass(mu, x, n, eps, samples=2000)
            with pytest.raises(WindowExhaustedError, match="reliable depth"):
                point.empirical_ball_mass(x, n, eps)

    def test_order_zero_rejected(self):
        sys = full_shift()
        product = MeasureModel.product_uniform(sys, seed=3)
        x = product.sample_points(1, stream=4)[0]
        with pytest.raises(ConfigurationError):
            estimate_ball_mass(product, x, 0, 0.6, samples=2000)
        pts = sys.enumerate_points(3)
        empirical = MeasureModel.empirical(sys, pts)
        with pytest.raises(ConfigurationError):
            estimate_ball_mass(empirical, pts[0], 0, 0.6, samples=2000)


def _reference_hits(mu, x, n, eps, samples, stream):
    """Hits of B_n(x, eps) over the estimator's sample blocks, drawn as it
    draws them: the origin column by ``Generator.choice``, then the other
    coordinates of the rows in x's origin cylinder (every row without the
    cylinder rule).  The rows outside it are completed from an independent
    stream and counted too, so a hit the estimator skips would show."""
    sys = mu.system
    k, L, o = sys.alphabet_size, sys.word_length, sys.origin_index
    floor = 1.0 if sys.symbol_metric == DISCRETE else 1.0 / k
    p = np.asarray(mu.p)
    hits, C = 0, x.symbols
    for bi, done in enumerate(range(0, samples, 20_000)):
        count = min(20_000, samples - done)
        rng = mu.rng(stream * 1000 + bi)
        Y = np.empty((count, L), dtype=np.int64)
        Y[:, o] = rng.choice(k, size=count, p=p)
        drawn = Y[:, o] == C[0, o] if eps <= floor else np.ones(count, bool)
        others = np.arange(L) != o
        Y[np.ix_(drawn, others)] = rng.choice(
            k, size=(int(drawn.sum()), L - 1), p=p)
        filler = np.random.default_rng((stream, bi))
        Y[np.ix_(~drawn, others)] = filler.choice(
            k, size=(count - int(drawn.sum()), L - 1), p=p)
        hits += int(ball_masks(sys, C, Y, n, eps).sum())
    return hits


def _full_row_hits(mu, x, n, eps, samples, stream):
    """Hits of B_n(x, eps) over whole sampled rows (``sample_matrix``)."""
    hits = 0
    for bi, done in enumerate(range(0, samples, 20_000)):
        Y = mu.sample_matrix(min(20_000, samples - done), stream * 1000 + bi)
        hits += int(ball_masks(mu.system, x.symbols, Y, n, eps).sum())
    return hits


_MEMO_MODELS = {
    "grid-k3": (ShiftSystem(kind="grid-shift", alphabet_size=3, window=12,
                            eps_min=0.1), None, 0.4),
    "grid-k7-two-sided": (ShiftSystem(kind="grid-shift", alphabet_size=7,
                                      window=10, sidedness="two-sided",
                                      eps_min=0.1), None, 0.5),
    "grid-k10-w0.3": (ShiftSystem(kind="grid-shift", alphabet_size=10,
                                  window=10, weight_base=0.3, eps_min=0.1),
                      None, 0.25),
    "bernoulli": (full_shift(k=3, window=12), (0.2, 0.5, 0.3), 0.6),
}
# and two at the symbol floor, where the ball-mass estimator draws in full
# only the rows in the centre's origin cylinder
_BALL_MODELS = {
    **_MEMO_MODELS,
    "grid-k3-floor": (ShiftSystem(kind="grid-shift", alphabet_size=3,
                                  window=12, eps_min=0.1), None, 1.0 / 3),
    "grid-k5-two-sided-floor": (ShiftSystem(
        kind="grid-shift", alphabet_size=5, window=12,
        sidedness="two-sided", eps_min=0.1), None, 0.2),
}


class TestBallMassMemo:
    @pytest.mark.parametrize("name", sorted(_BALL_MODELS))
    def test_every_order_matches_per_order_masks(self, name):
        sys, p, eps = _BALL_MODELS[name]
        mu = (MeasureModel.product_uniform(sys, seed=17) if p is None
              else MeasureModel.bernoulli(sys, p, seed=17))
        x = mu.sample_points(1, stream=5)[0]
        measures._sampled_hits.cache_clear()
        samples, stream = 30_000, 7
        depth = sys.max_reliable_order(eps)
        for n in (5, 1, 3, depth, 2):
            est = estimate_ball_mass(mu, x, n, eps, samples=samples,
                                     stream=stream)
            assert est.hits == _reference_hits(mu, x, n, eps, samples,
                                               stream)
            assert est.p_hat == est.hits / samples
        # past the reliable depth the slack, not the ball, would decide
        for n in (depth + 1, sys.window, sys.window + 2):
            with pytest.raises(WindowExhaustedError):
                estimate_ball_mass(mu, x, n, eps, samples=samples,
                                   stream=stream)
        assert estimate_ball_mass(mu, x, 1, eps, samples=samples,
                                  stream=stream).hits > 0

    def test_one_draw_serves_every_order(self, monkeypatch):
        eps = 2.0 ** -4
        mu = MeasureModel.product_uniform(grid_system(eps), seed=5)
        x = mu.sample_points(1, stream=3)[0]
        streams, origins = [], []
        rng, choice_into = MeasureModel.rng, measures._choice_into

        def counted_rng(self, stream=0):
            streams.append(stream)
            return rng(self, stream)

        def counted_draws(gen, p, out):
            if out.ndim == 1:
                origins.append(len(out))
            return choice_into(gen, p, out)

        monkeypatch.setattr(MeasureModel, "rng", counted_rng)
        monkeypatch.setattr(measures, "_choice_into", counted_draws)
        measures._sampled_hits.cache_clear()
        samples = 50_000
        for n in range(1, 7):
            estimate_ball_mass(mu, x, n, eps, samples=samples, stream=2)
        assert streams == [2000, 2001, 2002]  # one generator per block
        assert origins == [20_000, 20_000, 10_000]

    @pytest.mark.parametrize("name", sorted(_BALL_MODELS))
    def test_hits_calibrated_against_full_rows(self, name):
        # the origin-first draw and whole rows, on independent streams,
        # agree under a two-sample binomial z-test, Bonferroni over the
        # 4 orders of each of the models (fixed seeds, so no flake)
        sys, p, eps = _BALL_MODELS[name]
        mu = (MeasureModel.product_uniform(sys, seed=23) if p is None
              else MeasureModel.bernoulli(sys, p, seed=23))
        x = mu.sample_points(1, stream=5)[0]
        samples, orders = 60_000, (1, 2, 3, 5)
        z = statistics.NormalDist().inv_cdf(
            1 - 0.01 / (2 * len(orders) * len(_BALL_MODELS)))
        for n in orders:
            a = estimate_ball_mass(mu, x, n, eps, samples=samples,
                                   stream=3).hits
            b = _full_row_hits(mu, x, n, eps, samples, stream=4)
            pooled = (a + b) / (2 * samples)
            if 0 < pooled < 1:
                se = math.sqrt(pooled * (1 - pooled) * 2 / samples)
                assert abs(a - b) / samples <= z * se, (n, a, b)
            else:
                assert a == b, (n, a, b)


@pytest.mark.parametrize("metric", [DISCRETE, ABSOLUTE])
@pytest.mark.parametrize("sidedness", ["one-sided", "two-sided"])
@settings(max_examples=25, deadline=None)
@given(st.integers(2, 6), st.integers(1, 6), st.integers(0, 2 ** 32 - 1),
       st.sampled_from(["below", "at", "above"]))
def test_rows_outside_the_origin_cylinder_exit_at_order_1(
        sidedness, metric, k, window, seed, where):
    sys = ShiftSystem(kind="full-shift", alphabet_size=k, window=window,
                      sidedness=sidedness, symbol_metric=metric,
                      eps_min=40.0 * 0.5 ** window)
    o = sys.origin_index
    floor = 1.0 if metric == DISCRETE else 1.0 / k
    eps = {"below": float(np.nextafter(floor, 0.0)), "at": floor,
           "above": float(np.nextafter(floor, 2.0))}[where]
    mu = MeasureModel.product_uniform(sys, seed=seed % 1000)
    x = mu.sample_points(1, stream=1)[0]
    # the estimator skips a row's completion only under the cylinder rule
    shortcut = bowen._prefix_runs(sys, x.symbols, 1, eps) is not None
    assert shortcut == (where != "above")
    rng = np.random.default_rng(seed)
    Y = rng.integers(0, k, size=(200, sys.word_length))
    Y[:, o] = (x.symbols[0, o] + rng.integers(1, k, size=200)) % k
    if shortcut:  # every completion of an outside row leaves at order 1
        assert not ball_masks(sys, x.symbols, Y, 1, eps).any()
        assert (centre_exits(sys, x.symbols, Y, eps, window) == 1).all()
    hits = measures._sampled_hits(mu, x, eps, 500, window, 9)
    assert hits == tuple(_reference_hits(mu, x, n, eps, 500, 9)
                         for n in range(1, window + 1))


class TestCentre:
    """A ball's centre is a one-row ``Points``; the values below are those
    of the same sampled centre read as a single point window."""

    def model(self):
        eps = 2.0 ** -3
        sys = ShiftSystem(kind="grid-shift", alphabet_size=8, window=16,
                          eps_min=eps / 2)
        mu = MeasureModel.product_uniform(sys, seed=3)
        return sys, mu, mu.sample_points(4, stream=2), eps

    def test_pinned_values(self):
        sys, mu, pool, eps = self.model()
        x = pool[1]
        est = estimate_ball_mass(mu, x, 2, eps, samples=20_000, stream=5)
        assert (est.hits, est.p_hat, est.ci) == (
            18, 0.0009, (0.0004949059096731796, 0.0016361319595821124))
        assert ball_mass_bracket(mu, x, 3, eps) == (6.044793084158974e-26,
                                                    0.125)
        assert exact_cylinder_bracket(mu, x, 3, eps) == (
            7.450580596923828e-09, 0.001953125)
        # past the stored word (n > window) the coordinates read 0
        assert exact_cylinder_bracket(mu, x, sys.window + 3, eps) == (
            3.552713678800501e-15, 6.938893903907228e-18)
        emp = MeasureModel.empirical(sys, pool)
        assert emp.empirical_ball_mass(x, 1, 0.6) == 0.75
        assert estimate_ball_mass(emp, x, 1, 0.6).p_hat == 0.75

    def test_an_equal_centre_hits_the_memo(self):
        sys, mu, pool, eps = self.model()
        measures._sampled_hits.cache_clear()
        first = estimate_ball_mass(mu, pool[1], 2, eps, samples=20_000)
        again = sys.points([pool.symbols[1].tolist()], exact_tail=False)
        assert again is not pool[1] and again == pool[1]
        assert estimate_ball_mass(mu, again, 2, eps,
                                  samples=20_000) == first
        assert measures._sampled_hits.cache_info().hits == 1

    def test_a_centre_is_one_point_of_the_system(self):
        sys, mu, pool, eps = self.model()
        other = ShiftSystem(kind="grid-shift", alphabet_size=8, window=17,
                            eps_min=eps / 2).points([[0]])
        for x in (pool[:2], other):
            with pytest.raises(ConfigurationError):
                exact_cylinder_bracket(mu, x, 3, eps)
            with pytest.raises(ConfigurationError):
                estimate_ball_mass(mu, x, 2, eps, samples=20_000)
            with pytest.raises(ConfigurationError):
                MeasureModel.empirical(sys, pool).empirical_ball_mass(
                    x, 1, 0.6)

    def test_the_closed_form_checks_its_centre(self):
        # the bound does not depend on the centre, but a centre that is not
        # one point of the system is rejected as by the other three
        sys, mu, pool, eps = self.model()
        other = ShiftSystem(kind="grid-shift", alphabet_size=8, window=17,
                            eps_min=eps / 2).points([[0]])
        for x in (pool[:2], [0] * sys.word_length, other):
            with pytest.raises(ConfigurationError):
                ball_mass_bracket(mu, x, 3, eps)


class TestBrinKatok:
    def test_uniform_bernoulli_log_k(self):
        for k in (2, 3):
            sys = full_shift(k=k)
            mu = MeasureModel.bernoulli(sys, [1.0 / k] * k, seed=5)
            for bound in ("lower", "upper"):
                est = brin_katok(mu, 0.5, range(1, 9), x_samples=16,
                                 bound=bound)
                assert est.extrapolated == pytest.approx(math.log(k), abs=0.1)

    def test_product_uniform_window(self):
        eps = 1.0 / 16
        sys = grid_system(eps)
        mu = MeasureModel.product_uniform(sys, seed=5)
        lo = brin_katok(mu, eps, range(1, 7), x_samples=16, bound="lower")
        hi = brin_katok(mu, eps, range(1, 7), x_samples=16, bound="upper")
        assert math.log(1.0 / (4 * eps)) - 1e-9 <= lo.extrapolated
        assert hi.extrapolated <= math.log(6.0 / eps) + 1e-9
        assert lo.extrapolated <= hi.extrapolated

    def test_point_mass_zero(self):
        sys = full_shift()
        mu = MeasureModel.point_mass(sys, sys.points([[0] * 8]))
        est = brin_katok(mu, 0.5, range(1, 6), bound="lower")
        assert est.extrapolated == pytest.approx(0.0, abs=1e-12)

    def test_two_sided_window(self):
        eps = 1.0 / 16
        k = 16
        sys = ShiftSystem(kind="grid-shift", alphabet_size=k, window=14,
                          eps_min=eps / 2, sidedness="two-sided")
        mu = MeasureModel.product_uniform(sys, seed=5)
        lo = brin_katok(mu, eps, range(1, 6), x_samples=8, bound="lower")
        hi = brin_katok(mu, eps, range(1, 6), x_samples=8, bound="upper")
        assert math.log(1.0 / (4 * eps)) - 1e-9 <= lo.extrapolated
        assert hi.extrapolated <= math.log(6.0 / eps) + 1e-9

    def test_lower_below_upper_everywhere(self):
        sys = full_shift()
        mu = MeasureModel.bernoulli(sys, [0.2, 0.8], seed=6)
        for eps in (0.6, 0.3):
            lo = brin_katok(mu, eps, range(1, 9), x_samples=24, bound="lower")
            hi = brin_katok(mu, eps, range(1, 9), x_samples=24, bound="upper")
            assert lo.extrapolated <= hi.extrapolated + 1e-12


class TestBSEntropy:
    def test_unit_potential_collapses_to_bk(self):
        sys = full_shift()
        mu = MeasureModel.bernoulli(sys, [0.5, 0.5], seed=5)
        bk = brin_katok(mu, 0.5, range(1, 9), x_samples=16, bound="lower")
        bs = bs_entropy(mu, Potential.constant(1.0), 0.5, range(1, 9),
                        x_samples=16, bound="lower")
        assert bk.extrapolated == bs.extrapolated
        assert bk.per_scale == bs.per_scale

    def test_constant_two_halves(self):
        sys = full_shift()
        mu = MeasureModel.bernoulli(sys, [0.5, 0.5], seed=5)
        bk = brin_katok(mu, 0.5, range(1, 9), x_samples=16, bound="lower")
        bs = bs_entropy(mu, Potential.constant(2.0), 0.5, range(1, 9),
                        x_samples=16, bound="lower")
        assert bs.extrapolated == pytest.approx(bk.extrapolated / 2.0)

    def test_table_potential_ratio(self):
        sys = full_shift()
        mu = MeasureModel.bernoulli(sys, [0.5, 0.5], seed=5)
        phi = Potential.from_table([0.5, 1.5])
        target = math.log(2.0) / 1.0  # h / integral of phi
        for bound in ("lower", "upper"):
            est = bs_entropy(mu, phi, 0.5, range(1, 9), x_samples=48,
                             bound=bound)
            assert abs(est.extrapolated - target) / target < 0.15

    def test_positive_phi_required(self):
        sys = full_shift()
        mu = MeasureModel.bernoulli(sys, [0.5, 0.5], seed=5)
        with pytest.raises(ConfigurationError):
            bs_entropy(mu, Potential.constant(0.0), 0.5, range(1, 5))


# no signed zeros: numpy's partition and a sort may order 0.0 and -0.0
# differently, and the quantile then differs in its sign bit alone
FINITE = st.floats(allow_nan=False, allow_infinity=False).map(
    lambda v: v + 0.0)


@settings(max_examples=300, deadline=None)
@given(values=st.lists(FINITE, min_size=1, max_size=60),
       q=st.one_of(st.sampled_from([0.0, 0.025, 0.5, 0.975, 1.0]),
                   st.floats(0.0, 1.0)))
@example(values=[0.0, 1.0, 2.0, 3.0], q=0.5)
@example(values=[1.0, 1e308, -1e308], q=0.975)
@example(values=[1.7976931348623155e+308, -2.9937604643020797e+292], q=0.0)
def test_quantile_equals_numpy_bit_for_bit(values, q):
    values = np.array(values)
    # numpy warns where b - a overflows, which _quantile does not; the
    # reference is computed without the warning, and must match to the bit
    with np.errstate(over="ignore", invalid="ignore"):
        want = np.quantile(values, q)
    got = measures._quantile(values, q)
    assert np.float64(got).tobytes() == np.float64(want).tobytes(), \
        (got, want)


def reference_bootstrap_ci(values, rng):
    """The percentile bootstrap drawn one resample at a time."""
    if len(values) == 1:
        return float(values[0]), float(values[0])
    means = np.array([
        values[rng.integers(0, len(values), size=len(values))].mean()
        for _ in range(measures.BOOTSTRAP_RESAMPLES)
    ])
    return measures._quantile(means, 0.025), measures._quantile(means, 0.975)


@pytest.mark.parametrize("n", [1, 2, 3, 12, 17, 32])
def test_bootstrap_in_one_draw_matches_a_draw_per_resample(n):
    for stream in range(5):
        values = np.random.default_rng([n, stream]).normal(size=n)
        got_rng = np.random.default_rng(stream)
        want_rng = np.random.default_rng(stream)
        for _ in range(2):  # and again from the state each call leaves
            got = measures._bootstrap_ci(values, got_rng)
            want = reference_bootstrap_ci(values, want_rng)
            assert np.array(got).tobytes() == np.array(want).tobytes()
            assert (got_rng.bit_generator.state
                    == want_rng.bit_generator.state)


def exact_cylinder_model(k=2, depth=10, seed=3):
    sys = ShiftSystem(kind="full-shift", alphabet_size=k, window=depth + 4,
                      eps_min=0.05)
    pool = sys.enumerate_points(depth)
    return sys, pool, MeasureModel.empirical(sys, pool, seed=seed)


class TestKatok:
    def test_delta_near_one(self):
        sys, pool, mu = exact_cylinder_model(depth=6)
        kc = katok_rn(mu, 2, 0.5, 0.98)
        assert kc.count == 1

    def test_radius_beyond_diameter(self):
        sys, pool, mu = exact_cylinder_model(depth=6)
        kc = katok_rn(mu, 1, 10.0, 0.5)
        assert kc.count == 1

    def test_exact_small_instance(self):
        # uniform on depth-6 binary words, n=3, delta=1/2: any Bowen ball
        # has mass at most 2^-3, so more than half the mass needs at least
        # five balls; the greedy cover attains five, hence five is exact.
        sys, pool, mu = exact_cylinder_model(depth=6)
        kc = katok_rn(mu, 3, 0.9, 0.5)
        assert kc.count == 5

    def test_exact_count_reports_the_mass_its_cover_reaches(self):
        # the 8 words of depth 3 weigh 1/36..8/36; at order 2 and eps 0.4
        # each ball holds its centre alone, so three balls are needed, and
        # the three the search finds weigh 19/36, not the target 1/2
        sys = full_shift()
        mu = MeasureModel.empirical(sys, sys.enumerate_points(3),
                                    (np.arange(1, 9) / 36).tolist())
        kc = katok_rn(mu, 2, 0.4, 0.5)
        assert (kc.count, kc.exact) == (3, True)
        assert kc.covered_mass == pytest.approx(19 / 36) and \
            kc.covered_mass > 0.5

    def test_greedy_count_allocates_no_float_copy_of_the_balls(self):
        # one |pool| x |support| float64 array of this 1,024-word pool is
        # 8 MiB; the peak was 9.0 MiB with one and is 2.1 MiB without
        import tracemalloc
        sys = grid_system(0.5)
        pool = sys.enumerate_points(10)
        mu = MeasureModel.empirical(sys, pool)
        bowen.pool_exits.cache_clear()
        bowen.pool_exits(sys, pool, 0.5, 3)  # as katok_entropy does
        tracemalloc.start()
        try:
            kc = katok_rn(mu, 3, 0.5, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (kc.count, kc.exact) == (5, False)
        assert peak < 4 * 2 ** 20

    def test_greedy_count_reads_the_exits_uncopied(self):
        # below the pass's depth the count reads the memo's own exits, with
        # no capped copy and no bool membership of the 1,024-word pool
        # (1 MiB each, 2.15 MiB peak with both); the first gains' float
        # block (1 MiB) is now the peak, about 1.3 MiB in all
        import tracemalloc
        sys = grid_system(0.5)
        pool = sys.enumerate_points(10)
        mu = MeasureModel.empirical(sys, pool)
        bowen.pool_exits.cache_clear()
        bowen.pool_exits(sys, pool, 0.5, 3)  # as katok_entropy does
        tracemalloc.start()
        try:
            kc = katok_rn(mu, 1, 0.5, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (kc.count, kc.exact) == (2, False)
        assert peak < 1.75 * 2 ** 20

    def test_monotonicity(self):
        sys, pool, mu = exact_cylinder_model(depth=8)
        # nonincreasing in eps
        c1 = katok_rn(mu, 3, 0.9, 0.5).count
        c2 = katok_rn(mu, 3, 0.45, 0.5).count
        assert c2 >= c1
        # nonincreasing in delta
        c3 = katok_rn(mu, 3, 0.9, 0.25).count
        assert c3 >= c1
        # nondecreasing in n
        c4 = katok_rn(mu, 4, 0.9, 0.5).count
        assert c4 >= c1

    def test_order_past_reliable_depth(self):
        # two orders past the window the truncation slack is 2, above
        # either eps, so no point would lie even in its own open ball: the
        # order is refused, not blamed on the pool
        sys = full_shift()
        mu = MeasureModel.empirical(sys, sys.enumerate_points(3))
        n = sys.window + 2
        assert sys.truncation_slack(n) == 2.0
        for eps in (0.4, 1.5):  # with and without the cylinder rule
            with pytest.raises(WindowExhaustedError):
                katok_rn(mu, n, eps, 0.1)
        # one past the reliable depth, where every ball still holds its
        # centre, is refused as well
        depth = sys.max_reliable_order(0.6)
        katok_rn(mu, depth, 0.6, 0.5)
        with pytest.raises(WindowExhaustedError, match="reliable depth"):
            katok_rn(mu, depth + 1, 0.6, 0.5)

    def test_weights_short_of_the_target_are_refused(self):
        # the weights sum to 1 - 5e-10, within the measure's 1e-9 check but
        # at or below 1 - delta for delta = 1e-12, so no cover reaches the
        # target, on the exact (8 points) and the greedy (16) path alike
        sys = full_shift()
        for depth in (3, 4):
            pool = sys.enumerate_points(depth)
            w = np.full(len(pool), 1.0 / len(pool))
            w[0] -= 5e-10
            mu = MeasureModel.empirical(sys, pool, w.tolist())
            assert float(w.sum()) <= 1.0 - 1e-12
            for n in (1, 3):
                with pytest.raises(PoolInsufficientError,
                                   match="pool covers mass"):
                    katok_rn(mu, n, 0.6, 1e-12)
            assert katok_rn(mu, 3, 0.6, 1e-9).covered_mass > 1.0 - 1e-9

    def test_entropy_slope_log2(self):
        sys, pool, mu = exact_cylinder_model(depth=10)
        for eps in (0.9, 0.5):
            est = katok_entropy(mu, eps, 0.5, range(3, 8))
            assert est.extrapolated == pytest.approx(math.log(2.0), abs=0.1)

    def test_point_mass_zero(self):
        sys = full_shift()
        mu = MeasureModel.point_mass(sys, sys.points([[1] * 8]))
        est = katok_entropy(mu, 0.5, 0.5, range(1, 5))
        assert est.extrapolated == pytest.approx(0.0, abs=1e-12)


def _reference_katok_exact(member_matrix, weights, target):
    """The include/skip search over balls in row order that katok_rn ran
    before the shared cover search."""
    n_sets = member_matrix.shape[0]
    best = n_sets + 1

    def recurse(start, covered, picked):
        nonlocal best
        if float(weights[covered].sum()) > target:
            best = min(best, picked)
            return
        if picked + 1 >= best or start == n_sets:
            return
        rest = member_matrix[start:].any(axis=0) & ~covered
        if float(weights[covered].sum() + weights[rest].sum()) <= target:
            return
        recurse(start + 1, covered | member_matrix[start], picked + 1)
        recurse(start + 1, covered, picked)

    recurse(0, np.zeros(member_matrix.shape[1], dtype=bool), 0)
    return best


def _reference_katok_rn(measure, n, eps, delta, exact_cap=14):
    """katok_rn with one ``ball_masks`` call per order, as it ran before
    the exit-order memo."""
    import heapq
    sys = measure.system
    support = measure.support
    weights = np.asarray(measure.support_weights)
    member_matrix = ball_masks(sys, support.symbols, support.symbols, n, eps)
    target = 1.0 - delta
    if float(weights[member_matrix.any(axis=0)].sum()) <= target:
        raise PoolInsufficientError("pool cannot reach the target")
    if len(support) <= exact_cap:
        return _reference_katok_exact(member_matrix, weights, target), True
    active = weights.astype(float).copy()
    heap = [(-g, i) for i, g in enumerate(member_matrix @ active)]
    heapq.heapify(heap)
    count, mass = 0, 0.0
    while mass <= target:
        fresh, i = 0.0, -1
        while heap:
            _, i = heapq.heappop(heap)
            fresh = float(member_matrix[i] @ active)
            if not heap or fresh >= -heap[0][0] - 1e-15:
                break
            heapq.heappush(heap, (-fresh, i))
        active[member_matrix[i]] = 0.0
        mass += fresh
        count += 1
    return count, False


def _memo_snapshot(name, size=400):
    sys, p, _ = _MEMO_MODELS[name]
    mu = (MeasureModel.product_uniform(sys, seed=17) if p is None
          else MeasureModel.bernoulli(sys, p, seed=17))
    return sys, mu, mu.to_empirical(size, stream=5)


class TestKatokExitOrders:
    @pytest.mark.parametrize("name", sorted(_MEMO_MODELS))
    def test_exit_orders_match_per_order_masks(self, name):
        sys, mu, snapshot = _memo_snapshot(name)
        Z = snapshot.support.symbols
        n_max = sys.window + 2
        for eps in (0.45, 0.3):
            exits = bowen.pool_exits(sys, snapshot.support, eps, n_max)
            assert exits.dtype == np.uint8
            assert not any(a.flags.writeable for b in exits.blocks
                           for a in (b.opened, b.closed))
            for n in range(1, n_max + 1):
                expected = ball_masks(sys, Z, Z, n, eps)
                assert np.array_equal(exits.dense() > n, expected), (eps, n)

    def test_entropy_matches_per_order_reference(self):
        sys, mu, _ = _memo_snapshot("grid-k3")
        snapshot = mu.to_empirical(512, stream=11)
        bowen.pool_exits.cache_clear()
        for eps in (0.4, 0.25):
            est = katok_entropy(snapshot, eps, 0.5, range(1, 6))
            ref = [_reference_katok_rn(snapshot, n, eps, 0.5)
                   for n in range(1, 6)]
            assert est.details["counts"] == ref
            assert est.per_scale == {n: math.log(c) for n, (c, _) in
                                     zip(range(1, 6), ref)}
        # a support of 12 points takes the exact search
        small = MeasureModel.empirical(sys, snapshot.support[200:212])
        for n in (2, 1, 3):
            kc = katok_rn(small, n, 0.4, 0.8)
            assert (kc.count, kc.exact) == _reference_katok_rn(
                small, n, 0.4, 0.8)

    def test_one_engine_pass_per_sweep(self, monkeypatch):
        sys, mu, snapshot = _memo_snapshot("grid-k3")
        calls = []
        blocks = bowen.distance_blocks

        def counted(*args):
            calls.append(args[3])  # n_max
            return blocks(*args)

        monkeypatch.setattr(bowen, "distance_blocks", counted)
        bowen.pool_exits.cache_clear()
        est = katok_entropy(snapshot, 0.4, 0.5, range(1, 6))
        assert len(est.details["counts"]) == 5
        assert calls == [5]  # the schedule's deepest order

    def test_order_zero_rejected_before_memo(self, monkeypatch):
        sys, mu, snapshot = _memo_snapshot("grid-k3", size=100)
        katok_rn(snapshot, 1, 0.4, 0.5)
        reads = []
        exits = measures.pool_exits

        def counted(*args):
            reads.append(args)
            return exits(*args)

        monkeypatch.setattr(measures, "pool_exits", counted)
        with pytest.raises(ConfigurationError):
            katok_rn(snapshot, 0, 0.4, 0.5)
        assert reads == []

    def test_deep_order_rejected_before_the_pass(self, monkeypatch):
        # shift.cfg's system with n = 2 3 4 12: order 12 lies past the
        # reliable depth (10 at eps 0.6), so the sweep fails before its
        # engine pass and before any count
        sys = full_shift()
        mu = MeasureModel.bernoulli(sys, [0.5, 0.5], seed=1)
        reads = []
        exits = measures.pool_exits

        def counted(*args):
            reads.append(args)
            return exits(*args)

        monkeypatch.setattr(measures, "pool_exits", counted)
        with pytest.raises(WindowExhaustedError, match="order 12 at radius"):
            katok_entropy(mu, 0.6, 0.5, [2, 3, 4, 12])
        assert reads == []


def _reference_greedy_cover(M, weights):
    """greedy_weighted_cover with its heap built by a list comprehension."""
    import heapq
    uncovered = np.ones(M.shape[1], dtype=bool)
    remaining = int(M.shape[1])
    gains = M @ uncovered
    heap = [(w / g if g > 0 else math.inf, i)
            for i, (w, g) in enumerate(zip(weights, gains))]
    heapq.heapify(heap)
    chosen = []
    while remaining > 0:
        score, i = -1.0, -1
        while heap:
            score, i = heapq.heappop(heap)
            gain = int((M[i] & uncovered).sum())
            fresh = weights[i] / gain if gain > 0 else math.inf
            if not heap or fresh <= heap[0][0] + 1e-18:
                score = fresh
                break
            heapq.heappush(heap, (fresh, i))
        chosen.append(i)
        newly = M[i] & uncovered
        uncovered &= ~M[i]
        remaining -= int(newly.sum())
    return chosen


def test_greedy_cover_heap_matches_reference():
    rng = np.random.default_rng(23)
    for trial in range(40):
        rows, cols = rng.integers(5, 80), rng.integers(3, 60)
        M = rng.random((rows, cols)) < rng.uniform(0.02, 0.4)
        M[rng.integers(0, rows, size=3)] = False  # balls covering nothing
        M[rng.integers(0, rows), :] |= ~M.any(axis=0)  # coverable
        if trial % 2:
            weights = rng.choice([0.5, 1.0, 2.0], size=rows)  # ties
        else:
            weights = np.exp(rng.normal(size=rows))
        assert greedy_weighted_cover(one_part(M), weights) == \
            _reference_greedy_cover(M, weights)


def test_bs_bounds_share_one_pass(monkeypatch):
    sys = full_shift()
    mu = MeasureModel.bernoulli(sys, [0.3, 0.7], seed=8)
    phi = Potential.from_table([0.5, 1.5])
    measures._bs_point_rates.cache_clear()
    fresh_hi = bs_entropy(mu, phi, 0.5, range(1, 7), x_samples=8,
                          bound="upper")
    measures._bs_point_rates.cache_clear()
    calls = []
    curves = measures._mass_curves

    def counted(*args):
        calls.append(args)
        return curves(*args)

    monkeypatch.setattr(measures, "_mass_curves", counted)
    lo = bs_entropy(mu, phi, 0.5, range(1, 7), x_samples=8, bound="lower")
    hi = bs_entropy(mu, phi, 0.5, [6, 5, 4, 3, 2, 1, 1], x_samples=8,
                    bound="upper")
    assert len(calls) == 8
    assert hi == fresh_hi
    assert lo.extrapolated <= hi.extrapolated


class TestPS:
    def test_huge_eta_whole_space(self):
        sys, pool, mu = exact_cylinder_model(depth=8)
        est = ps_entropy(mu, 0.5, 2.0, range(3, 7), pool=pool)
        # constraint vacuous: slope of the whole-space separated counts
        assert est.extrapolated == pytest.approx(math.log(2.0), abs=0.12)

    def test_feasible_set_shrinks_with_eta(self):
        # pointwise: the separated counts cannot grow when eta tightens
        sys, pool, mu = exact_cylinder_model(depth=8)
        est = ps_entropy(mu, 0.5, [0.5, 0.25], range(3, 7), pool=pool)
        for n in range(3, 7):
            if (n, 0.25) in est.per_scale and (n, 0.5) in est.per_scale:
                assert est.per_scale[(n, 0.25)] <= est.per_scale[(n, 0.5)] + 1e-12
        # the slope at the smallest feasible eta is the reported surrogate
        assert est.details["eta"] == 0.25

    def test_point_mass_small_eta_zero(self):
        sys = full_shift()
        fixed = [0] * 10
        mu = MeasureModel.point_mass(sys, sys.points([fixed]))
        est = ps_entropy(mu, 0.5, 0.05, range(2, 5),
                         pool=sys.points([fixed] * 4))
        assert est.extrapolated == pytest.approx(0.0, abs=1e-12)

    def test_inequality_suite_scales(self):
        # katok(2 eps) <= BK-upper(eps) + 0.05, katok(eps) <= PS(eps) + 0.1
        for k, depth, ns in [(2, 10, range(3, 8)), (3, 7, range(2, 6))]:
            sys, pool, mu = exact_cylinder_model(k=k, depth=depth)
            mu_b = MeasureModel.bernoulli(sys, [1.0 / k] * k, seed=5)
            for eps in (0.75, 0.5, 0.3):
                bk_hi = brin_katok(mu_b, eps, range(1, 9), x_samples=24,
                                   bound="upper").extrapolated
                kat2 = katok_entropy(mu, 2 * eps, 0.5, ns).extrapolated
                kat1 = katok_entropy(mu, eps, 0.5, ns).extrapolated
                ps1 = ps_entropy(mu, eps, [0.5, 0.25], ns,
                                 pool=pool).extrapolated
                assert kat2 <= bk_hi + 0.05
                assert kat1 <= ps1 + 0.1


def _reference_ps_cells(measure, eps, etas, n_schedule, pool):
    """ps_entropy's (n, eta) cells, each from its own greedy
    ``max_separated`` call over the cell's members."""
    sys = measure.system
    mat = sys.as_points(pool).symbols
    targets = [measure.indicator_integral(a)
               for a in measures.default_dictionary(sys)]
    per_scale, flags = {}, []
    for eta in sorted(set(etas), reverse=True):
        for n in n_schedule:
            ok = measures._near_marginals(sys, mat, targets, n, eta + 1e-12,
                                          start=1)
            members = pool[ok]
            if not members:
                flags.append(f"empty-eta{eta}-n{n}")
                continue
            sep, _ = max_separated(sys, members, n, eps, exact_cap=0)
            per_scale[(n, eta)] = math.log(len(sep))
    return per_scale, tuple(flags)


def _ps_case(k, sidedness, metric, seed=0):
    """A product measure and a pool with repeated rows on a k-symbol model."""
    sys = ShiftSystem(kind="grid-shift", alphabet_size=k, window=12,
                      sidedness=sidedness, symbol_metric=metric,
                      eps_min=0.05)
    rng = np.random.default_rng(seed + k)
    rows = rng.integers(0, k, size=(120, sys.word_length))
    rows[:, sys.origin_index + 2:] %= 2  # shared prefixes, close pairs
    rows = np.concatenate([rows, rows[rng.integers(0, 120, size=40)]])
    pool = sys.points(rows[rng.permutation(len(rows))])
    return sys, MeasureModel.product_uniform(sys, seed=seed), pool


def _floor_radii(sys):
    """The smallest symbol distance and one ulp either side of it."""
    f = 1.0 if sys.symbol_metric == DISCRETE else 1.0 / sys.alphabet_size
    return [float(np.nextafter(f, 0.0)), f, float(np.nextafter(f, 2.0))]


PS_CASES = [(k, side, metric) for k in (2, 3, 4, 7)
            for side in ("one-sided", "two-sided")
            for metric in (DISCRETE, ABSOLUTE)]


class TestPSExitOrders:
    @pytest.mark.parametrize("k,sidedness,metric", PS_CASES)
    def test_cells_match_per_cell_separation(self, k, sidedness, metric):
        sys, mu, pool = _ps_case(k, sidedness, metric)
        etas, ns = [2.0, 0.3, 0.0], [1, 2, 3, 4]
        for eps in _floor_radii(sys):
            bowen.pool_exits.cache_clear()
            est = ps_entropy(mu, eps, etas, ns, pool=pool)
            per_scale, flags = _reference_ps_cells(mu, eps, etas, ns, pool)
            assert est.per_scale == per_scale, eps
            assert est.flags == flags
        assert flags  # the eta = 0 cells at odd n are empty

    def test_empty_pool_has_only_empty_cells(self):
        sys, mu, _ = _ps_case(2, "one-sided", DISCRETE)
        with pytest.raises(ConfigurationError, match="every"):
            ps_entropy(mu, 0.5, [0.5], [1, 2], pool=sys.points([]))

    @pytest.mark.parametrize("k,sidedness,metric,eta",
                             [(2, "one-sided", DISCRETE, 0.0),
                              (7, "two-sided", ABSOLUTE, 0.4)])
    def test_window_exhausted_at_the_same_cell(self, k, sidedness, metric,
                                               eta, monkeypatch):
        sys, mu, pool = _ps_case(k, sidedness, metric, seed=5)
        eps = _floor_radii(sys)[1]
        ns = list(range(1, sys.window + 1))
        checks = ShiftSystem.check_order
        runs = []

        def run(estimate):
            cells = []
            monkeypatch.setattr(
                ShiftSystem, "check_order",
                lambda self, n, e: (cells.append(n), checks(self, n, e)))
            with pytest.raises(WindowExhaustedError) as exc:
                estimate(mu, eps, [eta], ns, pool=pool)
            runs.append((cells, str(exc.value)))

        bowen.pool_exits.cache_clear()
        run(ps_entropy)
        run(_reference_ps_cells)
        assert runs[0] == runs[1]
        assert runs[0][0][-1] > sys.max_reliable_order(eps)
        if eta == 0.0:  # odd orders have no member, so no check
            assert runs[0][0] == [n for n in ns if n % 2 == 0
                                  ][:len(runs[0][0])]

    def test_one_engine_pass_per_pool_and_eps(self, monkeypatch):
        sys, mu, snapshot = _memo_snapshot("grid-k3")
        passes = []
        engine = bowen.exit_orders

        def counted(system, Z, eps, n_max):
            passes.append((len(Z), eps))
            return engine(system, Z, eps, n_max)

        # every pass the memo makes goes through its module's exit_orders
        monkeypatch.setattr(bowen, "exit_orders", counted)
        bowen.pool_exits.cache_clear()
        katok_entropy(snapshot, 0.4, 0.5, range(1, 6))
        ps_entropy(snapshot, 0.4, [0.5, 0.25], range(1, 6),
                   pool=snapshot.support)
        size = len(snapshot.support)
        assert passes == [(size, 0.4)]
        fresh = mu.sample_points(200, stream=3)
        ps_entropy(snapshot, 0.4, [0.5, 0.25], range(1, 6), pool=fresh)
        assert passes[1:] == [(200, 0.4)]
        # a deeper request rebuilds; a shallower one reads the same pass
        deep = bowen.pool_exits(sys, fresh, 0.4, 8)
        assert len(passes) == 3
        ref = engine(sys, fresh.symbols, 0.4, 8)
        for closed in (False, True):
            assert np.array_equal(deep.dense(closed), ref.dense(closed))
        shallow = bowen.pool_exits(sys, fresh, 0.4, 2)
        assert len(passes) == 3
        ref = engine(sys, fresh.symbols, 0.4, 2)
        for closed in (False, True):
            # uncapped: it equals a fresh pass at every order <= 2
            assert np.array_equal(np.minimum(shallow.dense(closed), 3),
                                  ref.dense(closed))


class TestGmuEstimate:
    def _factory(self, eps):
        sys = grid_system(eps)
        from mmdim.measures import MeasureModel as MM
        return sys, MM.product_uniform(sys, seed=2024)

    def test_bk_lower_below_bowen_subset_direction(self):
        from mmdim.measures import gmu_mdim_estimate
        sys0, mu0 = self._factory(0.5)
        rep = gmu_mdim_estimate(sys0, mu0, [0.5, 0.25], range(1, 6), tol=0.2,
                                model_factory=self._factory,
                                pool_depth=lambda e: 10 if e >= 0.5 else 6,
                                subset_orders=(1, 5))
        bk = rep.bk_lower_ratio.details["ratios"]
        bw = rep.bowen_subset.details["ratios"]
        for eps in bw:
            assert bk[eps] <= bw[eps] + 0.15

    def test_one_engine_pass_per_eps(self, monkeypatch):
        # Katok, PS and the Bowen subset cover share one exit pass per eps,
        # made at the deepest order of the schedule; under the cylinder
        # rule the pass calls the engine once per origin cylinder
        from mmdim.measures import gmu_mdim_estimate
        passes, depths = [], set()
        engine, blocks = bowen.exit_orders, bowen.distance_blocks

        def counted_pass(system, Z, eps, n_max):
            passes.append((eps, n_max))
            return engine(system, Z, eps, n_max)

        def counted_blocks(*args):
            depths.add(args[3])  # n_max
            return blocks(*args)

        monkeypatch.setattr(bowen, "exit_orders", counted_pass)
        monkeypatch.setattr(bowen, "distance_blocks", counted_blocks)
        bowen.pool_exits.cache_clear()
        sys0, mu0 = self._factory(0.5)
        rep = gmu_mdim_estimate(sys0, mu0, [0.5, 0.25], range(1, 6), tol=0.2,
                                model_factory=self._factory,
                                pool_depth=lambda e: 8 if e >= 0.5 else 4,
                                subset_orders=(1, 5))
        assert sorted(rep.bowen_subset.details["ratios"]) == [0.25, 0.5]
        assert passes == [(0.5, 5), (0.25, 5)]
        assert depths == {5}

    def test_point_mass_all_near_zero(self):
        from mmdim.measures import gmu_mdim_estimate
        sys = full_shift(window=16, eps_min=0.05)
        mu = MeasureModel.point_mass(sys, sys.points([[0] * sys.word_length]))
        rep = gmu_mdim_estimate(sys, mu, [0.5, 0.25], range(1, 5), tol=0.2,
                                subset_orders=(1, 3))
        for name, value in rep.ratio_summary().items():
            assert abs(value) < 0.05, name


def generic_point_test(sys, x, mu, n, tol) -> bool:
    """Whether x passes the generic-point test: a one-row generic_subset."""
    return len(generic_subset(sys, x, mu, n, tol)) == 1


class TestGenericPoints:
    def test_sampled_point_generic_at_large_n(self):
        sys = ShiftSystem(kind="full-shift", alphabet_size=2, window=64,
                          eps_min=0.05)
        mu = MeasureModel.bernoulli(sys, [0.5, 0.5], seed=8)
        x = mu.sample_points(1, stream=9)[0]
        assert generic_point_test(sys, x, mu, 64, tol=0.2)

    def test_fixed_point_not_generic(self):
        sys = full_shift()
        mu = MeasureModel.bernoulli(sys, [0.5, 0.5], seed=8)
        x = sys.points([[0] * sys.word_length])
        # indicator of symbol 1 averages 0 against integral 1/2
        assert not generic_point_test(sys, x, mu, 10, tol=0.1)

    def test_balanced_word_generic(self):
        sys = full_shift()
        mu = MeasureModel.bernoulli(sys, [0.5, 0.5], seed=8)
        x = sys.points([[0, 1, 1, 0, 1, 0, 0, 1, 0, 1]])  # balanced de-Bruijn-ish
        assert generic_point_test(sys, x, mu, 10, tol=0.1)

    def test_generic_subset_filters(self):
        sys = full_shift()
        mu = MeasureModel.bernoulli(sys, [0.5, 0.5], seed=8)
        pool = sys.enumerate_points(6)
        zg = generic_subset(sys, pool, mu, 6, tol=0.2)
        assert 0 < len(zg) < len(pool)
        for z in zg:
            assert generic_point_test(sys, z, mu, 6, tol=0.2)
