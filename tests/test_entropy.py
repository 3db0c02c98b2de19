import math
import tracemalloc

import numpy as np
import pytest

from availkit import entropy
from availkit.entropy import (
    EntropyConfig,
    HealthReport,
    SampEnResult,
    coarse_grain,
    curve_score,
    health_score,
    mse_curve,
    sample_entropy,
)
from availkit.errors import NonFiniteValue, NonPositiveTolerance, NoUsableMetric, SeriesTooShort
from availkit.model import ServiceNode

NODE = ServiceNode("10.0.0.3", "mysql")


def brute_force_counts(x, m, r):
    """Independent O(N^2) ordered-pair template counter (oracle)."""
    n = len(x)
    t = n - m
    b = a = 0
    for i in range(t):
        for j in range(t):
            if i == j:
                continue
            if max(abs(x[i + k] - x[j + k]) for k in range(m)) <= r:
                b += 1
            if max(abs(x[i + k] - x[j + k]) for k in range(m + 1)) <= r:
                a += 1
    return b, a


def brute_force_sampen(x, m, r):
    b, a = brute_force_counts(list(x), m, r)
    if b == 0:
        return None
    if a == 0:
        return math.log(b + 1)
    return -math.log(a / b)


class TestCoarseGrain:
    def test_tau_one_is_identity(self):
        x = np.array([3.0, 1.0, 4.0, 1.0, 5.0])
        assert np.array_equal(coarse_grain(x, 1), x)

    def test_block_means(self):
        assert np.array_equal(coarse_grain([1, 3, 5, 7], 2), [2.0, 6.0])

    def test_partial_block_discarded(self):
        assert np.array_equal(coarse_grain([1, 2, 3, 4, 5], 2), [1.5, 3.5])

    def test_too_short(self):
        with pytest.raises(SeriesTooShort):
            coarse_grain([1.0], 2)

    def test_length_formula(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=37)
        for tau in range(1, 12):
            assert coarse_grain(x, tau).shape[0] == 37 // tau

    def test_bit_identical_to_block_mean(self):
        x = np.random.default_rng(4).normal(1e3, 7.0, size=3001)
        for tau in range(1, 21):
            n = x.size // tau
            want = x[: n * tau].reshape(n, tau).mean(axis=1)
            assert coarse_grain(x, tau).tobytes() == want.tobytes()


class TestSampleEntropy:
    def test_constant_series_is_zero(self):
        res = sample_entropy(np.full(50, 5.0), m=2, r=0.1)
        assert res.value == 0.0 and not res.capped

    def test_periodic_series_is_zero(self):
        x = np.array([1.0, 2.0] * 20)
        res = sample_entropy(x, m=2, r=0.1)
        oracle = brute_force_sampen(x, 2, 0.1)
        assert res.value == pytest.approx(0.0, abs=1e-12)
        assert oracle == pytest.approx(0.0, abs=1e-12)

    def test_matches_brute_force_on_random_series(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            x = rng.uniform(size=80)
            r = 0.15 * float(np.std(x))
            got = sample_entropy(x, m=2, r=r)
            want = brute_force_sampen(x, 2, r)
            assert got.value == pytest.approx(want, abs=1e-9)

    def test_nonnegative_whenever_defined(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            x = rng.normal(size=60)
            res = sample_entropy(x, m=2, r=0.2 * float(np.std(x)))
            if res.value is not None:
                assert res.value >= 0.0

    def test_undefined_when_no_matches(self):
        # strictly geometric growth: no two m-templates are within tiny r
        x = np.array([2.0**k for k in range(12)])
        res = sample_entropy(x, m=2, r=1e-12)
        assert res.value is None

    def test_capped_when_no_extension_matches(self):
        # zeros match as single points, but every extension pairs distinct
        # spikes, so A = 0 while B > 0
        x = np.array([0.0, 10.0, 0.0, 20.0, 0.0, 30.0, 0.0, 40.0])
        r = 0.5
        b, a = brute_force_counts(list(x), 1, r)
        res = sample_entropy(x, m=1, r=r)
        assert a == 0 and b > 0
        assert res.capped and res.value == pytest.approx(math.log(b + 1))

    def test_too_short(self):
        with pytest.raises(SeriesTooShort):
            sample_entropy([1.0, 2.0, 3.0], m=2, r=0.1)

    def test_non_positive_tolerance(self):
        with pytest.raises(NonPositiveTolerance):
            sample_entropy(np.ones(50), m=2, r=0.0)

    def test_non_finite_tolerance(self):
        for r in (math.nan, math.inf):
            with pytest.raises(NonPositiveTolerance):
                sample_entropy(np.arange(50.0), m=2, r=r)

    def test_non_finite_samples(self):
        for bad in (math.nan, math.inf, -math.inf):
            x = np.arange(50.0)
            x[7] = bad
            with pytest.raises(NonFiniteValue):
                sample_entropy(x, m=2, r=0.5)

    def test_affine_invariance_with_relative_tolerance(self):
        # exact for power-of-two scale factors (binary-exact arithmetic)
        rng = np.random.default_rng(11)
        x = rng.normal(size=120)
        for a, b in ((2.0, 1.0), (0.5, -3.0), (-4.0, 0.0)):
            y = a * x + b
            rx = 0.15 * float(np.std(x))
            ry = 0.15 * float(np.std(y))
            got_x = sample_entropy(x, 2, rx)
            got_y = sample_entropy(y, 2, ry)
            assert got_x.value == got_y.value


def oracle_input(kind, n, seed):
    rng = np.random.default_rng(seed)
    if kind == "uniform":
        return rng.uniform(size=n)
    if kind == "rounded":  # many exact ties
        return np.round(rng.normal(size=n), 1)
    if kind == "three_level":
        return rng.integers(0, 3, size=n).astype(float)
    if kind == "constant":
        return np.full(n, 2.5)
    if kind == "periodic":
        return np.tile([1.0, 3.0, 2.0, 7.5, 0.0], n)[:n]
    raise ValueError(kind)


class TestMatchCountOracle:
    """Template counts equal the brute-force oracle exactly, ties included."""

    KINDS = ("uniform", "rounded", "three_level", "constant", "periodic", "minimum_length")

    @pytest.mark.parametrize("r_frac", [0.05, 0.15, 0.5, 1.0])
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_counts_equal_brute_force(self, m, kind, r_frac):
        if kind == "minimum_length":
            x = oracle_input("uniform", m + 2, seed=m)
        else:
            x = oracle_input(kind, 90, seed=10 * m + len(kind))
        r = r_frac * (float(np.std(x)) or 1.0)
        want = brute_force_counts(list(x), m, r)
        assert entropy._match_counts(x, m, r) == want
        assert sample_entropy(x, m, r).value == brute_force_sampen(x, m, r)

    def test_pair_exactly_r_apart_after_rounding(self):
        # |7.3 - 1.1| rounds to r, so the pair matches, yet 1.1 + r rounds
        # below 7.3: a candidate search without slack would drop it
        r = 7.3 - 1.1
        assert 1.1 + r < 7.3
        x = np.array([1.1, 7.3, 1.1, 7.3, 1.1, 4.0, 7.3])
        for m in (1, 2):
            assert entropy._match_counts(x, m, r) == brute_force_counts(list(x), m, r)

    @pytest.mark.parametrize("chunk", [1, 3, 50])
    def test_counts_do_not_depend_on_chunk_size(self, monkeypatch, chunk):
        monkeypatch.setattr(entropy, "_PAIR_CHUNK", chunk)
        for kind in ("uniform", "rounded", "three_level"):
            x = oracle_input(kind, 60, seed=chunk)
            r = 0.5 * float(np.std(x))
            assert entropy._match_counts(x, 2, r) == brute_force_counts(list(x), 2, r)


class TestBandedCounter:
    """Cases the banded comparison in _match_counts has to get right."""

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["constant_tail", "descending"])
    def test_band_running_into_the_padding(self, m, kind):
        # the last sorted templates have wide bands: their partner slots
        # run past the last template into the NaN padding
        rng = np.random.default_rng(m)
        if kind == "constant_tail":
            x = np.concatenate([rng.uniform(size=50), np.full(30, 2.0)])
        else:
            x = np.sort(rng.uniform(size=80))[::-1]
        r = 0.3 * float(np.std(x))
        assert entropy._match_counts(x, m, r) == brute_force_counts(list(x), m, r)

    @pytest.mark.parametrize("chunk", [1, 2, 5])
    def test_chunk_smaller_than_one_band(self, monkeypatch, chunk):
        monkeypatch.setattr(entropy, "_PAIR_CHUNK", chunk)
        x = oracle_input("three_level", 70, seed=chunk)
        r = 0.2 * float(np.std(x))
        first = np.sort(x[:-2])
        widest = int((np.searchsorted(first, first + r, side="right") - np.arange(1, first.size + 1)).max())
        assert widest > 4 * chunk
        assert entropy._match_counts(x, 2, r) == brute_force_counts(list(x), 2, r)

    def test_tied_store_capacity_series_in_bounded_memory(self):
        # three distinct values: most template pairs tie on the first point
        x = np.random.default_rng(9).integers(0, 3, size=20_000).astype(float)
        tracemalloc.start()
        try:
            curve = mse_curve(x, TestMseCurve.CFG)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(e.defined for e in curve)
        assert peak < 64 * 2**20


def candidate_counts(x, m, r):
    """n_cand of _match_counts: sorted partners each template's band holds."""
    first = np.sort(x[:-m])
    return np.searchsorted(first, first + r, side="right") - np.arange(1, first.size + 1)


class TestOffsetMajorCounter:
    """Row ranges and blocks of the offset-major traversal."""

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_clusters_of_very_different_spread(self, m):
        rng = np.random.default_rng(20 + m)
        x = rng.permutation(np.concatenate([rng.normal(0.0, 0.01, 60), rng.normal(5.0, 1.0, 60)]))
        r = 0.1
        bands = candidate_counts(x, m, r)
        assert bands[:25].min() > 25 and bands[-40:].max() < 10  # wide bands, then short ones
        assert entropy._match_counts(x, m, r) == brute_force_counts(list(x), m, r)

    @pytest.mark.parametrize("shift", [0, 20, 10**9])
    @pytest.mark.parametrize("chunk", [64, 2**14])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_sawtooth_bands(self, monkeypatch, m, chunk, shift):
        # exact ties far apart: the band jumps up at each level, then falls by
        # one per row; with the smaller chunk, offsets take many blocks; the
        # shifted levels stay exact, so the bands and counts must not change
        monkeypatch.setattr(entropy, "_PAIR_CHUNK", chunk)
        rng = np.random.default_rng(30 + m)
        x = shift + rng.permutation(np.repeat([0.0, 10.0, 20.0, 30.0], [30, 5, 40, 20]))
        bands = candidate_counts(x, m, 1.0)
        steps = np.diff(bands)
        assert set(steps[steps < 0].tolist()) == {-1} and (steps > 0).sum() == 3
        assert entropy._match_counts(x, m, 1.0) == brute_force_counts(list(x), m, 1.0)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_chunk_smaller_than_one_offsets_rows(self, monkeypatch, m):
        monkeypatch.setattr(entropy, "_PAIR_CHUNK", 4)
        x = oracle_input("uniform", 80, seed=m)
        r = 0.5 * float(np.std(x))
        assert (candidate_counts(x, m, r) > 0).sum() > 4 * 4  # offset 0 alone spans many rows
        assert entropy._match_counts(x, m, r) == brute_force_counts(list(x), m, r)

    @pytest.mark.parametrize("chunk", [3, 4096])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_last_offsets_run_into_the_padding(self, monkeypatch, m, chunk):
        # the top templates tie: their bands end at the last template and are
        # the widest, so the last offsets of their rows read the NaN padding;
        # with the smaller chunk each offset is a block of its own
        monkeypatch.setattr(entropy, "_PAIR_CHUNK", chunk)
        rng = np.random.default_rng(40 + m)
        x = rng.permutation(np.concatenate([rng.uniform(0.0, 1.0, 50), np.full(25, 3.0)]))
        r = 0.2
        bands = candidate_counts(x, m, r)
        top = np.flatnonzero(np.sort(x[:-m]) == 3.0)
        assert np.all(top + bands[top] == bands.size - 1) and bands.max() == bands[top[0]]
        assert entropy._match_counts(x, m, r) == brute_force_counts(list(x), m, r)

    @pytest.mark.parametrize("kind", ["three_level", "rounded"])
    def test_row_range_longer_than_4096_rows(self, kind):
        # tied windows whose first offsets each span more than 4,096 rows
        x = oracle_input(kind, 4500, seed=7)
        r = 0.15 * float(np.std(x))
        rows = np.flatnonzero(candidate_counts(x, 2, r))
        assert rows[-1] - rows[0] > 4096
        assert entropy._match_counts(x, 2, r) == chunked_pair_counts(x, 2, r)


def chunked_pair_counts(x, m, r, rows=256):
    """Independent numpy ordered-pair template counter, a block of rows at a time."""
    t = x.size - m
    coords = [x[k : k + t] for k in range(m + 1)]
    b = a = 0
    for i in range(0, t, rows):
        within = np.abs(coords[0][i : i + rows, None] - coords[0]) <= r
        for k in range(1, m):
            within &= np.abs(coords[k][i : i + rows, None] - coords[k]) <= r
        b += int(np.count_nonzero(within))
        within &= np.abs(coords[m][i : i + rows, None] - coords[m]) <= r
        a += int(np.count_nonzero(within))
    return b - t, a - t  # every template matches itself


class TestMseCurve:
    CFG = EntropyConfig(m=2, r_fraction=0.15, max_scale=10, window_len=600)

    def test_config_rejects_nan(self):
        for field in ("r_fraction", "alarm_threshold"):
            with pytest.raises(ValueError):
                EntropyConfig(**{field: math.nan})

    def test_constant_series_all_zero(self):
        curve = mse_curve(np.full(600, 3.0), self.CFG)
        assert [e.value for e in curve] == [0.0] * 10

    def test_scale_one_matches_direct_sampen(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=600)
        curve = mse_curve(x, self.CFG)
        r = 0.15 * float(np.std(x))
        direct = sample_entropy(x, 2, r)
        assert curve[0].value == direct.value

    def test_curve_length(self):
        rng = np.random.default_rng(6)
        curve = mse_curve(rng.normal(size=600), self.CFG)
        assert len(curve) == 10

    def test_white_noise_above_integrated_series(self):
        # cumulative sums are smoother than their increments at scale >= 2;
        # windows long enough for stable estimates at the top scale
        rng = np.random.default_rng(12)
        for _ in range(5):
            noise = rng.normal(size=2000)
            walk = np.cumsum(noise)
            c_noise = mse_curve(noise, self.CFG)
            c_walk = mse_curve(walk, self.CFG)
            for tau in range(1, 10):
                a, b = c_noise[tau], c_walk[tau]
                assert a.defined and b.defined
                assert a.value > b.value

    def test_too_short(self):
        with pytest.raises(SeriesTooShort):
            mse_curve(np.ones(30), self.CFG)

    def test_non_finite_samples(self):
        # a NaN used to make sigma and r NaN, so no pair matched and the
        # curve read B = A = -t, a fake entropy of 0
        for bad in (math.nan, math.inf):
            x = np.random.default_rng(7).normal(size=600)
            x[-1] = bad
            with pytest.raises(NonFiniteValue):
                mse_curve(x, self.CFG)

    def test_store_capacity_series_in_bounded_memory(self):
        # 20,000 points is MetricStore's per-key capacity; a dense (t, t)
        # distance matrix would need about 10 GB here
        x = np.random.default_rng(8).normal(size=20_000)
        tracemalloc.start()
        try:
            curve = mse_curve(x, self.CFG)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(e.defined for e in curve)
        assert peak < 64 * 2**20


class TestHealthScore:
    CFG = EntropyConfig(m=2, r_fraction=0.15, max_scale=10, window_len=600, alarm_threshold=0.5)

    def test_constant_window_scores_zero(self):
        report = health_score(NODE, {"cpu_util": np.full(600, 1.0)}, self.CFG)
        assert report.score == 0.0
        assert report.alarm is False

    def test_service_score_is_mean_of_metric_scores(self):
        report = HealthReport(
            target=NODE,
            per_metric_entropy={},
            per_metric_score={"a": 1.0, "b": 3.0},
            excluded_metrics=[],
            score=2.0,
            alarm=True,
            threshold=0.5,
            computed_at_ms=0,
        )
        assert report.score == (1.0 + 3.0) / 2

    def test_two_metric_aggregation(self):
        rng = np.random.default_rng(9)
        windows = {"a": rng.normal(size=600), "b": rng.normal(size=600)}
        report = health_score(NODE, windows, self.CFG)
        expected = np.mean([report.per_metric_score["a"], report.per_metric_score["b"]])
        assert report.score == pytest.approx(float(expected))

    def test_short_window_excluded(self):
        rng = np.random.default_rng(10)
        windows = {"good": rng.normal(size=600), "short": rng.normal(size=10)}
        report = health_score(NODE, windows, self.CFG)
        assert "short" in report.excluded_metrics
        assert "short" not in report.per_metric_score

    def test_no_usable_metric(self):
        with pytest.raises(NoUsableMetric):
            health_score(NODE, {"short": np.ones(5)}, self.CFG)

    def test_alarm_consistent_with_threshold(self):
        rng = np.random.default_rng(13)
        report = health_score(NODE, {"a": rng.normal(size=600)}, self.CFG)
        assert report.alarm == (report.score > self.CFG.alarm_threshold)

    def test_report_round_trips_to_dict(self):
        report = health_score(NODE, {"cpu_util": np.full(600, 1.0)}, self.CFG)
        doc = report.to_dict()
        assert doc["target"] == {"ip": "10.0.0.3", "service": "mysql"}
        assert doc["score"] == 0.0


class TestHealthAlarm:
    """The alarm rule of health_score: alarm iff score > threshold."""

    WINDOWS = {"a": np.random.default_rng(17).normal(size=600)}

    def _alarm(self, threshold):
        cfg = EntropyConfig(
            m=2, r_fraction=0.15, max_scale=10, window_len=600, alarm_threshold=threshold
        )
        return health_score(NODE, self.WINDOWS, cfg)

    def _score(self):
        return self._alarm(1.0).score

    def test_below(self):
        report = self._alarm(self._score() + 0.1)
        assert report.alarm is False

    def test_above(self):
        report = self._alarm(self._score() - 0.1)
        assert report.alarm is True

    def test_boundary_is_strict(self):
        score = self._score()
        report = self._alarm(score)
        assert report.score == score
        assert report.alarm is False


def test_curve_score_ignores_undefined():
    curve = [SampEnResult(1.0), SampEnResult(None), SampEnResult(3.0, capped=True)]
    assert curve_score(curve) == pytest.approx(2.0)
    assert curve_score([SampEnResult(None)]) is None
