"""Multi-scale sample entropy and the health score built on it.

Sample entropy here is the template-counting definition: B counts ordered
pairs (i, j), i != j, of length-m templates within Chebyshev tolerance r;
A counts the same for length m+1; both draw templates from the first
N - m start positions so every m-template has an extension. The result is
-ln(A/B). Multi-scale curves reuse one absolute r, derived from the
scale-1 standard deviation, at every scale.

The counts are exact but never compare all pairs at once: templates are
sorted on their first point, and each is compared only with the band of
sorted partners whose first points can lie within r (after Manis,
Aktaruzzaman & Sassi, "Low computational cost for sample entropy",
Entropy 20(1):61, 2018). The band is walked offset-major: a block tests
the j-th partner of a contiguous range of sorted templates for a run of
offsets j, so every array operation runs along long contiguous rows.
Blocks are cache-sized; memory is O(t + _PAIR_CHUNK) for t templates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .errors import NonFiniteValue, NonPositiveTolerance, NoUsableMetric, SeriesTooShort
from .model import ServiceNode

# Most cells (offsets x rows) _match_counts compares at once; it sets the
# counter's working memory, about 0.9 MB at m=2. Each block costs a dozen
# numpy calls: on a 2-CPU host 2**15 ran 3,000-point curves and tied
# 20,000-point series as fast as 2**14 with half the blocks, which under
# tracemalloc made the counter 1.3x faster; 2**13 and 2**16 took up to
# 1.3x and 1.1x as long.
_PAIR_CHUNK = 2**15


@dataclass(frozen=True)
class EntropyConfig:
    m: int = 2
    r_fraction: float = 0.15
    max_scale: int = 10
    window_len: int = 600
    alarm_threshold: float = 1.0

    def __post_init__(self) -> None:
        if self.m < 1 or self.max_scale < 1 or self.window_len < 1:
            raise ValueError("m, max_scale and window_len must be positive")
        if not all(math.isfinite(v) and v > 0 for v in (self.r_fraction, self.alarm_threshold)):
            raise ValueError("r_fraction and alarm_threshold must be finite and positive")
        if self.window_len // self.max_scale < self.m + 2:
            raise ValueError(
                "window_len/max_scale must leave at least m+2 coarse points"
            )


class SampEnResult(NamedTuple):
    """One entropy value; value None means undefined (no template matches).

    capped marks the A=0 surrogate ln(B+1): the window was so irregular
    that no m+1 template matched, so the true value is unbounded.
    """

    value: float | None
    capped: bool = False

    @property
    def defined(self) -> bool:
        return self.value is not None


def coarse_grain(x: Sequence[float] | np.ndarray, tau: int) -> np.ndarray:
    """Replace each block of tau consecutive points by its mean.

    The trailing partial block is discarded; tau=1 returns the input
    unchanged.
    """
    arr = np.asarray(x, dtype=float)
    if tau < 1:
        raise ValueError("tau must be >= 1")
    n = arr.shape[0]
    if n < tau:
        raise SeriesTooShort(f"need at least tau={tau} points, got {n}")
    n_blocks = n // tau
    # the sum np.mean takes, divided as np.mean divides it, without its overhead
    return arr[: n_blocks * tau].reshape(n_blocks, tau).sum(axis=1) / tau


def require_finite(arr: np.ndarray) -> None:
    """Raise NonFiniteValue when arr holds a NaN or an infinity."""
    bad = arr.shape[0] - int(np.count_nonzero(np.isfinite(arr)))
    if bad:
        raise NonFiniteValue(f"{bad} of {arr.shape[0]} samples are NaN or infinite")


def _match_counts(x: np.ndarray, m: int, r: float) -> tuple[int, int]:
    """Ordered-pair template match counts (B at length m, A at length m+1).

    Templates are sorted by their first coordinate, so the only partners
    that can lie within r of sorted template p are the next n_cand[p];
    `searchsorted` counts them (with a rounding slack, so no true match is
    missed). A strided view puts coordinate k of sorted template p+1+j at
    [k, j, p], NaN past the end, so one offset j is a contiguous run of
    rows. The rows whose n_cand exceeds j lie in the range [lo_j, hi_j)
    that the prefix and suffix maxima of n_cand give, and that range
    narrows as j grows. A block takes a run of offsets over its first
    offset's range (a window that fits one block takes all rows and
    offsets at once) and tests every cell exactly, |a - b| <= r per
    coordinate (coordinate 0 is sorted, so a - b >= 0 there): cells
    outside a row's band lie beyond r or hold NaN, so only true matches
    count. A block holds at most _PAIR_CHUNK cells, or all rows of one
    offset; memory is O(t + _PAIR_CHUNK). Each unordered pair is seen
    once; the counts double it.
    """
    t = x.shape[0] - m  # number of template start positions; every one extends
    if t < 2:
        return 0, 0
    order = np.argsort(x[:t], kind="stable")
    first = x[order]
    slack = 8 * np.finfo(float).eps * (max(abs(first[0]), abs(first[-1])) + r)
    n_cand = np.searchsorted(first, first + (r + slack), side="right") - np.arange(1, t + 1)
    widest = int(n_cand.max())
    if widest == 0:
        return 0, 0
    padded = np.full((m + 1, t + widest), np.nan)
    padded[:, :t] = x[order + np.arange(m + 1)[:, None]]  # coordinate k of each sorted template
    k_step, p_step = padded.strides
    partners = np.ndarray((m + 1, widest, t), float, padded, p_step, (k_step, p_step, p_step))
    cells = min(max(_PAIR_CHUNK, t), t * widest)  # no block is larger
    dist_buf = np.empty((m + 1) * cells)
    ok_buf = np.empty((m + 1) * cells, dtype=bool)
    if t * widest <= _PAIR_CHUNK:  # one block: no ranges needed
        lo, hi = [0], [t]
    else:
        offsets = np.arange(widest)
        lo = np.searchsorted(np.maximum.accumulate(n_cand), offsets, side="right")
        falling = np.maximum.accumulate(n_cand[::-1])  # suffix maxima, last row first
        hi = t - np.searchsorted(falling, offsets, side="right")
    b = a = j = 0
    while j < widest:
        r0, r1 = int(lo[j]), int(hi[j])
        stop = min(widest, j + max(1, _PAIR_CHUNK // (r1 - r0)))
        shape = (m + 1, stop - j, r1 - r0)
        dist = np.ndarray(shape, float, dist_buf)
        np.subtract(partners[:, j:stop, r0:r1], padded[:, None, r0:r1], out=dist)
        tail = dist[1:]
        np.abs(tail, out=tail)
        ok = np.ndarray(shape, bool, ok_buf)
        np.less_equal(dist, r, out=ok)
        match = ok[0]
        for k in range(1, m):
            match &= ok[k]
        b += int(np.count_nonzero(match))
        match &= ok[m]
        a += int(np.count_nonzero(match))
        j = stop
    return 2 * b, 2 * a


def sample_entropy(x: Sequence[float] | np.ndarray, m: int, r: float) -> SampEnResult:
    """Sample entropy -ln(A/B) of one window with absolute tolerance r.

    B == 0 yields an undefined result; A == 0 with B > 0 yields the capped
    surrogate ln(B+1) so extremely irregular windows still score (high)
    instead of dropping out of downstream means.
    """
    arr = np.asarray(x, dtype=float)
    n = arr.shape[0]
    if m < 1:
        raise ValueError("m must be >= 1")
    if n < m + 2:
        raise SeriesTooShort(f"need at least m+2={m + 2} points, got {n}")
    if not (r > 0) or not math.isfinite(r):  # NaN fails the first test
        raise NonPositiveTolerance(f"tolerance must be a finite positive number, got {r}")
    require_finite(arr)
    b, a = _match_counts(arr, m, r)
    if b == 0:
        return SampEnResult(value=None)
    if a == 0:
        return SampEnResult(value=math.log(b + 1), capped=True)
    return SampEnResult(value=-math.log(a / b))


def mse_curve(x: Sequence[float] | np.ndarray, cfg: EntropyConfig) -> list[SampEnResult]:
    """Sample entropy at scales 1..max_scale with one shared absolute r.

    r = r_fraction * stddev(raw window); a constant window short-circuits
    to an all-zero curve (every template matches at every scale).
    """
    arr = np.asarray(x, dtype=float)
    n = arr.shape[0]
    if n < cfg.max_scale * (cfg.m + 2):
        raise SeriesTooShort(
            f"need at least max_scale*(m+2)={cfg.max_scale * (cfg.m + 2)} points, got {n}"
        )
    require_finite(arr)
    sigma = float(np.std(arr))
    if sigma == 0.0:
        return [SampEnResult(value=0.0) for _ in range(cfg.max_scale)]
    r = cfg.r_fraction * sigma
    curve: list[SampEnResult] = []
    for tau in range(1, cfg.max_scale + 1):
        curve.append(sample_entropy(coarse_grain(arr, tau), cfg.m, r))
    return curve


def curve_score(curve: Sequence[SampEnResult]) -> float | None:
    """Mean of the defined entries; None when nothing is defined."""
    vals = [e.value for e in curve if e.value is not None]
    if not vals:
        return None
    return float(np.mean(vals))


def score_bound(n: int, cfg: EntropyConfig) -> float:
    """The highest score a participating n-point window can reach.

    At scale tau the curve counts pairs among t = n//tau - m templates, so
    an entry is at least 0 and at most ln(t(t-1) + 1), the capped value
    with every ordered pair matched at length m (Richman & Moorman, Am J
    Physiol 278, 2000). A participating metric averages at least
    ceil(max_scale/2) defined entries, so its score is at most the mean of
    that many of the largest bounds: 10.85 at n=600 with the defaults.
    """
    templates = (max(n // tau - cfg.m, 0) for tau in range(1, cfg.max_scale + 1))
    bounds = sorted(math.log(t * (t - 1) + 1) for t in templates)
    return float(np.mean(bounds[-math.ceil(cfg.max_scale / 2) :]))


@dataclass
class HealthReport:
    """Entropy-based health snapshot of one service."""

    target: ServiceNode
    per_metric_entropy: dict[str, list[SampEnResult]]
    per_metric_score: dict[str, float]
    excluded_metrics: list[str]
    score: float
    alarm: bool
    threshold: float
    computed_at_ms: int  # data time: the newest timestamp of the scored service's series

    def to_dict(self) -> dict:
        return {
            "target": {"ip": self.target.ip, "service": self.target.service},
            "per_metric_entropy": {
                metric: [
                    {"scale": i + 1, "value": e.value, "capped": e.capped}
                    for i, e in enumerate(curve)
                ]
                for metric, curve in self.per_metric_entropy.items()
            },
            "per_metric_score": dict(self.per_metric_score),
            "excluded_metrics": list(self.excluded_metrics),
            "score": self.score,
            "alarm": self.alarm,
            "threshold": self.threshold,
            "computed_at_ms": self.computed_at_ms,
        }


def health_score(
    target: ServiceNode,
    windows: Mapping[str, Sequence[float] | np.ndarray],
    cfg: EntropyConfig,
    computed_at_ms: int = 0,
) -> HealthReport:
    """Score a service from per-metric windows.

    Per-metric score is the mean of the defined MSE entries; a metric
    participates only when at least ceil(max_scale/2) entries are defined
    (or the window was long enough at all). The service score is the mean
    over participating metrics; the alarm fires strictly above the
    threshold.
    """
    min_defined = math.ceil(cfg.max_scale / 2)

    curves: dict[str, list[SampEnResult]] = {}
    scores: dict[str, float] = {}
    excluded: list[str] = []
    for metric in sorted(windows):
        try:
            curve = mse_curve(windows[metric], cfg)
        except SeriesTooShort:
            excluded.append(metric)
            continue
        curves[metric] = curve
        n_defined = sum(1 for e in curve if e.defined)
        if n_defined < min_defined:
            excluded.append(metric)
            continue
        scores[metric] = curve_score(curve)
    if not scores:
        raise NoUsableMetric(
            f"no metric of {target.label()} produced enough defined entropy entries"
        )
    score = float(np.mean(list(scores.values())))
    return HealthReport(
        target=target,
        per_metric_entropy=curves,
        per_metric_score=scores,
        excluded_metrics=excluded,
        score=score,
        alarm=score > cfg.alarm_threshold,
        threshold=cfg.alarm_threshold,
        computed_at_ms=computed_at_ms,
    )
