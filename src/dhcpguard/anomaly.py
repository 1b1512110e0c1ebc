"""Unknown-threat detection: adaptive baselines over traffic metrics.

Traffic is summarized into three metrics (event rate, mean payload
size, distinct source count), defined once in :func:`traffic_metrics`.
Baselines learn from tumbling windows: each metric keeps an
exponentially weighted mean and variance, and a window is anomalous
when a warmed-up metric exceeds ``mean + k * stddev``.  Windows judged
anomalous do not update the baseline, so a sustained attack cannot
drag the threshold up after itself.  Per-event checks compare the same
metrics over a :class:`TrailingWindow` with those baselines.

Only generic (non-DHCP) traffic feeds these metrics: DHCP control
chatter is sparse and bursty by nature and is the business of the
verifier and the parameterized rules instead.

The module also carries the alarm-versus-truth outcome classification
and the sign-of-attack ratio used to summarize a run: with smoothing
constants d and b,

    ratio = (tn / (tn + d)) / (fn / (fn + b))

reads "benign mass over missed-attack mass"; above 1 means no sign of
attack, below 1 means attack.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional

from .netsim import AttackClass, GenericPayload, SimEvent


class ColdStart(Exception):
    """Raised when no metric has seen enough samples to judge."""


class Outcome(str, Enum):
    TP = "tp"
    FP = "fp"
    TN = "tn"
    FN = "fn"

    @property
    def is_real_attack(self) -> bool:
        """TP and FN are the outcomes that stand for an actual attack."""
        return self in (Outcome.TP, Outcome.FN)


class SignVerdict(str, Enum):
    ATTACK = "attack"
    NO_ATTACK = "no_attack"
    BOUNDARY = "boundary"


class SignOfAttack(NamedTuple):
    ratio: float
    verdict: SignVerdict


@dataclass(frozen=True)
class AnomalyConfig:
    alpha: float = 0.1
    k: float = 3.0
    warmup: int = 30
    window: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if not (self.k > 0 and self.warmup > 0 and self.window > 0):  # NaN included
            raise ValueError("k, warmup and window must be > 0")


class MetricBaseline:
    """EWMA mean/variance for one metric; threshold = mean + k * stddev."""

    def __init__(self, alpha: float):
        self.alpha = alpha
        self.mean = 0.0
        self.variance = 0.0
        self.samples = 0
        self._threshold: Optional[tuple[float, float]] = None  # (k, threshold) since last update

    def update(self, sample: float) -> None:
        if not math.isfinite(sample):
            raise ValueError("sample must be finite")
        if self.samples == 0:
            self.mean = sample
            self.variance = 0.0
        else:
            diff = sample - self.mean
            self.mean += self.alpha * diff
            self.variance = (1.0 - self.alpha) * self.variance + self.alpha * diff * diff
        self.samples += 1
        self._threshold = None

    def threshold(self, k: float) -> float:
        cached = self._threshold
        if cached is None or cached[0] != k:
            cached = self._threshold = (k, self.mean + k * math.sqrt(self.variance))
        return cached[1]


class Baseline:
    """Named per-metric baselines sharing one smoothing configuration."""

    def __init__(self, config: AnomalyConfig):
        self.config = config
        self._metrics: dict[str, MetricBaseline] = {}

    def metric(self, name: str) -> MetricBaseline:
        if name not in self._metrics:
            self._metrics[name] = MetricBaseline(self.config.alpha)
        return self._metrics[name]

    def update(self, samples: dict[str, float]) -> None:
        for name, value in samples.items():
            self.metric(name).update(value)

    def exceeded(self, samples: dict[str, float]) -> list[str]:
        """Names of warmed-up metrics strictly above their threshold.

        Raises :class:`ColdStart` when no observed metric is warmed up.
        """
        warmup, k = self.config.warmup, self.config.k
        warmed = False
        above = []
        for name, value in samples.items():
            baseline = self._metrics.get(name)
            if baseline is not None and baseline.samples >= warmup:
                warmed = True
                if value > baseline.threshold(k):
                    above.append(name)
        if not warmed:
            raise ColdStart(f"no metric has {warmup} samples yet")
        return above


def classify(alarm_raised: bool, truth_is_attack: bool) -> Outcome:
    if alarm_raised:
        return Outcome.TP if truth_is_attack else Outcome.FP
    return Outcome.FN if truth_is_attack else Outcome.TN


@dataclass
class ConfusionCounters:
    tp: int = 0
    fp: int = 0
    tn: int = 0
    fn: int = 0

    def add(self, outcome: Outcome, n: int = 1) -> None:
        setattr(self, outcome.value, getattr(self, outcome.value) + n)

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn

    def as_dict(self) -> dict[str, int]:
        return {"tp": self.tp, "fp": self.fp, "tn": self.tn, "fn": self.fn}


def sign_of_attack(tn: int, fn: int, d: int = 1, b: int = 1) -> SignOfAttack:
    """Benign-silence mass over missed-attack mass.

    ``fn == 0`` yields +inf (nothing was missed, so no sign of attack).
    """
    if tn < 0 or fn < 0:
        raise ValueError("tn and fn must be >= 0")
    if d <= 0 or b <= 0:
        raise ValueError("smoothing constants must be > 0")
    if fn == 0:
        return SignOfAttack(math.inf, SignVerdict.NO_ATTACK)
    ratio = Fraction(tn, tn + d) / Fraction(fn, fn + b)
    if ratio > 1:
        verdict = SignVerdict.NO_ATTACK
    elif ratio < 1:
        verdict = SignVerdict.ATTACK
    else:
        verdict = SignVerdict.BOUNDARY
    return SignOfAttack(float(ratio), verdict)


# -- windowed evaluation over traces ---------------------------------------


RATE = "event_rate"
MEAN_SIZE = "mean_payload_size"
DISTINCT_SOURCES = "distinct_sources"


def traffic_metrics(count: int, size_sum: int, sources: int, window: float) -> dict[str, float]:
    """The anomaly metrics of ``count`` generic events seen in ``window`` seconds.

    ``sources`` is the number of distinct sources among them; the mean
    payload size is left out when there are no events.
    """
    metrics = {RATE: count / window, DISTINCT_SOURCES: float(sources)}
    if count:
        metrics[MEAN_SIZE] = size_sum / count
    return metrics


class TrailingWindow:
    """Per-event metrics over the generic events of the last ``window`` seconds."""

    def __init__(self):
        self._events: deque[tuple[float, int, int]] = deque()
        self._size_sum = 0
        self._sources: Counter = Counter()

    def add(self, time: float, size: int, src: int, window: float) -> dict[str, float]:
        """Add one event, drop those at or before ``time - window``, return the metrics."""
        self._events.append((time, size, src))
        self._size_sum += size
        self._sources[src] += 1
        cutoff = time - window
        while self._events and self._events[0][0] <= cutoff:
            _, old_size, old_src = self._events.popleft()
            self._size_sum -= old_size
            self._sources[old_src] -= 1
            if self._sources[old_src] <= 0:
                del self._sources[old_src]
        return traffic_metrics(len(self._events), self._size_sum, len(self._sources), window)


class WindowTracker:
    """Tumbling-window metric accounting over a stream of events.

    Feed every event through :meth:`add_event`; only generic payloads
    contribute samples, but any event's timestamp closes due windows.
    The trailing partial window at end of stream is never closed.
    """

    def __init__(self, config: AnomalyConfig):
        self.config = config
        self.baseline = Baseline(config)
        self.counters = ConfusionCounters()
        self.st_series: list[tuple[float, float]] = []
        self._index: Optional[int] = None
        self._count = 0
        self._size_sum = 0
        self._sources: set[int] = set()
        self._attack = False

    def _emit(self) -> None:
        metrics = traffic_metrics(self._count, self._size_sum, len(self._sources),
                                  self.config.window)
        try:
            raised: Optional[bool] = bool(self.baseline.exceeded(metrics))
        except ColdStart:
            raised = None
        if raised is not None:
            self.counters.add(classify(raised, self._attack))
            end = (self._index + 1) * self.config.window
            self.st_series.append((end, sign_of_attack(self.counters.tn, self.counters.fn).ratio))
        if not raised:  # silent or cold: safe to learn from this window
            self.baseline.update(metrics)
        self._count = 0
        self._size_sum = 0
        self._sources = set()
        self._attack = False

    def add_event(self, event: SimEvent) -> None:
        index = int(event.time // self.config.window)
        if self._index is not None:
            while self._index < index:
                self._emit()
                self._index += 1
        if not isinstance(event.payload, GenericPayload):
            return
        if self._index is None:
            self._index = index
        self._count += 1
        self._size_sum += event.payload.size_bytes
        self._sources.add(event.src)
        if event.ground_truth is not AttackClass.NONE:
            self._attack = True


def window_classification(events: Iterable[SimEvent], config: AnomalyConfig) -> WindowTracker:
    """Run the tumbling-window classification over a finished trace."""
    tracker = WindowTracker(config)
    for event in events:
        tracker.add_event(event)
    return tracker
