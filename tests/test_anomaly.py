import math
import random
from fractions import Fraction

import pytest

from dhcpguard.anomaly import (
    DISTINCT_SOURCES,
    MEAN_SIZE,
    AnomalyConfig,
    Baseline,
    ConfusionCounters,
    MetricBaseline,
    Outcome,
    RATE,
    SignVerdict,
    TrailingWindow,
    classify,
    sign_of_attack,
    traffic_metrics,
)
from dhcpguard.netsim import AttackClass, ScenarioKind, default_scenario, run_scenario

from helpers import window_classification


# -- EWMA baseline -----------------------------------------------------------


def test_constant_stream_converges():
    m = MetricBaseline(alpha=0.2, k=3.0)
    for _ in range(200):
        m.update(42.0)
    assert m.mean == pytest.approx(42.0)
    assert m.variance < 1e-12
    assert m.threshold == pytest.approx(42.0)


def test_alpha_one_tracks_last_sample():
    m = MetricBaseline(alpha=1.0, k=3.0)
    for value in (5.0, 9.0, 2.0):
        m.update(value)
        assert m.mean == value


def test_spike_moves_mean_by_alpha():
    # hand-evaluated recurrence: after ten 100s, mean(1000) = 0.9*100 + 0.1*1000
    m = MetricBaseline(alpha=0.1, k=3.0)
    for _ in range(10):
        m.update(100.0)
    m.update(1000.0)
    assert m.mean == pytest.approx(190.0)


def test_geometric_convergence_to_constant():
    m = MetricBaseline(alpha=0.5, k=3.0)
    m.update(0.0)
    gaps = []
    for _ in range(10):
        m.update(100.0)
        gaps.append(100.0 - m.mean)
    ratios = [b / a for a, b in zip(gaps, gaps[1:])]
    assert all(r == pytest.approx(0.5) for r in ratios)


def test_rejects_non_finite_samples():
    with pytest.raises(ValueError):
        MetricBaseline(alpha=0.1, k=3.0).update(math.inf)


# -- detection ----------------------------------------------------------------


def _warmed_baseline(config, low=90.0, high=110.0, n=40):
    baseline = Baseline(config)
    for i in range(n):
        baseline.update({RATE: low if i % 2 else high})
    return baseline


def test_detect_silent_at_mean_raised_far_above():
    config = AnomalyConfig(alpha=0.1, k=3.0, warmup=30)
    baseline = _warmed_baseline(config)
    mean = baseline.metric(RATE).mean
    std = math.sqrt(baseline.metric(RATE).variance)
    assert baseline.exceeded({RATE: mean}) == []
    assert baseline.exceeded({RATE: mean + 10.0 * std}) == [RATE]


def test_cold_start_before_warmup():
    config = AnomalyConfig(alpha=0.1, k=3.0, warmup=30)
    baseline = Baseline(config)
    for _ in range(29):
        baseline.update({RATE: 10.0})
    assert baseline.exceeded({RATE: 10.0}) is None
    baseline.update({RATE: 10.0})
    assert baseline.exceeded({RATE: 10.0}) == []


def test_config_validation():
    with pytest.raises(ValueError):
        AnomalyConfig(alpha=0.0)
    with pytest.raises(ValueError):
        AnomalyConfig(alpha=1.5)
    with pytest.raises(ValueError):
        AnomalyConfig(warmup=0)
    for name in ("k", "window"):
        for value in (0.0, float("nan")):
            with pytest.raises(ValueError):
                AnomalyConfig(**{name: value})


# -- alarm/truth classification ------------------------------------------------


@pytest.mark.parametrize("alarm,truth,expected", [
    (True, True, Outcome.TP),    # sign of alarm, attack really there
    (True, False, Outcome.FP),   # alarm but no attack
    (False, True, Outcome.FN),   # silent on a real attack
    (False, False, Outcome.TN),  # silent, nothing there
])
def test_classify_matrix(alarm, truth, expected):
    assert classify(alarm, truth) is expected


def test_classification_totality_and_forwarding():
    outcomes = {classify(a, t) for a in (True, False) for t in (True, False)}
    assert outcomes == {Outcome.TP, Outcome.FP, Outcome.TN, Outcome.FN}


def test_counters_sum():
    counters = ConfusionCounters()
    for outcome, n in ((Outcome.TP, 3), (Outcome.FP, 1), (Outcome.TN, 7), (Outcome.FN, 2)):
        counters.add(outcome, n)
    assert counters.total == 13
    assert counters.as_dict() == {"tp": 3, "fp": 1, "tn": 7, "fn": 2}


# -- sign of attack ratio --------------------------------------------------------


def test_sign_of_attack_worked_example():
    result = sign_of_attack(3, 2, 1, 1)
    assert result.ratio == 1.125  # exactly (3/4)/(2/3) = 9/8
    assert result.verdict is SignVerdict.NO_ATTACK


def test_sign_of_attack_boundary_when_counts_equal():
    result = sign_of_attack(5, 5)
    assert result.ratio == 1.0
    assert result.verdict is SignVerdict.BOUNDARY


def test_sign_of_attack_attack_side():
    result = sign_of_attack(3, 4)
    assert result.ratio == 0.9375  # (3/4)/(4/5) = 15/16
    assert result.verdict is SignVerdict.ATTACK


def test_sign_of_attack_edges():
    assert sign_of_attack(0, 0) == (math.inf, SignVerdict.NO_ATTACK)
    assert sign_of_attack(10, 0) == (math.inf, SignVerdict.NO_ATTACK)
    zero = sign_of_attack(0, 7)
    assert zero.ratio == 0.0 and zero.verdict is SignVerdict.ATTACK
    with pytest.raises(ValueError):
        sign_of_attack(-1, 0)
    with pytest.raises(ValueError):
        sign_of_attack(1, 1, d=0)
    with pytest.raises(ValueError):
        sign_of_attack(1, 1, b=0)


def _exact_sign(tn, fn, d, b):
    ratio = Fraction(tn, tn + d) / Fraction(fn, fn + b)
    verdict = (SignVerdict.NO_ATTACK if ratio > 1
               else SignVerdict.ATTACK if ratio < 1 else SignVerdict.BOUNDARY)
    return float(ratio), verdict


def test_sign_of_attack_equals_the_exact_fraction_form():
    rng = random.Random(20)
    for _ in range(5000):
        d = rng.randint(2, 10 ** rng.randint(1, 6))
        b = rng.randint(2, 10 ** rng.randint(1, 6))
        if rng.random() < 0.3:  # on the boundary (tn * b == d * fn) or one count off it
            k = rng.randint(1, 10 ** rng.randint(1, 24))
            tn, fn = d * k + rng.choice((-1, 0, 0, 1)), b * k
        else:
            tn = rng.randint(0, 10 ** rng.randint(1, 30))
            fn = rng.randint(1, 10 ** rng.randint(1, 30))
        assert sign_of_attack(tn, fn, d, b) == _exact_sign(tn, fn, d, b), (tn, fn, d, b)


def test_sign_of_attack_monotonicity_grid():
    # strictly increasing in tn, strictly decreasing in fn over [0, 100]^2
    for fn in range(1, 101):
        previous = -math.inf
        for tn in range(0, 101):
            ratio = sign_of_attack(tn, fn).ratio
            assert ratio > previous
            previous = ratio
    # strictly decreasing in fn needs tn >= 1; at tn == 0 the ratio floors at 0
    for fn in range(1, 101):
        assert sign_of_attack(0, fn).ratio == 0.0
    for tn in range(1, 101):
        previous = math.inf
        for fn in range(1, 101):
            ratio = sign_of_attack(tn, fn).ratio
            assert ratio < previous
            previous = ratio
    # with equal smoothing, the boundary is exactly tn == fn
    for n in range(0, 101):
        assert sign_of_attack(n, n).verdict is (
            SignVerdict.NO_ATTACK if n == 0 else SignVerdict.BOUNDARY)


# -- traffic metrics and the trailing window ----------------------------------------


def test_traffic_metrics_omit_mean_size_without_events():
    assert traffic_metrics(0, 0, 0, 0.5) == {RATE: 0.0, DISTINCT_SOURCES: 0.0}
    assert traffic_metrics(4, 600, 3, 2.0) == {
        RATE: 2.0, DISTINCT_SOURCES: 3.0, MEAN_SIZE: 150.0}


def test_trailing_window_drops_events_at_or_before_the_cutoff():
    w = TrailingWindow()
    w.add(0.0, 100, 1, 1.0)
    w.add(0.5, 300, 2, 1.0)
    # cutoff 1.0 - 1.0 = 0.0: the event at exactly 0.0 is dropped
    assert w.add(1.0, 200, 2, 1.0) == {RATE: 2.0, DISTINCT_SOURCES: 1.0, MEAN_SIZE: 250.0}
    # cutoff 0.25: the event at 0.5 is still strictly newer
    assert w.add(1.25, 400, 3, 1.0) == {RATE: 3.0, DISTINCT_SOURCES: 2.0, MEAN_SIZE: 300.0}
    # cutoff 0.5: the event at exactly 0.5 goes, and source 2 keeps one event
    assert w.add(1.5, 600, 3, 1.0) == {RATE: 3.0, DISTINCT_SOURCES: 2.0, MEAN_SIZE: 400.0}


def test_trailing_window_uses_the_window_it_is_given():
    w = TrailingWindow()
    w.add(0.0, 100, 1, 1.0)
    w.add(0.6, 100, 2, 1.0)
    # a shorter window on the next call prunes with that window
    assert w.add(1.0, 100, 3, 0.5) == {RATE: 4.0, DISTINCT_SOURCES: 2.0, MEAN_SIZE: 100.0}


# -- windowed classification over a trace -----------------------------------------


def test_flood_windows_raise_background_windows_stay_silent():
    scenario = default_scenario(
        ScenarioKind.DOS_SYN, seed=11, duration=100.0, attack_start=50.0,
        rates={AttackClass.DOS: 200.0, AttackClass.NONE: 20.0},
    )
    trace = run_scenario(scenario)
    tracker = window_classification(trace.events, AnomalyConfig())
    c = tracker.counters
    assert c.tp > 0 and c.tn > 0
    assert c.fn == 0
    assert c.tp / (c.tp + c.fn) >= 0.95
    assert c.tn / (c.tn + c.fp) >= 0.95
    # the overall ratio of the run points at "attack present or nothing missed"
    assert sign_of_attack(c.tn, c.fn).verdict is SignVerdict.NO_ATTACK  # fn == 0


def test_pure_background_never_raises_alarms():
    scenario = default_scenario(
        ScenarioKind.DOS_SYN, seed=11, duration=80.0,
        rates={AttackClass.DOS: 0.0, AttackClass.NONE: 20.0},
    )
    trace = run_scenario(scenario)
    tracker = window_classification(trace.events, AnomalyConfig())
    c = tracker.counters
    assert c.tp == 0 and c.fn == 0
    assert c.tn / max(c.tn + c.fp, 1) >= 0.95
