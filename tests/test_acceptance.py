"""Acceptance gate: one test per release criterion, with a PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they print.
"""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from dhcpguard.alerts import Layer
from dhcpguard.anomaly import AnomalyConfig, SignVerdict, sign_of_attack
from dhcpguard.cli import main as cli_main
from dhcpguard.dhcp import (
    AddressPool,
    DhcpMessage,
    MsgType,
    PoolExhausted,
    decode_message,
    encode_message,
    parse_ipv4,
)
from dhcpguard.metrics import efficiency, packet_analysis_capacity, precision, overall_probability
from dhcpguard.netsim import (
    AttackClass,
    DhcpPayload,
    GenericPayload,
    Proto,
    ScenarioKind,
    SimEvent,
    default_scenario,
    legit_server_records,
    run_scenario,
)
from dhcpguard.pipeline import DhcpRegistry, Pipeline, Policy, run_detection
from dhcpguard.signatures import load_signatures, sample_signatures_path

from helpers import EventPipeline, payload_from_message, window_classification
from test_dhcp import address_extreme_messages, random_message


@contextmanager
def criterion(number, description):
    try:
        yield
    except Exception:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    print(f"[PASS] criterion {number}: {description}")


def _registry_for(trace):
    return DhcpRegistry.from_records(legit_server_records(trace.topology))


def _policy(registry):
    return Policy(version=1, registry=registry,
                  signatures=load_signatures(sample_signatures_path()))


def _detect(trace, block=False):
    pipe = Pipeline(_policy(_registry_for(trace)), {n.id: n for n in trace.topology})
    return run_detection(trace.events, pipe, block=block, duration=trace.duration)


def test_criterion_1_efficiency_formula_reproduction():
    with criterion(1, "efficiency on reference captured counts = 99.996% within 0.001"):
        value = efficiency(tsa=42003, taa=45002, msa=2, maa=1, tga=87005)
        assert abs(value - 99.996) <= 0.001


def test_criterion_2_packet_analysis_capacity():
    with criterion(2, "packet analysis capacity (236456, 236719) = 99.88% within 0.01"):
        value = packet_analysis_capacity(236456, 236719)
        assert abs(value - 99.88) <= 0.01


def test_criterion_3_sign_of_attack_anchor():
    with criterion(3, "sign_of_attack(3, 2, 1, 1) = 1.125 exactly, verdict no-attack"):
        result = sign_of_attack(3, 2, 1, 1)
        assert result.ratio == 1.125
        assert result.verdict is SignVerdict.NO_ATTACK


def test_criterion_4_rogue_race_detection_across_20_seeds():
    with criterion(4, "20 rogue-race seeds: every rogue OFFER alerted at the "
                      "verifier, zero false positives, < 5 s wall-clock each"):
        for seed in range(1, 21):
            started = time.perf_counter()
            trace = run_scenario(default_scenario(
                ScenarioKind.ROGUE_RACE, seed=seed, duration=60.0, clients=10))
            result = _detect(trace)
            elapsed = time.perf_counter() - started
            assert elapsed < 5.0, f"seed {seed} took {elapsed:.2f}s"

            rogue_offers = {
                i for i, ev in enumerate(trace.events)
                if ev.ground_truth is AttackClass.ROGUE_DHCP
                and isinstance(ev.payload, DhcpPayload)
                and ev.payload.message is not None
                and ev.payload.message.msg_type is MsgType.OFFER
            }
            assert rogue_offers, f"seed {seed} produced no rogue offers"
            verifier_hits = {a.evidence[0] for a in result.alerts
                             if a.layer is Layer.VERIFIER}
            assert rogue_offers <= verifier_hits, f"seed {seed} missed a rogue offer"
            assert result.counters.fp == 0, f"seed {seed} raised false positives"


def test_criterion_5_starvation_detection():
    with criterion(5, "starvation (pool 50, 60 spoofed MACs): exhaustion fires "
                      "within one window of pool exhaustion, legit offers = 50"):
        trace = run_scenario(default_scenario(
            ScenarioKind.STARVATION, seed=7, duration=30.0, clients=5,
            pool_size=50, spoofed_macs=60))
        legit_offer_times = [
            ev.time for ev in trace.events
            if isinstance(ev.payload, DhcpPayload)
            and ev.payload.message is not None
            and ev.payload.message.msg_type is MsgType.OFFER
            and ev.payload.message.server_id == parse_ipv4("10.0.0.2")
        ]
        assert len(legit_offer_times) == 50
        exhaustion_time = max(legit_offer_times)

        result = _detect(trace)
        window = Pipeline(_policy(_registry_for(trace))).policy.ingredients.window
        exhaustion_alerts = [a.time for a in result.alerts
                             if a.unique_sign == "SG-ING-time_interval"
                             and a.attack_class.value == "exhaustion"]
        assert exhaustion_alerts, "exhaustion ingredient never fired"
        assert min(exhaustion_alerts) <= exhaustion_time + window


def test_criterion_6_anomaly_power_across_20_seeds():
    with criterion(6, "anomaly defaults on 10x flood: >= 95% attack windows TP "
                      "and >= 95% background windows TN across 20 seeds"):
        config = AnomalyConfig(alpha=0.1, k=3.0, warmup=30, window=1.0)
        tp = fn = tn = fp = 0
        for seed in range(100, 120):
            trace = run_scenario(default_scenario(
                ScenarioKind.DOS_SYN, seed=seed, duration=100.0, attack_start=50.0,
                rates={AttackClass.DOS: 200.0, AttackClass.NONE: 20.0}))
            counters = window_classification(trace.events, config).counters
            tp += counters.tp
            fn += counters.fn
            tn += counters.tn
            fp += counters.fp
        assert tp + fn > 0 and tn + fp > 0
        assert tp / (tp + fn) >= 0.95, f"attack-window TP rate {tp / (tp + fn):.3f}"
        assert tn / (tn + fp) >= 0.95, f"background-window TN rate {tn / (tn + fp):.3f}"


def _random_trace(rng):
    """A short, messy event stream with arbitrary labels for oracle checks."""
    legit = parse_ipv4("10.0.0.2")
    gateway = parse_ipv4("10.0.0.1")
    events = []
    now = 0.0
    for _ in range(rng.randint(20, 60)):
        now += rng.random() * 0.3
        truth = rng.choice([AttackClass.NONE, AttackClass.NONE, AttackClass.DOS,
                            AttackClass.R2L, AttackClass.ROGUE_DHCP])
        roll = rng.random()
        if roll < 0.25:
            msg = DhcpMessage(MsgType.OFFER, rng.getrandbits(32),
                              rng.randrange(1, 50).to_bytes(6, "big"),
                              your_ip=rng.getrandbits(32),
                              server_id=legit if rng.random() < 0.5
                              else rng.randrange(1, 2**32),
                              gateway=gateway if rng.random() < 0.5
                              else rng.getrandbits(32),
                              dns=gateway, lease_secs=300)
            payload = payload_from_message(msg)
        elif roll < 0.4:
            msg = DhcpMessage(MsgType.DISCOVER, rng.getrandbits(32),
                              rng.randrange(1, 50).to_bytes(6, "big"))
            payload = payload_from_message(msg)
        else:
            pattern = rng.choice([b"plain chatter", b"dl freepics.exe now",
                                  b"x" * rng.randint(1, 30)])
            payload = GenericPayload(Proto.TCP, frozenset({"ack"}),
                                     rng.randint(40, 1400), pattern)
        events.append(SimEvent(now, rng.randrange(0, 6), rng.randrange(0, 6),
                               payload, truth))
    return events


def test_criterion_7_oracle_equivalence_on_random_traces():
    with criterion(7, "precision / overall probability match a brute-force "
                      "tally of the alert log on 100 random traces, exactly"):
        rng = random.Random(321)
        registry = DhcpRegistry.from_records([{
            "server_id": "10.0.0.2", "mac": "02:00:00:00:00:01",
            "gateway": "10.0.0.1", "dns": "10.0.0.1"}])
        for _ in range(100):
            events = _random_trace(rng)
            pipe = Pipeline(_policy(registry))
            result = run_detection(events, pipe, duration=events[-1].time)

            # independent tally straight from the alert log and the trace
            alerted = {alert.evidence[0] for alert in result.alerts}
            assert len(alerted) == len(result.alerts), "one alert per event"
            tally = {"tp": 0, "fp": 0, "tn": 0, "fn": 0}
            for index, event in enumerate(events):
                attack = event.ground_truth is not AttackClass.NONE
                hit = index in alerted
                key = ("tp" if attack else "fp") if hit else ("fn" if attack else "tn")
                tally[key] += 1
            assert tally == result.counters.as_dict()

            if tally["tp"] + tally["fp"] > 0:
                assert precision(result.counters.tp, result.counters.fp) == \
                    tally["tp"] / (tally["tp"] + tally["fp"])
            assert overall_probability(result.counters.tp, result.counters.tn,
                                       result.counters.fp, result.counters.fn) == \
                (tally["tp"] + tally["tn"]) / len(events)


def test_criterion_8a_codec_round_trip_corpus():
    with criterion(8, "(a) 1000 random messages and the address extremes survive "
                      "encode/decode round trip"):
        rng = random.Random(20240817)
        corpus = [random_message(rng) for _ in range(1000)] + list(address_extreme_messages())
        for msg in corpus:
            assert decode_message(encode_message(msg)) == msg


def test_criterion_8b_pool_injectivity_under_random_ops():
    with criterion(8, "(b) pool stays injective and in-range under random operations"):
        rng = random.Random(777)
        pool = AddressPool(parse_ipv4("10.0.1.1"), parse_ipv4("10.0.1.12"), 25)
        macs = [i.to_bytes(6, "big") for i in range(20)]
        now = 0.0
        for _ in range(600):
            now += rng.random() * 4
            mac = rng.choice(macs)
            if rng.random() < 0.7:
                try:
                    pool.allocate(mac, now)
                except PoolExhausted:
                    pass
            else:
                pool.release(mac)
            active = pool.active_leases(now)
            assert len(set(active.values())) == len(active)
            assert all(ip in pool for ip in active.values())


def test_criterion_8c_pipeline_short_circuit_instrumentation():
    with criterion(8, "(c) layer consultation is always a strict prefix chain"):
        trace = run_scenario(default_scenario(ScenarioKind.MIXED, seed=8, duration=20.0))
        pipe = EventPipeline(_policy(_registry_for(trace)), {n.id: n for n in trace.topology})
        order = (Layer.VERIFIER, Layer.SIGNATURE, Layer.ANOMALY)
        for index, event in enumerate(trace.events):
            alert = pipe.process_event(event, index)
            consulted = pipe.last_consulted
            assert 1 <= len(consulted) <= 3
            assert consulted == order[:len(consulted)]
            if alert is None:
                assert len(consulted) == 3
            else:
                assert alert.layer is consulted[-1]


def test_criterion_8d_sign_ratio_monotone_on_grid():
    with criterion(8, "(d) sign-of-attack ratio monotone over tn, fn in [0, 100]"):
        for fn in range(1, 101):
            previous = -math.inf
            for tn in range(0, 101):
                ratio = sign_of_attack(tn, fn).ratio
                assert ratio > previous
                previous = ratio
        for tn in range(1, 101):
            previous = math.inf
            for fn in range(1, 101):
                ratio = sign_of_attack(tn, fn).ratio
                assert ratio < previous
                previous = ratio
        oracle = float(Fraction(3, 4) / Fraction(2, 3))
        assert sign_of_attack(3, 2).ratio == oracle


def test_criterion_8e_counter_conservation_end_to_end():
    with criterion(8, "(e) tp+fp+tn+fn equals analyzed events on every run"):
        for kind, seed in ((ScenarioKind.ROGUE_RACE, 3), (ScenarioKind.STARVATION, 4),
                           (ScenarioKind.DOS_SYN, 5), (ScenarioKind.MASQUERADE, 6),
                           (ScenarioKind.MIXED, 7)):
            trace = run_scenario(default_scenario(kind, seed=seed, duration=20.0))
            result = _detect(trace)
            assert result.counters.total == result.analyzed == len(trace.events)


def test_criterion_9_end_to_end_determinism(tmp_path):
    with criterion(9, "simulate -> detect -> report twice with seed 42 is "
                      "byte-identical"):
        outputs = []
        for run in ("one", "two"):
            base = tmp_path / run
            base.mkdir()
            trace = base / "trace.jsonl"
            registry = base / "registry.json"
            alerts = base / "alerts.jsonl"
            counters = base / "counters.json"
            report = base / "report.json"
            series = base / "series.csv"
            assert cli_main(["simulate", "--scenario", "rogue-race", "--seed", "42",
                             "--duration", "60", "--clients", "10",
                             "--out", str(trace), "--registry-out", str(registry)]) == 0
            assert cli_main(["detect", "--trace", str(trace), "--registry", str(registry),
                             "--alerts", str(alerts), "--counters", str(counters),
                             "--label", "seed-42"]) == 1
            assert cli_main(["report", str(counters), "--format", "json",
                             "--out", str(report), "--series", str(series)]) == 0
            outputs.append([p.read_bytes() for p in
                            (trace, registry, alerts, counters, report, series)])
        assert outputs[0] == outputs[1]
