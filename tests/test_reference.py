"""Differential test: ``run_detection`` and ``build_report`` equal the reference detector.

Each case draws a trace, a rule set, ingredient and anomaly configs, a
topology and, for some, mid-trace policy switches from a seeded
``random.Random``.  The detect pass and its report must equal
``reference_detect.detect`` exactly: every alert, counter, series, tally
and report figure, and the events each layer consulted.

Run it alone with ``pytest tests/test_reference.py``.
"""

import dataclasses
import random

import pytest

from dhcpguard.alerts import AlertClass, Severity
from dhcpguard.anomaly import AnomalyConfig
from dhcpguard.dhcp import BODY_SIZE, DhcpMessage, MsgType, encode_message, parse_ipv4
from dhcpguard.metrics import build_report
from dhcpguard.netsim import (
    BROADCAST,
    AttackClass,
    GenericPayload,
    NodeSpec,
    Proto,
    Role,
    ScenarioKind,
    SimEvent,
    default_scenario,
    default_topology,
    legit_server_records,
    run_scenario,
)
from dhcpguard.pipeline import DhcpRegistry, Pipeline, Policy, run_detection
from dhcpguard.signatures import (
    Direction,
    IngredientConfig,
    Signature,
    SignatureDb,
    load_signatures,
    sample_signatures_path,
)

import reference_detect as reference
from helpers import payload_from_raw
from test_acceptance import _random_trace

LEGIT = parse_ipv4("10.0.0.2")
ROGUE = parse_ipv4("10.0.66.1")
GATEWAY = parse_ipv4("10.0.0.1")
REGISTRY = DhcpRegistry.from_records([{
    "server_id": "10.0.0.2", "mac": "02:00:00:00:00:01",
    "gateway": "10.0.0.1", "dns": "10.0.0.1"}])
ATTACKS = [c for c in AttackClass if c is not AttackClass.NONE]


def assert_same(events, policy, nodes, duration, *, switches=None, block=False, malformed=0):
    """Detect ``events`` both ways, installing ``switches`` before their events."""
    switches = switches or {}
    pipe = Pipeline(policy, nodes)

    def feed():
        for index, event in enumerate(events):
            if index in switches:
                pipe.update_policy(switches[index])
            yield event

    result = run_detection(feed(), pipe, duration=duration, malformed=malformed, block=block)
    expected = reference.detect(events, policy, nodes, duration=duration, malformed=malformed,
                                block=block, switches=switches, label="diff")
    assert result == expected.result
    assert build_report(result, label="diff") == expected.report
    assert pipe.layer_calls == expected.layer_calls
    return result


# -- random inputs ------------------------------------------------------------------


def random_ingredients(rng):
    return IngredientConfig(
        max_rate=rng.choice([10.0, 40.0, 1000.0, 1000.0]),
        max_gap=rng.choice([0.5, 3.0, 30.0, 30.0]),
        flood_threshold=rng.choice([8, 40, 10**4, 10**4]),
        retransmit_timeout=rng.choice([0.005, 0.1, 0.5, 2.0]),
        replication_limit=rng.choice([2, 5, 10**4, 10**4]),
        window=rng.choice([0.25, 0.5, 1.0, 2.5]),
    )


def random_anomaly(rng):
    return AnomalyConfig(
        alpha=rng.choice([0.1, 0.3, 1.0]),
        k=rng.choice([0.5, 1.0, 3.0]),
        warmup=rng.choice([1, 3, 10]),
        window=rng.choice([0.25, 0.5, 1.0]),
    )


def random_rules(rng, events):
    """Up to six rules cut from the trace's own payloads, in every direction, some overlapping."""
    roll = rng.random()
    if roll < 0.15:
        return SignatureDb([])
    if roll < 0.3:
        return load_signatures(sample_signatures_path())
    payloads = [reference.payload_bytes(event) for event in rng.sample(events, min(8, len(events)))]
    patterns = []
    for _ in range(rng.randint(1, 6)):
        if patterns and rng.random() < 0.4:  # a prefix or a suffix of an earlier rule
            base = rng.choice(patterns)
            cut = rng.randint(1, len(base))
            pattern = base[:cut] if rng.random() < 0.5 else base[-cut:]
        else:
            payload = rng.choice(payloads)
            start = rng.randrange(len(payload))
            pattern = payload[start:start + rng.randint(2, 8)]
        patterns.append(pattern)
    ids = rng.sample(range(1, 1000), len(patterns))
    return SignatureDb([
        Signature(i, p, rng.choice(list(AlertClass)), rng.choice(list(Direction)),
                  rng.choice(list(Severity)))
        for i, p in zip(ids, patterns)
    ])


def random_policy(rng, events, registry, version=1, anomaly=None):
    return Policy(version, registry, random_rules(rng, events), random_ingredients(rng),
                  anomaly if anomaly is not None else random_anomaly(rng))


def random_switches(rng, events, policy):
    """Zero to three later policies, each with its own rules and timeout, at random events."""
    at = sorted(rng.sample(range(1, len(events)), min(rng.randint(0, 3), len(events) - 1)))
    return {index: random_policy(rng, events, policy.registry, version, policy.anomaly)
            for version, index in enumerate(at, start=2)}


def detection_nodes(rng, topology):
    """The whole topology, part of it (so some pairs are unknown) or none."""
    roll = rng.random()
    if roll < 0.15:
        return None
    nodes = {n.id: n for n in topology}
    if roll < 0.4:
        for node_id in rng.sample(sorted(nodes), len(nodes) // 3):
            del nodes[node_id]
    return nodes


def scatter(rng, topology):
    """Move some nodes and shrink some radio ranges, so some pairs fall out of range."""
    return [dataclasses.replace(n, position=(rng.uniform(-300, 300), rng.uniform(-300, 300)),
                                radio_range=rng.uniform(10, 400))
            if rng.random() < 0.25 else n for n in topology]


# Simulated seconds that make a trace of a few hundred to 1,500 events.
_SECONDS = {ScenarioKind.DOS_SYN: 5, ScenarioKind.DOS_SMURF: 8, ScenarioKind.DOS_DNS: 8,
            ScenarioKind.MIXED: 10, ScenarioKind.MASQUERADE: 12, ScenarioKind.ROGUE_RACE: 30,
            ScenarioKind.STARVATION: 15}


@pytest.mark.parametrize("kind", list(ScenarioKind))
@pytest.mark.parametrize("seed", [1, 2])
def test_simulated_traces_match_the_reference(kind, seed):
    rng = random.Random(f"{kind.value}-{seed}")
    duration = round(rng.uniform(0.6, 1.2) * _SECONDS[kind], 2)
    clients = rng.randint(3, 8)
    topology = scatter(rng, default_topology(kind, clients))
    trace = run_scenario(default_scenario(
        kind, seed=seed, duration=duration, topology=topology, clients=clients,
        rates={AttackClass.NONE: rng.choice([5.0, 20.0])},
        attack_start=round(rng.uniform(0.0, duration / 2), 2), lease_secs=rng.choice([4, 300]),
        rogue_answers_requests=rng.random() < 0.7, tamper=rng.random() < 0.5))
    registry = DhcpRegistry.from_records(legit_server_records(trace.topology))
    policy = random_policy(rng, trace.events, registry)
    switches = random_switches(rng, trace.events, policy) if rng.random() < 0.5 else {}
    result = assert_same(trace.events, policy, detection_nodes(rng, trace.topology),
                         trace.duration, switches=switches, block=rng.random() < 0.5,
                         malformed=rng.choice([0, 0, 3]))
    assert result.analyzed == len(trace.events)


# -- traces on a time grid ----------------------------------------------------------------


def _grid_nodes(rng):
    roles = [Role.ROUTER, Role.LEGIT_DHCP, Role.ROGUE_DHCP, Role.ATTACKER, Role.CLIENT, Role.CLIENT]
    return {i: NodeSpec(i, role, (rng.choice([0.0, 40.0, 120.0]), rng.choice([0.0, 40.0])),
                        radio_range=rng.choice([30.0, 60.0, 500.0]))
            for i, role in enumerate(roles)}


def _grid_dhcp(rng):
    msg_type = rng.choice([MsgType.DISCOVER, MsgType.REQUEST, MsgType.REQUEST, MsgType.OFFER,
                           MsgType.ACK, MsgType.ACK, MsgType.NAK])
    server = rng.choice([LEGIT, LEGIT, ROGUE])
    fields = {} if msg_type is MsgType.DISCOVER else {
        "your_ip": parse_ipv4("10.0.1.7"), "server_id": server,
        "gateway": GATEWAY if server == LEGIT and rng.random() < 0.8 else ROGUE, "dns": GATEWAY}
    # few xids, so requests are retried, answered and asked again
    raw = encode_message(DhcpMessage(msg_type, rng.randrange(4), (7).to_bytes(6, "big"), **fields))
    if rng.random() < 0.1:  # a frame that fails its checksum, or one of the wrong length
        raw = raw[:BODY_SIZE] + bytes([raw[BODY_SIZE] ^ 1]) + raw[BODY_SIZE + 1:]
        if rng.random() < 0.3:
            raw += b"\x00"
    return payload_from_raw(raw)


def grid_trace(rng, dhcp_share):
    """Events at multiples of 1/8 s, so window cutoffs land exactly on events, and their span.

    The clock mostly moves forward.  A few steps go back, even below 0,
    and a few events lie far past the span, so detect's skip rule is
    checked too.
    """
    patterns = [b"alpha", b"alpha beta", b"beta gamma", b"xxx", rng.randbytes(4)]
    ids = list(range(6)) + [9]  # 9 is no node of the topology
    sources = rng.sample(ids, rng.randint(2, len(ids)))
    events, now, span = [], 0.0, 0.0
    for _ in range(rng.randint(150, 400)):
        roll = rng.random()
        if roll < 0.02:  # a backward step
            now -= rng.choice([0.125, 1.0, 5.0])
        else:
            now += rng.choice([0.0, 0.125, 0.125, 0.25, 0.5, 1.0, rng.choice([0.0, 4.0])])
        span = max(span, now)
        if rng.random() < dhcp_share:
            payload = _grid_dhcp(rng)
        else:
            pattern = rng.choice(patterns) + rng.choice([b"", b"", b"!", b" tail"])
            payload = GenericPayload(Proto.TCP, frozenset({"ack"}),
                                     rng.choice([60, 100, 1500, 9000]), pattern)
        truth = rng.choice([AttackClass.NONE] * 3 + ATTACKS)
        dst = rng.choice(ids + [BROADCAST])
        time = now + 1e6 if roll > 0.99 else now  # past the span
        events.append(SimEvent(time, rng.choice(sources), dst, payload, truth))
    return events, span


@pytest.mark.parametrize("seed", range(36))
def test_grid_traces_match_the_reference(seed):
    rng = random.Random(seed)
    # One case in three is mostly DHCP, and only its retransmission check is
    # strict, so that retried and re-asked REQUESTs show in the alerts.
    requests = seed % 3 == 1
    events, span = grid_trace(rng, 0.8 if requests else rng.choice([0.2, 0.5]))
    policy = random_policy(rng, events, REGISTRY)
    if requests:
        policy = dataclasses.replace(policy, ingredients=IngredientConfig(
            max_rate=1e3, max_gap=1e3, flood_threshold=10**4, replication_limit=10**4,
            retransmit_timeout=rng.choice([2.0, 4.0, 8.0])))
    switches = random_switches(rng, events, policy) if seed % 2 else {}
    assert_same(events, policy, _grid_nodes(rng), span + rng.choice([0.0, 0.5]),
                switches=switches, block=seed % 3 == 0)


def test_criterion_7_random_traces_match_the_reference():
    rng = random.Random(321)
    for case in range(40):
        events = _random_trace(rng)
        nodes = _grid_nodes(rng) if case % 2 else None
        policy = random_policy(rng, events, REGISTRY)
        assert_same(events, policy, nodes, events[-1].time,
                    switches=random_switches(rng, events, policy))


def test_an_empty_trace_matches_the_reference():
    policy = Policy(1, REGISTRY, load_signatures(sample_signatures_path()))
    result = assert_same([], policy, None, 3.0)
    assert result.capture_series == [(1.0, 0, 0), (2.0, 0, 0), (3.0, 0, 0)]
