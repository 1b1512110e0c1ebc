import dataclasses
import json
import random

import pytest

from dhcpguard.cli import main
from dhcpguard.dhcp import DhcpMessage, MsgType, encode_message, format_ipv4, format_mac
from dhcpguard.netsim import (
    ATTACKER_IP,
    BROADCAST,
    INPUT_ERRORS,
    AttackClass,
    DhcpPayload,
    GenericPayload,
    InvalidScenario,
    LEGIT_POOL_START,
    LEGIT_SERVER_IP,
    NodeSpec,
    Proto,
    ROGUE_SERVER_IP,
    Role,
    Scenario,
    ScenarioKind,
    SimEvent,
    class_counts,
    default_scenario,
    default_topology,
    event_from_json,
    legit_server_records,
    load_topology,
    node_mac,
    read_trace,
    read_trace_header,
    replay_client_bindings,
    run_scenario,
    save_topology,
    write_trace,
    _input_error,
)
from helpers import payload_from_message
from test_fuzz import CASES, mutate
from test_memory import HEADER, _dhcp, _generic


def _dhcp_events(events, msg_type=None, server_id=None):
    out = []
    for ev in events:
        if not isinstance(ev.payload, DhcpPayload) or ev.payload.message is None:
            continue
        msg = ev.payload.message
        if msg_type is not None and msg.msg_type is not msg_type:
            continue
        if server_id is not None and msg.server_id != server_id:
            continue
        out.append(ev)
    return out


# -- general process properties ---------------------------------------------


def test_identical_seed_identical_trace():
    a = run_scenario(default_scenario(ScenarioKind.ROGUE_RACE, seed=42))
    b = run_scenario(default_scenario(ScenarioKind.ROGUE_RACE, seed=42))
    assert a.events == b.events
    c = run_scenario(default_scenario(ScenarioKind.ROGUE_RACE, seed=43))
    assert a.events != c.events


@pytest.mark.parametrize("kind", list(ScenarioKind))
def test_times_non_decreasing_and_all_labeled(kind):
    trace = run_scenario(default_scenario(kind, seed=3, duration=20.0))
    times = [ev.time for ev in trace.events]
    assert times == sorted(times)
    assert all(isinstance(ev.ground_truth, AttackClass) for ev in trace.events)
    assert all(0 <= ev.time < trace.duration for ev in trace.events)


def test_all_rates_zero_is_pure_dora_background():
    sc = default_scenario(ScenarioKind.ROGUE_RACE, seed=9, clients=4, rates={})
    sc.rates = {}
    trace = run_scenario(sc)
    assert all(isinstance(ev.payload, DhcpPayload) for ev in trace.events)
    assert all(ev.ground_truth is AttackClass.NONE for ev in trace.events)
    bindings = replay_client_bindings(trace.events)
    assert len(bindings) == 4
    assert all(b.server_id == LEGIT_SERVER_IP for b in bindings.values())


# -- rogue race ---------------------------------------------------------------


def test_rogue_offer_always_precedes_legit_offer_per_xid():
    trace = run_scenario(default_scenario(ScenarioKind.ROGUE_RACE, seed=21, clients=8))
    rogue_first = {}
    legit_first = {}
    for ev in _dhcp_events(trace.events, MsgType.OFFER):
        xid = ev.payload.message.xid
        if ev.payload.message.server_id == ROGUE_SERVER_IP:
            rogue_first.setdefault(xid, ev.time)
        else:
            legit_first.setdefault(xid, ev.time)
    assert rogue_first, "no rogue offers generated"
    for xid, t_rogue in rogue_first.items():
        assert xid in legit_first
        assert t_rogue < legit_first[xid]


def test_naive_client_binds_attacker_gateway():
    trace = run_scenario(default_scenario(ScenarioKind.ROGUE_RACE, seed=21, clients=8))
    bindings = replay_client_bindings(trace.events)
    assert len(bindings) == 8
    assert all(b.gateway == ATTACKER_IP for b in bindings.values())
    assert all(b.dns == ATTACKER_IP for b in bindings.values())


def test_rogue_disabled_clients_bind_legit_server():
    sc = default_scenario(ScenarioKind.ROGUE_RACE, seed=21, clients=8)
    sc.rates[AttackClass.ROGUE_DHCP] = 0.0
    trace = run_scenario(sc)
    bindings = replay_client_bindings(trace.events)
    assert len(bindings) == 8
    assert all(b.server_id == LEGIT_SERVER_IP for b in bindings.values())
    assert class_counts(trace.events)[AttackClass.ROGUE_DHCP] == 0


def _exchange(*steps):
    """Events of one client's exchange: (src, type, server_id) per message, xid 7."""
    mac = node_mac(4)
    events = []
    for i, (src, msg_type, server_id) in enumerate(steps):
        your_ip = 0 if msg_type in (MsgType.DISCOVER, MsgType.NAK) else LEGIT_POOL_START + i
        msg = DhcpMessage(msg_type, 7, mac, your_ip=your_ip, server_id=server_id,
                          gateway=server_id, dns=server_id)
        events.append(SimEvent(0.1 * i, src, BROADCAST, payload_from_message(msg)))
    return events


def test_replay_binds_through_the_offer_left_after_a_block():
    events = _exchange((4, MsgType.DISCOVER, 0), (2, MsgType.OFFER, ROGUE_SERVER_IP),
                       (1, MsgType.OFFER, LEGIT_SERVER_IP), (4, MsgType.REQUEST, LEGIT_SERVER_IP),
                       (2, MsgType.ACK, ROGUE_SERVER_IP), (1, MsgType.ACK, LEGIT_SERVER_IP))
    # Unblocked, the rogue's OFFER comes first and its ACK binds.
    assert replay_client_bindings(events)[4].server_id == ROGUE_SERVER_IP
    # Blocked, the legit OFFER wins; the rogue's ACK names a server the
    # client did not request, so only the legit ACK binds.
    binding = replay_client_bindings(events, blocked=frozenset({1}))[4]
    assert (binding.server_id, binding.ip) == (LEGIT_SERVER_IP, LEGIT_POOL_START + 5)


def test_replay_nak_ends_the_exchange():
    events = _exchange((4, MsgType.DISCOVER, 0), (1, MsgType.OFFER, LEGIT_SERVER_IP),
                       (1, MsgType.NAK, LEGIT_SERVER_IP), (1, MsgType.ACK, LEGIT_SERVER_IP))
    assert replay_client_bindings(events) == {}
    assert 4 in replay_client_bindings(events[:2] + events[3:])


# -- starvation ----------------------------------------------------------------


def test_starvation_legit_offer_count_equals_pool_size():
    sc = default_scenario(ScenarioKind.STARVATION, seed=5, duration=30.0, clients=5,
                          pool_size=50, spoofed_macs=60)
    trace = run_scenario(sc)
    legit_offers = _dhcp_events(trace.events, MsgType.OFFER, LEGIT_SERVER_IP)
    assert len(legit_offers) == 50
    # silence afterwards: the last legit offer precedes every later discover's answer
    last = max(ev.time for ev in legit_offers)
    spoofed = [ev for ev in trace.events if ev.ground_truth is AttackClass.DOS]
    assert len(spoofed) == 60
    late_discovers = [ev for ev in _dhcp_events(trace.events, MsgType.DISCOVER)
                      if ev.time > last and ev.ground_truth is AttackClass.NONE]
    assert late_discovers, "expected a post-exhaustion client discover"


def test_starvation_post_exhaustion_client_served_only_by_rogue():
    sc = default_scenario(ScenarioKind.STARVATION, seed=5, duration=30.0, clients=5,
                          pool_size=50, spoofed_macs=60)
    trace = run_scenario(sc)
    legit_offers = _dhcp_events(trace.events, MsgType.OFFER, LEGIT_SERVER_IP)
    exhaustion = max(ev.time for ev in legit_offers)
    # the late client's exchange happens strictly after exhaustion
    late_client_macs = {
        ev.payload.message.client_mac
        for ev in _dhcp_events(trace.events, MsgType.DISCOVER)
        if ev.time > exhaustion and ev.ground_truth is AttackClass.NONE
    }
    assert late_client_macs
    for mac in late_client_macs:
        offers = [ev for ev in _dhcp_events(trace.events, MsgType.OFFER)
                  if ev.payload.message.client_mac == mac]
        assert offers, "late client went unanswered"
        assert all(ev.payload.message.server_id == ROGUE_SERVER_IP for ev in offers)


def test_starvation_without_flood_serves_everyone():
    sc = default_scenario(ScenarioKind.STARVATION, seed=5, duration=30.0, clients=5,
                          pool_size=50)
    sc.rates[AttackClass.DOS] = 0.0
    trace = run_scenario(sc)
    bindings = replay_client_bindings(trace.events)
    assert len(bindings) == 5
    assert all(b.server_id == LEGIT_SERVER_IP for b in bindings.values())


# -- denial of service ----------------------------------------------------------


def test_dos_syn_count_and_flags():
    sc = default_scenario(ScenarioKind.DOS_SYN, seed=2, duration=10.0,
                          rates={AttackClass.DOS: 100.0})
    trace = run_scenario(sc)
    dos = [ev for ev in trace.events if ev.ground_truth is AttackClass.DOS]
    assert abs(len(dos) - 1000) <= 50  # rate x duration within 5%
    for ev in dos:
        assert isinstance(ev.payload, GenericPayload)
        assert ev.payload.flags == frozenset({"syn"})
    # a SYN flood is never followed by its own ACKs
    assert not any("ack" in ev.payload.flags for ev in dos)


def test_dos_smurf_broadcast_with_spoofed_source():
    trace = run_scenario(default_scenario(ScenarioKind.DOS_SMURF, seed=2, duration=10.0))
    dos = [ev for ev in trace.events if ev.ground_truth is AttackClass.DOS]
    assert dos
    client_ids = {n.id for n in trace.topology if n.role is Role.CLIENT}
    for ev in dos:
        assert ev.dst == BROADCAST
        assert ev.src in client_ids  # spoofed victim source
        assert ev.payload.proto.value == "icmp"


def test_dos_dns_repeats_one_query_pattern():
    trace = run_scenario(default_scenario(ScenarioKind.DOS_DNS, seed=2, duration=10.0))
    dos = [ev for ev in trace.events if ev.ground_truth is AttackClass.DOS]
    assert len({ev.payload.payload_pattern for ev in dos}) == 1
    assert all(ev.payload.proto.value == "dns" for ev in dos)


# -- masquerade -------------------------------------------------------------------


def test_masquerade_relays_each_flow_through_attacker():
    sc = default_scenario(ScenarioKind.MASQUERADE, seed=13, duration=30.0, clients=4,
                          rates={AttackClass.ROGUE_DHCP: 1.0, AttackClass.MASQUERADE: 4.0})
    trace = run_scenario(sc)
    attacker = next(n.id for n in trace.topology if n.role is Role.ATTACKER)
    inbound = [ev for ev in trace.events
               if isinstance(ev.payload, GenericPayload) and ev.dst == attacker]
    outbound = [ev for ev in trace.events
                if isinstance(ev.payload, GenericPayload) and ev.src == attacker]
    assert inbound and len(inbound) == len(outbound)
    assert all(ev.ground_truth is AttackClass.MASQUERADE for ev in inbound + outbound)
    # relay preserves the payload bytes when tampering is off
    assert [ev.payload.payload_pattern for ev in inbound] == \
        [ev.payload.payload_pattern for ev in outbound]


def test_masquerade_tamper_mutates_relayed_bytes():
    sc = default_scenario(ScenarioKind.MASQUERADE, seed=13, duration=30.0, clients=4,
                          tamper=True,
                          rates={AttackClass.ROGUE_DHCP: 1.0, AttackClass.MASQUERADE: 4.0})
    trace = run_scenario(sc)
    attacker = next(n.id for n in trace.topology if n.role is Role.ATTACKER)
    inbound = [ev.payload.payload_pattern for ev in trace.events
               if isinstance(ev.payload, GenericPayload) and ev.dst == attacker]
    outbound = [ev.payload.payload_pattern for ev in trace.events
                if isinstance(ev.payload, GenericPayload) and ev.src == attacker]
    assert inbound and all(a != b for a, b in zip(inbound, outbound))
    # tampering also re-injects corrupted copies of legitimate DHCP offers
    corrupted = [ev for ev in trace.events
                 if isinstance(ev.payload, DhcpPayload) and ev.payload.error == "bad_checksum"]
    assert corrupted
    assert all(ev.ground_truth is AttackClass.MASQUERADE for ev in corrupted)


def test_masquerade_without_rogue_binding_has_no_relays():
    sc = default_scenario(ScenarioKind.MASQUERADE, seed=13, duration=30.0, clients=4,
                          rates={AttackClass.ROGUE_DHCP: 0.0, AttackClass.MASQUERADE: 4.0})
    trace = run_scenario(sc)
    assert class_counts(trace.events)[AttackClass.MASQUERADE] == 0


# -- rate contract -------------------------------------------------------------


def test_rate_driven_counts_within_five_percent():
    rates = {
        AttackClass.DOS: 50.0,
        AttackClass.U2R: 5.0,
        AttackClass.R2L: 5.0,
        AttackClass.PROBE: 5.0,
        AttackClass.NONE: 20.0,
        AttackClass.ROGUE_DHCP: 0.0,  # keep background undiverted
    }
    duration = 40.0
    sc = default_scenario(ScenarioKind.MIXED, seed=77, duration=duration, rates=rates)
    trace = run_scenario(sc)
    counts = class_counts(trace.events)
    for cls in (AttackClass.DOS, AttackClass.U2R, AttackClass.R2L, AttackClass.PROBE):
        expected = rates[cls] * duration
        assert abs(counts[cls] - expected) <= 0.05 * expected


# -- validation ------------------------------------------------------------------


def test_invalid_scenarios():
    with pytest.raises(InvalidScenario):
        run_scenario(Scenario(ScenarioKind.ROGUE_RACE, duration=0.0, seed=1))
    with pytest.raises(InvalidScenario):
        run_scenario(Scenario(ScenarioKind.ROGUE_RACE, duration=10.0, seed=1,
                              rates={AttackClass.DOS: -1.0}))
    with pytest.raises(InvalidScenario):  # topology without required roles
        run_scenario(Scenario(
            ScenarioKind.DOS_SYN, duration=10.0, seed=1,
            rates={AttackClass.DOS: 10.0},
            topology=[NodeSpec(0, Role.CLIENT), NodeSpec(1, Role.LEGIT_DHCP)],
        ))
    with pytest.raises(InvalidScenario):  # duplicate ids
        run_scenario(Scenario(
            ScenarioKind.ROGUE_RACE, duration=10.0, seed=1,
            topology=[NodeSpec(0, Role.CLIENT), NodeSpec(0, Role.LEGIT_DHCP)],
        ))


# -- serialization ----------------------------------------------------------------


def test_trace_round_trip(tmp_path):
    trace = run_scenario(default_scenario(ScenarioKind.MIXED, seed=77, duration=15.0))
    path = tmp_path / "trace.jsonl"
    write_trace(trace, path)
    loaded, malformed = read_trace(path)
    assert malformed == []
    assert loaded.events == trace.events
    assert loaded.kind == trace.kind and loaded.seed == trace.seed
    assert [n.id for n in loaded.topology] == [n.id for n in sorted(trace.topology, key=lambda n: n.id)]
    assert read_trace_header(path) == dataclasses.replace(loaded, events=[])


def test_read_trace_counts_malformed_lines(tmp_path):
    trace = run_scenario(default_scenario(ScenarioKind.ROGUE_RACE, seed=1, clients=3))
    path = tmp_path / "trace.jsonl"
    write_trace(trace, path)
    lines = path.read_text().splitlines()
    lines[5] = '{"broken": true}'
    lines.append("not json at all")
    path.write_text("\n".join(lines) + "\n")
    loaded, malformed = read_trace(path)
    assert len(malformed) == 2
    assert [lineno for lineno, _ in malformed] == [6, len(lines)]
    assert len(loaded.events) == len(trace.events) - 1


@pytest.mark.parametrize("kind", list(ScenarioKind), ids=lambda k: k.value)
def test_every_kind_reads_back_to_equal_events(tmp_path, kind):
    trace = run_scenario(default_scenario(kind, seed=7, duration=10.0, tamper=True))
    path = tmp_path / "trace.jsonl"
    write_trace(trace, path)
    loaded, malformed = read_trace(path)
    assert malformed == []
    assert loaded.events == trace.events


def _event_line(field, value):
    """A valid trace line with ``field`` of the event or its payload set to ``value``."""
    event = _dhcp(bytes(32)) if field == "data" else _generic()
    (event["payload"] if field in event["payload"] else event)[field] = value
    return json.dumps(event)


# Values the reader used to convert with int(), float() or str() instead of
# refusing: a string, a float or a bool for an integer, a string or a bool for
# a number, -1 (the broadcast pseudo-id) or 2^40 for a node id, a string for a
# list of flags, and hex text with a space in it.
_COERCED = [
    ("src", "7"), ("src", 1.5), ("src", True), ("src", -1), ("src", 2**40),
    ("dst", True), ("dst", -1), ("dst", "7"), ("dst", 2**40),
    ("time", "3"), ("time", True),
    ("size_bytes", 5.9), ("size_bytes", "60"), ("size_bytes", True),
    ("flags", "ack"), ("flags", [1]),
    ("data", 5), ("data", "00 " + "00" * 31),
    ("payload_pattern", "a b"), ("payload_pattern", "0a 0b"),
]


@pytest.mark.parametrize("field, value", _COERCED, ids=lambda v: repr(v))
def test_a_mistyped_event_field_is_malformed_naming_it(tmp_path, field, value):
    path = tmp_path / "trace.jsonl"
    path.write_text(json.dumps(HEADER) + "\n" + _event_line(field, value) + "\n")
    trace, malformed = read_trace(path)
    assert trace.events == []
    [(lineno, reason)] = malformed
    assert lineno == 2
    assert reason.startswith(f"{field} must be ") and reason.endswith(f", got {value!r}")


@pytest.mark.parametrize("field, value, expected", [
    ("time", 3, 3.0), ("time", -0.0, 0.0), ("src", 0, 0), ("src", 2**40 - 1, 2**40 - 1),
    ("dst", "broadcast", BROADCAST), ("size_bytes", 2**32, 2**32), ("flags", [], frozenset()),
    ("payload_pattern", "0A0b", b"\n\x0b"),
], ids=lambda v: repr(v))
def test_event_fields_at_their_bounds_are_read(tmp_path, field, value, expected):
    path = tmp_path / "trace.jsonl"
    path.write_text(json.dumps(HEADER) + "\n" + _event_line(field, value) + "\n")
    trace, malformed = read_trace(path)
    assert malformed == []
    [event] = trace.events
    read = getattr(event.payload if hasattr(event.payload, field) else event, field)
    assert read == expected and type(read) is type(expected)


def _read_by_json_loads(path):
    """The events and ``(lineno, reason)`` pairs of ``path`` with each line
    after the header parsed by ``json.loads``: the reader's reference."""
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        lines = fh.readlines()[1:]
    events, malformed = [], []
    for lineno, line in enumerate(lines, start=2):
        if not line.strip():
            continue
        try:
            events.append(event_from_json(json.loads(line)))
        except INPUT_ERRORS as exc:
            malformed.append((lineno, _input_error(exc)))
    return events, malformed


def _assert_reads_as_json_loads(path):
    trace, malformed = read_trace(path)
    expected = _read_by_json_loads(path)
    assert (trace.events, malformed) == expected
    return expected


_OFFER = _dhcp(encode_message(DhcpMessage(MsgType.OFFER, 9, b"\x02" * 6, your_ip=5,
                                          server_id=2)))
# Lines at the C scanner's edge, "{}" standing for a valid event: lines it
# does not take whole, and bare values it does.
_EDGE_LINES = [
    " {}", "\x0b{}", "\ufeff{}", "{}   ", "{}\t", "{}\r", "{} {}", "{}x", "{},",
    "[" * 100_000, "null", '"x"', "1e400", "NaN", "", "   ", "\t", "{", '{"time": }',
    '"\\x"', "1" * 5000, "\xff{}".encode("latin-1").decode("utf-8", "replace"),
]


def test_read_trace_parses_edge_lines_as_json_loads(tmp_path):
    path = tmp_path / "trace.jsonl"
    reasons = []
    for line in _EDGE_LINES:
        for event in (_generic(), _OFFER):
            valid = json.dumps(event, separators=(",", ":"))
            text = f"{json.dumps(HEADER)}\n{valid}\n{line.replace('{}', valid)}\n{valid}\n"
            path.write_bytes(text.encode())
            events, malformed = _assert_reads_as_json_loads(path)
            assert len(events) >= 2, line
            reasons += [reason for _, reason in malformed]
    for needle in ("Extra data", "Expecting value", "Unexpected UTF-8 BOM",
                   "maximum recursion depth", "event must be an object", "Exceeds the limit"):
        assert any(needle in reason for reason in reasons), needle


def test_read_trace_parses_crlf_and_an_unterminated_last_line_as_json_loads(tmp_path):
    valid = json.dumps(_generic())
    path = tmp_path / "trace.jsonl"
    # \r\n reads as \n; the last line has no newline
    path.write_bytes(f"{json.dumps(HEADER)}\r\n{valid}\r\n\r\n{valid}\n{valid}".encode())
    events, malformed = _assert_reads_as_json_loads(path)
    assert len(events) == 3 and malformed == []


@pytest.fixture(scope="module")
def fuzzed_traces(tmp_path_factory):
    """The mutated traces of ``tests/test_fuzz.py``, each with a valid header."""
    root = tmp_path_factory.mktemp("fuzz")
    original = root / "trace.jsonl"
    assert main(["simulate", "--scenario", "mixed", "--seed", "3", "--duration", "10",
                 "--rate-dos", "10", "--rate-background", "5",
                 "--out", str(original), "--registry-out", str(root / "registry.json")]) == 0
    data = original.read_bytes()
    header = data.partition(b"\n")[0]
    return [header + b"\n" + mutate(random.Random(f"trace:{case}"), "jsonl", data)[1]
            .partition(b"\n")[2] for case in range(CASES)]


def test_read_trace_parses_the_fuzz_corpus_as_json_loads(tmp_path, fuzzed_traces):
    path = tmp_path / "trace.jsonl"
    read = malformed = 0
    for data in fuzzed_traces:
        path.write_bytes(data)
        events, bad = _assert_reads_as_json_loads(path)
        read, malformed = read + len(events), malformed + len(bad)
    assert read > 0 and malformed > 0


@pytest.mark.parametrize("field, enum", [("proto", Proto), ("ground_truth", AttackClass)])
def test_an_enum_field_reads_as_its_enum_call(tmp_path, field, enum):
    values = [member.value for member in enum] + [
        "TCP", "", "none ", 0, 1, 1.5, True, None, [], ["tcp"], {}, {"none": 1}]
    path = tmp_path / "trace.jsonl"
    path.write_text(json.dumps(HEADER) + "\n"
                    + "".join(json.dumps(_generic(**{field: v})) + "\n" for v in values))
    trace, malformed = read_trace(path)
    read = iter(trace.events)
    bad = iter(malformed)
    for lineno, value in enumerate(values, start=2):
        try:
            member = enum(value)
        except ValueError:
            got_lineno, reason = next(bad)
            assert got_lineno == lineno
            assert reason.startswith(f"{field} must be one of ") and reason.endswith(
                f", got {value!r}")
        else:
            event = next(read)
            assert getattr(event.payload if field == "proto" else event, field) is member
    assert next(read, None) is None and next(bad, None) is None


def test_topology_file_round_trip(tmp_path):
    topo = default_topology(ScenarioKind.ROGUE_RACE, clients=3)
    path = tmp_path / "topo.json"
    save_topology(topo, path)
    assert load_topology(path) == sorted(topo, key=lambda n: n.id)


_NODE = ('{"id": 3, "role": "client", "position": [1.0, 2.0], "radio_range": 50.0, '
         '"link_latency": 0.01}')


@pytest.mark.parametrize("node, needle", [
    (_NODE.replace("[1.0, 2.0]", "[]"), "topology node 1: position must be"),
    (_NODE.replace("[1.0, 2.0]", "7"), "topology node 1: position must be"),
    ("7", "topology node 1: node must be an object"),
    (_NODE.replace('"client"', "-1e400"), "topology node 1: role must be one of"),
    (_NODE.replace('"id": 3', '"id": 1.5'), "topology node 1: id must be an integer, got 1.5"),
    (_NODE.replace('"id": 3', '"id": true'), "topology node 1: id must be an integer, got True"),
    (_NODE.replace('"id": 3', '"id": "7"'), "topology node 1: id must be an integer, got '7'"),
    (_NODE.replace('"id": 3', '"id": "abc"'),
     "topology node 1: id must be an integer, got 'abc'"),
    (_NODE.replace("50.0", '"x"'), "topology node 1: radio_range must be a number, got 'x'"),
    (_NODE.replace("50.0", "1" + "0" * 400),
     "topology node 1: radio_range must be a number, got 1000"),
    (_NODE.replace("50.0", "true"), "topology node 1: radio_range must be a number, got True"),
    (_NODE.replace("0.01", "null"), "topology node 1: link_latency must be a number, got None"),
    (_NODE.replace("[1.0, 2.0]", "[true, 2.0]"), "topology node 1: position must be"),
], ids=["empty-position", "number-position", "number-node", "infinite-role", "float-id",
        "bool-id", "string-id", "text-id", "text-range", "huge-range", "bool-range",
        "null-latency", "bool-position"])
def test_topology_errors_name_the_node_and_field(tmp_path, node, needle):
    # These used to read "list index out of range", "'int' object is not
    # subscriptable" and "-inf is not a valid Role".  An id of 1.5, true or
    # "7" was read as node 1, 1 or 7; "abc", "x", a 401-digit range and a
    # null latency failed in Python's words, naming no field.
    path = tmp_path / "topo.json"
    path.write_text('{"nodes": [%s, %s]}' % (_NODE.replace('"id": 3', '"id": 0'), node))
    with pytest.raises(ValueError) as info:
        load_topology(path)
    assert str(info.value).startswith(f"{path}: {needle}")


def test_topology_refuses_duplicate_node_ids(tmp_path):
    path = tmp_path / "topo.json"
    nodes = [_NODE.replace('"id": 3', '"id": %d' % i) for i in (3, 0, 1, 0)]
    path.write_text('{"nodes": [%s]}' % ", ".join(nodes))
    with pytest.raises(ValueError, match=r": topology nodes 1 and 3 share id 0$"):
        load_topology(path)


def test_legit_server_records_shape():
    topo = default_topology(ScenarioKind.ROGUE_RACE, clients=2)
    records = legit_server_records(topo)
    assert len(records) == 1
    rec = records[0]
    assert rec["server_id"] == format_ipv4(LEGIT_SERVER_IP)
    legit = next(n for n in topo if n.role is Role.LEGIT_DHCP)
    assert rec["mac"] == format_mac(node_mac(legit.id))


@pytest.mark.parametrize("field, value", [
    ("position", (float("nan"), 0.0)),
    ("position", (0.0, float("inf"))),
    ("radio_range", float("nan")),
    ("radio_range", float("inf")),
    ("radio_range", -1.0),
    ("link_latency", float("nan")),
    ("link_latency", float("-inf")),
    ("link_latency", -0.5),
])
def test_bad_node_geometry_is_refused(field, value):
    with pytest.raises(ValueError, match=field):
        NodeSpec(0, Role.CLIENT, **{field: value})
