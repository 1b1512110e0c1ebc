"""Compact trace records: slotted immutable events and shared flag sets.

The per-event objects carry no ``__dict__`` and stay frozen; reading a
trace shares one frozenset per distinct flag set.  On every line that
both accept, hostile ones included, it parses exactly as the plain form
in ``legacy_detect``, which builds a new flag set per event, does; lines
that the plain form coerces are malformed to the trace reader.
"""

import dataclasses
import gc
import json
import tracemalloc

import pytest

import legacy_detect
from dhcpguard import netsim
from dhcpguard.alerts import Alert, AlertClass, Layer, Severity
from dhcpguard.dhcp import DhcpMessage, MsgType, encode_message
from dhcpguard.netsim import (
    AttackClass,
    DhcpPayload,
    GenericPayload,
    Proto,
    ScenarioKind,
    SimEvent,
    default_scenario,
    read_trace,
    run_scenario,
    write_trace,
)
from dhcpguard.signatures import EventView, Ingredient, Violation, make_view
from helpers import payload_from_message

# The parent of the compact records retained about 571 B per event.
MAX_RETAINED_BYTES_PER_EVENT = 300

HEADER = {"schema": netsim.TRACE_SCHEMA, "kind": "mixed", "seed": 1, "duration": 60.0,
          "topology": []}


def _records():
    msg = DhcpMessage(MsgType.OFFER, 7, (5).to_bytes(6, "big"), your_ip=10, server_id=2)
    generic = GenericPayload(Proto.TCP, frozenset({"ack"}), 100, b"x")
    dhcp = payload_from_message(msg)
    event = SimEvent(1.0, 4, 0, generic, AttackClass.DOS)
    return [
        event,
        generic,
        dhcp,
        msg,
        Alert(1.0, Layer.VERIFIER, AlertClass.ROGUE_DHCP, Severity.HIGH, (0,), "VR-ROGUE"),
        make_view(event, 0),
        make_view(SimEvent(2.0, 1, 4, dhcp), 1),
        Violation(Ingredient.FLOODING, AlertClass.FLOODING, Severity.HIGH),
    ]


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_per_event_records_are_slotted_and_frozen(record):
    assert not hasattr(record, "__dict__")
    assert type(record).__slots__
    first = dataclasses.fields(record)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(record, first, getattr(record, first))
    # A name that is no field is refused too; on some Python versions a
    # slotted frozen dataclass's __setattr__ refuses it with TypeError.
    with pytest.raises((dataclasses.FrozenInstanceError, TypeError)):
        record.extra = 1


def test_every_slotted_class_is_covered():
    covered = {type(r) for r in _records()}
    assert covered == {SimEvent, GenericPayload, DhcpPayload, DhcpMessage, Alert,
                       EventView, Violation}


def _mixed_trace(path, duration=60.0):
    write_trace(run_scenario(default_scenario(ScenarioKind.MIXED, 1, duration=duration)), path)


def test_read_trace_retains_few_bytes_per_event(tmp_path):
    path = tmp_path / "mixed.jsonl"
    _mixed_trace(path)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trace, malformed = read_trace(path)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert not malformed and len(trace.events) > 5000
    assert retained / len(trace.events) <= MAX_RETAINED_BYTES_PER_EVENT


def test_flag_sets_are_shared_when_simulated_and_when_read(tmp_path, monkeypatch):
    monkeypatch.setattr(netsim, "_flag_sets", {})
    path = tmp_path / "mixed.jsonl"
    trace = run_scenario(default_scenario(ScenarioKind.MIXED, 1, duration=10.0))
    write_trace(trace, path)
    loaded, _ = read_trace(path)
    for events in (trace.events, loaded.events):
        flag_sets = {id(ev.payload.flags) for ev in events if isinstance(ev.payload, GenericPayload)}
        assert 1 < len(flag_sets) <= 3  # no flags, ack, syn


def _generic(**changes):
    payload = {"kind": "generic", "proto": "tcp", "flags": ["ack"], "size_bytes": 100,
               "payload_pattern": "0a0b"}
    event = {"time": 1.0, "src": 4, "dst": 0, "ground_truth": "none"}
    for key, value in changes.items():
        (payload if key in payload else event)[key] = value
    return {**event, "payload": payload}


def _dhcp(raw):
    return {"time": 2.0, "src": 1, "dst": "broadcast", "ground_truth": "rogue_dhcp",
            "payload": {"kind": "dhcp", "data": raw.hex()}}


# Flag values that are not lists of strings.  The reference reader converts
# them (``[1]`` to {"1"}, ``"ack"`` to {"a", "c", "k"}); the trace reader
# refuses them.
UNTYPED_FLAGS = ([1], [True], [[]], "ack", [None], [1.0], {"ack": 1}, [["ack"]])


def _hostile_lines():
    """Lines that the trace reader and the reference reader accept or refuse alike."""
    wire = encode_message(DhcpMessage(MsgType.OFFER, 9, (3).to_bytes(6, "big"), your_ip=10,
                                      server_id=2))
    events = [_generic()]
    for flags in (["1"], 5, ["ack", "ack"], ["ack"], [], ["syn", "ack"], ["ack", "syn"], None):
        events.append(_generic(flags=flags))
    for proto in ("tcp", "udp", "icmp", "dns", "smtp", "TCP", "", [], {}, 5, None, True):
        events.append(_generic(proto=proto))
    for label in ("none", "dos", "rogue_dhcp", "bogus", "DOS", "", [], {}, 1, None):
        events.append(_generic(ground_truth=label))
    events.append(_dhcp(wire))
    events.append(_dhcp(bytes([wire[0] ^ 1]) + wire[1:]))        # bad checksum
    events.append(_dhcp(b"\x04" + wire[1:30] + b"\0\0"))          # unknown type 4
    events.append(_dhcp(wire[:31]))                               # bad length
    lines = [json.dumps(ev) for ev in events]
    lines += ['{"time": 3.0, "src": 1}', "not json", "[1, 2]"]
    return lines


def test_shared_flag_sets_parse_hostile_lines_as_before(tmp_path, monkeypatch):
    path = tmp_path / "hostile.jsonl"
    path.write_text(json.dumps(HEADER) + "\n" + "\n".join(_hostile_lines()) + "\n")
    trace, malformed = read_trace(path)
    monkeypatch.setattr(netsim, "event_from_json", legacy_detect.event_from_json)
    legacy_trace, legacy_malformed = read_trace(path)

    assert trace.events == legacy_trace.events
    # The same lines are refused.  A reason is the reference's, or it now
    # names the field at fault where the reference gave Python's wording.
    assert [lineno for lineno, _ in malformed] == [lineno for lineno, _ in legacy_malformed]
    for (_, reason), (_, legacy_reason) in zip(malformed, legacy_malformed):
        assert reason == legacy_reason or reason.startswith(
            ("flags must be ", "proto must be ", "ground_truth must be ", "event must be "))
    assert len(trace.events) > 10 and len(malformed) > 10
    for new, old in zip(trace.events, legacy_trace.events):
        if isinstance(new.payload, GenericPayload):
            assert type(new.payload.proto) is type(old.payload.proto)
            assert sorted(new.payload.flags) == sorted(old.payload.flags)
        assert type(new.ground_truth) is AttackClass


def test_flags_that_are_not_lists_of_strings_are_malformed(tmp_path):
    lines = [json.dumps(_generic(flags=flags)) for flags in UNTYPED_FLAGS]
    for line in lines:  # the reference reader converts each of them
        legacy_detect.event_from_json(json.loads(line))
    path = tmp_path / "untyped-flags.jsonl"
    path.write_text(json.dumps(HEADER) + "\n" + "\n".join(lines) + "\n")
    trace, malformed = read_trace(path)

    assert trace.events == []
    assert [lineno for lineno, _ in malformed] == list(range(2, 2 + len(UNTYPED_FLAGS)))
    for (_, reason), flags in zip(malformed, UNTYPED_FLAGS):
        assert reason == f"flags must be a list of strings, got {flags!r}"


def test_flag_set_table_stays_within_its_cap(monkeypatch, tmp_path):
    monkeypatch.setattr(netsim, "_flag_sets", {})
    for i in range(10_000):
        flags = [f"f{i}"] if i % 2 else [f"f{i}", "ack"]
        event = netsim.event_from_json(_generic(flags=flags))
        assert event.payload.flags == frozenset(flags)
        assert len(netsim._flag_sets) <= netsim.FLAG_SETS_MAX
    # A trace read after all those lists still shares its flag sets.
    path = tmp_path / "mixed.jsonl"
    write_trace(run_scenario(default_scenario(ScenarioKind.MIXED, 1, duration=10.0)), path)
    loaded, _ = read_trace(path)
    flag_sets = {id(ev.payload.flags) for ev in loaded.events
                 if isinstance(ev.payload, GenericPayload)}
    assert len(flag_sets) <= 3

