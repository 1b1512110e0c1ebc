import dataclasses
import random
from collections import Counter

import pytest

from dhcpguard import signatures
from dhcpguard.alerts import AlertClass
from dhcpguard.dhcp import DhcpMessage, MsgType, encode_message, parse_ipv4
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
    run_scenario,
)
from dhcpguard.signatures import (
    MAX_RULE_ID_DIGITS,
    Direction,
    DuplicateSignatureId,
    Ingredient,
    IngredientConfig,
    Signature,
    SignatureDb,
    SignatureParseError,
    SlidingWindow,
    Violation,
    eval_ingredients,
    load_signatures,
    make_view,
    match_signature,
    sample_signatures_path,
)

import reference_detect as reference
from helpers import payload_from_raw


def gview(index, time, pattern=b"hello", src=1, dst=2, size=100,
          flags=frozenset(), nodes=None, proto=Proto.TCP):
    ev = SimEvent(time, src, dst, GenericPayload(proto, flags, size, pattern), AttackClass.NONE)
    return make_view(ev, index, nodes)


def dview(index, time, msg, src=1, dst=BROADCAST, corrupt=False, nodes=None):
    raw = encode_message(msg)
    if corrupt:
        raw = bytes([raw[0] ^ 0x80]) + raw[1:]
    ev = SimEvent(time, src, dst, payload_from_raw(raw), AttackClass.NONE)
    return make_view(ev, index, nodes)


# -- rule file parsing --------------------------------------------------------


def test_load_empty_file(tmp_path):
    path = tmp_path / "empty.rules"
    path.write_text("# nothing here\n\n")
    assert len(load_signatures(path)) == 0


def test_load_three_rules(tmp_path):
    path = tmp_path / "three.rules"
    path.write_text(
        "1 | any | dos | high | %s\n" % b"abc".hex()
        + "2 | inbound | r2l | medium | %s\n" % b"def".hex()
        + "3 | outbound | probe | low | %s\n" % b"ghi".hex()
    )
    db = load_signatures(path)
    assert len(db) == 3
    by_id = {sig.id: sig for sig in db}
    assert by_id[2].direction is Direction.INBOUND
    assert by_id[3].attack_class is AlertClass.PROBE


def test_duplicate_id_reports_line_number(tmp_path):
    path = tmp_path / "dup.rules"
    lines = ["# header", "", "1 | any | dos | high | 61", "2 | any | dos | high | 62",
             "# comment", "", "1 | any | dos | high | 63"]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DuplicateSignatureId) as info:
        load_signatures(path)
    assert info.value.lineno == 7


def test_parse_error_reports_line_number(tmp_path):
    path = tmp_path / "bad.rules"
    path.write_text("1 | any | dos | high | 61\n2 | any | dos | high | zz\n")
    with pytest.raises(SignatureParseError) as info:
        load_signatures(path)
    assert info.value.lineno == 2
    path.write_text("1 | any | dos | extreme | 61\n")
    with pytest.raises(SignatureParseError):
        load_signatures(path)


@pytest.mark.parametrize("rule_id", ["1_0", "+7", "-3", "\u0663", "", " 7x", "0x1f", "1.0"])
def test_a_rule_id_must_be_ascii_decimal_digits(tmp_path, rule_id):
    path = tmp_path / "ids.rules"
    path.write_text(f"1 | any | dos | high | 61\n{rule_id} | any | dos | high | 62\n",
                    encoding="utf-8")
    with pytest.raises(SignatureParseError) as info:
        load_signatures(path)
    assert info.value.lineno == 2
    assert str(info.value).startswith(f"{path}:2: id must be ASCII decimal digits, got ")


def test_a_rule_id_may_have_leading_zeros(tmp_path):
    path = tmp_path / "ids.rules"
    path.write_text("007 | any | dos | high | 61\n", encoding="utf-8")
    assert [sig.id for sig in load_signatures(path)] == [7]


@pytest.mark.parametrize("digits", [MAX_RULE_ID_DIGITS + 1, 4300, 5000])
def test_a_rule_id_longer_than_the_bound_is_refused_naming_id(tmp_path, digits):
    path = tmp_path / "ids.rules"
    path.write_text(f"{'1' * digits} | any | dos | high | 61\n", encoding="utf-8")
    with pytest.raises(SignatureParseError) as info:
        load_signatures(path)
    assert info.value.lineno == 1
    assert str(info.value).startswith(
        f"{path}:1: id must be at most {MAX_RULE_ID_DIGITS} digits, got '1111")


def test_a_rule_id_at_the_bound_is_read(tmp_path):
    path = tmp_path / "ids.rules"
    path.write_text(f"{'9' * MAX_RULE_ID_DIGITS} | any | dos | high | 61\n"
                    f"{'0' * (MAX_RULE_ID_DIGITS - 1)}7 | any | dos | high | 62\n",
                    encoding="utf-8")
    assert [sig.id for sig in load_signatures(path)] == [7, 10**MAX_RULE_ID_DIGITS - 1]


def test_sample_db_catches_malware_attachment_name():
    db = load_signatures(sample_signatures_path())
    assert len(db) >= 5
    hit = match_signature(db, gview(0, 0.0, pattern=b"GET /dl/freepics.exe HTTP/1.1"))
    assert hit is not None
    assert hit.attack_class is AlertClass.R2L


def test_empty_db_never_matches():
    db = SignatureDb([])
    assert match_signature(db, gview(0, 0.0, pattern=b"anything freepics.exe")) is None
    for payload in (b"", b"a", b"\x00", b".*"):  # an empty alternation would match these
        assert not db.matches_any(payload)


def test_lowest_id_wins_when_two_match():
    db = SignatureDb([
        Signature(7, b"root", AlertClass.U2R),
        Signature(3, b"su root", AlertClass.R2L),
    ])
    hit = match_signature(db, gview(0, 0.0, pattern=b"please su root now"))
    assert hit.id == 3


def test_direction_compatibility():
    db = SignatureDb([Signature(1, b"root", AlertClass.R2L, Direction.INBOUND)])
    nodes = {1: NodeSpec(1, Role.ATTACKER), 2: NodeSpec(2, Role.CLIENT),
             3: NodeSpec(3, Role.ROUTER)}
    inbound = gview(0, 0.0, pattern=b"root", src=1, dst=2, nodes=nodes)
    outbound = gview(1, 0.0, pattern=b"root", src=2, dst=3, nodes=nodes)
    unknown = gview(2, 0.0, pattern=b"root")  # no topology: direction unknown
    assert match_signature(db, inbound) is not None
    assert match_signature(db, outbound) is None
    assert match_signature(db, unknown) is not None


def test_matching_is_monotone_in_the_rule_set():
    rng = random.Random(8)
    small = SignatureDb([Signature(1, b"alpha", AlertClass.DOS)])
    large = SignatureDb([Signature(1, b"alpha", AlertClass.DOS),
                         Signature(2, b"beta", AlertClass.PROBE)])
    for i in range(200):
        pattern = bytes(rng.randrange(97, 123) for _ in range(12))
        if rng.random() < 0.3:
            pattern += rng.choice([b"alpha", b"beta"])
        view = gview(i, 0.0, pattern=pattern)
        if match_signature(small, view) is not None:
            assert match_signature(large, view) is not None


# Regex metacharacters, NUL and 0xff: the compiled scan must treat every
# pattern byte literally.
_PATTERN_BYTES = b".*|\\()[]^$+?{}\x00\xffab"


def _random_bytes(rng, low, high):
    return bytes(rng.choice(_PATTERN_BYTES) for _ in range(rng.randint(low, high)))


def _random_db(rng):
    patterns = []
    for _ in range(rng.randrange(6)):  # 0 rules included
        if patterns and rng.random() < 0.4:
            base = rng.choice(patterns)
            cut = rng.randint(1, len(base))
            # a prefix of an existing pattern, or one overlapping its tail
            pattern = base[:cut] if rng.random() < 0.5 else base[-cut:] + _random_bytes(rng, 1, 2)
        else:
            pattern = _random_bytes(rng, 1, 4)
        patterns.append(pattern)
    ids = rng.sample(range(1, 100), len(patterns))
    return SignatureDb([Signature(i, p, AlertClass.DOS, rng.choice(list(Direction)))
                        for i, p in zip(ids, patterns)])


@pytest.mark.parametrize("seed", range(20))
def test_compiled_scan_matches_the_per_rule_loop(seed):
    rng = random.Random(seed)
    nodes = {1: NodeSpec(1, Role.ATTACKER), 2: NodeSpec(2, Role.CLIENT),
             3: NodeSpec(3, Role.ROUTER)}
    for _ in range(10):
        db = _random_db(rng)
        rules = list(db)
        for i in range(50):
            payload = _random_bytes(rng, 0, 12)
            if rules and rng.random() < 0.5:
                cut = rng.randint(0, len(payload))
                payload = payload[:cut] + rng.choice(rules).pattern + payload[cut:]
            # dst 2 is inbound, dst 3 outbound, dst 9 of unknown direction
            view = gview(i, 0.0, pattern=payload, src=1, dst=rng.choice([2, 3, 9]), nodes=nodes)
            assert db.matches_any(payload) == any(sig.pattern in payload for sig in db)
            expected = reference.first_rule(db, view.pattern, view.direction)
            assert match_signature(db, view) is expected


# -- ingredients ----------------------------------------------------------------


def _cfg(**kw):
    defaults = dict(max_rate=50.0, max_gap=30.0, flood_threshold=500,
                    retransmit_timeout=2.0, replication_limit=50, window=1.0)
    defaults.update(kw)
    return IngredientConfig(**defaults)


def _classes(violations):
    return [v.attack_class for v in violations]


def test_low_rate_is_silent():
    cfg = _cfg(max_rate=100.0)
    w = SlidingWindow()
    for i in range(10):
        assert eval_ingredients(cfg, w, gview(i, float(i), pattern=b"p%d" % i)) == []


def test_exhaustion_fires_past_per_source_rate():
    cfg = _cfg(max_rate=50.0)
    w = SlidingWindow()
    fired_at = None
    for i in range(60):
        violations = eval_ingredients(cfg, w, gview(i, i * 0.005, pattern=b"p%d" % i))
        if AlertClass.EXHAUSTION in _classes(violations):
            fired_at = i
            break
    assert fired_at == 50  # the 51st event in the window crosses max_rate * window


def test_negligence_fires_on_long_gap():
    cfg = _cfg(max_gap=30.0)
    w = SlidingWindow()
    assert eval_ingredients(cfg, w, gview(0, 0.0, pattern=b"a")) == []
    violations = eval_ingredients(cfg, w, gview(1, 40.0, pattern=b"b"))
    assert _classes(violations) == [AlertClass.NEGLIGENCE]
    assert violations[0].ingredient is Ingredient.TIME_INTERVAL


def test_flooding_counts_all_sources():
    cfg = _cfg(flood_threshold=10, max_rate=1000.0)
    w = SlidingWindow()
    results = []
    for i in range(12):
        violations = eval_ingredients(
            cfg, w, gview(i, i * 0.01, pattern=b"p%d" % i, src=100 + i))
        results.append(AlertClass.FLOODING in _classes(violations))
    assert results.index(True) == 10  # the 11th event exceeds the threshold


def test_pattern_replication_on_identical_bursts():
    cfg = _cfg(replication_limit=50, flood_threshold=10_000, max_rate=10_000.0)
    w = SlidingWindow()
    hits = 0
    for i in range(200):
        violations = eval_ingredients(cfg, w, gview(i, i * 0.001, pattern=b"same"))
        if AlertClass.PATTERN_REPLICATION in _classes(violations):
            hits += 1
    assert hits == 150  # every event past the limit keeps firing


def test_window_counts_keep_only_keys_of_events_in_the_window():
    # Memory stays bounded by the window, not by every source and payload
    # ever seen: a count that falls to zero drops its key.
    w = SlidingWindow()
    events = [(i * 0.01, i % 300, b"p%d" % (i % 450)) for i in range(1000)]
    for time, src, pattern in events:
        w.add(time, src, pattern, window=1.0)
    cutoff = events[-1][0] - 1.0
    in_window = [(src, pattern) for time, src, pattern in events if time > cutoff]
    assert 0 < len(in_window) < 300
    assert dict(w._src_counts) == Counter(src for src, _ in in_window)
    assert dict(w._pattern_counts) == Counter(pattern for _, pattern in in_window)
    w.add(100.0, src=7, pattern=b"last", window=1.0)
    assert dict(w._src_counts) == {7: 1}
    assert dict(w._pattern_counts) == {b"last": 1}


def test_radio_range_violation_uses_geometry():
    nodes = {
        1: NodeSpec(1, Role.ATTACKER, position=(0.0, 0.0), radio_range=10.0),
        2: NodeSpec(2, Role.ROUTER, position=(20.0, 0.0), radio_range=100.0),
        3: NodeSpec(3, Role.CLIENT, position=(6.0, 8.0), radio_range=1.0),
    }
    cfg = _cfg()
    w = SlidingWindow(nodes)
    violations = eval_ingredients(cfg, w, gview(0, 0.0, src=1, dst=2, nodes=nodes))
    assert _classes(violations) == [AlertClass.RANGE_VIOLATION]
    # within range, and broadcast, are both fine
    w2 = SlidingWindow(nodes)
    assert eval_ingredients(cfg, w2, gview(1, 0.0, src=2, dst=1, nodes=nodes)) == []
    assert eval_ingredients(cfg, w2, gview(2, 0.1, src=1, dst=BROADCAST, nodes=nodes)) == []
    # node 3 lies exactly at node 1's radio range, which is in range
    assert eval_ingredients(cfg, w2, gview(3, 0.2, src=1, dst=3, nodes=nodes)) == []


def test_validity_flags_tampered_dhcp():
    cfg = _cfg()
    w = SlidingWindow()
    msg = DhcpMessage(MsgType.DISCOVER, 1, (1).to_bytes(6, "big"))
    violations = eval_ingredients(cfg, w, dview(0, 0.0, msg, corrupt=True))
    assert _classes(violations) == [AlertClass.TAMPER]
    assert violations[0].ingredient is Ingredient.VALIDITY
    w2 = SlidingWindow()
    assert eval_ingredients(cfg, w2, dview(1, 0.0, msg)) == []


def _request(xid, mac_int=9):
    return DhcpMessage(MsgType.REQUEST, xid, mac_int.to_bytes(6, "big"),
                       your_ip=parse_ipv4("10.0.1.1"), server_id=parse_ipv4("10.0.0.2"))


def _ack(xid, mac_int=9):
    return DhcpMessage(MsgType.ACK, xid, mac_int.to_bytes(6, "big"),
                       your_ip=parse_ipv4("10.0.1.1"), server_id=parse_ipv4("10.0.0.2"))


def test_unanswered_request_times_out():
    cfg = _cfg(retransmit_timeout=2.0)
    w = SlidingWindow()
    assert eval_ingredients(cfg, w, dview(0, 0.0, _request(0x55))) == []
    violations = eval_ingredients(cfg, w, gview(1, 3.0, pattern=b"later"))
    assert _classes(violations) == [AlertClass.RETRANSMISSION_FAILURE]
    assert violations[0].related == (0,)  # points back at the request


def test_answered_request_is_quiet():
    cfg = _cfg(retransmit_timeout=2.0)
    w = SlidingWindow()
    eval_ingredients(cfg, w, dview(0, 0.0, _request(0x55)))
    assert eval_ingredients(cfg, w, dview(1, 0.5, _ack(0x55))) == []
    assert eval_ingredients(cfg, w, gview(2, 5.0, pattern=b"later")) == []


def test_retried_request_satisfies_the_expectation():
    cfg = _cfg(retransmit_timeout=2.0)
    w = SlidingWindow()
    eval_ingredients(cfg, w, dview(0, 0.0, _request(0x55)))
    assert eval_ingredients(cfg, w, dview(1, 1.0, _request(0x55))) == []
    assert eval_ingredients(cfg, w, gview(2, 5.0, pattern=b"later")) == []


@pytest.mark.parametrize("seed", range(20))
def test_deadline_heap_matches_the_dict_scan(seed):
    """The pending-REQUEST queue expires what a whole-dict scan does, in time order."""
    rng = random.Random(seed)
    queue, ref = SlidingWindow(), reference.PendingRequests()
    now, timeout = 0.0, 2.0
    for index in range(400):
        # zero and whole-second steps make deadlines tie and land exactly on `now`
        now += rng.choice([0.0, 0.0, 0.25, 1.0, 2.0, rng.uniform(0.0, 3.0)])
        if rng.random() < 0.1:  # the policy's timeout changes, for pending requests too
            timeout = rng.choice([0.5, 1.0, 2.0, 5.0])
        assert (queue.pop_expired_expectations(now, timeout)
                == ref.pop_expired_expectations(now, timeout))
        xid = rng.randrange(8)  # few xids, so retries and re-requests collide
        if rng.random() < 0.6:  # a REQUEST, first try or retry
            assert queue.note_request(xid, now, index) == ref.note_request(xid, now, index)
        else:  # an ACK or NAK
            queue.note_answer(xid)
            ref.note_answer(xid)
    assert (queue.pop_expired_expectations(now + 10.0, timeout)
            == ref.pop_expired_expectations(now + 10.0, timeout))


def test_range_verdicts_match_geometry_and_are_cached_per_pair():
    rng = random.Random(4)
    nodes = {i: NodeSpec(i, Role.CLIENT, position=(rng.uniform(0, 50), rng.uniform(0, 50)),
                         radio_range=rng.uniform(0, 40)) for i in range(6)}
    w = SlidingWindow(nodes)
    verdicts = set()
    for _ in range(2):  # the second pass is answered from the cache
        for src in range(-1, 8):
            for dst in range(-1, 8):
                got = w.range_violation(src, dst)
                assert got == reference.range_violation(nodes, src, dst)
                if got is not None:
                    assert w.range_violation(src, dst) is got
                verdicts.add(got is None)
    assert verdicts == {True, False}


def test_range_cache_does_not_grow_on_unknown_nodes():
    nodes = {1: NodeSpec(1, Role.ATTACKER, position=(0.0, 0.0), radio_range=10.0),
             2: NodeSpec(2, Role.ROUTER, position=(20.0, 0.0))}
    cfg = _cfg(max_rate=1e9, flood_threshold=10**9, replication_limit=10**9)
    w = SlidingWindow(nodes)
    rng = random.Random(5)
    for i in range(500):
        src, dst = rng.choice([(1, rng.randrange(3, 10**9)), (rng.randrange(3, 10**9), 2),
                               (rng.randrange(3, 10**9), rng.randrange(3, 10**9))])
        assert eval_ingredients(cfg, w, gview(i, i * 0.01, src=src, dst=dst, nodes=nodes)) == []
    assert w._range_verdicts == {}
    eval_ingredients(cfg, w, gview(500, 5.0, src=1, dst=2, nodes=nodes))
    assert list(w._range_verdicts) == [(1, 2)]


def test_stale_events_do_not_influence_verdicts():
    cfg = _cfg(flood_threshold=10, max_rate=10_000.0, replication_limit=5, max_gap=100.0)
    w = SlidingWindow()
    for i in range(9):  # a burst just under every threshold
        eval_ingredients(cfg, w, gview(i, 0.01 * i, pattern=b"same"))
    # the window advanced far past the burst: the same traffic is judged fresh
    violations = eval_ingredients(cfg, w, gview(9, 50.0, pattern=b"same"))
    assert violations == []
    assert w.add(50.0, 1, b"same", cfg.window) == (2, 2, 2)  # only the event at 50.0 remained


def test_a_window_below_float_resolution_still_counts_the_event_itself():
    # At t = 1e5, t - 1e-300 == t: the cutoff drops every earlier event at
    # the same time, but the event being judged is recorded after the prune.
    cfg = IngredientConfig(window=1e-300)
    w = SlidingWindow()
    for i, t in enumerate([1e5, 1e5, 1e5, 1e5 + 1.0]):
        violations = eval_ingredients(cfg, w, gview(i, t, pattern=b"p%d" % i))
        assert _classes(violations) == [AlertClass.EXHAUSTION]
        assert w._src_counts[1] == 1  # the source sent this one event in the window


def test_evaluation_is_pure():
    cfg = _cfg()
    events = [(i, i * 0.1, b"p%d" % (i % 3)) for i in range(30)]
    outcomes = []
    for _ in range(2):
        w = SlidingWindow()
        run = [tuple(_classes(eval_ingredients(cfg, w, gview(i, t, pattern=p))))
               for i, t, p in events]
        outcomes.append(run)
    assert outcomes[0] == outcomes[1]


def test_each_ingredient_maps_to_one_alert_class():
    mapping = {
        Ingredient.VALIDITY: {AlertClass.TAMPER},
        Ingredient.TIME_INTERVAL: {AlertClass.EXHAUSTION, AlertClass.NEGLIGENCE},
        Ingredient.FLOODING: {AlertClass.FLOODING},
        Ingredient.RETRANSMISSION: {AlertClass.RETRANSMISSION_FAILURE},
        Ingredient.RADIO_RANGE: {AlertClass.RANGE_VIOLATION},
        Ingredient.PATTERN_REPLICATION: {AlertClass.PATTERN_REPLICATION},
    }
    # collect violations from the crafted cases above
    cfg = _cfg(max_rate=1.0, max_gap=1.0, flood_threshold=1, retransmit_timeout=1.0,
               replication_limit=1, window=1.0)
    nodes = {1: NodeSpec(1, Role.ATTACKER, position=(0.0, 0.0), radio_range=1.0),
             2: NodeSpec(2, Role.ROUTER, position=(5.0, 0.0))}
    w = SlidingWindow(nodes)
    seen = []
    seen += eval_ingredients(cfg, w, dview(0, 0.0, _request(0x1), corrupt=False, nodes=nodes))
    seen += eval_ingredients(cfg, w, dview(1, 0.1, _request(0x2), corrupt=True, nodes=nodes))
    seen += eval_ingredients(cfg, w, gview(2, 5.0, src=1, dst=2, nodes=nodes, pattern=b"x"))
    seen += eval_ingredients(cfg, w, gview(3, 5.1, src=1, dst=2, nodes=nodes, pattern=b"x"))
    assert seen
    for violation in seen:
        assert violation.attack_class in mapping[violation.ingredient]


def test_only_a_retransmission_failure_is_built_per_event():
    # A verdict carries no text: every one but a retransmission failure is
    # fixed by its ingredient, so it is that ingredient's shared instance.
    shared = (signatures.TAMPER, signatures.EXHAUSTION, signatures.NEGLIGENCE,
              signatures.FLOODING, signatures.RANGE_VIOLATION, signatures.PATTERN_REPLICATION)
    assert [f.name for f in dataclasses.fields(Violation)] == [
        "ingredient", "attack_class", "severity", "related"]
    cfg = _cfg(max_rate=5.0, max_gap=2.0, flood_threshold=20, retransmit_timeout=0.5,
               replication_limit=3)
    seen = set()
    for kind in ScenarioKind:
        trace = run_scenario(default_scenario(kind, seed=3, duration=20.0, tamper=True,
                                              rogue_answers_requests=False))
        nodes = {n.id: n for n in trace.topology}
        w = SlidingWindow(nodes)
        for i, event in enumerate(trace.events):
            for violation in eval_ingredients(cfg, w, make_view(event, i, nodes)):
                seen.add(violation.ingredient)
                if violation.ingredient is Ingredient.RETRANSMISSION:
                    (request,) = violation.related
                    assert request < i
                    assert trace.events[request].payload.message.msg_type is MsgType.REQUEST
                else:
                    assert any(violation is verdict for verdict in shared)
                    assert violation.related == ()
    assert seen == set(Ingredient)


def test_config_validation():
    with pytest.raises(ValueError):
        IngredientConfig(window=0.0)
    with pytest.raises(ValueError):
        IngredientConfig(max_rate=-1.0)
    with pytest.raises(ValueError):
        IngredientConfig(retransmit_timeout=float("nan"))
    with pytest.raises(ValueError):
        Signature(1, b"", AlertClass.DOS)
