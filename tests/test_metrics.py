import dataclasses
import json
import random
import statistics
from collections import Counter
from fractions import Fraction

import pytest

from dhcpguard.metrics import (
    InvalidCounts,
    UndefinedMetric,
    aggregate_reports,
    build_report,
    efficiency,
    load_counters,
    overall_probability,
    packet_analysis_capacity,
    precision,
    render_csv,
    render_json,
    render_series_csv,
    render_table,
    save_counters,
)
from dhcpguard.anomaly import AnomalyConfig
from dhcpguard.netsim import (
    AttackClass,
    DhcpPayload,
    NodeSpec,
    Role,
    ScenarioKind,
    default_scenario,
    legit_server_records,
    run_scenario,
)
from dhcpguard.pipeline import DhcpRegistry, Pipeline, Policy, run_detection
from dhcpguard.signatures import Direction, SignatureDb, load_signatures, sample_signatures_path

from test_acceptance import _random_trace


# -- formulas -------------------------------------------------------------------


def test_precision_values():
    assert precision(10, 0) == 1.0
    assert precision(50, 50) == 0.5
    with pytest.raises(UndefinedMetric):
        precision(0, 0)
    with pytest.raises(InvalidCounts):
        precision(-1, 2)


def test_overall_probability_values():
    assert overall_probability(5, 5, 0, 0) == 1.0
    assert overall_probability(1, 1, 1, 1) == 0.5
    assert overall_probability(0, 0, 3, 3) == 0.0
    with pytest.raises(UndefinedMetric):
        overall_probability(0, 0, 0, 0)


def test_efficiency_reference_column():
    # captured-count table anchor: within a thousandth of 99.996%
    value = efficiency(tsa=42003, taa=45002, msa=2, maa=1, tga=87005)
    assert abs(value - 99.996) <= 0.001
    assert value == pytest.approx(float(Fraction(8700200, 87005)))


def test_efficiency_perfect_run():
    assert efficiency(10, 10, 0, 0, 20) == 100.0


def test_efficiency_plain_signature_ids_column():
    # independent evaluation of the same formula on the weaker column:
    # ((35098+43875) - (887+41988)) * 100 / 78973
    oracle = float(Fraction((35098 + 43875 - 887 - 41988) * 100, 78973))
    value = efficiency(tsa=35098, taa=43875, msa=887, maa=41988, tga=78973)
    assert value == pytest.approx(oracle)
    assert abs(value - 45.7093) < 0.001
    # notably NOT the published 50.886 for that configuration; the formula
    # above is normative for this artifact
    assert abs(value - 50.886) > 1.0


def test_efficiency_invalid_counts():
    with pytest.raises(InvalidCounts):
        efficiency(1, 1, 3, 0, 10)  # missed more than generated
    with pytest.raises(InvalidCounts):
        efficiency(1, 1, 0, 0, 0)  # empty denominator
    with pytest.raises(InvalidCounts):
        efficiency(-1, 1, 0, 0, 10)


def test_packet_analysis_capacity_values():
    value = packet_analysis_capacity(236456, 236719)
    assert abs(value - 99.88) <= 0.01
    assert packet_analysis_capacity(1000, 1000) == 100.0
    assert packet_analysis_capacity(0, 100) == 0.0
    with pytest.raises(InvalidCounts):
        packet_analysis_capacity(101, 100)
    with pytest.raises(InvalidCounts):
        packet_analysis_capacity(0, 0)


# -- report building ----------------------------------------------------------------


def _detect(kind=ScenarioKind.ROGUE_RACE, seed=9, **overrides):
    trace = run_scenario(default_scenario(kind, seed=seed, **overrides))
    registry = DhcpRegistry.from_records(legit_server_records(trace.topology))
    policy = Policy(version=1, registry=registry,
                    signatures=load_signatures(sample_signatures_path()))
    pipe = Pipeline(policy, {n.id: n for n in trace.topology})
    return run_detection(trace.events, pipe, duration=trace.duration)


def test_report_on_empty_trace_has_null_percentages():
    trace = run_scenario(default_scenario(ScenarioKind.ROGUE_RACE, seed=9, duration=10.0))
    registry = DhcpRegistry.from_records(legit_server_records(trace.topology))
    pipe = Pipeline(Policy(version=1, registry=registry,
                           signatures=load_signatures(sample_signatures_path())))
    result = run_detection([], pipe, duration=trace.duration)
    report = build_report(result, "empty")
    assert report.received == report.analyzed == 0
    assert report.tga == 0
    assert report.precision is None
    assert report.overall_probability is None
    assert report.efficiency is None
    assert report.packet_analysis_capacity is None


def _route_recount(events, alerts, db):
    """The report's route figures recounted from the trace and the alert log alone.

    An attack is signature-route when any rule's pattern occurs in its
    payload, whatever the rule's direction; it is captured when an alert
    names it as its event.
    """
    alerted = {alert.evidence[0] for alert in alerts}
    tally = {column: Counter() for column in (
        "generated", "captured", "generated_signature", "generated_anomaly",
        "captured_signature", "captured_anomaly")}
    for index, event in enumerate(events):
        if event.ground_truth is AttackClass.NONE:
            continue
        payload = event.payload
        data = payload.raw if isinstance(payload, DhcpPayload) else payload.payload_pattern
        route = "signature" if any(sig.pattern in data for sig in db) else "anomaly"
        columns = ["generated", f"generated_{route}"]
        if index in alerted:
            columns += ["captured", f"captured_{route}"]
        for column in columns:
            tally[column][event.ground_truth.value] += 1
    recount = {column: dict(counts) for column, counts in tally.items()}
    tga = sum(tally["generated"].values())
    recount["tga"] = tga
    recount["tsa"] = sum(tally["generated_signature"].values())
    recount["taa"] = sum(tally["generated_anomaly"].values())
    recount["msa"] = recount["tsa"] - sum(tally["captured_signature"].values())
    recount["maa"] = recount["taa"] - sum(tally["captured_anomaly"].values())
    captured = sum(tally["captured"].values())
    recount["efficiency"] = captured * 100.0 / tga if tga else None
    return recount


def _assert_route_accounting(events, result, db):
    """The report's route figures equal the recount; returns the report."""
    report = build_report(result)
    recount = _route_recount(events, result.alerts, db)
    for column in ("generated", "captured", "generated_signature", "generated_anomaly",
                   "captured_signature", "captured_anomaly"):
        counts = getattr(report, column)
        assert {"dos", "u2r", "r2l", "probe"} <= counts.keys(), column
        assert {cls: n for cls, n in counts.items() if n} == recount[column], column
    for name in ("tga", "tsa", "taa", "msa", "maa", "efficiency"):
        assert getattr(report, name) == recount[name], name
    return report


def _redirected_rules(rng):
    """The sample rules, each with a random direction.

    A rule that cannot fire on an event's direction still puts the event
    on the signature route, so both routes get missed attacks.
    """
    return SignatureDb([dataclasses.replace(sig, direction=rng.choice(list(Direction)))
                        for sig in load_signatures(sample_signatures_path())])


def test_route_accounting_matches_a_recount_on_every_scenario_kind():
    rng = random.Random(41)
    reports = []
    for kind in ScenarioKind:
        scenario = default_scenario(kind, seed=rng.randrange(1000),
                                    duration=round(rng.uniform(5.0, 20.0), 2),
                                    sig_share=rng.random())
        trace = run_scenario(scenario)
        registry = DhcpRegistry.from_records(legit_server_records(trace.topology))
        db = _redirected_rules(rng)
        policy = Policy(version=1, registry=registry, signatures=db,
                        anomaly=AnomalyConfig(warmup=rng.randint(1, 10),
                                              window=rng.choice((0.5, 1.0, 2.0))))
        result = run_detection(trace.events, Pipeline(policy, {n.id: n for n in trace.topology}),
                               duration=trace.duration, block=rng.random() < 0.5)
        assert result.tga > 0, kind
        reports.append(_assert_route_accounting(trace.events, result, db))
    assert any(r.tsa for r in reports) and any(r.maa for r in reports)


def test_route_accounting_matches_a_recount_on_random_traces():
    # criterion 7's traces, under the sample rules and under redirected ones
    traces, rng = random.Random(321), random.Random(322)
    registry = DhcpRegistry.from_records([{
        "server_id": "10.0.0.2", "mac": "02:00:00:00:00:01",
        "gateway": "10.0.0.1", "dns": "10.0.0.1"}])
    sample = load_signatures(sample_signatures_path())
    reports = []
    for _ in range(100):
        events = _random_trace(traces)
        pipe = Pipeline(Policy(version=1, registry=registry, signatures=sample))
        result = run_detection(events, pipe, duration=events[-1].time)
        reports.append(_assert_route_accounting(events, result, sample))

        db = _redirected_rules(rng)
        nodes = {i: NodeSpec(i, rng.choice((Role.CLIENT, Role.ROUTER))) for i in range(6)}
        pipe = Pipeline(Policy(version=1, registry=registry, signatures=db), nodes)
        result = run_detection(events, pipe, duration=events[-1].time)
        reports.append(_assert_route_accounting(events, result, db))
    assert any(r.msa for r in reports) and any(r.maa for r in reports)


def test_report_internal_consistency():
    result = _detect(clients=6)
    report = build_report(result, "rogue")
    assert report.captured.get("rogue_dhcp", 0) >= 1
    for cls, generated in report.generated.items():
        assert report.captured.get(cls, 0) <= generated
    assert sum(report.generated.values()) == report.tga
    assert report.tsa + report.taa == report.tga
    for value in (report.precision, report.overall_probability,
                  report.efficiency, report.packet_analysis_capacity):
        assert value is None or 0.0 <= value <= 100.0


def test_identical_runs_identical_report_json():
    a = build_report(_detect(clients=6), "x")
    b = build_report(_detect(clients=6), "x")
    assert json.dumps(a.to_json(), sort_keys=True) == json.dumps(b.to_json(), sort_keys=True)


def test_report_percentages_match_independent_tally():
    result = _detect(kind=ScenarioKind.MIXED, duration=20.0)
    report = build_report(result, "mixed")
    c = result.counters
    assert report.precision == pytest.approx(100.0 * c.tp / (c.tp + c.fp))
    assert report.overall_probability == pytest.approx(
        100.0 * (c.tp + c.tn) / c.total)


# -- rendering ------------------------------------------------------------------------


def test_render_csv_header_and_row_order():
    report = build_report(_detect(clients=4), "run-a")
    csv_text = render_csv([report])
    lines = csv_text.splitlines()
    assert lines[0] == "parameter,run-a"
    assert lines[1].startswith('"packets received"')
    assert lines[2].startswith('"packets analyzed"')
    assert lines[3].startswith('"attacks generated"')
    assert lines[-1].startswith('"efficiency (%)"')


def test_render_table_includes_three_decimal_percentages():
    report = build_report(_detect(clients=4), "run-a")
    table = render_table([report])
    assert "packet analysis capacity (%)" in table
    assert "100.000" in table
    # Only a table of several runs aggregates them.
    assert "aggregate over" not in table
    two = render_table([report, build_report(_detect(clients=4, seed=2), "run-b")])
    assert "aggregate over 2 runs (mean +/- stdev):" in two


def test_aggregate_mean_and_stdev_match_statistics():
    reports = [build_report(_detect(clients=4, seed=s), f"s{s}") for s in (1, 2, 3)]
    agg = aggregate_reports(reports)
    values = [r.packet_analysis_capacity for r in reports]
    assert agg["packet_analysis_capacity"]["mean"] == pytest.approx(statistics.mean(values))
    assert agg["packet_analysis_capacity"]["stdev"] == pytest.approx(statistics.stdev(values))
    single = aggregate_reports(reports[:1])
    assert single["packet_analysis_capacity"]["stdev"] is None


def test_aggregate_stdev_is_the_same_float_on_every_python():
    # Python 3.11's statistics.stdev gives ...332 here and 3.10's gives ...33.
    report = build_report(_detect(clients=4), "run")
    runs = [dataclasses.replace(report, efficiency=value) for value in (59.318, 39.36, 17.035)]
    assert aggregate_reports(runs)["efficiency"]["stdev"] == 21.15253916200133


def test_render_json_carries_runs_and_aggregate():
    reports = [build_report(_detect(clients=4, seed=s), f"s{s}") for s in (1, 2)]
    data = json.loads(render_json(reports))
    assert len(data["runs"]) == 2
    assert data["aggregate"]["runs"] == 2


def test_series_csv_shape():
    result = _detect(kind=ScenarioKind.STARVATION, duration=15.0)
    text = render_series_csv({"run-a": result.capture_series})
    lines = text.splitlines()
    assert lines[0] == "run,time,generated,captured,capture_pct"
    assert len(lines) == 1 + len(result.capture_series)


def test_counters_file_round_trip(tmp_path):
    result = _detect(clients=4)
    report = build_report(result, "run-a")
    path = tmp_path / "counters.json"
    save_counters(report, result, path)
    loaded, series = load_counters(path)
    assert loaded == report
    assert series == result.capture_series


def test_counters_file_series_rows_hold_0_to_generated_captures(tmp_path):
    result = _detect(clients=4)
    path = tmp_path / "counters.json"
    save_counters(build_report(result, "run-a"), result, path)
    data = json.loads(path.read_text(encoding="utf-8"))
    for rows, accepted in (([[1.0, 3, 0], [2.0, 3, 3]], True), ([[1.0, 0, 0]], True),
                           ([[1.0, 3, 4]], False), ([[1.0, 3, -1]], False)):
        data["capture_series"] = rows
        path.write_text(json.dumps(data), encoding="utf-8")
        if accepted:
            assert load_counters(path)[1] == [tuple(row) for row in rows]
        else:
            with pytest.raises(ValueError, match="0 <= captured <= generated"):
                load_counters(path)


@pytest.mark.parametrize("name", ["packet_analysis_capacity", "precision",
                                  "overall_probability", "efficiency"])
def test_counters_file_percentage_must_lie_in_0_to_100(tmp_path, name):
    result = _detect(clients=4)
    path = tmp_path / "counters.json"
    save_counters(build_report(result, "run-a"), result, path)
    data = json.loads(path.read_text(encoding="utf-8"))
    for value, accepted in ((0, True), (0.0, True), (100, True), (150, False),
                            (100.5, False), (-1, False), (True, False)):
        data["report"][name] = value
        path.write_text(json.dumps(data), encoding="utf-8")
        if accepted:
            assert getattr(load_counters(path)[0], name) == value
        else:
            with pytest.raises(ValueError) as info:
                load_counters(path)
            assert str(info.value) == (
                f"{path}: {name} must be a number in [0, 100] or null, got {value!r}")
