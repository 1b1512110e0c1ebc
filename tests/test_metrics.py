import json
import statistics
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
from dhcpguard.netsim import ScenarioKind, default_scenario, legit_server_records, run_scenario
from dhcpguard.pipeline import DhcpRegistry, Pipeline, Policy, run_detection
from dhcpguard.signatures import load_signatures, sample_signatures_path


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


def test_aggregate_mean_and_stdev_match_statistics():
    reports = [build_report(_detect(clients=4, seed=s), f"s{s}") for s in (1, 2, 3)]
    agg = aggregate_reports(reports)
    values = [r.packet_analysis_capacity for r in reports]
    assert agg["packet_analysis_capacity"]["mean"] == pytest.approx(statistics.mean(values))
    assert agg["packet_analysis_capacity"]["stdev"] == pytest.approx(statistics.stdev(values))
    single = aggregate_reports(reports[:1])
    assert single["packet_analysis_capacity"]["stdev"] is None


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
