import csv
import io
import json
import signal
from contextlib import contextmanager

import pytest

from dhcpguard.cli import EXIT_HIGH_ALERT, EXIT_OK, EXIT_USAGE, main
from dhcpguard.netsim import MAX_DURATION, MAX_EVENTS, ScenarioKind
from dhcpguard.pipeline import REGISTRY_SCHEMA

from helpers import read_alerts


def run_cli(*argv):
    return main(list(argv))


@contextmanager
def deadline(seconds):
    """Fail, instead of hanging, if the body runs longer than ``seconds``."""
    def expire(signum, frame):
        pytest.fail(f"still running after {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _simulate(tmp_path, *extra, scenario="rogue-race", seed=42, duration=60, clients=10,
              name="trace.jsonl", registry="reg.json"):
    trace = tmp_path / name
    reg = tmp_path / registry
    rc = run_cli(
        "simulate", "--scenario", scenario, "--seed", str(seed),
        "--duration", str(duration), "--clients", str(clients),
        "--out", str(trace), "--registry-out", str(reg), *extra,
    )
    assert rc == EXIT_OK
    return trace, reg


def test_simulate_is_reproducible(tmp_path, capsys):
    t1, _ = _simulate(tmp_path, name="a.jsonl")
    t2, _ = _simulate(tmp_path, name="b.jsonl")
    assert t1.read_bytes() == t2.read_bytes()
    out = capsys.readouterr().out
    assert "rogue_dhcp" in out


def test_simulate_reports_dos_counts(tmp_path, capsys):
    trace = tmp_path / "dos.jsonl"
    rc = run_cli("simulate", "--scenario", "dos-syn", "--seed", "5",
                 "--duration", "10", "--rate", "100", "--out", str(trace))
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    dos_line = next(line for line in out.splitlines() if "dos:" in line)
    count = int(dos_line.split(":")[1])
    assert abs(count - 1000) <= 50


def test_simulate_requires_seed(tmp_path, capsys):
    rc = run_cli("simulate", "--scenario", "rogue-race",
                 "--out", str(tmp_path / "t.jsonl"))
    assert rc == EXIT_USAGE
    assert "seed" in capsys.readouterr().err


def test_missing_topology_file_names_the_path(tmp_path, capsys):
    missing = tmp_path / "nope" / "topo.json"
    rc = run_cli("simulate", "--scenario", "rogue-race", "--seed", "1",
                 "--topology", str(missing), "--out", str(tmp_path / "t.jsonl"))
    assert rc == EXIT_USAGE
    assert str(missing) in capsys.readouterr().err


@pytest.mark.parametrize("flag, value, field", [
    ("--spoofed-macs", "-50", "spoofed_macs"),
    ("--pool-size", "0", "pool_size"),
    ("--pool-size", "-3", "pool_size"),
    ("--pool-size", str(2**32), "pool_size"),
])
def test_simulate_rejects_bad_pool_and_flood_sizes(tmp_path, capsys, flag, value, field):
    _assert_simulate_rejects(tmp_path, capsys, "starvation", flag, value, field)


@pytest.mark.parametrize("flag, value, field", [
    ("--sig-share", "-1", "sig_share"),
    ("--sig-share", "7", "sig_share"),
    ("--sig-share", "nan", "sig_share"),
    ("--lease-secs", "-5", "lease_secs"),
    ("--lease-secs", str(1 << 24), "lease_secs"),
])
def test_simulate_rejects_out_of_range_share_and_lease(tmp_path, capsys, flag, value, field):
    _assert_simulate_rejects(tmp_path, capsys, "mixed", flag, value, field)


@pytest.mark.parametrize("scenario", [k.value for k in ScenarioKind])
@pytest.mark.parametrize("value", ["0", "-2"])
def test_simulate_rejects_too_few_clients(tmp_path, capsys, scenario, value):
    _assert_simulate_rejects(tmp_path, capsys, scenario, "--clients", value, "clients")


@pytest.mark.parametrize("value", ["1e300", str(MAX_DURATION * 1.01), "nan", "inf"])
def test_simulate_rejects_durations_beyond_the_maximum(tmp_path, capsys, value):
    with deadline(10):
        _assert_simulate_rejects(tmp_path, capsys, "mixed", "--duration", value, "duration")


@pytest.mark.parametrize("scenario, flag, value, field", [
    ("dos-syn", "--rate-background", "inf", "rate for none"),
    ("dos-syn", "--rate", "nan", "rate for dos"),
    ("dos-syn", "--rate", "-1", "rate for dos"),
    # 1e300 events would be drawn and sorted before the first one is emitted
    ("dos-syn", "--rate", "1e300", "rate for dos"),
    ("dos-syn", "--rate", str(MAX_EVENTS / 10 * 1.01), "rate for dos"),
    # the starvation flood's speed sets no event count, but must be a number >= 0
    ("starvation", "--rate", "nan", "rate for dos"),
    ("starvation", "--rate", "inf", "rate for dos"),
    ("starvation", "--rate", "-1", "rate for dos"),
    ("starvation", "--spoofed-macs", str(MAX_EVENTS + 1), "spoofed_macs"),
    ("mixed", "--clients", str(MAX_EVENTS + 1), "clients"),
])
def test_simulate_rejects_runs_beyond_the_event_bound(tmp_path, capsys, scenario, flag, value,
                                                      field):
    with deadline(10):
        _assert_simulate_rejects(tmp_path, capsys, scenario, flag, value, field)


@pytest.mark.parametrize("scenario, extra", [
    # The flood's size is spoofed_macs; its rate is only its speed.
    ("starvation", ()),
    # The rogue only reacts to clients; a positive rate switches it on.
    ("rogue-race", ("--rate-rogue", "1000")),
])
def test_simulate_accepts_rates_that_set_no_event_count(tmp_path, capsys, scenario, extra):
    trace = tmp_path / "t.jsonl"
    with deadline(20):
        rc = run_cli("simulate", "--scenario", scenario, "--seed", "1", "--duration", "90000",
                     *extra, "--out", str(trace))
    assert rc == EXIT_OK
    assert "Traceback" not in capsys.readouterr().err
    assert trace.exists()


def _assert_simulate_rejects(tmp_path, capsys, scenario, flag, value, field):
    trace = tmp_path / "t.jsonl"
    rc = run_cli("simulate", "--scenario", scenario, "--seed", "1",
                 "--duration", "10", flag, value, "--out", str(trace))
    assert rc == EXIT_USAGE
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    assert field in captured.err
    assert not trace.exists()


def test_detect_exits_one_on_rogue_trace(tmp_path, capsys):
    trace, reg = _simulate(tmp_path)
    alerts = tmp_path / "alerts.jsonl"
    counters = tmp_path / "counters.json"
    rc = run_cli("detect", "--trace", str(trace), "--registry", str(reg),
                 "--alerts", str(alerts), "--counters", str(counters))
    assert rc == EXIT_HIGH_ALERT
    parsed = read_alerts(alerts)
    assert parsed and all(a.layer.value == "verifier" for a in parsed)
    data = json.loads(counters.read_text())
    assert data["report"]["fp"] == 0
    assert data["report"]["tp"] == len(parsed)


def test_detect_exits_zero_on_background_trace(tmp_path):
    trace, reg = _simulate(tmp_path, "--rate-rogue", "0")
    alerts = tmp_path / "alerts.jsonl"
    rc = run_cli("detect", "--trace", str(trace), "--registry", str(reg),
                 "--alerts", str(alerts), "--counters", str(tmp_path / "c.json"))
    assert rc == EXIT_OK
    assert alerts.read_text() == ""


def test_detect_with_empty_registry_flags_every_offer(tmp_path, capsys):
    trace, reg = _simulate(tmp_path, "--rate-rogue", "0", clients=4)
    reg.write_text(json.dumps({"schema": "dhcpguard-registry/1", "servers": []}))
    rc = run_cli("detect", "--trace", str(trace), "--registry", str(reg),
                 "--alerts", str(tmp_path / "a.jsonl"),
                 "--counters", str(tmp_path / "c.json"))
    assert rc == EXIT_HIGH_ALERT
    captured = capsys.readouterr()
    assert "empty" in captured.err
    # all legit OFFER/ACK pairs are flagged under the vacuous registry
    alerts = read_alerts(tmp_path / "a.jsonl")
    assert len(alerts) == 2 * 4


def test_detect_counts_malformed_lines(tmp_path):
    trace, reg = _simulate(tmp_path, clients=4)
    lines = trace.read_text().splitlines()
    lines[3] = "garbage"
    trace.write_text("\n".join(lines) + "\n")
    rc = run_cli("detect", "--trace", str(trace), "--registry", str(reg),
                 "--alerts", str(tmp_path / "a.jsonl"),
                 "--counters", str(tmp_path / "c.json"))
    assert rc in (EXIT_OK, EXIT_HIGH_ALERT)
    report = json.loads((tmp_path / "c.json").read_text())["report"]
    assert report["received"] == report["analyzed"] + 1


def test_detect_counts_non_finite_times_as_malformed(tmp_path, capsys):
    trace, reg = _simulate(tmp_path, clients=4)
    lines = trace.read_text().splitlines()
    for lineno, bad_time in ((3, float("nan")), (4, float("inf")), (5, "Infinity"), (6, "-inf")):
        event = json.loads(lines[lineno])
        event["time"] = bad_time
        lines[lineno] = json.dumps(event)
    trace.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    rc = run_cli("detect", "--trace", str(trace), "--registry", str(reg),
                 "--alerts", str(tmp_path / "a.jsonl"),
                 "--counters", str(tmp_path / "c.json"))
    assert rc in (EXIT_OK, EXIT_HIGH_ALERT)
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    assert "skipped 4 malformed lines" in captured.out
    report = json.loads((tmp_path / "c.json").read_text())["report"]
    assert report["received"] == report["analyzed"] + 4


@pytest.mark.parametrize("flag, field", [
    ("--retransmit-timeout", "retransmit_timeout"),
    ("--window", "window"),
    ("--k", "k"),
    ("--anomaly-window", "window"),
])
def test_detect_rejects_nan_thresholds(tmp_path, capsys, flag, field):
    trace, reg = _simulate(tmp_path, duration=10, clients=4)
    capsys.readouterr()
    rc = run_cli("detect", "--trace", str(trace), "--registry", str(reg), flag, "nan",
                 "--alerts", str(tmp_path / "a.jsonl"), "--counters", str(tmp_path / "c.json"))
    assert rc == EXIT_USAGE
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    assert field in captured.err
    assert not (tmp_path / "c.json").exists()


def test_detect_rejects_more_anomaly_windows_than_the_bound(tmp_path, capsys, monkeypatch):
    trace, reg = _simulate(tmp_path, scenario="dos-syn", seed=1, duration=20, clients=4)
    capsys.readouterr()

    def parse(data):
        raise AssertionError("an event was parsed before the window check")

    # The check needs only the header's duration, so it comes before the events.
    monkeypatch.setattr("dhcpguard.netsim.event_from_json", parse)
    with deadline(10):
        rc = run_cli("detect", "--trace", str(trace), "--registry", str(reg),
                     "--anomaly-window", "1e-4",
                     "--alerts", str(tmp_path / "a.jsonl"), "--counters", str(tmp_path / "c.json"))
    assert rc == EXIT_USAGE
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    assert "anomaly.window" in captured.err
    assert not (tmp_path / "c.json").exists()


def _rewrite_lines(path, edits):
    """Apply ``{line index: fn(parsed JSON) -> new JSON value}`` to a JSONL file."""
    lines = path.read_text().splitlines()
    for index, fn in edits.items():
        lines[index] = json.dumps(fn(json.loads(lines[index])))
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("time", [-1.0, -1e300, 1e300, 60.5])
def test_detect_counts_times_outside_the_trace_span_as_malformed(tmp_path, capsys, time):
    """An event before the last analyzed one or past the duration is skipped, not analyzed."""
    trace, reg = _simulate(tmp_path, clients=4)  # duration 60
    _rewrite_lines(trace, {1: lambda event: dict(event, time=0.0),
                           3: lambda event: dict(event, time=time),
                           -1: lambda event: dict(event, time=60.0)})
    capsys.readouterr()
    with deadline(20):
        rc = run_cli("detect", "--trace", str(trace), "--registry", str(reg),
                     "--alerts", str(tmp_path / "a.jsonl"),
                     "--counters", str(tmp_path / "c.json"))
    assert rc in (EXIT_OK, EXIT_HIGH_ALERT)
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    # the ends 0 and 60 are kept
    assert "skipped 0 malformed lines, 1 events out of time order or past duration" in captured.out
    report = json.loads((tmp_path / "c.json").read_text())["report"]
    assert report["received"] == report["analyzed"] + 1


@pytest.mark.parametrize("duration", [float("inf"), float("nan"), "Infinity", 0, -5.0,
                                      1e300, MAX_DURATION * 1.01, "5", "x", True])
def test_detect_rejects_bad_trace_duration(tmp_path, capsys, duration):
    trace, reg = _simulate(tmp_path, clients=4)
    _rewrite_lines(trace, {0: lambda header: dict(header, duration=duration)})
    capsys.readouterr()
    with deadline(20):
        rc = run_cli("detect", "--trace", str(trace), "--registry", str(reg),
                     "--alerts", str(tmp_path / "a.jsonl"),
                     "--counters", str(tmp_path / "c.json"))
    assert rc == EXIT_USAGE
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    assert "duration" in captured.err
    assert f"{trace}: bad trace header: duration must be a number in (0, " in captured.err


def test_detect_reads_a_header_without_topology(tmp_path, capsys):
    trace, reg = _simulate(tmp_path, duration=5, clients=4)
    _rewrite_lines(trace, {0: lambda header: _without(header, "topology")})
    capsys.readouterr()
    rc = run_cli("detect", "--trace", str(trace), "--registry", str(reg),
                 "--alerts", str(tmp_path / "a.jsonl"), "--counters", str(tmp_path / "c.json"))
    assert rc in (EXIT_OK, EXIT_HIGH_ALERT)
    report = json.loads((tmp_path / "c.json").read_text())["report"]
    assert report["analyzed"] == report["received"] == len(trace.read_text().splitlines()) - 1


_RECORD = {"server_id": "10.0.0.2", "mac": "02:00:00:00:00:01",
           "gateway": "10.0.0.1", "dns": "10.0.0.1"}


def _registry(*servers):
    return {"schema": REGISTRY_SCHEMA, "servers": list(servers)}


def _without(data, key):
    return {k: v for k, v in data.items() if k != key}


def _drop_role(header):
    nodes = [_without(node, "role") if i == 2 else node
             for i, node in enumerate(header["topology"])]
    return dict(header, topology=nodes)


@pytest.mark.parametrize("target, broken, needles", [
    ("registry", lambda reg: _registry(_without(_RECORD, "dns")), ["record 0", "dns"]),
    ("registry", lambda reg: _registry(_RECORD, dict(_RECORD, server_id="10.0.0.3", mac=5)),
     ["record 1", "mac"]),
    ("registry", lambda reg: _registry("x"), ["record 0"]),
    ("registry", lambda reg: dict(reg, servers=5), ["servers"]),
    ("registry", lambda reg: reg["servers"], ["object"]),
    ("registry", lambda reg: _registry(dict(_RECORD, gateway="10.0.0.256")), ["record 0"]),
    ("trace", lambda header: [header], ["header"]),
    ("trace", _drop_role, ["node 2", "role"]),
    ("trace", lambda header: _without(header, "duration"), ["duration"]),
    ("trace", lambda header: dict(header, topology=None), ["topology"]),
    ("trace", lambda header: dict(header, seed=1.5), ["header: seed must be an integer, got 1.5"]),
    ("trace", lambda header: dict(header, seed=True),
     ["header: seed must be an integer, got True"]),
    ("trace", lambda header: dict(header, seed="abc"),
     ["header: seed must be an integer, got 'abc'"]),
    ("trace", lambda header: dict(header, seed="7"), ["header: seed must be an integer, got '7'"]),
    ("trace", lambda header: dict(header, kind=5),
     ["header: kind must be one of rogue-race, ", "got 5"]),
    ("trace", lambda header: dict(header, kind="Mixed"),
     ["header: kind must be one of ", "got 'Mixed'"]),
], ids=["record-without-dns", "mac-not-text", "record-not-object", "servers-not-list",
        "registry-is-list", "bad-gateway", "header-is-list", "node-without-role",
        "header-without-duration", "topology-not-list", "float-seed", "bool-seed", "text-seed",
        "digit-text-seed", "number-kind", "capitalised-kind"])
def test_detect_malformed_registry_or_header_is_a_usage_error(tmp_path, capsys, target,
                                                               broken, needles):
    trace, reg = _simulate(tmp_path, duration=10, clients=4)
    if target == "registry":
        reg.write_text(json.dumps(broken(json.loads(reg.read_text()))))
    else:
        _rewrite_lines(trace, {0: broken})
    capsys.readouterr()
    rc = run_cli("detect", "--trace", str(trace), "--registry", str(reg),
                 "--alerts", str(tmp_path / "a.jsonl"), "--counters", str(tmp_path / "c.json"))
    assert rc == EXIT_USAGE
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    for needle in [str(reg if target == "registry" else trace), *needles]:
        assert needle in captured.err
    assert not (tmp_path / "c.json").exists()


def test_detect_missing_inputs_exit_usage(tmp_path, capsys):
    rc = run_cli("detect", "--trace", str(tmp_path / "missing.jsonl"),
                 "--registry", str(tmp_path / "missing.json"))
    assert rc == EXIT_USAGE
    assert "missing.jsonl" in capsys.readouterr().err


def test_report_formats(tmp_path, capsys):
    trace, reg = _simulate(tmp_path)
    counters = tmp_path / "c1.json"
    run_cli("detect", "--trace", str(trace), "--registry", str(reg),
            "--alerts", str(tmp_path / "a.jsonl"), "--counters", str(counters),
            "--label", "run-1")
    capsys.readouterr()

    assert run_cli("report", str(counters), "--format", "table") == EXIT_OK
    table = capsys.readouterr().out
    assert "run-1" in table and "efficiency (%)" in table

    out_csv = tmp_path / "report.csv"
    assert run_cli("report", str(counters), "--format", "csv",
                   "--out", str(out_csv)) == EXIT_OK
    assert out_csv.read_text().splitlines()[0] == "parameter,run-1"

    series = tmp_path / "series.csv"
    out_json = tmp_path / "report.json"
    assert run_cli("report", str(counters), "--format", "json",
                   "--out", str(out_json), "--series", str(series)) == EXIT_OK
    data = json.loads(out_json.read_text())
    assert data["aggregate"]["runs"] == 1
    assert series.read_text().startswith("run,time,generated,captured")


def test_report_aggregates_multiple_runs(tmp_path, capsys):
    paths = []
    for seed in (1, 2):
        trace, reg = _simulate(tmp_path, seed=seed, name=f"t{seed}.jsonl",
                               registry=f"r{seed}.json")
        counters = tmp_path / f"c{seed}.json"
        run_cli("detect", "--trace", str(trace), "--registry", str(reg),
                "--alerts", str(tmp_path / f"a{seed}.jsonl"),
                "--counters", str(counters), "--label", f"run-{seed}")
        paths.append(counters)
    capsys.readouterr()
    out_json = tmp_path / "combined.json"
    assert run_cli("report", *map(str, paths), "--format", "json",
                   "--out", str(out_json)) == EXIT_OK
    data = json.loads(out_json.read_text())
    assert data["aggregate"]["runs"] == 2
    # recompute the mean externally
    values = [run["packet_analysis_capacity"] for run in data["runs"]]
    assert data["aggregate"]["packet_analysis_capacity"]["mean"] == pytest.approx(
        sum(values) / len(values))


def test_config_file_with_flag_override(tmp_path):
    config = tmp_path / "run.conf"
    config.write_text(
        "scenario = rogue-race\n"
        "seed = 42\n"
        "duration = 5\n"
        "# comment line\n"
        "rate.rogue = 0\n"
    )
    out = tmp_path / "t.jsonl"
    rc = run_cli("simulate", "--config", str(config), "--duration", "10",
                 "--out", str(out))
    assert rc == EXIT_OK
    header = json.loads(out.read_text().splitlines()[0])
    assert header["duration"] == 10.0  # flag beats file
    assert header["seed"] == 42        # file beats default


def test_block_flag_reports_blocked_replies(tmp_path, capsys):
    trace, reg = _simulate(tmp_path)
    rc = run_cli("detect", "--trace", str(trace), "--registry", str(reg),
                 "--alerts", str(tmp_path / "a.jsonl"),
                 "--counters", str(tmp_path / "c.json"), "--block")
    assert rc == EXIT_HIGH_ALERT
    assert "blocked" in capsys.readouterr().out
    report = json.loads((tmp_path / "c.json").read_text())["report"]
    assert report["blocked"] > 0


def test_usage_error_exit_code():
    assert run_cli("simulate", "--scenario", "not-a-kind", "--seed", "1") == EXIT_USAGE
    assert run_cli() == EXIT_USAGE


def test_switches_take_an_optional_bool(tmp_path, capsys):
    def sha(*extra):
        trace = tmp_path / "t.jsonl"
        assert run_cli("simulate", "--scenario", "masquerade", "--seed", "2", "--duration", "10",
                       "--out", str(trace), "--registry-out", str(tmp_path / "r.json"),
                       *extra) == EXIT_OK
        return trace.read_bytes()

    assert sha("--tamper") == sha("--tamper", "yes") != sha("--tamper", "no") == sha()
    capsys.readouterr()
    assert run_cli("detect", "--trace", "t.jsonl", "--block", "maybe") == EXIT_USAGE
    assert "--block" in capsys.readouterr().err


def test_config_key_takes_dotted_or_underscore_spelling(tmp_path):
    traces = []
    for key in ("rate.dos", "rate_dos"):
        config = tmp_path / f"{key}.conf"
        config.write_text(f"scenario = dos-syn\nseed = 1\nduration = 5\n{key} = 7\n")
        trace = tmp_path / f"{key}.jsonl"
        assert run_cli("simulate", "--config", str(config), "--out", str(trace)) == EXIT_OK
        traces.append(trace.read_bytes())
    assert traces[0] == traces[1]
    assert sum(line.count('"dos"') for line in traces[0].decode().splitlines()[1:]) == 35


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("field, value", [
    ("position", [NAN, 0.0]),
    ("position", [0.0, -INF]),
    ("radio_range", NAN),
    ("radio_range", INF),
    ("link_latency", NAN),
    ("link_latency", INF),
])
@pytest.mark.parametrize("source", ["topology", "header"])
def test_detect_refuses_non_finite_node_geometry(tmp_path, capsys, source, field, value):
    # NaN geometry used to turn every distance comparison false: with the
    # attacker at [NaN, 0] this trace fell from tp=460 to tp=86, exit 0.
    trace, reg = _simulate(tmp_path, scenario="mixed", seed=1, duration=10)
    nodes = json.loads(trace.read_text().splitlines()[0])["topology"]
    index = next(i for i, node in enumerate(nodes) if node["role"] == "attacker")
    topology = tmp_path / "topology.json"
    topology.write_text(json.dumps({"nodes": nodes}))
    argv = ["detect", "--trace", str(trace), "--registry", str(reg),
            "--alerts", str(tmp_path / "a.jsonl"), "--counters", str(tmp_path / "c.json")]
    assert run_cli(*argv, "--topology", str(topology)) == EXIT_HIGH_ALERT

    nodes[index][field] = value
    if source == "topology":
        topology.write_text(json.dumps({"nodes": nodes}))
        argv += ["--topology", str(topology)]
    else:
        _rewrite_lines(trace, {0: lambda header: dict(header, topology=nodes)})
    (tmp_path / "c.json").unlink()
    capsys.readouterr()
    assert run_cli(*argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    for needle in (str(topology if source == "topology" else trace), f"node {index}", field):
        assert needle in captured.err
    assert not (tmp_path / "c.json").exists()


@pytest.mark.parametrize("node_id", [-1, 2**48, 10**40, 4 + 2**41])
@pytest.mark.parametrize("source", ["simulate", "detect", "header"])
def test_refuses_node_ids_that_have_no_mac(tmp_path, capsys, source, node_id):
    # A node's MAC packs its id into 40 bits.  -1 (also BROADCAST), 2^48 and
    # 10^40 made simulate exit 1 with an OverflowError traceback; a client at
    # 4 + 2^41 silently took client 4's MAC, and only 2 of 3 clients bound.
    trace, reg = _simulate(tmp_path, seed=1, duration=30, clients=3)
    nodes = json.loads(trace.read_text().splitlines()[0])["topology"]
    index = max(i for i, node in enumerate(nodes) if node["role"] == "client")
    nodes[index]["id"] = node_id
    topology = tmp_path / "topology.json"
    topology.write_text(json.dumps({"nodes": nodes}))
    out = tmp_path / "out"
    argv = ["detect", "--trace", str(trace), "--registry", str(reg),
            "--alerts", str(tmp_path / "a.jsonl"), "--counters", str(out)]
    if source == "simulate":
        argv = ["simulate", "--scenario", "rogue-race", "--seed", "1", "--duration", "30",
                "--topology", str(topology), "--out", str(out)]
    elif source == "detect":
        argv += ["--topology", str(topology)]
    else:
        _rewrite_lines(trace, {0: lambda header: dict(header, topology=nodes)})
    capsys.readouterr()
    assert run_cli(*argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    for needle in (str(trace if source == "header" else topology), f"node {index}: id"):
        assert needle in captured.err
    assert not out.exists()


def test_detect_refuses_a_node_id_that_is_not_an_integer(tmp_path, capsys):
    # An id of 3.5 used to be read as node 3: the attacker kept its place and
    # detect ran on, exit 1.
    trace, reg = _simulate(tmp_path, scenario="mixed", seed=1, duration=10)
    nodes = json.loads(trace.read_text().splitlines()[0])["topology"]
    index = next(i for i, node in enumerate(nodes) if node["role"] == "attacker")
    nodes[index]["id"] = nodes[index]["id"] + 0.5
    topology = tmp_path / "topology.json"
    topology.write_text(json.dumps({"nodes": nodes}))
    capsys.readouterr()
    assert run_cli("detect", "--trace", str(trace), "--registry", str(reg),
                   "--topology", str(topology), "--alerts", str(tmp_path / "a.jsonl"),
                   "--counters", str(tmp_path / "c.json")) == EXIT_USAGE
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    assert f"{topology}: topology node {index}: id must be an integer, got 3.5" in captured.err
    assert not (tmp_path / "c.json").exists()


@pytest.mark.parametrize("source", ["simulate", "detect", "header"])
def test_refuses_duplicate_node_ids(tmp_path, capsys, source):
    # The last node with an id used to win in detect: a copy of the attacker
    # under the router's id 0 moved this trace from tp=460 fp=0 to tp=835
    # fp=25, exit 1, and simulate named neither the file nor the nodes.
    trace, reg = _simulate(tmp_path, scenario="mixed", seed=1, duration=10)
    nodes = json.loads(trace.read_text().splitlines()[0])["topology"]
    first = next(i for i, node in enumerate(nodes) if node["id"] == 0)
    nodes.append(dict(next(node for node in nodes if node["role"] == "attacker"), id=0))
    topology = tmp_path / "topology.json"
    topology.write_text(json.dumps({"nodes": nodes}))
    out = tmp_path / "out"
    argv = ["detect", "--trace", str(trace), "--registry", str(reg),
            "--alerts", str(tmp_path / "a.jsonl"), "--counters", str(out)]
    if source == "simulate":
        argv = ["simulate", "--scenario", "mixed", "--seed", "1", "--duration", "10",
                "--topology", str(topology), "--out", str(out)]
    elif source == "detect":
        argv += ["--topology", str(topology)]
    else:
        _rewrite_lines(trace, {0: lambda header: dict(header, topology=nodes)})
    capsys.readouterr()
    assert run_cli(*argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    for needle in (str(trace if source == "header" else topology),
                   f"topology nodes {first} and {len(nodes) - 1} share id 0"):
        assert needle in captured.err
    assert not out.exists()


def test_report_refuses_a_label_an_earlier_file_used(tmp_path, capsys):
    # Both traces are named trace.jsonl, so both runs default to the label
    # "trace": the series CSV used to hold one run's rows instead of both.
    counters = []
    for seed in (1, 2):
        run_dir = tmp_path / f"run{seed}"
        run_dir.mkdir()
        trace, reg = _simulate(run_dir, seed=seed, duration=20)
        counters.append(run_dir / "c.json")
        run_cli("detect", "--trace", str(trace), "--registry", str(reg),
                "--alerts", str(run_dir / "a.jsonl"), "--counters", str(counters[-1]))
    series = tmp_path / "s.csv"
    capsys.readouterr()
    assert run_cli("report", *map(str, counters), "--series", str(series)) == EXIT_USAGE
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    for needle in ("'trace'", str(counters[0]), str(counters[1])):
        assert needle in captured.err
    assert not series.exists()


def test_report_csv_round_trips_any_label(tmp_path, capsys):
    # A label with a comma used to split into two header columns.
    labels = ['run,"x"', "two\nlines", 'say "hi"', "plain"]
    trace, reg = _simulate(tmp_path, duration=20)
    counters = []
    for i, label in enumerate(labels):
        counters.append(str(tmp_path / f"c{i}.json"))
        run_cli("detect", "--trace", str(trace), "--registry", str(reg), "--label", label,
                "--alerts", str(tmp_path / "a.jsonl"), "--counters", counters[-1])
    report, series = tmp_path / "r.csv", tmp_path / "s.csv"
    assert run_cli("report", *counters, "--format", "csv", "--out", str(report),
                   "--series", str(series)) == EXIT_OK
    capsys.readouterr()

    rows = list(csv.reader(io.StringIO(report.read_text(encoding="utf-8"))))
    assert rows[0] == ["parameter"] + labels
    assert all(len(row) == 1 + len(labels) for row in rows)
    rows = list(csv.reader(io.StringIO(series.read_text(encoding="utf-8"))))
    assert all(len(row) == 5 for row in rows)
    assert [row[0] for row in rows[1:]] == [label for label in labels for _ in range(20)]
