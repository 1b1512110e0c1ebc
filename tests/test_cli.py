import json

import pytest

from dhcpguard.cli import EXIT_HIGH_ALERT, EXIT_OK, EXIT_USAGE, main
from dhcpguard.netsim import ScenarioKind
from dhcpguard.pipeline import read_alerts


def run_cli(*argv):
    return main(list(argv))


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


@pytest.mark.parametrize("duration", [float("inf"), float("nan"), "Infinity", 0, -5.0])
def test_detect_rejects_bad_trace_duration(tmp_path, capsys, duration):
    trace, reg = _simulate(tmp_path, clients=4)
    lines = trace.read_text().splitlines()
    header = json.loads(lines[0])
    header["duration"] = duration
    lines[0] = json.dumps(header)
    trace.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    rc = run_cli("detect", "--trace", str(trace), "--registry", str(reg),
                 "--alerts", str(tmp_path / "a.jsonl"),
                 "--counters", str(tmp_path / "c.json"))
    assert rc == EXIT_USAGE
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    assert "duration" in captured.err


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
