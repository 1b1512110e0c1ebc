"""Every ``simulate`` and ``detect`` option means the same from a flag and from the config file.

Each case runs the CLI in a fresh working directory and compares every
file it wrote there: the flag alone, the config key alone, and the flag
against a different value in the file must write the same bytes.
"""

import dataclasses
import json

import pytest

from dhcpguard.cli import EXIT_USAGE, main
from dhcpguard.netsim import ScenarioKind, default_topology, save_topology
from dhcpguard.signatures import sample_signatures_path

# (flag, config key, value, a different value, value type, scenario kind).
# The value type picks the bad value: "float" gets "abc", "int" "1.5" and
# "bool" "maybe"; None marks a text or path option.
SIMULATE = [
    ("--scenario", "scenario", "dos-syn", "dos-dns", None, "mixed"),
    ("--seed", "seed", "7", "8", "int", "mixed"),
    ("--duration", "duration", "8", "9", "float", "mixed"),
    ("--clients", "clients", "3", "4", "int", "mixed"),
    ("--pool-size", "pool_size", "20", "30", "int", "starvation"),
    ("--spoofed-macs", "spoofed_macs", "25", "35", "int", "starvation"),
    ("--attack-start", "attack_start", "4", "2", "float", "starvation"),
    ("--lease-secs", "lease_secs", "5", "9", "int", "rogue-race"),
    ("--sig-share", "sig_share", "0.9", "0.1", "float", "mixed"),
    ("--tamper", "tamper", "yes", "no", "bool", "masquerade"),
    ("--rogue-answers-requests", "rogue_answers_requests", "no", "yes", "bool", "rogue-race"),
    ("--rate", "rate", "50", "80", "float", "dos-syn"),
    ("--rate-background", "rate.background", "5", "9", "float", "mixed"),
    ("--rate-dos", "rate.dos", "5", "9", "float", "mixed"),
    ("--rate-u2r", "rate.u2r", "1", "9", "float", "mixed"),
    ("--rate-r2l", "rate.r2l", "1", "9", "float", "mixed"),
    ("--rate-probe", "rate.probe", "1", "9", "float", "mixed"),
    ("--rate-rogue", "rate.rogue", "0", "1", "float", "rogue-race"),
    ("--rate-masquerade", "rate.masquerade", "1", "9", "float", "masquerade"),
    ("--topology", "topology", "{topo2}", "{topo3}", None, "mixed"),
    ("--out", "out", "x.jsonl", "y.jsonl", None, "mixed"),
    ("--registry-out", "registry_out", "x.json", "y.json", None, "mixed"),
]

DETECT = [
    ("--trace", "trace", "{trace7}", "{trace}", None),
    ("--registry", "registry", "{empty_registry}", "{registry}", None),
    ("--signatures", "signatures", "{one_rule}", "{sample_rules}", None),
    ("--topology", "topology", "{near_sighted}", "{far_sighted}", None),
    ("--alerts", "alerts", "x.jsonl", "y.jsonl", None),
    ("--counters", "counters", "x.json", "y.json", None),
    ("--label", "label", "run-a", "run-b", None),
    ("--block", "block", "yes", "no", "bool"),
    ("--window", "ingredient.window", "0.05", "1", "float"),
    ("--max-rate", "ingredient.max_rate", "2", "500", "float"),
    ("--max-gap", "ingredient.max_gap", "0.05", "30", "float"),
    ("--flood-threshold", "ingredient.flood_threshold", "5", "2000", "int"),
    ("--retransmit-timeout", "ingredient.retransmit_timeout", "0.001", "5", "float"),
    ("--replication-limit", "ingredient.replication_limit", "1", "300", "int"),
    ("--alpha", "anomaly.alpha", "0.9", "0.05", "float"),
    ("--k", "anomaly.k", "0.5", "6", "float"),
    ("--warmup", "anomaly.warmup", "2", "8", "int"),
    ("--anomaly-window", "anomaly.window", "0.5", "2", "float"),
]

# The two switches were bare flags before they took a BOOL; both forms mean true.
BARE = {"--tamper", "--block"}

BAD_VALUES = {"float": "abc", "int": "1.5", "bool": "maybe"}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Traces, registries, rules and topologies the cases name as ``{placeholders}``."""
    root = tmp_path_factory.mktemp("inputs")
    paths = {}
    for seed in (3, 7):
        trace, registry = root / f"trace{seed}.jsonl", root / f"registry{seed}.json"
        assert main(["simulate", "--scenario", "mixed", "--seed", str(seed), "--duration", "10",
                     "--rate-dos", "10", "--rate-background", "5",
                     "--out", str(trace), "--registry-out", str(registry)]) == 0
        paths[f"trace{seed}"], paths[f"registry{seed}"] = trace, registry
    paths["trace"], paths["registry"] = paths["trace3"], paths["registry3"]

    paths["empty_registry"] = root / "empty.json"
    paths["empty_registry"].write_text(json.dumps({"schema": "dhcpguard-registry/1",
                                                   "servers": []}))
    paths["sample_rules"] = sample_signatures_path()
    paths["one_rule"] = root / "one.rules"
    paths["one_rule"].write_text("7 | any | u2r | high | 01\n")  # any 0x01 byte

    for clients in (2, 3):
        paths[f"topo{clients}"] = root / f"topo{clients}.json"
        save_topology(default_topology(ScenarioKind.MIXED, clients), paths[f"topo{clients}"])
    for name, radio_range in (("near_sighted", 5.0), ("far_sighted", 1000.0)):
        nodes = [dataclasses.replace(n, radio_range=radio_range)
                 for n in default_topology(ScenarioKind.MIXED, 5)]
        paths[name] = root / f"{name}.json"
        save_topology(nodes, paths[name])
    return {name: str(path) for name, path in paths.items()}


class Runner:
    """Runs the CLI in a fresh directory under ``root`` and snapshots what it wrote."""

    def __init__(self, root, monkeypatch, capsys):
        self.root, self.monkeypatch, self.capsys = root, monkeypatch, capsys
        self.runs = 0

    def __call__(self, command, options, config=None):
        self.runs += 1
        workdir = self.root / f"run{self.runs}"
        workdir.mkdir()
        argv = [command]
        for flag, value in options.items():
            argv += [flag] if value is None else [flag, value]
        if config is not None:
            conf = self.root / f"run{self.runs}.conf"
            conf.write_text("".join(f"{key} = {value}\n" for key, value in config.items()))
            argv += ["--config", str(conf)]
        self.monkeypatch.chdir(workdir)
        self.capsys.readouterr()
        rc = main(argv)
        captured = self.capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err
        files = {path.name: path.read_bytes() for path in sorted(workdir.iterdir())}
        return rc, files, captured.err


@pytest.fixture
def run(tmp_path, monkeypatch, capsys):
    return Runner(tmp_path, monkeypatch, capsys)


def _simulate_base(scenario):
    # Light rates keep a run short; the rate cases replace them.
    return {"--scenario": scenario, "--seed": "3", "--duration": "10",
            "--rate-dos": "10", "--rate-background": "5",
            "--out": "trace.jsonl", "--registry-out": "registry.json"}


def _detect_base(inputs):
    # A short warm-up lets the anomaly layer judge a 10 s trace, and with every
    # node in radio range a range violation masks no other ingredient.
    return {"--trace": inputs["trace"], "--registry": inputs["registry"],
            "--alerts": "alerts.jsonl", "--counters": "counters.json", "--warmup": "3",
            "--topology": inputs["far_sighted"]}


def _cases():
    for flag, *rest in SIMULATE:
        yield pytest.param("simulate", flag, *rest, id=f"simulate{flag}")
    for flag, *rest in DETECT:
        yield pytest.param("detect", flag, *rest, None, id=f"detect{flag}")


def _base(command, scenario, inputs, flag):
    base = _simulate_base(scenario) if command == "simulate" else _detect_base(inputs)
    base.pop(flag, None)
    return base


def _with_flag(base, flag, value):
    return {**base, flag: None if flag in BARE and value == "yes" else value}


@pytest.mark.parametrize("command, flag, key, value, other, kind, scenario", _cases())
def test_flag_and_config_key_mean_the_same(run, inputs, command, flag, key, value, other,
                                           kind, scenario):
    value, other = value.format(**inputs), other.format(**inputs)
    base = _base(command, scenario, inputs, flag)

    expected = run(command, _with_flag(base, flag, value))
    assert expected[1], "the run wrote no file"
    assert run(command, base, {key: value}) == expected
    # The other value changes the outcome, so the flag's win below is no accident.
    assert run(command, base, {key: other})[1] != expected[1]
    assert run(command, _with_flag(base, flag, value), {key: other}) == expected


@pytest.mark.parametrize("command, flag, key, value, other, kind, scenario",
                         [case for case in _cases() if case.values[5] is not None])
def test_bad_value_is_a_usage_error_naming_the_option(run, inputs, command, flag, key, value,
                                                      other, kind, scenario):
    bad = BAD_VALUES[kind]
    base = _base(command, scenario, inputs, flag)
    attempts = [(base, {key: bad})]
    if flag not in BARE:
        attempts.append(({**base, flag: bad}, None))
    for options, config in attempts:
        rc, files, err = run(command, options, config)
        assert rc == EXIT_USAGE
        assert flag in err or key in err
        assert not files


@pytest.mark.parametrize("command", ["simulate", "detect"])
def test_unknown_config_keys_are_ignored(run, inputs, command):
    base = _simulate_base("mixed") if command == "simulate" else _detect_base(inputs)
    expected = run(command, base)
    unknown = {"func": "nothing", "command": "report", "config": "missing.conf",
               "bogus": "1", "window": "abc", "rate.nobody": "abc"}
    assert run(command, base, unknown) == expected


@pytest.mark.parametrize("key, bad", [
    ("ingredient.flood_threshold", "1.5"),
    ("ingredient.window", "abc"),
    ("anomaly.warmup", "1.5"),
    ("anomaly.k", "abc"),
])
def test_bad_config_value_names_the_file_and_the_key(run, inputs, key, bad):
    rc, files, err = run("detect", _detect_base(inputs), {key: bad})
    assert rc == EXIT_USAGE
    assert f".conf: {key}: invalid " in err and repr(bad) in err
    assert "argument --" not in err  # the file has no flags, so none is named
    assert not files


@pytest.mark.parametrize("command, key, bad", [
    ("simulate", "ingredient.flood_threshold", "1.5"),
    ("simulate", "anomaly.k", "abc"),
    ("detect", "rate.dos", "abc"),
    ("detect", "clients", "1.5"),
])
def test_the_other_commands_config_keys_are_not_read(run, inputs, command, key, bad):
    base = _simulate_base("mixed") if command == "simulate" else _detect_base(inputs)
    assert run(command, base, {key: bad}) == run(command, base)


def test_bad_config_value_is_refused_even_where_a_flag_overrides_it(run, inputs):
    # Every key of the running command is converted when the file is read.
    base = {**_detect_base(inputs), "--flood-threshold": "5"}
    rc, files, err = run("detect", base, {"ingredient.flood_threshold": "1.5"})
    assert rc == EXIT_USAGE
    assert ".conf: ingredient.flood_threshold: invalid int value: '1.5'" in err
    assert not files
