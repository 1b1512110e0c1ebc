"""Seeded mutation fuzz of every file the CLI reads.

A small simulated trace, its registry, a topology (read by ``simulate`` and
by ``detect``), a counters file, two config files and the sample rules are
mutated one file at a time and fed back through ``cli.main``.  Each case
applies one to three seeded mutations in a row: truncated, bytes flipped, a
value swapped for one of another type, ``1e400`` or a huge integer written
in, or nested deeply.
Whatever the bytes, the run ends with a documented exit code, prints no
traceback, exits 1 only for a high-severity alert, and finishes in bounded
time.

The trace is also fuzzed with its lines kept valid: one to three events
get a time behind the event before them or past the header's duration,
and ``detect`` must skip exactly the events its time rule names.
"""

import json
import random

import pytest

from dhcpguard.cli import EXIT_HIGH_ALERT, main
from dhcpguard.netsim import ScenarioKind, default_topology, save_topology
from dhcpguard.signatures import sample_signatures_path
from test_cli import deadline

CASES = 40  # per input file
DEEP = "[" * 200_000
HUGE = ("1e400", "-1e400", "1" + "0" * 400)
JSON_SWAPS = (None, True, 0, -1, 2.5, "", "x", [], {}, [1, 2], {"a": 1})
TEXT_SWAPS = ("", "abc", "1.5", "-1", "0", "yes", "[]", "ff", "|", "=")

SIMULATE_CONFIG = """\
# simulate settings
scenario = mixed
seed = 3
duration = 10
clients = 5
rate.dos = 10
rate.background = 5
tamper = no
"""

DETECT_CONFIG = """\
# detect settings
ingredient.window = 1.0
ingredient.max_rate = 50
ingredient.flood_threshold = 500
ingredient.replication_limit = 50
anomaly.alpha = 0.1
anomaly.k = 3
anomaly.warmup = 3
anomaly.window = 1.0
block = yes
label = fuzz
"""

# input file -> (format, mutated file name)
TARGETS = {
    "trace": ("jsonl", "trace.jsonl"),
    "registry": ("json", "registry.json"),
    "topology": ("json", "topology.json"),
    "simulate-topology": ("json", "sim-topology.json"),
    "counters": ("json", "counters.json"),
    "rules": ("rules", "sample.rules"),
    "detect-config": ("config", "detect.conf"),
    "simulate-config": ("config", "simulate.conf"),
}


@pytest.fixture(scope="module")
def originals(tmp_path_factory):
    """The unmutated bytes of every input file, by target."""
    root = tmp_path_factory.mktemp("originals")
    trace, registry, counters = root / "trace.jsonl", root / "registry.json", root / "c.json"
    assert main(["simulate", "--scenario", "mixed", "--seed", "3", "--duration", "10",
                 "--rate-dos", "10", "--rate-background", "5",
                 "--out", str(trace), "--registry-out", str(registry)]) == 0
    assert main(["detect", "--trace", str(trace), "--registry", str(registry), "--warmup", "3",
                 "--alerts", str(root / "a.jsonl"), "--counters", str(counters)]) in (0, 1)
    topology = root / "topology.json"
    save_topology(default_topology(ScenarioKind.MIXED, 5), topology)
    return {
        "trace": trace.read_bytes(),
        "registry": registry.read_bytes(),
        "topology": topology.read_bytes(),
        "simulate-topology": topology.read_bytes(),
        "counters": counters.read_bytes(),
        "rules": sample_signatures_path().read_bytes(),
        "detect-config": DETECT_CONFIG.encode(),
        "simulate-config": SIMULATE_CONFIG.encode(),
    }


def _json_paths(value, path=()):
    """Every position in a parsed JSON value, the root included."""
    yield path
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield from _json_paths(child, path + (key,))


def _replace_json_value(rng, text, raw):
    """``text`` (one JSON value) with a random position's value written as ``raw``."""
    value = json.loads(text)
    path = rng.choice(list(_json_paths(value)))
    hole = "\x00hole\x00"
    if not path:
        return raw
    parent = value
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = hole
    return json.dumps(value).replace(json.dumps(hole), raw)


def _replace_text_field(rng, text, separator, raw):
    """``text`` with one field of a random rule or ``key = value`` line written as ``raw``."""
    lines = text.splitlines()
    candidates = [i for i, line in enumerate(lines) if line.strip() and not line.startswith("#")]
    index = rng.choice(candidates)
    fields = lines[index].split(separator)
    fields[rng.randrange(len(fields))] = f" {raw} "
    lines[index] = separator.join(fields)
    return "\n".join(lines) + "\n"


def mutate(rng, fmt, data):
    """One to three seeded mutations of a file's bytes, and their names.

    A mutation that needs the file to parse is skipped once an earlier one
    has broken it, and so is any mutation of an empty file.
    """
    names = []
    for _ in range(rng.randint(1, 3)):
        how = rng.choice(("truncate", "flip", "swap", "huge", "deep"))
        try:
            data = _mutate_once(rng, how, fmt, data)
        except (ValueError, IndexError, RecursionError):  # unparsable or empty
            how += " (skipped)"
        names.append(how)
    return " + ".join(names), data


def _mutate_once(rng, how, fmt, data):
    if how == "truncate":
        return data[:rng.randrange(len(data))]
    if how == "flip":
        out = bytearray(data)
        for _ in range(rng.randint(1, 8)):
            out[rng.randrange(len(out))] ^= rng.randint(1, 255)
        return bytes(out)
    if how == "swap":
        raw = json.dumps(rng.choice(JSON_SWAPS)) if fmt in ("json", "jsonl") else rng.choice(
            TEXT_SWAPS)
    else:
        raw = rng.choice(HUGE) if how == "huge" else DEEP
    text = data.decode()
    if fmt == "json":
        return _replace_json_value(rng, text, raw).encode()
    if fmt == "jsonl":
        lines = text.splitlines()
        index = 0 if rng.random() < 0.3 else rng.randrange(1, len(lines))
        lines[index] = _replace_json_value(rng, lines[index], raw)
        return ("\n".join(lines) + "\n").encode()
    separator = "|" if fmt == "rules" else "="
    return _replace_text_field(rng, text, separator, raw).encode()


def _argv(rng, target, case_dir, files):
    """The command that reads the mutated ``target``; every other input is the original."""
    if target == "counters":
        return ["report", str(files["counters"]), "--format", rng.choice(("table", "json", "csv")),
                "--series", str(case_dir / "series.csv")]
    if target == "simulate-config":
        return ["simulate", "--config", str(files["simulate-config"]),
                "--out", str(case_dir / "t.jsonl"), "--registry-out", str(case_dir / "r.json")]
    if target == "simulate-topology":
        return ["simulate", "--scenario", "mixed", "--seed", "3", "--duration", "10",
                "--rate-dos", "10", "--rate-background", "5",
                "--topology", str(files["simulate-topology"]),
                "--out", str(case_dir / "t.jsonl"), "--registry-out", str(case_dir / "r.json")]
    argv = ["detect", "--trace", str(files["trace"]), "--registry", str(files["registry"]),
            "--signatures", str(files["rules"]), "--warmup", "3",
            "--alerts", str(case_dir / "a.jsonl"), "--counters", str(case_dir / "c.json")]
    if target == "topology":
        argv += ["--topology", str(files["topology"])]
    if target == "detect-config":
        argv += ["--config", str(files["detect-config"])]
    return argv


@pytest.mark.parametrize("case", range(CASES))
@pytest.mark.parametrize("target", sorted(TARGETS))
def test_mutated_input_ends_cleanly(tmp_path, capsys, originals, target, case):
    rng = random.Random(f"{target}:{case}")
    fmt, name = TARGETS[target]
    how, mutated = mutate(rng, fmt, originals[target])

    files = {}
    for other, (_, other_name) in TARGETS.items():
        files[other] = tmp_path / other_name
        files[other].write_bytes(mutated if other == target else originals[other])
    argv = _argv(rng, target, tmp_path, files)

    with deadline(10):
        rc = main(argv)
    captured = capsys.readouterr()
    context = f"{how} of {name}: exit {rc}, stderr {captured.err[-300:]!r}"
    assert rc in (0, 1, 2, 3), context
    assert "Traceback" not in captured.out + captured.err, context
    assert (rc == EXIT_HIGH_ALERT) == ("high-severity alerts present" in captured.err), context


def move_times(rng, data):
    """A trace with one to three event times moved backward or past the duration, and the moves."""
    lines = data.decode().splitlines()
    duration = json.loads(lines[0])["duration"]
    names = []
    for _ in range(rng.randint(1, 3)):
        index = rng.randrange(1, len(lines))
        event = json.loads(lines[index])
        how = rng.choice(("backward", "past"))
        if how == "backward":
            before = json.loads(lines[index - 1])["time"] if index > 1 else 0.0
            event["time"] = before - rng.choice((1e-6, 0.5, 1e6))
        else:
            event["time"] = duration + rng.choice((1e-6, 1.0, 1e6, 1e300))
        lines[index] = json.dumps(event)
        names.append(f"{how} at line {index}")
    return " + ".join(names), "\n".join(lines) + "\n"


@pytest.mark.parametrize("case", range(16))
def test_trace_with_moved_times_skips_them_cleanly(tmp_path, capsys, originals, case):
    rng = random.Random(f"times:{case}")
    how, text = move_times(rng, originals["trace"])
    trace, registry, counters = tmp_path / "t.jsonl", tmp_path / "r.json", tmp_path / "c.json"
    trace.write_text(text)
    registry.write_bytes(originals["registry"])

    with deadline(10):
        rc = main(["detect", "--trace", str(trace), "--registry", str(registry), "--warmup", "3",
                   "--alerts", str(tmp_path / "a.jsonl"), "--counters", str(counters)])
    captured = capsys.readouterr()
    context = f"{how}: exit {rc}, stderr {captured.err[-300:]!r}"
    assert rc in (0, 1), context
    assert "Traceback" not in captured.out + captured.err, context

    # An event is skipped when its time is behind the last analyzed one or past the duration.
    lines = text.splitlines()
    duration = json.loads(lines[0])["duration"]
    last, skipped = 0.0, 0
    for line in lines[1:]:
        time = json.loads(line)["time"]
        if last <= time <= duration:
            last = time
        else:
            skipped += 1
    assert skipped > 0, context
    report = json.loads(counters.read_text())["report"]
    assert report["received"] == len(lines) - 1 == report["analyzed"] + skipped, context
    assert (f"skipped 0 malformed lines, {skipped} events out of time order or past duration"
            in captured.out), context
