"""Byte manifest: every scenario kind, simulated, detected and reported, must reproduce its files.

``golden_manifest.json`` holds the sha256 of the trace, registry, alert log
and counters file of 28 simulate -> detect runs through ``cli.main``: the
seven scenario kinds x seeds 1 and 7 x the default detect settings and
``ALT_DETECT``.  For each counters file it also holds every field of the
file by its dotted JSON path (a list is kept as the sha256 of its JSON), so
a failure names the fields that changed, not only the file.

It also holds the sha256 of the ``report`` output in each format, and of
its ``--series`` CSV, for each run alone and, per kind, for the four runs
together (``<kind>/all``).  Every run keeps the trace's stem as its label,
so the four-run report reads copies relabeled ``<seed>-<setting>``.

A change that alters output bytes on purpose regenerates the manifest and
says so in its change notes::

    PYTHONPATH=src python tests/test_manifest.py --write
"""

import hashlib
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from dhcpguard.cli import EXIT_OK, main
from dhcpguard.netsim import ScenarioKind

MANIFEST = Path(__file__).with_name("golden_manifest.json")
DURATION = "20"
SEEDS = (1, 7)
ALT_DETECT = ("--block", "--window", "2.5", "--retransmit-timeout", "0.5",
              "--anomaly-window", "0.5", "--flood-threshold", "50")
DETECT_SETTINGS = {"defaults": (), "alt": ALT_DETECT}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def counters_fields(value, path="") -> dict[str, object]:
    """A parsed counters file flattened to ``{dotted path: value}``; a list is its sha256."""
    if isinstance(value, dict):
        fields = {}
        for key, child in value.items():
            fields.update(counters_fields(child, f"{path}.{key}" if path else key))
        return fields
    if isinstance(value, list):
        return {path: _sha256(json.dumps(value, sort_keys=True).encode())}
    return {path: value}


def report_entries(name: str, counters: list[Path], tmp: Path) -> dict[str, dict]:
    """The manifest entries of ``report`` over ``counters`` in each format, and of its series."""
    entries = {}
    for fmt in ("json", "table", "csv"):
        out, series = tmp / f"report.{fmt}", tmp / "series.csv"
        with redirect_stdout(StringIO()):
            assert main(["report", *map(str, counters), "--format", fmt, "--out", str(out),
                         "--series", str(series)]) == EXIT_OK
        entries[f"{name}/report.{fmt}"] = {"sha256": _sha256(out.read_bytes())}
    entries[f"{name}/series.csv"] = {"sha256": _sha256(series.read_bytes())}
    return entries


def relabeled(path: Path, label: str) -> Path:
    """A copy of a counters file whose report carries ``label``."""
    data = json.loads(path.read_text(encoding="utf-8"))
    data["report"]["label"] = label
    copy = path.with_name(f"{label}-relabeled.json")
    copy.write_text(json.dumps(data, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    return copy


def run_kind(tmp: Path, kind: str, seed: int) -> dict[str, dict]:
    """The manifest entries of one kind and seed, by file name."""
    trace, registry = tmp / "trace.jsonl", tmp / "registry.json"
    with redirect_stdout(StringIO()):
        assert main(["simulate", "--scenario", kind, "--seed", str(seed), "--duration", DURATION,
                     "--out", str(trace), "--registry-out", str(registry)]) == EXIT_OK
    entries = {
        f"{kind}/{seed}/trace.jsonl": {"sha256": _sha256(trace.read_bytes())},
        f"{kind}/{seed}/registry.json": {"sha256": _sha256(registry.read_bytes())},
    }
    for setting, args in DETECT_SETTINGS.items():
        alerts, counters = tmp / f"{setting}-alerts.jsonl", tmp / f"{seed}-{setting}-counters.json"
        with redirect_stdout(StringIO()), redirect_stderr(StringIO()):
            main(["detect", "--trace", str(trace), "--registry", str(registry),
                  "--alerts", str(alerts), "--counters", str(counters), *args])
        entries[f"{kind}/{seed}/{setting}/alerts.jsonl"] = {"sha256": _sha256(alerts.read_bytes())}
        data = counters.read_bytes()
        entries[f"{kind}/{seed}/{setting}/counters.json"] = {
            "sha256": _sha256(data), "fields": counters_fields(json.loads(data))}
        entries.update(report_entries(f"{kind}/{seed}/{setting}", [counters], tmp))
    return entries


def kind_entries(tmp: Path, kind: str) -> dict[str, dict]:
    """The manifest entries of one kind: each seed's runs, then the report over all four."""
    entries = {}
    for seed in SEEDS:
        entries.update(run_kind(tmp, kind, seed))
    runs = [relabeled(tmp / f"{seed}-{setting}-counters.json", f"{seed}-{setting}")
            for seed in SEEDS for setting in DETECT_SETTINGS]
    entries.update(report_entries(f"{kind}/all", runs, tmp))
    return entries


def build_manifest(tmp: Path) -> dict[str, dict]:
    manifest = {}
    for kind in ScenarioKind:
        manifest.update(kind_entries(tmp, kind.value))
    return manifest


def differences(expected: dict, actual: dict) -> list[str]:
    """One line per file that differs; a counters file also names its changed fields."""
    lines = []
    for name in sorted(expected.keys() | actual.keys()):
        want, got = expected.get(name), actual.get(name)
        if want is None or got is None:
            lines.append(f"{name}: {'not produced' if got is None else 'not in the manifest'}")
        elif want != got:
            lines.append(f"{name}: sha256 {want['sha256']} -> {got['sha256']}")
            fields, got_fields = want.get("fields", {}), got.get("fields", {})
            for path in sorted(fields.keys() | got_fields.keys()):
                if fields.get(path, "<missing>") != got_fields.get(path, "<missing>"):
                    lines.append(f"  {path}: {fields.get(path, '<missing>')!r} -> "
                                 f"{got_fields.get(path, '<missing>')!r}")
    return lines


@pytest.mark.parametrize("kind", [k.value for k in ScenarioKind])
def test_outputs_match_the_manifest(tmp_path, kind):
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    expected = {name: entry for name, entry in manifest.items() if name.startswith(f"{kind}/")}
    lines = differences(expected, kind_entries(tmp_path, kind))
    assert not lines, "outputs differ from tests/golden_manifest.json:\n" + "\n".join(lines)


def test_a_changed_counters_field_is_named():
    entry = {"sha256": "a", "fields": {"report.tp": 1, "report.fn": 2, "schema": "x"}}
    changed = {"sha256": "b", "fields": {"report.tp": 1, "report.fn": 3, "schema": "x"}}
    lines = differences({"k/1/defaults/counters.json": entry},
                        {"k/1/defaults/counters.json": changed, "k/1/trace.jsonl": {"sha256": "c"}})
    assert lines == ["k/1/defaults/counters.json: sha256 a -> b", "  report.fn: 2 -> 3",
                     "k/1/trace.jsonl: not in the manifest"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: PYTHONPATH=src python {sys.argv[0]} --write")
    with tempfile.TemporaryDirectory() as tmp:
        manifest = build_manifest(Path(tmp))
    MANIFEST.write_text(json.dumps(manifest, sort_keys=True, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {MANIFEST} ({len(manifest)} files)")
