"""Work ratchet: Python calls per event in the simulate, read, detect and write stages.

A call count, unlike a time, is the same on every run of the same code on
the same input, so one run shows per-event work that was added or
removed.  Each stage runs under :mod:`cProfile` with the reader's
flag-set table and the verifier's fingerprint cache emptied first: read,
detect and write on the mixed trace of seed 1 over 60 s, and simulate and
read on a DHCP-only trace (rogue-race, seed 1, 600 s, 50 clients, pool
100, 1,000 events), whose decode and MAC work the mixed trace's few DHCP
events hide.  A stage's calls, ``callcount`` summed over
``Profile.getstats()``, are divided by the events simulated, read or
detected, or by the alerts written.  ``pstats``' ``total_calls`` would undercount them: it
keeps one entry per label, and every generated dataclass ``__init__``
shares one.

``work_bounds.json`` holds each stage's figure per Python ``major.minor``,
because minor versions compile some constructs to different calls.  A
figure more than SLACK above its bound fails; so does one more than SLACK
below it, since a change that lowers a count lowers its bound with it::

    PYTHONPATH=src python tests/test_work.py --write

``--write`` records the running interpreter's figures and keeps the other
versions' entries.  It needs no pytest, so every interpreter CI runs can
record its own.
"""

import cProfile
import json
import sys
import tempfile
from pathlib import Path

from dhcpguard import netsim, pipeline
from dhcpguard.netsim import (
    ScenarioKind,
    default_scenario,
    legit_server_records,
    read_trace,
    run_scenario,
    write_trace,
)
from dhcpguard.pipeline import DhcpRegistry, Pipeline, Policy, run_detection, write_alerts
from dhcpguard.signatures import load_signatures, sample_signatures_path

BOUNDS = Path(__file__).with_name("work_bounds.json")
VERSION = f"{sys.version_info.major}.{sys.version_info.minor}"
# Room for an interpreter patch release; one more call per event is 1.0.
SLACK = 0.05


def _calls(fn, *args, **kwargs):
    """``fn``'s result and the calls it made, from empty caches."""
    netsim._flag_sets.clear()
    pipeline.fingerprint.cache_clear()
    profile = cProfile.Profile()
    result = profile.runcall(fn, *args, **kwargs)
    return result, sum(entry.callcount for entry in profile.getstats())


def measure(tmp: Path) -> dict[str, float]:
    """Calls per event simulated, per event read or detected and per alert written."""
    path = tmp / "trace.jsonl"
    write_trace(run_scenario(default_scenario(ScenarioKind.MIXED, seed=1, duration=60.0)), path)
    (trace, malformed), read_calls = _calls(read_trace, path)
    assert not malformed
    registry = DhcpRegistry.from_records(legit_server_records(trace.topology))
    policy = Policy(version=1, registry=registry,
                    signatures=load_signatures(sample_signatures_path()))
    pipe = Pipeline(policy, {n.id: n for n in trace.topology})
    result, detect_calls = _calls(run_detection, trace.events, pipe, duration=trace.duration)
    _, write_calls = _calls(write_alerts, result.alerts, tmp / "alerts.jsonl")
    events = len(trace.events)

    dhcp_path = tmp / "rogue-race.jsonl"
    dhcp_scenario = default_scenario(ScenarioKind.ROGUE_RACE, seed=1, duration=600.0,
                                     clients=50, pool_size=100)
    simulated, simulate_calls = _calls(run_scenario, dhcp_scenario)
    write_trace(simulated, dhcp_path)
    (dhcp_trace, malformed), dhcp_read_calls = _calls(read_trace, dhcp_path)
    assert not malformed and len(dhcp_trace.events) == len(simulated.events) == 1000
    return {
        "read_trace": round(read_calls / events, 3),
        "run_detection": round(detect_calls / events, 3),
        "write_alerts": round(write_calls / len(result.alerts), 3),
        "dhcp.run_scenario": round(simulate_calls / len(simulated.events), 3),
        "dhcp.read_trace": round(dhcp_read_calls / len(dhcp_trace.events), 3),
    }


def test_calls_per_event_stay_at_their_bounds(tmp_path):
    bounds = json.loads(BOUNDS.read_text(encoding="utf-8"))
    assert VERSION in bounds, (f"no bounds for Python {VERSION} in {BOUNDS.name}: record them "
                               "with PYTHONPATH=src python tests/test_work.py --write")
    figures = measure(tmp_path)
    print(f"calls per event on Python {VERSION}: {figures}")
    assert figures.keys() == bounds[VERSION].keys()
    off = [f"{stage}: {figures[stage]} against a bound of {bound}"
           for stage, bound in bounds[VERSION].items() if abs(figures[stage] - bound) > SLACK]
    assert not off, ("calls per event moved from tests/work_bounds.json (a rise needs a reason "
                     "in the change notes; rerun with --write):\n" + "\n".join(off))


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: PYTHONPATH=src python {sys.argv[0]} --write")
    with tempfile.TemporaryDirectory() as tmp:
        figures = measure(Path(tmp))
    bounds = json.loads(BOUNDS.read_text(encoding="utf-8")) if BOUNDS.exists() else {}
    bounds[VERSION] = figures
    BOUNDS.write_text(json.dumps(bounds, sort_keys=True, indent=1) + "\n", encoding="utf-8")
    print(f"wrote Python {VERSION} figures to {BOUNDS}: {figures}")
