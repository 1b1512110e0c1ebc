"""Child process: one pass of the simulate -> trace -> detect -> report chain.

Usage:
    python3 chain.py pass WORKLOAD SEED WORKDIR [--tiny] [--traced]
    python3 chain.py memory WORKDIR

``pass`` runs the whole chain once through dhcpguard's public functions,
the way the CLI's simulate, detect and report commands do, and prints
one JSON object: the event count, per-stage wall times, the process's
peak RSS, the output checks and the sha256 of the trace, alert and
counters bytes.  After the chain, write, read and detect are repeated
in the same process until each has run for SHORT_STAGE_S, and their
time is the mean per run.  With ``--traced`` it first wraps the layers'
public names in spans (see spans.py), skips the repeats, adds the span
summary and writes every span to WORKDIR/spans.csv.

``memory`` re-reads the trace a pass left in WORKDIR and reports the
tracemalloc peak of ``read_trace`` and of ``run_detection``; tracemalloc
slows Python two- to threefold, so no timing is taken in this mode.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import time
import tracemalloc
from pathlib import Path

from dhcpguard import (
    AlertClass,
    DhcpRegistry,
    Layer,
    Pipeline,
    Policy,
    ScenarioKind,
    default_scenario,
    load_signatures,
    read_trace,
    run_detection,
    run_scenario,
    write_trace,
)
from dhcpguard.metrics import (
    build_report,
    load_counters,
    render_csv,
    render_json,
    render_series_csv,
    render_table,
    save_counters,
)
from dhcpguard.netsim import legit_server_records
from dhcpguard.pipeline import save_registry_records, write_alerts
from dhcpguard.signatures import sample_signatures_path

from spans import Tracer
from workloads import WORKLOADS, scenario_args

LABEL = "bench"
MB = float(1 << 20)

TRACE_FILE = "trace.jsonl"
REGISTRY_FILE = "registry.json"
ALERTS_FILE = "alerts.jsonl"
COUNTERS_FILE = "counters.json"
SPANS_FILE = "spans.csv"
REWRITE_FILE = "trace.rewrite.jsonl"
SHORT_STAGE_S = 0.5


def install_wrappers(tracer: Tracer) -> None:
    """Trace the public names the layers call, from outside the package."""
    from dhcpguard import anomaly, dhcp, netsim, pipeline, signatures

    patch = tracer.patch
    patch(pipeline, "make_view", "signatures.make_view")
    patch(pipeline, "eval_ingredients", "signatures.eval_ingredients",
          tally=lambda found: {"signatures.violations": len(found)})
    patch(pipeline, "match_signature", "signatures.match_signature",
          tally=lambda sig: {"signatures.match_hits": int(sig is not None)})
    patch(pipeline, "verify_dhcp_offer", "pipeline.verify")
    patch(pipeline, "fingerprint", "pipeline.fingerprint")
    patch(pipeline.Pipeline, "process_view", "pipeline.process_view")
    patch(signatures.SlidingWindow, "pop_expired_expectations", "signatures.pop_expired")
    patch(anomaly.WindowTracker, "add_event", "anomaly.add_event")
    patch(anomaly.Baseline, "exceeded", "anomaly.exceeded")
    patch(dhcp.AddressPool, "allocate", "dhcp.allocate")
    patch(dhcp.AddressPool, "free_count", "dhcp.free_count")
    patch(dhcp.DhcpServer, "step", "dhcp.server_step")
    patch(netsim, "encode_message", "dhcp.encode_message")
    patch(netsim, "decode_message", "dhcp.decode_message")
    patch(netsim, "event_from_json", "netsim.event_from_json")


def build_policy(registry_path: Path) -> Policy:
    return Policy(
        version=1,
        registry=DhcpRegistry.load(registry_path),
        signatures=load_signatures(sample_signatures_path()),
    )


def _save_counters(result, path: Path) -> None:
    save_counters(build_report(result, label=LABEL), result, path)


def _report(path: Path) -> str:
    report, series = load_counters(path)
    return (render_table([report]) + render_json([report]) + render_csv([report])
            + render_series_csv({report.label: series}))


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _seconds(fn, *args) -> float:
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


def repeat_short(first: float, run_again) -> float:
    """Mean seconds per run of a stage, repeated until SHORT_STAGE_S is spent.

    A stage that takes a few tens of milliseconds is at the mercy of the
    machine's moment-to-moment speed; repeating it in the same process
    averages that out.  Stages at least SHORT_STAGE_S long run once.
    """
    total, runs = first, 1
    while total < SHORT_STAGE_S:
        total += run_again()
        runs += 1
    return total / runs


def settle_gc() -> None:
    """Collect and freeze set-up objects so the timed chain starts clean."""
    gc.collect()
    gc.freeze()


def run_pass(workload: str, seed: int, workdir: Path, tiny: bool = False,
             tracer: Tracer | None = None) -> dict:
    kind, duration, overrides = scenario_args(workload, tiny)
    scenario = default_scenario(ScenarioKind(kind), seed, duration, **overrides)
    trace_path, registry_path = workdir / TRACE_FILE, workdir / REGISTRY_FILE
    alerts_path, counters_path = workdir / ALERTS_FILE, workdir / COUNTERS_FILE

    wrap = tracer.wrap if tracer is not None else (lambda _name, fn: fn)
    simulate = wrap("netsim.run_scenario", run_scenario)
    write = wrap("netsim.write_trace", write_trace)
    read = wrap("netsim.read_trace", read_trace)
    detect = wrap("pipeline.run_detection", run_detection)
    write_alert_log = wrap("pipeline.write_alerts", write_alerts)
    write_counters = wrap("metrics.save_counters", _save_counters)
    report = wrap("metrics.report", _report)

    clock = time.perf_counter
    stages: dict[str, float] = {}

    def timed(stage, fn, *args, **kwargs):
        start = clock()
        out = fn(*args, **kwargs)
        stages[stage] = clock() - start
        return out

    def detect_again() -> float:
        fresh = Pipeline(policy, nodes)
        start = clock()
        run_detection(loaded.events, fresh, malformed=len(malformed), duration=loaded.duration)
        return clock() - start

    settle_gc()
    chain_start = clock()
    trace = timed("simulate", simulate, scenario)
    timed("write", write, trace, trace_path)
    save_registry_records(legit_server_records(trace.topology), registry_path)
    simulated = len(trace.events)
    del trace
    loaded, malformed = timed("read", read, trace_path)
    policy = build_policy(registry_path)
    nodes = {n.id: n for n in loaded.topology}
    pipe = Pipeline(policy, nodes)
    result = timed("detect", detect, loaded.events, pipe,
                   malformed=len(malformed), duration=loaded.duration)
    output_start = clock()
    write_alert_log(result.alerts, alerts_path)
    write_counters(result, counters_path)
    stages["output"] = clock() - output_start
    rendered = timed("report", report, counters_path)
    chain_s = clock() - chain_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is None:
        rewrite_path = workdir / REWRITE_FILE
        stages["write"] = repeat_short(stages["write"],
                                       lambda: _seconds(write_trace, loaded, rewrite_path))
        stages["read"] = repeat_short(stages["read"], lambda: _seconds(read_trace, trace_path))
        stages["detect"] = repeat_short(stages["detect"], detect_again)

    c = result.counters
    checks = {
        "outcomes_sum_to_analyzed": c.tp + c.fp + c.tn + c.fn == result.analyzed,
        "received_is_analyzed_plus_malformed":
            result.received == result.analyzed + len(malformed),
        "events_read_equal_simulated": len(loaded.events) == simulated,
        "alerts_by_layer_sum_to_alerts":
            sum(result.alerts_by_layer.values()) == len(result.alerts),
        "verifier_calls_equal_analyzed": pipe.layer_calls[Layer.VERIFIER] == result.analyzed,
        "report_rendered": LABEL in rendered,
    }
    expect = WORKLOADS[workload]["expect"]
    if "vr_rogue_alert" in expect:
        checks["vr_rogue_alert"] = any(a.unique_sign == "VR-ROGUE" for a in result.alerts)
    if "exhaustion_alert" in expect:
        checks["exhaustion_alert"] = any(
            a.attack_class is AlertClass.EXHAUSTION for a in result.alerts)

    counts = {
        "trace_bytes": trace_path.stat().st_size,
        "route_split_scans": result.tga * len(policy.signatures),
        "violations_used": sum(1 for a in result.alerts if a.unique_sign.startswith("SG-ING-")),
        "layer_calls": {layer.value: pipe.layer_calls[layer] for layer in Layer},
        "alerts": {layer.value: result.alerts_by_layer.get(layer.value, 0) for layer in Layer},
    }
    out = {
        "events": simulated,
        "chain_s": chain_s,
        "stages": stages,
        "peak_rss_mb": peak_rss_mb,
        "checks": checks,
        "digests": {
            "trace": _sha256(trace_path),
            "alerts": _sha256(alerts_path),
            "counters": _sha256(counters_path),
        },
        "counts": counts,
    }
    if tracer is not None:
        out["spans"] = tracer.summary()
        out["span_counts"] = dict(tracer.counts)
        # Every closed tumbling window evaluates the baseline exactly once,
        # from inside WindowTracker.add_event.
        counts["windows_closed"] = tracer.calls_under("anomaly.exceeded", "anomaly.add_event")
        tracer.write(workdir / SPANS_FILE)
    return out


def run_memory(workdir: Path) -> dict:
    settle_gc()
    tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    loaded, malformed = read_trace(workdir / TRACE_FILE)
    read_peak = tracemalloc.get_traced_memory()[1] - base
    pipe = Pipeline(build_policy(workdir / REGISTRY_FILE), {n.id: n for n in loaded.topology})
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    run_detection(loaded.events, pipe, malformed=len(malformed), duration=loaded.duration)
    detect_peak = tracemalloc.get_traced_memory()[1] - base
    tracemalloc.stop()
    return {"read_trace_peak_mb": read_peak / MB, "run_detection_peak_mb": detect_peak / MB}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    one = sub.add_parser("pass")
    one.add_argument("workload", choices=sorted(WORKLOADS))
    one.add_argument("seed", type=int)
    one.add_argument("workdir", type=Path)
    one.add_argument("--tiny", action="store_true")
    one.add_argument("--traced", action="store_true")
    mem = sub.add_parser("memory")
    mem.add_argument("workdir", type=Path)
    args = parser.parse_args()

    if args.mode == "pass":
        tracer = None
        if args.traced:
            tracer = Tracer()
            install_wrappers(tracer)
        out = run_pass(args.workload, args.seed, args.workdir, args.tiny, tracer)
    else:
        out = run_memory(args.workdir)
    print(json.dumps(out, sort_keys=True))


if __name__ == "__main__":
    main()
