"""dhcpguard benchmark: stage throughput, peak memory and per-layer cost.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
                         [--tiny] [--out RESULT.json]

Run it from the repository root; it imports dhcpguard from ``src/``.
Every pass of the simulate -> trace -> detect -> report chain runs in a
fresh child process (chain.py), one at a time, until ``--seconds`` have
passed (at least three passes, or one plain and one traced pass with
``--trace 1``).  Inputs are built from ``--seed``; all
files go to ``.bench_work/<workload>/``.

``--trace 0`` reports the end-to-end metrics, each the median over
passes, plus ``setup_s`` from several fresh interpreters (setup_time.py).
``--trace 1`` alternates plain and traced passes and reports the
per-layer metrics from the traced ones, the tracing overhead, and the
tracemalloc peaks from one extra pass.

Every pass checks its outputs; ``attempted`` and ``failed`` in the last
line count those checks, including that every pass wrote the same trace,
alert and counters bytes.  The last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--out`` also writes the full result, with run metadata and digests,
for compare.py.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

MIN_PASSES = 3
SETUP_SAMPLES_PER_PASS = 3
# tracemalloc slows read_trace and run_detection about this many times.
MEMORY_PASS_COST = 3.0
# Passes stop starting once this many seconds are used, and every child
# is killed at DEADLINE_S, so a run ends well inside three minutes.
BUDGET_S = 120.0
DEADLINE_S = 165.0

E2E_METRICS = {
    "setup_s": "s",
    "e2e_eps": "events/s",
    "simulate_eps": "events/s",
    "write_eps": "events/s",
    "read_eps": "events/s",
    "detect_eps": "events/s",
    "peak_rss_mb": "MB",
}

# Per-layer metric -> unit.  Names ending in _s are span times (median over
# traced passes); the rest are counts or ratios that repeat exactly.
LAYER_METRICS = {
    "dhcp.allocate_calls": "count",
    "dhcp.allocate_s": "s",
    "dhcp.free_count_calls": "count",
    "dhcp.free_count_s": "s",
    "dhcp.server_step_s": "s",
    "dhcp.encode_message_s": "s",
    "dhcp.decode_message_calls": "count",
    "dhcp.decode_message_s": "s",
    "netsim.run_scenario_s": "s",
    "netsim.write_trace_s": "s",
    "netsim.read_trace_s": "s",
    "netsim.event_from_json_s": "s",
    "netsim.trace_bytes_per_event": "B",
    "netsim.read_trace_peak_mb": "MB",
    "signatures.make_view_s": "s",
    "signatures.eval_ingredients_s": "s",
    "signatures.violations": "count",
    "signatures.violations_used_ratio": "ratio",
    "signatures.match_signature_calls": "count",
    "signatures.match_signature_s": "s",
    "signatures.match_hit_ratio": "ratio",
    "signatures.pop_expired_s": "s",
    "pipeline.run_detection_s": "s",
    "pipeline.process_view_s": "s",
    "pipeline.process_view_self_s": "s",
    "pipeline.accounting_self_s": "s",
    "pipeline.route_split_scans": "count",
    "pipeline.layer_calls.verifier": "count",
    "pipeline.layer_calls.signature": "count",
    "pipeline.layer_calls.anomaly": "count",
    "pipeline.alerts.verifier": "count",
    "pipeline.alerts.signature": "count",
    "pipeline.alerts.anomaly": "count",
    "pipeline.run_detection_peak_mb": "MB",
    "pipeline.verify_calls": "count",
    "pipeline.verify_s": "s",
    "pipeline.fingerprint_calls": "count",
    "pipeline.fingerprint_s": "s",
    "anomaly.add_event_calls": "count",
    "anomaly.add_event_s": "s",
    "anomaly.exceeded_calls": "count",
    "anomaly.windows_closed": "count",
    "pipeline.write_alerts_s": "s",
    "metrics.save_counters_s": "s",
    "metrics.report_s": "s",
    "bench.trace_overhead": "ratio",
}


class BenchError(Exception):
    pass


class Runner:
    """Starts the child processes of one run, within the run's deadline."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.started = time.monotonic()
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def child(self, *args: str) -> str:
        remaining = DEADLINE_S - self.elapsed()
        if remaining <= 0:
            raise BenchError("run deadline reached")
        cmd = [sys.executable, *args]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True,
                                  text=True, timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError(f"child timed out: {' '.join(args)}") from None
        if proc.returncode != 0:
            raise BenchError(f"child failed ({proc.returncode}): {' '.join(args)}\n"
                             f"{proc.stderr.strip()}")
        return proc.stdout

    def chain(self, mode: str, *args: str) -> dict:
        stdout = self.child(str(HERE / "chain.py"), mode, *args)
        return json.loads(stdout.strip().splitlines()[-1])

    def setup_time(self) -> float:
        return float(self.child(str(HERE / "setup_time.py"),
                                str(self.workdir / "registry.json")).strip())


def git_commit() -> str | None:
    """The checked-out commit, read from .git without starting git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_metadata(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "commit": git_commit(),
        "seed": seed,
    }


def run_passes(runner: Runner, args, traced_too: bool) -> tuple[list[dict], list[dict], list[float]]:
    """Plain passes (and, with ``traced_too``, traced ones in alternation)."""
    base = ["pass", args.workload, str(args.seed), str(runner.workdir)]
    if args.tiny:
        base.append("--tiny")
    plain: list[dict] = []
    traced: list[dict] = []
    setups: list[float] = []
    rounds: list[float] = []
    # A traced run needs one plain and one traced pass; plain runs need a median.
    min_rounds = 1 if traced_too else MIN_PASSES
    while True:
        begin = runner.elapsed()
        plain.append(runner.chain(*base))
        if traced_too:
            traced.append(runner.chain(*base, "--traced"))
        else:
            # After the first pass the registry exists and the bytecode cache
            # is warm.  Spreading the samples over the run evens out the
            # machine's slower and faster spells.
            setups += [runner.setup_time() for _ in range(SETUP_SAMPLES_PER_PASS)]
        rounds.append(runner.elapsed() - begin)
        # A plain run starts another round if it should end no more than half
        # a round past --seconds.  A traced run must also leave time for the
        # tracemalloc pass over read and detect.
        round_s = median(rounds)
        if traced_too:
            first = plain[0]["stages"]
            planned = round_s + MEMORY_PASS_COST * (first["read"] + first["detect"])
        else:
            planned = round_s / 2
        if runner.elapsed() + round_s > BUDGET_S or (
                len(rounds) >= min_rounds and runner.elapsed() + planned > args.seconds):
            return plain, traced, setups


def tally_checks(passes: list[dict]) -> tuple[int, list[str]]:
    """Output checks of every pass, plus byte-identical outputs across passes."""
    attempted = 0
    failed: list[str] = []
    reference = passes[0]["digests"]
    for number, one in enumerate(passes, start=1):
        for name, ok in sorted(one["checks"].items()):
            attempted += 1
            if not ok:
                failed.append(f"pass {number}: {name}")
        if number > 1:
            for kind, digest in sorted(one["digests"].items()):
                attempted += 1
                if digest != reference[kind]:
                    failed.append(f"pass {number}: {kind} bytes differ from pass 1")
    return attempted, failed


def e2e_metrics(plain: list[dict], setups: list[float]) -> dict[str, float]:
    def eps(stage=None):
        return median(p["events"] / (p["stages"][stage] if stage else p["chain_s"])
                      for p in plain)

    return {
        "setup_s": median(setups),
        "e2e_eps": eps(),
        "simulate_eps": eps("simulate"),
        "write_eps": eps("write"),
        "read_eps": eps("read"),
        "detect_eps": eps("detect"),
        "peak_rss_mb": median(p["peak_rss_mb"] for p in plain),
    }


def layer_metrics(plain: list[dict], traced: list[dict], memory: dict) -> dict[str, float]:
    first = traced[0]
    counts = first["counts"]

    def span_time(name: str, field: str = "total_s") -> float:
        return median(t["spans"][name][field] for t in traced)

    def calls(name: str) -> int:
        return first["spans"][name]["calls"]

    out: dict[str, float] = {}
    for span in first["spans"]:
        if span + "_calls" in LAYER_METRICS:
            out[span + "_calls"] = calls(span)
        if span + "_s" in LAYER_METRICS:
            out[span + "_s"] = span_time(span)
    out["pipeline.process_view_self_s"] = span_time("pipeline.process_view", "self_s")
    out["pipeline.accounting_self_s"] = median(
        t["spans"]["pipeline.run_detection"]["total_s"]
        - t["spans"]["pipeline.process_view"]["total_s"]
        - t["spans"]["signatures.make_view"]["total_s"]
        for t in traced
    )
    violations = first["span_counts"].get("signatures.violations", 0)
    out["signatures.violations"] = violations
    out["signatures.violations_used_ratio"] = (
        counts["violations_used"] / violations if violations else 0.0)
    match_calls = calls("signatures.match_signature")
    out["signatures.match_hit_ratio"] = (
        first["span_counts"].get("signatures.match_hits", 0) / match_calls if match_calls else 0.0)
    out["netsim.trace_bytes_per_event"] = counts["trace_bytes"] / first["events"]
    out["netsim.read_trace_peak_mb"] = memory["read_trace_peak_mb"]
    out["pipeline.run_detection_peak_mb"] = memory["run_detection_peak_mb"]
    out["pipeline.route_split_scans"] = counts["route_split_scans"]
    for layer in ("verifier", "signature", "anomaly"):
        out[f"pipeline.layer_calls.{layer}"] = counts["layer_calls"][layer]
        out[f"pipeline.alerts.{layer}"] = counts["alerts"][layer]
    out["anomaly.windows_closed"] = counts["windows_closed"]
    out["bench.trace_overhead"] = (
        median(p["events"] / p["chain_s"] for p in plain)
        / median(t["events"] / t["chain_s"] for t in traced))
    return out


def print_human(args, meta: dict, passes: list[dict], metrics: dict, units: dict,
                attempted: int, failed: list[str]) -> None:
    mode = "per-layer (traced)" if args.trace else "end-to-end"
    print(f"dhcpguard benchmark: workload {args.workload}{' (tiny)' if args.tiny else ''}, "
          f"seed {args.seed}, {mode}, {len(passes)} passes of {passes[0]['events']} events")
    print(f"python {meta['python']}, nproc {meta['nproc']}, "
          f"loadavg {' '.join(f'{x:.2f}' for x in meta['loadavg'])}, "
          f"commit {meta['commit'] or 'unknown'}")
    width = max(len(name) for name in metrics)
    for name, value in metrics.items():
        print(f"  {name:<{width}}  {value:>14.6g}  {units[name]}")
    print(f"  {'check_failures':<{width}}  {len(failed) / attempted:>14.6g}  "
          f"ratio ({len(failed)} of {attempted} checks failed)")
    for failure in failed:
        print(f"    FAILED {failure}")
    traced = [p for p in passes if "spans" in p]
    if traced:
        print(f"  spans of the first traced pass: {'calls':>9} {'total_s':>10} {'self_s':>10}")
        for name, span in traced[0]["spans"].items():
            print(f"    {name:<30} {span['calls']:>9} {span['total_s']:>10.4f} "
                  f"{span['self_s']:>10.4f}")
    digests = passes[0]["digests"]
    print("  digests: " + " ".join(f"{k}={v[:16]}" for k, v in sorted(digests.items())))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure for about this long (at least three passes)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--tiny", action="store_true",
                        help="shrunken workload, for the smoke tests")
    parser.add_argument("--out", type=Path, help="also write the full result here")
    args = parser.parse_args(argv)

    if not (SRC / "dhcpguard" / "__init__.py").is_file():
        print(f"error: dhcpguard sources not found under {SRC}", file=sys.stderr)
        return 2
    workdir = WORK / args.workload
    workdir.mkdir(parents=True, exist_ok=True)
    meta = run_metadata(args.seed)
    runner = Runner(workdir)
    try:
        plain, traced, setups = run_passes(runner, args, traced_too=bool(args.trace))
        if args.trace:
            memory = runner.chain("memory", str(workdir))
            metrics = layer_metrics(plain, traced, memory)
            units = LAYER_METRICS
        else:
            metrics = e2e_metrics(plain, setups)
            units = E2E_METRICS
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    passes = plain + traced
    attempted, failed = tally_checks(passes)
    metrics = {name: metrics[name] for name in units}
    reported = {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}
    print_human(args, meta, passes, metrics, units, attempted, failed)
    if args.out is not None:
        full = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "tiny": args.tiny,
            "seconds": args.seconds,
            "meta": meta,
            "correct": not failed,
            "attempted": attempted,
            "failed": len(failed),
            "failed_checks": failed,
            "check_failures": len(failed) / attempted,
            "metrics": reported,
            "digests": passes[0]["digests"],
            "setup_samples": setups,
            "passes": [{k: p[k] for k in ("events", "chain_s", "stages", "peak_rss_mb")}
                       for p in passes],
        }
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(full, indent=2, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": reported,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
