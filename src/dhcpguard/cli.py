"""Operator entry point: ``simulate``, ``detect`` and ``report`` commands.

Exit codes: 0 ok, 1 a high-severity alert fired (detect), 2 usage or
configuration problem, 3 I/O failure.

Options resolve as flags > config file > built-in defaults.  The config
file is flat ``key = value`` text; ``#`` starts a comment.  Keys mirror
the long flag names (``seed``, ``duration``, ...) plus the dotted
families ``rate.<class>``, ``ingredient.<knob>`` and ``anomaly.<knob>``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Callable, Optional, TypeVar

from . import __version__
from .anomaly import AnomalyConfig, check_window_count
from .metrics import (
    build_report,
    load_counters,
    render_csv,
    render_json,
    render_series_csv,
    render_table,
    save_counters,
)
from .netsim import (
    AttackClass,
    Scenario,
    ScenarioKind,
    class_counts,
    default_scenario,
    legit_server_records,
    load_topology,
    read_trace,
    read_trace_header,
    run_scenario,
    write_trace,
)
from .pipeline import (
    DhcpRegistry,
    Pipeline,
    Policy,
    run_detection,
    save_registry_records,
    write_alerts,
)
from .signatures import IngredientConfig, load_signatures, sample_signatures_path

EXIT_OK = 0
EXIT_HIGH_ALERT = 1
EXIT_USAGE = 2
EXIT_IO = 3

T = TypeVar("T")


class ConfigError(Exception):
    pass


def _parse_bool(text: str) -> bool:
    value = text.strip().lower()
    if value in ("1", "true", "yes", "on"):
        return True
    if value in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def load_config_file(path: str) -> dict[str, str]:
    """Flat ``key = value`` file; unknown keys are tolerated."""
    config: dict[str, str] = {}
    file = Path(path)
    if not file.is_file():
        raise ConfigError(f"config file not found: {path}")
    for lineno, raw in enumerate(file.read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        config[key.strip()] = value.strip()
    return config


class _Options:
    """Flag > config file > default resolution."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.file = load_config_file(args.config) if getattr(args, "config", None) else {}

    def get(self, name: str, default: Optional[T], cast: Callable[[str], T],
            key: Optional[str] = None) -> Optional[T]:
        flag = getattr(self.args, name.replace(".", "_"), None)
        if flag is not None:
            return flag
        raw = self.file.get(key or name)
        if raw is not None:
            try:
                return cast(raw)
            except ValueError as exc:
                raise ConfigError(f"bad config value for {key or name}: {exc}") from None
        return default

    def require(self, name: str, cast: Callable[[str], T], key: Optional[str] = None) -> T:
        value = self.get(name, None, cast, key)
        if value is None:
            raise ConfigError(f"missing required option: --{name.replace('_', '-')}")
        return value


_PRIMARY_CLASS = {
    ScenarioKind.ROGUE_RACE: AttackClass.ROGUE_DHCP,
    ScenarioKind.STARVATION: AttackClass.DOS,
    ScenarioKind.MASQUERADE: AttackClass.MASQUERADE,
    ScenarioKind.DOS_SYN: AttackClass.DOS,
    ScenarioKind.DOS_SMURF: AttackClass.DOS,
    ScenarioKind.DOS_DNS: AttackClass.DOS,
    ScenarioKind.MIXED: AttackClass.DOS,
}

_RATE_KEYS = {
    "background": AttackClass.NONE,
    "dos": AttackClass.DOS,
    "u2r": AttackClass.U2R,
    "r2l": AttackClass.R2L,
    "probe": AttackClass.PROBE,
    "rogue": AttackClass.ROGUE_DHCP,
    "masquerade": AttackClass.MASQUERADE,
}


def _build_scenario(opts: _Options) -> Scenario:
    kind = ScenarioKind(opts.require("scenario", str))
    seed = opts.require("seed", int)  # no wall-clock default: runs must be reproducible
    duration = opts.get("duration", 60.0, float)

    overrides = {}
    for name, cast in (
        ("clients", int),
        ("pool_size", int),
        ("spoofed_macs", int),
        ("attack_start", float),
        ("lease_secs", int),
        ("sig_share", float),
    ):
        value = opts.get(name, None, cast)
        if value is not None:
            overrides[name] = value
    for name in ("tamper", "rogue_answers_requests"):
        value = opts.get(name, None, _parse_bool)
        if value is not None:
            overrides[name] = value

    scenario = default_scenario(kind, seed, duration, **overrides)

    for key, cls in _RATE_KEYS.items():
        value = opts.get(f"rate_{key}", None, float, key=f"rate.{key}")
        if value is not None:
            scenario.rates[cls] = value
    primary = opts.get("rate", None, float)
    if primary is not None:
        scenario.rates[_PRIMARY_CLASS[kind]] = primary

    topology_path = opts.get("topology", None, str)
    if topology_path is not None:
        if not Path(topology_path).is_file():
            raise ConfigError(f"topology file not found: {topology_path}")
        scenario.topology = load_topology(topology_path)
    return scenario


def cmd_simulate(args: argparse.Namespace) -> int:
    opts = _Options(args)
    scenario = _build_scenario(opts)
    trace = run_scenario(scenario)

    out = opts.get("out", "trace.jsonl", str)
    write_trace(trace, out)
    print(f"wrote trace: {out} ({len(trace.events)} events, seed {scenario.seed})")
    counts = class_counts(trace.events)
    for cls in sorted(counts, key=lambda c: c.value):
        print(f"  {cls.value}: {counts[cls]}")

    registry_out = opts.get("registry_out", None, str)
    if registry_out is not None:
        save_registry_records(legit_server_records(trace.topology), registry_out)
        print(f"wrote registry: {registry_out}")
    return EXIT_OK


def _ingredient_config(opts: _Options) -> IngredientConfig:
    defaults = IngredientConfig()
    return IngredientConfig(
        max_rate=opts.get("max_rate", defaults.max_rate, float, key="ingredient.max_rate"),
        max_gap=opts.get("max_gap", defaults.max_gap, float, key="ingredient.max_gap"),
        flood_threshold=opts.get("flood_threshold", defaults.flood_threshold, int,
                                 key="ingredient.flood_threshold"),
        retransmit_timeout=opts.get("retransmit_timeout", defaults.retransmit_timeout, float,
                                    key="ingredient.retransmit_timeout"),
        replication_limit=opts.get("replication_limit", defaults.replication_limit, int,
                                   key="ingredient.replication_limit"),
        window=opts.get("window", defaults.window, float, key="ingredient.window"),
    )


def _anomaly_config(opts: _Options) -> AnomalyConfig:
    defaults = AnomalyConfig()
    return AnomalyConfig(
        alpha=opts.get("alpha", defaults.alpha, float, key="anomaly.alpha"),
        k=opts.get("k", defaults.k, float, key="anomaly.k"),
        warmup=opts.get("warmup", defaults.warmup, int, key="anomaly.warmup"),
        window=opts.get("anomaly_window", defaults.window, float, key="anomaly.window"),
    )


def cmd_detect(args: argparse.Namespace) -> int:
    opts = _Options(args)
    trace_path = opts.require("trace", str)
    if not Path(trace_path).is_file():
        raise ConfigError(f"trace file not found: {trace_path}")
    registry_path = opts.require("registry", str)
    if not Path(registry_path).is_file():
        raise ConfigError(f"registry file not found: {registry_path}")

    signatures_path = opts.get("signatures", None, str)
    if signatures_path is None:
        signatures_path = str(sample_signatures_path())
    elif not Path(signatures_path).is_file():
        raise ConfigError(f"signature file not found: {signatures_path}")

    registry = DhcpRegistry.load(registry_path)
    if len(registry) == 0:
        print("warning: registry is empty; every OFFER/ACK will be flagged rogue",
              file=sys.stderr)
    policy = Policy(
        version=1,
        registry=registry,
        signatures=load_signatures(signatures_path),
        ingredients=_ingredient_config(opts),
        anomaly=_anomaly_config(opts),
    )

    # A too-fine anomaly window is refused before a single event is parsed.
    check_window_count(read_trace_header(trace_path).duration, policy.anomaly.window)
    trace, malformed = read_trace(trace_path)
    topology_path = opts.get("topology", None, str)
    if topology_path is not None:
        if not Path(topology_path).is_file():
            raise ConfigError(f"topology file not found: {topology_path}")
        nodes = {n.id: n for n in load_topology(topology_path)}
    else:
        nodes = {n.id: n for n in trace.topology}

    pipe = Pipeline(policy, nodes)
    result = run_detection(
        trace.events,
        pipe,
        malformed=len(malformed),
        block=bool(opts.get("block", False, _parse_bool)),
        duration=trace.duration,
    )

    alerts_out = opts.get("alerts", "alerts.jsonl", str)
    counters_out = opts.get("counters", "counters.json", str)
    write_alerts(result.alerts, alerts_out)
    label = opts.get("label", Path(trace_path).stem, str)
    save_counters(build_report(result, label=label), result, counters_out)

    layers = " ".join(f"{k}={v}" for k, v in result.alerts_by_layer.items()) or "none"
    print(f"analyzed {result.analyzed}/{result.received} events, "
          f"{len(result.alerts)} alerts ({layers})")
    c = result.counters
    print(f"counters: tp={c.tp} fp={c.fp} tn={c.tn} fn={c.fn}")
    if malformed:
        print(f"skipped {len(malformed)} malformed lines")
    if result.blocked:
        print(f"blocked {len(result.blocked)} rogue DHCP replies (replay)")
    print(f"wrote alerts: {alerts_out}")
    print(f"wrote counters: {counters_out}")
    if result.high_severity:
        print("high-severity alerts present", file=sys.stderr)
        return EXIT_HIGH_ALERT
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    reports = []
    series = {}
    for path in args.counters_files:
        if not Path(path).is_file():
            raise ConfigError(f"counters file not found: {path}")
        report, capture_series = load_counters(path)
        reports.append(report)
        series[report.label] = capture_series

    renderer = {"json": render_json, "table": render_table, "csv": render_csv}[args.format]
    rendered = renderer(reports)
    if args.out:
        Path(args.out).write_text(rendered, encoding="utf-8")
        print(f"wrote report: {args.out}")
    else:
        sys.stdout.write(rendered)

    if args.series:
        Path(args.series).write_text(render_series_csv(series), encoding="utf-8")
        print(f"wrote capture series: {args.series}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dhcpguard",
        description="Simulate LAN attacks around a rogue DHCP server and detect them "
                    "with a verifier / signature / anomaly pipeline.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate a labeled event trace")
    sim.add_argument("--scenario", choices=[k.value for k in ScenarioKind])
    sim.add_argument("--seed", type=int, help="RNG seed (required; no wall-clock default)")
    sim.add_argument("--duration", type=float, help="simulated seconds (default 60)")
    sim.add_argument("--clients", type=int)
    sim.add_argument("--pool-size", type=int, dest="pool_size")
    sim.add_argument("--spoofed-macs", type=int, dest="spoofed_macs")
    sim.add_argument("--attack-start", type=float, dest="attack_start")
    sim.add_argument("--lease-secs", type=int, dest="lease_secs")
    sim.add_argument("--sig-share", type=float, dest="sig_share")
    sim.add_argument("--tamper", action="store_const", const=True)
    sim.add_argument("--rogue-answers-requests", type=_parse_bool,
                     dest="rogue_answers_requests", metavar="BOOL")
    sim.add_argument("--rate", type=float, help="events/s for the scenario's primary class")
    for key in _RATE_KEYS:
        sim.add_argument(f"--rate-{key}", type=float, dest=f"rate_{key}")
    sim.add_argument("--topology", help="topology JSON file (default: built-in)")
    sim.add_argument("--config")
    sim.add_argument("--out", help="trace output path (default trace.jsonl)")
    sim.add_argument("--registry-out", dest="registry_out",
                     help="also write the legitimate-server registry")
    sim.set_defaults(func=cmd_simulate)

    det = sub.add_parser("detect", help="run the detection pipeline over a trace")
    det.add_argument("--trace")
    det.add_argument("--registry")
    det.add_argument("--signatures", help="rule file (default: bundled sample)")
    det.add_argument("--topology", help="override the topology stored in the trace")
    det.add_argument("--alerts", help="alert log output (default alerts.jsonl)")
    det.add_argument("--counters", help="counters output (default counters.json)")
    det.add_argument("--label", help="run label used in reports")
    det.add_argument("--block", action="store_const", const=True,
                     help="treat rogue DHCP replies as dropped in replay accounting")
    det.add_argument("--window", type=float, help="ingredient window seconds")
    det.add_argument("--max-rate", type=float, dest="max_rate")
    det.add_argument("--max-gap", type=float, dest="max_gap")
    det.add_argument("--flood-threshold", type=int, dest="flood_threshold")
    det.add_argument("--retransmit-timeout", type=float, dest="retransmit_timeout")
    det.add_argument("--replication-limit", type=int, dest="replication_limit")
    det.add_argument("--alpha", type=float, help="anomaly smoothing factor")
    det.add_argument("--k", type=float, help="anomaly threshold sigmas")
    det.add_argument("--warmup", type=int, help="anomaly warmup windows")
    det.add_argument("--anomaly-window", type=float, dest="anomaly_window")
    det.add_argument("--config")
    det.set_defaults(func=cmd_detect)

    rep = sub.add_parser("report", help="render reports from counters files")
    rep.add_argument("counters_files", nargs="+", metavar="COUNTERS")
    rep.add_argument("--format", choices=["json", "table", "csv"], default="table")
    rep.add_argument("--out", help="write here instead of stdout")
    rep.add_argument("--series", help="write the capture-over-time CSV here")
    rep.set_defaults(func=cmd_report)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except json.JSONDecodeError as exc:
        print(f"error: malformed input file: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
