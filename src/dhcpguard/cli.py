"""Operator entry point: ``simulate``, ``detect`` and ``report`` commands.

Exit codes: 0 ok, 1 a high-severity alert fired (detect), 2 usage or
configuration problem, 3 I/O failure.

Every option is declared once, to argparse, which gives it its type and
resolves flags > config file > defaults.  The config file is flat
``key = value`` text; ``#`` starts a comment.  A key names an option's
dest, with ``.`` or ``_`` between words: ``seed``, ``pool_size``,
``rate.dos``, ``ingredient.window``, ``anomaly.k``.  :func:`build_parser`
converts a file's values with each option's own type, exactly as argparse
converts a flag, and makes them the defaults of the subcommand being run;
a value the type refuses is a usage error naming the file and the key.  Unknown keys
are ignored.  An option that neither a flag nor the file sets is not
passed on, so ``Scenario``, ``IngredientConfig`` and ``AnomalyConfig``
keep the only defaults.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional

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


class ConfigError(Exception):
    pass


def _parse_bool(text: str) -> bool:
    value = text.strip().lower()
    if value in ("1", "true", "yes", "on"):
        return True
    if value in ("0", "false", "no", "off"):
        return False
    raise argparse.ArgumentTypeError(f"not a boolean: {text!r}")


def load_config_file(path: str) -> dict[str, str]:
    """Flat ``key = value`` file; unknown keys are tolerated."""
    config: dict[str, str] = {}
    file = Path(path)
    if not file.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        text = file.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        config[key.strip()] = value.strip()
    return config


def _given(args: argparse.Namespace, prefix: str) -> dict:
    """The options a flag or the config file set whose dest starts with ``prefix``, unprefixed."""
    return {dest[len(prefix):]: value for dest, value in vars(args).items()
            if dest.startswith(prefix) and value is not None}


def _required(args: argparse.Namespace, dest: str):
    value = getattr(args, dest)
    if value is None:
        raise ConfigError(f"missing required option: --{dest}")
    return value


def _input_file(path: str, what: str) -> str:
    if not Path(path).is_file():
        raise ConfigError(f"{what} file not found: {path}")
    return path


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

# The simulate options that set a Scenario field of the same name.
_SCENARIO_FIELDS = ("duration", "clients", "pool_size", "spoofed_macs", "attack_start",
                    "lease_secs", "sig_share", "tamper", "rogue_answers_requests")


def _build_scenario(args: argparse.Namespace) -> Scenario:
    kind = ScenarioKind(_required(args, "scenario"))
    seed = _required(args, "seed")  # no wall-clock default: runs must be reproducible
    overrides = {name: getattr(args, name) for name in _SCENARIO_FIELDS
                 if getattr(args, name) is not None}
    scenario = default_scenario(kind, seed, **overrides)

    for key, rate in _given(args, "rate_").items():
        scenario.rates[_RATE_KEYS[key]] = rate
    if args.rate is not None:
        scenario.rates[_PRIMARY_CLASS[kind]] = args.rate
    if args.topology is not None:
        scenario.topology = load_topology(_input_file(args.topology, "topology"))
    return scenario


def cmd_simulate(args: argparse.Namespace) -> int:
    scenario = _build_scenario(args)
    trace = run_scenario(scenario)

    write_trace(trace, args.out)
    print(f"wrote trace: {args.out} ({len(trace.events)} events, seed {scenario.seed})")
    counts = class_counts(trace.events)
    for cls in sorted(counts, key=lambda c: c.value):
        print(f"  {cls.value}: {counts[cls]}")

    if args.registry_out is not None:
        save_registry_records(legit_server_records(trace.topology), args.registry_out)
        print(f"wrote registry: {args.registry_out}")
    return EXIT_OK


def cmd_detect(args: argparse.Namespace) -> int:
    trace_path = _input_file(_required(args, "trace"), "trace")
    registry_path = _input_file(_required(args, "registry"), "registry")
    signatures_path = (sample_signatures_path() if args.signatures is None
                       else _input_file(args.signatures, "signature"))

    registry = DhcpRegistry.load(registry_path)
    if len(registry) == 0:
        print("warning: registry is empty; every OFFER/ACK will be flagged rogue",
              file=sys.stderr)
    policy = Policy(
        version=1,
        registry=registry,
        signatures=load_signatures(signatures_path),
        ingredients=IngredientConfig(**_given(args, "ingredient_")),
        anomaly=AnomalyConfig(**_given(args, "anomaly_")),
    )

    # A too-fine anomaly window is refused before a single event is parsed.
    check_window_count(read_trace_header(trace_path).duration, policy.anomaly.window)
    trace, malformed = read_trace(trace_path)
    if args.topology is not None:
        trace.topology = load_topology(_input_file(args.topology, "topology"))

    pipe = Pipeline(policy, {n.id: n for n in trace.topology})
    result = run_detection(
        trace.events,
        pipe,
        malformed=len(malformed),
        block=bool(args.block),
        duration=trace.duration,
    )

    write_alerts(result.alerts, args.alerts)
    label = Path(trace_path).stem if args.label is None else args.label
    save_counters(build_report(result, label=label), result, args.counters)

    layers = " ".join(f"{k}={v}" for k, v in result.alerts_by_layer.items()) or "none"
    print(f"analyzed {result.analyzed}/{result.received} events, "
          f"{len(result.alerts)} alerts ({layers})")
    c = result.counters
    print(f"counters: tp={c.tp} fp={c.fp} tn={c.tn} fn={c.fn}")
    skipped = result.received - result.analyzed
    if skipped:
        print(f"skipped {len(malformed)} malformed lines, "
              f"{skipped - len(malformed)} events out of time order or past duration")
    if result.blocked:
        print(f"blocked {len(result.blocked)} rogue DHCP replies (replay)")
    print(f"wrote alerts: {args.alerts}")
    print(f"wrote counters: {args.counters}")
    if result.high_severity:
        print("high-severity alerts present", file=sys.stderr)
        return EXIT_HIGH_ALERT
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    reports = []
    series = {}
    label_paths: dict[str, str] = {}
    for path in args.counters_files:
        report, capture_series = load_counters(_input_file(path, "counters"))
        # A run's series is keyed by its label: a second run of the same
        # label would replace the first's rows.
        if report.label in label_paths:
            raise ConfigError(f"label {report.label!r} of {path} is already used by "
                              f"{label_paths[report.label]}; give each run its own --label")
        label_paths[report.label] = path
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


def _config_defaults(command: argparse.ArgumentParser, config: dict[str, str],
                     path: str) -> dict:
    """``config``'s values for ``command``'s options, each converted with the option's type.

    A key names the dest of the option whose default it sets; a value the
    type refuses is a :class:`ConfigError` naming ``path`` and the key.
    """
    types = {action.dest: action.type for action in command._actions
             if action.dest not in ("help", "config")}
    defaults = {}
    for key, value in config.items():
        dest = key.replace(".", "_")
        if dest not in types:
            continue
        convert = types[dest]
        try:
            defaults[dest] = value if convert is None else convert(value)
        except argparse.ArgumentTypeError as exc:
            raise ConfigError(f"{path}: {key}: {exc}") from None
        except (TypeError, ValueError):
            raise ConfigError(
                f"{path}: {key}: invalid {convert.__name__} value: {value!r}") from None
    return defaults


def build_parser(config: Optional[dict[str, str]] = None, config_path: str = "config",
                 command: Optional[str] = None) -> argparse.ArgumentParser:
    """The command-line parser; ``config``'s values become ``command``'s option defaults.

    ``config_path`` names the file they came from in a :class:`ConfigError`.
    """
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
    sim.add_argument("--duration", type=float, help="simulated seconds")
    sim.add_argument("--clients", type=int)
    sim.add_argument("--pool-size", type=int)
    sim.add_argument("--spoofed-macs", type=int)
    sim.add_argument("--attack-start", type=float)
    sim.add_argument("--lease-secs", type=int)
    sim.add_argument("--sig-share", type=float)
    sim.add_argument("--tamper", type=_parse_bool, nargs="?", const=True, metavar="BOOL")
    sim.add_argument("--rogue-answers-requests", type=_parse_bool, metavar="BOOL")
    sim.add_argument("--rate", type=float, help="events/s for the scenario's primary class")
    for key in _RATE_KEYS:
        sim.add_argument(f"--rate-{key}", type=float)
    sim.add_argument("--topology", help="topology JSON file (default: built-in)")
    sim.add_argument("--out", default="trace.jsonl", help="trace output path (default %(default)s)")
    sim.add_argument("--registry-out", help="also write the legitimate-server registry")
    sim.set_defaults(func=cmd_simulate)

    det = sub.add_parser("detect", help="run the detection pipeline over a trace")
    det.add_argument("--trace")
    det.add_argument("--registry")
    det.add_argument("--signatures", help="rule file (default: bundled sample)")
    det.add_argument("--topology", help="override the topology stored in the trace")
    det.add_argument("--alerts", default="alerts.jsonl",
                     help="alert log output (default %(default)s)")
    det.add_argument("--counters", default="counters.json",
                     help="counters output (default %(default)s)")
    det.add_argument("--label", help="run label used in reports (default: the trace's stem)")
    det.add_argument("--block", type=_parse_bool, nargs="?", const=True, metavar="BOOL",
                     help="treat rogue DHCP replies as dropped in replay accounting")
    det.add_argument("--window", type=float, dest="ingredient_window",
                     help="ingredient window seconds")
    det.add_argument("--max-rate", type=float, dest="ingredient_max_rate")
    det.add_argument("--max-gap", type=float, dest="ingredient_max_gap")
    det.add_argument("--flood-threshold", type=int, dest="ingredient_flood_threshold")
    det.add_argument("--retransmit-timeout", type=float, dest="ingredient_retransmit_timeout")
    det.add_argument("--replication-limit", type=int, dest="ingredient_replication_limit")
    det.add_argument("--alpha", type=float, dest="anomaly_alpha",
                     help="anomaly smoothing factor")
    det.add_argument("--k", type=float, dest="anomaly_k", help="anomaly threshold sigmas")
    det.add_argument("--warmup", type=int, dest="anomaly_warmup", help="anomaly warmup windows")
    det.add_argument("--anomaly-window", type=float)
    det.set_defaults(func=cmd_detect)

    for name, sub_parser in (("simulate", sim), ("detect", det)):
        sub_parser.add_argument("--config", help="flat 'key = value' file; flags beat it")
        if config and name == command:  # the other command's keys are not read
            sub_parser.set_defaults(**_config_defaults(sub_parser, config, config_path))

    rep = sub.add_parser("report", help="render reports from counters files")
    rep.add_argument("counters_files", nargs="+", metavar="COUNTERS")
    rep.add_argument("--format", choices=["json", "table", "csv"], default="table")
    rep.add_argument("--out", help="write here instead of stdout")
    rep.add_argument("--series", help="write the capture-over-time CSV here")
    rep.set_defaults(func=cmd_report)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if getattr(args, "config", None):
            config = load_config_file(args.config)
            args = build_parser(config, args.config, args.command).parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
