"""Detection-quality arithmetic and run reports.

The four headline numbers:

    precision                 tp / (tp + fp)
    overall probability       (tp + tn) / (tp + fp + fn + tn)
    efficiency                ((tsa + taa) - (msa + maa)) * 100 / tga
    packet analysis capacity  analyzed * 100 / received

``precision`` and ``overall_probability`` are returned as ratios in
[0, 1]; reports carry all four as percentages rounded for display to
three decimals.  Undefined inputs surface as ``None`` fields with a
warning rather than aborting report generation.
"""

from __future__ import annotations

import json
import logging
import statistics
import sys
from collections import Counter
from dataclasses import asdict, dataclass, fields
from math import isfinite, sqrt
from pathlib import Path
from typing import Optional, Sequence, Union

from .anomaly import sign_of_attack
from .pipeline import DetectionResult
from .trace import is_int, is_number, refused

logger = logging.getLogger(__name__)

REPORT_SCHEMA = "dhcpguard-report/1"


class UndefinedMetric(ValueError):
    pass


class InvalidCounts(ValueError):
    pass


def precision(tp: int, fp: int) -> float:
    """Fraction of alerts that were real attacks."""
    if tp < 0 or fp < 0:
        raise InvalidCounts("negative counts")
    if tp + fp == 0:
        raise UndefinedMetric("precision undefined: no alerts at all")
    return tp / (tp + fp)


def overall_probability(tp: int, tn: int, fp: int, fn: int) -> float:
    """Fraction of all verdicts that were correct."""
    if min(tp, tn, fp, fn) < 0:
        raise InvalidCounts("negative counts")
    total = tp + fp + fn + tn
    if total == 0:
        raise UndefinedMetric("overall probability undefined: nothing classified")
    return (tp + tn) / total


def efficiency(tsa: int, taa: int, msa: int, maa: int, tga: int) -> float:
    """Captured share of generated attacks, as a percentage."""
    if min(tsa, taa, msa, maa) < 0:
        raise InvalidCounts("negative counts")
    if tga <= 0:
        raise InvalidCounts("tga must be > 0")
    if msa + maa > tsa + taa:
        raise InvalidCounts("missed more attacks than were generated")
    return ((tsa + taa) - (msa + maa)) * 100.0 / tga


def packet_analysis_capacity(analyzed: int, received: int) -> float:
    if analyzed < 0 or received <= 0:
        raise InvalidCounts("received must be > 0 and analyzed >= 0")
    if analyzed > received:
        raise InvalidCounts("analyzed exceeds received")
    return analyzed * 100.0 / received


@dataclass
class RunReport:
    """One detection run summarized; percentage fields may be None."""

    label: str
    received: int
    analyzed: int
    tga: int
    tsa: int
    taa: int
    msa: int
    maa: int
    generated: dict[str, int]
    captured: dict[str, int]
    generated_signature: dict[str, int]
    generated_anomaly: dict[str, int]
    captured_signature: dict[str, int]
    captured_anomaly: dict[str, int]
    tp: int
    fp: int
    tn: int
    fn: int
    window_counters: dict[str, int]
    st_ratio: Optional[float]
    st_verdict: str
    alerts_total: int
    alerts_by_layer: dict[str, int]
    blocked: int
    precision: Optional[float]
    overall_probability: Optional[float]
    efficiency: Optional[float]
    packet_analysis_capacity: Optional[float]

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, data: dict) -> "RunReport":
        """The report a counters file holds; a missing or mistyped field is a
        :class:`ValueError` naming it."""
        if not isinstance(data, dict):
            raise ValueError("'report' must be an object")
        values = {}
        for f in fields(cls):
            value = data.get(f.name)
            _check_field(f.name, f.type, value)
            if f.type == "Optional[float]" and value is not None:
                value = float(value)  # a JSON integer is a number too
            values[f.name] = value
        return cls(**values)


def _check_field(name: str, kind: str, value) -> None:
    """Refuse a ``value`` that cannot stand in the RunReport field ``name`` annotated ``kind``."""
    if kind == "Optional[float]":  # a percentage, or the non-negative st_ratio
        pct = name in _PCT_METRICS
        what = "a number in [0, 100] or null" if pct else "a finite number >= 0 or null"
        limit = 100.0 if pct else sys.float_info.max
        ok = value is None or (is_number(value) and 0.0 <= value <= limit)
    elif kind == "dict[str, int]":
        what, ok = "an object of integers", type(value) is dict and all(map(is_int, value.values()))
    elif kind == "str":
        what, ok = "a string", type(value) is str
    else:
        what, ok = "an integer", is_int(value)
    if not ok:
        raise refused(name, what, value)


def _try(fn, *args) -> Optional[float]:
    try:
        return fn(*args)
    except (UndefinedMetric, InvalidCounts) as exc:
        logger.warning("%s left null in report: %s", fn.__name__, exc)
        return None


def _per_class(attacks: Counter, matchable: Optional[bool] = None,
               captured: bool = False) -> dict[str, int]:
    """Attack events by class in report order: on one route when ``matchable``
    is given, and only the alerted ones when ``captured``.

    The classes of ``_CLASS_ROWS`` always appear; the others only when counted.
    """
    counts: Counter = Counter()
    for (cls, on_route, alerted), n in attacks.items():
        if matchable in (None, on_route) and (alerted or not captured):
            counts[cls.value] += n
    return {cls: counts[cls] for cls in _CLASS_ORDER if counts[cls] or cls in _CLASS_ROWS}


def build_report(result: DetectionResult, label: str = "run") -> RunReport:
    """Every report figure, derived once from what the detection pass observed."""
    c = result.counters
    attacks = result.attacks
    generated_signature = _per_class(attacks, matchable=True)
    generated_anomaly = _per_class(attacks, matchable=False)
    captured_signature = _per_class(attacks, matchable=True, captured=True)
    captured_anomaly = _per_class(attacks, matchable=False, captured=True)
    tsa = sum(generated_signature.values())
    taa = sum(generated_anomaly.values())
    msa = tsa - sum(captured_signature.values())
    maa = taa - sum(captured_anomaly.values())
    prec = _try(precision, c.tp, c.fp)
    op = _try(overall_probability, c.tp, c.tn, c.fp, c.fn)
    eff = _try(efficiency, tsa, taa, msa, maa, result.tga)
    capacity = _try(packet_analysis_capacity, result.analyzed, result.received)
    windows = result.window_counters
    st = sign_of_attack(windows.tn, windows.fn)
    return RunReport(
        label=label,
        received=result.received,
        analyzed=result.analyzed,
        tga=result.tga,
        tsa=tsa,
        taa=taa,
        msa=msa,
        maa=maa,
        generated=_per_class(attacks),
        captured=_per_class(attacks, captured=True),
        generated_signature=generated_signature,
        generated_anomaly=generated_anomaly,
        captured_signature=captured_signature,
        captured_anomaly=captured_anomaly,
        tp=c.tp,
        fp=c.fp,
        tn=c.tn,
        fn=c.fn,
        window_counters=windows.as_dict(),
        st_ratio=st.ratio if isfinite(st.ratio) else None,
        st_verdict=st.verdict.value,
        alerts_total=len(result.alerts),
        alerts_by_layer=dict(result.alerts_by_layer),
        blocked=len(result.blocked),
        precision=None if prec is None else prec * 100.0,
        overall_probability=None if op is None else op * 100.0,
        efficiency=eff,
        packet_analysis_capacity=capacity,
    )


# -- rendering --------------------------------------------------------------

_PCT_METRICS = ("packet_analysis_capacity", "precision", "overall_probability", "efficiency")
_CLASS_ROWS = ("dos", "u2r", "r2l", "probe")
_CLASS_ORDER = _CLASS_ROWS + ("rogue_dhcp", "masquerade")


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def _report_rows(reports: Sequence[RunReport]) -> list[tuple[str, list]]:
    rows: list[tuple[str, list]] = [
        ("packets received", [r.received for r in reports]),
        ("packets analyzed", [r.analyzed for r in reports]),
        ("attacks generated", [r.tga for r in reports]),
        ("signature-route attacks generated", [r.tsa for r in reports]),
    ]
    for cls in _CLASS_ROWS:
        rows.append((f"anomaly-route generated: {cls}",
                     [r.generated_anomaly.get(cls, 0) for r in reports]))
    rows.append(("anomaly-route attacks generated", [r.taa for r in reports]))
    rows.append(("attacks captured", [sum(r.captured.values()) for r in reports]))
    for cls in _CLASS_ROWS:
        rows.append((f"anomaly-route captured: {cls}",
                     [r.captured_anomaly.get(cls, 0) for r in reports]))
    rows.append(("anomaly-route attacks captured",
                 [r.taa - r.maa for r in reports]))
    rows.append(("signature-route attacks captured",
                 [r.tsa - r.msa for r in reports]))
    rows.append(("packet analysis capacity (%)",
                 [r.packet_analysis_capacity for r in reports]))
    rows.append(("precision (%)", [r.precision for r in reports]))
    rows.append(("overall probability (%)", [r.overall_probability for r in reports]))
    rows.append(("efficiency (%)", [r.efficiency for r in reports]))
    return rows


def aggregate_reports(reports: Sequence[RunReport]) -> dict:
    """Mean and sample standard deviation of the percentage metrics."""
    summary: dict = {"runs": len(reports)}
    for name in _PCT_METRICS:
        values = [getattr(r, name) for r in reports if getattr(r, name) is not None]
        if not values:
            summary[name] = {"mean": None, "stdev": None}
            continue
        summary[name] = {
            "mean": statistics.mean(values),
            # The same float on every Python, unlike statistics.stdev (changed in 3.11).
            "stdev": sqrt(statistics.variance(values)) if len(values) > 1 else None,
        }
    return summary


def render_json(reports: Sequence[RunReport]) -> str:
    payload = {
        "schema": REPORT_SCHEMA,
        "runs": [r.to_json() for r in reports],
        "aggregate": aggregate_reports(reports),
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def render_table(reports: Sequence[RunReport]) -> str:
    labels = [r.label for r in reports]
    rows = _report_rows(reports)
    name_width = max(len(name) for name, _ in rows)
    widths = [max(len(label), 12) for label in labels]
    lines = ["  ".join(["parameter".ljust(name_width)]
                       + [l.rjust(w) for l, w in zip(labels, widths)])]
    lines.append("-" * len(lines[0]))
    for name, values in rows:
        cells = [_fmt(v).rjust(w) for v, w in zip(values, widths)]
        lines.append("  ".join([name.ljust(name_width)] + cells))
    if len(reports) > 1:
        agg = aggregate_reports(reports)
        lines.append("")
        lines.append(f"aggregate over {agg['runs']} runs (mean +/- stdev):")
        for name in _PCT_METRICS:
            mean, stdev = agg[name]["mean"], agg[name]["stdev"]
            spread = "n/a" if stdev is None else f"{stdev:.3f}"
            lines.append(f"  {name}: {_fmt(mean)} +/- {spread}")
    return "\n".join(lines) + "\n"


def _csv_field(text: str) -> str:
    """``text`` as one CSV field: quoted per RFC 4180 only when it must be."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def render_csv(reports: Sequence[RunReport]) -> str:
    labels = [_csv_field(r.label) for r in reports]
    lines = [",".join(["parameter"] + labels)]
    for name, values in _report_rows(reports):
        lines.append(",".join([f'"{name}"'] + [_fmt(v) for v in values]))
    return "\n".join(lines) + "\n"


def render_series_csv(series_by_label: dict[str, Sequence[tuple[float, int, int]]]) -> str:
    """Cumulative capture-count time series, one row per (run, second)."""
    lines = ["run,time,generated,captured,capture_pct"]
    for label, series in series_by_label.items():
        run = _csv_field(label)
        for time, generated, captured in series:
            pct = "" if generated == 0 else f"{captured * 100 / generated:.3f}"
            lines.append(f"{run},{time:g},{generated},{captured},{pct}")
    return "\n".join(lines) + "\n"


def save_counters(report: RunReport, result: DetectionResult, path: Union[str, Path]) -> None:
    """Per-run summary file consumed by the ``report`` command."""
    payload = {
        "schema": "dhcpguard-counters/1",
        "report": report.to_json(),
        "capture_series": [[t, g, c] for t, g, c in result.capture_series],
        "st_series": [[t, (r if isfinite(r) else None)] for t, r in result.st_series],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _is_series_row(row) -> bool:
    """``[time, generated, captured]`` with cumulative counts, captured <= generated."""
    return (type(row) is list and len(row) == 3 and is_number(row[0])
            and isfinite(row[0]) and is_int(row[1]) and is_int(row[2])
            and 0 <= row[2] <= row[1])


def load_counters(path: Union[str, Path]) -> tuple[RunReport, list[tuple[float, int, int]]]:
    """A counters file's report and capture series; a file that does not fit
    is a :class:`ValueError` naming it and the field."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError("counters must be a JSON object")
        if data.get("schema") != "dhcpguard-counters/1":
            raise ValueError(f"unsupported counters schema {data.get('schema')!r}")
        report = RunReport.from_json(data.get("report"))
        rows = data.get("capture_series", [])
        if not (isinstance(rows, list) and all(map(_is_series_row, rows))):
            raise ValueError("capture_series must be a list of [time, generated, captured] "
                             "rows with 0 <= captured <= generated")
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"{path}: {exc}") from None
    return report, [(float(t), g, c) for t, g, c in rows]
