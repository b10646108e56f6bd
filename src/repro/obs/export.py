"""Trace exporters: Chrome trace-event JSON and a static SVG timeline.

The Chrome trace-event format is the lingua franca of timeline viewers
— a document produced here loads directly in Perfetto
(https://ui.perfetto.dev) or ``chrome://tracing``.  Simulated seconds
become microseconds (the format's canonical unit); spans become ``"X"``
complete events, instants ``"i"``, and flow edges ``"s"``/``"f"``
pairs, with ``"M"`` metadata events naming every process and thread
lane.  :func:`validate_chrome_trace` is the structural contract the
round-trip test pins.

The SVG exporter mirrors the look of
:mod:`repro.analysis.svg_export` (one lane per track, stable
per-name colours, flow arrows) but renders straight from a trace
document so it has no dependency on the VT postmortem machinery —
``repro.obs`` stays at the bottom of the import stack.
"""

from __future__ import annotations

import hashlib
import html
import json
from typing import Any, Dict, List, Optional, Tuple

__all__ = [
    "write_trace_document",
    "to_chrome_trace",
    "write_chrome_trace",
    "validate_chrome_trace",
    "trace_to_svg",
    "save_trace_svg",
]

#: Simulated seconds -> trace-event microseconds.
_US = 1e6

#: Compact JSON through CPython's C encoder (``json.dump`` and any
#: ``indent`` fall back to the pure-Python one).
_encode = json.JSONEncoder(separators=(",", ":")).encode


# -- trace documents --------------------------------------------------------------


def write_trace_document(doc: Dict[str, Any], fh: Any) -> None:
    """Write a trace document to text stream ``fh`` as one line of
    compact JSON.

    The bytes equal ``json.dumps(doc, separators=(",", ":")) + "\n"``,
    but ``doc["tracks"]`` is encoded one track at a time, so the whole
    document never exists as one string.
    """
    fh.write("{")
    for i, (key, value) in enumerate(doc.items()):
        if i:
            fh.write(",")
        if key != "tracks" or not isinstance(value, list):
            fh.write(_encode({key: value})[1:-1])
            continue
        fh.write(_encode({key: []})[1:-2])  # '"tracks":['
        for j, track in enumerate(value):
            if j:
                fh.write(",")
            fh.write(_encode(track))
        fh.write("]")
    fh.write("}\n")


# -- Chrome trace-event JSON ------------------------------------------------------


def to_chrome_trace(doc: Dict[str, Any]) -> Dict[str, Any]:
    """Convert a :meth:`Tracer.snapshot` document to trace-event JSON.

    Flow edges are only exported when both ends survived their ring
    buffers — a dangling ``"s"``/``"f"`` confuses viewers, and the
    drop is already accounted for in ``dropped_events``.
    """
    if doc.get("kind") != "repro.trace":
        raise ValueError("not a repro trace document")
    events: List[Dict[str, Any]] = []
    starts: Dict[int, int] = {}
    ends: Dict[int, int] = {}
    for track in doc["tracks"]:
        pid, tid = track["pid"], track["tid"]
        events.append({
            "ph": "M", "name": "process_name", "pid": pid, "tid": tid,
            "args": {"name": track["name"]},
        })
        events.append({
            "ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
            "args": {"name": track["name"]},
        })
        for ev in track["events"]:
            ph = ev["ph"]
            out: Dict[str, Any] = {
                "name": ev["name"],
                "cat": ev["cat"],
                "pid": pid,
                "tid": tid,
                "ts": ev["ts"] * _US,
            }
            if ev.get("args"):
                out["args"] = ev["args"]
            if ph == "span":
                out["ph"] = "X"
                out["dur"] = ev.get("dur", 0.0) * _US
            elif ph == "inst":
                out["ph"] = "i"
                out["s"] = "t"
            elif ph == "fs":
                out["ph"] = "s"
                out["id"] = ev["id"]
                starts[ev["id"]] = starts.get(ev["id"], 0) + 1
            elif ph == "ff":
                out["ph"] = "f"
                out["bp"] = "e"
                out["id"] = ev["id"]
                ends[ev["id"]] = ends.get(ev["id"], 0) + 1
            else:  # pragma: no cover - the tracer emits no other phase
                raise ValueError(f"unknown event phase {ph!r}")
            events.append(out)
    # Prune flows with a missing end (ring-evicted counterpart).
    complete_ids = set(starts) & set(ends)
    events = [
        e for e in events
        if e["ph"] not in ("s", "f") or e["id"] in complete_ids
    ]
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "source": "repro.obs.trace",
            "clock": doc.get("clock", "simulated-seconds"),
            "detail": doc.get("detail", "fine"),
            "dropped_events": doc.get("dropped_events", 0),
        },
    }


def write_chrome_trace(doc: Dict[str, Any], path: str) -> None:
    """Write a trace document to ``path`` as Chrome trace-event JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(to_chrome_trace(doc)) + "\n")


#: Required fields per trace-event phase (the schema the round-trip
#: test validates against; a structural subset of the official format).
_PHASE_REQUIRED: Dict[str, Tuple[str, ...]] = {
    "X": ("name", "cat", "pid", "tid", "ts", "dur"),
    "i": ("name", "cat", "pid", "tid", "ts", "s"),
    "s": ("name", "cat", "pid", "tid", "ts", "id"),
    "f": ("name", "cat", "pid", "tid", "ts", "id", "bp"),
    "M": ("name", "pid", "args"),
}


def validate_chrome_trace(chrome: Dict[str, Any]) -> None:
    """Raise ``ValueError`` unless ``chrome`` is schema-valid trace JSON.

    Checks the JSON-object-format container, per-phase required fields,
    field types, non-negative timestamps/durations, and that every flow
    start has at least one matching finish (and vice versa).
    """
    if not isinstance(chrome, dict) or "traceEvents" not in chrome:
        raise ValueError("trace JSON must be an object with 'traceEvents'")
    if not isinstance(chrome["traceEvents"], list):
        raise ValueError("'traceEvents' must be an array")
    flow_starts: Dict[Any, int] = {}
    flow_ends: Dict[Any, int] = {}
    for i, ev in enumerate(chrome["traceEvents"]):
        if not isinstance(ev, dict):
            raise ValueError(f"event #{i} is not an object")
        ph = ev.get("ph")
        if ph not in _PHASE_REQUIRED:
            raise ValueError(f"event #{i}: unknown phase {ph!r}")
        for field in _PHASE_REQUIRED[ph]:
            if field not in ev:
                raise ValueError(f"event #{i} ({ph}): missing field {field!r}")
        if ph != "M":
            if not isinstance(ev["ts"], (int, float)) or ev["ts"] < 0:
                raise ValueError(f"event #{i}: bad ts {ev.get('ts')!r}")
            if not isinstance(ev["pid"], int) or not isinstance(ev["tid"], int):
                raise ValueError(f"event #{i}: pid/tid must be integers")
        if ph == "X" and (not isinstance(ev["dur"], (int, float)) or ev["dur"] < 0):
            raise ValueError(f"event #{i}: bad dur {ev.get('dur')!r}")
        if ph == "s":
            flow_starts[ev["id"]] = flow_starts.get(ev["id"], 0) + 1
        elif ph == "f":
            flow_ends[ev["id"]] = flow_ends.get(ev["id"], 0) + 1
    unstarted = set(flow_ends) - set(flow_starts)
    unfinished = set(flow_starts) - set(flow_ends)
    if unstarted or unfinished:
        raise ValueError(
            f"dangling flow edges: {len(unstarted)} without a start, "
            f"{len(unfinished)} without a finish"
        )


# -- static SVG timeline ----------------------------------------------------------

_LANE_H = 22
_LANE_GAP = 8
_LABEL_W = 110
_AXIS_H = 28


def _color_of(name: str) -> str:
    """Stable, readable colour per event name (same scheme as the VGV
    SVG view, duplicated to keep obs free of analysis imports)."""
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    hue = digest[0] * 360 // 256
    sat = 45 + digest[1] % 30
    light = 42 + digest[2] % 18
    return f"hsl({hue},{sat}%,{light}%)"


def trace_to_svg(doc: Dict[str, Any], width: int = 1200,
                 title: Optional[str] = None,
                 max_flow_lines: int = 2000) -> str:
    """Render a trace document as a standalone SVG timeline.

    One lane per track: coloured span rectangles with hover tool-tips,
    instant ticks, and flow-edge lines from cause to effect.
    """
    if doc.get("kind") != "repro.trace":
        raise ValueError("not a repro trace document")
    tracks = doc["tracks"]
    t0, t1 = float("inf"), float("-inf")
    for track in tracks:
        for ev in track["events"]:
            t0 = min(t0, ev["ts"])
            t1 = max(t1, ev["ts"] + ev.get("dur", 0.0))
    if not tracks or t1 <= t0:
        t0, t1 = 0.0, 1.0
    span = max(t1 - t0, 1e-12)

    lane_y: Dict[Tuple[int, int], int] = {}
    for i, track in enumerate(tracks):
        lane_y[(track["pid"], track["tid"])] = _AXIS_H + i * (_LANE_H + _LANE_GAP)
    height = _AXIS_H + max(1, len(tracks)) * (_LANE_H + _LANE_GAP) + 10
    plot_w = width - _LABEL_W - 10

    def x_of(t: float) -> float:
        return _LABEL_W + (t - t0) / span * plot_w

    parts: List[str] = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" font-family="monospace" font-size="11">',
        f'<rect width="{width}" height="{height}" fill="#fcfcfc"/>',
    ]
    if title:
        parts.append(
            f'<text x="{_LABEL_W}" y="14" font-weight="bold">'
            f"{html.escape(title)}</text>"
        )
    parts.append(
        f'<text x="{width - 10}" y="14" text-anchor="end" fill="#555">'
        f"{t0:.4f}s .. {t1:.4f}s (simulated)</text>"
    )

    flow_pts: Dict[int, List[Tuple[str, float, float]]] = {}
    for track in tracks:
        y = lane_y[(track["pid"], track["tid"])]
        label = html.escape(str(track["name"]))
        dropped = track.get("dropped", 0)
        if dropped:
            label += f" (-{dropped})"
        parts.append(
            f'<text x="4" y="{y + _LANE_H - 6}" fill="#333">{label}</text>'
        )
        parts.append(
            f'<rect x="{_LABEL_W}" y="{y}" width="{plot_w}" '
            f'height="{_LANE_H}" fill="#eee"/>'
        )
        for ev in track["events"]:
            ph = ev["ph"]
            x = x_of(ev["ts"])
            if ph == "span":
                w = max((ev.get("dur", 0.0)) / span * plot_w, 0.75)
                tip = (
                    f"{ev['name']} [{ev['cat']}] "
                    f"{ev['ts']:.6f}s +{ev.get('dur', 0.0):.6f}s"
                )
                parts.append(
                    f'<rect x="{x:.2f}" y="{y + 2}" width="{w:.2f}" '
                    f'height="{_LANE_H - 4}" fill="{_color_of(ev["name"])}">'
                    f"<title>{html.escape(tip)}</title></rect>"
                )
            elif ph == "inst":
                parts.append(
                    f'<line x1="{x:.2f}" y1="{y}" x2="{x:.2f}" '
                    f'y2="{y + _LANE_H}" stroke="#d22" stroke-width="1">'
                    f"<title>{html.escape(ev['name'])}</title></line>"
                )
            elif ph in ("fs", "ff"):
                flow_pts.setdefault(ev["id"], []).append(
                    (ph, x, y + _LANE_H / 2)
                )
    drawn = 0
    for pts in flow_pts.values():
        src = [(x, y) for ph, x, y in pts if ph == "fs"]
        for ph, x, y in pts:
            if ph != "ff" or not src:
                continue
            if drawn >= max_flow_lines:
                break
            x0, y0 = src[0]
            parts.append(
                f'<line x1="{x0:.2f}" y1="{y0:.2f}" x2="{x:.2f}" '
                f'y2="{y:.2f}" stroke="#06b" stroke-width="0.8" '
                f'opacity="0.6"/>'
            )
            drawn += 1
    parts.append("</svg>")
    return "\n".join(parts)


def save_trace_svg(doc: Dict[str, Any], path: str,
                   title: Optional[str] = None) -> None:
    """Write the SVG timeline of a trace document to ``path``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(trace_to_svg(doc, title=title))
        fh.write("\n")
