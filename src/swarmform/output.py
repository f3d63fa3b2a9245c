"""Serialisation of run results: CSV traces, key-value reports and SVG plots.

Everything here is a pure function of its inputs with fixed formatting, so
identical runs produce byte-identical files and golden-file regression is
the same thing as numerical regression.  Floats are written with 17
significant digits, which round-trips IEEE doubles exactly; event times
take the 12 of format_short.
"""

import html
import math
from dataclasses import astuple, fields
from itertools import repeat

from .errors import ConfigurationError
from .scenario import _fmt, _keys


def write_trace(trace):
    """Render a Trace as CSV text (header + one row per sample)."""
    lines = [",".join(trace.columns)]
    # one row's Python floats at a time: a whole-trace .tolist() holds
    # rows x columns float objects at once and raises the peak RSS
    lines += [",".join([format(v, ".17g") for v in row.tolist()]) for row in trace.data]
    return "\n".join(lines) + "\n"


def format_short(value):
    """12 significant digits: the report's event lists and the console and
    sweep CSV numbers of the command line."""
    return format(value, ".12g")


def format_events(events):
    if not events:
        return "none"
    return ";".join(f"edge{k}@{format_short(t)}" for k, t in events)


def write_report(metrics, scenario):
    """Key-value run report: resolved scenario parameters plus metrics.

    The scenario keys are those of scenario.NUMBER_KEYS and the gains are
    named gains.<Gains field>.  The key set and order are fixed across
    variants and outcomes; values that do not apply read 'none'.
    """
    gains = scenario.resolved_gains()
    poles = repeat("none") if scenario.poles is None else astuple(scenario.poles)
    kv = [("variant", scenario.variant.value),
          *zip(_keys("plant"), astuple(scenario.plant)),
          *zip(_keys("poles"), poles),
          *zip([f"gains.{f.name}" for f in fields(gains)], astuple(gains)),
          # interaction.k1 is reported resolved, as gains.k1
          *zip(_keys("interaction"), (scenario.c_max, scenario.d_t, scenario.eps)),
          *zip(_keys("sim"), (scenario.dt, scenario.t_end, scenario.stride)),
          ("agents", len(scenario.agents)), ("edges", len(scenario.edges)),
          ("commands", len(scenario.commands)),
          ("rms_before", metrics.rms_before), ("rms_after", metrics.rms_after),
          ("delta_rms", "undefined" if metrics.delta_rms is None else metrics.delta_rms),
          ("delta_rms_reason", metrics.delta_reason or "none"),
          ("coupling_events", format_events(metrics.coupling_events)),
          ("uncoupling_events", format_events(metrics.uncoupling_events)),
          ("velocity_sum_drift", metrics.velocity_sum_drift)]
    return "".join(f"{k}: {_fmt(v)}\n" for k, v in kv)


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd",
            "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f")

_W, _H = 880, 430
_ML, _MR, _MT, _MB = 66, 180, 34, 46


def _nice_ticks(lo, hi, target=6):
    span = hi - lo
    if span <= 0:
        return [lo]
    raw = span / target
    mag = 10.0 ** math.floor(math.log10(raw))
    step = next(mult * mag for mult in (1.0, 2.0, 5.0, 10.0) if raw <= mult * mag)
    # whole multiples of step: finite however large lo is next to the span,
    # and k = 0 gives an exact 0
    last = math.floor((hi + 1e-9 * span) / step)
    return [k * step for k in range(math.ceil(lo / step), last + 1)]


def _tick_label(v):
    return format(v, ".6g")


def render_svg(trace, columns, title=""):
    """Line chart of the selected trace columns against time.

    Adds dashed vertical markers where any coupling indicator in the trace
    rises (coupling) or falls (uncoupling).
    """
    if not columns:
        raise ConfigurationError(
            "no columns selected; available: " + ", ".join(trace.columns[1:]))
    for name in columns:
        if name == "t" or name not in trace.columns:
            raise ConfigurationError(
                f"unknown trace column {name!r}; available: " + ", ".join(trace.columns[1:]))

    t = trace.column("t")
    series = [trace.column(name) for name in columns]
    x0, x1 = float(t[0]), float(t[-1])
    if x1 <= x0:
        x1 = x0 + 1.0
    lo = min(float(s.min()) for s in series)
    hi = max(float(s.max()) for s in series)
    pad = 0.05 * (hi - lo) if hi > lo else 1.0
    if lo - pad == hi + pad:  # a constant series so large that the unit pad vanishes
        pad = 0.05 * abs(lo)
    lo, hi = lo - pad, hi + pad

    pw = _W - _ML - _MR
    ph = _H - _MT - _MB

    def px(x):
        return _ML + (x - x0) / (x1 - x0) * pw

    def py(y):
        return _MT + (1.0 - (y - lo) / (hi - lo)) * ph

    out = []
    out.append(f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
               f'viewBox="0 0 {_W} {_H}" font-family="Helvetica,Arial,sans-serif" font-size="11">')
    out.append(f'<rect width="{_W}" height="{_H}" fill="white"/>')
    if title:
        out.append(f'<text x="{_ML}" y="{_MT - 12}" font-size="13">{html.escape(title)}</text>')

    # axes + ticks
    out.append(f'<rect x="{_ML}" y="{_MT}" width="{pw}" height="{ph}" '
               f'fill="none" stroke="#333" stroke-width="1"/>')
    for xv in _nice_ticks(x0, x1):
        X = px(xv)
        out.append(f'<line x1="{X:.2f}" y1="{_MT + ph}" x2="{X:.2f}" y2="{_MT + ph + 4}" stroke="#333"/>')
        out.append(f'<line x1="{X:.2f}" y1="{_MT}" x2="{X:.2f}" y2="{_MT + ph}" '
                   f'stroke="#ddd" stroke-width="0.5"/>')
        out.append(f'<text x="{X:.2f}" y="{_MT + ph + 16}" text-anchor="middle">{_tick_label(xv)}</text>')
    for yv in _nice_ticks(lo, hi):
        Y = py(yv)
        out.append(f'<line x1="{_ML - 4}" y1="{Y:.2f}" x2="{_ML}" y2="{Y:.2f}" stroke="#333"/>')
        out.append(f'<line x1="{_ML}" y1="{Y:.2f}" x2="{_ML + pw}" y2="{Y:.2f}" '
                   f'stroke="#ddd" stroke-width="0.5"/>')
        out.append(f'<text x="{_ML - 7}" y="{Y + 3.5:.2f}" text-anchor="end">{_tick_label(yv)}</text>')
    out.append(f'<text x="{_ML + pw / 2:.2f}" y="{_H - 10}" text-anchor="middle">t (s)</text>')

    # event markers from coupling-indicator transitions
    for fen in trace.block("fen").T:
        flips = (fen[1:] != fen[:-1]).nonzero()[0]
        for idx in flips:
            tv = float(t[idx + 1])
            rising = fen[idx + 1] > fen[idx]
            color = "#2ca02c" if rising else "#d62728"
            label = "C" if rising else "U"
            X = px(tv)
            out.append(f'<line x1="{X:.2f}" y1="{_MT}" x2="{X:.2f}" y2="{_MT + ph}" '
                       f'stroke="{color}" stroke-dasharray="4,3" stroke-width="1"/>')
            out.append(f'<text x="{X + 2:.2f}" y="{_MT + 11}" fill="{color}">{label}</text>')

    # data series
    for si, (name, s) in enumerate(zip(columns, series)):
        color = _PALETTE[si % len(_PALETTE)]
        pts = " ".join(f"{px(float(xv)):.2f},{py(float(yv)):.2f}" for xv, yv in zip(t, s))
        out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.3"/>')

    # legend
    lx = _ML + pw + 14
    for si, name in enumerate(columns):
        color = _PALETTE[si % len(_PALETTE)]
        ly = _MT + 10 + 16 * si
        out.append(f'<line x1="{lx}" y1="{ly}" x2="{lx + 18}" y2="{ly}" '
                   f'stroke="{color}" stroke-width="2"/>')
        out.append(f'<text x="{lx + 23}" y="{ly + 3.5}">{html.escape(name)}</text>')

    out.append('</svg>')
    return "\n".join(out) + "\n"
