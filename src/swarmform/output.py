"""Serialisation of run results: CSV traces, key-value reports and SVG plots.

Everything here is a pure function of its inputs with fixed formatting, so
identical runs produce byte-identical files and golden-file regression is
the same thing as numerical regression.  Floats are written with 17
significant digits, which round-trips IEEE doubles exactly; event times
take the 12 of format_short.

The simulation is single-threaded, and so is every writer but one:
write_trace formats a trace of at least 2 * FORK_VALUES values in row
blocks, one per core, all but the first in forked child processes, and
joins the blocks in row order.  The text does not depend on the number of
blocks, and no child outlives the call.
"""

import html
import math
import os
import threading
from dataclasses import astuple, fields

import numpy as np

from .errors import ConfigurationError, NumericDomainError
from .scenario import _fmt, _keys, _values


# Values (rows x columns) each block holds at least, so a trace is cut in
# two from 300 000 values: the lattice_swarm (347 694) and dense_trace
# (640 016) traces of perfbench are, the 4001-row traces of the shipped
# scenarios (64 016 and 108 027) are not.  write_trace of the first rows of
# the dense_trace input (16 columns), median time of 2 blocks over that of
# 1, alternating runs (9-21 of each), same process, Python 3.11.7, 2-vCPU
# x86-64 VM; the range spans 5-9 series taken over an hour, as the host's
# second core came and went:
#   values    50-64 k    96-128 k   192-200 k  256-320 k  384-400 k  640 k
#   2 / 1     0.60-1.39  0.55-1.26  0.56-1.12  0.57-0.68  0.54-0.68  0.57-0.73
FORK_VALUES = 150_000


def _blocks(values):
    """How many blocks write_trace cuts a trace of `values` values into:
    one per core the process may run on, each of at least FORK_VALUES
    values.  One where there is no fork or core count (not Linux), or while
    another thread runs: a forked child gets only the calling thread, and
    could find a lock that another thread held."""
    if not hasattr(os, "sched_getaffinity") or threading.active_count() > 1:
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), values // FORK_VALUES))


def _rows(data, fmt):
    """The CSV lines of the rows of `data`, one string each.  One row's
    Python floats at a time: a whole-block .tolist() would hold rows x
    columns float objects at once and raise the peak RSS."""
    return [fmt % tuple(r.tolist()) for r in data]


def write_trace(trace):
    """Render a Trace as CSV text (header + one row per sample).

    A trace of at least 2 * FORK_VALUES values is cut into contiguous row
    blocks, one per core (_blocks).  The calling process formats the first
    block; each other block is formatted by a forked child, which writes
    it to a pipe as ASCII and exits.  The blocks are joined in row order,
    so the text is the same however many blocks there are.  A child that
    fails, or sends fewer lines than its block has, has its block
    formatted by the caller instead, and no child outlives the call.
    """
    data = trace.data
    fmt = ",".join(["%.17g"] * data.shape[1]) + "\n"
    n = _blocks(data.size)
    cuts = [len(data) * i // n for i in range(n + 1)]
    children = []  # (pid, read end, first row, end row) of each unreaped child
    try:
        for lo, hi in zip(cuts[1:-1], cuts[2:]):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:
                # the whole block is formatted before the first write, so a
                # full pipe never stalls the child while the caller is busy
                status = 1
                try:
                    block = "".join(_rows(data[lo:hi], fmt)).encode("ascii")
                    with open(w, "wb") as f:
                        f.write(block)
                    status = 0
                finally:
                    os._exit(status)
            os.close(w)
            children.append((pid, open(r, "rb", buffering=0), lo, hi))
        # The caller's rows are joined, and their list dropped, before any
        # child's text is read; each child's text stays in the strings of its
        # pipe reads until the one join.  On the dense_trace input (40 001
        # rows, an 11.1 MB CSV) a fresh process's max RSS rises 40.0 -> 56.7
        # MB across one call in 2 blocks, 40.0 -> 62.0 MB in 1.  Appending
        # each read to one growing str instead gave 57.9 MB, but the first
        # call took 0.7-0.8 s, not 0.3: the allocator copied the str on most
        # of its ~85 growths (180 000 page faults against 7 500)
        parts = ["".join([",".join(trace.columns) + "\n", *_rows(data[:cuts[1]], fmt)])]
        while children:
            pid, f, lo, hi = children[0]
            with f:
                block = [chunk.decode("ascii") for chunk in iter(lambda: f.read(1 << 16), b"")]
            status = os.waitpid(pid, 0)[1]
            del children[0]
            if (os.waitstatus_to_exitcode(status) != 0
                    or sum(chunk.count("\n") for chunk in block) != hi - lo):
                block = _rows(data[lo:hi], fmt)
            parts += block
        return "".join(parts)
    finally:
        if children:  # an exception is unwinding the call: stop and reap the rest
            import signal  # here, not at import: only this path needs it

            for pid, f, _, _ in children:
                f.close()
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


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

    The scenario keys are those of scenario.KEYS and the gains are named
    gains.<Gains field>.  The key set and order are fixed across variants
    and outcomes; values that do not apply read 'none'.
    """
    gains = scenario.resolved_gains()
    values = {k: "none" if v is None else v for k, v in _values(scenario).items()}
    # the variant heads the report, and k1 is reported resolved, as gains.k1
    skip = ("interaction.variant", "interaction.k1")
    kv = [("variant", scenario.variant.value),
          *((k, values[k]) for k in _keys("plant") + _keys("poles")),
          *zip([f"gains.{f.name}" for f in fields(gains)], astuple(gains)),
          *((k, values[k]) for k in _keys("interaction") + _keys("sim") if k not in skip),
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


def _ticks(lo, hi, target=6):
    """Ticks from lo to hi at whole multiples k * step of a 1-2-5 step, as
    (offsets from lo, labels, base).

    A label is the tick's value and base is None, unless two adjacent labels
    read the same (a span tiny next to the values).  Then each label is the
    exact offset (k - k0) * step from the first tick, base = k0 * step, which
    the axis shows once, and each offset from lo is summed from these exact
    parts, so ticks that round to one float stay apart.
    """
    span = hi - lo
    if span <= 0:
        return [0.0], [_tick_label(lo)], None
    raw = span / target
    mag = 10.0 ** math.floor(math.log10(raw))
    step = next(mult * mag for mult in (1.0, 2.0, 5.0, 10.0) if raw <= mult * mag)
    # whole k: finite however large lo is next to the span, and k = 0 gives an exact 0
    ks = range(math.ceil(lo / step), math.floor((hi + 1e-9 * span) / step) + 1)
    labels = [_tick_label(k * step) for k in ks]
    if all(a != b for a, b in zip(labels, labels[1:])):
        return [k * step - lo for k in ks], labels, None
    base = ks[0] * step
    offsets = [(k - ks[0]) * step for k in ks]
    return [(base - lo) + o for o in offsets], [_tick_label(o) for o in offsets], base


def _tick_label(v):
    return format(v, ".6g")


def render_svg(trace, columns, title=""):
    """Line chart of the selected trace columns against time.

    Adds dashed vertical markers where any coupling indicator in the trace
    rises (coupling) or falls (uncoupling).  A selected column holding a
    non-finite value is a NumericDomainError naming it.
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
    for name, s in zip(columns, series):
        if not np.isfinite(s).all():
            raise NumericDomainError(f"trace column {name!r} is not finite and cannot be plotted")
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

    # pixel coordinates of offsets from x0 and lo, for floats and arrays alike
    def px(dx):
        return _ML + dx / (x1 - x0) * pw

    def py(dy):
        return _MT + (1.0 - dy / (hi - lo)) * ph

    out = []
    out.append(f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
               f'viewBox="0 0 {_W} {_H}" font-family="Helvetica,Arial,sans-serif" font-size="11">')
    out.append(f'<rect width="{_W}" height="{_H}" fill="white"/>')
    if title:
        out.append(f'<text x="{_ML}" y="{_MT - 12}" font-size="13">{html.escape(title)}</text>')

    # axes + ticks
    out.append(f'<rect x="{_ML}" y="{_MT}" width="{pw}" height="{ph}" '
               f'fill="none" stroke="#333" stroke-width="1"/>')
    offsets, labels, xbase = _ticks(x0, x1)
    for dx, label in zip(offsets, labels):
        X = px(dx)
        out.append(f'<line x1="{X:.2f}" y1="{_MT + ph}" x2="{X:.2f}" y2="{_MT + ph + 4}" stroke="#333"/>')
        out.append(f'<line x1="{X:.2f}" y1="{_MT}" x2="{X:.2f}" y2="{_MT + ph}" '
                   f'stroke="#ddd" stroke-width="0.5"/>')
        out.append(f'<text x="{X:.2f}" y="{_MT + ph + 16}" text-anchor="middle">{label}</text>')
    offsets, labels, ybase = _ticks(lo, hi)
    for dy, label in zip(offsets, labels):
        Y = py(dy)
        out.append(f'<line x1="{_ML - 4}" y1="{Y:.2f}" x2="{_ML}" y2="{Y:.2f}" stroke="#333"/>')
        out.append(f'<line x1="{_ML}" y1="{Y:.2f}" x2="{_ML + pw}" y2="{Y:.2f}" '
                   f'stroke="#ddd" stroke-width="0.5"/>')
        out.append(f'<text x="{_ML - 7}" y="{Y + 3.5:.2f}" text-anchor="end">{label}</text>')
    out.append(f'<text x="{_ML + pw / 2:.2f}" y="{_H - 10}" text-anchor="middle">t (s)</text>')
    if xbase is not None:
        out.append(f'<text x="{_ML + pw}" y="{_H - 10}" text-anchor="end">offset {xbase:.17g}</text>')
    if ybase is not None:
        out.append(f'<text x="{_ML + pw}" y="{_MT - 4}" text-anchor="end">offset {ybase:.17g}</text>')

    # event markers from coupling-indicator transitions
    for fen in trace.block("fen").T:
        flips = (fen[1:] != fen[:-1]).nonzero()[0]
        for idx in flips:
            rising = fen[idx + 1] > fen[idx]
            color = "#2ca02c" if rising else "#d62728"
            label = "C" if rising else "U"
            X = px(float(t[idx + 1]) - x0)
            out.append(f'<line x1="{X:.2f}" y1="{_MT}" x2="{X:.2f}" y2="{_MT + ph}" '
                       f'stroke="{color}" stroke-dasharray="4,3" stroke-width="1"/>')
            out.append(f'<text x="{X + 2:.2f}" y="{_MT + 11}" fill="{color}">{label}</text>')

    # data series, each polyline's points formatted by one % call over x, y, x, y, ...
    xs = px(t - x0)
    points = " ".join(["%.2f,%.2f"] * len(xs))
    for si, s in enumerate(series):
        color = _PALETTE[si % len(_PALETTE)]
        pts = points % tuple(np.column_stack((xs, py(s - lo))).ravel().tolist())
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
