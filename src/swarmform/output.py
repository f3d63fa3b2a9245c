"""Serialisation of run results: CSV traces, key-value reports and SVG plots.

Everything here is a pure function of its inputs with fixed formatting, so
identical runs produce byte-identical files and golden-file regression is
the same thing as numerical regression.  Floats are written with 17
significant digits, which round-trips IEEE doubles exactly; event times
take the 12 of format_short.  The CSV trace holds every sample; an SVG
polyline holds the M4 points of each pixel column (_m4), which draw the
same line at the plot's width.

The simulation is single-threaded, and so is every writer.  The one other
process is a run's Feed: for a trace of at least 2 * FORK_VALUES values,
engine.run keeps Trace.data in memory shared with one forked child, which
formats each block of rows into CSV lines while the run fills the next.
write_trace then collects that text, and formats the rows itself only for
a trace without a live feed over its own data, or when the child failed.
The text is the same either way, and no child outlives write_trace, its
Trace or a run that raises.
"""

import html
import math
import os
import threading
import weakref
from dataclasses import astuple, fields

import numpy as np

from .errors import ConfigurationError, NumericDomainError
from .scenario import _fmt, _keys, _values


# Values (rows x columns): a trace of 2 * FORK_VALUES values or more gets a
# Feed, so the lattice_swarm (347 694) and dense_trace (640 016) traces of
# perfbench do, and the 4001-row traces of the shipped scenarios (64 016 and
# 108 027) and of param_sweep do not: their runs fork nothing.  The bound
# was sized when write_trace formatted half of such a trace in a forked
# child after the run: write_trace of the first rows of the dense_trace
# input (16 columns), median time of 2 blocks over that of 1, alternating
# runs (9-21 of each), same process, Python 3.11.7, 2-vCPU x86-64 VM; the
# range spans 5-9 series taken over an hour, as the host's second core
# came and went:
#   values    50-64 k    96-128 k   192-200 k  256-320 k  384-400 k  640 k
#   2 / 1     0.60-1.39  0.55-1.26  0.56-1.12  0.57-0.68  0.54-0.68  0.57-0.73
# A feed overlaps the formatting with the run, so it may pay below that
# bound too; that is not measured.
FORK_VALUES = 150_000


def _rows(data, fmt):
    """The CSV lines of the rows of `data`, one string each.  One row's
    Python floats at a time: a whole-block .tolist() would hold rows x
    columns float objects at once and raise the peak RSS."""
    return [fmt % tuple(r.tolist()) for r in data]


def _row_format(cols):
    return ",".join(["%.17g"] * cols) + "\n"


def trace_array(rows, cols):
    """The zeroed (rows, cols) float64 array a run fills with its samples,
    and its Feed, or None.  A trace of at least 2 * FORK_VALUES values gets
    a feed where the process may run on two cores or more.  None where
    there is no fork or core count (not Linux), where the fork fails, or
    while another thread runs: a forked child gets only the calling
    thread, and could find a lock that another thread held."""
    if (rows * cols < 2 * FORK_VALUES or not hasattr(os, "sched_getaffinity")
            or threading.active_count() > 1 or len(os.sched_getaffinity(0)) < 2):
        return np.zeros((rows, cols)), None
    import mmap  # here, not at import, as signal in _stop: only a feed needs them

    data = np.frombuffer(mmap.mmap(-1, rows * cols * 8), dtype=float).reshape(rows, cols)
    try:
        return data, Feed(data)
    except OSError:
        return data, None


class Feed:
    """A forked child that formats the rows of `data` while a run fills them.

    `data` lives in memory shared with the child.  The run calls push(r)
    once the first r rows of data are final, which sends r down a pipe;
    the child formats the new rows with _rows at once and keeps their text,
    and once every row is in, writes it to a second pipe, which text()
    reads.  The child lowers its priority first, so that a feed whose text
    nobody reads (a sweep's or compare's run) takes only idle CPU.
    close() kills and reaps the child and closes the pipes; it runs once,
    at the latest when the Feed is dropped or the interpreter exits.
    """

    def __init__(self, data):
        self.data = data
        rows_r, rows_w = os.pipe()
        text_r, text_w = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            for fd in (rows_r, rows_w, text_r, text_w):
                os.close(fd)
            raise
        if pid == 0:
            _format_pushed(data, rows_r, text_w, (rows_w, text_r))  # never returns
        os.close(rows_r)
        os.close(text_w)
        self._rows_w, self._text_r = rows_w, text_r
        self.close = weakref.finalize(self, _stop, pid, (rows_w, text_r))

    def push(self, rows):
        """Hand the child the rows of data up to `rows`, all of them by the
        last push.  A child that has gone is left to text()."""
        if not self.close.alive:
            return
        try:
            os.write(self._rows_w, rows.to_bytes(8, "little"))
        except OSError:
            pass

    def text(self, header):
        """`header` and the child's CSV lines of every row, as one str, or
        None when the feed was closed or the child sent less than the size
        it announced (a child that failed sends nothing).  The child is
        reaped, and the feed closed, whether the reading ends or raises, so
        a feed gives its text once."""
        if not self.close.alive:
            return None
        try:
            # a buffered reader's read and readinto return less only at the
            # end of the pipe
            with open(self._text_r, "rb", closefd=False) as f:
                size = f.read(8)
                if len(size) < 8:  # a child that failed sends nothing
                    return None
                # the text arrives in one buffer made to its size and is
                # decoded once: 64 KiB pipe reads kept as strings left their
                # heap behind, 9 MB of max RSS on the dense_trace input
                head = header.encode("ascii")
                text = bytearray(len(head) + int.from_bytes(size, "little"))
                text[:len(head)] = head
                with memoryview(text) as view:
                    if f.readinto(view[len(head):]) < len(view) - len(head):
                        return None
            return text.decode("ascii")
        finally:
            self.close()


def _format_pushed(data, rows_r, text_w, callers):
    """The body of a Feed's child: formats each pushed block of rows and,
    once the last row is in, writes the text and exits.  Exits non-zero,
    having written nothing, when the caller closes the pipe first or a
    block cannot be formatted.  `callers` are the caller's pipe ends."""
    status = 1
    try:
        for fd in callers:
            os.close(fd)
        os.nice(19)
        fmt, done, blocks = _row_format(data.shape[1]), 0, []
        with open(rows_r, "rb") as pushes:
            while done < len(data):
                pushed = pushes.read(8)
                if len(pushed) < 8:
                    return
                rows = int.from_bytes(pushed, "little")
                blocks.append("".join(_rows(data[done:rows], fmt)).encode("ascii"))
                done = rows
        # written only now, after its size: a full pipe would stall the
        # child until text()
        with open(text_w, "wb") as f:
            f.write(sum(map(len, blocks)).to_bytes(8, "little"))
            f.writelines(blocks)
        status = 0
    finally:
        os._exit(status)


def _stop(pid, fds):
    """Feed.close: closes the caller's pipe ends, and kills and reaps the
    child, at once if it is still formatting or waiting to write."""
    import signal

    for fd in fds:
        os.close(fd)
    os.kill(pid, signal.SIGKILL)
    os.waitpid(pid, 0)


def write_trace(trace):
    """Render a Trace as CSV text (header + one row per sample).

    The rows come from the trace's Feed when it has a live one over its
    own data (engine.run gives one to a trace of at least 2 * FORK_VALUES
    values); a trace made by dataclasses.replace with other data has them
    formatted here.  So do a feed that is closed or already read, and a
    child that failed or sent fewer lines than the trace has rows.  The
    text is the same either way, and the child is reaped before the call
    returns or raises.
    """
    data, feed, header = trace.data, trace.feed, ",".join(trace.columns) + "\n"
    text = feed.text(header) if feed is not None and feed.data is data else None
    if text is None or text.count("\n") != 1 + len(data):
        text = "".join([header, *_rows(data, _row_format(data.shape[1]))])
    return text


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


def _m4(col, series):
    """For each series, the indices of its M4 points (Jugel et al., VLDB
    2014), increasing: of each run of samples with equal col, the first
    and the last sample and the first samples that reach the run's minimum
    and its maximum.  col is the samples' pixel column, nondecreasing, and
    a run of one sample keeps it, so where every sample has a column of its
    own, every index is kept."""
    starts = np.concatenate(([0], np.flatnonzero(np.diff(col)) + 1))
    lengths = np.diff(starts, append=len(col))
    kept = []
    for s in series:
        keep = np.zeros(len(s), dtype=bool)
        keep[starts] = keep[starts + lengths - 1] = True
        for extreme in (np.minimum, np.maximum):
            hits = np.flatnonzero(s == np.repeat(extreme.reduceat(s, starts), lengths))
            keep[hits[np.searchsorted(hits, starts)]] = True  # each run's first hit
        kept.append(np.flatnonzero(keep))
    return kept


def render_svg(trace, columns, title=""):
    """Line chart of the selected trace columns against time.

    Each series' polyline holds its M4 points: of the samples in each
    pixel column, the first, the last and the first to reach the column's
    minimum and maximum (_m4), in time order.  So a trace in which every
    sample has a column of its own is drawn through every sample, and a
    denser one through at most four per column; write_trace keeps every
    sample.  The rest is computed from every sample: axes, ticks, the y
    range, the legend and the dashed vertical markers where any coupling
    indicator in the trace rises (coupling) or falls (uncoupling).  A
    selected column holding a non-finite value is a NumericDomainError
    naming it.
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

    # data series: each polyline holds the M4 points of its pixel columns,
    # px's arithmetic floored (the last sample, at x1, into the last
    # column), formatted by one % call over x, y, x, y, ...
    xs = px(t - x0)
    col = np.minimum(np.floor((t - x0) / (x1 - x0) * pw), pw - 1)
    for si, (s, kept) in enumerate(zip(series, _m4(col, series))):
        color = _PALETTE[si % len(_PALETTE)]
        pts = " ".join(["%.2f,%.2f"] * len(kept)) % tuple(
            np.column_stack((xs[kept], py(s[kept] - lo))).ravel().tolist())
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
