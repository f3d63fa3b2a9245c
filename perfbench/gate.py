"""Correctness gate: outcomes of a run, and their comparison with the
reference outcomes recorded in reference.json.

An outcome holds the coupling and uncoupling events, delta_rms or the
reason it is undefined, the trace shape and a trace digest.  Everything
but the digest must match the reference exactly, except floats, which
may differ by FLOAT_RTOL relative.

The digest sums each group of trace columns (time, positions, velocities,
tilts, tilt rates, commands, pair separations, coupling indicators, RMS),
plainly, in absolute value and weighted by row position.  A trace whose
elements each stay within 1e-12 relative of the reference (the tolerance
the array-engine item of the ROADMAP allows against bit-identity) moves a
group sum by at most 1e-12 of the group's absolute sum; DIGEST_RTOL adds
room for summation order on top of that.

Independently of the reference, the velocity-sum drift of every run with
a report must stay below DRIFT_LIMIT, the acceptance suite's bound.
"""

import io
import math
import re

import numpy as np

FLOAT_RTOL = 1e-9
DIGEST_RTOL = 1e-10
DRIFT_LIMIT = 1e-6

_GROUPS = (("t", r"t"), ("pos", r"agent\d+_pos"), ("vel", r"agent\d+_vel"),
           ("tilt", r"agent\d+_tilt"), ("rate", r"agent\d+_rate"), ("u", r"agent\d+_u"),
           ("d", r"pair\d+_d"), ("fen", r"pair\d+_fen"), ("rms", r"rms"))


def _events(field):
    if field == "none":
        return []
    return [[int(m.group(1)), float(m.group(2))]
            for m in (re.fullmatch(r"edge(\d+)@(\S+)", e) for e in field.split(";"))]


def outcome_from_report(text):
    """Outcome fields read from a report.txt written by `swarmform run`."""
    kv = dict(line.split(": ", 1) for line in text.splitlines() if ": " in line)
    delta = kv["delta_rms"]
    return {
        "coupling": _events(kv["coupling_events"]),
        "uncoupling": _events(kv["uncoupling_events"]),
        "delta_rms": None if delta == "undefined" else float(delta),
        "delta_reason": None if kv["delta_rms_reason"] == "none" else kv["delta_rms_reason"],
        "velocity_sum_drift": float(kv["velocity_sum_drift"]),
    }


def outcome_from_metrics(metrics):
    """Outcome fields from an engine Metrics object."""
    return {
        "coupling": [[k, t] for k, t in metrics.coupling_events],
        "uncoupling": [[k, t] for k, t in metrics.uncoupling_events],
        "delta_rms": metrics.delta_rms,
        "delta_reason": metrics.delta_reason,
        "velocity_sum_drift": metrics.velocity_sum_drift,
    }


def outcome_from_csv(text):
    """Trace shape and digest of trace CSV text."""
    header, _, body = text.partition("\n")
    columns = header.split(",")
    data = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
    if data.shape[1] != len(columns):
        raise ValueError(f"trace has {data.shape[1]} values per row, header {len(columns)}")
    return {"shape": list(data.shape), "digest": digest(columns, data)}


def digest(columns, data):
    """{group: [sum, absolute sum, row-weighted sum]} over trace columns."""
    weights = (np.arange(data.shape[0]) + 1.0) / data.shape[0]
    out = {}
    for name, pattern in _GROUPS:
        idx = [i for i, c in enumerate(columns) if re.fullmatch(pattern, c)]
        block = data[:, idx]
        out[name] = [float(block.sum()), float(np.abs(block).sum()),
                     float(weights @ block.sum(axis=1))]
    return out


def sweep_outcome(value, status, coupled, delta, t_c, t_u):
    """Outcome of one sweep row (or one cli._sweep_worker result)."""
    return {"value": float(value), "status": status, "coupled": coupled,
            "delta_rms": delta, "first_coupling_t": t_c, "first_uncoupling_t": t_u}


def _close(a, b, rtol):
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def compare(ref, got, path=""):
    """Mismatches between a reference outcome and an observed one, as a
    list of readable strings (empty when they agree)."""
    if isinstance(ref, dict):
        if not isinstance(got, dict) or set(ref) != set(got):
            return [f"{path or 'outcome'}: fields {sorted(got) if isinstance(got, dict) else got!r} "
                    f"!= {sorted(ref)}"]
        out = []
        for k in ref:
            if k == "digest":
                out += compare_digest(ref[k], got[k], f"{path}digest")
            else:
                out += compare(ref[k], got[k], f"{path}{k}")
        return out
    if isinstance(ref, list):
        if not isinstance(got, list) or len(ref) != len(got):
            return [f"{path}: {got!r} != {ref!r}"]
        return [m for i, (r, g) in enumerate(zip(ref, got)) for m in compare(r, g, f"{path}[{i}]")]
    if isinstance(ref, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        return [] if _close(ref, float(got), FLOAT_RTOL) else [f"{path}: {got!r} != {ref!r}"]
    return [] if type(ref) is type(got) and ref == got else [f"{path}: {got!r} != {ref!r}"]


def compare_digest(ref, got, path="digest"):
    if set(ref) != set(got):
        return [f"{path}: groups {sorted(got)} != {sorted(ref)}"]
    out = []
    for g, (s, a, w) in ref.items():
        gs, ga, gw = got[g]
        tol = DIGEST_RTOL * a
        if not (abs(gs - s) <= tol and abs(ga - a) <= tol and abs(gw - w) <= tol):
            out.append(f"{path}.{g}: {got[g]} differs from {ref[g]} by more than {tol:.3g}")
    return out


def run_problems(got):
    """Problems that need no reference: the run raised, or its
    velocity-sum drift is over DRIFT_LIMIT."""
    if isinstance(got, Exception):
        return [f"run failed: {type(got).__name__}: {got}"]
    drift = got.get("velocity_sum_drift")
    if drift is not None and not (math.isfinite(drift) and drift < DRIFT_LIMIT):
        return [f"velocity_sum_drift {drift!r} not below {DRIFT_LIMIT}"]
    return []


def check(ref, got):
    """All problems with an observed outcome (or the exception its run
    raised): run_problems plus every mismatch with the reference."""
    problems = run_problems(got)
    if problems:
        return problems
    if ref is None:
        return ["no reference outcome recorded for this run"]
    return compare(ref, {k: v for k, v in got.items() if k != "velocity_sum_drift"})
