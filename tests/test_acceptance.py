"""Acceptance suite: one test per criterion, printed as a pass/fail line.

Criteria 6 and 7 put numeric bounds on delta_rms, the relative change of
the swarm RMS velocity across a couple-hold-release encounter, for the
hard (switching_step) and smooth (switching_smooth) variants.  Both judge
the dt -> 0 limit of delta_rms, not its value at the shipped step.  The
engine holds each command over the integration step and detects switching
only on the step grid, so delta_rms converges at first order in sim.dt.
On the shipped two-agent scenarios (shipped stride kept):

    variant   1 ms      0.5 ms    0.25 ms   order   limit
    step      0.008139  0.007853  0.007712  1.01    0.00757
    smooth    0.001898  0.001617  0.001476  0.99    0.00133

At 1 ms the step value is 7.5 % and the smooth value 42 % above its
limit, and the step/smooth ratio is 4.29 against 5.68 in the limit.  The
``converged_delta_rms`` fixture runs this ladder.  A criterion fails when
the observed order leaves [0.8, 1.25] or the three runs release on
different visits of the switching neighbourhood (first uncoupling times
more than 0.1 s apart), because the extrapolation then means nothing.

Criterion 7 passes on the limit.  Criterion 6 is known-red: its limit,
0.00757, lies below the [0.01, 0.15] band, so no step size helps.  The
cause is in the model, and PAPER.md (the abstract only) does not settle
it:

* Release direction.  The latched uncouple fires on the next visit of the
  neighbourhood, approaching or receding.  The step pair couples at
  5.16 s while approaching, and the 29 s command releases it at 31.35 s,
  also while approaching, which mirrors the capture.  Any command at
  20-22 s or 28-31 s gives delta_rms 0.80-0.81 %; a command at 23-27 s
  releases while receding and gives 1.58-1.59 %.  The smooth variant
  gives 0.17 % or 0.19 % for commands at 20-29 s.  A receding-only rule
  would move the shipped release to 35.7 s, leaving no settled window
  before 40 s.
* Pair gain.  Each edge adds +f and -f to its two agents, so the coupled
  relative coordinate runs at twice the feedback gain the modal design
  places.

Both are model decisions that would alter every recorded outcome; the
bounds stay as stated rather than tuned to pass.
"""

import time

import numpy as np

from swarmform import (AgentState, InteractionParams, InteractionVariant,
                       PairState, PlantParams, PoleSpec, closed_loop_polynomial,
                       direct_gain_formula, force_attraction,
                       force_repulsion, force_switching_smooth, pair_force,
                       pair_geometry, place_gains, poles_from_spec, rk4_step, run,
                       parse_scenario, parse_scenario_with, write_report, write_trace,
                       render_svg)

from conftest import scenario_text

PLANT = PlantParams(6.0, 25.0, 9.8)
SPEC = PoleSpec(12.0, 0.1, 0.55)
TARGET_QUARTIC = (1.0, 24.0, 144.3125, 7.26, 43.563025)
ORDER_BAND = (0.8, 1.25)  # the step hold makes delta_rms first order in sim.dt
RELEASE_SPREAD = 0.1      # s; farther apart, the runs released on different visits


def _verdict(n, failures, measured=()):
    print(f"\n[acceptance] criterion {n}: {'PASS' if not failures else 'FAIL'}")
    for m in measured:
        print(f"[acceptance]   measured: {m}")
    for f in failures:
        print(f"[acceptance]   - {f}")
    assert not failures, f"criterion {n}: " + "; ".join(failures)


def test_criterion_1_gain_synthesis():
    failures = []
    poles = poles_from_spec(SPEC)
    got = closed_loop_polynomial(PLANT, place_gains(PLANT, poles))
    for c, d in zip(got, TARGET_QUARTIC):
        if abs(c - d) > 1e-9 * max(1.0, abs(d)):
            failures.append(f"coefficient {d} reproduced as {c}")
    t0 = time.perf_counter()
    for _ in range(1000):
        place_gains(PLANT, poles)
    per_call = (time.perf_counter() - t0) / 1000
    if per_call >= 1e-3:
        failures.append(f"synthesis took {per_call * 1e3:.3f} ms per call (limit 1 ms)")
    _verdict(1, failures)


def test_criterion_2_direct_formula_cross_check():
    failures = []
    vals = direct_gain_formula(PLANT, poles_from_spec(SPEC))
    want = (0.0049388, 0.0296347, 0.96208, -0.0066667)
    for v, w in zip(vals, want):
        if abs(v - w) > 1e-5:
            failures.append(f"direct formula entry {w} came out {v}")
    rng = np.random.default_rng(12345)
    for _ in range(100):
        plant = PlantParams(float(rng.uniform(0.5, 20)), float(rng.uniform(0.5, 40)),
                            float(rng.uniform(1, 30)))
        spec = PoleSpec(float(rng.uniform(0, 25)), float(rng.uniform(-10, 10)),
                        float(rng.uniform(0.01, 10)))
        poles = poles_from_spec(spec)
        d = direct_gain_formula(plant, poles)
        g = place_gains(plant, poles)
        rel = lambda a, b: abs(a - b) / max(1e-12, abs(b))
        if (rel(d[0], g.k_vel) > 1e-9 or rel(d[1], g.k_pos) > 1e-9
                or rel(d[2], 1 + g.k_tilt) > 1e-9 or rel(d[3], g.k_rate) > 1e-9):
            failures.append(f"ordering relations broken for {plant}, {spec}")
            break
    _verdict(2, failures)


def test_criterion_3_force_law_properties():
    failures = []
    k1 = 0.029634710884353745
    d_t, eps, r, c_max = 30.0, 0.1, 20.0, 0.05
    geom = lambda d: pair_geometry(0.0, d, r, r, d_t)

    # oddness, exact, 1e4 samples per variant and indicator state
    rng = np.random.default_rng(77)
    ds = rng.uniform(1e-3, 60.0, size=10_000)
    for variant in InteractionVariant:
        params = InteractionParams(c_max, d_t, eps, variant, k1)
        for f_en in (0, 1):
            st = PairState(f_en=f_en)
            bad = sum(1 for d in ds
                      if pair_force(geom(float(-d)), st, params) != -pair_force(geom(float(d)), st, params))
            if bad:
                failures.append(f"{variant.value} f_en={f_en}: {bad} oddness violations")

    # continuity of the smooth variant at its breakpoints
    params = InteractionParams(c_max, d_t, eps, InteractionVariant.SWITCHING_SMOOTH, k1)
    big = InteractionParams(1e9, d_t, eps, InteractionVariant.SWITCHING_SMOOTH, k1)
    st = PairState(f_en=0)
    h = 1e-12
    for bp in (d_t, 0.5 * (d_t + 2 * r), 2 * r):
        lo = force_switching_smooth(geom(bp - h), st, big)
        hi = force_switching_smooth(geom(bp + h), st, big)
        if abs(lo - hi) >= 1e-12:
            failures.append(f"smooth variant jumps by {abs(lo - hi)} at |d|={bp}")

    # exact branch coincidence inside the coupling distance (pre-saturation)
    for d in np.linspace(0.5, d_t, 200):
        f0 = force_switching_smooth(geom(float(d)), PairState(f_en=0), big)
        f1 = force_switching_smooth(geom(float(d)), PairState(f_en=1), big)
        if f0 != f1:
            failures.append(f"branches differ at |d|={d}: {f0} vs {f1}")
            break

    # hard gate of the gated variants
    for d in (40.0, 40.5, 55.0, -41.0, -40.0):
        if force_repulsion(geom(d), params) != 0.0:
            failures.append(f"repulsion not exactly 0 at |d|={abs(d)}")
        ap = InteractionParams(c_max, d_t, eps, InteractionVariant.ATTRACTION, k1)
        if force_attraction(geom(d), ap) != 0.0:
            failures.append(f"attraction not exactly 0 at |d|={abs(d)}")
    _verdict(3, failures)


def test_criterion_4_conservation(default_run):
    failures = []
    for variant in ("repulsion", "attraction", "switching_step", "switching_smooth"):
        _, _, metrics = default_run(variant)
        if metrics.velocity_sum_drift >= 1e-6:
            failures.append(f"{variant}: velocity-sum drift {metrics.velocity_sum_drift}")
    _, _, metrics = default_run("repulsion")
    if metrics.delta_rms is None or metrics.delta_rms >= 0.02:
        failures.append(f"repulsion delta_rms {metrics.delta_rms} (limit 0.02)")
    _verdict(4, failures)


def test_criterion_5_attraction_negative_result():
    failures = []
    sc = parse_scenario(scenario_text("two_agent_attraction"))
    t0 = time.perf_counter()
    trace, metrics = run(sc)
    elapsed = time.perf_counter() - t0
    if metrics.coupling_events:
        failures.append(f"coupling events fired: {metrics.coupling_events}")
    # no sustained hold near the target distance with matched velocities
    t = trace.column("t")
    near = np.abs(np.abs(trace.column("pair0_d")) - sc.d_t) < 1.0
    v_rel = np.abs(trace.column("agent0_vel") - trace.column("agent1_vel")) < 0.2
    hold = near & v_rel
    sample_dt = sc.dt * sc.stride
    need = int(round(5.0 / sample_dt))
    longest = 0
    streak = 0
    for flag in hold:
        streak = streak + 1 if flag else 0
        longest = max(longest, streak)
    if longest >= need:
        failures.append(f"held formation for {longest * sample_dt:.2f} s without coupling")
    if elapsed >= 5.0:
        failures.append(f"run took {elapsed:.2f} s (limit 5 s)")
    _verdict(5, failures)


def _num(x):
    return "None" if x is None else f"{x:.4g}"


def _ratio(a, b):
    return None if a is None or not b else a / b


def _summary(conv):
    return (f"{_num(conv.delta_rms[0])} at dt = {conv.dt[0] * 1e3:g} ms, "
            f"limit {_num(conv.limit)} (order {conv.order:.2f})")


def _limit(conv, failures):
    """The dt -> 0 limit of conv, or None after adding to failures why the
    extrapolation cannot be trusted."""
    ok = True
    if not ORDER_BAND[0] <= conv.order <= ORDER_BAND[1]:
        failures.append(f"{conv.variant}: delta_rms {list(map(_num, conv.delta_rms))} at "
                        f"dt = {list(conv.dt)} s has order {conv.order:.3g}, "
                        f"outside [{ORDER_BAND[0]}, {ORDER_BAND[1]}]")
        ok = False
    times = conv.release_times
    if None in times or max(times) - min(times) > RELEASE_SPREAD:
        failures.append(f"{conv.variant}: releases at {list(times)} s for dt = {list(conv.dt)} s "
                        f"lie on different visits (more than {RELEASE_SPREAD} s apart)")
        ok = False
    return conv.limit if ok else None


def test_criterion_6_hard_switching_experiment(default_run, converged_delta_rms):
    failures = []
    sc, trace, metrics = default_run("switching_step")
    if not metrics.coupling_events:
        failures.append("no coupling event")
    else:
        t_c = metrics.coupling_events[0][1]
        if not t_c < 15.0:
            failures.append(f"coupling at {t_c} s (needed before 15 s)")
    if not metrics.uncoupling_events:
        failures.append("no uncoupling event")
    else:
        t_u = metrics.uncoupling_events[0][1]
        if not t_u > 29.0:
            failures.append(f"uncoupling at {t_u} s (needed strictly after the 29 s command)")
    if not abs(trace.column("pair0_d")[-1]) > 40.0:
        failures.append("agents did not separate beyond the interaction radius by t_end")
    conv = converged_delta_rms("switching_step")
    limit = _limit(conv, failures)
    if limit is not None and not 0.01 <= limit <= 0.15:
        failures.append(f"delta_rms {_summary(conv)} outside [0.01, 0.15]")
    _verdict(6, failures)


def test_criterion_7_smooth_switching_experiment(default_run, converged_delta_rms):
    failures = []
    sc, trace, metrics = default_run("switching_smooth")
    d = np.abs(trace.column("pair0_d"))
    coupled = trace.column("pair0_fen") > 0
    if not coupled.any():
        failures.append("pair never coupled")
    else:
        if not d[coupled].min() < sc.d_t - 0.5:
            failures.append(f"oscillation floor {d[coupled].min()} not below d_t - 0.5")
        if not d[coupled].max() > sc.d_t + 0.5:
            failures.append(f"oscillation ceiling {d[coupled].max()} not above d_t + 0.5")
    smooth = converged_delta_rms("switching_smooth")
    step = converged_delta_rms("switching_step")
    smooth_limit = _limit(smooth, failures)
    step_limit = _limit(step, failures)
    if smooth_limit is not None and not smooth_limit < 0.01:
        failures.append(f"delta_rms {_summary(smooth)} (needed < 0.01)")
    ratio_dt = _ratio(step.delta_rms[0], smooth.delta_rms[0])
    ratio_limit = _ratio(step_limit, smooth_limit)
    ratio = (f"delta_rms ratio step/smooth = {_num(ratio_dt)} at dt = {smooth.dt[0] * 1e3:g} ms, "
             f"{_num(ratio_limit)} in the limit")
    if (step_limit is not None and smooth_limit is not None
            and (ratio_limit is None or not ratio_limit > 5.0)):
        failures.append(f"{ratio} (needed > 5)")
    _verdict(7, failures, [f"smooth delta_rms {_summary(smooth)}",
                           f"step delta_rms {_summary(step)}", ratio])


def test_criterion_7_holds_only_for_an_early_enough_command():
    # A documented limit, not a fix: a command at 30 s misses the 29.63 s
    # visit of the neighbourhood, the pair releases on the next one, and no
    # settled, command-free second is left before t_end = 40 s.
    sc = parse_scenario_with(scenario_text("two_agent_switching_smooth"), {"command[0].t": 30.0})
    _, metrics = run(sc)
    (_, t_release), = metrics.uncoupling_events
    assert abs(t_release - 34.52) < 0.01
    assert metrics.delta_rms is None
    assert metrics.delta_reason == "no settled command-free window after the interaction"


def test_criterion_8_three_agent_chain(chain_run):
    failures = []
    sc, trace, metrics = chain_run
    coupled_edges = {k for k, _ in metrics.coupling_events}
    if coupled_edges != {0, 1}:
        failures.append(f"coupled edges {coupled_edges}, expected both (0 and 1)")
    for k in range(2):
        on = trace.column(f"pair{k}_fen") > 0
        if not on.any():
            failures.append(f"edge {k} never coupled")
            continue
        avg = float(np.abs(trace.column(f"pair{k}_d"))[on].mean())
        if not sc.d_t - 2.0 < avg < sc.d_t + 2.0:
            failures.append(f"edge {k} coupled-phase mean |d| = {avg} outside d_t +- 2")
    _verdict(8, failures)


def test_criterion_9_numerics_and_determinism():
    failures = []

    def propagate(dt, horizon=0.1):
        s = AgentState(0.0, 0.0, 0.1, 0.0)
        for _ in range(int(round(horizon / dt))):
            s = rk4_step(s, 0.05, dt, PLANT)
        return np.array(s.as_tuple())

    ref = propagate(1e-6)
    e1 = float(np.max(np.abs(propagate(2e-3) - ref)))
    e2 = float(np.max(np.abs(propagate(1e-3) - ref)))
    ratio = e1 / e2
    if not 12.0 <= ratio <= 20.0:
        failures.append(f"Richardson ratio {ratio} outside [12, 20]")

    sc = parse_scenario(scenario_text("two_agent_switching_step"))
    out = []
    for _ in range(2):
        trace, metrics = run(sc)
        vel_cols = [f"agent{i}_vel" for i in range(trace.n_agents)] + ["rms"]
        out.append((write_trace(trace), write_report(metrics, sc),
                    render_svg(trace, vel_cols), render_svg(trace, ["pair0_d"])))
    for name, a, b in zip(("trace", "report", "velocity svg", "distance svg"),
                          out[0], out[1]):
        if a != b:
            failures.append(f"{name} outputs differ between identical runs")
    _verdict(9, failures)
