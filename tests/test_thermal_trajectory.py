"""The thermal pass against the exact thermal trajectory.

Between heater edges the heater power is constant, so the thermal equation
is autonomous and one-dimensional.  In the solver's variable u = detuning /
(kappa/2), with a and b as device._steady_state defines them (a takes the
segment's heater power),

    du/dt = -(1/tau_th) Q(u) / (1 + u^2),   Q(u) = (u - a)(1 + u^2) - b,

and partial fractions over Q's roots give the elapsed time t(u) in closed
form.  `exact_block_starts` inverts it at every thermal step's start, so the
stepping error of the thermal pass (engine._thermal_groups) is measured
against the trajectory itself rather than against a finer step.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from bolomux import engine, experiments
from bolomux.config import load_config
from bolomux.device import SolverError, _absorption, solve_operating_point
from bolomux.experiments import operating_tones
from bolomux.frontend import ToneSpec, TriggerPattern, schedule_heaters
from bolomux.units import dbm_to_watts
from test_device import brute_force_roots, make_params


def thermal_stage(plan, heater_w):
    """The thermal pass's every (run, channel) temperature at each step start and
    at the record's end, (runs, channels, steps + 1): its groups, joined."""
    return np.concatenate([*engine._thermal_groups(plan, heater_w)])


def cubic_flow(a, b, u0, s):
    """u after s (an array of elapsed times, in units of tau_th) on du/ds = -Q(u)/(1 + u^2).

    The flow settles on the attractor u*: Q's one real root, or of three
    real roots the one on u0's side of the middle one.  With q = Q/(u - u*)
    the deflated quadratic, (1 + u^2)/Q = r/(u - u*) + (B u + C)/q, so

        s(u) = -[r ln|u - u*| + (B/2) ln|q| + (C - B c1/2) I(u)] + (the same at u0),

    I being q's one atan (complex pair) or one log (two more real roots).  s
    is inverted by Newton in w = ln|u - u*|, where ds/dw = -(1 + u^2)/q(u)
    divides by nothing small as u -> u*, from the linear guess w0 - s/r.
    A near-fold, where q's roots meet u*, is not covered.
    """
    roots = np.roots([1.0, -a, 1.0, -(a + b)])
    real = np.sort(roots.real[np.abs(roots.imag) <= 1e-9 * np.abs(roots)])
    u_star = real[0] if len(real) < 3 or u0 < real[1] else real[2]
    # polish the root the eigenvalue solver returned, as c1 = u* - a: at a
    # strong heater u* - a is small against a, and u* - a would cancel
    c1 = u_star - a
    for _ in range(3):
        c1 -= (c1 * (1.0 + (c1 + a) ** 2) - b) / ((3.0 * c1 + 4.0 * a) * c1 + 1.0 + a * a)
    u_star = a + c1
    if u0 == u_star:
        return np.full(np.shape(s), u_star)
    c0 = u_star * c1 + 1.0
    r = (1.0 + u_star * u_star) / ((u_star + c1) * u_star + c0)
    big_b = 2.0 * u_star * c1 / ((u_star + c1) * u_star + c0)      # 1 - r, without cancelling
    big_c = u_star * big_b - r * c1
    half_c1, disc = 0.5 * c1, c0 - 0.25 * c1 * c1

    def rest(u):
        v = u + half_c1
        if disc > 0.0:
            tail = np.arctan(v / math.sqrt(disc)) / math.sqrt(disc)
        else:
            root = math.sqrt(-disc)
            tail = np.log(np.abs((v - root) / (v + root))) / (2.0 * root)
        return 0.5 * big_b * np.log(np.abs(v * v + disc)) + (big_c - big_b * half_c1) * tail

    side, w0 = math.copysign(1.0, u0 - u_star), math.log(abs(u0 - u_star))
    s = np.asarray(s, dtype=float)
    w = w0 - s / r
    for _ in range(12):
        u = u_star + side * np.exp(w)
        gap = -(r * (w - w0) + rest(u) - rest(u0)) - s
        w = w + gap * (u * u + c1 * u + c0) / (1.0 + u * u)
    return u_star + side * np.exp(w)


def exact_block_starts(par, f_probe, p_probe_w, t_star, heater_w, pulse, steps, dt):
    """One channel's temperature at the start of each of steps thermal steps of
    length dt, and at the record's end (steps + 1 values): from t_star,
    heater_w on for the steps in pulse.  dfdt == 0 makes the balance linear
    and the relaxation a pure exponential."""
    ke, ki, half = par.kappa_ext_hz, par.kappa_int_hz, 0.5 * par.kappa_total_hz
    g_th, dfdt, tau = par.g_th_w_per_k, par.dfdt_hz_per_k, par.tau_th_s
    detuning0 = f_probe - par.f_r0_hz
    rise, out = t_star - par.t_bath_k, np.empty(steps + 1)
    for lo, hi, heat in ((0, pulse.start, 0.0), (pulse.start, pulse.stop, heater_w),
                         (pulse.stop, steps, 0.0)):
        s = np.arange(hi - lo + 1) * dt / tau       # every start, and the segment's end
        if dfdt == 0.0:
            settled = (p_probe_w * _absorption(ke, ki)(detuning0) + heat) / g_th
            rises = settled + (rise - settled) * np.exp(-s)
        else:
            a = (detuning0 + heat * dfdt / g_th) / half
            b = p_probe_w * _absorption(ke, ki)(0.0) * dfdt / (g_th * half)
            u = cubic_flow(a, b, (detuning0 + dfdt * rise) / half, s)
            rises = (u * half - detuning0) / dfdt
        out[lo:hi], rise = par.t_bath_k + rises[:-1], rises[-1]
    out[steps] = par.t_bath_k + rise
    return out


def stage_and_exact(chip, settings, heater_tones):
    """One thermal pass's temperatures and the exact ones, both (runs, channels,
    steps + 1), and the operating points the runs start from."""
    operating = operating_tones(chip, settings)
    (tones, ops), dt = operating, settings.thermal_dt_s
    plan = engine._engine_plan(chip, settings, operating)
    heater_w = experiments._heater_power_w(chip, heater_tones)
    exact = np.array([[exact_block_starts(par, tone.f_hz, dbm_to_watts(tone.p_dbm), op.t_star_k,
                                          heat, plan.pulse, plan.steps, dt)
                       for par, tone, op, heat in zip(chip.bolometers, tones, ops, row)]
                      for row in heater_w])
    return thermal_stage(plan, heater_w), exact, ops


def beyond_rounding(temps, exact):
    """|temps - exact| less one unit in the last place of the exact temperature:
    either side may round the last bit, so only what is left is an error."""
    return np.maximum(np.abs(temps - exact) - np.spacing(exact), 0.0)


def stage_error(chip, settings, heater_tones):
    """(runs, channels) largest error of one thermal pass beyond rounding (see
    beyond_rounding), each over its run's largest rise above the operating point."""
    temps, exact, ops = stage_and_exact(chip, settings, heater_tones)
    rise = np.max(exact - np.array([op.t_star_k for op in ops])[:, None], axis=(1, 2))
    return np.max(beyond_rounding(temps, exact), axis=-1) / rise[:, None]


def trigger_batch(chip, settings, labels):
    return [schedule_heaters(TriggerPattern.from_label(label), chip.filters, chip.channel_map,
                             settings.heater_power_dbm) for label in labels]


@pytest.mark.parametrize("preset, labels", [
    ("desk", ["111", "100"]),
    ("paper", ["111"]),
    ("fig3", ["111"]),
])
def test_thermal_stage_tracks_the_exact_trajectory(preset, labels):
    # every step start and the record's end lie within one unit in the last
    # place of the exact trajectory, on every channel, heated or not: 0 beyond
    # it (as a plain ratio, 4.1e-13 of the rise on desk, 2.4e-13 on paper and
    # 2.0e-13 on fig3, each one ulp of 0.05 K)
    cfg = load_config(None, preset=preset)
    chip, settings = cfg.chip, cfg.settings
    error = stage_error(chip, settings, trigger_batch(chip, settings, labels))
    assert error.shape == (len(labels), chip.n_channels)
    assert np.all(error <= 1e-12)


def test_thermal_stage_tracks_the_exact_trajectory_over_the_power_sweep(default_config):
    # the shipped power sweep's batch, 3 filters x 27 powers at the flank,
    # from far below compression to deep in it: 2.2e-15 of the rise beyond
    # rounding at worst (one ulp of 0.05 K is 4.1e-11 of the weakest run's rise)
    chip, ps = default_config.chip, default_config.sweeps["powersweep"]
    settings = replace(default_config.settings, probe_detuning_fraction=0.5)
    powers = np.linspace(ps["p_min_dbm"], ps["p_max_dbm"], int(ps["n_points"])).tolist()
    runs = [[ToneSpec(f_hz=filt.f_center_hz, p_dbm=p)] for filt in chip.filters for p in powers]
    assert np.all(stage_error(chip, settings, runs) <= 1e-12)


def test_thermal_stage_is_exact_without_thermometry(default_config):
    # with dfdt = 0 the absorbed power does not depend on the temperature, so
    # the relaxation is a pure exponential: the pass differs from it by
    # rounding, 6 ulps of the temperature at worst
    chip, settings = default_config.chip, default_config.settings
    flat = replace(chip, bolometers=tuple(replace(par, dfdt_hz_per_k=0.0)
                                          for par in chip.bolometers))
    temps, exact, _ = stage_and_exact(flat, settings,
                                      trigger_batch(flat, settings, ["111", "010"]))
    assert np.all(np.abs(temps - exact) <= 8 * np.spacing(exact))


def steep_corner():
    """test_device's steep chip on its low flank, probed at -144 dBm, two total
    linewidths below its cold resonance: three balance roots cold.  Returns
    (params, probe frequency, probe power, cold operating point, fold), fold the
    heater power (W) past which the lower two heated roots are gone."""
    par = make_params()
    steep = replace(par, dfdt_hz_per_k=300 * par.dfdt_hz_per_k)
    f_p, p_w = steep.f_r0_hz - 2.0 * steep.kappa_total_hz, dbm_to_watts(-144.0)
    lo, hi = 0.0, 1e-18
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        below = solve_operating_point(steep, f_p, p_w, extra_power_w=mid).multivalued
        lo, hi = (mid, hi) if below else (lo, mid)
    return steep, f_p, p_w, solve_operating_point(steep, f_p, p_w), lo


def one_channel_plan(shared, dt, steps, pulse, **columns):
    """shared (an engine plan) with one channel, its columns given, and a record
    of steps thermal steps of dt with the heater on for pulse."""
    columns.update(decay=math.exp(-dt / columns["tau"]), dt_tau=dt / columns.pop("tau"))
    return shared._replace(channels=engine._Channels(**{k: np.array([[v]])
                                                        for k, v in columns.items()}),
                           pulse=pulse, steps=steps)


def steep_plan(default_config, dt, heat_window=(20e-6, 620e-6), record=1.2e-3):
    steep, f_p, p_w, cold, _ = steep_corner()
    shared = engine._engine_plan(default_config.chip, default_config.settings,
                                 operating_tones(default_config.chip, default_config.settings))
    pulse = slice(round(heat_window[0] / dt), round(heat_window[1] / dt))
    return one_channel_plan(shared, dt, round(record / dt), pulse, f_probe=f_p, p_probe=p_w,
                            f_r0=steep.f_r0_hz, dfdt=steep.dfdt_hz_per_k, t_bath=steep.t_bath_k,
                            kappa_ext=steep.kappa_ext_hz, kappa_int=steep.kappa_int_hz,
                            g_th=steep.g_th_w_per_k, tau=steep.tau_th_s, t_star=cold.t_star_k)


@pytest.mark.parametrize("heat, latches", [(5e-20, False), (3e-19, True)])
def test_thermal_stage_tracks_the_exact_trajectory_through_the_bistable_corner(
        default_config, heat, latches):
    # The run starts on the steep chip's cold lowest root.  A weak heater
    # keeps three heated roots, and the run relaxes onto the one on its side
    # of the middle one (the lowest), then back.  A strong heater leaves one
    # root, past the cold middle one, so once it is off the run settles on the
    # cold upper root: it latches.  At either step the pass lies within one
    # ulp of the exact trajectory, across the fold's fast jump too: 0 beyond it
    steep, f_p, p_w, cold, _ = steep_corner()
    heated = solve_operating_point(steep, f_p, p_w, extra_power_w=heat)
    cold_roots = brute_force_roots(steep, f_p, p_w)
    assert cold.multivalued and len(cold_roots) == 3 and heated.multivalued != latches
    rise = heated.t_star_k - cold.t_star_k
    for dt in (100e-9, 50e-9):
        plan = steep_plan(default_config, dt)
        temps = thermal_stage(plan, np.array([[heat]]))[0, 0]
        exact = exact_block_starts(steep, f_p, p_w, cold.t_star_k, heat, plan.pulse,
                                   plan.steps, dt)
        assert exact[plan.pulse.stop - 1] - cold.t_star_k == pytest.approx(rise, rel=1e-9)
        settled = cold_roots[2] if latches else cold.t_star_k
        assert exact[-1] - cold.t_star_k == pytest.approx(settled - cold.t_star_k, rel=1e-6)
        assert np.max(beyond_rounding(temps, exact)) <= 1e-12 * rise


NODES, WEIGHTS = np.polynomial.legendre.leggauss(20)


def quadrature_time(a, u_star, rate, w, w0):
    """s(u) = -int_{u0}^{u} (1 + x^2)/Q(x) dx, the time in units of tau_th from u0
    = u* + rate e^w0 to u = u* + rate e^w, by adaptive 20-point Gauss-Legendre
    in y = ln|x - u*|, where the integrand (1 + x^2)/q(x) is smooth: q =
    Q/(x - u*) = x^2 + x u* + u*^2 - a (x + u*) + 1 (Q's own coefficients,
    Q(u*) = 0)."""
    def integrand(y):
        x = u_star + rate * np.exp(y)
        return (1.0 + x * x) / (x * x + x * u_star + u_star * u_star - a * (x + u_star) + 1.0)

    def panel(lo, hi):
        return 0.5 * (hi - lo) * np.dot(WEIGHTS, integrand(0.5 * (hi + lo + (hi - lo) * NODES)))

    def adapt(lo, hi, whole, depth):
        mid = 0.5 * (lo + hi)
        left, right = panel(lo, mid), panel(mid, hi)
        if abs(left + right - whole) <= 1e-14 * max(1.0, abs(whole)) or depth == 50:
            return left + right
        return adapt(lo, mid, left, depth + 1) + adapt(mid, hi, right, depth + 1)

    return adapt(w, w0, panel(w, w0), 0)


def time_equation_gaps(plan, heater_w, samples=40):
    """The pass under heater_w against quadrature_time: every heated (run,
    channel)'s heater and relaxation segments, at up to samples step starts
    each (geometric in the step, so dense near the edge) short of rounding to
    the attractor.  The pass's start there is t_bath + x* + side e^w with w
    from engine._solve, bit for bit, and w is checked, not the start, whose
    last bit can stand for more time than the check resolves.  Returns the
    largest |quadrature time - s| per segment, in units of tau_th."""
    temps, gaps = thermal_stage(plan, heater_w), []
    for r, ch in zip(*np.nonzero(heater_w)):
        c = plan.channels._make(column[ch] for column in plan.channels)
        half = 0.5 * (c.kappa_ext + c.kappa_int)
        b = c.p_probe * _absorption(c.kappa_ext, c.kappa_int)(0.0) * c.dfdt / (c.g_th * half)
        for lo, hi, heat in ((plan.pulse.start, plan.pulse.stop, heater_w[r, ch]),
                             (plan.pulse.stop, plan.steps, 0.0)):
            f = engine._flow(c, temps[r, ch, lo:lo + 1] - c.t_bath, np.array([heat]))
            a = ((c.f_probe - c.f_r0 + heat * c.dfdt / c.g_th) / half)[0]
            u_star, rate, w0 = f.u_star[0, 0], f.rate[0, 0], f.w0[0, 0]
            assert abs((u_star - a) * (1.0 + u_star * u_star) - b[0]) <= 1e-13 * (
                1.0 + abs(u_star) ** 3)
            k = np.unique(np.geomspace(1, hi - lo, samples).astype(int))
            s = k * c.dt_tau[0]
            k, s = k[s < f.s_cut[0, 0]], s[s < f.s_cut[0, 0]]
            w = engine._solve(f, s[None, :])[0]
            assert np.array_equal(temps[r, ch, lo + k],
                                  c.t_bath + (f.x_star[0, 0] + f.side[0, 0] * np.exp(w)))
            gaps.append(max(abs(quadrature_time(a, u_star, rate, wk, w0) - sk)
                            for wk, sk in zip(w, s)))
    return np.array(gaps)


@pytest.mark.parametrize("preset", ["desk", "fig3"])
def test_thermal_stage_meets_the_time_equation(preset):
    # all three channels of pattern 111: 3.6e-15 tau on desk and 1.8e-14 on fig3 at worst
    cfg = load_config(None, preset=preset)
    chip, settings = cfg.chip, cfg.settings
    plan = engine._engine_plan(chip, settings, operating_tones(chip, settings))
    heater_w = experiments._heater_power_w(chip, trigger_batch(chip, settings, ["111"]))
    assert np.all(time_equation_gaps(plan, heater_w) <= 1e-10)


@pytest.mark.parametrize("heat, fold_share", [
    (5e-20, None), (3e-19, None), (None, 1.0 - 1e-4), (None, 1.0 + 1e-6), (None, 1.0 + 1e-4),
])
def test_thermal_stage_meets_the_time_equation_at_the_fold(default_config, heat, fold_share):
    # the steep chip's weak and latching heaters, and three heaters at the
    # fold (fold_share of it): just below, the heated lowest root sits 0.014
    # total linewidths from the middle one; just above, the run crawls past
    # where they met.  Every start is finite, and the time equation holds to
    # 5.0e-12 tau at worst (2.3e-13 just below the fold)
    if fold_share is not None:
        heat = fold_share * steep_corner()[-1]
    plan = steep_plan(default_config, 100e-9)
    heater_w = np.array([[heat]])
    assert np.all(np.isfinite(thermal_stage(plan, heater_w)))
    assert np.all(time_equation_gaps(plan, heater_w) <= 1e-10)


def test_thermal_stage_at_an_exact_double_root(default_config):
    # Q = (u - a)(1 + u^2) - b with a = -2 and b = 2 is u (u + 1)^2, exactly,
    # under a 1 W heater on a unit channel (half linewidth, g_th and dfdt 1,
    # probe detuning -3).  A run from u0 = -0.5 relaxes onto the simple root
    # u = 0, its pair term the d = 0 one, and meets the time equation; a run
    # from u0 = -2.5 would creep onto the double root u = -1 algebraically,
    # and the pass raises SolverError instead of returning NaN
    shared = engine._engine_plan(default_config.chip, default_config.settings,
                                 operating_tones(default_config.chip, default_config.settings))
    for u0, converges in ((-0.5, True), (-2.5, False)):
        plan = one_channel_plan(shared, 0.1, 400, slice(0, 300), f_probe=0.0, p_probe=2.0,
                                f_r0=3.0, dfdt=1.0, t_bath=1.0, kappa_ext=1.0, kappa_int=1.0,
                                g_th=1.0, tau=1.0, t_star=1.0 + (u0 + 3.0))
        heater_w = np.array([[1.0]])
        if converges:
            temps = thermal_stage(plan, heater_w)[0, 0]
            assert np.all(np.isfinite(temps))
            assert temps[plan.pulse.stop] == pytest.approx(1.0 + 3.0, rel=1e-12)
            assert np.all(time_equation_gaps(plan, heater_w) <= 1e-10)
        else:
            with pytest.raises(SolverError, match="double root"):
                thermal_stage(plan, heater_w)
