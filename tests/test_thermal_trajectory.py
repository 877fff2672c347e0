"""The thermal pass against the exact thermal trajectory.

Between heater edges the heater power is constant, so the thermal equation
is autonomous and one-dimensional.  In the solver's variable u = detuning /
(kappa/2), with a and b as device._steady_state defines them (a takes the
segment's heater power),

    du/dt = -(1/tau_th) Q(u) / (1 + u^2),   Q(u) = (u - a)(1 + u^2) - b,

and partial fractions over Q's roots give the elapsed time t(u) in closed
form.  `exact_block_starts` inverts it at every thermal step's start, so the
stepping error of engine._thermal_stage is measured against the trajectory
itself rather than against a finer step.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from bolomux import engine, experiments
from bolomux.config import load_config
from bolomux.device import _absorption, solve_operating_point
from bolomux.experiments import operating_tones
from bolomux.frontend import ToneSpec, TriggerPattern, schedule_heaters
from bolomux.units import dbm_to_watts
from test_device import brute_force_roots, make_params


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
    for _ in range(3):          # polish the root the eigenvalue solver returned
        u_star -= ((u_star - a) * (1.0 + u_star * u_star) - b) / (
            (3.0 * u_star - 2.0 * a) * u_star + 1.0)
    if u0 == u_star:
        return np.full(np.shape(s), u_star)
    c1, c0 = u_star - a, u_star * (u_star - a) + 1.0
    r = (1.0 + u_star * u_star) / ((u_star + c1) * u_star + c0)
    big_b = 1.0 - r
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
    for _ in range(6):
        u = u_star + side * np.exp(w)
        gap = -(r * (w - w0) + rest(u) - rest(u0)) - s
        w = w + gap * (u * u + c1 * u + c0) / (1.0 + u * u)
    return u_star + side * np.exp(w)


def exact_block_starts(par, f_probe, p_probe_w, t_star, heater_w, pulse, steps, dt):
    """One channel's temperature at the start of each of steps thermal steps of
    length dt: from t_star, heater_w on for the steps in pulse.  dfdt == 0 makes
    the balance linear and the relaxation a pure exponential."""
    ke, ki, half = par.kappa_ext_hz, par.kappa_int_hz, 0.5 * par.kappa_total_hz
    g_th, dfdt, tau = par.g_th_w_per_k, par.dfdt_hz_per_k, par.tau_th_s
    detuning0 = f_probe - par.f_r0_hz
    rise, out = t_star - par.t_bath_k, np.empty(steps)
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
    return out


def stage_and_exact(chip, settings, heater_tones):
    """One thermal pass's block starts and the exact ones, both (runs, channels,
    steps), and the operating points the runs start from."""
    operating = operating_tones(chip, settings)
    (tones, ops), dt = operating, settings.thermal_dt_s
    plan = engine._engine_plan(chip, settings, operating)
    heater_w = experiments._heater_power_w(chip, heater_tones)
    t_start, _, index = engine._thermal_stage(plan, heater_w)
    exact = np.array([[exact_block_starts(par, tone.f_hz, dbm_to_watts(tone.p_dbm), op.t_star_k,
                                          heat, plan.pulse, plan.steps, dt)
                       for par, tone, op, heat in zip(chip.bolometers, tones, ops, row)]
                      for row in heater_w])
    return t_start.take(index, axis=-1), exact, ops


def stage_error(chip, settings, heater_tones):
    """(runs, channels) largest |block start - exact| of one thermal pass, each
    over its run's largest rise above the operating point."""
    t_start, exact, ops = stage_and_exact(chip, settings, heater_tones)
    rise = np.max(exact - np.array([op.t_star_k for op in ops])[:, None], axis=(1, 2))
    return np.max(np.abs(t_start - exact), axis=-1) / rise[:, None]


def trigger_batch(chip, settings, labels):
    return [schedule_heaters(TriggerPattern.from_label(label), chip.filters, chip.channel_map,
                             settings.heater_power_dbm) for label in labels]


@pytest.mark.parametrize("preset, labels", [
    ("desk", ["111", "100"]),
    ("paper", ["111"]),
    ("fig3", ["111"]),
])
def test_thermal_stage_tracks_the_exact_trajectory(preset, labels):
    # every block start of the second-order stepping lies within 2e-7 of
    # the run's largest rise of the exact trajectory, on every channel,
    # heated or not; the worst reads 1.49e-7 on desk and paper, 1.24e-7 on fig3
    cfg = load_config(None, preset=preset)
    chip, settings = cfg.chip, cfg.settings
    error = stage_error(chip, settings, trigger_batch(chip, settings, labels))
    assert error.shape == (len(labels), chip.n_channels)
    assert np.all(error <= 2e-7)


def test_thermal_stage_tracks_the_exact_trajectory_over_the_power_sweep(default_config):
    # the shipped power sweep's batch, 3 filters x 27 powers at the flank,
    # from far below compression to deep in it: 1.34e-7 at worst
    chip, ps = default_config.chip, default_config.sweeps["powersweep"]
    settings = replace(default_config.settings, probe_detuning_fraction=0.5)
    powers = np.linspace(ps["p_min_dbm"], ps["p_max_dbm"], int(ps["n_points"])).tolist()
    runs = [[ToneSpec(f_hz=filt.f_center_hz, p_dbm=p)] for filt in chip.filters for p in powers]
    assert np.all(stage_error(chip, settings, runs) <= 2e-7)


def test_thermal_stage_is_exact_without_thermometry(default_config):
    # with dfdt = 0 the absorbed power does not depend on the temperature, so
    # each step's exponential relaxation is the trajectory itself: the block
    # starts differ from it by rounding, 6 ulps of the temperature at worst
    chip, settings = default_config.chip, default_config.settings
    flat = replace(chip, bolometers=tuple(replace(par, dfdt_hz_per_k=0.0)
                                          for par in chip.bolometers))
    t_start, exact, _ = stage_and_exact(flat, settings,
                                        trigger_batch(flat, settings, ["111", "010"]))
    assert np.all(np.abs(t_start - exact) <= 8 * np.spacing(exact))


@pytest.mark.parametrize("heat, latches, bound", [(5e-20, False, 5e-7), (3e-19, True, 5e-5)])
def test_thermal_stage_tracks_the_exact_trajectory_through_the_bistable_corner(
        default_config, heat, latches, bound):
    # test_device's steep chip on its low flank has three balance roots cold.
    # The run starts on the cold lowest root.  A weak heater keeps three
    # heated roots, and the run relaxes onto the one on its side of the
    # middle one (the lowest), then back.  A strong heater leaves one root,
    # past the cold middle one, so once it is off the run settles on the
    # cold upper root: it latches.  The stepping error at 100 ns, over the
    # heated rise, reads 3.7e-7 and 3.2e-5 (the jump across the fold is
    # fast); it is second order, so halving the step quarters it
    par = make_params()
    steep = replace(par, dfdt_hz_per_k=300 * par.dfdt_hz_per_k)
    f_p, p_w = steep.f_r0_hz - 2.0 * steep.kappa_total_hz, dbm_to_watts(-144.0)
    cold = solve_operating_point(steep, f_p, p_w)
    heated = solve_operating_point(steep, f_p, p_w, extra_power_w=heat)
    cold_roots = brute_force_roots(steep, f_p, p_w)
    assert cold.multivalued and len(cold_roots) == 3 and heated.multivalued != latches
    shared = engine._engine_plan(default_config.chip, default_config.settings,
                                 operating_tones(default_config.chip, default_config.settings))
    errors = []
    for dt in (100e-9, 50e-9):
        steps, pulse = round(1.2e-3 / dt), slice(round(20e-6 / dt), round(620e-6 / dt))
        columns = dict(f_probe=f_p, p_probe=p_w, f_r0=steep.f_r0_hz, dfdt=steep.dfdt_hz_per_k,
                       t_bath=steep.t_bath_k, kappa_ext=steep.kappa_ext_hz,
                       kappa_int=steep.kappa_int_hz, g_th=steep.g_th_w_per_k,
                       decay=math.exp(-dt / steep.tau_th_s),
                       decay_half=math.exp(-0.5 * dt / steep.tau_th_s), t_star=cold.t_star_k)
        plan = shared._replace(channels=engine._Channels(**{k: np.array([[v]])
                                                            for k, v in columns.items()}),
                               pulse=pulse, steps=steps)
        t_start, _, index = engine._thermal_stage(plan, np.array([[heat]]))
        exact = exact_block_starts(steep, f_p, p_w, cold.t_star_k, heat, pulse, steps, dt)
        rise = heated.t_star_k - cold.t_star_k
        assert exact[pulse.stop - 1] - cold.t_star_k == pytest.approx(rise, rel=1e-9)
        settled = cold_roots[2] if latches else cold.t_star_k
        assert exact[-1] - cold.t_star_k == pytest.approx(settled - cold.t_star_k, rel=1e-6)
        errors.append(np.max(np.abs(t_start.take(index, axis=-1)[0, 0] - exact)) / rise)
    assert errors[0] <= bound
    assert errors[1] == pytest.approx(errors[0] / 4.0, rel=0.1)
