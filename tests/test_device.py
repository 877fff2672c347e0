"""Single-channel resonator physics: reflection, absorption, thermal update,
and the electrothermal operating point."""

import math
from dataclasses import dataclass, replace

import numpy as np
import pytest

from bolomux.device import (
    BolometerParams,
    SolverError,
    _absorption,
    _gamma,
    _lowest_cubic_root,
    _steady_state,
    solve_operating_point,
)
from bolomux.units import dbm_to_watts


def make_params(**overrides) -> BolometerParams:
    base = dict(
        f_r0_hz=156.7e6,
        kappa_ext_hz=300e3,
        kappa_int_hz=10e3,
        tau_th_s=13e-6,
        g_th_w_per_k=1e-12,
        dfdt_hz_per_k=5e9,
        t_bath_k=0.05,
        p_nonlinear_dbm=-125.0,
    )
    base.update(overrides)
    return BolometerParams(**base)


# ------------------------------------------------------- scalar model oracles
#
# The per-state scalar faces of the model, kept as references: the linearized
# thermometry, reflection and absorbed power at a given state, the exact
# single-pole relaxation step, and the per-cell closed-form solve that the
# array kernel replaced.


@dataclass(frozen=True)
class BolometerState:
    """Instantaneous electron temperature and the resonance it implies."""

    t_e_k: float
    f_r_hz: float


def state_at(par, t_e_k):
    """State with the resonance consistent with electron temperature t_e_k."""
    if not math.isfinite(t_e_k) or t_e_k <= 0.0:
        raise ValueError(f"electron temperature must be finite and > 0, got {t_e_k}")
    if t_e_k < par.t_bath_k - 1e-12:
        raise ValueError(f"electron temperature {t_e_k} below bath {par.t_bath_k}")
    return BolometerState(t_e_k, par.f_r0_hz - par.dfdt_hz_per_k * (t_e_k - par.t_bath_k))


def reflection_coefficient(par, state, f_hz):
    """Gamma(f) at the given state; scalar in, Python complex out."""
    ke, ki = par.kappa_ext_hz, par.kappa_int_hz
    if np.ndim(f_hz) == 0:
        return _gamma(float(f_hz) - state.f_r_hz, ke, ki)
    return _gamma(np.asarray(f_hz, dtype=float) - state.f_r_hz, ke, ki)


def absorbed_probe_power(par, state, f_p_hz, p_in_w):
    """Probe power dissipated in the device: p_in (1 - |Gamma|^2)."""
    if not math.isfinite(p_in_w) or p_in_w < 0.0:
        raise ValueError(f"incident power must be finite and >= 0 W, got {p_in_w}")
    return p_in_w * _absorption(par.kappa_ext_hz, par.kappa_int_hz)(f_p_hz - state.f_r_hz)


def power_residual(par, op, f_p_hz, p_in_w):
    """Power balance g_th (T - t_bath) - p_abs(T) at the operating point's temperature."""
    state = state_at(par, op.t_star_k)
    return (par.g_th_w_per_k * (op.t_star_k - par.t_bath_k)
            - absorbed_probe_power(par, state, f_p_hz, p_in_w))


def thermal_step(par, state, dt_s, p_abs_w):
    """T(t+dt) = T_inf + (T - T_inf) exp(-dt/tau), T_inf = t_bath + p_abs/g_th."""
    if not math.isfinite(dt_s) or dt_s < 0.0:
        raise ValueError(f"dt must be finite and >= 0 s, got {dt_s}")
    if not math.isfinite(p_abs_w) or p_abs_w < 0.0:
        raise ValueError(f"absorbed power must be finite and >= 0 W, got {p_abs_w}")
    t_inf = par.t_bath_k + p_abs_w / par.g_th_w_per_k
    return state_at(par, t_inf + (state.t_e_k - t_inf) * math.exp(-dt_s / par.tau_th_s))


def scalar_lowest_cubic_root(a, b):
    """One cell of the cubic v (1 + (v + a)^2) = b in Python floats.

    Same closed form, branch choice and Newton stopping rule as the array
    kernel, whose step at a double root is 0/0 and stops it; Python float
    powers raise OverflowError where numpy's overflow to inf.  Returns (v,
    three distinct real roots?).
    """
    p = 1.0 - a * a / 3.0
    half_q = -(a ** 3 / 27.0 + a / 3.0 + 0.5 * b)
    disc27 = a ** 4 + a ** 3 * b + 2.0 * a * a + 9.0 * a * b + 1.0 + 6.75 * b * b
    if disc27 <= 0.0 and p < 0.0:
        m = math.sqrt(-p / 3.0)
        c = min(1.0, max(-1.0, 3.0 * half_q / (p * m)))
        w = 2.0 * m * math.cos((math.acos(c) + 2.0 * math.pi) / 3.0)
    else:
        t = -half_q + math.copysign(math.sqrt(max(disc27, 0.0) / 27.0), -half_q)
        s1 = math.copysign(abs(t) ** (1.0 / 3.0), t)
        w = s1 - p / (3.0 * s1)
    v = max(w - 2.0 * a / 3.0, 0.0)
    last = math.inf
    for _ in range(32):
        slope = (3.0 * v + 4.0 * a) * v + 1.0 + a * a
        if slope == 0.0:
            break
        step = (((v + 2.0 * a) * v + 1.0 + a * a) * v - b) / slope
        if not abs(step) < last:
            break
        v -= step
        last = abs(step)
    return v, disc27 < 0.0 and p < 0.0


def scalar_steady_state(par, f_p_hz, p_probe_w, extra_power_w=0.0):
    """(t_e, multivalued) of one cell; t_e NaN where no finite state."""
    ke, ki = par.kappa_ext_hz, par.kappa_int_hz
    half = 0.5 * (ke + ki)
    g_th, dfdt = par.g_th_w_per_k, par.dfdt_hz_per_k
    detuning0 = f_p_hz - par.f_r0_hz
    if dfdt == 0.0:
        x = (p_probe_w * _absorption(ke, ki)(detuning0) + extra_power_w) / g_th
        multivalued = False
    else:
        a = (detuning0 + extra_power_w * dfdt / g_th) / half
        b = p_probe_w * _absorption(ke, ki)(0.0) * dfdt / (g_th * half)
        try:
            v, multivalued = scalar_lowest_cubic_root(a, b)
        except (OverflowError, ZeroDivisionError):
            return math.nan, False
        x = v * half / dfdt + extra_power_w / g_th
    t_e = par.t_bath_k + x
    if not math.isfinite(t_e):
        return math.nan, False
    return t_e, multivalued


# ---------------------------------------------------------------- parameters


def test_derived_properties():
    par = make_params(kappa_ext_hz=3e5, kappa_int_hz=1e4,
                      g_th_w_per_k=2e-12, tau_th_s=5e-6)
    assert par.kappa_total_hz == 3.1e5


@pytest.mark.parametrize("field, value", [
    ("f_r0_hz", 0.0),
    ("f_r0_hz", -1.0),
    ("kappa_ext_hz", 0.0),
    ("kappa_int_hz", -1.0),
    ("tau_th_s", 0.0),
    ("g_th_w_per_k", -1e-12),
    ("t_bath_k", 0.0),
    ("dfdt_hz_per_k", -1.0),
    ("p_nonlinear_dbm", float("nan")),
    ("tau_th_s", float("inf")),
])
def test_params_validation(field, value):
    with pytest.raises(ValueError):
        make_params(**{field: value})


def test_state_tracks_temperature():
    par = make_params()
    state = state_at(par, 0.053)
    assert state.t_e_k == 0.053
    # linearized thermometry: resonance drops by dfdt per kelvin above bath
    assert state.f_r_hz == par.f_r0_hz - par.dfdt_hz_per_k * (0.053 - 0.05)
    assert state_at(par, par.t_bath_k).f_r_hz == par.f_r0_hz
    # the solver reports the resonance of this same thermometry
    op = solve_operating_point(par, par.f_r0_hz, dbm_to_watts(-140.0))
    assert op.f_r_star_hz == state_at(par, op.t_star_k).f_r_hz


def test_state_rejects_bad_temperature():
    par = make_params()
    for bad in (0.0, -0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            state_at(par, bad)
    # below-bath temperatures are unreachable in this model
    with pytest.raises(ValueError, match="below bath"):
        state_at(par, 0.049)


# ---------------------------------------------------------------- reflection


def test_reflection_critical_coupling_dip():
    par = make_params(kappa_ext_hz=2e5, kappa_int_hz=2e5)
    state = state_at(par, par.t_bath_k)
    gamma = reflection_coefficient(par, state, par.f_r0_hz)
    assert abs(gamma) < 1e-12


def test_reflection_lossless_is_allpass():
    par = make_params(kappa_int_hz=0.0)
    state = state_at(par, par.t_bath_k)
    for detuning in (0.0, 1e3, -5e4, 3e5, -2e6):
        gamma = reflection_coefficient(par, state, par.f_r0_hz + detuning)
        assert abs(abs(gamma) - 1.0) < 1e-12


def test_reflection_half_linewidth_point():
    # at detuning = kappa_total/2 and critical coupling, Gamma = (1 + i)/2
    par = make_params(kappa_ext_hz=2e5, kappa_int_hz=2e5)
    state = state_at(par, par.t_bath_k)
    gamma = reflection_coefficient(par, state, par.f_r0_hz + par.kappa_total_hz / 2)
    assert gamma == pytest.approx(0.5 + 0.5j, abs=1e-12)
    assert abs(gamma) ** 2 == pytest.approx(0.5, abs=1e-12)


def test_reflection_far_detuned_is_unity():
    par = make_params()
    state = state_at(par, par.t_bath_k)
    gamma = reflection_coefficient(par, state, par.f_r0_hz + 1e4 * par.kappa_total_hz)
    assert abs(gamma - 1.0) < 1e-3


def test_reflection_vectorized_matches_scalar():
    par = make_params()
    state = state_at(par, 0.052)
    freqs = par.f_r0_hz + np.linspace(-5e5, 5e5, 17)
    vec = reflection_coefficient(par, state, freqs)
    assert vec.shape == freqs.shape
    for f, g in zip(freqs, vec):
        assert g == pytest.approx(reflection_coefficient(par, state, float(f)),
                                  rel=1e-12)


def test_reflection_passive_for_random_params():
    rng = np.random.default_rng(42)
    for _ in range(300):
        par = make_params(
            kappa_ext_hz=10 ** rng.uniform(3, 7),
            kappa_int_hz=10 ** rng.uniform(2, 7),
        )
        state = state_at(par, par.t_bath_k + rng.uniform(0.0, 0.05))
        f = par.f_r0_hz + rng.uniform(-10, 10) * par.kappa_total_hz
        gamma = reflection_coefficient(par, state, f)
        # passivity: internal loss can only remove power
        assert abs(gamma) <= 1.0 + 1e-12


# ---------------------------------------------------------------- absorption


def test_absorbed_critical_on_resonance_takes_all():
    par = make_params(kappa_ext_hz=2e5, kappa_int_hz=2e5)
    state = state_at(par, par.t_bath_k)
    p_in = 1e-15
    assert absorbed_probe_power(par, state, par.f_r0_hz, p_in) == pytest.approx(
        p_in, rel=1e-12)


def test_absorbed_lossless_takes_nothing():
    par = make_params(kappa_int_hz=0.0)
    state = state_at(par, par.t_bath_k)
    assert absorbed_probe_power(par, state, par.f_r0_hz, 1e-15) == pytest.approx(
        0.0, abs=1e-27)


def test_absorbed_half_at_half_linewidth():
    par = make_params(kappa_ext_hz=2e5, kappa_int_hz=2e5)
    state = state_at(par, par.t_bath_k)
    p_in = 1e-15
    p_half = absorbed_probe_power(par, state, par.f_r0_hz + par.kappa_total_hz / 2, p_in)
    assert p_half == pytest.approx(p_in / 2, rel=1e-12)


def test_absorbed_bounded_by_input():
    rng = np.random.default_rng(7)
    for _ in range(200):
        par = make_params(
            kappa_ext_hz=10 ** rng.uniform(3, 7),
            kappa_int_hz=10 ** rng.uniform(2, 7),
        )
        state = state_at(par, par.t_bath_k + rng.uniform(0.0, 0.05))
        f = par.f_r0_hz + rng.uniform(-10, 10) * par.kappa_total_hz
        p_in = 10 ** rng.uniform(-18, -12)
        p_abs = absorbed_probe_power(par, state, f, p_in)
        assert 0.0 <= p_abs <= p_in


def test_absorbed_rejects_negative_power():
    par = make_params()
    state = state_at(par, par.t_bath_k)
    with pytest.raises(ValueError):
        absorbed_probe_power(par, state, par.f_r0_hz, -1e-18)


# ------------------------------------------------------------- thermal step


def test_thermal_step_holds_equilibrium():
    par = make_params()
    p_abs = 2e-14
    t_eq = par.t_bath_k + p_abs / par.g_th_w_per_k
    state = state_at(par, t_eq)
    after = thermal_step(par, state, 1e-6, p_abs)
    assert after.t_e_k == pytest.approx(t_eq, rel=1e-15)


def test_thermal_step_one_time_constant():
    # decay from 60 mK toward a 50 mK bath over exactly one tau:
    # 0.05 + 0.01/e = 0.05367879...
    par = make_params(tau_th_s=10e-6)
    state = state_at(par, 0.060)
    after = thermal_step(par, state, 10e-6, 0.0)
    assert after.t_e_k == pytest.approx(0.05 + 0.01 * math.exp(-1.0), rel=1e-12)
    assert after.t_e_k == pytest.approx(0.0536788, abs=1e-7)


def test_thermal_step_long_time_reaches_target():
    par = make_params()
    p_abs = 5e-15
    state = state_at(par, 0.09)
    after = thermal_step(par, state, 1000 * par.tau_th_s, p_abs)
    assert after.t_e_k == pytest.approx(
        par.t_bath_k + p_abs / par.g_th_w_per_k, rel=1e-9)


def test_thermal_step_semigroup():
    # exact exponential update: two half steps must equal one full step
    rng = np.random.default_rng(11)
    par = make_params()
    for _ in range(100):
        t0 = par.t_bath_k + rng.uniform(0.0, 0.05)
        p_abs = 10 ** rng.uniform(-18, -13)
        dt = 10 ** rng.uniform(-8, -4)
        state = state_at(par, t0)
        whole = thermal_step(par, state, dt, p_abs)
        halves = thermal_step(par, thermal_step(par, state, dt / 2, p_abs),
                              dt / 2, p_abs)
        assert halves.t_e_k == pytest.approx(whole.t_e_k, rel=1e-12)


def test_thermal_step_zero_dt_is_identity():
    par = make_params()
    state = state_at(par, 0.055)
    after = thermal_step(par, state, 0.0, 1e-15)
    assert after.t_e_k == state.t_e_k


def test_thermal_step_never_cools_below_bath():
    par = make_params()
    state = state_at(par, par.t_bath_k)
    for dt in (1e-9, 1e-6, 1e-3):
        state = thermal_step(par, state, dt, 0.0)
        assert state.t_e_k >= par.t_bath_k - 1e-12


def test_thermal_step_rejects():
    par = make_params()
    state = state_at(par, 0.05)
    with pytest.raises(ValueError):
        thermal_step(par, state, -1e-9, 0.0)
    with pytest.raises(ValueError):
        thermal_step(par, state, 1e-9, -1e-18)


# ----------------------------------------------------------- operating point


def steady_residual(par, f_p_hz, p_probe_w, extra_power_w, t_e):
    """g_th (T - t_bath) - absorbed power, with Gamma from its definition."""
    det = f_p_hz - (par.f_r0_hz - par.dfdt_hz_per_k * (t_e - par.t_bath_k))
    gamma = 1.0 - par.kappa_ext_hz / complex(par.kappa_total_hz / 2, det)
    return par.g_th_w_per_k * (t_e - par.t_bath_k) - (
        p_probe_w * (1.0 - abs(gamma) ** 2) + extra_power_w)


def brute_force_roots(par, f_p_hz, p_probe_w, extra_power_w=0.0, n=10_000):
    """All steady-state temperatures by dense bracketing plus bisection.

    Independent of the production solver: evaluates the power balance
    residual on a temperature grid and refines every sign change.
    """
    p_total = p_probe_w + extra_power_w
    t_hi = par.t_bath_k + 1.05 * p_total / par.g_th_w_per_k + 1e-12

    def residual(t_e):
        return steady_residual(par, f_p_hz, p_probe_w, extra_power_w, t_e)

    grid = np.linspace(par.t_bath_k, t_hi, n)
    vals = np.array([residual(t) for t in grid])
    roots = []
    for i in range(n - 1):
        a, b = grid[i], grid[i + 1]
        fa, fb = vals[i], vals[i + 1]
        if fa == 0.0:
            roots.append(a)
            continue
        if fa * fb < 0.0:
            for _ in range(200):
                m = 0.5 * (a + b)
                fm = residual(m)
                if fa * fm <= 0.0:
                    b = m
                else:
                    a, fa = m, fm
            roots.append(0.5 * (a + b))
    return roots


def damped_fixed_point(par, f_p_hz, p_probe_w, extra_power_w=0.0, damping=0.5,
                       tol_k=1e-15, max_iter=100_000):
    """The damped iteration T <- T + damping (t_bath + p_abs(T)/g_th - T).

    Started at the bath, it settles on the coolest steady state wherever
    its map contracts.  Independent of the production solver's cubic.
    """
    ke, ki = par.kappa_ext_hz, par.kappa_int_hz
    half = 0.5 * (ke + ki)
    t_bath, g_th, dfdt = par.t_bath_k, par.g_th_w_per_k, par.dfdt_hz_per_k
    t_e = t_bath
    for _ in range(max_iter):
        detuning = f_p_hz - (par.f_r0_hz - dfdt * (t_e - t_bath))
        gamma = 1.0 - ke / complex(half, detuning)
        frac = 1.0 - (gamma.real * gamma.real + gamma.imag * gamma.imag)
        p_abs = p_probe_w * min(max(frac, 0.0), 1.0) + extra_power_w
        t_next = t_e + damping * (t_bath + p_abs / g_th - t_e)
        step = abs(t_next - t_e)
        t_e = t_next
        if step < tol_k:
            return t_e
    raise AssertionError(f"damped oracle did not converge after {max_iter} iterations")


def test_cubic_root_exact_across_scales():
    # the closed form alone loses v entirely when |a| >> 1 and v << 1 (a
    # weak probe far off resonance); the Newton polish must restore it, per
    # cell and across a whole array in one call
    a_values = (-1e5, -300.0, -3.0, -0.1, 0.0, 0.1, 3.0, 300.0, 1e5)
    b_values = (1e-8, 1e-3, 1.0, 1e3, 1e6)
    with np.errstate(all="ignore"):
        grid_v = _lowest_cubic_root(*np.meshgrid(a_values, b_values, indexing="ij"))[0]
        for i, a in enumerate(a_values):
            for j, b in enumerate(b_values):
                for v in (_lowest_cubic_root(a, b)[0], grid_v[i, j]):
                    assert v >= 0.0
                    assert v * (1.0 + (v + a) ** 2) == pytest.approx(b, rel=1e-12), (a, b)


def test_cubic_root_elements_stop_independently():
    # (0, 1) stops Newton after one step, (-300, 1e-3) after three: solved
    # together, each must still take exactly the steps it takes alone
    a = np.array([0.0, -300.0, -3.0, 0.1])
    b = np.array([1.0, 1e-3, 1e-8, 1e-3])
    with np.errstate(all="ignore"):
        together = _lowest_cubic_root(a, b)[0]
        for i in range(a.size):
            alone = _lowest_cubic_root(a[i:i + 1], b[i:i + 1])[0]
            assert together[i] == alone[0], i


def test_steady_state_matches_scalar_oracle():
    # the grid the closed-form solver was first checked on: dfdt x0...x300,
    # 10 detunings, 8 powers and 5 extra loads, solved as one
    # (detuning x extra) array per (dfdt, power)
    par = make_params()
    detunings = np.linspace(-3.0, 3.0, 10)
    extras = np.array([0.0, 1e-18, 1e-17, 1e-16, 1e-15])
    cells = multivalued = 0
    for scale in (0.0, 1.0, 10.0, 30.0, 100.0, 300.0):
        steep = replace(par, dfdt_hz_per_k=scale * par.dfdt_hz_per_k)
        f_p = steep.f_r0_hz + detunings * steep.kappa_total_hz
        for p_dbm in np.linspace(-160.0, -128.0, 8):
            p_w = dbm_to_watts(p_dbm)
            t_e, f_r, gamma, multi = _steady_state(steep, f_p[:, None], p_w, extras[None, :])
            assert t_e.shape == gamma.shape == multi.shape == (10, 5)
            for i, f in enumerate(f_p):
                for j, extra in enumerate(extras):
                    ref_t, ref_multi = scalar_steady_state(steep, float(f), p_w, float(extra))
                    assert abs(t_e[i, j] - ref_t) <= 1e-12, (scale, p_dbm, i, j)
                    assert multi[i, j] == ref_multi
                    assert f_r[i, j] == steep.f_r0_hz - steep.dfdt_hz_per_k * (
                        t_e[i, j] - steep.t_bath_k)
                    assert gamma[i, j] == pytest.approx(
                        _gamma(float(f) - f_r[i, j], steep.kappa_ext_hz, steep.kappa_int_hz),
                        rel=1e-15, abs=1e-15)
                    cells += 1
            multivalued += int(multi.sum())
    assert cells == 2400
    # both root branches are exercised
    assert multivalued > 0


def test_steady_state_non_finite_cell_is_nan():
    # a linewidth so narrow that a far-detuned probe overflows a**4: that
    # cell has no finite state; the cells beside it still solve
    tiny = make_params(kappa_ext_hz=1e-70, kappa_int_hz=1e-70)
    p_w = dbm_to_watts(-144.0)
    f_p = tiny.f_r0_hz + np.array([-1e3, 0.0, 1e3, 1e10])
    with np.errstate(all="raise"):
        t_e, f_r, gamma, multi = _steady_state(tiny, f_p, p_w)
    assert np.isnan(t_e[3]) and np.isnan(f_r[3]) and np.isnan(gamma[3])
    assert not multi[3]
    assert np.all(np.isfinite(t_e[:3])) and np.all(np.isfinite(gamma[:3]))
    for f, t in zip(f_p, t_e):
        ref = scalar_steady_state(tiny, float(f), p_w)[0]
        assert (math.isnan(ref) and math.isnan(t)) or abs(t - ref) <= 1e-12
    # the scalar face refuses what the kernel marks NaN
    with pytest.raises(SolverError, match="not finite"):
        solve_operating_point(tiny, float(f_p[3]), p_w)
    assert solve_operating_point(tiny, float(f_p[2]), p_w).t_star_k == t_e[2]


def test_steady_state_broadcasts_probe_power():
    # a (powers, 1) x (freqs) grid in one call is the per-power calls and the
    # per-cell oracle, bit for bit: past the nonlinear threshold, where cells
    # fold, and on a linewidth so narrow that a far-detuned cell is NaN
    powers = np.array([[dbm_to_watts(p)] for p in np.linspace(-160.0, -110.0, 11)])
    steep, tiny = make_params(), make_params(kappa_ext_hz=1e-70, kappa_int_hz=1e-70)
    grids = (steep.f_r0_hz + np.linspace(-3.0, 3.0, 41) * steep.kappa_total_hz,
             tiny.f_r0_hz + np.array([-1e3, 0.0, 1e3, 1e10]))
    multivalued = nan_cells = 0
    for par, f_p in zip((steep, tiny), grids):
        grid = _steady_state(par, f_p, powers)
        assert all(out.shape == (11, f_p.size) for out in grid)
        for i, p_w in enumerate(powers[:, 0]):
            for got, want in zip(grid, _steady_state(par, f_p, float(p_w))):
                assert np.array_equal(got[i], want, equal_nan=True)
            for j, f in enumerate(f_p):
                t_e, multi = scalar_steady_state(par, float(f), float(p_w))
                assert np.array_equal(grid[0][i, j], t_e, equal_nan=True)
                assert grid[3][i, j] == multi
        multivalued += int(grid[3].sum())
        nan_cells += int(np.isnan(grid[0]).sum())
    assert multivalued > 0 and nan_cells > 0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1e-18])
def test_steady_state_refuses_a_bad_probe_power(bad):
    par = make_params()
    with pytest.raises(ValueError, match="probe power must be finite and >= 0 W"):
        _steady_state(par, par.f_r0_hz + np.zeros(3), np.array([[1e-18], [bad]]))


def test_operating_point_zero_power_sits_at_bath():
    par = make_params()
    op = solve_operating_point(par, par.f_r0_hz, 0.0)
    assert op.t_star_k == pytest.approx(par.t_bath_k, abs=1e-12)
    assert op.f_r_star_hz == pytest.approx(par.f_r0_hz, abs=1e-3)
    assert not op.multivalued


def test_operating_point_balances_power():
    par = make_params()
    p_w = dbm_to_watts(-144.0)
    op = solve_operating_point(par, par.f_r0_hz, p_w)
    assert abs(power_residual(par, op, par.f_r0_hz, p_w)) < 1e-18
    # self-heating pulls the resonance down, never up
    assert op.t_star_k >= par.t_bath_k
    assert op.f_r_star_hz <= par.f_r0_hz


def test_operating_point_gamma_consistent():
    # the solver's Gamma, reflection_coefficient at the solved state and the
    # scalar kernel are one Python-float computation: equal bit for bit on
    # every random cell, not just close
    rng = np.random.default_rng(11)
    for _ in range(1000):
        par = make_params(
            kappa_ext_hz=float(10 ** rng.uniform(3, 7)),
            kappa_int_hz=float(10 ** rng.uniform(2, 7)),
            dfdt_hz_per_k=float(10 ** rng.uniform(6, 11)),
        )
        f_p = float(par.f_r0_hz + rng.uniform(-3, 3) * par.kappa_total_hz)
        p_w = dbm_to_watts(float(rng.uniform(-160.0, -130.0)))
        op = solve_operating_point(par, f_p, p_w)
        state = state_at(par, op.t_star_k)
        gamma = reflection_coefficient(par, state, f_p)
        assert type(op.gamma) is complex and type(gamma) is complex
        assert gamma == op.gamma == _gamma(f_p - state.f_r_hz, par.kappa_ext_hz,
                                           par.kappa_int_hz)


def test_operating_point_matches_brute_force():
    par = make_params()
    for p_dbm in (-150.0, -140.0, -133.0):
        for det in (0.0, -0.5, 0.7):
            f_p = par.f_r0_hz + det * par.kappa_total_hz
            p_w = dbm_to_watts(p_dbm)
            op = solve_operating_point(par, f_p, p_w)
            roots = brute_force_roots(par, f_p, p_w)
            assert roots, "oracle found no steady state"
            nearest = min(roots, key=lambda r: abs(r - op.t_star_k))
            assert op.t_star_k == pytest.approx(nearest, abs=1e-8)


def test_operating_point_temperature_monotone_in_power():
    par = make_params()
    f_p = par.f_r0_hz - 0.2 * par.kappa_total_hz
    powers = np.logspace(-18, -15, 12)
    temps = [solve_operating_point(par, f_p, p).t_star_k for p in powers]
    diffs = np.diff(temps)
    assert np.all(diffs > 0.0)
    # resonance walks down as the island heats
    freqs = [solve_operating_point(par, f_p, p).f_r_star_hz for p in powers]
    assert np.all(np.diff(freqs) < 0.0)


def test_operating_point_extra_power_adds_heat():
    par = make_params()
    f_p = par.f_r0_hz
    p_w = dbm_to_watts(-144.0)
    cold = solve_operating_point(par, f_p, p_w)
    warm = solve_operating_point(par, f_p, p_w, extra_power_w=1e-16)
    assert warm.t_star_k > cold.t_star_k
    # brute force agrees with the heated balance too
    roots = brute_force_roots(par, f_p, p_w, extra_power_w=1e-16)
    nearest = min(roots, key=lambda r: abs(r - warm.t_star_k))
    assert warm.t_star_k == pytest.approx(nearest, abs=1e-8)


def test_operating_point_flags_multivalued():
    # steep thermometry on the low-frequency flank folds the response:
    # three balance roots, solver converges to one and raises the flag
    par = make_params()
    steep = replace(par, dfdt_hz_per_k=300 * par.dfdt_hz_per_k)
    f_p = steep.f_r0_hz - 2.0 * steep.kappa_total_hz
    p_w = dbm_to_watts(-144.0)
    op = solve_operating_point(steep, f_p, p_w)
    assert op.multivalued
    roots = brute_force_roots(steep, f_p, p_w)
    assert len(roots) >= 3
    nearest = min(roots, key=lambda r: abs(r - op.t_star_k))
    assert op.t_star_k == pytest.approx(nearest, abs=1e-7)


def test_operating_point_at_an_exact_fold_is_the_double_root():
    # a = -2, b = 2 on a unit channel (half linewidth, g_th and dfdt 1, probe
    # detuning -3 and a 1 W load): Q = (u - a)(1 + u^2) - b = u (u + 1)^2,
    # whose discriminant is exactly 0.  The coolest state is the double root
    # u = -1 (v = 1), not the simple root u = 0 (v = 2); two of the three real
    # roots coincide, so the response is not multivalued
    with np.errstate(all="ignore"):
        v, distinct, counted = _lowest_cubic_root(np.array([-2.0, -3.0]), np.array([2.0, 4.0]))
    assert v[0] == pytest.approx(1.0, abs=1e-9)
    assert distinct.tolist() == [False, True] and counted.tolist() == [True, True]
    assert scalar_lowest_cubic_root(-2.0, 2.0) == (pytest.approx(1.0, abs=1e-9), False)
    par = BolometerParams(f_r0_hz=3.0, kappa_ext_hz=1.0, kappa_int_hz=1.0, tau_th_s=1.0,
                          g_th_w_per_k=1.0, dfdt_hz_per_k=1.0, t_bath_k=1.0)
    op = solve_operating_point(par, 0.0, 2.0, extra_power_w=1.0)
    assert op.t_star_k == pytest.approx(1.0 + 2.0, abs=1e-9)
    assert not op.multivalued


def test_operating_point_single_valued_cases_unflagged():
    par = make_params()
    for p_dbm in (-160.0, -144.0, -135.0):
        op = solve_operating_point(par, par.f_r0_hz, dbm_to_watts(p_dbm))
        assert not op.multivalued
        assert len(brute_force_roots(par, par.f_r0_hz, dbm_to_watts(p_dbm))) == 1


@pytest.mark.parametrize("dfdt_scale", [0.0, 1.0])
def test_operating_point_matches_damped_oracle(dfdt_scale):
    par = make_params()
    par = replace(par, dfdt_hz_per_k=dfdt_scale * par.dfdt_hz_per_k)
    for det in (-2.0, -0.5, 0.0, 0.3, 1.0):
        f_p = par.f_r0_hz + det * par.kappa_total_hz
        for p_dbm in (-160.0, -144.0, -135.0, -128.0):
            p_w = dbm_to_watts(p_dbm)
            for extra in (0.0, 1e-17, 1e-15):
                op = solve_operating_point(par, f_p, p_w, extra_power_w=extra)
                oracle = damped_fixed_point(par, f_p, p_w, extra)
                assert abs(op.t_star_k - oracle) <= 1e-12, (det, p_dbm, extra)
                roots = brute_force_roots(par, f_p, p_w, extra_power_w=extra)
                assert op.multivalued == (len(roots) >= 3), (det, p_dbm, extra)


def test_operating_point_multivalued_matches_brute_force():
    # x300 on the low-frequency flank is the folded corner; x100 and x1
    # cover both sides of the fold
    par = make_params()
    flagged = 0
    for scale in (1.0, 100.0, 300.0):
        steep = replace(par, dfdt_hz_per_k=scale * par.dfdt_hz_per_k)
        for det in (-3.0, -2.0, -1.0, 0.0):
            f_p = steep.f_r0_hz + det * steep.kappa_total_hz
            for p_dbm in (-144.0, -140.0, -135.0):
                p_w = dbm_to_watts(p_dbm)
                op = solve_operating_point(steep, f_p, p_w)
                roots = brute_force_roots(steep, f_p, p_w)
                assert op.multivalued == (len(roots) >= 3), (scale, det, p_dbm)
                # the coolest steady state is the one reported
                assert op.t_star_k == pytest.approx(min(roots), abs=1e-12)
                flagged += op.multivalued
    assert flagged >= 4


def test_operating_point_stable_matches_residual_slope():
    # the balance residual is <= 0 at the bath, so the coolest root the
    # solver returns is one it rises through: a small excursion relaxes,
    # in folded cells too
    par = make_params()
    multivalued = 0
    for scale in (1.0, 100.0, 300.0):
        steep = replace(par, dfdt_hz_per_k=scale * par.dfdt_hz_per_k)
        for det in (-3.0, -2.0, -1.0, 0.0, 0.5):
            f_p = steep.f_r0_hz + det * steep.kappa_total_hz
            for p_dbm in (-144.0, -135.0):
                p_w = dbm_to_watts(p_dbm)
                op = solve_operating_point(steep, f_p, p_w)
                h = 1e-9 * max(op.t_star_k - steep.t_bath_k, 1e-9)
                slope = (steady_residual(steep, f_p, p_w, 0.0, op.t_star_k + h)
                         - steady_residual(steep, f_p, p_w, 0.0, op.t_star_k - h)) / (2 * h)
                assert slope > 0.0, (scale, det, p_dbm)
                multivalued += op.multivalued
    assert multivalued > 0


def test_operating_point_solves_where_damped_iteration_oscillates():
    # the damped map's slope here is about -1.12, so the iteration never
    # settles; the balance itself has a single, stable root
    par = make_params()
    steep = replace(par, dfdt_hz_per_k=100 * par.dfdt_hz_per_k)
    f_p = steep.f_r0_hz - 1.0 * steep.kappa_total_hz
    p_w = dbm_to_watts(-135.0)
    with pytest.raises(AssertionError, match="did not converge"):
        damped_fixed_point(steep, f_p, p_w, max_iter=10_000)
    roots = brute_force_roots(steep, f_p, p_w)
    assert len(roots) == 1
    assert roots[0] == pytest.approx(0.05000111438971987, abs=1e-12)
    op = solve_operating_point(steep, f_p, p_w)
    assert abs(op.t_star_k - roots[0]) <= 1e-12
    assert not op.multivalued


def test_operating_point_rejects_bad_arguments():
    par = make_params()
    with pytest.raises(ValueError):
        solve_operating_point(par, par.f_r0_hz, -1e-18)
    with pytest.raises(ValueError):
        solve_operating_point(par, par.f_r0_hz, 1e-18, extra_power_w=-1e-18)


def test_operating_point_default_chip_channels(default_chip):
    # every shipped channel settles cleanly at its own resonance
    p_w = dbm_to_watts(-144.0)
    for par in default_chip.bolometers:
        op = solve_operating_point(par, par.f_r0_hz, p_w)
        assert abs(power_residual(par, op, par.f_r0_hz, p_w)) < 1e-18
        assert not op.multivalued
