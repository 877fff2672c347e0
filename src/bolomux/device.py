"""Single-channel bolometer model: resonator reflection and thermal state.

The device is a one-port resonant circuit whose resonance frequency is a
linear function of the electron temperature of a normal-metal absorber, plus
a single-pole thermal model for that temperature.  Probe power absorbed in
the resonator heats the absorber, which moves the resonance, which changes
the absorption: the electrothermal feedback loop closed by
:func:`solve_operating_point`.

`_gamma` and `_absorbed_fraction` are the one copy of the reflection and
absorption arithmetic; the solver and the time-domain engine both use them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BolometerParams",
    "BolometerState",
    "OperatingPoint",
    "SolverError",
    "reflection_coefficient",
    "absorbed_probe_power",
    "thermal_step",
    "solve_operating_point",
]


class SolverError(RuntimeError):
    """The operating point came out non-finite."""


@dataclass(frozen=True)
class BolometerParams:
    """Static parameters of one bolometer channel.

    f_r0_hz is the resonance at the bath temperature; heating by t_e - t_bath
    pulls it down by dfdt_hz_per_k per kelvin.  kappa_* are linewidths in Hz
    (external coupling and internal loss); their sum is the total linewidth.
    g_th_w_per_k and tau_th_s define the thermal link; heat capacity is their
    product.
    """

    f_r0_hz: float
    kappa_ext_hz: float
    kappa_int_hz: float
    tau_th_s: float
    g_th_w_per_k: float
    dfdt_hz_per_k: float
    t_bath_k: float
    p_nonlinear_dbm: float = -125.0

    def __post_init__(self) -> None:
        positive = {
            "f_r0_hz": self.f_r0_hz,
            "kappa_ext_hz": self.kappa_ext_hz,
            "tau_th_s": self.tau_th_s,
            "g_th_w_per_k": self.g_th_w_per_k,
            "t_bath_k": self.t_bath_k,
        }
        for name, value in positive.items():
            if not math.isfinite(value) or value <= 0.0:
                raise ValueError(f"{name} must be finite and > 0, got {value}")
        for name, value in (("kappa_int_hz", self.kappa_int_hz),
                            ("dfdt_hz_per_k", self.dfdt_hz_per_k)):
            if not math.isfinite(value) or value < 0.0:
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
        if not math.isfinite(self.p_nonlinear_dbm):
            raise ValueError("p_nonlinear_dbm must be finite")

    @property
    def kappa_total_hz(self) -> float:
        return self.kappa_ext_hz + self.kappa_int_hz

    @property
    def heat_capacity_j_per_k(self) -> float:
        return self.g_th_w_per_k * self.tau_th_s

    def state_at(self, t_e_k: float) -> "BolometerState":
        """State with the resonance consistent with electron temperature t_e_k."""
        if not math.isfinite(t_e_k) or t_e_k <= 0.0:
            raise ValueError(f"electron temperature must be finite and > 0, got {t_e_k}")
        if t_e_k < self.t_bath_k - 1e-12:
            raise ValueError(
                f"electron temperature {t_e_k} below bath {self.t_bath_k}; "
                "nothing in this model cools below the bath"
            )
        f_r = self.f_r0_hz - self.dfdt_hz_per_k * (t_e_k - self.t_bath_k)
        return BolometerState(t_e_k=t_e_k, f_r_hz=f_r)


@dataclass(frozen=True)
class BolometerState:
    """Instantaneous electron temperature and the resonance it implies.

    Build through BolometerParams.state_at so f_r_hz stays consistent with
    the linearized thermometry.
    """

    t_e_k: float
    f_r_hz: float


def _gamma(detuning_hz, kappa_ext_hz: float, kappa_int_hz: float):
    """Complex reflection at detuning f - f_r; floats or arrays alike."""
    return 1.0 - kappa_ext_hz / (0.5 * (kappa_ext_hz + kappa_int_hz) + 1j * detuning_hz)


def _absorbed_fraction(detuning_hz, kappa_ext_hz: float, kappa_int_hz: float):
    """1 - |Gamma|^2 = kappa_ext kappa_int / (detuning^2 + (kappa/2)^2).

    Non-negative exactly, and free of the cancellation in 1 - |Gamma|^2 far
    off resonance.  Floats or arrays alike.
    """
    half = 0.5 * (kappa_ext_hz + kappa_int_hz)
    return kappa_ext_hz * kappa_int_hz / (detuning_hz * detuning_hz + half * half)


def reflection_coefficient(params: BolometerParams, state: BolometerState, f_hz):
    """One-port reflection Gamma(f) of the resonator at the given state.

    Gamma = 1 - kappa_ext / (i (f - f_r) + (kappa_ext + kappa_int)/2), all
    rates in Hz.  |Gamma| <= 1 for any passive device (kappa_int >= 0); at
    critical coupling (kappa_ext == kappa_int) the on-resonance reflection
    vanishes.  Scalar in, scalar out; array in, array out.
    """
    ke, ki = params.kappa_ext_hz, params.kappa_int_hz
    if np.ndim(f_hz) == 0:
        return _gamma(float(f_hz) - state.f_r_hz, ke, ki)
    return _gamma(np.asarray(f_hz, dtype=float) - state.f_r_hz, ke, ki)


def absorbed_probe_power(params: BolometerParams, state: BolometerState,
                         f_p_hz: float, p_in_w: float) -> float:
    """Probe power dissipated in the device: p_in * (1 - |Gamma|^2)."""
    if not math.isfinite(p_in_w) or p_in_w < 0.0:
        raise ValueError(f"incident power must be finite and >= 0 W, got {p_in_w}")
    return p_in_w * _absorbed_fraction(f_p_hz - state.f_r_hz, params.kappa_ext_hz,
                                       params.kappa_int_hz)


def thermal_step(params: BolometerParams, state: BolometerState,
                 dt_s: float, p_abs_w: float) -> BolometerState:
    """Advance the electron temperature by dt_s under constant absorbed power.

    Single-pole model, integrated exactly:
    T(t+dt) = T_inf + (T - T_inf) exp(-dt/tau) with
    T_inf = t_bath + p_abs/g_th.  Exact integration makes the update a
    semigroup: two half steps equal one full step.
    """
    if not math.isfinite(dt_s) or dt_s < 0.0:
        raise ValueError(f"dt must be finite and >= 0 s, got {dt_s}")
    if not math.isfinite(p_abs_w) or p_abs_w < 0.0:
        raise ValueError(f"absorbed power must be finite and >= 0 W, got {p_abs_w}")
    t_inf = params.t_bath_k + p_abs_w / params.g_th_w_per_k
    t_new = t_inf + (state.t_e_k - t_inf) * math.exp(-dt_s / params.tau_th_s)
    return params.state_at(t_new)


@dataclass(frozen=True)
class OperatingPoint:
    """Self-consistent steady state under a CW probe tone.

    stable: the power-balance residual g_th (T - t_bath) - p_abs(T) rises
    through zero at t_star_k, so a small temperature excursion relaxes.
    multivalued: the balance has three distinct steady states (a folded,
    bistable response); t_star_k is the coolest.
    """

    t_star_k: float
    f_r_star_hz: float
    gamma: complex
    p_abs_w: float
    residual_w: float
    stable: bool
    multivalued: bool


def _lowest_cubic_root(a: float, b: float):
    """Lowest real root v of v (1 + (v + a)^2) = b (b >= 0).

    Returns (v, slope of the left side at v, three distinct real roots?).
    Closed form in w = v + 2a/3, then Newton until the step stops
    shrinking, which restores the accuracy the closed form loses in v when
    |a| is large.
    """
    p = 1.0 - a * a / 3.0
    half_q = -(a ** 3 / 27.0 + a / 3.0 + 0.5 * b)
    # 27 (half_q^2 + (p/3)^3), expanded so the a^6 terms cancel exactly
    disc27 = a ** 4 + a ** 3 * b + 2.0 * a * a + 9.0 * a * b + 1.0 + 6.75 * b * b
    three = disc27 < 0.0 and p < 0.0
    if three:
        m = math.sqrt(-p / 3.0)
        c = min(1.0, max(-1.0, 3.0 * half_q / (p * m)))
        w = 2.0 * m * math.cos((math.acos(c) + 2.0 * math.pi) / 3.0)
    else:
        # Cardano, with the cube roots' product -p/3 avoiding cancellation
        t = -half_q + math.copysign(math.sqrt(max(disc27, 0.0) / 27.0), -half_q)
        s1 = math.copysign(abs(t) ** (1.0 / 3.0), t)
        w = s1 - p / (3.0 * s1)
    v = max(w - 2.0 * a / 3.0, 0.0)
    last = math.inf
    for _ in range(32):
        step = (((v + 2.0 * a) * v + 1.0 + a * a) * v - b) / (
            (3.0 * v + 4.0 * a) * v + 1.0 + a * a)
        if not abs(step) < last:
            break
        v -= step
        last = abs(step)
    return v, (3.0 * v + 4.0 * a) * v + 1.0 + a * a, three


def solve_operating_point(params: BolometerParams, f_p_hz: float, p_probe_w: float,
                          extra_power_w: float = 0.0) -> OperatingPoint:
    """Solve the electrothermal steady state for a CW probe at f_p_hz.

    The detuning Delta = Delta0 + dfdt x is linear in x = T - t_bath, so
    the balance g_th x = p_probe kappa_ext kappa_int / (Delta^2 +
    (kappa/2)^2) + extra is, in u = Delta / (kappa/2), the cubic
    (u - a)(1 + u^2) = b with a = (Delta0 + extra dfdt / g_th) / (kappa/2)
    and b = p_probe kappa_ext kappa_int dfdt / (g_th (kappa/2)^3).  Every
    real root has u >= a, so every root is physical.  The lowest root is
    returned: the coolest steady state, which a probe switched on at the
    bath settles into.  extra_power_w is any constant additional load
    (e.g. a steady heater tone); dfdt == 0 makes the balance linear.

    multivalued is exact (three distinct real roots); stable is the sign
    of the residual slope at the root.  Raises SolverError only if the
    result is not finite.
    """
    if not math.isfinite(p_probe_w) or p_probe_w < 0.0:
        raise ValueError(f"probe power must be finite and >= 0 W, got {p_probe_w}")
    if not math.isfinite(extra_power_w) or extra_power_w < 0.0:
        raise ValueError(f"extra power must be finite and >= 0 W, got {extra_power_w}")

    ke, ki = params.kappa_ext_hz, params.kappa_int_hz
    half = 0.5 * (ke + ki)
    g_th, dfdt = params.g_th_w_per_k, params.dfdt_hz_per_k
    detuning0 = f_p_hz - params.f_r0_hz
    if dfdt == 0.0:
        x = (p_probe_w * _absorbed_fraction(detuning0, ke, ki) + extra_power_w) / g_th
        stable, multivalued = True, False
    else:
        a = (detuning0 + extra_power_w * dfdt / g_th) / half
        b = p_probe_w * _absorbed_fraction(0.0, ke, ki) * dfdt / (g_th * half)
        v, slope, multivalued = _lowest_cubic_root(a, b)
        x = v * half / dfdt + extra_power_w / g_th
        stable = slope > 0.0
    t_e = params.t_bath_k + x
    if not math.isfinite(t_e):
        raise SolverError(
            f"operating point is not finite (T = {t_e} K at f_p = {f_p_hz} Hz, "
            f"p_probe = {p_probe_w} W, extra = {extra_power_w} W)")

    state = params.state_at(t_e)
    p_abs = absorbed_probe_power(params, state, f_p_hz, p_probe_w) + extra_power_w
    return OperatingPoint(
        t_star_k=t_e,
        f_r_star_hz=state.f_r_hz,
        gamma=_gamma(f_p_hz - state.f_r_hz, ke, ki),
        p_abs_w=p_abs,
        residual_w=g_th * (t_e - params.t_bath_k) - p_abs,
        stable=stable,
        multivalued=multivalued,
    )
