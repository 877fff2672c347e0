"""Single-channel bolometer model: resonator reflection and thermal state.

The device is a one-port resonant circuit whose resonance frequency is a
linear function of the electron temperature of a normal-metal absorber, plus
a single-pole thermal model for that temperature.  Probe power absorbed in
the resonator heats the absorber, which moves the resonance, which changes
the absorption: the electrothermal feedback loop whose steady state
`_steady_state` solves.

`_gamma` and `_absorption` are the one copy of the reflection and
absorption arithmetic; the solver and the time-domain engine both use them.
`_steady_state` is the one steady-state kernel: it solves a whole array of
probe frequencies, powers and extra loads per call, which is how the probe
and heater sweeps use it, and :func:`solve_operating_point` is its 0-d case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BolometerParams",
    "OperatingPoint",
    "SolverError",
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
    g_th_w_per_k and tau_th_s define the thermal link.
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


def _gamma(detuning_hz, kappa_ext_hz, kappa_int_hz):
    """Complex reflection at detuning f - f_r; floats or arrays alike.

    Gamma = 1 - kappa_ext / (i (f - f_r) + (kappa_ext + kappa_int)/2), all
    rates in Hz; |Gamma| <= 1 for any passive device (kappa_int >= 0).
    """
    return 1.0 - kappa_ext_hz / (0.5 * (kappa_ext_hz + kappa_int_hz) + 1j * detuning_hz)


def _absorption(kappa_ext_hz, kappa_int_hz):
    """detuning -> 1 - |Gamma|^2 = kappa_ext kappa_int / (detuning^2 + (kappa/2)^2), its
    detuning-free terms computed once.  Non-negative exactly, and free of the
    cancellation in 1 - |Gamma|^2 far off resonance.  Floats or arrays alike."""
    half = 0.5 * (kappa_ext_hz + kappa_int_hz)
    product, half_sq = kappa_ext_hz * kappa_int_hz, half * half
    return lambda detuning_hz: product / (detuning_hz * detuning_hz + half_sq)


@dataclass(frozen=True)
class OperatingPoint:
    """Self-consistent steady state under a CW probe tone.

    t_star_k is the coolest root of the power balance g_th (T - t_bath) =
    p_abs(T), the state a probe switched on at the bath settles into.  The
    residual is <= 0 at the bath, so it rises through zero there (or touches
    it at a fold) and a small temperature excursion relaxes.
    multivalued: the balance has three distinct steady states (a folded,
    bistable response).
    """

    t_star_k: float
    f_r_star_hz: float
    gamma: complex
    multivalued: bool


def _lowest_cubic_root(a, b):
    """Lowest real root v of v (1 + (v + a)^2) = b (b >= 0), elementwise.

    Returns arrays (v, three distinct real roots?, three real roots with a
    fold's double root counted twice?).  The left side is 0 at v = 0, so it
    rises through b at this root.  Closed form in w = v + 2a/3, the
    trigonometric branch where all roots are real, else Cardano's, then Newton
    until the step stops shrinking, which restores the accuracy the closed
    form loses in v when |a| is large.  Each element stops at its own first
    non-shrinking step.  Call under np.errstate: the branch not taken may
    divide by zero.
    """
    p = 1.0 - a * a / 3.0
    half_q = -(a ** 3 / 27.0 + a / 3.0 + 0.5 * b)
    # 27 (half_q^2 + (p/3)^3), expanded so the a^6 terms cancel exactly
    disc27 = a ** 4 + a ** 3 * b + 2.0 * a * a + 9.0 * a * b + 1.0 + 6.75 * b * b
    three = (disc27 <= 0.0) & (p < 0.0)
    m = np.sqrt(-p / 3.0)
    c = np.minimum(1.0, np.maximum(-1.0, 3.0 * half_q / (p * m)))
    w_three = 2.0 * m * np.cos((np.arccos(c) + 2.0 * np.pi) / 3.0)
    # Cardano, with the cube roots' product -p/3 avoiding cancellation
    t = -half_q + np.copysign(np.sqrt(np.maximum(disc27, 0.0) / 27.0), -half_q)
    s1 = np.copysign(abs(t) ** (1.0 / 3.0), t)
    # [()] turns np.where's 0-d result back into a numpy scalar, whose
    # arithmetic is several times cheaper; arrays pass through unchanged
    v = np.maximum(np.where(three, w_three, s1 - p / (3.0 * s1))[()] - 2.0 * a / 3.0, 0.0)
    # a stopped element never restarts, so `last` need only be right for
    # the elements still going
    last, going = np.inf, True
    for _ in range(32):
        step = (((v + 2.0 * a) * v + 1.0 + a * a) * v - b) / (
            (3.0 * v + 4.0 * a) * v + 1.0 + a * a)
        going = going & (abs(step) < last)
        if not going.any():
            break
        v = np.where(going, v - step, v)[()]
        last = abs(step)
    return v, three & (disc27 < 0.0), three


def _steady_state(params: BolometerParams, f_p_hz, p_probe_w, extra_power_w=0.0):
    """Coolest electrothermal steady state, elementwise over all three inputs.

    The detuning Delta = Delta0 + dfdt x is linear in x = T - t_bath, so
    the balance g_th x = p_probe kappa_ext kappa_int / (Delta^2 +
    (kappa/2)^2) + extra is, in u = Delta / (kappa/2), the cubic
    (u - a)(1 + u^2) = b with a = (Delta0 + extra dfdt / g_th) / (kappa/2)
    and b = p_probe kappa_ext kappa_int dfdt / (g_th (kappa/2)^3).  Every
    real root has u >= a, so every root is physical; the lowest is the
    steady state a probe switched on at the bath settles into.  dfdt == 0
    makes the balance linear.

    The inputs broadcast, each cell's root and Newton stop its own, so a
    (powers, 1) x (freqs) grid in one call is one call per power, bit for
    bit.  Returns arrays (t_e, f_r, gamma, multivalued), gamma being the
    reflection at f_p in that state; a cell whose temperature is not finite
    is NaN in t_e, f_r and gamma and False in multivalued.
    """
    p_probe, extra = np.asarray(p_probe_w, dtype=float), np.asarray(extra_power_w, dtype=float)
    for name, value, given in (("probe", p_probe, p_probe_w), ("extra", extra, extra_power_w)):
        if not (np.isfinite(value) & (value >= 0.0)).all():
            raise ValueError(f"{name} power must be finite and >= 0 W, got {given}")

    ke, ki = params.kappa_ext_hz, params.kappa_int_hz
    half, absorbed = 0.5 * (ke + ki), _absorption(ke, ki)
    g_th, dfdt = params.g_th_w_per_k, params.dfdt_hz_per_k
    f_p = np.asarray(f_p_hz, dtype=float)
    with np.errstate(all="ignore"):
        if dfdt == 0.0:
            x = (p_probe * absorbed(f_p - params.f_r0_hz) + extra) / g_th
            multivalued = np.full(np.shape(x), False)
        else:
            a = (f_p - params.f_r0_hz + extra * dfdt / g_th) / half
            b = p_probe * absorbed(0.0) * dfdt / (g_th * half)
            v, multivalued, _ = _lowest_cubic_root(a, b)
            x = v * half / dfdt + extra / g_th
        t_e = params.t_bath_k + x
        ok = np.isfinite(t_e)
        t_e = np.where(ok, t_e, np.nan)
        f_r = params.f_r0_hz - dfdt * (t_e - params.t_bath_k)
        gamma = _gamma(f_p - f_r, ke, ki)
    return t_e, f_r, gamma, multivalued & ok


def solve_operating_point(params: BolometerParams, f_p_hz: float, p_probe_w: float,
                          extra_power_w: float = 0.0) -> OperatingPoint:
    """Solve the electrothermal steady state for a CW probe at f_p_hz.

    The 0-d case of `_steady_state`, which documents the balance.
    extra_power_w is any constant additional load (e.g. a steady heater
    tone).  multivalued is exact (three distinct real roots).  Raises
    SolverError only if the result is not finite.
    """
    t_e, f_r, _, multivalued = _steady_state(params, f_p_hz, p_probe_w, extra_power_w)
    t_e, f_r = float(t_e), float(f_r)
    if math.isnan(t_e):
        raise SolverError(
            f"operating point is not finite (at f_p = {f_p_hz} Hz, "
            f"p_probe = {p_probe_w} W, extra = {extra_power_w} W)")
    # Python floats from here, so gamma is a Python complex
    return OperatingPoint(
        t_star_k=t_e,
        f_r_star_hz=f_r,
        gamma=_gamma(float(f_p_hz) - f_r, params.kappa_ext_hz, params.kappa_int_hz),
        multivalued=bool(multivalued),
    )
