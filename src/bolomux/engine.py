"""The time-domain engine: one plan, read by the thermal pass and the readout.

`_engine_plan` holds what every run on a chip shares, and is read-only once
built.  `_thermal_stage` solves a batch's every (run, channel) temperature
at each thermal step's start on the exact trajectory, in closed form;
`_relaxations` turns one run's into the per-step relaxations that
`_readout` reads, and `_readout` reads one run's demod band bins: its
tones Re(a Gamma(t) exp(2 pi i k_ch i / n)), Gamma on the exact
within-step relaxation at every digitizer sample, from a short Chebyshev
series in each step (_expanded_bins) or, where that converges too slowly,
sample by sample, and on a noisy chip the averaged noise, drawn in the
band: no digitizer-rate array for the tones or for the noise.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .device import SolverError, _absorption, _gamma, _lowest_cubic_root
from .dsp import _demod_band, _white_bins, _zoom_dft
from .units import dbm_to_watts, tone_amplitude_volts

if TYPE_CHECKING:
    from .config import ChipConfig, RunSettings

__all__: list[str] = []

# Gamma's Chebyshev expansion within one thermal step (see _expanded_bins): its
# order K, and the bound on its coefficients' ratio |beta| past which a step is
# summed sample by sample.  An expanded step's truncation error is at most 2
# |beta|^(K+1) / (1 - |beta|) <= 2 * 0.045^9 / 0.955, 1.6e-12 of |kappa_ext / g|.
_EXPANSION_ORDER = 8
_EXPANSION_BOUND = 0.045

# The thermal pass solves its step starts (see _thermal_stage) in chunks of
# about _CHUNK (row, step) elements, 64 kB an array, each to a Halley step of
# at most _STEP_TOL in w, which converges cubically: the step leaves it about
# _STEP_TOL^3 from the root, times the time equation's curvature.  A start
# that two passes from the asymptote leave above it is solved again,
# bracketed, in at most _BRACKETED_PASSES passes (bisection alone needs about 50).
_CHUNK = 8192
_STEP_TOL = 1e-5
_BRACKETED_PASSES = 100


class _Channels(NamedTuple):
    """Each channel's constants in a batch, every one a (channels, 1) column."""

    f_probe: np.ndarray         # probe tone frequency
    p_probe: np.ndarray         # probe tone power at the device, W
    f_r0: np.ndarray
    dfdt: np.ndarray
    t_bath: np.ndarray
    kappa_ext: np.ndarray
    kappa_int: np.ndarray
    g_th: np.ndarray
    decay: np.ndarray           # exp(-dt / tau_th), one thermal step's relaxation
    dt_tau: np.ndarray          # dt / tau_th, one thermal step in units of tau_th
    t_star: np.ndarray          # the operating point's temperature, where runs start

    def detuning(self, rise):
        """Probe tone minus resonance at a temperature rise above the bath."""
        return self.f_probe - (self.f_r0 - self.dfdt * rise)


class _EnginePlan(NamedTuple):
    """A batch's constants, planned once by _engine_plan."""

    n: int                      # record length
    steps: int                  # thermal steps
    decimation: int             # to the output rate
    sample_rate_hz: float
    pulse: slice                # the heater window's steps, [on:off)
    noise_scale: float          # sigma / sqrt(n_avg), 0.0 on a quiet chip
    channels: _Channels
    carrier_bins: np.ndarray    # (ch,) each probe tone's DFT bin
    offsets: np.ndarray         # band offsets around a carrier, shared by every channel
    fade: np.ndarray            # (ch, block) x^m, the within-step relaxation
    x0: np.ndarray              # (ch, 1) expansion point, the middle of x^m's range
    spread: np.ndarray          # (ch, 1) half x^m's range, max_m |x^m - x0|
    starts: np.ndarray          # (ch, 2, windows) first spectrum bin read per tone, term, window
    rotations: np.ndarray       # (ch, 2, windows, block) a/2 exp(-2 pi i starts m / n)
    table: np.ndarray           # (ch, 2, windows, K+1, width) the expansion's bin weights
    picks: np.ndarray           # (ch, 2, windows, K+1, width) flat indices into the step spectra


def _engine_plan(chip: ChipConfig, settings: RunSettings, operating) -> _EnginePlan:
    """The constants of every run on chip, each channel probed as operating_tones places it."""
    n, steps, block, decimation = settings.validate_against(chip)
    fs, n_ch, order = chip.sample_rate_hz, chip.n_channels, _EXPANSION_ORDER
    dt, start, (tones, ops) = settings.thermal_dt_s, settings.pulse_start_s, operating
    # edge steps are rounded: s*dt lies below a typical microsecond edge, and
    # flooring would delay each edge one step, making the stepping first order
    pulse = slice(round(start / dt), round((start + settings.pulse_duration_s) / dt))
    channels = _Channels(*(np.array(column)[:, None] for column in zip(*(
        (tone.f_hz, dbm_to_watts(tone.p_dbm), p.f_r0_hz, p.dfdt_hz_per_k, p.t_bath_k,
         p.kappa_ext_hz, p.kappa_int_hz, p.g_th_w_per_k, math.exp(-dt / p.tau_th_s),
         dt / p.tau_th_s, op.t_star_k)
        for tone, p, op in zip(tones, chip.bolometers, ops)))))
    planned = [_demod_band(n, fs, tone.f_hz, settings.demod_bandwidth_hz, decimation)
               for tone in tones]
    carrier_bins, offsets = np.array([k_c for k_c, _ in planned]), planned[0][1]
    width = offsets.size
    fade = np.exp(-np.arange(block) / (fs * np.array([[p.tau_th_s] for p in chip.bolometers])))
    x0, spread = 0.5 * (fade[:, :1] + fade[:, -1:]), 0.5 * (fade[:, :1] - fade[:, -1:])
    # window w holds bins k_w + offsets of the record; tone ch's Re(a Gamma
    # carrier) puts there a/2 times Gamma's spectrum at k_w - k_ch + offsets
    # (term 0) plus conj(Gamma)'s at k_w + k_ch + offsets (term 1, its image);
    # phases are integers reduced mod n, so exact at any record length
    starts = np.stack([carrier_bins - carrier_bins[:, None],
                       carrier_bins + carrier_bins[:, None]], axis=1) + offsets[0]
    half_amplitude = np.array([0.5 * tone_amplitude_volts(tone.p_dbm) for tone in tones])
    rotations = (half_amplitude[:, None, None, None]
                 * np.exp(-2j * np.pi / n * ((starts[..., None] % n) * np.arange(block) % n)))
    # table[..., k, j] = a/2 sum_m T_k(u_m) exp(-2 pi i (starts + j) m / n), u_m in [-1, 1]
    basis = np.ones((n_ch, order + 1, block))
    u = basis[:, 1] = np.divide(fade - x0, spread, out=np.zeros_like(fade), where=spread > 0.0)
    for k in range(2, order + 1):
        basis[:, k] = 2.0 * u * basis[:, k - 1] - basis[:, k - 2]
    table = _zoom_dft(basis[:, None, None] * rotations[:, :, :, None, :], n, width)
    # term 1 reads conj(Gamma)'s spectrum at q: the conjugate of Gamma's at -q
    q = (starts[..., None] + np.arange(width)) * np.array([1, -1])[:, None, None]
    picks = ((np.arange(n_ch)[:, None, None, None, None] * (order + 1)
              + np.arange(order + 1)[:, None]) * steps + (q % steps)[:, :, :, None, :])
    return _EnginePlan(n, steps, decimation, fs, pulse,
                       chip.noise_sigma_v / math.sqrt(settings.n_avg), channels, carrier_bins,
                       offsets, fade, x0, spread, starts, rotations, table, picks)


class _Flow(NamedTuple):
    """One heater segment's relaxation of R rows, each field an (R, 1) column.

    In the solver's u, with s = t/tau_th, du/ds = -Q(u)/(1 + u^2) (see
    _thermal_stage).  With the attractor u*, Q = (u - u*) q, q = v^2 + d, v =
    u + c1/2, c1 = u* - a, c0 = 1 + u* c1, d = c0 - c1^2/4, and

        (1 + u^2)/Q = r/(u - u*) + (B u + C)/q,   r = (1 + u*^2)/q(u*),
        B = 1 - r = 2 u* c1/q(u*),   C = c1 (u*^2 - 1)/q(u*),

    so with w = ln|x - x*| (x the rise above the bath, x* the attractor's,
    u - u* = rate e^w) the time to w is s(w) = base - r w - P(u), base = r w0
    + P(u0), P = B/2 ln q + K int du/q, K = C - B c1/2.  int du/q, with sig
    the sign of v at the start and y = sig v, is -sig atan2(sqrt d, y)/sqrt d
    for a complex pair (continuous where a run crawls past a fold's ghost, v
    = 0), -sig artanh(sqrt(-d)/y)/sqrt(-d) for a real pair, which the run
    never passes, and -sig/y at d = 0: P = half_b ln q + coef j(y).
    """

    r: np.ndarray
    half_b: np.ndarray          # B/2
    coef: np.ndarray            # -sig K / sqrt|d|, -sig K where d == 0
    u_star: np.ndarray
    rate: np.ndarray            # du/dx, signed by the start's side: u = u* + rate e^w
    shift: np.ndarray           # c1/2
    d: np.ndarray
    root_d: np.ndarray          # sqrt|d|
    sig: np.ndarray
    real_pair: np.ndarray       # d < 0
    double_pair: np.ndarray     # d == 0
    base: np.ndarray
    w0: np.ndarray              # the start's w
    w_cut: np.ndarray           # past it a temperature rounds to the attractor's
    s_cut: np.ndarray           # the time w reaches w_cut
    x_star: np.ndarray
    side: np.ndarray            # the sign of x - x*


def _angle(f: _Flow, y):
    """j(y) (see _Flow), in place: atan2(sqrt d, y), artanh(sqrt(-d)/y) or 1/y."""
    real, double = f.real_pair.any(), f.double_pair.any()
    if not (real or double):
        return np.arctan2(f.root_d, y, out=y)
    with np.errstate(all="ignore"):
        j = np.where(f.real_pair, np.arctanh(f.root_d / y), np.arctan2(f.root_d, y))
        np.copyto(y, np.where(f.double_pair, 1.0 / y, j))
    return y


def _pair_term(f: _Flow, u):
    """P(u) (see _Flow), with v and q(u)."""
    v = u + f.shift
    q = v * v
    q += f.d
    p = _angle(f, np.multiply(f.sig, v))
    p *= f.coef
    t = np.log(q)
    t *= f.half_b
    p += t
    return p, v, q


def _flow(c: _Channels, x0, heat) -> _Flow:
    """The relaxation from rise x0 under heat (W), per row of c's (R,) columns.

    Raises SolverError where the attractor is a double root of Q (q(u*) = 0)
    or a root of q lies between the start and u*."""
    half = 0.5 * (c.kappa_ext + c.kappa_int)
    rate, lift = c.dfdt / half, heat / c.g_th
    beta = c.p_probe * _absorption(c.kappa_ext, c.kappa_int)(0.0) / c.g_th
    a, b = (c.f_probe - c.f_r0) / half + rate * lift, beta * rate
    # of three real roots (a fold's double root twice) the attractor is the one
    # on u0's side of the middle one; Q / (u - u1) = u^2 + v1 u + 1 + u1 v1
    # gives the other two.  A double root's 0/0 step fails the check below
    with np.errstate(all="ignore"):
        v1, _, three = _lowest_cubic_root(a, b)
        u1, u0 = a + v1, a + rate * (x0 - lift)
        gap = np.sqrt(np.maximum(0.25 * v1 * v1 - 1.0 - u1 * v1, 0.0))
        upper = three & (u0 > -0.5 * v1 - gap)
        v = np.where(upper, gap - 0.5 * v1 - a, v1)
        for _ in range(3):          # polish the upper root as _lowest_cubic_root polishes v1
            v = np.where(upper, v - (v * (1.0 + (v + a) ** 2) - b)
                         / ((3.0 * v + 4.0 * a) * v + 1.0 + a * a), v)
    # with c1 = u* - a = v (no cancellation), c0 = 1 + u* v and q(u*) = Q'(u*)
    u_star = a + v
    q_star = u_star * (u_star + 2.0 * v) + 1.0
    x_star = lift + beta / (1.0 + u_star * u_star)
    x_gap, shift = x0 - x_star, 0.5 * v
    d = 1.0 + u_star * v - shift * shift
    sig = np.where(u0 + shift >= 0.0, 1.0, -1.0)
    clear = (d > 0.0) | ((sig * (u_star + shift) > 0.0) & ((u0 + shift) ** 2 + d > 0.0))
    if not np.all((q_star > 0.0) & clear):
        raise SolverError("a heater segment relaxes onto a double root of the power balance "
                          "(a fold), where the relaxation is not exponential")
    root_d, k = np.sqrt(np.abs(d)), v * (u_star * u_star - 1.0 - v * u_star) / q_star
    w_cut = np.log(0.25 * np.spacing(c.t_bath + x_star))
    with np.errstate(divide="ignore"):
        w0 = np.maximum(np.log(np.abs(x_gap)), w_cut)
    f = _Flow(**{name: value[:, None] for name, value in dict(
        r=(1.0 + u_star * u_star) / q_star, half_b=u_star * v / q_star,
        coef=-sig * k / np.where(d == 0.0, 1.0, root_d), u_star=u_star,
        rate=np.sign(x_gap) * rate, shift=shift, d=d, root_d=root_d, sig=sig,
        real_pair=d < 0.0, double_pair=d == 0.0, base=w0, w0=w0, w_cut=w_cut, s_cut=w_cut,
        x_star=x_star, side=np.sign(x_gap)).items()})
    # base and s_cut stand in until P can be evaluated
    base = f.r * f.w0 + _pair_term(f, f.u_star + f.rate * np.exp(f.w0))[0]
    s_cut = base - f.r * f.w_cut - _pair_term(f, f.u_star + f.rate * np.exp(f.w_cut))[0]
    return f._replace(base=base, s_cut=np.where(f.w0 > f.w_cut, s_cut, 0.0))


def _halley(f: _Flow, w, aim):
    """g(w) = s - s(w) = r w + P(u) + aim at every w (aim = s - base), and Halley's
    step toward g's root, which is increasing in w."""
    e = np.exp(w)
    e *= f.rate                 # u - u*
    u = e + f.u_star
    g, v, q = _pair_term(f, u)
    g += f.r * w
    g += aim
    # g' = (1 + u^2)/q and g''/(2 g') = (u - u*) (u/(1 + u^2) - v/q)
    uu = u * u
    uu += 1.0
    newton = g * q
    newton /= uu
    u /= uu
    v /= q
    u -= v
    u *= e
    u *= newton
    np.subtract(1.0, u, out=u)
    newton /= u
    return g, newton


def _bracketed(f: _Flow, s, w):
    """w at elapsed times s where Halley from w did not settle: Halley kept to a
    bracket of the root, which bisects whenever a step leaves it."""
    aim = s - f.base
    lo, hi = f.w_cut + 0.0 * s, f.w0 + 0.0 * s
    w, done = np.clip(w, lo, hi), np.zeros(s.shape, dtype=bool)
    for _ in range(_BRACKETED_PASSES):
        g, step = _halley(f, w, aim)
        lo, hi = np.where(g < 0.0, w, lo), np.where(g > 0.0, w, hi)
        stop = (np.abs(step) <= _STEP_TOL) | (hi - lo <= 4.0 * np.spacing(np.abs(w)))
        new = w - step
        new = np.where(stop | ((new > lo) & (new < hi)), new, 0.5 * (lo + hi))
        w, done = np.where(done, w, new), done | stop
        if done.all():
            break
    return w


def _solve(f: _Flow, s):
    """w at elapsed times s (R, C): Halley from the asymptote w = (base - P(u*) -
    s)/r until its step is at most _STEP_TOL, in at most two passes, then
    _bracketed for a time whose step is still above it (or not finite)."""
    aim, p_inf = s - f.base, _pair_term(f, f.u_star)[0]
    w = np.add(aim, p_inf)
    w /= -f.r
    with np.errstate(all="ignore"):
        _, step = _halley(f, w, aim)
        w -= step
        settled = np.abs(step) <= _STEP_TOL
        if not settled.all():
            _, step = _halley(f, w, aim)
            np.subtract(w, step, out=w, where=~settled)
            settled |= np.abs(step) <= _STEP_TOL
        if not settled.all():
            rows, cols = np.nonzero(~settled)
            guess = -(aim[rows, cols, None] + p_inf[rows]) / f.r[rows]
            w[rows, cols] = _bracketed(f._make(x[rows] for x in f), s[rows, cols, None],
                                       guess)[:, 0]
    return w


def _relax(temps, lo: int, hi: int, c: _Channels, heat) -> None:
    """Fill temps[:, lo + 1:hi + 1]: each row relaxes from temps[:, lo] for hi - lo
    steps under heat (W), c holding the rows' (R,) columns."""
    f = _flow(c, temps[:, lo] - c.t_bath, heat)
    t_end = (c.t_bath + f.x_star[:, 0])[:, None]
    width = max(1, _CHUNK // len(temps))
    for k in range(1, hi - lo + 1, width):
        ks = np.arange(k, min(k + width, hi - lo + 1))
        live = np.flatnonzero(f.s_cut[:, 0] > k * c.dt_tau)
        if live.size < len(temps):  # a row whose start rounds to its attractor is it
            temps[:, lo + k:hi + 1 if live.size == 0 else lo + ks[-1] + 1] = t_end
            if live.size == 0:
                return
        g = f if live.size == len(temps) else f._make(x[live] for x in f)
        s = c.dt_tau[live, None] * ks
        t = np.exp(_solve(g, s))
        t *= g.side
        t += g.x_star
        np.add(c.t_bath[live, None], t, out=t)
        np.copyto(t, t_end[live], where=s >= g.s_cut)
        if live.size == len(temps):
            temps[:, lo + k:lo + ks[-1] + 1] = t
        else:
            temps[live, lo + k:lo + ks[-1] + 1] = t


def _thermal_stage(plan: _EnginePlan, heater_w: np.ndarray) -> np.ndarray:
    """Every (run, channel) temperature at each thermal step's start and at the
    record's end, (runs, channels, steps + 1), under a (runs, channels) heater
    power on for the plan's pulse: the exact trajectory, not a stepped one.

    Between heater edges the heater power is constant, so in the solver's u
    (device._steady_state; a takes the segment's heater power) the thermal
    equation is du/dt = -(1/tau_th) Q(u)/(1 + u^2), Q(u) = (u - a)(1 + u^2) -
    b.  A row relaxes onto its attractor u*, Q's one real root or of three the
    one on its side of the middle one, and partial fractions over Q's roots
    give the elapsed time in closed form (_Flow), which is inverted at every
    step start (_solve).  A row without heat stays at its operating point,
    and a start that rounds to its attractor is it.  An attractor at an exact
    double root of Q (a fold, where the relaxation is algebraic) raises
    SolverError; every other row converges, and no start is NaN.  Each
    (row, step) is solved alone, so no start depends on the batch.
    """
    runs, n_ch = heater_w.shape
    temps = np.empty((runs * n_ch, plan.steps + 1))
    temps[:] = np.tile(plan.channels.t_star[:, 0], runs)[:, None]
    heat = heater_w.ravel()
    rows = np.flatnonzero(heat > 0.0)
    if rows.size:
        heated = temps if rows.size == len(temps) else temps[rows]
        c = plan.channels._make(column[rows % n_ch, 0] for column in plan.channels)
        _relax(heated, plan.pulse.start, plan.pulse.stop, c, heat[rows])
        _relax(heated, plan.pulse.stop, plan.steps, c, 0.0)
        if heated is not temps:
            temps[rows] = heated
    return temps.reshape(runs, n_ch, plan.steps + 1)


def _relaxations(plan: _EnginePlan, temps: np.ndarray):
    """One run's (channels, steps + 1) temperatures from _thermal_stage as
    _readout's (t_start, t_inf): each step relaxes exponentially from its start
    toward t_inf and ends where the trajectory does."""
    t_start = temps[:, :-1]
    return t_start, t_start + np.diff(temps) / (1.0 - plan.channels.decay)


def _expanded_bins(plan: _EnginePlan, det_inf: np.ndarray, drive: np.ndarray):
    """The window bins of every step Gamma's expansion covers, and the steps it does not.

    Within step s, with z = kappa/2 + i (det_inf + drive x0), c = drive spread and
    u = (x^m - x0) / spread, Gamma = 1 - kappa_ext / (z + i c u) = sum_k C[k] T_k(u),
    where g = sqrt(z^2 + c^2) (principal branch), beta = -i c / (z + g) (|beta| <=
    1), C[0] = 1 - kappa_ext/g and C[k] = -2 (kappa_ext/g) beta^k.  The steps whose
    |beta| passes _EXPANSION_BOUND are left out (their C zeroed).  A spectrum bin q
    is sum_k FFT_steps(C[k])[q mod steps] times the plan's table.  Returns the
    (windows, width) bins and the (ch, steps) mask of the steps left out.
    """
    (n_ch, steps), ke, ki = det_inf.shape, plan.channels.kappa_ext, plan.channels.kappa_int
    coeffs = np.empty((n_ch, _EXPANSION_ORDER + 1, steps), dtype=complex)
    z, c = 0.5 * (ke + ki) + 1j * (det_inf + drive * plan.x0), plan.spread * drive
    g = np.sqrt(z * z + c * c)
    beta = -1j * c / (z + g)
    dense = np.abs(beta) > _EXPANSION_BOUND
    scale = np.divide(ke, g, out=coeffs[:, 0])
    np.multiply(scale, -2.0 * beta, out=coeffs[:, 1])
    for k in range(2, _EXPANSION_ORDER + 1):
        np.multiply(coeffs[:, k - 1], beta, out=coeffs[:, k])
    np.subtract(1.0, scale, out=coeffs[:, 0])
    coeffs.transpose(0, 2, 1)[dense] = 0.0
    del z, c, g, beta, scale        # made after coeffs, so the picked spectra reuse them
    picked = np.take(np.fft.fft(coeffs, axis=-1, out=coeffs), plan.picks)
    del coeffs                      # freed before the contraction's buffer
    np.conjugate(picked[:, 1], out=picked[:, 1])
    return np.einsum("ctwkj,ctwkj->wj", plan.table, picked), dense


def _dense_bins(plan: _EnginePlan, det_inf: np.ndarray, drive: np.ndarray,
                dense: np.ndarray) -> np.ndarray:
    """The window bins of the (channel, step) pairs dense marks, each step summed
    over its own samples."""
    ke, ki = plan.channels.kappa_ext, plan.channels.kappa_int
    rows, s = np.nonzero(dense)
    gamma = _gamma(drive[rows, s, None] * plan.fade[rows] + det_inf[rows, s, None],
                   ke[rows], ki[rows])
    steps, width = det_inf.shape[1], plan.offsets.size
    sums = _zoom_dft(np.stack([gamma, gamma.conj()], axis=1)[:, :, None, :]
                     * plan.rotations[rows], plan.n, width)
    # step s starts s * block samples in: bin starts + j takes the phase
    # exp(-2 pi i (starts + j) s / steps)
    return np.einsum(
        "rtwj,rtw,rj->wj", sums,
        np.exp(-2j * np.pi / steps * (plan.starts[rows] * s[:, None, None] % steps)),
        np.exp(-2j * np.pi / steps * (np.outer(s, np.arange(width)) % steps)))


def _readout(plan: _EnginePlan, t_start: np.ndarray, t_inf_of: np.ndarray, rng) -> np.ndarray:
    """The record's DFT over every channel's band window, (windows, width), from
    one run's (channels, steps) trajectories: Gamma's per-step expansion
    (_expanded_bins), the steps it leaves out (_dense_bins) and on a noisy
    chip the mean of n_avg noise records, a white record of std noise_scale
    whose window bins are drawn from rng in the band (_white_bins); on a
    quiet chip rng is None.
    """
    c = plan.channels
    det_inf, drive = c.detuning(t_inf_of - c.t_bath), c.dfdt * (t_start - t_inf_of)
    bands, dense = _expanded_bins(plan, det_inf, drive)
    if dense.any():
        bands += _dense_bins(plan, det_inf, drive, dense)
    if rng is not None:
        bands += _white_bins(rng, plan.carrier_bins[:, None] + plan.offsets, plan.n,
                             plan.noise_scale)
    return bands
