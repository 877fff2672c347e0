"""Fitting and reduction of simulated readout data.

The least-squares core is a damped Gauss-Newton iteration with a
Levenberg-style lambda schedule (start 1e-3, x10 on a rejected step, /10 on
an accepted one) and analytic Jacobians; 1-sigma parameter uncertainties
come from the scaled inverse normal matrix at the optimum.  Each public fit
front-end rescales its problem to O(1) internally so the normal equations
stay well conditioned across the twelve decades separating watts from
megahertz.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .units import watts_to_dbm

__all__ = [
    "FitError",
    "LorentzianFit",
    "CrosstalkMatrix",
    "fit_lorentzian",
    "fit_compression",
    "crosstalk_matrix",
    "snr_table",
    "capacity_estimate",
]


class FitError(RuntimeError):
    """Fit rejected: degenerate input, no convergence, or unidentifiable model."""


_LAMBDA0 = 1e-3
_LAMBDA_MAX = 1e12
_REL_STEP_TOL = 1e-8
_MAX_ITER = 200


def _lm_least_squares(model, jacobian, x, y, p0):
    """Minimize ||y - model(x, p)||^2; returns (p, perr, residual_norm).

    model(x, p) -> values, jacobian(x, p) -> (N, P) array of d model/d p_j.
    Raises FitError on non-convergence within the iteration budget.
    """
    p = np.asarray(p0, dtype=float)
    resid = y - model(x, p)
    cost = float(resid @ resid)
    if not math.isfinite(cost):
        raise FitError("initial guess produces non-finite residuals")
    lam = _LAMBDA0
    converged = False
    for _ in range(_MAX_ITER):
        jac = jacobian(x, p)
        jtj = jac.T @ jac
        grad = jac.T @ resid
        damp = np.diag(jtj).copy()
        damp[damp <= 0.0] = 1.0
        stepped = False
        while lam <= _LAMBDA_MAX:
            try:
                dp = np.linalg.solve(jtj + lam * np.diag(damp), grad)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            p_try = p + dp
            resid_try = y - model(x, p_try)
            cost_try = float(resid_try @ resid_try)
            if math.isfinite(cost_try) and cost_try <= cost:
                # callers scale parameters to O(1); the 1e-3 floor keeps the
                # step test meaningful for parameters that are genuinely zero
                rel = float(np.max(np.abs(dp) / np.maximum(np.abs(p_try), 1e-3)))
                p, resid, cost = p_try, resid_try, cost_try
                lam = max(lam / 10.0, 1e-15)
                stepped = True
                if rel < _REL_STEP_TOL:
                    converged = True
                break
            lam *= 10.0
        if not stepped:
            # no downhill step exists at any damping: gradient is zero to
            # machine precision, accept the current point
            converged = True
        if converged:
            break
    if not converged:
        raise FitError(f"no convergence after {_MAX_ITER} iterations (cost {cost:.3e})")

    jac = jacobian(x, p)
    jtj = jac.T @ jac
    dof = max(len(np.asarray(y)) - p.size, 1)
    s2 = cost / dof
    try:
        cov = s2 * np.linalg.inv(jtj)
    except np.linalg.LinAlgError:
        cov = s2 * np.linalg.pinv(jtj)
    perr = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    return p, perr, math.sqrt(cost)


def _check_xy(x, y, min_points: int, what: str):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or y.ndim != 1 or x.size != y.size:
        raise ValueError(f"{what}: x and y must be 1-d arrays of equal length")
    if x.size < min_points:
        raise ValueError(f"{what}: need at least {min_points} points, got {x.size}")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError(f"{what}: inputs must be finite")
    return x, y


def _median(values: np.ndarray) -> float:
    """np.median of a 1-d array, bit for bit, without the numpy.ma import it costs."""
    ordered, mid = np.sort(values), values.size // 2
    return float(ordered[mid] if values.size % 2 else 0.5 * (ordered[mid - 1] + ordered[mid]))


def _flat(y: np.ndarray) -> bool:
    span = float(np.max(y) - np.min(y))
    return span <= 1e-12 * max(float(np.max(np.abs(y))), 1e-300)


@dataclass(frozen=True)
class LorentzianFit:
    """Dip fit m(f) = offset - depth / (1 + (2 (f - f_r)/fwhm)^2)."""

    f_r_hz: float
    fwhm_hz: float
    depth: float
    offset: float
    f_r_err_hz: float
    fwhm_err_hz: float


def fit_lorentzian(f_hz, magnitude) -> LorentzianFit:
    """Fit a Lorentzian dip to a swept-frequency magnitude trace.

    Initial guesses: dip position from the minimum sample, depth against a
    baseline taken from the upper quartile, width from the second moment of
    the baseline-subtracted dip.  Flat data and statistically insignificant
    dips (depth < 3 sigma) are rejected with FitError.
    """
    f, y = _check_xy(f_hz, magnitude, 5, "lorentzian fit")
    if _flat(y):
        raise FitError("no dip: data are flat, depth indistinguishable from zero")

    order = np.argsort(f)
    f, y = f[order], y[order]
    offset0 = float(np.mean(np.sort(y)[-max(1, y.size // 4):]))
    i_min = int(np.argmin(y))
    f_r0 = float(f[i_min])
    depth0 = offset0 - float(y[i_min])
    if depth0 <= 0.0:
        raise FitError("no dip: minimum not below the baseline")
    w = np.clip(offset0 - y, 0.0, None)
    wsum = float(np.sum(w))
    if wsum > 0.0:
        fwhm0 = 2.0 * math.sqrt(float(np.sum(w * (f - f_r0) ** 2)) / wsum)
    else:
        fwhm0 = 0.0
    span = float(f[-1] - f[0])
    if not math.isfinite(fwhm0) or fwhm0 <= 0.0:
        fwhm0 = span / 4.0

    # scaled problem: frequencies in units of fscale around f_r0, magnitudes
    # in units of yscale, so all four parameters are O(1)
    fscale = max(fwhm0, span / 100.0)
    yscale = float(np.max(np.abs(y)))
    xs = (f - f_r0) / fscale
    ys = y / yscale

    def model(x, p):
        df, wid, dep, off = p
        u = 2.0 * (x - df) / wid
        return off - dep / (1.0 + u * u)

    def jac(x, p):
        df, wid, dep, off = p
        u = 2.0 * (x - df) / wid
        l = 1.0 / (1.0 + u * u)
        l2 = l * l
        d_df = -4.0 * dep * u * l2 / wid
        d_wid = -2.0 * dep * u * u * l2 / wid
        d_dep = -l
        d_off = np.ones_like(x)
        return np.column_stack([d_df, d_wid, d_dep, d_off])

    p0 = np.array([0.0, fwhm0 / fscale, depth0 / yscale, offset0 / yscale])
    p, perr, _ = _lm_least_squares(model, jac, xs, ys, p0)
    df, wid, dep, off = p
    wid, dep = abs(wid), float(dep)
    if dep <= 0.0 or dep < 3.0 * perr[2]:
        raise FitError("depth indistinguishable from zero")
    return LorentzianFit(
        f_r_hz=f_r0 + df * fscale,
        fwhm_hz=wid * fscale,
        depth=dep * yscale,
        offset=float(off) * yscale,
        f_r_err_hz=float(perr[0]) * fscale,
        fwhm_err_hz=float(perr[1]) * fscale,
    )


@dataclass(frozen=True)
class _ExponentialFit:
    """Decay fit v(t) = offset + amplitude * exp(-t/tau)."""

    tau_s: float
    amplitude: float
    offset: float
    tau_err_s: float
    amplitude_err: float
    offset_err: float
    residual_norm: float


def _fit_exponential(t_s, values) -> _ExponentialFit:
    """Fit a single exponential relaxation toward a constant offset.

    The offset guess is the tail mean; amplitude and tau come from a
    log-linear regression of the baseline-subtracted data.  Constant input
    (or input with no resolvable decay) raises FitError.
    """
    t, y = _check_xy(t_s, values, 4, "exponential fit")
    if _flat(y):
        raise FitError("no decay: data are constant")
    order = np.argsort(t)
    t, y = t[order], y[order]

    n_tail = max(2, y.size // 10)
    offset0 = float(np.mean(y[-n_tail:]))
    resid0 = y - offset0
    n_head = max(2, y.size // 10)
    head = float(np.mean(resid0[:n_head]))
    if abs(head) <= 1e-12 * max(float(np.max(np.abs(y))), 1e-300):
        raise FitError("no decay: start and tail levels coincide")
    sign = 1.0 if head > 0 else -1.0
    z = sign * resid0
    keep = z > max(float(np.max(z)), 0.0) * 1e-3
    if int(np.count_nonzero(keep)) < 3:
        raise FitError("no decay: too few points above the tail level")
    slope, intercept = np.polyfit(t[keep], np.log(z[keep]), 1)
    if slope >= 0.0:
        raise FitError("no decay: signal does not relax toward the tail")
    tau0 = -1.0 / slope
    amp0 = sign * math.exp(intercept)

    tscale = float(t[-1] - t[0])
    if tscale <= 0.0:
        raise ValueError("exponential fit: time axis has zero span")
    yscale = float(np.max(np.abs(y)))
    ts = (t - t[0]) / tscale
    ys = y / yscale
    # amplitude referenced to t[0] in the scaled frame
    amp0_s = amp0 * math.exp(-t[0] / tau0) / yscale
    tau0_s = tau0 / tscale

    def model(x, p):
        tau, amp, off = p
        return off + amp * np.exp(-x / tau)

    def jac(x, p):
        tau, amp, off = p
        e = np.exp(-x / tau)
        return np.column_stack([amp * e * x / tau ** 2, e, np.ones_like(x)])

    p0 = np.array([tau0_s, amp0_s, offset0 / yscale])
    p, perr, rnorm = _lm_least_squares(model, jac, ts, ys, p0)
    tau, amp, off = p
    if tau <= 0.0:
        raise FitError("fitted time constant is not positive")
    tau_s = tau * tscale
    return _ExponentialFit(
        tau_s=tau_s,
        amplitude=float(amp * yscale * math.exp(t[0] / tau_s)),
        offset=float(off) * yscale,
        tau_err_s=float(perr[0]) * tscale,
        amplitude_err=float(perr[1]) * yscale,
        offset_err=float(perr[2]) * yscale,
        residual_norm=rnorm * yscale,
    )


_P_1DB_FACTOR = 10.0 ** (1.0 / 20.0) - 1.0  # P_1dB = factor * p_sat for the hyperbolic model


def fit_compression(p_w, response) -> float:
    """Fit the gain compression r(P) = A P / (1 + P/p_sat); return the 1 dB point in dBm.

    The 1 dB point is the input power where the response has dropped 1 dB
    below the small-signal line: (10**(1/20) - 1) * p_sat.  Needs at least
    6 points with strictly positive powers; the sweep should reach into
    compression.  If the fitted p_sat lands far above the largest measured
    power the data were effectively linear and the fit is rejected with
    advice to widen the power range.
    """
    p, r = _check_xy(p_w, response, 6, "compression fit")
    if np.any(p <= 0.0):
        raise ValueError("compression fit: powers must be > 0 W")
    order = np.argsort(p)
    p, r = p[order], r[order]
    if _flat(r):
        raise FitError("responses are flat; nothing to fit")
    if np.any(r <= 0.0):
        raise ValueError("compression fit: responses must be > 0")

    gain = r / p
    low = p <= p[0] * 10.0
    a0 = _median(gain[low])
    if a0 <= 0.0:
        raise FitError("small-signal gain is not positive")
    # half-gain crossing as the p_sat guess; fall back to the top of the range
    below = np.nonzero(gain <= 0.5 * a0)[0]
    ps0 = float(p[below[0]]) if below.size else float(p[-1])

    pref = float(p[-1])
    rref = float(np.max(r))
    xs = p / pref
    rs = r / rref

    def model(x, q):
        a, ps = q
        return a * x / (1.0 + x / ps)

    def jac(x, q):
        a, ps = q
        den = 1.0 + x / ps
        return np.column_stack([x / den, a * x * x / (ps * ps * den * den)])

    q0 = np.array([a0 * pref / rref, ps0 / pref])
    (a_s, ps_s), _, _ = _lm_least_squares(model, jac, xs, rs, q0)
    if a_s <= 0.0 or ps_s <= 0.0:
        raise FitError("fit collapsed to a non-physical gain or saturation power")
    p_sat = ps_s * pref
    if p_sat > 50.0 * p[-1]:
        raise FitError(
            "p_sat is unconstrained by the data (responses look linear); "
            "extend the power sweep further into saturation")
    return watts_to_dbm(_P_1DB_FACTOR * p_sat)


@dataclass(frozen=True)
class CrosstalkMatrix:
    """Row-wise P1dB differences between matched and mismatched heater paths.

    crosstalk_db[i][j] = P1dB(bolometer i, matched filter) - P1dB(bolometer
    i, filter j), NaN on the matched diagonal cell of each row.  Values are
    negative: a mismatched path needs that much more power for the same
    compression.  column_crosstalk_db references each column to the
    bolometer that owns that filter.  The P1dB table itself is not kept:
    the caller that built it holds it.
    """

    crosstalk_db: np.ndarray
    column_crosstalk_db: np.ndarray

    def offdiagonal(self) -> np.ndarray:
        vals = self.crosstalk_db[~np.isnan(self.crosstalk_db)]
        return vals

    @property
    def worst_db(self) -> float:
        """Least isolation (closest to 0 dB)."""
        return float(np.max(self.offdiagonal()))

    @property
    def best_db(self) -> float:
        return float(np.min(self.offdiagonal()))


def crosstalk_matrix(p_1db_dbm, channel_map) -> CrosstalkMatrix:
    """Build the crosstalk matrix from a (bolometer x filter) P1dB table.

    p_1db_dbm[i][j] is the P1dB of bolometer i with the heater tone at
    filter j's center.  The metric is a difference of dBm values, so it is
    invariant under any common power offset.
    """
    table = np.asarray(p_1db_dbm, dtype=float)
    if table.ndim != 2 or table.shape[0] != table.shape[1]:
        raise ValueError(f"P1dB table must be square, got shape {table.shape}")
    n = table.shape[0]
    channel_map = tuple(int(m) for m in channel_map)
    if sorted(channel_map) != list(range(n)):
        raise ValueError(f"channel_map {channel_map} is not a bijection for {n} channels")
    if not np.all(np.isfinite(table)):
        raise ValueError("P1dB table must be finite")

    row = np.full((n, n), np.nan)
    col = np.full((n, n), np.nan)
    owners = {filt: bolo for bolo, filt in enumerate(channel_map)}
    for i in range(n):
        matched = channel_map[i]
        for j in range(n):
            if j != matched:
                row[i, j] = table[i, matched] - table[i, j]
            if i != owners[j]:
                col[i, j] = table[owners[j], j] - table[i, j]
    return CrosstalkMatrix(crosstalk_db=row, column_crosstalk_db=col)


def snr_table(snr_by_pattern: dict, channel_names) -> list[dict]:
    """Assemble the multiplexing SNR table from per-pattern SNR lists.

    snr_by_pattern maps a pattern label (e.g. "011") to the per-channel SNR
    list of that run.  All 2**n patterns must be present; missing ones raise
    ValueError naming the first absent label.

    Returns tidy records {"channel", "kind", "pattern", "snr"}, channel by
    channel: first one "leakage" record per pattern with the channel's bit
    unset, in ascending label order (all-off first), then the "matched"
    record of the pattern with only that bit set.
    """
    channel_names = tuple(str(c) for c in channel_names)
    n = len(channel_names)
    if n < 1:
        raise ValueError("need at least one channel")
    labels = [format(v, f"0{n}b") for v in range(2 ** n)]
    for label in labels:
        if label not in snr_by_pattern:
            raise ValueError(f"incomplete pattern set: missing pattern {label}")
        if len(snr_by_pattern[label]) != n:
            raise ValueError(f"pattern {label}: expected {n} SNR values")

    records = []
    for ch, name in enumerate(channel_names):
        only = "".join("1" if k == ch else "0" for k in range(n))
        cells = [("leakage", lab) for lab in labels if lab[ch] == "0"] + [("matched", only)]
        records += [{"channel": name, "kind": kind, "pattern": lab,
                     "snr": float(snr_by_pattern[lab][ch])} for kind, lab in cells]
    return records


def capacity_estimate(f_min_hz: float, f_max_hz: float, spacing_hz: float) -> int:
    """Number of channels fitting in [f_min, f_max] at fixed spacing.

    floor((f_max - f_min) / spacing); returns 0 when the band is narrower
    than one spacing.
    """
    for name, v in (("f_min_hz", f_min_hz), ("f_max_hz", f_max_hz), ("spacing_hz", spacing_hz)):
        if not math.isfinite(v) or v <= 0.0:
            raise ValueError(f"{name} must be finite and > 0, got {v}")
    if f_max_hz <= f_min_hz:
        raise ValueError(f"f_max {f_max_hz} must exceed f_min {f_min_hz}")
    return int(math.floor((f_max_hz - f_min_hz) / spacing_hz))
