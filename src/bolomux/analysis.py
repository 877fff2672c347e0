"""Fitting and reduction of simulated readout data.

The least-squares core is a damped Gauss-Newton iteration with a
Levenberg-style lambda schedule (start 1e-3, x10 on a rejected step, /10 on
an accepted one) and analytic Jacobians, run on a stack of equal-length
problems at once; 1-sigma parameter uncertainties come from the scaled
inverse normal matrix at the optimum.  Each fit front-end takes many traces
and rescales each problem to O(1) so the normal equations stay well
conditioned across the twelve decades separating watts from megahertz.
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
    "fit_lorentzians",
    "fit_compressions",
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


def _sum_squares(resid):
    """Row sums of squares of a (B, N) stack: per row, the BLAS dot `r @ r` makes."""
    return (resid[:, None, :] @ resid[:, :, None])[:, 0, 0]


def _per_row(op, rescue, *stacks):
    """op over stacks of matrices; if numpy finds one singular, op row by row,
    with rescue(*row) for each row it refuses."""
    try:
        return op(*stacks)
    except np.linalg.LinAlgError:
        if stacks[0].ndim == 2:
            return rescue(*stacks)
        return np.array([_per_row(op, rescue, *row) for row in zip(*stacks)])


def _lm_least_squares(model, x, y, p0):
    """Minimize ||y[b] - model(x, p, False)[b]||^2 for each row b of a stack.

    x, y are (B, N) and p0 (B, P); model(x, p, jac) gives the (B, N) values,
    or the (B, N, P) Jacobian, of any rows.  Each row runs the one-problem
    iteration step for step, through the BLAS and LAPACK calls one problem
    makes alone, so no row's result depends on the others.  Returns per row
    (p, perr), or its FitError.
    """
    p = np.array(p0, dtype=float)
    resid = y - model(x, p, False)
    cost = _sum_squares(resid)
    lam = np.full(len(p), _LAMBDA0)
    going = np.isfinite(cost)
    out = [None if ok else FitError("initial guess produces non-finite residuals")
           for ok in going]
    # each pass makes one try on every row going.  A row starts an iteration
    # (Jacobian, then tries at rising lambda until its cost falls) first and
    # after each unconverged accepted step; out of budget, it stops still fresh
    fresh, iters = going.copy(), np.zeros(len(p), dtype=int)
    jtj = np.empty(p.shape + p.shape[1:])
    grad, damping, diag = np.empty(p.shape), np.zeros_like(jtj), np.arange(p.shape[1])
    while True:
        going &= ~fresh | (iters < _MAX_ITER)
        new = np.flatnonzero(fresh & going)
        if new.size:
            jac = model(x[new], p[new], True)
            jac_t = jac.transpose(0, 2, 1)
            jtj[new], grad[new] = jac_t @ jac, (jac_t @ resid[new, :, None])[..., 0]
            damp = np.diagonal(jtj[new], axis1=1, axis2=2).copy()
            damp[damp <= 0.0] = 1.0
            damping[new[:, None], diag, diag] = damp
            iters[new] += 1
            fresh[new] = False
        r = np.flatnonzero(going)
        if r.size == 0:
            break
        # a singular row's step is NaN, so its cost is rejected below
        dp = _per_row(lambda a, g: np.linalg.solve(a, g[..., None])[..., 0],
                      lambda a, g: np.full(g.shape, np.nan),
                      jtj[r] + lam[r, None, None] * damping[r], grad[r])
        p_try = p[r] + dp
        resid_try = y[r] - model(x[r], p_try, False)
        cost_try = _sum_squares(resid_try)
        ok = np.isfinite(cost_try) & (cost_try <= cost[r])
        acc = r[ok]
        # callers scale parameters to O(1); the 1e-3 floor keeps the
        # step test meaningful for parameters that are genuinely zero
        rel = np.max(np.abs(dp[ok]) / np.maximum(np.abs(p_try[ok]), 1e-3), axis=1)
        p[acc], resid[acc], cost[acc] = p_try[ok], resid_try[ok], cost_try[ok]
        lam[acc] = np.maximum(lam[acc] / 10.0, 1e-15)
        lam[r[~ok]] *= 10.0
        fresh[acc] = rel >= _REL_STEP_TOL
        # a row with no downhill step at any damping has a gradient of zero
        # to machine precision: it accepts its current point
        going[r] = fresh[r] | (~ok & (lam[r] <= _LAMBDA_MAX))
    for b in np.flatnonzero(fresh):
        out[b] = FitError(f"no convergence after {_MAX_ITER} iterations "
                          f"(cost {float(cost[b]):.3e})")

    rows = np.flatnonzero([sol is None for sol in out])
    jac = model(x[rows], p[rows], True)
    jac_t = jac.transpose(0, 2, 1)
    s2 = cost[rows] / max(y.shape[1] - p.shape[1], 1)
    cov = s2[:, None, None] * _per_row(np.linalg.inv, np.linalg.pinv, jac_t @ jac)
    perr = np.sqrt(np.clip(np.diagonal(cov, axis1=1, axis2=2), 0.0, None))
    for b, err in zip(rows, perr):
        out[b] = (p[b], err)
    return out


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


def _caught(fn, *args):
    """fn(*args), or the FitError or ValueError it raised."""
    try:
        return fn(*args)
    except (FitError, ValueError) as exc:
        return exc


def _fit_traces(problem, model, traces) -> list:
    """Fit each (x, y) of traces as if alone, those of one length in one solve:
    problem(x, y) -> (xs, ys, p0, finish) scales a trace, finish(p, perr)
    reads its solution.  Returns per trace its result or error."""
    out = [_caught(problem, x, y) for x, y in traces]
    lengths = {i: len(posed[0]) for i, posed in enumerate(out) if not isinstance(posed, Exception)}
    for length in set(lengths.values()):
        rows = [i for i, n in lengths.items() if n == length]
        xs, ys, p0, finish = zip(*(out[i] for i in rows))
        solved = _lm_least_squares(model, np.array(xs), np.array(ys), np.array(p0))
        for i, sol, read in zip(rows, solved, finish):
            out[i] = sol if isinstance(sol, FitError) else _caught(read, *sol)
    return out


def _lorentzian(x, p, jac):
    df, wid, dep, off = p.T[:, :, None]
    if not jac:
        # off - dep / (1 + u^2), u = 2 (x - df) / wid, in one array
        out = np.subtract(x, df)
        out *= 2.0
        out /= wid
        np.square(out, out=out)
        out += 1.0
        np.divide(dep, out, out=out)
        return np.subtract(off, out, out=out)
    # columns -4 dep u l^2 / wid, -2 dep u u l^2 / wid, -l, 1 hold u, l and l^2 first
    out = np.empty(x.shape + (4,))
    u, d_wid, l, l2 = np.moveaxis(out, -1, 0)
    np.multiply(np.subtract(x, df, out=u), 2.0, out=u)
    u /= wid
    np.divide(1.0, np.add(np.multiply(u, u, out=l), 1.0, out=l), out=l)
    np.multiply(l, l, out=l2)
    np.multiply(np.multiply(-2.0 * dep, u, out=d_wid), u, out=d_wid)
    d_wid *= l2
    d_wid /= wid
    u *= -4.0 * dep
    u *= l2
    u /= wid
    np.negative(l, out=l)
    l2.fill(1.0)
    return out


def _lorentzian_problem(f_hz, magnitude):
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
    fwhm0 = 2.0 * math.sqrt(float(np.sum(w * (f - f_r0) ** 2)) / wsum) if wsum > 0.0 else 0.0
    span = float(f[-1] - f[0])
    if not math.isfinite(fwhm0) or fwhm0 <= 0.0:
        fwhm0 = span / 4.0

    # scaled problem: frequencies in units of fscale around f_r0, magnitudes
    # in units of yscale, so all four parameters are O(1)
    fscale = max(fwhm0, span / 100.0)
    yscale = float(np.max(np.abs(y)))

    def finish(p, perr):
        df, wid, dep, off = p
        wid, dep = abs(wid), float(dep)
        if dep <= 0.0 or dep < 3.0 * perr[2]:
            raise FitError("depth indistinguishable from zero")
        return LorentzianFit(f_r_hz=f_r0 + df * fscale, fwhm_hz=wid * fscale,
                             depth=dep * yscale, offset=float(off) * yscale,
                             f_r_err_hz=float(perr[0]) * fscale,
                             fwhm_err_hz=float(perr[1]) * fscale)

    p0 = [0.0, fwhm0 / fscale, depth0 / yscale, offset0 / yscale]
    return (f - f_r0) / fscale, y / yscale, p0, finish


def fit_lorentzians(traces) -> list:
    """Fit a Lorentzian dip to each (f_hz, magnitude) swept-frequency trace;
    per trace its LorentzianFit, or the FitError or ValueError it raised.

    Initial guesses: dip position from the minimum sample, depth against a
    baseline taken from the upper quartile, width from the second moment of
    the baseline-subtracted dip.  Flat data and statistically insignificant
    dips (depth < 3 sigma) are rejected with FitError.
    """
    return _fit_traces(_lorentzian_problem, _lorentzian, traces)


_P_1DB_FACTOR = 10.0 ** (1.0 / 20.0) - 1.0  # P_1dB = factor * p_sat for the hyperbolic model


def _compression(x, q, jac):
    a, ps = q.T[:, :, None]
    den = 1.0 + x / ps
    if not jac:
        return a * x / den
    return np.stack([x / den, a * x * x / (ps * ps * den * den)], axis=-1)


def _compression_problem(p_w, response):
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

    def finish(q, _):
        a_s, ps_s = q
        if a_s <= 0.0 or ps_s <= 0.0:
            raise FitError("fit collapsed to a non-physical gain or saturation power")
        p_sat = ps_s * pref
        if p_sat > 50.0 * p[-1]:
            raise FitError(
                "p_sat is unconstrained by the data (responses look linear); "
                "extend the power sweep further into saturation")
        return watts_to_dbm(_P_1DB_FACTOR * p_sat)

    return p / pref, r / rref, [a0 * pref / rref, ps0 / pref], finish


def fit_compressions(traces) -> list:
    """Fit r(P) = A P / (1 + P/p_sat) to each (p_w, response) trace; per trace
    its 1 dB point in dBm, or the FitError or ValueError it raised.

    The 1 dB point is the input power where the response has dropped 1 dB
    below the small-signal line: (10**(1/20) - 1) * p_sat.  Needs at least
    6 points with strictly positive powers; the sweep should reach into
    compression.  If the fitted p_sat lands far above the largest measured
    power the data were effectively linear and the fit is rejected with
    advice to widen the power range.
    """
    return _fit_traces(_compression_problem, _compression, traces)


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

    cells, owners = np.arange(n), np.argsort(channel_map)  # owners[j] has filter j
    row = table[cells, channel_map][:, None] - table
    row[cells, channel_map] = np.nan
    col = table[owners, cells] - table
    col[owners, cells] = np.nan
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
