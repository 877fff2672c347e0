"""Curve fits and derived tables: Lorentzian dips, gain compression, the
stacked least-squares core they share, crosstalk and SNR tables, capacity
counting."""

import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from bolomux.analysis import (
    _P_1DB_FACTOR,
    FitError,
    _compression,
    _compression_problem,
    _lm_least_squares,
    _lorentzian,
    _lorentzian_problem,
    _median,
    _per_row,
    capacity_estimate,
    crosstalk_matrix,
    fit_compressions,
    fit_lorentzians,
    snr_table,
)
from bolomux.units import dbm_to_watts, watts_to_dbm


# ------------------------------------------------------------- lorentzian


def lorentz(f, f_r, fwhm, depth, offset):
    u = 2.0 * (f - f_r) / fwhm
    return offset - depth / (1.0 + u * u)


def test_lorentzian_recovers_noiseless_parameters():
    rng = np.random.default_rng(10)
    for _ in range(20):
        f_r = rng.uniform(150e6, 200e6)
        fwhm = rng.uniform(1e5, 8e5)
        depth = rng.uniform(0.05, 0.9)
        offset = rng.uniform(0.9, 1.1)
        f = np.linspace(f_r - 6 * fwhm, f_r + 6 * fwhm, 201)
        [fit] = fit_lorentzians([(f, lorentz(f, f_r, fwhm, depth, offset))])
        assert fit.f_r_hz == pytest.approx(f_r, rel=1e-9)
        assert fit.fwhm_hz == pytest.approx(fwhm, rel=1e-7)
        assert fit.depth == pytest.approx(depth, rel=1e-7)
        assert fit.offset == pytest.approx(offset, rel=1e-9)
        model = lorentz(f, fit.f_r_hz, fit.fwhm_hz, fit.depth, fit.offset)
        assert np.linalg.norm(model - lorentz(f, f_r, fwhm, depth, offset)) < 1e-9


def test_lorentzian_evaluate_round_trip():
    f = np.linspace(155e6, 158e6, 101)
    y = lorentz(f, 156.7e6, 3e5, 0.4, 1.0)
    [fit] = fit_lorentzians([(f, y)])
    assert np.max(np.abs(lorentz(f, fit.f_r_hz, fit.fwhm_hz, fit.depth, fit.offset) - y)) < 1e-9


def test_lorentzian_noisy_recovery_and_error_bars():
    # 1 sigma intervals should cover the truth at roughly the nominal rate
    rng = np.random.default_rng(77)
    f_r, fwhm, depth, offset = 156.7e6, 3e5, 0.4, 1.0
    f = np.linspace(f_r - 1.5e6, f_r + 1.5e6, 201)
    clean = lorentz(f, f_r, fwhm, depth, offset)
    covered = 0
    for _ in range(100):
        [fit] = fit_lorentzians([(f, clean + rng.normal(0.0, 0.01, f.size))])
        assert fit.f_r_hz == pytest.approx(f_r, abs=5e3)
        assert fit.fwhm_hz == pytest.approx(fwhm, rel=0.1)
        if abs(fit.f_r_hz - f_r) < fit.f_r_err_hz:
            covered += 1
    assert 45 <= covered <= 90


def test_lorentzian_rejects_flat_data():
    f = np.linspace(1e6, 2e6, 50)
    [error] = fit_lorentzians([(f, np.full(f.size, 0.7))])
    assert isinstance(error, FitError)
    assert str(error) == "no dip: data are flat, depth indistinguishable from zero"


def test_lorentzian_rejects_pure_noise():
    rng = np.random.default_rng(123)
    f = np.linspace(1e6, 2e6, 100)
    [error] = fit_lorentzians([(f, 1.0 + rng.normal(0.0, 0.01, f.size))])
    assert isinstance(error, FitError)
    assert str(error) == "depth indistinguishable from zero"


def test_lorentzian_needs_enough_points():
    [error] = fit_lorentzians([([1e6, 2e6, 3e6], [1.0, 0.5, 1.0])])
    assert isinstance(error, ValueError)
    assert str(error) == "lorentzian fit: need at least 5 points, got 3"


def test_lorentzian_accepts_unsorted_frequencies():
    rng = np.random.default_rng(5)
    f = np.linspace(155e6, 158e6, 101)
    y = lorentz(f, 156.5e6, 4e5, 0.3, 1.0)
    kick = rng.permutation(f.size)
    [fit] = fit_lorentzians([(f[kick], y[kick])])
    assert fit.f_r_hz == pytest.approx(156.5e6, rel=1e-9)


# ------------------------------------------------------------ compression


def compress(p, a, p_sat):
    return a * p / (1.0 + p / p_sat)


def test_compression_recovers_noiseless_parameters():
    rng = np.random.default_rng(30)
    for _ in range(20):
        a = 10 ** rng.uniform(10, 14)
        p_sat = 10 ** rng.uniform(-15, -12)
        p = np.logspace(math.log10(p_sat) - 3, math.log10(p_sat) + 1.2, 25)
        [p_1db_dbm] = fit_compressions([(p, compress(p, a, p_sat))])
        assert dbm_to_watts(p_1db_dbm) == pytest.approx(_P_1DB_FACTOR * p_sat, rel=1e-6)
        assert p_1db_dbm == pytest.approx(watts_to_dbm(_P_1DB_FACTOR * p_sat), abs=1e-5)


def test_compression_one_db_point_definition():
    # at P = p_1db the response sits exactly 1 dB below the linear line
    a, p_sat = 1e12, 1e-13
    p = np.logspace(-16, -12, 30)
    [p_1db_dbm] = fit_compressions([(p, compress(p, a, p_sat))])
    p_1db_w = dbm_to_watts(p_1db_dbm)
    linear = a * p_1db_w
    actual = compress(p_1db_w, a, p_sat)
    assert 20 * math.log10(linear / actual) == pytest.approx(1.0, abs=1e-9)


def test_compression_factor_constant():
    assert _P_1DB_FACTOR == pytest.approx(10 ** (1 / 20) - 1, rel=1e-15)
    assert _P_1DB_FACTOR == pytest.approx(0.122018, abs=1e-6)


def test_compression_known_example():
    # p_sat = 1 pW: P1dB = 0.12202 pW = -99.14 dBm
    p = np.logspace(-14, -11, 25)
    [p_1db_dbm] = fit_compressions([(p, compress(p, 1e12, 1e-12))])
    assert p_1db_dbm == pytest.approx(-99.136, abs=5e-3)


def test_compression_rejects_linear_data_with_advice():
    # the sweep never leaves the linear regime, so p_sat is unconstrained;
    # the error should tell the user to extend the sweep
    rng = np.random.default_rng(2)
    p = np.logspace(-17, -16, 10)
    r = 1e12 * p * (1.0 + rng.normal(0.0, 1e-3, p.size))
    [error] = fit_compressions([(p, r)])
    assert isinstance(error, FitError) and "extend the power sweep" in str(error)


def test_compression_exactly_linear_data_still_fails():
    p = np.logspace(-17, -16, 10)
    [error] = fit_compressions([(p, 1e12 * p)])
    assert isinstance(error, FitError) and str(error).startswith("no convergence after 200 iterations")


def test_compression_validation():
    p = np.logspace(-16, -13, 10)
    errors = fit_compressions([
        (np.append(p, 0.0), np.append(compress(p, 1e12, 1e-14), 1.0)),
        (p[:5], compress(p[:5], 1e12, 1e-14)),
        (p, np.full(p.size, 1.0)),
    ])
    assert [(type(error), str(error)) for error in errors] == [
        (ValueError, "compression fit: powers must be > 0 W"),
        (ValueError, "compression fit: need at least 6 points, got 5"),
        (FitError, "responses are flat; nothing to fit"),
    ]


def test_compression_noisy_p1db_stability():
    rng = np.random.default_rng(31)
    a, p_sat = 1e12, 1e-13
    p = np.logspace(-16, -12, 27)
    clean = compress(p, a, p_sat)
    for _ in range(10):
        noisy = clean * (1.0 + rng.normal(0.0, 0.01, p.size))
        [p_1db_dbm] = fit_compressions([(p, noisy)])
        assert p_1db_dbm == pytest.approx(watts_to_dbm(_P_1DB_FACTOR * p_sat), abs=0.3)


@pytest.mark.parametrize("size", [1, 2, 3, 10, 27, 28])
def test_compression_small_signal_median_is_numpy_median(size):
    # the small-signal gain's median equals np.median bit for bit, on odd and
    # even counts, spread values and ties, without the numpy.ma import
    rng = np.random.default_rng(size)
    for values in [rng.lognormal(0.0, 3.0, size) for _ in range(20)] + [
            rng.integers(0, 3, size).astype(float) * 1e12 for _ in range(5)]:
        assert _median(values) == float(np.median(values))


# --------------------------------------------------------- stacked solver


def one_problem_lm(model, x, y, p0):
    """The one-problem Levenberg-Marquardt iteration the stacked core replaced,
    kept as its oracle: 1-d x, y and p0, through the stacked model and its
    Jacobian on a one-row stack.  Returns (p, perr); raises FitError."""
    def model_1d(p):
        return model(x[None], p[None], False)[0]

    def jacobian_1d(p):
        return model(x[None], p[None], True)[0]

    p = np.asarray(p0, dtype=float)
    resid = y - model_1d(p)
    cost = float(resid @ resid)
    if not math.isfinite(cost):
        raise FitError("initial guess produces non-finite residuals")
    lam = 1e-3
    converged = False
    for _ in range(200):
        jac = jacobian_1d(p)
        jtj = jac.T @ jac
        grad = jac.T @ resid
        damp = np.diag(jtj).copy()
        damp[damp <= 0.0] = 1.0
        stepped = False
        while lam <= 1e12:
            try:
                dp = np.linalg.solve(jtj + lam * np.diag(damp), grad)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            p_try = p + dp
            resid_try = y - model_1d(p_try)
            cost_try = float(resid_try @ resid_try)
            if math.isfinite(cost_try) and cost_try <= cost:
                rel = float(np.max(np.abs(dp) / np.maximum(np.abs(p_try), 1e-3)))
                p, resid, cost = p_try, resid_try, cost_try
                lam = max(lam / 10.0, 1e-15)
                stepped = True
                if rel < 1e-8:
                    converged = True
                break
            lam *= 10.0
        if not stepped:
            converged = True
        if converged:
            break
    if not converged:
        raise FitError(f"no convergence after 200 iterations (cost {cost:.3e})")
    jac = jacobian_1d(p)
    jtj = jac.T @ jac
    s2 = cost / max(y.size - p.size, 1)
    try:
        cov = s2 * np.linalg.inv(jtj)
    except np.linalg.LinAlgError:
        cov = s2 * np.linalg.pinv(jtj)
    return p, np.sqrt(np.clip(np.diag(cov), 0.0, None))


def random_traces(kind, rows, seed):
    """rows noisy traces of one length, each with its own true parameters."""
    rng = np.random.default_rng(seed)
    traces = []
    for _ in range(rows):
        if kind == "lorentzian":
            f = np.linspace(150e6, 151e6, 201)
            clean = lorentz(f, rng.uniform(150.3e6, 150.7e6), rng.uniform(5e4, 2e5),
                            rng.uniform(0.1, 0.8), rng.uniform(0.9, 1.1))
            traces.append((f, clean + rng.normal(0.0, 0.005, f.size)))
        else:
            p = np.logspace(-16, -12, 25)
            clean = compress(p, 10 ** rng.uniform(11, 13), 10 ** rng.uniform(-14.5, -13))
            traces.append((p, clean * (1.0 + rng.normal(0.0, 0.01, p.size))))
    return traces


_PROBLEMS = {
    "lorentzian": (_lorentzian_problem, _lorentzian),
    "compression": (_compression_problem, _compression),
}


def stacked_problem(kind, rows, seed):
    """(model, x, y, p0) of rows random scaled problems of one kind."""
    problem, model = _PROBLEMS[kind]
    posed = [problem(*trace) for trace in random_traces(kind, rows, seed)]
    x, y, p0 = (np.array(column) for column in list(zip(*posed))[:3])
    return model, x, y, p0


def solve_alone(model, x, y, p0, b):
    """Row b solved as a one-row stack and by the one-problem oracle."""
    one_row = _lm_least_squares(model, x[b:b + 1], y[b:b + 1], p0[b:b + 1])[0]
    try:
        oracle = one_problem_lm(model, x[b], y[b], p0[b])
    except FitError as exc:
        oracle = exc
    return one_row, oracle


def assert_same_solution(got, want):
    if isinstance(want, FitError):
        assert isinstance(got, FitError) and str(got) == str(want)
        return
    assert not isinstance(got, FitError), got
    assert np.array_equal(got[0], want[0], equal_nan=True)
    assert np.array_equal(got[1], want[1], equal_nan=True)


@pytest.mark.parametrize("kind", sorted(_PROBLEMS))
def test_stacked_solve_is_each_row_alone(kind):
    # every row of a stack comes out bit for bit as the one-row solve and as
    # the one-problem iteration the stacked core replaced
    model, x, y, p0 = stacked_problem(kind, rows=12, seed=len(kind))
    solved = _lm_least_squares(model, x, y, p0)
    assert not any(isinstance(sol, FitError) for sol in solved)
    for b, sol in enumerate(solved):
        for want in solve_alone(model, x, y, p0, b):
            assert_same_solution(sol, want)


def decay(x, p, jac):
    """off + amp exp(-x / tau) over a stack, or its Jacobian in (tau, amp, off)."""
    tau, amp, off = p.T[:, :, None]
    e = np.exp(-x / tau)
    if not jac:
        return off + amp * e
    return np.stack([amp * e * x / tau ** 2, e, np.ones_like(x)], axis=-1)


def test_a_row_out_of_budget_fails_alone():
    # a straight line pulls the decay's tau and amplitude out without end:
    # that row spends the 200-step budget while its noisy neighbours converge
    # (under the compression model a straight line converges)
    rng = np.random.default_rng(3)
    x = np.tile(np.linspace(0.0, 1.0, 200), (5, 1))
    true = np.column_stack([rng.uniform(0.1, 0.4, 5), rng.uniform(0.5, 2.0, 5),
                            rng.uniform(-1.0, 1.0, 5)])
    y = decay(x, true, False) + rng.normal(0.0, 0.01, x.shape)
    p0 = 1.2 * true
    y[2] = 1.0 - 0.5 * x[2]
    p0[2] = [1.0, 1.0, 0.0]
    solved = _lm_least_squares(decay, x, y, p0)
    failed = [b for b, sol in enumerate(solved) if isinstance(sol, FitError)]
    assert failed == [2]
    assert str(solved[2]).startswith("no convergence after 200 iterations")
    for b, sol in enumerate(solved):
        for want in solve_alone(decay, x, y, p0, b):
            assert_same_solution(sol, want)


def test_flat_and_exact_rows_stop_alone():
    # a flat row (constant data: the dip's depth goes to zero) and a row that
    # starts on its exact fit (zero residual, so zero uncertainty) stop as
    # they would alone, beside noisy rows
    model, x, y, p0 = stacked_problem("lorentzian", rows=6, seed=4)
    y[1] = 0.9
    y[4] = _lorentzian(x[4:5], p0[4:5], False)[0]
    solved = _lm_least_squares(model, x, y, p0)
    assert np.array_equal(solved[4][0], p0[4]) and not solved[4][1].any()
    for b, sol in enumerate(solved):
        for want in solve_alone(model, x, y, p0, b):
            assert_same_solution(sol, want)
    # as a trace, flat data are refused before the solve, and the rest fit
    traces = random_traces("lorentzian", 3, seed=5)
    traces.insert(1, (traces[0][0], np.full(traces[0][0].size, 0.7)))
    fits = fit_lorentzians(traces)
    assert isinstance(fits[1], FitError) and "flat" in str(fits[1])
    assert [fits[i] for i in (0, 2, 3)] == [fit_lorentzians([traces[i]])[0] for i in (0, 2, 3)]


def test_singular_round_falls_back_to_row_by_row():
    # numpy refuses a whole stack for one singular matrix; the rows then go
    # one by one, and only the singular one takes the rescue
    rng = np.random.default_rng(6)
    a = rng.normal(size=(4, 3, 3))
    a[2] = [[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 1.0, 1.0]]
    b = rng.normal(size=(4, 3))
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(a, b[..., None])
    steps = _per_row(lambda m, v: np.linalg.solve(m, v[..., None])[..., 0],
                     lambda m, v: np.full(v.shape, np.nan), a, b)
    assert np.isnan(steps[2]).all()
    for i in (0, 1, 3):
        assert np.array_equal(steps[i], np.linalg.solve(a[i], b[i]))
    inverses = _per_row(np.linalg.inv, np.linalg.pinv, a)
    assert np.array_equal(inverses[2], np.linalg.pinv(a[2]))
    assert np.array_equal(inverses[0], np.linalg.inv(a[0]))


def test_traces_of_two_lengths_fit_as_alone():
    # traces that share no length stack by length; each result is its fit
    # alone, errors included
    traces = random_traces("lorentzian", 4, seed=7)
    for i in (1, 3):
        f, y = traces[i]
        traces[i] = (f[::2], y[::2])
    traces.append(([1.0, 2.0, 3.0], [1.0, 0.5, 1.0]))
    fits = fit_lorentzians(traces)
    assert isinstance(fits[4], ValueError)
    assert fits[:4] == [fit_lorentzians([trace])[0] for trace in traces[:4]]
    paths = random_traces("compression", 3, seed=8)
    assert fit_compressions(paths) == [fit_compressions([path])[0] for path in paths]


def stacked_lorentzian_jacobian(x, p):
    """The dip model's (B, N, 4) Jacobian stacked from whole-array temporaries,
    the expression the in-place one must equal bit for bit."""
    df, wid, dep, off = p.T[:, :, None]
    u = 2.0 * (x - df) / wid
    l = 1.0 / (1.0 + u * u)
    l2 = l * l
    return np.stack([-4.0 * dep * u * l2 / wid, -2.0 * dep * u * u * l2 / wid, -l,
                     np.ones_like(x)], axis=-1)


def scaled_lorentzian_stack(rows):
    """Scaled abscissae of a stack of dip problems, with its initial guesses
    and a perturbed parameter set."""
    if rows == "nan-shortened":
        # characterize fits a row without its NaN cells: 201 - 5 points
        f, y = random_traces("lorentzian", 1, seed=3)[0]
        y[[0, 17, 18, 100, 200]] = np.nan
        traces = [(f[np.isfinite(y)], y[np.isfinite(y)])]
    else:
        traces = random_traces("lorentzian", rows, seed=rows)
    posed = [_lorentzian_problem(*trace) for trace in traces]
    x, p0 = np.array([q[0] for q in posed]), np.array([q[2] for q in posed])
    rng = np.random.default_rng(len(traces))
    return x, (p0, p0 + rng.normal(0.0, 0.2, p0.shape))


@pytest.mark.parametrize("rows", [1, 9, 27, "nan-shortened"])
def test_lorentzian_jacobian_in_place_is_the_stacked_expression(rows):
    x, params = scaled_lorentzian_stack(rows)
    for p in params:
        got, want = _lorentzian(x, p, True), stacked_lorentzian_jacobian(x, p)
        assert got.shape == want.shape == (len(p), x.shape[1], 4)
        assert got.flags.c_contiguous  # the layout the solver's J^T J reads
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("rows", [1, 27, "nan-shortened"])
def test_lorentzian_values_in_place_are_the_stacked_expression(rows):
    x, params = scaled_lorentzian_stack(rows)
    for p in params:
        df, wid, dep, off = p.T[:, :, None]
        u = 2.0 * (x - df) / wid
        assert _lorentzian(x, p, False).tobytes() == (off - dep / (1.0 + u * u)).tobytes()


_LONG_DIP_FIT = """
from bolomux.analysis import fit_lorentzians
import numpy as np
rng = np.random.default_rng(5)
f = np.linspace(150e6, 151e6, 10001)
u = 2.0 * (f - 150.42e6) / 1.3e5
print(repr(fit_lorentzians([(f, 1.0 - 0.4 / (1.0 + u * u) + rng.normal(0.0, 0.005, f.size))])))
"""


def test_long_fits_do_not_depend_on_the_host():
    # OpenBLAS splits a dot product longer than 10,000 elements across its
    # threads, which moves the last bits of the fit's sums; with
    # OPENBLAS_NUM_THREADS unset bolomux loads it at one thread, so a
    # 10,001-point dip fits to the same bytes as under an explicit 1.  On a
    # one-core host the pool has one thread either way and this passes trivially
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = {key: value for key, value in os.environ.items() if not key.endswith("_NUM_THREADS")}
    fits = [subprocess.run([sys.executable, "-c", _LONG_DIP_FIT], capture_output=True,
                           text=True, check=True, env={**env, **extra, "PYTHONPATH": src}).stdout
            for extra in ({}, {"OPENBLAS_NUM_THREADS": "1"})]
    assert "LorentzianFit(" in fits[0] and fits[0] == fits[1]


# -------------------------------------------------------------- crosstalk


TABLE = [
    [-114.3, -135.5, -116.4],
    [-132.0, -120.0, -120.0],
    [-106.3, -101.9, -128.2],
]
CMAP = (1, 0, 2)


def test_crosstalk_rowwise_differences():
    ct = crosstalk_matrix(TABLE, CMAP)
    # bolometer 0 drives through filter 1; mismatched paths cost extra power
    assert ct.crosstalk_db[0, 0] == pytest.approx(-21.2, abs=1e-9)
    assert ct.crosstalk_db[0, 2] == pytest.approx(-19.1, abs=1e-9)
    assert np.isnan(ct.crosstalk_db[0, 1])
    assert ct.crosstalk_db[1, 1] == pytest.approx(-12.0, abs=1e-9)
    assert ct.crosstalk_db[1, 2] == pytest.approx(-12.0, abs=1e-9)
    assert np.isnan(ct.crosstalk_db[1, 0])
    assert ct.crosstalk_db[2, 0] == pytest.approx(-21.9, abs=1e-9)
    assert ct.crosstalk_db[2, 1] == pytest.approx(-26.3, abs=1e-9)
    assert np.isnan(ct.crosstalk_db[2, 2])


def test_crosstalk_summary_values():
    ct = crosstalk_matrix(TABLE, CMAP)
    assert ct.worst_db == pytest.approx(-12.0, abs=1e-9)
    assert ct.best_db == pytest.approx(-26.3, abs=1e-9)
    assert ct.offdiagonal().size == 6
    assert np.all(ct.offdiagonal() < 0.0)


def test_crosstalk_column_references_filter_owner():
    ct = crosstalk_matrix(TABLE, CMAP)
    # filter 0 belongs to bolometer 1; other rows compare against it
    assert ct.column_crosstalk_db[0, 0] == pytest.approx(
        TABLE[1][0] - TABLE[0][0], abs=1e-9)
    assert ct.column_crosstalk_db[2, 0] == pytest.approx(
        TABLE[1][0] - TABLE[2][0], abs=1e-9)
    assert np.isnan(ct.column_crosstalk_db[1, 0])


def test_crosstalk_invariant_under_common_offset():
    shifted = [[v + 7.5 for v in row] for row in TABLE]
    a = crosstalk_matrix(TABLE, CMAP)
    b = crosstalk_matrix(shifted, CMAP)
    assert np.allclose(a.crosstalk_db, b.crosstalk_db, equal_nan=True)
    assert np.allclose(a.column_crosstalk_db, b.column_crosstalk_db, equal_nan=True)


def test_crosstalk_identity_map():
    table = [[-100.0, -120.0], [-115.0, -95.0]]
    ct = crosstalk_matrix(table, (0, 1))
    assert ct.crosstalk_db[0, 1] == pytest.approx(20.0)
    assert ct.crosstalk_db[1, 0] == pytest.approx(20.0)


def test_crosstalk_validation():
    with pytest.raises(ValueError):
        crosstalk_matrix([[1.0, 2.0]], (0,))
    with pytest.raises(ValueError):
        crosstalk_matrix(TABLE, (0, 0, 1))
    bad = [row[:] for row in TABLE]
    bad[1][2] = float("nan")
    with pytest.raises(ValueError):
        crosstalk_matrix(bad, CMAP)


# -------------------------------------------------------------- snr table


def synthetic_patterns():
    """SNR near 10 when the channel's own bit is on, near 0 otherwise."""
    out = {}
    for v in range(8):
        label = format(v, "03b")
        out[label] = [10.0 + ch if label[ch] == "1" else 0.01 * v
                      for ch in range(3)]
    return out


def test_snr_table_structure():
    records = snr_table(synthetic_patterns(), ["157 MHz", "179 MHz", "194 MHz"])
    assert isinstance(records, list)
    assert len(records) == 3 * 5  # 4 leakage + 1 matched per channel
    for ch, name in enumerate(["157 MHz", "179 MHz", "194 MHz"]):
        # each channel's leakage records, then its matched record
        rows = records[5 * ch:5 * ch + 5]
        assert all(r["channel"] == name for r in rows)
        assert [r["kind"] for r in rows] == ["leakage"] * 4 + ["matched"]
        assert rows[-1]["pattern"] == ("100", "010", "001")[ch]
        assert rows[-1]["snr"] == 10.0 + ch
        pats = [r["pattern"] for r in rows[:-1]]
        assert all(p[ch] == "0" for p in pats)
        assert pats == sorted(pats)
        # all-off pattern appears first in every leakage list
        assert pats[0] == "000"


def test_snr_table_records_are_tidy():
    records = snr_table(synthetic_patterns(), ["a", "b", "c"])
    assert len(records) == 3 * 5  # 4 leakage + 1 matched per channel
    assert {r["kind"] for r in records} == {"leakage", "matched"}
    assert all(list(r) == ["channel", "kind", "pattern", "snr"] for r in records)


def test_snr_table_missing_pattern():
    incomplete = synthetic_patterns()
    del incomplete["011"]
    with pytest.raises(ValueError, match="011"):
        snr_table(incomplete, ["a", "b", "c"])


def test_snr_table_wrong_arity():
    bad = synthetic_patterns()
    bad["010"] = [1.0, 2.0]
    with pytest.raises(ValueError, match="010"):
        snr_table(bad, ["a", "b", "c"])


# ---------------------------------------------------------------- capacity


def test_capacity_reference_band():
    # 0.1-1 GHz at 5 MHz pitch
    assert capacity_estimate(100e6, 1e9, 5e6) == 180


def test_capacity_edge_cases():
    assert capacity_estimate(1e8, 2e8, 1e8) == 1
    assert capacity_estimate(1e8, 1.5e8, 1e8) == 0
    assert capacity_estimate(1e8, 2e8, 9.99e7) == 1


def test_capacity_monotone_in_bandwidth():
    counts = [capacity_estimate(1e8, 1e8 + bw, 5e6)
              for bw in np.linspace(1e7, 9e8, 60)]
    assert all(b >= a for a, b in zip(counts, counts[1:]))


def test_capacity_validation():
    with pytest.raises(ValueError):
        capacity_estimate(1e9, 1e8, 5e6)
    with pytest.raises(ValueError):
        capacity_estimate(1e8, 1e9, 0.0)
    with pytest.raises(ValueError):
        capacity_estimate(0.0, 1e9, 5e6)
    with pytest.raises(ValueError):
        capacity_estimate(1e8, float("inf"), 5e6)
