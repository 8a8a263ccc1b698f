import io
import math

import numpy as np
import pytest
from scipy.special import ndtr

from bikeshare_equity.errors import (
    DegenerateInferenceError,
    NumericOverflowError,
    SingularDesignError,
)
from bikeshare_equity.poisson_glm import (
    CoefficientRow,
    _cholesky,
    DesignMatrix,
    deviance,
    exp_coefficients,
    fit_poisson,
    format_p_value,
    log_likelihood,
    normal_cdf_two_sided,
    render_report,
    report_to_csv,
    report_to_text,
    score,
    significance_stars,
    wald_tests,
)
from helpers import newton_poisson_fit, random_poisson_instance


def design(values, names=None):
    values = np.asarray(values, dtype=float)
    if names is None:
        names = [f"x{i}" for i in range(values.shape[1])]
    return DesignMatrix(values, tuple(names))


# ---------------------------------------------------------------------------
# log_likelihood and score
# ---------------------------------------------------------------------------

def test_log_likelihood_closed_forms():
    X = design([[1.0]])
    assert log_likelihood([0.0], X, [0]) == pytest.approx(-1.0, abs=1e-12)
    assert log_likelihood([0.0], X, [2]) == pytest.approx(-1.0 - math.log(2.0), abs=1e-12)


def test_log_likelihood_matches_per_row_oracle():
    rng = np.random.default_rng(100)
    X = design(np.column_stack([np.ones(20), rng.normal(0, 0.5, size=(20, 2))]))
    beta = rng.uniform(-0.5, 0.5, size=3)
    y = rng.poisson(np.exp(X.values @ beta))
    expected = 0.0
    for row, count in zip(X.values, y):
        eta = float(np.dot(row, beta))
        expected += count * eta - math.exp(eta) - math.lgamma(count + 1.0)
    assert log_likelihood(beta, X, y) == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_log_likelihood_overflow_error():
    X = design([[1.0], [1.0]])
    with pytest.raises(NumericOverflowError):
        log_likelihood([1000.0], X, [1, 2])


def test_score_matches_finite_differences():
    step = 1e-5
    for seed in range(20):
        rng = np.random.default_rng(300 + seed)
        n = int(rng.integers(15, 60))
        p = int(rng.integers(1, 5))
        values = np.ones((n, p))
        if p > 1:
            values[:, 1:] = rng.normal(0, 0.5, size=(n, p - 1))
        X = design(values)
        beta_true = rng.uniform(-0.6, 0.6, size=p)
        y = rng.poisson(np.exp(values @ beta_true))
        beta = beta_true + rng.uniform(-0.3, 0.3, size=p)
        analytic = score(beta, X, y)
        numeric = np.empty(p)
        for j in range(p):
            up = beta.copy()
            down = beta.copy()
            up[j] += step
            down[j] -= step
            numeric[j] = (log_likelihood(up, X, y) - log_likelihood(down, X, y)) / (2 * step)
        rel = np.max(np.abs(numeric - analytic)) / np.max(np.abs(analytic))
        assert rel < 1e-6, f"seed {seed}: relative error {rel}"


# ---------------------------------------------------------------------------
# fit_poisson
# ---------------------------------------------------------------------------

def test_intercept_only_recovers_log_mean():
    X = design([[1.0], [1.0], [1.0]], names=["intercept"])
    fit = fit_poisson(X, [1, 2, 3])
    assert fit.converged
    assert fit.coefficients[0] == pytest.approx(math.log(2.0), abs=1e-10)
    assert math.exp(fit.coefficients[0]) == pytest.approx(2.0, abs=1e-10)


def test_single_predictor_recovery_and_newton_agreement():
    rng = np.random.default_rng(2024)
    n = 2000
    x = rng.uniform(0.0, 1.0, size=n)
    values = np.column_stack([np.ones(n), x])
    beta_true = np.array([0.5, 1.2])
    y = rng.poisson(np.exp(values @ beta_true))
    fit = fit_poisson(design(values, ["intercept", "x"]), y)
    assert fit.converged
    for estimate, truth, se in zip(fit.coefficients, beta_true, fit.standard_errors):
        assert abs(estimate - truth) < 3 * se
    oracle = newton_poisson_fit(values, y)
    np.testing.assert_allclose(fit.coefficients, oracle, atol=1e-6)


def test_duplicated_column_is_singular():
    rng = np.random.default_rng(4)
    x = rng.normal(size=30)
    values = np.column_stack([np.ones(30), x, x])
    y = rng.poisson(np.exp(0.3 + 0.2 * x))
    with pytest.raises(SingularDesignError, match="x_copy") as excinfo:
        fit_poisson(design(values, ["intercept", "x", "x_copy"]), y)
    assert excinfo.value.column == "x_copy"


def test_fit_requires_more_rows_than_columns():
    with pytest.raises(ValueError):
        fit_poisson(design(np.ones((2, 2))), [1, 2])


def test_fit_rejects_negative_counts():
    with pytest.raises(ValueError):
        fit_poisson(design(np.ones((3, 1))), [1, -1, 2])


def test_design_matrix_rejects_non_finite():
    with pytest.raises(ValueError):
        design([[1.0], [np.nan]])


def test_score_vanishes_at_optimum():
    for seed in (0, 1, 2):
        X_values, y = random_poisson_instance(seed)
        X = design(X_values)
        fit = fit_poisson(X, y)
        assert fit.converged
        residual = np.max(np.abs(score(fit.coefficients, X, y)))
        assert residual < 1e-6 * (1.0 + np.max(np.abs(X_values.T @ y)))


def test_deviance_path_non_increasing():
    for seed in (5, 6, 7, 8):
        X_values, y = random_poisson_instance(seed)
        fit = fit_poisson(design(X_values), y)
        path = np.array(fit.deviance_path)
        assert len(path) == fit.iterations + 1
        drops = np.diff(path)
        assert (drops <= 1e-8 * (np.abs(path[:-1]) + 1.0)).all()


def test_covariance_symmetric_positive_diagonal():
    X_values, y = random_poisson_instance(12)
    fit = fit_poisson(design(X_values), y)
    cov = fit.covariance
    assert np.max(np.abs(cov - cov.T)) < 1e-12
    assert (np.diag(cov) > 0).all()
    np.testing.assert_allclose(fit.standard_errors, np.sqrt(np.diag(cov)))


def test_covariance_is_the_inverse_of_the_information():
    """The covariance, from the inverse of X'WX's Cholesky factor, equals a
    solve of X'WX for the identity up to rounding: the two sum in other
    orders, so entries may differ by a few hundred ulps of the largest."""
    for seed in range(12, 24):
        X_values, y = random_poisson_instance(seed, max_cols=12)
        fit = fit_poisson(design(X_values), y)
        mu = np.exp(X_values @ fit.coefficients)
        information = X_values.T @ (X_values * mu[:, None])
        reference = np.linalg.solve(information, np.eye(len(information)))
        atol = 1e-13 * np.abs(reference).max()
        np.testing.assert_allclose(fit.covariance, reference, rtol=0, atol=atol)


def loop_cholesky(a):
    """The lower Cholesky factor with one dot per entry: the row-by-row loop
    whose bits _cholesky's stacked dots keep."""
    n = a.shape[0]
    lower = np.zeros_like(a)
    for j in range(n):
        lower[j, j] = math.sqrt(a[j, j] - lower[j, :j] @ lower[j, :j])
        for i in range(j + 1, n):
            lower[i, j] = (a[i, j] - lower[i, :j] @ lower[j, :j]) / lower[j, j]
    return lower


def test_cholesky_factor_is_bit_identical_to_a_loop_of_dots():
    rng = np.random.default_rng(2026)
    for n in range(1, 17):
        for _ in range(25):
            # Columns scaled over six orders of magnitude, as a weighted
            # design's X'WX can be.
            m = rng.standard_normal((n + 3, n)) * 10.0 ** rng.uniform(-3, 3, size=n)
            a = m.T @ m
            factor = _cholesky(a, [f"x{i}" for i in range(n)])
            np.testing.assert_array_equal(factor.view(np.uint64), loop_cholesky(a).view(np.uint64))


def test_column_scaling_covariance():
    rng = np.random.default_rng(77)
    n = 400
    x = rng.uniform(0, 1, size=n)
    values = np.column_stack([np.ones(n), x])
    y = rng.poisson(np.exp(0.4 + 0.9 * x))
    base = fit_poisson(design(values, ["intercept", "x"]), y)
    c = 4.0
    scaled_values = values.copy()
    scaled_values[:, 1] *= c
    scaled = fit_poisson(design(scaled_values, ["intercept", "x_scaled"]), y)
    assert scaled.coefficients[1] == pytest.approx(base.coefficients[1] / c, rel=1e-8)
    mu_base = np.exp(values @ base.coefficients)
    mu_scaled = np.exp(scaled_values @ scaled.coefficients)
    np.testing.assert_allclose(mu_base, mu_scaled, atol=1e-8, rtol=1e-8)


def test_non_convergence_flag():
    X_values, y = random_poisson_instance(33)
    fit = fit_poisson(design(X_values), y, max_iter=1)
    assert not fit.converged
    with pytest.raises(ValueError):
        wald_tests(fit)


def test_deviance_zero_counts_convention():
    y = np.array([0.0, 2.0])
    mu = np.array([0.5, 2.0])
    # y=0 contributes only -(y - mu) = mu; y=mu contributes 0.
    assert deviance(y, mu) == pytest.approx(2.0 * 0.5)


# ---------------------------------------------------------------------------
# Wald inference and reporting
# ---------------------------------------------------------------------------

def test_wald_p_values():
    assert normal_cdf_two_sided(0.0) == pytest.approx(1.0, abs=1e-15)
    assert normal_cdf_two_sided(1.959964) == pytest.approx(0.05, abs=1e-6)
    assert normal_cdf_two_sided(-1.959964) == normal_cdf_two_sided(1.959964)


def test_wald_matches_independent_normal_cdf():
    for z in (-3.7, -1.2, -0.1, 0.0, 0.4, 1.644854, 2.575829, 5.0):
        expected = float(2.0 * (1.0 - ndtr(abs(z))))
        assert normal_cdf_two_sided(z) == pytest.approx(expected, abs=1e-10)


def test_wald_tests_from_fit():
    X_values, y = random_poisson_instance(50)
    X = design(X_values)
    fit = fit_poisson(X, y)
    pairs = wald_tests(fit)
    assert len(pairs) == X.n_cols
    for (z, p), estimate, se in zip(pairs, fit.coefficients, fit.standard_errors):
        assert z == pytest.approx(estimate / se)
        assert 0.0 <= p <= 1.0


def test_wald_degenerate_inference():
    X_values, y = random_poisson_instance(51)
    fit = fit_poisson(design(X_values), y)
    fit.standard_errors = fit.standard_errors.copy()
    fit.standard_errors[0] = 0.0
    with pytest.raises(DegenerateInferenceError):
        wald_tests(fit)


def test_exp_coefficients_identity():
    X_values, y = random_poisson_instance(52)
    fit = fit_poisson(design(X_values), y)
    np.testing.assert_allclose(exp_coefficients(fit), np.exp(fit.coefficients))
    fit.coefficients = np.zeros_like(fit.coefficients)
    np.testing.assert_allclose(exp_coefficients(fit), np.ones_like(fit.coefficients))


def test_exp_coefficients_published_values():
    # Spot values from the op contract; rounded to 3 decimals then compared
    # at 1e-3 relative (the published pairs were exponentiated before their
    # inputs were rounded, so exact agreement in the last digit is impossible).
    for coefficient, expected in (
        (0.922, 2.515),
        (-3.209, 0.040),
        (6.317, 553.983),
        (3.799, 44.654),
    ):
        ours = round(math.exp(coefficient), 3)
        assert abs(ours - expected) <= 1e-3 * expected


def test_significance_stars_thresholds():
    assert significance_stars(0.234) == ""
    assert significance_stars(0.060) == "*"
    assert significance_stars(0.005) == "***"
    # Boundaries are half-open: a p exactly at a threshold gets the weaker label.
    assert significance_stars(0.01) == "**"
    assert significance_stars(0.05) == "*"
    assert significance_stars(0.1) == ""
    assert significance_stars(0.0) == "***"
    assert significance_stars(1.0) == ""
    with pytest.raises(ValueError):
        significance_stars(1.5)


def test_format_p_value_convention():
    assert format_p_value(0.0004) == "< .001"
    assert format_p_value(0.234) == "0.234"
    assert format_p_value(0.001) == "0.001"


def test_render_report_rows():
    X_values, y = random_poisson_instance(60)
    X = design(X_values)
    fit = fit_poisson(X, y)
    rows = render_report(fit)
    assert len(rows) == X.n_cols
    assert [row.name for row in rows] == list(X.column_names)
    for row in rows:
        assert row.exp_estimate == math.exp(row.estimate)
        assert row.stars == significance_stars(row.p_value)


def test_report_csv_rendering():
    rows = [
        CoefficientRow("thing", -0.0794, math.exp(-0.0794), -1.2, 0.0004, "***"),
        CoefficientRow("other", 1.23456, math.exp(1.23456), 2.0, 0.234, ""),
    ]
    buffer = io.StringIO()
    report_to_csv(rows, buffer)
    lines = buffer.getvalue().splitlines()
    assert lines[0] == "predictor,coefficient,exp_coefficient,p_value,stars"
    assert lines[1].startswith("thing,-0.079,")
    assert "< .001" in lines[1]
    assert lines[2].startswith("other,1.235,")
    assert lines[2].endswith("0.234,")


def test_report_text_alignment():
    rows = [CoefficientRow("alpha", 0.5, math.exp(0.5), 3.0, 0.002, "***")]
    text = report_to_text(rows)
    assert "predictor" in text.splitlines()[0]
    assert "alpha" in text.splitlines()[1]


# ---------------------------------------------------------------------------
# Newton-oracle agreement
# ---------------------------------------------------------------------------

def test_fit_matches_newton_oracle_on_random_instances():
    for seed in range(10):
        X_values, y = random_poisson_instance(700 + seed)
        fit = fit_poisson(design(X_values), y)
        assert fit.converged, f"seed {seed}"
        oracle = newton_poisson_fit(X_values, y)
        np.testing.assert_allclose(
            fit.coefficients, oracle, atol=1e-6, err_msg=f"seed {seed}"
        )
