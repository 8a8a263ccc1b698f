"""Poisson log-link regression via iteratively reweighted least squares.

The fit follows the canonical GLM recipe: start from an intercept at
log(mean(y) + 0.1), iterate weighted least squares on the working response
z = eta + (y - mu) / mu with weights mu, solve the normal equations by a
symmetric positive-definite (Cholesky) factorization, and stop when the
relative deviance change |dev - dev_prev| / (|dev| + 0.1) drops below the
tolerance. A step-halving fallback (up to 10 halvings) guards the rare
iteration where a full step would increase the deviance, so the recorded
deviance path is non-increasing. The coefficient covariance is the inverse
Fisher information (X'WX)^-1 at the optimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence, TextIO

import numpy as np

from .errors import DegenerateInferenceError, NumericOverflowError, SingularDesignError

MAX_STEP_HALVINGS = 10

REPORT_COLUMNS = ("predictor", "coefficient", "exp_coefficient", "p_value", "stars")


@dataclass
class DesignMatrix:
    """Dense row-major design matrix with named columns."""

    values: np.ndarray
    column_names: tuple[str, ...]

    def __post_init__(self):
        self.values = np.ascontiguousarray(self.values, dtype=float)
        if self.values.ndim != 2:
            raise ValueError("design matrix must be two-dimensional")
        self.column_names = tuple(str(name) for name in self.column_names)
        if len(self.column_names) != self.values.shape[1]:
            raise ValueError(
                f"{len(self.column_names)} column names for "
                f"{self.values.shape[1]} columns"
            )
        if not np.isfinite(self.values).all():
            raise ValueError("design matrix contains non-finite entries")

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_cols(self) -> int:
        return self.values.shape[1]


@dataclass
class GlmFit:
    coefficients: np.ndarray
    covariance: np.ndarray
    standard_errors: np.ndarray
    deviance: float
    iterations: int
    converged: bool
    column_names: tuple[str, ...]
    deviance_path: list[float] = field(default_factory=list)


@dataclass(frozen=True)
class CoefficientRow:
    name: str
    estimate: float
    exp_estimate: float
    z_statistic: float
    p_value: float
    stars: str


def _validate_counts(y, n_rows: int) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    if y.ndim != 1 or y.shape[0] != n_rows:
        raise ValueError("response must be a vector matching the design rows")
    if not np.isfinite(y).all() or (y < 0).any() or (y != np.round(y)).any():
        raise ValueError("response must contain non-negative integer counts")
    return y


def _mean_response(beta: np.ndarray, X: DesignMatrix) -> tuple[np.ndarray, np.ndarray]:
    eta = X.values @ beta
    if not np.isfinite(eta).all():
        raise NumericOverflowError("non-finite linear predictor")
    with np.errstate(over="ignore"):
        mu = np.exp(eta)
    if not np.isfinite(mu).all():
        raise NumericOverflowError("exp(linear predictor) overflowed")
    return eta, mu


def log_likelihood(beta, X: DesignMatrix, y) -> float:
    """Poisson log likelihood: sum of y*eta - exp(eta) - log(y!)."""
    beta = np.asarray(beta, dtype=float)
    y = _validate_counts(y, X.n_rows)
    eta, mu = _mean_response(beta, X)
    log_factorials = np.array([math.lgamma(count + 1.0) for count in y.tolist()])
    return float(np.sum(y * eta - mu - log_factorials))


def score(beta, X: DesignMatrix, y) -> np.ndarray:
    """Analytic gradient of log_likelihood: X'(y - exp(X beta))."""
    beta = np.asarray(beta, dtype=float)
    y = _validate_counts(y, X.n_rows)
    _, mu = _mean_response(beta, X)
    return X.values.T @ (y - mu)


def deviance(y, mu) -> float:
    """Poisson deviance 2*sum[y*log(y/mu) - (y - mu)], with 0*log(0) = 0."""
    y = np.asarray(y, dtype=float)
    mu = np.asarray(mu, dtype=float)
    terms = -(y - mu)
    positive = y > 0
    terms[positive] += y[positive] * np.log(y[positive] / mu[positive])
    return float(2.0 * np.sum(terms))


def _cholesky(a: np.ndarray, column_names: Sequence[str]) -> np.ndarray:
    """Lower Cholesky factor; a non-positive pivot names the collinear column."""
    n = a.shape[0]
    lower = np.zeros_like(a)
    for j in range(n):
        pivot = a[j, j] - lower[j, :j] @ lower[j, :j]
        # Relative pivot floor: exact collinearity lands many orders below this.
        if pivot <= abs(a[j, j]) * 1e-10 or pivot <= 0.0:
            name = column_names[j] if j < len(column_names) else f"column {j}"
            raise SingularDesignError(
                f"design is rank deficient at pivot column {name!r}", column=name
            )
        lower[j, j] = math.sqrt(pivot)
        for i in range(j + 1, n):
            lower[i, j] = (a[i, j] - lower[i, :j] @ lower[j, :j]) / lower[j, j]
    return lower


def _substitute(lower: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The solution x of lower @ lower.T @ x = b: forward, then back substitution."""
    forward = np.zeros_like(b)
    for i in range(len(b)):
        forward[i] = (b[i] - lower[i, :i] @ forward[:i]) / lower[i, i]
    solution = np.zeros_like(b)
    for i in reversed(range(len(b))):
        solution[i] = (forward[i] - lower[i + 1 :, i] @ solution[i + 1 :]) / lower[i, i]
    return solution


def _spd_inverse(a: np.ndarray, column_names: Sequence[str]) -> np.ndarray:
    lower = _cholesky(a, column_names)
    inverse = np.column_stack([_substitute(lower, unit) for unit in np.eye(a.shape[0])])
    return (inverse + inverse.T) / 2.0


def fit_poisson(
    X: DesignMatrix, y, tol: float = 1e-8, max_iter: int = 25
) -> GlmFit:
    """Fit the Poisson log-link regression of counts y on the design X.

    Args:
        X: design matrix; the first column is expected to be the intercept.
        y: non-negative integer counts, one per design row.
        tol: relative deviance-change tolerance for convergence.
        max_iter: IRLS iteration cap; hitting it returns converged=False.

    Raises:
        SingularDesignError: the weighted normal equations are rank deficient
            (names the offending pivot column).
        ValueError: fewer rows than columns, or y is not a count vector.
    """
    y = _validate_counts(y, X.n_rows)
    if X.n_rows <= X.n_cols:
        raise ValueError(
            f"need more rows ({X.n_rows}) than design columns ({X.n_cols})"
        )
    values = X.values
    beta = np.zeros(X.n_cols)
    beta[0] = math.log(float(np.mean(y)) + 0.1)
    eta, mu = _mean_response(beta, X)
    dev = deviance(y, mu)
    deviance_path = [dev]
    converged = False
    iterations = 0
    for iteration in range(1, max_iter + 1):
        iterations = iteration
        weights = mu
        working = eta + (y - mu) / mu
        xtwx = values.T @ (values * weights[:, None])
        xtwz = values.T @ (weights * working)
        proposal = _substitute(_cholesky(xtwx, X.column_names), xtwz)
        step = proposal - beta
        alpha = 1.0
        accepted = False
        for _ in range(MAX_STEP_HALVINGS + 1):
            candidate = beta + alpha * step
            eta_new = values @ candidate
            with np.errstate(over="ignore"):
                mu_new = np.exp(eta_new)
            if np.isfinite(mu_new).all() and (mu_new > 0).all():
                dev_new = deviance(y, mu_new)
                if dev_new <= dev + 1e-10 * (abs(dev) + 1.0):
                    accepted = True
                    break
            alpha *= 0.5
        if not accepted:
            break
        rel_change = abs(dev_new - dev) / (abs(dev_new) + 0.1)
        beta, eta, mu, dev = candidate, eta_new, mu_new, dev_new
        deviance_path.append(dev)
        if rel_change < tol:
            converged = True
            break
    xtwx = values.T @ (values * mu[:, None])
    covariance = _spd_inverse(xtwx, X.column_names)
    return GlmFit(
        coefficients=beta,
        covariance=covariance,
        standard_errors=np.sqrt(np.diag(covariance)),
        deviance=dev,
        iterations=iterations,
        converged=converged,
        column_names=X.column_names,
        deviance_path=deviance_path,
    )


def normal_cdf_two_sided(z: float) -> float:
    """Two-sided tail probability 2*(1 - Phi(|z|)) of the standard normal."""
    return math.erfc(abs(z) / math.sqrt(2.0))


def wald_tests(fit: GlmFit) -> list[tuple[float, float]]:
    """Per-coefficient (z, p) pairs: z = estimate / SE, p two-sided normal."""
    if not fit.converged:
        raise ValueError("Wald inference requires a converged fit")
    pairs = []
    for name, estimate, se in zip(
        fit.column_names, fit.coefficients, fit.standard_errors
    ):
        if not math.isfinite(se) or se <= 0.0:
            raise DegenerateInferenceError(
                f"standard error for {name!r} is {se!r}; z statistic undefined"
            )
        z = float(estimate) / float(se)
        pairs.append((z, normal_cdf_two_sided(z)))
    return pairs


def exp_coefficients(fit: GlmFit) -> np.ndarray:
    """Multiplicative factors on the predicted count: elementwise exp."""
    return np.exp(fit.coefficients)


def significance_stars(p: float) -> str:
    """Star label for a p-value: *** below .01, ** below .05, * below .1."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p-value out of [0, 1]: {p!r}")
    if p < 0.01:
        return "***"
    if p < 0.05:
        return "**"
    if p < 0.1:
        return "*"
    return ""


def render_report(
    fit: GlmFit, names: Sequence[str] | None = None
) -> list[CoefficientRow]:
    """Coefficient table rows in design-column order."""
    names = tuple(names) if names is not None else fit.column_names
    if len(names) != len(fit.coefficients):
        raise ValueError("one name per coefficient required")
    rows = []
    for name, estimate, (z, p) in zip(names, fit.coefficients, wald_tests(fit)):
        rows.append(
            CoefficientRow(
                name=name,
                estimate=float(estimate),
                exp_estimate=math.exp(float(estimate)),
                z_statistic=z,
                p_value=p,
                stars=significance_stars(p),
            )
        )
    return rows


def format_p_value(p: float) -> str:
    return "< .001" if p < 0.001 else f"{p:.3f}"


def report_to_csv(rows: Iterable[CoefficientRow], fh: TextIO) -> None:
    """Write the coefficient table with 3-decimal rounding and the "< .001"
    convention for tiny p-values."""
    fh.write(",".join(REPORT_COLUMNS) + "\n")
    for row in rows:
        fh.write(
            f"{row.name},{row.estimate:.3f},{row.exp_estimate:.3f},"
            f"{format_p_value(row.p_value)},{row.stars}\n"
        )


def report_to_text(rows: Iterable[CoefficientRow]) -> str:
    """Aligned plain-text coefficient table."""
    body = [
        (
            row.name,
            f"{row.estimate:.3f}",
            f"{row.exp_estimate:.3f}",
            format_p_value(row.p_value),
            row.stars,
        )
        for row in rows
    ]
    table = [REPORT_COLUMNS, *body]
    widths = [max(len(line[i]) for line in table) for i in range(len(REPORT_COLUMNS))]
    lines = []
    for line in table:
        lines.append(
            "  ".join(cell.ljust(width) for cell, width in zip(line, widths)).rstrip()
        )
    return "\n".join(lines)
