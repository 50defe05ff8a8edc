"""Edge-side data intelligence: best-fit distribution selection by residual
sum of squares, and sigma-threshold outlier detection.

The candidate family set is fixed to four closed-form families fitted by
method of moments against a density histogram with ceil(sqrt(N)) equal-width
bins.  Deterministic by construction; no iterative solvers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    NonFiniteValuesError,
    TooFewDistinctValuesError,
    TooFewSamplesError,
    ValueRangeError,
    ZeroVarianceError,
)

__all__ = [
    "Sample",
    "FitReport",
    "FAMILIES",
    "fit_distribution",
    "detect_outliers",
]

#: fixed candidate order; ties in RSS break toward the earlier family
FAMILIES = ("normal", "exponential", "uniform", "lognormal")

MIN_FIT_SAMPLES = 8


@dataclass
class Sample:
    values: np.ndarray
    device_label: str = ""

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)


@dataclass
class FitReport:
    device_label: str
    best_family: str
    params: dict[str, float]
    rss: float
    per_family_rss: dict[str, float] = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "device_label": self.device_label,
            "best_family": self.best_family,
            "params": self.params,
            "rss": self.rss,
            "per_family_rss": self.per_family_rss,
        }


def _validate(values: np.ndarray, min_len: int):
    if values.ndim != 1 or values.shape[0] < min_len:
        raise TooFewSamplesError(f"need at least {min_len} values, got {values.shape}")
    if not np.all(np.isfinite(values)):
        raise NonFiniteValuesError("sample contains NaN or infinite values")
    with np.errstate(over="ignore"):
        if not (np.isfinite(values.mean()) and np.isfinite(np.ptp(values))):
            raise ValueRangeError("the sample's mean or range overflows a double")


def _std(values: np.ndarray) -> float:
    """The population standard deviation, refused if the squared deviations overflow."""
    with np.errstate(over="ignore"):
        std = float(values.std())
    if std == math.inf:
        raise ValueRangeError("the sample's standard deviation overflows a double")
    return std


def _pdf(family: str, params: dict[str, float], x: np.ndarray) -> np.ndarray:
    if family == "normal":
        mu, sigma = params["mu"], params["sigma"]
        return np.exp(-0.5 * ((x - mu) / sigma) ** 2) / (sigma * math.sqrt(2 * math.pi))
    if family == "exponential":
        lam = params["rate"]
        return np.where(x >= 0, lam * np.exp(-lam * np.maximum(x, 0)), 0.0)
    if family == "uniform":
        a, b = params["low"], params["high"]
        return np.where((x >= a) & (x <= b), 1.0 / (b - a), 0.0)
    mu, sigma = params["log_mu"], params["log_sigma"]  # lognormal
    safe = np.maximum(x, np.finfo(float).tiny)
    pdf = np.exp(-0.5 * ((np.log(safe) - mu) / sigma) ** 2) / (
        safe * sigma * math.sqrt(2 * math.pi)
    )
    return np.where(x > 0, pdf, 0.0)


def _moment_params(family: str, values: np.ndarray) -> dict[str, float] | None:
    """Method-of-moments estimates; None when the family's support is violated."""
    if family == "normal":
        return {"mu": float(values.mean()), "sigma": _std(values)}
    if family == "exponential":
        if values.min() <= 0:
            return None
        return {"rate": float(1.0 / values.mean())}
    if family == "uniform":
        return {"low": float(values.min()), "high": float(values.max())}
    if values.min() <= 0:  # lognormal
        return None
    logs = np.log(values)
    sigma = float(logs.std())
    if sigma == 0.0:
        return None
    return {"log_mu": float(logs.mean()), "log_sigma": sigma}


def fit_distribution(sample: Sample) -> FitReport:
    """Pick the family minimizing the RSS between the density histogram and
    the moment-fitted pdf at the bin centers.

    Families whose support the data violates score infinite RSS and can
    never win.
    """
    values = sample.values
    _validate(values, MIN_FIT_SAMPLES)
    if np.ptp(values) == 0.0:
        raise TooFewDistinctValuesError("all values identical; no distribution to fit")

    k = math.ceil(math.sqrt(values.shape[0]))
    try:
        density, edges = np.histogram(values, bins=k, density=True)
    except ValueError:  # numpy's "Too many bins for data range"
        raise TooFewDistinctValuesError(
            f"the values' range cannot be cut into {k} finite-sized bins"
        ) from None
    centers = 0.5 * (edges[:-1] + edges[1:])

    per_family_rss: dict[str, float] = {}
    fitted: dict[str, dict[str, float]] = {}
    for family in FAMILIES:
        params = _moment_params(family, values)
        if params is None:
            per_family_rss[family] = math.inf
            continue
        resid = density - _pdf(family, params, centers)
        per_family_rss[family] = float(np.sum(resid * resid))
        fitted[family] = params

    best = min(FAMILIES, key=lambda f: per_family_rss[f])
    return FitReport(
        device_label=sample.device_label,
        best_family=best,
        params=fitted[best],
        rss=per_family_rss[best],
        per_family_rss=per_family_rss,
    )


def detect_outliers(sample: Sample, threshold_sigmas: float = 3.0) -> np.ndarray:
    """Indices where |x - mean| exceeds threshold * population stddev; the
    threshold is a finite number of standard deviations, at least 0."""
    if not 0.0 <= threshold_sigmas < math.inf:  # false for nan too
        raise ValueRangeError(f"threshold must be finite and at least 0, got {threshold_sigmas}")
    values = sample.values
    _validate(values, 2)
    mean = values.mean()
    std = _std(values)
    if std == 0.0:
        raise ZeroVarianceError("sample has zero variance")
    return np.nonzero(np.abs(values - mean) > threshold_sigmas * std)[0]
