import numpy as np
import pytest
from scipy import stats

from edgevault.errors import (
    NonFiniteValuesError,
    TooFewDistinctValuesError,
    TooFewSamplesError,
    ValueRangeError,
    ZeroVarianceError,
)
from edgevault.profiler import (
    FAMILIES,
    FitReport,
    Sample,
    _pdf,
    detect_outliers,
    fit_distribution,
    regroup_devices,
)


# --- pdf formulas cross-checked against scipy (independent oracle) -----------

def test_pdf_formulas_match_scipy():
    x = np.linspace(0.05, 8.0, 50)
    np.testing.assert_allclose(
        _pdf("normal", {"mu": 2.0, "sigma": 1.5}, x),
        stats.norm.pdf(x, loc=2.0, scale=1.5), rtol=1e-12,
    )
    np.testing.assert_allclose(
        _pdf("exponential", {"rate": 2.0}, x),
        stats.expon.pdf(x, scale=0.5), rtol=1e-12,
    )
    np.testing.assert_allclose(
        _pdf("uniform", {"low": 1.0, "high": 5.0}, x),
        stats.uniform.pdf(x, loc=1.0, scale=4.0), rtol=1e-12,
    )
    np.testing.assert_allclose(
        _pdf("lognormal", {"log_mu": 0.3, "log_sigma": 0.8}, x),
        stats.lognorm.pdf(x, s=0.8, scale=np.exp(0.3)), rtol=1e-12,
    )


# --- fitting ------------------------------------------------------------------

def test_fit_recovers_normal(rng):
    values = rng.normal(0.0, 1.0, 10_000)
    report = fit_distribution(Sample(values))
    assert report.best_family == "normal"
    assert abs(report.params["mu"]) < 0.05
    assert abs(report.params["sigma"] - 1.0) < 0.05


def test_fit_recovers_exponential(rng):
    values = rng.exponential(scale=0.5, size=10_000)  # rate 2
    report = fit_distribution(Sample(values))
    assert report.best_family == "exponential"
    assert 1.9 <= report.params["rate"] <= 2.1


def test_fit_recovers_uniform(rng):
    values = rng.uniform(3.0, 9.0, 10_000)
    report = fit_distribution(Sample(values))
    assert report.best_family == "uniform"
    assert abs(report.params["low"] - 3.0) < 0.05
    assert abs(report.params["high"] - 9.0) < 0.05


def test_fit_recovers_lognormal(rng):
    values = rng.lognormal(mean=0.5, sigma=0.6, size=10_000)
    report = fit_distribution(Sample(values))
    assert report.best_family == "lognormal"
    assert abs(report.params["log_mu"] - 0.5) < 0.05
    assert abs(report.params["log_sigma"] - 0.6) < 0.05


def test_support_violations_scored_infinite(rng):
    values = rng.normal(0.0, 1.0, 5_000)  # has negatives
    report = fit_distribution(Sample(values))
    assert report.per_family_rss["exponential"] == np.inf
    assert report.per_family_rss["lognormal"] == np.inf


def test_lognormal_scores_infinite_when_every_log_rounds_to_one_value():
    # nine consecutive doubles near 1e20 differ, but their logs do not
    values = np.array([1e20 + i * np.spacing(1e20) for i in range(9)])
    assert np.ptp(values) > 0 and np.log(values).std() == 0.0
    report = fit_distribution(Sample(values))
    assert report.per_family_rss["lognormal"] == np.inf
    assert report.best_family != "lognormal"


def test_best_family_attains_minimum(rng):
    report = fit_distribution(Sample(rng.normal(5, 2, 2000)))
    assert report.rss == min(report.per_family_rss.values())
    assert report.rss >= 0.0
    assert set(report.per_family_rss) == set(FAMILIES)


def test_fit_errors():
    with pytest.raises(TooFewSamplesError):
        fit_distribution(Sample([1.0, 2.0, 3.0]))
    with pytest.raises(NonFiniteValuesError):
        fit_distribution(Sample([1.0, np.nan] + [2.0] * 10))
    with pytest.raises(TooFewDistinctValuesError):
        fit_distribution(Sample([5.0] * 100))


@pytest.mark.parametrize("a", [1e300, 1.0, 5e-324])
def test_distinct_values_too_close_for_the_bins_are_too_few_distinct(a):
    # np.histogram cannot cut a and the next double into finite-sized bins;
    # this was once its raw ValueError
    with pytest.raises(TooFewDistinctValuesError, match="finite-sized bins"):
        fit_distribution(Sample([a, np.nextafter(a, np.inf)] * 10))


@pytest.mark.parametrize("values,what", [
    ([1e308] * 9 + [-1e308], "mean or range"),
    ([1e308] * 10, "mean or range"),
    ([1e308, -1e308] * 5, "mean or range"),  # the mean is 0; max - min overflows
    ([0.0] * 99 + [1e160], "standard deviation"),  # the squared deviation overflows
], ids=["far-apart", "sum", "range", "squares"])
def test_a_sample_whose_moments_overflow_is_a_value_range_error(values, what):
    # once: no outliers, too-few-distinct-values for far-apart values, or an
    # infinite sigma; numpy's overflow warnings are errors here
    with np.errstate(all="raise"):
        for analyse in (fit_distribution, detect_outliers):
            with pytest.raises(ValueRangeError, match=what) as info:
                analyse(Sample(values))
            assert info.value.code == "value-range"


def test_family_recovery_rate(rng):
    # 50 trials per family at N=1000 here; the acceptance suite runs 200
    generators = {
        "normal": lambda r: r.normal(0, 1, 1000),
        "exponential": lambda r: r.exponential(1.0, 1000),
        "uniform": lambda r: r.uniform(0, 1, 1000),
        "lognormal": lambda r: r.lognormal(0.0, 0.5, 1000),
    }
    for family, gen in generators.items():
        hits = sum(
            fit_distribution(Sample(gen(np.random.default_rng(1000 + t)))).best_family == family
            for t in range(50)
        )
        assert hits >= 47, f"{family}: {hits}/50"


# --- outliers -----------------------------------------------------------------

def test_outlier_arithmetic_example():
    # [0,0,0,0,100]: mean 20, population std 40, |100-20| = 2 sigma
    sample = Sample([0.0, 0.0, 0.0, 0.0, 100.0])
    assert detect_outliers(sample, threshold_sigmas=3.0).tolist() == []
    assert detect_outliers(sample, threshold_sigmas=1.5).tolist() == [4]


def test_outlier_fraction_normal(rng):
    values = rng.normal(0, 1, 10_000)
    frac = detect_outliers(Sample(values), 3.0).shape[0] / 10_000
    assert abs(frac - 0.0027) < 0.002


def test_outlier_zero_variance():
    with pytest.raises(ZeroVarianceError):
        detect_outliers(Sample([2.0, 2.0, 2.0]))


def test_outlier_affine_invariance(rng):
    values = rng.normal(10, 3, 5_000)
    base = detect_outliers(Sample(values), 2.5).tolist()
    for a, b in ((2.0, 0.0), (-1.5, 7.0), (0.001, -4.0)):
        transformed = detect_outliers(Sample(a * values + b), 2.5).tolist()
        assert transformed == base, (a, b)


# --- regrouping ------------------------------------------------------------------

def _report(label, family, **params):
    return FitReport(device_label=label, best_family=family, params=params, rss=0.0)


def test_same_family_same_params_grouped():
    groups = regroup_devices([
        _report("a", "normal", mu=0.0, sigma=1.0),
        _report("b", "normal", mu=0.0, sigma=1.0),
    ])
    assert groups == [["a", "b"]]


def test_different_families_split():
    groups = regroup_devices([
        _report("a", "normal", mu=0.0, sigma=1.0),
        _report("b", "exponential", rate=1.0),
    ])
    assert sorted(map(sorted, groups)) == [["a"], ["b"]]


def test_distant_params_split():
    # normal(0,1) vs normal(10,1): relative distance ~ 0.995 > 0.25
    groups = regroup_devices([
        _report("a", "normal", mu=0.0, sigma=1.0),
        _report("b", "normal", mu=10.0, sigma=1.0),
    ])
    assert len(groups) == 2


def test_transitive_linking():
    # a-b close, b-c close, a-c not: still one connected component
    groups = regroup_devices([
        _report("a", "normal", mu=10.0, sigma=1.0),
        _report("b", "normal", mu=11.5, sigma=1.0),
        _report("c", "normal", mu=13.0, sigma=1.0),
    ])
    assert len(groups) == 1


def test_all_zero_parameters_are_at_distance_zero():
    groups = regroup_devices([_report("a", "normal", mu=0.0, sigma=0.0),
                              _report("b", "normal", mu=0.0, sigma=0.0)])
    assert groups == [["a", "b"]]


def test_regroup_empty_rejected():
    with pytest.raises(TooFewSamplesError):
        regroup_devices([])


def test_fit_report_json():
    report = _report("dev", "normal", mu=1.0, sigma=2.0)
    d = report.to_json_dict()
    assert d["device_label"] == "dev"
    assert d["best_family"] == "normal"
