import numpy as np
import pytest

from interfero import MetricSeries, ValidationError, decompose, histogram_counts, mse, summarize


def series_from_deviations(dev_c, dev_p):
    """Series with zero theory so experimental = -deviation."""
    dev_c = np.asarray(dev_c, dtype=float)
    dev_p = np.asarray(dev_p, dtype=float)
    n = dev_c.shape[0]
    return MetricSeries(
        angles=np.arange(n, dtype=float),
        experimental_c=-dev_c,
        experimental_p=-dev_p,
        theory_c=np.zeros(n),
        theory_p=np.zeros(n),
    )


def random_series(rng, n):
    return MetricSeries(
        angles=np.linspace(0, 1, n),
        experimental_c=rng.standard_normal(n),
        experimental_p=rng.standard_normal(n),
        theory_c=rng.standard_normal(n),
        theory_p=rng.standard_normal(n),
    )


def test_mse_zero_when_matching():
    assert mse(np.zeros(5), np.zeros(5)) == 0.0


def test_mse_single_point():
    assert mse(np.array([0.1]), np.array([0.1])) == pytest.approx(0.04, abs=1e-15)


def test_mse_rejects_empty():
    with pytest.raises(ValidationError):
        mse(np.array([]), np.array([]))


def test_corr_term_matching_series_is_zero():
    series = series_from_deviations([0.0, 0.0], [0.0, 0.0])
    assert decompose(series).corr == 0.0


def test_corr_term_anticorrelated():
    series = series_from_deviations([0.1, 0.1], [-0.1, -0.1])
    assert decompose(series).corr == pytest.approx(-0.02, abs=1e-15)


def test_corr_term_orthogonal_deviations():
    series = series_from_deviations([1.0, 0.0], [0.0, 1.0])
    assert decompose(series).corr == pytest.approx(0.0, abs=1e-15)


def test_decompose_zero_deviations():
    report = decompose(series_from_deviations([0.0, 0.0], [0.0, 0.0]))
    assert (report.mse_sum, report.mse_c, report.mse_p, report.corr) == (0.0, 0.0, 0.0, 0.0)


def test_decompose_masking_pathology_in_miniature():
    # per-index deviation pairs (0.1, -0.1) and (0, 0): the summed MSE hides
    # the individual errors behind a negative cross term
    report = decompose(series_from_deviations([0.1, 0.0], [-0.1, 0.0]))
    assert report.mse_sum == pytest.approx(0.0, abs=1e-15)
    assert report.mse_c == pytest.approx(0.005, abs=1e-15)
    assert report.mse_p == pytest.approx(0.005, abs=1e-15)
    assert report.corr == pytest.approx(-0.01, abs=1e-15)


def test_decomposition_identity_for_random_series():
    rng = np.random.default_rng(53)
    for _ in range(1000):
        n = int(rng.integers(1, 65))
        report = decompose(random_series(rng, n))
        assert abs(report.mse_sum - report.mse_c - report.mse_p - report.corr) <= 1e-12


def test_cauchy_schwarz_bound_on_corr():
    rng = np.random.default_rng(59)
    for _ in range(200):
        report = decompose(random_series(rng, int(rng.integers(1, 33))))
        assert abs(report.corr) <= 2 * np.sqrt(report.mse_c * report.mse_p) + 1e-12


def test_mse_invariant_under_concatenation():
    rng = np.random.default_rng(61)
    series = random_series(rng, 16)
    dc, dp = series.deviations()
    base = mse(dc, dp)
    for k in (2, 3, 5):
        assert abs(mse(np.tile(dc, k), np.tile(dp, k)) - base) <= 1e-12


def test_summarize_single_value():
    report = summarize([0.2])
    assert report.mean == pytest.approx(0.2)
    assert report.std == 0.0
    assert report.min == report.max == pytest.approx(0.2)
    assert sum(report.histogram) == 1


def test_summarize_equal_values_zero_std():
    report = summarize([0.4, 0.4, 0.4])
    assert report.std == 0.0


def test_summarize_two_values_population_std_and_bins():
    report = summarize([0.1, 0.3])
    assert report.mean == pytest.approx(0.2, abs=1e-15)
    assert report.std == pytest.approx(0.1, abs=1e-15)
    assert report.histogram[6] == 1
    assert report.histogram[18] == 1
    assert sum(report.histogram) == 2


def test_summarize_aggregates_decompositions():
    a = decompose(series_from_deviations([0.1, 0.0], [-0.1, 0.0]))
    b = decompose(series_from_deviations([0.2, 0.2], [0.0, 0.0]))
    report = summarize([a.mse_sum, b.mse_sum], (a, b))
    assert report.mse_c == pytest.approx((a.mse_c + b.mse_c) / 2, abs=1e-15)
    assert report.corr == pytest.approx((a.corr + b.corr) / 2, abs=1e-15)
    assert abs(report.mse_sum - report.mse_c - report.mse_p - report.corr) <= 1e-12


def test_histogram_clamps_and_counts_overflow():
    counts, overflow = histogram_counts([0.0, 0.5, 1.0, 1.5, np.inf, -0.2, -np.inf])
    assert counts[0] == 3  # 0.0, and -0.2 and -inf clamp into the first bin
    assert counts[30] == 1
    assert counts[59] == 3  # 1.0 lands in the last bin, 1.5 and inf clamp into it
    assert overflow == 2
    assert sum(counts) == 7


@pytest.mark.parametrize(
    "call",
    [
        lambda: summarize([0.1, np.nan]),
        lambda: histogram_counts([np.nan]),
        lambda: decompose(series_from_deviations([0.1, np.nan], [0.0, 0.2])),
    ],
    ids=["summarize", "histogram_counts", "decompose"],
)
def test_a_nan_mse_value_is_a_one_line_validation_error(call):
    with pytest.raises(ValidationError, match=r"^an MSE value is NaN$"):
        call()


def test_series_length_validation():
    with pytest.raises(ValidationError):
        MetricSeries(
            angles=np.array([0.0, 1.0]),
            experimental_c=np.array([0.0]),
            experimental_p=np.array([0.0, 0.0]),
            theory_c=np.array([0.0, 0.0]),
            theory_p=np.array([0.0, 0.0]),
        )
    with pytest.raises(ValidationError):
        MetricSeries(
            angles=np.array([]),
            experimental_c=np.array([]),
            experimental_p=np.array([]),
            theory_c=np.array([]),
            theory_p=np.array([]),
        )
