"""Deconstructed mean-squared-error analysis of metric series.

The MSE of the summed deviation splits exactly into the two individual MSEs
plus a covariance-like cross term:

    mean((dc + dp)^2) = mean(dc^2) + mean(dp^2) + 2*mean(dc*dp)

A strongly negative cross term can push the summed MSE near zero while both
individual errors stay large, which is why reports always carry all four
numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

HIST_BINS = 60


@dataclass(frozen=True)
class MetricSeries:
    """Experimental and reference coherence/predictability over one angle grid."""

    angles: np.ndarray
    experimental_c: np.ndarray
    experimental_p: np.ndarray
    theory_c: np.ndarray
    theory_p: np.ndarray

    def __post_init__(self) -> None:
        arrays = {}
        n = None
        for name in ("angles", "experimental_c", "experimental_p", "theory_c", "theory_p"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.ndim != 1:
                raise ValidationError(f"{name} must be 1-D")
            if n is None:
                n = arr.shape[0]
            elif arr.shape[0] != n:
                raise ValidationError(f"{name} has length {arr.shape[0]}, expected {n}")
            arrays[name] = arr
        if n == 0:
            raise ValidationError("a metric series needs at least one point")
        for name, arr in arrays.items():
            object.__setattr__(self, name, arr)

    def deviations(self) -> tuple[np.ndarray, np.ndarray]:
        """(theory - experimental) for coherence and predictability."""
        return self.theory_c - self.experimental_c, self.theory_p - self.experimental_p


@dataclass(frozen=True)
class MseReport:
    """Decomposed MSE plus the distribution over repeated experiments."""

    mse_sum: float
    mse_c: float
    mse_p: float
    corr: float
    mean: float
    std: float
    min: float
    max: float
    histogram: tuple[int, ...]
    overflow: int


def mse(dev_c: np.ndarray, dev_p: np.ndarray) -> float:
    """Mean squared summed deviation, mean((dc + dp)^2)."""
    dev_c = np.asarray(dev_c, dtype=float)
    dev_p = np.asarray(dev_p, dtype=float)
    if dev_c.size == 0 or dev_c.shape != dev_p.shape:
        raise ValidationError("deviation arrays must be nonempty and of equal length")
    return float(np.mean((dev_c + dev_p) ** 2))


def decompose(series: MetricSeries) -> MseReport:
    """Single-experiment report: mse_sum = mse_c + mse_p + corr by identity."""
    dc, dp = series.deviations()
    total = mse(dc, dp)
    mse_c = float(np.mean(dc**2))
    mse_p = float(np.mean(dp**2))
    cross = 2.0 * float(np.mean(dc * dp))
    return _distribution(np.array([total]), total, mse_c, mse_p, cross)


def decompose_rows(dev_c: np.ndarray, dev_p: np.ndarray) -> MseReport:
    """:func:`summarize` over the :func:`decompose` of every row of two ``(m, n)`` deviation arrays.

    Each row is one experiment's series.  The rows are reduced along their
    own contiguous axis, as :func:`decompose` reduces one series, so the
    per-experiment values are bitwise equal to ``decompose`` on each row, and
    the scalar fields are the means over the rows.
    """
    dev_c = np.ascontiguousarray(dev_c, dtype=float)
    dev_p = np.ascontiguousarray(dev_p, dtype=float)
    if dev_c.ndim != 2 or dev_c.size == 0 or dev_c.shape != dev_p.shape:
        raise ValidationError("deviation arrays must be nonempty, 2-D and of equal shape")
    values = np.mean((dev_c + dev_p) ** 2, axis=-1)
    parts = (values, np.mean(dev_c**2, axis=-1), np.mean(dev_p**2, axis=-1), 2.0 * np.mean(dev_c * dev_p, axis=-1))
    return _distribution(values, *(float(np.mean(part)) for part in parts))


def summarize(values, decompositions: tuple[MseReport, ...] = ()) -> MseReport:
    """Distribution report over ``m`` repeated experiments.

    ``values`` are the per-experiment mse_sum numbers.  When the individual
    decompositions are supplied, the scalar fields become their means (the
    identity survives averaging); otherwise only mse_sum is meaningful.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or values.size == 0:
        raise ValidationError("summarize needs a nonempty 1-D value array")
    if decompositions:
        parts = ([getattr(d, name) for d in decompositions] for name in ("mse_sum", "mse_c", "mse_p", "corr"))
        return _distribution(values, *(float(np.mean(part)) for part in parts))
    nan = float("nan")
    return _distribution(values, float(np.mean(values)), nan, nan, nan)


def _distribution(values: np.ndarray, total: float, mse_c: float, mse_p: float, cross: float) -> MseReport:
    """The report with the given scalar fields and the distribution of ``values``."""
    hist, overflow = histogram_counts(values)
    return MseReport(
        mse_sum=total,
        mse_c=mse_c,
        mse_p=mse_p,
        corr=cross,
        mean=float(np.mean(values)),
        # population std (the m runs are the whole batch); exact 0 for a
        # constant batch instead of float residue from the mean subtraction
        std=0.0 if np.min(values) == np.max(values) else float(np.std(values)),
        min=float(np.min(values)),
        max=float(np.max(values)),
        histogram=hist,
        overflow=overflow,
    )


def histogram_counts(values) -> tuple[tuple[int, ...], int]:
    """60 uniform bins on [0, 1]; values above 1 clamp into the last bin.

    Returns the counts and how many values overflowed the range.
    """
    values = np.asarray(values, dtype=float)
    counts = np.bincount(histogram_bins(values), minlength=HIST_BINS)
    return tuple(counts.tolist()), int(np.count_nonzero(values > 1.0))


def histogram_bins(values) -> np.ndarray:
    """The bin of each value under :func:`histogram_counts`'s rule.

    That is ``floor(v * 60)`` clamped to the bins: values below 0 fall in the
    first bin, values of 1 and above (inf included) in the last.  A NaN is a
    :class:`ValidationError`.
    """
    values = np.asarray(values, dtype=float)
    if np.isnan(values).any():
        raise ValidationError("an MSE value is NaN")
    scaled = np.floor(np.clip(values, 0.0, 1.0) * HIST_BINS)
    return np.minimum(scaled, HIST_BINS - 1).astype(np.intp)
