"""Gaussian-backend language detection on unit-normalized speaker prototypes.

Two class-conditional Gaussians with a shared (pooled, ridged) covariance.
The effective English mean can be pulled toward the Farsi mean to model
English spoken by native Farsi speakers.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    ClassTooSmall,
    CovarianceSingular,
    DimensionMismatch,
    ValidationError,
    WeightOutOfRange,
)
from .prototypes import PrototypeMatrix
from .vecmath import Language, unit_rows

#: Ridge on the pooled covariance, as a fraction of the mean eigenvalue.
#: Prototype counts are far below the embedding dimension, so the raw
#: pooled covariance is rank-deficient.
RIDGE_SCALE = 1e-4

#: Absolute ridge floor for zero-scatter inputs (keeps the matrix PD).
RIDGE_FLOOR = 1e-8


@dataclass(frozen=True)
class GaussianBackend:
    mu_farsi: np.ndarray
    mu_usa: np.ndarray
    mu_english_effective: np.ndarray
    shared_cov: np.ndarray
    interpolation_weight: float = 1.0
    diagonal: bool = False

    def __post_init__(self):
        mu_fa = np.asarray(self.mu_farsi, dtype=np.float64).copy()
        mu_us = np.asarray(self.mu_usa, dtype=np.float64).copy()
        mu_en = np.asarray(self.mu_english_effective, dtype=np.float64).copy()
        cov = np.asarray(self.shared_cov, dtype=np.float64).copy()
        d = mu_fa.size
        if any(v.shape != (d,) for v in (mu_fa, mu_us, mu_en)) or cov.shape != (d, d):
            raise DimensionMismatch("backend mean/covariance shapes disagree")
        if not np.allclose(cov, cov.T, atol=1e-9, rtol=0):
            raise ValidationError("shared covariance is not symmetric")
        w = self.interpolation_weight
        if not 0.0 <= w <= 1.0:
            raise WeightOutOfRange(f"interpolation weight {w} outside [0, 1]")
        if not np.allclose(mu_en, w * mu_us + (1.0 - w) * mu_fa, atol=1e-12, rtol=0):
            raise ValidationError("effective English mean deviates from its interpolation")
        try:
            np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            raise CovarianceSingular("shared covariance is not positive definite") from None
        for name, val in (
            ("mu_farsi", mu_fa),
            ("mu_usa", mu_us),
            ("mu_english_effective", mu_en),
            ("shared_cov", cov),
        ):
            val.setflags(write=False)
            object.__setattr__(self, name, val)

    @property
    def dim(self) -> int:
        return self.mu_farsi.shape[0]


def train_gb(protos: PrototypeMatrix, diagonal: bool = False) -> GaussianBackend:
    """Fit class means and a shared covariance on unit-normalized prototypes.

    FARSI-labeled prototypes form the Farsi class and ENGLISH-labeled ones
    the USA class; other labels are left out (no inference of nationality
    beyond the explicit metadata).  The pooled within-class covariance
    (n-2 divisor) gets a ridge of ``RIDGE_SCALE * trace/D`` (floored for
    zero scatter); ``diagonal=True`` keeps only its diagonal.
    """
    unit = protos.unit_rows
    langs = [sp.language for sp in protos.speakers]
    fa = unit[[j for j, lang in enumerate(langs) if lang is Language.FARSI]]
    us = unit[[j for j, lang in enumerate(langs) if lang is Language.ENGLISH]]
    for name, rows in (("FARSI", fa), ("USA", us)):
        if len(rows) < 2:
            raise ClassTooSmall(f"class {name} has {len(rows)} prototypes, need >= 2")

    mu_fa = fa.mean(axis=0)
    mu_us = us.mean(axis=0)
    centered = np.concatenate([fa - mu_fa, us - mu_us])
    dof = centered.shape[0] - 2
    cov = (centered.T @ centered) / dof
    if diagonal:
        cov = np.diag(np.diagonal(cov))
    d = protos.dim
    ridge = max(RIDGE_SCALE * float(np.trace(cov)) / d, RIDGE_FLOOR)
    cov = cov + ridge * np.eye(d)
    return GaussianBackend(
        mu_farsi=mu_fa,
        mu_usa=mu_us,
        mu_english_effective=mu_us,
        shared_cov=cov,
        interpolation_weight=1.0,
        diagonal=diagonal,
    )


def adapt_english_mean(gb: GaussianBackend, w: float) -> GaussianBackend:
    """Move the effective English mean to ``w*mu_usa + (1-w)*mu_farsi``."""
    if not 0.0 <= w <= 1.0:
        raise WeightOutOfRange(f"interpolation weight {w} outside [0, 1]")
    return dataclasses.replace(
        gb,
        mu_english_effective=w * gb.mu_usa + (1.0 - w) * gb.mu_farsi,
        interpolation_weight=w,
    )


def classify(
    gb: GaussianBackend, vectors: Sequence[np.ndarray] | np.ndarray, tau: float = 0.0
) -> tuple[np.ndarray, np.ndarray]:
    """Language decisions for a batch of vectors (a sequence or the rows of
    an (n, D) array).

    Each vector is L2-normalized and scored with the affine llr
    ``log N(x; mu_EN, cov) - log N(x; mu_FA, cov) = a.x + b`` of
    :func:`affine_coefficients`.  Returns ``(is_english, llr)``, two arrays
    aligned with the input, with ``is_english = llr > tau``.
    """
    a, b = affine_coefficients(gb)
    llr = unit_rows(vectors, gb.dim) @ a + b
    return llr > tau, llr


def affine_coefficients(gb: GaussianBackend) -> tuple[np.ndarray, float]:
    """(a, b) with ``llr(x) = a.x + b`` for normalized x.

    With a shared covariance the log-likelihood ratio is affine in the
    input; the test suite checks this form against the two Gaussian log
    densities evaluated separately.
    """
    a = np.linalg.solve(gb.shared_cov, gb.mu_english_effective - gb.mu_farsi)
    b = -0.5 * (
        float(gb.mu_english_effective @ np.linalg.solve(gb.shared_cov, gb.mu_english_effective))
        - float(gb.mu_farsi @ np.linalg.solve(gb.shared_cov, gb.mu_farsi))
    )
    return a, b
