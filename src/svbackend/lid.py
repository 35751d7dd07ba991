"""Gaussian-backend language detection on unit-normalized speaker prototypes.

Two class-conditional Gaussians with a shared (pooled, ridged) covariance.
The effective English mean is ``w*mu_usa + (1-w)*mu_farsi``: a weight below
1 pulls it toward the Farsi mean to model English spoken by native Farsi
speakers.  The backend stores the weight and derives that mean from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    ClassTooSmall,
    CovarianceSingular,
    DimensionMismatch,
    ParamInvalid,
    ValidationError,
    WeightOutOfRange,
)
from .vecmath import ROW_BLOCK, Language, PrototypeMatrix, frozen_rows, unit_rows

#: Ridge on the pooled covariance, as a fraction of the mean eigenvalue.
#: Prototype counts are far below the embedding dimension, so the raw
#: pooled covariance is rank-deficient.
RIDGE_SCALE = 1e-4

#: Absolute ridge floor for zero-scatter inputs (keeps the matrix PD).
RIDGE_FLOOR = 1e-8


@dataclass(frozen=True)
class GaussianBackend:
    """Class means and shared covariance, each stored by ``vecmath.frozen_rows``;
    ``mu_english_effective`` is derived from them and the weight, not stored."""

    mu_farsi: np.ndarray
    mu_usa: np.ndarray
    shared_cov: np.ndarray
    interpolation_weight: float = 1.0
    diagonal: bool = False

    def __post_init__(self):
        names = ("mu_farsi", "mu_usa", "shared_cov")
        arrays = {name: frozen_rows(getattr(self, name)) for name in names}
        mu_farsi, mu_usa, cov = arrays.values()
        d = mu_farsi.size
        if mu_usa.shape != (d,) or cov.shape != (d, d):
            raise DimensionMismatch("backend mean/covariance shapes disagree")
        if not all(np.isfinite(v).all() for v in arrays.values()):
            raise ValidationError("backend means and covariance must be finite")
        if not np.allclose(cov, cov.T, atol=1e-9, rtol=0):
            raise ValidationError("shared covariance is not symmetric")
        if self.diagonal and np.any(cov[~np.eye(d, dtype=bool)]):
            raise ValidationError("diagonal backend has a nonzero off-diagonal covariance entry")
        w = self.interpolation_weight
        if not 0.0 <= w <= 1.0:
            raise WeightOutOfRange(f"interpolation weight {w} outside [0, 1]")
        try:
            np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            raise CovarianceSingular("shared covariance is not positive definite") from None
        arrays["mu_english_effective"] = frozen_rows(w * mu_usa + (1.0 - w) * mu_farsi)
        for name, val in arrays.items():
            object.__setattr__(self, name, val)

    @property
    def dim(self) -> int:
        return self.mu_farsi.shape[0]


def train_gb(
    protos: PrototypeMatrix, interpolation_weight: float, diagonal: bool = False
) -> GaussianBackend:
    """Fit class means and a shared covariance on unit-normalized prototypes.

    FARSI-labeled prototypes form the Farsi class and ENGLISH-labeled ones
    the USA class; other labels are left out (no inference of nationality
    beyond the explicit metadata).  The pooled within-class covariance
    (n-2 divisor) gets a ridge of ``RIDGE_SCALE * trace/D`` (floored for
    zero scatter); ``diagonal=True`` keeps only its diagonal.  The model
    interpolates its effective English mean by ``interpolation_weight``.
    """
    unit = protos.unit_rows
    fa = unit[[j for j, lang in enumerate(protos.languages) if lang is Language.FARSI]]
    us = unit[[j for j, lang in enumerate(protos.languages) if lang is Language.ENGLISH]]
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
    return GaussianBackend(mu_fa, mu_us, cov, interpolation_weight, diagonal)


def classify(
    gb: GaussianBackend, vectors: Sequence[np.ndarray] | np.ndarray, tau: float = 0.0
) -> tuple[np.ndarray, np.ndarray]:
    """Language decisions for a batch of vectors (a sequence or the rows of
    an (n, D) array).

    Each vector is L2-normalized and scored with the affine llr
    ``log N(x; mu_EN, cov) - log N(x; mu_FA, cov) = a.x + b`` of
    :func:`affine_coefficients`.  ``a.x`` is the pairwise ``np.sum`` along
    the row, taken over ``ROW_BLOCK`` rows at a time, so a vector's llr does
    not depend on the other vectors of the batch.  Returns ``(is_english,
    llr)``, two arrays aligned with the input, with ``is_english = llr > tau``
    for a finite ``tau``.
    """
    if not np.isfinite(tau):
        raise ParamInvalid(f"threshold must be finite, got {tau}")
    a, b = affine_coefficients(gb)
    u = unit_rows(vectors, gb.dim)
    llr = np.empty(len(u))
    for s in range(0, len(u), ROW_BLOCK):
        llr[s : s + ROW_BLOCK] = np.sum(u[s : s + ROW_BLOCK] * a, axis=1) + b
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
