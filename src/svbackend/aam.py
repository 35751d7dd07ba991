"""Reference additive-angular-margin softmax loss and its analytic gradients.

This is a desk-scale oracle, not a trainer: it pins down the exact
semantics of the speaker prototypes (no biases, both sides L2-normalized)
and lets an external training loop be checked against closed-form values
and finite differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigInvalid, DimensionMismatch, GradSingularity, IndexOutOfRange
from .errors import ValidationError
from .vecmath import PrototypeMatrix, frozen_rows, row_norms, unit_rows

#: Cosines are clamped to +/-(1 - COS_CLAMP) before the margin identity;
#: the sqrt in sin(theta) is singular at +/-1.
COS_CLAMP = 1e-9

#: Gradients additionally require |cos| below 1 - GRAD_COS_LIMIT.
GRAD_COS_LIMIT = 1e-6


@dataclass(frozen=True)
class AamConfig:
    """Margin (radians) and logit scale.

    The defaults are conventional settings, supplied because they are
    configuration rather than ground truth.
    """

    margin: float = 0.2
    scale: float = 30.0

    def __post_init__(self):
        if not 0.0 <= self.margin < math.pi / 2:
            raise ConfigInvalid(f"margin must be in [0, pi/2), got {self.margin}")
        if not 0.0 < self.scale < math.inf:
            raise ConfigInvalid(f"scale must be positive and finite, got {self.scale}")


@dataclass(frozen=True)
class LabeledBatch:
    """n x D embedding rows with per-row speaker indices, both stored by
    ``vecmath.frozen_rows``."""

    embeddings: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        x = frozen_rows(self.embeddings)
        y = frozen_rows(self.labels, np.int64)
        if x.ndim != 2:
            raise ValidationError(f"embeddings must be 2-D, got shape {x.shape}")
        if x.shape[0] < 1:
            raise ValidationError("batch must contain at least one sample")
        if y.shape != (x.shape[0],):
            raise ValidationError("labels must be one index per embedding row")
        if not np.all(np.isfinite(x)):
            raise ValidationError("batch embeddings contain non-finite entries")
        if np.any(y < 0):
            raise IndexOutOfRange("negative speaker label")
        object.__setattr__(self, "embeddings", x)
        object.__setattr__(self, "labels", y)

    @property
    def size(self) -> int:
        return self.embeddings.shape[0]


def _prepare(batch: LabeledBatch, protos: PrototypeMatrix):
    if batch.embeddings.shape[1] != protos.dim:
        raise DimensionMismatch(
            f"batch dim {batch.embeddings.shape[1]} vs prototype dim {protos.dim}"
        )
    if np.any(batch.labels >= protos.count):
        raise IndexOutOfRange("speaker label outside prototype matrix")
    x = batch.embeddings
    x_norms = row_norms(x)
    xhat = unit_rows(x)
    what = protos.unit_rows  # (N, D)
    cos = xhat @ what.T  # (n, N)
    return xhat, what, x_norms, cos


def _logits(cos: np.ndarray, labels: np.ndarray, cfg: AamConfig):
    """Scaled logits with the additive margin folded into the target column.

    cos(theta + m) is expanded as cos*cos(m) - sqrt(1 - cos^2)*sin(m),
    avoiding an explicit arccos in the forward pass.
    """
    c = np.clip(cos, -1.0 + COS_CLAMP, 1.0 - COS_CLAMP)
    rows = np.arange(c.shape[0])
    target = c[rows, labels]
    phi = target * math.cos(cfg.margin) - np.sqrt(1.0 - target**2) * math.sin(cfg.margin)
    z = cfg.scale * c
    z[rows, labels] = cfg.scale * phi
    return c, z, rows, target


def aam_loss(batch: LabeledBatch, protos: PrototypeMatrix, cfg: AamConfig) -> float:
    """Batch-mean additive-angular-margin cross-entropy.

    Nonnegative by construction: each per-sample term is computed as
    ``logsumexp(z) - z_target`` with the max subtracted first.
    """
    _, _, _, cos = _prepare(batch, protos)
    _, z, rows, _ = _logits(cos, batch.labels, cfg)
    zmax = z.max(axis=1)
    lse = zmax + np.log(np.sum(np.exp(z - zmax[:, None]), axis=1))
    return float(np.mean(lse - z[rows, batch.labels]))


def aam_grad(
    batch: LabeledBatch, protos: PrototypeMatrix, cfg: AamConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Analytic gradients of the batch-mean loss.

    Returns ``(d_loss/d_embeddings, d_loss/d_w)`` with shapes (n, D) and
    (D, N), the layout of ``protos.w``.  Gradients are taken with respect to the raw
    (unnormalized) inputs, so the chain rule through both L2
    normalizations is included; the radial component of each embedding
    gradient is therefore identically zero.

    Raises:
        GradSingularity: some |cosine| is within 1e-6 of 1, where the
            margin term's derivative blows up.
    """
    xhat, what, x_norms, cos = _prepare(batch, protos)
    if np.max(np.abs(cos)) >= 1.0 - GRAD_COS_LIMIT:
        raise GradSingularity("a cosine is too close to +/-1 for stable gradients")
    c, z, rows, target = _logits(cos, batch.labels, cfg)
    n = batch.size

    zmax = z.max(axis=1, keepdims=True)
    ez = np.exp(z - zmax)
    p = ez / ez.sum(axis=1, keepdims=True)

    # d(loss * n)/d(cos): softmax residual, times the margin chain factor
    # d cos(theta+m)/d cos(theta) = cos(m) + cos(theta) sin(m)/sin(theta)
    gc = p.copy()
    gc[rows, batch.labels] -= 1.0
    gc *= cfg.scale
    dphi = math.cos(cfg.margin) + target * math.sin(cfg.margin) / np.sqrt(1.0 - target**2)
    gc[rows, batch.labels] *= dphi
    gc /= n

    # d cos_ij / d x_i = (w_hat_j - cos_ij x_hat_i) / |x_i|
    row_dot = np.sum(gc * c, axis=1)
    grad_x = (gc @ what - row_dot[:, None] * xhat) / x_norms[:, None]

    # d cos_ij / d w_j = (x_hat_i - cos_ij w_hat_j) / |w_j|
    w_norms = row_norms(protos.vectors)
    col_dot = np.sum(gc * c, axis=0)
    grad_w_rows = (gc.T @ xhat - col_dot[:, None] * what) / w_norms[:, None]
    return grad_x, grad_w_rows.T


def finite_difference_check(
    batch: LabeledBatch,
    protos: PrototypeMatrix,
    cfg: AamConfig,
    step: float = 1e-5,
) -> float:
    """Max per-component relative error of aam_grad vs central differences.

    Used by the ``aam-check`` CLI self-test.  Relative error uses an
    absolute floor of 1e-6 so near-zero components are compared at the
    finite-difference noise level instead of exploding.
    """
    grad_x, grad_w = aam_grad(batch, protos, cfg)

    def loss_with(x, vectors):
        return aam_loss(LabeledBatch(x, batch.labels), replace(protos, vectors=vectors), cfg)

    x0, v0 = batch.embeddings, protos.vectors
    worst = 0.0
    # (array, its analytic gradient, the loss with it replaced); the rows of
    # grad_w.T are the prototype rows, as grad_w is the D x N layout of w
    for arr, grad, loss_of in (
        (x0, grad_x, lambda x: loss_with(x, v0)),
        (v0, grad_w.T, lambda v: loss_with(x0, v)),
    ):
        for idx in np.ndindex(arr.shape):
            hi, lo = arr.copy(), arr.copy()
            hi[idx] += step
            lo[idx] -= step
            fd = (loss_of(hi) - loss_of(lo)) / (2 * step)
            a = grad[idx]
            worst = max(worst, abs(a - fd) / max(abs(a), abs(fd), 1e-6))
    return worst
