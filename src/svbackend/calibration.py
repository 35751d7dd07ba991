"""Logistic-regression score calibration and weighted score fusion."""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import KeyMismatch, NonConvergence, ValidationError, WeightInvalid
from .scores import ScoreSet

log = logging.getLogger(__name__)

#: L2 penalty on (a, b); keeps the optimum finite on separable data.
L2_PENALTY = 1e-6

#: Convergence tolerance on the gradient norm, and the iteration cap.
GRAD_TOL = 1e-9
MAX_ITER = 10_000


@dataclass(frozen=True)
class CalibrationModel:
    """Affine score map ``s -> a*s + b`` into the log-odds domain."""

    a: float
    b: float
    trained_on: str = ""

    def __post_init__(self):
        if not (np.isfinite(self.a) and np.isfinite(self.b)):
            raise ValidationError("calibration parameters must be finite")


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _objective(theta, s, y):
    """Penalized negative log-likelihood, stable for large |z|."""
    a, b = theta
    z = a * s + b
    nll = float(np.sum(np.logaddexp(0.0, z) - y * z))
    return nll + 0.5 * L2_PENALTY * (a * a + b * b)


def fit_calibration(scores: ScoreSet, trained_on: str = "") -> CalibrationModel:
    """Fit sigmoid(a*s + b) to the target/nontarget labels by Newton descent.

    Maximizes the L2-regularized binary log-likelihood; the penalty bounds
    |a| on perfectly separated data.  Deterministic: fixed start at (0, 0),
    step-halving on any objective increase, stop at gradient norm < 1e-9 or
    after a full step once the Newton decrement is within a few ulps of the
    objective (where step-halving can no longer measure progress).

    Raises:
        DegenerateLabels: only one class present.
        NonConvergence: gradient norm still above tolerance after the
            iteration cap (the norm is reported in the message).
    """
    y = scores.require_labels().astype(np.float64)
    s = scores.scores
    theta = np.zeros(2)
    design = np.stack([s, np.ones_like(s)], axis=1)
    obj = _objective(theta, s, y)
    grad_norm = np.inf
    for _ in range(MAX_ITER):
        z = design @ theta
        p = _sigmoid(z)
        grad = design.T @ (p - y) + L2_PENALTY * theta
        grad_norm = float(np.linalg.norm(grad))
        if grad_norm < GRAD_TOL:
            break
        w = p * (1.0 - p)
        hess = design.T @ (design * w[:, None]) + L2_PENALTY * np.eye(2)
        step = np.linalg.solve(hess, grad)
        # a Newton decrement within a few ulps of the objective is a decrease
        # step halving cannot measure; this close the full step is exact
        if float(grad @ step) <= 4 * np.spacing(abs(obj)):
            theta = theta - step
            break
        # damped Newton: halve until the objective stops increasing
        scale = 1.0
        for _ in range(60):
            trial = theta - scale * step
            trial_obj = _objective(trial, s, y)
            if trial_obj <= obj:
                break
            scale *= 0.5
        theta = theta - scale * step
        obj = _objective(theta, s, y)
    else:
        raise NonConvergence(f"calibration stalled at gradient norm {grad_norm:.3e}")
    return CalibrationModel(a=float(theta[0]), b=float(theta[1]), trained_on=trained_on)


def apply_calibration(model: CalibrationModel, scores: ScoreSet) -> ScoreSet:
    """Map every score through ``a*s + b``, preserving order and labels."""
    return scores.with_scores(model.a * scores.scores + model.b)


def fuse(score_sets: list[ScoreSet], weights) -> ScoreSet:
    """Per-trial weighted average over systems scoring the same trials.

    Weights are normalized up front (``sum w_k = 1`` after division), so
    fusing identical inputs reproduces them.  Key sets must be identical;
    entries are aligned by key, not by position: a set in another order
    through one sort of its keys and a ``searchsorted`` of the first set's.
    """
    if not score_sets:
        raise WeightInvalid("nothing to fuse")
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 1 or len(w) != len(score_sets):
        raise WeightInvalid(f"{len(w)} weights for {len(score_sets)} score sets")
    if np.any(w <= 0.0) or not np.all(np.isfinite(w)):
        raise WeightInvalid("weights must be positive and finite")
    with np.errstate(over="ignore"):
        total = np.sum(w)
    if total == np.inf:  # every weight would normalize to 0
        raise WeightInvalid("weights sum beyond the float64 range")

    base = score_sets[0]
    base_keys = base.keys
    base_flat = base_keys.flat()
    unit = w / total

    fused = unit[0] * base.scores
    labels = base.labels
    for k, ss in enumerate(score_sets[1:], start=1):
        flat = ss.keys.flat(base_keys)  # -1 for a trial with an id the first set lacks
        if np.array_equal(flat, base_flat):
            aligned = ss.scores
            aligned_labels = ss.labels
        else:
            # both sets are unique, so finding every first-set key makes them equal
            order = np.argsort(flat)
            found = np.searchsorted(flat[order], base_flat)
            hit = np.append(flat[order], -1)[found] == base_flat
            if len(flat) != len(base_flat) or not hit.all():
                raise KeyMismatch(f"score set {k} covers different trials")
            at = order[found]
            aligned = ss.scores[at]
            aligned_labels = None if ss.labels is None else ss.labels[at]
        if aligned_labels is not None:
            if labels is None:
                labels = aligned_labels
            elif not np.array_equal(labels, aligned_labels):
                raise KeyMismatch(f"score set {k} disagrees on trial labels")
        fused = fused + unit[k] * aligned
    return ScoreSet(base_keys, fused, labels)
