"""Detection metrics: equal-error rate and minimum detection cost.

Both metrics sweep the full set of distinct score thresholds (decision
rule: accept iff score >= threshold, plus a reject-everything sentinel),
so they are exactly reproducible by brute-force enumeration and invariant
under any strictly increasing score transform.
"""

from __future__ import annotations

import numpy as np

from .errors import ParamInvalid
from .scores import ScoreSet


def roc_vertices(scores: ScoreSet) -> tuple[np.ndarray, np.ndarray]:
    """(false-accept, false-reject) rates over the descending threshold sweep.

    The first vertex is the reject-everything sentinel (FAR 0, FRR 1); the
    last accepts every score (FAR 1, FRR 0).  Rates are plain count/total
    divisions so an independent counting loop reproduces identical floats.
    """
    labels = scores.require_labels()
    tar = np.sort(scores.scores[labels])
    non = np.sort(scores.scores[~labels])
    # np.unique's sort-and-mask, inline: np.unique itself imports numpy.ma on
    # numpy 2.4 (about 15 ms of every eval stage)
    ordered = np.sort(scores.scores)
    distinct = ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]
    thresholds = np.concatenate(([np.inf], distinct[::-1]))
    far = (len(non) - np.searchsorted(non, thresholds, side="left")) / len(non)
    frr = np.searchsorted(tar, thresholds, side="left") / len(tar)
    return far, frr


def eer(scores: ScoreSet, interpolate: bool = True) -> float:
    """Equal-error rate of a labeled score set.

    With ``interpolate`` (the default) the crossover is found by linear
    interpolation between the two adjacent sweep vertices where FRR-FAR
    changes sign.  ``interpolate=False`` instead returns the midpoint
    (FAR+FRR)/2 at the vertex minimizing |FAR-FRR|, for comparison with
    tools that report the nearest staircase point.

    The crossover of an at-least-chance system lies in [0, 0.5]; for a
    worse-than-chance score set it honestly exceeds 0.5 (never clamped).
    """
    far, frr = roc_vertices(scores)
    if not interpolate:
        k = int(np.argmin(np.abs(far - frr)))
        return float((far[k] + frr[k]) / 2.0)
    diff = frr - far
    k = int(np.argmax(diff <= 0.0))  # first vertex at/below the crossover
    if diff[k] == 0.0:
        return float(far[k])
    far1, frr1 = float(far[k - 1]), float(frr[k - 1])
    far2, frr2 = float(far[k]), float(frr[k])
    t = (frr1 - far1) / ((far2 - far1) + (frr1 - frr2))
    return far1 + t * (far2 - far1)


def min_dcf(
    scores: ScoreSet,
    p_target: float = 0.01,
    c_miss: float = 1.0,
    c_fa: float = 1.0,
) -> float:
    """Minimum normalized detection cost over all thresholds.

    min over t of ``c_miss*p_target*P_miss(t) + c_fa*(1-p_target)*P_fa(t)``,
    divided by the better of the two trivial systems, so the result never
    exceeds 1.  Default parameters are configuration, not ground truth, and
    are CLI-overridable.
    """
    if not 0.0 < p_target < 1.0:
        raise ParamInvalid(f"p_target must be in (0, 1), got {p_target}")
    if not (0.0 < c_miss < np.inf and 0.0 < c_fa < np.inf):
        raise ParamInvalid(f"costs must be positive and finite, got {c_miss} and {c_fa}")
    far, frr = roc_vertices(scores)
    miss_weight = c_miss * p_target
    fa_weight = c_fa * (1.0 - p_target)
    costs = miss_weight * frr + fa_weight * far
    return float(np.min(costs)) / min(miss_weight, fa_weight)
