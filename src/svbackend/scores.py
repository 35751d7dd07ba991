"""Keyed score collections passed between scoring, calibration, and metrics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateLabels, ValidationError

LABEL_TARGET = "target"
LABEL_NONTARGET = "nontarget"

TrialKey = tuple[str, str]  # (enrollment model id, test utterance id)


@dataclass(frozen=True)
class ScoreSet:
    """Parallel (trial key, score, optional label) lists.

    Labels are booleans (True = target trial) and may be absent for pure
    inference sets; calibration fitting and metrics require them.
    """

    keys: tuple[TrialKey, ...]
    scores: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        keys = tuple((str(m), str(t)) for m, t in self.keys)
        scores = np.asarray(self.scores, dtype=np.float64).copy()
        if scores.ndim != 1 or scores.shape[0] != len(keys):
            raise ValidationError("scores must be one float per trial key")
        if not np.all(np.isfinite(scores)):
            raise ValidationError("scores contain non-finite values")
        if len(set(keys)) != len(keys):
            raise ValidationError("trial keys must be unique")
        labels = self.labels
        if labels is not None:
            labels = np.asarray(labels, dtype=bool).copy()
            if labels.shape != scores.shape:
                raise ValidationError("labels must align with scores")
            labels.setflags(write=False)
        scores.setflags(write=False)
        object.__setattr__(self, "keys", keys)
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return len(self.keys)

    @property
    def labeled(self) -> bool:
        return self.labels is not None

    def require_labels(self) -> np.ndarray:
        if self.labels is None:
            raise DegenerateLabels("score set carries no target/nontarget labels")
        if bool(self.labels.all()) or not bool(self.labels.any()):
            raise DegenerateLabels("both target and nontarget trials are required")
        return self.labels

    def with_scores(self, new_scores) -> "ScoreSet":
        return ScoreSet(self.keys, new_scores, self.labels)
