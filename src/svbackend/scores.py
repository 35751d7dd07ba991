"""Keyed score collections passed between scoring, calibration, and metrics.

Trial keys are columns, not one tuple per trial: :class:`TrialKeys` holds a
table of the distinct model ids and one of the distinct test-utterance ids,
each in order of first appearance, and one integer code per trial into each.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, repeat
from operator import itemgetter

import numpy as np

from .errors import DegenerateLabels, ValidationError
from .vecmath import frozen_rows

LABEL_TARGET = "target"
LABEL_NONTARGET = "nontarget"


def first_appearance(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(first, codes)`` of a 1-D array: the index of the first occurrence of
    each distinct value, in order of first appearance, and the index of each
    element's value among them.  One sort; ``np.unique`` would load
    ``numpy.ma`` on numpy 2.4, about 15 ms of a stage."""
    order = np.argsort(values)
    ordered = values[order]
    new = np.ones(len(values), bool)
    new[1:] = ordered[1:] != ordered[:-1]
    first = np.minimum.reduceat(order, np.flatnonzero(new)) if len(order) else order
    by_appearance = np.argsort(first)
    rank = np.empty(len(first), np.intp)
    rank[by_appearance] = np.arange(len(first))
    codes = np.empty(len(values), np.intp)
    codes[order] = rank[np.cumsum(new) - 1]
    return first[by_appearance], codes


def _codes(x) -> np.ndarray:
    codes = np.asarray(x)
    if codes.ndim != 1 or codes.dtype.kind not in "iu" and codes.size:
        raise ValidationError("trial key codes must be 1-D integer arrays")
    return frozen_rows(codes, np.intp)


@dataclass(frozen=True, eq=False)
class TrialKeys:
    """(enrollment model id, test utterance id) trial keys as columns: trial k
    is ``(model_ids[models[k]], test_ids[tests[k]])``.

    ``model_ids`` and ``test_ids`` are tuples of distinct str, and ``models``
    and ``tests`` read-only intp arrays of one code per trial.  Iterating
    gives the (model id, test id) pairs; two key sets are equal when they
    hold the same trials in the same order.
    """

    model_ids: tuple[str, ...]
    test_ids: tuple[str, ...]
    models: np.ndarray
    tests: np.ndarray

    def __post_init__(self):
        tables = tuple(self.model_ids), tuple(self.test_ids)
        for table in tables:
            if len(set(table)) != len(table) or not all(map(isinstance, table, repeat(str))):
                raise ValidationError("trial key tables must hold distinct str ids")
        models, tests = _codes(self.models), _codes(self.tests)
        if len(models) != len(tests):
            raise ValidationError(f"{len(models)} model codes for {len(tests)} test codes")
        for codes, table in zip((models, tests), tables):
            if len(codes) and not 0 <= codes.min() <= codes.max() < len(table):
                raise ValidationError("trial key codes must index their id tables")
        object.__setattr__(self, "model_ids", tables[0])
        object.__setattr__(self, "test_ids", tables[1])
        object.__setattr__(self, "models", models)
        object.__setattr__(self, "tests", tests)

    @classmethod
    def of(cls, pairs) -> "TrialKeys":
        """``pairs`` itself if it is a key set, else the key set of a sequence
        of (model id, test id) pairs of str."""
        if isinstance(pairs, TrialKeys):
            return pairs
        keys = tuple(map(tuple, pairs))
        strs = map(isinstance, chain.from_iterable(keys), repeat(str))
        if set(map(len, keys)) - {2} or not all(strs):
            raise ValidationError("trial keys must be pairs of str ids")
        columns = []
        for side in (0, 1):
            ids = list(map(itemgetter(side), keys))
            table = dict(zip(dict.fromkeys(ids), range(len(ids))))
            columns += [tuple(table), np.fromiter(map(table.__getitem__, ids), np.intp, len(ids))]
        return cls(columns[0], columns[2], columns[1], columns[3])

    def __len__(self) -> int:
        return len(self.models)

    def __iter__(self):
        models = map(self.model_ids.__getitem__, self.models.tolist())
        return zip(models, map(self.test_ids.__getitem__, self.tests.tolist()))

    def __getitem__(self, index):
        """The pair of trial ``index``, or the key set of a slice or an index
        array over the same tables."""
        if isinstance(index, (int, np.integer)):
            return self.model_ids[self.models[index]], self.test_ids[self.tests[index]]
        return TrialKeys(self.model_ids, self.test_ids, self.models[index], self.tests[index])

    def __eq__(self, other) -> bool:
        if not isinstance(other, TrialKeys):
            return NotImplemented
        return len(self) == len(other) and np.array_equal(other.flat(self), self.flat())

    def flat(self, like: "TrialKeys | None" = None) -> np.ndarray:
        """One int64 per trial, equal for equal trials: its model's index in
        the model table of ``like`` (by default this key set) times the length
        of its test table, plus its test's index there; -1 where ``like``
        lacks one of the trial's ids."""
        like = self if like is None else like
        models, tests = self.models, self.tests
        if (self.model_ids, self.test_ids) != (like.model_ids, like.test_ids):
            models = _recode(self.model_ids, like.model_ids)[models]
            tests = _recode(self.test_ids, like.test_ids)[tests]
        flat = models.astype(np.int64) * len(like.test_ids) + tests
        flat[(models < 0) | (tests < 0)] = -1
        return flat


def _recode(ids, like) -> np.ndarray:
    """The index in ``like`` of each of ``ids``, -1 where it is missing."""
    index = dict(zip(like, range(len(like))))
    return np.array([index.get(i, -1) for i in ids], np.intp)


@dataclass(frozen=True)
class ScoreSet:
    """Parallel trial keys, scores and optional labels.

    ``keys`` is a :class:`TrialKeys`, or a sequence of (model id, test id)
    pairs that becomes one.  Labels are booleans (True = target trial) and
    may be absent for pure inference sets; calibration fitting and metrics
    require them.  Both arrays are stored by ``vecmath.frozen_rows``.
    """

    keys: TrialKeys
    scores: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        keys = TrialKeys.of(self.keys)
        scores = frozen_rows(self.scores)
        if scores.ndim != 1 or scores.shape[0] != len(keys):
            raise ValidationError("scores must be one float per trial key")
        if not np.all(np.isfinite(scores)):
            raise ValidationError("scores contain non-finite values")
        flat = np.sort(keys.flat())
        if np.any(flat[1:] == flat[:-1]):
            raise ValidationError("trial keys must be unique")
        labels = None if self.labels is None else frozen_rows(self.labels, bool)
        if labels is not None and labels.shape != scores.shape:
            raise ValidationError("labels must align with scores")
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
