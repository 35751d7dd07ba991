"""Speaker prototype storage and the speaker-speaker similarity ranking.

The prototype matrix snapshots the classifier-layer weights of an external
trainer.  This store never recomputes anything implicitly: a new snapshot
arrives as a new matrix, and the caller stamps the similarity snapshot it
derives with an ``epoch_tag``.

No N x N similarity matrix is built: :func:`top_similar` ranks anchors on
demand with ``vecmath.top_cosines``, in O(TOP_BLOCK_ROWS * N) extra memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import IndexOutOfRange, KTooLarge, ParamInvalid, ValidationError
from .vecmath import Domain, Language, frozen_rows, top_cosines, unit_rows


@dataclass(frozen=True)
class PrototypeMatrix:
    """Speaker prototypes as columns: row j of the (N, D) float64 ``vectors``
    (typically unnormalized trainer weights, stored by ``vecmath.frozen_rows``)
    is the prototype of speaker ``speaker_ids[j]``.  The unit rows are made
    once at construction since every consumer works on directions.
    """

    speaker_ids: tuple[str, ...]
    domains: tuple[Domain, ...]
    languages: tuple[Language, ...]
    vectors: np.ndarray

    def __post_init__(self):
        cols = [tuple(self.speaker_ids), tuple(self.domains), tuple(self.languages)]
        arr = frozen_rows(self.vectors)
        if arr.ndim != 2:
            raise ValidationError(f"prototype matrix must be 2-D, got shape {arr.shape}")
        n, d = arr.shape
        if n < 2:
            raise ValidationError("a prototype matrix needs at least 2 speakers")
        for col in cols:
            if len(col) != n:
                raise ValidationError(f"{len(col)} speaker records for {n} columns")
        if len(set(cols[0])) != n:
            raise ValidationError("speaker_ids must be unique")
        # rejects non-finite entries, and degenerate rows with NormUnderflow
        unit = unit_rows(arr, d)
        unit.setflags(write=False)
        for name, col in zip(("speaker_ids", "domains", "languages"), cols):
            object.__setattr__(self, name, col)
        object.__setattr__(self, "vectors", arr)
        object.__setattr__(self, "_unit_rows", unit)
        object.__setattr__(self, "_index", {sid: j for j, sid in enumerate(cols[0])})

    @property
    def w(self) -> np.ndarray:
        """The D x N view ``vectors.T``: the AAM class weights ``aam_grad`` differentiates."""
        return self.vectors.T

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    @property
    def count(self) -> int:
        return self.vectors.shape[0]

    @property
    def unit_rows(self) -> np.ndarray:
        """(N, D) array of unit-normalized prototypes, one speaker per row."""
        return self._unit_rows

    def index_of(self, speaker_id: str) -> int:
        try:
            return self._index[speaker_id]
        except KeyError:
            raise IndexOutOfRange(f"unknown speaker_id {speaker_id!r}") from None


class SimilaritySnapshot(NamedTuple):
    """One snapshot's speaker similarities: the prototypes (their unit rows)
    and the caller's ``epoch_tag`` (bookkeeping).  No N x N matrix is held:
    :func:`top_similar` computes the rows of its anchors on demand."""

    protos: PrototypeMatrix
    epoch_tag: int = 0


def similarity_matrix(p: PrototypeMatrix, epoch_tag: int = 0) -> SimilaritySnapshot:
    """The O(1) similarity snapshot of ``p``, stamped with ``epoch_tag``."""
    return SimilaritySnapshot(p, epoch_tag)


def top_similar(sim: SimilaritySnapshot, anchors, k: int) -> np.ndarray:
    """(len(anchors), k) int array: each anchor, then its k-1 most similar
    other speakers by ``vecmath.top_cosines`` over the unit rows.  Raises
    IndexOutOfRange (an anchor outside [0, N)), then ParamInvalid (k < 1),
    then KTooLarge (k > N)."""
    n = sim.protos.count
    anchors = np.asarray(anchors, dtype=np.int64).reshape(-1)
    if len(anchors) and not (0 <= anchors.min() and anchors.max() < n):
        bad = anchors[(anchors < 0) | (anchors >= n)][0]
        raise IndexOutOfRange(f"speaker index {bad} outside [0, {n})")
    if k < 1:
        raise ParamInvalid(f"k must be >= 1, got {k}")
    if k > n:
        raise KTooLarge(f"k={k} exceeds speaker count {n}")
    u = sim.protos.unit_rows
    others = top_cosines(u, anchors, u, k - 1, (np.arange(len(anchors)), anchors))[0]
    return np.concatenate([anchors[:, None], others], axis=1)
