"""Speaker prototype storage and the speaker-speaker similarity ranking.

The prototype matrix snapshots the classifier-layer weights of an external
trainer.  This store never recomputes anything implicitly: a new snapshot
arrives as a new matrix, and the caller stamps the similarity snapshot it
derives with an ``epoch_tag``.

No N x N similarity matrix is built: :func:`top_similar` ranks a batch of
anchors on demand, in O(TOP_BLOCK_ROWS * N) memory beyond the prototypes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import IndexOutOfRange, KTooLarge, ParamInvalid, ValidationError
from .vecmath import Domain, Language, frozen_rows, pair_cosines, unit_rows


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


#: Anchor rows per block of :func:`top_similar`'s BLAS filter (larger raised peak RSS).
TOP_BLOCK_ROWS = 64


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
    other speakers by ``pair_cosines`` over the unit rows U (bit for bit
    scalar ``cosine``), descending, ties by ascending index.  Per block of
    TOP_BLOCK_ROWS anchors a clipped BLAS product ``U[block] @ U.T``
    filters: with t the (k-1)-th largest filtered value of the others, those
    >= t - 2*delta (delta = 8*D*eps) are re-ranked by (-exact kernel, index)
    in one sort per block.

    Exactness.  Any floating-point D-term dot product (any order, blocking,
    threads, FMA) is within gamma_D * sum|u_i v_i| + D*2**-1074 of the real
    one (Higham, Accuracy and Stability, 3.1; gamma_D = D*u/(1 - D*u), u =
    eps/2).  Unit rows have norms within 2*D*eps of 1, so for D*eps <= 0.01
    filter and kernel differ by < 2.1*gamma_D + 2*D*2**-1074 < 2*D*eps <=
    delta, clipped or not.  The k-1 others filtered >= t have exact values
    >= t - delta, so the (k-1)-th largest exact value e* >= t - delta; each
    of the exact top k-1 (ties at e* included) is >= e*, so it filters >=
    t - 2*delta and is a candidate.  The filter's bits vary with the BLAS;
    the output does not.  Raises IndexOutOfRange (an anchor outside
    [0, N)), then ParamInvalid (k < 1), then KTooLarge (k > N).
    """
    n = sim.protos.count
    anchors = np.asarray(anchors, dtype=np.int64).reshape(-1)
    if len(anchors) and not (0 <= anchors.min() and anchors.max() < n):
        bad = anchors[(anchors < 0) | (anchors >= n)][0]
        raise IndexOutOfRange(f"speaker index {bad} outside [0, {n})")
    if k < 1:
        raise ParamInvalid(f"k must be >= 1, got {k}")
    if k > n:
        raise KTooLarge(f"k={k} exceeds speaker count {n}")
    out = np.repeat(anchors[:, None], k, axis=1)  # every row starts with its anchor
    if k == 1:
        return out
    u = sim.protos.unit_rows
    window = 2 * (8 * u.shape[1] * np.finfo(np.float64).eps)  # 2 * delta
    kth = n - k + 1  # ascending position of the (k-1)-th largest other speaker
    for start in range(0, len(anchors), TOP_BLOCK_ROWS):
        block = anchors[start : start + TOP_BLOCK_ROWS]
        approx = np.clip(u[block] @ u.T, -1.0, 1.0)
        approx[np.arange(len(block)), block] = -np.inf
        floor = np.partition(approx, kth, axis=1)[:, kth] - window
        rows, cand = np.nonzero(approx >= floor[:, None])
        exact = pair_cosines(u, block[rows], u, cand)
        order = np.lexsort((cand, -exact, rows))
        first = np.searchsorted(rows, np.arange(len(block)))  # rows ascend in both orders
        out[start : start + len(block), 1:] = cand[order[first[:, None] + np.arange(k - 1)]]
    return out
