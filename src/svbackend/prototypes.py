"""Speaker prototype storage and the derived speaker-speaker similarity matrix.

The prototype matrix snapshots the classifier-layer weight columns of an
external trainer.  This store never recomputes anything implicitly: a new
snapshot arrives as a new matrix, and the caller stamps the similarity
matrix it derives with an ``epoch_tag``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import IndexOutOfRange, KTooLarge, ParamInvalid, ValidationError
from .vecmath import Domain, Language, unit_rows


class SpeakerInfo(NamedTuple):
    speaker_id: str
    domain: Domain
    language: Language


@dataclass(frozen=True)
class PrototypeMatrix:
    """D x N matrix whose column j is the prototype of speaker j.

    Columns are stored as given (typically unnormalized trainer weights);
    a unit-normalized row-major view is materialized once at construction
    since every consumer works on directions.
    """

    w: np.ndarray
    speakers: tuple[SpeakerInfo, ...]

    def __post_init__(self):
        arr = np.asarray(self.w, dtype=np.float64).copy()
        if arr.ndim != 2:
            raise ValidationError(f"prototype matrix must be 2-D, got shape {arr.shape}")
        d, n = arr.shape
        if n < 2:
            raise ValidationError("a prototype matrix needs at least 2 speakers")
        speakers = tuple(self.speakers)
        if len(speakers) != n:
            raise ValidationError(f"{len(speakers)} speaker records for {n} columns")
        ids = [s.speaker_id for s in speakers]
        if len(set(ids)) != n:
            raise ValidationError("speaker_ids must be unique")
        # rejects non-finite entries, and degenerate columns with NormUnderflow
        unit = unit_rows(arr.T, d)
        arr.setflags(write=False)
        unit.setflags(write=False)
        object.__setattr__(self, "w", arr)
        object.__setattr__(self, "speakers", speakers)
        object.__setattr__(self, "_unit_rows", unit)
        object.__setattr__(self, "_index", {sid: j for j, sid in enumerate(ids)})

    @property
    def dim(self) -> int:
        return self.w.shape[0]

    @property
    def count(self) -> int:
        return self.w.shape[1]

    @property
    def unit_rows(self) -> np.ndarray:
        """(N, D) array of unit-normalized prototypes, one speaker per row."""
        return self._unit_rows

    def index_of(self, speaker_id: str) -> int:
        try:
            return self._index[speaker_id]
        except KeyError:
            raise IndexOutOfRange(f"unknown speaker_id {speaker_id!r}") from None


#: Rows per block of the symmetry check (keeps its temporaries off N x N).
CHECK_BLOCK_ROWS = 64


@dataclass(frozen=True)
class SimilarityMatrix:
    """N x N cosine similarities between speaker prototypes.

    ``epoch_tag`` identifies the prototype snapshot this was derived from;
    it is caller-supplied and purely bookkeeping.  A read-only float array
    that owns its memory is stored as given; anything else is copied.
    """

    s: np.ndarray
    epoch_tag: int = 0

    def __post_init__(self):
        arr = np.asarray(self.s)
        if arr.dtype not in (np.float64, np.float32):
            arr = arr.astype(np.float64)
        elif arr.flags.writeable or not arr.flags.owndata:
            arr = arr.copy()
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValidationError(f"similarity matrix must be square, got {arr.shape}")
        # float32 is a storage option; its resolution near 1.0 is ~6e-8
        atol = 1e-9 if arr.dtype == np.float64 else 1e-6
        for r in range(0, arr.shape[0], CHECK_BLOCK_ROWS):
            rows = slice(r, r + CHECK_BLOCK_ROWS)
            if not np.allclose(arr[rows], arr[:, rows].T, atol=atol, rtol=0):
                raise ValidationError("similarity matrix is not symmetric")
        if not np.allclose(np.diagonal(arr), 1.0, atol=atol, rtol=0):
            raise ValidationError("similarity diagonal deviates from 1")
        if arr.min() < -1.0 or arr.max() > 1.0:
            raise ValidationError("similarity entries outside [-1, 1]")
        arr.setflags(write=False)
        object.__setattr__(self, "s", arr)

    @property
    def count(self) -> int:
        return self.s.shape[0]


def similarity_matrix(p: PrototypeMatrix, epoch_tag: int = 0, dtype=np.float64) -> SimilarityMatrix:
    """All pairwise prototype cosines, computed on unit-normalized columns.

    Entries are produced by the same pairwise-summation kernel as scalar
    ``cosine`` calls, so ``S[i, j] == cosine(w[:, i], w[:, j])`` exactly
    (before the guard clip at +/-1, which only engages on duplicate
    prototypes).  Only ``S[i, i:]`` is computed and mirrored into ``S[i:, i]``:
    IEEE products commute, so every entry keeps the kernel's bits.
    ``dtype=np.float32`` stores the result at half the memory for large N
    at the cost of ~1e-7 entry precision.
    """
    if dtype not in (np.float64, np.float32):
        raise ParamInvalid("similarity dtype must be float64 or float32")
    rows = p.unit_rows
    n = p.count
    s = np.empty((n, n), dtype=np.float64)
    for i in range(n):
        s[i, i:] = np.sum(rows[i] * rows[i:], axis=1)
        s[i:, i] = s[i, i:]
    np.clip(s, -1.0, 1.0, out=s)
    s = s.astype(dtype, copy=False)
    s.setflags(write=False)  # handed over without a copy
    return SimilarityMatrix(s=s, epoch_tag=epoch_tag)


def top_similar(sim: SimilarityMatrix, speaker_index: int, k: int) -> list[int]:
    """Indices of the ``k`` speakers most similar to ``speaker_index``.

    The speaker itself is always first; the remainder is ordered by
    descending similarity with ties broken by ascending speaker index,
    which keeps batch plans reproducible.
    """
    n = sim.count
    if not 0 <= speaker_index < n:
        raise IndexOutOfRange(f"speaker index {speaker_index} outside [0, {n})")
    if k < 1:
        raise ParamInvalid(f"k must be >= 1, got {k}")
    if k > n:
        raise KTooLarge(f"k={k} exceeds speaker count {n}")
    row = np.asarray(sim.s[speaker_index], dtype=np.float64)
    others = np.delete(np.arange(n), speaker_index)
    # lexsort: primary key last -> sort by -similarity, then ascending index
    order = others[np.lexsort((others, -row[others]))]
    return [speaker_index] + [int(j) for j in order[: k - 1]]
