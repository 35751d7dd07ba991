"""Vector primitives shared by every pipeline stage.

All arithmetic runs in float64 regardless of how inputs were stored;
normalization statistics and cost sweeps downstream are sensitive to
accumulation error, so nothing here computes in float32.

:func:`unit_rows` is the one place that divides a vector by its norm.  Exact
dot products are numpy's pairwise ``np.sum`` over elementwise products, not
BLAS: ``cosine``, the trial kernel and the speaker-similarity re-rank all
use it row-wise, so their values agree bit for bit on the same vectors.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    DegenerateAverage,
    DimensionMismatch,
    EmptySet,
    NormUnderflow,
    ValidationError,
)

#: Norm floor below which a vector counts as degenerate.  Far below any
#: realistic embedding norm; flags only genuinely corrupt data.
NORM_EPS = 1e-12


class Domain(enum.Enum):
    VOX = "VOX"
    LIBRI = "LIBRI"
    DEEPMINE = "DEEPMINE"


class Language(enum.Enum):
    FARSI = "FARSI"
    ENGLISH = "ENGLISH"
    OTHER = "OTHER"
    UNKNOWN = "UNKNOWN"


_ID_COLUMNS = ("utt_ids", "speaker_ids", "domains", "languages")


class EmbeddingIds(NamedTuple):  # the two id columns of an EmbeddingTable
    utt_ids: tuple[str, ...]
    speaker_ids: tuple[str, ...]


@dataclass(frozen=True)
class EmbeddingTable:
    """Utterance embeddings as columns: row ``r`` is utterance ``utt_ids[r]``.

    ``vectors`` is an (n, D) float64 matrix, stored read-only and
    C-contiguous with finite entries; a read-only C-contiguous float64
    array is kept as given, anything else is copied.  ``row_of`` maps an
    utterance id to its row; on a repeated id the last row wins.
    """

    utt_ids: tuple[str, ...]
    speaker_ids: tuple[str, ...]
    domains: tuple[Domain, ...]
    languages: tuple[Language, ...]
    vectors: np.ndarray

    def __post_init__(self):
        cols = {name: tuple(getattr(self, name)) for name in _ID_COLUMNS}
        vecs = np.asarray(self.vectors, dtype=np.float64)
        if vecs.flags.writeable or not vecs.flags.c_contiguous:
            vecs = np.array(vecs, order="C")
        n = len(cols["utt_ids"])
        if vecs.ndim != 2 or len(vecs) != n or any(len(c) != n for c in cols.values()):
            raise DimensionMismatch(f"{n} utterance ids for vectors of shape {vecs.shape}")
        if not np.isfinite(vecs).all():
            raise ValidationError("vector contains non-finite entries")
        if not (all(cols["utt_ids"]) and all(cols["speaker_ids"])):
            raise ValidationError("utt_id and speaker_id must be non-empty")
        vecs.setflags(write=False)
        for name, col in cols.items():
            object.__setattr__(self, name, col)
        object.__setattr__(self, "vectors", vecs)
        object.__setattr__(self, "row_of", dict(zip(cols["utt_ids"], range(n))))

    def __len__(self) -> int:
        return len(self.utt_ids)

    def __getitem__(self, rows) -> "EmbeddingTable":
        """The table of the selected rows (a slice or a sequence of row indices)."""
        idx = np.arange(len(self))[rows].tolist()
        picked = {name: [getattr(self, name)[i] for i in idx] for name in _ID_COLUMNS}
        return EmbeddingTable(**picked, vectors=self.vectors[idx])

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


def unit_rows(vecs, dim: int | None = None) -> np.ndarray:
    """(n, dim) array of the vectors (a sequence or the rows of an array),
    each divided by its Euclidean norm: the pairwise sum of squares along
    the row, a correctly rounded sqrt and division, one pass for all.

    Raises:
        ValidationError: a non-finite entry.
        NormUnderflow: a norm at or below ``NORM_EPS`` (degenerate vector,
            e.g. all zeros).
    """
    try:
        x = np.asarray(vecs, dtype=np.float64, order="C")
    except ValueError:
        raise DimensionMismatch("vectors have mixed dimensions") from None
    if x.size == 0:
        x = x.reshape(len(x), dim or 0)
    if x.ndim != 2 or (dim is not None and x.shape[1] != dim):
        raise DimensionMismatch(f"expected (n, {dim}) vectors, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValidationError("vector contains non-finite entries")
    norms = np.sqrt(np.sum(x * x, axis=1))
    if len(x) and norms.min() <= NORM_EPS:
        raise NormUnderflow(f"vector norm {norms.min():g} <= {NORM_EPS:g}")
    return x / norms[:, None]


def check_row_norms(x: np.ndarray) -> None:
    """Raise NormUnderflow as :func:`unit_rows` would on ``x``, from the same
    sums of squares taken 256 rows at a time (no (n, D) temporary)."""
    blocks = (x[r : r + 256] for r in range(0, len(x), 256))
    low = min((np.sqrt(np.sum(b * b, axis=1)).min() for b in blocks), default=np.inf)
    if low <= NORM_EPS:
        raise NormUnderflow(f"vector norm {low:g} <= {NORM_EPS:g}")


def cosine(a, b) -> float:
    """Cosine similarity ``<a,b> / (|a||b|)`` of two vectors, symmetric in its
    arguments: both go through one :func:`unit_rows` call, then the pairwise
    ``np.sum`` of their product.

    Clipped to [-1, 1]: the raw quotient can overshoot by an ulp on
    (near-)parallel vectors, and downstream consumers rely on the bound.
    """
    ua, ub = unit_rows([a, b])
    return min(1.0, max(-1.0, float(np.sum(ua * ub))))


def average_embedding(vectors) -> np.ndarray:
    """Arithmetic mean of the L2-normalized vectors (see :func:`mean_of_units`)."""
    return mean_of_units(unit_rows(vectors))


def mean_of_units(unit: np.ndarray) -> np.ndarray:
    """Column mean of unit-normalized rows, e.g. from :func:`unit_rows`.

    The result is intentionally not re-normalized: cosine scoring is
    scale-invariant, so the extra division would be immaterial downstream.
    Accumulation uses exact summation, making the result independent of
    row order.

    Raises:
        EmptySet: no rows.
        DegenerateAverage: the rows cancel to (near) zero.
    """
    if not len(unit):
        raise EmptySet("cannot average an empty set of embeddings")
    mean = np.array([math.fsum(col) for col in unit.T.tolist()]) / len(unit)
    if math.sqrt(np.sum(mean * mean)) <= NORM_EPS:
        raise DegenerateAverage("member vectors cancel; average is degenerate")
    return mean
