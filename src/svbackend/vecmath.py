"""Vector primitives shared by every pipeline stage.

All arithmetic runs in float64 regardless of how inputs were stored;
normalization statistics and cost sweeps downstream are sensitive to
accumulation error, so nothing here computes in float32.

:func:`unit_rows` is the one place that divides a vector by its norm.  The
two exact row kernels are :func:`row_norms` (used by :func:`unit_rows`,
:func:`check_row_norms` and the AAM loss and gradients) and
:func:`pair_cosines` (used by :func:`cosine`, the raw trial scores of
``scoring.score_trials`` and the re-rank of ``prototypes.top_similar``).
Both take numpy's pairwise ``np.sum`` along each C-contiguous row, not
BLAS, ``ROW_BLOCK`` rows at a time.  A row's sum does not depend on its
block or its neighbours, so every caller gets the same bits for the same
vectors.
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

#: Rows per block of :func:`row_norms` and :func:`pair_cosines`: keeps their
#: (block, D) temporaries cache-sized (128 KB each at D = 256).
ROW_BLOCK = 64


class Domain(enum.Enum):
    VOX = "VOX"
    LIBRI = "LIBRI"
    DEEPMINE = "DEEPMINE"


class Language(enum.Enum):
    FARSI = "FARSI"
    ENGLISH = "ENGLISH"
    OTHER = "OTHER"
    UNKNOWN = "UNKNOWN"


# The mode of ``scoring.score_trials`` and its default top-N live here, next
# to Domain and Language, so the CLI parser can name them without loading
# the scoring code.
class ScoringMode(enum.Enum):
    RAW = "raw"
    SNORM = "snorm"
    SNORM_LID = "snorm-lid"


#: Imposter scores kept per side by the s-norm statistics of ``scoring``.
DEFAULT_TOP_N = 40


_ID_COLUMNS = ("utt_ids", "speaker_ids", "domains", "languages")


class EmbeddingIds(NamedTuple):  # the two id columns of an EmbeddingTable
    utt_ids: tuple[str, ...]
    speaker_ids: tuple[str, ...]


@dataclass(frozen=True)
class EmbeddingTable:
    """Utterance embeddings as columns: row ``r`` is utterance ``utt_ids[r]``.

    ``vectors`` is an (n, D) float64 matrix with finite entries, stored by
    :func:`frozen_rows`.  ``row_of`` maps an utterance id to its row; on a
    repeated id the last row wins.
    """

    utt_ids: tuple[str, ...]
    speaker_ids: tuple[str, ...]
    domains: tuple[Domain, ...]
    languages: tuple[Language, ...]
    vectors: np.ndarray

    def __post_init__(self):
        cols = {name: tuple(getattr(self, name)) for name in _ID_COLUMNS}
        vecs = frozen_rows(self.vectors)
        n = len(cols["utt_ids"])
        if vecs.ndim != 2 or len(vecs) != n or any(len(c) != n for c in cols.values()):
            raise DimensionMismatch(f"{n} utterance ids for vectors of shape {vecs.shape}")
        check_columns(np.isfinite(vecs).all(), cols["utt_ids"], cols["speaker_ids"])
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


def frozen_rows(x) -> np.ndarray:
    """``x`` as float64, read-only and C-contiguous: kept as given if it is, else copied."""
    x = np.asarray(x, dtype=np.float64)
    if x.flags.writeable or not x.flags.c_contiguous:
        x = np.array(x, order="C")
        x.setflags(write=False)
    return x


def check_columns(finite: bool, utt_ids, speaker_ids) -> None:
    """The checks :class:`EmbeddingTable` makes after its shape check, in its
    order: finite vectors, then non-empty ids (also run by id-only readers)."""
    if not finite:
        raise ValidationError("vector contains non-finite entries")
    if not (all(utt_ids) and all(speaker_ids)):
        raise ValidationError("utt_id and speaker_id must be non-empty")


def unit_rows(vecs, dim: int | None = None) -> np.ndarray:
    """(n, dim) array of the vectors (a sequence or the rows of an array),
    each divided by its Euclidean norm from :func:`row_norms`, a correctly
    rounded division.

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
    return x / check_row_norms(x)[:, None]


def row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of the (n, D) array ``x``: the pairwise sum
    of squares along the row and a correctly rounded sqrt, taken over
    C-contiguous blocks of ``ROW_BLOCK`` rows (no (n, D) temporary)."""
    out = np.empty(len(x))
    for s in range(0, len(x), ROW_BLOCK):
        b = np.ascontiguousarray(x[s : s + ROW_BLOCK])
        out[s : s + ROW_BLOCK] = np.sqrt(np.sum(b * b, axis=1))
    return out


def check_row_norms(x: np.ndarray) -> np.ndarray:
    """The :func:`row_norms` of ``x``; raises NormUnderflow as :func:`unit_rows`
    does when one is at or below ``NORM_EPS``."""
    norms = row_norms(x)
    low = norms.min(initial=np.inf)
    if low <= NORM_EPS:
        raise NormUnderflow(f"vector norm {low:g} <= {NORM_EPS:g}")
    return norms


def pair_cosines(a: np.ndarray, ia, b: np.ndarray, ib) -> np.ndarray:
    """``clip(np.sum(a[ia] * b[ib], axis=1), -1, 1)``: the cosine of each
    pair of unit rows ``a[ia[k]]``, ``b[ib[k]]``, ``ROW_BLOCK`` pairs at a time.

    Clipped to [-1, 1]: the sum can overshoot by an ulp on (near-)parallel
    vectors, and downstream consumers rely on the bound.
    """
    ia, ib = np.asarray(ia, dtype=np.intp), np.asarray(ib, dtype=np.intp)
    out = np.empty(len(ia))
    for s in range(0, len(ia), ROW_BLOCK):
        pairs = slice(s, s + ROW_BLOCK)
        out[pairs] = np.sum(a[ia[pairs]] * b[ib[pairs]], axis=1)
    return np.clip(out, -1.0, 1.0, out=out)


def cosine(a, b) -> float:
    """Cosine similarity ``<a,b> / (|a||b|)`` of two vectors, symmetric in its
    arguments: both go through one :func:`unit_rows` call, then
    :func:`pair_cosines`."""
    u = unit_rows([a, b])
    return float(pair_cosines(u, [0], u, [1])[0])


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
