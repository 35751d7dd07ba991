"""Trial scoring: enrollment models, adaptive s-norm, and the language offset.

The imposter cohort for trial scoring is built from training embeddings
(one averaged vector per speaker); the cross-language compensation offset
is estimated on the speaker prototypes.  Those are two distinct populations and
are kept as two separate inputs throughout.  Both use one top-N statistics
kernel, :func:`snorm_stats`, which scores a block of unit rows at a time.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    ClassTooSmall,
    DegenerateCohort,
    DimensionMismatch,
    EmptySet,
    MissingEmbedding,
    MissingLidDecision,
    ParamInvalid,
    ValidationError,
)
from .prototypes import PrototypeMatrix
from .vecmath import cosine  # noqa: F401  (unused; perfbench counts calls via scoring.cosine)
from .vecmath import DEFAULT_TOP_N, Domain, EmbeddingTable, Language, ScoringMode
from .vecmath import average_embedding
from .vecmath import check_row_norms, mean_of_units, pair_cosines, unit_rows

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class Cohort:
    """Imposter cohort as columns: ``speaker_ids``, one (typically averaged)
    ``means`` row per speaker, and the unit-normalized :attr:`unit_rows`."""

    speaker_ids: tuple[str, ...]
    means: np.ndarray

    def __post_init__(self):
        ids = tuple(self.speaker_ids)
        if not ids:
            raise EmptySet("cohort must contain at least one speaker")
        if len(set(ids)) != len(ids):
            raise ValidationError("cohort speaker_ids must be unique")
        means = np.array(self.means, dtype=np.float64)
        unit = unit_rows(means)
        if len(means) != len(ids):
            raise ValidationError(f"{len(means)} cohort means for {len(ids)} speakers")
        means.setflags(write=False)
        unit.setflags(write=False)
        object.__setattr__(self, "speaker_ids", ids)
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "_unit_rows", unit)

    def __len__(self) -> int:
        return len(self.speaker_ids)

    @property
    def unit_rows(self) -> np.ndarray:
        return self._unit_rows

    @classmethod
    def from_embeddings(
        cls, table: EmbeddingTable, domains: Iterable[Domain] | None = None
    ) -> "Cohort":
        """Average each speaker's length-normalized embeddings into one mean.

        Speaker order follows first appearance.  With ``domains``, only
        speakers whose first utterance is in one of them are kept, and only
        their rows are normalized and averaged.  Every row's norm is still
        checked, so a degenerate row raises NormUnderflow wherever it is.
        """
        check_row_norms(table.vectors)
        groups: dict[str, list[int]] = {}
        for row, sid in enumerate(table.speaker_ids):
            groups.setdefault(sid, []).append(row)
        allowed = set(Domain if domains is None else domains)
        kept = {sid: rows for sid, rows in groups.items() if table.domains[rows[0]] in allowed}
        if domains is not None and not kept:
            names = "+".join(sorted(d.value for d in allowed))
            raise EmptySet(f"no cohort speakers left for domains {names}")
        units = (unit_rows(table.vectors[rows]) for rows in kept.values())
        return cls(tuple(kept), [mean_of_units(unit) for unit in units])


@dataclass(frozen=True)
class AlphaProvenance:
    top_n: int
    n_farsi: int
    n_usa: int
    mu_imposter_farsi: float
    mu_imposter_usa: float


@dataclass(frozen=True)
class LanguageOffset:
    """Compensation subtracted from the enrollment-side imposter mean when
    the test utterance is detected to be English."""

    alpha: float
    provenance: AlphaProvenance | None = None

    def __post_init__(self):
        if not np.isfinite(self.alpha):
            raise ValidationError("offset must be finite")


def snorm_stats(units, rows, top_n: int = DEFAULT_TOP_N) -> tuple[np.ndarray, np.ndarray]:
    """Statistics of the top-N cohort scores for each row of ``units``.

    Scores every row of the (m, D) block ``units`` (unit-normalized vectors)
    by cosine against every row of ``rows`` (unit-normalized cohort vectors,
    e.g. :attr:`Cohort.unit_rows` or a row subset of it), keeps the top_n
    highest, and returns two length-m arrays: their mean and population
    standard deviation.  Each row takes one ``rows @ u`` product and one
    partition.  A top_n beyond the cohort size falls back to the whole
    cohort with one warning per call so small runs stay usable.
    """
    if top_n < 2:
        raise ParamInvalid(f"top_n must be >= 2, got {top_n}")
    if units.shape[1] != rows.shape[1]:
        raise DimensionMismatch(f"vector dim {units.shape[1]} vs cohort dim {rows.shape[1]}")
    if top_n > len(rows):
        log.warning("top_n=%d exceeds cohort size %d; using the whole cohort", top_n, len(rows))
        top_n = len(rows)
    k = len(rows) - top_n
    selected = np.empty((len(units), top_n))
    for i, u in enumerate(units):
        selected[i] = np.partition(rows @ u, k)[k:]
    sigma = np.std(selected, axis=1)
    if np.any(sigma <= 0.0):
        raise DegenerateCohort("selected cohort scores have zero variance")
    return np.mean(selected, axis=1), sigma


def _snorm(raw, mu_e, sigma_e, mu_t, sigma_t, shift):
    """Two-sided s-norm, elementwise; ``shift`` lowers mu_e, and 0.0 is an exact no-op."""
    return (raw - mu_t) / sigma_t + (raw - (mu_e - shift)) / sigma_e


def estimate_alpha(protos: PrototypeMatrix, top_n: int = DEFAULT_TOP_N) -> LanguageOffset:
    """Cross-language offset estimated on unit-normalized prototypes.

    mu_imposter_farsi: mean over Farsi prototypes of the top-N imposter
    mean against the other Farsi prototypes (leave-one-out; a prototype's
    self-score of 1.0 would bias the mean upward).  mu_imposter_usa: the
    same statistic for English-labeled prototypes against the full Farsi
    cohort.  alpha is their difference.
    """
    farsi = [i for i, lang in enumerate(protos.languages) if lang is Language.FARSI]
    usa = [i for i, lang in enumerate(protos.languages) if lang is Language.ENGLISH]
    if len(farsi) < top_n + 1:
        raise ClassTooSmall(
            f"need at least top_n+1={top_n + 1} Farsi prototypes, have {len(farsi)}"
        )
    if not usa:
        raise ClassTooSmall("need at least one English-labeled prototype")

    unit = protos.unit_rows
    # normalized once more, as a cohort normalizes its entries
    farsi_rows = unit_rows(unit[farsi], protos.dim)
    # one call per left-out prototype: dropping the self-score from a product
    # with all Farsi rows would move bits, as a gemv's depend on row positions
    mu_loo = [
        snorm_stats(farsi_rows[k : k + 1], np.delete(farsi_rows, k, 0), top_n)[0]
        for k in range(len(farsi))
    ]
    mu_fa = float(np.mean(np.concatenate(mu_loo)))
    mu_usa = float(np.mean(snorm_stats(unit_rows(unit[usa]), farsi_rows, top_n)[0]))
    return LanguageOffset(
        alpha=mu_fa - mu_usa,
        provenance=AlphaProvenance(
            top_n=top_n,
            n_farsi=len(farsi),
            n_usa=len(usa),
            mu_imposter_farsi=mu_fa,
            mu_imposter_usa=mu_usa,
        ),
    )


def score_trials(
    trials: Sequence[tuple[str, str]],
    enrollment_map: Mapping[str, Sequence[str]],
    table: EmbeddingTable,
    cohort: Cohort | None,
    mode: ScoringMode,
    offset: LanguageOffset | None = None,
    lid_decisions: Mapping[str, Language] | None = None,
    top_n: int = DEFAULT_TOP_N,
) -> np.ndarray:
    """Score every (model, test utterance) trial in the requested mode.

    Enrollment and test utterances are looked up in ``table`` by id.
    Returns the float64 scores in ``mode``, one per trial in trial order;
    in raw mode that is the cosine of enrollment model and test vector.
    Each enrollment model is the average of its L2-normalized utterances.
    Normalization statistics come from one :func:`snorm_stats` call for all
    test utterances and one per model; cohort entries sharing a speaker_id
    with a model's enrollment utterances are left out of that model's call.
    """
    if mode is not ScoringMode.RAW and cohort is None:
        raise ParamInvalid(f"mode {mode.value} requires a cohort")
    if mode is ScoringMode.SNORM_LID:
        if offset is None:
            raise ParamInvalid("mode snorm-lid requires a language offset")
        if lid_decisions is None:
            raise ParamInvalid("mode snorm-lid requires language decisions")

    def row_of(utt_id: str) -> int:
        try:
            return table.row_of[utt_id]
        except KeyError:
            raise MissingEmbedding(f"no embedding for utterance {utt_id!r}") from None

    model_ids = list(enrollment_map)
    model_row = {m: k for k, m in enumerate(model_ids)}
    model_vecs, model_speakers = [], []
    for model_id in model_ids:
        rows = [row_of(u) for u in enrollment_map[model_id]]
        model_vecs.append(average_embedding(table.vectors[rows]))
        model_speakers.append({table.speaker_ids[r] for r in rows})

    # trial -> (model row, test row); test rows in order of first appearance
    n = len(trials)
    mi = np.empty(n, dtype=np.intp)
    ti = np.empty(n, dtype=np.intp)
    test_row: dict[str, int] = {}
    for k, (model_id, utt_id) in enumerate(trials):
        if model_id not in model_row:
            raise MissingEmbedding(f"trial references unknown model {model_id!r}")
        mi[k] = model_row[model_id]
        ti[k] = test_row.setdefault(utt_id, len(test_row))
    test_vecs = table.vectors[[row_of(u) for u in test_row]]

    model_unit = unit_rows(model_vecs, table.dim)
    test_unit = unit_rows(test_vecs, table.dim)
    raw = pair_cosines(model_unit, mi, test_unit, ti)  # the kernel of ``cosine``
    if mode is ScoringMode.RAW:
        return raw

    rows = cohort.unit_rows
    cohort_speakers = np.array(cohort.speaker_ids)
    mu_e, sigma_e = np.zeros(len(model_ids)), np.ones(len(model_ids))
    for m in dict.fromkeys(mi.tolist()):
        keep = ~np.isin(cohort_speakers, list(model_speakers[m]))
        if not keep.any():
            raise EmptySet("excluding enrollment speakers emptied the cohort")
        kept = rows if keep.all() else rows[keep]
        mu_e[m : m + 1], sigma_e[m : m + 1] = snorm_stats(model_unit[m : m + 1], kept, top_n)
    mu_t, sigma_t = snorm_stats(test_unit, rows, top_n)
    shift = np.zeros(len(test_vecs))
    if mode is ScoringMode.SNORM_LID:
        for t, utt_id in enumerate(test_row):
            if utt_id not in lid_decisions:
                raise MissingLidDecision(f"no language decision for {utt_id!r}")
            if lid_decisions[utt_id] is Language.ENGLISH:
                shift[t] = offset.alpha
    return _snorm(raw, mu_e[mi], sigma_e[mi], mu_t[ti], sigma_t[ti], shift[ti])
