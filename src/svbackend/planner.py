"""Hard-prototype batch planning.

Builds training batch manifests from a speaker-similarity snapshot and an
utterance inventory.  Each anchor speaker contributes utterances from its
most similar speakers (itself included), so batches concentrate confusable
speakers.  Two passes: a broad pass anchoring every speaker once, and a
domain-balanced pass anchoring all target-domain speakers plus an equal
number of freshly drawn out-of-domain speakers.  A pass ranks all its
anchors with one :func:`top_similar` call, by ``vecmath.top_cosines`` in
O(TOP_BLOCK_ROWS * N) extra memory; no N x N matrix is built.

The planner never touches the snapshot's provenance: the caller stamps each
new prototype matrix with :func:`similarity_matrix` (a new ``epoch_tag``)
between passes.

Randomness: counter-based ``vecmath.philox_rng`` streams, split per purpose -
``(pass_id, 0)`` drives anchor ordering (and the out-of-domain draw of
the balanced pass), ``(pass_id, 1, anchor_position)`` drives the utterance
sampling of that anchor's group, one ``integers`` draw per group when
utts_per_speaker is 1.  Identical (config, prototypes, inventory, pass_id)
therefore reproduce byte-identical manifests on any platform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigInvalid, DomainTooSmall, IndexOutOfRange, InventoryGap, KTooLarge
from .errors import ParamInvalid, ValidationError
from .vecmath import Domain, EmbeddingIds, EmbeddingTable, PrototypeMatrix
from .vecmath import philox_rng, top_cosines

_STREAM_ANCHORS = 0
_STREAM_UTTS = 1


@dataclass(frozen=True)
class PlannerConfig:
    """Batch shape and plan seed; the batch size is derived from the shape."""

    anchors_per_batch: int
    imposters_per_anchor: int
    utts_per_speaker: int
    seed: int

    def __post_init__(self):
        if min(self.anchors_per_batch, self.imposters_per_anchor, self.utts_per_speaker) < 1:
            raise ConfigInvalid("anchor/imposter/utterance counts must be >= 1")

    @property
    def batch_size(self) -> int:
        """Entries per batch: anchors x imposters x utterances."""
        return self.anchors_per_batch * self.imposters_per_anchor * self.utts_per_speaker


@dataclass(frozen=True)
class UtteranceInventory:
    """Per-speaker utterance lists, aligned with the prototype speaker order;
    every speaker has at least one utterance."""

    utterances: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        utts = tuple(tuple(u) for u in self.utterances)
        for j, u in enumerate(utts):
            if not u:
                raise InventoryGap(f"speaker index {j} has no utterances")
        object.__setattr__(self, "utterances", utts)

    def __len__(self) -> int:
        return len(self.utterances)

    @classmethod
    def from_embeddings(
        cls, table: EmbeddingTable | EmbeddingIds, protos: PrototypeMatrix
    ) -> "UtteranceInventory":
        by_speaker: dict[str, list[str]] = {sid: [] for sid in protos.speaker_ids}
        for utt_id, speaker_id in zip(table.utt_ids, table.speaker_ids):
            if speaker_id in by_speaker:
                by_speaker[speaker_id].append(utt_id)
        for sid in protos.speaker_ids:
            if not by_speaker[sid]:
                raise InventoryGap(f"speaker {sid!r} has no utterances")
        return cls(tuple(tuple(by_speaker[sid]) for sid in protos.speaker_ids))


@dataclass(frozen=True)
class BatchManifest:
    """Ordered batches of (utt_id, speaker_index) entries for one pass.

    Within a batch, entries come in contiguous anchor groups of
    imposters_per_anchor * utts_per_speaker entries; within a group they
    follow the anchor's similarity ranking (anchor first), with
    utts_per_speaker consecutive utterances per ranked speaker.
    """

    batches: tuple[tuple[tuple[str, int], ...], ...]
    pass_id: int
    epoch_tag: int

    def __post_init__(self):
        batches = tuple(tuple((str(u), int(s)) for u, s in b) for b in self.batches)
        object.__setattr__(self, "batches", batches)

    @property
    def n_batches(self) -> int:
        return len(self.batches)

    def anchor_sequence(self, cfg: PlannerConfig) -> list[int]:
        """Anchor speaker of every group across the pass, in plan order."""
        group = cfg.imposters_per_anchor * cfg.utts_per_speaker
        anchors = []
        for batch in self.batches:
            for g in range(0, len(batch), group):
                anchors.append(batch[g][1])
        return anchors


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


def sample_utterances(
    inv: UtteranceInventory, speaker_index: int, u: int, rng: np.random.Generator
) -> list[str]:
    """Sample ``u`` utterance ids for one speaker.

    Without replacement when the speaker has at least ``u`` utterances,
    with replacement otherwise.
    """
    if not 0 <= speaker_index < len(inv):
        raise InventoryGap(f"speaker index {speaker_index} outside inventory")
    utts = inv.utterances[speaker_index]
    replace = len(utts) < u
    idx = rng.choice(len(utts), size=u, replace=replace)
    return [utts[int(i)] for i in idx]


def _build_batches(
    cfg: PlannerConfig,
    sim: SimilaritySnapshot,
    inv: UtteranceInventory,
    anchor_order: np.ndarray,
    pass_id: int,
) -> BatchManifest:
    """Group each anchor with its top-similar speakers, cycling
    ``anchor_order`` until the final batch is full.  With u = 1, one
    ``integers(0, lens[group])`` call draws a group: numpy's ``choice(n, 1,
    replace=False)`` is one bounded draw on [0, n) (none for n == 1), so the
    indices equal per-speaker :func:`sample_utterances` calls.  Floyd's
    algorithm plus a shuffle (u > 1) has no bit-exact batched form."""
    a, u = cfg.anchors_per_batch, cfg.utts_per_speaker
    anchors = np.resize(anchor_order, math.ceil(len(anchor_order) / a) * a)
    lens = np.array([len(utts) for utts in inv.utterances])
    batches = []
    entries: list[tuple[str, int]] = []
    for pos, group in enumerate(top_similar(sim, anchors, cfg.imposters_per_anchor).tolist()):
        g_utts = philox_rng(cfg.seed, pass_id, _STREAM_UTTS, pos)
        if u == 1:
            picks = g_utts.integers(0, lens[group]).tolist()
            entries.extend((inv.utterances[s][i], s) for s, i in zip(group, picks))
        else:
            for spk in group:
                entries.extend((utt, spk) for utt in sample_utterances(inv, spk, u, g_utts))
        if (pos + 1) % a == 0:
            batches.append(tuple(entries))
            entries = []
    return BatchManifest(batches=tuple(batches), pass_id=pass_id, epoch_tag=sim.epoch_tag)


def _check_pass(cfg: PlannerConfig, sim: SimilaritySnapshot, inv: UtteranceInventory) -> int:
    """Guards shared by both passes; returns the speaker count N."""
    n = sim.protos.count
    if cfg.imposters_per_anchor > n:
        raise KTooLarge(f"imposters_per_anchor={cfg.imposters_per_anchor} exceeds N={n}")
    if len(inv) != n:
        raise ValidationError(f"inventory covers {len(inv)} speakers, similarity has {n}")
    return n


def plan_pass_broad(
    cfg: PlannerConfig,
    sim: SimilaritySnapshot,
    inv: UtteranceInventory,
    pass_id: int = 0,
) -> BatchManifest:
    """One broad pass: a seeded permutation of all N speakers, consumed
    anchors_per_batch at a time, every speaker anchoring exactly once.

    When anchors_per_batch does not divide N, the final batch is filled by
    wrapping to the start of the same permutation, so every batch is full.
    """
    n = _check_pass(cfg, sim, inv)
    perm = philox_rng(cfg.seed, pass_id, _STREAM_ANCHORS).permutation(n)
    return _build_batches(cfg, sim, inv, perm, pass_id)


def plan_pass_balanced(
    cfg: PlannerConfig,
    sim: SimilaritySnapshot,
    inv: UtteranceInventory,
    target_domain: Domain,
    pass_id: int = 0,
) -> BatchManifest:
    """One domain-balanced pass.

    The anchor set is every target-domain speaker plus an equal number of
    out-of-domain speakers drawn uniformly without replacement for this
    pass; the 2F anchors are consumed in seeded random order, wrapping as
    in :func:`plan_pass_broad`.  Imposter selection per anchor stays global
    across all speakers: the balancing constrains who anchors, not who may
    appear as imposter.  Each new pass_id draws a fresh out-of-domain set;
    the caller supplies a refreshed similarity snapshot between passes.
    """
    _check_pass(cfg, sim, inv)
    domains = sim.protos.domains
    targets = [j for j, d in enumerate(domains) if d is target_domain]
    pool = np.array([j for j, d in enumerate(domains) if d is not target_domain])
    f = len(targets)
    if f < 1:
        raise DomainTooSmall(f"no speakers in target domain {target_domain.value}")
    if len(pool) < f:
        raise DomainTooSmall(
            f"out-of-domain pool has {len(pool)} speakers, need {f} to balance"
        )
    g = philox_rng(cfg.seed, pass_id, _STREAM_ANCHORS)
    ood = pool[g.choice(len(pool), size=f, replace=False)]
    anchor_set = np.concatenate([np.array(targets, dtype=np.int64), ood])
    return _build_batches(cfg, sim, inv, anchor_set[g.permutation(2 * f)], pass_id)
