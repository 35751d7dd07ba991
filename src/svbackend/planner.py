"""Hard-prototype batch planning.

Builds training batch manifests from a speaker-similarity matrix and an
utterance inventory.  Each anchor speaker contributes utterances from its
most similar speakers (itself included), so batches concentrate confusable
speakers.  Two passes: a broad pass anchoring every speaker once, and a
domain-balanced pass anchoring all target-domain speakers plus an equal
number of freshly drawn out-of-domain speakers.

The planner never touches the similarity matrix's provenance: the caller
supplies a fresh snapshot (new ``epoch_tag``) between passes.

Randomness: counter-based Philox streams, split per purpose -
``(pass_id, 0)`` drives anchor ordering (and the out-of-domain draw of
the balanced pass), ``(pass_id, 1, anchor_position)`` drives the utterance
sampling of that anchor's group.  Identical (config, similarity matrix,
inventory, pass_id) therefore reproduce byte-identical manifests on any
platform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigInvalid,
    DomainTooSmall,
    InventoryGap,
    KTooLarge,
    ValidationError,
)
from .prototypes import PrototypeMatrix, SimilarityMatrix, top_similar
from .vecmath import Domain, EmbeddingTable

_STREAM_ANCHORS = 0
_STREAM_UTTS = 1
_SEED_MASK = (1 << 64) - 1


@dataclass(frozen=True)
class PlannerConfig:
    batch_size: int
    anchors_per_batch: int
    imposters_per_anchor: int
    utts_per_speaker: int
    seed: int

    def __post_init__(self):
        a, i, u = self.anchors_per_batch, self.imposters_per_anchor, self.utts_per_speaker
        if min(a, i, u) < 1:
            raise ConfigInvalid("anchor/imposter/utterance counts must be >= 1")
        if a * i * u != self.batch_size:
            raise ConfigInvalid(
                f"anchors*imposters*utterances = {a * i * u} != batch size {self.batch_size}"
            )


@dataclass(frozen=True)
class UtteranceInventory:
    """Per-speaker utterance lists, aligned with the prototype speaker order."""

    utterances: tuple[tuple[str, ...], ...]
    domains: tuple[Domain, ...]

    def __post_init__(self):
        utts = tuple(tuple(u) for u in self.utterances)
        domains = tuple(self.domains)
        if len(utts) != len(domains):
            raise ValidationError("inventory needs one domain label per speaker")
        object.__setattr__(self, "utterances", utts)
        object.__setattr__(self, "domains", domains)

    def __len__(self) -> int:
        return len(self.utterances)

    @classmethod
    def from_embeddings(
        cls, table: EmbeddingTable, protos: PrototypeMatrix
    ) -> "UtteranceInventory":
        by_speaker: dict[str, list[str]] = {sp.speaker_id: [] for sp in protos.speakers}
        for utt_id, speaker_id in zip(table.utt_ids, table.speaker_ids):
            if speaker_id in by_speaker:
                by_speaker[speaker_id].append(utt_id)
        for sp in protos.speakers:
            if not by_speaker[sp.speaker_id]:
                raise InventoryGap(f"speaker {sp.speaker_id!r} has no utterances")
        return cls(
            utterances=tuple(tuple(by_speaker[sp.speaker_id]) for sp in protos.speakers),
            domains=tuple(sp.domain for sp in protos.speakers),
        )


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


def _rng(seed: int, pass_id: int, stream: int, *extra: int) -> np.random.Generator:
    ss = np.random.SeedSequence(
        entropy=int(seed) & _SEED_MASK, spawn_key=(int(pass_id), stream, *extra)
    )
    return np.random.Generator(np.random.Philox(ss))


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
    if not utts:
        raise InventoryGap(f"speaker index {speaker_index} has no utterances")
    replace = len(utts) < u
    idx = rng.choice(len(utts), size=u, replace=replace)
    return [utts[int(i)] for i in idx]


def _build_batches(
    cfg: PlannerConfig,
    sim: SimilarityMatrix,
    inv: UtteranceInventory,
    anchor_order: np.ndarray,
    pass_id: int,
) -> BatchManifest:
    """Group each anchor with its top-similar speakers, cycling
    ``anchor_order`` until the final batch is full."""
    a = cfg.anchors_per_batch
    anchors = np.resize(anchor_order, math.ceil(len(anchor_order) / a) * a)
    batches = []
    entries: list[tuple[str, int]] = []
    for pos, anchor in enumerate(int(x) for x in anchors):
        g_utts = _rng(cfg.seed, pass_id, _STREAM_UTTS, pos)
        for spk in top_similar(sim, anchor, cfg.imposters_per_anchor):
            for utt in sample_utterances(inv, spk, cfg.utts_per_speaker, g_utts):
                entries.append((utt, spk))
        if (pos + 1) % a == 0:
            batches.append(tuple(entries))
            entries = []
    return BatchManifest(batches=tuple(batches), pass_id=pass_id, epoch_tag=sim.epoch_tag)


def _check_pass(cfg: PlannerConfig, sim: SimilarityMatrix, inv: UtteranceInventory) -> int:
    """Guards shared by both passes; returns the speaker count N."""
    n = sim.count
    if cfg.imposters_per_anchor > n:
        raise KTooLarge(f"imposters_per_anchor={cfg.imposters_per_anchor} exceeds N={n}")
    if len(inv) != n:
        raise ValidationError(f"inventory covers {len(inv)} speakers, similarity has {n}")
    for j, utts in enumerate(inv.utterances):
        if not utts:
            raise InventoryGap(f"speaker index {j} has no utterances")
    return n


def plan_pass_broad(
    cfg: PlannerConfig,
    sim: SimilarityMatrix,
    inv: UtteranceInventory,
    pass_id: int = 0,
) -> BatchManifest:
    """One broad pass: a seeded permutation of all N speakers, consumed
    anchors_per_batch at a time, every speaker anchoring exactly once.

    When anchors_per_batch does not divide N, the final batch is filled by
    wrapping to the start of the same permutation, so every batch is full.
    """
    n = _check_pass(cfg, sim, inv)
    perm = _rng(cfg.seed, pass_id, _STREAM_ANCHORS).permutation(n)
    return _build_batches(cfg, sim, inv, perm, pass_id)


def plan_pass_balanced(
    cfg: PlannerConfig,
    sim: SimilarityMatrix,
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
    the caller supplies a refreshed similarity matrix between passes.
    """
    _check_pass(cfg, sim, inv)
    targets = [j for j, d in enumerate(inv.domains) if d is target_domain]
    pool = np.array([j for j, d in enumerate(inv.domains) if d is not target_domain])
    f = len(targets)
    if f < 1:
        raise DomainTooSmall(f"no speakers in target domain {target_domain.value}")
    if len(pool) < f:
        raise DomainTooSmall(
            f"out-of-domain pool has {len(pool)} speakers, need {f} to balance"
        )
    g = _rng(cfg.seed, pass_id, _STREAM_ANCHORS)
    ood = pool[g.choice(len(pool), size=f, replace=False)]
    anchor_set = np.concatenate([np.array(targets, dtype=np.int64), ood])
    return _build_batches(cfg, sim, inv, anchor_set[g.permutation(2 * f)], pass_id)
