"""Deterministic synthetic corpus generator.

Desk-scale speaker-clustered embeddings with domain and language structure:
every speaker gets a mean direction on the unit sphere; utterances are
noise-perturbed, re-normalized copies.  One fixed corpus-wide direction
carries the language structure: English-language content is offset by
+shift/2 along it and Farsi content by -shift/2 before normalization, so
the two language regions are separated by the full shift magnitude.  The
split is deliberate - a one-sided offset against uniformly drawn speaker
directions leaves the top-N imposter statistics of the two classes equal
and the compensation offset near zero, whereas two opposed clusters
reproduce the phenomenon under test: Farsi enrollments scored against
English test utterances come out depressed, English-labeled prototypes sit
apart from Farsi ones, and the Farsi-vs-Farsi imposter mean exceeds the
English-vs-Farsi one.

Training speakers (with prototypes, planner inventory, and cohort data) are
disjoint from evaluation speakers (with enrollment models and trial test
utterances), mirroring the usual train/eval split.

Generation is single-threaded and stream-split per purpose, so a given
seed reproduces the corpus byte-for-byte; language labels draw from their
own stream and therefore never perturb the vectors of other utterances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import SpecInvalid
from .planner import UtteranceInventory
from .prototypes import PrototypeMatrix, SpeakerInfo
from .vecmath import Domain, EmbeddingTable, Language, l2_normalize

_STREAM_SHIFT = 0
_STREAM_SPEAKERS = 1
_STREAM_COUNTS = 2
_STREAM_NOISE = 3
_STREAM_LANGUAGE = 4
_STREAM_TRIALS = 5
_SEED_MASK = (1 << 64) - 1


@dataclass(frozen=True)
class CorpusSpec:
    dim: int = 16
    vox_speakers: int = 50
    libri_speakers: int = 25
    deepmine_speakers: int = 60
    eval_speakers: int = 25
    utts_per_speaker: tuple[int, int] = (6, 10)
    concentration: float = 10.0
    language_shift: float = 0.8
    english_fraction: float = 0.5
    enroll_utts: int = 3
    target_trials: int = 150
    nontarget_trials: int = 1500
    seed: int = 0

    def __post_init__(self):
        lo, hi = self.utts_per_speaker
        counts = (
            self.vox_speakers,
            self.libri_speakers,
            self.deepmine_speakers,
            self.eval_speakers,
            self.enroll_utts,
            self.target_trials,
            self.nontarget_trials,
            lo,
            hi,
        )
        if any(c < 1 for c in counts):
            raise SpecInvalid("all corpus counts must be >= 1")
        if lo > hi:
            raise SpecInvalid(f"utterance range {lo}..{hi} is empty")
        if self.dim < 2:
            raise SpecInvalid("dimension must be >= 2")
        if not self.concentration > 0.0:
            raise SpecInvalid("concentration must be positive")
        if self.language_shift < 0.0:
            raise SpecInvalid("language shift must be nonnegative")
        if not 0.0 <= self.english_fraction <= 1.0:
            raise SpecInvalid("english fraction must be in [0, 1]")


@dataclass(frozen=True)
class SyntheticCorpus:
    spec: CorpusSpec
    #: the training utterances, then (from row ``n_train`` on) the eval ones
    embeddings: EmbeddingTable
    n_train: int
    prototypes: PrototypeMatrix
    inventory: UtteranceInventory
    enrollment_map: Mapping[str, tuple[str, ...]]
    trials: tuple[tuple[str, str], ...]
    labels: Mapping[tuple[str, str], bool]

    @property
    def train_embeddings(self) -> EmbeddingTable:
        return self.embeddings[: self.n_train]

    @property
    def eval_embeddings(self) -> EmbeddingTable:
        return self.embeddings[self.n_train :]


def _stream(seed: int, tag: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=int(seed) & _SEED_MASK, spawn_key=(tag,))
    return np.random.Generator(np.random.Philox(ss))


def generate_corpus(spec: CorpusSpec) -> SyntheticCorpus:
    g_shift = _stream(spec.seed, _STREAM_SHIFT)
    g_speakers = _stream(spec.seed, _STREAM_SPEAKERS)
    g_counts = _stream(spec.seed, _STREAM_COUNTS)
    g_noise = _stream(spec.seed, _STREAM_NOISE)
    g_lang = _stream(spec.seed, _STREAM_LANGUAGE)
    g_trials = _stream(spec.seed, _STREAM_TRIALS)

    shift_dir = l2_normalize(g_shift.normal(size=spec.dim))
    half_shift = 0.5 * spec.language_shift * shift_dir
    lo, hi = spec.utts_per_speaker

    def speaker_base() -> np.ndarray:
        return l2_normalize(g_speakers.normal(size=spec.dim))

    def language_center(base: np.ndarray, lang: Language) -> np.ndarray:
        return base + half_shift if lang is Language.ENGLISH else base - half_shift

    def utterance(base: np.ndarray, lang: Language) -> np.ndarray:
        noise = g_noise.normal(size=spec.dim) / spec.concentration
        return l2_normalize(language_center(base, lang) + noise)

    train_plan = [
        (Domain.VOX, "vox", spec.vox_speakers, Language.ENGLISH),
        (Domain.LIBRI, "lib", spec.libri_speakers, Language.ENGLISH),
        (Domain.DEEPMINE, "dm", spec.deepmine_speakers, Language.FARSI),
    ]
    rows: list[tuple] = []  # (utt_id, speaker_id, domain, language, vector)
    proto_cols: list[np.ndarray] = []
    speakers: list[SpeakerInfo] = []
    inventory_utts: list[tuple[str, ...]] = []
    for domain, prefix, count, native in train_plan:
        for k in range(count):
            sid = f"{prefix}{k:03d}"
            base = speaker_base()
            proto_cols.append(l2_normalize(language_center(base, native)))
            speakers.append(SpeakerInfo(speaker_id=sid, domain=domain, language=native))
            n_utts = int(g_counts.integers(lo, hi + 1))
            utt_ids = []
            for u in range(n_utts):
                uid = f"{sid}-u{u:03d}"
                rows.append((uid, sid, domain, native, utterance(base, native)))
                utt_ids.append(uid)
            inventory_utts.append(tuple(utt_ids))

    prototypes = PrototypeMatrix(w=np.stack(proto_cols, axis=1), speakers=tuple(speakers))
    inventory = UtteranceInventory(
        utterances=tuple(inventory_utts), domains=tuple(sp.domain for sp in speakers)
    )

    n_train = len(rows)
    enrollment_map: dict[str, tuple[str, ...]] = {}
    test_utts_by_speaker: dict[str, list[str]] = {}
    for k in range(spec.eval_speakers):
        sid = f"ev{k:03d}"
        base = speaker_base()
        enroll_ids = []
        for u in range(spec.enroll_utts):
            uid = f"{sid}-e{u:03d}"
            rows.append(
                (uid, sid, Domain.DEEPMINE, Language.FARSI, utterance(base, Language.FARSI))
            )
            enroll_ids.append(uid)
        enrollment_map[sid] = tuple(enroll_ids)
        n_test = int(g_counts.integers(lo, hi + 1))
        test_ids = []
        for u in range(n_test):
            uid = f"{sid}-t{u:03d}"
            lang = (
                Language.ENGLISH
                if float(g_lang.uniform()) < spec.english_fraction
                else Language.FARSI
            )
            rows.append((uid, sid, Domain.DEEPMINE, lang, utterance(base, lang)))
            test_ids.append(uid)
        test_utts_by_speaker[sid] = test_ids

    model_ids = list(enrollment_map)
    target_pool = [
        (sid, uid) for sid in model_ids for uid in test_utts_by_speaker[sid]
    ]
    nontarget_pool = [
        (sid, uid)
        for sid in model_ids
        for other in model_ids
        if other != sid
        for uid in test_utts_by_speaker[other]
    ]
    if spec.target_trials > len(target_pool):
        raise SpecInvalid(
            f"requested {spec.target_trials} target trials, only {len(target_pool)} possible"
        )
    if spec.nontarget_trials > len(nontarget_pool):
        raise SpecInvalid(
            f"requested {spec.nontarget_trials} nontarget trials, "
            f"only {len(nontarget_pool)} possible"
        )
    t_idx = g_trials.choice(len(target_pool), size=spec.target_trials, replace=False)
    n_idx = g_trials.choice(len(nontarget_pool), size=spec.nontarget_trials, replace=False)
    trials = [target_pool[int(i)] for i in t_idx] + [nontarget_pool[int(i)] for i in n_idx]
    labels = {key: i < spec.target_trials for i, key in enumerate(trials)}

    columns = tuple(zip(*rows))
    return SyntheticCorpus(
        spec=spec,
        embeddings=EmbeddingTable(*columns[:4], vectors=np.stack(columns[4])),
        n_train=n_train,
        prototypes=prototypes,
        inventory=inventory,
        enrollment_map=enrollment_map,
        trials=tuple(trials),
        labels=labels,
    )
