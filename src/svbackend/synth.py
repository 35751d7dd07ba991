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
from .planner import philox_rng
from .prototypes import PrototypeMatrix
from .scores import TrialKeys
from .vecmath import Domain, EmbeddingTable, Language, frozen_rows, unit_rows

_STREAM_SHIFT = 0
_STREAM_SPEAKERS = 1
_STREAM_COUNTS = 2
_STREAM_NOISE = 3
_STREAM_LANGUAGE = 4
_STREAM_TRIALS = 5


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
        if not 0.0 <= self.language_shift < np.inf:
            raise SpecInvalid(f"language shift must be finite and >= 0: {self.language_shift}")
        if not 0.0 <= self.english_fraction <= 1.0:
            raise SpecInvalid("english fraction must be in [0, 1]")


@dataclass(frozen=True)
class SyntheticCorpus:
    #: the training utterances, then (from row ``n_train`` on) the eval ones
    embeddings: EmbeddingTable
    n_train: int
    prototypes: PrototypeMatrix
    enrollment_map: Mapping[str, tuple[str, ...]]
    trials: TrialKeys
    #: True for a target trial, aligned with ``trials``; stored by ``frozen_rows``
    labels: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "labels", frozen_rows(self.labels, bool))

    @property
    def train_embeddings(self) -> EmbeddingTable:
        return self.embeddings[: self.n_train]

    @property
    def eval_embeddings(self) -> EmbeddingTable:
        return self.embeddings[self.n_train :]


def generate_corpus(spec: CorpusSpec) -> SyntheticCorpus:
    g_shift = philox_rng(spec.seed, _STREAM_SHIFT)
    g_speakers = philox_rng(spec.seed, _STREAM_SPEAKERS)
    g_counts = philox_rng(spec.seed, _STREAM_COUNTS)
    g_noise = philox_rng(spec.seed, _STREAM_NOISE)
    g_lang = philox_rng(spec.seed, _STREAM_LANGUAGE)
    g_trials = philox_rng(spec.seed, _STREAM_TRIALS)

    train_plan = [
        (Domain.VOX, "vox", spec.vox_speakers, Language.ENGLISH),
        (Domain.LIBRI, "lib", spec.libri_speakers, Language.ENGLISH),
        (Domain.DEEPMINE, "dm", spec.deepmine_speakers, Language.FARSI),
    ]
    n_train_speakers = spec.vox_speakers + spec.libri_speakers + spec.deepmine_speakers
    n_speakers = n_train_speakers + spec.eval_speakers
    (shift_dir,) = unit_rows(g_shift.normal(size=(1, spec.dim)))
    half_shift = 0.5 * spec.language_shift * shift_dir
    bases = unit_rows(g_speakers.normal(size=(n_speakers, spec.dim)))
    lo, hi = spec.utts_per_speaker

    def language_center(base: np.ndarray, lang: Language) -> np.ndarray:
        return base + half_shift if lang is Language.ENGLISH else base - half_shift

    cols: tuple[list, ...] = ([], [], [], [])  # utt_ids, speaker_ids, domains, languages
    blocks: list[np.ndarray] = []

    def add_speaker(sid, domain, base, langs: list[Language], utt_ids: list[str]) -> None:
        """Append one speaker's utterances, one noise draw and one
        normalization for all of them."""
        n = len(langs)
        centers = np.array([language_center(base, lang) for lang in langs])
        noise = g_noise.normal(size=(n, spec.dim)) / spec.concentration
        blocks.append(unit_rows(centers + noise))
        for col, values in zip(cols, (utt_ids, [sid] * n, [domain] * n, langs)):
            col.extend(values)

    speakers: list[tuple[str, Domain, Language]] = []  # the prototype columns, row-wise
    for domain, prefix, count, native in train_plan:
        for k in range(count):
            sid = f"{prefix}{k:03d}"
            speakers.append((sid, domain, native))
            n_utts = int(g_counts.integers(lo, hi + 1))
            utt_ids = [f"{sid}-u{u:03d}" for u in range(n_utts)]
            add_speaker(sid, domain, bases[len(speakers) - 1], [native] * n_utts, utt_ids)

    proto_rows = [language_center(b, lang) for b, (_, _, lang) in zip(bases, speakers)]
    prototypes = PrototypeMatrix(*zip(*speakers), unit_rows(proto_rows))

    n_train = len(cols[0])
    enrollment_map: dict[str, tuple[str, ...]] = {}
    test_ids: list[str] = []
    n_tests: list[int] = []
    for k in range(spec.eval_speakers):
        sid = f"ev{k:03d}"
        enroll_ids = [f"{sid}-e{u:03d}" for u in range(spec.enroll_utts)]
        n_test = int(g_counts.integers(lo, hi + 1))
        own_ids = [f"{sid}-t{u:03d}" for u in range(n_test)]
        english = (g_lang.uniform(size=n_test) < spec.english_fraction).tolist()
        langs = [Language.FARSI] * spec.enroll_utts + [
            Language.ENGLISH if en else Language.FARSI for en in english
        ]
        base = bases[n_train_speakers + k]
        add_speaker(sid, Domain.DEEPMINE, base, langs, enroll_ids + own_ids)
        enrollment_map[sid] = tuple(enroll_ids)
        test_ids += own_ids
        n_tests.append(n_test)

    # the trial pools as codes: target trial i is test utterance i and its
    # owner, nontarget trial j the j-th (model, test utterance) pair, in
    # model order, whose utterance the model does not own
    owner = np.repeat(np.arange(spec.eval_speakers), n_tests)  # each test utterance's model
    pair_models, pair_tests = np.divmod(np.arange(spec.eval_speakers * len(owner)), len(owner))
    other = owner[pair_tests] != pair_models
    pair_models, pair_tests = pair_models[other], pair_tests[other]
    if spec.target_trials > len(owner):
        raise SpecInvalid(
            f"requested {spec.target_trials} target trials, only {len(owner)} possible"
        )
    if spec.nontarget_trials > len(pair_tests):
        raise SpecInvalid(
            f"requested {spec.nontarget_trials} nontarget trials, "
            f"only {len(pair_tests)} possible"
        )
    t_idx = g_trials.choice(len(owner), size=spec.target_trials, replace=False)
    n_idx = g_trials.choice(len(pair_tests), size=spec.nontarget_trials, replace=False)
    models = np.concatenate([owner[t_idx], pair_models[n_idx]])
    tests = np.concatenate([t_idx, pair_tests[n_idx]])
    trials = TrialKeys(tuple(enrollment_map), tuple(test_ids), models, tests)

    return SyntheticCorpus(
        embeddings=EmbeddingTable(*cols, vectors=np.concatenate(blocks)),
        n_train=n_train,
        prototypes=prototypes,
        enrollment_map=enrollment_map,
        trials=trials,
        labels=np.arange(len(trials)) < spec.target_trials,
    )
