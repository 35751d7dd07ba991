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
The corpus is built as columns: each stream is drawn once, for every
speaker, test utterance or row at a time, and these draws equal the
per-speaker draws of the same stream in speaker order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import SpecInvalid
from .scores import TrialKeys
from .vecmath import Domain, EmbeddingTable, Language, PrototypeMatrix
from .vecmath import frozen_rows, philox_rng, unit_rows

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
    train_embeddings: EmbeddingTable
    #: each eval speaker's enrollment utterances, then its test utterances
    eval_embeddings: EmbeddingTable
    prototypes: PrototypeMatrix
    enrollment_map: Mapping[str, tuple[str, ...]]
    trials: TrialKeys
    #: True for a target trial, aligned with ``trials``; stored by ``frozen_rows``
    labels: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "labels", frozen_rows(self.labels, bool))


def generate_corpus(spec: CorpusSpec) -> SyntheticCorpus:
    g_shift = philox_rng(spec.seed, _STREAM_SHIFT)
    g_speakers = philox_rng(spec.seed, _STREAM_SPEAKERS)
    g_counts = philox_rng(spec.seed, _STREAM_COUNTS)
    g_noise = philox_rng(spec.seed, _STREAM_NOISE)
    g_lang = philox_rng(spec.seed, _STREAM_LANGUAGE)
    g_trials = philox_rng(spec.seed, _STREAM_TRIALS)

    # the speaker columns: the training speakers, then the eval speakers
    train_plan = [
        (Domain.VOX, "vox", spec.vox_speakers, Language.ENGLISH),
        (Domain.LIBRI, "lib", spec.libri_speakers, Language.ENGLISH),
        (Domain.DEEPMINE, "dm", spec.deepmine_speakers, Language.FARSI),
    ]
    train = [(f"{p}{k:03d}", d, lang) for d, p, n, lang in train_plan for k in range(n)]
    n_train = len(train)
    eval_ids = [f"ev{k:03d}" for k in range(spec.eval_speakers)]
    speaker_ids = [sid for sid, _, _ in train] + eval_ids
    domains = [d for _, d, _ in train] + [Domain.DEEPMINE] * spec.eval_speakers
    # 1 for an English, 0 for a Farsi speaker or utterance: the row of ``offsets``
    english_train = np.array([lang is Language.ENGLISH for _, _, lang in train], np.intp)

    (shift_dir,) = unit_rows(g_shift.normal(size=(1, spec.dim)))
    half_shift = 0.5 * spec.language_shift * shift_dir
    offsets = np.stack([-half_shift, half_shift])  # a language center's offset from its base
    bases = unit_rows(g_speakers.normal(size=(len(speaker_ids), spec.dim)))
    lo, hi = spec.utts_per_speaker
    # a training speaker's utterance count, an eval speaker's test-utterance count
    counts = g_counts.integers(lo, hi + 1, size=len(speaker_ids))
    n_tests = counts[n_train:]

    # the row columns: each training speaker's utterances, then each eval
    # speaker's enrollment utterances (Farsi) and test utterances
    sizes = np.concatenate([counts[:n_train], spec.enroll_utts + n_tests])
    speaker = np.repeat(np.arange(len(sizes)), sizes)
    pos = np.arange(len(speaker)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    is_test = (speaker >= n_train) & (pos >= spec.enroll_utts)
    english = np.append(english_train, np.zeros(spec.eval_speakers, np.intp))[speaker]
    english[is_test] = g_lang.uniform(size=int(n_tests.sum())) < spec.english_fraction

    noise = g_noise.normal(size=(len(speaker), spec.dim)) / spec.concentration
    vectors = unit_rows(bases[speaker] + offsets[english] + noise)
    vectors.setflags(write=False)  # so each table keeps its rows without a copy
    prototypes = PrototypeMatrix(*zip(*train), unit_rows(bases[:n_train] + offsets[english_train]))

    kind = np.where(speaker < n_train, "u", np.where(is_test, "t", "e"))
    number = np.where(is_test, pos - spec.enroll_utts, pos)
    utt_ids = [
        f"{speaker_ids[s]}-{k}{u:03d}"
        for s, k, u in zip(speaker.tolist(), kind.tolist(), number.tolist())
    ]
    cols = (
        utt_ids,
        [speaker_ids[s] for s in speaker.tolist()],
        [domains[s] for s in speaker.tolist()],
        [(Language.FARSI, Language.ENGLISH)[en] for en in english.tolist()],
    )
    n_rows = int(counts[:n_train].sum())  # the training rows
    enrollment_map = {
        sid: tuple(f"{sid}-e{u:03d}" for u in range(spec.enroll_utts)) for sid in eval_ids
    }
    test_ids = [utt_ids[r] for r in np.flatnonzero(is_test).tolist()]

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
    trials = TrialKeys(tuple(eval_ids), tuple(test_ids), models, tests)

    return SyntheticCorpus(
        train_embeddings=EmbeddingTable(*(c[:n_rows] for c in cols), vectors[:n_rows]),
        eval_embeddings=EmbeddingTable(*(c[n_rows:] for c in cols), vectors[n_rows:]),
        prototypes=prototypes,
        enrollment_map=enrollment_map,
        trials=trials,
        labels=np.arange(len(trials)) < spec.target_trials,
    )
