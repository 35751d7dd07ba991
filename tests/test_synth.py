import math

import numpy as np
import pytest
from scipy.stats import mannwhitneyu

from svbackend.errors import SpecInvalid
from svbackend.planner import UtteranceInventory, philox_rng
from svbackend.scoring import estimate_alpha
from svbackend.synth import CorpusSpec, SyntheticCorpus, generate_corpus
from svbackend.vecmath import Domain, Language, cosine

from conftest import rows_of


def all_rows(corpus):
    """The rows of both tables: the training utterances, then the eval ones."""
    return rows_of(corpus.train_embeddings) + rows_of(corpus.eval_embeddings)


SMALL = dict(
    vox_speakers=20,
    libri_speakers=10,
    deepmine_speakers=25,
    eval_speakers=10,
    target_trials=40,
    nontarget_trials=200,
)


class TestSpecValidation:
    def test_rejects_bad_counts(self):
        with pytest.raises(SpecInvalid):
            CorpusSpec(vox_speakers=0)
        with pytest.raises(SpecInvalid):
            CorpusSpec(utts_per_speaker=(5, 3))
        with pytest.raises(SpecInvalid):
            CorpusSpec(dim=1)
        with pytest.raises(SpecInvalid):
            CorpusSpec(concentration=0.0)
        with pytest.raises(SpecInvalid):
            CorpusSpec(english_fraction=1.5)

    @pytest.mark.parametrize("shift", [-0.1, math.nan, math.inf])
    def test_rejects_bad_shift(self, shift):
        with pytest.raises(SpecInvalid):
            CorpusSpec(language_shift=shift)

    def test_rejects_impossible_trial_counts(self):
        with pytest.raises(SpecInvalid):
            generate_corpus(CorpusSpec(**{**SMALL, "target_trials": 10_000}))


class TestStructure:
    def test_counts_and_split(self):
        corpus = generate_corpus(CorpusSpec(**SMALL, seed=3))
        assert corpus.prototypes.count == 55
        inventory = UtteranceInventory.from_embeddings(corpus.train_embeddings, corpus.prototypes)
        assert len(inventory) == 55
        train_speakers = {e.speaker_id for e in rows_of(corpus.train_embeddings)}
        eval_speakers = {e.speaker_id for e in rows_of(corpus.eval_embeddings)}
        assert train_speakers.isdisjoint(eval_speakers)
        assert len(corpus.enrollment_map) == 10
        assert len(corpus.trials) == 240
        assert corpus.labels.dtype == bool and not corpus.labels.flags.writeable
        assert int(corpus.labels.sum()) == 40

    def test_trial_keys_unique_and_resolvable(self):
        corpus = generate_corpus(CorpusSpec(**SMALL, seed=3))
        assert len(set(corpus.trials)) == len(corpus.trials)
        eval_utts = {e.utt_id for e in rows_of(corpus.eval_embeddings)}
        for model_id, utt_id in corpus.trials:
            assert model_id in corpus.enrollment_map
            assert utt_id in eval_utts

    def test_labels_match_speaker_identity(self):
        corpus = generate_corpus(CorpusSpec(**SMALL, seed=3))
        by_id = {e.utt_id: e for e in rows_of(corpus.eval_embeddings)}
        for (model_id, utt_id), is_target in zip(corpus.trials, corpus.labels.tolist()):
            assert (by_id[utt_id].speaker_id == model_id) == is_target

    def test_determinism(self):
        a = generate_corpus(CorpusSpec(**SMALL, seed=9))
        b = generate_corpus(CorpusSpec(**SMALL, seed=9))
        assert a.trials == b.trials
        for ea, eb in zip(all_rows(a), all_rows(b)):
            assert ea.utt_id == eb.utt_id
            assert np.array_equal(ea.vec, eb.vec)
        assert np.array_equal(a.prototypes.w, b.prototypes.w)

    def test_seed_changes_output(self):
        a = generate_corpus(CorpusSpec(**SMALL, seed=1))
        b = generate_corpus(CorpusSpec(**SMALL, seed=2))
        assert not np.array_equal(a.prototypes.w, b.prototypes.w)


class TestLanguageShift:
    def test_zero_shift_labels_do_not_touch_vectors(self):
        # same seed, opposite label assignments: vectors must be identical
        all_en = generate_corpus(CorpusSpec(**SMALL, seed=5, language_shift=0.0, english_fraction=1.0))
        all_fa = generate_corpus(CorpusSpec(**SMALL, seed=5, language_shift=0.0, english_fraction=0.0))
        langs_en = {e.utt_id: e.language for e in rows_of(all_en.eval_embeddings)}
        langs_fa = {e.utt_id: e.language for e in rows_of(all_fa.eval_embeddings)}
        assert any(langs_en[u] != langs_fa[u] for u in langs_en)
        for ea, eb in zip(all_rows(all_en), all_rows(all_fa)):
            assert ea.utt_id == eb.utt_id
            assert np.array_equal(ea.vec, eb.vec)

    def test_high_concentration_collapses_to_prototype(self):
        corpus = generate_corpus(
            CorpusSpec(**SMALL, seed=7, concentration=1e9)
        )
        by_speaker = {sid: j for j, sid in enumerate(corpus.prototypes.speaker_ids)}
        for e in rows_of(corpus.train_embeddings):
            proto = corpus.prototypes.w[:, by_speaker[e.speaker_id]]
            assert np.max(np.abs(e.vec - proto)) < 1e-6

    def test_same_speaker_dominates_different_speaker(self):
        corpus = generate_corpus(CorpusSpec(**SMALL, seed=11, concentration=20.0))
        rng = np.random.default_rng(0)
        by_speaker: dict[str, list] = {}
        for e in rows_of(corpus.train_embeddings):
            if e.language is Language.FARSI:
                by_speaker.setdefault(e.speaker_id, []).append(e)
        speakers = [s for s, es in by_speaker.items() if len(es) >= 2]
        same, diff = [], []
        for _ in range(1000):
            sa, sb = rng.choice(speakers, size=2, replace=False)
            ea, eb = rng.choice(len(by_speaker[sa]), size=2, replace=False)
            same.append(cosine(by_speaker[sa][int(ea)].vec, by_speaker[sa][int(eb)].vec))
            other = by_speaker[sb][int(rng.integers(len(by_speaker[sb])))]
            diff.append(cosine(by_speaker[sa][int(ea)].vec, other.vec))
        stat = mannwhitneyu(same, diff, alternative="greater")
        assert stat.pvalue < 1e-6

    def test_cross_language_depresses_same_speaker_scores(self):
        corpus = generate_corpus(CorpusSpec(**SMALL, seed=13, language_shift=1.0))
        same_lang, cross_lang = [], []
        by_speaker: dict[str, list] = {}
        for e in rows_of(corpus.eval_embeddings):
            by_speaker.setdefault(e.speaker_id, []).append(e)
        for es in by_speaker.values():
            fa = [e for e in es if e.language is Language.FARSI]
            en = [e for e in es if e.language is Language.ENGLISH]
            for a in fa:
                for b in fa:
                    if a.utt_id < b.utt_id:
                        same_lang.append(cosine(a.vec, b.vec))
                for b in en:
                    cross_lang.append(cosine(a.vec, b.vec))
        assert np.mean(cross_lang) < np.mean(same_lang) - 0.05

    def test_alpha_positive_iff_shift(self):
        shifted = generate_corpus(CorpusSpec(**SMALL, seed=17, language_shift=0.8))
        assert estimate_alpha(shifted.prototypes, top_n=10).alpha > 0
        flat_alphas = []
        for seed in range(6):
            flat = generate_corpus(CorpusSpec(**SMALL, seed=seed, language_shift=0.0))
            flat_alphas.append(estimate_alpha(flat.prototypes, top_n=10).alpha)
        se = np.std(flat_alphas, ddof=1) / math.sqrt(len(flat_alphas))
        assert abs(np.mean(flat_alphas)) < 3 * se

    def test_golden_fingerprint(self):
        # regression fixture: first utterance vector of the default-seed corpus
        corpus = generate_corpus(CorpusSpec(**SMALL, seed=0))
        e = rows_of(corpus.train_embeddings)[0]
        assert e.utt_id == "vox000-u000"
        assert e.domain is Domain.VOX and e.language is Language.ENGLISH
        assert np.linalg.norm(e.vec) == pytest.approx(1.0, abs=1e-9)
        fingerprint = float(np.sum(e.vec * np.arange(1, len(e.vec) + 1)))
        assert fingerprint == pytest.approx(-6.966771186753838, abs=1e-12)

    def test_two_stored_tables(self):
        corpus = generate_corpus(CorpusSpec(**SMALL, seed=0))
        assert isinstance(corpus, SyntheticCorpus)
        train, ev = corpus.train_embeddings, corpus.eval_embeddings
        assert corpus.train_embeddings is train and corpus.eval_embeddings is ev
        assert not train.vectors.flags.writeable and not ev.vectors.flags.writeable
        assert all(u.split("-")[1].startswith("u") for u in train.utt_ids)
        # each eval speaker's enrollment utterances, then its test utterances
        tests = corpus.trials.test_ids
        want = [
            u
            for m, enroll in corpus.enrollment_map.items()
            for u in enroll + tuple(t for t in tests if t.startswith(m + "-"))
        ]
        assert list(ev.utt_ids) == want and len(tests) == len(ev) - 3 * 10


class TestDrawsAsColumns:
    """``generate_corpus`` draws each Philox stream once for all speakers or
    rows; these are the per-speaker draws it replaces, on this numpy."""

    @pytest.mark.parametrize(("lo", "hi"), [(2, 2), (5, 9), (1, 1000), (0, 2**40)])
    def test_integers_equal_scalar_draws(self, lo, hi):
        batched, scalar = philox_rng(7, 2), philox_rng(7, 2)
        counts = batched.integers(lo, hi + 1, size=301)
        assert counts.tolist() == [int(scalar.integers(lo, hi + 1)) for _ in range(301)]
        assert batched.random() == scalar.random()  # the same place in the stream

    @pytest.mark.parametrize("dim", [1, 16, 256])
    def test_normal_and_uniform_equal_per_speaker_draws(self, dim):
        sizes = [2, 9, 1, 5, 4, 0, 7, 3]
        draws = {
            "normal": lambda g, n: g.normal(size=(n, dim)),
            "uniform": lambda g, n: g.uniform(size=n),
        }
        for name, draw in draws.items():
            batched, split = philox_rng(3, 4), philox_rng(3, 4)
            whole = draw(batched, sum(sizes))
            parts = np.concatenate([draw(split, n) for n in sizes])
            assert whole.tobytes() == parts.tobytes(), name
            assert batched.random() == split.random(), name
