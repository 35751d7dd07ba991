import struct

import numpy as np
import pytest

from svbackend import formats
from svbackend.calibration import CalibrationModel
from svbackend.errors import FormatError, ValidationError, VersionUnsupported
from svbackend.lid import adapt_english_mean, train_gb
from svbackend.planner import BatchManifest, PlannerConfig, plan_pass_broad
from svbackend.prototypes import PrototypeMatrix, SpeakerInfo, similarity_matrix
from svbackend.scores import ScoreSet
from svbackend.scoring import AlphaProvenance, LanguageOffset
from svbackend.synth import CorpusSpec, generate_corpus
from svbackend.vecmath import Domain, Language

from conftest import make_embedding, make_table, rows_of
from oracles import read_embeddings_binary_rows, read_embeddings_text_rows

SMALL = dict(
    vox_speakers=8,
    libri_speakers=4,
    deepmine_speakers=10,
    eval_speakers=5,
    target_trials=15,
    nontarget_trials=60,
)


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(CorpusSpec(**SMALL, seed=21))


def same_rows(table, rows):
    """Ids and labels equal, vectors bitwise equal."""
    assert len(table) == len(rows)
    for got, (utt, spk, dom, lang, vec) in zip(rows_of(table), rows):
        assert (got.utt_id, got.speaker_id, got.domain, got.language) == (utt, spk, dom, lang)
        assert got.vec.tobytes() == vec.tobytes()


class TestEmbeddingsText:
    def test_roundtrip_exact(self, corpus, tmp_path):
        path = tmp_path / "embs.tsv"
        formats.write_embeddings_text(path, corpus.train_embeddings)
        back = formats.read_embeddings_text(path)
        assert len(back) == len(corpus.train_embeddings)
        for a, b in zip(rows_of(corpus.train_embeddings), rows_of(back)):
            assert (a.utt_id, a.speaker_id, a.domain, a.language) == (
                b.utt_id,
                b.speaker_id,
                b.domain,
                b.language,
            )
            assert np.array_equal(a.vec, b.vec)

    def test_header_first_line(self, corpus, tmp_path):
        path = tmp_path / "embs.tsv"
        formats.write_embeddings_text(path, corpus.train_embeddings[:1])
        assert path.read_text().splitlines()[0] == "#fmt:embeddings:1"

    def test_wrong_format_name(self, corpus, tmp_path):
        path = tmp_path / "x.tsv"
        formats.write_trials(path, [("m", "t")])
        with pytest.raises(FormatError):
            formats.read_embeddings_text(path)

    def test_unknown_version(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("#fmt:embeddings:99\n")
        with pytest.raises(VersionUnsupported):
            formats.read_embeddings_text(path)

    def test_whitespace_id_rejected_on_write(self, tmp_path, corpus):
        bad = make_table([make_embedding("utt 1", "s", [1.0, 0.0])])
        with pytest.raises(FormatError):
            formats.write_embeddings_text(tmp_path / "bad.tsv", bad)

    def test_write_read_write_reproduces_bytes(self, corpus, tmp_path):
        p1, p2 = tmp_path / "a.tsv", tmp_path / "b.tsv"
        formats.write_embeddings_text(p1, corpus.embeddings)
        formats.write_embeddings_text(p2, formats.read_embeddings_text(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_matches_per_row_reader(self, corpus, tmp_path, rng):
        path = tmp_path / "a.tsv"
        # extreme magnitudes and subnormals next to the synthetic rows
        odd = rng.normal(size=(3, corpus.embeddings.dim)) * [[1e-310], [1e300], [1.0]]
        extra = [make_embedding(f"x{k}", "sx", v) for k, v in enumerate(odd)]
        table = make_table(rows_of(corpus.embeddings) + extra)
        formats.write_embeddings_text(path, table)
        same_rows(formats.read_embeddings_text(path), read_embeddings_text_rows(path))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "e.tsv"
        path.write_text("#fmt:embeddings:1\n# only a comment\n\n")
        table = formats.read_embeddings_text(path)
        assert len(table) == 0 and table.vectors.shape == (0, 0)


class TestEmbeddingsBinary:
    def test_file_level_roundtrip_bit_exact(self, corpus, tmp_path):
        p1 = tmp_path / "a.sveb"
        p2 = tmp_path / "b.sveb"
        formats.write_embeddings_binary(p1, corpus.train_embeddings)
        back = formats.read_embeddings_binary(p1)
        formats.write_embeddings_binary(p2, back)
        assert p1.read_bytes() == p2.read_bytes()

    def test_values_quantized_to_f32(self, corpus, tmp_path):
        path = tmp_path / "a.sveb"
        formats.write_embeddings_binary(path, corpus.train_embeddings)
        back = formats.read_embeddings_binary(path)
        assert np.array_equal(
            corpus.train_embeddings.vectors.astype(np.float32).astype(np.float64), back.vectors
        )

    def test_metadata_preserved(self, corpus, tmp_path):
        path = tmp_path / "a.sveb"
        formats.write_embeddings_binary(path, corpus.eval_embeddings)
        back = formats.read_embeddings_binary(path)
        assert [(e.utt_id, e.speaker_id, e.domain, e.language) for e in rows_of(back)] == [
            (e.utt_id, e.speaker_id, e.domain, e.language) for e in rows_of(corpus.eval_embeddings)
        ]

    def test_dispatcher_sniffs_both(self, corpus, tmp_path):
        t = tmp_path / "t.tsv"
        b = tmp_path / "b.sveb"
        formats.write_embeddings_text(t, corpus.eval_embeddings[:3])
        formats.write_embeddings_binary(b, corpus.eval_embeddings[:3])
        assert formats.read_embeddings(t).utt_ids == formats.read_embeddings(b).utt_ids

    def test_truncation_detected(self, corpus, tmp_path):
        path = tmp_path / "a.sveb"
        formats.write_embeddings_binary(path, corpus.eval_embeddings[:3])
        data = path.read_bytes()
        path.write_bytes(data[:-4])
        with pytest.raises(FormatError):
            formats.read_embeddings_binary(path)

    def test_write_read_write_reproduces_bytes(self, corpus, tmp_path):
        # the first write quantizes; every later write reproduces its bytes
        p1, p2, p3 = (tmp_path / f"{k}.sveb" for k in range(3))
        formats.write_embeddings_binary(p1, corpus.embeddings)
        formats.write_embeddings_binary(p2, formats.read_embeddings_binary(p1))
        formats.write_embeddings_binary(p3, formats.read_embeddings(p2))
        assert p1.read_bytes() == p2.read_bytes() == p3.read_bytes()

    def test_matches_per_record_reader(self, corpus, tmp_path):
        path = tmp_path / "a.sveb"
        formats.write_embeddings_binary(path, corpus.embeddings)
        same_rows(formats.read_embeddings_binary(path), read_embeddings_binary_rows(path))

    def test_string_table_is_interned_in_row_order(self, tmp_path):
        table = make_table(
            [
                make_embedding("u1", "s1", [1.0, 2.0]),
                make_embedding("u2", "s1", [3.0, 4.0], domain=Domain.DEEPMINE),
                make_embedding("u3", "s2", [5.0, 6.0], language=Language.ENGLISH),
            ]
        )
        path = tmp_path / "a.sveb"
        formats.write_embeddings_binary(path, table)
        payload = path.read_bytes().split(b"\n", 1)[1]
        # ids interned as they first appear, utterance before speaker
        names = [b"u1", b"s1", b"u2", b"u3", b"s2"]
        string_table = struct.pack("<I", 5) + b"".join(struct.pack("<I", 2) + n for n in names)
        records = [(0, 1, 0, 3), (2, 1, 2, 3), (3, 4, 0, 1)]
        assert payload[18 + 4 * 6 :] == string_table + b"".join(
            struct.pack("<IIBB", *rec) for rec in records
        )

    def test_empty_table(self, tmp_path):
        path = tmp_path / "e.sveb"
        formats.write_embeddings_binary(path, make_table([]))
        assert len(formats.read_embeddings_binary(path)) == 0


class TestPrototypes:
    def test_roundtrip_exact(self, corpus, tmp_path):
        path = tmp_path / "p.tsv"
        formats.write_prototypes(path, corpus.prototypes)
        back = formats.read_prototypes(path)
        assert back.speakers == corpus.prototypes.speakers
        assert np.array_equal(back.w, corpus.prototypes.w)


class TestTrialsEnrollScores:
    def test_trials_roundtrip_with_labels(self, corpus, tmp_path):
        path = tmp_path / "trials.tsv"
        formats.write_trials(path, corpus.trials, corpus.labels)
        trials, labels = formats.read_trials(path)
        assert trials == list(corpus.trials)
        assert labels == dict(corpus.labels)

    def test_trials_roundtrip_without_labels(self, corpus, tmp_path):
        path = tmp_path / "trials.tsv"
        formats.write_trials(path, corpus.trials)
        trials, labels = formats.read_trials(path)
        assert trials == list(corpus.trials)
        assert labels is None

    def test_mixed_arity_rejected(self, tmp_path):
        path = tmp_path / "trials.tsv"
        path.write_text("#fmt:trials:1\nm\tu\ntarget\tx\tnontarget\n")
        with pytest.raises(FormatError):
            formats.read_trials(path)

    def test_enroll_roundtrip(self, corpus, tmp_path):
        path = tmp_path / "enroll.tsv"
        formats.write_enroll_map(path, corpus.enrollment_map)
        assert formats.read_enroll_map(path) == dict(corpus.enrollment_map)

    def test_scores_roundtrip_exact_floats(self, tmp_path, rng):
        keys = tuple((f"m{i}", f"t{i}") for i in range(50))
        ss = ScoreSet(
            keys=keys, scores=rng.normal(size=50) * 1e3, labels=rng.uniform(size=50) < 0.5
        )
        path = tmp_path / "scores.tsv"
        formats.write_scores(path, ss)
        back = formats.read_scores(path)
        assert back.keys == ss.keys
        assert np.array_equal(back.scores, ss.scores)
        assert np.array_equal(back.labels, ss.labels)


class TestLidDecisions:
    def test_roundtrip(self, tmp_path):
        decisions = {"u1": (Language.ENGLISH, 1.25), "u2": (Language.FARSI, -0.5)}
        path = tmp_path / "lid.tsv"
        formats.write_lid_decisions(path, decisions)
        assert formats.read_lid_decisions(path) == decisions

    def test_only_two_languages_allowed(self, tmp_path):
        with pytest.raises(FormatError):
            formats.write_lid_decisions(tmp_path / "x.tsv", {"u": (Language.OTHER, 0.0)})


class TestManifests:
    def test_roundtrip(self, corpus, tmp_path):
        sim = similarity_matrix(corpus.prototypes, epoch_tag=4)
        cfg = PlannerConfig(
            batch_size=6,
            anchors_per_batch=2,
            imposters_per_anchor=3,
            utts_per_speaker=1,
            seed=5,
        )
        manifests = [
            plan_pass_broad(cfg, sim, corpus.inventory, pass_id=k) for k in range(3)
        ]
        path = tmp_path / "manifest.tsv"
        formats.write_manifests(path, manifests)
        back = formats.read_manifests(path)
        assert back == manifests
        assert all(m.epoch_tag == 4 for m in back)


#: name -> (payload carrying ids a and b, writer, reader) for every text
#: format with ids; each reader's result is accepted by its writer
ID_FORMATS = {
    "embeddings": (
        lambda a, b: make_table(
            [make_embedding(a, b, [1.0, 0.5]), make_embedding("u2", b, [0.0, 1.0])]
        ),
        formats.write_embeddings_text,
        formats.read_embeddings_text,
    ),
    "prototypes": (
        lambda a, b: PrototypeMatrix(
            np.array([[1.0, 0.5], [0.0, 1.0]]),
            (
                SpeakerInfo(a, Domain.VOX, Language.ENGLISH),
                SpeakerInfo(b, Domain.DEEPMINE, Language.FARSI),
            ),
        ),
        formats.write_prototypes,
        formats.read_prototypes,
    ),
    "trials": (
        lambda a, b: ([(b, a), (b, "u2")], {(b, a): True, (b, "u2"): False}),
        lambda path, trials_labels: formats.write_trials(path, *trials_labels),
        formats.read_trials,
    ),
    "enroll": (lambda a, b: {b: (a, "u2")}, formats.write_enroll_map, formats.read_enroll_map),
    "lid": (
        lambda a, b: {a: (Language.ENGLISH, 0.5), b: (Language.FARSI, -1.0)},
        formats.write_lid_decisions,
        formats.read_lid_decisions,
    ),
    "scores": (
        lambda a, b: ScoreSet(((b, a), (b, "u2")), [0.5, -0.25], [True, False]),
        formats.write_scores,
        formats.read_scores,
    ),
    "manifest": (
        lambda a, b: [BatchManifest(batches=(((a, 0), (b, 1)),), pass_id=0, epoch_tag=3)],
        formats.write_manifests,
        formats.read_manifests,
    ),
}


@pytest.mark.parametrize("fmt", list(ID_FORMATS))
class TestIds:
    def test_write_read_write_keeps_every_id(self, fmt, tmp_path):
        make, write, read = ID_FORMATS[fmt]
        for a, b in (("u1", "m1"), ("u#1", "m#"), ("ü-ß", "м.1"), ("a,b;c", "x|y")):
            p1, p2 = tmp_path / "a.tsv", tmp_path / "b.tsv"
            write(p1, make(a, b))
            write(p2, read(p1))
            assert p1.read_bytes() == p2.read_bytes()
            text = p2.read_text(encoding="utf-8")
            assert a in text and b in text

    def test_bad_id_rejected_on_write(self, fmt, tmp_path):
        # a leading '#' would read back as a comment row and vanish
        make, write, _ = ID_FORMATS[fmt]
        for bad in ("#u1", "#", "", "u 1", "u\t1", "u\xa01", "u\u20281"):
            for a, b in ((bad, "m1"), ("u1", bad)):
                try:
                    payload = make(a, b)
                except ValidationError:  # EmbeddingTable refuses empty ids itself
                    continue
                with pytest.raises(FormatError):
                    write(tmp_path / "bad.tsv", payload)


class TestModels:
    def test_gb_roundtrip_bit_exact(self, corpus, tmp_path):
        gb = adapt_english_mean(train_gb(corpus.prototypes), 0.75)
        path = tmp_path / "gb.json"
        formats.write_gb_model(path, gb)
        back = formats.read_gb_model(path)
        assert np.array_equal(back.mu_farsi, gb.mu_farsi)
        assert np.array_equal(back.mu_usa, gb.mu_usa)
        assert np.array_equal(back.mu_english_effective, gb.mu_english_effective)
        assert np.array_equal(back.shared_cov, gb.shared_cov)
        assert back.interpolation_weight == gb.interpolation_weight

    def test_cal_model_roundtrip(self, tmp_path):
        model = CalibrationModel(a=3.0000000000000004, b=-0.1, trained_on="dev")
        path = tmp_path / "cal.tsv"
        formats.write_cal_model(path, model)
        back = formats.read_cal_model(path)
        assert back.a == model.a and back.b == model.b and back.trained_on == "dev"

    def test_alpha_roundtrip(self, tmp_path):
        off = LanguageOffset(
            alpha=0.1234567890123456,
            provenance=AlphaProvenance(
                top_n=10, n_farsi=25, n_usa=12, mu_imposter_farsi=0.4, mu_imposter_usa=0.3
            ),
        )
        path = tmp_path / "alpha.tsv"
        formats.write_alpha(path, off)
        back = formats.read_alpha(path)
        assert back.alpha == off.alpha
        assert back.provenance == off.provenance

    def test_metrics_record_roundtrip(self, tmp_path):
        record = {"eer": 0.012345678901234567, "min_dcf": 0.5, "n_target": 40}
        path = tmp_path / "metrics.tsv"
        formats.write_metrics_record(path, record)
        back = formats.read_metrics_record(path)
        assert back["eer"] == record["eer"]
        assert back["min_dcf"] == record["min_dcf"]
        assert back["n_target"] == 40.0
