import dataclasses
import json
import math
import os
import struct
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from svbackend import cli, formats, textfloats
from svbackend.calibration import CalibrationModel
from svbackend.errors import (
    EmptySet,
    FormatError,
    NormOverflow,
    NormUnderflow,
    ValidationError,
    VersionUnsupported,
)
from svbackend.lid import GaussianBackend, adapt_english_mean, train_gb
from svbackend.planner import BatchManifest, PlannerConfig, UtteranceInventory, plan_pass_broad
from svbackend.prototypes import PrototypeMatrix, similarity_matrix
from svbackend.scores import ScoreSet
from svbackend.scoring import AlphaProvenance, Cohort, LanguageOffset
from svbackend.synth import CorpusSpec, generate_corpus
from svbackend.vecmath import ROW_BLOCK, Domain, Language

from conftest import (
    PROTOTYPE_DEFECTS,
    TINY_SYNTH,
    chain_argv,
    edit_prototype_row,
    make_embedding,
    make_protos,
    make_table,
    rows_of,
)
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


@pytest.fixture(scope="module")
def both(corpus):
    """One table of the corpus's training rows, then its eval rows."""
    return make_table(rows_of(corpus.train_embeddings) + rows_of(corpus.eval_embeddings))


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
        formats.write_embeddings_text(path, make_table(rows_of(corpus.train_embeddings)[:1]))
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

    def test_write_read_write_reproduces_bytes(self, both, tmp_path):
        p1, p2 = tmp_path / "a.tsv", tmp_path / "b.tsv"
        formats.write_embeddings_text(p1, both)
        formats.write_embeddings_text(p2, formats.read_embeddings_text(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_matches_per_row_reader(self, both, tmp_path, rng):
        path = tmp_path / "a.tsv"
        # extreme magnitudes and subnormals next to the synthetic rows
        odd = rng.normal(size=(3, both.dim)) * [[1e-310], [1e300], [1.0]]
        extra = [make_embedding(f"x{k}", "sx", v) for k, v in enumerate(odd)]
        table = make_table(rows_of(both) + extra)
        formats.write_embeddings_text(path, table)
        assert len(table) > 3 * ROW_BLOCK  # the reader converts the rows in four blocks
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
        first = make_table(rows_of(corpus.eval_embeddings)[:3])
        formats.write_embeddings_text(t, first)
        formats.write_embeddings_binary(b, first)
        assert formats.read_embeddings(t).utt_ids == formats.read_embeddings(b).utt_ids

    def test_truncation_detected(self, corpus, tmp_path):
        path = tmp_path / "a.sveb"
        formats.write_embeddings_binary(path, make_table(rows_of(corpus.eval_embeddings)[:3]))
        data = path.read_bytes()
        path.write_bytes(data[:-4])
        with pytest.raises(FormatError):
            formats.read_embeddings_binary(path)

    def test_write_read_write_reproduces_bytes(self, both, tmp_path):
        # the first write quantizes; every later write reproduces its bytes
        p1, p2, p3 = (tmp_path / f"{k}.sveb" for k in range(3))
        formats.write_embeddings_binary(p1, both)
        formats.write_embeddings_binary(p2, formats.read_embeddings_binary(p1))
        formats.write_embeddings_binary(p3, formats.read_embeddings(p2))
        assert p1.read_bytes() == p2.read_bytes() == p3.read_bytes()

    def test_matches_per_record_reader(self, both, tmp_path):
        path = tmp_path / "a.sveb"
        formats.write_embeddings_binary(path, both)
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


def fast_tokens(tokens: list[str]) -> np.ndarray:
    """Whether the text vector readers take each of ``tokens`` (none holds a
    comma) without ``float``: the fast tokens of :func:`textfloats.tokens`."""
    return textfloats.tokens(bytearray(",".join(["", *tokens, ""]), "utf-8", "surrogatepass")).fast


class TestEmbeddingIds:
    def test_match_read_embeddings_text_and_binary(self, corpus, tmp_path):
        for write, name in (
            (formats.write_embeddings_text, "e.tsv"),
            (formats.write_embeddings_binary, "e.sveb"),
        ):
            path = tmp_path / name
            write(path, corpus.train_embeddings)
            table = formats.read_embeddings(path)
            assert formats.read_embedding_ids(path) == (table.utt_ids, table.speaker_ids)

    def test_match_read_embeddings_on_rows_left_to_float(self, corpus, tmp_path):
        path = tmp_path / "e.tsv"
        formats.write_embeddings_text(path, corpus.train_embeddings)
        lines = path.read_text().splitlines(keepends=True)
        tokens = [" 0.5 ", "1_0", "1E-5", "1e+100", "+2.5", "9" * 20, "1.", ".5", "1e+300"]
        for k, token in enumerate(tokens, start=1):
            assert not fast_tokens([token])[0]
            head, vec = lines[k].rsplit("\t", 1)
            lines[k] = head + "\t" + ",".join([token] + vec.split(",")[1:])
        path.write_text("".join(lines))
        table = formats.read_embeddings(path)
        assert formats.read_embedding_ids(path) == (table.utt_ids, table.speaker_ids)
        assert table.vectors[len(tokens) - 1, 0] == float(tokens[-1])

    def test_empty_file(self, tmp_path):
        path = tmp_path / "e.tsv"
        path.write_text("#fmt:embeddings:1\n# only a comment\n\n")
        assert formats.read_embedding_ids(path) == ((), ())

    def test_builds_no_vector_buffer(self, tmp_path, rng):
        n, dim = 2000, 256
        vectors = rng.normal(size=(n, dim)) * rng.choice([1e-6, 1.0, 1e20], size=(n, 1))
        path = tmp_path / "e.tsv"
        formats.write_embeddings_text(
            path, make_table([make_embedding(f"u{k}", f"s{k % 50}", v) for k, v in enumerate(vectors)])
        )
        tracemalloc.start()
        try:
            ids = formats.read_embedding_ids(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(ids.utt_ids) == n
        assert peak < n * dim * 8 / 4  # a quarter of one (n, D) float64 array

    def test_binary_builds_no_float64_copy(self, tmp_path, rng):
        n, dim = 2000, 256
        path = tmp_path / "e.sveb"
        formats.write_embeddings_binary(
            path,
            make_table(
                make_embedding(f"u{k}", f"s{k % 50}", v)
                for k, v in enumerate(rng.normal(size=(n, dim)))
            ),
        )
        tracemalloc.start()
        try:
            ids = formats.read_embedding_ids(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        table = formats.read_embeddings(path)
        assert ids == (table.utt_ids, table.speaker_ids) and len(table) == n
        # the float32 payload is n * D * 4 bytes; a float64 copy would add n * D * 8
        assert peak < 0.75 * n * dim * 8


#: (speaker, Domain) of each row of the cohort fixture file.  Speaker m1's first
#: row is DEEPMINE and a later one VOX; m2 is the reverse.
COHORT_ROWS = [
    ("d1", Domain.DEEPMINE), ("v1", Domain.VOX), ("d1", Domain.DEEPMINE), ("l1", Domain.LIBRI),
    ("v1", Domain.VOX), ("d2", Domain.DEEPMINE), ("m1", Domain.DEEPMINE), ("m2", Domain.VOX),
    ("m1", Domain.VOX), ("m2", Domain.DEEPMINE), ("l1", Domain.LIBRI),
]  # fmt: skip
COHORT_DOMAINS = [[Domain.DEEPMINE], [Domain.VOX, Domain.LIBRI]]


def cohort_lines(rng, dim=256, copies=1):
    """The data lines of a text cohort file of ``copies`` times COHORT_ROWS,
    each split into its five fields."""
    rows = COHORT_ROWS * copies
    vectors = rng.normal(size=(len(rows), dim))
    return [
        [f"u{k}", spk, dom.value, "FARSI", ",".join(map(repr, vec.tolist()))]
        for k, ((spk, dom), vec) in enumerate(zip(rows, vectors))
    ]


def write_lines(path, lines):
    path.write_text("#fmt:embeddings:1\n" + "".join("\t".join(f) + "\n" for f in lines))


def set_values(fields, values):
    return fields[:4] + [",".join(values)]


def outcome(build):
    try:
        return build()
    except Exception as exc:  # the class and message are compared
        return type(exc), str(exc)


def same_cohort_outcome(path, domains):
    """read_cohort against Cohort.from_embeddings(read_embeddings(path)):
    ``==`` on every column, or the same exception class and message."""
    want = outcome(lambda: Cohort.from_embeddings(formats.read_embeddings(path), domains))
    got = outcome(lambda: formats.read_cohort(path, domains))
    if isinstance(want, tuple):
        assert got == want
    else:
        assert isinstance(got, Cohort), got
        assert got.speaker_ids == want.speaker_ids
        assert got.means.shape == want.means.shape and (got.means == want.means).all()
        assert (got.unit_rows == want.unit_rows).all()
    return want


def _value(token):
    return lambda f: set_values(f, [*f[4].split(",")[:3], token, *f[4].split(",")[4:]])


#: name -> (edit of one row's fields, whether the file still reads)
COHORT_DEFECTS = {
    "malformed": (_value("0.1x"), False),
    "nan": (_value("nan"), False),
    "overflow": (_value("1e400"), False),
    "huge-row": (_value("1e+200"), False),  # finite, but its norm is not
    "zero-row": (lambda f: set_values(f, ["0.0"] * 256), False),
    "tiny-row": (lambda f: set_values(f, ["1e-14"] * 256), False),
    "zero-first-value": (lambda f: set_values(f, ["0.0", *f[4].split(",")[1:]]), True),
    "empty-utt-id": (lambda f: ["", *f[1:]], False),
    "empty-speaker-id": (lambda f: [f[0], "", *f[2:]], False),
    "unknown-domain": (lambda f: [*f[:2], "SWITCHBOARD", *f[3:]], False),
    "unknown-language": (lambda f: [*f[:3], "KLINGON", f[4]], False),
    "field-count": (lambda f: [*f[:3], f[4]], False),
    "dimension": (lambda f: set_values(f, f[4].split(",")[1:]), False),
}


class TestReadCohort:
    """formats.read_cohort returns or raises what Cohort.from_embeddings
    returns or raises on the table of read_embeddings."""

    @pytest.mark.parametrize("domains", COHORT_DOMAINS)
    @pytest.mark.parametrize("row", [2, 4, 8, 9])  # d1, v1, m1's VOX row, m2's DEEPMINE row
    @pytest.mark.parametrize("defect", sorted(COHORT_DEFECTS))
    def test_one_defect(self, tmp_path, rng, defect, row, domains):
        edit, reads = COHORT_DEFECTS[defect]
        lines = cohort_lines(rng)
        lines[row] = edit(lines[row])
        path = tmp_path / "cohort.tsv"
        write_lines(path, lines)
        want = same_cohort_outcome(path, domains)
        assert isinstance(want, Cohort) == reads, want
        if defect == "tiny-row":
            assert want == (NormUnderflow, "vector norm 1.6e-13 <= 1e-12")
        if defect == "huge-row":
            assert want == (NormOverflow, "vector norm beyond the float64 range")

    @pytest.mark.parametrize("domains", COHORT_DOMAINS)
    def test_kept_rows_span_several_blocks(self, tmp_path, rng, domains):
        """Kept speakers' rows, with dropped speakers' rows between them, are
        converted ROW_BLOCK at a time; more than three blocks give the same
        cohort as the whole table."""
        lines = cohort_lines(rng, dim=32, copies=60)
        first = dict(reversed(COHORT_ROWS))  # speaker -> Domain of its first row
        kept = [f for f in lines if first[f[1]] in domains]
        assert 3 * ROW_BLOCK < len(kept) < len(lines)
        path = tmp_path / "cohort.tsv"
        write_lines(path, lines)
        assert isinstance(same_cohort_outcome(path, domains), Cohort)

    @pytest.mark.parametrize("domains", COHORT_DOMAINS + [None])
    def test_clean_file(self, tmp_path, rng, domains):
        path = tmp_path / "cohort.tsv"
        write_lines(path, cohort_lines(rng))
        cohort = same_cohort_outcome(path, domains)
        # m1 is kept whole with DEEPMINE, m2 with VOX
        expected = {
            None: ("d1", "v1", "l1", "d2", "m1", "m2"),
            Domain.DEEPMINE: ("d1", "d2", "m1"),
            Domain.VOX: ("v1", "l1", "m2"),
        }
        assert cohort.speaker_ids == expected[domains and domains[0]]
        if domains == [Domain.DEEPMINE]:
            table = formats.read_embeddings(path)
            m1 = make_table([rows_of(table)[r] for r in (6, 8)])
            assert (cohort.means[2] == Cohort.from_embeddings(m1).means[0]).all()

    @pytest.mark.parametrize(
        ("first", "second", "message"),
        [
            (("malformed", 4), ("field-count", 7), "malformed vector in embeddings row 'u4'"),
            (("field-count", 4), ("malformed", 7), "embeddings row needs 5 fields, got 4"),
            (("tiny-row", 4), ("zero-row", 2), "vector norm 0 <= 1e-12"),  # the smallest norm
            (("zero-row", 4), ("tiny-row", 2), "vector norm 0 <= 1e-12"),
            (("nan", 7), ("empty-utt-id", 1), "vector contains non-finite entries"),
            (("empty-utt-id", 1), ("unknown-language", 7), "unknown Language 'KLINGON'"),
            (("malformed", 3), ("field-count", 10), "malformed vector in embeddings row 'u3'"),
            (("malformed", 70), ("dimension", 76), "malformed vector in embeddings row 'u70'"),
            (("huge-row", 4), ("tiny-row", 2), "vector norm 1.6e-13 <= 1e-12"),
            (("tiny-row", 4), ("huge-row", 2), "vector norm 1.6e-13 <= 1e-12"),
            # one block, one defect in a kept row and one in a dropped row
            (("dimension", 2), ("malformed", 4), "mixed dimensions: embeddings row 'u2' has 255"),
            (("malformed", 2), ("dimension", 4), "malformed vector in embeddings row 'u2'"),
            (("malformed", 4), ("field-count", 5), "malformed vector in embeddings row 'u4'"),
            (("malformed", 4), ("dimension", 4), "mixed dimensions: embeddings row 'u4' has 255"),
        ],
    )
    def test_two_defects(self, tmp_path, rng, first, second, message):
        lines = cohort_lines(rng, copies=7)  # 77 rows: more than one block of ROW_BLOCK
        for defect, row in (first, second):
            lines[row] = COHORT_DEFECTS[defect][0](lines[row])
        path = tmp_path / "cohort.tsv"
        write_lines(path, lines)
        for domains in COHORT_DOMAINS:  # row 4 is dropped in one, kept in the other
            assert same_cohort_outcome(path, domains)[1].startswith(message)

    def test_keeps_few_rows_in_little_memory(self, tmp_path, rng):
        """A cohort of a tenth of the rows: the dropped rows' values are
        checked, not stored."""
        n, dim = 2000, 256
        rows = [
            make_embedding(f"u{k}", f"s{k % 50}", v, Domain.DEEPMINE if k % 50 < 5 else Domain.VOX)
            for k, v in enumerate(rng.normal(size=(n, dim)))
        ]
        path = tmp_path / "e.tsv"
        formats.write_embeddings_text(path, make_table(rows))
        tracemalloc.start()
        try:
            cohort = formats.read_cohort(path, [Domain.DEEPMINE])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cohort.speaker_ids == ("s0", "s1", "s2", "s3", "s4")
        assert peak < 0.75 * n * dim * 8  # no (n, D) float64 array

    def test_no_kept_speaker(self, tmp_path, rng):
        lines = [f for f in cohort_lines(rng) if f[2] != "DEEPMINE"]
        path = tmp_path / "cohort.tsv"
        write_lines(path, lines)
        want = same_cohort_outcome(path, [Domain.DEEPMINE])
        assert want == (EmptySet, "no cohort speakers left for domains DEEPMINE")
        assert same_cohort_outcome(path, []) == (EmptySet, "no cohort speakers left for domains ")

    @pytest.mark.parametrize("domains", COHORT_DOMAINS + [None])
    def test_binary_file(self, tmp_path, rng, domains):
        text, binary = tmp_path / "cohort.tsv", tmp_path / "cohort.sveb"
        write_lines(text, cohort_lines(rng))
        formats.write_embeddings_binary(binary, formats.read_embeddings(text))
        assert isinstance(same_cohort_outcome(binary, domains), Cohort)

    def test_binary_file_with_a_zero_row(self, tmp_path, rng):
        lines = cohort_lines(rng)
        lines[4] = COHORT_DEFECTS["zero-row"][0](lines[4])
        text, binary = tmp_path / "cohort.tsv", tmp_path / "cohort.sveb"
        write_lines(text, lines)
        formats.write_embeddings_binary(binary, formats.read_embeddings(text))
        assert same_cohort_outcome(binary, [Domain.DEEPMINE])[0] is NormUnderflow


@pytest.mark.parametrize("row", [0, 4])
@pytest.mark.parametrize("defect", sorted(COHORT_DEFECTS))
def test_embedding_ids_on_cohort_defects(tmp_path, rng, defect, row):
    """read_embedding_ids reads the ids of read_embeddings, or raises its error."""
    lines = cohort_lines(rng)
    lines[row] = COHORT_DEFECTS[defect][0](lines[row])
    path = tmp_path / "cohort.tsv"
    write_lines(path, lines)
    want = outcome(lambda: formats.read_embeddings(path))
    got = outcome(lambda: formats.read_embedding_ids(path))
    assert got == (want if isinstance(want, tuple) else (want.utt_ids, want.speaker_ids))


#: values the differential test draws besides float reprs
HOSTILE_VALUES = [
    "1e+200", "1e-400", "1e400", "9" * 400, "0" * 30 + "1", "1_0", "+1", ".5", "5.", "0x10",
    " 1", "١", "nan", "-inf", "infinity", "-", "", "1.2.3", "1e-14", "1e+99", "1e-05", "1E5", "-0",
]  # fmt: skip


def random_vector_lines(rng, dim=4):
    """The data lines of a random text embedding file, split into fields:
    mostly up to five rows, now and then more than two blocks of ROW_BLOCK;
    values are float reprs from 1e-15 to 1e25 in magnitude (in a few rows
    all below 1e-12) and, at a rate drawn per file, HOSTILE_VALUES; a row
    may hold one value too many or too few."""
    long = rng.random() < 0.1
    n = int(rng.integers(2 * ROW_BLOCK, 3 * ROW_BLOCK) if long else rng.integers(1, 6))
    hostile = rng.choice([0.0, 1 / (4 * n * dim), 0.05, 0.3])
    miscount = rng.choice([0.0, 1 / (2 * n)])
    speakers = np.sort(rng.integers(0, n // 4 + 2, size=n))  # runs of rows, kept or dropped
    domains = rng.choice([d.value for d in Domain], size=n // 4 + 2)
    lines = []
    for k, spk in enumerate(speakers.tolist()):
        count = dim + (int(rng.choice([-1, 1])) if rng.random() < miscount else 0)
        low, high = (-17, -12) if rng.random() < 0.05 else (-15, 26)  # a tiny row, now and then
        scale = 10.0 ** rng.integers(low, high, size=count)
        values = [repr(v) for v in (rng.normal(size=count) * scale).tolist()]
        for j in np.flatnonzero(rng.random(count) < hostile).tolist():
            values[j] = str(rng.choice(HOSTILE_VALUES))
        lines.append([f"u{k}", f"s{spk}", domains[spk], "FARSI", ",".join(values)])
    return lines


@pytest.mark.parametrize(("seed", "dim"), [(0, 4), (1, 4), (2, 4), (3, 4), (4, 1200)])
def test_readers_match_the_full_reader(tmp_path, seed, dim):
    """read_embedding_ids and read_cohort against read_embeddings on random
    files with hostile values: the same value, or the same error.  Rows of
    1,200 values fill a block of unpicked rows in a few rows."""
    rng = np.random.default_rng(seed)
    path = tmp_path / "e.tsv"
    for _ in range(60 if dim < 100 else 12):
        write_lines(path, random_vector_lines(rng, dim))
        want = outcome(lambda: formats.read_embeddings(path))
        got = outcome(lambda: formats.read_embedding_ids(path))
        assert got == (want if isinstance(want, tuple) else (want.utt_ids, want.speaker_ids))
        for domains in ([Domain.DEEPMINE], [Domain.VOX]):
            same_cohort_outcome(path, domains)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.parametrize(
    "read",
    [
        "formats.read_embeddings(path)",
        "formats.read_embedding_ids(path)",
        "formats.read_cohort(path)",
        "formats.read_cohort(path, [Domain.DEEPMINE])",
        "formats.read_embeddings_text(path)",
        "formats.read_prototypes(path)",
    ],
)
def test_embedding_pipe_is_refused_unopened(tmp_path, read):
    """A named pipe is refused before it is opened: a reader that opened it
    would wait for a writer, and one that opened it twice would wait on
    its second open for a writer that is gone.  Run in a subprocess, so a
    reader that waits fails the test by its timeout instead of hanging it."""
    pipe = tmp_path / "pipe.tsv"
    os.mkfifo(pipe)
    code = (
        "import sys\n"
        "from svbackend import formats\n"
        "from svbackend.errors import FormatError\n"
        "from svbackend.vecmath import Domain\n"
        "path = sys.argv[1]\n"
        "try:\n"
        f"    {read}\n"
        "except FormatError as exc:\n"
        "    print(exc)\n"
    )
    src = os.path.dirname(os.path.dirname(formats.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", code, str(pipe)],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == f"{pipe} is not a regular file\n"


class TestFiniteShapeRule:
    """The token shape that the text vector readers take without ``float``:
    the fast tokens of :func:`textfloats.tokens`, finite and within the
    bound that keeps a row's norm finite.  Every other token of an
    unpicked row goes through ``float``."""

    def test_every_float64_repr_below_1e100_is_accepted(self, rng):
        """Each ``repr`` below 1e100 is a fast token or, through ``float``,
        within ``_NORM_SAFE``: a row of them stays unconverted unless its
        first value is tiny.  Larger ones are slow and beyond the bound."""
        n = 20_000
        random_bits = np.frombuffer(rng.bytes(8 * n), dtype=np.float64)
        subnormal = rng.integers(1, 1 << 52, size=n).view(np.float64)
        large = 10.0 ** rng.uniform(16, 100, size=n)
        values = np.concatenate([random_bits, subnormal, -subnormal, large, -large]).tolist()
        values += [0.0, -0.0, 5e-324, -5e-324, 1e16, 9999999999999998.0, 9.999999999999999e99]
        values += [2.2250738585072014e-308, 1e-5, 0.1, 123456789.123]
        fast = fast_tokens([repr(v) for v in values])
        magnitude = np.abs(values)
        assert fast.any() and (magnitude[fast] <= 1e19).all()
        accepted = fast | (magnitude <= formats._NORM_SAFE)
        below = magnitude < 1e100
        assert below.sum() > 4 * n and accepted[below].all()
        assert (~below).sum() > n / 4 and not accepted[~below].any()

    def test_accepted_tokens_are_finite_floats(self):
        ints = ["0", "9", "-9", "9" * 16, "9" * 17, "-" + "9" * 17, "9" * 18, "9" * 19, "9" * 20]
        fracs = ["", ".0", ".9", "." + "9" * 18, "." + "9" * 19, "." + "9" * 40]
        exps = ["", "e+0", "e-0", "e+99"]
        tokens = [i + f + e for i in ints for f in fracs for e in exps]
        accepted = [t for t, fast in zip(tokens, fast_tokens(tokens)) if fast]
        # no exponent, and at most 19 digits less the 0 of 0.xxx
        digits = {t: sum(c.isdigit() for c in t) - t.startswith("0.") for t in tokens}
        assert accepted == [t for t in tokens if "e" not in t and digits[t] <= 19]
        for token in accepted:
            value = float(token)
            assert math.isfinite(value) and abs(value) <= 1e19 <= formats._NORM_SAFE, token
        assert not fast_tokens(["9" * 20, "1e+100"]).any()

    @pytest.mark.parametrize(
        "token",
        ["nan", "-nan", "inf", "-inf", "1e400", " 1", "1 ", "1_0", "\x1c1", "1.", ".5", "1e",
         "--1", "+1", "1E5", "1e5", "", "-", "0x1", "١"],
    )
    def test_hostile_tokens_are_left_to_float(self, token):
        assert not fast_tokens([token])[0]


class TestPrototypes:
    def test_roundtrip_exact(self, corpus, tmp_path):
        path = tmp_path / "p.tsv"
        formats.write_prototypes(path, corpus.prototypes)
        back = formats.read_prototypes(path)
        for column in ("speaker_ids", "domains", "languages"):
            assert getattr(back, column) == getattr(corpus.prototypes, column)
        assert np.array_equal(back.vectors, corpus.prototypes.vectors)

    def test_builds_no_d_by_n_copy(self, tmp_path, rng):
        n, dim = 800, 256
        path = tmp_path / "p.tsv"
        formats.write_prototypes(path, make_protos(rng.normal(size=(dim, n))))
        tracemalloc.start()
        try:
            protos = formats.read_prototypes(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert protos.count == n
        # the parsed values and the unit rows are n * D * 8 bytes each (2.2x
        # with the row fields); each D x N copy would add as much again
        assert peak < 3 * n * dim * 8

    #: what read_prototypes raises on each PROTOTYPE_DEFECTS edit of row 3 ('vox003')
    OUTCOMES = {
        "malformed": (FormatError, "malformed vector in prototypes row 'vox003'"),
        "nan": (ValidationError, "vector contains non-finite entries"),
        "-inf": (ValidationError, "vector contains non-finite entries"),
        "mixed-dimensions": (
            FormatError,
            "mixed dimensions: prototypes row 'vox003' has 15 values, earlier rows 16",
        ),
        "field-count": (FormatError, "prototypes row needs 4 fields, got 3"),
        "unknown-domain": (FormatError, "unknown Domain 'MARS' in prototypes"),
        "unknown-language": (FormatError, "unknown Language 'KLINGON' in prototypes"),
        "zero-row": (NormUnderflow, "vector norm 0 <= 1e-12"),
    }

    @pytest.mark.parametrize("defect", sorted(PROTOTYPE_DEFECTS))
    def test_hostile_row(self, corpus, tmp_path, defect):
        path = tmp_path / "p.tsv"
        formats.write_prototypes(path, corpus.prototypes)
        path.write_text(edit_prototype_row(path.read_text(), 3, defect))
        assert outcome(lambda: formats.read_prototypes(path)) == self.OUTCOMES[defect]

    @pytest.mark.parametrize(
        ("edits", "message"),
        [
            ((("malformed", 3), ("field-count", 10)), "malformed vector in prototypes row 'spk003'"),
            ((("field-count", 3), ("malformed", 10)), "prototypes row needs 4 fields, got 3"),
            ((("malformed", 70), ("field-count", 90)), "malformed vector in prototypes row 'spk070'"),
            ((("malformed", 63), ("mixed-dimensions", 64)), "malformed vector in prototypes row 'spk063'"),
            ((("malformed", 20), ("mixed-dimensions", 20)), "mixed dimensions: prototypes row 'spk020'"),
            ((("malformed", 20), ("mixed-dimensions", 21)), "malformed vector in prototypes row 'spk020'"),
            ((("mixed-dimensions", 64), ("malformed", 70)), "mixed dimensions: prototypes row 'spk064'"),
            ((("malformed", 10), ("malformed", 70)), "malformed vector in prototypes row 'spk010'"),
        ],
    )
    def test_first_defect_wins_across_blocks(self, tmp_path, rng, edits, message):
        """Rows are converted ROW_BLOCK (64) at a time; an error names the
        first defective row, in either block."""
        path = tmp_path / "p.tsv"
        formats.write_prototypes(path, make_protos(rng.normal(size=(16, 100))))
        text = path.read_text()
        for defect, row in edits:
            text = edit_prototype_row(text, row, defect)
        path.write_text(text)
        got = outcome(lambda: formats.read_prototypes(path))
        assert got[0] is FormatError and got[1].startswith(message)

    def test_no_rows(self, tmp_path):
        path = tmp_path / "p.tsv"
        path.write_text("#fmt:prototypes:1\n# only a comment\n\n")
        assert outcome(lambda: formats.read_prototypes(path)) == (
            FormatError,
            "prototype file holds no rows",
        )


class TestTrialsEnrollScores:
    def test_trials_roundtrip_with_labels(self, corpus, tmp_path):
        path = tmp_path / "trials.tsv"
        formats.write_trials(path, corpus.trials, corpus.labels)
        trials, labels = formats.read_trials(path)
        assert list(trials) == list(corpus.trials)
        assert labels.dtype == bool and not labels.flags.writeable
        assert labels.tolist() == corpus.labels.tolist()
        # the storage rule of ScoreSet keeps the array as read
        assert ScoreSet(trials, np.zeros(len(trials)), labels).labels is labels

    def test_trials_labels_must_align(self, corpus, tmp_path):
        path = tmp_path / "trials.tsv"
        with pytest.raises(FormatError, match="1 labels for 2 trials"):
            formats.write_trials(path, corpus.trials[:2], corpus.labels[:1])
        assert not path.exists()

    def test_trials_roundtrip_without_labels(self, corpus, tmp_path):
        path = tmp_path / "trials.tsv"
        formats.write_trials(path, corpus.trials)
        trials, labels = formats.read_trials(path)
        assert list(trials) == list(corpus.trials)
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

    def test_enroll_repeated_row_rejected(self, tmp_path):
        path = tmp_path / "enroll.tsv"
        path.write_text("#fmt:enroll:1\nm1\tu1\nm2\tu1\nm1\tu2\nm1\tu1\n")
        with pytest.raises(FormatError, match="duplicate enrollment of 'u1' for model 'm1'"):
            formats.read_enroll_map(path)

    def test_enroll_writer_refuses_a_repeated_utterance(self, tmp_path):
        path = tmp_path / "enroll.tsv"
        with pytest.raises(FormatError, match="duplicate enrollment of 'u2' for model 'm2'"):
            formats.write_enroll_map(path, {"m1": ("u2",), "m2": ("u1", "u2", "u2")})
        assert not path.exists()

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

    @pytest.mark.parametrize("llr", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_llr_refused_before_writing(self, tmp_path, llr):
        # read_lid_decisions refuses it: no file and no directory is made
        path = tmp_path / "new" / "lid.tsv"
        with pytest.raises(FormatError, match="non-finite llr for 'u1'"):
            formats.write_lid_decisions(path, {"u0": (Language.ENGLISH, 0.5), "u1": (Language.FARSI, llr)})
        assert not path.parent.exists()


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
        inventory = UtteranceInventory.from_embeddings(corpus.train_embeddings, corpus.prototypes)
        manifests = [plan_pass_broad(cfg, sim, inventory, pass_id=k) for k in range(3)]
        path = tmp_path / "manifest.tsv"
        formats.write_manifests(path, manifests)
        back = formats.read_manifests(path)
        assert back == manifests
        assert all(m.epoch_tag == 4 for m in back)

    def test_bad_id_in_a_later_pass_writes_nothing(self, tmp_path):
        good = BatchManifest(batches=((("u1", 0), ("u2", 1)),), pass_id=0, epoch_tag=3)
        bad = BatchManifest(batches=((("u1", 0), ("u2 x", 1)),), pass_id=1, epoch_tag=3)
        path = tmp_path / "new" / "manifest.tsv"
        with pytest.raises(FormatError, match="u2 x"):
            formats.write_manifests(path, [good, bad])
        assert not path.parent.exists()
        formats.write_manifests(path, [good])
        before = path.read_bytes()
        with pytest.raises(FormatError):
            formats.write_manifests(path, [good, bad])
        assert path.read_bytes() == before

    def test_non_utf8_byte(self, tmp_path):
        path = tmp_path / "manifest.tsv"
        path.write_bytes(b"#fmt:manifest:1\n#pass\t0\t3\n0\t0\t0\tu\xff1\t0\n")
        with pytest.raises(FormatError, match="not valid UTF-8"):
            formats.read_manifests(path)


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
            (a, b),
            (Domain.VOX, Domain.DEEPMINE),
            (Language.ENGLISH, Language.FARSI),
            np.array([[1.0, 0.0], [0.5, 1.0]]),
        ),
        formats.write_prototypes,
        formats.read_prototypes,
    ),
    "trials": (
        lambda a, b: ([(b, a), (b, "u2")], np.array([True, False])),
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
        # a leading '#' would read back as a comment row and vanish; a refused
        # id leaves no file, no new directory, and an existing file as it was
        make, write, _ = ID_FORMATS[fmt]
        existing = tmp_path / "old.tsv"
        write(existing, make("u1", "m1"))
        before = existing.read_bytes()
        for bad in ("#u1", "#", "", "u 1", "u\t1", "u\xa01", "u\u20281"):
            for a, b in ((bad, "m1"), ("u1", bad)):
                try:
                    payload = make(a, b)
                except ValidationError:  # EmbeddingTable refuses empty ids itself
                    continue
                fresh = tmp_path / "new" / "bad.tsv"
                for path in (fresh, existing):
                    with pytest.raises(FormatError):
                        write(path, payload)
                assert not fresh.parent.exists()
                assert existing.read_bytes() == before


#: name -> (writer, payload, the exact file text the writer produces)
LITERAL_FORMATS = {
    "embeddings": (
        formats.write_embeddings_text,
        make_table(
            [
                make_embedding("u1", "s1", [0.1, -2.0], Domain.DEEPMINE, Language.FARSI),
                make_embedding("u2", "s2", [1e-310, 3e20]),
            ]
        ),
        "#fmt:embeddings:1\n"
        "u1\ts1\tDEEPMINE\tFARSI\t0.1,-2.0\n"
        "u2\ts2\tVOX\tUNKNOWN\t1e-310,3e+20\n",
    ),
    "prototypes": (
        formats.write_prototypes,
        PrototypeMatrix(
            ("s1", "s2"),
            (Domain.VOX, Domain.LIBRI),
            (Language.ENGLISH, Language.UNKNOWN),
            np.array([[0.5, -0.25], [1.0, 1e-7]]),
        ),
        "#fmt:prototypes:1\ns1\tVOX\tENGLISH\t0.5,-0.25\ns2\tLIBRI\tUNKNOWN\t1.0,1e-07\n",
    ),
    "trials": (
        formats.write_trials,
        [("m1", "u1"), ("m1", "u2")],
        "#fmt:trials:1\nm1\tu1\nm1\tu2\n",
    ),
    "trials-labeled": (
        lambda path, payload: formats.write_trials(path, *payload),
        ([("m1", "u1"), ("m1", "u2")], np.array([True, False])),
        "#fmt:trials:1\nm1\tu1\ttarget\nm1\tu2\tnontarget\n",
    ),
    "enroll": (
        formats.write_enroll_map,
        {"m1": ("u1", "u2"), "m2": ("u3",)},
        "#fmt:enroll:1\nm1\tu1\nm1\tu2\nm2\tu3\n",
    ),
    "lid": (
        formats.write_lid_decisions,
        {"u1": (Language.FARSI, -1.5), "u2": (Language.ENGLISH, 0.1)},
        "#fmt:lid:1\nu1\tFARSI\t-1.5\nu2\tENGLISH\t0.1\n",
    ),
    "scores": (
        formats.write_scores,
        ScoreSet((("m1", "u1"), ("m1", "u2")), [0.1, -3.0]),
        "#fmt:scores:1\nm1\tu1\t0.1\nm1\tu2\t-3.0\n",
    ),
    "scores-labeled": (
        formats.write_scores,
        ScoreSet((("m1", "u1"), ("m1", "u2")), [0.1, -3.0], [True, False]),
        "#fmt:scores:1\nm1\tu1\t0.1\ttarget\nm1\tu2\t-3.0\tnontarget\n",
    ),
    "manifest": (
        formats.write_manifests,
        [
            BatchManifest(batches=((("u1", 0), ("u2", 1)), (("u3", 1),)), pass_id=0, epoch_tag=3),
            BatchManifest(batches=((("u2", 1),),), pass_id=1, epoch_tag=3),
        ],
        "#fmt:manifest:1\n"
        "#pass\t0\t3\n0\t0\t0\tu1\t0\n0\t0\t1\tu2\t1\n0\t1\t0\tu3\t1\n"
        "#pass\t1\t3\n1\t0\t0\tu2\t1\n",
    ),
    "gb-model": (
        formats.write_gb_model,
        GaussianBackend(
            mu_farsi=np.array([1.0, 0.0]),
            mu_usa=np.array([0.0, 2.0]),
            mu_english_effective=np.array([0.5, 1.0]),
            shared_cov=np.array([[2.0, 0.5], [0.5, 1.0]]),
            interpolation_weight=0.5,
        ),
        '#fmt:gb-model:1\n{"diagonal": false, "dim": 2, "interpolation_weight": 0.5,'
        ' "mu_english_effective": [0.5, 1.0], "mu_farsi": [1.0, 0.0], "mu_usa": [0.0, 2.0],'
        ' "shared_cov": [[2.0, 0.5], [0.5, 1.0]]}\n',
    ),
    "cal-model": (
        formats.write_cal_model,
        CalibrationModel(a=1.5, b=-0.1, trained_on="scores.tsv"),
        "#fmt:cal-model:1\na\t1.5\nb\t-0.1\ntrained_on\tscores.tsv\n",
    ),
    "alpha": (
        formats.write_alpha,
        LanguageOffset(
            alpha=0.1,
            provenance=AlphaProvenance(
                top_n=8, n_farsi=3, n_usa=2, mu_imposter_farsi=0.4, mu_imposter_usa=0.3
            ),
        ),
        "#fmt:alpha:1\nalpha\t0.1\ntop_n\t8\nn_farsi\t3\nn_usa\t2\n"
        "mu_imposter_farsi\t0.4\nmu_imposter_usa\t0.3\n",
    ),
    "metrics": (
        formats.write_metrics_record,
        {"eer": 0.25, "n_target": 4},
        "#fmt:metrics:1\neer\t0.25\nn_target\t4\n",
    ),
}


@pytest.mark.parametrize("fmt", list(LITERAL_FORMATS))
def test_writer_bytes_are_pinned(fmt, tmp_path):
    write, payload, text = LITERAL_FORMATS[fmt]
    path = tmp_path / "out"
    write(path, payload)
    assert path.read_bytes() == text.encode("utf-8")


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

    @staticmethod
    def backend(dim, diagonal):
        rng = np.random.default_rng(dim)
        a = rng.normal(size=(dim, dim))
        cov = np.diag(rng.uniform(0.5, 2.0, dim)) if diagonal else a @ a.T + np.eye(dim)
        mu_fa, mu_us, w = rng.normal(size=dim), rng.normal(size=dim), 0.75
        return GaussianBackend(mu_fa, mu_us, w * mu_us + (1 - w) * mu_fa, cov, w, diagonal)

    @pytest.mark.parametrize("diagonal", [False, True])
    @pytest.mark.parametrize("dim", [0, 1, 2, 3, 256])
    def test_gb_bytes_are_json_dump_indent_1(self, tmp_path, dim, diagonal):
        gb = self.backend(dim, diagonal)
        body = {
            "dim": gb.dim,
            "interpolation_weight": gb.interpolation_weight,
            "diagonal": gb.diagonal,
            "mu_farsi": gb.mu_farsi.tolist(),
            "mu_usa": gb.mu_usa.tolist(),
            "mu_english_effective": gb.mu_english_effective.tolist(),
            "shared_cov": gb.shared_cov.tolist(),
        }
        path = tmp_path / "gb.json"
        formats.write_gb_model(path, gb)
        want = "#fmt:gb-model:1\n" + json.dumps(body, sort_keys=True) + "\n"
        assert path.read_text(encoding="utf-8") == want

    def test_gb_writer_streams_rows(self, tmp_path):
        gb = self.backend(256, False)
        tracemalloc.start()
        try:
            formats.write_gb_model(tmp_path / "gb.json", gb)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5e6  # the covariance alone is 0.5 MB of float64

    def test_cal_model_roundtrip(self, tmp_path):
        model = CalibrationModel(a=3.0000000000000004, b=-0.1, trained_on="dev")
        path = tmp_path / "cal.tsv"
        formats.write_cal_model(path, model)
        back = formats.read_cal_model(path)
        assert back.a == model.a and back.b == model.b and back.trained_on == "dev"

    def test_alpha_roundtrip(self, tmp_path):
        mu_fa, mu_usa = 0.4234567890123456, 0.3  # alpha is their difference, as written
        off = LanguageOffset(
            alpha=mu_fa - mu_usa,
            provenance=AlphaProvenance(
                top_n=10, n_farsi=25, n_usa=12, mu_imposter_farsi=mu_fa, mu_imposter_usa=mu_usa
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


@pytest.fixture(scope="module")
def tiny_chain(tmp_path_factory):
    """The corpus and every artifact of the tiny CLI chain, in ``corpus/`` and ``work/``."""
    base = tmp_path_factory.mktemp("chain")
    assert cli.main(["synth", "--out-dir", str(base / "corpus"), *TINY_SYNTH]) == 0
    for argv in chain_argv(base / "corpus", base / "work").values():
        assert cli.main(argv) == 0
    return base


def state(x):
    """What a reader returned, as a comparable value: dataclass fields and
    containers item by item, floats and arrays by their bits."""
    if isinstance(x, np.ndarray):
        return x.dtype.str, x.shape, x.tobytes()
    if isinstance(x, float):
        return x.hex()
    if dataclasses.is_dataclass(x):
        return type(x).__name__, [state(getattr(x, f.name)) for f in dataclasses.fields(x)]
    if isinstance(x, dict):
        return [(k, state(v)) for k, v in x.items()]
    if isinstance(x, (list, tuple)):
        return [state(v) for v in x]
    return x


#: a text file of the tiny chain -> the readers of its format
LINE_END_READERS = {
    "corpus/train_embeddings.tsv": [
        formats.read_embeddings,
        formats.read_embeddings_text,
        formats.read_embedding_ids,
        lambda path: formats.read_cohort(path, [Domain.DEEPMINE]),
    ],
    "corpus/prototypes.tsv": [formats.read_prototypes],
    "corpus/enroll.tsv": [formats.read_enroll_map],
    "work/lid.tsv": [formats.read_lid_decisions],
    "work/alpha.tsv": [formats.read_alpha],
    "work/cal.tsv": [formats.read_cal_model],
    "work/metrics.tsv": [formats.read_metrics_record],
    "work/manifest.tsv": [formats.read_manifests],
    "work/gb.json": [formats.read_gb_model],
}


@pytest.mark.parametrize("line_end", [b"\r\n", b"\r"], ids=["crlf", "cr"])
@pytest.mark.parametrize("name", sorted(LINE_END_READERS))
def test_other_line_ends_read_the_same(tiny_chain, tmp_path, name, line_end):
    """Every reader returns for a file with \\r\\n or lone \\r line ends what
    it returns for the file the chain wrote."""
    path = tiny_chain / name
    data = path.read_bytes()
    assert data.count(b"\n") > 1 and b"\r" not in data
    other = tmp_path / path.name
    other.write_bytes(data.replace(b"\n", line_end))
    for read in LINE_END_READERS[name]:
        assert state(read(other)) == state(read(path))
