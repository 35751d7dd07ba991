"""textfloats.convert against ``float``: the same bits for every token, or an
error at the first token ``float`` rejects; and textfloats.slots, and the
text vector writer built on it, against ``repr``: the same bytes for every
value."""

import math
import os
import tracemalloc
from decimal import Decimal

import numpy as np
import pytest

import oracles

from svbackend import formats, textfloats
from svbackend.prototypes import PrototypeMatrix
from svbackend.synth import CorpusSpec, generate_corpus
from svbackend.vecmath import ROW_BLOCK, Domain, EmbeddingTable, Language

# a numpy overflow or invalid-value warning, or a deprecated call, fails the test
pytestmark = pytest.mark.filterwarnings("error")


def parse(tokens, per_field=256):
    """The tokens through ``textfloats.convert``, ``per_field`` to a field."""
    fields = [",".join(tokens[k : k + per_field]) for k in range(0, len(tokens), per_field)]
    # a comma before each token and after the last
    raw = bytearray(",".join(["", *fields, ""]), "utf-8", "surrogatepass")
    return textfloats.convert(raw, textfloats.tokens(raw), np.empty(len(tokens)))


def assert_same_as_float(tokens):
    want = np.array([float(t) for t in tokens])
    got = parse(tokens)
    bad = np.flatnonzero(got.view(np.uint64) != want.view(np.uint64))
    assert not len(bad), [(tokens[k], got[k], want[k]) for k in bad[:5]]


def fixed(value: Decimal) -> str:
    """The exact decimal ``value`` in positional notation."""
    return format(value, "f")


def test_synth_corpus_values(tmp_path):
    corpus = generate_corpus(CorpusSpec(dim=256, seed=5))
    formats.write_prototypes(tmp_path / "p.tsv", corpus.prototypes)
    formats.write_embeddings_text(tmp_path / "e.tsv", corpus.train_embeddings)
    formats.write_embeddings_text(tmp_path / "v.tsv", corpus.eval_embeddings)
    for name in ("p.tsv", "e.tsv", "v.tsv"):
        lines = (tmp_path / name).read_text().splitlines()[1:]
        tokens = ",".join(line.rpartition("\t")[2] for line in lines).split(",")
        assert len(tokens) > 20_000
        assert_same_as_float(tokens)


@pytest.mark.parametrize("sigma", [1e-6, 1e-4, 1e-2, 1.0, 1e2, 1e4, 1e6])
def test_normal_reprs(sigma):
    values = np.random.default_rng(7).normal(0.0, sigma, size=150_000)  # 1.05M in all
    assert_same_as_float(list(map(repr, values.tolist())))


def test_random_decimals_of_1_to_19_digits():
    rng = np.random.default_rng(11)
    tokens = []
    for digits in range(1, 20):
        for m in rng.integers(0, 10 ** min(digits, 18), size=4000).tolist():
            text = str(m).zfill(digits)
            cut = int(rng.integers(1, digits + 1))  # digits before the point
            sign = "-" if rng.random() < 0.5 else ""
            tokens.append(sign + text[:cut] + ("." + text[cut:] if cut < digits else ""))
    assert_same_as_float(tokens)


def test_mantissas_from_2_53_to_10_19():
    rng = np.random.default_rng(13)
    tokens = []
    for m in rng.integers(1 << 53, 10**19, size=60_000, dtype=np.uint64).tolist():
        frac = int(rng.integers(0, 23))
        tokens.append(fixed(Decimal(m).scaleb(-frac)) if frac else str(m))
    tokens += [str(1 << 53), str((1 << 53) + 1), str(10**19 - 1), "9999999999999999999.0"]
    assert_same_as_float(tokens)


def test_midpoints_round_half_even():
    """Exact midpoints between adjacent float64 values, which ``float``
    rounds to the even neighbour; every one is above 2**53 as an integer."""
    rng = np.random.default_rng(17)
    tokens = []
    for exponent in range(50, 63):
        for x in rng.integers(1 << 52, 1 << 53, size=500).tolist():
            low = math.ldexp(x, exponent - 52)
            mid = (Decimal(low) + Decimal(math.ulp(low)) / 2).normalize()
            text = fixed(mid)
            if len(text.replace(".", "")) <= 19:
                tokens += [text, "-" + text]
    assert len(tokens) > 5000
    assert_same_as_float(tokens)


#: tokens of every shape the vectorized path leaves to ``float``
FALLBACK = [
    "1e5", "1E5", "-1.5e-07", "2.5e+300", "1e400", "-1e-400",  # exponents
    "1234567890123456789012", "0.12345678901234567890123",  # more than 19 digits
    "0.00012345678901234567", "-12345678901234567890.5",
    "9007199254740992.0", "4503599627370496.00", "0.50000000000000000",  # powers of two
    "nan", "-nan", "inf", "-inf", "Infinity", "NaN",
    " 1", "1 ", "\t1", "1\r", "\u20071", "1\u3000",  # whitespace
    "+1", "+0.5", "1_0", "1_000.5", "1.", ".5", "-.5",
    "\u0661", "\u0663.\u0665", "\u06f1\u06f2", "1\u0660",  # non-ASCII digits
]  # fmt: skip

#: zeros and non-canonical shapes that the vectorized path takes
ZEROS_AND_PADDING = ["-0", "-0.0", "0.0", "0", "00", "-000.000", "007.50", "-0012.3400"]

#: tokens ``float`` rejects
MALFORMED = ["", "-", ".", "-.", "1.2.3", "--1", "1-", "1-2", "0x1", "1e", "e5", "\x00", "\ud800",
             "ab", "1..2", "- 1", "1__0", "_1"]  # fmt: skip


def test_fallback_shapes_zeros_and_padding():
    assert_same_as_float(FALLBACK + ZEROS_AND_PADDING)
    assert parse(["-0.0", "0.0"]).view(np.uint64).tolist() == [1 << 63, 0]


@pytest.mark.parametrize("token", MALFORMED)
@pytest.mark.parametrize("at", [0, 7, 300])
def test_first_malformed_token_is_named(token, at):
    rng = np.random.default_rng(19)
    tokens = [repr(v) for v in rng.normal(size=400).tolist()]
    tokens[at] = token
    tokens[350] = "0.1x"  # a later malformed token does not win
    with pytest.raises(ValueError):
        float(token)
    with pytest.raises(textfloats.MalformedToken) as err:
        parse(tokens)
    assert err.value.index == at


def test_certificate_refuses_ties_and_powers_of_two():
    """A corrected quotient is certified only strictly within half an ulp
    and away from a power of two; the rest goes to ``float``."""
    m = np.array([(1 << 53) + 1, 90071992547409920, 12345678901234567, (1 << 53) + 2], np.uint64)
    scale = np.array([1.0, 10.0, 1e17, 1.0])
    q, certified = textfloats._corrected(m, m / scale, scale)
    assert certified.tolist() == [False, False, True, True]  # a tie, 2**53, then two others
    assert q.tolist() == [float(1 << 53), float(1 << 53), 0.12345678901234567, float((1 << 53) + 2)]


# -- slots and the writer against repr -----------------------------------------


def repr_rows(block):
    return [",".join(map(repr, row)) for row in block.tolist()]


def slot_rows(block):
    """Each row of the (rows, D) ``block`` from one ``textfloats.slots`` call,
    compacted here: its values' kept bytes joined by commas."""
    rows, dim = block.shape
    out, keep = textfloats.slots(block.ravel())
    texts = out[keep].tobytes().decode("ascii").split(",")  # each value ends in a comma
    return [",".join(texts[r * dim : (r + 1) * dim]) for r in range(rows)]


def assert_same_as_repr(values, dim=256):
    """The values through :func:`slot_rows`, ``dim`` to a row and
    ``ROW_BLOCK`` rows to a block (the last row may be shorter, in a block of
    its own), against the ``repr`` joins."""
    values = np.asarray(values, np.float64).ravel()
    cut = len(values) - len(values) % dim
    rows = values[:cut].reshape(-1, dim)
    blocks = [rows[s : s + ROW_BLOCK] for s in range(0, len(rows), ROW_BLOCK)]
    blocks.append(values[cut:].reshape(1, -1))
    for block in blocks:
        got, want = slot_rows(block), repr_rows(block)
        if got != want:
            pairs = zip(",".join(got).split(","), ",".join(want).split(","))
            assert got == want, [(g, w) for g, w in pairs if g != w][:5]


def assert_writes_the_oracles_bytes(tmp_path, table):
    """The text writer of ``table`` (an embedding or prototype table) writes
    the bytes of the per-row ``repr`` oracle."""
    if isinstance(table, PrototypeMatrix):
        fmt, write, ids = "prototypes", formats.write_prototypes, [("speaker_id", table.speaker_ids)]
    else:
        fmt, write = "embeddings", formats.write_embeddings_text
        ids = [("utt_id", table.utt_ids), ("speaker_id", table.speaker_ids)]
    want, got = tmp_path / "want.tsv", tmp_path / "got.tsv"
    oracles.write_vector_rows(want, fmt, ids, table)
    write(got, table)
    assert got.read_bytes() == want.read_bytes()


def embedding_table(vectors, ids=None):
    """An embedding table of the rows of ``vectors``, every Domain and
    Language in turn."""
    vectors = np.asarray(vectors, np.float64)
    n = len(vectors)
    ids = [f"u{k}" for k in range(n)] if ids is None else ids
    domains = [list(Domain)[k % 3] for k in range(n)]
    languages = [list(Language)[k % 4] for k in range(n)]
    return EmbeddingTable(ids, ids[::-1], domains, languages, vectors)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_format_synth_vectors(seed, tmp_path):
    corpus = generate_corpus(CorpusSpec(dim=256, seed=seed))
    for table in (corpus.train_embeddings, corpus.eval_embeddings, corpus.prototypes):
        assert table.vectors.size > 20_000
        assert_writes_the_oracles_bytes(tmp_path, table)


@pytest.mark.parametrize("sigma", [1e-6, 1e-4, 1e-2, 1.0, 1e2, 1e4, 1e6])
def test_format_normal_values(sigma):
    assert_same_as_repr(np.random.default_rng(23).normal(0.0, sigma, size=60_000))


def test_format_neighbours_of_short_decimals():
    """The values 1-3 ulps from random decimals of 12-16 digits in [1e-4, 1):
    the shortest digits of each sit at an edge of its round-trip interval."""
    rng = np.random.default_rng(29)
    digits = rng.integers(12, 17, size=40_000)
    exponent = rng.integers(-4, 0, size=len(digits))  # of the leading digit
    mantissa = rng.integers(10 ** (digits - 1), 10**digits)
    sign = rng.choice(["", "-"], size=len(digits))
    x = np.array(
        [float(f"{s}{m}e{e - d + 1}") for s, m, e, d in zip(sign, mantissa, exponent, digits)]
    )
    values = [x]
    for toward in (np.inf, -np.inf):
        y = x
        for _ in range(3):
            y = np.nextafter(y, toward)
            values.append(y)
    assert_same_as_repr(np.concatenate(values))


def test_format_powers_and_edges():
    powers = [2.0**k for k in range(-16, 1)] + [float(f"1e{k}") for k in range(-5, 1)]
    edges = [1e-4, np.nextafter(1.0, 0.0), 0.0, -0.0, 5e-324, 1e300, np.nan, np.inf, -np.inf]
    values = np.array(powers + edges)
    around = [np.nextafter(values, toward) for toward in (0.0, np.inf)]
    around += [np.nextafter(around[0], 0.0), np.nextafter(around[1], np.inf)]
    values = np.concatenate([values, *around])
    assert_same_as_repr(np.concatenate([values, -values]), dim=7)


def test_format_exact_ties():
    """x = m / 2**k with m odd: X = |x| * 10**(16 - e) ends in 5 (k = 16 - e)
    or in .5 (k = 17 - e), exactly between two candidate digit strings."""
    values = []
    for e in range(-4, 0):
        for k in (16 - e, 17 - e):
            x = np.arange(1.0, 2.0**k, 2.0) / 2.0**k
            values.append(x[(x >= 10.0**e) & (x < 10.0 ** (e + 1))][::3])
    assert_same_as_repr(np.concatenate(values))


def test_format_points_inside_the_digits():
    """1 <= |x| < 1e16, whose ``repr`` has its point among its digits: 1.0,
    every power of ten and power of two there with 1-3 ulps either side, the
    neighbourhood of 2**53, and both signs."""
    anchors = [1.0] + [float(f"1e{k}") for k in range(18)] + [2.0**k for k in range(-2, 60)]
    anchors += [2.0**53 + k for k in range(-40, 41, 2)] + [2.0**52 + k / 2 for k in range(-9, 10)]
    values = [np.array(anchors)]
    for toward in (0.0, np.inf):
        y = values[0]
        for _ in range(3):
            y = np.nextafter(y, toward)
            values.append(y)
    values = np.concatenate(values)
    assert_same_as_repr(np.concatenate([values, -values]), dim=9)


def test_format_exact_ties_of_whole_parts():
    """The ties of :func:`test_format_exact_ties` for e = 0 .. 15: x = m /
    2**k with m odd and k = 16 - e or 17 - e, below 2**53 in m."""
    rng = np.random.default_rng(41)
    values = []
    for e in range(16):
        for k in (16 - e, 17 - e):
            lo, hi = 10**e << k, min(10 ** (e + 1) << k, 1 << 53)
            if lo < hi:
                m = rng.integers(lo // 2, hi // 2, size=1500) * 2 + 1
                values.append(m / 2.0**k)
    assert_same_as_repr(np.concatenate(values))


def test_format_neighbours_of_short_decimals_with_whole_parts():
    """The values 1-3 ulps from random decimals of 12-16 digits in [1, 1e16)."""
    rng = np.random.default_rng(43)
    digits = rng.integers(12, 17, size=30_000)
    exponent = rng.integers(0, 16, size=len(digits))
    mantissa = rng.integers(10 ** (digits - 1), 10**digits)
    x = np.array([float(f"{m}e{e - d + 1}") for m, e, d in zip(mantissa, exponent, digits)])
    values = [x]
    for toward in (np.inf, -np.inf):
        y = x
        for _ in range(3):
            y = np.nextafter(y, toward)
            values.append(y)
    values = np.concatenate(values)
    assert_same_as_repr(np.concatenate([values, -values]))


def test_format_random_magnitudes():
    """Normal values scaled by 10**u, u uniform in [-6, 18], of both signs:
    half of them have a point inside their digits, and most of those take
    the vectorized path."""
    rng = np.random.default_rng(47)
    values = rng.normal(size=200_000) * 10.0 ** rng.uniform(-6, 18, size=200_000)
    assert_same_as_repr(values)
    fast = textfloats._digits(values.copy())[4]
    whole = (np.abs(values) >= 1) & (np.abs(values) < 1e16)
    assert fast[whole].mean() > 0.9


def test_format_empty_blocks(tmp_path):
    """No rows, and rows of no values: ``slots`` against ``repr``, and the
    writer against the oracle."""
    assert slot_rows(np.empty((3, 0))) == ["", "", ""]
    assert slot_rows(np.empty((0, 4))) == []
    for vectors in (np.empty((3, 0)), np.empty((0, 4)), np.empty((0, 0))):
        assert_writes_the_oracles_bytes(tmp_path, embedding_table(vectors))
    assert (tmp_path / "got.tsv").read_bytes() == b"#fmt:embeddings:1\n"


#: values the writer leaves to ``repr`` (-0.0, 0.0, 5e-324, 1e-05, 1e16) or
#: writes with its point after every digit (2**53) or among them (2**k)
EDGE_VALUES = [-0.0, 0.0, 5e-324, -5e-324, 1e-5, -1e-5, 1e16, -1e16, 2.0**53, -(2.0**53)]
EDGE_VALUES += [2.0**k for k in range(-20, 60, 3)] + [-(2.0**k) for k in range(-19, 60, 7)]


@pytest.mark.parametrize("dim", [1, 2, 7, 256])
def test_writer_edge_values(dim, tmp_path):
    """Each edge value in every column of 197 rows (eight blocks of the
    writer at D = 256), for embeddings and for prototypes, whose rows end in
    1.0 to keep a norm."""
    values = np.resize(np.array(EDGE_VALUES), (3 * ROW_BLOCK + 5) * dim).reshape(-1, dim)
    assert_writes_the_oracles_bytes(tmp_path, embedding_table(values))
    rows = np.concatenate([values, np.ones((len(values), 1))], axis=1)
    table = embedding_table(rows)
    protos = PrototypeMatrix(table.utt_ids, table.domains, table.languages, rows)
    assert_writes_the_oracles_bytes(tmp_path, protos)


def test_writer_non_ascii_ids(tmp_path):
    """Ids of 1- to 4-byte UTF-8 characters, of different lengths."""
    ids = ["ü-ß", "м.1", "語", "😀x", "a,b;c", "x" * 300, "é", "u\x00"]
    table = embedding_table(np.random.default_rng(5).normal(size=(len(ids), 3)), ids)
    assert_writes_the_oracles_bytes(tmp_path, table)
    protos = PrototypeMatrix(ids, table.domains, table.languages, table.vectors)
    assert_writes_the_oracles_bytes(tmp_path, protos)


def test_writer_refuses_an_unencodable_id_before_opening(tmp_path):
    """An id with a lone surrogate has no UTF-8 bytes: the vector writers
    raise before they make the directory, as the trial and score writers do,
    and leave no file holding the rows before it."""
    table = embedding_table(np.ones((2, 2)), ["u1", "u\ud800"])
    protos = PrototypeMatrix(table.utt_ids, table.domains, table.languages, table.vectors)
    for write, payload in ((formats.write_embeddings_text, table), (formats.write_prototypes, protos)):
        with pytest.raises(UnicodeEncodeError):
            write(tmp_path / "new" / "out.tsv", payload)
        assert not (tmp_path / "new").exists()


def test_writer_matches_repr_and_reads_back(tmp_path):
    """A row count that is no multiple of ``ROW_BLOCK``, with values of both
    paths: the file holds each value's ``repr`` and reads back bit for bit."""
    rng = np.random.default_rng(31)
    n = 3 * ROW_BLOCK + 5
    scale = rng.choice([1.0, 1e-5, 1e3], size=(n, 40), p=[0.9, 0.05, 0.05])  # both paths
    vectors = rng.normal(0.0, 0.05, size=(n, 40)) * scale
    table = EmbeddingTable(
        [f"u{k}" for k in range(n)], [f"s{k % 7}" for k in range(n)],
        [Domain.VOX] * n, [Language.ENGLISH] * n, vectors,
    )  # fmt: skip
    formats.write_embeddings_text(tmp_path / "e.tsv", table)
    lines = (tmp_path / "e.tsv").read_text().splitlines()[1:]
    assert [line.rpartition("\t")[2] for line in lines] == repr_rows(vectors)
    back = formats.read_embeddings_text(tmp_path / "e.tsv").vectors
    assert back.view(np.uint64).tolist() == vectors.view(np.uint64).tolist()


def test_writer_temporaries_do_not_grow_with_the_file():
    """The writer holds one block's temporaries at a time: its peak on 16,384
    rows is within 1 MB of its peak on 4,096."""
    rng = np.random.default_rng(37)
    vectors = rng.normal(0.0, 0.05, size=(16_384, 256))
    peaks = []
    for n in (4096, len(vectors)):
        ids = [f"u{k}" for k in range(n)]
        table = EmbeddingTable(ids, ids, [Domain.VOX] * n, [Language.ENGLISH] * n, vectors[:n])
        tracemalloc.start()
        try:
            formats.write_embeddings_text(os.devnull, table)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 1 << 20, peaks
