"""textfloats.parse against ``float``: the same bits for every token, or an
error at the first token ``float`` rejects."""

import math
from decimal import Decimal

import numpy as np
import pytest

from svbackend import formats, textfloats
from svbackend.synth import CorpusSpec, generate_corpus

# a numpy overflow or invalid-value warning, or a deprecated call, fails the test
pytestmark = pytest.mark.filterwarnings("error")


def parse(tokens, per_field=256):
    """The tokens through ``textfloats.parse``, ``per_field`` to a field."""
    fields = [",".join(tokens[k : k + per_field]) for k in range(0, len(tokens), per_field)]
    return textfloats.parse(fields, np.empty(len(tokens)))


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
    formats.write_embeddings_text(tmp_path / "e.tsv", corpus.embeddings)
    for name in ("p.tsv", "e.tsv"):
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


def test_token_count_must_match():
    with pytest.raises(ValueError, match="2 tokens for 3 values"):
        textfloats.parse(["1.0,2.0"], np.empty(3))


def test_certificate_refuses_ties_and_powers_of_two():
    """A corrected quotient is certified only strictly within half an ulp
    and away from a power of two; the rest goes to ``float``."""
    m = np.array([(1 << 53) + 1, 90071992547409920, 12345678901234567, (1 << 53) + 2], np.uint64)
    scale = np.array([1.0, 10.0, 1e17, 1.0])
    q, certified = textfloats._corrected(m, m / scale, scale)
    assert certified.tolist() == [False, False, True, True]  # a tie, 2**53, then two others
    assert q.tolist() == [float(1 << 53), float(1 << 53), 0.12345678901234567, float((1 << 53) + 2)]
