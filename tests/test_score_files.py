"""The columnar trial and score files against their per-row oracles.

``formats.read_scores``, ``read_trials``, ``write_scores``, ``write_trials``
and ``calibration.fuse`` work on columns (``svbackend.tsvcolumns``); the
oracles in ``oracles.py`` are the per-row code they replaced.  On every case
of the defect tables, on files with two defects, on invalid UTF-8 around
the chunks text mode decodes, and on random mutations of valid files, the
columnar code returns the oracle's value or raises its exception class and
message.
"""

import itertools
import tracemalloc

import numpy as np
import pytest

from svbackend import formats, tsvcolumns
from svbackend.calibration import fuse
from svbackend.errors import FormatError
from svbackend.scores import ScoreSet, TrialKeys

import oracles

# a numpy overflow or invalid-value warning fails the test
pytestmark = pytest.mark.filterwarnings("error")

#: the bytes text mode reads and decodes at a time
CHUNK = 8192
S = b"#fmt:scores:1\n"
T = b"#fmt:trials:1\n"


def outcome(build):
    try:
        return "ok", build()
    except Exception as exc:  # the class and message are compared
        return type(exc), str(exc)


def bits(values):
    return None if values is None else np.asarray(values).view(np.uint8).tolist()


def new_scores(path):
    ss = formats.read_scores(path)
    return list(ss.keys), bits(ss.scores), bits(ss.labels)


def old_scores(path):
    keys, scores, labels = oracles.read_scores_rows(path)
    return keys, bits(scores), bits(labels)


def new_trials(path):
    keys, labels = formats.read_trials(path)
    return list(keys), bits(labels)


def old_trials(path):
    keys, labels = oracles.read_trials_rows(path)
    return keys, bits(labels)


def same_read(path, kind):
    new, old = (new_scores, old_scores) if kind == "scores" else (new_trials, old_trials)
    want = outcome(lambda: old(path))
    assert outcome(lambda: new(path)) == want
    return want


#: name -> the bytes of a score file
SCORE_DEFECTS = {
    "valid": S + b"m1\tu1\t0.5\ttarget\nm1\tu2\t-0.25\tnontarget\n",
    "valid unlabeled": S + b"m1\tu1\t0.5\nm2\tu1\t-3e-05\n",
    "malformed score": S + b"m1\tu1\t0.5\nm1\tu2\t0.5x\n",
    "empty score": S + b"m1\tu1\t\n",
    "score with a comma": S + b"m1\tu1\t0.5\nm1\tu2\t0,5\n",
    "score with spaces": S + b"m1\tu1\t 0.5 \n",
    "score with an underscore": S + b"m1\tu1\t1_0.5\n",
    "score in fullwidth digits": S + "m1\tu1\t１.５\n".encode(),
    "nan": S + b"m1\tu1\t0.5\nm1\tu2\tnan\n",
    "inf": S + b"m1\tu1\t-inf\n",
    "1e400": S + b"m1\tu1\t1e400\n",
    "signs and exponents": S + b"m1\tu1\t+1e-5\nm1\tu2\t-0.0\nm1\tu3\t1E2\n",
    "long scores": S + b"m1\tu1\t123456789012345678901234567890.5\nm1\tu2\t1234567.125\n",
    "unknown label": S + b"m1\tu1\t0.5\ttarget\nm1\tu2\t0.5\tmaybe\n",
    "label with a space": S + b"m1\tu1\t0.5\ttarget \n",
    "empty label": S + b"m1\tu1\t0.5\t\n",
    "2 fields": S + b"m1\tu1\t0.5\nm1\tu2\n",
    "5 fields": S + b"m1\tu1\t0.5\ttarget\tx\n",
    "1 field": S + b"m1\n",
    "labeled then unlabeled": S + b"m1\tu1\t0.5\ttarget\nm1\tu2\t0.25\n",
    "unlabeled then labeled": S + b"m1\tu1\t0.5\nm1\tu2\t0.25\ttarget\n",
    "duplicate key": S + b"m1\tu1\t0.5\nm1\tu2\t0.5\nm1\tu1\t0.25\n",
    "empty ids": S + b"\tu1\t0.5\nm1\t\t0.25\n",
    "\\r\\n line ends": b"#fmt:scores:1\r\nm1\tu1\t0.5\r\nm1\tu2\t0.25\r\n",
    "lone \\r line ends": b"#fmt:scores:1\rm1\tu1\t0.5\rm1\tu2\t0.25\r",
    "mixed line ends": S + b"m1\tu1\t0.5\r\r\nm1\tu2\t0.25\n\rm1\tu3\t1.5\r",
    "\\r\\r\\n line ends": b"#fmt:scores:1\r\r\nm1\tu1\t0.5\ttarget\r\r\nm1\tu2\t1\ttarget\r\r\n",
    "\\n\\r line ends": b"#fmt:scores:1\n\rm1\tu1\t0.5\n\rm1\tu2\t0.25\n\r",
    "a lone \\r at the end": S + b"m1\tu1\t0.5\ttarget\nm1\tu2\t0.25\tnontarget\r",
    "\\r in an id": S + b"m1\tu1\t0.5\nm\r1\tu2\t0.25\nm1\tu\r3\t1.5\n",
    "comment and blank lines": S + b"# a comment\n\nm1\tu1\t0.5\n#\tx\ty\n\n\r\n",
    "a line of spaces": S + b"m1\tu1\t0.5\n  \n",
    "no final line break": S + b"m1\tu1\t0.5\nm1\tu2\t0.25",
    "invalid UTF-8": S + b"m1\tu1\t0.5\nm\xff\tu2\t0.5\n",
    "UTF-8 cut short at the end": S + b"m1\tu1\t0.5\n\xc3",
    "a surrogate in UTF-8": S + b"m\xed\xa0\x80\tu1\t0.5\n",
    "only the header": S,
    "the header without a line break": b"#fmt:scores:1",
    "an empty file": b"",
    "no header": b"m1\tu1\t0.5\n",
    "another format's header": T + b"m1\tu1\n",
    "an unsupported version": b"#fmt:scores:2\nm1\tu1\t0.5\n",
    "a header with spaces": b"  #fmt:scores:1 \t\nm1\tu1\t0.5\n",
    "NUL in ids": S + b"m\x00\tu1\t0.5\nm\tu1\t0.25\nm\x00\x00\tu1\t1.0\n",
    "non-ASCII ids": S + "ü-ß\tм.1\t0.5\nü\tм.1\t0.25\n".encode(),
    "other line separators in ids": S + "m \tu\x85\x0b\x0c\t0.5\n".encode(),
    "ids too long to key": S + b"m" * 300 + b"\tu1\t0.5\nm\tu1\t0.25\n"
    + b"m" * 300 + b"\tu2\t1.0\n",
    # two defects: the first in file order wins; in a row its field count,
    # then its score, then its label; the non-finite and duplicate checks
    # follow every row
    "a label before a later malformed score": S + b"m1\tu1\t0.5\tmaybe\nm1\tu2\tx\ttarget\n",
    "a malformed score before a later field count": S + b"m1\tu1\tx\nm1\tu2\n",
    "a field count before a later malformed score": S + b"m1\tu1\nm1\tu2\tx\n",
    "a score before a label in one row": S + b"m1\tu1\tx\tmaybe\n",
    "a comma score before a later label": S + b"m1\tu1\t1,5\ttarget\nm1\tu2\t1\tmaybe\n",
    "nan before a later label": S + b"m1\tu1\tnan\ttarget\nm1\tu2\t0.5\tmaybe\n",
    "a duplicate before a later malformed score": S + b"m1\tu1\t0.5\nm1\tu1\t0.25\nm1\tu2\tx\n",
    "nan and a duplicate": S + b"m1\tu1\tnan\nm1\tu1\t0.5\n",
    "invalid UTF-8 before a later malformed score": S + b"m\xff\tu1\t0.5\nm1\tu2\tx\n",
    "a malformed score before later invalid UTF-8": S + b"m1\tu1\tx\nm\xff\tu1\t0.5\n",
    "a bad header and invalid UTF-8": b"#fmt:scores:9\nm\xff\tu1\t0.5\n",
    "comments and invalid UTF-8": S + b"# \xff\nm1\tu1\t0.5\n",
}

#: name -> the bytes of a trials file
TRIAL_DEFECTS = {
    "valid": T + b"m1\tu1\ttarget\nm1\tu2\tnontarget\n",
    "valid unlabeled": T + b"m1\tu1\nm2\tu1\n",
    "unknown label": T + b"m1\tu1\ttarget\nm1\tu2\tTarget\n",
    "1 field": T + b"m1\tu1\nm1\n",
    "4 fields": T + b"m1\tu1\ttarget\tx\n",
    "labeled then unlabeled": T + b"m1\tu1\ttarget\nm1\tu2\n",
    "unlabeled then labeled": T + b"m1\tu1\nm1\tu2\tnontarget\n",
    "duplicate key": T + b"m1\tu1\nm1\tu1\n",
    "empty ids": T + b"\tu1\nm1\t\n",
    "\\r\\n line ends": b"#fmt:trials:1\r\nm1\tu1\r\nm1\tu2\r\n",
    "lone \\r line ends": b"#fmt:trials:1\rm1\tu1\rm1\tu2\r",
    "\\r\\r\\n line ends": b"#fmt:trials:1\r\r\nm1\tu1\r\r\nm1\tu2\r\r\n",
    "\\n\\r line ends": b"#fmt:trials:1\n\rm1\tu1\n\rm1\tu2\n\r",
    "a lone \\r at the end": T + b"m1\tu1\ttarget\nm1\tu2\tnontarget\r",
    "\\r in an id": T + b"m1\tu1\nm\r1\tu2\n",
    "comment and blank lines": T + b"# a comment\n\nm1\tu1\n#\tx\ty\n\n",
    "no final line break": T + b"m1\tu1\ttarget",
    "invalid UTF-8": T + b"m1\tu1\nm\xc3(\tu2\n",
    "UTF-8 cut short at the end": T + b"m1\tu1\n\xe2\x82",
    "only the header": T,
    "an empty file": b"",
    "no header": b"m1\tu1\n",
    "another format's header": S + b"m1\tu1\t0.5\n",
    "NUL in ids": T + b"m\x00\tu1\nm\tu1\n",
    "ids too long to key": T + b"u" * 600 + b"\tu1\nm\tu1\n",
    "a label before a later field count": T + b"m1\tu1\tmaybe\nm1\n",
    "a field count before a later label": T + b"m1\nm1\tu1\tmaybe\n",
    "a label before later invalid UTF-8": T + b"m1\tu1\tmaybe\nm\xff\tu1\ttarget\n",
}


@pytest.mark.parametrize("case", list(SCORE_DEFECTS))
def test_score_defects(case, tmp_path):
    path = tmp_path / "scores.tsv"
    path.write_bytes(SCORE_DEFECTS[case])
    same_read(path, "scores")


@pytest.mark.parametrize("case", list(TRIAL_DEFECTS))
def test_trial_defects(case, tmp_path):
    path = tmp_path / "trials.tsv"
    path.write_bytes(TRIAL_DEFECTS[case])
    same_read(path, "trials")


def test_defect_tables_cover_errors_and_values(tmp_path):
    """Each table holds accepted files and every error the readers raise."""
    seen = set()
    for kind, table in (("scores", SCORE_DEFECTS), ("trials", TRIAL_DEFECTS)):
        for k, data in enumerate(table.values()):
            path = tmp_path / f"{kind}{k}.tsv"
            path.write_bytes(data)
            result = same_read(path, kind)
            seen.add(result[0] if result[0] == "ok" else result[1].split(" ")[0][:12])
    assert {"ok", "missing", "expected", "malformed", "unknown", "score", "trial"} <= seen
    assert any(s.startswith("/") for s in seen)  # "<path> is not valid UTF-8"


def rows_file(n, head=S, labeled=True, cut=None):
    """A score file of ``n`` rows with varied ids and scores; ``cut`` puts
    a multi-byte id, a '\\r\\n' and a lone '\\r' among them."""
    rng = np.random.default_rng(n)
    out = [head]
    for i in range(n):
        model = f"m{i % 7}" + ("é" if i % 5 == cut else "")
        score = repr(float(rng.normal() * 10.0 ** rng.integers(-5, 5)))
        tail = "\t" + ("target" if i % 3 else "nontarget") if labeled else ""
        end = "\r\n" if i % 11 == 3 else "\r" if i % 13 == 4 else "\n"
        out.append(f"{model}\tu{i:05d}\t{score}{tail}{end}".encode())
    return b"".join(out)


INVALID_UTF8 = [b"\xff", b"\x80", b"\xc3(", b"\xe2\x82(", b"\xed\xa0\x80", b"\xf4\x90"]


@pytest.mark.parametrize("bad", INVALID_UTF8)
def test_invalid_utf8_around_decoding_chunks(bad, tmp_path):
    """Text mode decodes 8,192 bytes at a time: the rows of the lines it
    completed before the chunk that shows invalid UTF-8 are checked first.
    The invalid bytes are put at each offset around the first two chunk
    ends, with a malformed score before or after them."""
    base = rows_file(700, cut=1)
    assert len(base) > 3 * CHUNK
    path = tmp_path / "scores.tsv"
    for end in (CHUNK, 2 * CHUNK):
        for at in range(end - 40, end + 6):
            for malformed in (None, at - 300, at - 30, at + 30):
                data = bytearray(base)
                if malformed is not None:
                    k = data.index(b"\t", data.index(b"\t", malformed) + 1) + 1
                    data[k : k + 1] = b"x"
                data[at:at] = bad
                path.write_bytes(bytes(data))
                same_read(path, "scores")


def test_line_breaks_and_characters_across_chunk_ends(tmp_path):
    """A '\\r', a '\\r\\n', a multi-byte character, or a '\\r' before one,
    ending at each offset around a chunk end (text mode holds back a final
    '\\r' and an unfinished character), after a row with a field too many
    and after a good one, with invalid UTF-8 in the next chunk and without."""
    path = tmp_path / "scores.tsv"
    base = rows_file(400, labeled=False)
    pieces = (b"\r", b"\r\n", b"\xc3\xa9", b"\xe2\x82\xac", b"\xf0\x9f\x98\x80", b"\r\xc3\xa9")
    for piece, shift, field, bad in itertools.product(
        pieces, range(-4, 5), (b"", b"\tx"), (b"", b"\xff")
    ):
        data = bytearray(base)
        at = CHUNK + shift - len(piece)  # the piece ends at the shift
        data[at:at] = field + piece
        if bad:
            data[at + 60 : at + 60] = bad
        path.write_bytes(bytes(data))
        same_read(path, "scores")


MUTATIONS = [b"\t", b"\n", b"\r", b"\r\n", b",", b"#", b" ", b"x", b"e", b"9", b".", b"-",
             b"\xff", b"\xc3", b"\x00", b"nan", b"target", b"\ttarget"]  # fmt: skip


@pytest.mark.parametrize("kind", ["scores", "trials"])
def test_random_mutations(kind, tmp_path):
    """Bytes replaced, inserted and deleted, and lines doubled and dropped,
    in a small valid file: 600 files of each kind."""
    rng = np.random.default_rng(17)
    path = tmp_path / "f.tsv"
    if kind == "scores":
        base = S + b"# c\nm1\tu1\t0.5\ttarget\nm2\tu1\t-1.25e-3\tnontarget\r\n\nm1\tu2\t3.0\ttarget"
    else:
        base = T + b"m1\tu1\ttarget\n# c\r\nm2\tu1\tnontarget\rm1\tu2\ttarget\n"
    results = set()
    for _ in range(600):
        data = bytearray(base)
        for _ in range(rng.integers(1, 4)):
            at = int(rng.integers(0, len(data) + 1))
            op = rng.integers(0, 4)
            if op == 0 and at < len(data):
                data[at : at + 1] = MUTATIONS[rng.integers(len(MUTATIONS))]
            elif op == 1:
                data[at:at] = MUTATIONS[rng.integers(len(MUTATIONS))]
            elif op == 2:
                del data[at : at + int(rng.integers(1, 4))]
            else:
                lines = bytes(data).split(b"\n")
                k = int(rng.integers(len(lines)))
                lines[k:k] = [lines[k]] if rng.integers(2) else []
                data = bytearray(b"\n".join(lines))
        path.write_bytes(bytes(data))
        results.add(same_read(path, kind)[0])
    assert {"ok", FormatError} <= results


def test_colliding_key_hashes_stay_apart(tmp_path):
    """Two ids whose keys (length byte and bytes as two uint64 words) hash
    alike are compared as bytes and read as two ids."""
    rng = np.random.default_rng(3)
    x = b"abcdefghijklmno"
    k0x, k1x = np.frombuffer(bytes([len(x)]) + x, "<u8")
    heads = rng.integers(0x61, 0x7B, size=(200_000, 7), dtype=np.uint8)
    k0 = np.concatenate([np.full((len(heads), 1), len(x), np.uint8), heads], axis=1)
    k0 = k0.view("<u8").ravel()
    with np.errstate(over="ignore"):
        k1 = (k0 * tsvcolumns._MIX) ^ (k0x * tsvcolumns._MIX) ^ k1x
    tails = k1.view(np.uint8).reshape(-1, 8)
    ok = np.flatnonzero(((tails > 0x20) & (tails < 0x7F)).all(axis=1))
    assert len(ok)
    y = heads[ok[0]].tobytes() + tails[ok[0]].tobytes()
    path = tmp_path / "scores.tsv"
    path.write_bytes(S + x + b"\tu1\t0.5\n" + y + b"\tu1\t0.25\n" + x + b"\tu2\t1.0\n")
    x, y = x.decode(), y.decode()
    assert same_read(path, "scores")[1][0] == [(x, "u1"), (y, "u1"), (x, "u2")]


def random_score_set(rng, n, labeled):
    ids = ["m1", "ü-ß", "a,b;c", "m\x00", "x" * 40, "é"]
    pairs = (
        (str(rng.choice(ids)) + str(rng.integers(9)), f"t{rng.integers(3 * n)}")
        for _ in range(2 * n)
    )
    keys = list(dict.fromkeys(pairs))[:n]
    magnitude = 10.0 ** rng.uniform(-7, 19, size=len(keys))
    scores = rng.normal(size=len(keys)) * magnitude
    scores[rng.uniform(size=len(keys)) < 0.1] = rng.choice([0.0, -0.0, 1.0, 0.5, 1e16, 2.0**53])
    labels = rng.uniform(size=len(keys)) < 0.3 if labeled else None
    return keys, scores, labels


@pytest.mark.parametrize("labeled", [True, False])
def test_writers_write_the_oracles_bytes(labeled, tmp_path):
    rng = np.random.default_rng(11 + labeled)
    want, got = tmp_path / "want.tsv", tmp_path / "got.tsv"
    # no rows: refused as the readers refuse them, before the file is made
    keys, scores, labels = random_score_set(rng, 0, labeled)
    refused = [
        (lambda: formats.write_scores(got, ScoreSet(keys, scores, labels)), "score"),
        (lambda: formats.write_trials(got, keys, labels), "trial"),
        (lambda: formats.write_trials(got, TrialKeys.of(keys), labels), "trial"),
    ]
    for write, what in refused:
        assert outcome(write) == (FormatError, f"{what} file holds no rows")
        assert not got.exists()
    for n in (1, 7, 300, 5000):
        keys, scores, labels = random_score_set(rng, n, labeled)
        oracles.write_key_rows(want, "scores", keys, scores, labels)
        formats.write_scores(got, ScoreSet(keys, scores, labels))
        assert got.read_bytes() == want.read_bytes()
        oracles.write_key_rows(want, "trials", keys, None, labels)
        formats.write_trials(got, keys, labels)
        assert got.read_bytes() == want.read_bytes()
        formats.write_trials(got, TrialKeys.of(keys), labels)
        assert got.read_bytes() == want.read_bytes()
        assert same_read(got, "trials")[1][0] == keys


def test_writers_refuse_the_oracles_first_bad_id(tmp_path):
    """Every id a trial uses is checked, model ids first, each in order of
    first use; a refused file is not written."""
    keys = [("m1", "u1"), ("m1", "u 2"), ("m 3", "u1"), ("#m", "u3"), ("m1", "")]
    for k in range(len(keys) + 1):
        picked = keys[k:] + keys[:k]
        scores = np.zeros(len(picked))
        want = outcome(lambda: oracles.write_key_rows(tmp_path / "a.tsv", "scores", picked, scores))
        got = outcome(lambda: formats.write_scores(tmp_path / "b.tsv", ScoreSet(picked, scores)))
        assert want[0] != "ok" and got == want
        assert not (tmp_path / "b.tsv").exists()
    # an id no trial uses is not checked
    unused = TrialKeys(("m1", "m 2"), ("u1",), np.array([0]), np.array([0]))
    formats.write_trials(tmp_path / "c.tsv", unused)
    assert (tmp_path / "c.tsv").read_bytes() == T + b"m1\tu1\n"


def as_rows(ss):
    return list(ss.keys), ss.scores, ss.labels


@pytest.mark.parametrize("seed", range(6))
def test_fuse_against_the_dict_alignment(seed):
    rng = np.random.default_rng(seed)
    keys, scores, labels = random_score_set(rng, 400, labeled=seed % 2 == 0)
    sets = [ScoreSet(keys, scores, labels)]
    for k in range(3):
        order = rng.permutation(len(keys)) if k else np.arange(len(keys))
        pairs = [keys[i] for i in order]
        set_labels = None if labels is None or k == 2 else labels[order]
        sets.append(ScoreSet(pairs, rng.normal(size=len(keys)), set_labels))
    weights = rng.uniform(0.5, 2.0, size=len(sets))
    want = outcome(lambda: oracles.fuse_rows([as_rows(s) for s in sets], weights))
    got = outcome(lambda: as_rows(fuse(sets, weights)))
    assert got[0] == want[0] == "ok"
    assert got[1][0] == want[1][0] and bits(got[1][1]) == bits(want[1][1])
    assert bits(got[1][2]) == bits(want[1][2])


def test_fuse_refuses_what_the_dict_alignment_refuses():
    a = ScoreSet([("m1", "u1"), ("m1", "u2"), ("m2", "u1")], [0.1, 0.2, 0.3], [True, False, True])
    cases = [
        ScoreSet([("m1", "u1"), ("m1", "u2")], [0.1, 0.2]),  # fewer trials
        ScoreSet([("m1", "u1"), ("m1", "u2"), ("m2", "u2")], [0.1, 0.2, 0.3]),  # known ids
        ScoreSet([("m1", "u1"), ("m1", "u2"), ("m9", "u1")], [0.1, 0.2, 0.3]),  # an unknown id
        ScoreSet([("m2", "u1"), ("m1", "u2"), ("m1", "u1")], [0.1, 0.2, 0.3], [True, True, True]),
        ScoreSet([("m1", "u1"), ("m1", "u2"), ("m2", "u1"), ("m2", "u2")], [0.1, 0.2, 0.3, 0.4]),
    ]
    for b in cases:
        for pair in ([a, b], [b, a]):
            want = outcome(lambda: oracles.fuse_rows([as_rows(s) for s in pair], [1.0, 1.0]))
            got = outcome(lambda: as_rows(fuse(pair, [1.0, 1.0])))
            assert want[0] != "ok" and got == want


def dense_scores_file(path, n=28_240):
    """A labeled score file of the dense-trials size and id shapes."""
    rng = np.random.default_rng(5)
    scores = rng.normal(size=n) * 3.0
    models, tests = np.divmod(rng.choice(120 * 240, size=n, replace=False), 240)
    rows = (
        f"ev{m:03d}\tev{t // 2:03d}-t{t % 2:03d}\t{s!r}\t{'target' if i < 240 else 'nontarget'}\n"
        for i, (m, t, s) in enumerate(zip(models.tolist(), tests.tolist(), scores.tolist()))
    )
    path.write_text(S.decode() + "".join(rows), encoding="utf-8")


def peak_of(build):
    tracemalloc.start()
    try:
        result = build()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def test_read_scores_builds_no_row_objects(tmp_path):
    """Reading 28,240 labeled rows (1.3 MB) peaks below 7 MB of traced
    memory and keeps under 1 MB; the per-row reader, with one key tuple, two
    id strings and one float per row, peaks above 8 MB (9.4 MB measured on
    CPython 3.11)."""
    path = tmp_path / "scores.tsv"
    dense_scores_file(path)
    peak, ss = peak_of(lambda: formats.read_scores(path))
    held = ss.keys.models.nbytes + ss.keys.tests.nbytes + ss.scores.nbytes + ss.labels.nbytes
    assert len(ss) > 28_000 and held < 1e6
    assert peak < 7e6, peak
    assert peak_of(lambda: oracles.read_scores_rows(path))[0] > 8e6
    peak, _ = peak_of(lambda: formats.write_scores(tmp_path / "again.tsv", ss))
    assert peak < 2e6, peak
    assert (tmp_path / "again.tsv").read_bytes() == path.read_bytes()
