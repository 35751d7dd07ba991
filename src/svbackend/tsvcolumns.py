"""Trial and score files read and written as columns over the file's bytes.

:func:`read_trials` and :func:`read_scores` find the lines, comment lines
and tab-separated fields of a file with numpy over its bytes; :func:`write`
builds the rows of one from byte columns.  Neither makes a Python object
per row: ids become :class:`~.scores.TrialKeys` codes into tables of the
distinct ids, and scores go through :func:`.textfloats.parse_bytes` and
:func:`.textfloats.slots`.

The readers take and refuse what reading the file in text mode line by line
does, and raise the same error at the same first defect.  Text mode decodes
UTF-8 ``_CHUNK`` bytes at a time and translates ``\\r\\n`` and a lone
``\\r`` to a line break; it raises on invalid UTF-8 when it decodes the
chunk that shows it, so the rows of the lines completed before that chunk
are checked first.  Rows are then checked in file order, and within a row
its field count, then its score, then its label.
"""

from __future__ import annotations

import codecs
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import textfloats
from .errors import FormatError
from .formats import _parse_header, _write_text
from .scores import LABEL_NONTARGET, LABEL_TARGET, ScoreSet, TrialKeys, first_appearance

#: the bytes ``io.TextIOWrapper`` reads and decodes at a time
_CHUNK = 8192
#: zeros after a file's bytes, so a window of up to 255 bytes from any field
#: start stays in the array
_PAD = 256
#: the most bytes a block of written rows spans before compaction, and the
#: most scores converted at a time
_BLOCK_BYTES = 1 << 18
_BLOCK_SCORES = 4096
#: the odd multiplier that mixes a field's key words into one hash
_MIX = np.uint64(0x9E3779B97F4A7C15)
_TAB, _NEWLINE, _COMMA, _HASH, _CR = b"\t\n,#\r"


def read_trials(path):
    """``(keys, labels)`` of a trials file: a :class:`TrialKeys` and a
    read-only bool array, or None when the rows have no label field."""
    data, a, fields, pending = _scan(path, "trials", "trial", (2, 3))
    labels, bad = _labels(a, fields, 2)
    if bad < len(fields):
        raise FormatError(f"unknown trial label {_text(data, fields, bad, 2)!r}")
    if pending:
        raise pending
    return _keys(data, a, fields), labels


def read_scores(path) -> ScoreSet:
    """The :class:`ScoreSet` of a scores file."""
    data, a, fields, pending = _scan(path, "scores", "score", (3, 4))
    scores, bad_score = _scores(a, fields)
    labels, bad_label = _labels(a, fields, 3)
    if min(bad_score, bad_label) < len(fields):
        if bad_score <= bad_label:
            ids = "/".join(_text(data, fields, bad_score, f) for f in (0, 1))
            raise FormatError(f"malformed score for {ids}")
        raise FormatError(f"unknown score label {_text(data, fields, bad_label, 3)!r}")
    if pending:
        raise pending
    if not len(fields):
        raise FormatError("score file holds no rows")
    return ScoreSet(_keys(data, a, fields), scores, labels)


def _scan(path, fmt: str, what: str, counts: tuple[int, ...]):
    """``(data, a, fields, pending)``: the bytes of a ``fmt`` file and
    ``_PAD`` zeros, as bytes and as uint8; the field bounds of its data rows
    before the first row with a bad field count, as an (n, F + 1) array
    (field f of row i is ``a[fields[i, f] : fields[i, f + 1] - 1]``); and
    the error that reading on would raise, at that row or at invalid UTF-8,
    or None.  Every row has F fields, one of ``counts``."""
    path = Path(path)
    with open(path, "rb") as fh:
        data = fh.read()
    stop, pending = len(data), None
    try:
        data.decode("utf-8")
    except UnicodeDecodeError:
        stop, reason = _decoded(data)
        pending = FormatError(f"{path} is not valid UTF-8: {reason}")
    data += bytes(_PAD)
    a = np.frombuffer(data, np.uint8)
    starts, ends = _lines(a[:stop], final=pending is None)
    if not len(starts) and pending:
        raise pending
    _parse_header(data[starts[0] : ends[0]].decode("utf-8") if len(starts) else "", fmt)
    starts, ends = starts[1:], ends[1:]
    data_row = (ends > starts) & (a[starts] != _HASH)
    starts, ends = starts[data_row], ends[data_row]
    tabs = np.flatnonzero(a[:stop] == _TAB)
    first_tab = np.searchsorted(tabs, starts)
    n_fields = np.searchsorted(tabs, ends) - first_tab + 1
    arity = int(n_fields[0]) if len(n_fields) and n_fields[0] in counts else counts[0]
    bad = np.flatnonzero(n_fields != arity)
    if len(bad):
        row = int(bad[0])
        if n_fields[row] in counts:
            pending = FormatError(f"{what} file mixes labeled and unlabeled rows")
        else:
            needs = " or ".join(map(str, counts))
            pending = FormatError(f"{what} row needs {needs} fields, got {n_fields[row]}")
        starts, ends, first_tab = starts[:row], ends[:row], first_tab[:row]
    fields = np.empty((len(starts), arity + 1), np.intp)
    fields[:, 0] = starts
    for f in range(1, arity):
        fields[:, f] = tabs[first_tab + f - 1] + 1
    fields[:, arity] = ends + 1
    return data, a, fields, pending


def _decoded(data: bytes) -> tuple[int, str]:
    """``(stop, reason)`` for bytes that are not UTF-8: the length of the
    text that text mode decodes, ``_CHUNK`` bytes at a time, before the
    chunk where its decoder raises, less the bytes of a character it holds
    back unfinished; and the reason it gives."""
    decoder = codecs.getincrementaldecoder("utf-8")()
    held = 0
    for at in [*range(0, len(data), _CHUNK), len(data)]:
        chunk = data[at : at + _CHUNK]
        try:
            decoder.decode(chunk, final=not chunk)
        except UnicodeDecodeError as exc:
            return at - held, exc.reason
        held = len(decoder.getstate()[0])
    raise AssertionError("the bytes decode")


def _lines(a, final: bool):
    """``(starts, ends)`` of each line text mode reads from the bytes ``a``,
    less its line break: '\\n', '\\r\\n' or a lone '\\r'.  With ``final``
    the text after the last break is a line too; without it, that text is
    still unread, and so is a '\\r' that ends ``a``, which text mode holds
    back until it sees whether '\\n' follows."""
    cr = np.flatnonzero(a == _CR)
    lf = np.flatnonzero(a == _NEWLINE)
    if not final and len(cr) and cr[-1] == len(a) - 1:
        cr = cr[:-1]
    lf = lf[(lf == 0) | (a[lf - 1] != _CR)]  # a '\n' after '\r' ends no second line
    crlf = a[np.minimum(cr + 1, len(a) - 1)] == _NEWLINE
    crlf[cr + 1 == len(a)] = False
    # the breaks and the starts after them are both increasing
    breaks = np.sort(np.concatenate([cr, lf]))
    after = np.sort(np.concatenate([cr + 1 + crlf, lf + 1]))
    starts = np.concatenate([[0], after]).astype(np.intp)
    ends = np.concatenate([breaks, [len(a)]]).astype(np.intp)
    if not final or starts[-1] == len(a):
        starts, ends = starts[:-1], ends[:-1]
    return starts, ends


def _text(data: bytes, fields, row: int, f: int) -> str:
    return data[fields[row, f] : fields[row, f + 1] - 1].decode("utf-8")


def _labels(a, fields, f: int):
    """``(labels, bad)``: the labels of field ``f`` as a bool array (None
    when the rows have no such field), and the first row whose field is
    neither label (the row count when there is none)."""
    if fields.shape[1] <= f + 1:
        return None, len(fields)
    start, end = fields[:, f], fields[:, f + 1] - 1
    target = _equals(a, start, end, LABEL_TARGET.encode())
    ok = target | _equals(a, start, end, LABEL_NONTARGET.encode())
    target.setflags(write=False)
    return target, int(np.argmin(ok)) if not ok.all() else len(fields)


def _equals(a, start, end, word: bytes) -> np.ndarray:
    """Whether each field ``a[start:end]`` is ``word``."""
    same = end - start == len(word)
    window = sliding_window_view(a, len(word))[start[same]]
    same[same] = (window == np.frombuffer(word, np.uint8)).all(axis=1)
    return same


def _scores(a, fields):
    """``(scores, bad)``: ``float`` of field 2 of each row, and the first row
    whose field ``float`` rejects (the row count when there is none)."""
    start, end = fields[:, 2], fields[:, 3] - 1
    n = len(start)
    # each field and the byte after it, which becomes a comma
    size = end + 1 - start
    runs = np.stack([start - np.append(0, end[:-1] + 1), size], axis=1).ravel()
    text = a[: int(end[-1]) + 1 if n else 0][np.repeat(np.tile([False, True], n), runs)]
    seps = np.cumsum(size) - 1
    text[seps] = _COMMA
    commas = np.flatnonzero(text == _COMMA)
    good = n  # the rows before the first field holding a comma, which float rejects
    if len(commas) > n:
        good = int(np.searchsorted(seps, commas[np.argmax(commas[:n] != seps)]))
    scores = np.empty(n)
    for s in range(0, good, _BLOCK_SCORES):
        e = min(s + _BLOCK_SCORES, good)
        raw = bytearray(b",") + text[seps[s - 1] + 1 if s else 0 : seps[e - 1] + 1].tobytes()
        try:
            textfloats.parse_bytes(raw, scores[s:e])
        except textfloats.MalformedToken as exc:
            return scores, s + exc.index
    return scores, good


def _keys(data: bytes, a, fields) -> TrialKeys:
    model_ids, models = _column(data, a, fields[:, 0], fields[:, 1] - 1)
    test_ids, tests = _column(data, a, fields[:, 1], fields[:, 2] - 1)
    return TrialKeys(model_ids, test_ids, models, tests)


def _column(data: bytes, a, start, end):
    """``(table, codes)``: the distinct texts of the fields ``a[start:end]``
    in order of first appearance, and the index of each field's text there.

    Each field is keyed by its length byte and its NUL-padded bytes, read as
    uint64 words and hashed to one.  Fields too long for that, and keys two
    of which share a hash, are compared as bytes objects instead."""
    lens = end - start
    width = int(lens.max(initial=0))
    words = width // 8 + 1
    if width < 256 and len(lens) * words * 8 <= 2 * len(a) + (1 << 16):
        keyed = np.zeros((len(lens), words * 8), np.uint8)
        keyed[:, 0] = lens
        padded = keyed[:, 1 : width + 1]
        padded[:] = sliding_window_view(a, max(width, 1))[start, :width]
        padded[np.arange(width) >= lens[:, None]] = 0
        key = keyed.view(np.uint64)
        hashed = key[:, 0].copy()
        for j in range(1, words):
            hashed *= _MIX
            hashed ^= key[:, j]
        first, codes = first_appearance(hashed)
        if np.array_equal(key[first][codes], key):
            bounds = zip(start[first].tolist(), end[first].tolist())
            return tuple(data[s:e].decode("utf-8") for s, e in bounds), codes
    table: dict[bytes, int] = {}
    bounds = zip(start.tolist(), end.tolist())
    codes = np.fromiter((table.setdefault(data[s:e], len(table)) for s, e in bounds), np.intp)
    return tuple(t.decode("utf-8") for t in table), codes


def write(path, fmt: str, keys: TrialKeys, scores=None, labels=None):
    """Write a ``fmt`` file with one row per trial of ``keys``: its model id,
    its test id, the ``repr`` of its score (when ``scores`` is given) and its
    label (when ``labels`` is), tab-separated.  The ids the trials use are
    checked before the file is opened, model ids first, each in order of
    first appearance."""
    models, tests = _table(keys.model_ids), _table(keys.test_ids)
    ids = [("model_id", _used(keys.model_ids, keys.models))]
    ids.append(("utt_id", _used(keys.test_ids, keys.tests)))
    width = models[0].shape[1] + tests[0].shape[1] + 64

    def rows():
        step = max(1, _BLOCK_BYTES // width)
        for s in range(0, len(keys), step):
            block = slice(s, s + step)
            pieces = [_pick(models, keys.models[block]), _TAB_PIECE]
            pieces.append(_pick(tests, keys.tests[block]))
            if scores is not None:
                out, keep = textfloats.slots(scores[block])
                pieces += [_TAB_PIECE, (out[:, :-1], keep[:, :-1])]
            if labels is not None:
                pieces.append(_pick(_LABELS, labels[block].astype(np.intp)))
            pieces.append(_NEWLINE_PIECE)
            yield _join(len(pieces[0][0]), pieces)

    _write_text(path, fmt, rows(), ids)


def _used(table, codes) -> list[str]:
    """The ids of ``table`` that ``codes`` use, in order of first use."""
    return [table[c] for c in codes[first_appearance(codes)[0]].tolist()]


def _table(texts):
    """``(matrix, keep)``: the UTF-8 bytes of each text as a NUL-padded row of
    a uint8 matrix, and which of them are the text's."""
    texts = [t.encode("utf-8") for t in texts]
    lens = np.array([len(t) for t in texts], np.intp)
    width = max(int(lens.max(initial=0)), 1)
    matrix = np.array(texts, f"S{width}").view(np.uint8).reshape(len(texts), width)
    return matrix, np.arange(width) < lens[:, None]


def _pick(table, codes):
    return table[0][codes], table[1][codes]


def _join(n: int, pieces) -> str:
    """The text of ``n`` rows, each the kept bytes of its row of each
    ``(matrix, keep)`` piece in turn (a piece of one row serves every row)."""
    widths = [matrix.shape[1] for matrix, _ in pieces]
    matrix = np.empty((n, sum(widths)), np.uint8)
    keep = np.empty((n, sum(widths)), bool)
    at = 0
    for (m, k), w in zip(pieces, widths):
        matrix[:, at : at + w] = m
        keep[:, at : at + w] = k
        at += w
    return matrix[keep].tobytes().decode("utf-8")


_TAB_PIECE, _NEWLINE_PIECE, _LABELS = (
    _table(texts) for texts in (["\t"], ["\n"], [f"\t{LABEL_NONTARGET}", f"\t{LABEL_TARGET}"])
)
