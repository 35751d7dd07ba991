"""Bit-exact file formats tying the pipeline stages together.

Every file starts with a one-line ``#fmt:<name>:<version>`` header.  Text
formats are tab-separated with floats serialized as shortest round-trip
decimals, so write-then-read reproduces values exactly.  The binary
embedding format exists for volume: it stores vectors as little-endian
float32 (a documented quantization) with a string table for ids, and
re-writing what was read reproduces the file byte for byte.

The text vector readers (embeddings and prototypes) return ``float``'s
value of every vector field's text, bit for bit, and raise where it raises.
They read their file once, ``ROW_BLOCK`` rows at a time, with one token
pass of :mod:`.textfloats` per block, which finds the values of the shape
``-?D+(.D+)?`` with at most 19 ASCII digits (less the ``0`` of ``0.xxx``)
and counts each row's values.  The rows a reader keeps are converted from
the same pass, into storage that grows with the rows kept: such values
through numpy, every other value through ``float``.  Of the rows it drops,
only the values of other shapes (and each row's first) go through
``float``, to check them.  The trial and score readers, and the one text writer of the
four table files (embeddings, prototypes, trials and scores), work on
columns through :mod:`.tsvcolumns`: trial keys are a :class:`.TrialKeys`,
codes into tables of the distinct ids, no row becomes a Python object, and
every float is written as its ``repr`` by :func:`.textfloats.slots`.

A reader imports the domain type it builds, and a text vector reader
:mod:`.textfloats`, a table writer :mod:`.tsvcolumns` and the binary and
JSON codecs ``struct`` and ``json``, inside its body, so a stage loads only
the modules of the files it reads and writes.
"""

from __future__ import annotations

import os
import stat
from pathlib import Path
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from .errors import DimensionMismatch, FormatError, ValidationError, VersionUnsupported
from .vecmath import NORM_EPS, ROW_BLOCK, Domain, EmbeddingIds, EmbeddingTable, Language
from .vecmath import PrototypeMatrix, check_columns, check_row_norms, frozen_rows

if TYPE_CHECKING:
    from .calibration import CalibrationModel
    from .lid import GaussianBackend
    from .planner import BatchManifest
    from .scores import ScoreSet, TrialKeys
    from .scoring import Cohort, LanguageOffset

FORMAT_VERSIONS = {
    "embeddings": 1,
    "embeddings-bin": 1,
    "prototypes": 1,
    "trials": 1,
    "enroll": 1,
    "lid": 1,
    "scores": 1,
    "manifest": 1,
    "gb-model": 1,
    "cal-model": 1,
    "alpha": 1,
    "metrics": 1,
}

_BIN_MAGIC = b"SVEB"
_DOMAINS = list(Domain)
_LANGUAGES = list(Language)


def _fmt_header(name: str) -> str:
    return f"#fmt:{name}:{FORMAT_VERSIONS[name]}"


def _parse_header(line: str, expected: str) -> int:
    parts = line.strip().split(":")
    if len(parts) != 3 or parts[0] != "#fmt":
        raise FormatError(f"missing #fmt header, got {line.strip()!r}")
    name, version = parts[1], parts[2]
    if name != expected:
        raise FormatError(f"expected format {expected!r}, file holds {name!r}")
    try:
        v = int(version)
    except ValueError:
        raise FormatError(f"malformed format version {version!r}") from None
    if v != FORMAT_VERSIONS[expected]:
        raise VersionUnsupported(f"{expected} version {v} is not supported")
    return v


def _check_id(value: str, what: str) -> str:
    # a leading '#' would make the row read back as a comment
    if value.split() != [value] or value.startswith("#"):
        raise FormatError(f"{what} {value!r} is empty, contains whitespace or starts with '#'")
    return value


def _f(x: float) -> str:
    """Shortest decimal that round-trips the float64 exactly."""
    return repr(float(x))


def _write_text(path, fmt: str, lines, ids=()):
    """Write the ``#fmt`` header and ``lines`` (each ending in a newline).

    ``ids`` holds ``(what, values)`` id columns, each checked once per distinct
    value before the directory is made or the file opened.  ``lines`` is
    written as it is generated, so a writer makes every other value check
    before the call: a refused payload leaves no file and no new directory.
    """
    for what, values in ids:
        for value in dict.fromkeys(values):
            _check_id(value, what)
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    with open(p, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_fmt_header(fmt) + "\n")
        fh.writelines(lines)


def _rows(path, fmt: str, what: str, count: int):
    """The tab-separated fields of each data row of a ``fmt`` file, each of
    ``count`` fields."""
    for line in _data_lines(path, fmt):
        parts = line.split("\t")
        if len(parts) != count:
            raise FormatError(f"{what} row needs {count} fields, got {len(parts)}")
        yield parts


def _regular(path):
    """``path``, refused unless it is a regular file: the embedding readers
    open their file twice, once to sniff its header and once to read it, and
    would lose to a pipe the bytes the sniff took, or wait for a writer that
    is gone; every text vector reader refuses a pipe alike."""
    if not stat.S_ISREG(os.stat(path).st_mode):
        raise FormatError(f"{path} is not a regular file")
    return path


#: a block of unpicked rows is checked once its text reaches this size
#: (about 9 rows at D = 256): the token pass's temporaries, two to three
#: times the text, are then the bulk of a read that keeps no values
_UNPICKED_BYTES = 48 << 10
#: a row of values of magnitude at most this has a finite norm for every
#: dimension below 1e100 (its sum of squares is at most D * 1e200)
_NORM_SAFE = 1e100


def _vector_scan(path, fmt: str, n_fields: int, convert=lambda head: True):
    """The one pass over the rows of a text vector file, each of ``n_fields``
    tab-separated fields, checking field count and dimension on every row.

    Returns ``(heads, rows, values, later)``: the leading fields of every row;
    the indices of the rows whose leading fields ``convert`` picks, and their
    values as a read-only (rows, D) float64 matrix; and the values of the
    other rows that the caller must still check, as a (later rows, D) matrix.
    The rows go through :func:`_vector_block` ``ROW_BLOCK`` at a time, or,
    while none of them is picked, once their text reaches
    ``_UNPICKED_BYTES``; the values are appended to a ``bytearray``, so the
    file is read once and the values take the room of the rows kept.  A
    field count error is raised after the rows before it are checked, so the
    first defective row in the file wins.
    """
    heads: list[list[str]] = []
    picked: list[bool] = []
    block = bytearray(b",")  # the vector fields of the rows not yet checked, each and a comma
    starts: list[int] = []  # where each of those fields starts in ``block``
    dim, values, later = 0, bytearray(), bytearray()

    def flush():
        nonlocal dim
        if starts:
            first = len(heads) - len(starts)
            names = [head[0] for head in heads[first:]]
            dim = _vector_block(block, starts, np.array(picked[first:]), names, fmt, dim, values, later)
            del block[1:], starts[:]

    try:
        for parts in _rows(_regular(path), fmt, fmt, n_fields):
            heads.append(parts[:-1])
            picked.append(convert(heads[-1]))
            starts.append(len(block))
            block += parts[-1].encode("utf-8", "surrogatepass")
            block += b","
            if len(starts) == ROW_BLOCK or len(block) >= _UNPICKED_BYTES and not any(
                picked[-len(starts) :]
            ):
                flush()
    except FormatError:
        flush()  # a defect in a row before the failing one comes first
        raise
    flush()
    rows = [r for r, pick in enumerate(picked) if pick]
    return heads, rows, _matrix(values, dim), _matrix(later, dim)


def _vector_block(raw, starts, picked, names, fmt: str, dim: int, values, later) -> int:
    """Check the vector fields of consecutive rows, named ``names``, in the
    UTF-8 ``raw``, where each starts at its offset in ``starts`` after a
    comma and ends at a comma, with one :func:`.textfloats.tokens` pass;
    append the values of the ``picked`` rows to ``values`` and those of the
    other rows that may fail the caller's checks to ``later``.  Returns the
    dimension: ``dim``, or the first row's value count when ``dim`` is 0.

    The first defective row wins, and in one row a wrong value count wins
    over a malformed value (FormatError): one ``float`` pass over the tokens
    that are not fast (a fast token is finite and at most 1e19) finds the
    first malformed row, and a wrong count at or before it is reported in
    its place.  Every row's first token goes through ``float`` too; a row is
    converted when it is picked, or into ``later`` when one of its values is
    not finite or above ``_NORM_SAFE`` in magnitude, or its first value, a
    bound of its norm, is at most ``2 * NORM_EPS``.  Every other row has a
    finite norm above ``NORM_EPS``.  It overwrites ``raw``.
    """
    from . import textfloats

    found = textfloats.tokens(raw)
    first = np.searchsorted(found.start, starts)  # each row's first token
    counts = np.diff(first, append=len(found.start))
    dim = dim or int(counts[0])
    slow = np.flatnonzero(~found.fast)
    try:
        loose, bad = textfloats.floats(raw, found, slow), len(starts)
    except textfloats.MalformedToken as exc:
        bad = np.searchsorted(first, exc.index, "right") - 1  # the first malformed row
    wrong = np.flatnonzero(counts[: bad + 1] != dim)
    if len(wrong):
        r = int(wrong[0])
        raise FormatError(
            f"mixed dimensions: {fmt} row {names[r]!r} has {counts[r]} values, earlier rows {dim}"
        )
    if bad < len(starts):
        raise FormatError(f"malformed vector in {fmt} row {names[bad]!r}")
    late = np.abs(textfloats.floats(raw, found, first)) <= 2 * NORM_EPS
    late[np.searchsorted(first, slow[~(np.abs(loose) <= _NORM_SAFE)], "right") - 1] = True
    late &= ~picked
    if picked.any() or late.any():
        block = textfloats.convert(raw, found, np.empty(len(found.start))).reshape(-1, dim)
        values.extend(block[picked].data)
        later.extend(block[late].data)
    return dim


def _columns(heads, fmt: str) -> list:
    """One column per leading field of the ``heads`` rows, the last two (Domain,
    then Language) converted; no rows give the four columns of embeddings."""
    *ids, domains, languages = list(zip(*heads)) or [()] * 4
    return [*ids, _enum_column(Domain, domains, fmt), _enum_column(Language, languages, fmt)]


def _matrix(buffer: bytearray, dim: int) -> np.ndarray:
    """The float64 values in ``buffer``, rows of ``dim``, as a read-only (n, D) array."""
    values = np.frombuffer(buffer).reshape(-1, dim) if dim else np.empty((0, 0))
    values.setflags(write=False)
    return values


def _data_lines(path, fmt: str, keep: tuple[str, ...] = ()):
    """The non-empty lines after the header, less the ``#`` comment lines that
    do not start with one of ``keep``."""
    path = Path(path)
    with open(path, encoding="utf-8") as fh:
        try:
            header = fh.readline()
            _parse_header(header, fmt)
            for raw in fh:
                line = raw.rstrip("\n")
                if not line or line.startswith("#") and not line.startswith(keep):
                    continue
                yield line
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path} is not valid UTF-8: {exc.reason}") from None


def _utf8(raw, where: str) -> str:
    try:
        return str(raw, "utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{where} is not valid UTF-8: {exc.reason}") from None


def _enum_column(enum_cls, texts, where: str) -> list:
    by_value = {member.value: member for member in enum_cls}
    try:
        return [by_value[t] for t in texts]
    except KeyError as exc:
        raise FormatError(f"unknown {enum_cls.__name__} {exc.args[0]!r} in {where}") from None


# -- embeddings (text) -------------------------------------------------------


def write_embeddings_text(path, table: EmbeddingTable):
    from . import tsvcolumns

    ids = [("utt_id", table.utt_ids), ("speaker_id", table.speaker_ids)]
    tsvcolumns.write_vectors(path, "embeddings", ids, table)


def read_embeddings_text(path) -> EmbeddingTable:
    """Every row of the file through :func:`_vector_scan`, converted."""
    heads, _, values, _ = _vector_scan(path, "embeddings", 5)
    return EmbeddingTable(*_columns(heads, "embeddings"), values)


# -- embeddings (binary) ------------------------------------------------------

#: One record of the binary container: utt and speaker string-table
#: indices, then Domain and Language indices in declaration order.
_BIN_RECORD = np.dtype([("utt", "<u4"), ("spk", "<u4"), ("dom", "u1"), ("lang", "u1")])


def write_embeddings_binary(path, table: EmbeddingTable):
    """float32 vector payload plus a string table for utterance/speaker ids.

    Layout after the header line: magic ``SVEB``, u16 version, u32 dim,
    u64 count, count*dim little-endian float32 row-major, then the string
    table (u32 count, each u32 length + UTF-8 bytes) and per-record id/enum
    references (u32 utt, u32 speaker, u8 domain, u8 language).
    """
    import struct

    strings: dict[str, int] = {}

    def intern(s: str) -> int:
        return strings.setdefault(_check_id(s, "id"), len(strings))

    ids = [(intern(u), intern(s)) for u, s in zip(table.utt_ids, table.speaker_ids)]
    records = np.zeros(len(table), dtype=_BIN_RECORD)
    records["utt"], records["spk"] = np.array(ids, dtype=np.uint32).reshape(-1, 2).T
    records["dom"] = [_DOMAINS.index(d) for d in table.domains]
    records["lang"] = [_LANGUAGES.index(lang) for lang in table.languages]
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    with open(p, "wb") as fh:
        fh.write((_fmt_header("embeddings-bin") + "\n").encode("utf-8"))
        fh.write(_BIN_MAGIC)
        fh.write(struct.pack("<HIQ", FORMAT_VERSIONS["embeddings-bin"], table.dim, len(table)))
        fh.write(table.vectors.astype("<f4").tobytes(order="C"))
        fh.write(struct.pack("<I", len(strings)))
        for s in strings:
            raw = s.encode("utf-8")
            fh.write(struct.pack("<I", len(raw)))
            fh.write(raw)
        fh.write(records.tobytes())


def _read_binary(path):
    """The float32 (count, dim) vectors and the four id columns, checked."""
    import struct

    p = Path(path)
    with open(p, "rb") as fh:
        raw = fh.read()  # all at once: a read after a readline would copy the payload
    end = raw.find(b"\n") + 1 or len(raw)
    _parse_header(_utf8(raw[:end], f"header of {p}"), "embeddings-bin")
    payload = memoryview(raw)[end:]  # slices below are views, not copies

    def take(n: int, what: str) -> bytes:
        nonlocal offset
        if offset + n > len(payload):
            raise FormatError(f"truncated binary embeddings file while reading {what}")
        offset += n
        return payload[offset - n : offset]

    offset = 0
    if take(4, "magic") != _BIN_MAGIC:
        raise FormatError("bad magic in binary embeddings file")
    version, dim, count = struct.unpack("<HIQ", take(14, "sizes"))
    if version != FORMAT_VERSIONS["embeddings-bin"]:
        raise VersionUnsupported(f"embeddings-bin version {version} is not supported")
    mat = np.frombuffer(take(4 * dim * count, "vectors"), dtype="<f4").reshape(count, dim)
    (n_strings,) = struct.unpack("<I", take(4, "string table size"))
    strings = []
    for _ in range(n_strings):
        (slen,) = struct.unpack("<I", take(4, "string length"))
        strings.append(_utf8(take(slen, "string"), f"string table of {p}"))
    rec = np.frombuffer(take(_BIN_RECORD.itemsize * count, "records"), dtype=_BIN_RECORD)
    if offset != len(payload):
        raise FormatError("trailing bytes after binary embeddings payload")
    bad = np.maximum(rec["utt"], rec["spk"]) >= n_strings
    bad |= (rec["dom"] >= len(_DOMAINS)) | (rec["lang"] >= len(_LANGUAGES))
    if bad.any():
        raise FormatError(f"record {int(bad.argmax())} references a missing table entry")
    tables = {"utt": strings, "spk": strings, "dom": _DOMAINS, "lang": _LANGUAGES}
    return mat, *(tuple(values[i] for i in rec[c].tolist()) for c, values in tables.items())


def read_embeddings_binary(path) -> EmbeddingTable:
    mat, *columns = _read_binary(path)
    vectors = mat.astype(np.float64)
    vectors.setflags(write=False)
    return EmbeddingTable(*columns, vectors)


def _is_binary(path) -> bool:
    """Whether the :func:`_regular` file ``path`` holds binary embeddings; its
    reader opens it again."""
    with open(_regular(path), "rb") as fh:
        return fh.readline().startswith(b"#fmt:embeddings-bin:")


def read_embeddings(path) -> EmbeddingTable:
    """Dispatch on the header line: text or binary embedding file."""
    return (read_embeddings_binary if _is_binary(path) else read_embeddings_text)(path)


_DOMAIN_OF = {d.value: d for d in Domain}


def read_embedding_ids(path) -> EmbeddingIds:
    """The id columns of :func:`read_embeddings` after its checks, in its order,
    and the writers' id check, without building the float64 vectors: on a text
    file :func:`_vector_scan` converts no row, only its ``later`` ones."""
    if _is_binary(path):
        mat, utts, speakers, _, _ = _read_binary(path)
        finite = np.isfinite(mat).all()
    else:
        heads, _, _, later = _vector_scan(path, "embeddings", 5, lambda head: False)
        utts, speakers, _, _ = _columns(heads, "embeddings")
        finite = np.isfinite(later).all()
    check_columns(finite, utts, speakers)
    for r, (utt, spk) in enumerate(zip(utts, speakers)):
        _check_id(utt, f"embeddings row {r} utt_id")
        _check_id(spk, f"embeddings row {r} speaker_id")
    return EmbeddingIds(utts, speakers)


def read_cohort(path, domains=None) -> Cohort:
    """``Cohort.from_embeddings(read_embeddings(path), domains)``: the same
    cohort or the same error.  On a text file with ``domains``,
    :func:`_vector_scan` converts the rows of each speaker whose first row's
    Domain is in ``domains``; only its ``later`` rows join the norm check."""
    from .scoring import Cohort

    if domains is None or _is_binary(path):
        return Cohort.from_embeddings(read_embeddings(path), domains)
    domains, kept = tuple(domains), {}

    def convert(head):
        return kept.setdefault(head[1], _DOMAIN_OF.get(head[2]) in domains)

    heads, rows, values, later = _vector_scan(path, "embeddings", 5, convert)
    columns = _columns(heads, "embeddings")
    check_columns(np.isfinite(values).all() and np.isfinite(later).all(), *columns[:2])
    if len(later):  # every norm at or below NORM_EPS, or infinite, is among these rows
        check_row_norms(np.concatenate([values, later]))
    picked = ([col[r] for r in rows] for col in columns)
    return Cohort.from_embeddings(EmbeddingTable(*picked, values), domains)


# -- prototypes ---------------------------------------------------------------


def write_prototypes(path, protos: PrototypeMatrix):
    from . import tsvcolumns

    tsvcolumns.write_vectors(path, "prototypes", [("speaker_id", protos.speaker_ids)], protos)


def read_prototypes(path) -> PrototypeMatrix:
    """Every row of the file through :func:`_vector_scan`, converted."""
    heads, _, values, _ = _vector_scan(path, "prototypes", 4)
    if not heads:
        raise FormatError("prototype file holds no rows")
    return PrototypeMatrix(*_columns(heads, "prototypes"), values)


# -- trials and enrollment map ------------------------------------------------


def write_trials(path, trials: TrialKeys | Sequence[tuple[str, str]], labels=None):
    """``trials``: a :class:`TrialKeys` or (model id, test id) pairs;
    ``labels``: one bool per trial (True = target), or None for an unlabeled
    file."""
    from . import tsvcolumns
    from .scores import TrialKeys

    if labels is not None and len(labels) != len(trials):
        raise FormatError(f"{len(labels)} labels for {len(trials)} trials")
    tsvcolumns.write_keys(path, "trials", TrialKeys.of(trials), labels=labels)


def read_trials(path) -> tuple[TrialKeys, np.ndarray | None]:
    """Returns (trial keys, labels or None): the labels are one read-only bool
    array aligned with the trials, and are all-or-nothing.  A file with no
    rows is refused.  The rows are read as columns by :mod:`.tsvcolumns`."""
    from . import tsvcolumns

    return tsvcolumns.read_trials(path)


def write_enroll_map(path, enrollment_map: Mapping[str, Sequence[str]]):
    pairs = list(_unrepeated((m, u) for m, utt_ids in enrollment_map.items() for u in utt_ids))
    ids = [("model_id", [m for m, _ in pairs]), ("utt_id", [u for _, u in pairs])]
    _write_text(path, "enroll", (f"{m}\t{u}\n" for m, u in pairs), ids)


def read_enroll_map(path) -> dict[str, tuple[str, ...]]:
    out: dict[str, list[str]] = {}
    for model_id, utt_id in _unrepeated(_rows(path, "enroll", "enroll", 2)):
        out.setdefault(model_id, []).append(utt_id)
    return {m: tuple(u) for m, u in out.items()}


def _unrepeated(pairs):
    """The ``(model, utterance)`` pairs, refusing a repeated one, which the
    model's mean would count twice."""
    seen = set()
    for m, u in pairs:
        if (m, u) in seen:
            raise FormatError(f"duplicate enrollment of {u!r} for model {m!r}")
        seen.add((m, u))
        yield m, u


# -- LID decisions ------------------------------------------------------------


def write_lid_decisions(path, decisions: Mapping[str, tuple[Language, float]]):
    """An empty mapping is refused, as :func:`read_lid_decisions` refuses a
    file with no rows."""
    if not decisions:
        raise FormatError("LID file holds no rows")
    for utt_id, (language, llr) in decisions.items():
        if language not in (Language.FARSI, Language.ENGLISH):
            raise FormatError(f"LID decision must be FARSI or ENGLISH, got {language}")
        if not np.isfinite(llr):
            raise FormatError(f"non-finite llr for {utt_id!r}")
    lines = (f"{u}\t{lang.value}\t{_f(llr)}\n" for u, (lang, llr) in decisions.items())
    _write_text(path, "lid", lines, [("utt_id", decisions)])


def read_lid_decisions(path) -> dict[str, tuple[Language, float]]:
    out: dict[str, tuple[Language, float]] = {}
    for utt_id, language, llr in _rows(path, "lid", "LID", 3):
        (lang,) = _enum_column(Language, [language], "lid")
        if lang not in (Language.FARSI, Language.ENGLISH):
            raise FormatError(f"LID decision must be FARSI or ENGLISH, got {language!r}")
        try:
            value = float(llr)
        except ValueError:
            raise FormatError(f"malformed llr for {utt_id!r}") from None
        if not np.isfinite(value):
            raise FormatError(f"non-finite llr for {utt_id!r}")
        if utt_id in out:
            raise FormatError(f"duplicate LID decision for {utt_id!r}")
        out[utt_id] = (lang, value)
    if not out:
        raise FormatError("LID file holds no rows")
    return out


# -- scores -------------------------------------------------------------------


def write_scores(path, scores: ScoreSet):
    from . import tsvcolumns

    tsvcolumns.write_keys(path, "scores", scores.keys, scores.scores, scores.labels)


def read_scores(path) -> ScoreSet:
    """The rows are read as columns by :mod:`.tsvcolumns`."""
    from . import tsvcolumns

    return tsvcolumns.read_scores(path)


# -- batch manifests ----------------------------------------------------------


def write_manifests(path, manifests: Sequence[BatchManifest]):
    """One row per entry (pass_id, batch_idx, pos, utt_id, speaker_idx);
    a ``#pass`` meta line carries each pass's similarity epoch tag."""

    def lines():
        for man in manifests:
            yield f"#pass\t{man.pass_id}\t{man.epoch_tag}\n"
            for b, batch in enumerate(man.batches):
                rows = (f"{man.pass_id}\t{b}\t{i}\t{u}\t{s}\n" for i, (u, s) in enumerate(batch))
                yield "".join(rows)

    utt_ids = (u for man in manifests for batch in man.batches for u, _ in batch)
    _write_text(path, "manifest", lines(), [("utt_id", utt_ids)])


def read_manifests(path) -> list[BatchManifest]:
    from .planner import BatchManifest

    passes: dict[int, tuple[int, dict]] = {}  # pass_id -> (epoch tag, batches), in file order
    for line in _data_lines(path, "manifest", ("#pass\t",)):
        parts = line.split("\t")
        if parts[0] == "#pass":
            if len(parts) != 3:
                raise FormatError("malformed #pass meta line")
            try:
                pass_id, epoch_tag = int(parts[1]), int(parts[2])
            except ValueError:
                raise FormatError("malformed #pass meta line") from None
            if pass_id in passes:
                raise FormatError(f"duplicate #pass line for pass {pass_id}")
            passes[pass_id] = (epoch_tag, {})
            continue
        if len(parts) != 5:
            raise FormatError(f"manifest row needs 5 fields, got {len(parts)}")
        try:
            pass_id, batch_idx, pos = int(parts[0]), int(parts[1]), int(parts[2])
            speaker_idx = int(parts[4])
        except ValueError:
            raise FormatError("malformed manifest row") from None
        if pass_id not in passes:
            raise FormatError(f"manifest row for pass {pass_id} before its #pass line")
        batch = passes[pass_id][1].setdefault(batch_idx, [])
        if pos != len(batch):
            raise FormatError(
                f"manifest positions out of order in pass {pass_id} batch {batch_idx}"
            )
        batch.append((parts[3], speaker_idx))
    out = []
    for pass_id, (epoch_tag, batches) in passes.items():
        if sorted(batches) != list(range(len(batches))):
            raise FormatError(f"pass {pass_id} has non-consecutive batch indices")
        out.append(
            BatchManifest(
                batches=tuple(tuple(batches[b]) for b in range(len(batches))),
                pass_id=pass_id,
                epoch_tag=epoch_tag,
            )
        )
    return out


# -- Gaussian backend model ---------------------------------------------------


def write_gb_model(path, gb: GaussianBackend):
    """The bytes of ``json.dumps(body, sort_keys=True)`` for the body
    :func:`read_gb_model` reads, made by the C encoder behind ``json.dumps``
    one covariance row at a time (``shared_cov`` is the last key)."""
    import json

    head = {key: getattr(gb, key) for key in ("diagonal", "dim", "interpolation_weight")}
    for key in ("mu_english_effective", "mu_farsi", "mu_usa"):
        head[key] = getattr(gb, key).tolist()

    def chunks():
        yield json.dumps(head, sort_keys=True)[:-1] + ', "shared_cov": ['
        for i, row in enumerate(gb.shared_cov):
            yield (", " if i else "") + json.dumps(row.tolist())
        yield "]}\n"

    _write_text(path, "gb-model", chunks())


def read_gb_model(path) -> GaussianBackend:
    import json

    from .lid import GaussianBackend

    p = Path(path)
    with open(p, encoding="utf-8") as fh:
        try:
            _parse_header(fh.readline(), "gb-model")
            body = json.load(fh)
        except (ValueError, RecursionError) as exc:  # also JSONDecodeError, UnicodeDecodeError
            raise FormatError(f"malformed backend model: {exc}") from None
    try:
        dim, diagonal, weight = body["dim"], body["diagonal"], body["interpolation_weight"]
        if type(diagonal) is not bool:
            raise FormatError(f"backend model diagonal {json.dumps(diagonal)} is not true or false")
        if type(weight) not in (int, float) or not 0.0 <= weight <= 1.0:  # bool is an int
            w = json.dumps(weight)
            raise FormatError(f"backend model interpolation_weight {w} is not a number in [0, 1]")
        mu_en = np.array(body["mu_english_effective"], dtype=np.float64)
        gb = GaussianBackend(  # each list becomes one read-only array, by frozen_rows
            mu_farsi=body["mu_farsi"],
            mu_usa=body["mu_usa"],
            shared_cov=body["shared_cov"],
            interpolation_weight=float(weight),
            diagonal=diagonal,
        )
    except KeyError as exc:
        raise FormatError(f"backend model missing field {exc}") from None
    except (ValueError, TypeError, OverflowError) as exc:  # OverflowError: an int beyond float64
        raise FormatError(f"malformed backend model field: {exc}") from None
    if mu_en.shape != (gb.dim,):
        raise DimensionMismatch("backend mean/covariance shapes disagree")
    if not np.isfinite(mu_en).all():
        raise ValidationError("backend means and covariance must be finite")
    if not np.array_equal(mu_en, gb.mu_english_effective):
        raise ValidationError("effective English mean deviates from its interpolation")
    if type(dim) is not int or dim != gb.dim:
        raise FormatError(
            f"backend model dim {json.dumps(dim)} is not its vector length {gb.dim}"
        )
    return gb


# -- calibration model, language offset, metrics record ------------------------


def _write_kv(path, fmt: str, pairs: Sequence[tuple[str, str]]):
    for key, value in pairs:
        if "\t" in value or "\r" in value or "\n" in value:  # would split the row on reading
            raise FormatError(f"{fmt} value of {key!r} contains a tab or line break: {value!r}")
    _write_text(path, fmt, (f"{key}\t{value}\n" for key, value in pairs))


def _read_kv(path, fmt: str, required: Sequence[str]) -> dict[str, str]:
    out: dict[str, str] = {}
    for key, value in _rows(path, fmt, fmt, 2):
        if key in out:
            raise FormatError(f"duplicate {fmt} key {key!r}")
        out[key] = value
    missing = [k for k in required if k not in out]
    if missing:
        raise FormatError(f"{fmt} file is missing keys: {', '.join(missing)}")
    return out


def write_cal_model(path, model: CalibrationModel):
    _write_kv(
        path,
        "cal-model",
        [("a", _f(model.a)), ("b", _f(model.b)), ("trained_on", model.trained_on or "-")],
    )


def read_cal_model(path) -> CalibrationModel:
    from .calibration import CalibrationModel

    kv = _read_kv(path, "cal-model", ["a", "b"])
    try:
        a, b = float(kv["a"]), float(kv["b"])
    except ValueError:
        raise FormatError("malformed calibration parameters") from None
    trained_on = kv.get("trained_on", "-")
    return CalibrationModel(a=a, b=b, trained_on="" if trained_on == "-" else trained_on)


def write_alpha(path, offset: LanguageOffset):
    pairs = [("alpha", _f(offset.alpha))]
    if offset.provenance is not None:
        prov = offset.provenance
        pairs += [
            ("top_n", str(prov.top_n)),
            ("n_farsi", str(prov.n_farsi)),
            ("n_usa", str(prov.n_usa)),
            ("mu_imposter_farsi", _f(prov.mu_imposter_farsi)),
            ("mu_imposter_usa", _f(prov.mu_imposter_usa)),
        ]
    _write_kv(path, "alpha", pairs)


def read_alpha(path) -> LanguageOffset:
    from .scoring import AlphaProvenance, LanguageOffset

    kv = _read_kv(path, "alpha", ["alpha"])
    try:
        alpha = float(kv["alpha"])
        provenance = None
        if "top_n" in kv:
            provenance = AlphaProvenance(
                top_n=int(kv["top_n"]),
                n_farsi=int(kv["n_farsi"]),
                n_usa=int(kv["n_usa"]),
                mu_imposter_farsi=float(kv["mu_imposter_farsi"]),
                mu_imposter_usa=float(kv["mu_imposter_usa"]),
            )
    except (ValueError, KeyError):
        raise FormatError("malformed alpha file") from None
    if provenance is not None:  # what estimate_alpha enforces and writes
        p = provenance
        if not np.isfinite([p.mu_imposter_farsi, p.mu_imposter_usa]).all():
            raise FormatError("alpha file holds a non-finite imposter mean")
        if p.top_n < 2 or p.n_usa < 1 or p.n_farsi < p.top_n + 1:
            raise FormatError(
                f"alpha counts out of range: top_n {p.top_n}, n_farsi {p.n_farsi}, n_usa {p.n_usa}"
            )
        if alpha != p.mu_imposter_farsi - p.mu_imposter_usa:
            raise FormatError("alpha is not mu_imposter_farsi - mu_imposter_usa")
    return LanguageOffset(alpha=alpha, provenance=provenance)


def write_metrics_record(path, record: Mapping[str, float | int]):
    pairs = [(key, str(v) if isinstance(v, int) else _f(v)) for key, v in record.items()]
    _write_kv(path, "metrics", pairs)


def read_metrics_record(path) -> dict[str, float]:
    kv = _read_kv(path, "metrics", [])
    try:
        return {k: float(v) for k, v in kv.items()}
    except ValueError:
        raise FormatError("malformed metrics record") from None
