"""Bit-exact file formats tying the pipeline stages together.

Every file starts with a one-line ``#fmt:<name>:<version>`` header.  Text
formats are tab-separated with floats serialized as shortest round-trip
decimals, so write-then-read reproduces values exactly.  The binary
embedding format exists for volume: it stores vectors as little-endian
float32 (a documented quantization) with a string table for ids, and
re-writing what was read reproduces the file byte for byte.
"""

from __future__ import annotations

import json
import struct
from itertools import chain
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .calibration import CalibrationModel
from .errors import FormatError, VersionUnsupported
from .lid import GaussianBackend
from .planner import BatchManifest
from .prototypes import PrototypeMatrix, SpeakerInfo
from .scores import LABEL_NONTARGET, LABEL_TARGET, ScoreSet
from .scoring import AlphaProvenance, LanguageOffset
from .vecmath import Domain, EmbeddingTable, Language

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


def _vec_str(vec: np.ndarray) -> str:
    return ",".join(map(repr, vec.tolist()))  # repr of a Python float, as in _f


def _vector_rows(path, fmt: str, n_fields: int) -> tuple[list[tuple[str, ...]], np.ndarray]:
    """Rows of ``n_fields`` tab-separated fields whose last field is a
    comma-separated vector: one column per leading field, and the vectors
    as one read-only (n, D) float64 array.  The values stream through
    ``float`` into one buffer, with no per-row arrays."""
    heads: list[list[str]] = []
    counts: list[int] = []

    def vector_fields():
        for line in _data_lines(Path(path), fmt):
            parts = line.split("\t")
            if len(parts) != n_fields:
                raise FormatError(f"{fmt} row needs {n_fields} fields, got {len(parts)}")
            fields = parts[-1].split(",")
            if counts and len(fields) != counts[0]:
                raise FormatError(
                    f"mixed dimensions: {fmt} row {parts[0]!r} has {len(fields)} values, "
                    f"earlier rows {counts[0]}"
                )
            heads.append(parts[:-1])
            counts.append(len(fields))
            yield fields

    try:
        flat = np.fromiter(chain.from_iterable(map(float, f) for f in vector_fields()), np.float64)
    except ValueError:
        raise FormatError(f"malformed vector in {fmt} row {heads[-1][0]!r}") from None
    flat = flat.reshape(len(counts), counts[0] if counts else 0)
    flat.setflags(write=False)
    return list(zip(*heads)) or [()] * (n_fields - 1), flat


def _data_lines(path: Path, fmt: str):
    with open(path, encoding="utf-8") as fh:
        try:
            header = fh.readline()
            _parse_header(header, fmt)
            for raw in fh:
                line = raw.rstrip("\n")
                if not line or line.startswith("#"):
                    continue
                yield line
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path} is not valid UTF-8: {exc.reason}") from None


def _utf8(raw, where: str) -> str:
    try:
        return str(raw, "utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{where} is not valid UTF-8: {exc.reason}") from None


def _open_out(path) -> Path:
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    return p


def _enum_column(enum_cls, texts, where: str) -> list:
    by_value = {member.value: member for member in enum_cls}
    try:
        return [by_value[t] for t in texts]
    except KeyError as exc:
        raise FormatError(f"unknown {enum_cls.__name__} {exc.args[0]!r} in {where}") from None


# -- embeddings (text) -------------------------------------------------------


def write_embeddings_text(path, table: EmbeddingTable):
    p = _open_out(path)
    with open(p, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_fmt_header("embeddings") + "\n")
        for utt, spk, dom, lang, vec in zip(
            table.utt_ids, table.speaker_ids, table.domains, table.languages, table.vectors
        ):
            fh.write(
                f"{_check_id(utt, 'utt_id')}\t{_check_id(spk, 'speaker_id')}\t"
                f"{dom.value}\t{lang.value}\t{_vec_str(vec)}\n"
            )


def read_embeddings_text(path) -> EmbeddingTable:
    (utts, speakers, domains, languages), vectors = _vector_rows(path, "embeddings", 5)
    domains = _enum_column(Domain, domains, "embeddings")
    return EmbeddingTable(
        utts, speakers, domains, _enum_column(Language, languages, "embeddings"), vectors
    )


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
    strings: dict[str, int] = {}

    def intern(s: str) -> int:
        return strings.setdefault(_check_id(s, "id"), len(strings))

    ids = [(intern(u), intern(s)) for u, s in zip(table.utt_ids, table.speaker_ids)]
    records = np.zeros(len(table), dtype=_BIN_RECORD)
    records["utt"], records["spk"] = np.array(ids, dtype=np.uint32).reshape(-1, 2).T
    records["dom"] = [_DOMAINS.index(d) for d in table.domains]
    records["lang"] = [_LANGUAGES.index(lang) for lang in table.languages]
    p = _open_out(path)
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


def read_embeddings_binary(path) -> EmbeddingTable:
    p = Path(path)
    with open(p, "rb") as fh:
        header = _utf8(fh.readline(), f"header of {p}")
        _parse_header(header, "embeddings-bin")
        payload = memoryview(fh.read())  # slices below are views, not copies

    def take(n: int, what: str) -> bytes:
        nonlocal offset
        if offset + n > len(payload):
            raise FormatError(f"truncated binary embeddings file while reading {what}")
        chunk = payload[offset : offset + n]
        offset += n
        return chunk

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
    vectors = mat.astype(np.float64)
    vectors.setflags(write=False)
    return EmbeddingTable(
        utt_ids=[strings[i] for i in rec["utt"].tolist()],
        speaker_ids=[strings[i] for i in rec["spk"].tolist()],
        domains=[_DOMAINS[i] for i in rec["dom"].tolist()],
        languages=[_LANGUAGES[i] for i in rec["lang"].tolist()],
        vectors=vectors,
    )


def read_embeddings(path) -> EmbeddingTable:
    """Dispatch on the header line: text or binary embedding file."""
    p = Path(path)
    with open(p, "rb") as fh:
        head = fh.readline().decode("utf-8", errors="replace")
    if head.startswith("#fmt:embeddings-bin:"):
        return read_embeddings_binary(p)
    return read_embeddings_text(p)


# -- prototypes ---------------------------------------------------------------


def write_prototypes(path, protos: PrototypeMatrix):
    p = _open_out(path)
    with open(p, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_fmt_header("prototypes") + "\n")
        for sp, vec in zip(protos.speakers, protos.w.T):
            fh.write(
                f"{_check_id(sp.speaker_id, 'speaker_id')}\t{sp.domain.value}\t"
                f"{sp.language.value}\t{_vec_str(vec)}\n"
            )


def read_prototypes(path) -> PrototypeMatrix:
    (ids, domains, languages), vectors = _vector_rows(path, "prototypes", 4)
    if not ids:
        raise FormatError("prototype file holds no rows")
    domains = _enum_column(Domain, domains, "prototypes")
    speakers = zip(ids, domains, _enum_column(Language, languages, "prototypes"))
    return PrototypeMatrix(w=vectors.T, speakers=tuple(SpeakerInfo(*sp) for sp in speakers))


# -- trials and enrollment map ------------------------------------------------


def write_trials(
    path,
    trials: Sequence[tuple[str, str]],
    labels: Mapping[tuple[str, str], bool] | None = None,
):
    p = _open_out(path)
    with open(p, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_fmt_header("trials") + "\n")
        for model_id, utt_id in trials:
            row = [_check_id(model_id, "model_id"), _check_id(utt_id, "utt_id")]
            if labels is not None:
                row.append(LABEL_TARGET if labels[(model_id, utt_id)] else LABEL_NONTARGET)
            fh.write("\t".join(row) + "\n")


def read_trials(path):
    """Returns (trial list, labels dict or None); labels are all-or-nothing."""
    trials: list[tuple[str, str]] = []
    labels: dict[tuple[str, str], bool] = {}
    arity = None
    for line in _data_lines(Path(path), "trials"):
        parts = line.split("\t")
        if len(parts) not in (2, 3):
            raise FormatError(f"trial row needs 2 or 3 fields, got {len(parts)}")
        if arity is None:
            arity = len(parts)
        elif arity != len(parts):
            raise FormatError("trial file mixes labeled and unlabeled rows")
        key = (parts[0], parts[1])
        trials.append(key)
        if len(parts) == 3:
            if parts[2] not in (LABEL_TARGET, LABEL_NONTARGET):
                raise FormatError(f"unknown trial label {parts[2]!r}")
            labels[key] = parts[2] == LABEL_TARGET
    return trials, (labels if arity == 3 else None)


def write_enroll_map(path, enrollment_map: Mapping[str, Sequence[str]]):
    p = _open_out(path)
    with open(p, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_fmt_header("enroll") + "\n")
        for model_id, utt_ids in enrollment_map.items():
            for utt_id in utt_ids:
                fh.write(
                    f"{_check_id(model_id, 'model_id')}\t{_check_id(utt_id, 'utt_id')}\n"
                )


def read_enroll_map(path) -> dict[str, tuple[str, ...]]:
    out: dict[str, list[str]] = {}
    for line in _data_lines(Path(path), "enroll"):
        parts = line.split("\t")
        if len(parts) != 2:
            raise FormatError(f"enroll row needs 2 fields, got {len(parts)}")
        out.setdefault(parts[0], []).append(parts[1])
    return {m: tuple(u) for m, u in out.items()}


# -- LID decisions ------------------------------------------------------------


def write_lid_decisions(path, decisions: Mapping[str, tuple[Language, float]]):
    p = _open_out(path)
    with open(p, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_fmt_header("lid") + "\n")
        for utt_id, (language, llr) in decisions.items():
            if language not in (Language.FARSI, Language.ENGLISH):
                raise FormatError(f"LID decision must be FARSI or ENGLISH, got {language}")
            fh.write(f"{_check_id(utt_id, 'utt_id')}\t{language.value}\t{_f(llr)}\n")


def read_lid_decisions(path) -> dict[str, tuple[Language, float]]:
    out: dict[str, tuple[Language, float]] = {}
    for line in _data_lines(Path(path), "lid"):
        parts = line.split("\t")
        if len(parts) != 3:
            raise FormatError(f"LID row needs 3 fields, got {len(parts)}")
        (lang,) = _enum_column(Language, parts[1:2], "lid")
        if lang not in (Language.FARSI, Language.ENGLISH):
            raise FormatError(f"LID decision must be FARSI or ENGLISH, got {parts[1]!r}")
        try:
            llr = float(parts[2])
        except ValueError:
            raise FormatError(f"malformed llr for {parts[0]!r}") from None
        if parts[0] in out:
            raise FormatError(f"duplicate LID decision for {parts[0]!r}")
        out[parts[0]] = (lang, llr)
    return out


# -- scores -------------------------------------------------------------------


def write_scores(path, scores: ScoreSet):
    p = _open_out(path)
    with open(p, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_fmt_header("scores") + "\n")
        for i, (model_id, utt_id) in enumerate(scores.keys):
            row = [
                _check_id(model_id, "model_id"),
                _check_id(utt_id, "utt_id"),
                _f(scores.scores[i]),
            ]
            if scores.labels is not None:
                row.append(LABEL_TARGET if scores.labels[i] else LABEL_NONTARGET)
            fh.write("\t".join(row) + "\n")


def read_scores(path) -> ScoreSet:
    keys = []
    values = []
    labels = []
    arity = None
    for line in _data_lines(Path(path), "scores"):
        parts = line.split("\t")
        if len(parts) not in (3, 4):
            raise FormatError(f"score row needs 3 or 4 fields, got {len(parts)}")
        if arity is None:
            arity = len(parts)
        elif arity != len(parts):
            raise FormatError("score file mixes labeled and unlabeled rows")
        keys.append((parts[0], parts[1]))
        try:
            values.append(float(parts[2]))
        except ValueError:
            raise FormatError(f"malformed score for {parts[0]}/{parts[1]}") from None
        if len(parts) == 4:
            if parts[3] not in (LABEL_TARGET, LABEL_NONTARGET):
                raise FormatError(f"unknown score label {parts[3]!r}")
            labels.append(parts[3] == LABEL_TARGET)
    if arity is None:
        raise FormatError("score file holds no rows")
    return ScoreSet(
        keys=tuple(keys),
        scores=np.array(values, dtype=np.float64),
        labels=np.array(labels, dtype=bool) if arity == 4 else None,
    )


# -- batch manifests ----------------------------------------------------------


def write_manifests(path, manifests: Sequence[BatchManifest]):
    """One row per entry (pass_id, batch_idx, pos, utt_id, speaker_idx);
    a ``#pass`` meta line carries each pass's similarity epoch tag."""
    p = _open_out(path)
    with open(p, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_fmt_header("manifest") + "\n")
        for man in manifests:
            fh.write(f"#pass\t{man.pass_id}\t{man.epoch_tag}\n")
            for b, batch in enumerate(man.batches):
                for pos, (utt_id, speaker_idx) in enumerate(batch):
                    fh.write(
                        f"{man.pass_id}\t{b}\t{pos}\t"
                        f"{_check_id(utt_id, 'utt_id')}\t{speaker_idx}\n"
                    )


def read_manifests(path) -> list[BatchManifest]:
    p = Path(path)
    passes: dict[int, dict] = {}
    order: list[int] = []
    with open(p, encoding="utf-8") as fh:
        _parse_header(fh.readline(), "manifest")
        for raw in fh:
            line = raw.rstrip("\n")
            if not line:
                continue
            if line.startswith("#pass\t"):
                parts = line.split("\t")
                if len(parts) != 3:
                    raise FormatError("malformed #pass meta line")
                try:
                    pass_id, epoch_tag = int(parts[1]), int(parts[2])
                except ValueError:
                    raise FormatError("malformed #pass meta line") from None
                if pass_id in passes:
                    raise FormatError(f"duplicate #pass line for pass {pass_id}")
                passes[pass_id] = {"epoch_tag": epoch_tag, "batches": {}}
                order.append(pass_id)
                continue
            if line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 5:
                raise FormatError(f"manifest row needs 5 fields, got {len(parts)}")
            try:
                pass_id, batch_idx, pos = int(parts[0]), int(parts[1]), int(parts[2])
                speaker_idx = int(parts[4])
            except ValueError:
                raise FormatError("malformed manifest row") from None
            if pass_id not in passes:
                raise FormatError(f"manifest row for pass {pass_id} before its #pass line")
            batch = passes[pass_id]["batches"].setdefault(batch_idx, [])
            if pos != len(batch):
                raise FormatError(
                    f"manifest positions out of order in pass {pass_id} batch {batch_idx}"
                )
            batch.append((parts[3], speaker_idx))
    out = []
    for pass_id in order:
        info = passes[pass_id]
        batches = info["batches"]
        if sorted(batches) != list(range(len(batches))):
            raise FormatError(f"pass {pass_id} has non-consecutive batch indices")
        out.append(
            BatchManifest(
                batches=tuple(tuple(batches[b]) for b in range(len(batches))),
                pass_id=pass_id,
                epoch_tag=info["epoch_tag"],
            )
        )
    return out


# -- Gaussian backend model ---------------------------------------------------


def write_gb_model(path, gb: GaussianBackend):
    p = _open_out(path)
    body = {
        "dim": gb.dim,
        "interpolation_weight": gb.interpolation_weight,
        "diagonal": gb.diagonal,
        "mu_farsi": [float(v) for v in gb.mu_farsi],
        "mu_usa": [float(v) for v in gb.mu_usa],
        "mu_english_effective": [float(v) for v in gb.mu_english_effective],
        "shared_cov": [[float(v) for v in row] for row in gb.shared_cov],
    }
    with open(p, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_fmt_header("gb-model") + "\n")
        json.dump(body, fh, indent=1, sort_keys=True)
        fh.write("\n")


def read_gb_model(path) -> GaussianBackend:
    p = Path(path)
    with open(p, encoding="utf-8") as fh:
        try:
            _parse_header(fh.readline(), "gb-model")
            body = json.load(fh)
        except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
            raise FormatError(f"malformed backend model: {exc}") from None
    try:
        return GaussianBackend(
            mu_farsi=np.array(body["mu_farsi"], dtype=np.float64),
            mu_usa=np.array(body["mu_usa"], dtype=np.float64),
            mu_english_effective=np.array(body["mu_english_effective"], dtype=np.float64),
            shared_cov=np.array(body["shared_cov"], dtype=np.float64),
            interpolation_weight=float(body["interpolation_weight"]),
            diagonal=bool(body["diagonal"]),
        )
    except KeyError as exc:
        raise FormatError(f"backend model missing field {exc}") from None
    except (ValueError, TypeError) as exc:
        raise FormatError(f"malformed backend model field: {exc}") from None


# -- calibration model, language offset, metrics record ------------------------


def _write_kv(path, fmt: str, pairs: Sequence[tuple[str, str]]):
    p = _open_out(path)
    with open(p, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_fmt_header(fmt) + "\n")
        for key, value in pairs:
            fh.write(f"{key}\t{value}\n")


def _read_kv(path, fmt: str, required: Sequence[str]) -> dict[str, str]:
    out: dict[str, str] = {}
    for line in _data_lines(Path(path), fmt):
        parts = line.split("\t")
        if len(parts) != 2:
            raise FormatError(f"{fmt} row needs 2 fields, got {len(parts)}")
        if parts[0] in out:
            raise FormatError(f"duplicate {fmt} key {parts[0]!r}")
        out[parts[0]] = parts[1]
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
    return LanguageOffset(alpha=alpha, provenance=provenance)


def write_metrics_record(path, record: Mapping[str, float | int]):
    pairs = []
    for key, value in record.items():
        pairs.append((key, str(value) if isinstance(value, int) else _f(value)))
    _write_kv(path, "metrics", pairs)


def read_metrics_record(path) -> dict[str, float]:
    kv = _read_kv(path, "metrics", [])
    try:
        return {k: float(v) for k, v in kv.items()}
    except ValueError:
        raise FormatError("malformed metrics record") from None
