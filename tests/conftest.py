import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from svbackend.prototypes import PrototypeMatrix
from svbackend.vecmath import Domain, EmbeddingTable, Language


def make_protos(w, languages=None, domains=None):
    """PrototypeMatrix from a raw D x N array (column j is speaker j, the
    layout of ``PrototypeMatrix.w``) with generated metadata."""
    w = np.asarray(w, dtype=np.float64)
    n = w.shape[1]
    languages = languages or [Language.UNKNOWN] * n
    domains = domains or [Domain.VOX] * n
    return PrototypeMatrix([f"spk{j:03d}" for j in range(n)], domains, languages, w.T)


class Row(NamedTuple):
    """One utterance of a test fixture; :func:`make_table` stacks rows."""

    utt_id: str
    speaker_id: str
    vec: np.ndarray
    domain: Domain
    language: Language


def make_embedding(utt_id, speaker_id, vec, domain=Domain.VOX, language=Language.UNKNOWN):
    return Row(utt_id, speaker_id, np.asarray(vec, dtype=np.float64), domain, language)


def make_table(rows):
    """EmbeddingTable of ``Row``s (a sequence, or a dict whose values are rows)."""
    rows = list(rows.values()) if isinstance(rows, dict) else list(rows)
    dim = len(rows[0].vec) if rows else 0
    return EmbeddingTable(
        utt_ids=[r.utt_id for r in rows],
        speaker_ids=[r.speaker_id for r in rows],
        domains=[r.domain for r in rows],
        languages=[r.language for r in rows],
        vectors=np.reshape([r.vec for r in rows], (len(rows), dim)),
    )


def rows_of(table):
    """The rows of an EmbeddingTable as ``Row``s, in table order."""
    return [
        Row(*cols)
        for cols in zip(
            table.utt_ids, table.speaker_ids, table.vectors, table.domains, table.languages
        )
    ]


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def _proto_value(token):
    """An edit that puts ``token`` at the third value of a prototype row."""
    return lambda f: f[:3] + [",".join([*f[3].split(",")[:2], token, *f[3].split(",")[3:]])]


#: name -> edit of one prototype row's four fields (id, Domain, Language, vector)
PROTOTYPE_DEFECTS = {
    "malformed": _proto_value("0.1x"),
    "nan": _proto_value("nan"),
    "-inf": _proto_value("-inf"),
    "mixed-dimensions": lambda f: f[:3] + [",".join(f[3].split(",")[1:])],
    "field-count": lambda f: f[:2] + f[3:],
    "unknown-domain": lambda f: [f[0], "MARS", *f[2:]],
    "unknown-language": lambda f: [*f[:2], "KLINGON", f[3]],
    "zero-row": lambda f: f[:3] + [",".join(["0.0"] * len(f[3].split(",")))],
}


def edit_prototype_row(text, k, defect):
    """The prototype file ``text`` with data row ``k`` edited by ``PROTOTYPE_DEFECTS[defect]``."""
    lines = text.splitlines(keepends=True)
    fields = lines[1 + k].rstrip("\n").split("\t")
    lines[1 + k] = "\t".join(PROTOTYPE_DEFECTS[defect](fields)) + "\n"
    return "".join(lines)


#: ``synth`` arguments of a corpus small enough to run every stage in a child
TINY_SYNTH = [
    "--seed", "3", "--vox", "6", "--libri", "3", "--deepmine", "6",
    "--eval-speakers", "4", "--targets", "8", "--nontargets", "20",
]


def chain_argv(corpus: Path, work: Path) -> dict[str, list[str]]:
    """The arguments of every CLI stage after ``synth``, in chain order, on
    the ``synth`` corpus in ``corpus``; each stage writes into ``work`` what
    a later stage reads."""
    c = {name: str(corpus / f"{name}.tsv") for name in ("prototypes", "trials", "enroll")}
    train, test = str(corpus / "train_embeddings.tsv"), str(corpus / "eval_embeddings.tsv")
    w = {name: str(work / name) for name in (
        "manifest.tsv", "gb.json", "lid.tsv", "alpha.tsv", "scores.tsv",
        "cal.tsv", "calibrated.tsv", "fused.tsv", "metrics.tsv",
    )}
    return {
        "plan-batches": [
            "plan-batches", "--prototypes", c["prototypes"], "--embeddings", train,
            "--batch-size", "12", "--anchors", "3", "--imposters", "4",
            "--out", w["manifest.tsv"],
        ],
        "lid-train": ["lid-train", "--prototypes", c["prototypes"], "--out", w["gb.json"]],
        "lid-classify": [
            "lid-classify", "--model", w["gb.json"], "--embeddings", test, "--out", w["lid.tsv"],
        ],
        "alpha": ["alpha", "--prototypes", c["prototypes"], "--top-n", "5", "--out", w["alpha.tsv"]],
        "score": [
            "score", "--embeddings", test, "--trials", c["trials"], "--enroll", c["enroll"],
            "--cohort-embeddings", train, "--cohort-domains", "DEEPMINE", "--mode", "snorm-lid",
            "--alpha", w["alpha.tsv"], "--lid", w["lid.tsv"], "--top-n", "5",
            "--out", w["scores.tsv"],
        ],
        "calibrate": [
            "calibrate", "--scores", w["scores.tsv"], "--model-out", w["cal.tsv"],
            "--out", w["calibrated.tsv"],
        ],
        "fuse": [
            "fuse", "--scores", w["scores.tsv"], w["calibrated.tsv"], "--weights", "1,2",
            "--out", w["fused.tsv"],
        ],
        "eval": ["eval", "--scores", w["fused.tsv"], "--out", w["metrics.tsv"]],
        "aam-check": ["aam-check", "--instances", "1"],
    }
