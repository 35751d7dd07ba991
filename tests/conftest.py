import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from svbackend.prototypes import PrototypeMatrix, SpeakerInfo
from svbackend.vecmath import Domain, EmbeddingTable, Language


def make_protos(w, languages=None, domains=None):
    """PrototypeMatrix from a raw D x N array with generated metadata."""
    w = np.asarray(w, dtype=np.float64)
    n = w.shape[1]
    languages = languages or [Language.UNKNOWN] * n
    domains = domains or [Domain.VOX] * n
    speakers = tuple(
        SpeakerInfo(f"spk{j:03d}", domains[j], languages[j]) for j in range(n)
    )
    return PrototypeMatrix(w=w, speakers=speakers)


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
