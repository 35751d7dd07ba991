"""Golden bytes: literal sha256 digests of small synth corpora, manifests and
evaluation-chain outputs.

Criterion 11 checks that two runs on one machine agree.  These digests
check the stronger guarantee, that a seed reproduces the same bytes on any
platform and numpy version the package supports: a change to how a Philox
stream is consumed, to the normalization arithmetic, to the top-k tie
order or to a writer shows here as a changed digest.
"""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import svbackend
from svbackend import formats
from svbackend.cli import main

SYNTH_ARGS = [
    "--seed", "5", "--dim", "8", "--vox", "5", "--libri", "3", "--deepmine", "6",
    "--eval-speakers", "3", "--utts-min", "2", "--utts-max", "4", "--enroll-utts", "2",
    "--targets", "6", "--nontargets", "20",
]  # fmt: skip

TEXT_CORPUS = {
    "enroll.tsv": "fa48b884d2688a3d079e1d1b4af9ec2ef229d5183bcc80d4ba7c3c13d9391ce1",
    "eval_embeddings.tsv": "6c23fcace311a27254479aa7daab92296df46db779b7e0070e6fed2a9e34ce68",
    "prototypes.tsv": "fef293f124dc557ed9e8c9f1303cf6daae9595ffe1cd9d7f1b4e89f32ddc7a1b",
    "train_embeddings.tsv": "c391a8f25da8f6b63831e7a953ce5bf1c3658dc9531f027f218916d908d372c7",
    "trials.tsv": "053674049c027c4328bbe495dda295b61e1a21091b38f3059bfd07a42f715e71",
}

BINARY_CORPUS = {
    "enroll.tsv": "fa48b884d2688a3d079e1d1b4af9ec2ef229d5183bcc80d4ba7c3c13d9391ce1",
    "eval_embeddings.tsv": "12a2ced637dc909ba3a696d419044aa9096e576eb4890edea6b77a7ac0d4375c",
    "prototypes.tsv": "fef293f124dc557ed9e8c9f1303cf6daae9595ffe1cd9d7f1b4e89f32ddc7a1b",
    "train_embeddings.sveb": "921f8e03902afe78e4124eb2fff6ec4e3790471db760ee86353cd4fa237a75a1",
    "trials.tsv": "053674049c027c4328bbe495dda295b61e1a21091b38f3059bfd07a42f715e71",
}

# (mode, utts_per_speaker) -> manifest.tsv digest, for a 2-pass plan with
# 2 anchors and 3 imposters per batch
MANIFESTS = {
    ("broad", 1): "9c2878f051a7939cdadd62325c2d48beb27d36d707f87e8c26c0b1ac224a0700",
    ("broad", 2): "18c531f19b5edc7984b96ebce36b720af89bc6629ae6b4d1dc3e96d8a4e3de8d",
    ("broad", 3): "c90e8b529dbf2160cb5335b48fb61a60d20fc2739329661d57eb3d9de4e65b3c",
    ("balanced", 1): "880b2a4669ddc27a15906be9094712b91a0d0396cc43e1e5c1d9b32ec99f5278",
    ("balanced", 2): "f03dacf603401e06f951c419d7ff93cc72cdeac048507566fddf9cd546d69f31",
}

# a broad u = 1 plan over prototypes that repeat four directions, so every
# anchor's top-5 cuts through a group of exactly equal similarities
TIE_MANIFEST = "1e6aca519c55ca23e49928937c35b7b4021cf38a51b59e3cbc0e1848a5ca7337"


def digests(directory):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in directory.iterdir()}


def write_corpora(text, binary):
    assert main(["synth", "--out-dir", str(text), *SYNTH_ARGS]) == 0
    assert main(
        ["synth", "--out-dir", str(binary), *SYNTH_ARGS, "--binary", "--english-fraction", "0.3"]
    ) == 0
    return text, binary


@pytest.fixture(scope="module")
def corpora(tmp_path_factory):
    return write_corpora(tmp_path_factory.mktemp("text"), tmp_path_factory.mktemp("binary"))


def plan(tmp_path, prototypes, embeddings, mode, u):
    out = tmp_path / f"{mode}-{u}-{embeddings.suffix[1:]}.tsv"
    argv = [
        "plan-batches", "--prototypes", str(prototypes), "--embeddings", str(embeddings),
        "--mode", mode, "--batch-size", str(2 * 3 * u), "--anchors", "2", "--imposters", "3",
        "--utts-per-speaker", str(u), "--passes", "2", "--seed", "11", "--out", str(out),
    ]  # fmt: skip
    assert main(argv) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


def test_text_corpus_bytes(corpora):
    assert digests(corpora[0]) == TEXT_CORPUS


def test_binary_corpus_bytes(corpora):
    assert digests(corpora[1]) == BINARY_CORPUS


@pytest.mark.parametrize(("mode", "u"), sorted(MANIFESTS))
def test_manifest_bytes(corpora, tmp_path, mode, u):
    text, binary = corpora
    protos = text / "prototypes.tsv"
    assert plan(tmp_path, protos, text / "train_embeddings.tsv", mode, u) == MANIFESTS[mode, u]
    # the binary corpus shares the training ids and prototypes
    assert plan(tmp_path, protos, binary / "train_embeddings.sveb", mode, u) == MANIFESTS[mode, u]


def test_tie_heavy_manifest_bytes(corpora, tmp_path):
    text = corpora[0]
    protos = formats.read_prototypes(text / "prototypes.tsv")
    tied = tmp_path / "tied_prototypes.tsv"
    vectors = protos.vectors[np.arange(protos.count) % 4]
    formats.write_prototypes(tied, dataclasses.replace(protos, vectors=vectors))
    argv = [
        "plan-batches", "--prototypes", str(tied),
        "--embeddings", str(text / "train_embeddings.tsv"), "--batch-size", "10",
        "--anchors", "2", "--imposters", "5", "--seed", "3", "--out", str(tmp_path / "m.tsv"),
    ]  # fmt: skip
    assert main(argv) == 0
    assert hashlib.sha256((tmp_path / "m.tsv").read_bytes()).hexdigest() == TIE_MANIFEST


# (corpus, score mode, --cohort-domains) -> digests of the evaluation chain:
# lid-train, lid-classify, alpha and score, with --top-n 4 for alpha and score
# (both corpora share the prototypes, so gb.json and alpha.tsv agree)
GB_MODEL = "516fa2e5545357130985546daf69cdd26309e44ce1163a59a3bd6c4383731534"
ALPHA = "ec64cc2672899ef8f5252d6b480276d8e35a6f2b59797ca7431fe43c31f9cdaf"
TEXT_LID = "6bc38eea529fe1bebba071df7ef4c7188709a908e6dbb69d88046adfe9a77907"
EVALUATION = {
    ("text", "snorm-lid", "DEEPMINE"): {
        "gb.json": GB_MODEL,
        "lid.tsv": TEXT_LID,
        "alpha.tsv": ALPHA,
        "scores.tsv": "430b995228ad366739a139ecbba5bcb4404265fceedd08233d37152d813f401f",
    },
    ("binary", "snorm-lid", "DEEPMINE"): {
        "gb.json": GB_MODEL,
        "lid.tsv": "b7b0a21cc0386248f24db38dbc22c234d05ac8277bec5d800075658bf8dbc6f9",
        "alpha.tsv": ALPHA,
        "scores.tsv": "56603e596f99b8708da4b37b7ead95deaeed607c5a6ae369e5b9b3a7bd5f1e36",
    },
    ("text", "snorm", None): {
        "gb.json": GB_MODEL,
        "lid.tsv": TEXT_LID,
        "alpha.tsv": ALPHA,
        "scores.tsv": "bf2b5078fa5b95e7e2c053c30925a1c9fda239464a3f01c2386dbf41a37ec190",
    },
}


def evaluate(tmp_path, corpus, mode, domains):
    train = next(corpus.glob("train_embeddings.*"))
    out = {name: tmp_path / name for name in ("gb.json", "lid.tsv", "alpha.tsv", "scores.tsv")}
    protos = ["--prototypes", str(corpus / "prototypes.tsv")]
    assert main(["lid-train", *protos, "--out", str(out["gb.json"])]) == 0
    assert main(
        ["lid-classify", "--model", str(out["gb.json"]),
         "--embeddings", str(corpus / "eval_embeddings.tsv"), "--out", str(out["lid.tsv"])]
    ) == 0  # fmt: skip
    assert main(["alpha", *protos, "--top-n", "4", "--out", str(out["alpha.tsv"])]) == 0
    argv = [
        "score", "--embeddings", str(corpus / "eval_embeddings.tsv"),
        "--trials", str(corpus / "trials.tsv"), "--enroll", str(corpus / "enroll.tsv"),
        "--cohort-embeddings", str(train), "--mode", mode, "--top-n", "4",
        "--out", str(out["scores.tsv"]),
    ]  # fmt: skip
    if domains is not None:
        argv += ["--cohort-domains", domains]
    if mode == "snorm-lid":
        argv += ["--lid", str(out["lid.tsv"]), "--alpha", str(out["alpha.tsv"])]
    assert main(argv) == 0
    return {name: hashlib.sha256(p.read_bytes()).hexdigest() for name, p in out.items()}


@pytest.mark.parametrize(("corpus", "mode", "domains"), list(EVALUATION))
def test_evaluation_chain_bytes(corpora, tmp_path, corpus, mode, domains):
    directory = corpora[("text", "binary").index(corpus)]
    assert evaluate(tmp_path, directory, mode, domains) == EVALUATION[corpus, mode, domains]


def chain_digests(root):
    """The evaluation digests of every EVALUATION case, keyed by its test id,
    on corpora written under ``root``."""
    corpora = write_corpora(root / "text", root / "binary")
    out = {}
    for corpus, mode, domains in EVALUATION:
        case = f"{corpus}-{mode}-{domains}"
        (root / case).mkdir()
        out[case] = evaluate(root / case, corpora[("text", "binary").index(corpus)], mode, domains)
    return out


# other BLAS kernels and no numpy SIMD dispatch: the corpora, manifests,
# alpha.tsv and scores.tsv must not move (gb.json and lid.tsv do; see
# ROADMAP item 11)
KERNEL_SETTINGS = {
    "openblas-haswell": ("OPENBLAS_CORETYPE", "Haswell"),
    "openblas-sandybridge": ("OPENBLAS_CORETYPE", "Sandybridge"),
    "openblas-prescott": ("OPENBLAS_CORETYPE", "Prescott"),
    "numpy-baseline-only": ("NPY_DISABLE_CPU_FEATURES", None),  # numpy's dispatch list
}


def dispatched_cpu_features() -> str:
    """numpy's own list of the CPU features it dispatches to at run time."""
    core = getattr(np, "_core", None) or np.core  # numpy 1.x has no np._core
    return " ".join(core._multiarray_umath.__cpu_dispatch__)


@pytest.mark.parametrize("setting", list(KERNEL_SETTINGS))
def test_corpus_and_manifest_digests_under_other_kernels(tmp_path, setting):
    name, value = KERNEL_SETTINGS[setting]
    env = dict(os.environ, **{name: value or dispatched_cpu_features()})
    argv = [
        sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", __file__,
        "-k", "corpus_bytes or manifest_bytes",
    ]  # fmt: skip
    proc = subprocess.run(argv, env=env, cwd=tmp_path, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert "8 passed" in proc.stdout.splitlines()[-1], proc.stdout[-3000:]


@pytest.mark.parametrize("setting", list(KERNEL_SETTINGS))
def test_alpha_and_score_digests_under_other_kernels(tmp_path, setting):
    name, value = KERNEL_SETTINGS[setting]
    env = dict(os.environ, **{name: value or dispatched_cpu_features()})
    # the child runs in tmp_path: put the imported package's directory first
    package_dir = str(Path(svbackend.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_dir, env.get("PYTHONPATH")]))
    argv = [sys.executable, __file__, str(tmp_path)]
    proc = subprocess.run(argv, env=env, cwd=tmp_path, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    got = json.loads(proc.stdout.splitlines()[-1])  # after the stages' own lines
    for corpus, mode, domains in EVALUATION:
        digests = got[f"{corpus}-{mode}-{domains}"]
        for name in ("alpha.tsv", "scores.tsv"):
            assert digests[name] == EVALUATION[corpus, mode, domains][name], (corpus, mode, name)


if __name__ == "__main__":  # python tests/test_golden.py DIR: chain_digests(DIR) as JSON
    print(json.dumps(chain_digests(Path(sys.argv[1]))))
