"""Byte identity at benchmark sizes, under other kernels and other line ends.

Each case runs CLI stages as ``python -m svbackend`` children with the
sizes and stage arguments of a ``perfbench/workloads.py`` workload at seed
1, once plainly and once under another setting, and compares what they
write byte for byte.  The settings are those of ``tests/test_golden.py``:
OpenBLAS' Prescott kernels and numpy's baseline kernels (no SIMD dispatch).
The golden digests pin small corpora; these cases cover the value ranges
and row counts of the benchmark's corpora, and pin the sha256 of every file
``synth`` writes at those sizes.
"""

import dataclasses
import filecmp
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import svbackend

from test_golden import KERNEL_SETTINGS, dispatched_cpu_features

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
if not (PERFBENCH / "workloads.py").exists():
    pytest.skip("perfbench/ is not present", allow_module_level=True)
sys.path.insert(0, str(PERFBENCH))

from workloads import WORKLOADS  # noqa: E402

SEED = 1
SDSV = WORKLOADS["sdsv-eval"]
# the score file round trip reads a text training file
DENSE = dataclasses.replace(WORKLOADS["dense-trials"], binary=False)


def kernel_env(name):
    """The environment of ``KERNEL_SETTINGS[name]``."""
    variable, value = KERNEL_SETTINGS[name]
    return {variable: value or dispatched_cpu_features()}


PRESCOTT, BASELINE = kernel_env("openblas-prescott"), kernel_env("numpy-baseline-only")
PACKAGE_DIR = str(Path(svbackend.__file__).resolve().parents[1])


def run(argv, setting=None):
    """``python -m svbackend *argv`` in a child, with ``setting`` added to its
    environment and the imported package's directory first on its path."""
    env = dict(os.environ, **(setting or {}))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [PACKAGE_DIR, env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-m", "svbackend", *argv]
    proc = subprocess.run(cmd, env=env, cwd=PACKAGE_DIR, capture_output=True, text=True)
    under = setting or "no setting"
    assert proc.returncode == 0, f"{argv[0]} under {under}: {proc.stderr[-3000:]}"


def edited(argv, **values):
    """``argv`` with the value of each ``--name`` in ``values`` (``_`` for
    ``-``) replaced, or the option dropped where the value is None."""
    argv = list(argv)
    for name, value in values.items():
        i = argv.index("--" + name.replace("_", "-"))
        argv[i : i + 2] = [] if value is None else [argv[i], value]
    return argv


def assert_same_bytes(a, b, names):
    """Each file of ``names`` holds the same bytes in directory ``a`` as in ``b``."""
    _, differ, missing = filecmp.cmpfiles(a, b, names, shallow=False)
    assert (differ, missing) == ([], []), f"differ: {differ}, missing: {missing}"


@pytest.fixture(scope="module")
def sdsv(tmp_path_factory):
    """The sdsv-eval corpus, written plainly; every case only reads it."""
    corpus = tmp_path_factory.mktemp("sdsv")
    run(SDSV.synth_args(corpus, SEED))
    return corpus


# sha256 of every file synth writes at each workload's sizes, seed 1, with a
# text or a binary training file
SYNTH_DIGESTS = {
    "sdsv-eval": {
        "enroll.tsv": "8abb7aece39fd7f6a963aec2ffcca0d439ac0fef408a5d72034516be184a367d",
        "eval_embeddings.tsv": "5a43c22bda3d5c179d6e749f6904f202e1c6c7dd70455effc59df93dbc7cd1d3",
        "prototypes.tsv": "33e1756354843bc05949197d82ba54811813cd8d9da44c986a5a0f680a72cd6b",
        "train_embeddings.sveb": "415809c8a81ec52db2c9d4fb782a5a89501b44499c07b862250eade408c7640e",
        "train_embeddings.tsv": "53d200b32ca7ebb3be4d57ee177c88e0ef969339d3aa811723fc6de4a71d3634",
        "trials.tsv": "32d49382eb4e2b0fc05fd7e73aed7715fc16dd01f75c6973e6eb69bad5f50e53",
    },
    "train-plan": {
        "enroll.tsv": "39fc6298a2dbd698285271774279d7afc4e4a57dd0c24b1bba2acedd1399b916",
        "eval_embeddings.tsv": "6f3af17aa789fbece81e893c19794681b0073cc39c089dbff33f330562448985",
        "prototypes.tsv": "9427a6cffe12956110ee299a79fb783f77bddda0107e1a51f89984102c7dd850",
        "train_embeddings.sveb": "2e8a21f1d12331c95d08ea7d644c50ef12530cd267ec376b3087cf2e1db1b243",
        "train_embeddings.tsv": "a2e63fac18f54efe5711c454c823935783b5b92666a30da145b9617ce33c03da",
        "trials.tsv": "15c09bfba77e69c0af5dbc66e37ef0ccac298ffb3e89bca9657d68c30262f49a",
    },
    "dense-trials": {
        "enroll.tsv": "8c36025042468085b182623ba49f319423b21cc0a5fbc28d1a513c43838350ce",
        "eval_embeddings.tsv": "db0d24c3ec8d77bdcb3400cf0916d9b7dd5808f00e6f7ad3f1b2f017a6549218",
        "prototypes.tsv": "f66ef6136c675941da199a48d5c392b2282c2eeb70a9698b763d701d3aa7a408",
        "train_embeddings.sveb": "1bd5f3c647fd4e0645148e37f6d533b3a85faa5e74a7351094bff7ee44c465f9",
        "train_embeddings.tsv": "a2b9eb180bfbe62f0199acaf84a719dbab3b322bdceb6e30159d2dd8853268e5",
        "trials.tsv": "a6060535fe1be720104ad1d63ec761dbb8e8bf2c405b2f98378c487a5e84cc32",
    },
}


@pytest.mark.parametrize("binary", [False, True], ids=["text", "binary"])
@pytest.mark.parametrize("name", list(SYNTH_DIGESTS))
def test_synth_bytes_at_benchmark_sizes(sdsv, tmp_path, name, binary):
    workload = dataclasses.replace(WORKLOADS[name], binary=binary)
    corpus = sdsv
    if workload != SDSV:
        corpus = tmp_path
        run(workload.synth_args(corpus, SEED))
    got = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in corpus.iterdir()}
    other = "train_embeddings.tsv" if binary else "train_embeddings.sveb"
    assert got == {f: d for f, d in SYNTH_DIGESTS[name].items() if f != other}


def test_synth_without_simd_dispatch(sdsv, tmp_path):
    # synth at the sdsv-eval sizes writes about 1M values, about 1,000 of
    # them through repr; every file must be the same when numpy runs only
    # its baseline kernels
    run(SDSV.synth_args(tmp_path, SEED), BASELINE)
    names = sorted(os.listdir(sdsv))
    assert sorted(os.listdir(tmp_path)) == names
    assert_same_bytes(sdsv, tmp_path, names)


def test_score_file_round_trip_without_simd_dispatch(tmp_path):
    # fuse of one score file with weight 1 rewrites it: 28,240 s-norm
    # scores, most of them of magnitude 1 or more (a point inside the
    # digits), must read back and be written again byte for byte, also when
    # numpy runs only its baseline kernels
    corpus, work = tmp_path / "corpus", tmp_path / "work"
    run(DENSE.synth_args(corpus, SEED))
    score = DENSE.stage_args("score", corpus, work, SEED)
    run(edited(score, mode="snorm", alpha=None, lid=None))
    scores = work / "scores.tsv"
    for name, setting in (("fused.tsv", None), ("fused-baseline.tsv", BASELINE)):
        run(["fuse", "--scores", str(scores), "--weights", "1", "--out", str(work / name)], setting)
        assert filecmp.cmp(scores, work / name, shallow=False), f"{name} differs from scores.tsv"


def test_alpha_and_snorm_lid_scores_under_other_kernels(sdsv, tmp_path):
    # alpha.tsv and scores.tsv come from the exact top-N kernel, so they
    # must not move with the BLAS kernel or numpy's dispatch; one lid.tsv
    # feeds all three runs, since the LID llrs still depend on the BLAS
    run(SDSV.stage_args("lid-train", sdsv, tmp_path, SEED))
    run(SDSV.stage_args("lid-classify", sdsv, tmp_path, SEED))
    lid = str(tmp_path / "lid.tsv")
    for name, setting in (("plain", None), ("prescott", PRESCOTT), ("baseline", BASELINE)):
        out = tmp_path / name
        run(SDSV.stage_args("alpha", sdsv, out, SEED), setting)
        run(edited(SDSV.stage_args("score", sdsv, out, SEED), lid=lid), setting)
    for name in ("prescott", "baseline"):
        assert_same_bytes(tmp_path / "plain", tmp_path / name, ["alpha.tsv", "scores.tsv"])


def chain(corpus, out, line_end):
    """The sdsv-eval stages from ``plan-batches`` to ``score`` on ``corpus``,
    writing into ``out``; then ``fuse`` and ``eval`` read a copy of its
    ``scores.tsv`` with ``line_end`` line ends, writing into ``out/rescored``."""
    for stage in ("plan-batches", "lid-train", "lid-classify", "alpha", "score"):
        run(SDSV.stage_args(stage, corpus, out, SEED))
    rescored = out / "rescored"
    rescored.mkdir()
    scores = rescored / "scores.tsv"
    scores.write_bytes((out / "scores.tsv").read_bytes().replace(b"\n", line_end))
    run(SDSV.stage_args("fuse", corpus, rescored, SEED))
    run(edited(SDSV.stage_args("eval", corpus, rescored, SEED), scores=str(scores)))
    return out


@pytest.fixture(scope="module")
def sdsv_chain(sdsv, tmp_path_factory):
    """The chain on the corpus as written, which every line-end case matches."""
    return chain(sdsv, tmp_path_factory.mktemp("chain"), b"\n")


@pytest.mark.parametrize("line_end", [b"\r\n", b"\r"], ids=["crlf", "cr"])
def test_chain_with_other_line_ends(sdsv, sdsv_chain, tmp_path, line_end):
    # every text input copied with other line ends must give the same
    # manifest, backend model, LID decisions, alpha and scores, and a score
    # file with them the same fused scores and metrics
    copy = tmp_path / "corpus"
    copy.mkdir()
    for f in sdsv.glob("*.tsv"):
        (copy / f.name).write_bytes(f.read_bytes().replace(b"\n", line_end))
    assert sorted(os.listdir(copy)) == sorted(os.listdir(sdsv))
    out = chain(copy, tmp_path / "out", line_end)
    artifacts = ["manifest.tsv", "gb.json", "lid.tsv", "alpha.tsv", "scores.tsv"]
    assert_same_bytes(sdsv_chain, out, artifacts)
    assert_same_bytes(sdsv_chain / "rescored", out / "rescored", ["fused.tsv", "metrics.tsv"])
