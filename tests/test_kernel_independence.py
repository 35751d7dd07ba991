"""Byte identity at benchmark sizes, under other kernels and other line ends.

Each case runs CLI stages as ``python -m svbackend`` children with the
sizes and stage arguments of a ``perfbench/workloads.py`` workload at seed
1, once plainly and once under another setting, and compares what they
write byte for byte.  The settings are those of ``tests/test_golden.py``:
OpenBLAS' Prescott kernels and numpy's baseline kernels (no SIMD dispatch).
The golden digests pin small corpora; these cases cover the value ranges
and row counts of the benchmark's corpora.
"""

import dataclasses
import filecmp
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
