"""The names perfbench/traced_cli.py replaces with timing wrappers.

``traced_cli.install`` looks callees up by name in ``cli``, ``formats``,
``planner`` and ``scoring`` and swaps in wrappers.  A rename there would
only show as a failed ``perfbench/run.py --trace 1``; these tests make it
fail here instead.
"""

import ast
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import svbackend
from svbackend import cli, formats, planner, scoring

TRACED_CLI = Path(__file__).resolve().parents[1] / "perfbench" / "traced_cli.py"

pytestmark = pytest.mark.skipif(not TRACED_CLI.exists(), reason="perfbench/ is not present")


def wrapped_names():
    """(module name, attribute) of every entry of the ``wraps`` list in
    ``install``."""
    tree = ast.parse(TRACED_CLI.read_text())
    install = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "install")
    wraps = next(
        n
        for n in ast.walk(install)
        if isinstance(n, ast.Assign) and getattr(n.targets[0], "id", None) == "wraps"
    )
    return [(e.elts[0].id, e.elts[1].value) for e in wraps.value.elts]


def test_wrapped_callees_are_functions():
    modules = {"cli": cli, "formats": formats, "planner": planner, "scoring": scoring}
    names = wrapped_names()
    assert ("cli", "score_trials") in names and ("cli", "classify") in names
    for module, attr in names:
        assert inspect.isfunction(getattr(modules[module], attr)), f"{module}.{attr}"


def test_counted_and_spanned_names():
    for name in (
        "read_embedding_ids",
        "read_embeddings_text",
        "read_embeddings_binary",
        "read_prototypes",
        "read_scores",
        "write_scores",
        "write_manifests",
        "write_embeddings_text",
        "write_embeddings_binary",
    ):
        assert inspect.isfunction(getattr(formats, name)), name
    assert inspect.isfunction(scoring.cosine)
    assert inspect.isfunction(scoring.Cohort.__post_init__)
    assert isinstance(inspect.getattr_static(scoring.Cohort, "from_embeddings"), classmethod)


def test_read_embeddings_dispatches_through_module_globals(monkeypatch, tmp_path):
    text, binary = tmp_path / "e.tsv", tmp_path / "e.sveb"
    text.write_text("#fmt:embeddings:1\nu1\ts1\tVOX\tFARSI\t1.0,2.0\n")
    formats.write_embeddings_binary(binary, formats.read_embeddings(text))
    seen = []
    for name in ("read_embeddings_text", "read_embeddings_binary"):
        real = getattr(formats, name)
        monkeypatch.setattr(
            formats, name, lambda path, real=real, name=name: seen.append(name) or real(path)
        )
    # the traced run counts rows with len() of what the readers return
    assert len(formats.read_embeddings(text)) == len(formats.read_embeddings(binary)) == 1
    assert seen == ["read_embeddings_text", "read_embeddings_binary"]


def test_install_runs_a_stage(tmp_path):
    src = str(Path(svbackend.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    spans = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(TRACED_CLI), str(spans), "aam-check", "--instances", "1"],
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "scoring.cohort_builds" in json.loads(spans.read_text())["counts"]


def test_traced_plan_batches_reads_only_the_ids_of_a_text_inventory(tmp_path):
    corpus = tmp_path / "corpus"
    assert cli.main(
        ["synth", "--out-dir", str(corpus), "--seed", "3", "--vox", "6", "--libri", "3",
         "--deepmine", "6", "--eval-speakers", "4", "--targets", "8", "--nontargets", "20"]
    ) == 0
    src = str(Path(svbackend.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    spans = tmp_path / "spans.json"
    proc = subprocess.run(
        [
            sys.executable, str(TRACED_CLI), str(spans), "plan-batches",
            "--prototypes", str(corpus / "prototypes.tsv"),
            "--embeddings", str(corpus / "train_embeddings.tsv"),
            "--batch-size", "12", "--anchors", "3", "--imposters", "4",
            "--out", str(tmp_path / "manifest.tsv"),
        ],
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads(spans.read_text())
    assert record["spans"]["formats.read_embedding_ids"]["calls"] == 1
    assert "formats.read_embeddings_text" not in record["spans"]
    assert "formats.embedding_rows_read" not in record["counts"]
