"""What ``import svbackend`` and each CLI stage load.

Every stage runs in a fresh interpreter (``python -X importtime -m
svbackend``), so the set of ``svbackend`` modules it imported is exactly
what the stage needs; a new top-level import in ``cli`` or ``formats``
shows here as a changed set.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import svbackend
from svbackend import cli

from conftest import TINY_SYNTH, chain_argv

SRC = str(Path(svbackend.__file__).resolve().parents[1])

#: loaded by every stage: the package, the CLI, the file formats and the
#: value types the formats share
BASE = {"", "cli", "errors", "formats", "vecmath"}

#: the modules of the trial and score files: key and score sets, and the
#: column readers and writers with their float conversions
SCORE_FILES = {"scores", "tsvcolumns", "textfloats"}

#: the modules each stage loads besides ``BASE``
STAGE_MODULES = {
    "synth": {"synth", "textfloats"} | SCORE_FILES,
    "plan-batches": {"planner", "textfloats"},
    "lid-train": {"lid", "textfloats"},
    "lid-classify": {"lid", "textfloats"},
    "alpha": {"scoring", "textfloats"},
    "score": {"scoring", "textfloats"} | SCORE_FILES,
    "calibrate": {"calibration"} | SCORE_FILES,
    "fuse": {"calibration"} | SCORE_FILES,
    "eval": {"metrics"} | SCORE_FILES,
    "aam-check": {"aam"},  # the random mode reads no file
    "aam-check --prototypes": {"aam", "textfloats"},
}


def child_env():
    return dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))


def imported(argv, cwd) -> set[str]:
    """Every module ``python -m svbackend <argv>`` imports."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "svbackend", *argv],
        env=child_env(),
        cwd=cwd,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return {
        line.rpartition("|")[2].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }


def loaded_modules(argv, cwd) -> set[str]:
    """The svbackend modules ``python -m svbackend <argv>`` imports, less the
    ``svbackend.`` prefix (the package itself is ``""``)."""
    return {n.removeprefix("svbackend").removeprefix(".") for n in imported(argv, cwd)
            if n == "svbackend" or n.startswith("svbackend.")}


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    """Every stage's arguments, with the inputs each reads already written."""
    base = tmp_path_factory.mktemp("chain")
    assert cli.main(["synth", "--out-dir", str(base / "corpus"), *TINY_SYNTH]) == 0
    argvs = chain_argv(base / "corpus", base / "work")
    for argv in argvs.values():
        assert cli.main(argv) == 0
    argvs["synth"] = ["synth", "--out-dir", str(base / "again"), *TINY_SYNTH]
    argvs["aam-check --prototypes"] = [
        "aam-check", "--prototypes", str(base / "corpus" / "prototypes.tsv"),
        "--embeddings", str(base / "corpus" / "train_embeddings.tsv"),
    ]
    return argvs


@pytest.mark.parametrize("stage", sorted(STAGE_MODULES))
def test_stage_loads_only_its_modules(chain, tmp_path, stage):
    assert loaded_modules(chain[stage], tmp_path) == BASE | STAGE_MODULES[stage]


@pytest.mark.parametrize("stage", ["eval", "lid-classify"])
def test_stage_without_scoring_loads_no_logging(chain, tmp_path, stage):
    # only scoring logs, so only alpha and score set up logging
    assert "logging" not in imported(chain[stage], tmp_path)


def test_help_loads_no_domain_module(tmp_path):
    assert loaded_modules(["eval", "--help"], tmp_path) == BASE


def test_import_svbackend_loads_only_the_package(tmp_path):
    code = "import sys, svbackend; print(sorted(m for m in sys.modules if 'svbackend' in m))"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=child_env(), cwd=tmp_path, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["['svbackend']"]


def test_public_names_are_their_home_objects():
    assert set(dir(svbackend)) >= set(svbackend.__all__)
    for name in svbackend.__all__:
        home = importlib.import_module(f"svbackend.{svbackend._HOME[name]}")
        assert getattr(svbackend, name) is getattr(home, name), name
    assert svbackend.ScoringMode is importlib.import_module("svbackend.vecmath").ScoringMode


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        svbackend.no_such_name  # noqa: B018
    with pytest.raises(AttributeError, match="no_such_name"):
        cli.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        from svbackend import no_such_name  # noqa: F401


def test_commands_call_a_function_bound_on_cli(chain, monkeypatch, capsys):
    """A function bound as ``cli.<name>`` (as perfbench/traced_cli.py binds
    its timing wrappers) is the one the command runs."""
    monkeypatch.setattr(cli, "eer", lambda scores, interpolate: 0.25)
    monkeypatch.setattr(cli, "min_dcf", lambda scores, **costs: 0.5)
    assert cli.main(chain["eval"][:3]) == 0
    assert capsys.readouterr().out == "eer=0.25 min_dcf=0.5\n"
