import argparse
import json
import os
import re
import shlex
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import svbackend
from svbackend import formats
from svbackend.aam import AamConfig, LabeledBatch, aam_loss
from svbackend.calibration import apply_calibration, fit_calibration
from svbackend.cli import build_parser, main
from svbackend.errors import FormatError, PipelineError
from svbackend.lid import train_gb
from svbackend.metrics import eer, min_dcf
from svbackend.scores import ScoreSet
from svbackend.scoring import Cohort
from svbackend.vecmath import Domain, Language

from conftest import (
    PROTOTYPE_DEFECTS,
    edit_prototype_row,
    make_embedding,
    make_protos,
    make_table,
)


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    rc = main(
        [
            "synth",
            "--out-dir",
            str(out),
            "--seed",
            "33",
            "--vox",
            "12",
            "--libri",
            "6",
            "--deepmine",
            "15",
            "--eval-speakers",
            "6",
            "--targets",
            "25",
            "--nontargets",
            "120",
        ]
    )
    assert rc == 0
    return out


def run_ok(argv):
    assert main(argv) == 0


def assert_param_invalid(rc, capsys, message):
    """A usage error: exit 2 and one ``error: ParamInvalid:`` line holding
    ``message``; returns what went to stdout."""
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert rc == 2
    assert len(err) == 1 and err[0].startswith("error: ParamInvalid: "), err
    assert message in err[0]
    return captured.out


class TestSynth:
    def test_writes_all_files(self, data_dir):
        for name in (
            "train_embeddings.tsv",
            "eval_embeddings.tsv",
            "prototypes.tsv",
            "trials.tsv",
            "enroll.tsv",
        ):
            assert (data_dir / name).exists()

    def test_binary_flag(self, tmp_path):
        run_ok(
            [
                "synth",
                "--out-dir",
                str(tmp_path),
                "--seed",
                "1",
                "--vox",
                "4",
                "--libri",
                "2",
                "--deepmine",
                "4",
                "--eval-speakers",
                "3",
                "--targets",
                "5",
                "--nontargets",
                "20",
                "--binary",
            ]
        )
        path = tmp_path / "train_embeddings.sveb"
        assert path.exists()
        assert formats.read_embeddings(path)

    @pytest.mark.parametrize("shift", ["nan", "inf"])
    def test_non_finite_shift_is_usage_error(self, tmp_path, capsys, shift):
        out = tmp_path / "corpus"
        rc = main(["synth", "--out-dir", str(out), f"--shift={shift}"])
        err = capsys.readouterr().err.splitlines()
        assert rc == 2
        assert len(err) == 1 and err[0].startswith("error: SpecInvalid"), err
        assert not out.exists()


class TestPlanBatches:
    def test_broad_manifest(self, data_dir, tmp_path):
        out = tmp_path / "manifest.tsv"
        run_ok(
            [
                "plan-batches",
                "--prototypes",
                str(data_dir / "prototypes.tsv"),
                "--embeddings",
                str(data_dir / "train_embeddings.tsv"),
                "--mode",
                "broad",
                "--batch-size",
                "12",
                "--anchors",
                "3",
                "--imposters",
                "4",
                "--utts-per-speaker",
                "1",
                "--passes",
                "2",
                "--seed",
                "5",
                "--out",
                str(out),
            ]
        )
        manifests = formats.read_manifests(out)
        assert len(manifests) == 2
        assert all(len(b) == 12 for m in manifests for b in m.batches)

    def test_balanced_manifest(self, data_dir, tmp_path):
        out = tmp_path / "manifest.tsv"
        run_ok(
            [
                "plan-batches",
                "--prototypes",
                str(data_dir / "prototypes.tsv"),
                "--embeddings",
                str(data_dir / "train_embeddings.tsv"),
                "--mode",
                "balanced",
                "--target-domain",
                "DEEPMINE",
                "--batch-size",
                "10",
                "--anchors",
                "5",
                "--imposters",
                "2",
                "--utts-per-speaker",
                "1",
                "--seed",
                "5",
                "--out",
                str(out),
            ]
        )
        (manifest,) = formats.read_manifests(out)
        assert all(len(b) == 10 for b in manifest.batches)

    def test_invalid_shape_exits_2(self, data_dir, tmp_path, capsys):
        rc = main(
            [
                "plan-batches",
                "--prototypes",
                str(data_dir / "prototypes.tsv"),
                "--embeddings",
                str(data_dir / "train_embeddings.tsv"),
                "--batch-size",
                "12",
                "--anchors",
                "5",
                "--imposters",
                "4",
                "--utts-per-speaker",
                "1",
                "--out",
                str(tmp_path / "m.tsv"),
            ]
        )
        assert rc == 2
        assert "error: ConfigInvalid" in capsys.readouterr().err

    @pytest.mark.parametrize("passes", ["0", "-2"])
    def test_passes_below_one_is_usage_error(self, data_dir, tmp_path, capsys, passes):
        out = tmp_path / "m.tsv"
        rc = main(
            [
                "plan-batches", "--prototypes", str(data_dir / "prototypes.tsv"),
                "--embeddings", str(data_dir / "train_embeddings.tsv"),
                "--out", str(out), "--passes", passes,
            ]
        )
        assert_param_invalid(rc, capsys, f"--passes: must be >= 1, got {passes}")
        assert not out.exists()

    def test_manifest_independent_of_blas_threads(self, tmp_path, rng):
        # the BLAS filter's bits may depend on the thread count; the ranking
        # does not.  Scaled copies of a few columns add exact and near ties.
        w = rng.normal(size=(256, 600))
        w[:, 500:] = w[:, :100] * rng.uniform(0.5, 2.0, size=100)
        protos = make_protos(w)
        formats.write_prototypes(tmp_path / "p.tsv", protos)
        formats.write_embeddings_binary(
            tmp_path / "e.sveb",
            make_table(
                make_embedding(f"u{j}", sid, rng.normal(size=4))
                for j, sid in enumerate(protos.speaker_ids)
            ),
        )
        src = str(Path(svbackend.__file__).resolve().parents[1])
        outs = []
        for threads in ("1", "2"):
            out = tmp_path / f"m{threads}.tsv"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
            proc = subprocess.run(
                [
                    sys.executable, "-m", "svbackend", "plan-batches",
                    "--prototypes", str(tmp_path / "p.tsv"),
                    "--embeddings", str(tmp_path / "e.sveb"),
                    "--out", str(out), "--passes", "2", "--seed", "3",
                ],
                env=env,
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, proc.stderr
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestAamCheck:
    def test_random_selfcheck(self, capsys):
        run_ok(["aam-check", "--seed", "3", "--instances", "5"])
        assert "max rel err" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "seed, worst", [(0, "6.648e-06"), (1, "7.403e-06"), (2, "1.813e-06"), (3, "1.898e-07")]
    )
    def test_printed_error_is_pinned(self, capsys, seed, worst):
        run_ok(["aam-check", "--seed", str(seed)])
        out = capsys.readouterr().out
        assert out == f"gradient check: 25 random instances, max rel err {worst}\n"

    def test_negative_seed(self, capsys):
        run_ok(["aam-check", "--seed", "-1", "--instances", "1"])
        assert "max rel err" in capsys.readouterr().out

    def test_on_files(self, data_dir, capsys):
        run_ok(
            [
                "aam-check",
                "--prototypes",
                str(data_dir / "prototypes.tsv"),
                "--embeddings",
                str(data_dir / "train_embeddings.tsv"),
            ]
        )
        assert "loss on" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--margin", "2", "margin must be in [0, pi/2), got 2.0"),
            ("--margin", "nan", "margin must be in [0, pi/2), got nan"),
            ("--scale", "0", "scale must be positive and finite, got 0.0"),
            ("--scale", "inf", "scale must be positive and finite, got inf"),
        ],
        ids=["margin-2", "margin-nan", "scale-0", "scale-inf"],
    )
    def test_out_of_range_loss_setting_is_usage_error(
        self, data_dir, capsys, flag, value, message
    ):
        rc = main(
            [
                "aam-check", "--prototypes", str(data_dir / "prototypes.tsv"),
                "--embeddings", str(data_dir / "train_embeddings.tsv"), flag, value,
            ]
        )
        captured = capsys.readouterr()
        assert (rc, captured.err.splitlines()) == (2, [f"error: ConfigInvalid: {message}"])
        assert "loss" not in captured.out

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--instances", "0", "--instances: must be >= 1"),
            ("--instances", "-1", "--instances: must be >= 1"),
            ("--tolerance", "nan", "--tolerance: must be >= 0"),
            ("--tolerance", "-1e-4", "--tolerance: must be >= 0"),
        ],
    )
    def test_check_that_checks_nothing_is_usage_error(self, capsys, flag, value, message):
        rc = main(["aam-check", f"{flag}={value}"])
        assert "gradient check" not in assert_param_invalid(rc, capsys, message)

    @pytest.mark.parametrize("flag", ["--prototypes", "--embeddings"])
    def test_lone_file_flag_is_usage_error(self, tmp_path, capsys, flag):
        # the file need not exist: the flags are refused before any file is read
        rc = main(["aam-check", flag, str(tmp_path / "missing.tsv"), "--instances", "2"])
        out = assert_param_invalid(rc, capsys, "--prototypes and --embeddings are only used together")
        assert "gradient check" not in out

    @pytest.mark.parametrize(
        "flags",
        [
            ["--margin", "2"],
            ["--margin", "0.2"],
            ["--scale", "30"],
            ["--margin", "0.1", "--scale", "8"],
        ],
    )
    def test_file_mode_flag_without_files_is_usage_error(self, capsys, flags):
        # an in-range value too: the random check draws its own margin and scale
        rc = main(["aam-check", *flags, "--instances", "1"])
        message = "--margin and --scale are only used with --prototypes"
        out = assert_param_invalid(rc, capsys, message)
        assert "gradient check" not in out

    def test_file_mode_defaults(self, data_dir, capsys):
        files = [
            "--prototypes", str(data_dir / "prototypes.tsv"),
            "--embeddings", str(data_dir / "train_embeddings.tsv"),
        ]  # fmt: skip
        run_ok(["aam-check", *files])
        default = capsys.readouterr().out
        run_ok(["aam-check", *files, "--margin", "0.2", "--scale", "30.0"])
        assert capsys.readouterr().out == default
        run_ok(["aam-check", *files, "--margin", "0.3"])
        assert capsys.readouterr().out != default


@pytest.fixture(scope="module")
def pipeline_files(data_dir, tmp_path_factory):
    work = tmp_path_factory.mktemp("pipeline")
    run = lambda argv: main(argv)  # noqa: E731
    assert (
        run(
            [
                "lid-train",
                "--prototypes",
                str(data_dir / "prototypes.tsv"),
                "--out",
                str(work / "gb.json"),
            ]
        )
        == 0
    )
    assert (
        run(
            [
                "lid-classify",
                "--model",
                str(work / "gb.json"),
                "--embeddings",
                str(data_dir / "eval_embeddings.tsv"),
                "--out",
                str(work / "lid.tsv"),
            ]
        )
        == 0
    )
    assert (
        run(
            [
                "alpha",
                "--prototypes",
                str(data_dir / "prototypes.tsv"),
                "--top-n",
                "8",
                "--out",
                str(work / "alpha.tsv"),
            ]
        )
        == 0
    )
    assert (
        run(
            [
                "score",
                "--embeddings",
                str(data_dir / "eval_embeddings.tsv"),
                "--trials",
                str(data_dir / "trials.tsv"),
                "--enroll",
                str(data_dir / "enroll.tsv"),
                "--cohort-embeddings",
                str(data_dir / "train_embeddings.tsv"),
                "--cohort-domains",
                "DEEPMINE",
                "--mode",
                "snorm-lid",
                "--alpha",
                str(work / "alpha.tsv"),
                "--lid",
                str(work / "lid.tsv"),
                "--top-n",
                "8",
                "--out",
                str(work / "scores.tsv"),
            ]
        )
        == 0
    )
    return work


@pytest.mark.parametrize("threshold", ["nan", "inf", "-inf"])
def test_lid_classify_non_finite_threshold(pipeline_files, data_dir, tmp_path, capsys, threshold):
    out = tmp_path / "lid.tsv"
    rc = main(
        [
            "lid-classify", "--model", str(pipeline_files / "gb.json"),
            "--embeddings", str(data_dir / "eval_embeddings.tsv"),
            "--out", str(out), f"--threshold={threshold}",
        ]
    )
    err = capsys.readouterr().err.splitlines()
    assert rc == 2
    assert len(err) == 1 and err[0].startswith("error: ParamInvalid"), err
    assert not out.exists()


def test_lid_classify_embeddings_without_rows(pipeline_files, tmp_path, capsys):
    # a LID file with no rows is refused by score --mode snorm-lid, so
    # lid-classify refuses to write one
    empty, out = tmp_path / "e.tsv", tmp_path / "lid.tsv"
    empty.write_text("#fmt:embeddings:1\n")
    argv = ["lid-classify", "--model", str(pipeline_files / "gb.json"), "--embeddings", str(empty)]
    capsys.readouterr()
    line = assert_one_error_line(main([*argv, "--out", str(out)]), capsys)
    assert line == "error: FormatError: LID file holds no rows"
    assert not out.exists()


def test_lid_classify_counts_english_from_the_decisions_it_writes(
    pipeline_files, data_dir, tmp_path, capsys
):
    # a repeated utterance id is read, and its last row's decision is written once
    argv = ["lid-classify", "--model", str(pipeline_files / "gb.json"), "--embeddings"]
    lid = pipeline_files / "lid.tsv"
    decided = formats.read_lid_decisions(lid)
    english = next(u for u, (lang, _) in decided.items() if lang is Language.ENGLISH)
    text = (data_dir / "eval_embeddings.tsv").read_text()
    text += next(line + "\n" for line in text.splitlines() if line.startswith(english + "\t"))
    path, out = tmp_path / "e.tsv", tmp_path / "lid.tsv"
    path.write_text(text)
    capsys.readouterr()
    assert main([*argv, str(path), "--out", str(out)]) == 0
    decisions = formats.read_lid_decisions(out)
    n_en = sum(lang is Language.ENGLISH for lang, _ in decisions.values())
    assert f"classified {len(decisions)} utterances ({n_en} English)" in capsys.readouterr().out
    assert decisions.keys() == decided.keys()


class TestScore:
    def test_scores_written_with_labels(self, pipeline_files):
        ss = formats.read_scores(pipeline_files / "scores.tsv")
        assert ss.labeled
        assert len(ss) == 145

    @staticmethod
    def score_without(pipeline_files, data_dir, out, mode, drop):
        """``score --mode mode`` with every input file but ``drop``; returns its exit code."""
        inputs = {
            "--cohort-embeddings": data_dir / "train_embeddings.tsv",
            "--lid": pipeline_files / "lid.tsv",
            "--alpha": pipeline_files / "alpha.tsv",
        }
        argv = [
            "score", "--mode", mode, "--out", str(out),
            "--embeddings", str(data_dir / "eval_embeddings.tsv"),
            "--trials", str(data_dir / "trials.tsv"), "--enroll", str(data_dir / "enroll.tsv"),
        ]
        for flag, path in inputs.items():
            if flag != drop:
                argv += [flag, str(path)]
        return main(argv)

    def test_top_n_above_the_cohort_size_warns(self, data_dir, tmp_path):
        # the one line scoring logs, as the stage prints it: once for the
        # enrollment models and once for the test utterances (33 speakers)
        out = tmp_path / "scores.tsv"
        argv = [
            "score", "--mode", "snorm", "--top-n", "1000", "--out", str(out),
            "--embeddings", str(data_dir / "eval_embeddings.tsv"),
            "--trials", str(data_dir / "trials.tsv"), "--enroll", str(data_dir / "enroll.tsv"),
            "--cohort-embeddings", str(data_dir / "train_embeddings.tsv"),
        ]
        proc = run_cli(argv, warnings_as_errors=True)
        line = (
            "WARNING svbackend.scoring: top_n=1000 exceeds cohort size 33; using the whole cohort"
        )
        assert (proc.returncode, proc.stderr.splitlines()) == (0, [line, line])
        assert out.exists()

    def test_snorm_lid_requires_lid_file(self, pipeline_files, data_dir, tmp_path, capsys):
        out = tmp_path / "s.tsv"
        rc = self.score_without(pipeline_files, data_dir, out, "snorm-lid", "--lid")
        assert_param_invalid(rc, capsys, "--mode snorm-lid requires --lid decisions")
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["raw", "snorm", "snorm-lid"])
    def test_trials_file_without_rows(self, pipeline_files, data_dir, tmp_path, capsys, mode):
        # a score file with no rows is refused by calibrate, fuse and eval,
        # so score refuses the trials before it writes one
        trials = tmp_path / "trials.tsv"
        trials.write_text("#fmt:trials:1\n")
        out = tmp_path / "scores.tsv"
        argv = [
            "score", "--mode", mode, "--out", str(out),
            "--embeddings", str(data_dir / "eval_embeddings.tsv"),
            "--trials", str(trials), "--enroll", str(data_dir / "enroll.tsv"),
            "--cohort-embeddings", str(data_dir / "train_embeddings.tsv"),
            "--lid", str(pipeline_files / "lid.tsv"), "--alpha", str(pipeline_files / "alpha.tsv"),
        ]  # fmt: skip
        capsys.readouterr()
        line = assert_one_error_line(main(argv), capsys)
        assert line == "error: FormatError: trial file holds no rows"
        assert not out.exists()

    @pytest.mark.parametrize(
        "mode, drop, message",
        [
            ("snorm", "--cohort-embeddings", "--mode snorm requires --cohort-embeddings"),
            ("snorm-lid", "--cohort-embeddings", "--mode snorm-lid requires --cohort-embeddings"),
            ("snorm-lid", "--alpha", "--mode snorm-lid requires --alpha"),
        ],
    )
    def test_mode_without_its_inputs_is_usage_error(
        self, pipeline_files, data_dir, tmp_path, capsys, mode, drop, message
    ):
        out = tmp_path / "s.tsv"
        rc = self.score_without(pipeline_files, data_dir, out, mode, drop)
        assert_param_invalid(rc, capsys, message)
        assert not out.exists()

    @pytest.mark.parametrize(
        "mode, extra",
        [("snorm", ["--lid", "--alpha"]), ("raw", ["--cohort-embeddings"])],
    )
    def test_unused_input_files_change_nothing(
        self, pipeline_files, data_dir, tmp_path, capsys, mode, extra
    ):
        # score reads and checks every file it is given, but passes
        # score_trials only the inputs its mode uses
        inputs = {
            "--cohort-embeddings": data_dir / "train_embeddings.tsv",
            "--lid": pipeline_files / "lid.tsv",
            "--alpha": pipeline_files / "alpha.tsv",
        }
        used = ["--cohort-embeddings"] if mode == "snorm" else []

        def score(out, flags):
            argv = [
                "score", "--mode", mode, "--out", str(out), "--top-n", "8",
                "--embeddings", str(data_dir / "eval_embeddings.tsv"),
                "--trials", str(data_dir / "trials.tsv"), "--enroll", str(data_dir / "enroll.tsv"),
            ]  # fmt: skip
            for flag in flags:
                argv += [flag, str(inputs[flag])]
            return main(argv)

        lean, full = tmp_path / "lean.tsv", tmp_path / "full.tsv"
        assert score(lean, used) == 0
        assert score(full, used + extra) == 0
        assert lean.read_bytes() == full.read_bytes()
        printed = capsys.readouterr().out.splitlines()
        assert printed == [printed[0], printed[0].replace(str(lean), str(full))]

        bad = tmp_path / "bad.tsv"
        bad.write_text("#fmt:scores:1\n")  # a file of another format
        for flag in extra:
            inputs[flag], kept = bad, inputs[flag]
            out = tmp_path / f"bad{flag}.tsv"
            rc = score(out, used + extra)
            message = assert_one_error_line(rc, capsys)
            assert message.startswith("error: FormatError: expected format"), message
            assert not out.exists()
            inputs[flag] = kept

    def test_raw_mode_needs_no_cohort(self, data_dir, tmp_path):
        out = tmp_path / "raw.tsv"
        run_ok(
            [
                "score",
                "--embeddings",
                str(data_dir / "eval_embeddings.tsv"),
                "--trials",
                str(data_dir / "trials.tsv"),
                "--enroll",
                str(data_dir / "enroll.tsv"),
                "--mode",
                "raw",
                "--out",
                str(out),
            ]
        )
        ss = formats.read_scores(out)
        assert np.all(ss.scores >= -1.0) and np.all(ss.scores <= 1.0)


    @staticmethod
    def score_snorm(data_dir, out, domains, cohort=None):
        return main(
            [
                "score", "--mode", "snorm", "--out", str(out),
                "--embeddings", str(data_dir / "eval_embeddings.tsv"),
                "--trials", str(data_dir / "trials.tsv"),
                "--enroll", str(data_dir / "enroll.tsv"),
                "--cohort-embeddings", str(cohort or data_dir / "train_embeddings.tsv"),
                f"--cohort-domains={domains}",
            ]
        )  # fmt: skip

    @pytest.mark.parametrize("domains", ["", ","])
    def test_empty_cohort_domains_is_usage_error(self, data_dir, tmp_path, capsys, domains):
        out = tmp_path / "s.tsv"
        rc = self.score_snorm(data_dir, out, domains)
        err = capsys.readouterr().err.splitlines()
        assert rc == 2
        assert len(err) == 1 and err[0].startswith("error: ParamInvalid: --cohort-domains"), err
        assert not out.exists()

    def test_cohort_domains_without_cohort_is_usage_error(self, data_dir, tmp_path, capsys):
        # raw mode reads no cohort, so the domains would be ignored
        out = tmp_path / "s.tsv"
        rc = main(
            [
                "score", "--mode", "raw", "--out", str(out),
                "--embeddings", str(data_dir / "eval_embeddings.tsv"),
                "--trials", str(data_dir / "trials.tsv"),
                "--enroll", str(data_dir / "enroll.tsv"),
                "--cohort-domains", "DEEPMINE",
            ]
        )  # fmt: skip
        assert_param_invalid(rc, capsys, "--cohort-domains is only used with --cohort-embeddings")
        assert not out.exists()

    def test_trailing_comma_in_cohort_domains(self, data_dir, tmp_path):
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        assert self.score_snorm(data_dir, a, "DEEPMINE,") == 0
        assert self.score_snorm(data_dir, b, "DEEPMINE") == 0
        assert a.read_bytes() == b.read_bytes()


class TestCalibrateFuseEval:
    def test_calibrate(self, pipeline_files, tmp_path):
        run_ok(
            [
                "calibrate",
                "--scores",
                str(pipeline_files / "scores.tsv"),
                "--model-out",
                str(tmp_path / "cal.tsv"),
                "--out",
                str(tmp_path / "calibrated.tsv"),
            ]
        )
        model = formats.read_cal_model(tmp_path / "cal.tsv")
        assert model.a > 0  # scores separate in the right direction
        cal = formats.read_scores(tmp_path / "calibrated.tsv")
        raw = formats.read_scores(pipeline_files / "scores.tsv")
        np.testing.assert_allclose(cal.scores, model.a * raw.scores + model.b, atol=1e-12)

    def test_fuse_weighted(self, pipeline_files, tmp_path):
        # dyadic weights (1+3=4) make the convex combination exactly lossless
        out = tmp_path / "fused.tsv"
        run_ok(
            [
                "fuse",
                "--scores",
                str(pipeline_files / "scores.tsv"),
                str(pipeline_files / "scores.tsv"),
                "--weights",
                "1,3",
                "--out",
                str(out),
            ]
        )
        fused = formats.read_scores(out)
        original = formats.read_scores(pipeline_files / "scores.tsv")
        assert np.array_equal(fused.scores, original.scores)

    @pytest.mark.parametrize("weights", ["1", "1,2,3"])
    def test_fuse_weight_count_is_checked_before_reading(
        self, pipeline_files, tmp_path, capsys, weights
    ):
        out = tmp_path / "fused.tsv"
        scores = [str(pipeline_files / "scores.tsv"), str(tmp_path / "missing.tsv")]
        rc = main(["fuse", "--scores", *scores, "--weights", weights, "--out", str(out)])
        n = len(weights.split(","))
        assert_param_invalid(rc, capsys, f"{n} weights for 2 score files")
        assert not out.exists()

    def test_fuse_refuses_weights_whose_sum_overflows(self, pipeline_files, tmp_path, capsys):
        out = tmp_path / "fused.tsv"
        scores = [str(pipeline_files / "scores.tsv")] * 2
        rc = main(["fuse", "--scores", *scores, "--weights", "1e308,1e308", "--out", str(out)])
        err = capsys.readouterr().err.splitlines()
        assert rc == 2 and err == ["error: WeightInvalid: weights sum beyond the float64 range"]
        assert not out.exists()

    def test_fuse_nondyadic_weights_stay_close(self, pipeline_files, tmp_path):
        out = tmp_path / "fused2.tsv"
        run_ok(
            [
                "fuse",
                "--scores",
                str(pipeline_files / "scores.tsv"),
                str(pipeline_files / "scores.tsv"),
                "--weights",
                "1,2",
                "--out",
                str(out),
            ]
        )
        fused = formats.read_scores(out)
        original = formats.read_scores(pipeline_files / "scores.tsv")
        np.testing.assert_allclose(fused.scores, original.scores, rtol=1e-15)

    def test_eval_prints_and_records(self, pipeline_files, tmp_path, capsys):
        out = tmp_path / "metrics.tsv"
        run_ok(
            [
                "eval",
                "--scores",
                str(pipeline_files / "scores.tsv"),
                "--out",
                str(out),
            ]
        )
        printed = capsys.readouterr().out.strip()
        assert printed.startswith("eer=") and " min_dcf=" in printed
        ss = formats.read_scores(pipeline_files / "scores.tsv")
        record = formats.read_metrics_record(out)
        assert record["eer"] == eer(ss)
        assert record["min_dcf"] == min_dcf(ss)

    @pytest.mark.parametrize(("flag", "value"), [("--c-miss", "nan"), ("--c-fa", "inf")])
    def test_eval_non_finite_cost_is_usage_error(
        self, pipeline_files, tmp_path, capsys, flag, value
    ):
        out = tmp_path / "metrics.tsv"
        scores = str(pipeline_files / "scores.tsv")
        rc = main(["eval", "--scores", scores, "--out", str(out), flag, value])
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert rc == 2
        assert len(err) == 1 and err[0].startswith("error: ParamInvalid"), err
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize(
        "costs, miss, fa",
        [
            (["--p-target", "1e-320", "--c-miss", "1e-10"], "0.0", "1.0"),
            (["--p-target", "0.9999999999999999", "--c-fa", "1e-308"], "0.9999999999999999", "0.0"),
        ],
        ids=["miss-weight", "false-accept-weight"],
    )
    def test_eval_cost_weight_underflow_is_usage_error(
        self, pipeline_files, tmp_path, capsys, costs, miss, fa
    ):
        out = tmp_path / "metrics.tsv"
        scores = str(pipeline_files / "scores.tsv")
        rc = main(["eval", "--scores", scores, "--out", str(out), *costs])
        message = f"cost weights must be above 0, got {miss} and {fa}"
        assert assert_param_invalid(rc, capsys, message) == ""
        assert not out.exists()

    def test_eval_on_unlabeled_exits_3(self, tmp_path, capsys):
        path = tmp_path / "unlabeled.tsv"
        formats.write_scores(
            path, ScoreSet(keys=(("m", "t"), ("m", "u")), scores=np.array([0.1, 0.2]))
        )
        rc = main(["eval", "--scores", str(path)])
        assert rc == 3
        assert "error: DegenerateLabels" in capsys.readouterr().err


class TestOptionsMatchTheLibrary:
    """Each option's output equals that of the library call behind it."""

    def test_lid_train_diagonal(self, data_dir, tmp_path):
        protos_path = str(data_dir / "prototypes.tsv")
        out, full, want = tmp_path / "gb.json", tmp_path / "full.json", tmp_path / "want.json"
        argv = ["lid-train", "--prototypes", protos_path, "--interpolation-weight", "0.5"]
        run_ok([*argv, "--diagonal", "--out", str(out)])
        run_ok([*argv, "--out", str(full)])
        protos = formats.read_prototypes(protos_path)
        formats.write_gb_model(want, train_gb(protos, 0.5, diagonal=True))
        assert out.read_bytes() == want.read_bytes() != full.read_bytes()

    def test_plan_batches_epoch_tag(self, data_dir, tmp_path):
        out = tmp_path / "m.tsv"
        run_ok(
            [
                "plan-batches", "--prototypes", str(data_dir / "prototypes.tsv"),
                "--embeddings", str(data_dir / "train_embeddings.tsv"), "--batch-size", "12",
                "--anchors", "3", "--imposters", "4", "--passes", "3", "--epoch-tag", "17",
                "--out", str(out),
            ]
        )  # fmt: skip
        meta = [line.split("\t") for line in out.read_text().splitlines() if line.startswith("#")]
        assert meta[1:] == [["#pass", str(p), "17"] for p in range(3)]  # after the header
        assert [m.epoch_tag for m in formats.read_manifests(out)] == [17] * 3

    def test_eval_nearest_eer(self, pipeline_files, capsys):
        scores = pipeline_files / "scores.tsv"
        run_ok(["eval", "--scores", str(scores), "--eer-mode", "nearest"])
        ss = formats.read_scores(scores)
        printed = capsys.readouterr().out
        assert printed == f"eer={eer(ss, interpolate=False)!r} min_dcf={min_dcf(ss)!r}\n"

    def test_calibrate_apply_to(self, pipeline_files, tmp_path):
        a = pipeline_files / "scores.tsv"
        fit_on = formats.read_scores(a)
        b = tmp_path / "b.tsv"
        formats.write_scores(b, fit_on.with_scores(2.0 * fit_on.scores - 1.0))
        model, c = tmp_path / "cal.tsv", tmp_path / "c.tsv"
        run_ok(
            ["calibrate", "--scores", str(a), "--model-out", str(model),
             "--apply-to", str(b), "--out", str(c)]
        )  # fmt: skip
        want = tmp_path / "want.tsv"
        fitted = fit_calibration(fit_on, trained_on=a.name)
        formats.write_scores(want, apply_calibration(fitted, formats.read_scores(b)))
        assert c.read_bytes() == want.read_bytes()
        assert formats.read_cal_model(model) == fitted

    def test_aam_check_margin_and_scale(self, data_dir, capsys):
        protos_path, emb_path = data_dir / "prototypes.tsv", data_dir / "train_embeddings.tsv"
        argv = ["aam-check", "--prototypes", str(protos_path), "--embeddings", str(emb_path)]
        run_ok([*argv, "--margin", "0.35", "--scale", "12.5"])
        protos, table = formats.read_prototypes(protos_path), formats.read_embeddings(emb_path)
        batch = LabeledBatch(
            embeddings=table.vectors,
            labels=np.array([protos.index_of(s) for s in table.speaker_ids]),
        )
        loss = aam_loss(batch, protos, AamConfig(margin=0.35, scale=12.5))
        assert loss != aam_loss(batch, protos, AamConfig())  # the options are not ignored
        assert capsys.readouterr().out == f"loss on {batch.size} embeddings: {loss!r}\n"


#: the warning filter the CI steps set for every Python process
WARNINGS_AS_ERRORS = "error::RuntimeWarning,error::DeprecationWarning,error::ResourceWarning"


def run_cli(argv, warnings_as_errors, timeout=120, **kwargs):
    """``python -m svbackend <argv>`` in a subprocess, with or without every
    numpy overflow, invalid-value or deprecation warning an error."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    env["PYTHONPATH"] = str(Path(svbackend.__file__).resolve().parents[1])
    if warnings_as_errors:
        env["PYTHONWARNINGS"] = WARNINGS_AS_ERRORS
    return subprocess.run(
        [sys.executable, "-m", "svbackend", *argv],
        env=env, capture_output=True, text=True, timeout=timeout, **kwargs,
    )


def with_weight(text, value):
    """gb.json ``text`` with the JSON text ``value`` as its interpolation weight."""
    return re.sub(r'"interpolation_weight": [^,]*,', f'"interpolation_weight": {value},', text)


def values_from_2(*values):
    """An ``edit_row`` edit that puts ``values`` at vector positions 2, 3, ..."""
    return lambda f: f[:4] + [f[4][:2] + list(values) + f[4][2 + len(values) :]]


def assert_one_error_line(rc, capsys):
    err = capsys.readouterr().err.splitlines()
    assert rc == 3
    assert len(err) == 1 and err[0].startswith("error: "), err
    return err[0]


class TestErrors:
    def test_missing_file_is_data_error(self, capsys, tmp_path):
        rc = main(["eval", "--scores", str(tmp_path / "nope.tsv")])
        assert rc == 3

    @pytest.mark.parametrize("bad", ["trials", "enroll", "embeddings"])
    def test_non_utf8_text_input(self, data_dir, tmp_path, capsys, bad):
        files = {
            "trials": b"#fmt:trials:1\nm1\tu\xff1\ttarget\n",
            "enroll": b"#fmt:enroll:1\nm\xff1\tu1\n",
            "embeddings": b"#fmt:embeddings:1\xff\n",
        }
        paths = {
            "trials": data_dir / "trials.tsv",
            "enroll": data_dir / "enroll.tsv",
            "embeddings": data_dir / "eval_embeddings.tsv",
        }
        paths[bad] = tmp_path / f"{bad}.tsv"
        paths[bad].write_bytes(files[bad])
        rc = main(
            [
                "score", "--mode", "raw", "--out", str(tmp_path / "s.tsv"),
                "--embeddings", str(paths["embeddings"]),
                "--trials", str(paths["trials"]),
                "--enroll", str(paths["enroll"]),
            ]
        )
        assert_one_error_line(rc, capsys)

    def test_repeated_enrollment_row(self, data_dir, tmp_path, capsys):
        # a model's mean would count the repeated utterance twice
        enroll = tmp_path / "enroll.tsv"
        text = (data_dir / "enroll.tsv").read_text()
        enroll.write_text(text + text.splitlines(keepends=True)[1])
        out = tmp_path / "s.tsv"
        rc = main(
            [
                "score", "--mode", "raw", "--out", str(out),
                "--embeddings", str(data_dir / "eval_embeddings.tsv"),
                "--trials", str(data_dir / "trials.tsv"),
                "--enroll", str(enroll),
            ]
        )  # fmt: skip
        assert "FormatError: duplicate enrollment of" in assert_one_error_line(rc, capsys)
        assert not out.exists()

    def test_non_utf8_binary_string_table(self, data_dir, tmp_path, capsys):
        path = tmp_path / "e.sveb"
        formats.write_embeddings_binary(
            path, make_table([make_embedding("u1", "s1", np.ones(4), language=Language.FARSI)])
        )
        path.write_bytes(path.read_bytes().replace(b"u1", b"u\xff"))
        rc = main(
            [
                "score", "--mode", "raw", "--out", str(tmp_path / "s.tsv"),
                "--embeddings", str(path),
                "--trials", str(data_dir / "trials.tsv"),
                "--enroll", str(data_dir / "enroll.tsv"),
            ]
        )
        assert "string table" in assert_one_error_line(rc, capsys)

    @pytest.mark.parametrize(
        "body",
        [
            b'{"mu_farsi": "x", "mu_usa": [1.0], "mu_english_effective": [1.0],'
            b' "shared_cov": [[1.0]], "interpolation_weight": 1.0, "diagonal": false}',
            b'{"mu_farsi": 5, "mu_usa": 5, "mu_english_effective": 5,'
            b' "shared_cov": 5, "interpolation_weight": 1.0, "diagonal": false}',
            b'{"mu_farsi": [1.0], "mu_usa": [1.0], "mu_english_effective": [1.0],'
            b' "shared_cov": [[1.0], []], "interpolation_weight": null, "diagonal": false}',
            b"[1, 2, 3]",
            b'{"mu_farsi": "\xff"}',
        ],
        ids=["string-field", "scalar-fields", "ragged-cov", "list-body", "non-utf8"],
    )
    def test_malformed_backend_model(self, data_dir, tmp_path, capsys, body):
        model = tmp_path / "gb.json"
        model.write_bytes(b"#fmt:gb-model:1\n" + body + b"\n")
        rc = main(
            [
                "lid-classify", "--model", str(model),
                "--embeddings", str(data_dir / "eval_embeddings.tsv"),
                "--out", str(tmp_path / "lid.tsv"),
            ]
        )
        assert_one_error_line(rc, capsys)

    def classify_with(self, model, data_dir, tmp_path):
        return main(
            [
                "lid-classify", "--model", str(model),
                "--embeddings", str(data_dir / "eval_embeddings.tsv"),
                "--out", str(tmp_path / "lid.tsv"),
            ]
        )

    def test_deeply_nested_backend_model(self, data_dir, tmp_path, capsys):
        model = tmp_path / "gb.json"
        model.write_text("#fmt:gb-model:1\n" + "[" * 200_000 + "\n")
        line = assert_one_error_line(self.classify_with(model, data_dir, tmp_path), capsys)
        assert line.startswith("error: FormatError: malformed backend model")
        assert not (tmp_path / "lid.tsv").exists()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("dim", "7"),
            ("dim", "16.0"),
            ("dim", "true"),
            ("dim", '"16"'),
            ("diagonal", "0"),
            ("diagonal", "null"),
            ("diagonal", '"false"'),
            ("interpolation_weight", '"0.75"'),
            ("interpolation_weight", "true"),
        ],
    )
    def test_backend_model_field_types(self, data_dir, tmp_path, capsys, field, value):
        model = tmp_path / "gb.json"
        run_ok(["lid-train", "--prototypes", str(data_dir / "prototypes.tsv"), "--out", str(model)])
        capsys.readouterr()
        text = model.read_text()
        assert re.search(rf'"{field}": (16|false|0\.75),', text)
        model.write_text(re.sub(rf'"{field}": [^,]*,', f'"{field}": {value},', text))
        line = assert_one_error_line(self.classify_with(model, data_dir, tmp_path), capsys)
        assert line.startswith(f"error: FormatError: backend model {field} {value}")

    @staticmethod
    def trained_model(data_dir, tmp_path):
        model = tmp_path / "gb.json"
        run_ok(["lid-train", "--prototypes", str(data_dir / "prototypes.tsv"), "--out", str(model)])
        return model

    @classmethod
    def model_with(cls, data_dir, tmp_path, field, value, also=()):
        """A trained gb.json whose first ``field`` value (and that of each
        field in ``also``) is the JSON text ``value``."""
        model = cls.trained_model(data_dir, tmp_path)
        header, body = model.read_text().split("\n", 1)
        body = json.loads(body)
        for name in (field, *also):
            row = body[name][0] if name == "shared_cov" else body[name]
            row[0] = "@@"
        model.write_text(header + "\n" + json.dumps(body).replace('"@@"', value) + "\n")
        return model

    @pytest.mark.parametrize("value", ["1e400", "Infinity", "-Infinity", "NaN"])
    @pytest.mark.parametrize(
        "field", ["mu_farsi", "mu_usa", "mu_english_effective", "shared_cov"]
    )
    def test_non_finite_backend_model(self, data_dir, tmp_path, capsys, field, value):
        # a non-finite mu_usa comes with a non-finite mu_english_effective,
        # so that the two still agree with the interpolation weight
        also = ("mu_english_effective",) if field == "mu_usa" else ()
        model = self.model_with(data_dir, tmp_path, field, value, also)
        capsys.readouterr()
        line = assert_one_error_line(self.classify_with(model, data_dir, tmp_path), capsys)
        assert line == "error: ValidationError: backend means and covariance must be finite"
        assert not (tmp_path / "lid.tsv").exists()

    @pytest.mark.parametrize("toward", [np.inf, -np.inf], ids=["up", "down"])
    def test_effective_mean_one_ulp_off(self, data_dir, tmp_path, capsys, toward):
        # the stored effective English mean must be the derived one, bit for bit
        model = self.trained_model(data_dir, tmp_path)
        header, body = model.read_text().split("\n", 1)
        body = json.loads(body)
        mu = body["mu_english_effective"]
        mu[3] = float(np.nextafter(mu[3], toward))
        model.write_text(header + "\n" + json.dumps(body) + "\n")
        capsys.readouterr()
        line = assert_one_error_line(self.classify_with(model, data_dir, tmp_path), capsys)
        message = "effective English mean deviates from its interpolation"
        assert line == f"error: ValidationError: {message}"
        assert not (tmp_path / "lid.tsv").exists()

    @pytest.mark.parametrize(
        "field", ["mu_farsi", "mu_usa", "mu_english_effective", "shared_cov"]
    )
    def test_backend_model_int_beyond_float(self, data_dir, tmp_path, capsys, field):
        model = self.model_with(data_dir, tmp_path, field, "1" + "0" * 400)  # 10**400
        capsys.readouterr()
        line = assert_one_error_line(self.classify_with(model, data_dir, tmp_path), capsys)
        message = "malformed backend model field: int too large to convert to float"
        assert line == f"error: FormatError: {message}"
        assert not (tmp_path / "lid.tsv").exists()

    def test_diagonal_backend_model_with_a_full_covariance(self, data_dir, tmp_path, capsys):
        model = self.trained_model(data_dir, tmp_path)
        text = model.read_text()
        assert '"diagonal": false,' in text
        model.write_text(text.replace('"diagonal": false,', '"diagonal": true,'))
        capsys.readouterr()
        line = assert_one_error_line(self.classify_with(model, data_dir, tmp_path), capsys)
        message = "diagonal backend has a nonzero off-diagonal covariance entry"
        assert line == f"error: ValidationError: {message}"
        assert not (tmp_path / "lid.tsv").exists()

    @pytest.mark.parametrize(
        "value, shown",
        [("1.5", "1.5"), ("-0.5", "-0.5"), ("NaN", "NaN"), ("1e400", "Infinity")],
    )
    def test_backend_model_weight_out_of_range(self, data_dir, tmp_path, capsys, value, shown):
        model = self.trained_model(data_dir, tmp_path)
        model.write_text(with_weight(model.read_text(), value))
        capsys.readouterr()
        line = assert_one_error_line(self.classify_with(model, data_dir, tmp_path), capsys)
        message = f"backend model interpolation_weight {shown} is not a number in [0, 1]"
        assert line == f"error: FormatError: {message}"
        assert not (tmp_path / "lid.tsv").exists()

    @staticmethod
    def edit_row(text, k, edit):
        """The embedding file text with data row ``k`` split into its five
        fields (the vector as a list of values) and passed through ``edit``."""
        lines = text.splitlines(keepends=True)
        fields = lines[1 + k].rstrip("\n").split("\t")
        fields[4] = fields[4].split(",")
        fields = edit(fields)
        lines[1 + k] = "\t".join(",".join(f) if isinstance(f, list) else f for f in fields) + "\n"
        return "".join(lines), fields[0]

    HOSTILE_TEXT = {
        "field-count": lambda f: f[:3] + f[4:],
        "malformed-float": lambda f: f[:4] + [f[4][:7] + ["0.1x"] + f[4][8:]],
        "nan": lambda f: f[:4] + [f[4][:3] + ["nan"] + f[4][4:]],
        "inf": lambda f: f[:4] + [f[4][:3] + ["-inf"] + f[4][4:]],
        "empty-utt-id": lambda f: [""] + f[1:],
        "empty-speaker-id": lambda f: f[:1] + [""] + f[2:],
        "unknown-domain": lambda f: f[:2] + ["MARS"] + f[3:],
        "unknown-language": lambda f: f[:3] + ["KLINGON"] + f[4:],
        "mixed-dimensions": lambda f: f[:4] + [f[4][:-1]],
        "empty-vector": lambda f: f[:4] + [[""]],
    }

    @pytest.mark.parametrize("case", sorted(HOSTILE_TEXT))
    def test_hostile_text_embeddings(self, data_dir, tmp_path, capsys, case):
        text, utt_id = self.edit_row(
            (data_dir / "eval_embeddings.tsv").read_text(), 5, self.HOSTILE_TEXT[case]
        )
        path = tmp_path / "e.tsv"
        path.write_text(text)
        rc = main(
            [
                "score", "--mode", "raw", "--out", str(tmp_path / "s.tsv"),
                "--embeddings", str(path),
                "--trials", str(data_dir / "trials.tsv"),
                "--enroll", str(data_dir / "enroll.tsv"),
            ]
        )
        line = assert_one_error_line(rc, capsys)
        if case in ("malformed-float", "mixed-dimensions"):
            assert utt_id in line  # names the row, not just the file

    @staticmethod
    def plan(data_dir, tmp_path, embeddings):
        return main(
            [
                "plan-batches", "--prototypes", str(data_dir / "prototypes.tsv"),
                "--embeddings", str(embeddings), "--out", str(tmp_path / "m.tsv"),
                "--batch-size", "12", "--anchors", "3", "--imposters", "4",
            ]
        )

    def assert_plans_as_read_embeddings(self, data_dir, tmp_path, capsys, path):
        """plan-batches on the inventory ``path`` fails with the error line of
        ``read_embeddings(path)``, or both read the same ids; returns the line."""
        rc = self.plan(data_dir, tmp_path, path)
        try:
            table = formats.read_embeddings(path)
        except PipelineError as exc:
            line = assert_one_error_line(rc, capsys)
            assert line == f"error: {type(exc).__name__}: {exc}"
            assert not (tmp_path / "m.tsv").exists()
            return line
        assert rc == 0
        assert formats.read_embedding_ids(path) == (table.utt_ids, table.speaker_ids)
        return None

    @pytest.mark.parametrize("case", sorted(HOSTILE_TEXT))
    def test_hostile_text_inventory(self, data_dir, tmp_path, capsys, case):
        text, utt_id = self.edit_row(
            (data_dir / "train_embeddings.tsv").read_text(), 5, self.HOSTILE_TEXT[case]
        )
        path = tmp_path / "e.tsv"
        path.write_text(text)
        line = self.assert_plans_as_read_embeddings(data_dir, tmp_path, capsys, path)
        assert line is not None
        if case in ("malformed-float", "mixed-dimensions"):
            assert utt_id in line

    #: values that ``float`` decides on (overflow, odd spellings), and rows
    #: with two faults, where the one ``read_embeddings`` reports must win
    ODD_TEXT = {
        "1e400": values_from_2("1e400"),
        "long-integer": values_from_2("9" * 400),
        "spaced": values_from_2(" 0.5 "),
        "underscore": values_from_2("1_0"),
        "file-separator": values_from_2("\x1c1"),
        "upper-exponent": values_from_2("1E-5"),
        "three-digit-exponent": values_from_2("1e+100"),
        "large-repr": values_from_2(repr(1.5e300)),
        "nan-then-malformed": values_from_2("nan", "0.5", "0.1x"),
        "unknown-domain-and-nan": lambda f: f[:2] + ["MARS", f[3], ["nan"] + f[4][1:]],
    }

    @pytest.mark.parametrize("case", sorted(ODD_TEXT))
    def test_odd_values_in_text_inventory(self, data_dir, tmp_path, capsys, case):
        text, _ = self.edit_row(
            (data_dir / "train_embeddings.tsv").read_text(), 4, self.ODD_TEXT[case]
        )
        path = tmp_path / "e.tsv"
        path.write_text(text)
        line = self.assert_plans_as_read_embeddings(data_dir, tmp_path, capsys, path)
        first = {"unknown-domain-and-nan": "unknown Domain", "nan-then-malformed": "malformed"}
        if case in first:
            assert first[case] in line

    @pytest.mark.parametrize(
        ("case", "rc"), [("zero-row", 4), ("huge-row", 4), ("malformed-float", 3)]
    )
    def test_score_checks_rows_the_cohort_drops(self, data_dir, tmp_path, capsys, case, rc):
        train = (data_dir / "train_embeddings.tsv").read_text()
        k = next(r for r, line in enumerate(train.splitlines()[1:]) if "\tVOX\t" in line)
        edit = {
            "zero-row": lambda f: f[:4] + [["0.0"] * len(f[4])],
            "huge-row": values_from_2("1e+200"),
        }.get(case)
        text, _ = self.edit_row(train, k, edit or self.HOSTILE_TEXT[case])
        path = tmp_path / "cohort.tsv"
        path.write_text(text)
        with pytest.raises(PipelineError) as exc:
            Cohort.from_embeddings(formats.read_embeddings(path), [Domain.DEEPMINE])
        got = TestScore.score_snorm(data_dir, tmp_path / "s.tsv", "DEEPMINE", cohort=path)
        err = capsys.readouterr().err.splitlines()
        assert got == rc == exc.value.exit_code
        assert err == [f"error: {type(exc.value).__name__}: {exc.value}"]
        error = {"zero-row": "NormUnderflow", "huge-row": "NormOverflow"}.get(case, "FormatError")
        assert err[0].startswith(f"error: {error}:")

    def test_plan_batches_rejects_whitespace_id_before_planning(self, data_dir, tmp_path, capsys):
        text, utt_id = self.edit_row(
            (data_dir / "train_embeddings.tsv").read_text(), 7, lambda f: [f[0] + " x"] + f[1:]
        )
        path, out = tmp_path / "e.tsv", tmp_path / "m.tsv"
        path.write_text(text)
        out.write_text("kept\n")
        line = assert_one_error_line(self.plan(data_dir, tmp_path, path), capsys)
        assert f"embeddings row 7 utt_id {utt_id!r}" in line
        assert out.read_text() == "kept\n"

    def test_lid_classify_whitespace_id_writes_no_decisions(
        self, pipeline_files, data_dir, tmp_path, capsys
    ):
        # read_embeddings takes the id; the writer refuses it before opening its output
        text, utt_id = self.edit_row(
            (data_dir / "eval_embeddings.tsv").read_text(), 20, lambda f: [f[0] + " x"] + f[1:]
        )
        path, out = tmp_path / "e.tsv", tmp_path / "lid.tsv"
        path.write_text(text)
        rc = main(
            [
                "lid-classify", "--model", str(pipeline_files / "gb.json"),
                "--embeddings", str(path), "--out", str(out),
            ]
        )
        assert f"utt_id {utt_id!r}" in assert_one_error_line(rc, capsys)
        assert not out.exists()

    @pytest.mark.parametrize("name", ["s\tcores.tsv", "s\rcores.tsv", "s\ncores.tsv"])
    def test_calibrate_refuses_a_scores_name_the_model_cannot_hold(
        self, pipeline_files, tmp_path, capsys, name
    ):
        # the model records the scores file name, and its reader splits rows on these
        scores = tmp_path / name
        scores.write_bytes((pipeline_files / "scores.tsv").read_bytes())
        model, out = tmp_path / "cal.tsv", tmp_path / "calibrated.tsv"
        rc = main(
            ["calibrate", "--scores", str(scores), "--model-out", str(model), "--out", str(out)]
        )
        assert "trained_on" in assert_one_error_line(rc, capsys)
        assert not model.exists() and not out.exists()

    @pytest.mark.parametrize("with_out", [False, True])
    def test_calibrate_reads_apply_to_before_writing(
        self, pipeline_files, tmp_path, capsys, with_out
    ):
        bad = tmp_path / "bad.tsv"
        bad.write_text("garbage\n")
        model, out = tmp_path / "cal.tsv", tmp_path / "calibrated.tsv"
        argv = [
            "calibrate", "--scores", str(pipeline_files / "scores.tsv"),
            "--model-out", str(model), "--apply-to", str(bad),
        ] + (["--out", str(out)] if with_out else [])  # fmt: skip
        assert "missing #fmt header" in assert_one_error_line(main(argv), capsys)
        assert not model.exists() and not out.exists()

    def test_plan_batches_rejects_whitespace_id_in_binary_inventory(
        self, data_dir, tmp_path, capsys
    ):
        table = formats.read_embeddings(data_dir / "train_embeddings.tsv")
        path = tmp_path / "e.sveb"
        formats.write_embeddings_binary(path, table)
        utt = table.utt_ids[3].encode()
        raw = path.read_bytes()
        assert raw.count(utt) == 1
        path.write_bytes(raw.replace(utt, utt[:-1] + b" "))  # same length, same layout
        line = assert_one_error_line(self.plan(data_dir, tmp_path, path), capsys)
        assert "embeddings row 3 utt_id" in line
        assert not (tmp_path / "m.tsv").exists()

    @staticmethod
    def binary_file(tmp_path):
        table = make_table(
            [make_embedding(f"u{k}", f"s{k % 2}", np.arange(1.0, 5.0) + k) for k in range(3)]
        )
        path = tmp_path / "e.sveb"
        formats.write_embeddings_binary(path, table)
        head, payload = path.read_bytes().split(b"\n", 1)
        return path, head + b"\n", payload

    # payload bytes of binary_file: magic 0-3, version 4-5, dim 6-9, count
    # 10-17, 3 x 4 float32 values 18-65, string count 66-69, and the three
    # 10-byte records last
    HOSTILE_BINARY = {
        "truncated-vectors": lambda p: p[:30],
        "truncated-records": lambda p: p[:-4],
        "trailing-bytes": lambda p: p + b"\x00",
        "huge-count": lambda p: p[:10] + struct.pack("<Q", 1 << 40) + p[18:],
        "huge-dim": lambda p: p[:6] + struct.pack("<I", 1 << 31) + p[10:],
        "bad-magic": lambda p: b"SVEX" + p[4:],
        "utt-index": lambda p: p[:-10] + struct.pack("<IIBB", 99, 0, 0, 0),
        "speaker-index": lambda p: p[:-10] + struct.pack("<IIBB", 0, 99, 0, 0),
        "domain-index": lambda p: p[:-10] + struct.pack("<IIBB", 0, 1, 3, 0),
        "language-index": lambda p: p[:-10] + struct.pack("<IIBB", 0, 1, 0, 4),
        "string-count": lambda p: p[:66] + struct.pack("<I", 1 << 30) + p[70:],
    }

    #: HOSTILE_BINARY, plus float32 payloads that ``read_embeddings`` rejects
    #: only after converting them (the first value at payload bytes 18-21)
    HOSTILE_BINARY_INVENTORY = {
        **HOSTILE_BINARY,
        "nan-value": lambda p: p[:18] + struct.pack("<f", float("nan")) + p[22:],
        "inf-value": lambda p: p[:18] + struct.pack("<f", float("-inf")) + p[22:],
    }

    @pytest.mark.parametrize("case", sorted(HOSTILE_BINARY_INVENTORY))
    def test_hostile_binary_inventory(self, data_dir, tmp_path, capsys, case):
        path, head, payload = self.binary_file(tmp_path)
        path.write_bytes(head + self.HOSTILE_BINARY_INVENTORY[case](payload))
        line = self.assert_plans_as_read_embeddings(data_dir, tmp_path, capsys, path)
        assert line is not None
        if case.endswith("-value"):
            assert line == "error: ValidationError: vector contains non-finite entries"

    @pytest.mark.parametrize("case", sorted(HOSTILE_BINARY))
    def test_hostile_binary_embeddings(self, data_dir, tmp_path, capsys, case):
        path, head, payload = self.binary_file(tmp_path)
        path.write_bytes(head + self.HOSTILE_BINARY[case](payload))
        tracemalloc.start()
        try:
            with pytest.raises(FormatError):
                formats.read_embeddings_binary(path)
            assert tracemalloc.get_traced_memory()[1] < 1 << 20  # no allocation sized by the header
        finally:
            tracemalloc.stop()
        rc = main(
            [
                "score", "--mode", "raw", "--out", str(tmp_path / "s.tsv"),
                "--embeddings", str(path),
                "--trials", str(data_dir / "trials.tsv"),
                "--enroll", str(data_dir / "enroll.tsv"),
            ]
        )
        assert_one_error_line(rc, capsys)

    def test_aam_check_mixed_dimensions(self, data_dir, tmp_path, capsys):
        text, utt_id = self.edit_row(
            (data_dir / "train_embeddings.tsv").read_text(), 1, lambda f: f[:4] + [f[4][:2]]
        )
        path = tmp_path / "mixed.tsv"
        path.write_text(text)
        rc = main(
            [
                "aam-check", "--prototypes", str(data_dir / "prototypes.tsv"),
                "--embeddings", str(path),
            ]
        )
        assert utt_id in assert_one_error_line(rc, capsys)

    def test_plan_batches_rejects_mixed_dimensions(self, data_dir, tmp_path, capsys):
        text, _ = self.edit_row(
            (data_dir / "train_embeddings.tsv").read_text(), 3, lambda f: f[:4] + [f[4] + ["0.5"]]
        )
        path = tmp_path / "mixed.tsv"
        path.write_text(text)
        rc = main(
            [
                "plan-batches", "--prototypes", str(data_dir / "prototypes.tsv"),
                "--embeddings", str(path), "--out", str(tmp_path / "m.tsv"),
                "--batch-size", "12", "--anchors", "3", "--imposters", "4",
            ]
        )
        assert "mixed dimensions" in assert_one_error_line(rc, capsys)

    @pytest.mark.parametrize("case", sorted(PROTOTYPE_DEFECTS) + ["no-rows"])
    def test_hostile_prototypes(self, data_dir, tmp_path, capsys, case):
        text = (data_dir / "prototypes.tsv").read_text()
        path, out = tmp_path / "p.tsv", tmp_path / "out.tsv"
        path.write_text("#fmt:prototypes:1\n" if case == "no-rows" else edit_prototype_row(text, 3, case))
        with pytest.raises(PipelineError) as exc:
            formats.read_prototypes(path)
        inventory = str(data_dir / "train_embeddings.tsv")
        for argv in (
            ["alpha", "--prototypes", str(path), "--out", str(out)],
            ["lid-train", "--prototypes", str(path), "--out", str(out)],
            ["plan-batches", "--prototypes", str(path), "--embeddings", inventory, "--out", str(out)],
        ):
            rc = main(argv)
            err = capsys.readouterr().err.splitlines()
            assert rc == exc.value.exit_code and rc in (3, 4), argv
            assert err == [f"error: {type(exc.value).__name__}: {exc.value}"], argv
            assert not out.exists()

    def test_no_subcommand_exits_2(self, capsys):
        assert main([]) == 2


@pytest.mark.parametrize("warnings_as_errors", [False, True], ids=["default", "werror"])
class TestHostileInputsInASubprocess:
    """Non-finite model values, rows whose norm overflows and pipes fail
    with one ``error:`` line, their exit code and no output file, whether
    or not warnings are errors, and within a timeout."""

    @staticmethod
    def classify(pipeline_files, data_dir, tmp_path, warnings_as_errors, model=None, **kwargs):
        embeddings = kwargs.pop("embeddings", data_dir / "eval_embeddings.tsv")
        out = tmp_path / "lid.tsv"
        proc = run_cli(
            [
                "lid-classify", "--model", str(model or pipeline_files / "gb.json"),
                "--embeddings", str(embeddings), "--out", str(out),
            ],
            warnings_as_errors,
            **kwargs,
        )
        assert not out.exists()
        return proc.returncode, proc.stderr.splitlines()

    @pytest.mark.parametrize(
        "field, value, also",
        [
            ("mu_usa", "1e400", ("mu_english_effective",)),
            ("shared_cov", "Infinity", ()),
            ("mu_farsi", "NaN", ()),
        ],
    )
    def test_non_finite_backend_model(
        self, pipeline_files, data_dir, tmp_path, warnings_as_errors, field, value, also
    ):
        model = TestErrors.model_with(data_dir, tmp_path, field, value, also)
        got = self.classify(pipeline_files, data_dir, tmp_path, warnings_as_errors, model)
        assert got == (3, ["error: ValidationError: backend means and covariance must be finite"])

    def test_calibrate_scores_too_large(self, pipeline_files, tmp_path, warnings_as_errors):
        # near 1e200 the sum of w*s^2 in the Newton system's Hessian overflows
        scores = tmp_path / "big.tsv"
        ss = formats.read_scores(pipeline_files / "scores.tsv")
        formats.write_scores(scores, ss.with_scores(ss.scores * 1e200))
        model = tmp_path / "cal.tsv"
        argv = ["calibrate", "--scores", str(scores), "--model-out", str(model)]
        proc = run_cli(argv, warnings_as_errors)
        message = "scores too large for the Newton system: its gradient or Hessian is not finite"
        assert proc.returncode == 4
        assert proc.stderr.splitlines() == [f"error: NonConvergence: {message}"]
        assert not model.exists()

    def test_nan_backend_weight(self, pipeline_files, data_dir, tmp_path, warnings_as_errors):
        model = tmp_path / "gb.json"
        text = (pipeline_files / "gb.json").read_text()
        model.write_text(with_weight(text, "NaN"))
        got = self.classify(pipeline_files, data_dir, tmp_path, warnings_as_errors, model)
        message = "backend model interpolation_weight NaN is not a number in [0, 1]"
        assert got == (3, [f"error: FormatError: {message}"])

    @pytest.mark.parametrize("stage", ["lid-classify", "score"])
    def test_eval_row_whose_norm_overflows(
        self, pipeline_files, data_dir, tmp_path, warnings_as_errors, stage
    ):
        huge = lambda f: f[:4] + [["1e200"] * len(f[4])]  # noqa: E731
        text, _ = TestErrors.edit_row((data_dir / "eval_embeddings.tsv").read_text(), 3, huge)
        path = tmp_path / "eval.tsv"
        path.write_text(text)
        if stage == "lid-classify":
            got = self.classify(
                pipeline_files, data_dir, tmp_path, warnings_as_errors, embeddings=path
            )
        else:
            out = tmp_path / "scores.tsv"
            proc = run_cli(
                [
                    "score", "--mode", "raw", "--out", str(out), "--embeddings", str(path),
                    "--trials", str(data_dir / "trials.tsv"),
                    "--enroll", str(data_dir / "enroll.tsv"),
                ],
                warnings_as_errors,
            )
            assert not out.exists()
            got = proc.returncode, proc.stderr.splitlines()
        assert got == (4, ["error: NormOverflow: vector norm beyond the float64 range"])

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_named_pipe_with_a_writer(
        self, pipeline_files, data_dir, tmp_path, warnings_as_errors
    ):
        pipe = tmp_path / "eval.tsv"
        os.mkfifo(pipe)
        # the writer waits in its open for a reader that never comes
        write = "import sys; open(sys.argv[2], 'wb').write(open(sys.argv[1], 'rb').read())"
        writer = subprocess.Popen(
            [sys.executable, "-c", write, str(data_dir / "eval_embeddings.tsv"), str(pipe)],
            stderr=subprocess.DEVNULL,
        )
        try:
            got = self.classify(
                pipeline_files, data_dir, tmp_path, warnings_as_errors, embeddings=pipe, timeout=60
            )
        finally:
            writer.kill()
            writer.wait()
        assert got == (3, [f"error: FormatError: {pipe} is not a regular file"])

    @pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")
    def test_anonymous_pipe(self, pipeline_files, data_dir, tmp_path, warnings_as_errors):
        got = self.classify(
            pipeline_files, data_dir, tmp_path, warnings_as_errors,
            embeddings="/dev/stdin", timeout=60,
            input=(data_dir / "eval_embeddings.tsv").read_text(),
        )
        assert got == (3, ["error: FormatError: /dev/stdin is not a regular file"])


class TestHostileOffsetAndDecisions:
    """Values no stage writes: ``score`` fails with one ``error:`` line and
    exit 3, and writes no score file."""

    #: a provenance that estimate_alpha could have written; alpha = 0.5 - 0.1
    ALPHA = {
        "alpha": repr(0.5 - 0.1), "top_n": "5", "n_farsi": "15", "n_usa": "18",
        "mu_imposter_farsi": "0.5", "mu_imposter_usa": "0.1",
    }  # fmt: skip

    @staticmethod
    def score(pipeline_files, data_dir, tmp_path, alpha=None, lid=None):
        out = tmp_path / "scores.tsv"
        proc = run_cli(
            [
                "score", "--mode", "snorm-lid", "--out", str(out), "--top-n", "8",
                "--embeddings", str(data_dir / "eval_embeddings.tsv"),
                "--trials", str(data_dir / "trials.tsv"), "--enroll", str(data_dir / "enroll.tsv"),
                "--cohort-embeddings", str(data_dir / "train_embeddings.tsv"),
                "--alpha", str(alpha or pipeline_files / "alpha.tsv"),
                "--lid", str(lid or pipeline_files / "lid.tsv"),
            ],
            warnings_as_errors=True,
        )  # fmt: skip
        assert out.exists() == (proc.returncode == 0)
        return proc.returncode, proc.stderr.splitlines()

    def alpha_file(self, tmp_path, **changes):
        path = tmp_path / "alpha.tsv"
        pairs = {**self.ALPHA, **changes}
        path.write_text("#fmt:alpha:1\n" + "".join(f"{k}\t{v}\n" for k, v in pairs.items()))
        return path

    def test_consistent_provenance_is_read(self, pipeline_files, data_dir, tmp_path):
        alpha = self.alpha_file(tmp_path)
        assert self.score(pipeline_files, data_dir, tmp_path, alpha=alpha) == (0, [])

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"mu_imposter_farsi": "nan"}, "alpha file holds a non-finite imposter mean"),
            ({"mu_imposter_usa": "inf"}, "alpha file holds a non-finite imposter mean"),
            ({"top_n": "1"}, "alpha counts out of range: top_n 1, n_farsi 15, n_usa 18"),
            ({"n_usa": "0"}, "alpha counts out of range: top_n 5, n_farsi 15, n_usa 0"),
            ({"n_farsi": "-3"}, "alpha counts out of range: top_n 5, n_farsi -3, n_usa 18"),
            ({"n_farsi": "5"}, "alpha counts out of range: top_n 5, n_farsi 5, n_usa 18"),
            ({"alpha": "0.25"}, "alpha is not mu_imposter_farsi - mu_imposter_usa"),
            ({"alpha": "0.39999999999999997"}, "alpha is not mu_imposter_farsi - mu_imposter_usa"),
        ],
    )
    def test_hostile_alpha(self, pipeline_files, data_dir, tmp_path, changes, message):
        alpha = self.alpha_file(tmp_path, **changes)
        got = self.score(pipeline_files, data_dir, tmp_path, alpha=alpha)
        assert got == (3, [f"error: FormatError: {message}"])

    @pytest.mark.parametrize("llr", ["nan", "-inf", "inf"])
    def test_non_finite_llr(self, pipeline_files, data_dir, tmp_path, llr):
        header, first, *rest = (pipeline_files / "lid.tsv").read_text().splitlines(keepends=True)
        utt_id, language, _ = first.rstrip("\n").split("\t")
        lid = tmp_path / "lid.tsv"
        lid.write_text("".join([header, f"{utt_id}\t{language}\t{llr}\n", *rest]))
        got = self.score(pipeline_files, data_dir, tmp_path, lid=lid)
        assert got == (3, [f"error: FormatError: non-finite llr for {utt_id!r}"])


class TestUsage:
    @staticmethod
    def subcommands():
        parser = build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        return sorted(sub.choices)

    def test_help_shows_each_default_once(self, capsys):
        for name in self.subcommands():
            with pytest.raises(SystemExit):
                main([name, "--help"])
            # one entry per option: a line that starts with "  -" and its continuations
            entries = re.split(r"\n  (?=-)", capsys.readouterr().out)
            doubled = [e.split()[0] for e in entries if e.count("(default") > 1]
            assert not doubled, (name, doubled)
            # an option without a default shows none
            assert "(default: None)" not in " ".join(" ".join(entries).split()), name

    def test_argparse_errors_name_the_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["plan-batches", "--no-such-option"])
        assert exc.value.code == 2
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("usage: svbackend plan-batches")
        assert err[-1].startswith("svbackend plan-batches: error: ")

    def test_readme_end_to_end_block_runs(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("End-to-end on synthetic data:")[1].split("```bash\n")[1]
        commands = block.split("```")[0].replace("\\\n", " ").splitlines()
        assert len(commands) == 9
        src = str(Path(svbackend.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        for command in commands:
            argv = shlex.split(command)
            assert argv[0] == "svbackend", command
            proc = subprocess.run(
                [sys.executable, "-m", "svbackend", *argv[1:]],
                cwd=tmp_path, env=env, capture_output=True, text=True,
            )
            assert proc.returncode == 0, (command, proc.stderr)
        assert proc.stdout.startswith("eer="), proc.stdout
