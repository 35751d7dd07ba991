import numpy as np
import pytest

from svbackend import formats
from svbackend.cli import main
from svbackend.metrics import eer, min_dcf
from svbackend.scores import ScoreSet


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


class TestAamCheck:
    def test_random_selfcheck(self, capsys):
        run_ok(["aam-check", "--seed", "3", "--instances", "5"])
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


class TestScore:
    def test_scores_written_with_labels(self, pipeline_files):
        ss = formats.read_scores(pipeline_files / "scores.tsv")
        assert ss.labeled
        assert len(ss) == 145

    def test_snorm_lid_requires_lid_file(self, data_dir, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(
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
                    "--mode",
                    "snorm-lid",
                    "--out",
                    str(tmp_path / "s.tsv"),
                ]
            )
        assert exc.value.code == 2

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

    def test_eval_on_unlabeled_exits_3(self, tmp_path, capsys):
        path = tmp_path / "unlabeled.tsv"
        formats.write_scores(
            path, ScoreSet(keys=(("m", "t"), ("m", "u")), scores=np.array([0.1, 0.2]))
        )
        rc = main(["eval", "--scores", str(path)])
        assert rc == 3
        assert "error: DegenerateLabels" in capsys.readouterr().err


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

    def test_non_utf8_binary_string_table(self, data_dir, tmp_path, capsys):
        path = tmp_path / "e.sveb"
        formats.write_embeddings_binary(path, [formats.Embedding(
            "u1", "s1", formats.Domain.VOX, formats.Language.FARSI, np.ones(4)
        )])
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

    def test_no_subcommand_exits_2(self, capsys):
        assert main([]) == 2
