"""The benchmark's workloads and the CLI arguments of each stage.

Every corpus comes from ``svbackend synth`` at dim 256 with a language shift
of 0.8; ``--seed`` of the benchmark is the seed of ``synth`` and of
``plan-batches``.  Trial counts stay below the smallest pool any seed can
draw from (``utts_min`` test utterances per eval speaker), so no seed makes
``synth`` refuse its request.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

#: The timed chain.  ``calibrate`` is left out: its Newton fit stops with
#: NonConvergence on some seeds of sdsv-eval and train-plan (see CHANGES.md), and an
#: operation that fails on some seeds only would make the failure share
#: depend on the seed.  ``fuse`` therefore fuses scores.tsv with itself.
STAGES = (
    "plan-batches",
    "lid-train",
    "lid-classify",
    "alpha",
    "score",
    "fuse",
    "eval",
)

#: Artifacts each stage writes into the work directory.
ARTIFACTS = {
    "plan-batches": ("manifest.tsv",),
    "lid-train": ("gb.json",),
    "lid-classify": ("lid.tsv",),
    "alpha": ("alpha.tsv",),
    "score": ("scores.tsv",),
    "fuse": ("fused.tsv",),
    "eval": ("metrics.tsv",),
}

CORPUS_FILES = ("prototypes.tsv", "eval_embeddings.tsv", "trials.tsv", "enroll.tsv")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    synth: dict
    plan: dict
    binary: bool
    top_n: int = 40
    interpolation_weight: float = 0.75
    target_domain: str = "DEEPMINE"
    cohort_domain: str = "DEEPMINE"
    p_target: float = 0.01

    @property
    def train_file(self) -> str:
        return "train_embeddings.sveb" if self.binary else "train_embeddings.tsv"

    @property
    def corpus_files(self) -> tuple[str, ...]:
        return (self.train_file,) + CORPUS_FILES

    def synth_args(self, out: Path, seed: int) -> list[str]:
        s = self.synth
        args = [
            "synth", "--out-dir", str(out), "--seed", str(seed),
            "--dim", str(s["dim"]), "--shift", "0.8",
            "--vox", str(s["vox"]), "--libri", str(s["libri"]),
            "--deepmine", str(s["deepmine"]), "--eval-speakers", str(s["eval_speakers"]),
            "--utts-min", str(s["utts_min"]), "--utts-max", str(s["utts_max"]),
            "--enroll-utts", str(s["enroll_utts"]),
            "--targets", str(s["targets"]), "--nontargets", str(s["nontargets"]),
        ]
        return args + (["--binary"] if self.binary else [])

    def stage_args(self, stage: str, data: Path, work: Path, seed: int) -> list[str]:
        p = self.plan
        protos = str(data / "prototypes.tsv")
        train = str(data / self.train_file)
        evals = str(data / "eval_embeddings.tsv")
        w = lambda name: str(work / name)  # noqa: E731
        return {
            "plan-batches": [
                "plan-batches", "--prototypes", protos, "--embeddings", train,
                "--mode", p["mode"], "--target-domain", self.target_domain,
                "--batch-size", str(p["batch_size"]), "--anchors", str(p["anchors"]),
                "--imposters", str(p["imposters"]),
                "--utts-per-speaker", str(p["utts_per_speaker"]),
                "--passes", str(p["passes"]), "--seed", str(seed),
                "--out", w("manifest.tsv"),
            ],
            "lid-train": [
                "lid-train", "--prototypes", protos,
                "--interpolation-weight", repr(self.interpolation_weight), "--out", w("gb.json"),
            ],
            "lid-classify": [
                "lid-classify", "--model", w("gb.json"), "--embeddings", evals, "--out", w("lid.tsv"),
            ],
            "alpha": ["alpha", "--prototypes", protos, "--top-n", str(self.top_n), "--out", w("alpha.tsv")],
            "score": [
                "score", "--embeddings", evals, "--trials", str(data / "trials.tsv"),
                "--enroll", str(data / "enroll.tsv"), "--cohort-embeddings", train,
                "--cohort-domains", self.cohort_domain, "--mode", "snorm-lid",
                "--alpha", w("alpha.tsv"), "--lid", w("lid.tsv"),
                "--top-n", str(self.top_n), "--out", w("scores.tsv"),
            ],
            # not in STAGES; the self-test runs it to exercise its check
            "calibrate": [
                "calibrate", "--scores", w("scores.tsv"), "--model-out", w("cal.tsv"),
                "--out", w("calibrated.tsv"),
            ],
            "fuse": [
                "fuse", "--scores", w("scores.tsv"), w("scores.tsv"),
                "--weights", "1,2", "--out", w("fused.tsv"),
            ],
            "eval": [
                "eval", "--scores", w("fused.tsv"), "--p-target", repr(self.p_target),
                "--out", w("metrics.tsv"),
            ],
        }[stage]


def _synth(vox, libri, deepmine, eval_speakers, utts, targets, nontargets, enroll_utts=3):
    return {
        "dim": 256, "vox": vox, "libri": libri, "deepmine": deepmine,
        "eval_speakers": eval_speakers, "utts_min": utts[0], "utts_max": utts[1],
        "enroll_utts": enroll_utts, "targets": targets, "nontargets": nontargets,
    }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sdsv-eval",
            why="cross-lingual evaluation on text files: parsing, per-utterance LID, alpha over Farsi prototypes and s-norm statistics dominate",
            synth=_synth(180, 100, 160, 36, (5, 9), targets=180, nontargets=6000),
            plan={"mode": "balanced", "batch_size": 128, "anchors": 16, "imposters": 8,
                  "utts_per_speaker": 1, "passes": 1},
            binary=False,
        ),
        Workload(
            name="train-plan",
            why="per-epoch domain-balanced mining over many speakers: the similarity matrix and top-k selection dominate and set the peak RSS",
            synth=_synth(940, 500, 160, 30, (2, 4), targets=60, nontargets=1500),
            plan={"mode": "balanced", "batch_size": 128, "anchors": 16, "imposters": 8,
                  "utts_per_speaker": 1, "passes": 4},
            binary=True,
        ),
        Workload(
            name="dense-trials",
            why="many trials per test utterance: the per-trial loop, score-file I/O, fusion and metrics over a long score list dominate",
            synth=_synth(200, 100, 160, 120, (2, 2), targets=240, nontargets=28000, enroll_utts=2),
            plan={"mode": "broad", "batch_size": 128, "anchors": 16, "imposters": 8,
                  "utts_per_speaker": 1, "passes": 1},
            binary=True,
        ),
    )
}
