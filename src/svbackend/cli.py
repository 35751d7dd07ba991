"""Command-line surface: synth -> plan-batches -> lid -> alpha -> score ->
calibrate -> fuse -> eval, plus the aam-check self-test.

Exit codes: 0 success, 2 usage errors, 3 data errors, 4 numerical errors.
Failures print one machine-parsable line: ``error: <ErrorClass>: <message>``.

Each ``cmd_*`` imports what it runs, so a stage loads only its own modules.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

import numpy as np

from . import formats
from .errors import NumericalError, ParamInvalid, PipelineError
from .vecmath import DEFAULT_TOP_N, Domain, Language, ScoringMode

# Tracer-forced: perfbench/traced_cli.py times these layers by rebinding
# ``cli.<name>`` to a wrapper, so the commands call them through _layer.
# This lookup goes once the tracer reads spans recorded inside svbackend.
_LAYERS = {
    "generate_corpus": "synth",
    "similarity_matrix": "prototypes",
    "plan_pass_broad": "planner",
    "plan_pass_balanced": "planner",
    "train_gb": "lid",
    "classify": "lid",
    "score_trials": "scoring",
    "fuse": "calibration",
    "eer": "metrics",
    "min_dcf": "metrics",
}


def __getattr__(name):
    if name not in _LAYERS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(__import__(f"{__package__}.{_LAYERS[name]}", fromlist=[name]), name)


def _layer(name):
    """``cli.<name>``: the wrapper bound on this module, else the function."""
    return globals()[name] if name in globals() else __getattr__(name)


def _domain_list(text: str) -> list[Domain]:
    try:
        return [Domain(part) for part in text.split(",") if part]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _weights(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part]
    except ValueError:
        raise argparse.ArgumentTypeError(f"malformed weight list {text!r}") from None


def cmd_synth(args) -> None:
    from .synth import CorpusSpec

    spec = CorpusSpec(
        dim=args.dim,
        vox_speakers=args.vox,
        libri_speakers=args.libri,
        deepmine_speakers=args.deepmine,
        eval_speakers=args.eval_speakers,
        utts_per_speaker=(args.utts_min, args.utts_max),
        concentration=args.concentration,
        language_shift=args.shift,
        english_fraction=args.english_fraction,
        enroll_utts=args.enroll_utts,
        target_trials=args.targets,
        nontarget_trials=args.nontargets,
        seed=args.seed,
    )
    corpus = _layer("generate_corpus")(spec)
    out = Path(args.out_dir)
    if args.binary:
        formats.write_embeddings_binary(out / "train_embeddings.sveb", corpus.train_embeddings)
    else:
        formats.write_embeddings_text(out / "train_embeddings.tsv", corpus.train_embeddings)
    formats.write_embeddings_text(out / "eval_embeddings.tsv", corpus.eval_embeddings)
    formats.write_prototypes(out / "prototypes.tsv", corpus.prototypes)
    formats.write_trials(out / "trials.tsv", corpus.trials, corpus.labels)
    formats.write_enroll_map(out / "enroll.tsv", corpus.enrollment_map)
    print(
        f"wrote corpus to {out}: {len(corpus.train_embeddings)} train utts, "
        f"{len(corpus.eval_embeddings)} eval utts, "
        f"{corpus.prototypes.count} prototypes, {len(corpus.trials)} trials"
    )


def cmd_plan_batches(args) -> None:
    if args.passes < 1:
        raise ParamInvalid(f"argument --passes: must be >= 1, got {args.passes}")
    from .planner import PlannerConfig, UtteranceInventory

    protos = formats.read_prototypes(args.prototypes)
    ids = formats.read_embedding_ids(args.embeddings)
    inventory = UtteranceInventory.from_embeddings(ids, protos)
    sim = _layer("similarity_matrix")(protos, epoch_tag=args.epoch_tag)
    cfg = PlannerConfig(
        batch_size=args.batch_size,
        anchors_per_batch=args.anchors,
        imposters_per_anchor=args.imposters,
        utts_per_speaker=args.utts_per_speaker,
        seed=args.seed,
    )
    manifests = []
    for pass_id in range(args.passes):
        if args.mode == "broad":
            manifests.append(_layer("plan_pass_broad")(cfg, sim, inventory, pass_id=pass_id))
        else:
            manifests.append(
                _layer("plan_pass_balanced")(
                    cfg, sim, inventory, Domain(args.target_domain), pass_id=pass_id
                )
            )
    formats.write_manifests(args.out, manifests)
    total = sum(m.n_batches for m in manifests)
    print(f"wrote {total} batches over {args.passes} pass(es) to {args.out}")


def cmd_aam_check(args) -> None:
    if args.instances < 1:
        raise ParamInvalid(f"argument --instances: must be >= 1, got {args.instances}")
    if not args.tolerance >= 0:
        raise ParamInvalid(f"argument --tolerance: must be >= 0, got {args.tolerance}")
    from .aam import AamConfig, LabeledBatch, aam_loss, finite_difference_check
    from .planner import philox_rng
    from .prototypes import PrototypeMatrix

    if args.prototypes and args.embeddings:
        cfg = AamConfig(margin=args.margin, scale=args.scale)
        protos = formats.read_prototypes(args.prototypes)
        table = formats.read_embeddings(args.embeddings)
        batch = LabeledBatch(
            embeddings=table.vectors,
            labels=np.array([protos.index_of(s) for s in table.speaker_ids]),
        )
        print(f"loss on {batch.size} embeddings: {aam_loss(batch, protos, cfg)!r}")
        return
    rng = philox_rng(args.seed)
    worst = 0.0
    for _ in range(args.instances):
        n = int(rng.integers(2, 6))
        n_spk = int(rng.integers(3, 8))
        dim = int(rng.integers(4, 12))
        batch = LabeledBatch(
            embeddings=rng.normal(size=(n, dim)),
            labels=rng.integers(0, n_spk, size=n),
        )
        protos = PrototypeMatrix(
            [f"s{j}" for j in range(n_spk)],
            [Domain.VOX] * n_spk,
            [Language.UNKNOWN] * n_spk,
            rng.normal(size=(dim, n_spk)).T,  # drawn in the D x N order of w
        )
        # margins/scales swept over the range where finite differences at
        # step 1e-5 resolve every component; larger scales saturate the
        # softmax and leave tiny components at the differencing noise floor
        check_cfg = AamConfig(
            margin=float(rng.uniform(0.0, 0.3)), scale=float(rng.uniform(1.0, 10.0))
        )
        worst = max(worst, finite_difference_check(batch, protos, check_cfg))
    print(f"gradient check: {args.instances} random instances, max rel err {worst:.3e}")
    if worst > args.tolerance:
        raise NumericalError(
            f"gradient check failed: {worst:.3e} exceeds tolerance {args.tolerance:g}"
        )


def cmd_lid_train(args) -> None:
    from .lid import adapt_english_mean

    protos = formats.read_prototypes(args.prototypes)
    gb = _layer("train_gb")(protos, diagonal=args.diagonal)
    gb = adapt_english_mean(gb, args.interpolation_weight)
    formats.write_gb_model(args.out, gb)
    print(f"wrote backend model (dim {gb.dim}, w={gb.interpolation_weight}) to {args.out}")


def cmd_lid_classify(args) -> None:
    gb = formats.read_gb_model(args.model)
    table = formats.read_embeddings(args.embeddings)
    is_english, llrs = _layer("classify")(gb, table.vectors, tau=args.threshold)
    decisions = {
        utt_id: (Language.ENGLISH if en else Language.FARSI, llr)
        for utt_id, en, llr in zip(table.utt_ids, is_english.tolist(), llrs.tolist())
    }
    formats.write_lid_decisions(args.out, decisions)
    n_en = int(is_english.sum())
    print(f"classified {len(decisions)} utterances ({n_en} English) to {args.out}")


def cmd_alpha(args) -> None:
    from .scoring import estimate_alpha

    protos = formats.read_prototypes(args.prototypes)
    offset = estimate_alpha(protos, top_n=args.top_n)
    formats.write_alpha(args.out, offset)
    print(f"alpha={offset.alpha!r}")


def cmd_score(args) -> None:
    from .scores import ScoreSet

    mode = ScoringMode(args.mode)
    if mode is not ScoringMode.RAW and not args.cohort_embeddings:
        raise ParamInvalid(f"--mode {args.mode} requires --cohort-embeddings")
    if mode is ScoringMode.SNORM_LID and not args.lid:
        raise ParamInvalid("--mode snorm-lid requires --lid decisions")
    if mode is ScoringMode.SNORM_LID and not args.alpha:
        raise ParamInvalid("--mode snorm-lid requires --alpha")
    if args.cohort_domains == []:
        names = ",".join(d.value for d in Domain)
        raise ParamInvalid(f"--cohort-domains names no domain (choose from {names})")

    table = formats.read_embeddings(args.embeddings)
    trials, labels = formats.read_trials(args.trials)
    enrollment_map = formats.read_enroll_map(args.enroll)
    cohort = None
    if args.cohort_embeddings:
        cohort = formats.read_cohort(args.cohort_embeddings, args.cohort_domains)
    offset = formats.read_alpha(args.alpha) if args.alpha else None
    lid_decisions = None
    if args.lid:
        lid_decisions = {u: lang for u, (lang, _) in formats.read_lid_decisions(args.lid).items()}

    # every file given is read and checked above; score_trials gets the mode's inputs
    if mode is not ScoringMode.SNORM_LID:
        offset = lid_decisions = None
    if mode is ScoringMode.RAW:
        cohort = None
    scored = _layer("score_trials")(
        trials, enrollment_map, table, cohort,
        offset=offset, lid_decisions=lid_decisions, top_n=args.top_n,
    )
    score_set = ScoreSet(keys=trials, scores=scored, labels=labels)
    formats.write_scores(args.out, score_set)
    print(f"scored {len(score_set)} trials in mode {mode.value} to {args.out}")


def cmd_calibrate(args) -> None:
    from .calibration import apply_calibration, fit_calibration

    scores = formats.read_scores(args.scores)
    target = formats.read_scores(args.apply_to) if args.apply_to else scores
    model = fit_calibration(scores, trained_on=Path(args.scores).name)
    formats.write_cal_model(args.model_out, model)
    if args.out:
        formats.write_scores(args.out, apply_calibration(model, target))
    print(f"calibration a={model.a!r} b={model.b!r}")


def cmd_fuse(args) -> None:
    if len(args.weights) != len(args.scores):
        raise ParamInvalid(f"{len(args.weights)} weights for {len(args.scores)} score files")
    sets = [formats.read_scores(p) for p in args.scores]
    fused = _layer("fuse")(sets, args.weights)
    formats.write_scores(args.out, fused)
    print(f"fused {len(sets)} systems over {len(fused)} trials to {args.out}")


def cmd_eval(args) -> None:
    scores = formats.read_scores(args.scores)
    eer_value = _layer("eer")(scores, interpolate=(args.eer_mode == "interpolate"))
    costs = {"p_target": args.p_target, "c_miss": args.c_miss, "c_fa": args.c_fa}
    dcf_value = _layer("min_dcf")(scores, **costs)
    print(f"eer={eer_value!r} min_dcf={dcf_value!r}")
    if args.out:
        labels = scores.require_labels()
        formats.write_metrics_record(
            args.out,
            {
                "eer": eer_value,
                "min_dcf": dcf_value,
                "p_target": args.p_target,
                "c_miss": args.c_miss,
                "c_fa": args.c_fa,
                "n_target": int(labels.sum()),
                "n_nontarget": int((~labels).sum()),
            },
        )


class _HelpFormatter(argparse.ArgumentDefaultsHelpFormatter):
    """Shows each option's default in ``--help``, except where it has none."""

    def _get_help_string(self, action):
        return action.help if action.default is None else super()._get_help_string(action)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="svbackend",
        description="Speaker-verification scoring backend over embedding files.",
    )
    sub = parser.add_subparsers(dest="command", metavar="subcommand")
    sub_kwargs = {"formatter_class": _HelpFormatter}

    p = sub.add_parser("synth", **sub_kwargs, help="generate a deterministic synthetic corpus")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int, default=0, help="corpus seed")
    p.add_argument("--dim", type=int, default=16, help="embedding dimension")
    p.add_argument("--vox", type=int, default=50, help="VOX training speakers")
    p.add_argument("--libri", type=int, default=25, help="LIBRI training speakers")
    p.add_argument("--deepmine", type=int, default=60, help="DEEPMINE training speakers")
    p.add_argument("--eval-speakers", type=int, default=25, help="held-out trial speakers")
    p.add_argument("--utts-min", type=int, default=6, help="min utterances per speaker")
    p.add_argument("--utts-max", type=int, default=10, help="max utterances per speaker")
    p.add_argument("--enroll-utts", type=int, default=3, help="enrollment utterances per model")
    p.add_argument("--concentration", type=float, default=10.0, help="within-speaker concentration (inverse noise)")
    p.add_argument("--shift", type=float, default=0.8, help="cross-language offset magnitude")
    p.add_argument("--english-fraction", type=float, default=0.5, help="fraction of English test utterances")
    p.add_argument("--targets", type=int, default=150, help="target trials")
    p.add_argument("--nontargets", type=int, default=1500, help="nontarget trials")
    p.add_argument(
        "--binary", action="store_true", help="write training embeddings in the binary format"
    )
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("plan-batches", **sub_kwargs, help="build hard-prototype batch manifests")
    p.add_argument("--prototypes", required=True)
    p.add_argument("--embeddings", required=True, help="training embeddings (inventory source)")
    p.add_argument("--out", required=True)
    p.add_argument("--mode", choices=["broad", "balanced"], default="broad", help="planning mode")
    p.add_argument("--batch-size", type=int, default=128, help="entries per batch")
    p.add_argument("--anchors", type=int, default=16, help="anchor speakers per batch")
    p.add_argument("--imposters", type=int, default=8, help="similar speakers per anchor")
    p.add_argument("--utts-per-speaker", type=int, default=1, help="utterances sampled per group speaker")
    p.add_argument("--target-domain", choices=[d.value for d in Domain], default="DEEPMINE", help="balanced-mode anchor domain")
    p.add_argument("--passes", type=int, default=1, help="passes to plan (>= 1)")
    p.add_argument("--seed", type=int, default=0, help="plan seed")
    p.add_argument(
        "--epoch-tag",
        type=int,
        default=0,
        help="similarity snapshot tag recorded in the manifest",
    )
    p.set_defaults(func=cmd_plan_batches)

    p = sub.add_parser("aam-check", **sub_kwargs, help="margin-loss self-test / desk-scale loss oracle")
    p.add_argument("--seed", type=int, default=0, help="instance seed")
    p.add_argument("--instances", type=int, default=25, help="random gradient-check instances (>= 1)")
    p.add_argument("--margin", type=float, default=0.2, help="loss margin (file mode)")
    p.add_argument("--scale", type=float, default=30.0, help="logit scale (file mode)")
    p.add_argument("--tolerance", type=float, default=1e-4, help="max allowed relative gradient error (>= 0)")
    p.add_argument("--prototypes", help="with --embeddings: print the loss on this batch")
    p.add_argument("--embeddings")
    p.set_defaults(func=cmd_aam_check)

    p = sub.add_parser("lid-train", **sub_kwargs, help="train the Gaussian language backend on prototypes")
    p.add_argument("--prototypes", required=True)
    p.add_argument("--out", required=True)
    p.add_argument(
        "--interpolation-weight",
        type=float,
        default=0.75,
        help="English mean = w*mu_USA + (1-w)*mu_FA",
    )
    p.add_argument("--diagonal", action="store_true", help="diagonal shared covariance")
    p.set_defaults(func=cmd_lid_train)

    p = sub.add_parser("lid-classify", **sub_kwargs, help="per-utterance language decisions")
    p.add_argument("--model", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--threshold", type=float, default=0.0, help="llr decision threshold")
    p.set_defaults(func=cmd_lid_classify)

    p = sub.add_parser("alpha", **sub_kwargs, help="estimate the cross-language offset on prototypes")
    p.add_argument("--prototypes", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--top-n", type=int, default=DEFAULT_TOP_N, help="imposter scores kept per prototype")
    p.set_defaults(func=cmd_alpha)

    p = sub.add_parser("score", **sub_kwargs, help="score verification trials")
    p.add_argument("--embeddings", required=True, help="enrollment/test embeddings")
    p.add_argument("--trials", required=True)
    p.add_argument("--enroll", required=True, help="enrollment map file")
    p.add_argument("--out", required=True)
    p.add_argument("--mode", choices=[m.value for m in ScoringMode], default="snorm", help="scoring mode")
    p.add_argument("--cohort-embeddings", help="training embeddings for the imposter cohort")
    p.add_argument(
        "--cohort-domains",
        type=_domain_list,
        help="comma-separated domains to keep in the cohort (all when not given)",
    )
    p.add_argument("--alpha", help="language offset file (snorm-lid mode)")
    p.add_argument("--lid", help="language decisions file (snorm-lid mode)")
    p.add_argument("--top-n", type=int, default=DEFAULT_TOP_N, help="imposter scores kept per side")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("calibrate", **sub_kwargs, help="fit and apply logistic-regression calibration")
    p.add_argument("--scores", required=True, help="labeled score file to fit on")
    p.add_argument("--model-out", required=True)
    p.add_argument("--apply-to", help="score file to calibrate (the fit input when not given)")
    p.add_argument("--out", help="calibrated score file")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("fuse", **sub_kwargs, help="weighted average of score files over identical trials")
    p.add_argument("--scores", required=True, nargs="+")
    p.add_argument("--weights", required=True, type=_weights, help="comma-separated, e.g. 1,1,2,2,2")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fuse)

    p = sub.add_parser("eval", **sub_kwargs, help="EER and MinDCF of a labeled score file")
    p.add_argument("--scores", required=True)
    p.add_argument("--out", help="machine-readable metrics record")
    p.add_argument("--p-target", type=float, default=0.01, help="target prior")
    p.add_argument("--c-miss", type=float, default=1.0, help="miss cost")
    p.add_argument("--c-fa", type=float, default=1.0, help="false-accept cost")
    p.add_argument("--eer-mode", choices=["interpolate", "nearest"], default="interpolate", help="crossover convention")
    p.set_defaults(func=cmd_eval)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "func", None):
        parser.print_help()
        return 2
    try:
        args.func(args)
    except PipelineError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
