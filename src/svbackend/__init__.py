"""Speaker-verification scoring backend toolkit.

Operates on embedding files produced by any external extractor: batch
planning by hard-prototype mining, a reference additive-angular-margin
loss, language-aware adaptive s-norm trial scoring, Gaussian-backend
language detection, calibration, fusion, and EER/MinDCF evaluation.

The public names below load their home module on first use (PEP 562), so
``import svbackend`` and each CLI stage load only the modules they use.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "aam": ("AamConfig", "LabeledBatch", "aam_grad", "aam_loss"),
    "calibration": ("CalibrationModel", "apply_calibration", "fit_calibration", "fuse"),
    "lid": ("GaussianBackend", "classify", "train_gb"),
    "metrics": ("eer", "min_dcf"),
    "planner": (
        "BatchManifest",
        "PlannerConfig",
        "SimilaritySnapshot",
        "UtteranceInventory",
        "plan_pass_balanced",
        "plan_pass_broad",
        "sample_utterances",
        "similarity_matrix",
        "top_similar",
    ),
    "scores": ("ScoreSet",),
    "scoring": ("Cohort", "LanguageOffset", "estimate_alpha", "score_trials", "snorm_stats"),
    "synth": ("CorpusSpec", "SyntheticCorpus", "generate_corpus"),
    "vecmath": (
        "Domain",
        "EmbeddingTable",
        "Language",
        "PrototypeMatrix",
        "ScoringMode",
        "average_embedding",
        "cosine",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__, not importlib.import_module: -X importtime reports only the former
    value = getattr(__import__(f"{__name__}.{_HOME[name]}", fromlist=[name]), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
