"""Speaker-verification scoring backend toolkit.

Operates on embedding files produced by any external extractor: batch
planning by hard-prototype mining, a reference additive-angular-margin
loss, language-aware adaptive s-norm trial scoring, Gaussian-backend
language detection, calibration, fusion, and EER/MinDCF evaluation.
"""

from .aam import AamConfig, LabeledBatch, aam_grad, aam_loss
from .calibration import CalibrationModel, apply_calibration, fit_calibration, fuse
from .lid import GaussianBackend, adapt_english_mean, classify, train_gb
from .metrics import eer, min_dcf
from .planner import (
    BatchManifest,
    PlannerConfig,
    UtteranceInventory,
    plan_pass_balanced,
    plan_pass_broad,
    sample_utterances,
)
from .prototypes import PrototypeMatrix, SimilarityMatrix, SpeakerInfo, similarity_matrix, top_similar
from .scores import ScoreSet
from .scoring import (
    Cohort,
    LanguageOffset,
    ScoringMode,
    SnormStats,
    adaptive_snorm,
    estimate_alpha,
    language_dependent_snorm,
    score_trials,
    snorm_stats,
)
from .synth import CorpusSpec, SyntheticCorpus, generate_corpus
from .vecmath import Domain, EmbeddingTable, Language, average_embedding, cosine, l2_normalize

__version__ = "0.1.0"

__all__ = [
    "AamConfig",
    "BatchManifest",
    "CalibrationModel",
    "Cohort",
    "CorpusSpec",
    "Domain",
    "EmbeddingTable",
    "GaussianBackend",
    "LabeledBatch",
    "Language",
    "LanguageOffset",
    "PlannerConfig",
    "PrototypeMatrix",
    "ScoreSet",
    "ScoringMode",
    "SimilarityMatrix",
    "SnormStats",
    "SpeakerInfo",
    "SyntheticCorpus",
    "UtteranceInventory",
    "aam_grad",
    "aam_loss",
    "adapt_english_mean",
    "adaptive_snorm",
    "apply_calibration",
    "average_embedding",
    "classify",
    "cosine",
    "eer",
    "estimate_alpha",
    "fit_calibration",
    "fuse",
    "generate_corpus",
    "l2_normalize",
    "language_dependent_snorm",
    "min_dcf",
    "plan_pass_balanced",
    "plan_pass_broad",
    "sample_utterances",
    "score_trials",
    "similarity_matrix",
    "snorm_stats",
    "top_similar",
    "train_gb",
]
