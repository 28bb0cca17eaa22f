"""Semantic similarity over IS-A taxonomies.

Builds a probability model over a concept taxonomy from word frequency
counts and answers similarity queries with information-content,
edge-counting, probability, normalized-path, and weighted-subsumer
measures, plus a benchmark-correlation evaluation harness.
"""

from .errors import (
    EvaluationError,
    ModelError,
    SimilarityError,
    TaxonomyError,
    TaxsimError,
    UnknownConceptError,
    UnknownWordError,
)
from .evaluation import (
    Benchmark,
    EvalItem,
    EvalReport,
    ReferenceRow,
    REFERENCE_TARGETS,
    REFERENCE_TOLERANCE,
    evaluate,
    load_benchmark,
    load_reference_scores,
    pearson,
    reference_correlations,
)
from .probability import (
    FrequencyTable,
    ProbabilityModel,
    build_model,
    load_counts,
)
from .similarity import (
    SimScore,
    WORD_MEASURES,
    finite_common_subsumers,
    sim_edge,
    sim_lch,
    sim_prob,
    sim_resnik_concepts,
    sim_resnik_words,
    sim_weighted,
    uniform_weights,
    word_similarity,
)
from .taxonomy import SYNTHETIC_ROOT, Taxonomy, load_taxonomy

__version__ = "0.1.0"

__all__ = [
    "Benchmark",
    "EvalItem",
    "EvalReport",
    "EvaluationError",
    "FrequencyTable",
    "ModelError",
    "ProbabilityModel",
    "REFERENCE_TARGETS",
    "REFERENCE_TOLERANCE",
    "ReferenceRow",
    "SYNTHETIC_ROOT",
    "SimScore",
    "SimilarityError",
    "Taxonomy",
    "TaxonomyError",
    "TaxsimError",
    "UnknownConceptError",
    "UnknownWordError",
    "WORD_MEASURES",
    "build_model",
    "evaluate",
    "finite_common_subsumers",
    "load_benchmark",
    "load_counts",
    "load_reference_scores",
    "load_taxonomy",
    "pearson",
    "reference_correlations",
    "sim_edge",
    "sim_lch",
    "sim_prob",
    "sim_resnik_concepts",
    "sim_resnik_words",
    "sim_weighted",
    "uniform_weights",
    "word_similarity",
]
