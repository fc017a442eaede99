"""Word-embedding similarity features for sarcasm detection.

Pipeline stages: embedding tables -> tokenization and content-word
selection -> pairwise similarity features (raw and distance-weighted)
-> prior feature sets (n-grams, lexicon categories, pragmatic markers,
polarity-sequence incongruity) -> linear classifier -> cross-validated
experiment grid with gain reports.
"""

from .classify import LinearModel, TrainConfig, load_model, save_model, train
from .embeddings import (
    EmbeddingTable,
    intersect_vocabularies,
    load_embeddings,
    save_text_vectors,
)
from .errors import InputError
from .features import (
    ExperimentConfig,
    FeatureRegistry,
    FeatureVector,
    Lexicon,
    build_config_features,
    default_lexicon,
    load_lexicon,
)
from .harness import (
    LabeledInstance,
    MatrixResult,
    MetricsReport,
    Resources,
    compute_gains,
    emit_report,
    load_dataset,
    run_matrix,
    stratified_kfold,
)
from .similarity import Augmentation, similarity_block
from .synthetic import generate_corpus, toy_embedding_tables
from .text import (
    TokenizedSentence,
    default_stopwords,
    load_stopwords,
    token_table,
    tokenize,
)

__version__ = "0.1.0"

__all__ = [
    "Augmentation",
    "EmbeddingTable",
    "ExperimentConfig",
    "FeatureRegistry",
    "FeatureVector",
    "InputError",
    "LabeledInstance",
    "Lexicon",
    "LinearModel",
    "MatrixResult",
    "MetricsReport",
    "Resources",
    "TokenizedSentence",
    "TrainConfig",
    "build_config_features",
    "compute_gains",
    "default_lexicon",
    "default_stopwords",
    "emit_report",
    "generate_corpus",
    "intersect_vocabularies",
    "load_dataset",
    "load_embeddings",
    "load_lexicon",
    "load_model",
    "load_stopwords",
    "run_matrix",
    "save_model",
    "save_text_vectors",
    "similarity_block",
    "stratified_kfold",
    "token_table",
    "tokenize",
    "toy_embedding_tables",
    "train",
]
