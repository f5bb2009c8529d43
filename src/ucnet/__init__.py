"""Detection of misleading videos from metadata and user comments.

The package combines lexical/engagement features with classic baselines
(decision tree, random forest, logistic regression) and a deep model that
pools LSTM comment embeddings weighted by learned fakeness scores, plus the
dataset-mining heuristics and macro-averaged evaluation used to report
results.
"""

from .corpus import (
    ANNOTATION_LABELS,
    LABELS,
    Comment,
    Dataset,
    VideoRecord,
    agreement_matrix,
    balance_subset,
    load_annotation_round,
    load_dataset,
    mine_candidates,
    save_dataset,
    split_dataset,
)
from .embeddings import EmbeddingTable, embed_comment, load_embeddings, save_embeddings
from .evaluation import (
    ConfusionMatrix,
    EvaluationReport,
    classify,
    evaluate,
    export_report,
    pca_project,
)
from .lexical import (
    FEATURE_NAMES,
    FeatureVector,
    LexiconSet,
    TitleScorer,
    extract_features,
    load_fakeness_phrases,
    prune_correlated,
    train_title_scorer,
)
from .classic import (
    DecisionTree,
    LogisticModel,
    RandomForest,
    feature_importances,
    train_forest,
    train_logistic,
    train_tree,
)
from .network import (
    Prediction,
    TrainingConfig,
    UCNetModel,
    comment_weight,
    extract_unified_embeddings,
    fakeness_vector,
    train,
)
from .neural import (
    AdamState,
    LSTMCell,
    Mlp,
    adam_step,
    gradient_check,
    softmax_cross_entropy,
)

__version__ = "0.1.0"
