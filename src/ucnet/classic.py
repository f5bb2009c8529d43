"""Baseline classifiers: CART decision tree, random forest, logistic regression.

Class indices follow the package convention: 0 = real, 1 = fake. Each
model's one prediction method is ``predict_proba_fake(X)``; a forest's is the
share of its trees read as fake by :func:`ucnet.evaluation.classify`, which
gives ties to fake. :func:`save_model` writes any of the three models, and
:func:`load_model` reads one back by the file's meta ``kind``, refusing node
arrays a tree cannot use.

A tree grows depth first, one node at a time. Each node sorts its candidate
features once and scores every cut from cumulative class counts, with
:func:`gini`'s operations; the first maximum wins, so ties go to the lowest
feature, then the lowest threshold. All rows descend a tree together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import neural, serialize


def gini(counts) -> float:
    """Gini impurity of a node given its per-class counts."""
    counts = np.asarray(counts, dtype=np.float64)
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts / total
    return float(1.0 - np.sum(p * p))


@dataclass
class DecisionTree:
    """Flat-array CART tree; feature < 0 marks a leaf."""

    feature: np.ndarray      # (n_nodes,) int, -1 for leaves
    threshold: np.ndarray    # (n_nodes,) float
    left: np.ndarray         # (n_nodes,) int child ids, -1 for leaves
    right: np.ndarray        # (n_nodes,) int
    impurity: np.ndarray     # (n_nodes,) float
    n_samples: np.ndarray    # (n_nodes,) int
    class_probs: np.ndarray  # (n_nodes, 2)
    max_depth: int
    min_samples_leaf: int

    def predict_proba_fake(self, X: np.ndarray) -> np.ndarray:
        """Each row's probability of fake: the fake share of its leaf."""
        X = np.asarray(X, dtype=np.float64)
        node = np.zeros(X.shape[0], dtype=np.int64)
        while True:
            inner = np.flatnonzero(self.feature[node] >= 0)
            if inner.size == 0:
                return self.class_probs[node, 1]
            at = node[inner]
            goes_left = X[inner, self.feature[at]] < self.threshold[at]
            node[inner] = np.where(goes_left, self.left[at], self.right[at])


def _gini_of(fake, total):
    """``gini((total - fake, fake))`` elementwise, in ``gini``'s operations."""
    p_real = (total - fake) / total
    p_fake = fake / total
    return 1.0 - (p_real * p_real + p_fake * p_fake)


def _best_split(values, y, min_leaf: int, node_gini: float):
    """(decrease, row of ``values``, threshold) of the node's best split, or
    None; ``values`` holds a candidate feature a row, ``y`` the labels."""
    n = len(y)
    order = np.argsort(values, axis=1, kind="stable")
    ordered = np.take_along_axis(values, order, axis=1)
    fakes = np.cumsum(y[order], axis=1)
    k = np.arange(min_leaf, n - min_leaf + 1)
    left_fakes = fakes[:, k - 1]
    weighted = (k * _gini_of(left_fakes, k)
                + (n - k) * _gini_of(fakes[:, -1:] - left_fakes, n - k)) / n
    decrease = np.where(ordered[:, k] != ordered[:, k - 1],
                        node_gini - weighted, 0.0)
    column, cut = np.unravel_index(np.argmax(decrease), decrease.shape)
    if decrease[column, cut] <= 0:
        return None
    below, above = ordered[column, k[cut] - 1], ordered[column, k[cut]]
    threshold = below / 2.0 + above / 2.0  # (below + above) / 2 can overflow
    if threshold == below:  # adjacent doubles: no row lies below the midpoint
        threshold = above
    return float(decrease[column, cut]), int(column), float(threshold)


def _grow(X, y, max_depth: int, min_leaf: int, rng,
          features_per_split: int) -> DecisionTree:
    """Greedy CART grown depth first, left before right, one row per node:
    feature, threshold, left, right, impurity, n_samples, class shares.
    Nodes draw their candidate features from ``rng`` in that order."""
    rows = []
    pending = [(np.arange(len(y)), 0, None)]  # (samples, depth, parent slot)
    while pending:
        idx, depth, slot = pending.pop()
        if slot is not None:
            rows[slot[0]][slot[1]] = len(rows)
        counts = np.bincount(y[idx], minlength=2).astype(np.float64)
        impurity = gini(counts)
        rows.append([-1, 0.0, -1, -1, impurity, len(idx), *(counts / counts.sum())])
        if depth >= max_depth or impurity == 0.0 or len(idx) < 2 * min_leaf:
            continue
        features = np.arange(X.shape[1])
        if features_per_split < len(features):
            features = np.sort(rng.choice(features, features_per_split,
                                          replace=False))
        found = _best_split(X.T[np.ix_(features, idx)], y[idx], min_leaf,
                            impurity)
        if found is None:
            continue
        node = len(rows) - 1
        feature, threshold = int(features[found[1]]), found[2]
        rows[node][:2] = feature, threshold
        goes_left = X[idx, feature] < threshold
        pending.append((idx[~goes_left], depth + 1, (node, 3)))
        pending.append((idx[goes_left], depth + 1, (node, 2)))
    columns = np.array(rows, dtype=np.float64).T.copy()
    feature, left, right, n_samples = columns[[0, 2, 3, 5]].astype(np.int64)
    return DecisionTree(feature=feature, threshold=columns[1], left=left,
                        right=right, impurity=columns[4], n_samples=n_samples,
                        class_probs=columns[6:].T.copy(), max_depth=max_depth,
                        min_samples_leaf=min_leaf)


def _validate_xy(X, y):
    # C order, so a product over X sums in the same order for any caller's
    # memory layout of the same values.
    X = np.ascontiguousarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if X.ndim != 2 or len(X) != len(y):
        raise ValueError("X must be 2-d with one label per row")
    if len(y) == 0:
        raise ValueError("training data is empty")
    if X.shape[1] == 0:
        raise ValueError("training data has no feature columns")
    if not np.all((y == 0) | (y == 1)):
        raise ValueError("labels must be 0 (real) or 1 (fake)")
    return X, y


def _require_positive(**arguments) -> None:
    for name, value in arguments.items():
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")


def train_tree(X, y, max_depth: int = 8,
               min_samples_leaf: int = 2) -> DecisionTree:
    """Greedy CART with Gini impurity over all features (deterministic)."""
    X, y = _validate_xy(X, y)
    _require_positive(max_depth=max_depth)
    return _grow(X, y, max_depth, max(1, min_samples_leaf), None, X.shape[1])


@dataclass
class RandomForest:
    trees: tuple[DecisionTree, ...]
    tree_seeds: tuple[int, ...]
    features_per_split: int
    n_features: int

    def __post_init__(self) -> None:
        if not self.trees:
            raise ValueError("a forest needs at least one tree")

    def predict_proba_fake(self, X: np.ndarray) -> np.ndarray:
        """Each row's share of trees whose own probability of fake is >= 0.5;
        ``X`` needs the ``n_features`` columns the forest was trained on."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise ValueError(f"X has shape {X.shape}, the forest needs "
                             f"{self.n_features} columns")
        return np.stack([tree.predict_proba_fake(X) >= 0.5
                         for tree in self.trees]).mean(axis=0)


def train_forest(X, y, n_trees: int = 100, max_depth: int = 8,
                 features_per_split: int = 3, seed: int = 0) -> RandomForest:
    """Bootstrap-aggregated CART trees with per-node feature subsampling.

    Per-tree seeds are derived deterministically from the master seed, so
    the same call is reproducible and trees could train in parallel.
    """
    X, y = _validate_xy(X, y)
    _require_positive(n_trees=n_trees, max_depth=max_depth,
                      features_per_split=features_per_split)
    tree_seeds = [int(s) for s in np.random.SeedSequence(seed).generate_state(n_trees)]
    trees = []
    n = len(y)
    for tree_seed in tree_seeds:
        rng = np.random.default_rng(tree_seed)
        bootstrap = rng.integers(0, n, size=n)
        trees.append(_grow(X[bootstrap], y[bootstrap], max_depth, 2, rng,
                           features_per_split))
    return RandomForest(trees=tuple(trees), tree_seeds=tuple(tree_seeds),
                        features_per_split=features_per_split,
                        n_features=X.shape[1])


def feature_importances(forest: RandomForest) -> np.ndarray:
    """Mean normalized Gini-decrease per feature, summing to 1.

    Follows the standard impurity-based convention: each tree's total
    weighted impurity decrease per feature is normalized within the tree,
    averaged over trees, then normalized again. A forest of pure leaves
    yields the uniform vector.
    """
    n_features = forest.n_features
    totals = np.zeros(n_features)
    for tree in forest.trees:
        inner = np.flatnonzero(tree.feature >= 0)
        mass = tree.n_samples * tree.impurity
        decrease = (mass[inner] - mass[tree.left[inner]]
                    - mass[tree.right[inner]]) / tree.n_samples[0]
        # Summed in node order, as bincount adds its weights in input order.
        per_tree = np.bincount(tree.feature[inner], weights=decrease,
                               minlength=n_features)
        tree_total = per_tree.sum()
        if tree_total > 0:
            totals += per_tree / tree_total
    grand = totals.sum()
    if grand == 0:
        return np.full(n_features, 1.0 / n_features)
    return totals / grand


@dataclass
class LogisticModel:
    weights: np.ndarray
    intercept: float

    def predict_proba_fake(self, X: np.ndarray) -> np.ndarray:
        X = np.ascontiguousarray(X, dtype=np.float64)  # see _validate_xy
        return _fake_probabilities(X, self.weights, self.intercept)


def _fake_probabilities(X: np.ndarray, weights: np.ndarray,
                        intercept: float) -> np.ndarray:
    """The sigmoid of the scores ``X @ weights + intercept``. A score beyond
    the float64 range raises ``OverflowError`` instead of passing an
    infinite or NaN score to the sigmoid."""
    with np.errstate(over="ignore", invalid="ignore"):
        z = X @ weights + intercept
    finite = np.isfinite(z)
    if not finite.all():
        raise OverflowError(
            f"the logistic score of row {int(np.argmin(finite)) + 1} "
            f"overflows float64; the features reach "
            f"{np.abs(X).max():.3g} in magnitude")
    return neural.sigmoid(z)


def logistic_loss_and_gradient(weights: np.ndarray, intercept: float,
                               X: np.ndarray, y: np.ndarray):
    """Mean cross-entropy of the logistic model and its analytic gradient."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    p = _fake_probabilities(X, weights, intercept)
    eps = 1e-12
    loss = float(-np.mean(y * np.log(np.clip(p, eps, None))
                          + (1.0 - y) * np.log(np.clip(1.0 - p, eps, None))))
    delta = (p - y) / len(y)
    return loss, X.T @ delta, float(delta.sum())


def train_logistic(X, y, learning_rate: float = 0.1,
                   epochs: int = 500) -> LogisticModel:
    """Full-batch gradient descent on cross-entropy from zero initialization."""
    if not 0.0 < learning_rate < math.inf:
        raise ValueError(f"learning_rate must be a positive finite number, "
                         f"got {learning_rate}")
    if epochs < 0:
        raise ValueError(f"epochs must be >= 0, got {epochs}")
    X, y = _validate_xy(X, y)
    if len(set(y.tolist())) < 2:
        raise ValueError("logistic regression needs both classes present")
    weights = np.zeros(X.shape[1])
    intercept = 0.0
    for epoch in range(epochs):
        _, grad_w, grad_b = logistic_loss_and_gradient(weights, intercept, X, y)
        with np.errstate(over="ignore"):
            weights = weights - learning_rate * grad_w
        intercept = intercept - learning_rate * grad_b
        if not (np.isfinite(weights).all() and math.isfinite(intercept)):
            raise OverflowError(f"the logistic weights overflow float64 at "
                                f"epoch {epoch + 1}")
    return LogisticModel(weights=weights, intercept=intercept)


# Node indices are stored as float64, which holds every integer below 2**53.
_MAX_INDEX = 2 ** 53


def _tree_tensors(tree: DecisionTree, prefix: str) -> dict[str, np.ndarray]:
    """The tree's node arrays as tensors. The integer arrays (feature,
    children, sample counts) are stored as float64 too: format v2 holds only
    ``<f8``, which represents every integer below 2**53 exactly, and
    ``_node_integers`` refuses any other value on load."""
    return {
        f"{prefix}.feature": tree.feature.astype(np.float64),
        f"{prefix}.threshold": tree.threshold,
        f"{prefix}.left": tree.left.astype(np.float64),
        f"{prefix}.right": tree.right.astype(np.float64),
        f"{prefix}.impurity": tree.impurity,
        f"{prefix}.n_samples": tree.n_samples.astype(np.float64),
        f"{prefix}.class_probs": tree.class_probs,
    }


def _node_integers(tensors, name: str, n_nodes: int, low: int,
                   high: int, item: str = "node") -> np.ndarray:
    """Tensor ``name`` as int64, refusing a value that is not a whole number
    in [low, high); the refusal names the ``item`` (node or tree) by index."""
    values = tensors.shaped(name, n_nodes)
    bad = (values != np.floor(values)) | (values < low) | (values >= high)
    if bad.any():
        node = int(np.argmax(bad))
        raise ValueError(f"{tensors.path}: tensor {name!r} holds "
                         f"{float(values[node])!r} at {item} {node}, the "
                         f"model needs a whole number in [{low}, {high})")
    return values.astype(np.int64)


def _tree_from_tensors(tensors, prefix: str, max_depth: int,
                       min_samples_leaf: int,
                       n_features: int = _MAX_INDEX) -> DecisionTree:
    """The tree under ``prefix``; as the builder numbers them, children come
    after their parent, which also rules out cycles."""
    n_nodes = tensors.shaped(f"{prefix}.feature", None).shape[0]
    if n_nodes == 0:
        raise ValueError(f"{tensors.path}: tensor '{prefix}.feature' has "
                         "no nodes, the model needs a root")
    feature = _node_integers(tensors, f"{prefix}.feature", n_nodes, -1,
                             n_features)
    leaf = feature == -1
    children = []
    for name in (f"{prefix}.left", f"{prefix}.right"):
        child = _node_integers(tensors, name, n_nodes, -1, n_nodes)
        bad = np.where(leaf, child != -1, child <= np.arange(n_nodes))
        if bad.any():
            node = int(np.argmax(bad))
            need = "-1 at a leaf" if leaf[node] else \
                f"a child in ({node}, {n_nodes})"
            raise ValueError(f"{tensors.path}: tensor {name!r} holds "
                             f"{child[node]} at node {node}, the model "
                             f"needs {need}")
        children.append(child)
    return DecisionTree(
        feature=feature,
        threshold=tensors.shaped(f"{prefix}.threshold", n_nodes),
        left=children[0],
        right=children[1],
        impurity=tensors.shaped(f"{prefix}.impurity", n_nodes),
        n_samples=_node_integers(tensors, f"{prefix}.n_samples", n_nodes, 1,
                                 _MAX_INDEX),
        class_probs=tensors.shaped(f"{prefix}.class_probs", n_nodes, 2),
        max_depth=max_depth,
        min_samples_leaf=min_samples_leaf,
    )


def save_model(model: DecisionTree | RandomForest | LogisticModel,
               path) -> None:
    """Write ``model`` to ``path``; the meta ``kind`` records its type."""
    if isinstance(model, LogisticModel):
        tensors = {"weights": model.weights,
                   "intercept": np.array([model.intercept])}
        serialize.save_tensors(path, tensors, {"kind": "logistic"})
        return
    if isinstance(model, RandomForest):
        tensors = {"tree_seeds": np.array(model.tree_seeds, dtype=np.float64)}
        for i, tree in enumerate(model.trees):
            tensors.update(_tree_tensors(tree, f"tree{i}"))
        meta = {
            "kind": "random-forest",
            "n_trees": str(len(model.trees)),
            "features_per_split": str(model.features_per_split),
            "n_features": str(model.n_features),
        }
        tree = model.trees[0]
    else:
        tensors = _tree_tensors(model, "tree")
        meta = {"kind": "decision-tree"}
        tree = model
    meta["max_depth"] = str(tree.max_depth)
    meta["min_samples_leaf"] = str(tree.min_samples_leaf)
    serialize.save_tensors(path, tensors, meta)


def load_model(path) -> DecisionTree | RandomForest | LogisticModel:
    """The classic model saved at ``path``, of the type its meta ``kind``
    names; a file of any other kind is refused."""
    tensors, meta = serialize.load_tensors(path)
    kind = meta.get("kind")
    if kind == "logistic":
        return LogisticModel(weights=tensors.shaped("weights", None),
                             intercept=float(tensors.shaped("intercept", 1)[0]))
    if kind not in ("random-forest", "decision-tree"):
        raise ValueError(f"{path}: not a classic model file (kind {kind!r})")
    max_depth = meta.integer("max_depth")
    min_leaf = meta.integer("min_samples_leaf")
    if kind == "decision-tree":
        return _tree_from_tensors(tensors, "tree", max_depth, min_leaf)
    n_trees = meta.integer("n_trees")
    if n_trees < 1:
        raise ValueError(f"{path}: meta 'n_trees' is {n_trees}, a forest "
                         "needs at least one tree")
    n_features = meta.integer("n_features")
    trees = tuple(_tree_from_tensors(tensors, f"tree{i}", max_depth, min_leaf,
                                     n_features) for i in range(n_trees))
    # train_forest draws each tree's seed as a uint32.
    seeds = tuple(int(s) for s in _node_integers(
        tensors, "tree_seeds", n_trees, 0, 2 ** 32, item="tree"))
    return RandomForest(trees=trees, tree_seeds=seeds,
                        features_per_split=meta.integer("features_per_split"),
                        n_features=n_features)
