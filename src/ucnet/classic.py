"""Baseline classifiers: CART decision tree, random forest, logistic regression.

Class indices follow the package convention: 0 = real, 1 = fake. Each
model's one prediction method is ``predict_proba_fake(X)``; a forest's is the
share of its trees read as fake by :func:`ucnet.evaluation.classify`, which
gives ties to fake. :func:`save_model` writes any of the three models, and
:func:`load_model` reads one back by the file's meta ``kind``, refusing node
arrays a tree cannot use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import serialize


def gini(counts) -> float:
    """Gini impurity of a node given its per-class counts."""
    counts = np.asarray(counts, dtype=np.float64)
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts / total
    return float(1.0 - np.sum(p * p))


def _class_counts(y: np.ndarray) -> np.ndarray:
    return np.bincount(y, minlength=2).astype(np.float64)


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
        out = np.zeros(X.shape[0])
        for row in range(X.shape[0]):
            node = 0
            while self.feature[node] >= 0:
                if X[row, self.feature[node]] < self.threshold[node]:
                    node = self.left[node]
                else:
                    node = self.right[node]
            out[row] = self.class_probs[node, 1]
        return out


class _TreeBuilder:
    def __init__(self, X, y, max_depth, min_samples_leaf, rng, features_per_split):
        self.X = X
        self.y = y
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.rng = rng
        self.features_per_split = features_per_split
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.impurity: list[float] = []
        self.n_samples: list[int] = []
        self.class_probs: list[np.ndarray] = []

    def _new_node(self, idx) -> int:
        counts = _class_counts(self.y[idx])
        node = len(self.feature)
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.impurity.append(gini(counts))
        self.n_samples.append(len(idx))
        self.class_probs.append(counts / counts.sum())
        return node

    def _candidate_features(self) -> np.ndarray:
        n_features = self.X.shape[1]
        if self.features_per_split is None or self.features_per_split >= n_features:
            return np.arange(n_features)
        chosen = self.rng.choice(n_features, size=self.features_per_split,
                                 replace=False)
        return np.sort(chosen)

    def _best_split(self, idx):
        """Highest Gini-decrease (feature, threshold); ties keep the lowest
        feature index, then the lowest threshold."""
        y_node = self.y[idx]
        node_gini = gini(_class_counts(y_node))
        n = len(idx)
        best = None  # (decrease, feature, threshold, left_mask)
        for f in self._candidate_features():
            values = self.X[idx, f]
            order = np.argsort(values, kind="stable")
            v_sorted = values[order]
            y_sorted = y_node[order]
            ones = np.cumsum(y_sorted)
            total_ones = ones[-1]
            for k in range(self.min_samples_leaf, n - self.min_samples_leaf + 1):
                if k >= n or v_sorted[k] == v_sorted[k - 1]:
                    continue
                left_ones = ones[k - 1]
                left_counts = (k - left_ones, left_ones)
                right_counts = ((n - k) - (total_ones - left_ones),
                                total_ones - left_ones)
                weighted = (k * gini(left_counts) + (n - k) * gini(right_counts)) / n
                decrease = node_gini - weighted
                if decrease <= 0:
                    continue
                if best is None or decrease > best[0]:
                    thr = (v_sorted[k - 1] + v_sorted[k]) / 2.0
                    best = (decrease, int(f), float(thr))
        return best

    def grow(self, idx, depth) -> int:
        node = self._new_node(idx)
        if depth >= self.max_depth or self.impurity[node] == 0.0 \
                or len(idx) < 2 * self.min_samples_leaf:
            return node
        found = self._best_split(idx)
        if found is None:
            return node
        _, f, thr = found
        mask = self.X[idx, f] < thr
        left_id = self.grow(idx[mask], depth + 1)
        right_id = self.grow(idx[~mask], depth + 1)
        self.feature[node] = f
        self.threshold[node] = thr
        self.left[node] = left_id
        self.right[node] = right_id
        return node

    def build(self) -> DecisionTree:
        self.grow(np.arange(self.X.shape[0]), 0)
        return DecisionTree(
            feature=np.array(self.feature, dtype=np.int64),
            threshold=np.array(self.threshold, dtype=np.float64),
            left=np.array(self.left, dtype=np.int64),
            right=np.array(self.right, dtype=np.int64),
            impurity=np.array(self.impurity, dtype=np.float64),
            n_samples=np.array(self.n_samples, dtype=np.int64),
            class_probs=np.stack(self.class_probs),
            max_depth=self.max_depth,
            min_samples_leaf=self.min_samples_leaf,
        )


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


def train_tree(X, y, max_depth: int = 8,
               min_samples_leaf: int = 2) -> DecisionTree:
    """Greedy CART with Gini impurity over all features (deterministic)."""
    X, y = _validate_xy(X, y)
    builder = _TreeBuilder(X, y, max_depth, max(1, min_samples_leaf), None, None)
    return builder.build()


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
        """Each row's share of trees whose own probability of fake is >= 0.5."""
        X = np.asarray(X, dtype=np.float64)
        return np.stack([tree.predict_proba_fake(X) >= 0.5
                         for tree in self.trees]).mean(axis=0)


def train_forest(X, y, n_trees: int = 100, max_depth: int = 8,
                 features_per_split: int = 3, seed: int = 0) -> RandomForest:
    """Bootstrap-aggregated CART trees with per-node feature subsampling.

    Per-tree seeds are derived deterministically from the master seed, so
    the same call is reproducible and trees could train in parallel.
    """
    X, y = _validate_xy(X, y)
    if n_trees < 1:
        raise ValueError("n_trees must be >= 1")
    tree_seeds = [int(s) for s in np.random.SeedSequence(seed).generate_state(n_trees)]
    trees = []
    n = len(y)
    for tree_seed in tree_seeds:
        rng = np.random.default_rng(tree_seed)
        bootstrap = rng.integers(0, n, size=n)
        builder = _TreeBuilder(X[bootstrap], y[bootstrap], max_depth, 2,
                               rng, features_per_split)
        trees.append(builder.build())
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
        per_tree = np.zeros(n_features)
        root_n = tree.n_samples[0]
        for node in range(len(tree.feature)):
            f = tree.feature[node]
            if f < 0:
                continue
            l, r = tree.left[node], tree.right[node]
            decrease = (tree.n_samples[node] * tree.impurity[node]
                        - tree.n_samples[l] * tree.impurity[l]
                        - tree.n_samples[r] * tree.impurity[r]) / root_n
            per_tree[f] += decrease
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
        return _sigmoid(X @ self.weights + self.intercept)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function that exponentiates only -|z|, so it never overflows."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def logistic_loss_and_gradient(weights: np.ndarray, intercept: float,
                               X: np.ndarray, y: np.ndarray):
    """Mean cross-entropy of the logistic model and its analytic gradient."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    p = _sigmoid(X @ weights + intercept)
    eps = 1e-12
    loss = float(-np.mean(y * np.log(np.clip(p, eps, None))
                          + (1.0 - y) * np.log(np.clip(1.0 - p, eps, None))))
    delta = (p - y) / len(y)
    return loss, X.T @ delta, float(delta.sum())


def train_logistic(X, y, learning_rate: float = 0.1,
                   epochs: int = 500) -> LogisticModel:
    """Full-batch gradient descent on cross-entropy from zero initialization."""
    X, y = _validate_xy(X, y)
    if len(set(y.tolist())) < 2:
        raise ValueError("logistic regression needs both classes present")
    weights = np.zeros(X.shape[1])
    intercept = 0.0
    for _ in range(epochs):
        _, grad_w, grad_b = logistic_loss_and_gradient(weights, intercept, X, y)
        weights = weights - learning_rate * grad_w
        intercept = intercept - learning_rate * grad_b
    return LogisticModel(weights=weights, intercept=intercept)


# Node indices are stored as float64, which holds every integer below 2**53.
_MAX_INDEX = 2 ** 53


def _tree_tensors(tree: DecisionTree, prefix: str) -> dict[str, np.ndarray]:
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
                   high: int) -> np.ndarray:
    """Tensor ``name`` as int64, refusing a value that is not a whole number
    in [low, high)."""
    values = tensors.shaped(name, n_nodes)
    bad = (values != np.floor(values)) | (values < low) | (values >= high)
    if bad.any():
        node = int(np.argmax(bad))
        raise ValueError(f"{tensors.path}: tensor {name!r} holds "
                         f"{float(values[node])!r} at node {node}, the model "
                         f"needs a whole number in [{low}, {high})")
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
    n_features = meta.integer("n_features")
    trees = tuple(_tree_from_tensors(tensors, f"tree{i}", max_depth, min_leaf,
                                     n_features) for i in range(n_trees))
    seeds = tuple(int(s) for s in tensors.shaped("tree_seeds", n_trees))
    return RandomForest(trees=trees, tree_seeds=seeds,
                        features_per_split=meta.integer("features_per_split"),
                        n_features=n_features)
