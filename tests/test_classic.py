import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ucnet import lexical, serialize, synthetic
from ucnet.classic import (DecisionTree, LogisticModel, RandomForest,
                           _best_split, feature_importances, gini, load_model,
                           logistic_loss_and_gradient, save_model,
                           train_forest, train_logistic, train_tree)
from ucnet.evaluation import classify

from test_network import TOY_PHRASES, tiny_params, toy_model


def reads_fake(model, X) -> np.ndarray:
    """1 where ``classify`` reads the model's probability of fake as fake."""
    return np.array([classify(p) == "fake" for p in model.predict_proba_fake(X)],
                    dtype=np.int64)


class TestGini:
    def test_pure_node(self):
        assert gini([5, 0]) == 0.0
        assert gini([0, 9]) == 0.0

    def test_balanced_node(self):
        assert gini([4, 4]) == 0.5

    def test_empty_node(self):
        assert gini([0, 0]) == 0.0


def exhaustive_best_split(X, y, min_leaf=2):
    """Oracle: try every feature and every midpoint threshold."""
    n = len(y)
    parent = gini(np.bincount(y, minlength=2))
    best = None
    for f in range(X.shape[1]):
        values = np.unique(X[:, f])
        for lo, hi in zip(values[:-1], values[1:]):
            thr = (lo + hi) / 2
            mask = X[:, f] < thr
            nl, nr = mask.sum(), (~mask).sum()
            if nl < min_leaf or nr < min_leaf:
                continue
            weighted = (nl * gini(np.bincount(y[mask], minlength=2))
                        + nr * gini(np.bincount(y[~mask], minlength=2))) / n
            decrease = parent - weighted
            if decrease <= 0:
                continue
            if best is None or decrease > best[0]:
                best = (decrease, f, thr)
    return best


class TestDecisionTree:
    def test_separable_1d_gives_depth_one_perfect_tree(self):
        X = np.array([[0.1], [0.2], [0.3], [0.7], [0.8], [0.9]])
        y = np.array([0, 0, 0, 1, 1, 1])
        tree = train_tree(X, y, max_depth=8, min_samples_leaf=2)
        assert tree.feature[0] == 0
        assert tree.feature[tree.left[0]] == -1
        assert tree.feature[tree.right[0]] == -1
        assert np.array_equal(reads_fake(tree, X), y)

    def test_pure_input_is_single_leaf(self):
        X = np.array([[1.0], [2.0], [3.0]])
        y = np.array([1, 1, 1])
        tree = train_tree(X, y)
        assert len(tree.feature) == 1
        assert tree.feature[0] == -1
        assert np.array_equal(tree.class_probs[0], [0.0, 1.0])

    def test_eight_point_fixture_matches_exhaustive_oracle(self):
        X = np.array([
            [0.2, 1.1], [0.4, 0.9], [0.6, 3.0], [0.8, 2.6],
            [1.4, 0.7], [1.6, 2.2], [1.8, 1.5], [2.0, 0.3],
        ])
        y = np.array([0, 0, 1, 1, 0, 1, 1, 1])
        tree = train_tree(X, y, max_depth=8, min_samples_leaf=2)
        _, feature, threshold = exhaustive_best_split(X, y)
        assert tree.feature[0] == feature
        assert tree.threshold[0] == pytest.approx(threshold)

    def test_adjacent_values_split_into_two_nonempty_children(self):
        # Their midpoint rounds down to the lower value, below which no row
        # lies; the threshold is the upper value instead.
        upper = np.nextafter(1.0, 2.0)
        tree = train_tree([[1.0], [upper]], [0, 1], min_samples_leaf=1)
        assert tree.threshold[0] == upper
        assert tree.n_samples.tolist() == [2, 1, 1]
        assert tree.predict_proba_fake([[1.0], [upper]]).tolist() == [0.0, 1.0]

    def test_midpoint_near_the_float_maximum_does_not_overflow(self):
        # (below + above) / 2 overflows to inf here, with a RuntimeWarning
        # (an error under the suite's filter).
        m = np.finfo(np.float64).max / 2
        upper = np.nextafter(m, np.inf)
        tree = train_tree([[m], [upper]], [0, 1], min_samples_leaf=1)
        assert tree.threshold[0] == upper
        assert tree.n_samples.tolist() == [2, 1, 1]
        assert tree.predict_proba_fake([[m], [upper]]).tolist() == [0.0, 1.0]

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            train_tree(np.zeros((0, 2)), np.zeros(0, dtype=int))

    def test_prediction_tie_goes_to_fake(self):
        X = np.array([[0.0], [0.0]])
        y = np.array([0, 1])
        tree = train_tree(X, y)  # unsplittable: leaf with 0.5 / 0.5
        assert tree.predict_proba_fake(np.array([[0.0]])) == [0.5]
        assert np.array_equal(reads_fake(tree, np.array([[0.0]])), [1])

    def test_proba_fake_is_the_fake_share_of_the_leaf(self):
        def leaf_fake_share(tree, x, node=0):
            if tree.feature[node] < 0:
                return tree.class_probs[node, 1]
            side = tree.left if x[tree.feature[node]] < tree.threshold[node] \
                else tree.right
            return leaf_fake_share(tree, x, side[node])

        rng = np.random.default_rng(7)
        X = rng.normal(size=(40, 3))
        tree = train_tree(X, (X[:, 0] + X[:, 2] > 0).astype(np.int64))
        probe = rng.normal(size=(25, 3))
        assert np.array_equal(tree.predict_proba_fake(probe),
                              [leaf_fake_share(tree, x) for x in probe])

    def test_save_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(40, 3))
        y = (X[:, 1] > 0).astype(np.int64)
        tree = train_tree(X, y)
        save_model(tree, tmp_path / "tree.model")
        again = load_model(tmp_path / "tree.model")
        assert isinstance(again, DecisionTree)
        probe = rng.normal(size=(25, 3))
        assert np.array_equal(tree.predict_proba_fake(probe),
                              again.predict_proba_fake(probe))

    @pytest.mark.parametrize("entry,value", [
        ("tree.threshold", np.zeros(2)), ("tree.feature", np.zeros((1, 1))),
        ("tree.feature", np.zeros(0)), ("min_samples_leaf", "two")])
    def test_bad_entry_is_named(self, tmp_path, entry, value):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(40, 3))
        path = tmp_path / "tree.model"
        save_model(train_tree(X, (X[:, 1] > 0).astype(np.int64)), path)
        tensors, meta = serialize.load_tensors(path)
        (meta if isinstance(value, str) else tensors)[entry] = value
        serialize.save_tensors(path, tensors, meta)
        with pytest.raises(ValueError, match=f"tree.model: .*'{entry}'"):
            load_model(path)


def five_node_tree() -> DecisionTree:
    """Root 0 splits into node 1 and leaf 2; node 1 into leaves 3 and 4."""
    return DecisionTree(
        feature=np.array([0, 1, -1, -1, -1]),
        threshold=np.array([0.5, 0.5, 0.0, 0.0, 0.0]),
        left=np.array([1, 3, -1, -1, -1]),
        right=np.array([2, 4, -1, -1, -1]),
        impurity=np.array([0.5, 0.5, 0.0, 0.0, 0.0]),
        n_samples=np.array([8, 4, 4, 2, 2]),
        class_probs=np.array([[0.5, 0.5], [0.5, 0.5], [1.0, 0.0],
                              [1.0, 0.0], [0.0, 1.0]]),
        max_depth=8, min_samples_leaf=2)


# (tensor, node, value written there, tensor the refusal names)
MALFORMED_NODES = [
    ("feature", 1, 0.5, "feature"),      # not a whole number
    ("left", 0, 1.5, "left"),
    ("right", 1, 1e300, "right"),
    ("n_samples", 3, 2.5, "n_samples"),
    ("n_samples", 3, 0.0, "n_samples"),  # a node no sample reached
    ("feature", 1, -2.0, "feature"),     # below the leaf marker
    ("left", 0, 0.0, "left"),            # its own child
    ("left", 1, 0.0, "left"),            # back to its parent: a cycle
    ("right", 0, 7.0, "right"),          # past the last node
    ("left", 2, 3.0, "left"),            # a leaf with a child
    ("right", 4, 1.0, "right"),
    ("feature", 2, 0.0, "left"),         # an inner node without children
]


@pytest.mark.parametrize("kind,tensor,node,value,named", [
    *[("tree", *case) for case in MALFORMED_NODES],
    *[("forest", *case) for case in MALFORMED_NODES],
    ("forest", "feature", 1, 2.0, "feature"),  # the forest has 2 features
])
def test_malformed_tree_file_is_refused(tmp_path, kind, tensor, node, value,
                                        named):
    tree = five_node_tree()
    path = tmp_path / f"{kind}.model"
    if kind == "tree":
        save_model(tree, path)
        prefix = "tree"
    else:
        save_model(RandomForest(trees=(tree,), tree_seeds=(1,),
                                features_per_split=2, n_features=2), path)
        prefix = "tree0"
    tensors, meta = serialize.load_tensors(path)
    tensors[f"{prefix}.{tensor}"][node] = value
    serialize.save_tensors(path, tensors, meta)
    with pytest.raises(ValueError,
                       match=f"{kind}.model: tensor '{prefix}.{named}'"):
        load_model(path)


def one_tree_forest_file(path, **changes):
    """Save a one-tree forest to ``path``, then rewrite the tensors and meta
    entries given in ``changes``."""
    save_model(RandomForest(trees=(five_node_tree(),), tree_seeds=(1,),
                            features_per_split=2, n_features=2), path)
    tensors, meta = serialize.load_tensors(path)
    for key, value in changes.items():
        if key in tensors:
            tensors[key] = value
        else:
            meta[key] = value
    serialize.save_tensors(path, tensors, meta)


@pytest.mark.parametrize("seed", [1.5, -1.0, 2.0 ** 32, 1e300])
def test_forest_seed_must_be_a_uint32(tmp_path, seed):
    path = tmp_path / "forest.model"
    one_tree_forest_file(path, tree_seeds=np.array([seed]))
    with pytest.raises(ValueError, match=r"forest.model: tensor 'tree_seeds' "
                       r"holds .* at tree 0, the model needs a whole number "
                       r"in \[0, 4294967296\)"):
        load_model(path)


def test_forest_seed_range_edges_load(tmp_path):
    path = tmp_path / "forest.model"
    for seed in (0, 2 ** 32 - 1):
        one_tree_forest_file(path, tree_seeds=np.array([float(seed)]))
        assert load_model(path).tree_seeds == (seed,)


@pytest.mark.parametrize("n_trees", ["0", "-1"])
def test_forest_without_trees_is_refused_naming_the_file(tmp_path, n_trees):
    path = tmp_path / "forest.model"
    one_tree_forest_file(path, n_trees=n_trees, tree_seeds=np.zeros(0))
    with pytest.raises(ValueError, match=f"forest.model: meta 'n_trees' is "
                       f"{n_trees}, a forest needs at least one tree"):
        load_model(path)


def test_load_model_refuses_other_model_files(tmp_path, scorer):
    for name, model in (("ucnet.model",
                         toy_model(tiny_params(n_phrases=len(TOY_PHRASES)))),
                        ("scorer.model", scorer)):
        model.save(tmp_path / name)
        with pytest.raises(ValueError,
                           match=f"{name}: not a classic model file"):
            load_model(tmp_path / name)


def separable_features(rng, n):
    X = rng.normal(size=(n, 4))
    y = (X[:, 2] + 0.3 * X[:, 0] > 0).astype(np.int64)
    return X, y


class TestRandomForest:
    def test_single_tree_forest_votes_like_its_tree(self):
        rng = np.random.default_rng(1)
        X, y = separable_features(rng, 60)
        forest = train_forest(X, y, n_trees=1, features_per_split=4, seed=3)
        probe = rng.normal(size=(20, 4))
        assert np.array_equal(forest.predict_proba_fake(probe),
                              reads_fake(forest.trees[0], probe))

    def test_same_seed_same_predictions(self):
        rng = np.random.default_rng(2)
        X, y = separable_features(rng, 80)
        probe = rng.normal(size=(30, 4))
        a = train_forest(X, y, n_trees=15, seed=9).predict_proba_fake(probe)
        b = train_forest(X, y, n_trees=15, seed=9).predict_proba_fake(probe)
        assert np.array_equal(a, b)

    def test_heldout_accuracy_on_separable_data(self):
        rng = np.random.default_rng(3)
        X, y = separable_features(rng, 300)
        forest = train_forest(X[:200], y[:200], n_trees=50, seed=0)
        accuracy = (reads_fake(forest, X[200:]) == y[200:]).mean()
        assert accuracy >= 0.9

    def test_majority_vote_matches_explicit_count(self):
        rng = np.random.default_rng(4)
        X, y = separable_features(rng, 60)
        forest = train_forest(X, y, n_trees=9, seed=5)
        probe = rng.normal(size=(40, 4))
        votes = np.stack([reads_fake(t, probe)
                          for t in forest.trees]).sum(axis=0)
        assert np.array_equal(forest.predict_proba_fake(probe), votes / 9)
        expected = (2 * votes >= 9).astype(np.int64)
        assert np.array_equal(reads_fake(forest, probe), expected)

    def test_tie_goes_to_fake(self):
        rng = np.random.default_rng(12)
        X, y = separable_features(rng, 50)
        forest = train_forest(X, y, n_trees=2, seed=1)
        probe = rng.normal(size=(200, 4))
        votes = np.stack([reads_fake(t, probe)
                          for t in forest.trees]).sum(axis=0)
        assert np.any(votes == 1)
        assert np.all(forest.predict_proba_fake(probe)[votes == 1] == 0.5)
        assert np.all(reads_fake(forest, probe)[votes == 1] == 1)

    def test_save_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(6)
        X, y = separable_features(rng, 70)
        forest = train_forest(X, y, n_trees=5, seed=2)
        save_model(forest, tmp_path / "forest.model")
        again = load_model(tmp_path / "forest.model")
        assert isinstance(again, RandomForest)
        probe = rng.normal(size=(20, 4))
        assert np.array_equal(forest.predict_proba_fake(probe),
                              again.predict_proba_fake(probe))
        assert np.array_equal(feature_importances(forest),
                              feature_importances(again))

    def test_save_keeps_training_depth_and_leaf_size(self, tmp_path):
        rng = np.random.default_rng(8)
        X, y = separable_features(rng, 70)
        forest = train_forest(X, y, n_trees=3, max_depth=2, seed=4)
        save_model(forest, tmp_path / "forest.model")
        again = load_model(tmp_path / "forest.model")
        assert [t.max_depth for t in again.trees] == [2, 2, 2]
        assert [t.min_samples_leaf for t in again.trees] == [2, 2, 2]
        probe = rng.normal(size=(20, 4))
        assert np.array_equal(forest.predict_proba_fake(probe),
                              again.predict_proba_fake(probe))

    @pytest.mark.parametrize("drop", ["tree1.threshold", "n_trees",
                                      "max_depth", "min_samples_leaf"])
    def test_missing_entry_is_named(self, tmp_path, drop):
        rng = np.random.default_rng(6)
        X, y = separable_features(rng, 40)
        path = tmp_path / "forest.model"
        save_model(train_forest(X, y, n_trees=2, seed=2), path)
        tensors, meta = serialize.load_tensors(path)
        tensors.pop(drop, None)
        meta.pop(drop, None)
        serialize.save_tensors(path, tensors, meta)
        with pytest.raises(ValueError, match=f"forest.model: no .*'{drop}'"):
            load_model(path)

    @pytest.mark.parametrize("entry,value", [
        ("tree1.left", np.zeros(1)), ("tree0.class_probs", np.zeros((1, 3))),
        ("tree_seeds", np.zeros(3)), ("n_trees", "two"), ("max_depth", "8.5"),
        ("n_features", "")])
    def test_bad_entry_is_named(self, tmp_path, entry, value):
        rng = np.random.default_rng(6)
        X, y = separable_features(rng, 40)
        path = tmp_path / "forest.model"
        save_model(train_forest(X, y, n_trees=2, seed=2), path)
        tensors, meta = serialize.load_tensors(path)
        (meta if isinstance(value, str) else tensors)[entry] = value
        serialize.save_tensors(path, tensors, meta)
        with pytest.raises(ValueError, match=f"forest.model: .*'{entry}'"):
            load_model(path)


class TestFeatureImportances:
    def test_single_feature_gets_everything(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(80, 1))
        y = (X[:, 0] > 0).astype(np.int64)
        forest = train_forest(X, y, n_trees=10, features_per_split=1, seed=0)
        assert np.array_equal(feature_importances(forest), [1.0])

    def test_informative_beats_noise_across_seeds(self):
        for seed in range(10):
            rng = np.random.default_rng(100 + seed)
            informative = rng.normal(size=200)
            noise = rng.normal(size=200)
            X = np.column_stack([informative, noise])
            y = (informative > 0).astype(np.int64)
            forest = train_forest(X, y, n_trees=20, features_per_split=1,
                                  seed=seed)
            imps = feature_importances(forest)
            assert imps[0] > imps[1]

    def test_normalized_to_one(self):
        rng = np.random.default_rng(8)
        X, y = separable_features(rng, 90)
        imps = feature_importances(train_forest(X, y, n_trees=12, seed=3))
        assert imps.sum() == pytest.approx(1.0, abs=1e-12)

    def test_all_leaf_forest_is_uniform(self):
        X = np.array([[1.0, 2.0], [1.0, 2.0], [1.0, 2.0]])
        y = np.array([1, 1, 1])
        forest = train_forest(X, y, n_trees=3, seed=0)
        assert np.array_equal(feature_importances(forest), [0.5, 0.5])


class TestLogistic:
    def test_zero_epochs_predicts_half(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(20, 3))
        y = (rng.random(20) > 0.5).astype(np.int64)
        y[0], y[1] = 0, 1
        model = train_logistic(X, y, epochs=0)
        assert np.array_equal(model.weights, np.zeros(3))
        assert np.all(model.predict_proba_fake(X) == 0.5)

    def test_separable_1d_perfect_heldout(self):
        rng = np.random.default_rng(10)
        X = np.concatenate([rng.normal(-2, 0.3, 60),
                            rng.normal(2, 0.3, 60)]).reshape(-1, 1)
        y = np.array([0] * 60 + [1] * 60)
        order = rng.permutation(120)
        X, y = X[order], y[order]
        model = train_logistic(X[:80], y[:80], learning_rate=0.5, epochs=400)
        assert (reads_fake(model, X[80:]) == y[80:]).mean() == 1.0

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(12, 3))
        y = (rng.random(12) > 0.5).astype(np.float64)
        w = rng.normal(size=3) * 0.5
        b = 0.3
        _, grad_w, grad_b = logistic_loss_and_gradient(w, b, X, y)
        h = 1e-6
        for j in range(3):
            w_plus, w_minus = w.copy(), w.copy()
            w_plus[j] += h
            w_minus[j] -= h
            numeric = (logistic_loss_and_gradient(w_plus, b, X, y)[0]
                       - logistic_loss_and_gradient(w_minus, b, X, y)[0]) / (2 * h)
            assert abs(numeric - grad_w[j]) < 1e-6
        numeric_b = (logistic_loss_and_gradient(w, b + h, X, y)[0]
                     - logistic_loss_and_gradient(w, b - h, X, y)[0]) / (2 * h)
        assert abs(numeric_b - grad_b) < 1e-6

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            train_logistic(np.zeros((4, 2)), np.zeros(4, dtype=int))

    def test_column_layout_does_not_change_bits(self):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(200, 6))
        y = (X[:, 0] + 0.5 * rng.normal(size=200) > 0).astype(np.int64)
        model = train_logistic(X, y)
        fortran = train_logistic(np.asfortranarray(X), y)
        assert np.array_equal(model.weights, fortran.weights)
        assert model.intercept == fortran.intercept
        assert np.array_equal(model.predict_proba_fake(X),
                              model.predict_proba_fake(np.asfortranarray(X)))

    def test_a_score_beyond_the_float_range_raises(self):
        X = np.array([[9e307, 1.0], [-9e307, 2.0], [8e307, 3.0], [1.0, 4.0]])
        y = np.array([1, 0, 1, 0])
        with pytest.raises(OverflowError, match="the logistic score of row 1 "
                           "overflows float64; the features reach 9e"):
            train_logistic(X, y)
        model = LogisticModel(weights=np.array([2.0, 0.0]), intercept=0.0)
        assert model.predict_proba_fake(np.array([[8e307, 1.0]]))[0] == 1.0
        with pytest.raises(OverflowError, match="row 2 overflows"):
            model.predict_proba_fake(np.array([[1.0, 0.0], [9e307, 0.0]]))

    def test_weights_beyond_the_float_range_raise(self):
        X = np.array([[10.0], [-10.0]])
        with pytest.raises(OverflowError,
                           match="logistic weights overflow float64 at epoch 1"):
            train_logistic(X, np.array([1, 0]), learning_rate=1e308)

    def test_save_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(30, 2))
        y = (X[:, 0] > 0).astype(np.int64)
        model = train_logistic(X, y, learning_rate=0.3, epochs=100)
        save_model(model, tmp_path / "logit.model")
        again = load_model(tmp_path / "logit.model")
        assert isinstance(again, LogisticModel)
        assert np.array_equal(model.predict_proba_fake(X),
                              again.predict_proba_fake(X))

    def test_bad_shapes_are_named(self, tmp_path):
        path = tmp_path / "logit.model"
        for tensors in ({"weights": np.zeros((2, 1)), "intercept": np.zeros(1)},
                        {"weights": np.zeros(2), "intercept": np.zeros(2)}):
            serialize.save_tensors(path, tensors, {"kind": "logistic"})
            with pytest.raises(ValueError, match="logit.model: tensor"):
                load_model(path)


@pytest.mark.parametrize("train", [train_forest, train_tree, train_logistic])
def test_no_feature_columns_refused(train):
    y = np.array([0, 1] * 10)
    with pytest.raises(ValueError, match="no feature columns"):
        train(np.zeros((20, 0)), y)


# Oracles: the scalar passes that the array code replaced, kept as they were.

def loop_best_split(X, y, idx, min_samples_leaf, features):
    """One Python step per threshold, calling the scalar ``gini``."""
    y_node = y[idx]
    node_gini = gini(np.bincount(y_node, minlength=2).astype(np.float64))
    n = len(idx)
    best = None  # (decrease, feature, threshold)
    for f in features:
        values = X[idx, f]
        order = np.argsort(values, kind="stable")
        v_sorted = values[order]
        y_sorted = y_node[order]
        ones = np.cumsum(y_sorted)
        total_ones = ones[-1]
        for k in range(min_samples_leaf, n - min_samples_leaf + 1):
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


def descend_one_row_at_a_time(tree, X):
    X = np.asarray(X, dtype=np.float64)
    out = np.zeros(X.shape[0])
    for row in range(X.shape[0]):
        node = 0
        while tree.feature[node] >= 0:
            if X[row, tree.feature[node]] < tree.threshold[node]:
                node = tree.left[node]
            else:
                node = tree.right[node]
        out[row] = tree.class_probs[node, 1]
    return out


def loop_feature_importances(forest):
    totals = np.zeros(forest.n_features)
    for tree in forest.trees:
        per_tree = np.zeros(forest.n_features)
        root_n = tree.n_samples[0]
        for node in range(len(tree.feature)):
            f = tree.feature[node]
            if f < 0:
                continue
            l, r = tree.left[node], tree.right[node]
            per_tree[f] += (tree.n_samples[node] * tree.impurity[node]
                            - tree.n_samples[l] * tree.impurity[l]
                            - tree.n_samples[r] * tree.impurity[r]) / root_n
        tree_total = per_tree.sum()
        if tree_total > 0:
            totals += per_tree / tree_total
    grand = totals.sum()
    if grand == 0:
        return np.full(forest.n_features, 1.0 / forest.n_features)
    return totals / grand


# Few distinct values, so columns tie; a column may be constant.
TIED_VALUES = [-2.0, -0.5, 0.0, 0.1, 0.3, 1.0, 7.5]


@st.composite
def split_nodes(draw):
    min_leaf = draw(st.sampled_from([1, 2, 5]))
    n_rows = draw(st.integers(2, 14))
    n_cols = draw(st.integers(1, 5))
    columns = []
    for _ in range(n_cols):
        if draw(st.booleans()):
            columns.append([draw(st.sampled_from(TIED_VALUES))] * n_rows)
        else:
            columns.append(draw(st.lists(
                st.sampled_from(TIED_VALUES)
                | st.floats(-1e3, 1e3, allow_nan=False, width=32),
                min_size=n_rows, max_size=n_rows)))
    X = np.array(columns, dtype=np.float64).T
    y = np.array(draw(st.lists(st.integers(0, 1), min_size=n_rows,
                               max_size=n_rows)), dtype=np.int64)
    # A node's rows, repeats allowed as in a bootstrap sample.
    idx = np.array(draw(st.lists(st.integers(0, n_rows - 1),
                                 min_size=2 * min_leaf, max_size=20)))
    features = sorted(draw(st.sets(st.integers(0, n_cols - 1), min_size=1)))
    return X, y, idx, min_leaf, np.array(features)


class TestArraySplitSearch:
    @settings(max_examples=400, deadline=None)
    @given(split_nodes())
    def test_matches_the_threshold_loop_bit_for_bit(self, node):
        X, y, idx, min_leaf, features = node
        expected = loop_best_split(X, y, idx, min_leaf, features)
        node_gini = gini(np.bincount(y[idx], minlength=2).astype(np.float64))
        found = _best_split(X.T[np.ix_(features, idx)], y[idx], min_leaf,
                            node_gini)
        if expected is None:
            assert found is None
            return
        decrease, row, threshold = found
        assert (float(expected[0]).hex(), expected[1], expected[2].hex()) == \
            (decrease.hex(), int(features[row]), threshold.hex())

    def test_ties_go_to_the_lowest_feature_then_threshold(self):
        # Columns 1 and 2 are copies of column 0; each splits the labels
        # equally well below 1.5 and below 3.5.
        column = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
        X = np.column_stack([column, column, column])
        y = np.array([0, 0, 1, 1, 0, 0])
        _, row, threshold = _best_split(X.T[[1, 2]], y, 1, gini([4, 2]))
        assert (row, threshold) == (0, 1.5)
        assert loop_best_split(X, y, np.arange(6), 1, [1, 2])[1:] == (1, 1.5)


class TestArrayDescent:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(0, 40),
           st.sampled_from([1, 2, 8]))
    def test_matches_the_per_row_descent(self, seed, n_probe, max_depth):
        rng = np.random.default_rng(seed)
        X = rng.integers(-2, 3, size=(30, 3)).astype(np.float64)
        y = (X[:, 0] + X[:, 1] + rng.normal(size=30) > 0).astype(np.int64)
        tree = train_tree(X, y, max_depth=max_depth, min_samples_leaf=1)
        probe = rng.integers(-3, 4, size=(n_probe, 3)).astype(np.float64)
        assert tree.predict_proba_fake(probe).tobytes() == \
            descend_one_row_at_a_time(tree, probe).tobytes()

    def test_leaf_only_tree_and_zero_rows(self):
        leaf = train_tree(np.zeros((4, 2)), np.array([0, 1, 1, 1]))
        assert len(leaf.feature) == 1
        for probe in (np.zeros((0, 2)), np.ones((3, 2))):
            got = leaf.predict_proba_fake(probe)
            assert got.dtype == np.float64
            assert got.tobytes() == \
                descend_one_row_at_a_time(leaf, probe).tobytes()
        X, y = separable_features(np.random.default_rng(5), 40)
        tree = train_tree(X, y)
        assert len(tree.feature) > 1
        assert tree.predict_proba_fake(np.zeros((0, 4))).shape == (0,)

    def test_importances_match_the_node_loop(self):
        for seed in range(5):
            X, y = separable_features(np.random.default_rng(seed), 60)
            forest = train_forest(X, y, n_trees=15, features_per_split=2,
                                  seed=seed)
            assert feature_importances(forest).tobytes() == \
                loop_feature_importances(forest).tobytes()


class TestDegenerateArguments:
    @pytest.mark.parametrize("kwargs,named", [
        ({"max_depth": 0}, "max_depth"), ({"max_depth": -1}, "max_depth"),
        ({"features_per_split": 0}, "features_per_split"),
        ({"features_per_split": -1}, "features_per_split"),
        ({"n_trees": 0}, "n_trees")])
    def test_forest_refuses(self, kwargs, named):
        X, y = separable_features(np.random.default_rng(1), 20)
        with pytest.raises(ValueError, match=f"^{named} must be >= 1"):
            train_forest(X, y, **kwargs)

    @pytest.mark.parametrize("max_depth", [0, -3])
    def test_tree_refuses(self, max_depth):
        X, y = separable_features(np.random.default_rng(1), 20)
        with pytest.raises(ValueError, match="^max_depth must be >= 1"):
            train_tree(X, y, max_depth=max_depth)

    @pytest.mark.parametrize("columns", [3, 5])
    def test_forest_refuses_another_column_count(self, columns):
        X, y = separable_features(np.random.default_rng(2), 30)
        forest = train_forest(X, y, n_trees=3, seed=0)
        with pytest.raises(ValueError, match="the forest needs 4 columns"):
            forest.predict_proba_fake(np.zeros((2, columns)))


# save_model(train_forest(...)) on the features of the seed-7 synthetic
# corpus (200 videos, scorer trained on the seed-7 labeled titles), taken
# before the split search became array code.
FOREST_BYTES = {
    "defaults": ({}, "dd37dcc90498e4e4e64bb3927c908a488584c060768351819e101d377c10516f"),
    "all features": ({"n_trees": 20, "max_depth": 3, "features_per_split": 8,
                      "seed": 5},
                     "b41412567044b81b8961be929baa7d2a9277cad04255da806d4084b800f71941"),
}


@pytest.fixture(scope="module")
def seed7_features():
    lexicons = lexical.LexiconSet.default()
    videos = list(synthetic.make_synthetic_corpus(200, seed=7,
                                                  lexicons=lexicons))
    scorer = lexical.train_title_scorer(
        synthetic.make_labeled_titles(240, seed=7, lexicons=lexicons), lexicons)
    X = lexical.feature_matrix(videos, lexicons, scorer)
    return X, np.array([v.label == "fake" for v in videos], dtype=np.int64)


@pytest.mark.parametrize("case", sorted(FOREST_BYTES))
def test_forest_model_bytes(tmp_path, seed7_features, case):
    kwargs, digest = FOREST_BYTES[case]
    save_model(train_forest(*seed7_features, **kwargs), tmp_path / "f.model")
    assert hashlib.sha256((tmp_path / "f.model").read_bytes()).hexdigest() \
        == digest
