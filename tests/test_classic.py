import numpy as np
import pytest

from ucnet import serialize
from ucnet.classic import (DecisionTree, LogisticModel, RandomForest,
                           feature_importances, gini, load_model,
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
