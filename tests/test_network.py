import math

import numpy as np
import pytest

from ucnet import (corpus, evaluation, lexical, network, neural, serialize,
                   synthetic)
from ucnet.embeddings import EmbeddingTable
from ucnet.network import (Prediction, TrainingConfig, UCNetModel,
                           comment_weight, extract_unified_embeddings,
                           fakeness_vector, init_params)

from conftest import (lstm_cell, lstm_sequence, make_comment, make_dataset,
                      make_video)
from test_neural import copied


class TestFakenessVector:
    def test_example_phrase_sets_its_index(self, phrases):
        fv = fakeness_vector("This looks almost real to me", phrases)
        index = phrases.index("looks almost real")
        assert fv[index] == 1.0

    def test_empty_comment_is_all_zero(self, phrases):
        assert np.array_equal(fakeness_vector("", phrases), np.zeros(30))

    def test_matches_brute_force_scan(self, phrases):
        comment = "so fake, probably cgi and staged"
        fv = fakeness_vector(comment, phrases)
        expected = np.array([1.0 if p.casefold() in comment.casefold() else 0.0
                             for p in phrases])
        assert np.array_equal(fv, expected)
        assert fv.sum() >= 3

    def test_case_insensitive(self, phrases):
        assert fakeness_vector("HOAX", phrases)[phrases.index("hoax")] == 1.0

    def test_empty_phrase_list_rejected(self):
        with pytest.raises(ValueError):
            fakeness_vector("anything", [])


def tiny_params(seed=0, embedding_dim=4, n_phrases=5, n_features=2,
                lstm_hidden=3):
    return init_params(np.random.default_rng(seed), embedding_dim, n_phrases,
                       n_features, lstm_hidden)


class TestCommentWeight:
    def test_zero_parameters_give_half(self):
        params = tiny_params()
        params["weight_head.weights"][...] = 0.0
        params["weight_head.bias"][...] = 0.0
        model = toy_model(params)
        assert comment_weight(np.array([1.0, 0, 1, 0, 1]), model) == 0.5

    def test_hand_sigmoid(self):
        params = tiny_params(n_phrases=2)
        params["weight_head.weights"][...] = np.array([[0.8, -0.4]])
        params["weight_head.bias"][...] = np.array([0.1])
        model = toy_model(params, phrases=("fake", "hoax"))
        fv = np.array([1.0, 1.0])
        expected = 1.0 / (1.0 + math.exp(-(0.8 - 0.4 + 0.1)))
        assert comment_weight(fv, model) == pytest.approx(expected, abs=1e-12)

    def test_monotone_in_extra_bits_with_positive_weights(self):
        params = tiny_params(n_phrases=4)
        params["weight_head.weights"][...] = np.abs(params["weight_head.weights"])
        model = toy_model(params, phrases=TOY_PHRASES[:4])
        base = np.array([1.0, 0.0, 0.0, 0.0])
        more = np.array([1.0, 0.0, 1.0, 0.0])
        assert comment_weight(more, model) >= comment_weight(base, model)

    def test_strictly_inside_unit_interval(self):
        w = comment_weight(np.ones(5), toy_model(tiny_params()))
        assert 0.0 < w < 1.0


def toy_table(dim=4):
    rng = np.random.default_rng(99)
    words = ["fake", "video", "nice", "hoax", "the", "song", "staged", "ok"]
    return EmbeddingTable(dimension=dim, vectors={
        w: rng.normal(size=dim) for w in words})


def toy_comments():
    return [
        make_comment("c1", "fake video", published="2015-01-03T00:00:00Z"),
        make_comment("c2", "nice song", published="2015-01-02T00:00:00Z"),
        make_comment("c3", "the hoax ok", published="2015-01-01T00:00:00Z"),
    ]


TOY_PHRASES = ("fake", "hoax", "staged", "nice video", "so fake")


def toy_model(params, max_comments=200, dtype=np.float32, phrases=TOY_PHRASES):
    """A model over ``phrases`` with placeholder feature names."""
    n_features = params["hidden.weights"].shape[1] - params["lstm.wh"].shape[1]
    names = tuple(f"f{i}" for i in range(n_features))
    return UCNetModel(params, phrases, names, params["lstm.wx"].shape[1],
                      TrainingConfig(max_comments_per_video=max_comments),
                      dtype=dtype)


class TestUnifiedEmbedding:
    def test_single_comment_is_weight_times_embedding(self, ):
        params = tiny_params(n_phrases=len(TOY_PHRASES))
        table = toy_table()
        comment = make_comment("c", "fake video")
        unified = toy_model(params).unified_embedding([comment], table)
        from ucnet.embeddings import embed_comment
        emb = lstm_sequence(
            lstm_cell(params), table.matrix[embed_comment("fake video", table)])
        w = comment_weight(fakeness_vector("fake video", TOY_PHRASES),
                           toy_model(params))
        assert np.allclose(unified, w * emb, atol=1e-12)

    def test_no_comments_is_zero_vector(self):
        params = tiny_params(n_phrases=len(TOY_PHRASES))
        out = toy_model(params).unified_embedding([], toy_table())
        assert np.array_equal(out, np.zeros(3))

    def test_zero_weight_head_halves_mean_raw_embedding(self):
        params = tiny_params(n_phrases=len(TOY_PHRASES))
        params["weight_head.weights"][...] = 0.0
        params["weight_head.bias"][...] = 0.0
        table = toy_table()
        comments = toy_comments()
        unified = toy_model(params).unified_embedding(comments, table)
        from ucnet.embeddings import embed_comment
        raw = np.stack([lstm_sequence(
                            lstm_cell(params),
                            table.matrix[embed_comment(c.text, table)])
                        for c in comments])
        assert np.allclose(unified, 0.5 * raw.mean(axis=0), atol=1e-12)

    def test_permutation_invariance_exact(self):
        params = tiny_params(n_phrases=len(TOY_PHRASES))
        table = toy_table()
        comments = toy_comments()
        for dtype in (np.float32, np.float64):
            model = toy_model(params, dtype=dtype)
            base = model.unified_embedding(comments, table)
            for order in ([2, 0, 1], [1, 2, 0], [2, 1, 0]):
                shuffled = [comments[i] for i in order]
                assert np.array_equal(
                    base, model.unified_embedding(shuffled, table))

    def test_duplication_invariance_exact(self):
        params = tiny_params(n_phrases=len(TOY_PHRASES))
        table = toy_table()
        comments = toy_comments()
        for dtype in (np.float32, np.float64):
            model = toy_model(params, dtype=dtype)
            base = model.unified_embedding(comments, table)
            doubled = comments + comments
            assert np.array_equal(
                base, model.unified_embedding(doubled, table))

    def test_comment_cap_keeps_most_recent(self):
        params = tiny_params(n_phrases=len(TOY_PHRASES))
        table = toy_table()
        comments = toy_comments()
        capped = toy_model(params, max_comments=2).unified_embedding(comments,
                                                                     table)
        newest_two = [comments[0], comments[1]]
        assert np.array_equal(
            capped, toy_model(params).unified_embedding(newest_two, table))


class TestForward:
    def test_probabilities_sum_to_one(self):
        params = tiny_params(n_phrases=len(TOY_PHRASES))
        video = make_video(comments=toy_comments())
        prediction = toy_model(params).predict(video.comments,
                                               np.array([0.3, 0.7]), toy_table())
        assert prediction.p_real + prediction.p_fake == pytest.approx(1.0,
                                                                      abs=1e-12)

    def test_zero_head_gives_even_odds(self):
        params = tiny_params(n_phrases=len(TOY_PHRASES))
        params["output.weights"][...] = 0.0
        params["output.bias"][...] = 0.0
        video = make_video(comments=toy_comments())
        prediction = toy_model(params).predict(video.comments, np.zeros(2),
                                               toy_table())
        assert prediction == Prediction(0.5, 0.5)

    def test_hand_traced_reduced_forward(self):
        params = tiny_params(seed=4, embedding_dim=4, lstm_hidden=4,
                             n_phrases=len(TOY_PHRASES), n_features=2)
        table = toy_table()
        video = make_video(comments=toy_comments())
        features = np.array([0.25, 0.9])
        got = toy_model(params, dtype=np.float64).predict(video.comments,
                                                          features, table)

        # independent trace with basic numpy ops
        from ucnet.embeddings import embed_comment
        weighted = []
        for c in video.comments:
            emb = lstm_sequence(
                lstm_cell(params), table.matrix[embed_comment(c.text, table)])
            fv = fakeness_vector(c.text, TOY_PHRASES)
            w = 1.0 / (1.0 + np.exp(-(params["weight_head.weights"] @ fv
                                      + params["weight_head.bias"])))
            weighted.append(float(w[0]) * emb)
        unified = np.mean(weighted, axis=0)
        x = np.concatenate([unified, features])
        h1 = np.maximum(params["hidden.weights"] @ x + params["hidden.bias"], 0.0)
        logits = params["output.weights"] @ h1 + params["output.bias"]
        exp = np.exp(logits - logits.max())
        probs = exp / exp.sum()
        assert got.p_real == pytest.approx(probs[0], abs=1e-10)
        assert got.p_fake == pytest.approx(probs[1], abs=1e-10)

    def test_float32_default_agrees_with_float64(self, tmp_path):
        # Only the LSTM computes in float32: its finals differ from float64
        # at float32 rounding (~1e-7), and so does everything downstream.
        params = tiny_params(seed=4, embedding_dim=4, lstm_hidden=4,
                             n_phrases=len(TOY_PHRASES), n_features=2)
        table = toy_table()
        single, double = toy_model(params), toy_model(params, dtype=np.float64)
        assert single.dtype == np.float32
        comments = toy_comments()
        a = single.unified_embedding(comments, table)
        b = double.unified_embedding(comments, table)
        assert a.dtype == np.float64
        assert np.allclose(a, b, rtol=0, atol=1e-6)
        features = np.array([0.25, 0.9])
        p = single.predict(comments, features, table)
        q = double.predict(comments, features, table)
        assert p.p_fake == pytest.approx(q.p_fake, abs=1e-6)
        # the file holds the float64 master weights, whatever the dtype
        single.save(tmp_path / "a.model")
        double.save(tmp_path / "b.model")
        assert (tmp_path / "a.model").read_bytes() == \
            (tmp_path / "b.model").read_bytes()

    def test_only_float32_or_float64_compute(self):
        params = tiny_params(n_phrases=len(TOY_PHRASES))
        for dtype in (np.float16, np.int64):
            with pytest.raises(ValueError, match="compute dtype"):
                toy_model(params, dtype=dtype)

    def test_feature_length_mismatch_rejected(self):
        params = tiny_params(n_phrases=len(TOY_PHRASES))
        video = make_video(comments=toy_comments())
        for features in (np.zeros(5), np.zeros((1, 2))):
            with pytest.raises(ValueError, match="expected 2 features"):
                toy_model(params).predict(video.comments, features, toy_table())


class TestPrediction:
    def test_probabilities_validated(self):
        with pytest.raises(ValueError):
            Prediction(0.5, 0.6)


def small_training_world(n_videos=60, seed=11):
    lexicons = lexical.LexiconSet.default()
    dataset = synthetic.make_synthetic_corpus(n_videos, seed=seed,
                                              lexicons=lexicons)
    table = synthetic.make_embedding_table(seed=seed, dimension=8,
                                           lexicons=lexicons)
    titles = synthetic.make_labeled_titles(80, seed=seed, lexicons=lexicons)
    scorer = lexical.train_title_scorer(titles, lexicons)
    return lexicons, dataset, table, scorer


class TestTrain:
    def test_separable_reduced_dims_heldout_macro_f(self):
        lexicons, dataset, table, scorer = small_training_world(100, seed=11)
        train_set, test_set = corpus.split_dataset(dataset, 0.3, seed=1)
        config = TrainingConfig(learning_rate=2e-3, epochs=12, batch_size=8,
                                seed=0)
        model = network.train(train_set, table, lexicons, scorer, config,
                              lstm_hidden=16)
        y_true = [r.label for r in test_set]
        y_pred = [evaluation.classify(
            model.predict_record(r, table, lexicons, scorer).p_fake)
            for r in test_set]
        report = evaluation.evaluate(y_true, y_pred)
        assert report.macro_f1 >= 0.95

    def test_same_seed_serializes_identically(self, tmp_path):
        lexicons, dataset, table, scorer = small_training_world(16, seed=3)
        config = TrainingConfig(epochs=2, batch_size=4, seed=5)
        paths = []
        for name in ("a", "b"):
            model = network.train(dataset, table, lexicons, scorer, config,
                                  lstm_hidden=8)
            path = tmp_path / f"{name}.model"
            model.save(path)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_zero_epochs_returns_initialization(self):
        lexicons, dataset, table, scorer = small_training_world(10, seed=4)
        config = TrainingConfig(epochs=0, seed=77)
        model = network.train(dataset, table, lexicons, scorer, config,
                              lstm_hidden=8)
        fresh = init_params(np.random.default_rng(77), table.dimension, 30,
                            8, 8)
        assert list(model.parameters()) == list(fresh)
        for name, array in model.parameters().items():
            assert np.array_equal(array, fresh[name]), name
        assert model.loss_history == []

    def test_parameters_stay_views_of_the_flat_vector(self):
        lexicons, dataset, table, scorer = small_training_world(12, seed=6)
        config = TrainingConfig(epochs=3, batch_size=4, seed=0)
        model = network.train(dataset, table, lexicons, scorer, config,
                              lstm_hidden=8)
        fresh = init_params(np.random.default_rng(0), table.dimension, 30,
                            8, 8)
        live = model.parameters()
        assert not np.array_equal(live["lstm.wx"], fresh["lstm.wx"])
        for name, array in live.items():
            assert np.shares_memory(array, model.flat.vector), name
        for name, array in model.head.parameters().items():
            assert array is live[name]
        assert np.array_equal(
            np.concatenate([a.ravel() for a in live.values()]),
            model.flat.vector)

    def test_single_class_rejected(self):
        lexicons, dataset, table, scorer = small_training_world(10, seed=4)
        fakes = make_dataset([r for r in dataset if r.label == "fake"])
        with pytest.raises(ValueError):
            network.train(fakes, table, lexicons, scorer,
                          TrainingConfig(epochs=1))

    def test_unlabeled_records_rejected(self):
        lexicons, dataset, table, scorer = small_training_world(10, seed=4)
        mixed = make_dataset(list(dataset.records)
                             + [make_video("u", "unlabeled")])
        with pytest.raises(ValueError):
            network.train(mixed, table, lexicons, scorer,
                          TrainingConfig(epochs=1))

    def test_loss_history_reported_per_epoch(self):
        lexicons, dataset, table, scorer = small_training_world(12, seed=6)
        config = TrainingConfig(epochs=3, batch_size=4, seed=0)
        model = network.train(dataset, table, lexicons, scorer, config,
                              lstm_hidden=8)
        assert len(model.loss_history) == 3
        assert all(np.isfinite(v) for v in model.loss_history)

    def test_non_finite_loss_aborts_naming_epoch_and_batch(self, monkeypatch):
        lexicons, dataset, table, scorer = small_training_world(12, seed=6)
        losses = iter([0.7, 0.6, 0.5, float("nan")])
        original = UCNetModel.batch_loss_and_gradients

        def lossy(self, videos):
            return next(losses), original(self, videos)[1]

        monkeypatch.setattr(UCNetModel, "batch_loss_and_gradients", lossy)
        config = TrainingConfig(epochs=2, batch_size=4, seed=0)
        with pytest.raises(ValueError, match="epoch 2, batch 1"):
            network.train(dataset, table, lexicons, scorer, config,
                          lstm_hidden=8)


class TestModelIO:
    def test_save_load_round_trip_predictions(self, tmp_path):
        lexicons, dataset, table, scorer = small_training_world(12, seed=8)
        config = TrainingConfig(epochs=1, batch_size=4, seed=2)
        model = network.train(dataset, table, lexicons, scorer, config,
                              lstm_hidden=8)
        path = tmp_path / "ucnet.model"
        model.save(path)
        again = UCNetModel.load(path)
        assert again.phrases == model.phrases == lexicons.fakeness_phrases
        for record in dataset:
            a = model.predict_record(record, table, lexicons, scorer)
            b = again.predict_record(record, table, lexicons, scorer)
            assert a == b

    def test_phrase_list_round_trips_in_order(self, tmp_path):
        phrases = ("so fake", "trucage évident", 'a "quoted" one', "#1 hoax",
                   "it's fake #lol", "back\\slash", "x", "fake  news", "嘘")
        params = init_params(np.random.default_rng(0), 4, len(phrases), 2,
                             lstm_hidden=3)
        path = tmp_path / "ucnet.model"
        UCNetModel(params, phrases, ("a", "b"), 4).save(path)
        assert UCNetModel.load(path).phrases == phrases

    def test_loaded_parameters_pass_gradient_check(self, phrases, tmp_path):
        rng = np.random.default_rng(3)
        params = init_params(rng, 8, len(phrases), 2, lstm_hidden=8)
        path = tmp_path / "ucnet.model"
        UCNetModel(params, phrases, ("a", "b"), 8).save(path)
        loaded = UCNetModel.load(path)
        model = UCNetModel(loaded.parameters(), loaded.phrases,
                           loaded.feature_names, loaded.embedding_dim,
                           loaded.config, dtype=np.float64)
        prepared = network.PreparedVideo(
            comment_ids=[np.arange(5 * k, 5 * (k + 1)) for k in range(3)],
            matrix=rng.normal(size=(15, 8)),
            fvs=(rng.random((3, 30)) < 0.2).astype(float),
            features=rng.normal(size=2), label=1)
        assert neural.gradient_check(model, [prepared], h=1e-5) < 1e-4

    @pytest.mark.parametrize("drop,kind", [("lstm.wx", "tensor"),
                                           ("output.bias", "tensor"),
                                           ("epochs", "meta key"),
                                           ("phrases", "meta key")])
    def test_missing_entry_is_named(self, phrases, tmp_path, drop, kind):
        params = init_params(np.random.default_rng(0), 4, len(phrases), 2,
                             lstm_hidden=3)
        path = tmp_path / "ucnet.model"
        UCNetModel(params, phrases, ("a", "b"), 4).save(path)
        tensors, meta = serialize.load_tensors(path)
        tensors.pop(drop, None)
        meta.pop(drop, None)
        serialize.save_tensors(path, tensors, meta)
        with pytest.raises(ValueError) as info:
            UCNetModel.load(path)
        assert f"{path}: no {kind} {drop!r}" in str(info.value)


    @pytest.mark.parametrize("tensor,value,entry", [
        ("lstm.wx", np.zeros((12, 5)), "'lstm.wx'"),
        ("lstm.bias", np.zeros(13), "'lstm.bias'"),
        ("hidden.bias", np.zeros(7), "'hidden.bias'"),
        ("output.weights", np.zeros((3, 4)), "'output.weights'"),
        ("weight_head.weights", np.zeros((1, 3)), "'weight_head.weights'"),
        ("epochs", "ten", "'epochs'"),
        ("learning_rate", "nan", "'learning_rate'"),
        ("embedding_dim", "4.0", "'embedding_dim'"),
        ("lstm_hidden", "4", "'lstm.wx'"),
        ("batch_size", "0", "batch_size must be positive"),
        ("max_tokens_per_comment", "-1",
         "max_tokens_per_comment must be positive, got -1"),
        ("max_comments_per_video", "0",
         "max_comments_per_video must be positive, got 0"),
        ("epochs", "-2", "epochs must be >= 0, got -2"),
        *(("phrases", value, "meta 'phrases' is not a non-empty list of "
           "non-empty strings") for value in (
               "[fake", '"fake"', '{"fake": 1}', "[]", '["fake", ""]',
               '["fake", 3]', '[["fake"]]', "null")),
        ("phrases", '["fake"]', "tensor 'weight_head.weights' has shape "
         "(1, 30), the model needs (1, 1)"),
    ])
    def test_bad_entry_is_named(self, phrases, tmp_path, tensor, value, entry):
        params = init_params(np.random.default_rng(0), 4, len(phrases), 2,
                             lstm_hidden=3)
        path = tmp_path / "ucnet.model"
        UCNetModel(params, phrases, ("a", "b"), 4).save(path)
        tensors, meta = serialize.load_tensors(path)
        (meta if isinstance(value, str) else tensors)[tensor] = value
        serialize.save_tensors(path, tensors, meta)
        with pytest.raises(ValueError) as info:
            UCNetModel.load(path)
        assert str(info.value).startswith(f"{path}: ")
        assert entry in str(info.value)


class TestLayout:
    # (embedding_dim, n_phrases, n_features, lstm_hidden, hidden_units)
    CONFIGS = [(8, 30, 8, 6, 4), (3, 2, 0, 1, 1)]

    @pytest.mark.parametrize("dims", CONFIGS)
    def test_layout_init_save_and_load_agree(self, tmp_path, dims):
        embedding_dim, n_phrases, n_features, lstm_hidden, _ = dims
        layout = list(network._layout(*dims).items())
        assert [name for name, _ in layout[:3]] == [
            "lstm.wx", "lstm.wh", "lstm.bias"]
        params = init_params(np.random.default_rng(1), *dims)
        assert [(n, a.shape) for n, a in params.items()] == layout
        phrases = tuple(f"phrase {i}" for i in range(n_phrases))
        names = tuple(f"f{i}" for i in range(n_features))
        model = UCNetModel(params, phrases, names, embedding_dim)
        assert model.lstm_hidden == lstm_hidden
        assert np.array_equal(
            model.flat.vector,
            np.concatenate([a.ravel() for a in params.values()]))
        path = tmp_path / "ucnet.model"
        model.save(path)
        tensors, _ = serialize.load_tensors(path)
        assert [(n, a.shape) for n, a in tensors.items()] == layout
        loaded = UCNetModel.load(path)
        assert loaded.phrases == phrases
        assert loaded.feature_names == names
        assert loaded.lstm_hidden == lstm_hidden
        assert [(n, a.shape) for n, a in loaded.parameters().items()] == layout
        assert loaded.flat.vector.tobytes() == model.flat.vector.tobytes()

    def test_init_draws_the_lstm_then_each_dense_layer(self):
        rng = np.random.default_rng(4)
        cell = neural.init_lstm(rng, 5, 3)
        head = neural.glorot_uniform(rng, 1, 7)
        hidden = neural.glorot_uniform(rng, 2, 3 + 4)
        output = neural.glorot_uniform(rng, 2, 2)
        params = init_params(np.random.default_rng(4), 5, 7, 4, 3, 2)
        for name, want in (("lstm.wx", cell.wx), ("lstm.wh", cell.wh),
                           ("lstm.bias", cell.bias),
                           ("weight_head.weights", head),
                           ("hidden.weights", hidden),
                           ("output.weights", output)):
            assert np.array_equal(params[name], want), name
        for name in ("weight_head.bias", "hidden.bias", "output.bias"):
            assert not params[name].any(), name

    REFUSALS = {
        "phrases": "tensor 'weight_head.weights' has shape (1, 5), "
                   "the model needs (1, 4)",
        "no-phrases": "a model needs at least one fakeness phrase",
        "features": "tensor 'hidden.weights' has shape (4, 5), "
                    "the model needs (4, 6)",
        "embedding_dim": "tensor 'lstm.wx' has shape (12, 4), "
                         "the model needs (12, 5)",
        "reordered": "tensor 3 is 'weight_head.bias', the model needs "
                     "'weight_head.weights'",
        "missing": "tensor 8 is None, the model needs 'output.bias'",
        "extra": "tensor 9 is 'spare', the model needs None",
        "non-finite": "parameter 'hidden.bias' is not finite",
        "overflow": "tensor 'lstm.wh' overflows float32",
    }

    @pytest.mark.parametrize("change,message", REFUSALS.items(),
                             ids=REFUSALS.keys())
    def test_constructor_refuses_a_mismatch(self, change, message):
        params = tiny_params(n_phrases=5)
        phrases, names, embedding_dim = TOY_PHRASES, ("f0", "f1"), 4
        if change == "phrases":
            phrases = phrases[:4]
        elif change == "no-phrases":
            phrases = ()
        elif change == "features":
            names += ("f2",)
        elif change == "embedding_dim":
            embedding_dim = 5
        elif change == "reordered":
            params["weight_head.weights"] = params.pop("weight_head.weights")
        elif change == "missing":
            del params["output.bias"]
        elif change == "extra":
            params["spare"] = np.zeros(1)
        elif change == "non-finite":
            params["hidden.bias"][1] = np.nan
        elif change == "overflow":
            params["lstm.wh"][0, 0] = 1e39
        with pytest.raises(ValueError) as info:
            UCNetModel(params, phrases, names, embedding_dim)
        assert str(info.value) == message


class TestExtractUnifiedEmbeddings:
    def test_single_video_matrix(self):
        params = tiny_params(n_phrases=len(TOY_PHRASES))
        model = toy_model(params)
        video = make_video("v", comments=toy_comments())
        matrix = extract_unified_embeddings(make_dataset([video]), toy_table(),
                                            model)
        assert matrix.shape == (1, 3)
        assert np.array_equal(
            matrix[0], model.unified_embedding(video.comments, toy_table()))

    def test_empty_dataset(self):
        params = tiny_params(n_phrases=len(TOY_PHRASES))
        matrix = extract_unified_embeddings(make_dataset([]), toy_table(),
                                            toy_model(params))
        assert matrix.shape == (0, 3)

    def test_rows_match_per_video_calls(self):
        params = tiny_params(n_phrases=len(TOY_PHRASES))
        table = toy_table()
        videos = [make_video(f"v{i}",
                             comments=[make_comment(f"c{i}", text)]
                             if text else ())
                  for i, text in enumerate(
                      ["fake video", "nice song", "", "the hoax", "staged ok"])]
        model = toy_model(params)
        matrix = extract_unified_embeddings(make_dataset(videos), table, model)
        for row, video in zip(matrix, videos):
            assert np.array_equal(
                row, model.unified_embedding(video.comments, table))


class TestGradientCheckFullModel:
    def test_reduced_network_passes(self, phrases):
        rng = np.random.default_rng(3)
        params = init_params(rng, 8, len(phrases), 2, lstm_hidden=8)
        model = UCNetModel(params, phrases, ("a", "b"), 8, dtype=np.float64)
        prepared = network.PreparedVideo(
            comment_ids=[np.arange(5 * k, 5 * (k + 1)) for k in range(3)],
            matrix=rng.normal(size=(15, 8)),
            fvs=(rng.random((3, 30)) < 0.2).astype(float),
            features=rng.normal(size=2), label=1)
        assert neural.gradient_check(model, [prepared], h=1e-5) < 1e-4

    def test_video_without_comments_still_differentiable(self, phrases):
        rng = np.random.default_rng(5)
        params = init_params(rng, 8, len(phrases), 2, lstm_hidden=8)
        model = UCNetModel(params, phrases, ("a", "b"), 8, dtype=np.float64)
        prepared = network.PreparedVideo(
            comment_ids=[], matrix=np.zeros((0, 8)), fvs=np.zeros((0, 30)),
            features=rng.normal(size=2), label=0)
        assert neural.gradient_check(model, [prepared], h=1e-5) < 1e-4

    @staticmethod
    def ragged_batch(phrases, seed, shapes):
        """A small float64 model and one labelled video per (comment
        lengths, label) pair, all reading one 12-token matrix."""
        rng = np.random.default_rng(seed)
        params = init_params(rng, 8, len(phrases), 2, lstm_hidden=8)
        model = UCNetModel(params, phrases, ("a", "b"), 8, dtype=np.float64)
        matrix = rng.normal(size=(12, 8))
        videos = [network.PreparedVideo(
            comment_ids=[rng.integers(0, 12, size=t) for t in lengths],
            matrix=matrix,
            fvs=(rng.random((len(lengths), 30)) < 0.3).astype(float),
            features=rng.normal(size=2), label=label)
            for lengths, label in shapes]
        return model, videos

    def test_ragged_batch_of_three_videos_passes(self, phrases):
        # 3, 0 and 2 comments of unequal lengths: the per-video segments of
        # the pooling and of its gradient are exercised.
        model, batch = self.ragged_batch(
            phrases, 7, (((4, 1, 6), 1), ((), 0), ((2, 5), 1)))
        assert neural.gradient_check(model, batch, h=1e-5) < 1e-4

    def test_batch_gradients_average_per_video(self, phrases):
        model, videos = self.ragged_batch(
            phrases, 8, (((3, 2), 0), ((), 1), ((5,), 1)))
        loss, grads = copied(model.batch_loss_and_gradients(videos))
        singles = [copied(model.batch_loss_and_gradients([v])) for v in videos]
        assert loss == pytest.approx(np.mean([s[0] for s in singles]))
        for key in grads:
            mean_grad = np.mean([s[1][key] for s in singles], axis=0)
            assert np.allclose(grads[key], mean_grad, rtol=0, atol=1e-12)

    def test_unlabelled_video_rejected(self, phrases):
        params = init_params(np.random.default_rng(0), 8, len(phrases), 2,
                             lstm_hidden=8)
        model = UCNetModel(params, phrases, ("a", "b"), 8)
        prepared = network.PreparedVideo(
            comment_ids=[], matrix=np.zeros((0, 8)), fvs=np.zeros((0, 30)),
            features=np.zeros(2))
        with pytest.raises(ValueError, match="label"):
            model.batch_loss_and_gradients([prepared])
