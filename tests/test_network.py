import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
import unicodedata
import weakref
from pathlib import Path

import numpy as np
import pytest

from ucnet import (corpus, evaluation, lexical, network, neural, serialize,
                   synthetic)
from ucnet.embeddings import EmbeddingTable
from ucnet.network import (Prediction, TrainingConfig, UCNetModel,
                           comment_weight, extract_unified_embeddings,
                           fakeness_vector, init_params)

from conftest import (assert_kernel_pin, lstm_cell, lstm_sequence,
                      make_comment, make_dataset, make_video)
from test_neural import copied, mlp_reference


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

    def test_two_phrase_lists_in_one_process(self, phrases):
        other = ("Caf\u0065\u0301", "STRASSE", "fake")
        comments = ("so fake", "caf\u00e9 at the Stra\u00dfe", "hoax!", "")
        for _ in range(2):  # alternate, so each list is folded from a cache
            for comment in comments:
                for phrase_list in (phrases, other):
                    assert np.array_equal(fakeness_vector(comment, phrase_list),
                                          uncached_fakeness_vector(comment,
                                                                   phrase_list))

    def test_non_nfc_and_mixed_case_phrases(self):
        phrases = ["Caf\u0065\u0301", "\u212bngstr\u00f6m", "StRaSSe", "HoAx"]
        for comment in ("CAF\u00c9 \u00c5NGSTR\u00d6M", "die stra\u00dfe",
                        "cafe\u0301 hoax", "angstrom"):
            fv = fakeness_vector(comment, phrases)
            assert np.array_equal(fv, uncached_fakeness_vector(comment, phrases))
        assert fakeness_vector("CAF\u00c9 \u00c5NGSTR\u00d6M",
                               phrases).tolist() == [1.0, 1.0, 0.0, 0.0]

    def test_list_and_tuple_arguments_agree(self, phrases):
        as_list = list(phrases)
        for comment in ("This looks almost real", "so FAKE and staged"):
            a = fakeness_vector(comment, as_list)
            assert a.tobytes() == fakeness_vector(comment, tuple(phrases)).tobytes()
            assert np.array_equal(a, uncached_fakeness_vector(comment, phrases))
        # A list changed between calls is folded anew.
        as_list[phrases.index("hoax")] = "staged"
        fv = fakeness_vector("so FAKE and staged", as_list)
        assert np.array_equal(fv, uncached_fakeness_vector("so FAKE and staged",
                                                           as_list))


def uncached_fakeness_vector(comment, phrases):
    """Every phrase folded on every call: the definition, with no cache."""
    def fold(text):
        return unicodedata.normalize("NFC", text).casefold()
    return np.array([1.0 if fold(p) in fold(comment) else 0.0 for p in phrases])


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

    def test_comment_cap_orders_mixed_offsets_by_instant(self):
        # As raw strings "T09:00:00+05:00" is the newest stamp; as an instant
        # (04:00 UTC) it is the oldest. c and e name the same instant, so
        # the id breaks the tie.
        stamps = {"a": "2015-01-01T09:00:00+05:00",
                  "b": "2015-01-01T06:00:00Z",
                  "c": "2015-01-01T05:00:00",
                  "d": "2015-01-01T00:30:00-05:00",
                  "e": "2015-01-01T00:00:00-05:00"}
        texts = ("fake video", "nice song", "the hoax ok", "so fake",
                 "staged ok")
        comments = [make_comment(cid, text, published=stamp)
                    for (cid, stamp), text in zip(stamps.items(), texts)]
        kept = network._select_comments(comments, 3)
        assert [c.id for c in kept] == ["b", "d", "e"]
        params = tiny_params(n_phrases=len(TOY_PHRASES))
        table = toy_table()
        capped = toy_model(params, max_comments=3).unified_embedding(comments,
                                                                     table)
        assert np.array_equal(capped,
                              toy_model(params).unified_embedding(kept, table))


def invariance_mismatches(lstm_hidden=300, n_videos=12):
    """How many videos of an ``n_videos`` synthetic corpus (seed 3) get
    other unified-embedding bits from a permutation of their comments and
    from the list doubled, at LSTM width ``lstm_hidden`` (dimension 16,
    init seed 0, float32)."""
    lexicons = lexical.LexiconSet.default()
    dataset = synthetic.make_synthetic_corpus(n_videos, seed=3,
                                              lexicons=lexicons)
    table = synthetic.make_embedding_table(seed=3, dimension=16,
                                           lexicons=lexicons)
    phrases = lexicons.fakeness_phrases
    model = UCNetModel(init_params(np.random.default_rng(0), 16, len(phrases),
                                   2, lstm_hidden), phrases, ("f0", "f1"), 16)
    rng = np.random.default_rng(3)
    permuted = doubled = 0
    for record in dataset:
        comments = list(record.comments)
        base = model.unified_embedding(comments, table).tobytes()
        shuffled = [comments[i] for i in rng.permutation(len(comments))]
        permuted += model.unified_embedding(shuffled, table).tobytes() != base
        doubled += model.unified_embedding(comments + comments,
                                           table).tobytes() != base
    return [permuted, doubled]


class TestCanonicalInput:
    """``prepare_video`` sends the LSTM a video's distinct comments in one
    order, so the invariances hold whatever the BLAS kernel."""

    def test_invariances_hold_on_the_host_and_haswell_kernels(self):
        # The AVX2 kernels give a GEMM row bits that depend on its batch
        # mates; forced here for one subprocess. At width 1, ``sum`` over a
        # padded comment axis would go pairwise.
        assert invariance_mismatches() == invariance_mismatches(1) == [0, 0]
        paths = [str(Path(network.__file__).parents[1]),
                 str(Path(__file__).parent)]
        env = dict(os.environ, OPENBLAS_CORETYPE="Haswell",
                   PYTHONPATH=os.pathsep.join(paths))
        code = ("import json, conftest, test_network; print(json.dumps("
                "[conftest.openblas_kernel(), "
                "test_network.invariance_mismatches()]))")
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        kernel, mismatches = json.loads(done.stdout.splitlines()[-1])
        if kernel != "Haswell":
            pytest.skip(f"OPENBLAS_CORETYPE=Haswell ran the {kernel} kernel")
        assert mismatches == [0, 0]

    def test_the_lstm_input_depends_only_on_the_comment_multiset(
            self, monkeypatch):
        calls = []
        original = neural.lstm_forward_batch

        def spy(cell, xs, lengths, matrix, **kwargs):
            calls.append((xs.shape, xs.tobytes(), lengths.tobytes()))
            return original(cell, xs, lengths, matrix, **kwargs)

        monkeypatch.setattr(neural, "lstm_forward_batch", spy)
        model = toy_model(tiny_params(n_phrases=len(TOY_PHRASES)))
        comments = toy_comments() + [make_comment("c4", "nice song"),
                                     make_comment("c5", "zzz")]
        for variant in (comments, comments[::-1], comments + comments):
            model.unified_embedding(variant, toy_table())
        assert len(calls) == 3 and calls[0] == calls[1] == calls[2]

    def test_equal_comments_merge_into_one_with_a_count(self):
        # "so fake" and "fake" give the same ids ("so" is out of the
        # table) but other fakeness vectors, so they stay apart.
        texts = ["fake video", "so fake", "FAKE video", "fake", "fake video"]
        prepared = network.prepare_video(
            [make_comment(f"c{i}", t) for i, t in enumerate(texts)],
            np.zeros(2), toy_table(), TOY_PHRASES, 200, 100)
        assert sorted(prepared.counts.tolist()) == [1, 1, 3]
        assert prepared.counts.dtype == np.int64
        assert len(prepared.comment_ids) == len(prepared.fvs) == 3
        pairs = {(ids.tobytes(), fv.tobytes()) for ids, fv
                 in zip(prepared.comment_ids, prepared.fvs)}
        assert len(pairs) == 3

    def test_counts_stand_for_the_repeated_comments(self, phrases):
        # A counted video gives the loss and gradients of its comments
        # listed out, up to rounding.
        rng = np.random.default_rng(17)
        params = init_params(rng, 8, len(phrases), 2, lstm_hidden=8)
        model = UCNetModel(params, phrases, ("a", "b"), 8, dtype=np.float64)
        matrix = rng.normal(size=(12, 8))
        ids = [rng.integers(0, 12, size=t) for t in (4, 1, 6)]
        fvs = (rng.random((3, len(phrases))) < 0.3).astype(float)
        counts = np.array([3, 1, 2])
        counted = network.PreparedVideo(ids, matrix, fvs, counts,
                                        rng.normal(size=2), 1)
        listed = network.PreparedVideo(
            [ids[i] for i in np.repeat(range(3), counts)], matrix,
            np.repeat(fvs, counts, axis=0), np.ones(6, np.int64),
            counted.features, 1)
        other = network.PreparedVideo(ids[:2], matrix, fvs[:2],
                                      np.array([1, 4]), rng.normal(size=2), 0)
        loss, grads = copied(model.batch_loss_and_gradients([counted, other]))
        want_loss, want = copied(model.batch_loss_and_gradients(
            [listed, dataclasses.replace(
                other, comment_ids=[ids[0], *[ids[1]] * 4],
                fvs=fvs[[0, 1, 1, 1, 1]], counts=np.ones(5, np.int64))]))
        assert loss == pytest.approx(want_loss, rel=1e-12)
        for name in grads:
            assert np.allclose(grads[name], want[name], rtol=1e-10,
                               atol=1e-14), name
        assert neural.gradient_check(model, [counted, other], h=1e-5) < 1e-4


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

    @pytest.mark.parametrize("p_real, p_fake", [
        (math.nan, math.nan), (math.nan, 0.5), (math.inf, -math.inf)])
    def test_non_finite_probabilities_refused(self, p_real, p_fake):
        # NaN fails the sum's comparison too.
        with pytest.raises(ValueError, match="must sum to 1"):
            Prediction(p_real, p_fake)


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

        def lossy(self, videos, workspace=None):
            return next(losses), original(self, videos, workspace)[1]

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
            # A dead ReLU layer can hide the LSTM from the prediction.
            assert model.unified_embedding(record.comments, table).tobytes() \
                == again.unified_embedding(record.comments, table).tobytes()

    # SHA-256 of the trained model's file, per OpenBLAS kernel: training
    # runs several videos through one GEMM, whose rows' bits depend on the
    # kernel. OPENBLAS_CORETYPE=Zen reads back as Haswell.
    TRAINED_MODEL = {
        "SkylakeX": ("176c4f88e508d16851deaf4421915201"
                     "70180eb4dd71fbcf139a1e95c486f7f9"),
        "Haswell": ("82204041cca6f5e949e667600c999b35"
                    "9b4476d0ff879565c73eaa70766a358e"),
        "Sandybridge": ("cd3b7d290029022181cc750a54854d94"
                        "c1387a6bc71a4b9db5985d6ac1eb757b"),
    }

    def test_trained_model_bytes(self, tmp_path):
        lexicons, dataset, table, scorer = small_training_world(16, seed=3)
        files = []
        for run in ("first", "second"):
            model = network.train(dataset, table, lexicons, scorer,
                                  TrainingConfig(epochs=2, batch_size=4,
                                                 seed=5),
                                  lstm_hidden=8)
            model.save(tmp_path / run)
            files.append((tmp_path / run).read_bytes())
        assert files[0] == files[1]
        assert_kernel_pin(self.TRAINED_MODEL,
                          hashlib.sha256(files[0]).hexdigest())

    # Digests of the model file, its p_fake and its unified embeddings, per
    # OpenBLAS kernel.
    COMMENT_LESS = {
        "SkylakeX": ["26e6926c6a1f7e654ab7df5829a92680",
                     "7df387105ffea7412b106a2b026ae141",
                     "d7b147d85bdc9924f3c4c09cd7ac2972"],
        "Haswell": ["80bb05ea951eabd1522dbf92c655aee5",
                    "d7811a75f467250734d44c4d72144e9e",
                    "9d992069e4ef344a1ee106762a265bf9"],
        "Sandybridge": ["3ce3adc639229fbad10c70df28d13404",
                        "90d121c03c6de98eaca07cd2045fb544",
                        "1b095e0630423b918dba11c3ea44686e"],
    }

    def test_comment_less_batches_train_to_pinned_bytes(self, monkeypatch,
                                                        tmp_path):
        # 15 of 24 videos lose their comments, so some shuffled mini-batches
        # hold none.
        lexicons, dataset, table, scorer = small_training_world(24, seed=5)
        dataset = make_dataset(
            dataclasses.replace(r, comments=()) if i % 8 < 5 else r
            for i, r in enumerate(dataset))
        calls = TestTrainingBuffers.spy_on_lstm(monkeypatch)
        runs = []
        for run in ("first", "second"):
            model = network.train(dataset, table, lexicons, scorer,
                                  TrainingConfig(epochs=3, batch_size=4,
                                                 seed=1),
                                  lstm_hidden=6)
            model.save(tmp_path / run)
            p_fake = np.array([model.predict_record(r, table, lexicons, scorer
                                                    ).p_fake for r in dataset])
            embeddings = extract_unified_embeddings(dataset, table, model)
            runs.append([(tmp_path / run).read_bytes(), p_fake.tobytes(),
                         embeddings.tobytes()])
        assert any(cache.order.size == 0 for _, cache in calls)
        assert not embeddings[0].any() and embeddings[5].any()
        assert runs[0] == runs[1]
        assert_kernel_pin(self.COMMENT_LESS,
                          [hashlib.sha256(data).hexdigest()[:32]
                           for data in runs[0]])

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
            counts=np.ones(3, np.int64), features=rng.normal(size=2),
            label=1)
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

    @pytest.mark.parametrize("change,message", [
        ("reordered", "tensor 1 is 'lstm.bias', the model needs 'lstm.wh'"),
        ("extra", "tensor 9 is 'spare', the model needs None")])
    def test_a_file_out_of_layout_is_refused(self, phrases, tmp_path, change,
                                             message):
        # The payload becomes the parameter vector as it is, so the file's
        # tensors must be the layout's, in its order.
        path = tmp_path / "ucnet.model"
        UCNetModel(tiny_params(n_phrases=len(phrases)), phrases, ("f0", "f1"),
                   4).save(path)
        tensors, meta = serialize.load_tensors(path)
        tensors = dict(tensors)
        if change == "reordered":
            tensors["lstm.wh"] = tensors.pop("lstm.wh")
        else:
            tensors["spare"] = np.zeros(1)
        serialize.save_tensors(path, tensors, meta)
        with pytest.raises(ValueError) as info:
            UCNetModel.load(path)
        assert str(info.value) == f"{path}: {message}"


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


def pooled_means(finals, weights, batch):
    """Each video's unified embedding by a Python loop: w * f * c per
    distinct comment, added in batch order from 0.0, over the video's
    kept-comment total (1 for a video without comments)."""
    rows = iter(zip(weights[:, 0].tolist(), finals.tolist(),
                    batch.counts.tolist()))
    means = []
    for distinct, total in zip(batch.distinct, batch.totals):
        sums = [0.0] * finals.shape[1]
        for _ in range(distinct):
            w, f, c = next(rows)
            sums = [s + w * x * c for s, x in zip(sums, f)]
        means.append([s / max(total, 1) for s in sums])
    return np.array(means).reshape(len(means), finals.shape[1])


class TestOrderedPooling:
    """``_forward_batch`` pools each video by one ordered sum, the same
    additions in the same order as a Python loop."""

    @staticmethod
    def batch(phrases, lstm_hidden, monkeypatch, final=-0.0):
        """A model and the collated batch of four videos with 3, 0, 20 and
        1 distinct comments, counted 1 to 3 times; the LSTM's final state
        of comments 5 and 15 (the one of the last video) is ``final``."""
        rng = np.random.default_rng(21)
        model = UCNetModel(init_params(rng, 8, len(phrases), 2, lstm_hidden),
                           phrases, ("a", "b"), 8)
        matrix = rng.normal(size=(12, 8))
        videos = [network.PreparedVideo(
            comment_ids=[rng.integers(0, 12, size=t)
                         for t in rng.integers(1, 7, size=n)],
            matrix=matrix,
            fvs=(rng.random((n, len(phrases))) < 0.3).astype(float),
            counts=rng.integers(1, 4, size=n), features=rng.normal(size=2),
            label=n % 2) for n in (3, 0, 20, 1)]
        original = neural.lstm_forward_batch

        def spy(*args, **kwargs):
            finals, cache = original(*args, **kwargs)
            finals[[5, 23]] = final
            return finals, cache

        monkeypatch.setattr(neural, "lstm_forward_batch", spy)
        return model, network._collate(videos)

    @pytest.mark.parametrize("lstm_hidden", [1, 2, 6])
    def test_forward_batch_pools_in_order(self, phrases, monkeypatch,
                                          lstm_hidden):
        # At hidden 1, ``sum`` over the padded comment axis goes pairwise
        # for the video of 20 and gives other bits.
        model, batch = self.batch(phrases, lstm_hidden, monkeypatch)
        x, (_, _, finals, weights) = network._forward_batch(model, batch)
        assert not finals[23].any() and np.signbit(finals[23]).all()
        want = pooled_means(finals, weights, batch)
        assert x[:, :lstm_hidden].tobytes() == want.tobytes()
        # The sum starts from +0.0, so one -0.0 row sums to +0.0.
        assert x[:, :lstm_hidden][[1, 3]].tobytes() == \
            np.zeros((2, lstm_hidden)).tobytes()
        alone = network._pool(-np.zeros((1, lstm_hidden)), np.array([1]))
        assert alone.tobytes() == np.zeros((1, lstm_hidden)).tobytes()

    def test_non_finite_pooled_row_refused(self, phrases, monkeypatch):
        model, batch = self.batch(phrases, 2, monkeypatch, final=np.nan)
        with pytest.raises(ValueError, match="not finite"):
            network._forward_batch(model, batch)

    def test_pooling_holds_no_padded_array(self):
        # 15 videos of six distinct comments and one of 200, at hidden 300:
        # padding every video to 200 rows would hold 7.7 MB for 290 rows.
        distinct = np.array([6] * 15 + [200])
        rows = np.random.default_rng(31).normal(size=(distinct.sum(), 300))
        rows[::7] = -0.0
        tracemalloc.start()
        try:
            pooled = network._pool(rows, distinct)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        want = np.zeros_like(pooled)
        for video, row in zip(np.repeat(np.arange(distinct.size), distinct),
                              rows):
            want[video] += row
        assert pooled.tobytes() == want.tobytes()
        # the rows gathered rank-major, the sums in both video orders and
        # the gather's indices
        assert peak <= rows.nbytes + 2 * pooled.nbytes + 64 * 1024, peak


class TestTrainingBuffers:
    """``train`` packs every batch's LSTM cache into one workspace, reserved
    once for the run and passed with each batch; the model holds none."""

    @staticmethod
    def spy_on_lstm(monkeypatch):
        """Record the workspace and cache of every LSTM forward pass."""
        calls = []
        original = neural.lstm_forward_batch

        def spy(*args, **kwargs):
            finals, cache = original(*args, **kwargs)
            calls.append((kwargs.get("workspace"), cache))
            return finals, cache

        monkeypatch.setattr(neural, "lstm_forward_batch", spy)
        return calls

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_reused_buffers_give_the_same_bytes(self, phrases, monkeypatch,
                                                dtype):
        reference, videos = TestGradientCheckFullModel.ragged_batch(
            phrases, 9, (((4, 1, 6), 1), ((2,), 0), ((7, 5, 3, 6), 1),
                         ((3, 3), 0), ((), 1)))
        model = UCNetModel(reference.parameters(), phrases, ("a", "b"), 8,
                           dtype=dtype)
        small, large = videos[:2], videos[1:]
        fresh = copied(model.batch_loss_and_gradients(small))
        calls = self.spy_on_lstm(monkeypatch)
        workspace = model._workspace_for(videos, len(large))
        first = copied(model.batch_loss_and_gradients(small, workspace))
        model.batch_loss_and_gradients(large, workspace)
        again = copied(model.batch_loss_and_gradients(small, workspace))
        assert [w is workspace for w, _ in calls] == [True] * 3
        assert all(np.shares_memory(cache.gates, workspace)
                   for _, cache in calls)
        for loss, grads in (first, again):
            assert loss == fresh[0]
            for name, grad in grads.items():
                assert grad.tobytes() == fresh[1][name].tobytes(), name

    def test_training_holds_no_initial_parameter_copy(self, monkeypatch):
        # The model packs the drawn tensors into its flat vector, so by the
        # first step none of init_params' arrays may still be alive.
        drawn, dead = [], []
        original_init, original_lstm = network.init_params, \
            neural.lstm_forward_batch

        def init_spy(*args, **kwargs):
            params = original_init(*args, **kwargs)
            drawn.extend(weakref.ref(array) for array in params.values())
            return params

        def lstm_spy(*args, **kwargs):
            if not dead:
                dead.append([ref() is None for ref in drawn])
            return original_lstm(*args, **kwargs)

        monkeypatch.setattr(network, "init_params", init_spy)
        monkeypatch.setattr(neural, "lstm_forward_batch", lstm_spy)
        lexicons, dataset, table, scorer = small_training_world(12, seed=8)
        network.train(dataset, table, lexicons, scorer,
                      TrainingConfig(epochs=1, batch_size=4, seed=2),
                      lstm_hidden=8)
        assert len(drawn) == 9 and dead == [[True] * 9]

    def test_trained_model_keeps_no_buffers(self, monkeypatch, tmp_path):
        lexicons, dataset, table, scorer = small_training_world(12, seed=8)
        calls = self.spy_on_lstm(monkeypatch)
        model = network.train(dataset, table, lexicons, scorer,
                              TrainingConfig(epochs=2, batch_size=4, seed=2),
                              lstm_hidden=8)
        assert calls and calls[0][0] is not None
        assert all(w is calls[0][0] for w, _ in calls)
        assert not any(isinstance(value, np.ndarray)
                       for value in vars(model).values())
        model.save(tmp_path / "ucnet.model")
        again = UCNetModel.load(tmp_path / "ucnet.model")
        calls.clear()
        for record in dataset:
            a = model.predict_record(record, table, lexicons, scorer)
            b = again.predict_record(record, table, lexicons, scorer)
            assert np.array([a.p_real, a.p_fake]).tobytes() == \
                np.array([b.p_real, b.p_fake]).tobytes()
            assert model.unified_embedding(record.comments, table).tobytes() \
                == again.unified_embedding(record.comments, table).tobytes()
        assert calls and all(w is None for w, _ in calls)

    def test_a_training_step_holds_one_float32_wh(self, phrases):
        # Four videos, 169 cells over 16-d inputs at hidden 300. The forward
        # pass stages wh.T and frees the input projection first; BPTT casts
        # wh and drops it before the weight gradients. So at most one
        # float32 (4 * hidden, hidden) array is alive at a time: that, or
        # wh's float32 gradient.
        rng = np.random.default_rng(32)
        hidden, dim = 300, 16
        matrix = rng.normal(size=(40, dim))
        videos = [network.PreparedVideo(
            comment_ids=[rng.integers(0, 40, size=t)
                         for t in rng.integers(1, 12, size=k)],
            matrix=matrix,
            fvs=(rng.random((k, len(phrases))) < 0.3).astype(float),
            counts=np.ones(k, np.int64), features=rng.normal(size=2),
            label=i % 2) for i, k in enumerate((6, 8, 3, 10))]
        model = UCNetModel(init_params(rng, dim, len(phrases), 2,
                                       lstm_hidden=hidden),
                           phrases, ("a", "b"), dim)
        workspace = model._workspace_for(videos, len(videos))
        assert model.flat.gradient.size
        tracemalloc.start()
        try:
            model.batch_loss_and_gradients(videos, workspace)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        wh = 4 * hidden * hidden * np.dtype(np.float32).itemsize
        # Beside it: the batch's (27, hidden) states and gradients, wx's
        # float32 gradient and the collated batch, about 0.3 MB.
        assert peak <= wh + 512 * 1024, peak


class TestInference:
    """Inference runs the LSTM without a workspace, so it keeps no BPTT
    cache; it must still give the training path's bits."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_inference_forward_equals_the_cached_path(self, phrases, dtype,
                                                      monkeypatch):
        # 3, 0, 4 and 1 comments; the second video has none, so alone it
        # runs the LSTM over zero cells on both paths
        reference, videos = TestGradientCheckFullModel.ragged_batch(
            phrases, 17, (((4, 1, 6), 1), ((), 0), ((3, 3, 3, 3), 1),
                          ((7,), 0)))
        model = UCNetModel(reference.parameters(), phrases, ("a", "b"), 8,
                           dtype=dtype)
        calls = TestTrainingBuffers.spy_on_lstm(monkeypatch)
        for chosen, cells in ((videos, 30), (videos[1:2], 0)):
            calls.clear()
            batch = network._collate(chosen)
            x, cache = network._forward_batch(model, batch)
            want, want_cache = network._forward_batch(
                model, batch, model._workspace_for(chosen, len(chosen)))
            assert [lstm is None for _, lstm in calls] == [True, False]
            assert cache[1] is None
            assert want_cache[1].gates.shape == (4, cells, model.lstm_hidden)
            assert x.tobytes() == want.tobytes()
            for got, expected in zip(cache[2:], want_cache[2:]):
                assert got.tobytes() == expected.tobytes()

    def test_predict_after_a_training_step_reads_the_new_weights(self,
                                                                 tmp_path):
        # The unified embedding is compared too: it reads the LSTM, which
        # this small model's classifier head may ignore (dead ReLUs).
        lexicons, dataset, table, scorer = small_training_world(12, seed=8)
        model = network.train(dataset, table, lexicons, scorer,
                              TrainingConfig(epochs=1, batch_size=4, seed=2),
                              lstm_hidden=8)
        record = dataset.records[0]

        def outputs(m):
            p = m.predict_record(record, table, lexicons, scorer)
            return (np.array([p.p_real, p.p_fake]).tobytes(),
                    m.unified_embedding(record.comments, table).tobytes())

        before = outputs(model)
        features = network._select_features(record, lexicons, scorer,
                                            model.feature_names)
        video = model.prepare(record.comments, features, table,
                              int(record.label == "fake"))
        state = neural.AdamState(model.flat.vector, 0.05)
        model.batch_loss_and_gradients([video])
        neural.adam_step(model.flat.vector, model.flat.gradient, state)
        after = outputs(model)
        model.save(tmp_path / "ucnet.model")
        assert after == outputs(UCNetModel.load(tmp_path / "ucnet.model"))
        assert after[1] != before[1]

    def test_a_loaded_model_holds_its_parameters_once(self, tmp_path):
        # No gradient vector until a backward pass: after loading and
        # predicting, little beyond the parameters themselves stays traced.
        lexicons, dataset, table, scorer = small_training_world(4, seed=8)
        params = init_params(np.random.default_rng(9), table.dimension,
                             len(lexicons.fakeness_phrases), 2,
                             lstm_hidden=300)
        UCNetModel(params, lexicons.fakeness_phrases,
                   lexical.FEATURE_NAMES[:2], table.dimension
                   ).save(tmp_path / "ucnet.model")
        tracemalloc.start()
        try:
            model = UCNetModel.load(tmp_path / "ucnet.model")
            model.predict_record(dataset.records[0], table, lexicons, scorer)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held < 1.5 * model.flat.vector.nbytes

    def test_load_reads_the_payload_into_the_model_vector(self, phrases,
                                                          tmp_path):
        # At the long-threads shape (hidden 300, dimension 300), load holds
        # the payload once: beside it only the float32-range check's np.abs
        # of one LSTM tensor and the header's parse (the slack).
        params = init_params(np.random.default_rng(28), 300, len(phrases), 8,
                             lstm_hidden=300)
        UCNetModel(params, phrases, lexical.FEATURE_NAMES, 300).save(
            tmp_path / "ucnet.model")
        payload = sum(array.nbytes for array in params.values())
        tracemalloc.start()
        try:
            model = UCNetModel.load(tmp_path / "ucnet.model")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert model.flat.vector.tobytes() == np.concatenate(
            [a.ravel() for a in params.values()]).tobytes()
        assert peak <= payload + params["lstm.wh"].nbytes + 64 * 1024, peak

    def test_inference_holds_no_cast_copy_of_wh(self, phrases):
        # 200 comments of 1-59 tokens over 100 distinct words at hidden 300.
        # A pass holds float32 wx only for the input projection, and then
        # the staged wh.T; neither is there beside a float32 wh.
        rng = np.random.default_rng(28)
        hidden, dim, n_words, n_comments = 300, 300, 100, 200
        words = [f"w{i}" for i in range(n_words)]
        table = EmbeddingTable(dimension=dim, vectors={
            w: rng.normal(size=dim) for w in words})
        comments = [make_comment(f"c{i}", " ".join(rng.choice(words, size=t)))
                    for i, t in enumerate(rng.integers(1, 60, n_comments))]
        model = UCNetModel(
            init_params(rng, dim, len(phrases), 8, lstm_hidden=hidden),
            phrases, lexical.FEATURE_NAMES, dim)
        want = model.unified_embedding(comments, table)
        tracemalloc.start()
        try:
            got = model.unified_embedding(comments, table)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got.tobytes() == want.tobytes()
        f32 = np.dtype(np.float32).itemsize
        wx = 4 * hidden * dim * f32
        wh_t = 4 * hidden * hidden * f32
        projected = 4 * n_words * hidden * f32
        # gates (4 planes), tanh_c and the scratch (4 planes) of step 0's
        # rows, one per comment
        steps = 9 * n_comments * hidden * f32
        # h, c, the gathered inputs and the collated batch
        slack = 512 * 1024
        assert peak <= wx + wh_t + projected + steps + slack, peak

    def test_predict_memory_stays_below_one_cache_plane(self):
        # A long thread at hidden 300: 200 comments, a third of them at the
        # 100-token cap. A BPTT cache holds six (cells, hidden) planes.
        rng = np.random.default_rng(61)
        words = [f"w{i}" for i in range(200)]
        table = EmbeddingTable(dimension=16, vectors={
            w: rng.normal(size=16) for w in words})
        lengths = np.where(rng.random(200) < 1 / 3, 100,
                           rng.integers(1, 40, size=200))
        comments = [make_comment(f"c{i}", " ".join(rng.choice(words, size=t)))
                    for i, t in enumerate(lengths)]
        model = toy_model(init_params(rng, 16, len(TOY_PHRASES), 2,
                                      lstm_hidden=300))
        plane = int(lengths.sum()) * 300 * np.dtype(np.float32).itemsize
        tracemalloc.start()
        try:
            model.predict(comments, np.zeros(2), table)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < plane


class TestGradientCheckFullModel:
    def test_reduced_network_passes(self, phrases):
        rng = np.random.default_rng(3)
        params = init_params(rng, 8, len(phrases), 2, lstm_hidden=8)
        model = UCNetModel(params, phrases, ("a", "b"), 8, dtype=np.float64)
        prepared = network.PreparedVideo(
            comment_ids=[np.arange(5 * k, 5 * (k + 1)) for k in range(3)],
            matrix=rng.normal(size=(15, 8)),
            fvs=(rng.random((3, 30)) < 0.2).astype(float),
            counts=np.ones(3, np.int64), features=rng.normal(size=2),
            label=1)
        assert neural.gradient_check(model, [prepared], h=1e-5) < 1e-4

    def test_video_without_comments_still_differentiable(self, phrases):
        rng = np.random.default_rng(5)
        params = init_params(rng, 8, len(phrases), 2, lstm_hidden=8)
        model = UCNetModel(params, phrases, ("a", "b"), 8, dtype=np.float64)
        prepared = network.PreparedVideo(
            comment_ids=[], matrix=np.zeros((0, 8)), fvs=np.zeros((0, 30)),
            counts=np.zeros(0, np.int64), features=rng.normal(size=2),
            label=0)
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
            counts=np.ones(len(lengths), np.int64),
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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_a_batch_without_comments_writes_zero_gradients(self, phrases,
                                                            dtype):
        reference, videos = self.ragged_batch(
            phrases, 10, (((3, 2), 0), ((), 1), ((), 0)))
        model = UCNetModel(reference.parameters(), phrases, ("a", "b"), 8,
                           dtype=dtype)
        # A batch with comments leaves every gradient nonzero first.
        _, grads = model.batch_loss_and_gradients(videos[:1])
        names = [name for name in grads
                 if name.startswith(("weight_head.", "lstm."))]
        assert all(grads[name].any() for name in names)
        _, grads = model.batch_loss_and_gradients(videos[1:])
        for name in names:
            assert grads[name].tobytes() == \
                np.zeros_like(grads[name]).tobytes(), name
        assert grads["output.bias"].any()

    def test_unlabelled_video_rejected(self, phrases, monkeypatch):
        params = init_params(np.random.default_rng(0), 8, len(phrases), 2,
                             lstm_hidden=8)
        model = UCNetModel(params, phrases, ("a", "b"), 8)
        prepared = network.PreparedVideo(
            comment_ids=[], matrix=np.zeros((0, 8)), fvs=np.zeros((0, 30)),
            counts=np.zeros(0, np.int64), features=np.zeros(2))
        # refused before the LSTM runs
        monkeypatch.delattr(neural, "lstm_forward_batch")
        with pytest.raises(ValueError, match="label"):
            model.batch_loss_and_gradients([prepared])


class TestHead:
    """The classifier head trains through ``Mlp.step``: its gradients and
    the gradient it hands the pooling are a written-out reference's bits,
    on any BLAS kernel, where the trained-model pins skip."""

    # (LSTM units, features, videos): 300 units under eight features or
    # the one kept by pruning, in a full batch and a one-video tail.
    @pytest.mark.parametrize("lstm_hidden,n_features,n_videos", [
        (300, 8, 16), (300, 1, 5), (300, 8, 1), (8, 2, 3)])
    def test_head_gradients_match_a_written_out_reference(
            self, phrases, monkeypatch, lstm_hidden, n_features, n_videos):
        rng = np.random.default_rng(lstm_hidden + n_features + n_videos)
        model = UCNetModel(init_params(rng, 8, len(phrases), n_features,
                                       lstm_hidden),
                           phrases, lexical.FEATURE_NAMES[:n_features], 8)
        matrix = rng.normal(size=(12, 8))
        videos = [network.PreparedVideo(
            comment_ids=[rng.integers(0, 12, size=t)
                         for t in rng.integers(1, 7, size=k)],
            matrix=matrix,
            fvs=(rng.random((k, len(phrases))) < 0.3).astype(float),
            counts=rng.integers(1, 4, size=k),
            features=rng.normal(size=n_features), label=i % 2)
            for i, k in enumerate(rng.integers(0, 4, size=n_videos))]
        x, _ = network._forward_batch(
            model, network._collate(videos),
            model._workspace_for(videos, n_videos))
        labels = np.arange(n_videos) % 2
        want_loss, want, want_dx = mlp_reference(
            x, *model.head.parameters().values(), labels)
        handed = []
        original = network._backward_batch

        def spy(model, batch, cache, dx):
            handed.append(dx.copy())
            original(model, batch, cache, dx)

        monkeypatch.setattr(network, "_backward_batch", spy)
        loss, grads = model.batch_loss_and_gradients(videos)
        assert loss == want_loss
        assert handed[0].tobytes() == want_dx.tobytes()
        for name, expected in zip(model.head.parameters(), want):
            assert grads[name].tobytes() == expected.tobytes(), name
