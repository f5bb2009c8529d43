"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL-style line (run with `pytest tests/test_acceptance.py -v -s`).

Headline corpus numbers from the original experiments are not reproducible
at desk scale (much of the underlying platform data has been deleted), so
acceptance is property-based plus closed-form table arithmetic on the
seeded synthetic corpus.
"""

import time

import numpy as np
import pytest

from ucnet import classic, corpus, evaluation, lexical, network, neural, synthetic
from ucnet.cli import main

from conftest import (lstm_cell, lstm_sequence, make_comment, make_dataset,
                      make_video)
from test_corpus import PAPER_AGREEMENT, brute_force_mine, rounds_from_matrix
from test_lexical import oracle_extract, random_video


def report(criterion, detail):
    print(f"\n[acceptance {criterion}] PASS ({detail})")


@pytest.fixture(scope="module")
def lexicons():
    return lexical.LexiconSet.default()


@pytest.fixture(scope="module")
def phrases():
    return lexical.load_fakeness_phrases()


def test_criterion_1_gradient_correctness(phrases):
    started = time.monotonic()
    rng = np.random.default_rng(3)
    params = network.init_params(rng, embedding_dim=8, n_phrases=len(phrases),
                                 n_features=2, lstm_hidden=8)
    # float64 compute: finite differences of a float32 LSTM are noise
    model = network.UCNetModel(params, phrases, ("f0", "f1"), 8,
                               dtype=np.float64)
    prepared = network.PreparedVideo(
        comment_ids=[np.arange(5 * k, 5 * (k + 1)) for k in range(3)],
        matrix=rng.normal(size=(15, 8)),
        fvs=(rng.random((3, len(phrases))) < 0.2).astype(float),
        features=rng.normal(size=2), label=1)
    error = neural.gradient_check(model, [prepared], h=1e-5)
    elapsed = time.monotonic() - started
    assert error < 1e-4
    assert elapsed < 60.0
    report(1, f"max relative error {error:.2e} in {elapsed:.1f}s")


def test_criterion_2_all_fake_baseline_arithmetic():
    y_true = ["fake"] * 31 + ["real"] * 23
    report_ = evaluation.evaluate(y_true, ["fake"] * 54)
    assert report_.macro_precision == pytest.approx(0.287, abs=1e-3)
    assert report_.macro_recall == pytest.approx(0.500, abs=1e-3)
    assert report_.macro_f1 == pytest.approx(0.365, abs=1e-3)
    report(2, f"macro P/R/F = {report_.macro_precision:.3f}/"
              f"{report_.macro_recall:.3f}/{report_.macro_f1:.3f}")


def test_criterion_3_table_row_arithmetic():
    # per-class precision 176/275 = 0.64 and recall 176/200 = 0.88
    y_true = (["fake"] * 176 + ["real"] * 99 + ["fake"] * 24 + ["real"] * 50)
    y_pred = ["fake"] * 275 + ["real"] * 74
    report_ = evaluation.evaluate(y_true, y_pred)
    assert report_.fake.precision == pytest.approx(0.64)
    assert report_.fake.recall == pytest.approx(0.88)
    assert round(report_.fake.f1, 2) == 0.74
    report(3, f"P=0.64, R=0.88 -> F1={report_.fake.f1:.4f} (0.74 at 2 dp)")


def test_criterion_4_end_to_end_separability(lexicons):
    started = time.monotonic()
    dataset = synthetic.make_synthetic_corpus(200, seed=7, lexicons=lexicons)
    table = synthetic.make_embedding_table(seed=7, dimension=16,
                                           lexicons=lexicons)
    titles = synthetic.make_labeled_titles(240, seed=7, lexicons=lexicons)
    scorer = lexical.train_title_scorer(titles, lexicons)

    # generator contract: every fake video has indicator phrases in >= 30%
    # of its comments and a clickbait title with probability 0.7
    phrase_list = lexical.load_fakeness_phrases()
    for record in dataset.with_label("fake"):
        hits = sum(1 for c in record.comments
                   if network.fakeness_vector(c.text, phrase_list).sum() > 0)
        assert hits / len(record.comments) >= 0.3
    clickbait_rate = np.mean([
        lexical.has_clickbait_phrase(r.title, lexicons)
        for r in dataset.with_label("fake")])
    assert 0.55 <= clickbait_rate <= 0.85

    train_set, test_set = corpus.split_dataset(dataset, 0.3, seed=7)

    model = network.train(train_set, table, lexicons, scorer,
                          network.TrainingConfig(seed=0))
    history = model.loss_history
    assert all(b <= a + 1e-9 for a, b in zip(history, history[1:]))
    y_true = [r.label for r in test_set]
    y_pred = [network.classify(model.predict_record(r, table, lexicons, scorer))
              for r in test_set]
    ucnet_report = evaluation.evaluate(y_true, y_pred)

    X_train = lexical.feature_matrix(list(train_set), lexicons, scorer)
    y_train = np.array([1 if r.label == "fake" else 0 for r in train_set])
    X_test = lexical.feature_matrix(list(test_set), lexicons, scorer)
    forest = classic.train_forest(X_train, y_train, seed=0)
    forest_pred = ["fake" if v else "real" for v in forest.predict(X_test)]
    forest_report = evaluation.evaluate(y_true, forest_pred)

    elapsed = time.monotonic() - started
    assert ucnet_report.macro_f1 >= 0.95
    assert forest_report.macro_f1 >= 0.90
    assert elapsed < 300.0
    report(4, f"ucnet macro-F {ucnet_report.macro_f1:.3f}, "
              f"forest macro-F {forest_report.macro_f1:.3f}, {elapsed:.0f}s")


def test_criterion_5_oracle_equivalence(lexicons):
    scorer = lexical.train_title_scorer(
        synthetic.make_labeled_titles(80, seed=5, lexicons=lexicons), lexicons)

    rng = np.random.default_rng(42)
    for i in range(100):
        video = random_video(rng, lexicons, f"v{i}")
        got = lexical.extract_features(video, lexicons, scorer).as_array()
        expected = np.array(oracle_extract(video, lexicons, scorer))
        assert np.array_equal(got, expected)

    rng = np.random.default_rng(50)
    texts = ["fake fake fake", "complete bullshit", "hoax", "funny cats",
             "nice video", "so staged really"]
    videos = []
    for i in range(50):
        comment_texts = [str(rng.choice(texts))
                         for _ in range(int(rng.integers(1, 5)))]
        videos.append(make_video(
            f"m{i}", "unlabeled",
            comments=[make_comment(f"m{i}-c{j}", t)
                      for j, t in enumerate(comment_texts)],
            views=int(rng.integers(0, 40_000)),
            likes=int(rng.integers(0, 30)),
            dislikes=int(rng.integers(0, 30))))
    pool = make_dataset(videos)
    seeds = ["fake fake fake", "complete bullshit"]
    expansion = ["hoax", "so staged"]
    mined = corpus.mine_candidates(pool, seeds, min_views=5000, min_comments=2,
                                   min_dislike_like_ratio=0.3, rounds=3,
                                   expansion_lexicon=expansion)
    expected_ids = brute_force_mine(videos, seeds, 5000, 2, 0.3, 3, expansion)
    assert set(mined.ids()) == expected_ids

    X = rng.normal(size=(80, 4))
    y = (X[:, 1] > 0).astype(np.int64)
    forest = classic.train_forest(X[:60], y[:60], n_trees=11, seed=1)
    probe = X[60:]
    votes = np.stack([t.predict(probe) for t in forest.trees]).sum(axis=0)
    assert np.array_equal(forest.predict(probe),
                          (2 * votes >= 11).astype(np.int64))
    report(5, "features, mining and forest votes match brute-force oracles")


def test_criterion_6_pooling_identities(phrases):
    rng = np.random.default_rng(6)
    from ucnet.embeddings import EmbeddingTable, embed_comment
    table = EmbeddingTable(dimension=6, vectors={
        w: rng.normal(size=6) for w in
        ["fake", "video", "nice", "hoax", "song", "the", "staged", "wow"]})
    params = network.init_params(rng, 6, len(phrases), 0, lstm_hidden=5)
    params["weight_head.weights"][...] = 0.0
    params["weight_head.bias"][...] = 0.0
    comments = [
        make_comment("a", "fake video wow"),
        make_comment("b", "nice song"),
        make_comment("c", "the hoax staged"),
        make_comment("d", "video song the"),
    ]
    raw = np.stack([lstm_sequence(lstm_cell(params),
                                  table.matrix[embed_comment(c.text, table)])
                    for c in comments])
    # The identity holds to float64 round-off at float64 and to float32
    # round-off (|h| < 1) at float32; the invariances are exact in both.
    for dtype, tolerance in ((np.float64, 1e-12), (np.float32, 1e-6)):
        model = network.UCNetModel(params, phrases, (), 6, dtype=dtype)
        unified = model.unified_embedding(comments, table)
        assert np.allclose(unified, 0.5 * raw.mean(axis=0), rtol=0,
                           atol=tolerance)
        for order in ([3, 1, 0, 2], [2, 3, 1, 0]):
            permuted = [comments[i] for i in order]
            assert np.array_equal(
                unified, model.unified_embedding(permuted, table))
        assert np.array_equal(
            unified, model.unified_embedding(comments + comments, table))
    report(6, "zero-weight-head identity within 1e-12 (float64) and 1e-6 "
              "(float32); permutation and duplication exact in both")


def test_criterion_7_pca_against_power_iteration():
    from test_evaluation import power_iteration_pca
    rng = np.random.default_rng(20)
    for trial in range(3):
        X = rng.normal(size=(20, 5))
        projected, variances = evaluation.pca_project(X, 2)
        oracle_proj, oracle_vals = power_iteration_pca(X, 2)
        assert np.allclose(variances, oracle_vals, atol=1e-8)
        for j in range(2):
            direct = np.abs(projected[:, j] - oracle_proj[:, j]).max()
            flipped = np.abs(projected[:, j] + oracle_proj[:, j]).max()
            assert min(direct, flipped) < 1e-8
        assert np.all(np.diff(variances) <= 1e-12)
    report(7, "projections match power iteration within 1e-8 on 3 random "
              "20x5 matrices")


def test_criterion_8_training_determinism(tmp_path):
    out_dir = tmp_path / "synthetic"
    assert main(["make-synthetic", "--output-dir", str(out_dir),
                 "--n-videos", "20", "--seed", "3",
                 "--embedding-dim", "8", "--n-titles", "40"]) == 0

    ucnet_files, report_files = [], []
    for name in ("one", "two"):
        model_path = tmp_path / f"{name}.model"
        pred = tmp_path / f"{name}.pred.csv"
        truth = tmp_path / f"{name}.truth.csv"
        assert main(["train-ucnet", "--input", str(out_dir / "corpus.jsonl"),
                     "--test-fraction", "0.3",
                     "--embeddings", str(out_dir / "embeddings.txt"),
                     "--embedding-dim", "8",
                     "--train-titles", str(out_dir / "titles.tsv"),
                     "--all-features", "--epochs", "2", "--batch-size", "4",
                     "--lstm-hidden", "8", "--seed", "5",
                     "--output", str(model_path),
                     "--predictions", str(pred),
                     "--truth-out", str(truth)]) == 0
        report_path = tmp_path / f"{name}.report.csv"
        assert main(["evaluate", "--pred", str(pred), "--truth", str(truth),
                     "--output", str(report_path)]) == 0
        ucnet_files.append(model_path.read_bytes())
        report_files.append(report_path.read_bytes())
    assert ucnet_files[0] == ucnet_files[1]
    assert report_files[0] == report_files[1]

    features = tmp_path / "features.csv"
    assert main(["features", "--input", str(out_dir / "corpus.jsonl"),
                 "--output", str(features),
                 "--train-titles", str(out_dir / "titles.tsv")]) == 0
    classic_files = []
    for name in ("f1", "f2"):
        path = tmp_path / name
        assert main(["train-classic", "--features", str(features),
                     "--model", "forest", "--output", str(path),
                     "--trees", "10", "--seed", "4"]) == 0
        classic_files.append(path.read_bytes())
    assert classic_files[0] == classic_files[1]
    report(8, "rerun train-ucnet and train-classic byte-identical "
              "(models and reports)")


def test_criterion_9_agreement_matrix_fixture():
    r1, r2 = rounds_from_matrix(PAPER_AGREEMENT)
    matrix = corpus.agreement_matrix(r1, r2)
    assert matrix.sum() == 650
    assert np.array_equal(matrix, PAPER_AGREEMENT)
    assert np.array_equal(corpus.agreement_matrix(r2, r1), PAPER_AGREEMENT.T)
    report(9, "fixture sums to 650 and transposes under argument swap")
