import csv
import dataclasses
import hashlib
import json
import shlex
import shutil
import warnings
from pathlib import Path

import numpy as np
import pytest

from ucnet import (classic, cli, corpus, evaluation, lexical, network,
                   serialize)
from ucnet.cli import main
from ucnet.embeddings import (EmbeddingTable, comment_vocabulary,
                              load_embeddings, save_embeddings)

from conftest import make_comment, make_dataset, make_video


@pytest.fixture(scope="module")
def synthetic_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synthetic")
    code = main(["make-synthetic", "--output-dir", str(out),
                 "--n-videos", "24", "--seed", "3", "--embedding-dim", "8",
                 "--n-titles", "60"])
    assert code == 0
    return out


def run_features(synthetic_dir, tmp_path, extra=()):
    out = tmp_path / "features.csv"
    code = main(["features", "--input", str(synthetic_dir / "corpus.jsonl"),
                 "--output", str(out),
                 "--train-titles", str(synthetic_dir / "titles.tsv"),
                 *extra])
    assert code == 0
    return out


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_missing_required_flag_is_usage_error(self):
        assert main(["evaluate", "--pred", "x.csv"]) == 1

    def test_missing_input_file_is_data_error(self, tmp_path, capsys):
        code = main(["agreement", "--round1", str(tmp_path / "no.tsv"),
                     "--round2", str(tmp_path / "no.tsv"),
                     "--output", str(tmp_path / "out.csv")])
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["--config", "BAD", "evaluate", "--pred", "x", "--truth", "y",
         "--output", "OUT"],
        ["evaluate", "--pred", "BAD", "--truth", "BAD", "--output", "OUT"],
        ["mine", "--input", "BAD", "--output", "OUT"],
        ["mine", "--input", "CORPUS", "--seed-phrases", "BAD", "--output", "OUT"],
        ["agreement", "--round1", "BAD", "--round2", "BAD", "--output", "OUT"],
        ["features", "--input", "CORPUS", "--train-titles", "BAD",
         "--output", "OUT"],
        ["prune", "--features", "BAD", "--output", "OUT"],
    ], ids=["config", "predictions", "dataset", "lexicon", "annotations",
            "titles", "features"])
    def test_undecodable_input_names_file_and_line(self, synthetic_dir,
                                                   tmp_path, capsys, argv):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"first line\n\xff\n")
        paths = {"BAD": str(bad), "OUT": str(tmp_path / "out"),
                 "CORPUS": str(synthetic_dir / "corpus.jsonl")}
        assert main([paths.get(arg, arg) for arg in argv]) == 2
        assert f"{bad}: line 2: not UTF-8 text" in capsys.readouterr().err

    def test_bad_timestamp_names_file_and_line(self, synthetic_dir, tmp_path,
                                               capsys):
        lines = (synthetic_dir / "corpus.jsonl").read_text().splitlines()
        lines[1] = lines[1].replace('"published_at": "2015-',
                                    '"published_at": "2015/', 1)
        bad = tmp_path / "corpus.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        assert main(["mine", "--input", str(bad),
                     "--output", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"{bad}: line 2: comment" in err
        assert "is not an ISO-8601 timestamp" in err

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0

    def test_no_arguments_is_usage_error(self):
        assert main([]) == 1


class TestMakeSynthetic:
    def test_produces_loadable_corpus(self, synthetic_dir):
        ds = corpus.load_dataset(synthetic_dir / "corpus.jsonl", "s")
        assert len(ds) == 24
        assert (synthetic_dir / "embeddings.txt").exists()
        assert (synthetic_dir / "titles.tsv").exists()
        assert (synthetic_dir / "corpus.jsonl.manifest.json").exists()


    @pytest.mark.parametrize("dimension", ["0", "-3"])
    def test_an_embedding_dimension_below_one_is_refused(
            self, tmp_path, capsys, dimension):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["make-synthetic", "--output-dir",
                         str(tmp_path / "out"), "--n-videos", "4",
                         "--embedding-dim", dimension]) == 2
        assert capsys.readouterr().err == \
            f"error: embedding dimension must be >= 1, got {dimension}\n"
        assert list(tmp_path.iterdir()) == []


class TestEvaluateCommand:
    def test_perfect_predictions_score_one(self, tmp_path, capsys):
        pred = tmp_path / "p.csv"
        truth = tmp_path / "t.csv"
        pred.write_text("video_id,label,p_fake\na,fake,0.9\nb,real,0.1\n")
        truth.write_text("video_id,label\na,fake\nb,real\n")
        out = tmp_path / "report.csv"
        for truth_file in (truth, pred):  # a predictions file serves as truth
            code = main(["evaluate", "--pred", str(pred),
                         "--truth", str(truth_file), "--output", str(out)])
            assert code == 0
            assert "macro_f1=1.0000" in capsys.readouterr().out
            rows = out.read_text().splitlines()
            assert rows[0] == "class,precision,recall,f1,support"
            assert rows[-1].startswith("macro,1,1,1,")

    @pytest.mark.parametrize("bad_row", [
        "", "b", "b,real,high", "a,real,0.1", "b,real,0.1,x", "b,real,nan",
        "b,real,inf", "b,real,-inf", "b,real,1.5", "b,real,-0.5",
        "b,real,HUGE", "b,maybe,0.1"])
    def test_blank_short_or_bad_row_names_file_and_line(self, tmp_path, capsys,
                                                         bad_row):
        pred = tmp_path / "p.csv"
        truth = tmp_path / "t.csv"
        bad_row = bad_row.replace("HUGE", "0" * (csv.field_size_limit() + 1))
        pred.write_text(f"video_id,label,p_fake\na,fake,0.9\n{bad_row}\n")
        truth.write_text("video_id,label\na,fake\nb,real\n")
        code = main(["evaluate", "--pred", str(pred), "--truth", str(truth),
                     "--output", str(tmp_path / "r.csv")])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {pred}: line 3: ")

    @pytest.mark.parametrize("bad_row", ["a,real", "c,real,0.5", "c,HUGE"])
    def test_bad_truth_row_names_file_and_line(self, tmp_path, capsys,
                                               bad_row):
        pred = tmp_path / "p.csv"
        truth = tmp_path / "t.csv"
        bad_row = bad_row.replace("HUGE", "x" * (csv.field_size_limit() + 1))
        pred.write_text("video_id,label,p_fake\na,fake,0.9\n")
        truth.write_text(f"video_id,label\na,fake\nb,real\n{bad_row}\n")
        code = main(["evaluate", "--pred", str(pred), "--truth", str(truth),
                     "--output", str(tmp_path / "r.csv")])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {truth}: line 4: ")

    @pytest.mark.parametrize("row,classified", [
        ("a,real,0.9", "fake"), ("b,fake,0.1", "real"), ("a,real,0.5", "fake")])
    @pytest.mark.parametrize("where", ["pred", "truth"])
    def test_label_contradicting_p_fake_names_file_and_line(
            self, tmp_path, capsys, row, classified, where):
        # The row's label would score it; its probability says otherwise.
        files = {"pred": tmp_path / "p.csv", "truth": tmp_path / "t.csv"}
        good = ["a,fake,0.9", "b,real,0.1"]
        vid, label, p_fake = row.split(",")
        line = 2 if vid == "a" else 3
        bad = [row if i + 2 == line else r for i, r in enumerate(good)]
        for name, path in files.items():
            rows = bad if name == where else good
            path.write_text("video_id,label,p_fake\n"
                            + "".join(f"{r}\n" for r in rows))
        code = main(["evaluate", "--pred", str(files["pred"]),
                     "--truth", str(files["truth"]),
                     "--output", str(tmp_path / "r.csv")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {files[where]}: line {line}: label {label!r} contradicts "
            f"p_fake {p_fake!r}, which classifies as {classified!r}\n")
        assert not (tmp_path / "r.csv").exists()

    def test_empty_predictions_name_the_file(self, tmp_path, capsys):
        pred = tmp_path / "p.csv"
        pred.write_text("video_id,label,p_fake\n")
        code = main(["evaluate", "--pred", str(pred), "--truth", str(pred),
                     "--output", str(tmp_path / "r.csv")])
        assert code == 2
        assert capsys.readouterr().err == f"error: {pred}: no predictions\n"

    def test_missing_truth_id_is_data_error(self, tmp_path, capsys):
        pred = tmp_path / "p.csv"
        truth = tmp_path / "t.csv"
        pred.write_text("video_id,label,p_fake\na,fake,0.9\n")
        truth.write_text("video_id,label\nb,real\n")
        code = main(["evaluate", "--pred", str(pred), "--truth", str(truth),
                     "--output", str(tmp_path / "r.csv")])
        assert code == 2


class TestAgreementCommand:
    def test_matrix_csv(self, tmp_path):
        r1 = tmp_path / "r1.tsv"
        r2 = tmp_path / "r2.tsv"
        r1.write_text("a\tspam\nb\tlegitimate\nc\tnot_sure\n")
        r2.write_text("a\tspam\nb\tspam\nc\tnot_sure\n")
        out = tmp_path / "matrix.csv"
        assert main(["agreement", "--round1", str(r1), "--round2", str(r2),
                     "--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == ",spam,legitimate,not_sure"
        assert lines[1] == "spam,1,0,0"
        assert lines[2] == "legitimate,1,0,0"
        assert lines[3] == "not_sure,0,0,1"


class TestMineCommand:
    def test_mine_writes_subset_and_manifest(self, tmp_path):
        records = [
            make_video("keep", comments=[make_comment("c", "fake fake fake")],
                       views=50_000, likes=10, dislikes=9),
            make_video("drop", comments=[make_comment("c", "nice")],
                       views=50_000, likes=10, dislikes=9),
        ]
        data = tmp_path / "pool.jsonl"
        corpus.save_dataset(make_dataset(records), data)
        out = tmp_path / "mined.jsonl"
        code = main(["mine", "--input", str(data), "--output", str(out),
                     "--min-views", "0", "--min-comments", "0",
                     "--min-dislike-ratio", "0.3", "--rounds", "1"])
        assert code == 0
        mined = corpus.load_dataset(out, "mined")
        assert mined.ids() == ("keep",)
        manifest = json.loads((tmp_path / "mined.jsonl.manifest.json").read_text())
        assert manifest["subcommand"] == "mine"
        assert "dataset" in manifest["inputs"]
        assert manifest["inputs"]["dataset"]["sha256"]

    def test_name_flag_is_gone(self, tmp_path, capsys):
        data = tmp_path / "pool.jsonl"
        corpus.save_dataset(make_dataset([make_video("v")]), data)
        assert main(["mine", "--input", str(data), "--output",
                     str(tmp_path / "mined.jsonl"), "--name", "pool"]) == 1
        assert "unrecognized arguments: --name" in capsys.readouterr().err

    def test_ratio_beyond_the_float_range_ranks_first(self, tmp_path):
        comments = [make_comment("c", "fake fake fake")]
        records = [make_video(vid, comments=comments, likes=likes,
                              dislikes=dislikes)
                   for vid, likes, dislikes in (("high", 10, 9),
                                                ("huge", 1, 10**400))]
        data = tmp_path / "pool.jsonl"
        corpus.save_dataset(make_dataset(records), data)
        out = tmp_path / "mined.jsonl"
        assert main(["mine", "--input", str(data), "--output", str(out),
                     "--min-views", "0", "--min-comments", "0"]) == 0
        assert corpus.load_dataset(out, "mined").ids() == ("huge", "high")

    @pytest.mark.parametrize("ratio", ["nan", "inf"])
    def test_non_finite_ratio_is_refused(self, tmp_path, capsys, ratio):
        data = tmp_path / "pool.jsonl"
        corpus.save_dataset(make_dataset([make_video("v")]), data)
        out = tmp_path / "mined.jsonl"
        assert main(["mine", "--input", str(data), "--output", str(out),
                     "--min-dislike-ratio", ratio]) == 2
        assert capsys.readouterr().err == (
            f"error: min_dislike_like_ratio must be finite, got {ratio}\n")
        assert not out.exists()


class TestFeaturesCommand:
    def test_features_csv_shape_and_manifest(self, synthetic_dir, tmp_path):
        out = run_features(synthetic_dir, tmp_path)
        with out.open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "video_id"
        assert len(rows) == 25  # header + 24 videos
        manifest = json.loads((tmp_path / "features.csv.manifest.json").read_text())
        assert manifest["lexicons"]  # bundled lexicon digests recorded

    def test_scorer_save_and_reuse(self, synthetic_dir, tmp_path):
        saved = tmp_path / "scorer.model"
        first = tmp_path / "f1.csv"
        code = main(["features", "--input", str(synthetic_dir / "corpus.jsonl"),
                     "--output", str(first),
                     "--train-titles", str(synthetic_dir / "titles.tsv"),
                     "--save-scorer", str(saved)])
        assert code == 0
        second = tmp_path / "f2.csv"
        code = main(["features", "--input", str(synthetic_dir / "corpus.jsonl"),
                     "--output", str(second), "--scorer", str(saved)])
        assert code == 0
        assert first.read_bytes() == second.read_bytes()

    def test_ratio_beyond_the_float_range_reads_the_cap(self, synthetic_dir,
                                                        tmp_path):
        data = tmp_path / "huge.jsonl"
        corpus.save_dataset(make_dataset([make_video(
            "v", likes=1, dislikes=10**400)]), data)
        out = tmp_path / "features.csv"
        assert main(["features", "--input", str(data), "--output", str(out),
                     "--train-titles", str(synthetic_dir / "titles.tsv")]) == 0
        _, matrix, _ = cli._read_features_csv(out)
        ratio = matrix[0, lexical.FEATURE_NAMES.index("dislike_like_ratio")]
        assert ratio == lexical.DISLIKE_RATIO_CAP

    @pytest.mark.parametrize("damage", ["blank", "short", "non-numeric",
                                        "nan", "inf", "-inf", "huge"])
    def test_bad_feature_row_names_file_and_line(self, synthetic_dir, tmp_path,
                                                 capsys, damage):
        features = run_features(synthetic_dir, tmp_path)
        lines = features.read_text().splitlines()
        fields = lines[2].split(",")
        value = {"huge": "0" * (csv.field_size_limit() + 1)}.get(damage, damage)
        lines[2] = {"blank": "",
                    "short": ",".join(fields[:-2]),
                    "non-numeric": ",".join([fields[0], "x", *fields[2:]]),
                    }.get(damage, ",".join([fields[0], value, *fields[2:]]))
        features.write_text("\n".join(lines) + "\n")
        out = str(tmp_path / "out")
        for argv in (["prune", "--features", str(features), "--output", out],
                     ["train-classic", "--features", str(features),
                      "--output", out],
                     ["pca", "--features", str(features), "--output", out]):
            assert main(argv) == 2
            assert capsys.readouterr().err.startswith(
                f"error: {features}: line 3: ")

    @pytest.mark.parametrize("rows,command,message", [
        ("header-only", "prune", "prune needs 2 or more rows, got 0"),
        ("one-row", "prune", "prune needs 2 or more rows, got 1"),
        ("header-only", "train-classic", "training needs 1 or more rows, got 0"),
        ("one-row", "pca", "PCA needs 2 or more rows, got 1"),
        ("one-class", "train-classic",
         "logistic regression needs both classes present"),
    ])
    def test_unusable_features_file_is_named(self, synthetic_dir, tmp_path,
                                             capsys, rows, command, message):
        features = run_features(synthetic_dir, tmp_path)
        header, *body = features.read_text().splitlines()
        body = {"header-only": [], "one-row": body[:1],
                "one-class": [line for line in body
                              if line.endswith(",fake")]}[rows]
        features.write_text("".join(f"{line}\n" for line in [header, *body]))
        extra = ["--model", "logistic"] if rows == "one-class" else []
        assert main([command, "--features", str(features),
                     "--output", str(tmp_path / "out"), *extra]) == 2
        assert capsys.readouterr().err == f"error: {features}: {message}\n"


def scorer_run(command, synthetic_dir, out, *scorer_flags):
    """A features or train-ucnet run on the synthetic corpus whose title
    scorer ``scorer_flags`` give."""
    argv = [command, "--input", str(synthetic_dir / "corpus.jsonl"),
            "--output", str(out), *scorer_flags]
    if command == "train-ucnet":
        argv += ["--embeddings", str(synthetic_dir / "embeddings.txt"),
                 "--embedding-dim", "8", "--all-features", "--epochs", "1",
                 "--lstm-hidden", "4"]
    return argv


class TestTitleScorerFlags:
    @pytest.mark.parametrize("command", ["features", "train-ucnet"])
    def test_scorer_with_train_titles_is_refused_first(
            self, synthetic_dir, tmp_path, capsys, command):
        # Neither the input nor the scorer file exists: the refusal comes
        # before any input is read.
        argv = scorer_run(command, synthetic_dir, tmp_path / "out",
                          "--scorer", str(tmp_path / "missing.model"),
                          "--train-titles", str(synthetic_dir / "titles.tsv"))
        argv[argv.index("--input") + 1] = str(tmp_path / "missing.jsonl")
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: --scorer and --train-titles conflict: give a trained "
            "scorer or the titles to train one on\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["features", "train-ucnet"])
    @pytest.mark.parametrize("tensor,value,message", [
        ("feature_std", 0.0, "tensor 'feature_std' holds 0.0; a trained "
                             "scorer's entries are all positive"),
        ("layer1.weights", 1e308, "leaves the float range (overflow "
                                  "encountered in matmul)")],
        ids=["zero-std", "huge-weights"])
    def test_degenerate_scorer_file_names_the_file(
            self, synthetic_dir, tmp_path, capsys, scorer, command, tensor,
            value, message):
        path = tmp_path / "scorer.model"
        scorer.save(path)
        tensors, meta = serialize.load_tensors(path)
        tensors = {name: tensors[name].copy() for name in tensors}
        tensors[tensor][0] = value
        serialize.save_tensors(path, tensors, dict(meta))
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(scorer_run(command, synthetic_dir, tmp_path / "out",
                                   "--scorer", str(path))) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and message in err
        assert not (tmp_path / "out").exists()


def extreme_features(synthetic_dir, tmp_path):
    """The synthetic features with the first two columns set to +-9e307 and
    +-1.7e308, alternating by row."""
    path = run_features(synthetic_dir, tmp_path)
    rows = list(csv.reader(path.open()))
    for i, row in enumerate(rows[1:]):
        sign = 1 if i % 2 == 0 else -1
        row[1:3] = [repr(sign * 9e307), repr(sign * 1.7e308)]
    corpus.write_csv(path, rows[0], rows[1:])
    return path


class TestPruneAndClassic:
    def test_prune_then_train_forest(self, synthetic_dir, tmp_path):
        features = run_features(synthetic_dir, tmp_path)
        selected = tmp_path / "selected.json"
        assert main(["prune", "--features", str(features), "--output",
                     str(selected), "--threshold", "0.2", "--seed", "1",
                     "--trees", "20"]) == 0
        payload = json.loads(selected.read_text())
        assert payload["selected_indices"]
        assert len(payload["importances"]) == 8

        model = tmp_path / "forest.model"
        predictions = tmp_path / "pred.csv"
        assert main(["train-classic", "--features", str(features),
                     "--model", "forest", "--output", str(model),
                     "--selected", str(selected), "--trees", "20",
                     "--seed", "2", "--test-features", str(features),
                     "--predictions", str(predictions)]) == 0
        with predictions.open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["video_id", "label", "p_fake"]
        assert len(rows) == 25

    @pytest.mark.parametrize("kind,train", [
        ("forest", lambda X, y: classic.train_forest(X, y, n_trees=20, seed=2)),
        ("tree", lambda X, y: classic.train_tree(X, y)),
        ("logistic", lambda X, y: classic.train_logistic(X, y)),
    ])
    def test_each_kind_predicts_and_saves_its_model(self, synthetic_dir,
                                                    tmp_path, kind, train):
        features = run_features(synthetic_dir, tmp_path)
        model = tmp_path / f"{kind}.model"
        predictions = tmp_path / "pred.csv"
        assert main(["train-classic", "--features", str(features),
                     "--model", kind, "--output", str(model),
                     "--trees", "20", "--seed", "2",
                     "--test-features", str(features),
                     "--predictions", str(predictions)]) == 0
        _, X, labels = cli._read_features_csv(features)
        trained = train(X, corpus.fake_indicators(labels, features))
        expected = trained.predict_proba_fake(X)
        rows = [row for _, row in corpus.read_csv(
            predictions, ("video_id", "label", "p_fake"))]
        assert np.array_equal([float(row[2]) for row in rows], expected)
        assert [row[1] for row in rows] == \
            [evaluation.classify(p) for p in expected]
        loaded = classic.load_model(model)
        assert type(loaded) is type(trained)
        assert np.array_equal(loaded.predict_proba_fake(X), expected)

    def test_test_features_without_predictions_trains_nothing(
            self, synthetic_dir, tmp_path, capsys):
        features = run_features(synthetic_dir, tmp_path)
        model = tmp_path / "tree.model"
        assert main(["train-classic", "--features", str(features),
                     "--model", "tree", "--output", str(model),
                     "--test-features", str(features)]) == 2
        assert "--test-features requires --predictions" in \
            capsys.readouterr().err
        assert not model.exists()
        assert not (tmp_path / "tree.model.manifest.json").exists()

    def test_predictions_without_test_features_is_refused_first(
            self, tmp_path, capsys):
        # There would be no test rows to write predictions for; the
        # features file does not even exist, and the refusal comes before
        # any input is read.
        assert main(["train-classic", "--features",
                     str(tmp_path / "missing.csv"), "--model", "tree",
                     "--output", str(tmp_path / "tree.model"),
                     "--predictions", str(tmp_path / "pred.csv")]) == 2
        assert capsys.readouterr().err == \
            "error: --predictions requires --test-features\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("kind", ["forest", "tree", "logistic"])
    def test_empty_selection_is_refused(self, synthetic_dir, tmp_path, capsys,
                                        kind):
        features = run_features(synthetic_dir, tmp_path)
        selected = tmp_path / "selected.json"
        selected.write_text('{"selected_indices": []}')
        model = tmp_path / "m.model"
        predictions = tmp_path / "pred.csv"
        capsys.readouterr()
        assert main(["train-classic", "--features", str(features),
                     "--model", kind, "--output", str(model),
                     "--selected", str(selected),
                     "--test-features", str(features),
                     "--predictions", str(predictions)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {selected}: ")
        assert not model.exists() and not predictions.exists()
        assert not (tmp_path / "m.model.manifest.json").exists()

    @pytest.mark.parametrize("argv,named", [
        (["train-classic", "--features-per-split", "0"], "features_per_split"),
        (["train-classic", "--features-per-split", "-1"], "features_per_split"),
        (["train-classic", "--max-depth", "0"], "max_depth"),
        (["train-classic", "--model", "tree", "--max-depth", "-1"],
         "max_depth"),
        (["prune", "--max-depth", "-1"], "max_depth")])
    def test_degenerate_forest_argument_is_refused(
            self, synthetic_dir, tmp_path, capsys, argv, named):
        features = run_features(synthetic_dir, tmp_path)
        output = tmp_path / "out"
        capsys.readouterr()
        assert main([*argv, "--features", str(features),
                     "--output", str(output)]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: {named} must be >= 1, got ")
        assert not output.exists()

    @pytest.mark.parametrize("argv,message", [
        (["train-classic", "--model", "logistic", "--epochs", "-1"],
         "epochs must be >= 0, got -1"),
        *((["train-classic", "--model", "logistic", "--learning-rate", rate],
           f"learning_rate must be a positive finite number, got {rate}")
          for rate in ("nan", "inf", "0.0", "-0.1")),
        (["prune", "--threshold", "nan"], "threshold must be finite, got nan"),
        (["prune", "--threshold", "inf"], "threshold must be finite, got inf")])
    def test_numeric_argument_that_would_do_nothing_is_refused(
            self, synthetic_dir, tmp_path, capsys, argv, message):
        features = run_features(synthetic_dir, tmp_path)
        output = tmp_path / "out"
        capsys.readouterr()
        assert main([*argv, "--features", str(features),
                     "--output", str(output)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not output.exists()

    def test_logistic_overflow_names_the_file(self, synthetic_dir, tmp_path,
                                              capsys):
        features = extreme_features(synthetic_dir, tmp_path)
        model = tmp_path / "logit.model"
        capsys.readouterr()
        assert main(["train-classic", "--model", "logistic", "--features",
                     str(features), "--output", str(model)]) == 2
        assert capsys.readouterr().err == (
            f"error: {features}: the logistic score of row 1 overflows "
            "float64; the features reach 1.7e+308 in magnitude\n")
        assert not model.exists()

    def test_logistic_prediction_overflow_names_the_test_file(
            self, synthetic_dir, tmp_path, capsys):
        # Column 1 separates the training rows, so its weight exceeds 1.
        rows = list(csv.reader(run_features(synthetic_dir, tmp_path).open()))
        for row in rows[1:]:
            row[2] = "1" if row[-1] == "fake" else "-1"
        features = tmp_path / "train.csv"
        corpus.write_csv(features, rows[0], rows[1:])
        test = extreme_features(synthetic_dir, tmp_path)
        selected = tmp_path / "selected.json"
        selected.write_text('{"selected_indices": [1]}')
        predictions = tmp_path / "pred.csv"
        capsys.readouterr()
        assert main(["train-classic", "--model", "logistic", "--features",
                     str(features), "--selected", str(selected), "--output",
                     str(tmp_path / "logit.model"), "--test-features",
                     str(test), "--predictions", str(predictions)]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: {test}: the logistic score of row ")
        assert not predictions.exists()
        assert not (tmp_path / "logit.model").exists()
        assert not (tmp_path / "logit.model.manifest.json").exists()

    def test_a_refused_test_file_leaves_no_file(self, synthetic_dir, tmp_path,
                                                capsys):
        features = run_features(synthetic_dir, tmp_path)
        test = tmp_path / "bad.csv"
        test.write_text("video_id,x\n")
        before = set(tmp_path.iterdir())
        capsys.readouterr()
        assert main(["train-classic", "--features", str(features),
                     "--test-features", str(test), "--predictions",
                     str(tmp_path / "p.csv"), "--output",
                     str(tmp_path / "m.model"), "--trees", "5"]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: {test}: expected the header ")
        assert set(tmp_path.iterdir()) == before

    def test_train_classic_determinism(self, synthetic_dir, tmp_path):
        features = run_features(synthetic_dir, tmp_path)
        outputs = []
        for name in ("m1", "m2"):
            path = tmp_path / name
            assert main(["train-classic", "--features", str(features),
                         "--model", "forest", "--output", str(path),
                         "--trees", "10", "--seed", "9"]) == 0
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1]


class TestTrainUcnetCommand:
    def ucnet_args(self, synthetic_dir, out, seed="5"):
        return ["train-ucnet",
                "--input", str(synthetic_dir / "corpus.jsonl"),
                "--test-fraction", "0.3",
                "--embeddings", str(synthetic_dir / "embeddings.txt"),
                "--embedding-dim", "8",
                "--train-titles", str(synthetic_dir / "titles.tsv"),
                "--all-features",
                "--epochs", "2", "--batch-size", "4",
                "--lstm-hidden", "8", "--seed", seed,
                "--output", str(out)]

    def test_same_seed_identical_model_files(self, synthetic_dir, tmp_path):
        files = []
        for name in ("a.model", "b.model"):
            out = tmp_path / name
            assert main(self.ucnet_args(synthetic_dir, out)) == 0
            files.append(out.read_bytes())
        assert files[0] == files[1]

    def test_predictions_and_truth_out(self, synthetic_dir, tmp_path, capsys):
        out = tmp_path / "model"
        predictions = tmp_path / "pred.csv"
        truth = tmp_path / "truth.csv"
        args = self.ucnet_args(synthetic_dir, out) + [
            "--predictions", str(predictions), "--truth-out", str(truth)]
        assert main(args) == 0
        test_set = corpus.split_dataset(
            corpus.load_dataset(synthetic_dir / "corpus.jsonl", "s"), 0.3, 5)[1]
        assert truth.read_text() == "video_id,label\n" + "".join(
            f"{r.id},{r.label}\n" for r in test_set)
        report = tmp_path / "report.csv"
        assert main(["evaluate", "--pred", str(predictions),
                     "--truth", str(truth), "--output", str(report)]) == 0
        assert report.exists()

    @pytest.mark.parametrize("source,outputs,message", [
        ("--train", ("--predictions", "--truth-out"),
         "--predictions requires a test set: --test with --train, or --input"),
        ("--train", ("--predictions",),
         "--predictions requires a test set: --test with --train, or --input"),
        ("--train", ("--truth-out",), "--truth-out requires --predictions"),
        ("--input", ("--truth-out",), "--truth-out requires --predictions")],
        ids=["train-predictions-truth", "train-predictions", "train-truth",
             "input-truth"])
    def test_an_output_it_cannot_write_is_refused_first(
            self, synthetic_dir, tmp_path, capsys, source, outputs, message):
        # The embeddings file does not exist: the refusal comes before any
        # input is read.
        args = self.ucnet_args(synthetic_dir, tmp_path / "m")
        args[args.index("--input")] = source
        args[args.index("--embeddings") + 1] = str(tmp_path / "missing.txt")
        for flag in outputs:
            args += [flag, str(tmp_path / flag.strip("-"))]
        capsys.readouterr()
        assert main(args) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag", ["--train", "--test"])
    def test_input_with_train_or_test_is_refused_first(
            self, synthetic_dir, tmp_path, capsys, flag):
        # --input splits its own test set, so a --train or --test beside it
        # would be dropped; the file it names does not even exist, and the
        # refusal comes before any input is read.
        args = [*self.ucnet_args(synthetic_dir, tmp_path / "m"),
                flag, str(tmp_path / "missing.jsonl")]
        capsys.readouterr()
        assert main(args) == 2
        assert capsys.readouterr().err == (
            f"error: --input and {flag} conflict: --input splits its own "
            f"training and test sets\n")
        assert list(tmp_path.iterdir()) == []

    def test_train_with_input_is_refused_first(self, synthetic_dir, tmp_path,
                                               capsys):
        args = self.ucnet_args(synthetic_dir, tmp_path / "m")
        args[args.index("--input") + 1] = str(tmp_path / "missing.jsonl")
        args += ["--train", str(synthetic_dir / "corpus.jsonl")]
        capsys.readouterr()
        assert main(args) == 2
        assert "--input and --train conflict" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("rate,batch", [("1e30", 3), ("1e308", 2)])
    def test_a_diverging_learning_rate_stops_where_it_diverges(
            self, synthetic_dir, tmp_path, capsys, rate, batch):
        # The first Adam step moves every weight by about the rate; a later
        # batch's float32 cast, in its forward or backward pass, overflows.
        args = [*self.ucnet_args(synthetic_dir, tmp_path / "m"),
                "--learning-rate", rate]
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(args) == 2
        assert capsys.readouterr().err == (
            f"error: training diverged at epoch 1, batch {batch} (learning "
            f"rate {float(rate):g}): overflow encountered in cast\n")
        assert not (tmp_path / "m").exists()

    def test_filtered_embeddings_give_the_unfiltered_bytes(
            self, synthetic_dir, tmp_path, monkeypatch):
        # An unused row before each of the corpus's moves every row id.
        table = load_embeddings(synthetic_dir / "embeddings.txt", 8)
        rng = np.random.default_rng(0)
        vectors = {}
        for i, (token, vector) in enumerate(table.vectors.items()):
            vectors[f"unused{i}"] = rng.normal(size=8)
            vectors[token] = vector
        wide = tmp_path / "wide.txt"
        save_embeddings(EmbeddingTable(8, vectors), wide)
        kept, outputs = [], {}
        for vocabulary in ("corpus", "none"):
            def load(path, dim, vocabulary=None, whole=vocabulary == "none"):
                table = load_embeddings(path, dim,
                                        None if whole else vocabulary)
                kept.append((whole, len(table)))
                return table
            monkeypatch.setattr(cli, "load_embeddings", load)
            out = tmp_path / vocabulary
            out.mkdir()
            args = self.ucnet_args(synthetic_dir, out / "ucnet.model")
            args[args.index("--embeddings") + 1] = str(wide)
            assert main([*args, "--predictions", str(out / "pred.csv")]) == 0
            assert main(["pca", "--input", str(synthetic_dir / "corpus.jsonl"),
                         "--model", str(out / "ucnet.model"),
                         "--embeddings", str(wide),
                         "--output", str(out / "pca.csv")]) == 0
            outputs[vocabulary] = [(out / name).read_bytes() for name
                                   in ("ucnet.model", "pred.csv", "pca.csv")]
        assert outputs["corpus"] == outputs["none"]
        dataset = corpus.load_dataset(synthetic_dir / "corpus.jsonl", "c")
        used = comment_vocabulary(c.text for r in dataset for c in r.comments)
        assert kept == [(False, len(used & set(table.vocab)))] * 2 \
            + [(True, len(vectors))] * 2

    @pytest.mark.parametrize("flag,value,message", [
        ("--lstm-hidden", "0", "lstm_hidden must be >= 1, got 0"),
        ("--lstm-hidden", "-2", "lstm_hidden must be >= 1, got -2"),
        ("--learning-rate", "nan",
         "learning_rate must be a positive finite number, got nan")])
    def test_degenerate_argument_is_refused(self, synthetic_dir, tmp_path,
                                            capsys, flag, value, message):
        # the flag's last occurrence wins
        args = [*self.ucnet_args(synthetic_dir, tmp_path / "m"), flag, value]
        capsys.readouterr()
        assert main(args) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "m").exists()

    def test_defaults_are_the_training_configs(self):
        args = cli._build_parser()[1]["train-ucnet"].parse_args(
            ["--embeddings", "e.txt", "--output", "m.model"])
        config = network.TrainingConfig(
            learning_rate=args.learning_rate, epochs=args.epochs,
            batch_size=args.batch_size, seed=args.seed,
            max_comments_per_video=args.max_comments,
            max_tokens_per_comment=args.max_tokens)
        assert dataclasses.astuple(config) == \
            dataclasses.astuple(network.TrainingConfig())
        assert args.lstm_hidden == network.DEFAULT_LSTM_HIDDEN

    def test_requires_feature_selection_choice(self, synthetic_dir, tmp_path):
        args = self.ucnet_args(synthetic_dir, tmp_path / "m")
        args.remove("--all-features")
        assert main(args) == 2

    @pytest.mark.parametrize("change,message", [
        ("no-input", "either --train or --input is required"),
        ("no-selection", "either --selected or --all-features is required"),
        ("both-selections", "--selected and --all-features conflict: give a "
                            "prune output or train on all eight features")],
        ids=["no-input", "no-selection", "both-selections"])
    def test_input_and_selection_flags_are_refused_first(
            self, synthetic_dir, tmp_path, capsys, change, message):
        # The scorer would be trained on the titles and saved, and the
        # corpus loaded, before a late refusal: nothing is read or written.
        args = self.ucnet_args(synthetic_dir, tmp_path / "m.model") + [
            "--save-scorer", str(tmp_path / "scorer.model")]
        if change == "no-input":
            del args[args.index("--input"):args.index("--input") + 2]
        elif change == "no-selection":
            args.remove("--all-features")
        else:
            args += ["--selected", str(tmp_path / "missing.json")]
        capsys.readouterr()
        assert main(args) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    def test_non_finite_loss_is_data_error(self, synthetic_dir, tmp_path,
                                           monkeypatch, capsys):
        original = network.UCNetModel.batch_loss_and_gradients
        monkeypatch.setattr(
            network.UCNetModel, "batch_loss_and_gradients",
            lambda self, videos, workspace=None: (
                float("nan"), original(self, videos, workspace)[1]))
        assert main(self.ucnet_args(synthetic_dir, tmp_path / "m")) == 2
        assert "epoch 1, batch 1" in capsys.readouterr().err

    @pytest.mark.parametrize("phrases", [None, "# only a comment\n\n"],
                             ids=["missing", "empty"])
    def test_lexicon_dir_without_phrases_is_data_error(
            self, synthetic_dir, tmp_path, capsys, phrases):
        lexicons = tmp_path / "lexicons"
        shutil.copytree(lexical.default_lexicon_dir(), lexicons)
        path = lexicons / "fakeness_phrases.txt"
        if phrases is None:
            path.unlink()
        else:
            path.write_text(phrases)
        out = tmp_path / "m.model"
        args = self.ucnet_args(synthetic_dir, out) + [
            "--lexicon-dir", str(lexicons)]
        assert main(args) == 2
        assert str(path) in capsys.readouterr().err
        assert not out.exists()

    def test_manifest_records_phrase_digests(self, synthetic_dir, tmp_path):
        out = tmp_path / "m.model"
        assert main(self.ucnet_args(synthetic_dir, out)) == 0
        manifest = json.loads((tmp_path / "m.model.manifest.json").read_text())
        assert manifest["seed"] == 5
        assert sorted(manifest["lexicons"]) == sorted(lexical.LEXICON_FILES)
        assert manifest["lexicons"]["fakeness_phrases.txt"] == hashlib.sha256(
            (lexical.default_lexicon_dir() / "fakeness_phrases.txt")
            .read_bytes()).hexdigest()
        assert "phrases" not in manifest["inputs"]
        assert "embeddings" in manifest["inputs"]

    def test_empty_selection_trains_a_comments_only_model(
            self, synthetic_dir, tmp_path):
        selected = tmp_path / "selected.json"
        selected.write_text('{"selected_indices": []}')
        out = tmp_path / "m.model"
        args = self.ucnet_args(synthetic_dir, out)
        args.remove("--all-features")
        assert main(args + ["--selected", str(selected)]) == 0
        assert network.UCNetModel.load(out).feature_names == ()

    @pytest.mark.parametrize("command", ["train-ucnet", "pca"])
    def test_phrases_flag_is_gone(self, tmp_path, capsys, command):
        assert main([command, "--phrases", str(tmp_path / "p.txt"),
                     "--embeddings", str(tmp_path / "e.txt"),
                     "--output", str(tmp_path / "out")]) == 1
        assert "unrecognized arguments: --phrases" in capsys.readouterr().err


BAD_SELECTIONS = {
    "not-json": "not json",
    "empty": "",
    "no-key": '{"x": 1}',
    "top-level-list": "[0, 1]",
    "not-a-list": '{"selected_indices": 3}',
    "float": '{"selected_indices": [0, 1.5]}',
    "string": '{"selected_indices": ["1"]}',
    "bool": '{"selected_indices": [true]}',
    "duplicate": '{"selected_indices": [1, 2, 1]}',
    "past-the-end": '{"selected_indices": [99]}',
    "eight": '{"selected_indices": [8]}',
    "negative": '{"selected_indices": [-1]}',
}


class TestSelectedFile:
    @pytest.mark.parametrize("command", ["train-classic", "train-ucnet"])
    @pytest.mark.parametrize("content", BAD_SELECTIONS.values(),
                             ids=BAD_SELECTIONS.keys())
    def test_bad_selection_names_file_before_training(
            self, synthetic_dir, tmp_path, capsys, command, content):
        selected = tmp_path / "selected.json"
        selected.write_text(content)
        out = tmp_path / "out.model"
        if command == "train-classic":
            args = ["train-classic", "--features",
                    str(run_features(synthetic_dir, tmp_path)),
                    "--output", str(out)]
        else:
            # read before the scorer is trained and saved
            args = TestTrainUcnetCommand().ucnet_args(synthetic_dir, out) + [
                "--save-scorer", str(tmp_path / "scorer.model")]
            args.remove("--all-features")
        capsys.readouterr()
        assert main(args + ["--selected", str(selected)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {selected}: ")
        assert "Traceback" not in err
        assert not out.exists()
        assert not (tmp_path / "scorer.model").exists()


class TestPcaCommand:
    def test_pca_on_features(self, synthetic_dir, tmp_path):
        features = run_features(synthetic_dir, tmp_path)
        out = tmp_path / "proj.csv"
        assert main(["pca", "--features", str(features),
                     "--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "video_id,pc1,pc2,label"
        assert len(lines) == 25

    def test_pca_on_unified_embeddings(self, synthetic_dir, tmp_path):
        model = tmp_path / "m.model"
        args = TestTrainUcnetCommand().ucnet_args(synthetic_dir, model)
        assert main(args) == 0
        out = tmp_path / "unified.csv"
        assert main(["pca", "--input", str(synthetic_dir / "corpus.jsonl"),
                     "--model", str(model),
                     "--embeddings", str(synthetic_dir / "embeddings.txt"),
                     "--output", str(out)]) == 0
        assert out.read_text().splitlines()[0] == "video_id,pc1,pc2,label"

    def test_pca_reads_the_phrase_list_from_the_model_file(
            self, synthetic_dir, tmp_path, monkeypatch):
        lexicons = tmp_path / "lexicons"
        shutil.copytree(lexical.default_lexicon_dir(), lexicons)
        with (lexicons / "fakeness_phrases.txt").open("a") as fh:
            fh.write("totally staged\n")
        model = tmp_path / "m.model"
        args = TestTrainUcnetCommand().ucnet_args(synthetic_dir, model)
        assert main(args + ["--lexicon-dir", str(lexicons)]) == 0
        out = tmp_path / "unified.csv"
        assert main(["pca", "--input", str(synthetic_dir / "corpus.jsonl"),
                     "--model", str(model),
                     "--embeddings", str(synthetic_dir / "embeddings.txt"),
                     "--output", str(out)]) == 0

        loaded = network.UCNetModel.load(model)
        assert loaded.phrases == lexical.LexiconSet.from_directory(
            lexicons).fakeness_phrases
        assert loaded.phrases[-1] == "totally staged"
        dataset = corpus.load_dataset(synthetic_dir / "corpus.jsonl", "s")
        table = load_embeddings(synthetic_dir / "embeddings.txt", 8)
        projected, _ = evaluation.pca_project(
            network.extract_unified_embeddings(dataset, table, loaded), 2)
        expected = tmp_path / "expected.csv"
        evaluation.export_report(projected, expected, video_ids=dataset.ids(),
                                 labels=[r.label for r in dataset])
        assert out.read_bytes() == expected.read_bytes()

    def test_pca_overflow_names_the_file(self, synthetic_dir, tmp_path,
                                         capsys):
        features = extreme_features(synthetic_dir, tmp_path)
        out = tmp_path / "proj.csv"
        capsys.readouterr()
        assert main(["pca", "--features", str(features),
                     "--output", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {features}: a principal component's projection or "
            "variance exceeds the float64 range\n")
        assert not out.exists()

    def test_pca_of_a_constant_column_near_the_float_maximum(
            self, synthetic_dir, tmp_path):
        path = run_features(synthetic_dir, tmp_path)
        rows = list(csv.reader(path.open()))
        for row in rows[1:]:
            row[1] = "1.7e308"
        corpus.write_csv(path, rows[0], rows[1:])
        assert main(["pca", "--features", str(path),
                     "--output", str(tmp_path / "proj.csv")]) == 0

    def test_pca_requires_a_source(self, tmp_path):
        assert main(["pca", "--output", str(tmp_path / "x.csv")]) == 2

    @pytest.mark.parametrize("beside,named", [
        (("--input",), "--input"),
        (("--input", "--model"), "--input and --model"),
        (("--input", "--model", "--embeddings"),
         "--input and --model and --embeddings"),
        (("--embeddings",), "--embeddings")],
        ids=["input", "input-model", "input-model-embeddings", "embeddings"])
    def test_features_beside_a_corpus_flag_is_refused_first(
            self, tmp_path, capsys, beside, named):
        # Neither source would be projected as asked; no file named exists,
        # and the refusal comes before any input is read.
        argv = ["pca", "--features", str(tmp_path / "missing.csv"),
                "--output", str(tmp_path / "proj.csv")]
        for flag in beside:
            argv += [flag, str(tmp_path / f"no{flag.strip('-')}")]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: --features and {named} conflict: pca projects either a "
            "feature table or a corpus's unified embeddings\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("content", [
        b"tensors 2\ntensor a\ndata 0\n",
        b"tensors 1\ntensor a\n",
        b"tensors x\n",
        b"tensors 2\nmeta kind ucnet\ntensor a 1 2\ndata 16\n" + bytes(8),
    ])
    def test_malformed_model_file_is_data_error(self, synthetic_dir, tmp_path,
                                                capsys, content):
        model = tmp_path / "bad.model"
        model.write_bytes(content)
        assert main(["pca", "--input", str(synthetic_dir / "corpus.jsonl"),
                     "--model", str(model),
                     "--embeddings", str(synthetic_dir / "embeddings.txt"),
                     "--output", str(tmp_path / "x.csv")]) == 2
        assert str(model) in capsys.readouterr().err


    @pytest.fixture()
    def model_file(self, tmp_path):
        phrases = lexical.load_fakeness_phrases()
        params = network.init_params(np.random.default_rng(0), 8, len(phrases),
                                     2, lstm_hidden=3)
        path = tmp_path / "ucnet.model"
        network.UCNetModel(params, phrases, ("a", "b"), 8).save(path)
        return path

    def run_pca(self, synthetic_dir, model, embeddings, tmp_path):
        return main(["pca", "--input", str(synthetic_dir / "corpus.jsonl"),
                     "--model", str(model), "--embeddings", str(embeddings),
                     "--output", str(tmp_path / "x.csv")])

    def test_untrained_model_file_runs(self, synthetic_dir, tmp_path,
                                       model_file):
        assert self.run_pca(synthetic_dir, model_file,
                            synthetic_dir / "embeddings.txt", tmp_path) == 0

    @pytest.mark.parametrize("entry,value", [
        ("lstm.wx", np.zeros((12, 5))), ("output.bias", np.zeros(3)),
        ("epochs", "ten"), ("max_tokens_per_comment", "1.5"),
        ("lstm.wx", np.full((12, 8), 1e300)), ("phrases", "[]"),
        ("phrases", '["fake", ""]')])
    def test_model_entry_that_does_not_fit_is_data_error(
            self, synthetic_dir, tmp_path, capsys, model_file, entry, value):
        from ucnet import serialize
        tensors, meta = serialize.load_tensors(model_file)
        (meta if isinstance(value, str) else tensors)[entry] = value
        serialize.save_tensors(model_file, tensors, meta)
        assert self.run_pca(synthetic_dir, model_file,
                            synthetic_dir / "embeddings.txt", tmp_path) == 2
        err = capsys.readouterr().err
        assert str(model_file) in err and entry in err

    def test_overflowing_weight_head_names_the_model_file(
            self, synthetic_dir, tmp_path, capsys, model_file):
        # Finite weights the loader accepts, whose weighted sums leave the
        # float range: refused naming the model, with no warning on the way.
        tensors, meta = serialize.load_tensors(model_file)
        weights = tensors["weight_head.weights"]
        weights[0, ::2], weights[0, 1::2] = 1e308, -1e308
        serialize.save_tensors(model_file, tensors, meta)
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert self.run_pca(synthetic_dir, model_file,
                                synthetic_dir / "embeddings.txt",
                                tmp_path) == 2
        assert capsys.readouterr().err.startswith(f"error: {model_file}: ")
        assert not (tmp_path / "x.csv").exists()

    # Lines 2 and 3 hold "the" and "this", which the corpus's comments use.
    @pytest.mark.parametrize("line,bad", [
        (1, "x 8"), (3, "this 1 2 3 4 5 6 7 x"), (2, "the nan 0 0 0 0 0 0 0")])
    def test_bad_embedding_file_is_data_error(self, synthetic_dir, tmp_path,
                                              capsys, model_file, line, bad):
        lines = (synthetic_dir / "embeddings.txt").read_text().splitlines()
        lines[line - 1] = bad
        embeddings = tmp_path / "bad.txt"
        embeddings.write_text("\n".join(lines) + "\n")
        assert self.run_pca(synthetic_dir, model_file, embeddings,
                            tmp_path) == 2
        assert f"{embeddings}: line {line}:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["pca", "train-ucnet"])
    def test_a_row_beyond_float32_names_the_embedding_file(
            self, synthetic_dir, tmp_path, capsys, model_file, command):
        # Finite in float64, but the float32 LSTM would overflow gathering
        # it: refused at load, naming the file and line, with no warning.
        lines = (synthetic_dir / "embeddings.txt").read_text().splitlines()
        assert lines[1].split()[0] == "the"
        lines[1] = "the 1e308" + " 0" * 7
        embeddings = tmp_path / "huge.txt"
        embeddings.write_text("\n".join(lines) + "\n")
        out = tmp_path / "x.out"
        argv = ["pca", "--input", str(synthetic_dir / "corpus.jsonl"),
                "--model", str(model_file), "--embeddings", str(embeddings),
                "--output", str(out)] if command == "pca" else \
            [*TestTrainUcnetCommand().ucnet_args(synthetic_dir, out),
             "--embeddings", str(embeddings)]
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {embeddings}: line 2: token 'the' ")
        assert "float32" in err and not out.exists()

    @pytest.mark.parametrize("values", ["1 2 3 4 5 6 7 x", "nan 0 0 0 0 0 0 0"])
    def test_bad_values_in_a_row_the_corpus_never_uses_are_dropped(
            self, synthetic_dir, tmp_path, model_file, values):
        dataset = corpus.load_dataset(synthetic_dir / "corpus.jsonl", "c")
        used = comment_vocabulary(c.text for r in dataset for c in r.comments)
        lines = (synthetic_dir / "embeddings.txt").read_text().splitlines()
        line = next(i for i, text in enumerate(lines[1:], 1)
                    if text.split()[0] not in used)
        lines[line] = lines[line].split()[0] + " " + values
        embeddings = tmp_path / "unused.txt"
        embeddings.write_text("\n".join(lines) + "\n")
        assert self.run_pca(synthetic_dir, model_file, embeddings,
                            tmp_path) == 0
        clean = tmp_path / "clean"
        clean.mkdir()
        assert self.run_pca(synthetic_dir, model_file,
                            synthetic_dir / "embeddings.txt", clean) == 0
        assert (tmp_path / "x.csv").read_bytes() == \
            (clean / "x.csv").read_bytes()


class TestConfigFile:
    def test_config_sets_defaults_and_flags_override(self, synthetic_dir,
                                                     tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("min-views=0\nmin-comments=0\nrounds=1\n"
                          "min-dislike-ratio=0.0\n")
        data = tmp_path / "pool.jsonl"
        records = [make_video("a", comments=[make_comment("c", "fake fake fake")],
                              views=5, likes=1, dislikes=1)]
        corpus.save_dataset(make_dataset(records), data)
        out = tmp_path / "mined.jsonl"
        assert main(["--config", str(config), "mine", "--input", str(data),
                     "--output", str(out)]) == 0
        assert corpus.load_dataset(out, "m").ids() == ("a",)
        # explicit flag beats the config value
        out2 = tmp_path / "mined2.jsonl"
        assert main(["--config", str(config), "mine", "--input", str(data),
                     "--output", str(out2), "--min-views", "1000"]) == 0
        assert len(corpus.load_dataset(out2, "m2")) == 0

    def test_unknown_config_key_is_usage_error(self, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("definitely-not-a-flag=1\n")
        assert main(["--config", str(config), "evaluate", "--pred", "x",
                     "--truth", "y", "--output", "z"]) == 1

    def test_lines_are_the_subcommands_flags(self, synthetic_dir, tmp_path):
        # The config supplies the required --embeddings, a switch as its key
        # alone and a key spelled with "_"; the command line's --epochs
        # overrides the config's.
        config = tmp_path / "run.cfg"
        config.write_text(
            f"embeddings = {synthetic_dir / 'embeddings.txt'}\n"
            f"train_titles={synthetic_dir / 'titles.tsv'}\n"
            "embedding_dim=8\nall-features\nlstm-hidden=4\nepochs=3\n")
        out = tmp_path / "m"
        assert main(["--config", str(config), "train-ucnet", "--input",
                     str(synthetic_dir / "corpus.jsonl"), "--output", str(out),
                     "--epochs", "1"]) == 0
        arguments = json.loads(
            (tmp_path / "m.manifest.json").read_text())["arguments"]
        assert arguments["embeddings"] == str(synthetic_dir / "embeddings.txt")
        assert (arguments["all_features"], arguments["embedding_dim"],
                arguments["lstm_hidden"], arguments["epochs"]) == (True, 8, 4, 1)

    @pytest.mark.parametrize("line,argv,message", [
        ("model=svm", ["train-classic", "--features", "f", "--output", "o"],
         "argument --model: invalid choice: 'svm'"),
        ("trees=abc", ["prune", "--features", "f", "--output", "o"],
         "argument --trees: invalid int value: 'abc'"),
        ("all-features=maybe", ["train-ucnet", "--embeddings", "e",
                                "--output", "o"],
         "argument --all-features: ignored explicit argument 'maybe'"),
        ("trees", ["prune", "--features", "f", "--output", "o"],
         "argument --trees: expected one argument"),
        ("lstm-hidden=2", ["evaluate", "--pred", "p", "--truth", "t",
                           "--output", "o"],
         "unrecognized arguments: --lstm-hidden=2"),
        # A flag is written in full: --train is not --train-titles.
        ("train=t", ["features", "--input", "i", "--output", "o"],
         "unrecognized arguments: --train=t"),
    ], ids=["choice", "type", "switch-value", "no-value", "other-subcommand",
            "abbreviation"])
    def test_a_line_the_subcommand_refuses_is_a_usage_error(
            self, tmp_path, capsys, line, argv, message):
        config = tmp_path / "bad.cfg"
        config.write_text(line + "\n")
        capsys.readouterr()
        assert main(["--config", str(config), *argv]) == 1
        assert message in capsys.readouterr().err

    def test_a_refused_line_names_the_file_and_line(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        prune = ["prune", "--features", "f.csv"]
        # Line 1 gives the required --output, which no line alone misses.
        config.write_text("output=o.txt\n# shared\ntrees=5\n\ntrees=abc\n"
                          "seed=x\n")
        capsys.readouterr()
        assert main(["--config", str(config), *prune]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: ucnet prune")
        assert err.endswith(f"ucnet prune: error: {config}: line 5: argument "
                            "--trees: invalid int value: 'abc'\n")
        config.write_text("output=o.txt\nlstm-hidden=2\n")
        assert main(["--config", str(config), *prune]) == 1
        assert (f"error: {config}: line 2: unrecognized arguments: "
                "--lstm-hidden=2") in capsys.readouterr().err
        # No line is refused: argparse's message stands.
        config.write_text("trees=5\n")
        assert main(["--config", str(config), *prune]) == 1
        err = capsys.readouterr().err
        assert "the following arguments are required: --output" in err
        assert str(config) not in err
        # The command line is refused without the config: its own message.
        assert main(["--config", str(config), *prune, "--output", "o",
                     "--max-depth", "x"]) == 1
        err = capsys.readouterr().err
        assert "argument --max-depth: invalid int value: 'x'" in err
        assert str(config) not in err

    def test_a_word_after_the_subcommand_is_refused(self, synthetic_dir,
                                                    tmp_path, capsys):
        # Were the key-alone line "input" let through, it would take the
        # corpus path after the subcommand as its value.
        config = tmp_path / "run.cfg"
        config.write_text("input\n")
        out = tmp_path / "f.csv"
        capsys.readouterr()
        assert main(["--config", str(config), "features",
                     str(synthetic_dir / "corpus.jsonl"), "--output", str(out),
                     "--train-titles", str(synthetic_dir / "titles.tsv")]) == 1
        assert (f"{config}: line 1: argument --input: expected one argument"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("lines,argv,line,message", [
        # The help line once printed the help and exited 0, unnoticed.
        ("trees=5\nhelp\n", ["--features", "none.csv", "--output", "s.json"],
         2, "unrecognized arguments: --help"),
        # The unknown line went unnamed beside two lines of required flags.
        ("features=f\noutput=o\nlstm-hidden=2\n", [], 3,
         "unrecognized arguments: --lstm-hidden=2"),
        # The refused line came after the help text on stdout.
        ("trees=abc\nhelp\n", ["--features", "f", "--output", "o"], 1,
         "argument --trees: invalid int value: 'abc'"),
        ("h\n", ["--features", "f", "--output", "o"], 1,
         "unrecognized arguments: --h"),
    ], ids=["help", "unknown-beside-required", "refused-then-help", "h"])
    def test_a_refused_line_is_named_and_nothing_runs(
            self, tmp_path, capsys, lines, argv, line, message):
        config = tmp_path / "run.cfg"
        config.write_text(lines)
        capsys.readouterr()
        assert main(["--config", str(config), "prune", *argv]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage: ucnet prune [-h] --features FEATURES")
        assert err.endswith(
            f"ucnet prune: error: {config}: line {line}: {message}\n")
        assert not (tmp_path / "s.json").exists()

    @pytest.mark.parametrize("subcommand,message", [
        ([], "the following arguments are required: SUBCOMMAND"),
        (["bogus"], "argument SUBCOMMAND: invalid choice: 'bogus'"),
    ], ids=["none", "unknown"])
    def test_a_config_without_a_known_subcommand_keeps_argparses_message(
            self, tmp_path, capsys, subcommand, message):
        config = tmp_path / "run.cfg"
        config.write_text("trees=abc\nhelp\n")
        capsys.readouterr()
        assert main(["--config", str(config), *subcommand]) == 1
        out, err = capsys.readouterr()
        assert out == "" and "Traceback" not in err
        assert err.startswith("usage: ucnet [-h] [--version] SUBCOMMAND")
        assert f"ucnet: error: {message}" in err and str(config) not in err

    def test_config_is_read_only_before_the_subcommand(
            self, synthetic_dir, tmp_path, capsys, monkeypatch):
        # After the subcommand, --config is a word like any other: here the
        # path that --output names.
        monkeypatch.chdir(tmp_path)
        argv = ["features", "--input", str(synthetic_dir / "corpus.jsonl"),
                "--train-titles", str(synthetic_dir / "titles.tsv")]
        assert main([*argv, "--output=--config"]) == 0
        assert (tmp_path / "--config").is_file()
        capsys.readouterr()
        assert main([*argv, "--output", "x", "--config", "y"]) == 1
        assert "unrecognized arguments: --config y" in capsys.readouterr().err
        assert main(["--config"]) == 1
        assert "--config requires a file argument" in capsys.readouterr().err


class TestLexiconDir:
    def test_config_line_sets_the_lexicon_dir(self, synthetic_dir, tmp_path):
        # The manifest's arguments record a directory a config line names.
        custom = tmp_path / "lexicons"
        shutil.copytree(lexical.default_lexicon_dir(), custom)
        with (custom / "fakeness_phrases.txt").open("a") as fh:
            fh.write("totally staged\n")
        config = tmp_path / "run.cfg"
        config.write_text(f"lexicon-dir={custom}\n")
        features = tmp_path / "features.csv"
        model = tmp_path / "m.model"
        commands = (
            ["features", "--input", str(synthetic_dir / "corpus.jsonl"),
             "--output", str(features),
             "--train-titles", str(synthetic_dir / "titles.tsv")],
            TestTrainUcnetCommand().ucnet_args(synthetic_dir, model))
        digests = {name: hashlib.sha256((custom / name).read_bytes()
                                        ).hexdigest()
                   for name in lexical.LEXICON_FILES}
        for argv, out in zip(commands, (features, model)):
            assert main(["--config", str(config), *argv]) == 0
            manifest = json.loads(
                Path(f"{out}.manifest.json").read_text(encoding="utf-8"))
            assert manifest["arguments"]["lexicon_dir"] == str(custom)
            assert manifest["lexicons"] == digests
        assert network.UCNetModel.load(model).phrases[-1] == "totally staged"

    def test_invalid_pattern_names_file_and_line(self, synthetic_dir, tmp_path,
                                                 capsys):
        custom = tmp_path / "lexicons"
        shutil.copytree(lexical.default_lexicon_dir(), custom)
        patterns = custom / "fakeness_patterns.txt"
        lines = patterns.read_text().splitlines() + ["(unclosed"]
        patterns.write_text("\n".join(lines) + "\n")
        code = main(["features", "--input", str(synthetic_dir / "corpus.jsonl"),
                     "--output", str(tmp_path / "features.csv"),
                     "--train-titles", str(synthetic_dir / "titles.tsv"),
                     "--lexicon-dir", str(custom)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{patterns}: line {len(lines)}:" in err and "(unclosed" in err


def readme_commands(prefix="ucnet ") -> list[str]:
    """Every command of the README's ``sh`` blocks that starts with
    ``prefix``, with its continuation lines joined."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    commands, in_sh = [], False
    for line in text.replace("\\\n", " ").splitlines():
        if line.startswith("```"):
            in_sh = line == "```sh"
        elif in_sh and line.startswith(prefix):
            commands.append(" ".join(line.split()))
    return commands


def readme_config_lines() -> dict[str, list[str]]:
    """The lines each ``printf '%s\\n' LINE... > FILE`` of the README's
    ``sh`` blocks writes, by FILE."""
    files = {}
    for command in readme_commands("printf "):
        words = shlex.split(command)
        assert words[1] == "%s\\n" and words[-2] == ">", command
        files[words[-1]] = words[2:-2]
    return files


def readme_subcommand(command: str) -> str:
    words = command.split()
    return words[3] if words[1] == "--config" else words[1]


def test_readme_shows_every_subcommand():
    _, subs = cli._build_parser()
    assert set(map(readme_subcommand, readme_commands())) == set(subs)


@pytest.mark.parametrize("command", readme_commands(), ids=readme_subcommand)
def test_readme_command_parses(command, tmp_path):
    parser, _ = cli._build_parser()
    words = shlex.split(command)[1:]
    if words[0] == "--config":  # the config's lines come from its printf
        config = tmp_path / "run.cfg"
        config.write_text("".join(line + "\n" for line
                                  in readme_config_lines()[words[1]]))
        lenient = cli._build_parser(strict=False)[1][words[2]]
        words = [words[2], *cli._config_flags(config, lenient), *words[3:]]
    try:
        args = parser.parse_args(words)
    except SystemExit:
        pytest.fail(f"README command does not parse: {command}")
    assert callable(args.func)
