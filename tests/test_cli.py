import csv
import hashlib
import json
import shlex
import shutil
from pathlib import Path

import numpy as np
import pytest

from ucnet import classic, cli, corpus, evaluation, lexical, network
from ucnet.cli import main
from ucnet.embeddings import load_embeddings

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


class TestEvaluateCommand:
    def test_perfect_predictions_score_one(self, tmp_path, capsys):
        pred = tmp_path / "p.csv"
        truth = tmp_path / "t.csv"
        pred.write_text("video_id,label,p_fake\na,fake,0.9\nb,real,0.1\n")
        truth.write_text("video_id,label\na,fake\nb,real\n")
        out = tmp_path / "report.csv"
        code = main(["evaluate", "--pred", str(pred), "--truth", str(truth),
                     "--output", str(out)])
        assert code == 0
        assert "macro_f1=1.0000" in capsys.readouterr().out
        rows = out.read_text().splitlines()
        assert rows[0] == "class,precision,recall,f1,support"
        assert rows[-1].startswith("macro,1,1,1,")

    @pytest.mark.parametrize("bad_row", ["", "b", "b,real,high"])
    def test_blank_short_or_bad_row_names_file_and_line(self, tmp_path, capsys,
                                                         bad_row):
        pred = tmp_path / "p.csv"
        truth = tmp_path / "t.csv"
        pred.write_text(f"video_id,label,p_fake\na,fake,0.9\n{bad_row}\n")
        truth.write_text("video_id,label\na,fake\nb,real\n")
        code = main(["evaluate", "--pred", str(pred), "--truth", str(truth),
                     "--output", str(tmp_path / "r.csv")])
        assert code == 2
        assert f"{pred}: line 3:" in capsys.readouterr().err

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

    @pytest.mark.parametrize("damage", ["blank", "short", "non-numeric"])
    def test_bad_feature_row_names_file_and_line(self, synthetic_dir, tmp_path,
                                                 capsys, damage):
        features = run_features(synthetic_dir, tmp_path)
        lines = features.read_text().splitlines()
        fields = lines[2].split(",")
        lines[2] = {"blank": "",
                    "short": ",".join(fields[:-2]),
                    "non-numeric": ",".join([fields[0], "x", *fields[2:]]),
                    }[damage]
        features.write_text("\n".join(lines) + "\n")
        code = main(["prune", "--features", str(features),
                     "--output", str(tmp_path / "selected.json")])
        assert code == 2
        assert f"{features}: line 3:" in capsys.readouterr().err


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
        trained = train(X, cli._classic_labels(labels, features))
        expected = trained.predict_proba_fake(X)
        _, predicted, p_fake = cli._read_predictions_csv(predictions)
        assert np.array_equal(p_fake, expected)
        assert predicted == [evaluation.classify(p) for p in expected]
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
        report = tmp_path / "report.csv"
        assert main(["evaluate", "--pred", str(predictions),
                     "--truth", str(truth), "--output", str(report)]) == 0
        assert report.exists()

    def test_requires_feature_selection_choice(self, synthetic_dir, tmp_path):
        args = self.ucnet_args(synthetic_dir, tmp_path / "m")
        args.remove("--all-features")
        assert main(args) == 2

    def test_non_finite_loss_is_data_error(self, synthetic_dir, tmp_path,
                                           monkeypatch, capsys):
        original = network.UCNetModel.batch_loss_and_gradients
        monkeypatch.setattr(
            network.UCNetModel, "batch_loss_and_gradients",
            lambda self, videos: (float("nan"), original(self, videos)[1]))
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
            args = TestTrainUcnetCommand().ucnet_args(synthetic_dir, out)
            args.remove("--all-features")
        capsys.readouterr()
        assert main(args + ["--selected", str(selected)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {selected}: ")
        assert "Traceback" not in err
        assert not out.exists()


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
        monkeypatch.delenv(cli.ENV_LEXICON_DIR, raising=False)
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

    def test_pca_requires_a_source(self, tmp_path):
        assert main(["pca", "--output", str(tmp_path / "x.csv")]) == 2

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

    @pytest.mark.parametrize("line,bad", [
        (1, "x 8"), (3, "tok 1 2 3 4 5 6 7 x"), (2, "tok nan 0 0 0 0 0 0 0")])
    def test_bad_embedding_file_is_data_error(self, synthetic_dir, tmp_path,
                                              capsys, model_file, line, bad):
        lines = (synthetic_dir / "embeddings.txt").read_text().splitlines()
        lines[line - 1] = bad
        embeddings = tmp_path / "bad.txt"
        embeddings.write_text("\n".join(lines) + "\n")
        assert self.run_pca(synthetic_dir, model_file, embeddings,
                            tmp_path) == 2
        assert f"{embeddings}: line {line}:" in capsys.readouterr().err


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


class TestLexiconDirEnv:
    def test_env_var_used_for_default_lexicons(self, synthetic_dir, tmp_path,
                                               monkeypatch):
        custom = tmp_path / "lexicons"
        shutil.copytree(lexical.default_lexicon_dir(), custom)
        monkeypatch.setenv(cli.ENV_LEXICON_DIR, str(custom))
        out = tmp_path / "features.csv"
        code = main(["features", "--input", str(synthetic_dir / "corpus.jsonl"),
                     "--output", str(out),
                     "--train-titles", str(synthetic_dir / "titles.tsv")])
        assert code == 0
        manifest = json.loads((tmp_path / "features.csv.manifest.json").read_text())
        assert manifest["lexicons"]

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


def readme_commands() -> list[str]:
    """Every ``ucnet ...`` command of the README's ``sh`` blocks, with its
    continuation lines joined."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    commands, in_sh = [], False
    for line in text.replace("\\\n", " ").splitlines():
        if line.startswith("```"):
            in_sh = line == "```sh"
        elif in_sh and line.startswith("ucnet "):
            commands.append(" ".join(line.split()))
    return commands


def test_readme_shows_every_subcommand():
    _, subs = cli._build_parser()
    assert {command.split()[1] for command in readme_commands()} == set(subs)


@pytest.mark.parametrize("command", readme_commands(), ids=lambda command:
                         command.split()[1])
def test_readme_command_parses(command):
    parser, _ = cli._build_parser()
    try:
        args = parser.parse_args(shlex.split(command)[1:])
    except SystemExit:
        pytest.fail(f"README command does not parse: {command}")
    assert callable(args.func)
