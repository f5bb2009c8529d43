"""Subcommands run through ``cli.main`` on files every reader accepts, with
values at their edges. Each run exits 0 or 2 without a traceback or a
RuntimeWarning, and an exit-0 output reads back through its own reader.
A run under a ``--config`` file may also exit 1, exactly when the file
holds a line the subcommand's parser refuses.

Tier-1 runs each test derandomized and short. CI runs this file again with
``--hypothesis-profile=cli-fuzz-deep`` (registered in ``conftest.py``),
whose larger, randomized runs the tests then take."""

import contextlib
import io
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ucnet import (classic, cli, corpus, evaluation, network, serialize,
                   synthetic)
from ucnet.embeddings import load_embeddings, save_embeddings
from ucnet.lexical import FEATURE_NAMES

from conftest import make_comment, make_dataset, make_video

# Counts a JSON int may hold: an int64's overflow and one beyond the float
# range, as well as the ordinary edges.
INT_EDGES = [0, 1, 2**63, 10**400]
RECORD_INTS = [key for key, kind in corpus._RECORD_KEYS.items() if kind is int]
COMMENT_INTS = [key for key, kind in corpus._COMMENT_KEYS.items()
                if kind is int]


# Feature values a CSV may hold: zeros of both signs, subnormals, the
# smallest normal, ordinary values and values near the float64 maximum.
MAX = float(np.finfo(np.float64).max)
FLOAT_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 0.5,
               -1.0, 3.0, 9e307, -9e307, 1.7e308, -1.7e308, MAX, -MAX]


def fuzz_settings(max_examples: int, deep_examples: int | None = None
                  ) -> settings:
    """Derandomized settings of ``max_examples`` examples, or the loaded
    profile's when it is ``cli-fuzz-deep``, capped at ``deep_examples``."""
    if settings.get_current_profile_name() == "cli-fuzz-deep":
        return settings(max_examples=deep_examples) if deep_examples \
            else settings()
    return settings(derandomize=True, max_examples=max_examples,
                    deadline=None)


def edge_counts(keys):
    return st.fixed_dictionaries({key: st.sampled_from(INT_EDGES)
                                  for key in keys})


# Width of the embedding table the workdir holds for train-ucnet and pca.
EMBEDDING_DIM = 4


@pytest.fixture(scope="module")
def workdir(tmp_path_factory, scorer, lexicons):
    out = tmp_path_factory.mktemp("cli-fuzz")
    scorer.save(out / "scorer.model")
    save_embeddings(synthetic.make_embedding_table(1, EMBEDDING_DIM, lexicons),
                    out / "embeddings.txt")
    return out


def run(argv, codes=(0, 2)) -> int:
    """``cli.main(argv)``'s exit status, one of ``codes``; a RuntimeWarning
    raises."""
    return run_with_stderr(argv, codes)[0]


def run_with_stderr(argv, codes=(0, 2)) -> tuple[int, str]:
    """:func:`run`'s exit status and what the run wrote to stderr."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()), \
            warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = cli.main(argv)
    assert code in codes, err.getvalue()
    assert "Traceback" not in err.getvalue()
    return code, err.getvalue()


class TestEdgeCounts:
    @fuzz_settings(100)
    @given(counts=edge_counts(RECORD_INTS),
           comment_counts=edge_counts(COMMENT_INTS))
    def test_features_and_mine(self, workdir, counts, comment_counts):
        comment = {"id": "c1", "text": "fake fake fake",
                   "published_at": "2015-01-01T00:00:00Z", **comment_counts}
        record = {"id": "v1", "title": "You WON'T believe this",
                  "description": "", "tags": [], "comments": [comment],
                  "label": "fake", **counts}
        data = workdir / "corpus.jsonl"
        data.write_text(json.dumps(record) + "\n")

        features = workdir / "features.csv"
        if run(["features", "--input", str(data), "--output", str(features),
                "--scorer", str(workdir / "scorer.model")]) == 0:
            ids, matrix, _ = cli._read_features_csv(features)
            assert ids == ["v1"] and np.isfinite(matrix).all()

        mined = workdir / "mined.jsonl"
        if run(["mine", "--input", str(data), "--output", str(mined),
                "--min-views", "0", "--min-comments", "0"]) == 0:
            assert corpus.load_dataset(mined, "mined").ids() in ((), ("v1",))


@st.composite
def feature_tables(draw):
    """(columns, labels) of a features CSV of 2-6 rows. The table draws a
    few edge values; a column holds them cell by cell, one of them in every
    row, or an earlier column's values."""
    n = draw(st.integers(2, 6))
    cells = st.sampled_from(draw(st.lists(st.sampled_from(FLOAT_EDGES),
                                          min_size=1, max_size=4,
                                          unique=True)))
    columns = []
    for _ in FEATURE_NAMES:
        kind = draw(st.sampled_from(["cells", "constant", "duplicate"]))
        if kind == "duplicate" and columns:
            columns.append(draw(st.sampled_from(columns)))
        elif kind == "constant":
            columns.append([draw(cells)] * n)
        else:
            columns.append(draw(st.lists(cells, min_size=n, max_size=n)))
    labels = draw(st.lists(st.sampled_from(["fake", "real"]), min_size=n,
                           max_size=n))
    return columns, labels


class TestEdgeFeatures:
    @fuzz_settings(30)
    @given(table=feature_tables())
    def test_prune_train_classic_and_pca(self, workdir, table):
        columns, labels = table
        features = workdir / "edge-features.csv"
        ids = [f"v{i}" for i in range(len(labels))]
        corpus.write_csv(features, ("video_id", *FEATURE_NAMES, "label"),
                         ([vid, *row, label] for vid, *row, label
                          in zip(ids, *columns, labels)))
        assert cli._read_features_csv(features)[0] == ids

        selected = workdir / "selected.json"
        if run(["prune", "--features", str(features), "--output",
                str(selected), "--trees", "5"]) == 0:
            cli._load_selected(selected)
            importances = json.loads(selected.read_text())["importances"]
            assert np.isfinite(importances).all()

        model, predictions = workdir / "classic.model", workdir / "pred.csv"
        for kind in ("forest", "tree", "logistic"):
            if run(["train-classic", "--model", kind, "--features",
                    str(features), "--test-features", str(features),
                    "--predictions", str(predictions), "--output", str(model),
                    "--trees", "5"]) == 0:
                classic.load_model(model)
                assert list(cli._read_labels_csv(predictions)) == ids

        projection = workdir / "pca.csv"
        if run(["pca", "--features", str(features), "--output",
                str(projection)]) == 0:
            header = ("video_id", "pc1", "pc2", "label")
            rows = [[corpus.csv_number(where, name, text)
                     for name, text in zip(header[1:3], row[1:3])]
                    for where, row in corpus.read_csv(projection, header)]
            assert len(rows) == len(ids)


# p_fake cells of a predictions CSV: both ends, the tie, the smallest
# subnormal, a negative zero, the last double below 1 and the first above
# it, a huge value and the non-finite words.
P_FAKE_CELLS = ["0", "1", "0.5", "5e-324", "-0.0", repr(1 - 2**-53),
                repr(math.nextafter(1.0, 2.0)), "1e308", "nan", "inf"]
# Ids a file may hold, the empty one and one that differs from another only
# by a space among them.
IDS = ["v0", "v1", " v1", "", "v2", "v3"]
# At most one defect an example: an id repeated, an id of one file missing
# from the other or extra in it, an unknown label or a field holding a tab.
# Four draws in nine have none, so exit-0 outputs get read back too.
DEFECTS = ["none"] * 4 + ["duplicate", "missing", "extra", "label", "tab"]
# Predictions files may also hold a label that contradicts its p_fake.
PREDICTION_DEFECTS = DEFECTS + ["contradicts"]


@st.composite
def label_files(draw, labels, unknown, cells=(None, None), defects=DEFECTS):
    """Rows of two files over the same ids, with at most one of ``defects``.
    A row is (id, label) where the file's entry of ``cells`` is None, and
    (id, classify(p_fake), p_fake cell) otherwise, its cell drawn from a
    few of them. A contradiction flips a label of the first file, which
    has cells."""
    defect = draw(st.sampled_from(defects))
    ids = draw(st.lists(st.sampled_from(IDS), min_size=1, max_size=5,
                        unique=True))
    files = []
    for file_cells in cells:
        order = draw(st.permutations(ids))
        if file_cells is None:
            rows = [[vid, draw(st.sampled_from(labels))] for vid in order]
        else:
            some = st.sampled_from(draw(st.lists(st.sampled_from(file_cells),
                                                 min_size=1, max_size=2,
                                                 unique=True)))
            rows = []
            for vid in order:
                cell = draw(some)
                rows.append([vid, evaluation.classify(float(cell)), cell])
        files.append(rows)
    rows = files[0 if defect == "contradicts" else draw(st.integers(0, 1))]
    row = draw(st.sampled_from(rows))
    if defect == "duplicate":
        rows.append(list(row))
    elif defect == "missing":
        rows.remove(row)
    elif defect == "extra":
        rows.append([f"{row[0]}x", *row[1:]])
    elif defect == "label":
        row[1] = unknown
    elif defect == "contradicts":
        row[1] = {"fake": "real", "real": "fake"}[row[1]]
    elif defect == "tab":
        row[draw(st.integers(0, 1))] += "\tv9"
    return files


@st.composite
def prediction_files(draw):
    """Predictions and truth CSV rows; the truth is a labels file or a
    predictions file."""
    truth_cells = draw(st.sampled_from([None, P_FAKE_CELLS]))
    pred, truth = draw(label_files(["fake", "real"], "spam",
                                   (P_FAKE_CELLS, truth_cells),
                                   PREDICTION_DEFECTS))
    header = ("video_id", "label", "p_fake")
    return ([header, *pred],
            [header[:2] if truth_cells is None else header, *truth])


def csv_text(rows) -> str:
    return "".join(",".join(row) + "\n" for row in rows)


class TestEdgeLabels:
    @fuzz_settings(40)
    @given(files=prediction_files())
    def test_evaluate(self, workdir, files):
        pred, truth = workdir / "pred.csv", workdir / "truth.csv"
        pred.write_text(csv_text(files[0]))
        truth.write_text(csv_text(files[1]))
        report = workdir / "report.csv"
        if run(["evaluate", "--pred", str(pred), "--truth", str(truth),
                "--output", str(report)]) == 0:
            read = evaluation.read_report(report)
            assert read.total_support == len(cli._read_labels_csv(pred))

    @fuzz_settings(40)
    @given(rounds=label_files(list(corpus.ANNOTATION_LABELS), "fake"))
    def test_agreement(self, workdir, rounds):
        paths = [workdir / "round1.tsv", workdir / "round2.tsv"]
        for path, rows in zip(paths, rounds):
            path.write_text("".join("\t".join(row) + "\n" for row in rows))
        matrix = workdir / "agreement.csv"
        if run(["agreement", "--round1", str(paths[0]), "--round2",
                str(paths[1]), "--output", str(matrix)]) == 0:
            header = ("", *corpus.ANNOTATION_LABELS)
            counts = [[corpus.csv_number(where, name, text, int)
                       for name, text in zip(header[1:], row[1:])]
                      for where, row in corpus.read_csv(matrix, header)]
            assert sum(map(sum, counts)) == \
                len(corpus.load_annotation_round(paths[0]))


# The ucnet model's tensors, in layout order.
MODEL_TENSORS = list(network._layout(1, 1, 1, 1, 1))


@pytest.fixture(scope="module")
def model_workdir(workdir, lexicons):
    """A small saved ucnet model (``base.model``) and a 4-video corpus
    whose comments hold several fakeness phrases at once."""
    phrases = lexicons.fakeness_phrases
    params = network.init_params(np.random.default_rng(14), EMBEDDING_DIM,
                                 len(phrases), 2, lstm_hidden=3)
    network.UCNetModel(params, phrases, FEATURE_NAMES[:2], EMBEDDING_DIM
                       ).save(workdir / "base.model")
    texts = [" ".join(phrases[:4]), "nice song", "", " ".join(phrases[1:3])]
    records = [make_video(f"v{i}", "fake" if i % 2 else "real",
                          comments=[make_comment(f"c{j}", text) for j, text
                                    in enumerate(texts[i:] + texts[:i])])
               for i in range(len(texts))]
    corpus.save_dataset(make_dataset(records), workdir / "model-corpus.jsonl")
    return workdir


@st.composite
def tensor_edits(draw, names):
    """1-3 edits of the tensors ``names`` of a saved file: one cell, every
    cell, or every cell with alternating signs set to an edge value."""
    return draw(st.lists(st.tuples(
        st.sampled_from(names),
        st.sampled_from(["one", "all", "alternate"]),
        st.integers(0, 2**16), st.sampled_from(FLOAT_EDGES)),
        min_size=1, max_size=3))


def save_edited(source, target, edits) -> None:
    """The tensor file ``source`` with ``edits`` applied, saved as
    ``target``."""
    tensors, meta = serialize.load_tensors(source)
    for name, how, index, value in edits:
        cells = tensors[name].reshape(-1)
        if how == "one":
            cells[index % cells.size] = value
        else:
            cells[:] = value
            if how == "alternate":
                cells[1::2] = -value
    serialize.save_tensors(target, tensors, meta)


class TestEdgeModelCells:
    @fuzz_settings(20, deep_examples=300)
    @given(edits=tensor_edits(MODEL_TENSORS))
    def test_pca_on_a_model_with_edge_cells(self, model_workdir, edits):
        w = model_workdir
        model = w / "edge.model"
        save_edited(w / "base.model", model, edits)
        projection = w / "model-pca.csv"
        if run(["pca", "--input", str(w / "model-corpus.jsonl"),
                "--model", str(model), "--embeddings",
                str(w / "embeddings.txt"), "--output", str(projection)]) == 0:
            header = ("video_id", "pc1", "pc2", "label")
            rows = [[corpus.csv_number(where, name, text)
                     for name, text in zip(header[1:3], row[1:3])]
                    for where, row in corpus.read_csv(projection, header)]
            assert len(rows) == 4


# The title scorer's tensors, in file order.
SCORER_TENSORS = ["feature_mean", "feature_std", "layer0.weights",
                  "layer0.bias", "layer1.weights", "layer1.bias"]
# Titles with and without clickbait, shouting and numbers.
SCORER_TITLES = ["a plain title", "You WON'T believe this!!!",
                 "10 SHOCKING facts", ""]


@pytest.fixture(scope="module")
def scorer_workdir(workdir):
    """The workdir's saved title scorer and a corpus of one video per
    ``SCORER_TITLES`` title, each with a comment."""
    records = [make_video(f"v{i}", "fake" if i % 2 else "real", title=title,
                          comments=[make_comment("c0", "this is fake")])
               for i, title in enumerate(SCORER_TITLES)]
    corpus.save_dataset(make_dataset(records), workdir / "titles.jsonl")
    return workdir


class TestEdgeScorerCells:
    @pytest.mark.parametrize("command", ["features", "train-ucnet"])
    @fuzz_settings(20, deep_examples=300)
    @given(edits=tensor_edits(SCORER_TENSORS))
    def test_a_scorer_with_edge_cells(self, scorer_workdir, command, edits):
        w = scorer_workdir
        scorer = w / "edge-scorer.model"
        save_edited(w / "scorer.model", scorer, edits)
        out, predictions = w / f"scorer-{command}.out", w / "scorer-pred.csv"
        argv = [command, "--input", str(w / "titles.jsonl"),
                "--scorer", str(scorer), "--output", str(out)]
        if command == "train-ucnet":
            argv += ["--embeddings", str(w / "embeddings.txt"),
                     "--embedding-dim", str(EMBEDDING_DIM), "--all-features",
                     "--epochs", "1", "--lstm-hidden", "2",
                     "--predictions", str(predictions)]
        if run(argv) != 0:
            return
        ids = [f"v{i}" for i in range(len(SCORER_TITLES))]
        if command == "features":
            assert cli._read_features_csv(out)[0] == ids
        else:
            network.UCNetModel.load(out)
            assert set(cli._read_labels_csv(predictions)) < set(ids)


MAX_COMMENTS = 3
# Comment texts: empty, all out of vocabulary, over the 100-token cap, and
# ordinary ones with and without a fakeness phrase.
COMMENT_TEXTS = ["", "qzxv wkpj", " ".join(["fake", "video"] * 60),
                 "this is fake", "nice song", "!!!"]


@st.composite
def comment_corpora(draw):
    """Records of 4-8 videos, 2 or more of each class, each with 0 to
    ``MAX_COMMENTS + 2`` comments; a whole corpus may have none."""
    labels = draw(st.permutations(["fake", "real"] * 2 + draw(
        st.lists(st.sampled_from(["fake", "real"]), max_size=4))))
    # One corpus in four has no comments at all.
    most = draw(st.sampled_from([MAX_COMMENTS + 2] * 3 + [0]))
    records = []
    for i, label in enumerate(labels):
        texts = draw(st.lists(st.sampled_from(COMMENT_TEXTS), max_size=most))
        comments = [make_comment(f"c{j}", text,
                                 published=f"2015-01-{1 + j % 3:02d}T00:00:00Z")
                    for j, text in enumerate(texts)]
        records.append(make_video(f"v{i}", label, comments=comments))
    return records


class TestCommentShapes:
    @fuzz_settings(12, deep_examples=300)
    @given(records=comment_corpora())
    def test_train_ucnet_and_pca(self, workdir, records):
        data = workdir / "comments.jsonl"
        corpus.save_dataset(make_dataset(records), data)
        model, predictions = workdir / "ucnet.model", workdir / "pred.csv"
        embeddings = ["--embeddings", str(workdir / "embeddings.txt")]
        if run(["train-ucnet", "--input", str(data), *embeddings,
                "--embedding-dim", str(EMBEDDING_DIM),
                "--scorer", str(workdir / "scorer.model"), "--all-features",
                "--epochs", "1", "--batch-size", "2", "--lstm-hidden", "4",
                "--max-comments", str(MAX_COMMENTS), "--output", str(model),
                "--predictions", str(predictions)]) != 0:
            return
        network.UCNetModel.load(model)
        cli._read_labels_csv(predictions)
        projection = workdir / "comments-pca.csv"
        if run(["pca", "--input", str(data), "--model", str(model),
                *embeddings, "--output", str(projection)]) == 0:
            header = ("video_id", "pc1", "pc2", "label")
            assert [row[0] for _, row in corpus.read_csv(projection, header)
                    ] == [r.id for r in records]


# Numeric flags at their type's edges. A size flag only takes a few small
# values, so no run allocates or loops at a huge size; the others take
# their type's share of {0, -0.0, -1, 1, 2**63, 1e308, nan, +-inf}.
SIZE_FLAGS = {"n_videos", "n_titles", "trees", "epochs", "rounds",
              "components", "lstm_hidden", "embedding_dim"}
SIZE_EDGES = ["-1", "0", "1", "2"]
INT_FLAG_EDGES = ["0", "-1", "1", str(2**63)]
FLOAT_FLAG_EDGES = ["0", "-0.0", "-1", "1", str(2**63), "1e308", "nan",
                    "inf", "-inf"]


def flag_edges(action) -> list[str]:
    """The edge values an int or float flag draws from."""
    return SIZE_EDGES if action.dest in SIZE_FLAGS \
        else INT_FLAG_EDGES if action.type is int else FLOAT_FLAG_EDGES


def numeric_flags(command) -> dict[str, list[str]]:
    """Each int or float flag of ``command``, as the parser declares it,
    with the edge values it draws from."""
    return {action.option_strings[0]: flag_edges(action)
            for action in cli._build_parser()[1][command]._actions
            if action.type in (int, float)}


@pytest.fixture(scope="module")
def flag_workdir(tmp_path_factory, lexicons):
    """A 12-video synthetic corpus with its titles, scorer, features and
    embedding tables of widths 1, 2 and 4."""
    out = tmp_path_factory.mktemp("cli-fuzz-flags")
    assert run(["make-synthetic", "--output-dir", str(out),
                "--n-videos", "12", "--n-titles", "20",
                "--embedding-dim", "4", "--seed", "3"]) == 0
    for dim in (1, 2, 4):
        save_embeddings(synthetic.make_embedding_table(3, dim, lexicons),
                        out / f"embeddings-{dim}.txt")
    assert run(["features", "--input", str(out / "corpus.jsonl"),
                "--output", str(out / "features.csv"),
                "--train-titles", str(out / "titles.tsv"),
                "--save-scorer", str(out / "scorer.model")]) == 0
    return out


# The subcommands with numeric flags, each of which flag_base runs.
FLAG_COMMANDS = ["mine", "features", "prune", "train-classic", "train-ucnet",
                 "pca", "make-synthetic"]


def flag_base(w, o) -> dict[str, list[str]]:
    """An argv that exits 0 for each subcommand with numeric flags, reading
    ``w``'s inputs and writing into ``o``; its sizes are small."""
    corpus_file, features = str(w / "corpus.jsonl"), str(w / "features.csv")
    return {
        "mine": ["--input", corpus_file, "--output", str(o / "mined.jsonl"),
                 "--min-views", "0", "--min-comments", "0"],
        "features": ["--input", corpus_file, "--output", str(o / "f.csv"),
                     "--train-titles", str(w / "titles.tsv")],
        "prune": ["--features", features, "--output", str(o / "sel.json"),
                  "--trees", "2"],
        "train-classic": ["--features", features, "--test-features", features,
                          "--predictions", str(o / "pred.csv"),
                          "--output", str(o / "classic.model"),
                          "--trees", "2", "--epochs", "2"],
        "train-ucnet": ["--input", corpus_file,
                        "--embeddings", str(w / "embeddings-4.txt"),
                        "--embedding-dim", "4",
                        "--scorer", str(w / "scorer.model"), "--all-features",
                        "--epochs", "1", "--lstm-hidden", "2",
                        "--batch-size", "4",
                        "--output", str(o / "ucnet.model"),
                        "--predictions", str(o / "pred.csv")],
        "pca": ["--features", features, "--output", str(o / "pca.csv")],
        "make-synthetic": ["--output-dir", str(o / "synthetic"),
                           "--n-videos", "4", "--n-titles", "4",
                           "--embedding-dim", "2"],
    }


def read_back(command, argv, o) -> None:
    """Read an exit-0 run's outputs through their own readers."""
    flags = dict(arg.split("=", 1) for arg in argv if "=" in arg)
    if command == "mine":
        corpus.load_dataset(o / "mined.jsonl", "mined")
    elif command == "features":
        assert np.isfinite(cli._read_features_csv(o / "f.csv")[1]).all()
    elif command == "prune":
        cli._load_selected(o / "sel.json")
        importances = json.loads((o / "sel.json").read_text())["importances"]
        assert np.isfinite(importances).all()
    elif command == "train-classic":
        classic.load_model(o / "classic.model")
        cli._read_labels_csv(o / "pred.csv")
    elif command == "train-ucnet":
        network.UCNetModel.load(o / "ucnet.model")
        cli._read_labels_csv(o / "pred.csv")
    elif command == "pca":
        k = int(flags.get("--components", 2))
        header = ("video_id", *(f"pc{i + 1}" for i in range(k)), "label")
        for where, row in corpus.read_csv(o / "pca.csv", header):
            for name, text in zip(header[1:-1], row[1:-1]):
                corpus.csv_number(where, name, text)
    else:
        out = o / "synthetic"
        corpus.load_dataset(out / "corpus.jsonl", "synthetic")
        load_embeddings(out / "embeddings.txt",
                        int(flags.get("--embedding-dim", 2)))


class TestNumericFlags:
    @pytest.mark.parametrize("command", FLAG_COMMANDS)
    @fuzz_settings(20, deep_examples=300)
    @given(data=st.data())
    def test_flags_at_their_edges(self, flag_workdir, tmp_path_factory,
                                  command, data):
        edges = numeric_flags(command)
        drawn = data.draw(st.fixed_dictionaries(
            {}, optional={flag: st.sampled_from(values)
                          for flag, values in edges.items()}))
        o = tmp_path_factory.mktemp("flags")
        argv = [command, *flag_base(flag_workdir, o)[command]]
        if command == "train-classic":
            argv += ["--model", data.draw(st.sampled_from(
                ["forest", "tree", "logistic"]))]
        dim = drawn.get("--embedding-dim")
        if command == "train-ucnet" and dim in ("1", "2"):
            argv[argv.index("--embeddings") + 1] = \
                str(flag_workdir / f"embeddings-{dim}.txt")
        # A later occurrence of a flag overrides the base's; the = form
        # keeps a value such as -inf from reading as an option.
        argv += [f"{flag}={value}" for flag, value in drawn.items()]
        if run(argv) == 0:
            read_back(command, argv, o)


# The values a config line may give each flag of any subcommand: a switch
# gets two words, both refused; a flag with choices gets them and one word
# outside them; a path gets PATH, a file in the example's own directory; an
# int or float flag gets its edges, as TestNumericFlags draws them, and a
# word that is no number. The last value, None, writes the key alone. The
# keys help and h, which a config refuses, get a word too.
PATH = object()
HELP_FLAGS = ["--h", "--help"]


def config_values() -> dict[str, list]:
    values: dict[str, list] = {flag: ["true"] for flag in HELP_FLAGS}
    for parser in cli._build_parser()[1].values():
        for action in parser._actions:
            flag = action.option_strings[-1]
            if flag == "--help":
                continue
            if action.nargs == 0:
                drawn = ["true", "maybe"]
            elif action.choices:
                drawn = [*action.choices, "svm"]
            elif action.type is None:
                drawn = [PATH]
            else:
                drawn = [*flag_edges(action), "abc"]
            known = values.setdefault(flag, [])
            known += [value for value in drawn if value not in known]
    return {flag: [*known, None] for flag, known in values.items()}


CONFIG_VALUES = config_values()


def refuses(parser, flag, value) -> bool:
    """Whether ``parser`` refuses ``flag`` with ``value`` (None for none)."""
    action = next((a for a in parser._actions if flag in a.option_strings),
                  None)
    if action is None or flag in HELP_FLAGS:
        return True
    if action.nargs == 0 or value is None:
        return (action.nargs == 0) != (value is None)
    try:
        value = action.type(value) if action.type else value
    except ValueError:
        return True
    return bool(action.choices) and value not in action.choices


def base_pairs(argv) -> list[tuple[str, str | None]]:
    """The (flag, value) pairs of a ``flag_base`` argv; a switch's value is
    None."""
    pairs = []
    for i, word in enumerate(argv):
        if word.startswith("--"):
            value = argv[i + 1] if i + 1 < len(argv) else None
            pairs.append((word, None if value is None
                          or value.startswith("--") else value))
    return pairs


class TestConfigLines:
    @fuzz_settings(40, deep_examples=300)
    @given(data=st.data())
    def test_a_refused_line_is_a_usage_error(self, flag_workdir,
                                             tmp_path_factory, data):
        command = data.draw(st.sampled_from(FLAG_COMMANDS))
        parser = cli._build_parser()[1][command]
        own = sorted(s for a in parser._actions for s in a.option_strings
                     if s in CONFIG_VALUES)
        o = tmp_path_factory.mktemp("config")
        # Some of the base's flags, the required ones among them, move from
        # the command line into config lines, which the parser accepts.
        argv, lines = [], []
        for flag, value in base_pairs(flag_base(flag_workdir, o)[command]):
            if data.draw(st.booleans()):
                lines.append((flag[2:] if value is None
                              else f"{flag[2:]}={value}", False))
            else:
                argv += [flag] if value is None else [flag, value]
        for _ in range(data.draw(st.integers(0, 3))):
            # Of five drawn lines, three name a flag of the subcommand's
            # own and one the key help or h.
            flag = data.draw(st.sampled_from(data.draw(st.sampled_from(
                [own, own, own, sorted(CONFIG_VALUES), HELP_FLAGS]))))
            value = data.draw(st.sampled_from(CONFIG_VALUES[flag]))
            value = str(o / "value") if value is PATH else value
            key = flag[2:]
            if data.draw(st.booleans()):
                key = key.replace("-", "_")
            lines.append((key if value is None else
                          key + data.draw(st.sampled_from(["=", " = "]))
                          + value, refuses(parser, flag, value)))
        lines = data.draw(st.permutations(lines))
        refused = [n for n, (_, bad) in enumerate(lines, 1) if bad]
        config = o / "run.cfg"
        config.write_text("".join(line + "\n" for line, _ in lines))
        code, err = run_with_stderr(["--config", str(config), command, *argv],
                                    codes=(0, 1, 2))
        assert (code == 1) == bool(refused), (lines, err)
        if refused:  # the file and the first refused line are named
            assert f"error: {config}: line {refused[0]}: " in err, (lines, err)
