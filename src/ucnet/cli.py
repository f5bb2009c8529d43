"""Batch command-line front door wiring the library into reproducible runs.

Every artifact-producing subcommand writes a `<output>.manifest.json`
recording the tool version, seeds, argument values and SHA-256 digests of
all inputs and lexicons, which is enough to reproduce the run bit for bit.
Exit codes: 0 success, 1 usage error, 2 data error. A `--config FILE`
before the subcommand gives it flags, one a line, each checked alone as it
is read, so a refused line is named by file and line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__, classic, corpus, evaluation, lexical, network, synthetic
from .embeddings import comment_vocabulary, load_embeddings, save_embeddings
from .lexical import FEATURE_NAMES, LexiconSet, TitleScorer, train_title_scorer

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2


class _UsageError(SystemExit):
    """A refused command line: the parser that refused it, and why."""

    def __init__(self, parser: argparse.ArgumentParser, message: str):
        super().__init__(EXIT_USAGE)
        self.parser, self.message = parser, message


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        # A flag is written in full, so an abbreviation cannot silently
        # stand for another flag, such as --train for --train-titles.
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise _UsageError(self, message)


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _lexicon_dir(args) -> Path:
    if args.lexicon_dir:
        return Path(args.lexicon_dir)
    return lexical.default_lexicon_dir()


def _lexicon_digests(directory: Path) -> dict[str, str]:
    """SHA-256 of each file ``LexiconSet.from_directory`` reads."""
    return {name: _sha256(directory / name) for name in lexical.LEXICON_FILES}


def _write_manifest(primary_output, args, inputs: dict, lexicons: dict,
                    outputs: list) -> None:
    manifest = {
        "tool": "ucnet",
        "version": __version__,
        "subcommand": args.subcommand,
        "seed": getattr(args, "seed", None),
        "arguments": {k: v for k, v in sorted(vars(args).items())
                      if k not in ("func", "subcommand")},
        "inputs": {name: {"path": str(p), "sha256": _sha256(p)}
                   for name, p in inputs.items() if p},
        "lexicons": lexicons,
        "outputs": [str(p) for p in outputs],
    }
    path = Path(str(primary_output) + ".manifest.json")
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def _load_labeled_titles(path) -> list[tuple[str, str]]:
    titles = []
    for lineno, line in corpus.content_lines(path):
        parts = line.split("\t", 1)
        if len(parts) != 2:
            raise ValueError(f"{path}: line {lineno}: expected label<TAB>title")
        label, title = parts[0].strip(), parts[1]
        if label not in ("fake", "real"):
            raise ValueError(f"{path}: line {lineno}: label must be fake or real")
        titles.append((title, label))
    return titles


def _check_scorer_flags(args) -> None:
    """Refuse, before any input is read, a run given no title scorer or
    two: a saved one and titles to train another."""
    if args.scorer and args.train_titles:
        raise ValueError("--scorer and --train-titles conflict: give a "
                         "trained scorer or the titles to train one on")
    if not (args.scorer or args.train_titles):
        raise ValueError("either --scorer or --train-titles is required")


def _get_scorer(args, lexicons: LexiconSet) -> tuple[TitleScorer, dict]:
    if args.scorer:
        scorer = TitleScorer.load(args.scorer, lexicons)
        inputs = {"scorer": args.scorer}
    else:
        titles = _load_labeled_titles(args.train_titles)
        scorer = train_title_scorer(titles, lexicons, seed=args.scorer_seed)
        inputs = {"train_titles": args.train_titles}
    if args.save_scorer:
        scorer.save(args.save_scorer)
    return scorer, inputs


_FEATURES_HEADER = ("video_id", *FEATURE_NAMES, "label")
_LABELS_HEADER = ("video_id", "label")
_PREDICTIONS_HEADER = (*_LABELS_HEADER, "p_fake")


def _read_features_csv(path):
    ids, rows, labels = [], [], []
    for where, row in corpus.read_csv(path, _FEATURES_HEADER):
        ids.append(row[0])
        rows.append([corpus.csv_number(where, name, v)
                     for name, v in zip(FEATURE_NAMES, row[1:-1])])
        labels.append(row[-1])
    matrix = np.array(rows, dtype=np.float64).reshape(-1, len(FEATURE_NAMES))
    return ids, matrix, labels


def _require_rows(path, ids, need: int, what: str) -> None:
    """Refuse a table that parses but holds fewer than ``need`` rows."""
    if len(ids) < need:
        raise ValueError(f"{path}: {what} needs {need} or more rows, "
                         f"got {len(ids)}")


def _write_predictions_csv(path, ids, p_fake) -> None:
    corpus.write_csv(path, _PREDICTIONS_HEADER,
                     ((vid, evaluation.classify(p), p)
                      for vid, p in zip(ids, p_fake)))


def _read_labels_csv(path) -> dict[str, str]:
    """video_id -> label of a ``video_id,label`` CSV, or of a predictions
    CSV whose ``p_fake`` values are then each a probability and whose
    labels are each ``evaluation.classify`` of it."""
    labels = {}
    for where, row in corpus.read_csv(path, _LABELS_HEADER,
                                      _PREDICTIONS_HEADER):
        corpus.fake_indicators(row[1:2], where)  # refuses another label
        if len(row) == 3:
            p_fake = corpus.csv_number(where, "p_fake", row[2])
            if not 0.0 <= p_fake <= 1.0:
                raise ValueError(f"{where}: p_fake {row[2][:40]!r} is "
                                 "outside [0, 1]")
            if row[1] != evaluation.classify(p_fake):
                raise ValueError(f"{where}: label {row[1]!r} contradicts "
                                 f"p_fake {row[2][:40]!r}, which classifies "
                                 f"as {evaluation.classify(p_fake)!r}")
        labels[row[0]] = row[1]
    return labels


def _comment_vocabulary(*datasets) -> set[str]:
    """The embedding rows the comments of ``datasets`` can use."""
    return comment_vocabulary(comment.text for dataset in datasets
                              if dataset is not None
                              for record in dataset
                              for comment in record.comments)


def _cmd_mine(args) -> int:
    dataset = corpus.load_dataset(args.input, Path(args.input).stem)
    seed_path = args.seed_phrases or str(lexical.default_lexicon_dir() / "seed_phrases.txt")
    seed_phrases = lexical.load_lexicon_lines(seed_path)
    expansion = lexical.load_lexicon_lines(args.expansion_lexicon) \
        if args.expansion_lexicon else ()
    mined = corpus.mine_candidates(
        dataset, seed_phrases, min_views=args.min_views,
        min_comments=args.min_comments,
        min_dislike_like_ratio=args.min_dislike_ratio,
        rounds=args.rounds, expansion_lexicon=expansion)
    corpus.save_dataset(mined, args.output)
    inputs = {"dataset": args.input, "seed_phrases": seed_path,
              "expansion_lexicon": args.expansion_lexicon}
    _write_manifest(args.output, args, inputs, {}, [args.output])
    print(f"mined {len(mined)} candidate videos -> {args.output}")
    return EXIT_OK


def _cmd_agreement(args) -> int:
    round1 = corpus.load_annotation_round(args.round1)
    round2 = corpus.load_annotation_round(args.round2)
    matrix = corpus.agreement_matrix(round1, round2)
    corpus.write_csv(args.output, ("", *corpus.ANNOTATION_LABELS),
                     ([label, *row] for label, row
                      in zip(corpus.ANNOTATION_LABELS, matrix.tolist())))
    _write_manifest(args.output, args,
                    {"round1": args.round1, "round2": args.round2}, {},
                    [args.output])
    print(f"agreement matrix over {int(matrix.sum())} videos -> {args.output}")
    return EXIT_OK


def _cmd_features(args) -> int:
    _check_scorer_flags(args)
    lexicon_dir = _lexicon_dir(args)
    lexicons = LexiconSet.from_directory(lexicon_dir)
    dataset = corpus.load_dataset(args.input, Path(args.input).stem)
    scorer, scorer_inputs = _get_scorer(args, lexicons)
    videos = list(dataset)
    matrix = lexical.feature_matrix(videos, lexicons, scorer)
    corpus.write_csv(args.output, _FEATURES_HEADER,
                     ([v.id, *row, v.label] for v, row in zip(videos, matrix)))
    _write_manifest(args.output, args, {"dataset": args.input, **scorer_inputs},
                    _lexicon_digests(lexicon_dir),
                    [p for p in (args.output, args.save_scorer) if p])
    print(f"extracted features for {len(videos)} videos -> {args.output}")
    return EXIT_OK


def _cmd_prune(args) -> int:
    ids, matrix, labels = _read_features_csv(args.features)
    _require_rows(args.features, ids, 2, "prune")
    y = corpus.fake_indicators(labels, args.features)
    forest = classic.train_forest(matrix, y, n_trees=args.trees,
                                  max_depth=args.max_depth, seed=args.seed)
    importances = classic.feature_importances(forest)
    selected = lexical.prune_correlated(matrix, importances, args.threshold)
    payload = {
        "threshold": args.threshold,
        "importances": [float(v) for v in importances],
        "selected_indices": list(selected),
        "selected_names": [FEATURE_NAMES[i] for i in selected],
    }
    Path(args.output).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                                 encoding="utf-8")
    _write_manifest(args.output, args, {"features": args.features}, {},
                    [args.output])
    print(f"kept {len(selected)}/{len(FEATURE_NAMES)} features -> {args.output}")
    return EXIT_OK


def _load_selected(path) -> tuple[int, ...]:
    """The ``selected_indices`` of a ``prune`` output: distinct integers in
    [0, 8), each a column of the features CSV."""
    text = corpus.read_utf8(path)
    try:
        indices = json.loads(text)["selected_indices"]
    except (ValueError, RecursionError) as exc:  # also too long or too deep
        raise ValueError(f"{path}: invalid JSON ({exc})") from None
    except (KeyError, TypeError):
        raise ValueError(f"{path}: no 'selected_indices' list") from None
    n = len(FEATURE_NAMES)
    if not (isinstance(indices, list)
            and all(type(i) is int and 0 <= i < n for i in indices)
            and len(set(indices)) == len(indices)):
        raise ValueError(f"{path}: selected_indices must be distinct integers "
                         f"in [0, {n}), got {json.dumps(indices)[:80]}")
    return tuple(indices)


def _cmd_train_classic(args) -> int:
    if args.test_features and not args.predictions:
        raise ValueError("--test-features requires --predictions")
    if args.predictions and not args.test_features:
        raise ValueError("--predictions requires --test-features")
    ids, matrix, labels = _read_features_csv(args.features)
    _require_rows(args.features, ids, 1, "training")
    if args.model == "logistic" and len(set(labels)) < 2:
        raise ValueError(f"{args.features}: logistic regression needs both "
                         "classes present")
    y = corpus.fake_indicators(labels, args.features)
    indices = _load_selected(args.selected) if args.selected else \
        tuple(range(len(FEATURE_NAMES)))
    if not indices:
        raise ValueError(f"{args.selected}: selects no features; a "
                         f"{args.model} model needs at least one")
    X = matrix[:, indices]
    if args.test_features:
        test_ids, test_matrix, _ = _read_features_csv(args.test_features)
    train = {
        "forest": lambda: classic.train_forest(
            X, y, n_trees=args.trees, max_depth=args.max_depth,
            features_per_split=args.features_per_split, seed=args.seed),
        "tree": lambda: classic.train_tree(X, y, max_depth=args.max_depth),
        "logistic": lambda: classic.train_logistic(
            X, y, learning_rate=args.learning_rate, epochs=args.epochs),
    }[args.model]
    try:
        model = train()
    except OverflowError as exc:
        raise ValueError(f"{args.features}: {exc}") from None
    if args.test_features:
        try:
            p_fake = model.predict_proba_fake(test_matrix[:, indices])
        except OverflowError as exc:
            raise ValueError(f"{args.test_features}: {exc}") from None
    # Nothing is written before every input is read and scored, so a run
    # that exits 2 leaves no file behind.
    classic.save_model(model, args.output)
    inputs = {"features": args.features, "selected": args.selected,
              "test_features": args.test_features}
    outputs = [args.output]
    if args.test_features:
        _write_predictions_csv(args.predictions, test_ids, p_fake)
        outputs.append(args.predictions)
    _write_manifest(args.output, args, inputs, {}, outputs)
    print(f"trained {args.model} on {len(y)} videos -> {args.output}")
    return EXIT_OK


def _cmd_train_ucnet(args) -> int:
    if args.input and (args.train or args.test):
        raise ValueError(f"--input and --{'train' if args.train else 'test'} "
                         "conflict: --input splits its own training and test "
                         "sets")
    if args.truth_out and not args.predictions:
        raise ValueError("--truth-out requires --predictions")
    if args.predictions and args.train and not args.test:
        raise ValueError("--predictions requires a test set: --test with "
                         "--train, or --input")
    if not (args.train or args.input):
        raise ValueError("either --train or --input is required")
    if args.selected and args.all_features:
        raise ValueError("--selected and --all-features conflict: give a "
                         "prune output or train on all eight features")
    if not (args.selected or args.all_features):
        raise ValueError("either --selected or --all-features is required")
    _check_scorer_flags(args)
    indices = _load_selected(args.selected) if args.selected else \
        tuple(range(len(FEATURE_NAMES)))
    lexicon_dir = _lexicon_dir(args)
    lexicons = LexiconSet.from_directory(lexicon_dir)
    if not lexicons.fakeness_phrases:
        raise ValueError(f"{lexicon_dir / 'fakeness_phrases.txt'}: no phrases")
    scorer, scorer_inputs = _get_scorer(args, lexicons)

    inputs = {"embeddings": args.embeddings, "train": args.train,
              "test": args.test, "input": args.input,
              "selected": args.selected, **scorer_inputs}
    if args.train:
        train_set = corpus.load_dataset(args.train, Path(args.train).stem)
        test_set = corpus.load_dataset(args.test, Path(args.test).stem) \
            if args.test else None
    else:
        full = corpus.load_dataset(args.input, Path(args.input).stem)
        train_set, test_set = corpus.split_dataset(full, args.test_fraction,
                                                   args.seed)
    table = load_embeddings(args.embeddings, args.embedding_dim,
                            vocabulary=_comment_vocabulary(train_set, test_set))

    config = network.TrainingConfig(
        learning_rate=args.learning_rate, epochs=args.epochs,
        batch_size=args.batch_size, seed=args.seed,
        max_comments_per_video=args.max_comments,
        max_tokens_per_comment=args.max_tokens)
    model = network.train(train_set, table, lexicons, scorer, config,
                          feature_indices=indices,
                          lstm_hidden=args.lstm_hidden)
    model.save(args.output)
    if args.predictions:
        p_fake = [model.predict_record(record, table, lexicons, scorer).p_fake
                  for record in test_set]
        _write_predictions_csv(args.predictions, test_set.ids(), p_fake)
        if args.truth_out:
            corpus.write_csv(args.truth_out, _LABELS_HEADER,
                             ((r.id, r.label) for r in test_set))
    _write_manifest(args.output, args, inputs, _lexicon_digests(lexicon_dir),
                    [p for p in (args.output, args.predictions, args.truth_out)
                     if p])
    final_loss = model.loss_history[-1] if model.loss_history else float("nan")
    print(f"trained ucnet on {len(train_set)} videos "
          f"(final mean loss {final_loss:.4f}) -> {args.output}")
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    predicted = _read_labels_csv(args.pred)
    if not predicted:
        raise ValueError(f"{args.pred}: no predictions")
    truth = _read_labels_csv(args.truth)
    missing = [vid for vid in predicted if vid not in truth]
    if missing:
        raise ValueError(f"{args.truth}: no ground truth for ids {missing[:5]}")
    report = evaluation.evaluate([truth[vid] for vid in predicted],
                                 list(predicted.values()))
    evaluation.export_report(report, args.output)
    _write_manifest(args.output, args,
                    {"pred": args.pred, "truth": args.truth}, {},
                    [args.output])
    print(f"macro_precision={report.macro_precision:.4f} "
          f"macro_recall={report.macro_recall:.4f} "
          f"macro_f1={report.macro_f1:.4f}")
    return EXIT_OK


def _cmd_pca(args) -> int:
    beside = [f"--{name}" for name in ("input", "model", "embeddings")
              if getattr(args, name)]
    if args.features and beside:
        raise ValueError(f"--features and {' and '.join(beside)} conflict: "
                         "pca projects either a feature table or a corpus's "
                         "unified embeddings")
    if args.features:
        ids, matrix, labels = _read_features_csv(args.features)
        _require_rows(args.features, ids, 2, "PCA")
        inputs = {"features": args.features}
    elif args.input and args.model and args.embeddings:
        dataset = corpus.load_dataset(args.input, Path(args.input).stem)
        _require_rows(args.input, dataset, 2, "PCA")
        model = network.UCNetModel.load(args.model)
        table = load_embeddings(args.embeddings, model.embedding_dim,
                                vocabulary=_comment_vocabulary(dataset))
        try:
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                matrix = network.extract_unified_embeddings(dataset, table,
                                                            model)
        except (FloatingPointError, ValueError) as exc:
            # A finite model can still leave the float range (weights near
            # 1e308).
            raise ValueError(f"{args.model}: {exc}") from None
        ids = dataset.ids()
        labels = [r.label for r in dataset]
        inputs = {"input": args.input, "model": args.model,
                  "embeddings": args.embeddings}
    else:
        raise ValueError(
            "pca needs --features, or --input with --model and --embeddings")
    try:
        projected, variances = evaluation.pca_project(matrix, args.components)
    except OverflowError as exc:
        raise ValueError(f"{args.features or args.model}: {exc}") from None
    evaluation.export_report(projected, args.output, video_ids=ids, labels=labels)
    _write_manifest(args.output, args, inputs, {}, [args.output])
    print("explained variances: "
          + " ".join(f"{v:.6g}" for v in variances))
    return EXIT_OK


def _cmd_make_synthetic(args) -> int:
    lexicons = LexiconSet.default()
    dataset = synthetic.make_synthetic_corpus(args.n_videos, args.seed, lexicons)
    table = synthetic.make_embedding_table(args.seed, args.embedding_dim, lexicons)
    titles = synthetic.make_labeled_titles(args.n_titles, args.seed, lexicons)
    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    corpus_path = out_dir / "corpus.jsonl"
    corpus.save_dataset(dataset, corpus_path)
    save_embeddings(table, out_dir / "embeddings.txt")
    with (out_dir / "titles.tsv").open("w", encoding="utf-8", newline="\n") as fh:
        for title, label in titles:
            fh.write(f"{label}\t{title}\n")
    _write_manifest(corpus_path, args, {}, {},
                    [corpus_path, out_dir / "embeddings.txt",
                     out_dir / "titles.tsv"])
    print(f"synthetic corpus with {len(dataset)} videos -> {out_dir}")
    return EXIT_OK


def _add_scorer_flags(parser) -> None:
    parser.add_argument("--scorer", help="trained title-scorer file")
    parser.add_argument("--train-titles",
                        help="label<TAB>title file to train the title scorer on")
    parser.add_argument("--save-scorer", help="write the trained scorer here")
    parser.add_argument("--scorer-seed", type=int, default=0)


def _build_parser(strict: bool = True) -> tuple[_Parser, dict[str, _Parser]]:
    """The top-level parser and each subcommand's. With ``strict`` False,
    the subcommands' parsers are those a config line is checked on alone:
    no flag is required and none has ``-h``."""
    parser = _Parser(prog="ucnet",
                     description="Misleading-video detection pipelines")
    parser.add_argument("--version", action="version", version=__version__)
    subparsers = parser.add_subparsers(dest="subcommand", required=True,
                                       metavar="SUBCOMMAND")
    subs: dict[str, _Parser] = {}

    def sub(name, **kwargs) -> _Parser:
        subs[name] = subparsers.add_parser(name, add_help=strict, **kwargs)
        return subs[name]

    p = sub("mine", help="heuristic candidate mining")
    p.add_argument("--input", required=strict)
    p.add_argument("--output", required=strict)
    p.add_argument("--seed-phrases", default=None)
    p.add_argument("--expansion-lexicon", default=None)
    p.add_argument("--min-views", type=int, default=10_000)
    p.add_argument("--min-comments", type=int, default=120)
    p.add_argument("--min-dislike-ratio", type=float, default=0.3)
    p.add_argument("--rounds", type=int, default=3)
    p.set_defaults(func=_cmd_mine)

    p = sub("agreement", help="inter-annotator agreement matrix")
    p.add_argument("--round1", required=strict)
    p.add_argument("--round2", required=strict)
    p.add_argument("--output", required=strict)
    p.set_defaults(func=_cmd_agreement)

    p = sub("features", help="extract the eight simple features")
    p.add_argument("--input", required=strict)
    p.add_argument("--output", required=strict)
    p.add_argument("--lexicon-dir", default=None)
    _add_scorer_flags(p)
    p.set_defaults(func=_cmd_features)

    p = sub("prune", help="correlation-based feature pruning")
    p.add_argument("--features", required=strict)
    p.add_argument("--output", required=strict)
    p.add_argument("--threshold", type=float, default=0.2)
    p.add_argument("--trees", type=int, default=100)
    p.add_argument("--max-depth", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_prune)

    p = sub("train-classic", help="train a baseline classifier on features")
    p.add_argument("--features", required=strict)
    p.add_argument("--model", choices=("forest", "tree", "logistic"),
                   default="forest")
    p.add_argument("--output", required=strict)
    p.add_argument("--selected", default=None)
    p.add_argument("--test-features", default=None)
    p.add_argument("--predictions", default=None)
    p.add_argument("--trees", type=int, default=100)
    p.add_argument("--max-depth", type=int, default=8)
    p.add_argument("--features-per-split", type=int, default=3)
    p.add_argument("--learning-rate", type=float, default=0.1)
    p.add_argument("--epochs", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_train_classic)

    training = network.TrainingConfig()
    p = sub("train-ucnet", help="train the unified-comments network")
    p.add_argument("--train", default=None)
    p.add_argument("--test", default=None)
    p.add_argument("--input", default=None,
                   help="full dataset to split with --test-fraction")
    p.add_argument("--test-fraction", type=float, default=0.3)
    p.add_argument("--embeddings", required=strict)
    p.add_argument("--embedding-dim", type=int, default=300)
    p.add_argument("--lexicon-dir", default=None)
    p.add_argument("--selected", default=None)
    p.add_argument("--all-features", action="store_true")
    p.add_argument("--learning-rate", type=float,
                   default=training.learning_rate)
    p.add_argument("--epochs", type=int, default=training.epochs)
    p.add_argument("--batch-size", type=int, default=training.batch_size)
    p.add_argument("--seed", type=int, default=training.seed)
    p.add_argument("--max-comments", type=int,
                   default=training.max_comments_per_video)
    p.add_argument("--max-tokens", type=int,
                   default=training.max_tokens_per_comment)
    p.add_argument("--lstm-hidden", type=int,
                   default=network.DEFAULT_LSTM_HIDDEN)
    p.add_argument("--output", required=strict)
    p.add_argument("--predictions", default=None)
    p.add_argument("--truth-out", default=None,
                   help="write the held-out ids and true labels here")
    _add_scorer_flags(p)
    p.set_defaults(func=_cmd_train_ucnet)

    p = sub("evaluate",
            help="macro-averaged report from prediction/truth CSVs")
    p.add_argument("--pred", required=strict)
    p.add_argument("--truth", required=strict)
    p.add_argument("--output", required=strict)
    p.set_defaults(func=_cmd_evaluate)

    p = sub("pca", help="2-D projection of features or unified embeddings")
    p.add_argument("--features", default=None)
    p.add_argument("--input", default=None)
    p.add_argument("--model", default=None)
    p.add_argument("--embeddings", default=None)
    p.add_argument("--components", type=int, default=2)
    p.add_argument("--output", required=strict)
    p.set_defaults(func=_cmd_pca)

    p = sub("make-synthetic")
    p.add_argument("--output-dir", required=strict)
    p.add_argument("--n-videos", type=int, default=200)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--embedding-dim", type=int, default=16)
    p.add_argument("--n-titles", type=int, default=240)
    p.set_defaults(func=_cmd_make_synthetic)

    return parser, subs


def _config_flags(path, lenient: _Parser | None = None) -> list[str]:
    """The flags a ``--config`` file's lines name: a ``key=value`` line is
    ``--key=value`` and a key alone is the switch ``--key``. A key may
    spell ``-`` as ``_``. Given the subcommand's ``lenient`` parser (no
    required flags, no ``-h``), each flag is parsed alone as it is read,
    and the first one refused is a usage error naming the file and line.
    A flag that passes is ``--key=value`` or a switch, so it takes no
    other word as its value."""
    flags = []
    for lineno, line in corpus.content_lines(path):
        key, sep, value = line.partition("=")
        flag = f"--{key.strip().replace('_', '-')}{sep}{value.strip()}"
        if lenient is not None:
            try:
                lenient.parse_args([flag])
            except _UsageError as exc:
                raise _UsageError(lenient, f"{path}: line {lineno}: "
                                  f"{exc.message}") from None
        flags.append(flag)
    return flags


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, subs = _build_parser()
    try:
        if argv[:1] == ["--config"]:
            if len(argv) < 2:
                parser.error("--config requires a file argument")
            command = argv[2] if len(argv) > 2 else None
            lenient = _build_parser(strict=False)[1].get(command)
            # A config holds a subcommand's flags: without one the CLI has,
            # argparse's message about the subcommand stands.
            flags = []
            if lenient is not None:
                try:
                    flags = _config_flags(argv[1], lenient)
                except _UsageError as exc:  # shown with the strict usage
                    raise _UsageError(subs[command], exc.message) from None
            # The subcommand's parser reads the config's flags before the
            # command line's own, so an explicit flag wins.
            argv = [*argv[2:3], *flags, *argv[3:]]
        args = parser.parse_args(argv)
    except _UsageError as exc:
        exc.parser.print_usage(sys.stderr)
        print(f"{exc.parser.prog}: error: {exc.message}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:
        return int(exc.code or 0)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA

    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
