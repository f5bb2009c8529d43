"""Tests of the benchmark itself (not collected by the repository's suite).

    python3 -m pytest -q perfbench/selftest.py

Checks that the long-threads generator is deterministic per seed, that the
tracing wrappers change no result, and that the metric names a run prints
are the ones BENCHMARK.json declares.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import gen_threads  # noqa: E402
import spans  # noqa: E402
from ucnet import (classic, lexical, network, neural,  # noqa: E402
                   synthetic)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_generator_is_deterministic_per_seed(tmp_path):
    gen_threads.generate(tmp_path / "a", seed=3, n_videos=2)
    gen_threads.generate(tmp_path / "b", seed=3, n_videos=2)
    gen_threads.generate(tmp_path / "c", seed=4, n_videos=2)
    first = _files(tmp_path / "a")
    assert set(first) == set(gen_threads.FILES)
    assert first == _files(tmp_path / "b")
    other = _files(tmp_path / "c")
    assert all(first[name] != other[name] for name in gen_threads.FILES)


def _train_and_predict(lexicons):
    dataset = synthetic.make_synthetic_corpus(16, seed=2, lexicons=lexicons)
    table = synthetic.make_embedding_table(seed=2, dimension=8, lexicons=lexicons)
    scorer = lexical.train_title_scorer(
        synthetic.make_labeled_titles(40, seed=2, lexicons=lexicons), lexicons)
    config = network.TrainingConfig(epochs=2, batch_size=4, seed=1)
    model = network.train(dataset, table, lexicons, scorer, config, lstm_hidden=6)
    predictions = [model.predict_record(r, table, lexicons, scorer).p_fake
                   for r in dataset]
    X = lexical.feature_matrix(list(dataset), lexicons, scorer)
    y = np.array([1 if r.label == "fake" else 0 for r in dataset])
    forest = classic.train_forest(X, y, n_trees=5, seed=0)
    return (model.loss_history, predictions, forest.predict_proba_fake(X).tolist(),
            classic.feature_importances(forest).tolist())


def test_wrappers_are_transparent():
    lexicons = lexical.LexiconSet.default()
    originals = (neural.lstm_forward_batch, network.embed_comment,
                 network.UCNetModel.predict_record,
                 classic.RandomForest.predict_proba_fake)
    plain = _train_and_predict(lexicons)
    tracer = spans.Tracer("selftest")
    tracer.install()
    try:
        traced = _train_and_predict(lexicons)
    finally:
        tracer.uninstall()
    tracer.finish()
    assert traced == plain
    assert (neural.lstm_forward_batch, network.embed_comment,
            network.UCNetModel.predict_record,
            classic.RandomForest.predict_proba_fake) == originals
    metrics = tracer.metrics()
    assert metrics["neural.lstm_forward.calls"] > 0
    assert metrics["neural.lstm_backward.self_s"] > 0
    assert metrics["network.fakeness_vector.calls"] == \
        metrics["embeddings.embed_comment.calls"] > 0
    assert 0 < metrics["neural.lstm_forward.real_cell_ratio"] <= 1
    assert metrics["classic.tree_nodes"] > 0


def test_self_time_excludes_children():
    tracer = spans.Tracer("selftest")
    tracer.spans = [["outer", 0.0, 10.0, -1], ["inner", 1.0, 4.0, 0],
                    ["inner", 5.0, 6.0, 0], ["leaf", 2.0, 3.0, 1]]
    whole, own, calls = tracer.layer_times()
    assert whole["outer"] == 10.0 and own["outer"] == 6.0
    assert whole["inner"] == 4.0 and own["inner"] == 3.0
    assert own["leaf"] == 1.0 and calls["inner"] == 2
    assert sum(own.values()) == whole["outer"]


def test_per_layer_names_match_benchmark_json():
    assert list(spans.PER_LAYER_METRICS) == [m["name"] for m in SPEC["per_layer"]]


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_run_prints_declared_metrics(trace, section):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "long-threads",
         "--seed", "5", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=False)
    assert done.returncode == 0, done.stderr
    result = _last_json(done.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in SPEC[section]]
    units = {m["name"]: m["unit"] for m in SPEC[section]}
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]
        assert isinstance(metric["value"], (int, float))
    if trace:
        assert 0.05 < result["metrics"]["neural.lstm_forward.real_cell_ratio"]["value"] < 0.2


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-train",
         "--seed", "1", "--seconds", "10", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False)
    assert done.returncode != 0
    assert "correct" not in done.stdout
