"""Span and counter recording for the traced benchmark run.

The program is not edited: `Tracer.install` replaces each traced function at
the name its callers look up (a module attribute, or a class attribute for
methods) with a wrapper that records a span around the call and, for some
layers, counts work from the call's arguments. Spans and counters stay in
memory; `Tracer.dump` writes them out when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import os
from collections import Counter, defaultdict
from time import perf_counter

# Subcommands the workloads run; each gets a `cli.<name>.self_s` metric.
SUBCOMMANDS = ("make-synthetic", "mine", "features", "prune", "train-classic",
               "train-ucnet", "evaluate", "pca")

# Per-layer metrics of a traced run, as listed in BENCHMARK.json. A name
# ending in `.self_s` is the span's time minus its child spans, `.s` the
# span's whole time and `.calls` the number of spans; the rest are counters
# or ratios.
PER_LAYER_METRICS = (
    "neural.lstm_forward.self_s",
    "neural.lstm_forward.calls",
    "neural.lstm_forward.cells_padded",
    "neural.lstm_forward.real_cell_ratio",
    "neural.lstm_backward.self_s",
    "neural.adam_step.self_s",
    "network.train.self_s",
    "network.predict.self_s",
    "network.fakeness_vector.self_s",
    "network.fakeness_vector.calls",
    "network.comments_truncated",
    "embeddings.embed_comment.self_s",
    "embeddings.embed_comment.calls",
    "embeddings.oov_token_ratio",
    "embeddings.tokens_truncated",
    "embeddings.load_embeddings.s",
    "embeddings.load_embeddings.bytes",
    "serialize.load_tensors.s",
    "serialize.load_tensors.bytes",
    "serialize.save_tensors.s",
    "lexical.extract_features.self_s",
    "lexical.extract_features.calls",
    "lexical.train_title_scorer.s",
    "lexical.prune_correlated.s",
    "classic.train_forest.self_s",
    "classic.tree_nodes",
    "classic.forest_predict.s",
    "classic.feature_importances.s",
    "corpus.load_dataset.s",
    "corpus.load_dataset.bytes",
    "corpus.mine_candidates.s",
    "corpus.split_dataset.s",
    "evaluation.pca_project.s",
    "evaluation.evaluate.s",
    *(f"cli.{sub}.self_s" for sub in SUBCOMMANDS),
    "cli.bytes_hashed",
    "synthetic.make_synthetic_corpus.s",
    "trace.overhead_ratio",
)

RATIOS = {
    "neural.lstm_forward.real_cell_ratio":
        ("neural.lstm_forward.cells_real", "neural.lstm_forward.cells_padded"),
    "embeddings.oov_token_ratio":
        ("embeddings.tokens_oov", "embeddings.tokens_seen"),
}


def _file_bytes(counter: str):
    def count(counters, call, result):
        counters[counter] += os.path.getsize(call.arguments["path"])
    return count


def _lstm_cells(counters, call, result):
    xs, lengths = call.arguments["xs"], call.arguments["lengths"]
    counters["neural.lstm_forward.cells_padded"] += int(xs.shape[0] * xs.shape[1])
    counters["neural.lstm_forward.cells_real"] += int(lengths.sum())


def _comments_truncated(counters, call, result):
    counters["network.comments_truncated"] += max(
        0, len(call.arguments["comments"]) - call.arguments["max_comments"])


def _tree_nodes(counters, call, result):
    counters["classic.tree_nodes"] += sum(len(t.feature) for t in result.trees)


class Tracer:
    """Records spans (name, start, end, parent, run id) and counters."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._deferred: list[tuple] = []
        self._installed: list[tuple] = []

    def _open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        self.spans[index][1] = perf_counter()
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around work the benchmark itself starts."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, owner, attr: str, name: str | None, count=None,
             defer: bool = False) -> None:
        """Replace owner.attr with a recording wrapper.

        name=None records no span, only the counter. count(counters,
        bound_arguments, result) runs after the span closes; with defer=True
        it runs in `finish`, with result None, so costly counting does not
        land in the caller's self time.
        """
        original = getattr(owner, attr)
        signature = inspect.signature(original)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = tracer._open(name) if name else None
            try:
                result = original(*args, **kwargs)
            finally:
                if index is not None:
                    tracer._close(index)
            if count is not None:
                call = signature.bind(*args, **kwargs)
                call.apply_defaults()
                if defer:
                    tracer._deferred.append((count, call))
                else:
                    count(tracer.counters, call, result)
            return result

        self._installed.append((owner, attr, original))
        setattr(owner, attr, traced)

    def install(self) -> None:
        """Wrap the traced functions of every ucnet layer."""
        from ucnet import (classic, cli, corpus, embeddings, evaluation,
                           lexical, network, neural, serialize, synthetic)

        def embed_counts(counters, call, result):
            table, cap = call.arguments["table"], call.arguments["max_tokens"]
            tokens = [t.lower() for t in lexical.tokenize(call.arguments["text"])]
            known = sum(1 for t in tokens if t in table)
            counters["embeddings.tokens_seen"] += len(tokens)
            counters["embeddings.tokens_oov"] += len(tokens) - known
            counters["embeddings.tokens_truncated"] += max(0, known - cap)

        wrap = self.wrap
        wrap(neural, "lstm_forward_batch", "neural.lstm_forward", _lstm_cells)
        wrap(neural, "lstm_backward_batch", "neural.lstm_backward")
        wrap(neural, "adam_step", "neural.adam_step")
        wrap(network, "train", "network.train")
        wrap(network.UCNetModel, "predict_record", "network.predict")
        wrap(network, "extract_unified_embeddings", "network.predict")
        wrap(network, "prepare_video", None, _comments_truncated)
        wrap(network, "fakeness_vector", "network.fakeness_vector")
        wrap(network, "embed_comment", "embeddings.embed_comment",
             embed_counts, defer=True)
        wrap(network, "extract_features", "lexical.extract_features")
        for owner in (cli, embeddings):
            wrap(owner, "load_embeddings", "embeddings.load_embeddings",
                 _file_bytes("embeddings.load_embeddings.bytes"))
        wrap(serialize, "load_tensors", "serialize.load_tensors",
             _file_bytes("serialize.load_tensors.bytes"))
        wrap(serialize, "save_tensors", "serialize.save_tensors")
        wrap(lexical, "extract_features", "lexical.extract_features")
        for owner in (cli, lexical):
            wrap(owner, "train_title_scorer", "lexical.train_title_scorer")
        wrap(lexical, "prune_correlated", "lexical.prune_correlated")
        wrap(classic, "train_forest", "classic.train_forest", _tree_nodes)
        wrap(classic.RandomForest, "predict_proba_fake", "classic.forest_predict")
        wrap(classic, "feature_importances", "classic.feature_importances")
        wrap(corpus, "load_dataset", "corpus.load_dataset",
             _file_bytes("corpus.load_dataset.bytes"))
        wrap(corpus, "mine_candidates", "corpus.mine_candidates")
        wrap(corpus, "split_dataset", "corpus.split_dataset")
        wrap(evaluation, "pca_project", "evaluation.pca_project")
        wrap(evaluation, "evaluate", "evaluation.evaluate")
        wrap(synthetic, "make_synthetic_corpus", "synthetic.make_synthetic_corpus")
        wrap(cli, "_sha256", None, _file_bytes("cli.bytes_hashed"))

    def uninstall(self) -> None:
        """Put every wrapped function back."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def finish(self) -> None:
        """Run the deferred counters; call once the traced work is done."""
        for count, call in self._deferred:
            count(self.counters, call, None)
        self._deferred.clear()

    def layer_times(self) -> tuple[dict, dict, Counter]:
        """Whole time, self time and span count, summed per span name."""
        child_time = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        whole, own, calls = defaultdict(float), defaultdict(float), Counter()
        for index, (name, start, end, parent) in enumerate(self.spans):
            whole[name] += end - start
            own[name] += end - start - child_time[index]
            calls[name] += 1
        return whole, own, calls

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric except trace.overhead_ratio."""
        whole, own, calls = self.layer_times()
        out = {}
        for metric in PER_LAYER_METRICS:
            if metric in RATIOS:
                num, den = RATIOS[metric]
                out[metric] = (self.counters[num] / self.counters[den]
                               if self.counters[den] else 0.0)
            elif metric.endswith(".self_s"):
                out[metric] = own[metric[:-len(".self_s")]]
            elif metric.endswith(".s"):
                out[metric] = whole[metric[:-len(".s")]]
            elif metric.endswith(".calls"):
                out[metric] = calls[metric[:-len(".calls")]]
            elif metric != "trace.overhead_ratio":
                out[metric] = self.counters[metric]
        return out

    def dump(self, path) -> None:
        """Write spans and counters as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"run": self.run_id, "name": name,
                                     "start": start, "end": end,
                                     "parent": parent}) + "\n")
            fh.write(json.dumps({"run": self.run_id,
                                 "counters": dict(self.counters)}) + "\n")
