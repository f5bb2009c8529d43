"""The benchmark's workloads: inputs, timed stages and output checks.

Each workload drives ucnet from outside only, through `ucnet.cli.main` and
the public library API. `setup` prepares the inputs from the seed; `run_pass`
runs the timed stages once and returns a digest of the outputs and workload
figures. The worker repeats passes while they fit in the run's seconds.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import math
from pathlib import Path
from time import perf_counter

from ucnet import cli, corpus, embeddings, evaluation, lexical, network

import gen_threads

# Quality floors checked on every run. The forest floor is acceptance
# criterion 4's. The ucnet floor is lower than criterion 4's 0.95: through the
# CLI (split and training seed 0) the baseline scores 0.78-1.0 over 46 corpus
# seeds, below 0.95 on about half of them. 0.70 still catches a model that no
# longer trains (5 epochs score about 0.6).
UCNET_MIN_MACRO_F1 = 0.70
FOREST_MIN_MACRO_F1 = 0.90


class Context:
    """Work directory, seed, optional tracer and the list of operations."""

    def __init__(self, work_dir, seed: int, tracer=None):
        self.dir = Path(work_dir)
        self.inputs = self.dir / "inputs"
        self.out = self.dir / "out"
        self.inputs.mkdir(parents=True, exist_ok=True)
        self.out.mkdir(parents=True, exist_ok=True)
        self.seed = seed
        self.tracer = tracer
        self.ops: list[tuple[str, bool, str]] = []
        self.times: dict[str, float] = {}
        self.state: dict = {}

    def op(self, name: str, ok: bool, detail: str = "") -> bool:
        self.ops.append((name, bool(ok), detail))
        return ok

    @contextlib.contextmanager
    def stage(self, label: str, span: str = ""):
        """Time one stage; an error raised in it fails the stage's operation."""
        span_cm = self.tracer.span(span or f"bench.{label}") if self.tracer \
            else contextlib.nullcontext()
        start = perf_counter()
        try:
            with span_cm:
                yield
        except Exception as exc:  # one failed stage must not stop the run
            self.op(label, False, f"{type(exc).__name__}: {exc}")
        else:
            self.op(label, True)
        finally:
            self.times[label] = perf_counter() - start

    def cli(self, label: str, *argv) -> bool:
        """Run one ucnet subcommand in-process; a non-zero exit fails it."""
        with self.stage(label, f"cli.{argv[0]}"):
            code = cli.main([str(a) for a in argv])
            if code != 0:
                raise RuntimeError(f"exit code {code}")
        return self.ops[-1][1]

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        return self.op(f"check {name}", ok, detail)


def file_digest(*paths) -> str:
    digest = hashlib.sha256()
    for path in paths:
        digest.update(Path(path).read_bytes())
    return digest.hexdigest()


def _csv_rows(path) -> int:
    with open(path, encoding="utf-8", newline="") as fh:
        return sum(1 for _ in csv.reader(fh)) - 1


def _make_synthetic(ctx: Context, n_videos: int) -> None:
    ctx.cli("make-synthetic", "make-synthetic", "--output-dir", ctx.inputs,
            "--n-videos", n_videos, "--seed", ctx.seed)


CLASSIC_STAGES = ("features-train", "features-test", "prune", "train-classic",
                  "evaluate-forest")


def _classic_stages(ctx: Context) -> float:
    """Mine, split 0.7/0.3 (seed 0, as train-ucnet splits), features, prune,
    a 100-tree forest on the selected features and evaluate; returns the
    forest's macro-F, NaN if evaluate failed."""
    i, o = ctx.inputs, ctx.out
    # Synthetic videos have 6-12 comments and 15k-300k views.
    ctx.cli("mine", "mine", "--input", i / "corpus.jsonl",
            "--output", o / "mined.jsonl", "--min-comments", "6",
            "--min-views", "15000")
    with ctx.stage("split"):
        full = corpus.load_dataset(i / "corpus.jsonl", "corpus")
        train, test = corpus.split_dataset(full, 0.3, seed=0)
        corpus.save_dataset(train, o / "train.jsonl")
        corpus.save_dataset(test, o / "test.jsonl")
        with open(o / "truth.csv", "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["video_id", "label"])
            writer.writerows((r.id, r.label) for r in test)
    ctx.cli("features-train", "features", "--input", o / "train.jsonl",
            "--output", o / "train.csv", "--train-titles", i / "titles.tsv",
            "--save-scorer", o / "scorer.model")
    ctx.cli("features-test", "features", "--input", o / "test.jsonl",
            "--output", o / "test.csv", "--scorer", o / "scorer.model")
    ctx.cli("prune", "prune", "--features", o / "train.csv",
            "--output", o / "selected.json")
    ctx.cli("train-classic", "train-classic", "--features", o / "train.csv",
            "--model", "forest", "--selected", o / "selected.json",
            "--test-features", o / "test.csv",
            "--predictions", o / "forest_pred.csv", "--output", o / "forest.model")
    f1 = float("nan")
    if ctx.cli("evaluate-forest", "evaluate", "--pred", o / "forest_pred.csv",
               "--truth", o / "truth.csv", "--output", o / "forest_report.csv"):
        f1 = evaluation.read_report(o / "forest_report.csv").macro_f1
    ctx.check("forest macro-F", f1 >= FOREST_MIN_MACRO_F1,
              f"{f1:.4f} < {FOREST_MIN_MACRO_F1}")
    return f1


def _failed(ctx: Context) -> bool:
    return not all(ok for _, ok, _ in ctx.ops)


class PaperTrain:
    """Acceptance criterion 4 through the CLI: 200 synthetic videos with 6-12
    short comments, mined, split 0.7/0.3, the forest baseline (see
    `_classic_stages`) and ucnet on all eight features with 16-d embeddings,
    LSTM hidden 300, 30 epochs at batch 16, both evaluated.

    Chosen because it is the only workload that trains: nearly all of its
    time is LSTM forward and BPTT in `neural`, exact-mean pooling in
    `network` and the Adam step, on short comments (about half the padded
    LSTM cells are real).
    """

    name = "paper-train"
    n_videos = 200
    epochs = 30

    def setup(self, ctx: Context) -> None:
        _make_synthetic(ctx, self.n_videos)

    def run_pass(self, ctx: Context) -> dict:
        i, o = ctx.inputs, ctx.out
        forest_f1 = _classic_stages(ctx)
        # All eight features, as in criterion 4; prune's selection keeps one
        # feature on this corpus (ucnet macro-F 0.83 against 0.90 at seed 7).
        ctx.cli("train-ucnet", "train-ucnet", "--input", i / "corpus.jsonl",
                "--test-fraction", "0.3", "--embeddings", i / "embeddings.txt",
                "--embedding-dim", "16", "--scorer", o / "scorer.model",
                "--all-features", "--epochs", self.epochs,
                "--output", o / "ucnet.model", "--predictions", o / "pred.csv",
                "--truth-out", o / "ucnet_truth.csv")
        f1 = float("nan")
        if ctx.cli("evaluate-ucnet", "evaluate", "--pred", o / "pred.csv",
                   "--truth", o / "ucnet_truth.csv", "--output", o / "report.csv"):
            f1 = evaluation.read_report(o / "report.csv").macro_f1
        ctx.check("ucnet macro-F", f1 >= UCNET_MIN_MACRO_F1,
                  f"{f1:.4f} < {UCNET_MIN_MACRO_F1}")
        figures = {"ucnet_macro_f1": f1, "forest_macro_f1": forest_f1}
        if _failed(ctx):
            return {"digest": None, "videos_per_s": 0.0, **figures}
        n_train = self.n_videos - _csv_rows(o / "ucnet_truth.csv")
        rate = n_train * self.epochs / ctx.times["train-ucnet"]
        return {"digest": file_digest(o / "forest_pred.csv", o / "pred.csv",
                                      o / "report.csv", o / "ucnet.model"),
                "videos_per_s": rate,
                **figures}


class LongThreads:
    """Forward-only scoring of long comment threads: 120-260 comments per
    video (some cut by the 200-comment cap), heavy-tailed lengths up to the
    100-token cap, 300-d embeddings, LSTM hidden 300. The length model is a
    stand-in tuned to about 11 % real LSTM cells, not measured traffic (see
    gen_threads).

    Chosen because it runs the same `neural`/`network` code as paper-train
    but forward only and with far more padding, so packing, batched
    prediction and faster tokenizing or phrase matching show here, and a
    change that speeds training at the cost of forward shows too.
    """

    name = "long-threads"

    def setup(self, ctx: Context) -> None:
        with ctx.stage("generate"):
            paths = gen_threads.generate(ctx.inputs, ctx.seed)
            lexicons = lexical.LexiconSet.default()
            ctx.state.update(
                paths=paths, lexicons=lexicons,
                dataset=corpus.load_dataset(paths["corpus.jsonl"], "long-threads"),
                table=embeddings.load_embeddings(paths["embeddings.txt"],
                                                 gen_threads.EMBEDDING_DIM),
                scorer=lexical.TitleScorer.load(paths["scorer.model"], lexicons))

    def run_pass(self, ctx: Context) -> dict:
        s, o = ctx.state, ctx.out
        if "dataset" not in s:
            return {"digest": None, "videos_per_s": 0.0}
        p_fake = []
        with ctx.stage("score"):
            model = network.UCNetModel.load(s["paths"]["ucnet.model"])
            for record in s["dataset"]:
                p = model.predict_record(record, s["table"], s["lexicons"],
                                         s["scorer"]).p_fake
                ctx.op(f"score {record.id}", math.isfinite(p) and 0.0 <= p <= 1.0,
                       f"p_fake={p!r}")
                p_fake.append(p)
        n = len(s["dataset"])
        if ctx.cli("pca", "pca", "--input", s["paths"]["corpus.jsonl"],
                   "--model", s["paths"]["ucnet.model"],
                   "--embeddings", s["paths"]["embeddings.txt"],
                   "--output", o / "pca.csv"):
            rows = _csv_rows(o / "pca.csv")
            ctx.check("pca rows", rows == n, f"{rows} rows for {n} videos")
        if _failed(ctx):
            return {"digest": None, "videos_per_s": 0.0}
        digest = hashlib.sha256(repr(p_fake).encode())
        digest.update((o / "pca.csv").read_bytes())
        return {"digest": digest.hexdigest(),
                "videos_per_s": n / ctx.times["score"],
                "embed_videos_per_s": n / ctx.times["pca"]}


class ClassicLarge:
    """The forest half of paper-train (`_classic_stages`) at 4 000 videos.

    Chosen because it never touches the LSTM, so a change to `neural`
    should leave it unchanged. Its time goes to pure-Python feature
    extraction in `lexical`, the CART split search in `classic`, several MB
    of JSONL and CSV I/O and the CLI's SHA-256 manifest hashing.

    It is not declared in BENCHMARK.json: on a 2-vCPU VM its pure-Python
    stages drift with the host's speed about twice as much as the BLAS-bound
    workloads, so its spread over ten seeds (0.16-0.27 of the median) is not
    within a 0.25 regression bound. Run it by name.
    """

    name = "classic-large"
    n_videos = 4000

    def setup(self, ctx: Context) -> None:
        _make_synthetic(ctx, self.n_videos)

    def run_pass(self, ctx: Context) -> dict:
        f1 = _classic_stages(ctx)
        if _failed(ctx):
            return {"digest": None, "videos_per_s": 0.0, "forest_macro_f1": f1}
        rate = self.n_videos / sum(ctx.times[k] for k in CLASSIC_STAGES)
        return {"digest": file_digest(ctx.out / "forest_pred.csv",
                                      ctx.out / "forest_report.csv"),
                "videos_per_s": rate,
                "forest_macro_f1": f1}


WORKLOADS = {w.name: w for w in (PaperTrain(), LongThreads(), ClassicLarge())}
