"""Input generator for the `long-threads` workload.

Writes a corpus of long comment threads, a 300-d embedding table, a
title-scorer file and an untrained ucnet model.
The files depend only on the seed: the same seed gives byte-identical files.
They are built from `ucnet.synthetic`, `network.init_params` and numpy; the
program under test only ever sees the files.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

import numpy as np

from ucnet import corpus, lexical, network, synthetic
from ucnet.embeddings import save_embeddings

N_VIDEOS = 4
EMBEDDING_DIM = 300
LSTM_HIDDEN = 300
# 120 is the paper's mining floor; counts above the model's 200-comment cap
# are truncated by the program.
MIN_COMMENTS, MAX_COMMENTS = 120, 260
# The comment-length model below is a stand-in, not measured traffic: no
# source at hand gives the length distribution of YouTube comments or the
# share of long ones. Its constants were tuned so that, with every video
# padded to the 100-token cap, about 11 % of LSTM cells are real. Lengths are
# mostly short (log-normal), with a tail of very long comments that reaches
# the cap even after OOV tokens are skipped; the OOV and phrase-plant rates
# are chosen the same way. Only the comment counts (from the 120-comment
# mining floor up) follow the paper.
LONG_COMMENT_RATE = 0.04
LONG_COMMENT_TOKENS = (110, 160)
SHORT_MEDIAN_TOKENS = 5.8
SHORT_SIGMA = 0.8
OOV_RATE = 0.1
N_OOV_TOKENS = 500
PLANT_RATE = {"fake": 0.4, "real": 0.02}

FILES = ("corpus.jsonl", "embeddings.txt", "scorer.model", "ucnet.model")


def _thread(rng, n: int, video_id: str, label: str, vocab, oov, phrases):
    comments = []
    for i in range(n):
        if rng.random() < LONG_COMMENT_RATE:
            length = int(rng.integers(*LONG_COMMENT_TOKENS))
        else:
            length = 1 + int(rng.lognormal(np.log(SHORT_MEDIAN_TOKENS), SHORT_SIGMA))
        words = [oov[int(rng.integers(len(oov)))] if rng.random() < OOV_RATE
                 else vocab[int(rng.integers(len(vocab)))] for _ in range(length)]
        if rng.random() < PLANT_RATE[label]:
            words.insert(int(rng.integers(len(words) + 1)),
                         phrases[int(rng.integers(len(phrases)))])
        comments.append(corpus.Comment(
            id=f"{video_id}-c{i:03d}", text=" ".join(words),
            like_count=int(rng.integers(0, 50)),
            reply_count=int(rng.poisson(0.5)),
            published_at=f"2016-{1 + i % 12:02d}-{1 + i % 28:02d}T"
                         f"{i % 24:02d}:{i % 60:02d}:00Z"))
    return tuple(comments)


def generate(out_dir, seed: int, n_videos: int = N_VIDEOS) -> dict[str, Path]:
    """Write the workload's input files into out_dir; returns name -> path."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    lexicons = lexical.LexiconSet.default()
    phrases = lexical.load_fakeness_phrases()
    table = synthetic.make_embedding_table(seed, EMBEDDING_DIM, lexicons)
    vocab = sorted(table.vectors)
    oov = [f"zq{i}" for i in range(N_OOV_TOKENS)]
    base = synthetic.make_synthetic_corpus(n_videos, seed, lexicons)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 11]))
    # One comment count per stratum of [MIN, MAX], so every seed gives about
    # the same total work while the counts still span the whole range.
    span = MAX_COMMENTS - MIN_COMMENTS + 1
    strata = rng.permutation(n_videos) + rng.random(n_videos)
    counts = MIN_COMMENTS + (strata * span / n_videos).astype(int)
    records = tuple(
        dataclasses.replace(rec, comments=_thread(rng, int(n), rec.id, rec.label,
                                                  vocab, oov, phrases))
        for rec, n in zip(base, counts))
    paths = {name: out_dir / name for name in FILES}
    corpus.save_dataset(corpus.Dataset(f"long-threads-seed{seed}", records),
                        paths["corpus.jsonl"])
    save_embeddings(table, paths["embeddings.txt"])
    titles = synthetic.make_labeled_titles(240, seed, lexicons)
    lexical.train_title_scorer(titles, lexicons).save(paths["scorer.model"])
    model_rng = np.random.default_rng(np.random.SeedSequence([seed, 12]))
    params = network.init_params(model_rng, EMBEDDING_DIM, len(phrases),
                                 len(lexical.FEATURE_NAMES), LSTM_HIDDEN)
    model = network.UCNetModel(params, phrases, lexical.FEATURE_NAMES,
                               EMBEDDING_DIM, network.TrainingConfig(seed=seed))
    model.save(paths["ucnet.model"])
    return paths

