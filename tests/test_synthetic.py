"""Byte pins of the synthetic generator.

The corpus, the labeled titles and the files of ``make-synthetic`` are the
inputs of the acceptance suite and the benchmark, so a change to how the
generator draws must keep them byte for byte. The digests were taken before
the generator derived its lists once per lexicon set and drew its filler
words in one call.
"""

import hashlib

import pytest

from ucnet import corpus, synthetic
from ucnet.cli import main

CORPUS_200 = {
    7: "411af44ba088397bf628e5e938fe91e84312ccdb87772b35ce95a0d92f553161",
    3: "f0cb927f72fa1796a38330fd5bf7cf89aaabea6f2ac4a8451d8736a46ffed4d5",
}
TITLES_240 = {
    7: "b394514c3b164d5e4802442b5c8e1f53eea0c54b6b428446ec02ec0d57bbe970",
    3: "f388b9b43c998b79ff76fd356d28c0102120dfd8a133f7c486e0f0623b047572",
}
# make-synthetic --n-videos 60, other flags at their defaults.
CLI_60 = {
    7: {"corpus.jsonl": "c9d7570d418400bcc885db67d1a1fdb0034d180a4cd88aece94368ea94caf3fa",
        "embeddings.txt": "effe8ed7eea9f480fa8e87debfff053eb4cefb042b6527e3eb66d2658cbe1d40",
        "titles.tsv": TITLES_240[7]},
    3: {"corpus.jsonl": "e79d30063c0c049f129b9460642fac54e418c828a9bb6b2983763ef2a448146b",
        "embeddings.txt": "eea51d0514c28f8c03275e02238c86a2dfb11c28f83f38827d1b9574489f9b55",
        "titles.tsv": TITLES_240[3]},
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("seed", sorted(CORPUS_200))
def test_corpus_bytes(tmp_path, lexicons, seed):
    dataset = synthetic.make_synthetic_corpus(200, seed, lexicons)
    corpus.save_dataset(dataset, tmp_path / "corpus.jsonl")
    assert sha256((tmp_path / "corpus.jsonl").read_bytes()) == CORPUS_200[seed]


@pytest.mark.parametrize("seed", sorted(TITLES_240))
def test_labeled_title_bytes(lexicons, seed):
    titles = synthetic.make_labeled_titles(240, seed, lexicons)
    text = "".join(f"{label}\t{title}\n" for title, label in titles)
    assert sha256(text.encode("utf-8")) == TITLES_240[seed]


@pytest.mark.parametrize("seed", sorted(CLI_60))
def test_make_synthetic_output_bytes(tmp_path, seed):
    assert main(["make-synthetic", "--output-dir", str(tmp_path),
                 "--n-videos", "60", "--seed", str(seed)]) == 0
    for name, digest in CLI_60[seed].items():
        assert sha256((tmp_path / name).read_bytes()) == digest, name
