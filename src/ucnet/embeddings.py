"""Pretrained word-vector tables and comment-to-token-id mapping.

A table maps each token to a row of one contiguous ``(V, dimension)``
float64 matrix: ``table.vocab[token]`` is the row, in the order the tokens
were given or stored. :func:`embed_comment` turns a comment into the row
ids of its in-vocabulary tokens, and ``table.matrix[ids]`` gives the
comment's word vectors; the LSTM takes the ids and the matrix and never
needs the stacked vectors.

The on-disk format is textual: a `<vocab_size> <dimension>` header line,
then one token per line followed by its components. The test suite and the
synthetic corpus ship small tables; real word2vec dumps can be converted to
this format offline.
"""

from __future__ import annotations

from pathlib import Path
from typing import Mapping

import numpy as np

from .corpus import read_utf8
from .lexical import tokenize
from .serialize import valid_name

DEFAULT_MAX_TOKENS = 100


class EmbeddingTable:
    """Tokens mapped to the rows of one ``(V, dimension)`` float64 matrix.

    Built from an insertion-ordered ``token -> vector`` mapping; the row of
    each token is its position in that order. Every component is finite.
    """

    dimension: int
    vocab: dict[str, int]
    matrix: np.ndarray

    def __init__(self, dimension: int, vectors: Mapping[str, np.ndarray]):
        if dimension <= 0:
            raise ValueError("embedding dimension must be positive")
        rows = []
        for token, vec in vectors.items():
            vec = np.asarray(vec, dtype=np.float64)
            if vec.shape != (dimension,):
                raise ValueError(
                    f"token {token!r} has a vector of length {vec.shape}, "
                    f"expected {dimension}")
            rows.append(vec)
        matrix = np.stack(rows) if rows else np.zeros((0, dimension))
        bad = _first_non_finite_row(matrix)
        if bad is not None:
            raise ValueError(
                f"token {list(vectors)[bad]!r} has non-finite components")
        self._adopt({token: row for row, token in enumerate(vectors)}, matrix)

    def _adopt(self, vocab: dict[str, int], matrix: np.ndarray) -> None:
        """Take a validated matrix whose row ``vocab[token]`` is token's."""
        self.dimension = matrix.shape[1]
        self.vocab = vocab
        self.matrix = matrix

    @property
    def vectors(self) -> dict[str, np.ndarray]:
        """``token -> vector`` in row order; the vectors are matrix rows."""
        return dict(zip(self.vocab, self.matrix))

    def __contains__(self, token: str) -> bool:
        return token in self.vocab

    def __len__(self) -> int:
        return len(self.vocab)

    def lookup(self, token: str) -> np.ndarray:
        return self.matrix[self.vocab[token]]


def _first_non_finite_row(matrix: np.ndarray) -> int | None:
    finite = np.isfinite(matrix).all(axis=1)
    return None if finite.all() else int(np.argmin(finite))


def load_embeddings(path, expected_dim: int) -> EmbeddingTable:
    if expected_dim <= 0:
        raise ValueError("embedding dimension must be positive")
    path = Path(path)
    lines = read_utf8(path).splitlines()
    if not lines:
        raise ValueError(f"{path}: empty embedding file")
    try:
        vocab_size, dim = map(int, lines[0].split())
    except ValueError:  # not two fields, or one is not an integer
        raise ValueError(f"{path}: line 1: header must be '<vocab_size> "
                         f"<dimension>', got {lines[0][:60]!r}") from None
    if dim != expected_dim:
        raise ValueError(
            f"{path}: file dimension {dim} does not match expected {expected_dim}")
    vocab: dict[str, int] = {}
    linenos: list[int] = []
    rows: list[list[float]] = []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split()
        if not parts:
            continue
        token = parts[0]
        if token in vocab:
            raise ValueError(f"{path}: line {lineno}: duplicate token {token!r}")
        if len(parts) - 1 != expected_dim:
            raise ValueError(
                f"{path}: line {lineno}: token {token!r} has {len(parts) - 1} "
                f"values, expected {expected_dim}")
        try:
            rows.append([float(v) for v in parts[1:]])
        except ValueError:
            raise ValueError(f"{path}: line {lineno}: token {token!r} has a "
                             "component that is not a number") from None
        vocab[token] = len(linenos)
        linenos.append(lineno)
    if len(vocab) != vocab_size:
        raise ValueError(
            f"{path}: header promises {vocab_size} tokens, file has {len(vocab)}")
    matrix = np.array(rows, dtype=np.float64).reshape(len(rows), expected_dim)
    bad = _first_non_finite_row(matrix)
    if bad is not None:
        raise ValueError(f"{path}: line {linenos[bad]}: token "
                         f"{list(vocab)[bad]!r} has non-finite components")
    table = EmbeddingTable.__new__(EmbeddingTable)
    table._adopt(vocab, matrix)
    return table


def save_embeddings(table: EmbeddingTable, path) -> None:
    for token in table.vocab:
        if not valid_name(token):
            raise ValueError(f"token {token!r} must be non-empty and contain "
                             "no whitespace to be saved")
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{len(table)} {table.dimension}\n")
        for token, row in zip(table.vocab, table.matrix.tolist()):
            fh.write(token + " " + " ".join(f"{v:.17g}" for v in row) + "\n")


def embed_comment(text: str, table: EmbeddingTable,
                  max_tokens: int = DEFAULT_MAX_TOKENS) -> np.ndarray:
    """Row ids of the lower-cased in-vocabulary tokens, in order, truncated.

    Out-of-vocabulary tokens are skipped rather than mapped to a zero row,
    so they do not dilute pooled embeddings. Returns a (k,) int64 array; k
    may be 0. ``table.matrix[ids]`` is the (k, dimension) vector sequence.
    """
    vocab = table.vocab
    ids: list[int] = []
    for token in tokenize(text):
        row = vocab.get(token.lower())
        if row is not None:
            ids.append(row)
            if len(ids) >= max_tokens:
                break
    return np.array(ids, dtype=np.int64)
