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

:func:`load_embeddings` streams the file, parsing numbers only for the rows
it keeps, and writes them straight into the table's matrix. Given the
vocabulary of a corpus, it keeps only those tokens' rows, so a table far
larger than the corpus costs about the corpus's rows in memory. The LSTM
gathers the distinct rows a batch uses in row order, which a filtered load
keeps, so a model computes the same bits from either table.
"""

from __future__ import annotations

import itertools
from pathlib import Path
from typing import Collection, Iterable, Iterator, Mapping

import numpy as np

from .lexical import tokenize
from .serialize import valid_name

DEFAULT_MAX_TOKENS = 100


class EmbeddingTable:
    """Tokens mapped to the rows of one ``(V, dimension)`` float64 matrix.

    Built from an insertion-ordered ``token -> vector`` mapping; the row of
    each token is its position in that order. Every component is finite
    and within the float32 range.
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
        bad = _first_bad_row(matrix, vectors)
        if bad is not None:
            raise ValueError(bad[1])
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


_FLOAT32_MAX = float(np.finfo(np.float32).max)


def _first_bad_row(matrix: np.ndarray, tokens: Iterable[str]
                   ) -> tuple[int, str] | None:
    """(row, why) of the first row with a non-finite component, else of the
    first with one beyond the float32 range, which the LSTM gathers rows
    into; ``why`` names the row's token, its entry in ``tokens``. None for
    a good matrix, which min and max check without a temporary."""
    if not matrix.size or max(matrix.max(), -matrix.min()) <= _FLOAT32_MAX:
        return None  # NaN fails the comparison
    finite = np.isfinite(matrix).all(axis=1)
    if not finite.all():
        row, why = int(np.argmin(finite)), "has non-finite components"
    else:
        row = int(np.argmax((np.abs(matrix) > _FLOAT32_MAX).any(axis=1)))
        why = ("has a component beyond the float32 range "
               f"(±{_FLOAT32_MAX:.8g})")
    return row, f"token {list(tokens)[row]!r} {why}"


def load_embeddings(path, expected_dim: int,
                    vocabulary: Collection[str] | None = None) -> EmbeddingTable:
    """The table stored at ``path``, read one line at a time.

    With a ``vocabulary``, only the rows of its tokens are kept, in file
    order, so a row's id is its rank among the kept tokens; ids then differ
    from an unfiltered load's but pick the same vectors in the same
    relative order. Every line is checked for its field count and for a
    duplicate token, and the header's count against the number of lines;
    the components of kept rows must also be finite numbers within the
    float32 range, which the LSTM computes in. Memory is the
    kept rows' matrix, grown by a quarter at a time and trimmed at the end,
    plus one line and an 8-byte hash of each token: a hash seen twice is
    confirmed by reading the file again, and a file fails on its first bad
    line whichever check finds it.
    """
    if expected_dim <= 0:
        raise ValueError("embedding dimension must be positive")
    path = Path(path)
    hashes = bytearray()  # _token_hash of each token line, in order
    try:
        with path.open("rb") as fh:
            lines = _numbered_lines(path, fh)
            _, header = next(lines, (None, None))
            if header is None:
                raise ValueError(f"{path}: empty embedding file")
            try:
                vocab_size, dim = map(int, header.split())
            except ValueError:  # not two fields, or one is not an integer
                raise ValueError(
                    f"{path}: line 1: header must be '<vocab_size> "
                    f"<dimension>', got {header[:60]!r}") from None
            if dim != expected_dim:
                raise ValueError(f"{path}: file dimension {dim} does not "
                                 f"match expected {expected_dim}")
            vocab: dict[str, int] = {}
            linenos: list[int] = []
            # Grown as rows arrive, never sized from the header's count.
            matrix = np.empty((max(1, 65536 // (8 * dim)), dim))
            for lineno, line in lines:
                parts = line.split()
                if not parts:
                    continue
                token = parts[0]
                hashes += _token_hash(token).to_bytes(8, "little", signed=True)
                if token in vocab:
                    raise _duplicate(path, lineno, token)
                if len(parts) - 1 != expected_dim:
                    raise ValueError(
                        f"{path}: line {lineno}: token {token!r} has "
                        f"{len(parts) - 1} values, expected {expected_dim}")
                if vocabulary is not None and token not in vocabulary:
                    continue
                try:
                    row = list(map(float, parts[1:]))
                except ValueError:
                    raise ValueError(
                        f"{path}: line {lineno}: token {token!r} has a "
                        "component that is not a number") from None
                if len(vocab) == len(matrix):
                    # realloc releases the old block as it makes the new one
                    matrix.resize((len(matrix) * 5 // 4 + 1, dim),
                                  refcheck=False)
                matrix[len(vocab)] = row
                vocab[token] = len(linenos)
                linenos.append(lineno)
    except ValueError:
        _refuse_duplicates(path, hashes)  # a duplicate before the fault
        raise
    _refuse_duplicates(path, hashes)
    if len(hashes) // 8 != vocab_size:
        raise ValueError(f"{path}: header promises {vocab_size} tokens, "
                         f"file has {len(hashes) // 8}")
    matrix.resize((len(vocab), dim), refcheck=False)
    bad = _first_bad_row(matrix, vocab)
    if bad is not None:
        raise ValueError(f"{path}: line {linenos[bad[0]]}: {bad[1]}")
    table = EmbeddingTable.__new__(EmbeddingTable)
    table._adopt(vocab, matrix)
    return table


_token_hash = hash  # 64 bits; equal hashes are confirmed by the tokens


def _duplicate(path: Path, lineno: int, token: str) -> ValueError:
    return ValueError(f"{path}: line {lineno}: duplicate token {token!r}")


def _refuse_duplicates(path: Path, hashes: bytearray) -> None:
    """Raise the duplicate-token error of the first token line of ``path``
    that repeats an earlier token, among the token lines ``hashes`` holds
    the 8-byte hashes of; distinct tokens with one hash pass. Sorts
    ``hashes``."""
    ordered = np.frombuffer(hashes, "<i8")
    ordered.sort()
    repeated = set(ordered[1:][ordered[1:] == ordered[:-1]].tolist())
    if not repeated:
        return
    seen: set[str] = set()
    with path.open("rb") as fh:
        lines = _numbered_lines(path, fh)
        next(lines)  # the header
        tokens = ((lineno, parts[0]) for lineno, line in lines
                  if (parts := line.split(maxsplit=1)))
        for lineno, token in itertools.islice(tokens, len(ordered)):
            if _token_hash(token) in repeated:
                if token in seen:
                    raise _duplicate(path, lineno, token) from None
                seen.add(token)


def _numbered_lines(path: Path, fh) -> Iterator[tuple[int, str]]:
    """(line number, line) of the open binary file ``fh``, numbered as
    ``str.splitlines`` numbers its decoded text, decoding one ``\\n``-line
    at a time; a line that is not UTF-8 raises a ValueError naming its
    ``\\n``-line, the number ``corpus.read_utf8`` gives."""
    lineno = 0
    for newline_no, raw in enumerate(fh, 1):
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError:
            raise ValueError(
                f"{path}: line {newline_no}: not UTF-8 text") from None
        # A '\n' ends a splitlines line too, so the numbers agree.
        for line in text.splitlines():
            lineno += 1
            yield lineno, line


def save_embeddings(table: EmbeddingTable, path) -> None:
    for token in table.vocab:
        if not valid_name(token):
            raise ValueError(f"token {token!r} must be non-empty and contain "
                             "no whitespace to be saved")
    path = Path(path)
    # One format for a whole row; '%.17g' writes the digits f"{v:.17g}" does.
    row_format = " ".join(["%.17g"] * table.dimension)
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{len(table)} {table.dimension}\n")
        for token, row in zip(table.vocab, table.matrix.tolist()):
            fh.write(token + " " + row_format % tuple(row) + "\n")


def comment_vocabulary(texts: Iterable[str]) -> set[str]:
    """Every token :func:`embed_comment` looks up in ``texts``: a table
    loaded with this vocabulary embeds them as the whole table does."""
    return {token.lower() for text in texts for token in tokenize(text)}


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
