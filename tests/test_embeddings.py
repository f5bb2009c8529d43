import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ucnet import embeddings
from ucnet.embeddings import (EmbeddingTable, embed_comment, load_embeddings,
                              save_embeddings)
from ucnet.lexical import tokenize


def write_table(path, rows, dim=None, count=None):
    dim = dim if dim is not None else len(rows[0][1])
    count = count if count is not None else len(rows)
    lines = [f"{count} {dim}"]
    for token, values in rows:
        lines.append(token + " " + " ".join(str(v) for v in values))
    path.write_text("\n".join(lines) + "\n")


class TestLoadEmbeddings:
    def test_three_token_file(self, tmp_path):
        path = tmp_path / "vec.txt"
        write_table(path, [("a", [1, 2, 3, 4]), ("b", [0, 0, 0, 1]),
                           ("c", [0.5, -1, 2, 0])])
        table = load_embeddings(path, 4)
        assert len(table) == 3
        assert table.dimension == 4
        assert np.array_equal(table.lookup("b"), [0, 0, 0, 1])

    def test_dimension_mismatch_names_token(self, tmp_path):
        path = tmp_path / "vec.txt"
        write_table(path, [("ok", [1, 2, 3, 4]), ("bad", [1, 2, 3])], dim=4)
        with pytest.raises(ValueError, match="bad"):
            load_embeddings(path, 4)

    def test_expected_dim_mismatch(self, tmp_path):
        path = tmp_path / "vec.txt"
        write_table(path, [("a", [1, 2, 3])])
        with pytest.raises(ValueError, match="dimension"):
            load_embeddings(path, 4)

    def test_duplicate_token(self, tmp_path):
        path = tmp_path / "vec.txt"
        write_table(path, [("tok", [1, 2]), ("tok", [3, 4])])
        with pytest.raises(ValueError, match="tok"):
            load_embeddings(path, 2)

    def test_header_count_mismatch(self, tmp_path):
        path = tmp_path / "vec.txt"
        write_table(path, [("a", [1, 2])], count=5)
        with pytest.raises(ValueError, match="5"):
            load_embeddings(path, 2)

    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        vectors = {f"tok{i}": rng.normal(size=300) for i in range(10)}
        table = EmbeddingTable(dimension=300, vectors=vectors)
        path = tmp_path / "vec.txt"
        save_embeddings(table, path)
        again = load_embeddings(path, 300)
        assert len(again) == 10
        for token, vec in vectors.items():
            assert np.array_equal(again.lookup(token), vec)

    def test_save_load_save_is_byte_identical_and_keeps_order(self, tmp_path):
        rng = np.random.default_rng(1)
        tokens = ["zeta", "alpha", "Mid", "b2", "_"]
        # Magnitudes from 1e-300 to the float32 range's edge, the largest
        # a loaded row may hold.
        vectors = {t: rng.normal(size=3) * 10.0 ** rng.integers(-300, 38, 3)
                   for t in tokens}
        vectors["alpha"][0] = -0.0
        table = EmbeddingTable(dimension=3, vectors=vectors)
        first, second = tmp_path / "a.txt", tmp_path / "b.txt"
        save_embeddings(table, first)
        again = load_embeddings(first, 3)
        save_embeddings(again, second)
        assert first.read_bytes() == second.read_bytes()
        assert list(again.vocab) == tokens == list(again.vectors)
        assert np.array_equal(again.matrix, table.matrix)
        # the text is what the per-vector writer printed: 17 digits a value
        expected = "5 3\n" + "".join(
            t + " " + " ".join(f"{v:.17g}" for v in vectors[t]) + "\n"
            for t in tokens)
        assert first.read_text() == expected

    def test_row_format_writes_the_per_value_digits(self, tmp_path):
        # One '%.17g' format a row must write the bytes of one f-string a
        # value: signed zero, the smallest subnormal, the float32 range's
        # edges, an inexact decimal and integral values.
        rows = {"edges": [-0.0, 5e-324, 3.4028234663852886e38,
                          -3.4028234663852886e38],
                "plain": [0.1, 0.0, 1.0, -7.0],
                "large": [1e16, 2.0 ** 53, -123456789.0, 100.0]}
        table = EmbeddingTable(dimension=4, vectors={
            t: np.array(v) for t, v in rows.items()})
        path = tmp_path / "vec.txt"
        save_embeddings(table, path)
        expected = "3 4\n" + "".join(
            t + " " + " ".join(f"{v:.17g}" for v in row) + "\n"
            for t, row in rows.items())
        assert path.read_bytes() == expected.encode("utf-8")

    @pytest.mark.parametrize("content,line", [
        ("2 2\na 1 2\nb 1 x\n", 3),        # a component that is no number
        ("two 2\na 1 2\n", 1),              # header count not an integer
        ("2\na 1 2\n", 1),                  # header with one field
        ("2 2 2\na 1 2\n", 1),              # header with three fields
        ("2 2\na 1 2\n\nb nan 0\n", 4),     # non-finite component
        ("2 2\na inf 2\nb 0 0\n", 2),
        # beyond the float32 range, which the LSTM gathers rows into
        ("2 2\na 1 2\nb 0 -3.5e38\n", 3),
        ("2 2\na 1e308 2\nb 0 0\n", 2),
        # Lines are numbered as str.splitlines numbers them.
        ("2 2\na 1 2\x85b 1 x\n", 3),
        ("2 2\u2028a 1 2\nb nan 0\n", 3),
        ("2 2\x0ca 1 2\x1cb 1 2 3\n", 3),
        ("3 2\r\na 1 2\r\n\r\nb 1 2\rb 3 4\n", 5),
    ])
    def test_bad_file_names_path_and_line(self, tmp_path, content, line):
        path = tmp_path / "vec.txt"
        path.write_text(content)
        with pytest.raises(ValueError) as info:
            load_embeddings(path, 2)
        assert f"{path}: line {line}:" in str(info.value)

    def test_non_utf8_names_path_and_line(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_bytes(b"1 2\n\xff 1 2\n")
        with pytest.raises(ValueError, match="line 2: not UTF-8"):
            load_embeddings(path, 2)

    def test_non_utf8_line_is_counted_in_newlines(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_bytes("3 2\na 1 2\x85b 3 4\nc 5 6\n".encode() + b"\xff 1 2\n")
        with pytest.raises(ValueError) as info:
            load_embeddings(path, 2)
        assert str(info.value) == f"{path}: line 4: not UTF-8 text"

    def test_matrix_is_contiguous_float64(self, tmp_path):
        path = tmp_path / "vec.txt"
        write_table(path, [("a", [1, 2]), ("b", [3, 4])])
        table = load_embeddings(path, 2)
        assert table.matrix.dtype == np.float64
        assert table.matrix.flags.c_contiguous
        assert table.vocab == {"a": 0, "b": 1}
        assert np.array_equal(table.matrix, [[1, 2], [3, 4]])

    @pytest.mark.parametrize("token", ["a b", "a\x85b", "a\u2028b", ""])
    def test_save_refuses_token_the_loader_cannot_read(self, tmp_path, token):
        table = EmbeddingTable(dimension=2, vectors={
            "ok": np.zeros(2), token: np.ones(2)})
        path = tmp_path / "vec.txt"
        with pytest.raises(ValueError) as info:
            save_embeddings(table, path)
        assert f"token {token!r}" in str(info.value)
        assert not path.exists()


ROWS = [("the", [1, 2]), ("Fake", [3, 4]), ("news", [5, 6]), ("zz", [7, 8])]


class TestVocabularyFilter:
    def test_keeps_the_vocabulary_rows_in_file_order(self, tmp_path):
        path = tmp_path / "vec.txt"
        write_table(path, ROWS)
        table = load_embeddings(path, 2,
                                vocabulary={"zz", "absent", "fake", "the"})
        assert table.vocab == {"the": 0, "zz": 1}
        assert table.matrix.tobytes() == np.array([[1.0, 2], [7, 8]]).tobytes()
        assert table.matrix.flags.c_contiguous and table.matrix.flags.owndata
        assert load_embeddings(path, 2, vocabulary=set()).matrix.shape == (0, 2)

    @settings(max_examples=50, deadline=None)
    @given(st.sets(st.sampled_from(["the", "Fake", "fake", "news", "zz", "x"])))
    def test_filtered_rows_are_the_whole_tables(self, tmp_path_factory,
                                                vocabulary):
        path = tmp_path_factory.getbasetemp() / "vec.txt"
        write_table(path, ROWS)
        whole = load_embeddings(path, 2)
        table = load_embeddings(path, 2, vocabulary)
        assert list(table.vocab) == [t for t in whole.vocab if t in vocabulary]
        for token in table.vocab:
            assert table.lookup(token).tobytes() == whole.lookup(token).tobytes()

    @pytest.mark.parametrize("content,message", [
        ("4 2\nthe 1 2\nzz 1 2 3\nyy 1 2\nxx 3 4\n", "line 3: token 'zz' has 3 values, expected 2"),
        ("3 2\nthe 1 2\nzz 1 2\nzz 1 2\n", "line 4: duplicate token 'zz'"),
        ("5 2\nthe 1 2\nzz 1 2\n", "header promises 5 tokens, file has 2"),
        ("2 2\nthe 1 2\n\xff 1 2\n", "line 3: not UTF-8 text"),
    ])
    def test_malformed_line_outside_the_vocabulary_still_raises(
            self, tmp_path, content, message):
        path = tmp_path / "vec.txt"
        path.write_bytes(content.encode("latin-1"))
        with pytest.raises(ValueError) as info:
            load_embeddings(path, 2, vocabulary={"the"})
        assert str(info.value) == f"{path}: {message}"

    def test_bad_values_count_only_in_kept_rows(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("3 2\nthe 1 2\nzz nan x\nyy inf 0\n")
        assert list(load_embeddings(path, 2, vocabulary={"the"}).vocab) == ["the"]
        for token, message in (("zz", "line 3: token 'zz' has a component "
                                      "that is not a number"),
                               ("yy", "line 4: token 'yy' has non-finite "
                                      "components")):
            with pytest.raises(ValueError) as info:
                load_embeddings(path, 2, vocabulary={"the", token})
            assert str(info.value) == f"{path}: {message}"


class TestDuplicateTokens:
    """A duplicate is found from 8-byte token hashes and confirmed by the
    tokens, so a file fails on the same line whatever the hashes are: with
    every token given one hash, too."""

    @pytest.fixture(params=["hash", "one-hash"])
    def hashing(self, request, monkeypatch):
        if request.param == "one-hash":
            monkeypatch.setattr(embeddings, "_token_hash", lambda token: 7)

    @pytest.mark.parametrize("content,line,token", [
        ("4 2\nzz 1 2\nthe 1 2\nzz 1 2\nyy 1 2 3\n", 4, "zz"),
        ("4 2\nzz 1 2\nthe 1 2\nzz 1 2\nthe x 2\n", 4, "zz"),
        ("3 2\nzz 1 2\nzz 1 2\nthe inf 2\n", 3, "zz"),
        ("9 2\nzz 1 2\n\n\nzz 1 2\n", 5, "zz"),
        ("3 2\nzz 1 2\nzz 1 2\n\xff 1 2\n", 3, "zz"),
        ("3 2\nthe 1 2\nyy 1 2\nthe 1 2\n", 4, "the"),
        ("4 2\nthe 1 2\nzz 1 2\nthe 1 2\nzz 1 2\n", 4, "the"),
    ], ids=["values-count", "number", "non-finite", "header-count", "utf-8",
            "kept", "two-duplicates"])
    def test_the_first_duplicate_is_the_fault(self, tmp_path, hashing,
                                              content, line, token):
        # Each file has a later fault, or a later duplicate, too.
        path = tmp_path / "vec.txt"
        path.write_bytes(content.encode("latin-1"))
        for vocabulary in ({"the"}, None):
            with pytest.raises(ValueError) as info:
                load_embeddings(path, 2, vocabulary)
            assert str(info.value) == \
                f"{path}: line {line}: duplicate token {token!r}"

    def test_distinct_tokens_load(self, tmp_path, hashing):
        path = tmp_path / "vec.txt"
        write_table(path, ROWS)
        assert list(load_embeddings(path, 2).vocab) == [t for t, _ in ROWS]
        assert list(load_embeddings(path, 2, {"zz"}).vocab) == ["zz"]

    def test_tokens_outside_the_vocabulary_cost_a_hash_each(self, tmp_path):
        # 100 000 tokens, 10 kept: a set of the tokens peaked at 10.2 MiB.
        path = tmp_path / "vec.txt"
        with path.open("w") as fh:
            fh.write("100000 2\n")
            fh.writelines(f"w{i} 0.5 -0.25\n" for i in range(100_000))
        tracemalloc.start()
        try:
            table = load_embeddings(path, 2, {f"w{i}" for i in range(10)})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(table) == 10
        assert peak < 2 * 2**20, peak


class TestLoadMemory:
    """Peak traced memory of a load is about the matrix it keeps."""

    @pytest.fixture(scope="class")
    def table_file(self, tmp_path_factory):
        rng = np.random.default_rng(0)
        vectors = {f"tok{i}": rng.normal(size=100) for i in range(2000)}
        path = tmp_path_factory.mktemp("table") / "vec.txt"
        save_embeddings(EmbeddingTable(100, vectors), path)
        return path

    @pytest.mark.parametrize("vocabulary", [None, {f"tok{i}" for i in
                                                   range(0, 2000, 10)}],
                             ids=["whole", "filtered"])
    def test_peak_stays_near_the_kept_matrix(self, table_file, vocabulary):
        tracemalloc.start()
        try:
            table = load_embeddings(table_file, 100, vocabulary)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(table) == (2000 if vocabulary is None else 200)
        assert peak <= 1.5 * table.matrix.nbytes + 2**20, \
            (peak, table.matrix.nbytes)


def toy_table():
    return EmbeddingTable(dimension=2, vectors={
        "fake": np.array([1.0, 0.0]),
        "video": np.array([0.0, 1.0]),
        "word": np.array([0.5, 0.5]),
    })


def vector_sequence(text, table, max_tokens=100):
    """Reference: the in-vocabulary vectors stacked one token at a time."""
    found = [table.vectors[t.lower()] for t in tokenize(text)
             if t.lower() in table.vectors][:max_tokens]
    return np.stack(found) if found else np.zeros((0, table.dimension))


class TestEmbedComment:
    def test_all_oov_gives_empty_sequence(self):
        table = toy_table()
        ids = embed_comment("uncovered tokens only", table)
        assert ids.shape == (0,) and ids.dtype == np.int64
        assert table.matrix[ids].shape == (0, 2)

    def test_in_vocabulary_order_preserved(self):
        table = toy_table()
        ids = embed_comment("Fake video", table)
        assert ids.tolist() == [0, 1]
        seq = table.matrix[ids]
        assert seq.shape == (2, 2)
        assert np.array_equal(seq[0], [1.0, 0.0])
        assert np.array_equal(seq[1], [0.0, 1.0])

    def test_truncation_keeps_prefix(self):
        text = " ".join(["word"] * 150)
        table = toy_table()
        seq = table.matrix[embed_comment(text, table, max_tokens=100)]
        assert seq.shape == (100, 2)
        assert np.array_equal(seq[0], [0.5, 0.5])

    def test_oov_skipped_not_zero_filled(self):
        assert embed_comment("fake mystery video", toy_table()).shape == (2,)

    def test_vectors_equal_stored_rows(self):
        table = toy_table()
        seq = table.matrix[embed_comment("word fake", table)]
        assert np.array_equal(seq[0], table.lookup("word"))
        assert np.array_equal(seq[1], table.lookup("fake"))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.sampled_from(["fake", "FAKE", "Video", "word", "zzz",
                                     "fake!", "(word)", "vid eo", ",", ""]),
                    max_size=30),
           st.integers(1, 12))
    def test_gathered_rows_equal_vector_sequence(self, words, max_tokens):
        table = toy_table()
        text = " ".join(words)
        ids = embed_comment(text, table, max_tokens)
        assert np.array_equal(table.matrix[ids],
                              vector_sequence(text, table, max_tokens))

    def test_table_validation(self):
        with pytest.raises(ValueError):
            EmbeddingTable(dimension=3, vectors={"a": np.zeros(2)})
        with pytest.raises(ValueError, match="'b'"):
            EmbeddingTable(dimension=2,
                           vectors={"a": np.zeros(2),
                                    "b": np.array([np.nan, 0.0])})
        with pytest.raises(ValueError):
            EmbeddingTable(dimension=0, vectors={})

    @pytest.mark.parametrize("row,why", [
        ([1e308, 0.0], "has a component beyond the float32 range"),
        ([0.0, -3.5e38], "has a component beyond the float32 range"),
        ([3e38, np.inf], "has non-finite components"),
        ([np.nan, 0.0], "has non-finite components"),
    ])
    def test_table_refuses_the_rows_the_loader_refuses(self, tmp_path, row,
                                                       why):
        # A table built in memory meets the loader's checks, so the float32
        # LSTM never casts a row out of range.
        with pytest.raises(ValueError) as built:
            EmbeddingTable(2, {"ok": np.zeros(2), "fake": np.array(row)})
        assert str(built.value).startswith(f"token 'fake' {why}")
        path = tmp_path / "vec.txt"
        write_table(path, [("ok", [0.0, 0.0]), ("fake", row)])
        with pytest.raises(ValueError) as loaded:
            load_embeddings(path, 2)
        assert str(loaded.value) == f"{path}: line 3: {built.value}"
        edge = np.array([3.4e38, -3.4e38])
        assert len(EmbeddingTable(2, {"edge": edge})) == 1

    def test_table_keeps_insertion_order_in_rows(self):
        table = toy_table()
        assert list(table.vocab) == list(table.vectors) == ["fake", "video",
                                                            "word"]
        assert "video" in table and "mystery" not in table and len(table) == 3
        assert np.array_equal(table.matrix,
                              [[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
