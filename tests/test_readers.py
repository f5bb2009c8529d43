"""Fuzzed input files for the text readers: each file either parses or
raises a ValueError that names it."""

import csv
import json
import shutil

import pytest
from hypothesis import given, settings, strategies as st

from ucnet import cli, corpus, evaluation, lexical
from ucnet.embeddings import load_embeddings

# Separators and look-alikes that str.splitlines, int and float treat
# specially, plus an integer too long for int() and deep JSON nesting.
AWKWARD = ["\n", "\r", "\r\n", "\t", " ", "\u2028", "\x85", "\x0c", "#", "=",
           "\uff11", "1_0", "nan", "inf", "-0", "1e999", "9" * 5000, "[" * 3000]
# CSV separators and a field longer than the csv module accepts.
CSV_TOKENS = [",", '"', "0.5", "x" * (csv.field_size_limit() + 1)]


@st.composite
def files(draw, tokens):
    """A random join of format tokens, sometimes with raw bytes (often not
    UTF-8) spliced in."""
    content = "".join(draw(st.lists(st.sampled_from(tokens + AWKWARD),
                                    max_size=40))).encode("utf-8")
    if draw(st.booleans()):
        pos = draw(st.integers(0, len(content)))
        content = content[:pos] + draw(st.binary(min_size=1, max_size=4)) \
            + content[pos:]
    return content


@st.composite
def csv_files(draw, header, tokens):
    """A fuzzed file, often after a valid CSV header line."""
    prefix = (",".join(header) + "\n").encode() if draw(st.booleans()) else b""
    return prefix + draw(files(tokens + CSV_TOKENS))


def parses_or_names_file(tmp_path_factory, content: bytes, read, name="fuzzed"):
    path = tmp_path_factory.getbasetemp() / name
    path.write_bytes(content)
    try:
        read(path)
    except ValueError as exc:
        assert str(path) in str(exc)


VALID_RECORD = {
    "id": "v1", "title": "A title", "description": "", "tags": ["t"],
    "view_count": 10, "like_count": 1, "dislike_count": 0,
    "channel_subscriber_count": 5, "label": "fake",
    "comments": [{"id": "c1", "text": "so fake", "like_count": 0,
                  "reply_count": 0, "published_at": "2015-01-01T00:00:00Z"}],
}
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)


@st.composite
def record_lines(draw):
    """A valid record with one key of it, or of its comment, dropped or
    given a random JSON value."""
    record = json.loads(json.dumps(VALID_RECORD))
    target = draw(st.sampled_from([record, record["comments"][0]]))
    key = draw(st.sampled_from(sorted(target)))
    if draw(st.booleans()):
        del target[key]
    else:
        target[key] = draw(JSON_VALUES)
    return json.dumps(record)


class TestFuzzedReaders:
    @settings(max_examples=150, deadline=None)
    @given(lines=st.lists(st.one_of(st.just(json.dumps(VALID_RECORD)),
                                    record_lines()), max_size=3),
           noise=files(["{", "}", "[", "]", '"id"', ":", ",", "1", '"x"']))
    def test_dataset(self, tmp_path_factory, lines, noise):
        content = "\n".join(lines).encode("utf-8") + b"\n" + noise
        parses_or_names_file(tmp_path_factory, content,
                             lambda path: corpus.load_dataset(path, "fuzzed"))

    @settings(max_examples=150, deadline=None)
    @given(content=files(["v1", "v2", "spam", "legitimate", "not_sure",
                          "junk"]))
    def test_annotation_round(self, tmp_path_factory, content):
        parses_or_names_file(tmp_path_factory, content,
                             corpus.load_annotation_round)

    @settings(max_examples=150, deadline=None)
    @given(content=files(["2", "1", "0", "-1", "tok", "a", "0.5", "-3e2",
                          "x"]),
           vocabulary=st.none() | st.sets(st.sampled_from(["tok", "a", "x"])))
    def test_embeddings(self, tmp_path_factory, content, vocabulary):
        parses_or_names_file(tmp_path_factory, content,
                             lambda path: load_embeddings(path, 2, vocabulary))

    @settings(max_examples=150, deadline=None)
    @given(content=files(["min-views", "rounds", "3", "x", "-"]))
    def test_config_file(self, tmp_path_factory, content):
        parses_or_names_file(tmp_path_factory, content, cli._read_config_file)

    # Random patterns such as "[[" draw re's FutureWarning on nested sets.
    @pytest.mark.filterwarnings("ignore::FutureWarning")
    @settings(max_examples=150, deadline=None)
    @given(name=st.sampled_from(lexical.LEXICON_FILES),
           content=files(["fake", "(", ")", "[", "]", "\\", "\\b", "*", "+",
                          "?", "{2}", "{99999999999}", "|", "(?P<", ">",
                          "(?<=", "a+"]))
    def test_lexicon_directory(self, tmp_path_factory, name, content):
        directory = tmp_path_factory.getbasetemp() / "lexicons"
        shutil.rmtree(directory, ignore_errors=True)
        shutil.copytree(lexical.default_lexicon_dir(), directory)
        parses_or_names_file(
            tmp_path_factory, content,
            lambda path: lexical.LexiconSet.from_directory(path.parent),
            name=f"lexicons/{name}")

    @settings(max_examples=150, deadline=None)
    @given(content=csv_files(cli._FEATURES_HEADER,
                             ["v1", "v2", "fake", "real", "-1", "3e2",
                              ",".join(["v3", *"12345678", "fake"])]))
    def test_features_csv(self, tmp_path_factory, content):
        parses_or_names_file(tmp_path_factory, content, cli._read_features_csv)

    @settings(max_examples=150, deadline=None)
    @given(header=st.sampled_from([("video_id", "label"),
                                   ("video_id", "label", "p_fake")]),
           data=st.data())
    def test_labels_csv(self, tmp_path_factory, header, data):
        content = data.draw(csv_files(header, ["v1", "v2", "fake", "real",
                                               "1", "1.5", "-0.5", "a,fake"]))
        parses_or_names_file(tmp_path_factory, content, cli._read_labels_csv)

    @settings(max_examples=150, deadline=None)
    @given(content=csv_files(evaluation.REPORT_HEADER,
                             ["fake", "real", "macro", "1", "2", "-3", "1.5",
                              "9" * 400,
                              "fake,1,0.5,0.5,2"]))
    def test_report(self, tmp_path_factory, content):
        parses_or_names_file(tmp_path_factory, content, evaluation.read_report)

    @settings(max_examples=150, deadline=None)
    @given(content=files(['{"selected_indices": ', "{", "}", "[", "]", ",",
                          ":", '"x"', "0", "7", "8", "-1", "1.0", "true",
                          "null"]))
    def test_selected(self, tmp_path_factory, content):
        parses_or_names_file(tmp_path_factory, content, cli._load_selected)

    @settings(max_examples=150, deadline=None)
    @given(content=files(["fake", "real", "junk", "A title", "x"]))
    def test_labeled_titles(self, tmp_path_factory, content):
        parses_or_names_file(tmp_path_factory, content,
                             cli._load_labeled_titles)
