"""Subcommands run through ``cli.main`` on files every reader accepts, with
values at their edges. Each run exits 0 or 2 without a traceback or a
RuntimeWarning, and an exit-0 output reads back through its own reader."""

import contextlib
import io
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ucnet import cli, corpus

# Counts a JSON int may hold: an int64's overflow and one beyond the float
# range, as well as the ordinary edges.
INT_EDGES = [0, 1, 2**63, 10**400]
RECORD_INTS = [key for key, kind in corpus._RECORD_KEYS.items() if kind is int]
COMMENT_INTS = [key for key, kind in corpus._COMMENT_KEYS.items()
                if kind is int]


def edge_counts(keys):
    return st.fixed_dictionaries({key: st.sampled_from(INT_EDGES)
                                  for key in keys})


@pytest.fixture(scope="module")
def workdir(tmp_path_factory, scorer):
    out = tmp_path_factory.mktemp("cli-fuzz")
    scorer.save(out / "scorer.model")
    return out


def run(argv) -> int:
    """``cli.main(argv)``'s exit status; a RuntimeWarning raises."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()), \
            warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = cli.main(argv)
    assert code in (0, 2), err.getvalue()
    assert "Traceback" not in err.getvalue()
    return code


class TestEdgeCounts:
    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(counts=edge_counts(RECORD_INTS),
           comment_counts=edge_counts(COMMENT_INTS))
    def test_features_and_mine(self, workdir, counts, comment_counts):
        comment = {"id": "c1", "text": "fake fake fake",
                   "published_at": "2015-01-01T00:00:00Z", **comment_counts}
        record = {"id": "v1", "title": "You WON'T believe this",
                  "description": "", "tags": [], "comments": [comment],
                  "label": "fake", **counts}
        data = workdir / "corpus.jsonl"
        data.write_text(json.dumps(record) + "\n")

        features = workdir / "features.csv"
        if run(["features", "--input", str(data), "--output", str(features),
                "--scorer", str(workdir / "scorer.model")]) == 0:
            ids, matrix, _ = cli._read_features_csv(features)
            assert ids == ["v1"] and np.isfinite(matrix).all()

        mined = workdir / "mined.jsonl"
        if run(["mine", "--input", str(data), "--output", str(mined),
                "--min-views", "0", "--min-comments", "0"]) == 0:
            assert corpus.load_dataset(mined, "mined").ids() in ((), ("v1",))
