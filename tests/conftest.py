import numpy as np
import pytest
from hypothesis import settings

from ucnet import lexical, neural, synthetic
from ucnet.corpus import Comment, Dataset, VideoRecord


@pytest.fixture(scope="session")
def lexicons():
    return lexical.LexiconSet.default()


@pytest.fixture(scope="session")
def phrases():
    return lexical.load_fakeness_phrases()


@pytest.fixture(scope="session")
def scorer(lexicons):
    titles = synthetic.make_labeled_titles(160, seed=5, lexicons=lexicons)
    return lexical.train_title_scorer(titles, lexicons)


def make_comment(cid="c0", text="nice video", likes=0, replies=0,
                 published="2015-01-01T00:00:00Z"):
    return Comment(id=cid, text=text, like_count=likes, reply_count=replies,
                   published_at=published)


def make_video(vid="v0", label="real", title="a plain title", comments=(),
               views=20_000, likes=100, dislikes=10, subs=1000,
               description="", tags=()):
    return VideoRecord(
        id=vid, title=title, description=description, tags=tuple(tags),
        view_count=views, like_count=likes, dislike_count=dislikes,
        channel_subscriber_count=subs, comments=tuple(comments), label=label)


def make_dataset(records, name="test"):
    return Dataset(name=name, records=tuple(records))


def lstm_sequence(cell: neural.LSTMCell, inputs) -> np.ndarray:
    """Final hidden state of one (t, input_dim) vector sequence run alone;
    the empty sequence maps to zeros. The per-sequence reference for
    batched LSTM and pooling results."""
    if len(inputs) == 0:
        return np.zeros(cell.hidden_dim)
    xs = np.asarray(inputs, dtype=np.float64)
    # The sequence is its own matrix, read once per row in order.
    h, _ = neural.lstm_forward_batch(cell, np.arange(len(xs))[None, :],
                                     np.array([len(xs)]), xs)
    return h[0]


def lstm_cell(params) -> neural.LSTMCell:
    """The LSTM cell of a UCNet parameter mapping (``network.init_params``)."""
    return neural.LSTMCell(params["lstm.wx"], params["lstm.wh"],
                           params["lstm.bias"])


# A larger, randomized run of tests/test_cli_fuzz.py, which CI loads with
# --hypothesis-profile=cli-fuzz-deep.
settings.register_profile("cli-fuzz-deep", max_examples=600, deadline=None)
