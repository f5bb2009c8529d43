import json
import unicodedata
from dataclasses import fields
from datetime import timezone

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ucnet import corpus, network
from ucnet.corpus import (agreement_matrix, balance_subset, fold,
                          load_annotation_round, load_dataset, mine_candidates,
                          save_dataset, split_dataset)
from ucnet.lexical import LexiconSet, has_clickbait_phrase

from conftest import make_comment, make_dataset, make_video


def record_line(vid="v1", label="real", comments=(), **overrides):
    obj = {
        "id": vid, "title": "a title", "description": "", "tags": [],
        "view_count": 100, "like_count": 10, "dislike_count": 1,
        "channel_subscriber_count": 5,
        "comments": [
            {"id": c[0], "text": c[1], "like_count": 0, "reply_count": 0,
             "published_at": "2015-01-01T00:00:00Z"} for c in comments
        ],
        "label": label,
    }
    obj.update(overrides)
    return json.dumps(obj)


class TestLoadDataset:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert len(load_dataset(path, "empty")) == 0

    def test_two_lines_order_preserved(self, tmp_path):
        path = tmp_path / "two.jsonl"
        path.write_text(record_line("a") + "\n" + record_line("b") + "\n")
        ds = load_dataset(path, "two")
        assert ds.ids() == ("a", "b")

    def test_duplicate_id_names_the_id(self, tmp_path):
        lines = [record_line(f"v{i}") for i in range(2)]
        lines.append(record_line("abc"))          # line 3
        lines += [record_line(f"w{i}") for i in range(3)]
        lines.append(record_line("abc"))          # line 7
        path = tmp_path / "dup.jsonl"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="abc"):
            load_dataset(path, "dup")

    def test_malformed_line_names_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(record_line("a") + "\nnot json\n")
        with pytest.raises(ValueError, match="line 2"):
            load_dataset(path, "bad")

    def test_missing_key_is_malformed(self, tmp_path):
        obj = json.loads(record_line("a"))
        del obj["view_count"]
        path = tmp_path / "missing.jsonl"
        path.write_text(json.dumps(obj) + "\n")
        with pytest.raises(ValueError, match="view_count"):
            load_dataset(path, "missing")

    def test_unknown_key_warns_but_loads(self, tmp_path, caplog):
        path = tmp_path / "extra.jsonl"
        path.write_text(record_line("a", extra_key=1) + "\n")
        with caplog.at_level("WARNING"):
            ds = load_dataset(path, "extra")
        assert len(ds) == 1
        assert "extra_key" in caplog.text

    def test_negative_count_rejected(self, tmp_path):
        path = tmp_path / "neg.jsonl"
        path.write_text(record_line("a", view_count=-1) + "\n")
        with pytest.raises(ValueError, match="line 1"):
            load_dataset(path, "neg")

    def test_round_trip(self, tmp_path):
        ds = make_dataset([
            make_video("x", "fake", comments=[make_comment("c", "hi", 2, 1)]),
            make_video("y", "real"),
        ])
        path = tmp_path / "rt.jsonl"
        save_dataset(ds, path)
        again = load_dataset(path, ds.name)
        assert again.records == ds.records


    def test_bad_timestamp_names_line(self, tmp_path):
        obj = json.loads(record_line("b", comments=[("c1", "hi")]))
        obj["comments"][0]["published_at"] = "2015-01-01T25:00:00Z"
        path = tmp_path / "stamp.jsonl"
        path.write_text(record_line("a") + "\n" + json.dumps(obj) + "\n")
        with pytest.raises(ValueError, match=r"line 2: comment 'c1': "
                                             r"published_at '2015-01-01T25"):
            load_dataset(path, "stamp")


class TestSchema:
    def test_key_tables_are_the_init_fields(self):
        for keys, cls in ((corpus._RECORD_KEYS, corpus.VideoRecord),
                          (corpus._COMMENT_KEYS, corpus.Comment)):
            assert list(keys) == [f.name for f in fields(cls) if f.init]

    def test_saved_keys_follow_the_tables(self, tmp_path):
        path = tmp_path / "one.jsonl"
        save_dataset(make_dataset([make_video(
            "x", comments=[make_comment()])]), path)
        obj = json.loads(path.read_text())
        assert list(obj) == list(corpus._RECORD_KEYS)
        assert list(obj["comments"][0]) == list(corpus._COMMENT_KEYS)

    @pytest.mark.parametrize("damage,message", [
        (lambda obj: [obj], "record must be a JSON object"),
        (lambda obj: {**obj, "comments": ["c"]},
         "comment entries must be objects"),
        (lambda obj: {k: v for k, v in obj.items() if k != "label"},
         "missing key 'label'"),
        (lambda obj: {**obj, "comments": [{}]}, "missing key 'id'"),
        (lambda obj: {**obj, "view_count": True},
         "key 'view_count' must be an integer"),
        (lambda obj: {**obj, "dislike_count": 1.0},
         "key 'dislike_count' must be an integer"),
        (lambda obj: {**obj, "tags": "t"}, "key 'tags' has wrong type"),
        (lambda obj: {**obj, "tags": [1]}, "tags must be strings"),
        (lambda obj: {**obj, "title": None}, "key 'title' has wrong type"),
    ])
    def test_error_texts(self, tmp_path, damage, message):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(damage(json.loads(record_line(
            "a", comments=[("c1", "hi")])))) + "\n")
        with pytest.raises(ValueError) as info:
            load_dataset(path, "bad")
        assert str(info.value) == f"{path}: line 1: {message}"

    def test_unknown_key_warning_texts(self, tmp_path, caplog):
        obj = json.loads(record_line("a", comments=[("c1", "hi")]))
        obj["extra"] = 1
        obj["comments"][0]["more"] = 2
        path = tmp_path / "extra.jsonl"
        path.write_text(json.dumps(obj) + "\n")
        with caplog.at_level("WARNING"):
            load_dataset(path, "extra")
        assert caplog.messages == [
            f"{path}: line 1: ignoring unknown key 'extra'",
            f"{path}: line 1: ignoring unknown comment key 'more'"]


class TestParseTimestamp:
    @pytest.mark.parametrize("stamp, utc", [
        ("2015-01-01T00:00:00Z", "2015-01-01T00:00:00+00:00"),
        ("2015-01-01T10:00:00+05:00", "2015-01-01T05:00:00+00:00"),
        ("2015-01-01T00:30:00-05:00", "2015-01-01T05:30:00+00:00"),
        ("2015-01-01T05:00:00", "2015-01-01T05:00:00+00:00"),
        ("2016-02-29T23:59:59.25+00:30", "2016-02-29T23:29:59.250000+00:00"),
    ])
    def test_offsets_name_one_instant(self, stamp, utc):
        assert corpus.parse_timestamp(stamp).astimezone(
            timezone.utc).isoformat() == utc

    @pytest.mark.parametrize("stamp", [
        "2015-01-01", "2015-01-01 00:00:00Z", "2015-01-01T00:00:00z",
        "2015-13-01T00:00:00Z", "2015-02-29T00:00:00Z", "2015-01-01T24:00:00Z",
        "2015-01-01T00:00:00+24:00", "2015-01-01T00:00:00+05:60",
        "2015-01-01T00:00:00.1234567Z", "\u0662015-01-01T00:00:00Z", ""])
    def test_malformed_stamps_rejected(self, stamp):
        with pytest.raises(ValueError, match="not an ISO-8601 timestamp"):
            corpus.parse_timestamp(stamp)
        with pytest.raises(ValueError, match="comment 'c0'"):
            make_comment(published=stamp)

def labeled_dataset(n_fake, n_real):
    records = [make_video(f"f{i}", "fake") for i in range(n_fake)]
    records += [make_video(f"r{i}", "real") for i in range(n_real)]
    return make_dataset(records)


class TestSplitDataset:
    def test_70_30_with_even_classes(self):
        ds = labeled_dataset(50, 50)
        train, test = split_dataset(ds, 0.3, seed=7)
        assert (len(train), len(test)) == (70, 30)
        assert len(test.with_label("fake")) == 15
        assert len(test.with_label("real")) == 15

    def test_small_split_arithmetic(self):
        ds = labeled_dataset(5, 5)
        train, test = split_dataset(ds, 0.3, seed=0)
        assert (len(train), len(test)) == (7, 3)

    def test_deterministic(self):
        ds = labeled_dataset(13, 17)
        first = split_dataset(ds, 0.4, seed=123)
        second = split_dataset(ds, 0.4, seed=123)
        assert first[0].ids() == second[0].ids()
        assert first[1].ids() == second[1].ids()

    def test_tiny_class_rejected(self):
        ds = make_dataset([make_video("a", "fake"),
                           make_video("b", "real"), make_video("c", "real")])
        with pytest.raises(ValueError, match="fake"):
            split_dataset(ds, 0.5, seed=0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            split_dataset(make_dataset([]), 0.3, seed=0)

    def test_bad_fraction_rejected(self):
        ds = labeled_dataset(3, 3)
        for fraction in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                split_dataset(ds, fraction, seed=0)

    @settings(max_examples=25, deadline=None)
    @given(n_fake=st.integers(2, 40), n_real=st.integers(2, 40),
           fraction=st.floats(0.05, 0.95), seed=st.integers(0, 1000))
    def test_partition_property(self, n_fake, n_real, fraction, seed):
        ds = labeled_dataset(n_fake, n_real)
        train, test = split_dataset(ds, fraction, seed)
        train_ids, test_ids = set(train.ids()), set(test.ids())
        assert train_ids | test_ids == set(ds.ids())
        assert not train_ids & test_ids
        total = n_fake + n_real
        assert len(test) == int(np.floor(fraction * total + 0.5))
        for label, size in (("fake", n_fake), ("real", n_real)):
            assert abs(len(test.with_label(label)) - fraction * size) < 1.0


class TestBalanceSubset:
    def test_vavd_counts(self):
        ds = labeled_dataset(123, 423)
        balanced = balance_subset(ds, seed=0)
        assert len(balanced.with_label("fake")) == 123
        assert len(balanced.with_label("real")) == 123

    def test_already_balanced_returns_everything(self):
        ds = labeled_dataset(5, 5)
        balanced = balance_subset(ds, seed=3)
        assert set(balanced.ids()) == set(ds.ids())

    def test_small_draw_reproducible(self):
        ds = labeled_dataset(2, 9)
        first = balance_subset(ds, seed=11)
        second = balance_subset(ds, seed=11)
        assert first.ids() == second.ids()
        assert len(first.with_label("fake")) == 2
        assert len(first.with_label("real")) == 2
        assert set(first.ids()) <= set(ds.ids())

    def test_drops_unlabeled_and_not_sure(self):
        ds = make_dataset([make_video("a", "fake"), make_video("b", "real"),
                           make_video("c", "not_sure"),
                           make_video("d", "unlabeled")])
        balanced = balance_subset(ds, seed=0)
        assert set(balanced.ids()) == {"a", "b"}

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            balance_subset(labeled_dataset(3, 0), seed=0)


def mining_video(vid, texts, views=20_000, likes=10, dislikes=10):
    comments = [make_comment(f"{vid}-c{i}", t) for i, t in enumerate(texts)]
    return make_video(vid, "unlabeled", comments=comments, views=views,
                      likes=likes, dislikes=dislikes)


def brute_force_mine(records, seed_phrases, min_views, min_comments,
                     min_ratio, rounds, expansion):
    """Independent naive reimplementation of the mining pipeline."""
    pool = [r for r in records
            if r.view_count >= min_views and len(r.comments) >= min_comments]
    phrases = {p.casefold() for p in seed_phrases}
    matched = set()
    for _ in range(rounds):
        matched = set()
        for rec in pool:
            for c in rec.comments:
                if any(p in c.text.casefold() for p in phrases):
                    matched.add(rec.id)
                    break
        for rec in pool:
            if rec.id in matched:
                for p in expansion:
                    if any(p.casefold() in c.text.casefold() for c in rec.comments):
                        phrases.add(p.casefold())
    result = []
    for rec in pool:
        if rec.id not in matched:
            continue
        if rec.like_count == 0:
            ratio = float("inf") if rec.dislike_count else 0.0
        else:
            ratio = rec.dislike_count / rec.like_count
        if ratio > min_ratio:
            result.append(rec.id)
    return set(result)


class TestMineCandidates:
    def test_paper_scale_defaults(self):
        import inspect
        sig = inspect.signature(mine_candidates)
        assert sig.parameters["min_views"].default == 10_000
        assert sig.parameters["min_comments"].default == 120
        assert sig.parameters["min_dislike_like_ratio"].default == 0.3
        assert sig.parameters["rounds"].default == 3

    def test_no_match_gives_empty_result(self):
        ds = make_dataset([mining_video("a", ["nice", "cool"]),
                           mining_video("b", ["great stuff"])])
        mined = mine_candidates(ds, ["fake fake fake"], min_views=0,
                                min_comments=0, min_dislike_like_ratio=0.0,
                                rounds=1)
        assert len(mined) == 0

    def test_six_video_corpus_matches_brute_force(self):
        ds = make_dataset([
            mining_video("a", ["this is fake fake fake", "ok"], dislikes=50),
            mining_video("b", ["nothing here"], dislikes=50),
            mining_video("c", ["complete bullshit really"], dislikes=3,
                         likes=100),
            mining_video("d", ["total hoax"], dislikes=80),
            mining_video("e", ["FAKE FAKE FAKE!!"], views=10),
            mining_video("f", ["so staged", "fake fake fake"], dislikes=9,
                         likes=10),
        ])
        seeds = ["fake fake fake", "complete bullshit"]
        expansion = ["hoax", "staged"]
        mined = mine_candidates(ds, seeds, min_views=1000, min_comments=1,
                                min_dislike_like_ratio=0.3, rounds=3,
                                expansion_lexicon=expansion)
        expected = brute_force_mine(ds.records, seeds, 1000, 1, 0.3, 3,
                                    expansion)
        assert set(mined.ids()) == expected
        ratios = [r.dislike_count / r.like_count for r in mined]
        assert ratios == sorted(ratios, reverse=True)

    def test_order_invariance(self):
        videos = [mining_video(f"v{i}", ["fake fake fake"] if i % 3 == 0
                               else ["fine"], dislikes=5 + i)
                  for i in range(9)]
        forward = mine_candidates(make_dataset(videos), ["fake fake fake"],
                                  min_views=0, min_comments=0,
                                  min_dislike_like_ratio=0.0, rounds=1)
        backward = mine_candidates(make_dataset(videos[::-1], name="rev"),
                                   ["fake fake fake"], min_views=0,
                                   min_comments=0, min_dislike_like_ratio=0.0,
                                   rounds=1)
        assert set(forward.ids()) == set(backward.ids())
        assert set(forward.ids()) <= {v.id for v in videos}

    def test_zero_likes_with_dislikes_is_kept_first(self):
        ds = make_dataset([
            mining_video("inf", ["fake fake fake"], likes=0, dislikes=2),
            mining_video("big", ["fake fake fake"], likes=10, dislikes=9),
            mining_video("zero", ["fake fake fake"], likes=0, dislikes=0),
        ])
        mined = mine_candidates(ds, ["fake fake fake"], min_views=0,
                                min_comments=0, min_dislike_like_ratio=0.3,
                                rounds=1)
        assert mined.ids() == ("inf", "big")

    def test_empty_seed_phrases_rejected(self):
        ds = make_dataset([mining_video("a", ["x"])])
        with pytest.raises(ValueError):
            mine_candidates(ds, [], min_views=0, min_comments=0)


def folded(text):
    """The phrase rule written out: NFC, then case-folding."""
    return unicodedata.normalize("NFC", text).casefold()


# Pieces of text where the rule's steps matter: an NFC/NFD pair, case pairs,
# characters whose case-fold expands (ß, İ, ǰ, the fi ligature) and
# combining marks left loose.
PIECES = ["a", "B", "e", "E", "\u00e9", "e\u0301", "\u00c9", "E\u0301",
          "\u0301", "\u00df", "ss", "SS", "\u1e9e", "\u0130", "i", "I",
          "\u0307", "\u01f0", "j", "J", "\u030c", "\u0316", "\ufb01", "fi",
          "FI", "k", "\u212a", " "]
unicode_texts = st.lists(st.sampled_from(PIECES), max_size=8).map("".join)
unicode_phrases = st.lists(st.sampled_from(PIECES), min_size=1,
                           max_size=3).map("".join)


class TestPhraseRule:
    @settings(max_examples=200, deadline=None)
    @given(texts=st.lists(unicode_texts, min_size=1, max_size=4),
           phrases=st.lists(unicode_phrases, min_size=1, max_size=4))
    def test_every_caller_matches_by_the_rule(self, texts, phrases):
        hits = [[folded(p) in folded(t) for p in phrases] for t in texts]
        lex = LexiconSet.from_entries(phrases, [], [], [], phrases)
        for text, row in zip(texts, hits):
            assert network.fakeness_vector(text, phrases).tolist() == \
                [float(hit) for hit in row]
            assert has_clickbait_phrase(text, lex) == int(any(row))
        videos = [mining_video(f"v{i}", [text])
                  for i, text in enumerate(texts)]
        mined = mine_candidates(make_dataset(videos), phrases, min_views=0,
                                min_comments=0, min_dislike_like_ratio=0.0,
                                rounds=1)
        assert set(mined.ids()) == {f"v{i}" for i, row in enumerate(hits)
                                    if any(row)}

    @pytest.mark.parametrize("phrase", ["J\u0316\u030c", "T\u0316\u0308"])
    def test_a_phrase_whose_fold_refolds_differently_matches_itself(
            self, phrase):
        # NFC leaves the phrase as it is, case-folding makes it composable,
        # so a second fold reorders its marks: a caller folding a stored
        # folded phrase again would miss the text the phrase equals.
        assert fold(fold(phrase)) != fold(phrase)
        lex = LexiconSet.from_entries([phrase], [], [], [], [phrase])
        assert has_clickbait_phrase(phrase, lex) == 1
        assert network.fakeness_vector(phrase, [phrase]).tolist() == [1.0]
        video = make_dataset([mining_video("v", [phrase])])
        assert mine_candidates(video, [phrase], min_views=0, min_comments=0,
                               min_dislike_like_ratio=0.0).ids() == ("v",)


PAPER_AGREEMENT = np.array([[70, 62, 26],
                            [54, 308, 38],
                            [6, 27, 59]])


def rounds_from_matrix(matrix):
    r1, r2 = {}, {}
    labels = corpus.ANNOTATION_LABELS
    n = 0
    for i, a in enumerate(labels):
        for j, b in enumerate(labels):
            for _ in range(matrix[i][j]):
                vid = f"v{n}"
                r1[vid] = a
                r2[vid] = b
                n += 1
    return r1, r2


class TestAgreementMatrix:
    def test_published_round_statistics(self):
        r1, r2 = rounds_from_matrix(PAPER_AGREEMENT)
        matrix = agreement_matrix(r1, r2)
        assert np.array_equal(matrix, PAPER_AGREEMENT)
        assert matrix.sum() == 650
        assert np.array_equal(agreement_matrix(r2, r1), PAPER_AGREEMENT.T)

    def test_identical_rounds_are_diagonal(self):
        r1 = {"a": "spam", "b": "legitimate", "c": "not_sure", "d": "spam"}
        matrix = agreement_matrix(r1, dict(r1))
        assert np.array_equal(matrix, np.diag([2, 1, 1]))

    def test_five_hand_annotations(self):
        r1 = {"a": "spam", "b": "spam", "c": "legitimate",
              "d": "not_sure", "e": "legitimate"}
        r2 = {"a": "spam", "b": "legitimate", "c": "legitimate",
              "d": "spam", "e": "not_sure"}
        matrix = agreement_matrix(r1, r2)
        expected = np.array([[1, 1, 0], [0, 1, 1], [1, 0, 0]])
        assert np.array_equal(matrix, expected)

    def test_key_mismatch_lists_difference(self):
        with pytest.raises(ValueError, match="b"):
            agreement_matrix({"a": "spam", "b": "spam"}, {"a": "spam"})

    def test_round_file_loading(self, tmp_path):
        path = tmp_path / "round.tsv"
        path.write_text("a\tspam\nb\tlegitimate\n")
        assert load_annotation_round(path) == {"a": "spam", "b": "legitimate"}
        bad = tmp_path / "bad.tsv"
        bad.write_text("a\tweird\n")
        with pytest.raises(ValueError, match="weird"):
            load_annotation_round(bad)
