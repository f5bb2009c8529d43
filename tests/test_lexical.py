import dataclasses
import hashlib
import re
import shutil
import sys
import unicodedata

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ucnet import lexical, neural, synthetic
from ucnet.lexical import (FEATURE_NAMES, FeatureVector, LexiconSet,
                           TitleScorer,
                           comments_conversation_ratio, comments_fakeness,
                           comments_inappropriateness, dislike_like_ratio,
                           extract_features, has_clickbait_phrase,
                           pearson_correlation, prune_correlated, ratio_caps,
                           ratio_violent_words, tokenize,
                           train_title_scorer)

from conftest import make_comment, make_video
from test_neural import mlp_reference, pure_adam


# Characters where a regex word class and str.isalnum could part ways:
# the underscore and other connector punctuation, combining marks and
# sequences NFC composes, digits of other scripts, letter-like (Nl) and
# other (No) numerics, CJK, Hangul jamo and non-ASCII spaces.
TOKENIZER_EDGE_CHARS = (
    "_", "\u203f", "\uff3f",            # connector punctuation (Pc)
    "e", "\u0301", "\u0345", "\u20dd",  # combining marks
    "\u212b", "A", "\u030a",            # NFC singleton and composition
    "\u0660", "\u0966", "\uff19",       # other-script decimal digits
    "\u2167", "\u3007", "\u16ee",       # Nl numerics
    "\u00bd", "\u2460", "\u00b2",       # No numerics
    "\u4e2d", "\u6587", "\u3042",       # CJK and kana
    "\u1100", "\u1161",                 # Hangul jamo, composed by NFC
    " ", "-", "\u3000", "\u00a0", "Z",
)


class TestTokenize:
    def test_splits_on_non_alphanumeric_runs(self):
        assert tokenize("kill the lights") == ["kill", "the", "lights"]
        assert tokenize("fa--ke!! 100%real") == ["fa", "ke", "100", "real"]
        assert tokenize("") == []
        assert tokenize("!!!") == []

    def test_underscore_and_unicode_classes(self):
        assert tokenize("so_fake") == ["so", "fake"]
        assert tokenize("caf\u0065\u0301 \u2167\u00bd \u0966\u0967x") == \
            ["caf\u00e9", "\u2167\u00bd", "\u0966\u0967x"]
        assert tokenize("\u4e2d\u6587\u3000\u89c6\u9891") == \
            ["\u4e2d\u6587", "\u89c6\u9891"]

    def test_every_code_point_agrees_with_the_oracle(self):
        # One string of all code points: a character the tokenizer classed
        # differently from str.isalnum would split or merge a token here.
        text = "".join(map(chr, range(sys.maxunicode + 1)))
        assert tokenize(text) == oracle_tokens(text)

    @settings(max_examples=400, deadline=None)
    @given(st.text(st.one_of(st.sampled_from(TOKENIZER_EDGE_CHARS),
                             st.characters()), max_size=40))
    def test_matches_the_character_loop_oracle(self, text):
        assert tokenize(text) == oracle_tokens(text)


class TestLexiconDirectory:
    def test_reads_five_lists_with_phrases_as_written(self, tmp_path):
        directory = tmp_path / "lexicons"
        shutil.copytree(lexical.default_lexicon_dir(), directory)
        (directory / "fakeness_phrases.txt").write_text(
            "# comment\nSo FAKE\n\n  zebra hoax  \nAbsurd #1\n",
            encoding="utf-8")
        lex = LexiconSet.from_directory(directory)
        assert lex.fakeness_phrases == ("So FAKE", "zebra hoax", "Absurd #1")
        assert lex.clickbait_phrases == \
            LexiconSet.default().clickbait_phrases

    def test_default_phrases_are_the_bundled_list(self, lexicons, phrases):
        assert lexicons.fakeness_phrases == phrases
        assert len(phrases) == 30

    def test_file_names_follow_the_fields(self):
        assert lexical.LEXICON_FILES == (
            "clickbait_phrases.txt", "violent_words.txt",
            "fakeness_patterns.txt", "swear_words.txt", "fakeness_phrases.txt")

    def test_missing_file_is_named(self, tmp_path):
        directory = tmp_path / "lexicons"
        shutil.copytree(lexical.default_lexicon_dir(), directory)
        for name in lexical.LEXICON_FILES:
            (directory / name).rename(directory / "away")
            with pytest.raises(OSError, match=name):
                LexiconSet.from_directory(directory)
            (directory / "away").rename(directory / name)


class TestTitleFeatures:
    def test_clickbait_paper_example(self, lexicons):
        assert has_clickbait_phrase("This will blow your mind", lexicons) == 1

    def test_clickbait_empty_title(self, lexicons):
        assert has_clickbait_phrase("", lexicons) == 0

    def test_clickbait_plain_title_scans_default_file(self, lexicons):
        title = "Cooking pasta tutorial"
        # independent scan of the shipped 70-phrase file
        assert len(lexicons.clickbait_phrases) == 70
        assert not any(p in title.lower() for p in lexicons.clickbait_phrases)
        assert has_clickbait_phrase(title, lexicons) == 0

    def test_clickbait_case_insensitive(self, lexicons):
        assert has_clickbait_phrase("BLOW YOUR MIND compilation", lexicons) == 1

    def test_violent_ratio_hand_tokenization(self):
        lex = LexiconSet.from_entries(["x"], ["kill"], ["x"], ["x"], ["x"])
        assert ratio_violent_words("kill the lights", lex) == pytest.approx(1 / 3)

    def test_violent_ratio_empty_title(self, lexicons):
        assert ratio_violent_words("", lexicons) == 0.0

    def test_violent_ratio_all_tokens(self):
        lex = LexiconSet.from_entries(["x"], ["hack", "chop", "kill"], ["x"],
                                      ["x"], ["x"])
        assert ratio_violent_words("hack chop kill", lex) == 1.0

    def test_ratio_caps_hand_count(self):
        assert ratio_caps("SHOCKING truth about CATS now") == pytest.approx(2 / 5)

    def test_ratio_caps_extremes(self):
        assert ratio_caps("HELLO") == 1.0
        assert ratio_caps("hello world") == 0.0
        assert ratio_caps("") == 0.0

    def test_ratio_caps_needs_a_letter(self):
        # "123" has no letters so it is not a caps token, but it still counts
        # in the denominator
        assert ratio_caps("123 OK") == pytest.approx(1 / 2)


class TestDislikeLikeRatio:
    def test_plain_arithmetic(self):
        assert dislike_like_ratio(make_video(likes=100, dislikes=30)) == 0.3

    def test_zero_both(self):
        assert dislike_like_ratio(make_video(likes=0, dislikes=0)) == 0.0

    def test_zero_likes_capped(self):
        assert dislike_like_ratio(make_video(likes=0, dislikes=5)) == 1000.0

    def test_huge_ratio_capped(self):
        assert dislike_like_ratio(make_video(likes=1, dislikes=10**6)) == 1000.0


# Pieces that the bundled patterns and SCAN_PATTERNS match, split or
# border, for random comments.
SCAN_PIECES = ["fake", "FAAAKE", "hoax", "click", "bait", " ", "bs", "b",
               "s", "not", "  real", "NOT", "cgi", "CGI", "_", "-", "!", "é",
               "\u0301", "ab", "a", "x", "y1", "\u212a", "k", "staged"]
# Groups, a named group, a scoped flag, a top-level alternation, anchors
# and a lookbehind: all keep their meaning inside an alternation.
SCAN_PATTERNS = (r"(ab)+c?", r"(?P<w>fa)ke\b", r"(?-i:CGI)", r"x|y1",
                 r"^bs$", r"(?<=a)b!", r"\bnot\s+real\b")


class TestCommentFeatures:
    def test_fakeness_elongated_match(self, lexicons):
        comments = [make_comment("a", "faaake!!"), make_comment("b", "nice video")]
        assert comments_fakeness(comments, lexicons) == 0.5

    def test_fakeness_empty(self, lexicons):
        assert comments_fakeness([], lexicons) == 0.0

    def test_fakeness_against_brute_force_scan(self, lexicons):
        texts = ["total hoax", "nice", "so fake", "cool video", "b s",
                 "clickbait!", "meh", "love it", "great", "what"]
        comments = [make_comment(f"c{i}", t) for i, t in enumerate(texts)]
        expected = sum(
            1 for t in texts
            if any(re.search(p.pattern, unicodedata.normalize("NFC", t),
                             re.IGNORECASE) for p in lexicons.fakeness_patterns)
        ) / len(texts)
        assert comments_fakeness(comments, lexicons) == pytest.approx(expected)
        assert expected == pytest.approx(0.3)

    @settings(max_examples=200, deadline=None)
    @given(texts=st.lists(
        st.lists(st.sampled_from(SCAN_PIECES), max_size=8).map("".join)
        | st.text(max_size=12), min_size=1, max_size=10))
    def test_one_scan_agrees_with_the_pattern_loop(self, lexicons, texts):
        comments = [make_comment(f"c{i}", t) for i, t in enumerate(texts)]
        custom = LexiconSet.from_entries(["x"], ["y"], SCAN_PATTERNS, ["z"],
                                         ["w"])
        for lex in (lexicons, custom):
            assert lex.fakeness_scan is not None
            # The same patterns, made to take the loop.
            loop = dataclasses.replace(lex)
            loop.__dict__["fakeness_scan"] = None
            assert comments_fakeness(comments, lex) == \
                comments_fakeness(comments, loop)
            for text in texts:
                assert (lex.fakeness_scan.search(text) is not None) == \
                    any(p.search(text) for p in lex.fakeness_patterns)

    @pytest.mark.parametrize("pattern", [
        r"(a)\1", r"(?P<n>a)(?P=n)", r"(a)?(?(1)b|c)", r"(?x) a b",
        r"(?u)ab", r"\\1", r"(?P<w>ho)ax"])
    def test_patterns_an_alternation_would_change_take_the_loop(
            self, pattern):
        # The last one's group name is taken by the first pattern's, so
        # the alternation does not compile.
        lex = LexiconSet.from_entries(["x"], ["y"], [r"(?P<w>fa)ke\b", pattern],
                                      ["z"], ["w"])
        assert lex.fakeness_scan is None
        texts = ["aa", "so fake", "ab", "c", "\\1", "hoax", "nothing"]
        want = sum(1 for t in texts
                   if any(p.search(t) for p in lex.fakeness_patterns))
        comments = [make_comment(f"c{i}", t) for i, t in enumerate(texts)]
        assert comments_fakeness(comments, lex) == want / len(texts)

    def test_the_scan_is_not_a_field(self, lexicons):
        assert "fakeness_scan" not in {f.name for f in
                                       dataclasses.fields(LexiconSet)}
        assert lexicons.fakeness_scan is lexicons.fakeness_scan
        assert LexiconSet.from_entries(["x"], ["y"], [], ["z"], ["w"]
                                       ).fakeness_scan is None

    def test_inappropriateness_empty_and_full(self, lexicons):
        assert comments_inappropriateness([], lexicons) == 0.0
        swears = [make_comment(str(i), "this is shit") for i in range(3)]
        assert comments_inappropriateness(swears, lexicons) == 1.0

    def test_inappropriateness_mixed_hand_corpus(self, lexicons):
        texts = ["damn right", "nice", "what the hell", "ok", "crap quality",
                 "fine", "wtf is this"]
        comments = [make_comment(str(i), t) for i, t in enumerate(texts)]
        assert comments_inappropriateness(comments, lexicons) == pytest.approx(4 / 7)

    def test_inappropriateness_is_token_based(self, lexicons):
        # "hello" contains "hell" as a substring but not as a token
        assert comments_inappropriateness([make_comment("a", "hello")],
                                          lexicons) == 0.0

    def test_conversation_ratio(self):
        comments = [make_comment("a", replies=0), make_comment("b", replies=0),
                    make_comment("c", replies=2)]
        assert comments_conversation_ratio(comments) == pytest.approx(1 / 3)
        assert comments_conversation_ratio([]) == 0.0

    def test_conversation_ratio_counting_oracle(self):
        rng = np.random.default_rng(0)
        replies = rng.integers(0, 4, size=50)
        comments = [make_comment(str(i), replies=int(r))
                    for i, r in enumerate(replies)]
        expected = sum(1 for r in replies if r >= 1) / 50
        assert comments_conversation_ratio(comments) == pytest.approx(expected)

    @settings(max_examples=30, deadline=None)
    @given(order=st.permutations(list(range(6))))
    def test_comment_features_reorder_invariant(self, lexicons, order):
        texts = ["fake!", "nice", "hoax cgi", "good", "damn", "meh"]
        base = [make_comment(str(i), texts[i], replies=i % 2) for i in range(6)]
        shuffled = [base[i] for i in order]
        assert comments_fakeness(base, lexicons) == comments_fakeness(shuffled, lexicons)
        assert comments_inappropriateness(base, lexicons) == \
            comments_inappropriateness(shuffled, lexicons)
        assert comments_conversation_ratio(base) == \
            comments_conversation_ratio(shuffled)

    @settings(max_examples=30, deadline=None)
    @given(title=st.text(max_size=40), suffix=st.text(max_size=20))
    def test_clickbait_monotone_under_append(self, lexicons, title, suffix):
        before = has_clickbait_phrase(title, lexicons)
        after = has_clickbait_phrase(title + suffix, lexicons)
        if before == 1:
            assert after == 1


class TestTitleScorer:
    def test_deterministic_scores(self, scorer):
        assert scorer.score("some title") == scorer.score("some title")

    def test_training_determinism(self, lexicons):
        titles = [("SHOCKING you won't believe", "fake"),
                  ("a calm cat video", "real")] * 8
        a = train_title_scorer(titles, lexicons, seed=9)
        b = train_title_scorer(titles, lexicons, seed=9)
        for key, value in a.mlp.parameters().items():
            assert np.array_equal(value, b.mlp.parameters()[key])

    @pytest.mark.parametrize("n_titles", [48, 53, 17],
                             ids=["full-batches", "ragged", "one-row-tail"])
    def test_training_takes_the_written_out_steps(self, lexicons, n_titles):
        # Training's step over one gather an epoch must reach the
        # parameters of a plain loop, bit for bit: each batch gathered
        # alone, its gradients written out with no Mlp, and the textbook
        # Adam update.
        titles = synthetic.make_labeled_titles(n_titles, seed=3,
                                               lexicons=lexicons)
        fast = train_title_scorer(titles, lexicons, seed=2)
        xs = np.stack([lexical.title_linguistic_features(t, lexicons)
                       for t, _ in titles])
        ys = np.array([label == "fake" for _, label in titles], dtype=np.int64)
        mean, std = xs.mean(axis=0), xs.std(axis=0)
        std = np.where(std > 0, std, 1.0)
        xs = (xs - mean) / std
        rng = np.random.default_rng(2)
        units, inputs = lexical._SCORER_HIDDEN, xs.shape[1]
        layers = [neural.glorot_uniform(rng, units, inputs), np.zeros(units),
                  neural.glorot_uniform(rng, 2, units), np.zeros(2)]
        params = np.concatenate([a.ravel() for a in layers])
        bounds = np.cumsum([a.size for a in layers])[:-1]
        m = v = np.zeros_like(params)
        t = 0
        for _ in range(lexical._SCORER_EPOCHS):
            order = rng.permutation(len(xs))
            for start in range(0, len(xs), lexical._SCORER_BATCH):
                batch = order[start:start + lexical._SCORER_BATCH]
                _, grads, _ = mlp_reference(xs[batch], *layers, ys[batch])
                t += 1
                params, m, v = pure_adam(
                    params, np.concatenate([g.ravel() for g in grads]), m, v,
                    t, lexical._SCORER_LEARNING_RATE)
                layers = [part.reshape(a.shape) for part, a
                          in zip(np.split(params, bounds), layers)]
        assert fast.mlp.flat.vector.tobytes() == params.tobytes()
        assert (fast.mean.tobytes(), fast.std.tobytes()) == \
            (mean.tobytes(), std.tobytes())

    def test_separable_titles_learned(self, lexicons):
        rng = np.random.default_rng(4)
        fillers = ["cats", "cooking", "a", "quiet", "walk", "review"]
        train, test = [], []
        for i in range(120):
            if i % 2:
                title = "you won't believe this SHOCKING thing!!"
                title += " " + fillers[i % len(fillers)]
                label = "fake"
            else:
                title = " ".join(rng.choice(fillers, size=4))
                label = "real"
            (train if i < 90 else test).append((title, label))
        scorer = train_title_scorer(train, lexicons, seed=1)
        fake_scores = [scorer.score(t) for t, lab in test if lab == "fake"]
        real_scores = [scorer.score(t) for t, lab in test if lab == "real"]
        assert np.mean(fake_scores) > np.mean(real_scores)
        correct = sum(1 for t, lab in test
                      if (scorer.score(t) >= 0.5) == (lab == "fake"))
        assert correct / len(test) >= 0.9

    def test_trained_scorer_bytes(self, tmp_path, lexicons):
        # Taken while the hidden width, learning rate, epochs and batch
        # size were still settings.
        train_title_scorer(synthetic.make_labeled_titles(240, seed=7),
                           lexicons).save(tmp_path / "scorer.model")
        assert hashlib.sha256((tmp_path / "scorer.model").read_bytes()
                              ).hexdigest() == ("8a416eb1de501b29447c32fba6f23967"
                                                "784c34122e706d8abe0ae462c81a9f2a")

    def test_single_class_rejected(self, lexicons):
        with pytest.raises(ValueError):
            train_title_scorer([("a", "fake"), ("b", "fake")], lexicons)

    def test_empty_rejected(self, lexicons):
        with pytest.raises(ValueError):
            train_title_scorer([], lexicons)

    def test_save_load_round_trip(self, tmp_path, lexicons, scorer):
        path = tmp_path / "scorer.model"
        scorer.save(path)
        again = TitleScorer.load(path, lexicons)
        for title in ("SHOCKING news", "plain words", ""):
            assert again.score(title) == scorer.score(title)

    def test_load_rejects_different_lexicons(self, tmp_path, lexicons, scorer):
        path = tmp_path / "scorer.model"
        scorer.save(path)
        other = LexiconSet.from_entries(["different phrase"], ["kill"],
                                        ["fake"], ["damn"], ["hoax"])
        with pytest.raises(ValueError, match="lexicons"):
            TitleScorer.load(path, other)

    @pytest.mark.parametrize("entry,shape", [
        ("feature_mean", (3,)), ("layer0.weights", (8, 2)),
        ("layer0.bias", (7,)), ("layer1.weights", (3, 8)),
        ("layer1.bias", (2, 1))])
    def test_load_names_a_tensor_of_the_wrong_shape(self, tmp_path, lexicons,
                                                    scorer, entry, shape):
        from ucnet import serialize
        path = tmp_path / "scorer.model"
        scorer.save(path)
        tensors, meta = serialize.load_tensors(path)
        tensors[entry] = np.zeros(shape)
        serialize.save_tensors(path, tensors, meta)
        with pytest.raises(ValueError, match=f"scorer.model: tensor '{entry}'"):
            TitleScorer.load(path, lexicons)


def oracle_tokens(text):
    """Char-loop tokenizer, independent of the library implementation."""
    text = unicodedata.normalize("NFC", text)
    tokens, current = [], ""
    for ch in text:
        if ch.isalnum():
            current += ch
        elif current:
            tokens.append(current)
            current = ""
    if current:
        tokens.append(current)
    return tokens


def oracle_extract(video, lex, scorer):
    """Straightforward reimplementation of all eight features."""
    title = unicodedata.normalize("NFC", video.title).casefold()
    clickbait = 0.0
    for phrase in lex.clickbait_phrases:
        if phrase in title:
            clickbait = 1.0
    toks = oracle_tokens(video.title)
    violent = 0.0 if not toks else \
        sum(1 for t in toks if t.casefold() in lex.violent_words) / len(toks)
    caps = 0.0 if not toks else \
        sum(1 for t in toks if t.isupper()) / len(toks)
    score = scorer.score(video.title)
    if video.like_count == 0:
        ratio = 1000.0 if video.dislike_count > 0 else 0.0
    else:
        ratio = min(video.dislike_count / video.like_count, 1000.0)
    n = len(video.comments)
    fakeness = inappropriate = conversation = 0.0
    if n:
        fake_hits = swear_hits = reply_hits = 0
        for c in video.comments:
            text = unicodedata.normalize("NFC", c.text)
            if any(p.search(text) for p in lex.fakeness_patterns):
                fake_hits += 1
            if any(t.casefold() in lex.swear_words for t in oracle_tokens(c.text)):
                swear_hits += 1
            if c.reply_count >= 1:
                reply_hits += 1
        fakeness = fake_hits / n
        inappropriate = swear_hits / n
        conversation = reply_hits / n
    return (clickbait, violent, caps, score, ratio, fakeness, inappropriate,
            conversation)


def random_video(rng, lexicons, vid):
    words = ["cats", "video", "kill", "SHOCK", "the", "a", "review", "hoax"]
    title_words = list(rng.choice(words, size=int(rng.integers(0, 7))))
    if rng.random() < 0.3:
        title_words.append("blow your mind")
    title = " ".join(title_words)
    texts = ["nice", "faaake", "damn cool", "what a hoax", "ok", "so staged",
             "bs", "love it", "crap", ""]
    comments = [make_comment(f"{vid}-c{i}",
                             str(rng.choice(texts)),
                             replies=int(rng.integers(0, 3)))
                for i in range(int(rng.integers(0, 8)))]
    return make_video(vid, "real", title=title, comments=comments,
                      likes=int(rng.integers(0, 50)),
                      dislikes=int(rng.integers(0, 50)))


class TestExtractFeatures:
    def test_no_comments_zeroes_comment_features(self, lexicons, scorer):
        fv = extract_features(make_video(comments=()), lexicons, scorer)
        assert fv.comments_fakeness == 0.0
        assert fv.comments_inappropriateness == 0.0
        assert fv.comments_conversation_ratio == 0.0

    def test_planted_fixture(self, lexicons, scorer):
        video = make_video(
            title="This will blow your mind",
            comments=[make_comment("a", "faaake"), make_comment("b", "nice")])
        fv = extract_features(video, lexicons, scorer)
        assert fv.has_clickbait_phrase == 1.0
        assert fv.comments_fakeness > 0.0

    def test_deterministic(self, lexicons, scorer):
        video = make_video(comments=[make_comment("a", "hey")])
        first = extract_features(video, lexicons, scorer)
        second = extract_features(video, lexicons, scorer)
        assert first == second

    def test_matches_independent_oracle_on_100_random_videos(self, lexicons,
                                                             scorer):
        rng = np.random.default_rng(42)
        for i in range(100):
            video = random_video(rng, lexicons, f"v{i}")
            got = extract_features(video, lexicons, scorer).as_array()
            expected = np.array(oracle_extract(video, lexicons, scorer))
            assert np.array_equal(got, expected), video

    def test_field_order_matches_names(self, lexicons, scorer):
        fv = extract_features(make_video(), lexicons, scorer)
        arr = fv.as_array()
        for i, name in enumerate(FEATURE_NAMES):
            assert arr[i] == getattr(fv, name)

    def test_names_are_the_feature_columns(self):
        # The names head the features CSV and name a model's inputs.
        assert FEATURE_NAMES == (
            "has_clickbait_phrase", "ratio_violent_words", "ratio_caps",
            "title_fakeness_score", "dislike_like_ratio", "comments_fakeness",
            "comments_inappropriateness", "comments_conversation_ratio")


class TestPruneCorrelated:
    def test_duplicate_column_lower_importance_removed(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=20)
        features = np.column_stack([a, a, rng.normal(size=20)])
        kept = prune_correlated(features, [0.5, 0.2, 0.3], threshold=0.2)
        assert kept == (0, 2)

    def test_uncorrelated_keeps_everything(self):
        rng = np.random.default_rng(1)
        features = rng.normal(size=(600, 8))
        corr = pearson_correlation(features)
        assert np.abs(corr - np.eye(8)).max() <= 0.2
        kept = prune_correlated(features, np.arange(8.0), threshold=0.2)
        assert kept == tuple(range(8))

    def test_three_correlated_features_hand_rule(self):
        # 5-row matrix: columns 0 and 1 are exactly linear in each other,
        # column 2 is noisy but still correlated with both, so the marking
        # rule drops everything except the most important member.
        base = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        features = np.column_stack([base, 2 * base + 1,
                                    base + [0.1, -0.2, 0.1, -0.1, 0.0]])
        corr = pearson_correlation(features)
        assert abs(corr[0, 1]) > 0.99 and abs(corr[0, 2]) > 0.9
        importances = [0.2, 0.5, 0.3]
        # pairs: (0,1) marks 0; (0,2) marks 0; (1,2) marks 2 -> keep {1}
        assert prune_correlated(features, importances, 0.2) == (1,)

    def test_values_near_the_float_maximum_correlate(self):
        # Squared unscaled, these overflow, with a RuntimeWarning (an error
        # under the suite's filter), and r read -0.0.
        features = np.array([[9e307, 1.0], [-9e307, 2.0], [8e307, 3.0]])
        corr = pearson_correlation(features)
        assert corr[0, 1] == corr[1, 0] == pytest.approx(-0.0494, abs=5e-5)
        assert prune_correlated(features, [0.5, 0.2], 0.04) == (0,)

    def test_importance_tie_keeps_lower_index(self):
        base = np.linspace(0, 1, 10)
        features = np.column_stack([base, base])
        assert prune_correlated(features, [0.5, 0.5], 0.2) == (0,)

    def test_zero_variance_column_is_not_an_error(self):
        features = np.column_stack([np.ones(10), np.linspace(0, 1, 10)])
        kept = prune_correlated(features, [0.9, 0.1], threshold=0.2)
        assert kept == (0, 1)

    def test_disjoint_pairs_never_lose_both_members(self):
        rng = np.random.default_rng(3)
        pairs = []
        columns = []
        importances = []
        for p in range(4):
            a = rng.normal(size=800)
            columns += [a, a + rng.normal(scale=1e-6, size=800)]
            importances += [rng.random(), rng.random()]
            pairs.append((2 * p, 2 * p + 1))
        matrix = np.column_stack(columns)
        corr = pearson_correlation(matrix)
        for i in range(8):
            for j in range(i + 1, 8):
                correlated = abs(corr[i, j]) > 0.2
                assert correlated == ((i, j) in pairs)  # structure is disjoint
        kept = set(prune_correlated(matrix, importances, 0.2))
        for i, j in pairs:
            assert (i in kept) != (j in kept)  # exactly one member survives

    def test_input_validation(self):
        with pytest.raises(ValueError):
            prune_correlated(np.zeros((1, 3)), [1, 2, 3])
        with pytest.raises(ValueError):
            prune_correlated(np.zeros((5, 3)), [1, 2])
        with pytest.raises(ValueError):
            prune_correlated(np.zeros((5, 2)), [np.inf, 1.0])


class TestFeatureVectorInvariants:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**31))
    def test_ranges_hold_for_random_videos(self, lexicons, scorer, seed):
        rng = np.random.default_rng(seed)
        video = random_video(rng, lexicons, "v")
        fv = extract_features(video, lexicons, scorer)
        arr = fv.as_array()
        assert np.all(np.isfinite(arr))
        for name in ("ratio_violent_words", "ratio_caps", "title_fakeness_score",
                     "comments_fakeness", "comments_inappropriateness",
                     "comments_conversation_ratio"):
            assert 0.0 <= getattr(fv, name) <= 1.0
        assert 0.0 <= fv.dislike_like_ratio <= 1000.0
        assert fv.has_clickbait_phrase in (0.0, 1.0)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            FeatureVector(0, 2.0, 0, 0, 0, 0, 0, 0)
        with pytest.raises(ValueError):
            FeatureVector(0, 0, 0, 0, float("nan"), 0, 0, 0)
