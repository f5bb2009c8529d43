import csv

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ucnet.evaluation import (ConfusionMatrix, classify, evaluate,
                              export_report, pca_project, read_report)


class TestClassify:
    def test_fake_majority(self):
        assert classify(0.7) == "fake"

    def test_real_majority(self):
        assert classify(0.3) == "real"

    def test_tie_goes_to_fake(self):
        assert classify(0.5) == "fake"
        assert classify(np.nextafter(0.5, 0.0)) == "real"


class TestConfusionMatrix:
    def test_counts_with_fake_positive(self):
        y_true = ["fake", "fake", "real", "real", "fake"]
        y_pred = ["fake", "real", "fake", "real", "fake"]
        cm = ConfusionMatrix.from_labels(y_true, y_pred)
        assert (cm.tp, cm.fn, cm.fp, cm.tn) == (2, 1, 1, 1)
        assert cm.total == 5


class TestEvaluate:
    def test_published_row_arithmetic(self):
        # per-class P = 176/275 = 0.64 and R = 176/200 = 0.88 give F1 = 0.74
        y_true = (["fake"] * 176 + ["real"] * 99      # predicted fake
                  + ["fake"] * 24 + ["real"] * 50)    # predicted real
        y_pred = ["fake"] * 275 + ["real"] * 74
        report = evaluate(y_true, y_pred)
        assert report.fake.precision == pytest.approx(0.64)
        assert report.fake.recall == pytest.approx(0.88)
        assert round(report.fake.f1, 2) == 0.74

    def test_all_fake_predictor_baseline(self):
        y_true = ["fake"] * 31 + ["real"] * 23
        y_pred = ["fake"] * 54
        report = evaluate(y_true, y_pred)
        assert report.macro_precision == pytest.approx(0.287, abs=1e-3)
        assert report.macro_recall == pytest.approx(0.500, abs=1e-3)
        assert report.macro_f1 == pytest.approx(0.365, abs=1e-3)
        assert report.real.precision == 0.0
        assert report.real.recall == 0.0
        assert report.real.f1 == 0.0

    def test_perfect_predictions(self):
        y = ["fake", "real", "fake", "real"]
        report = evaluate(y, list(y))
        assert report.macro_precision == 1.0
        assert report.macro_recall == 1.0
        assert report.macro_f1 == 1.0

    def test_macro_is_unweighted_mean(self):
        y_true = ["fake"] * 9 + ["real"]
        y_pred = ["fake"] * 8 + ["real", "fake"]
        report = evaluate(y_true, y_pred)
        assert report.macro_f1 == pytest.approx(
            (report.fake.f1 + report.real.f1) / 2)

    def test_supports_counted_per_class(self):
        report = evaluate(["fake", "fake", "real"], ["fake", "real", "real"])
        assert report.fake.support == 2
        assert report.real.support == 1
        assert report.total_support == 3

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(["fake", "real"]),
                              st.sampled_from(["fake", "real"])),
                    min_size=1, max_size=30))
    def test_relabel_symmetry(self, pairs):
        y_true = [t for t, _ in pairs]
        y_pred = [p for _, p in pairs]
        swap = {"fake": "real", "real": "fake"}
        report = evaluate(y_true, y_pred)
        swapped = evaluate([swap[t] for t in y_true], [swap[p] for p in y_pred])
        assert swapped.fake == report.real
        assert swapped.real == report.fake
        assert swapped.macro_f1 == pytest.approx(report.macro_f1)
        assert swapped.macro_precision == pytest.approx(report.macro_precision)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 40), st.integers(1, 40))
    def test_constant_predictor_closed_form(self, n_fake, n_real):
        y_true = ["fake"] * n_fake + ["real"] * n_real
        report = evaluate(y_true, ["fake"] * (n_fake + n_real))
        precision = n_fake / (n_fake + n_real)
        f_fake = 2 * precision / (precision + 1.0)
        assert report.macro_f1 == pytest.approx(f_fake / 2)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            evaluate(["fake"], ["fake", "real"])

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError, match="spam"):
            evaluate(["fake"], ["spam"])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            evaluate([], [])


def power_iteration_pca(X, k, iters=20_000):
    """Deflated power iteration, independent of the eigh-based code."""
    Xc = X - X.mean(axis=0)
    S = Xc.T @ Xc / (len(X) - 1)
    d = S.shape[0]
    vectors, values = [], []
    rng = np.random.default_rng(123)
    for _ in range(k):
        v = rng.normal(size=d)
        v /= np.linalg.norm(v)
        for _ in range(iters):
            w = S @ v
            norm = np.linalg.norm(w)
            if norm < 1e-300:
                break
            v = w / norm
        lam = float(v @ S @ v)
        vectors.append(v)
        values.append(lam)
        S = S - lam * np.outer(v, v)
    return Xc @ np.stack(vectors, axis=1), np.array(values)


class TestPcaProject:
    def test_axis_aligned_two_dimensional(self):
        # zero cross-covariance, var(x1) > var(x2)
        X = np.array([[4.0, 0.1], [-4.0, 0.1], [2.0, -0.1], [-2.0, -0.1]])
        projected, variances = pca_project(X, 2)
        centered = X - X.mean(axis=0)
        assert variances[0] >= variances[1]
        assert np.allclose(np.abs(projected), np.abs(centered), atol=1e-8)

    def test_identical_rows_degenerate(self):
        X = np.tile([1.0, 2.0, 3.0], (5, 1))
        projected, variances = pca_project(X, 2)
        assert np.allclose(projected, 0.0)
        assert np.allclose(variances, 0.0)

    def test_matches_power_iteration_oracle(self):
        rng = np.random.default_rng(20)
        X = rng.normal(size=(20, 5))
        projected, variances = pca_project(X, 2)
        oracle_proj, oracle_vals = power_iteration_pca(X, 2)
        assert np.allclose(variances, oracle_vals, atol=1e-8)
        for j in range(2):
            direct = np.abs(projected[:, j] - oracle_proj[:, j]).max()
            flipped = np.abs(projected[:, j] + oracle_proj[:, j]).max()
            assert min(direct, flipped) < 1e-8

    def test_variances_non_increasing(self):
        rng = np.random.default_rng(21)
        X = rng.normal(size=(30, 6)) * np.array([5, 1, 3, 0.5, 2, 0.1])
        _, variances = pca_project(X, 6)
        assert np.all(np.diff(variances) <= 1e-12)

    def test_full_rank_projection_preserves_distances(self):
        rng = np.random.default_rng(22)
        X = rng.normal(size=(15, 4))
        projected, _ = pca_project(X, 4)
        for i in range(0, 15, 3):
            for j in range(i + 1, 15, 4):
                original = np.linalg.norm(X[i] - X[j])
                mapped = np.linalg.norm(projected[i] - projected[j])
                assert mapped == pytest.approx(original, abs=1e-8)

    def test_sign_convention_is_deterministic(self):
        rng = np.random.default_rng(23)
        X = rng.normal(size=(12, 3))
        a, _ = pca_project(X, 3)
        b, _ = pca_project(X.copy(), 3)
        assert np.array_equal(a, b)

    def test_a_mean_beyond_the_float_range_is_scaled_away(self):
        # The constant column's sum, 20 * 2**1020, overflows unscaled.
        a = np.random.default_rng(24).normal(size=20)
        X = np.column_stack([np.ldexp(a, 400), np.full(20, 2.0 ** 1020)])
        projected, variances = pca_project(X, 2)
        assert np.allclose(np.ldexp(projected[:, 0], -400),
                           np.abs(a - a.mean()) * np.sign(projected[:, 0]),
                           rtol=1e-12, atol=0)
        assert np.ldexp(variances[0], -800) == pytest.approx(np.var(a, ddof=1),
                                                             rel=1e-12)
        assert np.array_equal(projected[:, 1], np.zeros(20))
        assert variances[1] == 0.0

    def test_a_constant_column_near_the_float_maximum_has_no_variance(self):
        # Scaled by 2**-517, the column's mean is an ulp off; that residue's
        # square would overflow once scaled back.
        a = np.random.default_rng(25).normal(size=24)
        X = np.column_stack([np.full(24, 1.7e308), np.ldexp(a, 400)])
        projected, variances = pca_project(X, 2)
        assert np.allclose(np.ldexp(projected[:, 0], -400),
                           np.abs(a - a.mean()) * np.sign(projected[:, 0]),
                           rtol=1e-12, atol=0)
        assert np.ldexp(variances[0], -800) == pytest.approx(np.var(a, ddof=1),
                                                             rel=1e-12)
        assert np.array_equal(projected[:, 1], np.zeros(24))
        assert variances[1] == 0.0

    def test_results_beyond_the_float_range_raise(self):
        signs = np.tile([1.0, -1.0], 20)
        X = np.column_stack([9e307 * signs, 1.7e308 * signs, np.ones(40)])
        with pytest.raises(OverflowError, match="exceeds the float64 range"):
            pca_project(X, 2)

    def test_non_finite_values_are_refused(self):
        with pytest.raises(ValueError, match="finite"):
            pca_project(np.array([[1.0, np.nan], [2.0, 3.0]]), 1)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            pca_project(np.zeros((1, 3)), 1)
        with pytest.raises(ValueError):
            pca_project(np.zeros((5, 3)), 4)
        with pytest.raises(ValueError):
            pca_project(np.zeros((5, 3)), 0)


class TestExportReport:
    def test_projection_csv_has_header_and_rows(self, tmp_path):
        path = tmp_path / "proj.csv"
        projection = np.array([[1.5, -2.0], [0.25, 0.75]])
        export_report(projection, path, video_ids=["a", "b"],
                      labels=["fake", "real"])
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        assert lines[0] == "video_id,pc1,pc2,label"
        assert lines[1].startswith("a,1.5,")

    def test_report_round_trip_at_full_precision(self, tmp_path):
        y_true = ["fake"] * 7 + ["real"] * 5
        y_pred = ["fake"] * 4 + ["real"] * 3 + ["real"] * 4 + ["fake"]
        report = evaluate(y_true, y_pred)
        path = tmp_path / "report.csv"
        export_report(report, path)
        again = read_report(path)
        assert again == report

    @pytest.mark.parametrize("damage,message", [
        ("empty", "expected the header class,precision,recall,f1,support"),
        ("header-only", "no 'fake' row"),
        ("no-macro", "no 'macro' row"),
        ("short-row", "line 2: expected 5 fields, got 4"),
        ("non-numeric", "line 3: precision 'x' is not a finite float"),
        ("nan", "line 3: recall 'nan' is not a finite float"),
        ("inf", "line 4: f1 '-inf' is not a finite float"),
        ("fractional-support", "line 4: support '2.5' is not a finite int"),
        ("huge-support", "line 4: support '999"),
        ("duplicate", "line 3: duplicate class 'fake'"),
        ("huge-field", "line 3: field larger than field limit"),
        ("precision-7", "line 2: precision 7.0 is outside [0, 1]"),
        ("negative-recall", "line 3: recall -0.25 is outside [0, 1]"),
        ("f1-above-one", "line 4: f1 1.5 is outside [0, 1]"),
        ("negative-support", "line 3: support -3 is negative"),
        ("macro-not-mean", "line 4: macro precision 0.5 is not the mean of "
                           "the class rows, 0.25"),
        # one ulp above the mean: exactly the mean is required
        ("macro-f1-off", "line 4: macro f1 0.33333333333333337 is not the "
                         "mean of the class rows, 0.3333333333333333"),
        ("macro-support", "line 4: macro support 3 is not the sum of the "
                          "class supports, 2"),
    ])
    def test_broken_report_names_file(self, tmp_path, damage, message):
        path = tmp_path / "report.csv"
        export_report(evaluate(["fake", "real"], ["fake", "fake"]), path)
        lines = path.read_text().splitlines()
        m_f1 = lines[3].split(",")[3]  # the class rows' mean F1, 1/3
        lines = {"empty": [],
                 "header-only": lines[:1],
                 "no-macro": lines[:3],
                 "short-row": [lines[0], lines[1].rsplit(",", 1)[0], *lines[2:]],
                 "non-numeric": [*lines[:2], "real,x,0,0,1", lines[3]],
                 "nan": [*lines[:2], "real,0,nan,0,1", lines[3]],
                 "inf": [*lines[:3], "macro,0.5,0.5,-inf,2"],
                 "fractional-support": [*lines[:3], lines[3] + ".5"],
                 "huge-support": [*lines[:3], "macro,0.5,0.5,0.5," + "9" * 400],
                 "duplicate": [*lines[:2], *lines[1:]],
                 "huge-field": [*lines[:2], "real," + "0" * 131073 + ",0,0,1",
                                lines[3]],
                 "precision-7": [lines[0], "fake,7,1,0.5,1", *lines[2:]],
                 "negative-recall": [*lines[:2], "real,0,-0.25,0,1", lines[3]],
                 "f1-above-one": [*lines[:3], "macro,0.25,0.5,1.5,2"],
                 "negative-support": [*lines[:2], "real,0,0,0,-3", lines[3]],
                 "macro-not-mean": [*lines[:3], "macro,0.5,0.5," + m_f1 + ",2"],
                 "macro-f1-off": [*lines[:3],
                                  "macro,0.25,0.5,0.33333333333333337,2"],
                 "macro-support": [*lines[:3], "macro,0.25,0.5," + m_f1 + ",3"],
                 }[damage]
        path.write_text("".join(line + "\n" for line in lines))
        with pytest.raises(ValueError) as info:
            read_report(path)
        assert str(info.value).startswith(f"{path}: ")
        assert message in str(info.value)

    def test_empty_projection_writes_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        export_report(np.zeros((0, 2)), path, video_ids=[], labels=[])
        assert path.read_text().splitlines() == ["video_id,pc1,pc2,label"]

    def test_unwritable_path_raises(self, tmp_path):
        with pytest.raises(OSError):
            export_report(np.zeros((0, 2)), tmp_path / "nodir" / "x.csv",
                          video_ids=[], labels=[])

    def test_deterministic_bytes(self, tmp_path):
        report = evaluate(["fake", "real"], ["fake", "fake"])
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        export_report(report, a)
        export_report(report, b)
        assert a.read_bytes() == b.read_bytes()

    def test_mismatched_projection_metadata_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            export_report(np.zeros((2, 2)), tmp_path / "x.csv",
                          video_ids=["only-one"], labels=["fake", "real"])
