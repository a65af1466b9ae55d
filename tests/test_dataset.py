import re

import numpy as np
import pytest

from infinisel import Dataset, DataError, fit_scaler, load_csv, load_libsvm, preprocess


def write(path, text):
    path.write_text(text)
    return str(path)


class TestDatasetValidation:
    def test_rejects_single_sample(self):
        with pytest.raises(DataError, match="at least 2 samples"):
            Dataset(np.ones((1, 3)))

    def test_rejects_nan(self):
        values = np.ones((3, 2))
        values[1, 1] = np.nan
        with pytest.raises(DataError, match="non-finite"):
            Dataset(values)

    def test_rejects_single_class_labels(self):
        with pytest.raises(DataError, match="at least 2 classes"):
            Dataset(np.ones((3, 2)), labels=[1, 1, 1])

    def test_rejects_duplicate_names(self):
        with pytest.raises(DataError, match="not unique"):
            Dataset(np.ones((2, 2)), feature_names=("a", "a"))

    def test_rejects_label_length_mismatch(self):
        with pytest.raises(DataError, match="labels"):
            Dataset(np.ones((3, 2)), labels=[0, 1])

    def test_values_are_immutable(self):
        d = Dataset(np.ones((2, 2)))
        with pytest.raises(ValueError):
            d.values[0, 0] = 5.0


class TestLoadCsv:
    def test_numeric_with_header(self, tmp_path):
        p = write(tmp_path / "d.csv", "a,b,c\n1,2,3\n4,5,6\n7,8,9\n")
        d = load_csv(p)
        assert d.n == 3 and d.m == 3
        assert d.labels is None
        assert d.feature_names == ("a", "b", "c")
        np.testing.assert_array_equal(d.values, [[1, 2, 3], [4, 5, 6], [7, 8, 9]])

    def test_headerless_numeric(self, tmp_path):
        p = write(tmp_path / "d.csv", "1,2\n3,4\n")
        d = load_csv(p)
        assert d.n == 2 and d.m == 2 and d.feature_names is None

    def test_label_column(self, tmp_path):
        p = write(tmp_path / "d.csv", "x1,x2,y\n0.5,1.0,0\n0.25,2.0,1\n")
        d = load_csv(p, label_column="y")
        assert d.m == 2
        np.testing.assert_array_equal(d.labels, [0, 1])
        assert d.feature_names == ("x1", "x2")

    def test_ragged_row_names_row(self, tmp_path):
        p = write(tmp_path / "d.csv", "a,b\n1,2\n3\n")
        with pytest.raises(DataError, match="row 3"):
            load_csv(p)

    def test_non_numeric_cell_coordinates(self, tmp_path):
        p = write(tmp_path / "d.csv", "a,b\n1,2\n3,oops\n")
        with pytest.raises(DataError, match=r"row 3, column 2"):
            load_csv(p)

    def test_missing_label_column(self, tmp_path):
        p = write(tmp_path / "d.csv", "a,b\n1,2\n3,4\n")
        with pytest.raises(DataError, match="label column 'y'"):
            load_csv(p, label_column="y")

    def test_empty_file(self, tmp_path):
        p = write(tmp_path / "d.csv", "")
        with pytest.raises(DataError, match="empty"):
            load_csv(p)

    def test_header_only_file(self, tmp_path):
        p = write(tmp_path / "d.csv", "a,b\n")
        with pytest.raises(DataError, match="no data rows"):
            load_csv(p)

    def test_rejects_nan_token(self, tmp_path):
        p = write(tmp_path / "d.csv", "a,b\n1,2\n3,nan\n")
        with pytest.raises(DataError, match="non-finite"):
            load_csv(p)

    def test_rejects_fractional_label(self, tmp_path):
        p = write(tmp_path / "d.csv", "x,y\n1,0.5\n2,1\n")
        with pytest.raises(DataError, match="non-integer label"):
            load_csv(p, label_column="y")

    @pytest.mark.parametrize("token", ["1e20", "9223372036854775808", "-9223372036854775809"])
    def test_label_outside_int64(self, tmp_path, token):
        p = write(tmp_path / "d.csv", f"x,y\n1,0\n2,{token}\n")
        with pytest.raises(DataError, match=r"row 3, column 2"):
            load_csv(p, label_column="y")

    def test_labels_above_2_53_stay_distinct(self, tmp_path):
        p = write(tmp_path / "d.csv", "x,y\n1,9007199254740993\n2,9007199254740992\n")
        d = load_csv(p, label_column="y")
        assert d.labels.tolist() == [2**53 + 1, 2**53]

    def test_integral_float_labels(self, tmp_path):
        p = write(tmp_path / "d.csv", "x,y\n1,1.0\n2,-2e0\n3,+3\n")
        d = load_csv(p, label_column="y")
        assert d.labels.tolist() == [1, -2, 3]

    def test_non_utf8_bytes(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_bytes(b"a,b\n1,2\n3,\xff\n")
        with pytest.raises(DataError, match=re.escape(str(p))):
            load_csv(str(p))

    def test_field_over_csv_limit(self, tmp_path):
        p = write(tmp_path / "d.csv", "a,b\n1," + "2" * 131073 + "\n")
        with pytest.raises(DataError, match=re.escape(p)):
            load_csv(p)


class TestLoadLibsvm:
    def test_basic(self, tmp_path):
        p = write(tmp_path / "d.svm", "1 1:0.5 3:2.0\n0 2:1.0\n")
        d = load_libsvm(p)
        assert d.n == 2 and d.m == 3
        np.testing.assert_array_equal(d.values, [[0.5, 0.0, 2.0], [0.0, 1.0, 0.0]])
        np.testing.assert_array_equal(d.labels, [1, 0])

    def test_empty_feature_list_line(self, tmp_path):
        p = write(tmp_path / "d.svm", "1 \n0 2:1.0\n")
        d = load_libsvm(p)
        np.testing.assert_array_equal(d.values[0], [0.0, 0.0])
        assert d.labels[0] == 1

    def test_non_increasing_indices(self, tmp_path):
        p = write(tmp_path / "d.svm", "1 3:1 2:1\n0 1:1\n")
        with pytest.raises(DataError, match="not increasing"):
            load_libsvm(p)

    def test_index_below_one(self, tmp_path):
        p = write(tmp_path / "d.svm", "1 0:1\n0 1:1\n")
        with pytest.raises(DataError, match="< 1"):
            load_libsvm(p)

    def test_unparsable_value(self, tmp_path):
        p = write(tmp_path / "d.svm", "1 1:x\n0 1:1\n")
        with pytest.raises(DataError, match="bad value"):
            load_libsvm(p)

    def test_plus_prefixed_labels(self, tmp_path):
        p = write(tmp_path / "d.svm", "+1 1:1\n-1 1:2\n")
        d = load_libsvm(p)
        np.testing.assert_array_equal(d.labels, [1, -1])

    def test_label_outside_int64(self, tmp_path):
        p = write(tmp_path / "d.svm", "0 1:1\n1e20 1:2\n")
        with pytest.raises(DataError, match=r"row 2, column 1"):
            load_libsvm(p)

    def test_labels_above_2_53_stay_distinct(self, tmp_path):
        p = write(tmp_path / "d.svm", "9007199254740993 1:1\n9007199254740992 1:2\n")
        assert load_libsvm(p).labels.tolist() == [2**53 + 1, 2**53]

    def test_empty_file(self, tmp_path):
        p = write(tmp_path / "d.svm", "\n\n")
        with pytest.raises(DataError, match="empty"):
            load_libsvm(p)

    def test_non_utf8_bytes(self, tmp_path):
        p = tmp_path / "d.svm"
        p.write_bytes(b"1 1:0.5\n0 1:\xe9\n")
        with pytest.raises(DataError, match=re.escape(str(p))):
            load_libsvm(str(p))


class TestPreprocess:
    def test_normalize_affine_map(self):
        d = Dataset(np.array([[0.0], [5.0], [10.0]]))
        out = preprocess(d, "normalize")
        np.testing.assert_array_equal(out.values[:, 0], [0.0, 0.5, 1.0])

    def test_standardize_constant_column(self):
        d = Dataset(np.array([[2.0, 1.0], [2.0, 2.0], [2.0, 3.0]]))
        out = preprocess(d, "standardize")
        np.testing.assert_array_equal(out.values[:, 0], [0.0, 0.0, 0.0])

    def test_normalize_constant_column(self):
        d = Dataset(np.array([[2.0, 1.0], [2.0, 2.0]]))
        out = preprocess(d, "normalize")
        np.testing.assert_array_equal(out.values[:, 0], [0.0, 0.0])

    def test_standardize_two_points(self):
        d = Dataset(np.array([[1.0], [3.0]]))
        out = preprocess(d, "standardize")
        np.testing.assert_allclose(out.values[:, 0], [-1.0, 1.0])

    def test_none_is_identity(self):
        rng = np.random.default_rng(0)
        d = Dataset(rng.normal(size=(5, 3)))
        np.testing.assert_array_equal(preprocess(d, "none").values, d.values)

    def test_labels_and_names_unchanged(self):
        d = Dataset(np.arange(6.0).reshape(3, 2), labels=[0, 1, 0], feature_names=("a", "b"))
        out = preprocess(d, "standardize")
        np.testing.assert_array_equal(out.labels, d.labels)
        assert out.feature_names == d.feature_names

    def test_unknown_scheme(self):
        d = Dataset(np.ones((2, 2)))
        with pytest.raises(DataError, match="unknown preprocessing"):
            preprocess(d, "whiten")


class TestPreprocessProperties:
    def test_normalize_idempotent(self):
        rng = np.random.default_rng(42)
        d = Dataset(rng.normal(size=(40, 6)) * rng.uniform(1, 50, 6))
        once = preprocess(d, "normalize")
        twice = preprocess(once, "normalize")
        np.testing.assert_allclose(twice.values, once.values, atol=1e-12)

    def test_standardize_moments(self):
        rng = np.random.default_rng(1)
        d = Dataset(rng.normal(loc=3.0, scale=7.0, size=(100, 5)))
        out = preprocess(d, "standardize")
        assert np.all(np.abs(out.values.mean(axis=0)) <= 1e-10)
        assert np.all(np.abs(out.values.std(axis=0) - 1.0) <= 1e-10)

    def test_normalize_range_attained(self):
        rng = np.random.default_rng(2)
        d = Dataset(rng.uniform(-5, 5, size=(30, 4)))
        out = preprocess(d, "normalize")
        assert out.values.min() >= 0.0 and out.values.max() <= 1.0
        np.testing.assert_array_equal(out.values.min(axis=0), np.zeros(4))
        np.testing.assert_array_equal(out.values.max(axis=0), np.ones(4))

    @pytest.mark.parametrize("scheme", ["none", "normalize", "standardize"])
    def test_commutes_with_sample_permutation(self, scheme):
        # Exact for none/normalize; standardize only up to summation order
        # inside the mean, hence the tight tolerance.
        rng = np.random.default_rng(3)
        values = rng.normal(size=(20, 4))
        perm = rng.permutation(20)
        a = preprocess(Dataset(values), scheme).values[perm]
        b = preprocess(Dataset(values[perm]), scheme).values
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)


class TestScalerOnNewData:
    def test_train_statistics_applied_to_test(self):
        train = np.array([[0.0], [10.0]])
        scaler = fit_scaler(train, "normalize")
        out = scaler.apply(np.array([[5.0], [20.0]]))
        np.testing.assert_allclose(out[:, 0], [0.5, 2.0])
