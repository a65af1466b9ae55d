import csv
import re
import sys
import tracemalloc

import numpy as np
import pytest

from infinisel import dataset
from infinisel import (Dataset, DataError, FeatureScaler, fit_scaler, load_csv, load_libsvm,
                       preprocess)


def write(path, text):
    path.write_text(text)
    return str(path)


class TestDatasetValidation:
    def test_rejects_values_that_are_not_2d(self):
        with pytest.raises(DataError, match=re.escape("values must be 2-D, got shape (3,)")):
            Dataset(np.zeros(3))

    def test_rejects_feature_name_count_mismatch(self):
        with pytest.raises(DataError, match="2 feature names for 3 features"):
            Dataset(np.ones((2, 3)), feature_names=("a", "b"))

    def test_rejects_one_string_of_names(self):
        with pytest.raises(DataError, match="dataset 'd': feature names must be a sequence of strings, not one string"):
            Dataset(np.ones((2, 3)), feature_names="abc", name="d")

    @pytest.mark.parametrize("bad", [1, None, b"c", 2.5])
    def test_rejects_a_name_that_is_not_a_string(self, bad):
        with pytest.raises(DataError, match=re.escape(f"dataset 'd': feature name {bad!r} is not a string")):
            Dataset(np.ones((2, 3)), feature_names=("a", "b", bad), name="d")

    def test_accepts_any_sequence_of_strings(self):
        assert Dataset(np.ones((2, 2)), feature_names=["a", np.str_("b")]).feature_names == ("a", "b")

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

    @pytest.mark.parametrize("labels, label", [
        ([0.5, 1.5, 1.7], "label 0.5 of sample 0"),
        ([0, 1, 2**70], f"label {2**70} of sample 2"),
        ([0, 1, float("nan")], "label nan of sample 2"),
    ], ids=["fraction", "above-int64", "nan"])
    def test_rejects_labels_that_are_not_int64_integers(self, labels, label):
        with pytest.raises(DataError, match=f"{label} is not an integer"):
            Dataset(np.ones((3, 2)), labels=labels)

    @pytest.mark.parametrize("labels, expected", [
        ([0.0, 1.0, 1.0], [0, 1, 1]),
        ([False, True, True], [0, 1, 1]),
        (np.array([0, 1, 1], dtype=np.int32), [0, 1, 1]),
        (np.array([0, 1, 1]), [0, 1, 1]),
        ([2**53 + 1, 2**53, 1.0], [2**53 + 1, 2**53, 1]),
    ], ids=["float", "bool", "int32", "int64", "above-2-53"])
    def test_integer_valued_labels_accepted(self, labels, expected):
        assert Dataset(np.ones((3, 2)), labels=labels).labels.tolist() == expected

    def test_values_are_immutable(self):
        d = Dataset(np.ones((2, 2)))
        with pytest.raises(ValueError):
            d.values[0, 0] = 5.0

    def test_callers_arrays_stay_writable(self):
        v, y = np.ones((3, 2)), np.array([0, 1, 1])
        d = Dataset(v, labels=y)
        v[0, 0], y[0] = 2.0, 1
        assert d.values[0, 0] == 1.0 and d.labels[0] == 0
        assert not d.values.flags.writeable and not d.labels.flags.writeable


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

    def test_validation_error_names_path_once(self, tmp_path):
        p = write(tmp_path / "one.csv", "a,y\n1,0\n2,0\n")
        with pytest.raises(DataError, match="at least 2 classes") as info:
            load_csv(p, label_column="y")
        assert str(info.value).count(p) == 1


class TestLoadCsvBulkPass:
    """Inputs that ``np.loadtxt`` alone would read differently from the
    per-cell parse: each of ``load_csv``'s guards sends one of them there."""

    @pytest.mark.parametrize("sep", ["\x1c", "\x1d", "\x1e", "\x1f"])
    def test_control_separator_is_not_whitespace(self, tmp_path, sep):
        p = write(tmp_path / "d.csv", f"a,b\n1,{sep}2\n")
        # float() rejects the separator, which str.strip() would remove: the
        # message quotes the raw cell, never a token that parses.
        with pytest.raises(DataError, match=re.escape(f"non-numeric value {sep + '2'!r} at row 2, column 2 (b)")):
            load_csv(p)

    @pytest.mark.parametrize("cell, message", [
        (" \x1c2", "non-numeric value ' \\x1c2'"),  # strip() would drop both
        ("2\x1d ", "non-numeric value '2\\x1d '"),
        ("\x1e", "non-numeric value '\\x1e'"),  # not an empty cell
        ("1\x1f2 ", "non-numeric value '1\\x1f2'"),  # kept inside: padding goes
        ("  oops ", "non-numeric value 'oops'"),
        (" nan ", "non-finite value 'nan'"),
        ("\t ", "empty cell"),
    ])
    def test_error_quotes_raw_cell_when_strip_drops_a_separator(self, tmp_path, cell, message):
        p = write(tmp_path / "d.csv", f"a,b\n1,{cell}\n")
        with pytest.raises(DataError, match=re.escape(f"{message} at row 2, column 2 (b)")):
            load_csv(p)

    @pytest.mark.parametrize("cell", ["\x1c2", "2\x1f", " \x1d2 ", "\x1e1.0"])
    def test_control_separator_at_label_edge_rejected(self, tmp_path, cell):
        # int() rejects the separator as float() does, so a label cell that
        # would be a DataError as a feature is one as a label too.
        p = write(tmp_path / "d.csv", f"a,y\n1,{cell}\n2,0\n")
        with pytest.raises(DataError, match=re.escape(f"non-integer label {cell!r} at row 2, column 2")):
            load_csv(p, label_column="y")

    def test_nul_reads_as_the_csv_module_reads_it(self, tmp_path):
        # csv.reader rejects NUL before Python 3.11; numpy would not.
        p = write(tmp_path / "d.csv", "a\x00,b\n1,2\n3,4\n")
        if sys.version_info < (3, 11):
            with pytest.raises(DataError, match="line contains NUL"):
                load_csv(p)
        else:
            assert load_csv(p).feature_names == ("a\x00", "b")

    def test_header_wider_than_rows(self, tmp_path):
        p = write(tmp_path / "d.csv", "a,b,c\n1,2\n3,4\n")
        with pytest.raises(DataError, match="row 2 has 2 cells, expected 3"):
            load_csv(p)

    def test_quoted_cells_load(self, tmp_path):
        p = write(tmp_path / "d.csv", '"a","b"\n"1.5","2"\n3,4\n')
        d = load_csv(p, label_column="b")
        assert d.feature_names == ("a",) and d.labels.tolist() == [2, 4]
        np.testing.assert_array_equal(d.values, [[1.5], [3.0]])

    def test_quoted_header_over_plain_rows(self, tmp_path):
        p = write(tmp_path / "d.csv", '"a","b"\n1.5,2\n3,4\n')
        d = load_csv(p, label_column="b")
        assert d.feature_names == ("a",) and d.labels.tolist() == [2, 4]

    @pytest.mark.parametrize("end", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_cr_line_ends_load_as_lf(self, tmp_path, end):
        text = "a,b,y\n1,2,0\n3,4,1\n5.5,6,1\n"
        lf = load_csv(write(tmp_path / "lf.csv", text), label_column="y")
        cr = load_csv(write(tmp_path / "cr.csv", text.replace("\n", end)), label_column="y")
        assert cr.values.tobytes() == lf.values.tobytes()
        assert cr.labels.tolist() == lf.labels.tolist() and cr.feature_names == lf.feature_names

    def test_long_finite_field_hits_csv_limit(self, tmp_path):
        field = "0" * csv.field_size_limit() + "1"
        p = write(tmp_path / "d.csv", f"a,b\n1,{field}\n3,4\n")
        with pytest.raises(DataError, match="unparseable CSV: field larger than field limit"):
            load_csv(p)

    def test_labels_above_2_53_stay_distinct_in_a_tall_file(self, tmp_path):
        rows = "".join(f"{i},{i % 2}\n" for i in range(500))
        p = write(tmp_path / "d.csv",
                  f"x,y\n{rows}1,9007199254740993\n2,9007199254740992\n")
        labels = load_csv(p, label_column="y").labels.tolist()
        assert labels[-2:] == [2**53 + 1, 2**53]

    def test_plain_file_is_read_in_one_pass(self, tmp_path, monkeypatch):
        p = write(tmp_path / "d.csv", "a,y,b\n1,0,2.5\n-3e2,1,4\n")
        monkeypatch.setattr(dataset, "_parse_cells", None)
        d = load_csv(p, label_column="y")
        assert d.feature_names == ("a", "b") and d.labels.tolist() == [0, 1]
        np.testing.assert_array_equal(d.values, [[1.0, 2.5], [-300.0, 4.0]])

    def test_plain_file_peak_memory(self, tmp_path):
        # The file's text is never held whole, nor one string per line, and
        # no value matrix is copied twice: the traced peak stays near twice
        # the matrix (the parsed table and its copy without the label).
        rng = np.random.default_rng(0)
        values = rng.normal(size=(5000, 40))
        p = tmp_path / "d.csv"
        with open(p, "w") as fh:
            fh.write(",".join([f"f{i}" for i in range(40)] + ["y"]) + "\n")
            for row, label in zip(values.tolist(), rng.integers(0, 2, 5000).tolist()):
                fh.write(",".join(map(repr, row)) + f",{label}\n")
        tracemalloc.start()
        try:
            d = load_csv(str(p), label_column="y")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert d.values.tobytes() == values.tobytes()
        assert peak <= 3 * d.values.nbytes


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

    def test_validation_error_names_path_once(self, tmp_path):
        p = write(tmp_path / "one.svm", "1 1:0.5\n1 1:2.0\n")
        with pytest.raises(DataError, match="at least 2 classes") as info:
            load_libsvm(p)
        assert str(info.value).count(p) == 1

    @pytest.mark.parametrize("index", [99999999999999, 2**63 + 1, 10**30])
    def test_unallocatable_width_is_a_data_error(self, tmp_path, index):
        # Two rows of 99999999999999 float64 cells need more than 2**47
        # bytes, beyond any x86-64 user address space; the larger indices
        # do not fit int64 at all. None of them is ever allocated.
        p = write(tmp_path / "wide.svm", f"1 1:0.5 {index}:1\n0 1:1\n")
        with pytest.raises(DataError, match=re.escape(f"{p}: cannot allocate the 2 x {index} value matrix")):
            load_libsvm(p)

    def test_overflowing_index_does_not_hide_a_later_fault(self, tmp_path):
        p = write(tmp_path / "wide.svm", f"1 1:0.5 {2**64}:1\n0 1:x\n")
        with pytest.raises(DataError, match="line 2: bad value"):
            load_libsvm(p)

    def test_fault_before_a_non_utf8_byte_is_reported(self, tmp_path):
        # The file is decoded as it is read, line by line, so a malformed
        # line ahead of the first bad byte is what the error names.
        p = tmp_path / "d.svm"
        p.write_bytes(b"1 1:0.5 7\n" + b"0 1:1\n" * 5000 + b"0 1:\xe9\n")
        with pytest.raises(DataError, match="line 1: malformed pair '7'"):
            load_libsvm(str(p))

    def test_peak_memory_of_a_half_dense_file(self, tmp_path):
        # One streamed pass into flat buffers: the matrix plus 24 bytes an
        # entry, about 2.6x here. Lines, pairs and tuples held whole took 9.1x.
        rng = np.random.default_rng(520)
        values = np.where(rng.random((1000, 200)) < 0.5, rng.normal(size=(1000, 200)), 0.0)
        labels = rng.integers(0, 2, 1000)
        p = tmp_path / "half.svm"
        with open(p, "w") as fh:
            for label, row in zip(labels.tolist(), values.tolist()):
                pairs = [f"{j + 1}:{v!r}" for j, v in enumerate(row) if v != 0.0]
                fh.write(" ".join([str(label)] + pairs) + "\n")
        tracemalloc.start()
        try:
            d = load_libsvm(str(p))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert d.values.tobytes() == values.tobytes()
        assert d.labels.tolist() == labels.tolist()
        assert peak <= 5 * d.values.nbytes

    def test_dense_file_peak_memory(self, tmp_path):
        # The flat column and value buffers hold 16 bytes an entry, twice a
        # dense matrix; rows fill one at a time, with no index array per
        # entry. A row index for every entry took 4.2x.
        rng = np.random.default_rng(521)
        values = rng.normal(size=(1000, 200))
        p = tmp_path / "dense.svm"
        with open(p, "w") as fh:
            for label, row in zip(rng.integers(0, 2, 1000).tolist(), values.tolist()):
                fh.write(" ".join([str(label)] + [f"{j + 1}:{v!r}" for j, v in enumerate(row)]) + "\n")
        tracemalloc.start()
        try:
            d = load_libsvm(str(p))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert d.values.tobytes() == values.tobytes()
        assert peak <= 3.2 * d.values.nbytes


class TestPeakMemory:
    """The checks run in column tiles, so a Dataset adds no temporary the
    size of its matrix beyond its own copy: 2.0x before, for both."""

    @staticmethod
    def peak(make):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            make()
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    @pytest.fixture(scope="class")
    def values(self):
        return np.random.default_rng(540).normal(size=(20000, 100))

    def test_dataset_at_20000_by_100(self, values):
        assert self.peak(lambda: Dataset(values)) <= 1.15 * values.nbytes

    @pytest.mark.parametrize("scheme", ["none", "normalize", "standardize"])
    def test_preprocess_at_20000_by_100(self, values, scheme):
        d = Dataset(values)
        assert self.peak(lambda: preprocess(d, scheme)) <= 1.15 * values.nbytes


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


def gather_scatter_apply(scaler, values):
    """``FeatureScaler.apply`` as a gather, divide and scatter of columns."""
    out = np.asarray(values, dtype=np.float64) - scaler.shift
    nonzero = scaler.scale > 0
    out[:, nonzero] /= scaler.scale[nonzero]
    out[:, ~nonzero] = 0.0
    return out


class TestScalerCopies:
    """Scaling divides in place, and every dataset the package builds holds
    read-only values of its own."""

    @pytest.mark.parametrize("scheme", ["normalize", "standardize"])
    def test_apply_equals_gather_scatter(self, scheme):
        rng = np.random.default_rng(5)
        values = rng.normal(size=(30, 6)) * rng.uniform(1e-3, 1e3, 6)
        values[:, 1] = 4.0  # constant
        values[:, 4] = -0.0  # constant, negative zeros
        values[::3, 2] = -0.0
        scaler = fit_scaler(values, scheme)
        for data in (values, rng.normal(size=(7, 6)), -values):
            assert scaler.apply(data).tobytes() == gather_scatter_apply(scaler, data).tobytes()

    def test_apply_leaves_its_input_unchanged(self):
        values = np.array([[1.0, 2.0], [3.0, 2.0]])
        FeatureScaler("normalize", np.array([1.0, 2.0]), np.array([2.0, 0.0])).apply(values)
        np.testing.assert_array_equal(values, [[1.0, 2.0], [3.0, 2.0]])

    @pytest.mark.parametrize("scheme", ["none", "normalize", "standardize"])
    def test_preprocessed_values_are_private_and_read_only(self, scheme):
        d = Dataset(np.arange(12.0).reshape(4, 3), labels=[0, 1, 0, 1])
        out = preprocess(d, scheme)
        assert not out.values.flags.writeable
        assert not np.shares_memory(out.values, d.values)

    def test_loaded_values_are_read_only(self, tmp_path):
        d = load_csv(write(tmp_path / "d.csv", "a,y,b\n1,0,2.5\n-3e2,1,4\n"), label_column="y")
        assert not d.values.flags.writeable and not d.labels.flags.writeable
        out = preprocess(d, "standardize")
        assert not out.values.flags.writeable
        assert not np.shares_memory(out.values, d.values)
