"""Property tests for normalized mutual information (symmetric blocks in
[0, 1], exact invariance under increasing transforms, self-NMI exactly 1
and a constant column's MI exactly 0) and for
the libsvm loader (malformed text is always a DataError, exit code 2)."""

import contextlib
import io
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from infinisel import BinningPolicy, DataError, Dataset, build_measure_cache, load_libsvm
from infinisel.cli import main
from infinisel.measures import BINNING_KINDS, _mi_pairs, _mi_table, _pair_block

# Small integers give ties, categorical and constant columns; wide floats
# give the rest.
CELLS = st.one_of(
    st.integers(-3, 3).map(float),
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
)
MATRICES = st.tuples(st.integers(2, 40), st.integers(1, 6)).flatmap(
    lambda shape: hnp.arrays(np.float64, shape, elements=CELLS)
)
POLICIES = st.builds(BinningPolicy, st.sampled_from(BINNING_KINDS), st.integers(2, 12))
PROPERTY = settings(max_examples=80, deadline=None)


def nmi_block(values, policy):
    return build_measure_cache(Dataset(values), policy, need_mi_matrix=True).mi


@PROPERTY
@given(MATRICES, POLICIES)
def test_nmi_block_symmetric_and_in_unit_interval(values, policy):
    block = nmi_block(values, policy)
    assert block.tobytes() == block.T.copy().tobytes()
    assert np.all((block >= 0.0) & (block <= 1.0))


@PROPERTY
@given(MATRICES, st.integers(2, 12), st.data())
def test_nmi_invariant_under_increasing_transform(values, bins, data):
    # Equal-frequency codes read only the ranks; equal-width edges would move.
    policy = BinningPolicy("equal_frequency", bins)
    j = data.draw(st.integers(0, values.shape[1] - 1))
    distinct = np.unique(values[:, j])
    gaps = data.draw(hnp.arrays(np.float64, distinct.size, elements=st.floats(0.5, 1000.0)))
    transformed = values.copy()
    transformed[:, j] = np.cumsum(gaps)[np.searchsorted(distinct, values[:, j])]
    assert nmi_block(transformed, policy).tobytes() == nmi_block(values, policy).tobytes()


@PROPERTY
@given(MATRICES, POLICIES)
@example(np.array([[0.0], [0.0], [0.0], [0.0], [1.0]]), BinningPolicy())  # the per-cell form gave 0.9999999999999998
def test_self_nmi_of_a_nonconstant_column(values, policy):
    # H(X, X) sums the same counts as H(X), so MI(X; X) = (H + H) − H is H
    # bitwise and self-NMI is exactly 1. A constant column has one occupied
    # bin: entropy 0, and MI exactly 0 with every column.
    block = nmi_block(values, policy)
    table = _mi_table(values, policy)
    mi = _pair_block(table, _mi_pairs)
    for i in range(values.shape[1]):
        if np.ptp(values[:, i]) > 0.0:
            assert table.entropy[i] > 0.0
            assert block[i, i] == 1.0 and mi[i, i] == table.entropy[i]
        else:
            assert table.entropy[i] == 0.0
            assert not mi[i].any() and not block[i].any()


LABEL = st.sampled_from(["-1", "0", "1", "2", "+1"])
VALUE = st.one_of(st.floats(-1e6, 1e6, allow_nan=False).map(repr), st.sampled_from(["0", "1e-3", "-2", ".5"]))


@st.composite
def libsvm_line(draw):
    indices = sorted(draw(st.sets(st.integers(1, 8), max_size=5)))
    return " ".join([draw(LABEL)] + [f"{i}:{draw(VALUE)}" for i in indices])


# Each defect turns one line (or the whole text) malformed.
DEFECTS = {
    "pair without colon": lambda line, draw: f"{line} 7",
    "bad index": lambda line, draw: f"{line} {draw(st.sampled_from(['x:1', '1.5:2', ':3', '2e0:1']))}",
    "index below 1": lambda line, draw: f"{line} {draw(st.sampled_from(['0:1', '-3:1']))}",
    "index not increasing": lambda line, draw: f"{line} 9:1 {draw(st.integers(1, 9))}:1",
    "bad value": lambda line, draw: f"{line} 9:{draw(st.sampled_from(['abc', '', '1,5', '0x1']))}",
    "non-finite value": lambda line, draw: f"{line} 9:{draw(st.sampled_from(['nan', 'inf', '-inf', '1e400']))}",
    "bad label": lambda line, draw: " ".join(
        [draw(st.sampled_from(["a", "0.5", "nan", "inf", "1e400", "9223372036854775808"]))] + line.split()[1:]),
}
WHOLE = ["", "\n", " \n\t\n", "1\n0\n-1\n"]  # empty, blank, no feature values


@st.composite
def malformed_libsvm(draw):
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from(WHOLE)).encode()
    lines = draw(st.lists(libsvm_line(), min_size=1, max_size=6))
    if draw(st.integers(0, 9)) == 0:  # bytes that are not UTF-8
        k = draw(st.integers(0, len(lines) - 1))
        return "\n".join(lines[:k]).encode() + b"\n1 1:\xff\n" + "\n".join(lines[k:]).encode()
    k = draw(st.integers(0, len(lines) - 1))
    lines[k] = DEFECTS[draw(st.sampled_from(sorted(DEFECTS)))](lines[k], draw)
    return ("\n".join(lines) + draw(st.sampled_from(["", "\n"]))).encode()


@settings(max_examples=300, deadline=None)
@given(malformed_libsvm())
def test_malformed_libsvm_is_a_data_error_and_exit_2(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "d.svm")
        with open(path, "wb") as fh:
            fh.write(data)
        with pytest.raises(DataError):
            load_libsvm(path)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["rank", path, "--format", "libsvm", "--variant", "ifs"])
        assert code == 2
        assert err.getvalue().startswith("error: ")
