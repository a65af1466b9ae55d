"""Differential test: ``load_csv`` (one ``np.loadtxt`` pass for plain
numeric files, the per-cell parse otherwise) against the per-cell-only
reference. Equal means the same values bytes, labels and feature names, or
the same exception type and message."""

import csv

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infinisel import dataset, load_csv
from oracles import load_csv_reference

PLAIN = st.one_of(
    st.integers(-5, 5).map(str),
    st.floats(-1e6, 1e6, allow_nan=False).map(repr),
    st.sampled_from(["1.5", "-0", "+3", ".5", "5.", "1e-3", " 2 ", "\t7", "\x0b3\x0c", "\xa04"]),
)
ODD = st.sampled_from([
    '"1.5"', '"2"', '"1,5"', '"a\nb"',      # quoting
    "\x1c2", "2\x1d", "\x1e", "1\x1f", "1\x00",  # control separators, NUL
    "", "  ",                               # empty and whitespace-only cells
    "nan", "inf", "-inf", "1e400",          # non-finite
    "1_0", "\u0661", "\uff10",              # accepted by float() only
    "oops", "1e", "0x10",
])
LABELS = st.sampled_from([
    str(v) for v in (2**53 - 1, 2**53, 2**53 + 1, -(2**53), -(2**53) - 1,
                     2**63 - 1, 2**63, -(2**63), -(2**63) - 1)
] + ["1.0", "-2e0", "0.5", "1e20", "9007199254740991.4"])
NAMES = ["a", "b", "y ", " c", "x2", "1", '"q"']
LINE_ENDS = st.sampled_from(["\n"] * 30 + ["\r\n", "\r", "\n\n", "\n  \n", "\n\t\n"])


def rarely(draw, k):
    """True in about one draw in ``k``."""
    return draw(st.sampled_from([False] * (k - 1) + [True]))


@st.composite
def csv_files(draw):
    """Bytes of a small CSV file and the ``label_column`` to load it with."""
    width = draw(st.integers(1, 4))
    has_header = not rarely(draw, 5)
    label_pos = draw(st.none() | st.integers(0, width - 1))
    odd = draw(st.sampled_from([0, 0, 10, 40]))  # odd cells in about odd/100

    def cell(c):
        if odd and rarely(draw, 100 // odd):
            return draw(ODD | LABELS)
        if c == label_pos:
            return draw(LABELS) if rarely(draw, 10) else draw(st.sampled_from("0112"))
        return draw(PLAIN)

    names = draw(st.permutations(NAMES))
    rows = [names[:width + rarely(draw, 20)]] if has_header else []  # now and then one wider
    for _ in range(draw(st.integers(1, 8))):
        ragged = draw(st.sampled_from([-1, 1])) if rarely(draw, 20) else 0
        rows.append([cell(c) for c in range(width + ragged)])
    text = "\ufeff" if rarely(draw, 10) else ""
    text += "".join(",".join(row) + draw(LINE_ENDS) for row in rows)
    data = text.encode()

    tail = draw(st.sampled_from([None] * 18 + ["bad byte", "long field"]))
    if tail == "bad byte":  # past the decoder's first 8 KB chunk
        data += (",".join(["1"] * width) + "\n").encode() * (9000 // width) + b"1\xff\n"
    elif tail == "long field":  # finite, but longer than csv.field_size_limit()
        data += ("0" * csv.field_size_limit() + "1").encode() + b"\n"

    label_column = None
    if label_pos is not None:
        label_column = "nope" if rarely(draw, 10) else names[label_pos].strip(' "')
    return data, label_column


def outcome(load, path, label_column):
    try:
        d = load(path, label_column)
    except Exception as exc:
        return type(exc), str(exc)
    labels = None if d.labels is None else (d.labels.dtype.str, d.labels.tobytes())
    return d.values.shape, d.values.tobytes(), labels, d.feature_names, d.name


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("differential") / "d.csv"


@settings(max_examples=400, deadline=None)
@given(csv_files())
def test_load_csv_equals_per_cell_reference(csv_path, case):
    data, label_column = case
    csv_path.write_bytes(data)
    assert outcome(load_csv, str(csv_path), label_column) == \
        outcome(load_csv_reference, str(csv_path), label_column)


@pytest.mark.parametrize("chunk", [1, 2, 5])
@settings(max_examples=100, deadline=None)
@given(csv_files())
def test_load_csv_equals_reference_with_tiny_scan_chunks(csv_path, chunk, case):
    # BOMs, multi-byte characters, runs of newlines, over-long lines and a
    # bad UTF-8 byte all straddle the edges of the plain-file scan's reads.
    data, label_column = case
    csv_path.write_bytes(data)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dataset, "_CHUNK", chunk)
        got = outcome(load_csv, str(csv_path), label_column)
    assert got == outcome(load_csv_reference, str(csv_path), label_column)


def test_blank_lines_before_the_header(csv_path, monkeypatch):
    # The plain path skips them to find the header, as csv.reader does.
    csv_path.write_text("\n\nx,y\n1,0\n2,1\n")
    monkeypatch.setattr(dataset, "_parse_cells", None)
    assert outcome(load_csv, str(csv_path), "y") == outcome(load_csv_reference, str(csv_path), "y")
