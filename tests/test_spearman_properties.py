"""Property tests for the Spearman block: symmetry, range, and exact
invariance under the transforms that leave midranks unchanged."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from infinisel import BinningPolicy, Dataset, build_measure_cache

# Small integers give ties and constant columns; wide floats give the rest.
CELLS = st.one_of(
    st.integers(-3, 3).map(float),
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
)
MATRICES = st.tuples(st.integers(2, 30), st.integers(1, 6)).flatmap(
    lambda shape: hnp.arrays(np.float64, shape, elements=CELLS)
)
PROPERTY = settings(max_examples=60, deadline=None)


def spearman_block(values):
    return build_measure_cache(Dataset(values), BinningPolicy(), need_spearman=True).spearman


@PROPERTY
@given(MATRICES)
def test_symmetric_and_bounded(values):
    block = spearman_block(values)
    assert block.tobytes() == block.T.copy().tobytes()
    assert np.all((block >= -1.0) & (block <= 1.0))


@PROPERTY
@given(MATRICES, st.data())
def test_row_permutation_invariant(values, data):
    rows = data.draw(st.permutations(range(values.shape[0])))
    assert spearman_block(values[rows]).tobytes() == spearman_block(values).tobytes()


@PROPERTY
@given(MATRICES, st.data())
def test_increasing_transform_invariant(values, data):
    # Map the column's distinct values onto any strictly increasing sequence.
    j = data.draw(st.integers(0, values.shape[1] - 1))
    distinct = np.unique(values[:, j])
    gaps = data.draw(hnp.arrays(np.float64, distinct.size, elements=st.floats(0.5, 1000.0)))
    transformed = values.copy()
    transformed[:, j] = np.cumsum(gaps)[np.searchsorted(distinct, values[:, j])]
    assert spearman_block(transformed).tobytes() == spearman_block(values).tobytes()


@PROPERTY
@given(MATRICES, st.data())
def test_column_permutation_equivariant(values, data):
    cols = np.array(data.draw(st.permutations(range(values.shape[1]))))
    expected = spearman_block(values)[np.ix_(cols, cols)]
    assert spearman_block(values[:, cols]).tobytes() == expected.tobytes()
