import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from riskfuse.cohort import CohortTable, Column
from riskfuse.errors import DataError
from riskfuse.preprocess import fit_preprocessor, transform

from conftest import make_table


@st.composite
def _view_and_rows(draw):
    """A view of numeric and categorical columns, training rows and test rows.

    A numeric column draws its cells from one to three values and NaN, so
    constant, single-value and all-missing columns are common; a categorical
    column draws from three labels and None, so training rows often miss a
    label the test rows hold, or hold no label at all.
    """
    n = draw(st.integers(1, 12))
    columns = []
    for j in range(draw(st.integers(0, 4))):
        if draw(st.booleans()):
            pool = draw(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=3)) + [np.nan]
            cells = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
            columns.append(Column(f"x{j}", "numeric", np.array(cells, dtype=float)))
        else:
            cells = draw(st.lists(st.sampled_from(["a", "b", "c", None]), min_size=n, max_size=n))
            columns.append(Column(f"c{j}", "categorical", np.array(cells, dtype=object)))
    rows = st.integers(0, n - 1)
    train = draw(st.lists(rows, min_size=1, max_size=2 * n))
    test = draw(st.lists(rows, max_size=2 * n))
    return CohortTable(tuple(columns), n), np.array(train, dtype=int), np.array(test, dtype=int)


# every case at once: NaN, a single observed value, a constant column, both kinds all missing in
# training, None among the labels and a test label unseen in training
_EVERY_CASE = (
    make_table(
        nan=np.array([1.0, np.nan, 4.0, 2.5, np.nan]),
        single=np.array([np.nan, 3.0, np.nan, np.nan, 8.0]),
        constant=np.array([7.0, 7.0, 7.0, 7.0, 7.0]),
        unobserved=np.array([np.nan, np.nan, np.nan, np.nan, 1.0]),
        none=np.array(["a", None, "b", "a", None], dtype=object),
        absent=np.array([None, None, None, None, "z"], dtype=object),
        unseen=np.array(["a", "b", "a", "b", "c"], dtype=object),
    ),
    np.array([0, 1, 2, 3]),
    np.array([4, 3, 2, 1, 0]),
)


@settings(max_examples=300, deadline=None)
@given(_view_and_rows())
@example(_EVERY_CASE)
def test_transform_matches_the_oracle_bit_for_bit(case):
    view, train, test = case
    pre = fit_preprocessor(view, train)
    old = oracles.fit_preprocessor(view, train)
    for rows in (train, test):
        got, want = transform(pre, view, rows), oracles.transform(old, view, rows)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_numeric_stats_from_train_rows_only():
    view = make_table(x=np.array([1.0, 3.0, np.nan, 100.0]))
    pre = fit_preprocessor(view, np.array([0, 1, 2]))  # row 3 held out
    (name, kind, (median, mean, sd)), = pre
    assert (name, kind) == ("x", "numeric")
    assert median == 2.0
    assert mean == 2.0
    assert sd == pytest.approx(np.sqrt(2.0))


def test_categorical_mode_and_first_seen_order():
    view = make_table(c=np.array(["a", "a", "b"], dtype=object))
    pre = fit_preprocessor(view, np.arange(3))
    (name, kind, (mode, categories)), = pre
    assert (name, kind) == ("c", "categorical")
    assert mode == "a"
    assert categories == ("a", "b")


def test_constant_numeric_transforms_to_zeros():
    view = make_table(x=np.array([7.0, 7.0, 7.0]))
    pre = fit_preprocessor(view, np.arange(3))
    out = transform(pre, view, np.arange(3))
    assert np.all(out == 0.0)


def test_zscore_and_missing_imputation():
    view = make_table(x=np.array([1.0, 3.0, np.nan, 5.0]))
    pre = fit_preprocessor(view, np.array([0, 1]))  # mean 2, sd sqrt(2), median 2
    out = transform(pre, view, np.arange(4))
    assert out[2, 0] == 0.0  # imputed to the median, then centered away
    assert out[3, 0] == pytest.approx((5.0 - 2.0) / np.sqrt(2.0))
    assert np.isfinite(out).all()


def test_value_5_mean_2_sd_1_gives_3():
    view = make_table(x=np.array([1.0, 2.0, 3.0, 5.0]))
    pre = fit_preprocessor(view, np.array([0, 1, 2]))
    (_, _, (_, mean, sd)), = pre
    assert mean == 2.0 and sd == 1.0
    out = transform(pre, view, np.array([3]))
    assert out[0, 0] == pytest.approx(3.0)


def test_unseen_category_encodes_all_zero():
    view = make_table(c=np.array(["a", "b", "c"], dtype=object))
    pre = fit_preprocessor(view, np.array([0, 1]))  # categories (a, b)
    out = transform(pre, view, np.array([2]))
    assert np.array_equal(out, [[0.0, 0.0]])


def test_missing_categorical_imputed_with_mode():
    view = make_table(c=np.array(["a", "a", "b", None], dtype=object))
    pre = fit_preprocessor(view, np.arange(4))
    out = transform(pre, view, np.array([3]))
    assert np.array_equal(out, [[1.0, 0.0]])


def test_entirely_missing_columns():
    view = make_table(
        x=np.array([np.nan, np.nan]),
        c=np.array([None, None], dtype=object),
    )
    pre = fit_preprocessor(view, np.arange(2))
    out = transform(pre, view, np.arange(2))
    assert np.all(out[:, 0] == 0.0)  # numeric block
    assert pre[1] == ("c", "categorical", ("__missing__", ("__missing__",)))
    assert np.all(out[:, 1] == 1.0)  # dedicated missing category


def test_transform_of_fit_rows_has_no_missing(rng):
    vals = rng.standard_normal(30)
    vals[rng.integers(0, 30, 6)] = np.nan
    labels = np.array([None if i % 7 == 0 else f"L{i % 3}" for i in range(30)], dtype=object)
    view = make_table(x=vals, c=labels)
    pre = fit_preprocessor(view, np.arange(30))
    out = transform(pre, view, np.arange(30))
    assert np.isfinite(out).all()


def test_schema_mismatch_rejected():
    view = make_table(x=np.array([1.0, 2.0]))
    other = make_table(zz=np.array([1.0, 2.0]))
    pre = fit_preprocessor(view, np.arange(2))
    with pytest.raises(DataError, match="schema"):
        transform(pre, other, np.arange(2))


def test_empty_train_rows_rejected():
    view = make_table(x=np.array([1.0]))
    with pytest.raises(DataError, match="zero training rows"):
        fit_preprocessor(view, np.array([], dtype=int))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy warns as the mean overflows
def test_non_finite_design_column_is_named():
    view = make_table(fine=np.array([1.0, 2.0, 3.0]), huge=np.array([1.7e308, 1.7e308, -1.7e308]))
    pre = fit_preprocessor(view, np.arange(3))  # the mean of `huge` overflows
    with pytest.raises(DataError, match="^feature column 'huge' contains non-finite entries$"):
        transform(pre, view, np.arange(3))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy warns as the squares overflow
def test_overflowing_training_sd_is_named():
    view = make_table(fine=np.array([1.0, 2.0, 3.0, 4.0]), wide=np.array([1e308, -1e308, 1e308, -1e308]))
    pre = fit_preprocessor(view, np.arange(4))  # the mean of `wide` is 0, its sd overflows
    assert pre[1][2] == (0.0, 0.0, np.inf)
    with pytest.raises(DataError, match="^feature column 'wide' has a non-finite training sd$"):
        transform(pre, view, np.arange(4))
