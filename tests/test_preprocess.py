import numpy as np
import pytest

from riskfuse.errors import DataError
from riskfuse.preprocess import fit_preprocessor, transform

from conftest import make_table


def test_numeric_stats_from_train_rows_only():
    view = make_table(x=np.array([1.0, 3.0, np.nan, 100.0]))
    pre = fit_preprocessor(view, np.array([0, 1, 2]))  # row 3 held out
    st = pre.numeric["x"]
    assert st.median == 2.0
    assert st.mean == 2.0
    assert st.sd == pytest.approx(np.sqrt(2.0))


def test_categorical_mode_and_first_seen_order():
    view = make_table(c=np.array(["a", "a", "b"], dtype=object))
    pre = fit_preprocessor(view, np.arange(3))
    st = pre.categorical["c"]
    assert st.mode == "a"
    assert st.categories == ("a", "b")


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
    assert pre.numeric["x"].mean == 2.0 and pre.numeric["x"].sd == 1.0
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
    assert pre.categorical["c"].categories == ("__missing__",)
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
