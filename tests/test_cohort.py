import csv
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from riskfuse.cohort import (
    CohortTable,
    Column,
    build_endpoint,
    filter_cohort,
    load_cohort,
    split_views,
    variance_filter,
)
from riskfuse import schema
from riskfuse.errors import DataError
from riskfuse.pipeline import CONFIG_SCHEMA

from conftest import make_table
from oracles import load_cohort_cells


@st.composite
def _missing_cell(draw):
    """A missing token in any case, padded with whitespace on either side."""
    token = "".join(ch.upper() if draw(st.booleans()) else ch for ch in draw(st.sampled_from(["", "na", "nan"])))
    pad = st.sampled_from(["", " ", "\t", "\xa0", " \xa0 "])
    return draw(pad) + token + draw(pad)


# a column of these alone takes the float-first path
_FINITE_CELL = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from([" 1.5 ", "\xa02\xa0", "1_000", "+5", " +2.5 ", "-0.0", "1e-400"]),
)
_NUMBER_CELL = st.one_of(_FINITE_CELL, st.sampled_from(["inf", "-inf", "1e999", "nan", "-nan"]))
_TEXT_CELL = st.one_of(
    st.sampled_from(["high", "R175H", "N/A", "Infinity", "0x10", "\u0661\u0662", " \xa01\xa0", "a,b", 'say "x"']),
    st.text(alphabet="ab1. \xa0", max_size=4),
)
_COLUMN = st.one_of(
    st.just(_FINITE_CELL),
    st.just(_missing_cell()),
    st.just(st.one_of(_NUMBER_CELL, _missing_cell())),
    st.just(st.one_of(_NUMBER_CELL, _missing_cell(), _TEXT_CELL)),
)


@st.composite
def _csv_cells(draw):
    """A header of 1-5 names and 0-8 rows; each column draws its cells from
    finite numbers only, missing tokens only, numbers and missing tokens, or any cell."""
    n_rows = draw(st.integers(0, 8))
    kinds = draw(st.lists(_COLUMN, min_size=1, max_size=5))
    columns = [draw(st.lists(kind, min_size=n_rows, max_size=n_rows)) for kind in kinds]
    return [f"c{j}" for j in range(len(columns))], [list(row) for row in zip(*columns)]


def _load_both(path, header, rows):
    """``load_cohort`` and the per-cell oracle on one CSV written from ``header`` and ``rows``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([header, *rows])
    return load_cohort(path), load_cohort_cells(path)


def _assert_same_column(got, want):
    assert (got.name, got.kind, got.values.dtype) == (want.name, want.kind, want.values.dtype)
    if got.kind == "numeric":
        assert got.values.tobytes() == want.values.tobytes()
    else:
        assert list(got.values) == list(want.values)


class TestLoadCohort:
    def test_mixed_kinds_and_missing(self, csv_dir):
        path = csv_dir("t.csv", "a,b\n1,x\n2,y\n,z\n")
        table = load_cohort(path)
        a = table.column("a")
        b = table.column("b")
        assert a.kind == "numeric"
        assert np.isnan(a.values[2]) and a.values[0] == 1.0
        assert b.kind == "categorical"
        assert list(b.values) == ["x", "y", "z"]

    def test_one_bad_cell_forces_categorical(self, csv_dir):
        table = load_cohort(csv_dir("t.csv", "c\n1\n2\nthree\n"))
        assert table.column("c").kind == "categorical"

    def test_missing_tokens_case_insensitive(self, csv_dir):
        table = load_cohort(csv_dir("t.csv", "c\nNA\nnan\n7\nNaN\n"))
        col = table.column("c")
        assert col.kind == "numeric"
        assert np.isnan(col.values[[0, 1, 3]]).all() and col.values[2] == 7.0

    def test_inf_token_is_not_numeric(self, csv_dir):
        table = load_cohort(csv_dir("t.csv", "c\n1\ninf\n"))
        assert table.column("c").kind == "categorical"

    def test_ragged_rows_rejected(self, csv_dir):
        with pytest.raises(DataError, match="fields"):
            load_cohort(csv_dir("t.csv", "a,b\n1,2\n3\n"))

    @pytest.mark.parametrize("header, named", [("a,a", "'a' at columns 1, 2"), ("x,b,a,b,c,a,b", "'b' at columns 2, 4, 7")],
                             ids=["pair", "first-of-two"])
    def test_duplicate_header_rejected(self, csv_dir, header, named):
        body = header + "\n" + ",".join("1" * len(header.split(","))) + "\n"
        with pytest.raises(DataError, match=f"t.csv: duplicate header name {named}$"):
            load_cohort(csv_dir("t.csv", body))

    @pytest.mark.parametrize("body", ["", "\ufeff"], ids=["empty", "bom-only"])
    def test_empty_file_rejected(self, csv_dir, body):
        with pytest.raises(DataError, match="t.csv: file is empty"):
            load_cohort(csv_dir("t.csv", body))

    def test_unreadable_path(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            load_cohort(tmp_path / "absent.csv")

    @pytest.mark.parametrize("body", [b"a,b\n1,\xff\n", b"a,b\n1," + b"9" * (csv.field_size_limit() + 1) + b"\n"],
                             ids=["not-utf8", "field-too-large"])
    def test_unparseable_file_is_a_data_error(self, tmp_path, body):
        path = tmp_path / "t.csv"
        path.write_bytes(body)
        with pytest.raises(DataError, match="t.csv: not a readable UTF-8 CSV file"):
            load_cohort(path)

    def test_text_column_keeps_cells_as_written(self, csv_dir):
        table = load_cohort(csv_dir("t.csv", "id,a\n1001,1\n 07 ,2\nNA,3\n,4\n"), text_columns=("id",))
        ids = table.column("id")
        assert ids.kind == "categorical" and list(ids.values) == ["1001", "07", "NA", ""]
        assert table.column("a").kind == "numeric"

    def test_header_only_gives_empty_numeric_columns(self, csv_dir):
        table = load_cohort(csv_dir("t.csv", "a,b,c\n"))
        assert table.n_rows == 0 and table.column_names == ["a", "b", "c"]
        for col in table.columns:
            assert col.kind == "numeric" and col.values.dtype == np.float64 and col.values.shape == (0,)

    @settings(max_examples=300, deadline=None)
    @given(_csv_cells())
    def test_matches_the_per_cell_oracle(self, csv_cells):
        header, rows = csv_cells
        with tempfile.TemporaryDirectory() as tmp:
            got, want = _load_both(Path(tmp) / "t.csv", header, rows)
        assert got.n_rows == want.n_rows == len(rows)
        assert got.column_names == want.column_names == header
        for g, w in zip(got.columns, want.columns):
            _assert_same_column(g, w)

    @pytest.mark.parametrize("row", [0, 2, 4], ids=["first", "middle", "last"])
    @pytest.mark.parametrize("cell, kind", [("nan", "numeric"), (" NA ", "numeric"), ("", "numeric"),
                                            ("inf", "categorical"), ("-nan", "categorical"),
                                            ("1e999", "categorical"), ("three", "categorical")],
                             ids=["nan", "padded-NA", "empty", "inf", "-nan", "1e999", "three"])
    def test_one_cell_leaves_the_float_first_path(self, tmp_path, cell, kind, row):
        cells = [" 1.5 ", "\xa02\xa0", "-0.0", "1e-400", "7"]
        cells[row] = cell
        got, want = _load_both(tmp_path / "t.csv", ["c"], [[c] for c in cells])
        assert got.column("c").kind == kind
        _assert_same_column(got.column("c"), want.column("c"))
        if kind == "numeric":
            assert np.isnan(got.column("c").values[row])
            assert np.isfinite(np.delete(got.column("c").values, row)).all()


class TestCohortTable:
    def test_lookup_by_name(self):
        table = make_table(a=[1.0, 2.0], b=np.array(["x", "y"], dtype=object))
        assert table.column("b") is table.columns[1]
        assert table.has_column("a") and not table.has_column("c")
        assert table.select(["b", "a"]).column_names == ["b", "a"]
        with pytest.raises(DataError, match="^column 'c' not present in table$"):
            table.column("c")
        with pytest.raises(DataError, match="^column 'c' not present in table$"):
            table.select(["a", "c"])

    def test_duplicate_column_is_named(self):
        cols = tuple(Column(name, "numeric", np.zeros(2)) for name in ("a", "b", "c", "b"))
        with pytest.raises(DataError, match="^duplicate column name 'b' at columns 2, 4 in table$"):
            CohortTable(cols, 2)


class TestBuildEndpoint:
    def make(self, t, status):
        return make_table(
            overall_survival_months=np.asarray(t, dtype=float),
            death_from_cancer=np.array(status, dtype=object),
        )

    def test_four_case_rule(self):
        table = self.make(
            [40, 80, 70, 30],
            ["Died of Disease", "Died of Disease", "Living", "Living"],
        )
        ep = build_endpoint(table, horizon=60, status_column=None)
        assert ep.y[0] == 1.0  # event within the window
        assert ep.y[1] == 0.0  # died after the window
        assert ep.y[2] == 0.0  # alive past the window
        assert np.isnan(ep.y[3])  # censored before the window

    def test_label_normalization(self):
        table = self.make(
            [10, 10, 10, 10, 90, 10],
            ["DEAD", "deceased", "1", "Died of Other Causes", "ALIVE", "mystery"],
        )
        ep = build_endpoint(table, horizon=60, status_column=None)
        assert list(ep.delta[:3]) == [1.0, 1.0, 1.0]
        assert ep.delta[3] == 0.0  # non-cancer death counts as no event
        assert ep.delta[4] == 0.0
        assert np.isnan(ep.delta[5]) and np.isnan(ep.y[5])

    def test_numeric_status_column(self):
        table = make_table(
            overall_survival_months=np.array([10.0, 90.0]),
            overall_survival=np.array([1.0, 0.0]),
        )
        ep = build_endpoint(table, horizon=60, status_column=None)
        assert ep.y[0] == 1.0 and ep.y[1] == 0.0

    def test_prefers_cancer_specific_column(self):
        table = make_table(
            overall_survival_months=np.array([10.0]),
            overall_survival=np.array([1.0]),
            death_from_cancer=np.array(["Living"], dtype=object),
        )
        ep = build_endpoint(table, horizon=60, status_column=None)
        assert np.isnan(ep.y[0])  # living + t<60: indeterminate

    def test_missing_required_columns(self):
        with pytest.raises(DataError, match="overall_survival_months"):
            build_endpoint(make_table(x=np.array([1.0])), horizon=60, status_column=None)
        with pytest.raises(DataError, match="death_from_cancer"):
            build_endpoint(make_table(overall_survival_months=np.array([1.0])), horizon=60, status_column=None)

    def test_negative_time_rejected(self):
        with pytest.raises(DataError, match="negative"):
            build_endpoint(self.make([-1], ["Living"]), horizon=60, status_column=None)

    def test_reconstruction_invariant(self, rng):
        n = 300
        t = rng.uniform(0, 150, n)
        labels = rng.choice(["Died of Disease", "Living", "Died of Other Causes"], n)
        ep = build_endpoint(self.make(t, labels), horizon=60, status_column=None)
        for i in range(n):
            d, ti = ep.delta[i], ep.t_months[i]
            if d == 1 and ti <= 60:
                assert ep.y[i] == 1.0
            elif (d == 1 and ti > 60) or (d == 0 and ti >= 60):
                assert ep.y[i] == 0.0
            else:
                assert np.isnan(ep.y[i])


class TestFilterCohort:
    def make(self, statuses, times):
        table = make_table(
            patient_id=np.array([f"P{i}" for i in range(len(times))], dtype=object),
            overall_survival_months=np.asarray(times, dtype=float),
            death_from_cancer=np.array(statuses, dtype=object),
        )
        return table, build_endpoint(table, horizon=60, status_column=None)

    def test_drops_missing_y(self):
        table, ep = self.make(
            ["Died of Disease", "Living", "Living", "Living", "Living"],
            [10, 80, 20, 70, 30],
        )
        out, ep_out = filter_cohort(table, ep)
        assert out.n_rows == 3
        assert list(ep_out.y) == [1.0, 0.0, 0.0]
        assert list(out.column("patient_id").values) == ["P0", "P1", "P3"]

    def test_idempotent(self):
        table, ep = self.make(["Died of Disease", "Living"], [10, 20])
        once = filter_cohort(table, ep)
        twice = filter_cohort(*once)
        assert twice[0].n_rows == once[0].n_rows
        assert np.array_equal(twice[1].y, once[1].y)

    def test_all_missing_is_error(self):
        table, ep = self.make(["Living", "Living"], [10, 20])
        with pytest.raises(DataError, match="no rows"):
            filter_cohort(table, ep)


def view_spec(**keys):
    """A config view_spec section: these keys over the schema's defaults."""
    return schema.read(CONFIG_SCHEMA["view_spec"], keys, "view_spec")


class TestSplitViews:
    def make(self):
        return make_table(
            patient_id=np.array(["a", "b"], dtype=object),
            age=np.array([50.0, 60.0]),
            tumor_size=np.array([1.0, 2.0]),
            gene1_z=np.array([0.1, 0.2]),
            overall_survival_months=np.array([5.0, 6.0]),
            overall_survival=np.array([0.0, 1.0]),
            death_from_cancer=np.array(["Living", "Dead"], dtype=object),
        )

    def test_basic_split(self):
        spec = view_spec(clinical_columns=["age", "tumor_size"])
        clin, gen = split_views(self.make(), spec)
        assert clin.column_names == ["age", "tumor_size"]
        assert gen.column_names == ["gene1_z"]

    def test_survival_listed_in_clinical_still_excluded(self):
        spec = view_spec(clinical_columns=["age", "tumor_size", "overall_survival"])
        clin, gen = split_views(self.make(), spec)
        assert "overall_survival" not in clin.column_names
        for banned in ("overall_survival_months", "overall_survival", "death_from_cancer"):
            assert banned not in clin.column_names + gen.column_names

    def test_partition_of_columns(self):
        table = self.make()
        spec = view_spec(clinical_columns=["age"])
        clin, gen = split_views(table, spec)
        reunion = set(clin.column_names) | set(gen.column_names) | {"patient_id"} | set(spec["survival_columns"])
        assert reunion == set(table.column_names)
        assert not set(clin.column_names) & set(gen.column_names)

    def test_endpoint_columns_excluded_without_survival_columns(self):
        spec = view_spec(clinical_columns=["age", "overall_survival_months"], survival_columns=[])
        clin, gen = split_views(self.make(), spec)
        assert clin.column_names == ["age"]
        assert gen.column_names == ["tumor_size", "gene1_z"]

    def test_forced_status_column_is_the_only_status_excluded(self):
        spec = view_spec(clinical_columns=["age"], survival_columns=[])
        clin, gen = split_views(self.make(), spec, status_column="death_from_cancer")
        assert gen.column_names == ["tumor_size", "gene1_z", "overall_survival"]

    def test_absent_column_is_error(self):
        spec = view_spec(clinical_columns=["age", "nope"])
        with pytest.raises(DataError, match="nope"):
            split_views(self.make(), spec)

    def test_empty_genomic_remainder_is_error(self):
        spec = view_spec(clinical_columns=["age", "tumor_size", "gene1_z"])
        with pytest.raises(DataError, match="genomic view is empty"):
            split_views(self.make(), spec)

    def test_clinical_columns_all_excluded_is_error(self):
        spec = view_spec(clinical_columns=["patient_id", "overall_survival"])
        with pytest.raises(DataError, match="clinical view is empty"):
            split_views(self.make(), spec)


class TestVarianceFilter:
    def test_top_k_by_variance(self):
        # variances 0.1, 5.0, 2.0 -> keep columns 2 and 3
        table = make_table(
            low=np.array([0.0, 0.1, 0.2, 0.3, 0.63]),
            high=np.array([0.0, 2.0, 4.0, 6.0, 3.0]),
            mid=np.array([0.0, 1.0, 2.0, 3.0, 2.1]),
        )
        vals = {c.name: np.var(c.values, ddof=1) for c in table.columns}
        assert vals["low"] < vals["mid"] < vals["high"]
        out = variance_filter(table, k=2)
        assert out.column_names == ["high", "mid"]

    def test_k_saturation_keeps_all(self):
        table = make_table(a=np.array([1.0, 2.0]), b=np.array([3.0, 5.0]))
        assert variance_filter(table, k=10).column_names == ["a", "b"]

    def test_constant_column_never_beats_varying(self):
        table = make_table(
            const=np.array([1.0, 1.0, 1.0]),
            x=np.array([0.0, 1.0, 2.0]),
            y=np.array([0.0, 2.0, 4.0]),
        )
        assert "const" not in variance_filter(table, k=2).column_names

    def test_missing_cells_skipped(self):
        table = make_table(
            a=np.array([1.0, np.nan, 3.0]),
            b=np.array([0.0, 0.1, 0.2]),
        )
        out = variance_filter(table, k=1)
        assert out.column_names == ["a"]  # var of (1,3) = 2 beats 0.01

    def test_no_numeric_columns_is_error(self):
        table = make_table(s=np.array(["x", "y"], dtype=object))
        with pytest.raises(DataError, match="numeric"):
            variance_filter(table, k=1)

    def test_tie_breaks_to_earlier_column(self):
        table = make_table(
            first=np.array([0.0, 1.0, 2.0]),
            second=np.array([5.0, 6.0, 7.0]),  # same variance as first
            third=np.array([0.0, 0.01, 0.02]),
        )
        assert variance_filter(table, k=1).column_names == ["first"]

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_row_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        data = rng.standard_normal((12, 5)) * rng.uniform(0.1, 3.0, 5)
        table = make_table(**{f"c{j}": data[:, j] for j in range(5)})
        shuffled = table.take_rows(rng.permutation(12))
        assert variance_filter(table, k=3).column_names == variance_filter(shuffled, k=3).column_names
