"""Cohort ingestion: CSV loading, 5-year endpoint construction, predictor views.

A cohort is an immutable column-typed table. Numeric columns are stored as
float arrays with NaN marking missing cells; categorical columns as object
arrays with None marking missing cells. The loader first parses each column's
raw cells with ``float()``; only a column where that fails or gives a
non-finite value takes a second pass that strips cells and recognises the
missing tokens. All operations return new tables.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError

MISSING_TOKENS = frozenset({"", "na", "nan"})

DEATH_LABELS = frozenset({"died of disease", "dead", "deceased", "1"})
ALIVE_LABELS = frozenset({"living", "alive", "0", "died of other causes"})

SURVIVAL_COLUMNS = ("overall_survival_months", "overall_survival", "death_from_cancer")
TIME_COLUMN = "overall_survival_months"
STATUS_COLUMNS = ("death_from_cancer", "overall_survival")  # in order of preference

# Clinical variables of the standard METABRIC export, used when no explicit
# view specification is supplied.
DEFAULT_CLINICAL_COLUMNS = (
    "age_at_diagnosis",
    "type_of_breast_surgery",
    "cancer_type",
    "cancer_type_detailed",
    "cellularity",
    "chemotherapy",
    "pam50_+_claudin-low_subtype",
    "cohort",
    "er_status_measured_by_ihc",
    "er_status",
    "neoplasm_histologic_grade",
    "her2_status_measured_by_snp6",
    "her2_status",
    "tumor_other_histologic_subtype",
    "hormone_therapy",
    "inferred_menopausal_state",
    "integrative_cluster",
    "primary_tumor_laterality",
    "lymph_nodes_examined_positive",
    "mutation_count",
    "nottingham_prognostic_index",
    "oncotree_code",
    "pr_status",
    "radio_therapy",
    "3-gene_classifier_subtype",
    "tumor_size",
    "tumor_stage",
)


def _repeated_name(names: list[str]) -> str:
    """The first of ``names`` that appears more than once, with its 1-based column numbers."""
    name = next(n for n in names if names.count(n) > 1)
    return f"{name!r} at columns {', '.join(str(j) for j, n in enumerate(names, start=1) if n == name)}"


@dataclass(frozen=True)
class Column:
    """One typed column: numeric (float64 + NaN) or categorical (object + None)."""

    name: str
    kind: str  # "numeric" | "categorical"
    values: np.ndarray


@dataclass(frozen=True)
class CohortTable:
    """Immutable table of typed columns sharing one row count."""

    columns: tuple[Column, ...]
    n_rows: int
    _by_name: dict[str, Column] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        by_name = {c.name: c for c in self.columns}
        if len(by_name) != len(self.columns):
            raise DataError(f"duplicate column name {_repeated_name(self.column_names)} in table")
        for c in self.columns:
            if len(c.values) != self.n_rows:
                raise DataError(f"column {c.name!r} has {len(c.values)} cells, expected {self.n_rows}")
        object.__setattr__(self, "_by_name", by_name)

    @property
    def column_names(self) -> list[str]:
        return [c.name for c in self.columns]

    def column(self, name: str) -> Column:
        try:
            return self._by_name[name]
        except KeyError:
            raise DataError(f"column {name!r} not present in table") from None

    def has_column(self, name: str) -> bool:
        return name in self._by_name

    def select(self, names: list[str]) -> "CohortTable":
        return CohortTable(tuple(self.column(n) for n in names), self.n_rows)

    def take_rows(self, idx: np.ndarray) -> "CohortTable":
        idx = np.asarray(idx)
        cols = tuple(Column(c.name, c.kind, c.values[idx]) for c in self.columns)
        return CohortTable(cols, int(len(idx)))


@dataclass(frozen=True)
class EndpointVector:
    """Per-patient follow-up time, event indicator and 5-year binary outcome.

    ``delta`` is 1 for a recorded cancer death, 0 otherwise, and NaN when the
    status label could not be interpreted. ``y`` is 1/0/NaN following the
    fixed-window rule; rows with unparseable status or insufficient follow-up
    carry NaN.
    """

    t_months: np.ndarray
    delta: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        n = len(self.t_months)
        if len(self.delta) != n or len(self.y) != n:
            raise DataError("endpoint arrays must have equal length")

    def __len__(self) -> int:
        return len(self.t_months)

    def take(self, idx: np.ndarray) -> "EndpointVector":
        return EndpointVector(self.t_months[idx], self.delta[idx], self.y[idx])


@dataclass(frozen=True)
class ViewSpec:
    """Names that carve a cohort into clinical and genomic predictor views."""

    clinical_columns: tuple[str, ...] = DEFAULT_CLINICAL_COLUMNS
    id_column: str = "patient_id"
    survival_columns: tuple[str, ...] = SURVIVAL_COLUMNS


def _typed_column(name: str, cells) -> Column:
    """One column: numeric when every non-missing cell is a finite number, else categorical.

    ``float()`` runs on the raw cells first. When every cell parses to a
    finite number, that array is the column: no missing token parses to a
    finite float (``""`` and ``na`` raise, ``nan`` is not finite), and
    ``float()`` ignores the same whitespace that ``str.strip()`` removes, so
    the token pass below would give the same bits. Any other column (a
    missing cell, a non-finite value or text) takes the token pass.
    """
    try:
        values = np.fromiter(map(float, cells), float, len(cells))
    except ValueError:
        values = None
    if values is not None and np.isfinite(values).all():
        return Column(name, "numeric", values)
    cells = [c.strip() for c in cells]
    missing = [c.lower() in MISSING_TOKENS for c in cells]
    try:
        parsed = [float(c) for c, m in zip(cells, missing) if not m]
    except ValueError:
        parsed = None
    if parsed is not None and np.isfinite(parsed).all():
        values = np.full(len(cells), np.nan)
        values[~np.array(missing, dtype=bool)] = parsed
        return Column(name, "numeric", values)
    return Column(name, "categorical", np.array([None if m else c for c, m in zip(cells, missing)], dtype=object))


def read_csv(path) -> tuple[list[str], list[list[str]]]:
    """The header and data rows of a UTF-8 CSV file; a leading byte-order mark
    is dropped. A file that cannot be read or parsed, an empty file, a repeated
    header name and a ragged row are each a ``DataError`` naming the file; a
    repeated name is given with its column numbers."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"{path}: not a readable UTF-8 CSV file: {exc}") from exc
    if not rows:
        raise DataError(f"{path}: file is empty")
    header = rows.pop(0)
    if len(set(header)) != len(header):
        raise DataError(f"{path}: duplicate header name {_repeated_name(header)}")
    for row_no, row in enumerate(rows, start=2):  # the header is row 1
        if len(row) != len(header):
            raise DataError(f"{path}: row {row_no} has {len(row)} fields, header has {len(header)}")
    return header, rows


def load_cohort(csv_path, text_columns=()) -> CohortTable:
    """Load a CSV file with a header row (see ``read_csv``) into a typed CohortTable.

    A column is numeric when every non-missing cell parses to a finite
    number, categorical otherwise. Empty strings and the tokens NA / NaN
    (any case, surrounding whitespace ignored) count as missing; categorical
    cells are stored stripped. A column named in ``text_columns`` is
    categorical with every cell stored stripped as written, so an id ``1001``
    stays ``"1001"`` and an empty cell stays ``""``.
    """
    header, rows = read_csv(csv_path)
    # zip(*rows) yields one column at a time, but no columns at all without rows
    columns = zip(*rows) if rows else [()] * len(header)
    return CohortTable(tuple(
        Column(name, "categorical", np.array([c.strip() for c in cells], dtype=object)) if name in text_columns
        else _typed_column(name, cells) for name, cells in zip(header, columns)), len(rows))


def _normalize_status(col: Column) -> np.ndarray:
    """Map a status column onto {1, 0, NaN} (cancer death / not / unknown)."""
    n = len(col.values)
    out = np.full(n, np.nan)
    if col.kind == "numeric":
        vals = col.values
        out[vals == 1] = 1.0
        out[vals == 0] = 0.0
        return out
    for i, v in enumerate(col.values):
        if v is None:
            continue
        label = v.strip().lower()
        if label in DEATH_LABELS:
            out[i] = 1.0
        elif label in ALIVE_LABELS:
            out[i] = 0.0
    return out


def endpoint_columns(status_column: str | None) -> tuple[str, ...]:
    """The columns ``build_endpoint`` reads, or may read when no status column is forced."""
    return (TIME_COLUMN, *(STATUS_COLUMNS if status_column is None else (status_column,)))


def build_endpoint(table: CohortTable, horizon: float, status_column: str | None) -> EndpointVector:
    """Construct the fixed-window cancer-death endpoint from survival columns.

    The event indicator comes from ``status_column``, or when that is None
    from ``death_from_cancer`` when present (else ``overall_survival``), with
    string labels normalized case-insensitively. The binary outcome is 1 for
    a cancer death within the horizon, 0 for a death after the horizon or
    survival past it, and missing when follow-up ends before the horizon
    without an event or the status is unrecognized.
    """
    if not table.has_column(TIME_COLUMN):
        raise DataError(f"endpoint requires column {TIME_COLUMN!r}")
    if status_column is None:
        for cand in STATUS_COLUMNS:
            if table.has_column(cand):
                status_column = cand
                break
        else:
            raise DataError(f"endpoint requires {' or '.join(map(repr, STATUS_COLUMNS))}")
    elif not table.has_column(status_column):
        raise DataError(f"status column {status_column!r} not present")

    t_col = table.column(TIME_COLUMN)
    if t_col.kind != "numeric":
        raise DataError(f"{TIME_COLUMN!r} must be numeric")
    t = t_col.values.astype(float)
    if np.any(t[~np.isnan(t)] < 0):
        raise DataError("negative follow-up times")

    delta = _normalize_status(table.column(status_column))

    y = np.full(len(t), np.nan)
    known = ~np.isnan(delta) & ~np.isnan(t)
    y[known & (delta == 1) & (t <= horizon)] = 1.0
    y[known & (delta == 1) & (t > horizon)] = 0.0
    y[known & (delta == 0) & (t >= horizon)] = 0.0
    # remaining rows (censored before horizon, unknown status, missing time) stay NaN
    return EndpointVector(t, delta, y)


def filter_cohort(table: CohortTable, endpoint: EndpointVector) -> tuple[CohortTable, EndpointVector]:
    """Drop rows whose 5-year outcome is missing; preserve order, re-base indices."""
    if len(endpoint) != table.n_rows:
        raise DataError("endpoint length does not match table")
    keep = np.flatnonzero(~np.isnan(endpoint.y))
    if len(keep) == 0:
        raise DataError("no rows with a determinable 5-year outcome")
    return table.take_rows(keep), endpoint.take(keep)


def split_views(table: CohortTable, spec: ViewSpec, status_column: str | None = None) -> tuple[CohortTable, CohortTable]:
    """Split predictors into a clinical view and the genomic remainder.

    Survival columns, the id column and every column ``build_endpoint`` reads
    for ``status_column`` never appear in either view, even if listed among
    the clinical columns.
    """
    for name in (spec.id_column, *spec.clinical_columns, *spec.survival_columns):
        if not table.has_column(name):
            raise DataError(f"view column {name!r} not present in table")
    excluded = {*spec.survival_columns, *endpoint_columns(status_column), spec.id_column}
    clinical_names = [c for c in spec.clinical_columns if c not in excluded]
    if not clinical_names:
        raise DataError("clinical view is empty after removing id and survival columns")
    clinical_set = set(clinical_names)
    genomic_names = [c.name for c in table.columns if c.name not in excluded and c.name not in clinical_set]
    if not genomic_names:
        raise DataError("genomic view is empty after removing clinical, id and survival columns")
    return table.select(clinical_names), table.select(genomic_names)


def variance_filter(genomic: CohortTable, k: int) -> CohortTable:
    """Keep the k numeric columns with the largest sample variance.

    Missing cells are skipped; a column with fewer than two observed values
    gets variance 0. Ties break toward the earlier column. Categorical
    columns are dropped.
    """
    numeric = [c for c in genomic.columns if c.kind == "numeric"]
    if not numeric:
        raise DataError("variance filter requires at least one numeric column")
    variances = []
    for c in numeric:
        obs = c.values[~np.isnan(c.values)]
        variances.append(float(np.var(obs, ddof=1)) if len(obs) >= 2 else 0.0)
    # stable sort on negated variance keeps original order among ties
    keep = sorted(np.argsort(-np.asarray(variances), kind="stable")[:k])
    return CohortTable(tuple(numeric[i] for i in keep), genomic.n_rows)
