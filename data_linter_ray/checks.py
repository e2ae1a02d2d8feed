"""Pure Arrow check kernels (no Ray dependency).

Each kernel takes a ``pyarrow.Array``/``ChunkedArray`` plus constraint
params and returns a null-free ``pyarrow.BooleanArray`` violation mask
(True = that row violates the check).

Null semantics reproduce the reference exactly
(``/root/reference/data_linter/validators/pandas_validator.py:211-334``):

  - min/max, length, pattern: null values PASS (pandas comparisons give
    NaN/NA which ``.any()`` skips) — we compute with Arrow kernels (which
    propagate null) then ``fill_null(False)``.
  - enum: when the column is nullable (or nullability unspecified) nulls
    PASS (reference fills NA with ``enum[0]`` first); when nullable=False,
    nulls FAIL the enum test too (``NaN.isin(enum) == False``).
  - nullable: only run when nullable is explicitly False; nulls FAIL.
  - date/datetime format: run only on *string-typed* columns whose declared
    type starts with "date"/"timestamp"; null or empty-string values PASS;
    the value must fully parse with ``datetime.strptime`` semantics, and
    date columns additionally require a zero time component
    (``pandas_validator.py:290-339``).

Dispatch rules (which tests run for which column spec) reproduce
``check_run_validation_for_meta`` (``pandas_validator.py:141-207``).
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

DEFAULT_DATE_FORMAT = "%Y-%m-%d"
DEFAULT_DATETIME_FORMAT = "%Y-%m-%d %H:%M:%S"

# Canonical test names — same strings the reference uses as response keys
# (pandas_validator.py:97-138).
MIN_MAX_TEST = "min_max_test"
MIN_MAX_LENGTH_TEST = "min_max_length_test"
PATTERN_TEST = "pattern_test"
ENUM_TEST = "enum_test"
NULLABLE_TEST = "nullable_test"
DATETIME_FORMAT_TEST = "datetime_format_test"
DATE_FORMAT_TEST = "date_format_test"
# extension tests (north rule)
UNIQUE_TEST = "unique_test"
REFERENTIAL_TEST = "referential_test"
DRIFT_TEST = "drift_test"
SPAN_TEST = "span_test"


def _no_nulls(mask: pa.Array | pa.ChunkedArray) -> pa.Array:
    """fill_null(False) + combine chunks → plain BooleanArray."""
    mask = pc.fill_null(mask, False)
    if isinstance(mask, pa.ChunkedArray):
        mask = mask.combine_chunks()
    return mask


def min_max_mask(col, minimum=None, maximum=None) -> pa.Array:
    """OOB mask ``(col < mi) | (col > ma)``; either bound optional; nulls pass.

    Reference: ``_get_min_max_series_out_of_bounds_col``
    (pandas_validator.py:385-397).
    """
    if minimum is None and maximum is None:
        raise ValueError("invalid min/max values: both bounds are None")
    mask = None
    if minimum is not None:
        mask = pc.less(col, minimum)
    if maximum is not None:
        hi = pc.greater(col, maximum)
        mask = hi if mask is None else pc.or_(mask, hi)
    return _no_nulls(mask)


def min_max_length_mask(col, min_length=None, max_length=None) -> pa.Array:
    """OOB mask on utf8 character length; nulls pass.

    Reference: ``_min_max_length_test`` (pandas_validator.py:226-237).
    """
    lengths = pc.utf8_length(col)
    return min_max_mask(lengths, min_length, max_length)


def pattern_mask(col, pattern: str) -> pa.Array:
    """OOB mask ``~col.str.match(pattern)`` — anchored at start, not full
    match; nulls pass. Reference: ``_pattern_test``
    (pandas_validator.py:241-252).
    """
    anchored = pattern if pattern.startswith("^") else "^(?:%s)" % pattern
    return _no_nulls(pc.invert(pc.match_substring_regex(col, anchored)))


def enum_mask(col, enum: list, nullable: Optional[bool] = None) -> pa.Array:
    """OOB mask ``~col.isin(enum)``.

    nullable (True or unspecified) → nulls pass (reference fills NA with
    ``enum[0]``); nullable=False → nulls are enum violations as well.
    Reference: ``_enum_test`` (pandas_validator.py:256-270).
    """
    value_set = pa.array(enum)
    isin = pc.fill_null(pc.is_in(col, value_set=value_set), False)
    oob = pc.invert(isin)
    if nullable is not False:
        # nullable (or unspecified): nulls pass the enum test
        oob = pc.and_(oob, pc.invert(pc.is_null(col)))
    return _no_nulls(oob)


def nullable_mask(col) -> pa.Array:
    """Nulls are violations. Only dispatched when nullable is explicitly
    False. Reference: ``_nullable_test`` (pandas_validator.py:274-286).
    """
    return _no_nulls(pc.is_null(col))


def _strptime_masks(col, fmt: str) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized strptime check. Returns (ok, midnight) bool ndarrays.

    Fast path: pandas ``to_datetime(format=..., exact=True)`` — C-speed,
    matches ``datetime.strptime`` full-string semantics. pandas coerces
    out-of-Timestamp-range dates (e.g. sentinel "9999-12-31") to NaT even
    though strptime accepts them, so failures are re-checked with real
    ``strptime`` over *distinct* failing values only (dates repeat heavily;
    this stays cheap).
    """
    from datetime import datetime

    s = pd.Series(col.to_pandas() if isinstance(col, (pa.Array, pa.ChunkedArray)) else col)
    parsed = pd.to_datetime(s, format=fmt, errors="coerce")
    ok = parsed.notna().to_numpy()
    midnight = (
        (parsed.dt.hour == 0)
        & (parsed.dt.minute == 0)
        & (parsed.dt.second == 0)
        & (parsed.dt.microsecond == 0)
    ).fillna(False).to_numpy()

    failing = s[~ok & s.notna() & (s != "")]
    if len(failing):
        verdicts: dict = {}
        for v in pd.unique(failing):
            try:
                dt = datetime.strptime(v, fmt)
                verdicts[v] = (
                    dt.hour == 0 and dt.minute == 0 and dt.second == 0 and dt.microsecond == 0
                )
            except (ValueError, TypeError):
                pass
        if verdicts:
            for i, v in zip(failing.index.to_numpy(), failing.to_numpy()):
                if v in verdicts:
                    ok[i] = True
                    midnight[i] = verdicts[v]
    return ok, midnight


def _exempt(col: pa.Array) -> np.ndarray:
    """Null or empty-string values, which pass the date/datetime tests."""
    empty = pc.fill_null(pc.equal(col, ""), False)
    return pc.or_(pc.is_null(col), empty).to_numpy(zero_copy_only=False)


def datetime_format_mask(col, fmt: str = DEFAULT_DATETIME_FORMAT) -> pa.Array:
    """Violation where a non-null, non-empty string fails to fully parse
    with ``fmt``. Reference: ``_datetime_format_test`` +
    ``_valid_date_or_datetime_conversion`` (pandas_validator.py:306-334).
    """
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    ok, _ = _strptime_masks(col, fmt)
    return pa.array(~(ok | _exempt(col)))


def date_format_mask(col, fmt: str = DEFAULT_DATE_FORMAT) -> pa.Array:
    """As datetime_format_mask but additionally requires a zero time
    component. Reference: ``_date_format_test`` +
    ``_check_no_time_component_in_expected_date``
    (pandas_validator.py:290-302,337-339).
    """
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    ok, midnight = _strptime_masks(col, fmt)
    return pa.array(~((ok & midnight) | _exempt(col)))


def is_string_arrow_type(t: pa.DataType) -> bool:
    return pa.types.is_string(t) or pa.types.is_large_string(t)


def applicable_tests(spec, arrow_type: Optional[pa.DataType] = None) -> list[str]:
    """Which tests run for this column spec — the compile-time equivalent of
    the reference's ``check_run_validation_for_meta`` runtime gate
    (pandas_validator.py:141-207).

    ``arrow_type`` is the *actual* data type of the column: date/datetime
    format tests only run on string-encoded columns (the reference logs
    "not yet implemented" for natively-typed date columns and skips).
    """
    tests: list[str] = []
    if spec.minimum is not None or spec.maximum is not None:
        tests.append(MIN_MAX_TEST)
    if spec.min_length is not None or spec.max_length is not None:
        tests.append(MIN_MAX_LENGTH_TEST)
    if spec.pattern:
        tests.append(PATTERN_TEST)
    if spec.enum:
        tests.append(ENUM_TEST)
    if spec.nullable is False:
        tests.append(NULLABLE_TEST)
    col_is_str = arrow_type is None or is_string_arrow_type(arrow_type)
    if spec.type.startswith("timestamp") and col_is_str:
        tests.append(DATETIME_FORMAT_TEST)
    if spec.type.startswith("date") and col_is_str:
        tests.append(DATE_FORMAT_TEST)
    return tests


def run_test(test: str, col, spec) -> pa.Array:
    """Dispatch one named test over an Arrow column → violation mask."""
    if test == MIN_MAX_TEST:
        return min_max_mask(col, spec.minimum, spec.maximum)
    if test == MIN_MAX_LENGTH_TEST:
        return min_max_length_mask(col, spec.min_length, spec.max_length)
    if test == PATTERN_TEST:
        return pattern_mask(col, spec.pattern)
    if test == ENUM_TEST:
        return enum_mask(col, spec.enum, spec.nullable)
    if test == NULLABLE_TEST:
        return nullable_mask(col)
    if test == DATETIME_FORMAT_TEST:
        return datetime_format_mask(col, spec.datetime_format or DEFAULT_DATETIME_FORMAT)
    if test == DATE_FORMAT_TEST:
        return date_format_mask(col, spec.datetime_format or DEFAULT_DATE_FORMAT)
    raise ValueError(f"unknown test: {test}")


def test_inputs(test: str, spec) -> dict:
    """The ``test_inputs`` payload the reference records per test
    (pandas_validator.py:211-318)."""
    if test == MIN_MAX_TEST:
        return {"column": spec.name, "minimum_value": spec.minimum, "maximum_value": spec.maximum}
    if test == MIN_MAX_LENGTH_TEST:
        return {"column": spec.name, "minimum_length": spec.min_length, "maximum_length": spec.max_length}
    if test == PATTERN_TEST:
        return {"column": spec.name, "regex": spec.pattern}
    if test == DATETIME_FORMAT_TEST:
        return {"column": spec.name, "datetime_format": spec.datetime_format or DEFAULT_DATETIME_FORMAT}
    if test == DATE_FORMAT_TEST:
        return {"column": spec.name, "datetime_format": spec.datetime_format or DEFAULT_DATE_FORMAT}
    return {"column": spec.name}
