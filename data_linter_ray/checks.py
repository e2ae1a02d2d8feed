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
    (``pandas_validator.py:290-339``). The verdict is exactly the
    per-value ``strptime`` loop's, reached in three tiers: under the two
    default formats Arrow settles every value that parses and prints
    back as itself; ``strptime``'s own regex rejects most of the rest;
    pandas parses what remains, and ``strptime`` re-checks the answers
    pandas gets wrong (out-of-range years, leap seconds).

Dispatch rules (which tests run for which column spec) reproduce
``check_run_validation_for_meta`` (``pandas_validator.py:141-207``).
"""

from __future__ import annotations

from datetime import datetime
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


#: the formats whose values Arrow can certify, each with the type whose
#: string cast prints a parsed value back in that format
_ARROW_CERTIFIED = {
    DEFAULT_DATETIME_FORMAT: pa.timestamp("s"),
    DEFAULT_DATE_FORMAT: pa.date32(),
}
#: the first and last second of ``datetime``'s years 1-9999
_FIRST_SECOND = pa.scalar(datetime(1, 1, 1), pa.timestamp("s"))
_LAST_SECOND = pa.scalar(datetime(9999, 12, 31, 23, 59, 59), pa.timestamp("s"))


def _certified(col: pa.Array, fmt: str, date: bool) -> tuple[np.ndarray, np.ndarray]:
    """The values of ``col`` whose verdict Arrow settles under ``fmt``
    (one of :data:`_ARROW_CERTIFIED`), and which of them pass. A value
    is settled when it parses, falls in years 1-9999 and prints back as
    itself: it is then the zero-padded stamp of a real ``datetime`` and
    matches ``strptime``'s own regex for the format, so it passes unless
    ``date`` and its time part is not zero. Other values stay open."""
    parsed = pc.strptime(col, format=fmt, unit="s", error_is_null=True)
    known = pc.and_(
        pc.and_(pc.greater_equal(parsed, _FIRST_SECOND), pc.less_equal(parsed, _LAST_SECOND)),
        pc.equal(pc.cast(pc.cast(parsed, _ARROW_CERTIFIED[fmt]), col.type), col),
    )
    known = pc.fill_null(known, False).to_numpy(zero_copy_only=False)
    if not date:
        return known, known
    midnight = pc.equal(pc.floor_temporal(parsed, unit="day"), parsed)
    return known, known & pc.fill_null(midnight, False).to_numpy(zero_copy_only=False)


def _strptime_regex(fmt: str):
    """The regex ``datetime.strptime`` compiles for ``fmt``, or None for
    a format it rejects (then it raises on every value)."""
    import _strptime

    try:
        return _strptime._TimeRE_cache.compile(fmt)
    except (KeyError, IndexError):  # a bad directive, a stray %
        return None


def _per_value(values: pd.Series, verdicts: dict) -> np.ndarray:
    """``verdicts[v]`` for each value ``v`` of ``values``."""
    return np.fromiter((verdicts[v] for v in values), dtype=bool, count=len(values))


def _full_match(values: pd.Series, regex) -> np.ndarray:
    """Per string of ``values``: whether ``regex`` matches all of it, as
    ``strptime`` first tests, once per distinct value."""
    hits = {}
    for v in pd.unique(values):
        found = regex.match(v)
        hits[v] = found is not None and found.end() == len(v)
    return _per_value(values, hits)


def _strptime_ok(values: pd.Series, fmt: str, date: bool) -> np.ndarray:
    """Per string of ``values``: whether ``datetime.strptime(v, fmt)``
    accepts it and, with ``date``, gives a zero time component.

    pandas ``to_datetime(format=..., exact=True)`` answers most values
    in C. Two kinds of its answers are re-checked with ``strptime``,
    once per distinct value: every rejection, since pandas coerces dates
    outside the Timestamp range (e.g. the sentinel "9999-12-31") to NaT;
    and, for a format with seconds, every acceptance at second 0 or 1,
    since pandas rolls a leap second (60 or 61) into the next minute
    where ``strptime`` raises. ``strptime`` runs only on the values that
    fully match its regex for ``fmt``: malformed values are often all
    distinct, and most never reach it.
    """
    parsed = pd.to_datetime(values, format=fmt, errors="coerce")
    regex = _strptime_regex(fmt)
    if regex is None:
        return np.zeros(len(values), dtype=bool)
    ok = parsed.notna().to_numpy()
    recheck = ~ok
    if "S" in regex.groupindex:
        recheck |= (parsed.dt.second < 2).to_numpy()
    if date:
        ok &= (
            (parsed.dt.hour == 0)
            & (parsed.dt.minute == 0)
            & (parsed.dt.second == 0)
            & (parsed.dt.microsecond == 0)
        ).to_numpy()
    if not recheck.any():
        return ok
    candidates = values[recheck]
    verdicts = dict.fromkeys(pd.unique(candidates), False)
    for v in pd.unique(candidates[_full_match(candidates, regex)]):
        try:
            dt = datetime.strptime(v, fmt)
        except ValueError:
            continue
        verdicts[v] = not date or dt.time() == datetime.min.time()
    ok[recheck] = _per_value(candidates, verdicts)
    return ok


def _exempt(col: pa.Array) -> np.ndarray:
    """Null or empty-string values, which pass the date/datetime tests."""
    empty = pc.fill_null(pc.equal(col, ""), False)
    return pc.or_(pc.is_null(col), empty).to_numpy(zero_copy_only=False)


def _format_mask(col, fmt: str, date: bool) -> pa.Array:
    """Violation mask of the date (``date``) or datetime format test:
    exempt values and those :func:`_certified` settles are decided at
    Arrow speed, and only the rest go to :func:`_strptime_ok`. What
    Arrow leaves open is mostly malformed, and pandas is slow to reject
    a value, so ``strptime``'s regex screens it first."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    passed = _exempt(col)
    known = passed.copy()
    screen = fmt in _ARROW_CERTIFIED and is_string_arrow_type(col.type)
    if screen:
        settled, ok = _certified(col, fmt, date)
        known |= settled
        passed |= ok
    rest = np.flatnonzero(~known)
    values = col.take(pa.array(rest)).to_pandas()
    if screen:
        keep = _full_match(values, _strptime_regex(fmt))
        rest, values = rest[keep], values[keep]
    if len(rest):
        passed[rest] = _strptime_ok(values, fmt, date)
    return pa.array(~passed)


def datetime_format_mask(col, fmt: str = DEFAULT_DATETIME_FORMAT) -> pa.Array:
    """Violation where a non-null, non-empty string fails to fully parse
    with ``fmt``. Reference: ``_datetime_format_test`` +
    ``_valid_date_or_datetime_conversion`` (pandas_validator.py:306-334).
    """
    return _format_mask(col, fmt, date=False)


def date_format_mask(col, fmt: str = DEFAULT_DATE_FORMAT) -> pa.Array:
    """As datetime_format_mask but additionally requires a zero time
    component. Reference: ``_date_format_test`` +
    ``_check_no_time_component_in_expected_date``
    (pandas_validator.py:290-302,337-339).
    """
    return _format_mask(col, fmt, date=True)


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
