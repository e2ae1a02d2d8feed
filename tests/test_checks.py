"""Conformance matrices for the pure Arrow check kernels.

Mirrors the reference's unit pass/fail grids
(``/root/reference/tests/test_pandas_validator.py``) over Arrow arrays —
same fixtures, same expected verdicts. A check is "valid" when its
violation mask has no True entries (reference ``_fill_res_dict``:
``valid = not col_oob.any()``).

No Ray needed here — kernels are pure pyarrow/pandas.
"""

import pyarrow as pa
import pytest

from data_linter_ray import checks
from data_linter_ray.metadata import ColumnSpec


def valid(mask: pa.Array) -> bool:
    import pyarrow.compute as pc

    return not pc.any(mask).as_py()


int_not_null = pa.array([1, 2, 3, 4, 5], type=pa.int64())
int_is_null = pa.array([1, 2, None, 4, 5], type=pa.int64())
double_not_null = pa.array([1.0, 2.23545, 3.532513, 4.35, 5.93567])
double_is_null = pa.array([1.0, 2.23545, 3.532513, None, 5.93567])
str_not_null = pa.array(["cat", "dog", "fish", "apple", "pineapple"])
str_is_null = pa.array(["cat", "dog", None, "apple", "pineapple"])

date_str_not_null = pa.array(["01/01/2020", "29/12/3000", "25/06/1903"])
date_str_is_null = pa.array([None, "29/12/3000", "25/06/1903"])
datetime_str_not_null = pa.array(
    ["2020-01-01 10:00:31", "3000-12-29 09:12:23", "1903-06-25 12:00:00"]
)
datetime_str_is_null = pa.array([None, "3000-12-29 09:12:23", "1903-06-25 12:00:00"])
datetime_str_not_null_midnight = pa.array(
    ["2020-01-01 00:00:00", "3000-12-29 00:00:00", "1903-06-25 00:00:00"]
)
datetime_str_is_null_midnight = pa.array(
    [None, "3000-12-29 00:00:00", "1903-06-25 00:00:00"]
)


@pytest.mark.parametrize(
    "col,expected_valid",
    [
        (int_is_null, False),
        (int_not_null, True),
        (double_is_null, False),
        (double_not_null, True),
        (str_is_null, False),
        (str_not_null, True),
    ],
)
def test_nullable_validation(col, expected_valid):
    assert valid(checks.nullable_mask(col)) == expected_valid


@pytest.mark.parametrize(
    "col", [int_is_null, int_not_null, double_is_null, double_not_null]
)
@pytest.mark.parametrize(
    "mi,ma",
    [(0, 6), (-6, None), (None, 6), (0.0, 6.0), (-6.1, None), (None, 6.2)],
)
def test_min_max_validation_pass(col, mi, ma):
    assert valid(checks.min_max_mask(col, mi, ma))


@pytest.mark.parametrize(
    "col", [int_is_null, int_not_null, double_is_null, double_not_null]
)
@pytest.mark.parametrize("mi,ma", [(5, 6), (5, None), (None, 3)])
def test_min_max_validation_fail(col, mi, ma):
    assert not valid(checks.min_max_mask(col, mi, ma))


def test_min_max_both_none_raises():
    with pytest.raises(ValueError):
        checks.min_max_mask(int_not_null, None, None)


@pytest.mark.parametrize("col", [str_is_null, str_not_null])
@pytest.mark.parametrize("mil,mal", [(0, 10), (0, None), (None, 10)])
def test_min_max_length_pass(col, mil, mal):
    assert valid(checks.min_max_length_mask(col, mil, mal))


@pytest.mark.parametrize("col", [str_is_null, str_not_null])
@pytest.mark.parametrize("mil,mal", [(5, 6), (5, None), (None, 6)])
def test_min_max_length_fail(col, mil, mal):
    assert not valid(checks.min_max_length_mask(col, mil, mal))


@pytest.mark.parametrize(
    "col_values,expected_valid",
    [
        (["abc-1235", "xyz-4468", "xyz-0284", "acx-8936"], True),
        (["abc-1235", None, "xyz-0284", "acx-8936"], True),  # null passes
        (["abc-1235", "xyz-4468", "xyz-0284", "1acx-8936"], False),
        (["abc-1235", "xyz-4468", None, "cx-8936"], False),
    ],
)
def test_pattern(col_values, expected_valid):
    col = pa.array(col_values)
    assert valid(checks.pattern_mask(col, "^\\D{3}-\\d{4}$")) == expected_valid


def test_pattern_is_match_not_fullmatch():
    # pandas str.match anchors at start only: "abc-1235XYZ" still matches
    col = pa.array(["abc-1235XYZ"])
    assert valid(checks.pattern_mask(col, "\\D{3}-\\d{4}"))


@pytest.mark.parametrize("col", [str_is_null, str_not_null])
@pytest.mark.parametrize(
    "enum,expected_valid",
    [
        (["cat", "dog", "fish", "apple", "pineapple"], True),
        (["cat", "dog", "fish", "robot"], False),
    ],
)
def test_enum(col, enum, expected_valid):
    # default nullable (None) → nulls pass
    assert valid(checks.enum_mask(col, enum, None)) == expected_valid


def test_enum_non_nullable_nulls_fail():
    # reference: nullable=False → NaN.isin(enum) is False → violation
    enum = ["cat", "dog", "fish", "apple", "pineapple"]
    assert not valid(checks.enum_mask(str_is_null, enum, False))
    assert valid(checks.enum_mask(str_not_null, enum, False))


@pytest.mark.parametrize("col", [date_str_is_null, date_str_not_null])
def test_date_format_pass(col):
    assert valid(checks.date_format_mask(col, "%d/%m/%Y"))


@pytest.mark.parametrize(
    "col", [datetime_str_is_null_midnight, datetime_str_not_null_midnight]
)
def test_date_format_midnight_pass(col):
    assert valid(checks.date_format_mask(col, "%Y-%m-%d %H:%M:%S"))


@pytest.mark.parametrize(
    "col,fmt",
    [
        (date_str_is_null, None),  # expects ISO by default → dd/mm/yyyy fails
        (date_str_not_null, None),
        (datetime_str_is_null, "%Y/%m/%d %H:%M:%S"),  # nonzero time component
        (datetime_str_not_null, "%Y/%m/%d %H:%M:%S"),
    ],
)
def test_date_format_fail(col, fmt):
    assert not valid(checks.date_format_mask(col, fmt or checks.DEFAULT_DATE_FORMAT))


@pytest.mark.parametrize("col", [datetime_str_is_null, datetime_str_not_null])
@pytest.mark.parametrize(
    "fmt,expected_valid",
    [
        (None, True),
        ("%Y-%m-%d %H:%M:%S", True),
        ("%d/%m/%Y %H:%M:%S", False),
    ],
)
def test_datetime_format(col, fmt, expected_valid):
    fmt = fmt or checks.DEFAULT_DATETIME_FORMAT
    assert valid(checks.datetime_format_mask(col, fmt)) == expected_valid


def test_empty_string_passes_date_checks():
    # reference _valid_date_or_datetime_conversion: falsy string passes
    col = pa.array(["", "2020-01-01", "not-a-date"])
    mask = checks.date_format_mask(col, "%Y-%m-%d")
    assert mask.to_pylist() == [False, False, True]


def test_out_of_timestamp_range_date_ok():
    # strptime accepts 9999-12-31; pandas Timestamp can't represent it —
    # kernel must still pass it (strptime fallback path)
    col = pa.array(["9999-12-31", "0001-01-01", "bad"])
    mask = checks.date_format_mask(col, "%Y-%m-%d")
    assert mask.to_pylist() == [False, False, True]


def test_date_kernels_mixed_chunked_column():
    """Null, "", valid, malformed and out-of-Timestamp-range strings in
    a chunked array: both date kernels equal the reference's per-value
    ``strptime`` loop, where a null or empty value passes."""
    from datetime import datetime

    col = pa.chunked_array(
        [
            ["2020-01-01 00:00:00", None, "", "2020-02-30 00:00:00"],
            [],
            ["9999-12-31 00:00:00", "0001-01-01 10:30:00", None, ""],
            ["2021/03/04 05:06:07", "2021-03-04 05:06:07", "2021-03-04", "x"],
        ]
    )
    values = col.to_pylist()

    def reference(fmt, midnight_only):
        out = []
        for v in values:
            if not v:
                out.append(False)
                continue
            try:
                dt = datetime.strptime(v, fmt)
            except ValueError:
                out.append(True)
                continue
            out.append(midnight_only and dt.time() != datetime.min.time())
        return out

    fmt = checks.DEFAULT_DATETIME_FORMAT
    assert checks.datetime_format_mask(col, fmt).to_pylist() == reference(fmt, False)
    assert checks.date_format_mask(col, fmt).to_pylist() == reference(fmt, True)
    assert checks.date_format_mask(col, "%Y-%m-%d").to_pylist() == reference(
        "%Y-%m-%d", True
    )


def test_dispatch_skips():
    """check_run_validation_for_meta parity: tests skip when constraint
    keys are absent (reference test_validation_function_skips)."""
    spec = ColumnSpec(name="c", type="string")
    assert checks.applicable_tests(spec, pa.string()) == []
    spec = ColumnSpec(name="c", type="string", nullable=True)
    assert checks.applicable_tests(spec, pa.string()) == []
    spec = ColumnSpec(name="c", type="string", nullable=False)
    assert checks.applicable_tests(spec, pa.string()) == [checks.NULLABLE_TEST]


def test_dispatch_date_checks_only_for_string_columns():
    # natively-typed date columns are skipped (reference logs
    # "not yet implemented" and skips: pandas_validator.py:184-201)
    spec = ColumnSpec(name="c", type="date64")
    assert checks.DATE_FORMAT_TEST in checks.applicable_tests(spec, pa.string())
    assert checks.applicable_tests(spec, pa.date64()) == []
    spec = ColumnSpec(name="c", type="timestamp(s)")
    assert checks.DATETIME_FORMAT_TEST in checks.applicable_tests(spec, pa.string())
    assert checks.applicable_tests(spec, pa.timestamp("s")) == []


def test_dispatch_full():
    spec = ColumnSpec(
        name="c",
        type="int64",
        nullable=False,
        minimum=0,
        maximum=10,
        enum=[1, 2, 3],
    )
    got = checks.applicable_tests(spec, pa.int64())
    assert got == [checks.MIN_MAX_TEST, checks.ENUM_TEST, checks.NULLABLE_TEST]


def test_column_spec_round_trip_keeps_zero_and_false_bounds():
    """minimum=0, maximum=0 and nullable=False are checks, not defaults:
    a schema dict round trip (also the one the result's metadata setter
    does) must keep them and the checks they switch on."""
    from data_linter_ray.metadata import TableSchema
    from data_linter_ray.result import ValidatorResult

    schema = TableSchema(
        name="t",
        columns=[
            ColumnSpec(name="lo", type="int64", minimum=0, nullable=False),
            ColumnSpec(name="hi", type="float64", maximum=0.0),
            ColumnSpec(name="plain", type="string"),
        ],
    )
    d = schema.to_dict()
    assert d["columns"][0] == {
        "name": "lo", "type": "int64", "nullable": False, "minimum": 0,
    }
    assert d["columns"][1] == {"name": "hi", "type": "float64", "maximum": 0.0}
    assert d["columns"][2] == {"name": "plain", "type": "string"}
    assert TableSchema.from_dict(d) == schema

    res = ValidatorResult()
    res.metadata = d
    back = TableSchema.from_dict(res.metadata)
    assert checks.applicable_tests(back.column("lo"), pa.int64()) == [
        checks.MIN_MAX_TEST, checks.NULLABLE_TEST,
    ]
    assert checks.applicable_tests(back.column("hi"), pa.float64()) == [
        checks.MIN_MAX_TEST,
    ]
