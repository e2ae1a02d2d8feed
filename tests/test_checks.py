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
from hypothesis import given, settings
from hypothesis import strategies as st

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


def _strptime_reference(values, fmt, midnight_only):
    """The reference's per-value loop: a null or empty value passes, any
    other must parse with ``datetime.strptime`` (and, for a date test,
    have a zero time part). True = violation."""
    from datetime import datetime

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


def _assert_date_kernels_match(col, fmts):
    values = col.to_pylist()
    for fmt in fmts:
        assert checks.datetime_format_mask(col, fmt).to_pylist() == _strptime_reference(
            values, fmt, False
        ), fmt
        assert checks.date_format_mask(col, fmt).to_pylist() == _strptime_reference(
            values, fmt, True
        ), fmt


def test_date_kernels_mixed_chunked_column():
    """Null, "", valid, malformed and out-of-Timestamp-range strings in
    a chunked array: both date kernels equal the reference's per-value
    ``strptime`` loop, where a null or empty value passes."""
    col = pa.chunked_array(
        [
            ["2020-01-01 00:00:00", None, "", "2020-02-30 00:00:00"],
            [],
            ["9999-12-31 00:00:00", "0001-01-01 10:30:00", None, ""],
            ["2021/03/04 05:06:07", "2021-03-04 05:06:07", "2021-03-04", "x"],
        ]
    )
    _assert_date_kernels_match(col, [checks.DEFAULT_DATETIME_FORMAT, "%Y-%m-%d"])


#: both default formats, whose ISO values Arrow settles, and two that
#: take the pandas path alone, with and without seconds
DATE_FORMATS = [
    checks.DEFAULT_DATETIME_FORMAT, checks.DEFAULT_DATE_FORMAT,
    "%d/%m/%Y %H:%M", "%d/%m/%Y %H:%M:%S",
]
#: the formats' own characters, their look-alikes and separators
#: ``strptime`` treats as whitespace or digits
DATE_ALPHABET = "0123456789-: /T\t\x0b\x1c\uff10\uff11\uff12\uff16\uff19"

EDGE_STAMPS = [
    "2020-02-29", "2019-02-29", "2020-02-29 12:00:00", "2019-02-29 12:00:00",
    "29/02/2020 12:00", "29/02/2019 12:00",
    "0000-01-01", "0001-01-01", "9999-12-31", "10000-01-01",
    "0000-01-01 00:00:00", "0001-01-01 00:00:00", "9999-12-31 23:59:59",
    "01/01/0000 00:00", "01/01/0001 00:00", "31/12/9999 23:59",
    "2020-1-2", "2020-1-2 3:4:5", "2020-01-02 03:04:5", "1/2/2020 3:4",
    "2020-01-01 23:59:60", "2020-01-01 23:59:61", "2020-01-01 24:00:00",
    "01/01/2020 23:59:60", "01/01/2020 23:59:61", "01/01/2020 23:59:59",
    "2020-13-01", "2020-13-01 00:00:00", "01/13/2020 00:00", "01/01/2020 24:00",
    " 2020-01-01", "2020-01-01 ", " 2020-01-01 00:00:00", "2020-01-01 00:00:00 ",
    " 01/01/2020 00:00", "01/01/2020 00:00 ", "2020-01-01  00:00:00",
    "2020-01-01T00:00:00", "2020-01-01\t00:00:00", "\uff12\uff10\uff12\uff10-01-01",
    "2020-01-01 00:00:00", "2020-01-01 00:00", "01/01/2020 00:00", None, "",
]


def test_date_kernels_edge_stamps():
    """Leap days, years 0 / 1 / 9999 / 10000, single-digit fields,
    second 60, hour 24, month 13, surrounding spaces and look-alike
    separators, in string, large_string and chunked columns, and in
    all-null and empty ones: both kernels equal the ``strptime`` loop
    under every format."""
    for col in (
        pa.array(EDGE_STAMPS),
        pa.array(EDGE_STAMPS, pa.large_string()),
        pa.chunked_array([EDGE_STAMPS[:7], [], EDGE_STAMPS[7:]]),
        pa.chunked_array([EDGE_STAMPS[:7], EDGE_STAMPS[7:]], pa.large_string()),
        pa.nulls(4, pa.string()),
        pa.array([], pa.string()),
        pa.chunked_array([], pa.large_string()),
    ):
        _assert_date_kernels_match(col, DATE_FORMATS)


def _mutated(draw, stamp: str) -> str:
    chars = list(stamp)
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(chars)))
        op = draw(st.sampled_from(["insert", "delete", "replace"]))
        if op == "insert":
            chars.insert(i, draw(st.sampled_from(DATE_ALPHABET)))
        elif chars:
            i = min(i, len(chars) - 1)
            if op == "delete":
                del chars[i]
            else:
                chars[i] = draw(st.sampled_from(DATE_ALPHABET))
    return "".join(chars)


@st.composite
def _date_values(draw):
    fmt = draw(st.sampled_from(DATE_FORMATS))
    dt = draw(st.datetimes())
    stamp = dt.strftime(fmt.replace("%Y", f"{dt.year:04d}"))
    kind = draw(st.sampled_from(["null", "empty", "stamp", "mutated", "text"]))
    if kind == "null":
        return None
    if kind == "empty":
        return ""
    if kind == "stamp":
        return stamp
    if kind == "mutated":
        return _mutated(draw, stamp)
    return draw(st.text(DATE_ALPHABET, max_size=22))


@settings(max_examples=300, deadline=None)
@given(st.lists(_date_values(), max_size=40), st.integers(0, 40), st.booleans())
def test_date_kernels_match_strptime(values, cut, large):
    """Random stamps of every format, mutated ones and strings over the
    formats' alphabet with look-alikes (``/``, ``T``, tab, vertical tab,
    ``\\x1c``, full-width digits), in a chunked column: both kernels
    equal the per-value ``strptime`` loop under every format."""
    typ = pa.large_string() if large else pa.string()
    col = pa.chunked_array([values[:cut], values[cut:]], typ)
    _assert_date_kernels_match(col, DATE_FORMATS)


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
