"""DuckDB oracle: expected per-(column, test) violation counts, computed
from the same files the engine reads, with SQL written from the lint
semantics in ``data_linter_ray/checks.py`` and ``stages/spans.py``
rather than from the engine's code.

Null policy (both sides): min/max, length, pattern and datetime-format
checks let nulls pass; enum lets them pass unless ``nullable`` is False;
``unique`` counts duplicated keys, with NULL as one key.
"""

from __future__ import annotations

import duckdb

from data_linter_ray import checks

KIND_ENUM = ("text", "image", "audio", "video")
MEDIA_REF_PATTERN = "^media://[a-z0-9/]+$"
MAX_SPANS = 64

SPAN_SQL = {
    "span_kind_enum": "len(list_filter({c}, x -> x.kind IS NULL OR x.kind NOT IN {kinds})) > 0",
    "span_text_presence": "len(list_filter({c}, x -> x.kind = 'text' AND x.text IS NULL)) > 0",
    "span_media_presence": "len(list_filter({c}, x -> x.kind <> 'text' AND x.media_ref IS NULL)) > 0",
    "span_media_pattern": (
        "len(list_filter({c}, x -> x.media_ref IS NOT NULL"
        " AND NOT regexp_matches(x.media_ref, '{pat}'))) > 0"
    ),
    "span_offset_min": "len(list_filter({c}, x -> x.offset < 0)) > 0",
    "span_offset_order": (
        "len(list_filter(range(2, len({c}) + 1),"
        " i -> {c}[i].offset < {c}[i - 1].offset)) > 0"
    ),
    "span_count": "{c} IS NULL OR len({c}) < 1 OR len({c}) > {max_spans}",
}


def _lit(v) -> str:
    if isinstance(v, str):
        return "'" + v.replace("'", "''") + "'"
    return repr(v)


def check_sql(spec, test: str) -> str:
    """Boolean SQL expression: the row violates ``test`` on ``spec``."""
    c = f'"{spec.name}"'
    if test == checks.MIN_MAX_TEST:
        parts = []
        if spec.minimum is not None:
            parts.append(f"{c} < {_lit(spec.minimum)}")
        if spec.maximum is not None:
            parts.append(f"{c} > {_lit(spec.maximum)}")
        return " OR ".join(parts)
    if test == checks.MIN_MAX_LENGTH_TEST:
        parts = []
        if spec.min_length is not None:
            parts.append(f"length({c}) < {spec.min_length}")
        if spec.max_length is not None:
            parts.append(f"length({c}) > {spec.max_length}")
        return " OR ".join(parts)
    if test == checks.PATTERN_TEST:
        pat = spec.pattern if spec.pattern.startswith("^") else f"^(?:{spec.pattern})"
        return f"NOT regexp_matches({c}, {_lit(pat)})"
    if test == checks.ENUM_TEST:
        not_in = f"{c} NOT IN ({', '.join(_lit(v) for v in spec.enum)})"
        return f"{c} IS NULL OR {not_in}" if spec.nullable is False else not_in
    if test == checks.NULLABLE_TEST:
        return f"{c} IS NULL"
    if test == checks.DATETIME_FORMAT_TEST:
        fmt = spec.datetime_format or checks.DEFAULT_DATETIME_FORMAT
        return f"{c} <> '' AND try_strptime({c}, {_lit(fmt)}) IS NULL"
    raise ValueError(f"no oracle SQL for {test}")


def expected_counts(
    con: duckdb.DuckDBPyConnection, src: str, schema, tests, refs: dict | None = None
) -> dict:
    """{(column, test): n} over relation ``src`` for the given
    (column, test) pairs; zero counts are dropped, as the engine does.
    ``refs`` maps a referenced span column to (target relation, key)."""
    specs = {c.name: c for c in schema.columns}
    exprs, keys = [], []
    for col, test in tests:
        spec = specs[col]
        if test == checks.UNIQUE_TEST:
            exprs.append(
                f'(SELECT count(*) FROM (SELECT 1 FROM {src} GROUP BY "{col}"'
                " HAVING count(*) > 1))"
            )
        elif test in SPAN_SQL:
            cond = SPAN_SQL[test].format(
                c=f'"{col}"', kinds=repr(KIND_ENUM), pat=MEDIA_REF_PATTERN,
                max_spans=MAX_SPANS,
            )
            exprs.append(f"count(*) FILTER (WHERE {cond})")
        elif test == checks.REFERENTIAL_TEST:
            # span columns only: each dangling media_ref element counts
            target, pk = refs[col]
            exprs.append(
                f'(SELECT count(*) FROM (SELECT unnest("{col}") AS s FROM {src})'
                f' WHERE s.media_ref IS NOT NULL AND s.media_ref NOT IN'
                f' (SELECT "{pk}" FROM {target}))'
            )
        else:
            exprs.append(f"count(*) FILTER (WHERE {check_sql(spec, test)})")
        keys.append((col, test))
    row = con.execute(f"SELECT {', '.join(exprs)} FROM {src}").fetchone()
    return {k: int(v) for k, v in zip(keys, row) if v}


def tests_for(schema) -> list[tuple[str, str]]:
    """(column, test) pairs a flat schema asks for, read off the spec
    fields. Date and timestamp columns are stored as strings in every
    workload, so their format test applies."""
    out = []
    for s in schema.columns:
        wanted = [
            (checks.MIN_MAX_TEST, s.minimum is not None or s.maximum is not None),
            (checks.MIN_MAX_LENGTH_TEST, s.min_length is not None or s.max_length is not None),
            (checks.PATTERN_TEST, bool(s.pattern)),
            (checks.ENUM_TEST, bool(s.enum)),
            (checks.NULLABLE_TEST, s.nullable is False),
            (checks.DATETIME_FORMAT_TEST, s.type.startswith("timestamp")),
            (checks.UNIQUE_TEST, s.unique),
        ]
        out += [(s.name, t) for t, on in wanted if on]
    return out


QUANTILES = (0.01, 0.05, 0.25, 0.5, 0.75, 0.95, 0.99)


def quantile_shift(con: duckdb.DuckDBPyConnection, cur: str, base: str, col: str) -> float:
    """Exact form of the engine's drift distance: the largest quantile
    move divided by the baseline's interquartile range."""
    qs = list(QUANTILES)
    q = f'quantile_cont("{col}", {qs})'
    qc = con.execute(f"SELECT {q} FROM {cur}").fetchone()[0]
    qb = con.execute(f"SELECT {q} FROM {base}").fetchone()[0]
    iqr = qb[qs.index(0.75)] - qb[qs.index(0.25)]
    scale = iqr if iqr > 0 else (abs(qb[qs.index(0.5)]) or 1.0)
    return max(abs(a - b) for a, b in zip(qc, qb)) / scale


def mismatches(got: dict, want: dict) -> list[str]:
    """Readable differences between two {(column, test): n} maps."""
    return [
        f"{k[0]}/{k[1]}: engine {got.get(k, 0)} oracle {want.get(k, 0)}"
        for k in sorted(set(got) | set(want))
        if got.get(k, 0) != want.get(k, 0)
    ]
