"""Driver contract for the graft builder (Ray Data target).

The driver's verify calls ``entry()`` as a smoke check (Ray is already
initialised, local mode), runs each ``queries()[name](sf_dir)`` at
sf=0.01 and compares it against the matching ``oracle_sql()[name]`` via
DuckDB (row-count + schema + order-insensitive value-hash →
CORRECTNESS_r{N}.json).

Ray is initialised by the driver BEFORE this module is imported: no
``ray.init()`` / ``ray.shutdown()`` here or in the library code.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from data_linter_ray import checks
from data_linter_ray.metadata import ColumnSpec, TableSchema
from data_linter_ray.pipelines import validate_dataset

EVENT_ENUM = ["click", "view", "purchase"]
LANG_PATTERN = "^(?:en|es|de|fr)$"
TEXT_MIN_LEN, TEXT_MAX_LEN = 60, 400
VALUE_MIN, VALUE_MAX = 0.0, 100.0


def _events_schema() -> TableSchema:
    return TableSchema(
        name="events",
        columns=[
            ColumnSpec(name="event_id", type="int64", nullable=False, unique=True),
            ColumnSpec(name="user_id", type="int64", nullable=False),
            ColumnSpec(name="value", type="float64", minimum=VALUE_MIN, maximum=VALUE_MAX),
            ColumnSpec(name="event_type", type="string", enum=EVENT_ENUM, nullable=False),
        ],
    )


def _documents_schema() -> TableSchema:
    return TableSchema(
        name="documents",
        columns=[
            ColumnSpec(name="doc_id", type="int64", nullable=False, unique=True),
            ColumnSpec(name="lang", type="string", pattern=LANG_PATTERN),
            ColumnSpec(name="text", type="string", min_length=TEXT_MIN_LEN, max_length=TEXT_MAX_LEN),
            ColumnSpec(name="n_chars", type="int64", minimum=1),
        ],
    )


def _summarize(name: str, schema: TableSchema, res) -> list[dict]:
    r = res.response.get_result()
    rows = []
    for col in schema.column_names:
        if col not in r:
            continue
        for test, tres in r[col].items():
            if test == "valid" or not isinstance(tres, dict):
                continue
            rows.append(
                {
                    "table": name,
                    "column": col,
                    "test": test,
                    "valid": tres["valid"],
                    "n_violations": res.counts.get((col, test), 0),
                    "n_rows": res.row_count,
                }
            )
    return rows


def entry() -> Any:
    """Flagship: (a) full validation of the sf0.001 events + documents
    parquet tables (reference checks + uniqueness); (b) the north-rule
    interleaved-document pipeline — pattern/unique doc_id, span checks,
    media referential integrity — over the deterministic synthetic table.
    Returns the per-table per-column per-test verdict summary."""
    import pandas as pd

    from data_linter_ray import synth

    sf = "/root/testdata/sf0.001"
    rows: list[dict] = []
    for name, schema, id_col in [
        ("events", _events_schema(), "event_id"),
        ("documents", _documents_schema(), "doc_id"),
    ]:
        ds = ray.data.read_parquet(f"{sf}/{name}.parquet")
        res = validate_dataset(
            ds, schema, id_column=id_col, allow_unexpected_data=True
        )
        rows.extend(_summarize(name, schema, res))

    docs = synth.documents_dataset(10_000)
    ischema = synth.documents_schema()
    ires = validate_dataset(
        docs,
        ischema,
        id_column="doc_id",
        ref_tables={"media_catalog.media_ref": synth.media_catalog_dataset()},
    )
    rows.extend(_summarize("interleaved_documents", ischema, ires))
    return pd.DataFrame(rows)


# ---------------------------------------------------------------------------
# queries / oracle pairs (driver runs at sf0.01)
# ---------------------------------------------------------------------------


def _filter_by_mask(columns: list[str], mask_fn) -> Callable[[str], Any]:
    """Build a query: read pruned columns, drop rows not violating."""

    def q(sf_dir: str, _cols=columns, _mask=mask_fn):
        table = _cols[0]
        ds = ray.data.read_parquet(f"{sf_dir}/{table}.parquet", columns=_cols[1:])

        def f(t: pa.Table) -> pa.Table:
            return t.filter(_mask(t))

        return ds.map_batches(f, batch_format="pyarrow")

    return q


def q_minmax_violations(sf_dir: str):
    """events.value out of [0,100] — engine min/max kernel."""
    return _filter_by_mask(
        ["events", "event_id", "value"],
        lambda t: checks.min_max_mask(t["value"], VALUE_MIN, VALUE_MAX),
    )(sf_dir)


def q_enum_violations(sf_dir: str):
    return _filter_by_mask(
        ["events", "event_id", "event_type"],
        lambda t: checks.enum_mask(t["event_type"], EVENT_ENUM, False),
    )(sf_dir)


def q_pattern_violations(sf_dir: str):
    return _filter_by_mask(
        ["documents", "doc_id", "lang"],
        lambda t: checks.pattern_mask(t["lang"], LANG_PATTERN),
    )(sf_dir)


def q_length_violations(sf_dir: str):
    return _filter_by_mask(
        ["documents", "doc_id", "text", "n_chars"],
        lambda t: checks.min_max_length_mask(t["text"], TEXT_MIN_LEN, TEXT_MAX_LEN),
    )(sf_dir).select_columns(["doc_id", "n_chars"])


def q_date_format_violations(sf_dir: str):
    """Derived date strings (mixed formats by event_id parity) failing the
    ISO date-format check — engine date kernel vs DuckDB try_strptime."""
    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["event_id", "ts"])

    def f(t: pa.Table) -> pa.Table:
        even = pc.equal(pc.bit_wise_and(t["event_id"], 1), 0)
        date_str = pc.if_else(
            even,
            pc.strftime(t["ts"], format="%Y-%m-%d"),
            pc.strftime(t["ts"], format="%d/%m/%Y"),
        )
        t = pa.Table.from_arrays(
            [t["event_id"].combine_chunks(), date_str.combine_chunks()],
            names=["event_id", "date_str"],
        )
        return t.filter(checks.date_format_mask(t["date_str"], "%Y-%m-%d"))

    return ds.map_batches(f, batch_format="pyarrow")


def q_unique_violations(sf_dir: str):
    """Duplicate user_ids: ``validate_dataset``'s uniqueness check (the
    fused pass's per-batch pre-aggregates, one hash exchange), its
    ``unique_test`` rows (key, row count) as (user_id, n)."""
    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id"])
    schema = TableSchema(
        name="events", columns=[ColumnSpec(name="user_id", type="int64", unique=True)]
    )
    viol = validate_dataset(ds, schema).violations

    def native(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["test"], checks.UNIQUE_TEST))
        return pa.Table.from_arrays(
            [pc.cast(t[c].combine_chunks(), pa.int64()) for c in ("row_ref", "value")],
            names=["user_id", "n"],
        )

    # empty blocks pass map_batches unchanged, in another schema
    out = viol.map_batches(native, batch_format="pyarrow")
    batches = [b for b in out.iter_batches(batch_format="pyarrow") if b.num_rows]
    target = pa.schema([("user_id", pa.int64()), ("n", pa.int64())])
    return pa.concat_tables(batches) if batches else target.empty_table()


def q_ref_violations(sf_dir: str):
    """Dangling orders.o_custkey → customer.c_custkey: ``validate_dataset``'s
    referential check (the broadcast anti-join at this size), its
    ``referential_test`` rows folded to key level (o_custkey, n)."""
    from ray.data.aggregate import Count

    orders = ray.data.read_parquet(f"{sf_dir}/orders.parquet", columns=["o_custkey"])
    customer = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey"]
    )
    schema = TableSchema(
        name="orders",
        columns=[
            ColumnSpec(name="o_custkey", type="int64", references="customer.c_custkey")
        ],
    )
    viol = validate_dataset(
        orders, schema, ref_tables={"customer.c_custkey": customer}
    ).violations

    def native(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["test"], checks.REFERENTIAL_TEST))
        return pa.Table.from_arrays(
            [pc.cast(t["value"].combine_chunks(), pa.int64())], names=["o_custkey"]
        )

    out = (
        viol.map_batches(native, batch_format="pyarrow")
        .groupby("o_custkey")
        .aggregate(Count(alias_name="n"))
    )
    # pin the schema: an empty Ray aggregate result loses its columns
    target = pa.schema([("o_custkey", pa.int64()), ("n", pa.int64())])
    batches = [b for b in out.iter_batches(batch_format="pyarrow")]
    if not batches:
        return target.empty_table()
    t = pa.concat_tables(batches)
    return t.cast(target) if t.schema.names == target.names else t


def q_verdict_summary(sf_dir: str):
    """Full engine verdict over events: (column, test, n_violations,
    n_rows, pct) — one row per compiled check task."""
    import pandas as pd

    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet")
    schema = _events_schema()
    res = validate_dataset(
        ds, schema, id_column="event_id", allow_unexpected_data=True
    )
    r = res.response.get_result()
    rows = []
    for col in schema.column_names:
        if col not in r or not isinstance(r[col], dict):
            continue
        for test, tres in r[col].items():
            if test == "valid" or not isinstance(tres, dict):
                continue
            n = res.counts.get((col, test), 0)
            rows.append(
                {
                    "column": col,
                    "test": test,
                    "n_violations": n,
                    "n_rows": res.row_count,
                    "pct": (n / res.row_count) * 100 if res.row_count else 0.0,
                }
            )
    return pd.DataFrame(rows).sort_values(["column", "test"]).reset_index(drop=True)


def q_span_verdicts(sf_dir: str):
    """North-rule interleaved pipeline verdict summary over the
    deterministic span fixture (written once as parquet so the DuckDB
    oracle validates the exact same bytes)."""
    import pandas as pd

    from data_linter_ray import synth
    from data_linter_ray.sources.readers import read_parquet_dataset, read_table_dataset

    paths = synth.ensure_span_fixture()
    schema = synth.documents_schema()
    res = validate_dataset(
        read_table_dataset(paths["docs"], schema),
        schema,
        id_column="doc_id",
        ref_tables={"media_catalog.media_ref": read_parquet_dataset(paths["catalog"])},
    )
    rows = [
        {"column": c, "test": t, "n_violations": n}
        for (c, t), n in sorted(res.counts.items())
        if n
    ]
    return pd.DataFrame(rows)


def q_span_equality(sf_dir: str):
    """Span-sequence equality against a reference copy with seeded edits:
    docs whose doc_id ends in "00" get one span's media_ref swapped —
    exactly those rows must be flagged (content-keyed, so deterministic
    under any partitioning). Oracle: DuckDB list<struct> comparison over
    the same fixture parquet."""
    from data_linter_ray import synth
    from data_linter_ray.stages.spans import span_equality_violations

    paths = synth.ensure_span_fixture()
    return span_equality_violations(ray.data.read_parquet(paths["zipped"]))


def q_run_summary(sf_dir: str):
    """Config-driven run lifecycle end-to-end (reference §3.1:
    validation.py run → match → validate → route → log): executes
    ``run_validation`` over a copy of the deterministic land fixture
    and emits the routing table — one row per matched file with its
    verdict, violation count and the root it was routed to.
    ``routed_to`` is derived from the manifest's ARCHIVED path, so the
    row proves the file really moved, not just that a flag was set."""
    import os
    import shutil
    import tempfile

    import pandas as pd

    from data_linter_ray import synth
    from data_linter_ray.pipelines.run import run_validation

    master = synth.ensure_run_fixture()
    work = tempfile.mkdtemp(prefix="dlr_run_summary_")
    land = os.path.join(work, "land")
    shutil.copytree(master, land)
    os.remove(os.path.join(land, "run_fixture.done.json"))
    cfg = {
        "land-base-path": land + "/",
        "pass-base-path": os.path.join(work, "pass") + "/",
        "fail-base-path": os.path.join(work, "fail") + "/",
        "log-base-path": os.path.join(work, "log") + "/",
        "tables": {
            "table1": {
                "pattern": "table1_",
                "metadata": {
                    "name": "table1",
                    "columns": [
                        {
                            "name": "my_int",
                            "type": "int64",
                            "minimum": 10,
                            "maximum": 20,
                            "nullable": False,
                        },
                        {
                            "name": "animal",
                            "type": "string",
                            "enum": ["cat", "dog", "fish", "chicken"],
                            "nullable": False,
                        },
                        {"name": "my_email", "type": "string"},
                    ],
                },
            },
            "events_tbl": {
                "pattern": "events_tbl_",
                "metadata": {
                    "name": "events_tbl",
                    "columns": [
                        {"name": "event_id", "type": "int64"},
                        {
                            "name": "value",
                            "type": "float64",
                            "minimum": 0.0,
                            "maximum": 100.0,
                        },
                    ],
                },
            },
        },
    }
    try:
        res = run_validation(cfg)
        rows = []
        for m in res.manifests:
            routed = "pass" if (m.archived_path or "").startswith(
                cfg["pass-base-path"]
            ) else "fail"
            rows.append(
                {
                    "file_name": os.path.basename(m.source_path),
                    "table_name": m.table,
                    "valid": m.valid,
                    "n_violations": sum((m.counts or {}).values()),
                    "routed_to": routed,
                }
            )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return (
        pd.DataFrame(rows)
        .sort_values("file_name")
        .reset_index(drop=True)
    )


def _run_summary_sql(master: str) -> str:
    """DuckDB mirror of the run lifecycle over the same land-fixture
    bytes: per-file violation counts recomputed with the engine's check
    semantics (min/max nulls pass; enum with nullable=False counts
    nulls; nullable counts nulls) — verdict and routing follow."""
    enum = "'cat','dog','fish','chicken'"

    def t1(fname: str) -> str:
        return (
            f"SELECT '{fname}' AS file_name, 'table1' AS table_name, "
            f"(SELECT count(*) FROM read_parquet('{master}/{fname}') "
            f"  WHERE my_int < 10 OR my_int > 20) + "
            f"(SELECT count(*) FROM read_parquet('{master}/{fname}') "
            f"  WHERE my_int IS NULL) + "
            f"(SELECT count(*) FROM read_parquet('{master}/{fname}') "
            f"  WHERE animal IS NULL OR animal NOT IN ({enum})) + "
            f"(SELECT count(*) FROM read_parquet('{master}/{fname}') "
            f"  WHERE animal IS NULL) AS nv"
        )

    ev = (
        f"SELECT 'events_tbl_file1.parquet' AS file_name, "
        f"'events_tbl' AS table_name, "
        f"(SELECT count(*) FROM read_parquet('{master}/events_tbl_file1.parquet') "
        f" WHERE value < 0 OR value > 100) AS nv"
    )
    return (
        f"WITH per_file AS ({t1('table1_file1.parquet')} "
        f"UNION ALL {t1('table1_file2.parquet')} UNION ALL {ev}) "
        "SELECT file_name, table_name, nv = 0 AS valid, "
        "CAST(nv AS BIGINT) AS n_violations, "
        "CASE WHEN nv = 0 THEN 'pass' ELSE 'fail' END AS routed_to "
        "FROM per_file ORDER BY file_name"
    )


def q_run_summary_csv(sf_dir: str):
    """Config-driven run lifecycle over the CSV ingest path — the
    reference's PRIMARY input format (pandas_validator.py:417-425):
    headered CSV with the default pandas NA set, a headerless file
    (``expect-header`` false → names from the schema), a
    ``pandas-kwargs`` NA-override table (``keep_default_na`` false +
    ``na_values`` [""] → literal "NA" stays a string), and a
    cast-failure file (non-numeric int column → parse_data table test,
    routed to fail with zero row violations). One row per matched file
    with verdict, violation count and the routing root derived from the
    manifest's ARCHIVED path."""
    import os
    import shutil
    import tempfile

    import pandas as pd

    from data_linter_ray import synth
    from data_linter_ray.pipelines.run import run_validation

    master = synth.ensure_csv_run_fixture()
    work = tempfile.mkdtemp(prefix="dlr_run_summary_csv_")
    land = os.path.join(work, "land")
    shutil.copytree(master, land)
    os.remove(os.path.join(land, "csv_run_fixture.done.json"))
    cfg = {
        "land-base-path": land + "/",
        "pass-base-path": os.path.join(work, "pass") + "/",
        "fail-base-path": os.path.join(work, "fail") + "/",
        "log-base-path": os.path.join(work, "log") + "/",
        "tables": {
            "table1": {
                "pattern": "table1_",
                "metadata": {
                    "name": "table1",
                    "columns": [
                        {
                            "name": "my_int",
                            "type": "int64",
                            "minimum": 10,
                            "maximum": 20,
                            "nullable": False,
                        },
                        {
                            "name": "animal",
                            "type": "string",
                            "enum": ["cat", "dog", "fish", "chicken"],
                            "nullable": False,
                        },
                        {"name": "my_email", "type": "string"},
                    ],
                },
            },
            "table2": {
                "pattern": "table2_",
                "expect-header": False,
                "metadata": {
                    "name": "table2",
                    "columns": [
                        {
                            "name": "code",
                            "type": "int64",
                            "minimum": 0,
                            "maximum": 50,
                        },
                        {"name": "name", "type": "string"},
                    ],
                },
            },
            "table3": {
                "pattern": "table3_",
                "pandas-kwargs": {
                    "keep_default_na": False,
                    "na_values": [""],
                },
                "metadata": {
                    "name": "table3",
                    "columns": [
                        {
                            "name": "animal",
                            "type": "string",
                            "enum": ["cat", "NA"],
                            "nullable": False,
                        },
                        {"name": "note", "type": "string"},
                    ],
                },
            },
            "table4": {
                "pattern": "table4_",
                "metadata": {
                    "name": "table4",
                    "columns": [
                        {
                            "name": "my_int",
                            "type": "int64",
                            "minimum": 10,
                            "maximum": 20,
                            "nullable": False,
                        },
                        {"name": "animal", "type": "string"},
                        {"name": "my_email", "type": "string"},
                    ],
                },
            },
        },
    }
    try:
        res = run_validation(cfg)
        rows = []
        for m in res.manifests:
            routed = "pass" if (m.archived_path or "").startswith(
                cfg["pass-base-path"]
            ) else "fail"
            rows.append(
                {
                    "file_name": os.path.basename(m.source_path),
                    "table_name": m.table,
                    "valid": m.valid,
                    "n_violations": sum((m.counts or {}).values()),
                    "routed_to": routed,
                }
            )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return (
        pd.DataFrame(rows)
        .sort_values("file_name")
        .reset_index(drop=True)
    )


def _embedding_clusters_sql() -> str:
    """Unrolled 2-round integer-exact Lloyd k-means (see
    ``kmeans_cluster_quantized``): quantize → init on the 8 smallest
    vec_ids → two assign/floor-mean-update rounds → final assignment.
    Every quantity is integer (HUGEINT folds; floor division via the
    mod identity so ``//`` truncation equals floor), argmin ties break
    to the lowest cluster index — hash-exact vs the Ray pipeline."""
    K = 8

    def d2(a: str, b: str) -> str:
        return (
            f"list_sum(list_transform(list_zip({a}, {b}), "
            f"p -> (p[1]-p[2])*(p[1]-p[2])))"
        )

    def assign(tag: str, cents: str) -> str:
        return (
            f"{tag} AS (SELECT vec_id, e, cl FROM ("
            f"SELECT q.vec_id, q.e, c.cl, "
            f"row_number() OVER (PARTITION BY q.vec_id "
            f"ORDER BY {d2('q.e', 'c.e')}, c.cl) AS rn "
            f"FROM q CROSS JOIN {cents} c) WHERE rn = 1)"
        )

    def update(tag: str, asg: str, prev: str) -> str:
        # floor mean: subtract the python-style mod so // (truncating)
        # equals floor for negative sums too
        s = f"sum({asg}.e[dim])"
        c = "count(*)"
        val = f"CAST(({s} - (({s} % {c}) + {c}) % {c}) // {c} AS BIGINT)"
        return (
            f"u{tag} AS (SELECT cl, list(val ORDER BY dim) AS e FROM ("
            f"SELECT {asg}.cl, dims.dim, {val} AS val "
            f"FROM {asg} CROSS JOIN dims GROUP BY {asg}.cl, dims.dim) "
            f"GROUP BY cl), "
            f"c{tag} AS (SELECT {prev}.cl, coalesce(u{tag}.e, {prev}.e) AS e "
            f"FROM {prev} LEFT JOIN u{tag} USING (cl))"
        )

    return (
        "WITH q AS (SELECT vec_id, list_transform(embedding, "
        "x -> CAST(floor(CAST(x AS DOUBLE)*10000 + 0.5) AS BIGINT)) AS e "
        "FROM embeddings), "
        f"c0 AS (SELECT row_number() OVER (ORDER BY vec_id) - 1 AS cl, e "
        f"FROM q ORDER BY vec_id LIMIT {K}), "
        "dims AS (SELECT unnest(range(1, CAST((SELECT len(embedding) "
        "FROM embeddings LIMIT 1) AS BIGINT) + 1)) AS dim), "
        + assign("a1", "c0") + ", "
        + update("1", "a1", "c0") + ", "
        + assign("a2", "c1") + ", "
        + update("2", "a2", "c1") + " "
        "SELECT vec_id, cl AS cluster, CAST(d2 AS BIGINT) AS dist2 FROM ("
        "SELECT q.vec_id, c.cl, " + d2("q.e", "c.e") + " AS d2, "
        "row_number() OVER (PARTITION BY q.vec_id "
        "ORDER BY " + d2("q.e", "c.e") + ", c.cl) AS rn "
        "FROM q CROSS JOIN c2 c) WHERE rn = 1 ORDER BY vec_id"
    )


def _run_summary_csv_sql(master: str) -> str:
    """DuckDB mirror of the CSV-ingest lifecycle over the same land
    bytes: per-file violation counts recomputed from ``read_csv`` with
    the engine's NA conventions spelled out (default pandas NA set →
    'NA' is null; kwargs override → only '' is null), header handling
    (headerless files read with schema column names), and the cast
    failure reproduced via TRY_CAST existence."""
    enum = "'cat','dog','fish','chicken'"

    def t1(fname: str) -> str:
        # default pandas NA set: of the strings present in the fixture,
        # '' (DuckDB default nullstr) and 'NA' (explicit NULLIF) are null
        src = (
            f"SELECT TRY_CAST(NULLIF(my_int,'NA') AS BIGINT) AS mi, "
            f"NULLIF(animal,'NA') AS an "
            f"FROM read_csv('{master}/{fname}', header=true, all_varchar=true)"
        )
        return (
            f"SELECT '{fname}' AS file_name, 'table1' AS table_name, "
            f"(SELECT count(*) FROM ({src}) WHERE mi < 10 OR mi > 20) + "
            f"(SELECT count(*) FROM ({src}) WHERE mi IS NULL) + "
            f"(SELECT count(*) FROM ({src}) "
            f"  WHERE an IS NULL OR an NOT IN ({enum})) + "
            f"(SELECT count(*) FROM ({src}) WHERE an IS NULL) AS nv, "
            f"false AS parse_fail"
        )

    t2 = (
        f"SELECT 'table2_file1.csv' AS file_name, 'table2' AS table_name, "
        f"(SELECT count(*) FROM read_csv('{master}/table2_file1.csv', "
        f"header=false, columns={{'code':'BIGINT','name':'VARCHAR'}}) "
        f"WHERE code < 0 OR code > 50) AS nv, false AS parse_fail"
    )
    t3 = (
        f"SELECT 'table3_file1.csv' AS file_name, 'table3' AS table_name, "
        f"(SELECT count(*) FROM read_csv('{master}/table3_file1.csv', "
        f"header=true, all_varchar=true) "
        f"WHERE animal IS NULL OR animal NOT IN ('cat','NA')) + "
        f"(SELECT count(*) FROM read_csv('{master}/table3_file1.csv', "
        f"header=true, all_varchar=true) WHERE animal IS NULL) AS nv, "
        f"false AS parse_fail"
    )
    t4 = (
        f"SELECT 'table4_file1.csv' AS file_name, 'table4' AS table_name, "
        f"0 AS nv, "
        f"EXISTS(SELECT 1 FROM read_csv('{master}/table4_file1.csv', "
        f"header=true, all_varchar=true) "
        f"WHERE TRY_CAST(my_int AS BIGINT) IS NULL AND my_int IS NOT NULL"
        f") AS parse_fail"
    )
    return (
        f"WITH per_file AS ({t1('table1_file1.csv')} "
        f"UNION ALL {t1('table1_file2.csv')} "
        f"UNION ALL {t2} UNION ALL {t3} UNION ALL {t4}) "
        "SELECT file_name, table_name, (nv = 0 AND NOT parse_fail) AS valid, "
        "CAST(nv AS BIGINT) AS n_violations, "
        "CASE WHEN nv = 0 AND NOT parse_fail THEN 'pass' ELSE 'fail' END "
        "AS routed_to FROM per_file ORDER BY file_name"
    )


def q_span_stats(sf_dir: str):
    """Per-document span composition over the interleaved fixture
    (north-rule data model): span/kind counts, text char mass, max
    offset — one streaming pass, zero shuffle (np.add.reduceat over
    the flat span stream)."""
    from data_linter_ray import synth
    from data_linter_ray.functions.interleaved import span_stats

    paths = synth.ensure_span_fixture()
    return span_stats(ray.data.read_parquet(paths["docs"]))


def q_doc_texts(sf_dir: str):
    """Render interleaved documents to training text: text-kind span
    texts joined in span order (the flattening step feeding the
    text-side curation ops). Oracle: string_agg ORDER BY subscript."""
    from data_linter_ray import synth
    from data_linter_ray.functions.interleaved import extract_text

    paths = synth.ensure_span_fixture()
    return extract_text(ray.data.read_parquet(paths["docs"]))


def q_media_ref_counts(sf_dir: str):
    """Corpus media-asset usage counts over the interleaved fixture:
    per-batch distinct (ref, partial) combiner → ref-hash exchange —
    hot assets cost one row per batch, never one per span."""
    from data_linter_ray import synth
    from data_linter_ray.functions.interleaved import media_ref_counts

    paths = synth.ensure_span_fixture()
    return media_ref_counts(ray.data.read_parquet(paths["docs"]), min_refs=2)


def q_span_kind_mix(sf_dir: str):
    """Corpus kind histogram (spans + documents per kind, malformed
    kinds included) — zero-shuffle partial fold."""
    from data_linter_ray import synth
    from data_linter_ray.functions.interleaved import span_kind_mix

    paths = synth.ensure_span_fixture()
    return span_kind_mix(ray.data.read_parquet(paths["docs"]))


def _interleaved_sql(docs_path: str) -> dict[str, str]:
    """DuckDB mirrors of the interleaved analysis ops over the exact
    span-fixture bytes (rid = stable row number, matching the engine's
    per-row semantics under duplicate doc_ids)."""
    flat = (
        f"docs AS (SELECT row_number() OVER () AS rid, doc_id, spans "
        f"FROM read_parquet('{docs_path}')), "
        "f AS (SELECT rid, doc_id, generate_subscripts(spans, 1) AS pos, "
        "unnest(spans, recursive := true) FROM docs)"
    )
    return {
        "span_stats": (
            f"WITH {flat} "
            "SELECT d.doc_id, len(d.spans) AS n_spans, "
            "CAST(coalesce(s.n_text, 0) AS BIGINT) AS n_text, "
            "CAST(coalesce(s.n_image, 0) AS BIGINT) AS n_image, "
            "CAST(coalesce(s.n_audio, 0) AS BIGINT) AS n_audio, "
            "CAST(coalesce(s.n_video, 0) AS BIGINT) AS n_video, "
            "CAST(coalesce(s.text_chars, 0) AS BIGINT) AS text_chars, "
            "s.max_offset FROM docs d LEFT JOIN ("
            "SELECT rid, count_if(kind = 'text') AS n_text, "
            "count_if(kind = 'image') AS n_image, "
            "count_if(kind = 'audio') AS n_audio, "
            "count_if(kind = 'video') AS n_video, "
            "CAST(sum(CASE WHEN kind = 'text' AND text IS NOT NULL "
            "THEN length(text) ELSE 0 END) AS BIGINT) AS text_chars, "
            "CAST(max(\"offset\") AS BIGINT) AS max_offset "
            "FROM f GROUP BY rid) s USING (rid)"
        ),
        "doc_texts": (
            f"WITH {flat} "
            "SELECT doc_id, string_agg(text, ' ' ORDER BY pos) AS text "
            "FROM f WHERE kind = 'text' AND text IS NOT NULL "
            "GROUP BY rid, doc_id"
        ),
        "media_ref_counts": (
            f"WITH {flat} "
            "SELECT media_ref, count(*) AS n_refs FROM f "
            "WHERE media_ref IS NOT NULL GROUP BY media_ref "
            "HAVING count(*) >= 2"
        ),
        "span_kind_mix": (
            f"WITH {flat} "
            "SELECT kind, count(*) AS n_spans, "
            "CAST(count(DISTINCT rid) AS BIGINT) AS n_docs FROM f "
            "WHERE kind IS NOT NULL GROUP BY kind ORDER BY kind"
        ),
    }


def q_c4_clean_documents(sf_dir: str):
    """C4-style line-level cleaning over the documents corpus. The
    corpus has no newlines, so both sides deterministically construct
    lines first (the _PII_INJECT_SQL pattern): every 8th word boundary
    becomes '.\\n' via one RE2 global replace, docs with doc_id%7==0
    get a boilerplate 'lorem ipsum' line and doc_id%11==0 a 2-word
    line — then the identical keep rules run on both sides."""
    import numpy as np

    from data_linter_ray.functions.text import clean_lines

    docs = _docs(sf_dir, ["doc_id", "text"])

    def inject(t: pa.Table) -> pa.Table:
        lined = pc.replace_substring_regex(
            t["text"].combine_chunks() if isinstance(t["text"], pa.ChunkedArray) else t["text"],
            r"((\S+ ){7}\S+) ",
            "\\1.\n",  # RE2 rewrite: escaped group ref + a REAL newline
        )
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        pre = np.where(ids % 7 == 0, "lorem ipsum dolor sit amet.\n", "")
        pre = np.char.add(pre.astype("U40"), np.where(ids % 11 == 0, "ok go.\n", ""))
        out = pc.binary_join_element_wise(
            pa.array(pre.astype(object), pa.string()), lined, pa.scalar("")
        )
        return pa.table({"doc_id": t["doc_id"], "text": out})

    return clean_lines(docs.map_batches(inject, batch_format="pyarrow"))


_C4_SQL = (
    "WITH lined AS (SELECT doc_id, "
    "CASE WHEN doc_id % 7 = 0 THEN 'lorem ipsum dolor sit amet.' || chr(10) "
    "ELSE '' END || "
    "CASE WHEN doc_id % 11 = 0 THEN 'ok go.' || chr(10) ELSE '' END || "
    r"regexp_replace(text, '((\S+ ){7}\S+) ', '\1.' || chr(10), 'g') AS t "
    "FROM documents), "
    "ls AS (SELECT doc_id, str_split(t, chr(10)) AS a FROM lined), "
    "k AS (SELECT doc_id, CAST(len(a) AS BIGINT) AS n_all, "
    "list_filter(a, l -> regexp_matches(l, '[.!?\"]$') "
    r"AND len(regexp_extract_all(l, '\S+')) >= 3 "
    "AND NOT regexp_matches(lower(l), 'lorem ipsum|javascript')) AS kept "
    "FROM ls) "
    "SELECT doc_id, array_to_string(kept, chr(10)) AS text_clean, "
    "CAST(len(kept) AS BIGINT) AS n_kept, "
    "n_all - CAST(len(kept) AS BIGINT) AS n_dropped "
    "FROM k WHERE len(kept) >= 1"
)


def q_span_text_dedup(sf_dir: str):
    """Interleaved → text-side pipeline composition: render span docs to
    training text (extract_text), double the corpus with 'dup-'-prefixed
    ids, exact-dedup by rendered text — survivor per text = lexicographic
    min doc_id (originals: 'doc-…' < 'dup-…'). Proves the span
    flattening feeds the dedup machinery unchanged."""
    from data_linter_ray import synth
    from data_linter_ray.functions import dedup as D
    from data_linter_ray.functions.interleaved import extract_text

    paths = synth.ensure_span_fixture()
    texts = extract_text(ray.data.read_parquet(paths["docs"]))

    def pref(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": pc.binary_join_element_wise(
                    pa.scalar("dup-"), t["doc_id"], pa.scalar("")
                ),
                "text": t["text"],
            }
        )

    doubled = texts.union(texts.map_batches(pref, batch_format="pyarrow"))
    return D.exact_dedup(doubled, "text", "doc_id")


def _span_text_dedup_sql(docs_path: str) -> str:
    return (
        f"WITH docs AS (SELECT row_number() OVER () AS rid, doc_id, spans "
        f"FROM read_parquet('{docs_path}')), "
        "f AS (SELECT rid, doc_id, generate_subscripts(spans, 1) AS pos, "
        "unnest(spans, recursive := true) FROM docs), "
        "t AS (SELECT rid, doc_id, string_agg(text, ' ' ORDER BY pos) AS txt "
        "FROM f WHERE kind = 'text' AND text IS NOT NULL GROUP BY rid, doc_id), "
        "doubled AS (SELECT doc_id, txt FROM t "
        "UNION ALL SELECT 'dup-' || doc_id, txt FROM t) "
        "SELECT min(doc_id) AS doc_id, txt AS text FROM doubled GROUP BY txt"
    )


def _docs(sf_dir: str, cols=None):
    return ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=cols)


def q_token_stats(sf_dir: str):
    from data_linter_ray.functions import text as T

    return T.with_token_counts(_docs(sf_dir, ["doc_id", "text"])).select_columns(
        ["doc_id", "n_tokens_ws", "n_tokens_bpe"]
    )


def q_quality_stats(sf_dir: str):
    from data_linter_ray.functions import text as T

    return T.with_quality(_docs(sf_dir, ["doc_id", "text"])).select_columns(
        ["doc_id", "n_chars_q", "n_punct", "n_digits", "n_stopwords"]
    )


def q_fingerprints(sf_dir: str):
    from data_linter_ray.functions import text as T

    return T.with_fingerprint(_docs(sf_dir, ["doc_id", "text"])).select_columns(
        ["doc_id", "fp_md5"]
    )


def q_langid(sf_dir: str):
    """Heuristic language ID (rows-only: not SQL-expressible)."""
    from data_linter_ray.functions import text as T

    return T.with_langid(_docs(sf_dir, ["doc_id", "lang", "text"])).select_columns(
        ["doc_id", "lang", "lang_pred"]
    )


def q_exact_dedup(sf_dir: str):
    """Exact dedup survivors over documents ∪ shifted-id copy — survivor
    per distinct text = min doc_id (hash-partitioned two-level reduce)."""
    from data_linter_ray.functions import dedup as D

    docs = _docs(sf_dir, ["doc_id", "text"])

    def shift(t: pa.Table) -> pa.Table:
        return t.set_column(
            t.schema.get_field_index("doc_id"), "doc_id", pc.add(t["doc_id"], 1000000)
        )

    doubled = docs.union(docs.map_batches(shift, batch_format="pyarrow"))
    return D.exact_dedup(doubled, "text", "doc_id")


def q_minhash_dedup(sf_dir: str):
    """MinHash-LSH candidates verified by exact n-gram Jaccard over the
    near-dup corpus (docs ∪ one-token-appended copies). Rows-only."""
    from data_linter_ray.functions import dedup as D

    docs = _docs(sf_dir, ["doc_id", "text"])

    def mutate(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": pc.add(t["doc_id"], 10_000),
                "text": pc.binary_join_element_wise(
                    t["text"], pa.array(["zzz"] * t.num_rows), " "
                ),
            }
        )

    corpus = docs.union(docs.map_batches(mutate, batch_format="pyarrow"))
    # dedupe=False: verify's bounded broadcast path folds the cross-band
    # pair dedupe, saving the dedicated pair-hash exchange
    cand = D.minhash_lsh_candidates(corpus, dedupe=False)
    verified = D.verify_candidates_jaccard(corpus, cand, threshold=0.7)
    return (
        verified.select_columns(["id_a", "id_b"])
        .to_pandas()
        .sort_values(["id_a", "id_b"])
        .reset_index(drop=True)
    )


def q_dedup_groups(sf_dir: str):
    """Near-dup GROUP assignment — the dedup completion step: minhash
    LSH candidates → exact Jaccard verify → connected components over
    the verified pairs (hash-min label propagation / union-find).
    Returns (doc_id, component_id = min id in the component); survivors
    are the rows with doc_id == component_id."""
    from data_linter_ray.functions import dedup as D

    docs = _docs(sf_dir, ["doc_id", "text"])

    def mutate(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": pc.add(t["doc_id"], 10_000),
                "text": pc.binary_join_element_wise(
                    t["text"], pa.array(["zzz"] * t.num_rows), " "
                ),
            }
        )

    corpus = docs.union(docs.map_batches(mutate, batch_format="pyarrow"))
    cand = D.minhash_lsh_candidates(corpus, dedupe=False)
    verified = D.verify_candidates_jaccard(corpus, cand, threshold=0.7)
    return (
        D.dedup_components(verified)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


def q_deduped_documents(sf_dir: str):
    """The full dedup story end-to-end: LSH candidates → exact Jaccard
    verify → connected components → keep only group survivors (min id)
    plus all unpaired docs. Returns surviving doc_ids."""
    from data_linter_ray.functions import dedup as D

    docs = _docs(sf_dir, ["doc_id", "text"])

    def mutate(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": pc.add(t["doc_id"], 10_000),
                "text": pc.binary_join_element_wise(
                    t["text"], pa.array(["zzz"] * t.num_rows), " "
                ),
            }
        )

    corpus = docs.union(docs.map_batches(mutate, batch_format="pyarrow"))
    cand = D.minhash_lsh_candidates(corpus, dedupe=False)
    verified = D.verify_candidates_jaccard(corpus, cand, threshold=0.7)
    comps = D.dedup_components(verified)
    return (
        D.drop_near_duplicates(corpus, comps)
        .select_columns(["doc_id"])
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


def q_events_hopping(sf_dir: str):
    """Hopping-window aggregate (24h windows advancing every 12h — each
    event lands in exactly two windows): the per-batch map REPLICATES
    each row into its member windows (vectorized concat, no Python per
    row), then one groupby-aggregate. The flat-map expansion factor is
    window/hop, bounded and known at plan time."""
    from ray.data.aggregate import Count, Max, Min

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["ts", "event_type", "value"]
    )
    HOP_US = 12 * 3600 * 1_000_000
    N_HOPS = 2  # window = N_HOPS × hop

    def expand(t: pa.Table) -> pa.Table:
        import numpy as np

        ts_us = t["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        base = (ts_us // HOP_US) * HOP_US
        starts = np.concatenate(
            [base - k * HOP_US for k in range(N_HOPS)]
        )
        et = t["event_type"].combine_chunks()
        val = t["value"].combine_chunks()
        return pa.table(
            {
                "window_start": pa.array(starts).cast(pa.timestamp("us")),
                "event_type": pa.concat_arrays([et] * N_HOPS),
                "value": pa.concat_arrays([val] * N_HOPS),
            }
        )

    return (
        ds.map_batches(expand, batch_format="pyarrow")
        .groupby(["event_type", "window_start"])
        .aggregate(
            Count(alias_name="n"),
            Min("value", alias_name="min_value"),
            Max("value", alias_name="max_value"),
        )
        .map_batches(
            lambda t: t.set_column(
                t.schema.get_field_index("window_start"),
                "window_start",
                t["window_start"].cast(pa.timestamp("us")),
            ),
            batch_format="pyarrow",
        )
    )


def q_events_windowed(sf_dir: str):
    """Tumbling-window aggregate (1-day windows per event_type): the
    streaming-window operator class expressed Ray-Data-first — derive
    the window key vectorized per batch, then one groupby-aggregate
    (min/max chosen over sum: order-independent, so the hash compare vs
    SQL is exact)."""
    from ray.data.aggregate import Count, Max, Min

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["ts", "event_type", "value"]
    )

    def add_window(t: pa.Table) -> pa.Table:
        return t.append_column("day", pc.floor_temporal(t["ts"], unit="day"))

    def norm_day(t: pa.Table) -> pa.Table:
        # the aggregate narrows the midnight-only key to timestamp[s];
        # DuckDB's date_trunc stays [us] — restore dtype parity for the
        # driver's hash compare
        return t.set_column(
            t.schema.get_field_index("day"),
            "day",
            pc.cast(t["day"], pa.timestamp("us")),
        )

    return (
        ds.map_batches(add_window, batch_format="pyarrow")
        .groupby(["event_type", "day"])
        .aggregate(
            Count(alias_name="n"),
            Min("value", alias_name="min_value"),
            Max("value", alias_name="max_value"),
        )
        .map_batches(norm_day, batch_format="pyarrow")
    )


def q_fingerprints_modp(sf_dir: str):
    """0-mod-p rolling-hash document fingerprints (Manber 1994 / Broder
    shingle sampling): flattened (doc_id, fp) rows, md5-parity hash so
    the DuckDB oracle is exact."""
    from data_linter_ray.functions import text as T

    return T.with_modp_fingerprints(_docs(sf_dir, ["doc_id", "text"]))


def q_asof_purchases(sf_dir: str):
    """As-of join: each non-purchase event picks up the same user's
    latest prior purchase (ts ≤ event ts). Oracle: DuckDB ASOF LEFT
    JOIN. The right side is deduped per (user_id, ts) so both engines'
    tie semantics coincide."""
    from data_linter_ray.functions.timeseries import asof_join

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts", "event_type", "value"],
    )
    left = ds.map_batches(
        lambda t: t.filter(pc.not_equal(t["event_type"], "purchase")).select(
            ["event_id", "user_id", "ts"]
        ),
        batch_format="pyarrow",
    )

    def purchases(t: pa.Table) -> pa.Table:
        p = t.filter(pc.equal(t["event_type"], "purchase"))
        return pa.table(
            {
                "user_id": p["user_id"],
                "ts": p["ts"],
                "purchase_value": p["value"],
                "purchase_ts": p["ts"],
            }
        )

    # per-(user, ts) dedupe happens INSIDE the join's partition merge
    # (co-located by the key hash) — no separate groupby exchange
    return asof_join(
        left,
        ds.map_batches(purchases, batch_format="pyarrow"),
        on="ts",
        by="user_id",
        right_dedupe_agg={"purchase_value": "max", "purchase_ts": "max"},
    )


def q_range_events(sf_dir: str):
    """Range (interval) join: for each purchase, count the same user's
    non-purchase events in the hour before it (inclusive bounds).
    Oracle: DuckDB BETWEEN join + group-by."""
    from data_linter_ray.functions.timeseries import range_join

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts", "event_type"]
    )
    left = ds.map_batches(
        lambda t: t.filter(pc.not_equal(t["event_type"], "purchase")).select(
            ["user_id", "ts"]
        ),
        batch_format="pyarrow",
    )

    def purchases(t: pa.Table) -> pa.Table:
        p = t.filter(pc.equal(t["event_type"], "purchase"))
        hour = pa.scalar(3_600_000_000, pa.duration("us"))
        return pa.table(
            {
                "user_id": p["user_id"],
                "start_ts": pc.subtract(p["ts"], hour),
                "purchase_ts": p["ts"],
            }
        )

    right = ds.map_batches(purchases, batch_format="pyarrow")
    # every (user_id, purchase_ts) group's matches are complete within
    # one partition (the join exchanges by hash(user_id)), so the count
    # runs in the join's post hook — no second global shuffle
    def count_per_purchase(df):
        out = df.groupby(["user_id", "purchase_ts"], as_index=False).size()
        return out.rename(columns={"size": "n_events"})

    return range_join(
        left, right,
        left_time="ts", right_start="start_ts", right_end="purchase_ts",
        by="user_id",
        post=count_per_purchase,
    )


def q_session_stats(sf_dir: str):
    """Session windows (30-minute gap) per user over the events stream —
    gaps-and-islands, vectorized inside each key-hash partition. Oracle:
    DuckDB lag/cumsum window SQL."""
    import pandas as pd

    from data_linter_ray.functions.timeseries import sessionize

    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id", "ts"])
    return sessionize(
        ds, time_col="ts", by="user_id", gap=pd.Timedelta(minutes=30)
    )


def q_profile(sf_dir: str):
    """One-pass column-stats profile of the events table (n, nulls,
    min/max folded in native type). The HLL approx_distinct field is
    excluded here (approximate by construction — asserted within
    tolerance in pytest instead); the exact fields oracle against plain
    SQL aggregates."""
    from data_linter_ray.functions.profile import profile_dataset

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "event_type", "ts"],
    )
    out = profile_dataset(ds, ["event_id", "user_id", "event_type", "ts"])
    return out.select(["column", "n", "n_null", "min_str", "max_str"])


def q_clean_documents(sf_dir: str):
    """Row-level quarantine: the CLEAN rows of documents under its lint
    schema (pattern/length/min row-local checks). Oracle: the same
    predicates as SQL WHERE."""
    from data_linter_ray.stages.quarantine import split_valid_rows

    ds = _docs(sf_dir, ["doc_id", "lang", "text", "n_chars"])
    valid, _invalid = split_valid_rows(ds, _documents_schema())
    return valid.select_columns(["doc_id"])


def q_jaccard_pairs(sf_dir: str):
    """Exact n-gram Jaccard for every (doc, doc+' zzz') pair over the
    near-dup corpus — oracle-proves the distributed shingle-set Jaccard
    kernel against DuckDB trigram list algebra (bit-exact division)."""
    from data_linter_ray.functions import dedup as D

    docs = _docs(sf_dir, ["doc_id", "text"])

    def mutate(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": pc.add(t["doc_id"], 10_000),
                "text": pc.binary_join_element_wise(
                    t["text"], pa.array(["zzz"] * t.num_rows), " "
                ),
            }
        )

    corpus = docs.union(docs.map_batches(mutate, batch_format="pyarrow"))
    pairs = docs.select_columns(["doc_id"]).map_batches(
        lambda t: pa.table(
            {"id_a": t["doc_id"], "id_b": pc.add(t["doc_id"], 10_000)}
        ),
        batch_format="pyarrow",
    )
    return D.verify_candidates_jaccard(corpus, pairs, threshold=0.0)


def q_simhash_dedup(sf_dir: str):
    """SimHash near-dup pairs over the same corpus, in oracle-parity
    ``hash="md5"`` mode: 4×16-bit chunk banding has exact (pigeonhole)
    recall at hamming ≤ 3, and DuckDB reproduces the md5 token-hash
    signature bit-for-bit — so the pair set has an exact SQL oracle."""
    from data_linter_ray.functions import dedup as D

    docs = _docs(sf_dir, ["doc_id", "text"])

    def mutate(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": pc.add(t["doc_id"], 10_000),
                "text": pc.binary_join_element_wise(
                    t["text"], pa.array(["zzz"] * t.num_rows), " "
                ),
            }
        )

    corpus = docs.union(docs.map_batches(mutate, batch_format="pyarrow"))
    # max_bucket raised above the corpus's densest signature band so the
    # oracle comparison is cap-free at BOTH sf0.01 and sf0.1 (the default
    # 256 cap truncated ~5% of pairs at sf0.1, correctly flagged); the
    # cap/truncated contract itself is pinned by
    # tests/test_functions.py::test_near_dup_truncated_flag
    return D.simhash_near_duplicates(
        corpus, max_hamming=3, hash="md5", max_bucket=8192
    )


def q_knn(sf_dir: str):
    """Brute-force cosine top-10 for query vectors 0..4."""
    from data_linter_ray.functions import similarity as S

    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet")
    return S.knn_brute_force(ds, query_ids=[0, 1, 2, 3, 4], k=10)


def q_embedding_near_dups(sf_dir: str):
    from data_linter_ray.functions import similarity as S

    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet")
    return S.embedding_near_duplicates(ds, threshold=0.45)


def _lineitem_schema() -> TableSchema:
    return TableSchema(
        name="lineitem",
        columns=[
            ColumnSpec(name="l_orderkey", type="int64", nullable=False),
            ColumnSpec(name="l_linenumber", type="int32", minimum=1, maximum=4),
            ColumnSpec(name="l_quantity", type="float64", minimum=1.0, maximum=40.0),
            ColumnSpec(name="l_discount", type="float64", minimum=0.0, maximum=0.05),
            ColumnSpec(name="l_returnflag", type="string", enum=["A", "N"], nullable=False),
            ColumnSpec(name="l_linestatus", type="string", enum=["O", "F"], nullable=False),
        ],
    )


def q_lineitem_verdict(sf_dir: str):
    """Full engine verdict over lineitem — six columns, mixed check
    families, deliberately tight bounds so every test has violations."""
    import pandas as pd

    ds = ray.data.read_parquet(f"{sf_dir}/lineitem.parquet")
    schema = _lineitem_schema()
    res = validate_dataset(ds, schema, allow_unexpected_data=True)
    r = res.response.get_result()
    rows = []
    for col in schema.column_names:
        if col not in r or not isinstance(r[col], dict):
            continue
        for test, tres in r[col].items():
            if test == "valid" or not isinstance(tres, dict):
                continue
            n = res.counts.get((col, test), 0)
            rows.append(
                {"column": col, "test": test, "n_violations": n, "n_rows": res.row_count}
            )
    return pd.DataFrame(rows).sort_values(["column", "test"]).reset_index(drop=True)


def q_customer_acctbal_violations(sf_dir: str):
    return _filter_by_mask(
        ["customer", "c_custkey", "c_acctbal"],
        lambda t: checks.min_max_mask(t["c_acctbal"], 0.0, 9000.0),
    )(sf_dir)


def q_star_ref_check(sf_dir: str):
    """Referential sweep over the star schema: dangling-FK counts for
    lineitem→orders/part/supplier and orders→customer in one result.

    Single fused execution: the four dimension key sets are read
    driver-side (dimensions are broadcast-small by definition of this
    path) and shipped once via ray.put; the four fact scans emit ONE
    partial-count row per batch and union into a single pipeline — one
    Ray execution instead of four (4.8s → ~1.5s at sf0.1)."""
    import pandas as pd
    import pyarrow.parquet as pq

    import ray as _ray

    pairs = [
        ("lineitem", "l_orderkey", "orders", "o_orderkey"),
        ("lineitem", "l_partkey", "part", "p_partkey"),
        ("lineitem", "l_suppkey", "supplier", "s_suppkey"),
        ("orders", "o_custkey", "customer", "c_custkey"),
    ]
    sets = {
        fk: pc.unique(
            pq.read_table(f"{sf_dir}/{dim}.parquet", columns=[pk])[pk].combine_chunks()
        )
        for _fact, fk, dim, pk in pairs
    }
    sets_ref = _ray.put(sets)

    def partials(t: pa.Table, _fks: tuple) -> pa.Table:
        all_sets = _ray.get(sets_ref) if isinstance(sets_ref, _ray.ObjectRef) else sets_ref
        names, ns = [], []
        for _fk in _fks:
            col = t[_fk]
            dangling = pc.and_(
                pc.invert(pc.is_null(col)),
                pc.invert(
                    pc.fill_null(pc.is_in(col, value_set=all_sets[_fk]), False)
                ),
            )
            names.append(_fk)
            ns.append(pc.sum(dangling).as_py() or 0)
        return pa.table(
            {"fk": pa.array(names, pa.string()), "n": pa.array(ns, pa.int64())}
        )

    by_fact: dict[str, list[str]] = {}
    for fact, fk, _dim, _pk in pairs:
        by_fact.setdefault(fact, []).append(fk)
    parts = None
    for fact, fks in by_fact.items():  # each fact table scanned ONCE
        ds = ray.data.read_parquet(
            f"{sf_dir}/{fact}.parquet", columns=list(fks)
        ).map_batches(
            lambda t, _fks=tuple(fks): partials(t, _fks), batch_format="pyarrow"
        )
        parts = ds if parts is None else parts.union(ds)
    df = parts.to_pandas()  # ≤ one tiny row per batch
    return (
        df.groupby("fk", as_index=False)["n"].sum()
        .rename(columns={"n": "n_dangling"})
        .sort_values("fk")
        .reset_index(drop=True)
    )


def q_orders_by_nation(sf_dir: str):
    """Star-schema equi-join (orders ⋈ customer on custkey) → per-nation
    aggregate. The join dispatcher broadcasts the dimension side (Acero
    per-batch hash join — neither side shuffles); the shuffle path stays
    reachable via strategy="shuffle" and is parity-tested. Only
    order-independent aggregates (count/min/max) so the value-hash
    compare vs SQL is exact."""
    from ray.data.aggregate import Count, Max, Min

    from data_linter_ray.functions.joins import equi_join

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_totalprice"]
    )
    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"]
    )
    joined = equi_join(orders, cust, on=("o_custkey",), right_on=("c_custkey",))
    return joined.groupby("c_nationkey").aggregate(
        Count(alias_name="n"),
        Min("o_totalprice", alias_name="min_price"),
        Max("o_totalprice", alias_name="max_price"),
    )


def q_orders_summary(sf_dir: str):
    from ray.data.aggregate import Count, Max, Min

    ds = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderpriority", "o_totalprice"]
    )
    return ds.groupby("o_orderpriority").aggregate(
        Count(alias_name="n"),
        Min("o_totalprice", alias_name="min_price"),
        Max("o_totalprice", alias_name="max_price"),
    )


def q_drift(sf_dir: str):
    """Distribution-drift verdicts: events.value + user_id sketched, then
    checked against their own baseline (distance 0) and against a
    shifted copy (drift fires). Oracle: verdict-level — the sketch-based
    pass/fail booleans must agree with exact SQL quantiles computing the
    same drift formula (distances are approximate; verdicts are not)."""
    import pandas as pd

    from data_linter_ray.stages.sketch_stage import (
        cardinality_drift,
        compute_sketches,
        quantile_drift,
    )

    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["value", "user_id"])

    # ONE sketch execution: derive the comparison columns per batch
    # (zero-copy alias for the self case, a scalar multiply for the
    # shifted case) and sketch all of them in the same pass — was three
    # full executions (base, self re-sketch, shifted re-sketch)
    def derive(t: pa.Table) -> pa.Table:
        return t.append_column(
            "value_self", t["value"]
        ).append_column("value_shifted", pc.multiply(t["value"], 2.0)).append_column(
            "user_id_self", t["user_id"]
        )

    sk = compute_sketches(
        ds.map_batches(derive, batch_format="pyarrow"),
        ["value", "value_self", "value_shifted"],
        ["user_id", "user_id_self"],
    )
    thr = 0.05
    rows = [
        {
            "case": "self",
            "column": "value",
            "metric": "quantile_shift",
            "valid": quantile_drift(sk["value_self"]["tdigest"], sk["value"]["tdigest"]) <= thr,
        },
        {
            "case": "self",
            "column": "user_id",
            "metric": "cardinality_shift",
            "valid": cardinality_drift(sk["user_id_self"]["hll"], sk["user_id"]["hll"]) <= thr,
        },
        {
            "case": "shifted",
            "column": "value",
            "metric": "quantile_shift",
            "valid": quantile_drift(sk["value_shifted"]["tdigest"], sk["value"]["tdigest"]) <= thr,
        },
    ]
    return pd.DataFrame(rows).sort_values(["case", "column", "metric"]).reset_index(drop=True)


def q_media_features(sf_dir: str):
    """Multimodal pipeline over REAL image payloads: synthetic 16×16
    grayscale PNGs → pure-stdlib PNG decode + feature extraction in one
    fused actor pool; returns per-media feature checksums. Rows-only
    (codec output is deterministic but not SQL-expressible)."""
    import numpy as np
    import pandas as pd

    from data_linter_ray.functions import multimodal as mm

    out = mm.decode_pipeline(
        mm.synth_media_dataset(2000, fmt="png"),
        concurrency=4,
        num_cpus=0.5,
        batch_size=256,
    ).to_pandas()
    out["feature_sum"] = out["features"].map(lambda v: float(np.asarray(v).sum()))
    return (
        out[["media_ref", "kind", "feature_sum"]]
        .sort_values("media_ref")
        .reset_index(drop=True)
    )


def q_audio_features(sf_dir: str):
    """Audio pipeline over REAL WAV payloads: synthetic PCM16 tones →
    pure-stdlib RIFF/PCM decode + RMS/ZCR feature extraction in one
    actor pool; returns per-media feature checksums. Rows-only (codec
    output is deterministic but not SQL-expressible)."""
    import numpy as np
    import pandas as pd

    from data_linter_ray.functions import multimodal as mm

    out = (
        mm.synth_media_dataset(2000, kind="audio", fmt="wav")
        .map_batches(
            mm.AudioDecoder,
            batch_format="pyarrow",
            batch_size=256,
            concurrency=4,
            num_cpus=0.5,
            max_restarts=0,
        )
        .to_pandas()
    )
    out["feature_sum"] = out["features"].map(lambda v: float(np.asarray(v).sum()))
    return (
        out[["media_ref", "kind", "feature_sum"]]
        .sort_values(["media_ref", "feature_sum"])
        .reset_index(drop=True)
    )


def q_events_per_user_cap(sf_dir: str):
    """Per-key sampling cap (training-data balancing): keep each user's
    3 earliest events by event_id — exact two-level top-n (local
    combiner → key-hash exchange → final per-key head)."""
    from data_linter_ray.functions.sampling import sample_per_key

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "user_id"]
    )
    return sample_per_key(ds, key_col="user_id", n=3, order_col="event_id")


def q_duplicate_sentences(sf_dir: str):
    """Cross-document duplicate sentences (C4-style boilerplate signal)
    over docs ∪ exact id-shifted copies — every unit repeats in ≥2
    docs, exercising the full two-level unit-frequency exchange:
    (sentence, n_docs ≥ 2)."""
    from data_linter_ray.functions.text import duplicate_sentences

    docs = _docs(sf_dir, ["doc_id", "text"])

    def copy_shift(t: pa.Table) -> pa.Table:
        return pa.table(
            {"doc_id": pc.add(t["doc_id"], 10_000), "text": t["text"]}
        )

    corpus = docs.union(docs.map_batches(copy_shift, batch_format="pyarrow"))
    return duplicate_sentences(corpus, min_docs=2)


def q_quantized_embeddings(sf_dir: str):
    """Symmetric per-vector int8 embedding quantization (4-8× ANN
    memory cut). The oracle compares a scalar digest per vector —
    (q_scale, sum, L1 of the int8 components) pins every quantized
    value without shipping list columns through the hash compare.

    q_scale is emitted integer-pinned as floor(q_scale * 1e9): both
    sides perform the identical float64 multiply then an exact floor,
    so the driver's hash never sees a raw float64 (round-3's only red
    row was this column's float serialization in the driver hash)."""
    import numpy as np

    from data_linter_ray.functions.similarity import quantize_embeddings

    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet")

    def digest(t: pa.Table) -> pa.Table:
        col = t["embedding_q8"].combine_chunks()
        d = col.type.list_size
        m = col.flatten().to_numpy(zero_copy_only=False).reshape(len(col), d).astype(np.int64)
        scale = t["q_scale"].to_numpy(zero_copy_only=False).astype(np.float64)
        return pa.table(
            {
                "vec_id": t["vec_id"],
                "q_scale_e9": np.floor(scale * 1e9).astype(np.int64),
                "q_sum": m.sum(axis=1),
                "q_l1": np.abs(m).sum(axis=1),
            }
        )

    return quantize_embeddings(ds).map_batches(digest, batch_format="pyarrow")


def q_value_histogram(sf_dir: str):
    """Exact fixed-width histogram (20 bins over [0,100), edge-clamped):
    per-batch bincount combiner, partials summed in a tiny driver fold —
    zero shuffle."""
    from data_linter_ray.functions.profile import histogram

    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["value"])
    return histogram(ds, "value", lo=0.0, hi=100.0, bins=20)


def q_best_docs_per_lang(sf_dir: str):
    """Top-3 longest documents per language (group_topk: local top-k
    combiner → key-hash exchange → final top-k; ties by doc_id)."""
    from data_linter_ray.functions.sampling import group_topk

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "lang", "n_chars"]
    )
    return group_topk(ds, key_col="lang", value_col="n_chars", k=3, tie_col="doc_id")


def q_vocabulary(sf_dir: str):
    """Corpus document frequency (vocabulary / stop-word discovery):
    distinct-per-doc tokens → two-level count (per-batch combiner, then
    a token-hash partitioned sum) → df ≥ 50."""
    from data_linter_ray.functions.text import token_doc_frequency

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["text"])
    return token_doc_frequency(ds, min_df=50)


def q_normalized_documents(sf_dir: str):
    """Canonical text cleaning (NFC → whitespace collapse → trim →
    control-char strip), one vectorized Arrow pass — exact SQL parity
    via DuckDB's nfc_normalize + regexp_replace."""
    from data_linter_ray.functions.text import normalize_text

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return normalize_text(ds, keep_cols=["doc_id"]).drop_columns(["text"])


def q_top_users(sf_dir: str):
    """Exact distributed top-k frequent values (heavy hitters done
    exactly): per-batch combiner → value-hash partitioned sum →
    per-partition top-k → driver merge of P×k rows."""
    from data_linter_ray.functions.profile import top_values

    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id"])
    return top_values(ds, "user_id", k=10)


def q_heavy_users(sf_dir: str):
    """EXACT heavy hitters above frequency share 1/128 with ZERO
    shuffle (Misra-Gries candidate pass + broadcast exact recount) —
    the scale path when even the distinct-value domain is too large to
    exchange. Integer-exact vs SQL HAVING count*(m+1) > N."""
    from data_linter_ray.functions.profile import heavy_hitters

    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id"])
    return heavy_hitters(ds, "user_id", m=127)


def q_dominant_lang(sf_dir: str):
    """Exact per-group mode (dominant language per source, smallest-
    value tie-break): per-batch (group, value) count combiner → one
    group-hash exchange → per-partition argmax; one row per group
    leaves the exchange."""
    from data_linter_ray.functions.stats import group_mode

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["source", "lang"]
    )
    return group_mode(ds, "source", "lang")


def q_source_overlap(sf_dir: str):
    """Pairwise vocabulary Jaccard between sources (provenance
    similarity): distinct (source, token) combiner → token-hash
    exchange → per-partition pair intersections, groups²-bounded
    partials; Jaccard is ONE double division of exact ints — bit-exact,
    no rounding."""
    from data_linter_ray.functions.stats import source_vocab_overlap

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["source", "text"]
    )
    return source_vocab_overlap(ds)


def q_length_quartiles(sf_dir: str):
    """Equi-depth binning: each document's length quartile from exact
    quantile_disc boundaries (sort-free scan) + one stateless integer-
    compare projection — the stratification a mixture sampler feeds
    on."""
    from data_linter_ray.functions.quantiles import quantile_bucketize

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "n_chars"]
    )
    return quantile_bucketize(ds, "n_chars", keep_cols=["doc_id"])


def q_compacted_events(sf_dir: str):
    """Run-length compaction of repeated per-user states (retried
    sends / unchanged snapshots): drop events whose event_type equals
    the previous event's (per user, event_id order); null-safe equality
    == SQL IS DISTINCT FROM; selection-only, hash-exact."""
    from data_linter_ray.functions.window import collapse_repeats

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "event_id", "event_type"],
    )
    return collapse_repeats(ds, "user_id", "event_id", ["event_type"])


def q_collocations(sf_dir: str):
    """Bigram collocations with PMI over exact corpus counts:
    vocabulary-bounded unigram broadcast + one bigram-hash exchange;
    ln of a single double ratio in SQL operand order, rounded 9 dp
    both sides."""
    from data_linter_ray.functions.text import bigram_collocations

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["text"])
    return bigram_collocations(ds, min_count=40)


def q_source_lang_entropy(sf_dir: str):
    """Mixture diversity per source: Shannon entropy (nats) of each
    source's language distribution — (group, value) count combiner →
    group-hash exchange → per-partition entropy fold; glibc ln == SQL
    ln, final sum rounded to 9 dp on both sides (SQL SUM order is
    unspecified; terms differ by ulps at most)."""
    from data_linter_ray.functions.stats import group_entropy

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["source", "lang"]
    )
    return group_entropy(ds, "source", "lang")


def q_out_of_order_events(sf_dir: str):
    """Sequence-order validation: events whose ts regresses below the
    per-user running max when ordered by event_id (out-of-order arrival
    / clock skew). The corpus is ordered by construction, so a
    deterministic 1-hour rollback is injected on event_id % 97 == 0
    identically on both sides (the engine's standard injection
    pattern); comparisons are selections, so timestamps stay
    hash-exact."""
    from data_linter_ray.functions.window import sequence_order_violations

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_id", "ts"]
    )

    def skew(t: pa.Table) -> pa.Table:
        ids = t["event_id"]
        hit = pc.equal(
            pc.subtract(ids, pc.multiply(pc.divide(ids, 97), 97)), 0
        )
        shifted = pc.subtract(
            t["ts"], pa.scalar(3_600_000_000, pa.duration("us"))
        )
        return t.set_column(
            t.schema.get_field_index("ts"), "ts",
            pc.if_else(hit, shifted, t["ts"]),
        )

    return sequence_order_violations(
        ds.map_batches(skew, batch_format="pyarrow"),
        key="user_id", seq="event_id", ts="ts",
    )


def q_weighted_sample(sf_dir: str):
    """Deterministic weighted Bernoulli sampling (inclusion probability
    min(1, k·n_chars/W)) — importance-weighting documents by length
    with zero shuffle and no RNG; md5 hash mode reproduces the exact
    row set in SQL."""
    from data_linter_ray.functions.sampling import weighted_fraction

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "n_chars"]
    )
    return weighted_fraction(ds, "doc_id", "n_chars", k=100)


#: deterministic PII injection shared by the pii_scan / redacted_documents
#: query-oracle pairs: one snippet per doc_id % 10 residue 0-3 (email,
#: phone, ipv4, ssn), appended identically on the Ray and SQL sides.
_PII_SNIPPETS = [
    " Contact alice@example.com now.",
    " Call 555-867-5309 today.",
    " Server 10.0.0.1 is down.",
    " SSN 123-45-6789 leaked.",
]

_PII_INJECT_SQL = (
    "text || CASE doc_id % 10 "
    + " ".join(f"WHEN {i} THEN '{s}'" for i, s in enumerate(_PII_SNIPPETS))
    + " ELSE '' END"
)


def _inject_pii(ds):
    """Append the deterministic PII snippets (vectorized concat)."""
    import numpy as np

    def f(t: pa.Table) -> pa.Table:
        m = t["doc_id"].to_numpy() % 10
        suffix = np.select(
            [m == i for i in range(len(_PII_SNIPPETS))], _PII_SNIPPETS, default=""
        )
        new = pc.binary_join_element_wise(
            t["text"], pa.array(suffix.astype(object), pa.string()), ""
        )
        return t.set_column(t.schema.get_field_index("text"), "text", new)

    return ds.map_batches(f, batch_format="pyarrow")


def q_pii_scan(sf_dir: str):
    """PII detection (emails/phones/IPs/SSNs) over a deterministically
    PII-injected corpus — one vectorized RE2 pass, doc-local, zero
    shuffle; per-kind non-overlapping match counts + has_pii flag."""
    from data_linter_ray.functions.pii import with_pii_counts

    ds = _inject_pii(_docs(sf_dir, ["doc_id", "text"]))
    return with_pii_counts(ds).drop_columns(["text"])


def q_redacted_documents(sf_dir: str):
    """PII redaction: every match replaced by its token in
    specific→general order — byte-exact vs chained DuckDB
    regexp_replace(..., 'g') because both engines run RE2."""
    from data_linter_ray.functions.pii import with_redaction

    ds = _inject_pii(_docs(sf_dir, ["doc_id", "text"]))
    return with_redaction(ds).select_columns(["doc_id", "text_redacted"])


def q_pack_offsets(sf_dir: str):
    """GPT-style concat-and-chunk sequence packing: global token
    prefix-sum in doc_id order via the two-pass distributed scan
    (per-bucket partial sums → broadcast bucket offsets → in-bucket
    vectorized cumsum); seq_id = start_offset // 2048."""
    from data_linter_ray.functions.packing import pack_offsets

    return pack_offsets(_docs(sf_dir, ["doc_id", "text"]), chunk=2048)


def q_contaminated_docs(sf_dir: str):
    """Benchmark decontamination (GPT-3 recipe): corpus docs sharing ≥1
    distinct token trigram with the benchmark subset (doc_id % 50 == 0)
    — benchmark gram hashes broadcast once, corpus side streams with
    zero shuffle."""
    from data_linter_ray.functions.decontam import flag_contaminated

    docs = _docs(sf_dir, ["doc_id", "text"])

    def pick(t: pa.Table) -> pa.Table:
        return t.filter(pa.array(t["doc_id"].to_numpy() % 50 == 0))

    bench = docs.map_batches(pick, batch_format="pyarrow")
    return flag_contaminated(docs, bench)


def q_value_outliers(sf_dir: str):
    """Per-group z-score outlier gate (|value − mean(group)| > 3σ):
    two-level moments (per-batch (n, Σx, Σx²) partials → tiny groupby)
    broadcast back for one shuffle-free filter pass."""
    from data_linter_ray.functions.outliers import zscore_outliers

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "event_type", "value"]
    )
    return zscore_outliers(ds, "value", "event_type", z=3.0, keep_cols=["event_id"])


def q_split_assignment(sf_dir: str):
    """Deterministic 80/10/10 train/val/test assignment by id-mod —
    reproducible across engines, partitionings, and cluster sizes;
    zero shuffle, zero state."""
    from data_linter_ray.functions.sampling import assign_split

    return assign_split(_docs(sf_dir, ["doc_id"]), "doc_id")


def q_fd_violations(sf_dir: str):
    """Functional-dependency check (user_id → event_type): determinants
    observed with ≥2 distinct dependent values — per-batch distinct-pair
    combiner → int-hash bucketed exchange of pairs only, never rows."""
    from data_linter_ray.stages.fd import fd_violations

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_type"]
    )
    return fd_violations(ds, "user_id", "event_type")


def q_value_rank(sf_dir: str):
    """Global competition rank of every event by value WITHOUT a global
    sort: two-pass range-partitioned scan (per-batch bucket histograms →
    K driver-summed offsets → in-bucket vectorized strict-rank);
    integer-exact vs SQL rank()."""
    from data_linter_ray.functions.ranking import global_rank

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "value"]
    )
    return global_rank(ds, "value", "event_id")


def q_user_event_deltas(sf_dir: str):
    """Per-key ordered window functions (row_number, lag-gap, running
    max) in ONE key-hash exchange + vectorized per-partition pass —
    no global sort. run_max is a selection, so the float column stays
    bit-exact vs SQL window functions."""
    from data_linter_ray.functions.window import keyed_window

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "event_id", "value"],
    )
    return keyed_window(ds, key="user_id", order="ts", tie="event_id", max_col="value")


def q_funnel_stages(sf_dir: str):
    """view→click→purchase funnel per user: first qualifying timestamp
    per stage (strictly after the previous stage), stages-reached count.
    One key-hash exchange, C-speed merge+groupby-min chain per
    partition."""
    from data_linter_ray.functions.window import funnel

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts", "event_type"]
    )
    return funnel(
        ds, key="user_id", order="ts", type_col="event_type",
        stages=["view", "click", "purchase"],
    )


def q_lineitem_rollup(sf_dir: str):
    """GROUP BY ROLLUP (returnflag, linestatus): per-batch arrow
    combiner → one finest-level distributed groupby → driver fold of
    the tiny finest table for subtotals. sum(l_quantity) is integral
    values in float64, so the sums are associativity-exact."""
    from data_linter_ray.functions.olap import rollup_counts

    ds = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_linestatus", "l_quantity"],
    )
    return rollup_counts(ds, "l_returnflag", "l_linestatus", sum_col="l_quantity")


def q_user_event_pivot(sf_dir: str):
    """Pivot event_type into per-category count columns, one row per
    user: per-batch local crosstab partials (the combiner) → one
    groupby-sum over user_id. Explicit category list keeps the output
    schema deterministic."""
    from data_linter_ray.functions.olap import pivot_counts

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_type"]
    )
    return pivot_counts(
        ds, "user_id", "event_type",
        categories=["click", "error", "purchase", "signup", "view"],
    )


def q_fuzzy_name_pairs(sf_dir: str):
    """All customer-name pairs within Levenshtein distance 1 via
    deletion-neighborhood blocking (FastSS) — vectorized polynomial
    variant hashing, bucketed candidate exchange, exact vectorized
    verify. Never an all-pairs scan."""
    from data_linter_ray.functions.fuzzy import fuzzy_key_pairs

    ds = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_name"]
    )
    return fuzzy_key_pairs(ds, "c_custkey", "c_name").drop_columns(["truncated"])


BM25_QUERY = "fast hash join"


def q_bm25_topk(sf_dir: str):
    """BM25 keyword retrieval: two streaming scans (driver-folded
    corpus stats → vectorized scoring + per-batch top-k), zero shuffle.
    idf computed with glibc log and SQL-order term folds, so scores are
    IEEE-identical to the DuckDB oracle."""
    from data_linter_ray.functions.search import bm25_topk

    return bm25_topk(_docs(sf_dir, ["doc_id", "text"]), BM25_QUERY, k=25)


def q_value_iqr_outliers(sf_dir: str):
    """Tukey-fence outliers: exact q1/q3 via the sort-free quantile
    scans, fences derived with the same FP expression as the SQL, one
    streaming filter pass. Composition: quantiles → filter."""
    from data_linter_ray.functions.quantiles import exact_quantiles

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "value"]
    )
    qs = exact_quantiles(
        ds.select_columns(["value"]), "value", [0.25, 0.75]
    )
    q1 = float(qs.loc[qs["q"] == 0.25, "value"].iloc[0])
    q3 = float(qs.loc[qs["q"] == 0.75, "value"].iloc[0])
    lo = q1 - 1.5 * (q3 - q1)
    hi = q3 + 1.5 * (q3 - q1)

    def fence(t: pa.Table) -> pa.Table:
        v = t["value"]
        return t.filter(
            pc.and_kleene(
                v.is_valid(),
                pc.or_(pc.less(v, lo), pc.greater(v, hi)),
            )
        )

    return ds.map_batches(fence, batch_format="pyarrow")


def q_fuzzy_entities(sf_dir: str):
    """Entity resolution: connected components over the Levenshtein≤1
    name pairs (fuzzy blocking → exact verify → union-find / hash-min
    label propagation). Each customer maps to the min id reachable
    through fuzzy matches."""
    from data_linter_ray.functions.dedup import dedup_components
    from data_linter_ray.functions.fuzzy import fuzzy_key_pairs

    ds = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_name"]
    )
    pairs = fuzzy_key_pairs(ds, "c_custkey", "c_name")
    return dedup_components(pairs).rename_columns(
        {"doc_id": "c_custkey", "component_id": "entity_id"}
    )


def q_overlap_pairs(sf_dir: str):
    """MOSS-style overlap detection: doc pairs sharing >= 3 selected
    0-mod-8 5-gram fingerprints, df-capped (fingerprints in > 50 docs
    ignored — the deterministic MOSS rule, not a silent truncation).
    md5-mode fingerprints so the SQL oracle is bit-exact."""
    from data_linter_ray.functions.text import overlap_pairs

    return overlap_pairs(_docs(sf_dir, ["doc_id", "text"]), hash="md5")


def q_big_spenders(sf_dir: str):
    """Semi join: customers with at least one order over 450k — the
    right side reduces to distinct keys per batch (combiner) and
    broadcasts once; the customer side streams through an Acero
    left-semi join, no shuffle anywhere."""
    from data_linter_ray.functions.joins import semi_join

    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_name"]
    )
    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_totalprice"]
    ).map_batches(
        lambda t: t.filter(
            pc.and_kleene(
                t["o_totalprice"].is_valid(),
                pc.greater(t["o_totalprice"], 450_000.0),
            )
        ),
        batch_format="pyarrow",
    )
    return semi_join(cust, orders, on=("c_custkey",), right_on=("o_custkey",))


def q_customers_no_orders(sf_dir: str):
    """Anti join: customers with no order above 400k (SQL NOT EXISTS —
    null-keyed customers are kept). Same broadcast-keys shape as the
    semi join."""
    from data_linter_ray.functions.joins import anti_join

    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_name"]
    )
    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_totalprice"]
    ).map_batches(
        lambda t: t.filter(
            pc.and_kleene(
                t["o_totalprice"].is_valid(),
                pc.greater(t["o_totalprice"], 400_000.0),
            )
        ),
        batch_format="pyarrow",
    )
    return anti_join(cust, orders, on=("c_custkey",), right_on=("o_custkey",))


def q_corpus_mixture(sf_dir: str):
    """Domain-mixing stratified sample: per-language deterministic
    keep fractions (en 1/2, es 1/3, de 3/4, tail 1/10) — id-mod rules,
    stable across partitionings/engines, one stateless streaming pass."""
    from data_linter_ray.functions.sampling import stratified_fraction

    ds = _docs(sf_dir, ["doc_id", "lang"])
    return stratified_fraction(
        ds, "lang", "doc_id",
        {"en": (1, 2), "es": (1, 3), "de": (3, 4)},
        default=(1, 10),
    )


def q_entity_union(sf_dir: str):
    """Schema-harmonized multi-source union (UNION ALL BY NAME):
    customers ∪ suppliers with the supplier side missing acctbal —
    per-batch alignment to the union schema (typed nulls), zero
    shuffle."""
    from data_linter_ray.functions.evolve import union_by_name

    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_name", "c_acctbal"]
    ).map_batches(
        lambda t: pa.table(
            {
                "id": t["c_custkey"],
                "name": t["c_name"],
                "acctbal": t["c_acctbal"],
                "src": pa.array(["customer"] * t.num_rows, pa.string()),
            }
        ),
        batch_format="pyarrow",
    )
    supp = ray.data.read_parquet(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_name"]
    ).map_batches(
        lambda t: pa.table(
            {
                "id": t["s_suppkey"],
                "name": t["s_name"],
                "src": pa.array(["supplier"] * t.num_rows, pa.string()),
            }
        ),
        batch_format="pyarrow",
    )
    return union_by_name([cust, supp])


def q_apply_changes(sf_dir: str):
    """CDC MERGE: apply a deterministic upsert/delete changelog to the
    orders snapshot (updates %7, deletes %11 at higher seq, inserts
    %13 under new keys) — pad-union + one key-hash exchange +
    vectorized latest-change-wins resolution."""
    from data_linter_ray.functions.evolve import apply_changes

    cols = ["o_orderkey", "o_orderstatus", "o_totalprice"]

    def base_read():
        return ray.data.read_parquet(f"{sf_dir}/orders.parquet", columns=cols)

    def make_changes(t: pa.Table) -> pa.Table:
        t = t.filter(t["o_orderkey"].is_valid())
        k = t["o_orderkey"]

        def mod_is(den, r=0):
            return pc.equal(
                pc.subtract(k, pc.multiply(pc.divide(k, den), den)), r
            )

        upd = t.filter(mod_is(7))
        dele = t.filter(mod_is(11))
        ins = t.filter(mod_is(13))
        parts = []
        if upd.num_rows:
            parts.append(
                pa.table(
                    {
                        "o_orderkey": upd["o_orderkey"],
                        "o_orderstatus": pa.array(
                            ["UPDATED"] * upd.num_rows, pa.string()
                        ),
                        "o_totalprice": pc.add(upd["o_totalprice"], 1000.0),
                        "seq": pa.array([1] * upd.num_rows, pa.int64()),
                        "op": pa.array(["U"] * upd.num_rows, pa.string()),
                    }
                )
            )
        if dele.num_rows:
            parts.append(
                pa.table(
                    {
                        "o_orderkey": dele["o_orderkey"],
                        "o_orderstatus": pa.nulls(dele.num_rows, pa.string()),
                        "o_totalprice": pa.nulls(dele.num_rows, pa.float64()),
                        "seq": pa.array([2] * dele.num_rows, pa.int64()),
                        "op": pa.array(["D"] * dele.num_rows, pa.string()),
                    }
                )
            )
        if ins.num_rows:
            parts.append(
                pa.table(
                    {
                        "o_orderkey": pc.add(ins["o_orderkey"], 10_000_000),
                        "o_orderstatus": pa.array(["NEW"] * ins.num_rows, pa.string()),
                        "o_totalprice": pa.array([42.0] * ins.num_rows, pa.float64()),
                        "seq": pa.array([1] * ins.num_rows, pa.int64()),
                        "op": pa.array(["U"] * ins.num_rows, pa.string()),
                    }
                )
            )
        if not parts:
            return pa.table(
                {
                    "o_orderkey": pa.array([], pa.int64()),
                    "o_orderstatus": pa.array([], pa.string()),
                    "o_totalprice": pa.array([], pa.float64()),
                    "seq": pa.array([], pa.int64()),
                    "op": pa.array([], pa.string()),
                }
            )
        return pa.concat_tables(parts)

    changes = base_read().map_batches(make_changes, batch_format="pyarrow")
    return apply_changes(base_read(), changes, "o_orderkey", "seq")


def q_embedding_clusters(sf_dir: str):
    """INTEGER-EXACT Lloyd k-means over the embeddings table (8
    clusters, 2 unrolled iterations): embeddings quantize to the
    floor(x·1e4 + 0.5) integer grid, distances are exact integer
    squared-Euclidean, centroid updates are element-wise floor means,
    argmin ties go to the lowest cluster — every step reproduced by
    the DuckDB oracle's unrolled CTE rounds, so (vec_id, cluster,
    dist2) hash-matches. The float spherical variant
    (``kmeans_cluster``) remains pytest-pinned for cosine semantics."""
    from data_linter_ray.functions.similarity import kmeans_cluster_quantized

    ds = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    return kmeans_cluster_quantized(
        ds, id_col="vec_id", n_clusters=8, iters=2, scale=10_000
    )


def q_value_percent_rank(sf_dir: str):
    """SQL percent_rank() without a sort: the range-bucket global rank
    plus one vectorized (rank-1)/(n-1) projection — identical integer
    inputs to the same IEEE division as the SQL, so the float column
    hash-matches."""
    from data_linter_ray.functions.ranking import global_rank

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "value"]
    )
    ranked = global_rank(ds, "value", "event_id").materialize()
    n = ranked.count()

    def pr(t: pa.Table) -> pa.Table:
        import numpy as np

        r = t["rank"].to_numpy(zero_copy_only=False).astype(np.float64)
        return t.append_column(
            "pr", pa.array((r - 1.0) / float(n - 1), pa.float64())
        )

    return ranked.map_batches(pr, batch_format="pyarrow")


def q_grouped_quantiles(sf_dir: str):
    """Exact per-group quantile_disc WITHOUT sort/shuffle: per-group
    histogram lanes in the same multi-round refinement scans; group
    stats folded from per-batch combiner partials."""
    from data_linter_ray.functions.quantiles import grouped_quantiles

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "value"]
    )
    return grouped_quantiles(ds, "value", "event_type", [0.25, 0.5, 0.9])


_SNAPSHOT_COLS = ["o_orderkey", "o_orderstatus", "o_totalprice"]


def _orders_view_a(t: pa.Table) -> pa.Table:
    k = t["o_orderkey"]
    return t.filter(pc.and_kleene(k.is_valid(), pc.equal(pc.bit_wise_and(k, 1), 0)))


def _orders_view_b(t: pa.Table) -> pa.Table:
    k = t["o_orderkey"]
    t = t.filter(
        pc.and_kleene(
            k.is_valid(),
            pc.equal(pc.subtract(k, pc.multiply(pc.divide(k, 3), 3)), 0),
        )
    )
    k = t["o_orderkey"]
    bump = pc.equal(pc.subtract(k, pc.multiply(pc.divide(k, 5), 5)), 0)
    price = pc.if_else(
        bump, pc.multiply(t["o_totalprice"], 2.0), t["o_totalprice"]
    )
    return t.set_column(
        t.schema.get_field_index("o_totalprice"), "o_totalprice", price
    )


def _orders_snapshots(sf_dir: str):
    def read():
        return ray.data.read_parquet(
            f"{sf_dir}/orders.parquet", columns=_SNAPSHOT_COLS
        )

    return (
        read().map_batches(_orders_view_a, batch_format="pyarrow"),
        read().map_batches(_orders_view_b, batch_format="pyarrow"),
    )


def q_snapshot_diff(sf_dir: str):
    """Row-level snapshot diff between two deterministic views of
    orders (A = even keys; B = keys%3==0 with price doubled on %5==0):
    one pad-union key-hash exchange, vectorized per-partition outer
    merge + null-safe compare, only the delta leaves the partition."""
    from data_linter_ray.functions.diff import snapshot_diff

    a, b = _orders_snapshots(sf_dir)
    return snapshot_diff(a, b, "o_orderkey", ["o_orderstatus", "o_totalprice"])


def q_incremental_violations(sf_dir: str):
    """Incremental validation — the 100-TB re-run story: validate ONLY
    the rows the new snapshot added or changed (snapshot_diff → delta
    keys broadcast → one filtered check pass over snapshot B). The
    delta key set is small by design (that is what makes incremental
    runs cheap); a large delta should switch to a shuffle anti-join,
    as the referential check does, instead of the broadcast."""
    from data_linter_ray.functions.diff import snapshot_diff

    a, b = _orders_snapshots(sf_dir)
    delta = snapshot_diff(a, b, "o_orderkey", ["o_orderstatus", "o_totalprice"])

    def not_removed(t: pa.Table) -> pa.Table:
        return t.filter(pc.not_equal(t["status"], "removed"))

    keys = pa.array(
        delta.map_batches(not_removed, batch_format="pyarrow")
        .select_columns(["o_orderkey"])
        .to_pandas()["o_orderkey"],
        pa.int64(),
    )
    keys_ref = ray.put(keys)

    def check(t: pa.Table) -> pa.Table:
        ks = ray.get(keys_ref) if isinstance(keys_ref, ray.ObjectRef) else keys_ref
        t = t.filter(pc.is_in(t["o_orderkey"], value_set=ks))
        v = t["o_totalprice"]
        return t.select(["o_orderkey", "o_totalprice"]).filter(
            pc.and_kleene(v.is_valid(), pc.greater(v, 400_000.0))
        )

    _, b2 = _orders_snapshots(sf_dir)
    return b2.map_batches(check, batch_format="pyarrow")


def q_profile_drift(sf_dir: str):
    """A/B snapshot stats drift (even vs odd event_id halves of events):
    two fused profile scans, driver-side join of per-column rows —
    exact integers + rendered min/max + change flags, no floats."""
    from data_linter_ray.functions.profile import profile_drift

    cols = ["event_id", "user_id", "event_type", "ts"]

    def half(parity: int):
        def keep(t: pa.Table) -> pa.Table:
            ids = t["event_id"]
            if isinstance(ids, pa.ChunkedArray):
                ids = ids.combine_chunks()
            m = pc.equal(
                pc.bit_wise_and(ids, 1), pa.scalar(parity, ids.type)
            )
            return t.filter(m)

        return ray.data.read_parquet(
            f"{sf_dir}/events.parquet", columns=cols
        ).map_batches(keep, batch_format="pyarrow")

    return profile_drift(half(0), half(1), cols)


def q_value_quantiles(sf_dir: str):
    """Exact quantile_disc at 8 fractions WITHOUT a sort: multi-round
    histogram refinement (K-bucket partials driver-summed, interval
    narrows K× per round, bounded final single-scan collect). Production
    defaults: ~3 streaming scans total; the multi-round path is
    exercised by pytest with max_collect forced low."""
    from data_linter_ray.functions.quantiles import exact_quantiles

    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["value"])
    return exact_quantiles(
        ds, "value", [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0]
    )


def q_repetition_stats(sf_dir: str):
    """Gopher-style within-doc repetition counts (top-token /
    duplicate-trigram numerators+denominators, integer-exact): one
    doc-local map_batches pass, zero shuffle."""
    from data_linter_ray.functions.text import repetition_stats

    return repetition_stats(_docs(sf_dir, ["doc_id", "text"]))


def q_tfidf_terms(sf_dir: str):
    """Top-3 TF-IDF terms per document: distributed df exchange →
    vocabulary-bounded broadcast → one shuffle-free corpus pass with
    per-doc top-k (score internal; emitted columns integer/term-exact)."""
    from data_linter_ray.functions.text import tfidf_top_terms

    return tfidf_top_terms(_docs(sf_dir, ["doc_id", "text"]), k=3)


def q_events_summary(sf_dir: str):
    """Grouped log-style aggregate (reference A5 analog): per event_type
    count + min/max value (order-independent aggregates only)."""
    from ray.data.aggregate import Count, Max, Min

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "value"]
    )
    return ds.groupby("event_type").aggregate(
        Count(alias_name="n"),
        Min("value", alias_name="min_value"),
        Max("value", alias_name="max_value"),
    )


def q_lineitem_corr(sf_dir: str):
    """Pairwise Pearson correlation of lineitem's four numeric measures
    in ONE column-pruned streaming scan: per-batch sufficient-statistic
    partials (n, Σx, Σy, Σx², Σy², Σxy per pair), driver fold, the
    textbook closed form. Rounded to 6 dp on both sides (partial-sum
    fold order differs from SQL's sequential SUM in the last ulps)."""
    from data_linter_ray.functions.stats import corr_matrix

    cols = ["l_quantity", "l_extendedprice", "l_discount", "l_tax"]
    ds = ray.data.read_parquet(f"{sf_dir}/lineitem.parquet", columns=cols)
    return corr_matrix(ds, cols, round_to=6)


def q_value_percentiles_cont(sf_dir: str):
    """SQL quantile_cont (linear interpolation) without any sort: the
    two neighboring exact order statistics per q from the multi-round
    histogram-refinement scan, then DuckDB's own two-sided weighted
    interpolation expression — bit-identical floats."""
    from data_linter_ray.functions.quantiles import percentile_cont

    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["value"])
    return percentile_cont(ds, "value", [0.1, 0.25, 0.5, 0.75, 0.9, 0.99])


def q_customer_order_activity(sf_dir: str):
    """FULL OUTER equi-join: every customer against their order count —
    customers with no orders keep a null count, order keys missing from
    customer would surface coalesced into the key column (SQL USING
    semantics). Order side pre-aggregated (count per custkey) before
    the join, so the exchange carries one row per customer, not one per
    order."""
    from ray.data.aggregate import Count

    from data_linter_ray.functions.joins import equi_join

    customers = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"]
    )
    # materialized: the aggregate is one row per ordering customer, so
    # the auto dispatcher sees its true (tiny) size and takes the
    # broadcast path instead of a 2-sided hash-join actor pool
    orders = (
        ray.data.read_parquet(f"{sf_dir}/orders.parquet", columns=["o_custkey"])
        .groupby("o_custkey")
        .aggregate(Count(alias_name="n_orders"))
        .materialize()
    )
    return equi_join(
        customers, orders, on=("c_custkey",), right_on=("o_custkey",),
        how="full_outer",
    )


def q_user_retention(sf_dir: str):
    """Weekly cohort retention over events: users keyed to the epoch
    week of their first activity, distinct-user counts per
    (cohort_week, week) cell. One hash exchange of per-batch-distinct
    (user, week) pairs — no driver user map, no broadcast."""
    from data_linter_ray.functions.cohort import retention_matrix

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts"]
    )
    out = retention_matrix(ds, "user_id", "ts")
    return out.rename(
        columns={"cohort_period": "cohort_week", "period": "week"}
    )


def q_lm_scores(sf_dir: str):
    """Unigram-LM corpus-quality scores (perplexity proxy): token
    counts trained on the corpus itself in one count exchange, then a
    broadcast scoring pass emitting each doc's mean token logprob.
    Exact-vocabulary mode; folds mirror the SQL ordered aggregate
    bit-for-bit (np.add.at sequential segmented sums + glibc log)."""
    from data_linter_ray.functions.lm import unigram_logprob

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return unigram_logprob(ds, "doc_id", "text")


def q_user_value_rolling(sf_dir: str):
    """Per-user 5-row rolling aggregates over events ordered by (ts,
    event_id): integer-cents rolling sum (associative, so exact on both
    sides — DuckDB's windowed float sum is segment-tree-ordered and
    cannot be float-matched), non-null count, and max. One key-hash
    exchange + pandas C rolling kernels."""
    from data_linter_ray.functions.window import keyed_rolling

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "event_id", "value"],
    )
    return keyed_rolling(ds, "user_id", "ts", "event_id", "value", window=5)


def q_grouped_percentiles_cont(sf_dir: str):
    """Per-event-type SQL quantile_cont, exact and sort-free: both
    neighboring order statistics per (group, q) resolved in the shared
    multi-round refinement scans, then DuckDB's own interpolation
    expression — bit-identical floats."""
    from data_linter_ray.functions.quantiles import grouped_percentile_cont

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "value"]
    )
    out = grouped_percentile_cont(ds, "value", "event_type", [0.25, 0.5, 0.9])
    return out.rename(columns={"group": "event_type"})


def q_value_winsorized(sf_dir: str):
    """Winsorized event values: exact 1st/99th-percentile fences from
    one sort-free quantile resolution, then a streaming clamp pass —
    fences are exact data values, so the capped column is bit-identical
    to the SQL CASE expression."""
    from data_linter_ray.functions.quantiles import winsorize

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "value"]
    )
    return winsorize(ds, "value", lo_q=0.01, hi_q=0.99)


def q_event_type_reach(sf_dir: str):
    """Exact count(DISTINCT user_id) per event type — per-batch
    distinct-pair combiner, one value-hash exchange, driver fold of
    KB partials."""
    from data_linter_ray.functions.stats import group_count_distinct

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "user_id"]
    )
    return group_count_distinct(ds, "event_type", "user_id")


def q_nearest_reference(sf_dir: str):
    """Vector join: every non-label-0 embedding tagged with its nearest
    label-0 reference vector (top-1 cosine). Reference matrix broadcast
    once; each batch resolves its own top-k in one matmul — zero
    shuffle. Rank output only (discrete), so SQL-hash-stable."""
    from data_linter_ray.functions.similarity import cross_knn

    import pyarrow.dataset as pads

    emb = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding", "label"]
    )
    # reference side: filter pushed into the read (row-group pruning +
    # exact row filter in the scanner — no post-read Filter stage, so
    # no empty pass-through blocks)
    refset = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet",
        columns=["vec_id", "embedding"],
        filter=pads.field("label") == 0,
    )
    return cross_knn(
        emb,
        refset,
        k=1,
        left_filter=lambda t: t.filter(pc.not_equal(t["label"], 0)),
        filter_cols=["label"],
    ).drop_columns(["rank"])


def q_document_chunks(sf_dir: str):
    """Sliding-window token chunking (64-token chunks, stride 32) —
    vectorized flat-map expansion, doc-local, zero shuffle; exact
    string equality vs the SQL list_slice mirror."""
    from data_linter_ray.functions.text import chunk_documents

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return chunk_documents(ds, chunk=64, stride=32)


def q_lineitem_check_violations(sf_dir: str):
    """Cross-column CHECK constraint (l_tax + l_discount < 0.15) under
    SQL three-valued logic: violations are rows where the predicate is
    FALSE or NULL — one Arrow kleene-complement filter pass, streaming,
    zero shuffle."""
    import pyarrow.dataset as pads

    from data_linter_ray.functions.constraints import expression_violations

    ds = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_linenumber", "l_tax", "l_discount"],
    )
    return expression_violations(
        ds,
        (pads.field("l_tax") + pads.field("l_discount")) < 0.15,
        keep_cols=["l_orderkey", "l_linenumber", "l_tax", "l_discount"],
    )


def q_deduped_chunks(sf_dir: str):
    """Operator composition: sliding-window chunking feeding exact
    dedup — the chunk-level dedupe step of a pretraining pipeline.
    Chunk identity = doc_id·10^6 + chunk_id (docs here are far below
    10^6 chunks); survivor = min id per distinct chunk text."""
    from data_linter_ray.functions.dedup import exact_dedup
    from data_linter_ray.functions.text import chunk_documents

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    chunks = chunk_documents(docs, chunk=16, stride=16)

    def with_cid(t: pa.Table) -> pa.Table:
        cid = pc.add(
            pc.multiply(t["doc_id"], pa.scalar(1_000_000, pa.int64())),
            pc.cast(t["chunk_id"], pa.int64()),
        )
        return pa.table({"cid": cid, "text": t["text"]})

    ided = chunks.map_batches(with_cid, batch_format="pyarrow")
    return exact_dedup(ided, text_col="text", id_col="cid").select_columns(
        ["cid", "text"]
    )


def q_event_props_stats(sf_dir: str):
    """JSON-field extraction feeding an integer aggregate: props.k
    pulled by one vectorized RE2 pass, then per-event-type
    count/min/max/sum (all integers — exact)."""
    from ray.data.aggregate import Count, Max, Min, Sum

    from data_linter_ray.functions.jsonfields import with_json_field

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "props"]
    )
    ds = with_json_field(ds, "props", "k").drop_columns(["props"])

    def keep(t: pa.Table) -> pa.Table:
        return t.filter(
            pc.and_(t["k"].is_valid(), t["event_type"].is_valid())
        )

    return (
        ds.map_batches(keep, batch_format="pyarrow")
        .groupby("event_type")
        .aggregate(
            Count(alias_name="n"),
            Min("k", alias_name="min_k"),
            Max("k", alias_name="max_k"),
            Sum("k", alias_name="sum_k"),
        )
    )


def q_value_mad(sf_dir: str):
    """Exact median absolute deviation: two sort-free exact-quantile
    resolutions (the median, then the median of |value − median| over
    a derived column). abs/sub are exact IEEE ops on exact order
    statistics, so the result is bit-identical to SQL."""
    import pandas as pd

    from data_linter_ray.functions.quantiles import exact_quantiles

    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["value"])
    med = float(exact_quantiles(ds, "value", [0.5])["value"][0])

    def dev(t: pa.Table) -> pa.Table:
        return pa.table(
            {"d": pc.abs(pc.subtract(t["value"], pa.scalar(med, pa.float64())))}
        )

    mad = float(
        exact_quantiles(
            ds.map_batches(dev, batch_format="pyarrow"), "d", [0.5]
        )["value"][0]
    )
    return pd.DataFrame({"median": [med], "mad": [mad]})


def q_event_transitions(sf_dir: str):
    """Per-user event-type transition matrix (consecutive pairs by ts,
    event_id): one key-hash exchange + vectorized shift, tiny global
    sum. Integer counts — exact vs the SQL lag() mirror."""
    from data_linter_ray.functions.window import transition_counts

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "event_id", "event_type"],
    )
    return transition_counts(ds, "user_id", "ts", "event_type", tie="event_id")


def q_users_both_halves(sf_dir: str):
    """SQL INTERSECT: distinct users active in BOTH halves of the
    month — per-batch distinct combiners, one row-hash exchange,
    per-partition set logic. Both halves read with scan-level filter
    pushdown."""
    import datetime as _dt

    import pyarrow.dataset as pads

    from data_linter_ray.functions.setops import intersect_distinct

    mid = _dt.datetime(2024, 1, 16)
    first = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id"],
        filter=pads.field("ts") < mid,
    )
    second = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id"],
        filter=pads.field("ts") >= mid,
    )
    return intersect_distinct(first, second, ["user_id"])


def q_users_first_half_only(sf_dir: str):
    """SQL EXCEPT: distinct users NOT seen again after Jan 30 — the
    churn set (the cut sits near the end of the data so the result is
    non-degenerate at every scale factor)."""
    import datetime as _dt

    import pyarrow.dataset as pads

    from data_linter_ray.functions.setops import except_distinct

    mid = _dt.datetime(2024, 1, 30)
    first = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id"],
        filter=pads.field("ts") < mid,
    )
    second = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id"],
        filter=pads.field("ts") >= mid,
    )
    return except_distinct(first, second, ["user_id"])


def q_label_centroids(sf_dir: str):
    """Per-label mean embedding (class centroids): one streaming scan
    of per-batch (label, count, Σvector) partials, driver fold; 6-dp
    rounding on both sides absorbs partial-sum fold order."""
    from data_linter_ray.functions.similarity import group_centroids

    ds = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["label", "embedding"]
    )
    out = group_centroids(ds, "label", round_to=6)
    return out.rename(columns={"group": "label"})


def q_gopher_filter(sf_dir: str):
    """Gopher-rule composite keep/drop verdicts (token bounds, mean
    word length, top-token and duplicate-trigram caps) — every rule an
    INTEGER cross-multiplication, so all five booleans hash-match SQL
    exactly. One fused doc-local pass."""
    from data_linter_ray.functions.text import gopher_flags

    return gopher_flags(
        ray.data.read_parquet(
            f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
        ),
        min_tokens=60,
    )


def q_daily_active_users(sf_dir: str):
    """DAU: exact distinct users per epoch day — a derived int day
    column feeding the count-distinct exchange. Integer-exact."""
    from data_linter_ray.functions.stats import group_count_distinct

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts"]
    )

    def with_day(t: pa.Table) -> pa.Table:
        import numpy as np

        ts = t["ts"].to_numpy(zero_copy_only=False).astype("datetime64[us]")
        day = ts.view("int64") // 86_400_000_000
        return pa.table({"day": pa.array(day), "user_id": t["user_id"]})

    return group_count_distinct(
        ds.map_batches(with_day, batch_format="pyarrow"), "day", "user_id"
    ).rename(columns={"n_distinct": "dau"})


def q_events_candidate_keys(sf_dir: str):
    """Key discovery over events: exact distinct counts for three
    candidate columns resolved in ONE scan + one value-hash exchange
    (64-bit hash identity, the engine's documented uniqueness
    assumption); is_unique = distinct == non-null == rows."""
    from data_linter_ray.functions.stats import candidate_keys

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "event_type"],
    )
    return candidate_keys(ds, ["event_id", "user_id", "event_type"])


def q_rolling_anomalies(sf_dir: str):
    """Streaming window anomaly detection, INTEGER-exact: flag windows
    whose maximum deviates from the window mean by more than 3 trailing
    standard deviations — algebraically (mx − μ)² > 9σ², evaluated as
    the pure integer cross-multiplication
    (mx·rn − rs)² > 9·(rss·rn − rs²) with every operand an int64
    (cents), so flags hash-match SQL exactly. Windows with fewer than
    5 values are skipped."""
    from data_linter_ray.functions.window import keyed_rolling

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "event_id", "value"],
    )
    rolled = keyed_rolling(ds, "user_id", "ts", "event_id", "value", window=20)

    def flag(t: pa.Table) -> pa.Table:
        import numpy as np

        rs = t["roll_sum_cents"].to_numpy(zero_copy_only=False)
        rss = t["roll_sum_sq_cents"].to_numpy(zero_copy_only=False)
        rn = t["roll_n"].to_numpy(zero_copy_only=False)
        # all-integer spike test: (mx·rn − rs)² > 9·(rss·rn − rs²)
        # (rint is monotone, so the rounded window max equals the max
        # of the per-value cents used in rs/rss)
        mx = np.rint(
            t["roll_max"].to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        full = rn >= 5
        lhs = (mx * rn - rs) ** 2
        rhs = 9 * (rss * rn - rs * rs)
        keep = full & (lhs > rhs)
        return pa.table(
            {
                "user_id": t["user_id"].filter(pa.array(keep)),
                "event_id": t["event_id"].filter(pa.array(keep)),
            }
        )

    return rolled.map_batches(flag, batch_format="pyarrow")


def q_source_quality(sf_dir: str):
    """Per-source curation report: documents kept by the Gopher gate
    per source — integer counts over the composed flags, exact."""
    from ray.data.aggregate import Count, Sum

    from data_linter_ray.functions.text import gopher_flags

    flags = gopher_flags(
        ray.data.read_parquet(
            f"{sf_dir}/documents.parquet",
            columns=["doc_id", "text", "source"],
        ),
        keep_cols=["source"],
        min_tokens=60,
    )

    def as_int(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "source": t["source"],
                "kept": pc.cast(t["keep"], pa.int64()),
            }
        )

    return (
        flags.map_batches(as_int, batch_format="pyarrow")
        .groupby("source")
        .aggregate(Count(alias_name="n_docs"), Sum("kept", alias_name="n_kept"))
    )


def q_lineitem_unpivot(sf_dir: str):
    """UNPIVOT lineitem's four numeric measures into long form —
    stateless per-batch flat expansion, zero shuffle; values cast to a
    common float64 exactly (the measures are float64 already)."""
    from data_linter_ray.functions.olap import melt

    ds = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_linenumber", "l_quantity",
                 "l_extendedprice", "l_discount", "l_tax"],
    )
    return melt(
        ds,
        ["l_orderkey", "l_linenumber"],
        ["l_quantity", "l_extendedprice", "l_discount", "l_tax"],
    )


def q_lineitem_cube(sf_dir: str):
    """GROUP BY CUBE over (returnflag, linestatus): all four grouping
    sets derived from one distributed finest-level aggregate; integer
    counts, exact."""
    from data_linter_ray.functions.olap import cube_counts

    ds = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_linestatus"],
    )
    return cube_counts(ds, "l_returnflag", "l_linestatus")


def q_segment_price_trend(sf_dir: str):
    """Per-group OLS regression (extendedprice on quantity per
    returnflag): per-batch 6-lane sufficient-statistic combiner (one
    row per group per batch) → one group-hash exchange → closed form
    per partition; rounded 6 dp both sides (fold order is the only
    difference, same trade as lineitem_corr)."""
    from data_linter_ray.functions.stats import group_regression

    ds = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_quantity", "l_extendedprice"],
    )
    return group_regression(
        ds, "l_returnflag", "l_quantity", "l_extendedprice", round_to=6
    )


def q_trailing_hour_load(sf_dir: str):
    """TIME-based (RANGE-frame) rolling per user: cents-sum and count
    of events in the trailing hour at every event — the event-rate
    window ROWS frames can't express. One key-hash exchange; frame
    bounds for all rows via two searchsorted calls on a key-banded
    int64 time axis (overflow-safe key blocks); O(1) prefix-sum frame
    sums. Integer cents — hash-exact vs SQL RANGE INTERVAL."""
    from data_linter_ray.functions.window import time_rolling

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "event_id", "value"],
    )
    return time_rolling(ds, "user_id", "ts", "event_id", "value")


def q_daily_value_snapshot(sf_dir: str):
    """Gap-filled daily snapshot per user (resample + forward fill):
    per-(key,ts) last-tie collapse, then every key's whole grid
    resolves in one searchsorted over a key-banded time axis. Filled
    values are selections — bit-exact vs DuckDB ASOF JOIN over the
    max_by-collapsed series."""
    from data_linter_ray.functions.timeseries import resample_ffill

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "event_id", "value"],
    )
    return resample_ffill(
        ds, key="user_id", time_col="ts", tie="event_id", value="value",
        start="2024-01-01", stop="2024-01-31", step_us=86_400_000_000,
    )


def q_price_benford(sf_dir: str):
    """Benford first-digit profile of extendedprice (fabricated-data
    smell test): string-based digit extraction (shortest-roundtrip
    repr — immune to the log10-boundary misclassification), 9-lane
    bincount partials, driver fold. Counts exact; p_obs an IEEE-exact
    int division; p_exp rounded 6 dp (numpy vs DuckDB log10 ulps)."""
    from data_linter_ray.functions.stats import benford_profile

    ds = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_extendedprice"]
    )
    return benford_profile(ds, "l_extendedprice")


def q_null_cooccurrence(sf_dir: str):
    """Pairwise missingness structure over a NULLIF-derived view of
    lineitem (the testdata ships null-free, so both sides derive the
    same null pattern: discount/tax zeros and returnflag 'N' →
    NULL): per-batch bit-AND mask partials, driver fold, exact
    integer counts — hash-exact vs SQL count_if."""
    import pyarrow.compute as pc_

    from data_linter_ray.functions.profile import null_cooccurrence

    cols = ["l_discount", "l_returnflag", "l_tax"]
    ds = ray.data.read_parquet(f"{sf_dir}/lineitem.parquet", columns=cols)

    def nullify(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "l_discount": pc_.if_else(
                    pc_.equal(t["l_discount"], 0.0),
                    pa.scalar(None, pa.float64()), t["l_discount"],
                ),
                "l_returnflag": pc_.if_else(
                    pc_.equal(t["l_returnflag"], "N"),
                    pa.scalar(None, pa.string()), t["l_returnflag"],
                ),
                "l_tax": pc_.if_else(
                    pc_.equal(t["l_tax"], 0.0),
                    pa.scalar(None, pa.float64()), t["l_tax"],
                ),
            }
        )

    return null_cooccurrence(
        ds.map_batches(nullify, batch_format="pyarrow"), cols
    )


def q_value_distribution_ks(sf_dir: str):
    """EXACT two-sample Kolmogorov–Smirnov statistic (click vs view
    value distributions): exact equi-depth range boundaries → (value,
    n_a, n_b) count combiner → per-bucket prefix offsets → one range
    exchange; per distinct value both sides compute the same two
    int→double divisions, sup is a selection — bit-exact, NO
    rounding."""
    from data_linter_ray.functions.stats import ks_two_sample

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "value"]
    )
    return ks_two_sample(ds, "value", "event_type", "click", "view")


def q_event_segment_chisq(sf_dir: str):
    """Chi-square contingency table (event_type × user segment
    user_id&3): per-batch pair-count combiner, driver fold of the tiny
    |A|·|B| table; every cell's expected count and χ² term derive from
    the same exact integers by the same IEEE expression — bit-exact,
    no rounding."""
    import pyarrow.compute as pc_

    from data_linter_ray.functions.stats import contingency_table

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "user_id"]
    )

    def seg(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_type": t["event_type"],
                "segment": pc_.bit_wise_and(t["user_id"], 3),
            }
        )

    return contingency_table(
        ds.map_batches(seg, batch_format="pyarrow"), "event_type", "segment"
    )


def q_value_psi(sf_dir: str):
    """Population Stability Index bins, first vs second half of the
    event window: exact reference-decile boundaries (quantile_disc
    parity), one binned-count pass per side, per-bin int counts +
    IEEE-exact p's; psi_term rounded 9 dp both sides (numpy vs DuckDB
    ln last-ulp)."""
    import pyarrow.compute as pc_

    from data_linter_ray.functions.stats import psi_bins_tagged

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["ts", "value"]
    )
    import datetime as _dt

    cut = pa.scalar(_dt.datetime(2024, 1, 16))

    def tag(t: pa.Table) -> pa.Table:
        # null ts belongs to NEITHER side (oracle drops it from both)
        t = t.filter(pc_.is_valid(t["ts"]))
        return pa.table(
            {"value": t["value"], "is_ref": pc_.less(t["ts"], cut)}
        )

    tagged = ev.map_batches(tag, batch_format="pyarrow")
    return psi_bins_tagged(tagged, "value", "is_ref", n_bins=10, round_to=9)


def q_value_gini(sf_dir: str):
    """EXACT Gini coefficient of event values (concentration monitor):
    integer-cents rank-sum identity over the KS range-exchange
    machinery; all folds are arbitrary-precision ints (HUGEINT on the
    SQL side), final expression two exact-int→double casts + one
    division — bit-exact, no rounding."""
    from data_linter_ray.functions.stats import gini

    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["value"])
    return gini(ds, "value")


def q_value_mannwhitney(sf_dir: str):
    """EXACT Mann-Whitney U (click vs view): doubled average ranks are
    integers (2o + m + 1 per tie run), per-bucket rank-sum partials
    fold as arbitrary-precision ints (HUGEINT oracle), final U one
    exact-int->double cast and a power-of-two divide -- bit-exact."""
    from data_linter_ray.functions.stats import mannwhitney_u

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "value"]
    )
    return mannwhitney_u(ds, "value", "event_type", "click", "view")


def q_price_quantity_spearman(sf_dir: str):
    """EXACT Spearman rank correlation (quantity vs extendedprice,
    heavy ties on the quantity side): distributed value->doubled-rank
    maps + two hash joins + arbitrary-precision sufficient statistics.
    The sufficient statistics are exact integers; the final rho is
    pinned at 9 dp on BOTH sides because the closed form's int→double
    casts exceed 2^53 at sf≥0.1, where Python's and DuckDB's cast
    conventions can differ in the last ulp (observed: 1-ulp rho gap at
    sf0.1, exact at sf0.01)."""
    from data_linter_ray.functions.stats import spearman_corr

    ds = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_quantity", "l_extendedprice"],
    )
    out = spearman_corr(ds, "l_quantity", "l_extendedprice")
    out["rho"] = out["rho"].round(9)
    return out


def q_value_user_kendall(sf_dir: str):
    """EXACT Kendall τ-b (rounded value vs user id, heavy ties on both
    sides) WITHOUT enumerating the O(n²) pairs: same-x-bucket pairs by
    per-bucket vectorized inversion counting, cross-bucket/same-y-
    bucket pairs in a second range exchange, cross-bucket/cross-bucket
    pairs from the P×Q joint count matrix on the driver — exact
    integer c/d, bit-exact τ-b vs the SQL pairwise self-join.
    ``round_mode="half_towards_infinity"`` (= half away from zero)
    matches DuckDB's round()
    (Arrow defaults to half-to-even)."""
    import pyarrow.compute as pc_

    from data_linter_ray.functions.stats import kendall_tau

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["value", "user_id"]
    )

    def derive(t: pa.Table) -> pa.Table:
        # a NaN value has no integer to round to: drop it, and the nulls
        # with it, as kendall_tau's pairwise deletion would
        t = t.filter(pc_.invert(pc_.is_nan(t["value"])))
        return pa.table(
            {
                "x": pc_.round(
                    t["value"], round_mode="half_towards_infinity"
                ).cast(pa.int64()),
                "y": t["user_id"],
            }
        )

    out = kendall_tau(
        ds.map_batches(derive, batch_format="pyarrow"), "x", "y"
    )
    # c/d pair counts are exact ints; τ-b pinned at 9 dp both sides
    # (same >2^53 int→double cast-convention hazard as spearman's rho)
    out["tau_b"] = out["tau_b"].round(9)
    return out


def q_event_segment_mi(sf_dir: str):
    """Per-cell mutual information (event_type × user segment): exact
    int operands, one IEEE ln per cell, round-9 both sides (the
    group_entropy ln-ulp trade)."""
    import pyarrow.compute as pc_

    from data_linter_ray.functions.stats import mutual_information

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "user_id"]
    )

    def seg(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_type": t["event_type"],
                "segment": pc_.bit_wise_and(t["user_id"], 3),
            }
        )

    return mutual_information(
        ds.map_batches(seg, batch_format="pyarrow"),
        "event_type", "segment", round_to=9,
    )


def q_event_segment_cramers_v(sf_dir: str):
    """Cramér's V summary of the χ² table: chi2 = cell-term sum (SQL
    SUM order unspecified → round 6 both sides), V = sqrt(chi2 /
    (N·min(R−1, C−1)))."""
    import math

    cells = q_event_segment_chisq(sf_dir)
    n = int(cells["n"].sum())
    chi2 = float(cells["chi2_term"].sum())
    r = cells["event_type"].nunique()
    c = cells["segment"].nunique()
    v = math.sqrt(chi2 / (n * min(r - 1, c - 1)))
    import pandas as pd_

    return pd_.DataFrame(
        {"n": [n], "chi2": [round(chi2, 6)], "cramers_v": [round(v, 6)]}
    )


def q_value_autocorr(sf_dir: str):
    """Pooled lag-1 autocorrelation of per-user value series: one
    key-hash exchange, shift-masked lag pairs, 6-lane sufficient
    statistics folded on the driver; null-VALUE rows keep their
    position (SQL lag() counts them), round-6 both sides."""
    from data_linter_ray.functions.window import lag_correlation

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "event_id", "value"],
    )
    return lag_correlation(
        ds, "user_id", "ts", "event_id", "value", round_to=6
    )


def q_price_quantity_heatmap(sf_dir: str):
    """Exact joint equi-depth histogram (quantity × extendedprice, 6×6
    deciles): exact quantile_disc boundaries over pairwise-deleted
    rows, one searchsorted×2 + bincount pass, exact int cells."""
    from data_linter_ray.functions.stats import joint_histogram

    ds = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_quantity", "l_extendedprice"],
    )
    return joint_histogram(
        ds, "l_quantity", "l_extendedprice", n_bins_x=6, n_bins_y=6
    )


def q_segment_drift_ks(sf_dir: str):
    """Per-group drift table: exact KS sup distance of every event
    type's value distribution vs the pooled corpus (which segment
    drifted?) — (value, group, n) combiner, per-(bucket, group)
    prefix offsets, one range exchange with G local sups per bucket;
    bit-exact, no rounding."""
    from data_linter_ray.functions.stats import ks_per_group

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["value", "event_type"]
    )
    return ks_per_group(ds, "value", "event_type")


def q_vocab_zipf_slope(sf_dir: str):
    """Zipf law fit over the document-frequency vocabulary: the
    distributed df operator feeds a driver-side OLS of ln(df) on
    ln(rank) over the top 100 (rank-bounded — the only driver-side
    rows); round-6 closed form over SUMs."""
    import numpy as np_

    from data_linter_ray.functions.text import token_doc_frequency

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["text"])
    vocab = token_doc_frequency(ds, min_df=5).to_pandas()
    top = (
        vocab.sort_values(["df", "token"], ascending=[False, True])
        .head(100)
        .reset_index(drop=True)
    )
    x = np_.log(np_.arange(1, len(top) + 1, dtype=np_.float64))
    y = np_.log(top["df"].to_numpy(np_.float64))
    n = float(len(top))
    sx, sy, sxx, sxy = x.sum(), y.sum(), (x * x).sum(), (x * y).sum()
    slope = round((n * sxy - sx * sy) / (n * sxx - sx * sx), 6)
    import pandas as pd_

    return pd_.DataFrame({"n_tokens": [int(n)], "zipf_slope": [slope]})


def q_source_dup_rate(sf_dir: str):
    """Per-source exact duplicate-text rate (provenance quality):
    the distributed per-group count-distinct op + per-source counts;
    dup_rate = 1 − distinct/n is one exact-int division — identical
    doubles both sides, no rounding."""
    import pandas as pd_

    from data_linter_ray.functions.stats import group_count_distinct

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["source", "text"]
    )
    distinct = group_count_distinct(ds, "source", "text")
    counts = (
        ds.groupby("source").count().to_pandas()
        .rename(columns={"count()": "n_docs"})
    )
    out = counts.merge(distinct, on="source")
    out["dup_rate"] = 1.0 - out["n_distinct"] / out["n_docs"].astype("float64")
    return out.sort_values("source").reset_index(drop=True)[
        ["source", "n_docs", "n_distinct", "dup_rate"]
    ]


def q_event_basket_lift(sf_dir: str):
    """Market-basket co-occurrence lift over (user, day) baskets:
    distinct (basket, item) combiner → basket-hash exchange (disjoint
    basket sets per partition) → vectorized per-basket pair counts;
    lift is one exact-int expression — no rounding."""
    import pyarrow.compute as pc_

    from data_linter_ray.functions.stats import cooccurrence_lift

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "event_type"],
    )

    def basket(t: pa.Table) -> pa.Table:
        t = t.drop_null()
        return pa.table(
            {
                "basket": pc_.binary_join_element_wise(
                    pc_.cast(t["user_id"], pa.string()),
                    pc_.strftime(t["ts"], "%Y-%m-%d"),
                    "@",
                ),
                "event_type": t["event_type"],
            }
        )

    return cooccurrence_lift(
        ds.map_batches(basket, batch_format="pyarrow"),
        "basket", "event_type",
    )


def q_price_by_quantity_quartiles(sf_dir: str):
    """Conditional quantiles by composition (binned quantile
    regression): exact quantity quartile buckets feed the per-group
    exact quantile scan of extendedprice — quantile_disc values are
    selections, hash-exact."""
    from data_linter_ray.functions.quantiles import (
        grouped_quantiles,
        quantile_bucketize,
    )

    ds = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_quantity", "l_extendedprice"],
    )
    binned = quantile_bucketize(
        ds, "l_quantity", keep_cols=["l_extendedprice"]
    )
    return grouped_quantiles(
        binned, "l_extendedprice", "bucket", [0.25, 0.5, 0.75]
    )


def q_weekly_drift_ks(sf_dir: str):
    """Weekly drift series: exact per-week KS of the value CDF vs the
    pooled month (ks_per_group with week-of-month groups) — the drift
    TIMELINE a monitor plots; bit-exact."""
    import pyarrow.compute as pc_

    from data_linter_ray.functions.stats import ks_per_group

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["ts", "value"]
    )

    def week(t: pa.Table) -> pa.Table:
        t = t.drop_null()
        w = pc_.divide(
            pc_.subtract(pc_.day(t["ts"]), 1), 7
        )
        return pa.table({"value": t["value"], "week": w.cast(pa.int64())})

    return ks_per_group(
        ds.map_batches(week, batch_format="pyarrow"), "value", "week"
    )


def q_funnel_conversion(sf_dir: str):
    """Funnel conversion summary: users per reached-stage level from
    the distributed funnel — exact integer counts."""
    from ray.data.aggregate import Count

    from data_linter_ray.functions.window import funnel

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "event_type"],
    )
    fun = funnel(ds, "user_id", "ts", "event_type",
                 ["view", "click", "purchase"])
    out = fun.groupby("reached").count().to_pandas()
    out = out.rename(columns={"count()": "n_users"})
    return out.sort_values("reached").reset_index(drop=True)


def q_value_sla_verdicts(sf_dir: str):
    """Quantile SLA gate (the linter verdict framing over exact order
    statistics): p50/p95/p99 of value checked against fixed ceilings;
    quantile values are selections (hash-exact), the verdict an
    integer-free boolean comparison — identical both sides."""
    import pandas as pd_

    from data_linter_ray.functions.quantiles import exact_quantiles

    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["value"])
    qs = exact_quantiles(ds, "value", [0.5, 0.95, 0.99])
    rules = {0.5: 60.0, 0.95: 110.0, 0.99: 140.0}
    out = qs.copy()
    out["threshold"] = out["q"].map(rules)
    out["passed"] = out["value"] <= out["threshold"]
    return out[["q", "value", "threshold", "passed"]]


def q_weekly_active_users(sf_dir: str):
    """EXACT rolling 7-day active users per day (WAU) without
    per-window dedupe: per-user activity-day interval union → ±1
    delta rows → span-bounded driver cumsum; exact integer counts."""
    from data_linter_ray.functions.cohort import windowed_active_counts

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts"]
    )
    out = windowed_active_counts(ds, "user_id", "ts", window_days=7)
    import pandas as pd_

    out = out.copy()
    out["day"] = pd_.to_datetime(out["day"])
    return out


def q_session_duration_quartiles(sf_dir: str):
    """Session-duration quartiles for multi-event sessions by
    composition: distributed sessionize → duration derive + filter →
    sort-free exact quantile scan; int64 microsecond durations,
    quantile values are selections — hash-exact."""
    import pandas as pd_
    import pyarrow.compute as pc_

    from data_linter_ray.functions.quantiles import exact_quantiles
    from data_linter_ray.functions.timeseries import sessionize

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts"]
    )
    sess = sessionize(
        ds, time_col="ts", by="user_id", gap=pd_.Timedelta(minutes=30)
    )

    def dur(t: pa.Table) -> pa.Table:
        t = t.filter(pc_.greater(t["n_rows"], 1))
        d = pc_.subtract(
            t["session_end"].cast(pa.timestamp("us")),
            t["session_start"].cast(pa.timestamp("us")),
        )
        return pa.table({"duration_us": d.cast(pa.int64())})

    return exact_quantiles(
        sess.map_batches(dur, batch_format="pyarrow"),
        "duration_us", [0.25, 0.5, 0.75],
    ).sort_values("q").reset_index(drop=True)


def q_source_pareto(sf_dir: str):
    """Contribution / Pareto analysis: per-source document-char mass
    with cumulative share in descending-mass order ("which sources
    drive 80% of the corpus?"). Exact integer sums; shares are
    int→double divisions in a fixed driver-side order (sources
    bounded); cum_share rounded 9 dp both sides (SQL window SUM over
    doubles is order-fixed here by ORDER BY, engine matches with an
    ordered cumsum — rounding guards the last ulp)."""
    import numpy as np_
    import pandas as pd_

    from ray.data.aggregate import Count, Sum

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["source", "n_chars"]
    )
    agg = (
        ds.groupby("source")
        .aggregate(Count(), Sum("n_chars", alias_name="chars"))
        .to_pandas()
        .rename(columns={"count()": "n_docs"})
    )
    agg = agg.sort_values(
        ["chars", "source"], ascending=[False, True]
    ).reset_index(drop=True)
    total = np_.int64(agg["chars"].sum())
    share = agg["chars"].to_numpy(np_.int64) / np_.float64(total)
    agg["share"] = share
    agg["cum_share"] = np_.round(np_.cumsum(share), 9)
    agg["rank"] = np_.arange(1, len(agg) + 1, dtype=np_.int64)
    return agg[["rank", "source", "n_docs", "chars", "share", "cum_share"]]


def q_source_freshness(sf_dir: str):
    """Freshness verdicts per event segment: each event_type's max ts
    lag behind the global max, gated at 1 hour — exact microsecond
    integers, boolean verdicts."""
    import pandas as pd_

    from ray.data.aggregate import Max

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "ts"]
    )
    per = ds.groupby("event_type").aggregate(Max("ts")).to_pandas()
    per = per.rename(columns={"max(ts)": "max_ts"})
    global_max = per["max_ts"].max()
    lag_us = (
        (global_max - per["max_ts"]).dt.total_seconds() * 1_000_000
    ).round().astype("int64")
    out = pd_.DataFrame(
        {
            "event_type": per["event_type"],
            "max_ts": per["max_ts"],
            "lag_us": lag_us,
            "fresh": lag_us <= 3_600_000_000,
        }
    )
    return out.sort_values("event_type").reset_index(drop=True)


def q_value_cusum_alarms(sf_dir: str):
    """Per-user one-sided CUSUM drift alarms (sequential changepoint
    detection): the clamped recursion has the closed form
    C − min(0, running min C), so one cumsum + one segmented
    minimum.accumulate per partition computes every alarm — integer
    cents, hash-exact vs the SQL nested-window oracle."""
    from data_linter_ray.functions.window import cusum_alarms

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "event_id", "value"],
    )
    return cusum_alarms(
        ds, "user_id", "ts", "event_id", "value",
        ref_cents=5500, slack_cents=0, threshold_cents=20000,
    )


def q_grouped_value_mad(sf_dir: str):
    """Per-segment robust dispersion: exact median + median absolute
    deviation via two grouped quantile scans and one broadcast medians
    map — selections, hash-exact vs SQL quantile_disc semantics."""
    from data_linter_ray.functions.quantiles import grouped_mad

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "value"]
    )
    return grouped_mad(ds, "value", "event_type")


def q_gap_quartiles(sf_dir: str):
    """Inter-arrival cadence: quartiles of per-user inter-event gaps
    by composition (keyed_window gap lane → exact quantile scan);
    int64 microsecond gaps, selections — hash-exact."""
    import pyarrow.compute as pc_

    from data_linter_ray.functions.quantiles import exact_quantiles
    from data_linter_ray.functions.window import keyed_window

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts", "event_id"]
    )
    win = keyed_window(ds, "user_id", "ts", "event_id")
    gaps = win.map_batches(
        lambda t: pa.table({"gap_us": t["gap_us"]}).drop_null(),
        batch_format="pyarrow",
    )
    return exact_quantiles(
        gaps, "gap_us", [0.25, 0.5, 0.75]
    ).sort_values("q").reset_index(drop=True)


def queries() -> dict[str, Callable[[str], Any]]:
    # ORDER MATTERS: the driver's correctness pass covers the FIRST 50
    # keys.  The §2-parity engine core comes first (the reference's
    # validator semantics — reference validators.py / lint.py), then the
    # round-3 red row (quantized_embeddings), then the flagship
    # LLM-pipeline operators.  The long tail past position 50 is still
    # oracle-checked by tools/check_oracle.py every round.
    return {
        # -- engine core: §2 validator parity (reference semantics) --
        "minmax_violations": q_minmax_violations,
        "enum_violations": q_enum_violations,
        "pattern_violations": q_pattern_violations,
        "length_violations": q_length_violations,
        "date_format_violations": q_date_format_violations,
        "unique_violations": q_unique_violations,
        "ref_violations": q_ref_violations,
        "verdict_summary": q_verdict_summary,
        "span_verdicts": q_span_verdicts,
        "span_equality": q_span_equality,
        "lineitem_verdict": q_lineitem_verdict,
        "star_ref_check": q_star_ref_check,
        "orders_summary": q_orders_summary,
        "customer_acctbal_violations": q_customer_acctbal_violations,
        # -- round-3 driver-red row, digest now integer-pinned --
        "quantized_embeddings": q_quantized_embeddings,
        # -- config-driven run lifecycle (reference §3.1) --
        "run_summary": q_run_summary,
        # -- CSV ingest lifecycle (reference's primary input path) --
        "run_summary_csv": q_run_summary_csv,
        # -- interleaved (north-rule) analysis operators --
        "c4_clean_documents": q_c4_clean_documents,
        "span_stats": q_span_stats,
        "doc_texts": q_doc_texts,
        "media_ref_counts": q_media_ref_counts,
        "span_kind_mix": q_span_kind_mix,
        "span_text_dedup": q_span_text_dedup,
        # -- flagship LLM-pipeline operators --
        "exact_dedup": q_exact_dedup,
        "minhash_dedup": q_minhash_dedup,
        "simhash_dedup": q_simhash_dedup,
        "dedup_groups": q_dedup_groups,
        "deduped_documents": q_deduped_documents,
        "jaccard_pairs": q_jaccard_pairs,
        "knn": q_knn,
        "embedding_near_dups": q_embedding_near_dups,
        "nearest_reference": q_nearest_reference,
        "token_stats": q_token_stats,
        "quality_stats": q_quality_stats,
        "langid": q_langid,
        "fingerprints": q_fingerprints,
        "fingerprints_modp": q_fingerprints_modp,
        "normalized_documents": q_normalized_documents,
        "vocabulary": q_vocabulary,
        "duplicate_sentences": q_duplicate_sentences,
        "tfidf_terms": q_tfidf_terms,
        "pii_scan": q_pii_scan,
        "redacted_documents": q_redacted_documents,
        "contaminated_docs": q_contaminated_docs,
        "pack_offsets": q_pack_offsets,
        "split_assignment": q_split_assignment,
        "weighted_sample": q_weighted_sample,
        "drift": q_drift,
        "profile": q_profile,
        "top_users": q_top_users,
        "heavy_users": q_heavy_users,
        "value_histogram": q_value_histogram,
        "value_quantiles": q_value_quantiles,
        "grouped_quantiles": q_grouped_quantiles,
        "asof_purchases": q_asof_purchases,
        "range_events": q_range_events,
        # ---- end of the driver's 50-query window ----
        "lm_scores": q_lm_scores,
        "embedding_clusters": q_embedding_clusters,
        "bm25_topk": q_bm25_topk,
        "session_stats": q_session_stats,
        "clean_documents": q_clean_documents,
        "events_windowed": q_events_windowed,
        "events_summary": q_events_summary,
        "media_features": q_media_features,
        "audio_features": q_audio_features,
        "dominant_lang": q_dominant_lang,
        "out_of_order_events": q_out_of_order_events,
        "source_lang_entropy": q_source_lang_entropy,
        "collocations": q_collocations,
        "compacted_events": q_compacted_events,
        "length_quartiles": q_length_quartiles,
        "source_overlap": q_source_overlap,
        "events_per_user_cap": q_events_per_user_cap,
        "best_docs_per_lang": q_best_docs_per_lang,
        "events_hopping": q_events_hopping,
        "value_outliers": q_value_outliers,
        "fd_violations": q_fd_violations,
        "value_rank": q_value_rank,
        "repetition_stats": q_repetition_stats,
        "profile_drift": q_profile_drift,
        "user_event_deltas": q_user_event_deltas,
        "funnel_stages": q_funnel_stages,
        "lineitem_rollup": q_lineitem_rollup,
        "user_event_pivot": q_user_event_pivot,
        "fuzzy_name_pairs": q_fuzzy_name_pairs,
        "snapshot_diff": q_snapshot_diff,
        "overlap_pairs": q_overlap_pairs,
        "incremental_violations": q_incremental_violations,
        "big_spenders": q_big_spenders,
        "customers_no_orders": q_customers_no_orders,
        "corpus_mixture": q_corpus_mixture,
        "entity_union": q_entity_union,
        "apply_changes": q_apply_changes,
        "value_percent_rank": q_value_percent_rank,
        "lineitem_corr": q_lineitem_corr,
        "value_percentiles_cont": q_value_percentiles_cont,
        "customer_order_activity": q_customer_order_activity,
        "user_retention": q_user_retention,
        "user_value_rolling": q_user_value_rolling,
        "grouped_percentiles_cont": q_grouped_percentiles_cont,
        "value_winsorized": q_value_winsorized,
        "event_type_reach": q_event_type_reach,
        "document_chunks": q_document_chunks,
        "lineitem_check_violations": q_lineitem_check_violations,
        "deduped_chunks": q_deduped_chunks,
        "event_props_stats": q_event_props_stats,
        "value_mad": q_value_mad,
        "event_transitions": q_event_transitions,
        "users_both_halves": q_users_both_halves,
        "users_first_half_only": q_users_first_half_only,
        "label_centroids": q_label_centroids,
        "gopher_filter": q_gopher_filter,
        "daily_active_users": q_daily_active_users,
        "events_candidate_keys": q_events_candidate_keys,
        "rolling_anomalies": q_rolling_anomalies,
        "source_quality": q_source_quality,
        "lineitem_unpivot": q_lineitem_unpivot,
        "lineitem_cube": q_lineitem_cube,
        "value_iqr_outliers": q_value_iqr_outliers,
        "fuzzy_entities": q_fuzzy_entities,
        "orders_by_nation": q_orders_by_nation,
        "segment_price_trend": q_segment_price_trend,
        "trailing_hour_load": q_trailing_hour_load,
        "daily_value_snapshot": q_daily_value_snapshot,
        "price_benford": q_price_benford,
        "null_cooccurrence": q_null_cooccurrence,
        "value_distribution_ks": q_value_distribution_ks,
        "event_segment_chisq": q_event_segment_chisq,
        "value_psi": q_value_psi,
        "value_gini": q_value_gini,
        "value_mannwhitney": q_value_mannwhitney,
        "price_quantity_spearman": q_price_quantity_spearman,
        "value_user_kendall": q_value_user_kendall,
        "event_segment_mi": q_event_segment_mi,
        "event_segment_cramers_v": q_event_segment_cramers_v,
        "value_autocorr": q_value_autocorr,
        "price_quantity_heatmap": q_price_quantity_heatmap,
        "segment_drift_ks": q_segment_drift_ks,
        "vocab_zipf_slope": q_vocab_zipf_slope,
        "source_dup_rate": q_source_dup_rate,
        "event_basket_lift": q_event_basket_lift,
        "price_by_quantity_quartiles": q_price_by_quantity_quartiles,
        "weekly_drift_ks": q_weekly_drift_ks,
        "funnel_conversion": q_funnel_conversion,
        "value_sla_verdicts": q_value_sla_verdicts,
        "weekly_active_users": q_weekly_active_users,
        "session_duration_quartiles": q_session_duration_quartiles,
        "source_pareto": q_source_pareto,
        "source_freshness": q_source_freshness,
        "value_cusum_alarms": q_value_cusum_alarms,
        "grouped_value_mad": q_grouped_value_mad,
        "gap_quartiles": q_gap_quartiles,
    }


def _langid_sql() -> str:
    """DuckDB mirror of functions.text.langid_table: one RE2 stopword
    count per language, first-max wins in lexicon order, 'und' when no
    lexicon hits. Both sides use RE2, so counts match exactly."""
    from data_linter_ray.functions.text import LANG_STOPWORDS, _lang_pattern

    score_cols = ", ".join(
        f"len(regexp_extract_all(lower(text), '{_lang_pattern(ws)}')) AS s_{lang}"
        for lang, ws in LANG_STOPWORDS.items()
    )
    langs = list(LANG_STOPWORDS)
    greatest = "greatest(" + ", ".join(f"s_{la}" for la in langs) + ")"
    case = f"CASE WHEN {greatest} = 0 THEN 'und' " + " ".join(
        f"WHEN s_{la} = {greatest} THEN '{la}'" for la in langs[:-1]
    ) + f" ELSE '{langs[-1]}' END"
    return (
        f"WITH s AS (SELECT doc_id, lang, {score_cols} FROM documents) "
        f"SELECT doc_id, lang, {case} AS lang_pred FROM s"
    )


def _span_verdicts_sql(docs_path: str, catalog_path: str) -> str:
    """DuckDB mirror of the interleaved validate pipeline's verdict counts
    over the span fixture parquet: per-row span-check masks via UNNEST +
    window lag, element-level referential, distinct-duplicate uniqueness
    (matching validate.py's one-count-per-duplicated-key convention)."""
    return f"""
WITH docs AS (
  SELECT row_number() OVER () AS rid, doc_id, spans
  FROM read_parquet('{docs_path}')
), cat AS (SELECT media_ref FROM read_parquet('{catalog_path}')),
f AS (
  SELECT rid,
         generate_subscripts(spans, 1) AS pos,
         unnest(spans, recursive := true)
  FROM docs
), fw AS (
  SELECT *, lag("offset") OVER (PARTITION BY rid ORDER BY pos) AS prev_off FROM f
)
SELECT * FROM (
  SELECT 'doc_id' AS "column", 'pattern_test' AS test,
    (SELECT count(*) FROM docs WHERE doc_id IS NOT NULL
      AND NOT regexp_matches(doc_id, '^doc-[0-9a-f]{{12}}$')) AS n_violations
  UNION ALL SELECT 'doc_id', 'unique_test',
    (SELECT count(*) FROM (SELECT doc_id FROM docs GROUP BY doc_id HAVING count(*) > 1))
  UNION ALL SELECT 'spans', 'referential_test',
    (SELECT count(*) FROM f WHERE media_ref IS NOT NULL
      AND media_ref NOT IN (SELECT media_ref FROM cat))
  UNION ALL SELECT 'spans', 'span_kind_enum',
    (SELECT count(DISTINCT rid) FROM f WHERE kind IS NULL
      OR kind NOT IN ('text','image','audio','video'))
  UNION ALL SELECT 'spans', 'span_text_presence',
    (SELECT count(DISTINCT rid) FROM f WHERE kind = 'text' AND text IS NULL)
  UNION ALL SELECT 'spans', 'span_media_presence',
    (SELECT count(DISTINCT rid) FROM f WHERE kind IS NOT NULL
      AND kind <> 'text' AND media_ref IS NULL)
  UNION ALL SELECT 'spans', 'span_media_pattern',
    (SELECT count(DISTINCT rid) FROM f WHERE media_ref IS NOT NULL
      AND NOT regexp_matches(media_ref, '^media://[a-z0-9/]+$'))
  UNION ALL SELECT 'spans', 'span_offset_min',
    (SELECT count(DISTINCT rid) FROM f WHERE "offset" < 0)
  UNION ALL SELECT 'spans', 'span_offset_order',
    (SELECT count(DISTINCT rid) FROM fw WHERE prev_off IS NOT NULL AND "offset" < prev_off)
  UNION ALL SELECT 'spans', 'span_count',
    (SELECT count(*) FROM docs WHERE spans IS NULL OR len(spans) < 1 OR len(spans) > 64)
) WHERE n_violations > 0
ORDER BY "column", test
"""


# shared CTE body: the doubled near-dup corpus → distinct trigram sets →
# shared-gram candidate pairs → exact trigram-Jaccard ≥ 0.7 (`verified`).
# Used by the minhash_dedup and dedup_groups oracles — at this corpus
# (doc vs doc+' zzz' ≈ 0.97 plus synthetic near-dup groups ≥ 0.8)
# 16-band/64-perm LSH recall is 1.0, so the engine's LSH+verify output
# equals this SQL-expressible set; pairs below threshold with no shared
# trigram are impossible, and both-empty-gram docs carry no shingles on
# either side.
_MINHASH_PAIRS_CTE = (
    "doubled AS (SELECT doc_id, text FROM documents "
    "UNION ALL SELECT doc_id + 10000, text || ' zzz' FROM documents), "
    "toks AS (SELECT doc_id, list_filter("
    r"regexp_split_to_array(lower(trim(text)), '\W+'), t -> t <> '') AS tk "
    "FROM doubled), "
    "grams AS (SELECT doc_id, CASE WHEN len(tk) >= 3 "
    "THEN list_distinct(list_transform(generate_series(1, len(tk)-2), "
    "i -> tk[i] || chr(31) || tk[i+1] || chr(31) || tk[i+2])) "
    "ELSE [] END AS g3 FROM toks), "
    "g AS (SELECT doc_id, unnest(g3) AS gr FROM grams), "
    "cand AS (SELECT a.doc_id AS id_a, b.doc_id AS id_b "
    "FROM g a JOIN g b ON a.gr = b.gr AND a.doc_id < b.doc_id "
    "GROUP BY 1, 2), "
    "verified AS (SELECT id_a, id_b FROM cand "
    "JOIN grams ga ON ga.doc_id = cand.id_a "
    "JOIN grams gb ON gb.doc_id = cand.id_b "
    "WHERE len(list_intersect(ga.g3, gb.g3))::DOUBLE "
    "/ (len(ga.g3) + len(gb.g3) - len(list_intersect(ga.g3, gb.g3))) "
    ">= 0.7)"
)


def _pii_sql() -> dict[str, str]:
    """DuckDB mirrors of the PII scan/redaction over the injected
    corpus — same RE2 patterns, same redaction order."""
    from data_linter_ray.functions.pii import PII_PATTERNS, REDACT_ORDER

    counts = ", ".join(
        f"CAST(len(regexp_extract_all(text, '{pat}')) AS BIGINT) AS n_{k}"
        for k, (pat, _) in PII_PATTERNS.items()
    )
    total = " + ".join(
        f"len(regexp_extract_all(text, '{pat}'))" for pat, _ in PII_PATTERNS.values()
    )
    red = "text"
    for kind in REDACT_ORDER:
        pat, token = PII_PATTERNS[kind]
        red = f"regexp_replace({red}, '{pat}', '{token}', 'g')"
    return {
        "pii_scan": (
            f"WITH d AS (SELECT doc_id, {_PII_INJECT_SQL} AS text FROM documents) "
            f"SELECT doc_id, {counts}, ({total}) > 0 AS has_pii FROM d"
        ),
        "redacted_documents": (
            f"WITH d AS (SELECT doc_id, {_PII_INJECT_SQL} AS text FROM documents) "
            f"SELECT doc_id, {red} AS text_redacted FROM d"
        ),
    }


def oracle_sql() -> dict[str, str]:
    from data_linter_ray import synth

    fixture = synth.ensure_span_fixture()
    enum_list = ", ".join(f"'{v}'" for v in EVENT_ENUM)
    return {
        **_pii_sql(),
        **_interleaved_sql(fixture["docs"]),
        "span_text_dedup": _span_text_dedup_sql(fixture["docs"]),
        "c4_clean_documents": _C4_SQL,
        "run_summary": _run_summary_sql(synth.ensure_run_fixture()),
        "run_summary_csv": _run_summary_csv_sql(synth.ensure_csv_run_fixture()),
        "embedding_clusters": _embedding_clusters_sql(),
        "pack_offsets": (
            "WITH t AS (SELECT doc_id, CAST(CASE WHEN trim(text) = '' THEN 0 ELSE "
            r"len(regexp_split_to_array(trim(text), '\s+')) END AS BIGINT) "
            "AS n_tokens FROM documents), "
            "w AS (SELECT doc_id, n_tokens, CAST(COALESCE(sum(n_tokens) OVER ("
            "ORDER BY doc_id ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) "
            "AS BIGINT) AS start_offset FROM t) "
            "SELECT doc_id, n_tokens, start_offset, start_offset // 2048 AS seq_id "
            "FROM w"
        ),
        # gram identity on the engine side is a 64-bit hash of the token
        # sequence; tokens carry no \W chars so the chr(31)-joined string
        # is an injective equivalent — same algebra the proven
        # jaccard_pairs / minhash oracles use.
        "contaminated_docs": (
            "WITH toks AS (SELECT doc_id, list_filter("
            r"regexp_split_to_array(lower(trim(text)), '\W+'), t -> t <> '') AS tk "
            "FROM documents), "
            "grams AS (SELECT doc_id, CASE WHEN len(tk) >= 3 "
            "THEN list_distinct(list_transform(generate_series(1, len(tk)-2), "
            "i -> tk[i] || chr(31) || tk[i+1] || chr(31) || tk[i+2])) "
            "ELSE [] END AS g3 FROM toks), "
            "bench AS (SELECT DISTINCT unnest(g3) AS g FROM grams WHERE doc_id % 50 = 0), "
            "corp AS (SELECT doc_id, unnest(g3) AS g FROM grams) "
            "SELECT corp.doc_id, count(*) AS n_shared FROM corp "
            "JOIN bench ON corp.g = bench.g GROUP BY corp.doc_id"
        ),
        "split_assignment": (
            "SELECT doc_id, CASE WHEN doc_id % 100 < 80 THEN 'train' "
            "WHEN doc_id % 100 < 90 THEN 'val' ELSE 'test' END AS split "
            "FROM documents WHERE doc_id IS NOT NULL"
        ),
        "fd_violations": (
            "SELECT user_id, count(DISTINCT event_type) AS n_values "
            "FROM events WHERE user_id IS NOT NULL AND event_type IS NOT NULL "
            "GROUP BY user_id HAVING count(DISTINCT event_type) > 1"
        ),
        "value_rank": (
            'SELECT event_id, value, rank() OVER (ORDER BY value) AS "rank" '
            "FROM events WHERE value IS NOT NULL"
        ),
        "bm25_topk": (
            "WITH toks AS (SELECT doc_id, unnest(list_filter("
            r"regexp_split_to_array(lower(trim(text)), '\W+'), t -> t <> '')) AS tok "
            "FROM documents WHERE doc_id IS NOT NULL), "
            "dl AS (SELECT d.doc_id, count(t.tok) AS dl FROM documents d "
            "LEFT JOIN toks t ON d.doc_id = t.doc_id "
            "WHERE d.doc_id IS NOT NULL GROUP BY d.doc_id), "
            "stats AS (SELECT count(*) AS n, sum(dl) AS sdl FROM dl), "
            "tf AS (SELECT doc_id, tok, count(*) AS tf FROM toks "
            "WHERE tok IN ('fast','hash','join') GROUP BY doc_id, tok), "
            "df AS (SELECT tok, count(DISTINCT doc_id) AS df FROM toks "
            "WHERE tok IN ('fast','hash','join') GROUP BY tok) "
            "SELECT tf.doc_id, sum("
            "ln((stats.n - df.df + 0.5) / (df.df + 0.5) + 1.0) "
            "* tf.tf * (1.2 + 1.0) / "
            "(tf.tf + 1.2 * (1.0 - 0.75 + 0.75 * dl.dl / (stats.sdl / stats.n))) "
            "ORDER BY tf.tok) AS score "
            "FROM tf JOIN df USING (tok) JOIN dl USING (doc_id), stats "
            "GROUP BY tf.doc_id ORDER BY score DESC, tf.doc_id LIMIT 25"
        ),
        "value_iqr_outliers": (
            "WITH q AS (SELECT quantile_disc(value, 0.25) AS q1, "
            "quantile_disc(value, 0.75) AS q3 FROM events) "
            "SELECT event_id, value FROM events, q "
            "WHERE value < q1 - 1.5 * (q3 - q1) "
            "OR value > q3 + 1.5 * (q3 - q1)"
        ),
        "fuzzy_entities": (
            "WITH RECURSIVE pairs AS ("
            "SELECT a.c_custkey AS id_a, b.c_custkey AS id_b "
            "FROM customer a JOIN customer b ON a.c_custkey < b.c_custkey "
            "WHERE a.c_name IS NOT NULL AND b.c_name IS NOT NULL "
            "AND a.c_custkey IS NOT NULL AND b.c_custkey IS NOT NULL "
            "AND abs(length(a.c_name) - length(b.c_name)) <= 1 "
            "AND levenshtein(a.c_name, b.c_name) <= 1), "
            "edges AS (SELECT id_a AS a, id_b AS b FROM pairs "
            "UNION SELECT id_b, id_a FROM pairs), "
            "reach(node, r) AS (SELECT a, a FROM edges "
            "UNION SELECT e.a, r.r FROM edges e JOIN reach r ON r.node = e.b) "
            "SELECT node AS c_custkey, min(r) AS entity_id "
            "FROM reach GROUP BY node"
        ),
        "value_percent_rank": (
            'SELECT event_id, value, rank() OVER (ORDER BY value) AS "rank", '
            "percent_rank() OVER (ORDER BY value) AS pr "
            "FROM events WHERE value IS NOT NULL"
        ),
        "lineitem_corr": (
            # the same closed-form expression the engine evaluates over
            # its folded partials, rounded to 6 dp on both sides
            "WITH p AS ("
            + " UNION ALL ".join(
                f"SELECT '{a}' AS col_x, '{b}' AS col_y, "
                f"count(*) AS n, sum({a}) AS sx, sum({b}) AS sy, "
                f"sum({a}*{a}) AS sxx, sum({b}*{b}) AS syy, "
                f"sum({a}*{b}) AS sxy FROM lineitem "
                f"WHERE {a} IS NOT NULL AND {b} IS NOT NULL "
                f"AND NOT isnan({a}) AND NOT isnan({b})"
                for a, b in [
                    ("l_discount", "l_extendedprice"),
                    ("l_discount", "l_quantity"),
                    ("l_discount", "l_tax"),
                    ("l_extendedprice", "l_quantity"),
                    ("l_extendedprice", "l_tax"),
                    ("l_quantity", "l_tax"),
                ]
            )
            + ") SELECT col_x, col_y, n, "
            "round((n*sxy - sx*sy) / (sqrt(n*sxx - sx*sx) * sqrt(n*syy - sy*sy)), 6) "
            'AS "corr" FROM p'
        ),
        "value_percentiles_cont": (
            " UNION ALL ".join(
                f"SELECT {q} AS q, quantile_cont(value, {q}) AS value FROM events"
                for q in [0.1, 0.25, 0.5, 0.75, 0.9, 0.99]
            )
        ),
        "customer_order_activity": (
            "SELECT c_custkey, c_mktsegment, n_orders FROM customer "
            "FULL OUTER JOIN (SELECT o_custkey, count(*) AS n_orders "
            "FROM orders GROUP BY o_custkey) o ON c_custkey = o_custkey"
        ),
        "lm_scores": (
            "WITH toks AS (SELECT doc_id, unnest(list_filter("
            r"regexp_split_to_array(lower(trim(text)), '\W+'), t -> t <> '')) AS tok "
            "FROM documents WHERE doc_id IS NOT NULL), "
            "counts AS (SELECT tok, count(*) AS c FROM toks GROUP BY tok), "
            "tot AS (SELECT sum(c) AS t FROM counts), "
            "dtf AS (SELECT doc_id, tok, count(*) AS tf FROM toks "
            "GROUP BY doc_id, tok) "
            "SELECT doc_id, CAST(sum(tf) AS BIGINT) AS n_tokens, "
            "sum(tf * ln(c / t) ORDER BY tok) / sum(tf) AS mean_logprob "
            "FROM dtf JOIN counts USING (tok), tot GROUP BY doc_id"
        ),
        "lineitem_cube": (
            "SELECT l_returnflag, l_linestatus, count(*) AS n "
            "FROM lineitem GROUP BY CUBE (l_returnflag, l_linestatus)"
        ),
        "lineitem_unpivot": (
            "SELECT l_orderkey, l_linenumber, "
            "CAST(name AS VARCHAR) AS variable, "
            "CAST(value AS DOUBLE) AS value FROM ("
            "UNPIVOT lineitem ON l_quantity, l_extendedprice, "
            "l_discount, l_tax INTO NAME name VALUE value)"
        ),
        "source_quality": (
            "WITH toks AS (SELECT doc_id, list_filter("
            r"regexp_split_to_array(lower(trim(text)), '\W+'), t -> t <> '') AS tk "
            "FROM documents), "
            "tc AS (SELECT doc_id, tok, count(*) AS c FROM "
            "(SELECT doc_id, unnest(tk) AS tok FROM toks) GROUP BY doc_id, tok), "
            "ts AS (SELECT doc_id, sum(c)::BIGINT AS n_tokens, "
            "max(c)::BIGINT AS top_n, sum(c * length(tok))::BIGINT AS char_sum "
            "FROM tc GROUP BY doc_id), "
            "grams AS (SELECT doc_id, CASE WHEN len(tk) >= 3 "
            "THEN list_transform(generate_series(1, len(tk)-2), "
            "i -> tk[i] || chr(31) || tk[i+1] || chr(31) || tk[i+2]) "
            "ELSE [] END AS g3 FROM toks), "
            "gc AS (SELECT doc_id, g, count(*) AS c FROM "
            "(SELECT doc_id, unnest(g3) AS g FROM grams) GROUP BY doc_id, g), "
            "gs AS (SELECT doc_id, sum(c)::BIGINT AS n_tri, "
            "count(*)::BIGINT AS n_dist FROM gc GROUP BY doc_id), "
            "f AS (SELECT d.doc_id, d.source, coalesce(ts.n_tokens, 0) AS n, "
            "coalesce(ts.top_n, 0) AS top_n, coalesce(ts.char_sum, 0) AS cs, "
            "coalesce(gs.n_tri, 0) AS n_tri, coalesce(gs.n_dist, 0) AS n_dist "
            "FROM documents d LEFT JOIN ts ON ts.doc_id = d.doc_id "
            "LEFT JOIN gs ON gs.doc_id = d.doc_id) "
            "SELECT source, count(*) AS n_docs, "
            "sum(CAST((n >= 60 AND n <= 100000) AND "
            "(cs >= 3 * n AND cs <= 10 * n AND n > 0) "
            "AND (top_n * 100 <= 30 * n) "
            "AND ((n_tri - n_dist) * 100 <= 30 * n_tri) AS BIGINT)) :: BIGINT AS n_kept "
            "FROM f GROUP BY source"
        ),
        "rolling_anomalies": (
            "WITH r AS (SELECT user_id, event_id, "
            "sum(CAST(round(value*100) AS BIGINT)) OVER w AS rs, "
            "sum(CAST(round(value*100) AS BIGINT) * "
            "CAST(round(value*100) AS BIGINT)) OVER w AS rss, "
            "count(value) OVER w AS rn, "
            "CAST(round(max(value) OVER w * 100) AS BIGINT) AS mx "
            "FROM events WHERE user_id IS NOT NULL AND ts IS NOT NULL "
            "WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id "
            "ROWS BETWEEN 19 PRECEDING AND CURRENT ROW)) "
            "SELECT user_id, event_id FROM r WHERE rn >= 5 "
            "AND (mx * rn - rs) * (mx * rn - rs) > 9 * (rss * rn - rs * rs)"
        ),
        "daily_active_users": (
            "SELECT CAST(floor(epoch(ts) / 86400) AS BIGINT) AS day, "
            "count(DISTINCT user_id) AS dau FROM events "
            "WHERE ts IS NOT NULL AND user_id IS NOT NULL GROUP BY day"
        ),
        "events_candidate_keys": (
            " UNION ALL ".join(
                f"SELECT '{c}' AS \"column\", count(*) AS n_rows, "
                f"count({c}) AS n_non_null, "
                f"count(DISTINCT {c}) AS n_distinct, "
                f"(count(DISTINCT {c}) = count({c}) "
                f"AND count({c}) = count(*)) AS is_unique FROM events"
                for c in ["event_id", "user_id", "event_type"]
            )
        ),
        "gopher_filter": (
            "WITH toks AS (SELECT doc_id, list_filter("
            r"regexp_split_to_array(lower(trim(text)), '\W+'), t -> t <> '') AS tk "
            "FROM documents), "
            "tc AS (SELECT doc_id, tok, count(*) AS c FROM "
            "(SELECT doc_id, unnest(tk) AS tok FROM toks) GROUP BY doc_id, tok), "
            "ts AS (SELECT doc_id, sum(c)::BIGINT AS n_tokens, "
            "max(c)::BIGINT AS top_n, sum(c * length(tok))::BIGINT AS char_sum "
            "FROM tc GROUP BY doc_id), "
            "grams AS (SELECT doc_id, CASE WHEN len(tk) >= 3 "
            "THEN list_transform(generate_series(1, len(tk)-2), "
            "i -> tk[i] || chr(31) || tk[i+1] || chr(31) || tk[i+2]) "
            "ELSE [] END AS g3 FROM toks), "
            "gc AS (SELECT doc_id, g, count(*) AS c FROM "
            "(SELECT doc_id, unnest(g3) AS g FROM grams) GROUP BY doc_id, g), "
            "gs AS (SELECT doc_id, sum(c)::BIGINT AS n_tri, "
            "count(*)::BIGINT AS n_dist FROM gc GROUP BY doc_id), "
            "f AS (SELECT d.doc_id, coalesce(ts.n_tokens, 0) AS n, "
            "coalesce(ts.top_n, 0) AS top_n, coalesce(ts.char_sum, 0) AS cs, "
            "coalesce(gs.n_tri, 0) AS n_tri, coalesce(gs.n_dist, 0) AS n_dist "
            "FROM documents d LEFT JOIN ts ON ts.doc_id = d.doc_id "
            "LEFT JOIN gs ON gs.doc_id = d.doc_id) "
            "SELECT doc_id, "
            "(n >= 60 AND n <= 100000) AS r_tokens, "
            "(cs >= 3 * n AND cs <= 10 * n AND n > 0) AS r_word_len, "
            "(top_n * 100 <= 30 * n) AS r_top_token, "
            "((n_tri - n_dist) * 100 <= 30 * n_tri) AS r_dup_tri, "
            "((n >= 60 AND n <= 100000) AND (cs >= 3 * n AND cs <= 10 * n AND n > 0) "
            "AND (top_n * 100 <= 30 * n) AND ((n_tri - n_dist) * 100 <= 30 * n_tri)) "
            "AS keep FROM f"
        ),
        "label_centroids": (
            "WITH u AS (SELECT label, unnest(embedding) AS v, "
            "generate_subscripts(embedding, 1) AS dim FROM embeddings "
            "WHERE label IS NOT NULL AND embedding IS NOT NULL) "
            "SELECT CAST(label AS BIGINT) AS label, dim, "
            "round(sum(CAST(v AS DOUBLE)) / count(v), 6) AS centroid "
            "FROM u GROUP BY label, dim"
        ),
        "users_both_halves": (
            "SELECT user_id FROM events WHERE ts < TIMESTAMP '2024-01-16' "
            "INTERSECT "
            "SELECT user_id FROM events WHERE ts >= TIMESTAMP '2024-01-16'"
        ),
        "users_first_half_only": (
            "SELECT user_id FROM events WHERE ts < TIMESTAMP '2024-01-30' "
            "EXCEPT "
            "SELECT user_id FROM events WHERE ts >= TIMESTAMP '2024-01-30'"
        ),
        "event_transitions": (
            "WITH o AS (SELECT user_id, event_type, "
            "lag(event_type) OVER (PARTITION BY user_id "
            "ORDER BY ts, event_id) AS prev_type FROM events "
            "WHERE user_id IS NOT NULL AND ts IS NOT NULL "
            "AND event_type IS NOT NULL) "
            "SELECT prev_type AS from_type, event_type AS to_type, "
            "count(*) AS n FROM o WHERE prev_type IS NOT NULL "
            "GROUP BY prev_type, event_type"
        ),
        "value_mad": (
            "WITH m AS (SELECT quantile_disc(value, 0.5) AS med FROM events) "
            "SELECT med AS median, "
            "(SELECT quantile_disc(abs(value - med), 0.5) FROM events) AS mad "
            "FROM m"
        ),
        "event_props_stats": (
            "WITH e AS (SELECT event_type, "
            "CAST(json_extract(props, '$.k') AS BIGINT) AS k FROM events) "
            "SELECT event_type, count(*) AS n, min(k) AS min_k, "
            "max(k) AS max_k, CAST(sum(k) AS BIGINT) AS sum_k FROM e "
            "WHERE k IS NOT NULL AND event_type IS NOT NULL "
            "GROUP BY event_type"
        ),
        "deduped_chunks": (
            "WITH arr AS (SELECT doc_id, list_filter("
            r"regexp_split_to_array(text, '\s+'), t -> t <> '') AS a "
            "FROM documents), "
            "idx AS (SELECT doc_id, a, "
            "unnest(range(0, greatest(len(a), 1), 16)) AS s "
            "FROM arr WHERE len(a) > 0), "
            "c AS (SELECT doc_id * 1000000 + CAST(s / 16 AS BIGINT) AS cid, "
            "array_to_string(list_slice(a, s + 1, s + 16), ' ') AS text "
            "FROM idx) "
            "SELECT min(cid) AS cid, text FROM c GROUP BY text"
        ),
        "lineitem_check_violations": (
            "SELECT l_orderkey, l_linenumber, l_tax, l_discount "
            "FROM lineitem WHERE NOT (l_tax + l_discount < 0.15) "
            "OR (l_tax + l_discount) IS NULL"
        ),
        "document_chunks": (
            "WITH arr AS (SELECT doc_id, list_filter("
            r"regexp_split_to_array(text, '\s+'), t -> t <> '') AS a "
            "FROM documents), "
            "idx AS (SELECT doc_id, a, "
            "unnest(range(0, greatest(len(a), 1), 32)) AS s "
            "FROM arr WHERE len(a) > 0) "
            "SELECT doc_id, CAST(s / 32 AS BIGINT) AS chunk_id, "
            "len(list_slice(a, s + 1, s + 64)) AS n_tokens, "
            "array_to_string(list_slice(a, s + 1, s + 64), ' ') AS text "
            "FROM idx"
        ),
        "event_type_reach": (
            "SELECT event_type, count(DISTINCT user_id) AS n_distinct "
            "FROM events WHERE event_type IS NOT NULL "
            "AND user_id IS NOT NULL GROUP BY event_type"
        ),
        "nearest_reference": (
            "WITH refs AS (SELECT vec_id AS rid, embedding AS e "
            "FROM embeddings WHERE label = 0), "
            "qs AS (SELECT vec_id AS qid, embedding AS qe "
            "FROM embeddings WHERE label <> 0), "
            "sims AS (SELECT qid, rid, "
            "list_cosine_similarity(qe, e) AS sim FROM qs, refs) "
            "SELECT qid AS query_id, rid AS neighbor_id FROM ("
            "SELECT qid, rid, row_number() OVER ("
            "PARTITION BY qid ORDER BY sim DESC, rid) AS rn FROM sims) "
            "WHERE rn = 1"
        ),
        "value_winsorized": (
            "WITH f AS (SELECT quantile_disc(value, 0.01) AS lo, "
            "quantile_disc(value, 0.99) AS hi FROM events) "
            "SELECT event_id, value, "
            "CASE WHEN value < lo THEN lo WHEN value > hi THEN hi "
            "ELSE value END AS value_capped FROM events, f"
        ),
        "grouped_percentiles_cont": (
            " UNION ALL ".join(
                f"SELECT event_type, {q} AS q, "
                f"quantile_cont(value, {q}) AS value FROM events "
                "WHERE event_type IS NOT NULL GROUP BY event_type"
                for q in [0.25, 0.5, 0.9]
            )
        ),
        "user_value_rolling": (
            "SELECT user_id, event_id, ts, "
            "CAST(sum(CAST(round(value * 100) AS BIGINT)) OVER w AS BIGINT) "
            "AS roll_sum_cents, "
            "CAST(sum(CAST(round(value * 100) AS BIGINT) * "
            "CAST(round(value * 100) AS BIGINT)) OVER w AS BIGINT) "
            "AS roll_sum_sq_cents, "
            "count(value) OVER w AS roll_n, "
            "max(value) OVER w AS roll_max "
            "FROM events WHERE user_id IS NOT NULL AND ts IS NOT NULL "
            "WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id "
            "ROWS BETWEEN 4 PRECEDING AND CURRENT ROW)"
        ),
        "user_retention": (
            "WITH act AS (SELECT DISTINCT user_id, "
            "CAST(floor(epoch(ts) / 604800) AS BIGINT) AS week "
            "FROM events WHERE user_id IS NOT NULL AND ts IS NOT NULL), "
            "first AS (SELECT user_id, min(week) AS cohort_week "
            "FROM act GROUP BY user_id) "
            "SELECT cohort_week, week, count(*) AS n_users "
            "FROM act JOIN first USING (user_id) "
            "GROUP BY cohort_week, week"
        ),
        "entity_union": (
            "SELECT c_custkey AS id, c_name AS name, c_acctbal AS acctbal, "
            "'customer' AS src FROM customer "
            "UNION ALL BY NAME "
            "SELECT s_suppkey AS id, s_name AS name, 'supplier' AS src "
            "FROM supplier"
        ),
        "apply_changes": (
            "WITH base AS (SELECT o_orderkey, o_orderstatus, o_totalprice "
            "FROM orders WHERE o_orderkey IS NOT NULL), "
            "ch AS ("
            "SELECT o_orderkey, 'UPDATED' AS o_orderstatus, "
            "o_totalprice + 1000 AS o_totalprice, 1 AS seq, 'U' AS op "
            "FROM base WHERE o_orderkey % 7 = 0 "
            "UNION ALL SELECT o_orderkey, CAST(NULL AS VARCHAR), "
            "CAST(NULL AS DOUBLE), 2, 'D' FROM base WHERE o_orderkey % 11 = 0 "
            "UNION ALL SELECT o_orderkey + 10000000, 'NEW', 42.0, 1, 'U' "
            "FROM base WHERE o_orderkey % 13 = 0), "
            "latest AS (SELECT *, row_number() OVER "
            "(PARTITION BY o_orderkey ORDER BY seq DESC) AS rn FROM ch), "
            "w AS (SELECT * FROM latest WHERE rn = 1) "
            "SELECT coalesce(w.o_orderkey, b.o_orderkey) AS o_orderkey, "
            "CASE WHEN w.o_orderkey IS NOT NULL THEN w.o_orderstatus "
            "ELSE b.o_orderstatus END AS o_orderstatus, "
            "CASE WHEN w.o_orderkey IS NOT NULL THEN w.o_totalprice "
            "ELSE b.o_totalprice END AS o_totalprice "
            "FROM base b FULL OUTER JOIN w ON b.o_orderkey = w.o_orderkey "
            "WHERE w.op IS NULL OR w.op <> 'D'"
        ),
        "corpus_mixture": (
            "SELECT doc_id, lang FROM documents "
            "WHERE doc_id IS NOT NULL AND lang IS NOT NULL AND "
            "CASE lang WHEN 'en' THEN doc_id % 2 < 1 "
            "WHEN 'es' THEN doc_id % 3 < 1 "
            "WHEN 'de' THEN doc_id % 4 < 3 "
            "ELSE doc_id % 10 < 1 END"
        ),
        "big_spenders": (
            "SELECT c_custkey, c_name FROM customer c "
            "WHERE EXISTS (SELECT 1 FROM orders o "
            "WHERE o.o_custkey = c.c_custkey AND o.o_totalprice > 450000) "
            "AND c_custkey IS NOT NULL"
        ),
        "customers_no_orders": (
            "SELECT c_custkey, c_name FROM customer c "
            "WHERE NOT EXISTS (SELECT 1 FROM orders o "
            "WHERE o.o_custkey = c.c_custkey AND o.o_totalprice > 400000)"
        ),
        "incremental_violations": (
            "WITH a AS (SELECT o_orderkey, o_orderstatus, o_totalprice "
            "FROM orders WHERE o_orderkey IS NOT NULL AND o_orderkey % 2 = 0), "
            "b AS (SELECT o_orderkey, o_orderstatus, "
            "CASE WHEN o_orderkey % 5 = 0 THEN o_totalprice * 2 "
            "ELSE o_totalprice END AS o_totalprice "
            "FROM orders WHERE o_orderkey IS NOT NULL AND o_orderkey % 3 = 0), "
            "delta AS (SELECT b.o_orderkey FROM b LEFT JOIN a USING (o_orderkey) "
            "WHERE a.o_orderkey IS NULL "
            "OR a.o_orderstatus IS DISTINCT FROM b.o_orderstatus "
            "OR a.o_totalprice IS DISTINCT FROM b.o_totalprice) "
            "SELECT b.o_orderkey, b.o_totalprice FROM b "
            "JOIN delta USING (o_orderkey) WHERE b.o_totalprice > 400000"
        ),
        "overlap_pairs": (
            "WITH toks AS (SELECT doc_id, list_filter("
            r"regexp_split_to_array(lower(trim(text)), '\W+'), x -> x <> '') AS tk "
            "FROM documents), "
            "grams AS (SELECT doc_id, unnest(CASE WHEN len(tk) >= 5 "
            "THEN list_transform(generate_series(1, len(tk)-4), "
            "i -> tk[i]||chr(31)||tk[i+1]||chr(31)||tk[i+2]||chr(31)||tk[i+3]||chr(31)||tk[i+4]) "
            "ELSE [] END) AS g FROM toks), "
            "h AS (SELECT DISTINCT doc_id, md5_number_lower(g) AS hv FROM grams), "
            "f AS (SELECT doc_id, hv FROM h WHERE hv % 8 = 0), "
            "df AS (SELECT hv FROM f GROUP BY hv HAVING count(*) <= 50), "
            "ff AS (SELECT f.* FROM f JOIN df USING (hv)) "
            "SELECT a.doc_id AS id_a, b.doc_id AS id_b, "
            "count(*)::BIGINT AS n_shared "
            "FROM ff a JOIN ff b ON a.hv = b.hv AND a.doc_id < b.doc_id "
            "GROUP BY 1, 2 HAVING count(*) >= 3"
        ),
        "grouped_quantiles": (
            "WITH lq AS (SELECT event_type AS \"group\", "
            "quantile_disc(value, [0.25,0.5,0.9]) AS vs FROM events "
            "WHERE event_type IS NOT NULL GROUP BY event_type) "
            "SELECT \"group\", unnest([0.25,0.5,0.9]) AS q, "
            "unnest(vs) AS value FROM lq"
        ),
        "snapshot_diff": (
            "WITH a AS (SELECT o_orderkey, o_orderstatus, o_totalprice "
            "FROM orders WHERE o_orderkey IS NOT NULL AND o_orderkey % 2 = 0), "
            "b AS (SELECT o_orderkey, o_orderstatus, "
            "CASE WHEN o_orderkey % 5 = 0 THEN o_totalprice * 2 "
            "ELSE o_totalprice END AS o_totalprice "
            "FROM orders WHERE o_orderkey IS NOT NULL AND o_orderkey % 3 = 0) "
            "SELECT coalesce(a.o_orderkey, b.o_orderkey) AS o_orderkey, "
            "CASE WHEN a.o_orderkey IS NULL THEN 'added' "
            "WHEN b.o_orderkey IS NULL THEN 'removed' "
            "ELSE 'changed' END AS status, "
            "CASE WHEN a.o_orderkey IS NOT NULL AND b.o_orderkey IS NOT NULL "
            "THEN concat_ws(',', "
            "CASE WHEN a.o_orderstatus IS DISTINCT FROM b.o_orderstatus "
            "THEN 'o_orderstatus' END, "
            "CASE WHEN a.o_totalprice IS DISTINCT FROM b.o_totalprice "
            "THEN 'o_totalprice' END) END AS changed_cols "
            "FROM a FULL OUTER JOIN b ON a.o_orderkey = b.o_orderkey "
            "WHERE a.o_orderkey IS NULL OR b.o_orderkey IS NULL "
            "OR a.o_orderstatus IS DISTINCT FROM b.o_orderstatus "
            "OR a.o_totalprice IS DISTINCT FROM b.o_totalprice"
        ),
        "fuzzy_name_pairs": (
            "SELECT a.c_custkey AS id_a, b.c_custkey AS id_b, "
            "a.c_name AS name_a, b.c_name AS name_b, "
            "levenshtein(a.c_name, b.c_name)::BIGINT AS dist "
            "FROM customer a JOIN customer b ON a.c_custkey < b.c_custkey "
            "WHERE a.c_name IS NOT NULL AND b.c_name IS NOT NULL "
            "AND a.c_custkey IS NOT NULL AND b.c_custkey IS NOT NULL "
            "AND abs(length(a.c_name) - length(b.c_name)) <= 1 "
            "AND levenshtein(a.c_name, b.c_name) <= 1"
        ),
        "lineitem_rollup": (
            "SELECT l_returnflag, l_linestatus, count(*) AS n, "
            "sum(l_quantity) AS sum_l_quantity FROM lineitem "
            "GROUP BY ROLLUP (l_returnflag, l_linestatus)"
        ),
        "user_event_pivot": (
            "SELECT user_id, "
            "count(*) FILTER (event_type = 'click') AS click, "
            "count(*) FILTER (event_type = 'error') AS error, "
            "count(*) FILTER (event_type = 'purchase') AS purchase, "
            "count(*) FILTER (event_type = 'signup') AS signup, "
            "count(*) FILTER (event_type = 'view') AS \"view\" "
            "FROM events WHERE user_id IS NOT NULL GROUP BY user_id"
        ),
        "user_event_deltas": (
            "SELECT user_id, ts, event_id, "
            "row_number() OVER w AS seq, "
            "datediff('microsecond', lag(ts) OVER w, ts) AS gap_us, "
            "max(value) OVER (PARTITION BY user_id ORDER BY ts, event_id "
            "ROWS UNBOUNDED PRECEDING) AS run_max "
            "FROM events "
            "WHERE user_id IS NOT NULL AND ts IS NOT NULL AND event_id IS NOT NULL "
            "WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)"
        ),
        "funnel_stages": (
            "WITH base AS (SELECT user_id, ts, event_type FROM events "
            "WHERE user_id IS NOT NULL AND ts IS NOT NULL), "
            "u AS (SELECT DISTINCT user_id FROM base), "
            "s1 AS (SELECT user_id, min(ts) AS t1 FROM base "
            "WHERE event_type = 'view' GROUP BY user_id), "
            "s2 AS (SELECT b.user_id, min(b.ts) AS t2 FROM base b "
            "JOIN s1 USING (user_id) WHERE b.event_type = 'click' "
            "AND b.ts > s1.t1 GROUP BY b.user_id), "
            "s3 AS (SELECT b.user_id, min(b.ts) AS t3 FROM base b "
            "JOIN s2 USING (user_id) WHERE b.event_type = 'purchase' "
            "AND b.ts > s2.t2 GROUP BY b.user_id) "
            "SELECT u.user_id, s1.t1, s2.t2, s3.t3, "
            "((s1.t1 IS NOT NULL)::BIGINT + (s2.t2 IS NOT NULL)::BIGINT "
            "+ (s3.t3 IS NOT NULL)::BIGINT) AS reached "
            "FROM u LEFT JOIN s1 USING (user_id) "
            "LEFT JOIN s2 USING (user_id) LEFT JOIN s3 USING (user_id)"
        ),
        "profile_drift": (
            "WITH a AS (SELECT * FROM events WHERE event_id % 2 = 0), "
            "b AS (SELECT * FROM events WHERE event_id % 2 = 1), "
            "prof_a AS ("
            "SELECT 'event_id' AS col, count(*) AS n, count(*) - count(event_id) AS n_null, CAST(min(event_id) AS VARCHAR) AS min_str, CAST(max(event_id) AS VARCHAR) AS max_str FROM a "
            "UNION ALL SELECT 'user_id', count(*), count(*) - count(user_id), CAST(min(user_id) AS VARCHAR), CAST(max(user_id) AS VARCHAR) FROM a "
            "UNION ALL SELECT 'event_type', count(*), count(*) - count(event_type), min(event_type), max(event_type) FROM a "
            "UNION ALL SELECT 'ts', count(*), count(*) - count(ts), CAST(min(ts) AS VARCHAR), CAST(max(ts) AS VARCHAR) FROM a), "
            "prof_b AS ("
            "SELECT 'event_id' AS col, count(*) AS n, count(*) - count(event_id) AS n_null, CAST(min(event_id) AS VARCHAR) AS min_str, CAST(max(event_id) AS VARCHAR) AS max_str FROM b "
            "UNION ALL SELECT 'user_id', count(*), count(*) - count(user_id), CAST(min(user_id) AS VARCHAR), CAST(max(user_id) AS VARCHAR) FROM b "
            "UNION ALL SELECT 'event_type', count(*), count(*) - count(event_type), min(event_type), max(event_type) FROM b "
            "UNION ALL SELECT 'ts', count(*), count(*) - count(ts), CAST(min(ts) AS VARCHAR), CAST(max(ts) AS VARCHAR) FROM b) "
            "SELECT pa.col AS \"column\", pa.n AS n_a, pb.n AS n_b, pb.n - pa.n AS n_delta, "
            "pa.n_null AS n_null_a, pb.n_null AS n_null_b, "
            "pa.min_str AS min_a, pb.min_str AS min_b, pa.max_str AS max_a, pb.max_str AS max_b, "
            "pa.min_str IS DISTINCT FROM pb.min_str AS min_changed, "
            "pa.max_str IS DISTINCT FROM pb.max_str AS max_changed "
            "FROM prof_a pa JOIN prof_b pb ON pa.col = pb.col"
        ),
        "value_quantiles": (
            "WITH lq AS (SELECT quantile_disc(value, "
            "[0.01,0.1,0.25,0.5,0.75,0.9,0.99,1.0]) AS vs FROM events) "
            "SELECT unnest([0.01,0.1,0.25,0.5,0.75,0.9,0.99,1.0]) AS q, "
            "unnest(vs) AS value FROM lq"
        ),
        "repetition_stats": (
            "WITH toks AS (SELECT doc_id, list_filter("
            r"regexp_split_to_array(lower(trim(text)), '\W+'), t -> t <> '') AS tk "
            "FROM documents), "
            "tc AS (SELECT doc_id, tok, count(*) AS c FROM "
            "(SELECT doc_id, unnest(tk) AS tok FROM toks) GROUP BY doc_id, tok), "
            "ts AS (SELECT doc_id, sum(c)::BIGINT AS n_tokens, "
            "max(c)::BIGINT AS top_token_n FROM tc GROUP BY doc_id), "
            "grams AS (SELECT doc_id, CASE WHEN len(tk) >= 3 "
            "THEN list_transform(generate_series(1, len(tk)-2), "
            "i -> tk[i] || chr(31) || tk[i+1] || chr(31) || tk[i+2]) "
            "ELSE [] END AS g3 FROM toks), "
            "gc AS (SELECT doc_id, g, count(*) AS c FROM "
            "(SELECT doc_id, unnest(g3) AS g FROM grams) GROUP BY doc_id, g), "
            "gs AS (SELECT doc_id, sum(c)::BIGINT AS n_trigrams, "
            "count(*)::BIGINT AS n_distinct_trigrams, "
            "max(c)::BIGINT AS top_trigram_n FROM gc GROUP BY doc_id) "
            "SELECT d.doc_id, coalesce(ts.n_tokens, 0) AS n_tokens, "
            "coalesce(ts.top_token_n, 0) AS top_token_n, "
            "coalesce(gs.n_trigrams, 0) AS n_trigrams, "
            "coalesce(gs.n_distinct_trigrams, 0) AS n_distinct_trigrams, "
            "coalesce(gs.top_trigram_n, 0) AS top_trigram_n "
            "FROM documents d LEFT JOIN ts ON ts.doc_id = d.doc_id "
            "LEFT JOIN gs ON gs.doc_id = d.doc_id"
        ),
        "tfidf_terms": (
            "WITH toks AS (SELECT doc_id, unnest(list_filter("
            r"regexp_split_to_array(lower(trim(text)), '\W+'), t -> t <> '')) AS tok "
            "FROM documents), "
            "tf AS (SELECT doc_id, tok, count(*) AS tf FROM toks GROUP BY doc_id, tok), "
            "df AS (SELECT tok, count(DISTINCT doc_id) AS df FROM toks GROUP BY tok), "
            "n AS (SELECT count(*) AS n FROM documents), "
            "scored AS (SELECT tf.doc_id, tf.tok AS term, tf.tf, df.df, "
            "row_number() OVER (PARTITION BY tf.doc_id "
            "ORDER BY tf.tf * ln(CAST(n.n AS DOUBLE) / df.df) DESC, tf.tok) AS rnk "
            "FROM tf JOIN df USING (tok), n) "
            "SELECT doc_id, term, rnk AS \"rank\", tf, df FROM scored WHERE rnk <= 3"
        ),
        "value_outliers": (
            "WITH m AS (SELECT event_type, avg(value) AS mean, "
            "stddev_pop(value) AS sd FROM events "
            "WHERE value IS NOT NULL AND event_type IS NOT NULL "
            "GROUP BY event_type) "
            "SELECT e.event_id, e.event_type, e.value FROM events e "
            "JOIN m ON e.event_type = m.event_type "
            "WHERE m.sd > 0 AND abs(e.value - m.mean) > 3.0 * m.sd"
        ),
        "langid": _langid_sql(),
        "asof_purchases": (
            "WITH lefts AS (SELECT event_id, user_id, ts FROM events "
            "WHERE event_type <> 'purchase'), "
            "rights AS (SELECT user_id, ts, max(value) AS purchase_value, "
            "ts AS purchase_ts FROM events WHERE event_type = 'purchase' "
            "GROUP BY user_id, ts) "
            "SELECT l.ts, l.user_id, l.event_id, "
            "r.purchase_value, r.purchase_ts "
            "FROM lefts l ASOF LEFT JOIN rights r "
            "ON l.user_id = r.user_id AND r.ts <= l.ts"
        ),
        "range_events": (
            "WITH l AS (SELECT user_id, ts FROM events WHERE event_type <> 'purchase'), "
            "r AS (SELECT user_id, ts AS purchase_ts, ts - INTERVAL 1 HOUR AS start_ts "
            "FROM events WHERE event_type = 'purchase') "
            "SELECT r.user_id, r.purchase_ts, count(*) AS n_events "
            "FROM l JOIN r ON l.user_id = r.user_id "
            "AND l.ts BETWEEN r.start_ts AND r.purchase_ts "
            "GROUP BY r.user_id, r.purchase_ts"
        ),
        "session_stats": (
            "WITH o AS (SELECT user_id, ts, "
            "CASE WHEN ts - lag(ts) OVER (PARTITION BY user_id ORDER BY ts) > INTERVAL 30 MINUTE "
            "OR lag(ts) OVER (PARTITION BY user_id ORDER BY ts) IS NULL THEN 1 ELSE 0 END AS brk "
            "FROM events), "
            "s AS (SELECT user_id, ts, sum(brk) OVER (PARTITION BY user_id ORDER BY ts "
            "ROWS UNBOUNDED PRECEDING) AS sid FROM o) "
            "SELECT user_id, min(ts) AS session_start, max(ts) AS session_end, "
            "count(*) AS n_rows FROM s GROUP BY user_id, sid"
        ),
        "profile": (
            "SELECT 'event_id' AS \"column\", count(*) AS n, "
            "count(*) - count(event_id) AS n_null, "
            "CAST(min(event_id) AS VARCHAR) AS min_str, "
            "CAST(max(event_id) AS VARCHAR) AS max_str FROM events "
            "UNION ALL SELECT 'user_id', count(*), count(*) - count(user_id), "
            "CAST(min(user_id) AS VARCHAR), CAST(max(user_id) AS VARCHAR) FROM events "
            "UNION ALL SELECT 'event_type', count(*), count(*) - count(event_type), "
            "min(event_type), max(event_type) FROM events "
            "UNION ALL SELECT 'ts', count(*), count(*) - count(ts), "
            "CAST(min(ts) AS VARCHAR), CAST(max(ts) AS VARCHAR) FROM events"
        ),
        "clean_documents": (
            "SELECT doc_id FROM documents WHERE doc_id IS NOT NULL "
            "AND (lang IS NULL OR regexp_matches(lang, '^(?:en|es|de|fr)$')) "
            f"AND length(text) BETWEEN {TEXT_MIN_LEN} AND {TEXT_MAX_LEN} "
            "AND n_chars >= 1"
        ),
        "drift": (
            "WITH s AS (SELECT "
            "quantile_cont(value,0.01) q1, quantile_cont(value,0.05) q5, "
            "quantile_cont(value,0.25) q25, quantile_cont(value,0.50) q50, "
            "quantile_cont(value,0.75) q75, quantile_cont(value,0.95) q95, "
            "quantile_cont(value,0.99) q99 FROM events) "
            "SELECT * FROM ("
            "SELECT 'self' AS \"case\", 'user_id' AS \"column\", "
            "'cardinality_shift' AS metric, true AS valid "
            "UNION ALL SELECT 'self', 'value', 'quantile_shift', true "
            "UNION ALL SELECT 'shifted', 'value', 'quantile_shift', "
            "(SELECT greatest(abs(q1),abs(q5),abs(q25),abs(q50),abs(q75),abs(q95),abs(q99)) "
            "/ (q75-q25) <= 0.05 FROM s)"
            ") ORDER BY \"case\", \"column\", metric"
        ),
        "fingerprints_modp": (
            "WITH toks AS (SELECT doc_id, list_filter("
            r"regexp_split_to_array(lower(trim(text)), '\W+'), x -> x <> '') AS tk "
            "FROM documents), "
            "grams AS (SELECT doc_id, unnest(CASE WHEN len(tk)>=3 "
            "THEN list_transform(generate_series(1,len(tk)-2), "
            "i -> tk[i]||chr(31)||tk[i+1]||chr(31)||tk[i+2]) ELSE [] END) AS g "
            "FROM toks), "
            "h AS (SELECT DISTINCT doc_id, md5_number_lower(g) AS hv FROM grams) "
            "SELECT doc_id, lpad(lower(to_hex(hv)),16,'0') AS fp FROM h WHERE hv % 8 = 0"
        ),
        "events_windowed": (
            "SELECT event_type, date_trunc('day', ts) AS day, "
            "count(*) AS n, min(value) AS min_value, max(value) AS max_value "
            "FROM events GROUP BY event_type, date_trunc('day', ts)"
        ),
        "events_hopping": (
            "WITH base AS (SELECT event_type, value, "
            "epoch_us(ts) // 43200000000 * 43200000000 AS b FROM events), "
            "x AS (SELECT event_type, value, b AS s FROM base "
            "UNION ALL SELECT event_type, value, b - 43200000000 FROM base) "
            "SELECT event_type, make_timestamp(s) AS window_start, "
            "count(*) AS n, min(value) AS min_value, max(value) AS max_value "
            "FROM x GROUP BY event_type, s"
        ),
        "jaccard_pairs": (
            "WITH doubled AS (SELECT doc_id, text FROM documents "
            "UNION ALL SELECT doc_id + 10000, text || ' zzz' FROM documents), "
            "toks AS (SELECT doc_id, list_filter("
            r"regexp_split_to_array(lower(trim(text)), '\W+'), t -> t <> '') AS tk "
            "FROM doubled), "
            "grams AS (SELECT doc_id, CASE WHEN len(tk) >= 3 "
            "THEN list_distinct(list_transform(generate_series(1, len(tk)-2), "
            "i -> tk[i] || chr(31) || tk[i+1] || chr(31) || tk[i+2])) "
            "ELSE [] END AS g3 FROM toks) "
            "SELECT a.doc_id AS id_a, b.doc_id AS id_b, "
            "CASE WHEN len(a.g3)=0 AND len(b.g3)=0 THEN 1.0 "
            "ELSE len(list_intersect(a.g3, b.g3))::DOUBLE "
            "/ (len(a.g3) + len(b.g3) - len(list_intersect(a.g3, b.g3))) END AS jaccard "
            "FROM grams a JOIN grams b ON b.doc_id = a.doc_id + 10000"
        ),
        # minhash_dedup: at this corpus (doc vs doc+' zzz', Jaccard ≈
        # 0.97, plus synthetic near-dup groups ≥ 0.8) 16-band/64-perm
        # LSH recall is 1.0, so the LSH+verify output equals the full
        # trigram-Jaccard ≥ 0.7 pair set — which IS SQL-expressible:
        # candidates = pairs sharing ≥1 trigram (pairs below threshold
        # with no shared gram are impossible; both-empty-gram docs carry
        # no shingles and are excluded by LSH too), then the proven
        # jaccard_pairs list algebra verifies each.
        "minhash_dedup": (
            f"WITH {_MINHASH_PAIRS_CTE} "
            "SELECT id_a, id_b FROM verified ORDER BY id_a, id_b"
        ),
        # simhash: reproduce the md5-mode signature bit-for-bit (per-token
        # md5_number_lower, ±1 bit sums, sign threshold), then the exact
        # pair set — 4×16-bit banding at hamming ≤ 3 has pigeonhole
        # recall 1.0, so engine output == this brute-force pair set.
        "simhash_dedup": (
            "WITH doubled AS (SELECT doc_id, text FROM documents "
            "UNION ALL SELECT doc_id + 10000, text || ' zzz' FROM documents), "
            "toks AS (SELECT doc_id, unnest(list_filter("
            r"regexp_split_to_array(lower(trim(text)), '\W+'), t -> t <> '')) AS tok "
            "FROM doubled), "
            "th AS (SELECT doc_id, md5_number_lower(tok) AS h FROM toks), "
            "bits AS (SELECT doc_id, b, "
            "SUM(CASE WHEN (h >> b) & 1 = 1 THEN 1 ELSE -1 END) AS s "
            "FROM th, range(64) r(b) GROUP BY doc_id, b), "
            "sig AS (SELECT doc_id, SUM(CASE WHEN s > 0 "
            "THEN (1::UBIGINT << b) ELSE 0::UBIGINT END)::UBIGINT AS sig "
            "FROM bits GROUP BY doc_id) "
            "SELECT a.doc_id AS id_a, b.doc_id AS id_b, "
            "bit_count(xor(a.sig, b.sig))::BIGINT AS hamming, "
            "false AS truncated "
            "FROM sig a JOIN sig b ON a.doc_id < b.doc_id "
            "WHERE bit_count(xor(a.sig, b.sig)) <= 3"
        ),
        # dedup_groups: connected components over the same verified pair
        # set — min reachable id per node via a recursive closure (the
        # pair graph at sf0.01 is small and shallow, so the closure is
        # cheap for the oracle; the engine side uses union-find /
        # hash-min label propagation).
        "dedup_groups": (
            f"WITH RECURSIVE {_MINHASH_PAIRS_CTE}, "
            "edges AS (SELECT id_a AS a, id_b AS b FROM verified "
            "UNION SELECT id_b, id_a FROM verified), "
            "reach(node, r) AS (SELECT a, a FROM edges "
            "UNION SELECT e.a, r.r FROM edges e JOIN reach r ON r.node = e.b) "
            "SELECT node AS doc_id, min(r) AS component_id "
            "FROM reach GROUP BY node ORDER BY doc_id"
        ),
        # deduped_documents: the corpus minus every non-minimal member
        # of each near-dup component (same closure as dedup_groups)
        "deduped_documents": (
            f"WITH RECURSIVE {_MINHASH_PAIRS_CTE}, "
            "edges AS (SELECT id_a AS a, id_b AS b FROM verified "
            "UNION SELECT id_b, id_a FROM verified), "
            "reach(node, r) AS (SELECT a, a FROM edges "
            "UNION SELECT e.a, r.r FROM edges e JOIN reach r ON r.node = e.b), "
            "losers AS (SELECT node FROM reach GROUP BY node "
            "HAVING node != min(r)) "
            "SELECT doc_id FROM doubled WHERE doc_id NOT IN "
            "(SELECT node FROM losers) ORDER BY doc_id"
        ),
        "span_verdicts": _span_verdicts_sql(fixture["docs"], fixture["catalog"]),
        "span_equality": (
            "SELECT doc_id AS row_ref, 'spans' AS \"column\", "
            "'span_sequence_equality' AS test, CAST(NULL AS VARCHAR) AS value "
            f"FROM read_parquet('{fixture['zipped']}') "
            "WHERE spans IS DISTINCT FROM spans_reference"
        ),
        "token_stats": (
            "SELECT doc_id, CASE WHEN trim(text) = '' THEN 0 ELSE "
            r"len(regexp_split_to_array(trim(text), '\s+')) END AS n_tokens_ws, "
            r"len(regexp_extract_all(text, '\w+|[^\w\s]')) AS n_tokens_bpe "
            "FROM documents"
        ),
        "quality_stats": (
            "SELECT doc_id, length(text) AS n_chars_q, "
            r"len(regexp_extract_all(text, '[^\w\s]')) AS n_punct, "
            r"len(regexp_extract_all(text, '[0-9]')) AS n_digits, "
            r"len(regexp_extract_all(text, '\b(?:the|and|of|to|in|is|that|for|with|was)\b')) AS n_stopwords "
            "FROM documents"
        ),
        "fingerprints": "SELECT doc_id, md5(text) AS fp_md5 FROM documents",
        "exact_dedup": (
            "WITH doubled AS (SELECT doc_id, text FROM documents "
            "UNION ALL SELECT doc_id + 1000000, text FROM documents) "
            "SELECT min(doc_id) AS doc_id, text FROM doubled GROUP BY text"
        ),
        "knn": (
            "WITH q AS (SELECT vec_id AS qid, embedding AS qe FROM embeddings WHERE vec_id < 5), "
            "s AS (SELECT q.qid AS query_id, e.vec_id AS neighbor_id, "
            "list_cosine_similarity(q.qe, e.embedding) AS sim "
            "FROM q CROSS JOIN embeddings e WHERE e.vec_id != q.qid) "
            "SELECT query_id, neighbor_id, rank FROM ("
            "SELECT query_id, neighbor_id, row_number() OVER "
            "(PARTITION BY query_id ORDER BY sim DESC, neighbor_id) AS rank FROM s) "
            "WHERE rank <= 10"
        ),
        "embedding_near_dups": (
            "SELECT a.vec_id AS id_a, b.vec_id AS id_b, "
            "CAST(false AS BOOLEAN) AS truncated "
            "FROM embeddings a CROSS JOIN embeddings b "
            "WHERE a.vec_id < b.vec_id "
            "AND list_cosine_similarity(a.embedding, b.embedding) >= 0.45"
        ),
        "events_summary": (
            "SELECT event_type, count(*) AS n, min(value) AS min_value, "
            "max(value) AS max_value FROM events GROUP BY event_type"
        ),
        "top_users": (
            "SELECT user_id AS value, count(*) AS n FROM events "
            "WHERE user_id IS NOT NULL GROUP BY user_id "
            "ORDER BY n DESC, value LIMIT 10"
        ),
        # heavy_users: integer-exact threshold count*(m+1) > N with
        # m=127 — the MG candidate pass guarantees the superset, the
        # recount makes it exact, so the engine result IS this set
        "heavy_users": (
            "SELECT user_id, count(*) AS n FROM events "
            "WHERE user_id IS NOT NULL GROUP BY user_id "
            "HAVING count(*)*128 > (SELECT count(user_id) FROM events)"
        ),
        # weighted_sample: md5_number_lower == bytes 8..16 LE of the md5
        # digest (the engine's _md5 parity hash); the shared IEEE
        # expression double(u64) < min(1, double(k*w)/double(W))*2^64
        # reproduces the exact row set
        "weighted_sample": (
            "WITH tw AS (SELECT CAST(sum(n_chars) AS DOUBLE) AS w "
            "FROM documents) "
            "SELECT doc_id, n_chars FROM documents, tw "
            "WHERE doc_id IS NOT NULL AND n_chars IS NOT NULL "
            "AND CAST(md5_number_lower(CAST(doc_id AS VARCHAR)) AS DOUBLE) "
            "< LEAST(1.0, CAST(100*n_chars AS DOUBLE)/w) "
            "* 18446744073709551616.0"
        ),
        # source_overlap: jaccard = one double division of exact ints —
        # identical IEEE op both sides, no rounding needed
        "source_overlap": (
            "WITH st AS (SELECT DISTINCT source, g FROM ("
            "SELECT source, unnest(list_filter(regexp_split_to_array("
            r"lower(trim(text)), '\W+'), t -> t <> '')) AS g "
            "FROM documents WHERE source IS NOT NULL)), "
            "cnt AS (SELECT source, count(*) AS n FROM st GROUP BY source), "
            "i AS (SELECT a.source AS source_a, b.source AS source_b, "
            "count(*) AS n_inter FROM st a JOIN st b "
            "ON a.g = b.g AND a.source < b.source GROUP BY 1, 2) "
            "SELECT source_a, source_b, n_inter, "
            "ca.n + cb.n - n_inter AS n_union, "
            "CAST(n_inter AS DOUBLE)/CAST(ca.n + cb.n - n_inter AS DOUBLE) "
            "AS jaccard FROM i "
            "JOIN cnt ca ON source_a = ca.source "
            "JOIN cnt cb ON source_b = cb.source"
        ),
        # length_quartiles: integer compares against exact quantile_disc
        # boundaries — engine exact_quantiles is quantile_disc-parity
        # (proven by value_quantiles), so buckets are hash-exact
        "length_quartiles": (
            "WITH q AS (SELECT quantile_disc(n_chars, 0.25) AS q1, "
            "quantile_disc(n_chars, 0.50) AS q2, "
            "quantile_disc(n_chars, 0.75) AS q3 FROM documents "
            "WHERE n_chars IS NOT NULL) "
            "SELECT doc_id, n_chars, CAST(1 + CAST(n_chars > q1 AS INT) "
            "+ CAST(n_chars > q2 AS INT) + CAST(n_chars > q3 AS INT) "
            "AS BIGINT) AS bucket FROM documents, q "
            "WHERE doc_id IS NOT NULL AND n_chars IS NOT NULL"
        ),
        # compacted_events: first row per key OR value IS DISTINCT FROM
        # the lag — exactly the engine's null-safe shifted compare
        "compacted_events": (
            "SELECT user_id, event_id, event_type FROM ("
            "SELECT user_id, event_id, event_type, "
            "row_number() OVER (PARTITION BY user_id ORDER BY event_id) "
            "AS rn, lag(event_type) OVER (PARTITION BY user_id "
            "ORDER BY event_id) AS pv FROM events "
            "WHERE user_id IS NOT NULL AND event_id IS NOT NULL) "
            "WHERE rn = 1 OR event_type IS DISTINCT FROM pv"
        ),
        # collocations: bigrams over the FILTERED token list (empties
        # dropped before pairing) == list_filter -> list_transform;
        # PMI is one double ratio in matching operand order -> LN ->
        # ROUND(...,9)+0 both sides
        "collocations": (
            "WITH toks AS (SELECT list_filter(regexp_split_to_array("
            r"lower(trim(text)), '\W+'), t -> t <> '') AS l "
            "FROM documents), "
            "bg AS (SELECT unnest(list_transform(range(1, len(l)), "
            "i -> [l[i], l[i+1]])) AS p FROM toks WHERE len(l) >= 2), "
            "bc AS (SELECT p[1] AS w1, p[2] AS w2, count(*) AS n "
            "FROM bg GROUP BY p[1], p[2]), "
            "uni AS (SELECT unnest(l) AS w FROM toks), "
            "uc AS (SELECT w, count(*) AS nw FROM uni GROUP BY w), "
            "tot AS (SELECT CAST(sum(n) AS BIGINT) AS nb FROM bc) "
            "SELECT w1, w2, n, ROUND(LN(CAST(n AS DOUBLE)"
            "*CAST(nb AS DOUBLE)/(CAST(a.nw AS DOUBLE)"
            "*CAST(b.nw AS DOUBLE))), 9) + 0 AS pmi "
            "FROM bc, tot JOIN uc a ON w1 = a.w JOIN uc b ON w2 = b.w "
            "WHERE n >= 40"
        ),
        # source_lang_entropy: p = n/tot is one IEEE division, LN is
        # libm on both engines; ROUND(...,9)+0 mirrors the engine's
        # round-both-sides contract and normalizes -0.0
        "source_lang_entropy": (
            "WITH c AS (SELECT source, lang, count(*) AS n FROM documents "
            "WHERE source IS NOT NULL AND lang IS NOT NULL "
            "GROUP BY source, lang), "
            "t AS (SELECT source, CAST(sum(n) AS BIGINT) AS tot, "
            "count(*) AS nd FROM c GROUP BY source) "
            "SELECT c.source, t.tot AS n, t.nd AS n_distinct, "
            "ROUND(SUM(-(CAST(c.n AS DOUBLE)/CAST(t.tot AS DOUBLE)) "
            "* LN(CAST(c.n AS DOUBLE)/CAST(t.tot AS DOUBLE))), 9) + 0 "
            "AS entropy "
            "FROM c JOIN t USING (source) "
            "GROUP BY c.source, t.tot, t.nd"
        ),
        # out_of_order_events: prev-max is a SELECTION over the skewed
        # ts lane, so values hash-match bit-for-bit
        "out_of_order_events": (
            "WITH skewed AS (SELECT user_id, event_id, "
            "CASE WHEN event_id % 97 = 0 THEN ts - INTERVAL 1 HOUR "
            "ELSE ts END AS ts FROM events "
            "WHERE user_id IS NOT NULL AND event_id IS NOT NULL "
            "AND ts IS NOT NULL) "
            "SELECT user_id, event_id, ts, prev_max_ts FROM ("
            "SELECT user_id, event_id, ts, max(ts) OVER ("
            "PARTITION BY user_id ORDER BY event_id "
            "ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING"
            ") AS prev_max_ts FROM skewed) WHERE ts < prev_max_ts"
        ),
        "dominant_lang": (
            "SELECT source, lang AS mode, n FROM ("
            "SELECT source, lang, count(*) AS n, "
            "row_number() OVER (PARTITION BY source "
            "ORDER BY count(*) DESC, lang) AS rn "
            "FROM documents WHERE source IS NOT NULL AND lang IS NOT NULL "
            "GROUP BY source, lang) WHERE rn = 1"
        ),
        "events_per_user_cap": (
            "SELECT event_id, user_id FROM ("
            "SELECT event_id, user_id, row_number() OVER "
            "(PARTITION BY user_id ORDER BY event_id) AS rn "
            "FROM events WHERE user_id IS NOT NULL) WHERE rn <= 3"
        ),
        "normalized_documents": (
            "SELECT doc_id, regexp_replace(trim(regexp_replace("
            r"nfc_normalize(text), '\s+', ' ', 'g')), "
            "'[[:cntrl:]]', '', 'g') AS text_norm FROM documents"
        ),
        "vocabulary": (
            "WITH toks AS (SELECT doc_id, unnest(list_distinct(list_filter("
            r"regexp_split_to_array(lower(trim(text)), '\W+'), t -> t <> ''))) AS g "
            "FROM documents) "
            "SELECT g AS token, count(*) AS df FROM toks "
            "GROUP BY g HAVING count(*) >= 50"
        ),
        "duplicate_sentences": (
            "WITH doubled AS (SELECT doc_id, text FROM documents "
            "UNION ALL SELECT doc_id + 10000, text FROM documents), "
            "s AS (SELECT doc_id, unnest(list_distinct(list_filter("
            "str_split(text, '. '), x -> x <> ''))) AS sent FROM doubled) "
            "SELECT sent AS sentence, count(*) AS n_docs FROM s "
            "GROUP BY sent HAVING count(*) >= 2"
        ),
        "quantized_embeddings": (
            "WITH base AS (SELECT vec_id, embedding, "
            "CASE WHEN list_max(list_transform(embedding, x -> abs(CAST(x AS DOUBLE)))) = 0 "
            "THEN 1.0 ELSE list_max(list_transform(embedding, x -> abs(CAST(x AS DOUBLE)))) END "
            "AS q_scale FROM embeddings), "
            "qq AS (SELECT vec_id, q_scale, list_transform(embedding, "
            "x -> CAST(round(CAST(x AS DOUBLE) / q_scale * 127) AS BIGINT)) AS qv "
            "FROM base) "
            "SELECT vec_id, CAST(floor(q_scale * 1e9) AS BIGINT) AS q_scale_e9, "
            "CAST(list_sum(qv) AS BIGINT) AS q_sum, "  # list_sum yields DOUBLE
            "CAST(list_sum(list_transform(qv, v -> abs(v))) AS BIGINT) AS q_l1 "
            "FROM qq"
        ),
        "value_histogram": (
            "SELECT bin, count(*) AS n FROM ("
            "SELECT least(greatest(CAST(floor((value - 0.0) / 5.0) AS BIGINT), 0), 19) AS bin "
            "FROM events WHERE value IS NOT NULL) GROUP BY bin"
        ),
        "best_docs_per_lang": (
            "SELECT doc_id, lang, n_chars FROM ("
            "SELECT doc_id, lang, n_chars, row_number() OVER "
            "(PARTITION BY lang ORDER BY n_chars DESC, doc_id) AS rn "
            "FROM documents WHERE lang IS NOT NULL) WHERE rn <= 3"
        ),
        "lineitem_verdict": (
            "WITH nr AS (SELECT count(*) AS n_rows FROM lineitem), "
            "checks(col, test, n_violations) AS ("
            "  SELECT 'l_discount', 'min_max_test', (SELECT count(*) FROM lineitem WHERE l_discount < 0.0 OR l_discount > 0.05)"
            "  UNION ALL SELECT 'l_linenumber', 'min_max_test', (SELECT count(*) FROM lineitem WHERE l_linenumber < 1 OR l_linenumber > 4)"
            "  UNION ALL SELECT 'l_linestatus', 'enum_test', (SELECT count(*) FROM lineitem WHERE l_linestatus IS NULL OR l_linestatus NOT IN ('O','F'))"
            "  UNION ALL SELECT 'l_linestatus', 'nullable_test', (SELECT count(*) FROM lineitem WHERE l_linestatus IS NULL)"
            "  UNION ALL SELECT 'l_orderkey', 'nullable_test', (SELECT count(*) FROM lineitem WHERE l_orderkey IS NULL)"
            "  UNION ALL SELECT 'l_quantity', 'min_max_test', (SELECT count(*) FROM lineitem WHERE l_quantity < 1.0 OR l_quantity > 40.0)"
            "  UNION ALL SELECT 'l_returnflag', 'enum_test', (SELECT count(*) FROM lineitem WHERE l_returnflag IS NULL OR l_returnflag NOT IN ('A','N'))"
            "  UNION ALL SELECT 'l_returnflag', 'nullable_test', (SELECT count(*) FROM lineitem WHERE l_returnflag IS NULL)"
            ") SELECT col AS \"column\", test, n_violations, nr.n_rows AS n_rows "
            "FROM checks, nr ORDER BY \"column\", test"
        ),
        "customer_acctbal_violations": (
            "SELECT c_custkey, c_acctbal FROM customer "
            "WHERE c_acctbal < 0.0 OR c_acctbal > 9000.0"
        ),
        "star_ref_check": (
            "SELECT * FROM (VALUES"
            " ('l_orderkey', (SELECT count(*) FROM lineitem WHERE l_orderkey NOT IN (SELECT o_orderkey FROM orders))),"
            " ('l_partkey', (SELECT count(*) FROM lineitem WHERE l_partkey NOT IN (SELECT p_partkey FROM part))),"
            " ('l_suppkey', (SELECT count(*) FROM lineitem WHERE l_suppkey NOT IN (SELECT s_suppkey FROM supplier))),"
            " ('o_custkey', (SELECT count(*) FROM orders WHERE o_custkey NOT IN (SELECT c_custkey FROM customer)))"
            ") AS t(fk, n_dangling) ORDER BY fk"
        ),
        "orders_summary": (
            "SELECT o_orderpriority, count(*) AS n, min(o_totalprice) AS min_price, "
            "max(o_totalprice) AS max_price FROM orders GROUP BY o_orderpriority"
        ),
        "orders_by_nation": (
            "SELECT CAST(c_nationkey AS BIGINT) AS c_nationkey, count(*) AS n, "
            "min(o_totalprice) AS min_price, max(o_totalprice) AS max_price "
            "FROM orders JOIN customer ON o_custkey = c_custkey "
            "GROUP BY c_nationkey"
        ),
        "minmax_violations": (
            "SELECT event_id, value FROM events "
            f"WHERE value < {VALUE_MIN} OR value > {VALUE_MAX}"
        ),
        "enum_violations": (
            "SELECT event_id, event_type FROM events "
            f"WHERE event_type IS NULL OR event_type NOT IN ({enum_list})"
        ),
        "pattern_violations": (
            "SELECT doc_id, lang FROM documents "
            "WHERE lang IS NOT NULL AND NOT regexp_matches(lang, '^(?:en|es|de|fr)$')"
        ),
        "length_violations": (
            "SELECT doc_id, n_chars FROM documents "
            f"WHERE length(text) < {TEXT_MIN_LEN} OR length(text) > {TEXT_MAX_LEN}"
        ),
        "date_format_violations": (
            "WITH d AS (SELECT event_id, CASE WHEN event_id % 2 = 0 "
            "THEN strftime(ts, '%Y-%m-%d') ELSE strftime(ts, '%d/%m/%Y') END AS date_str "
            "FROM events) "
            "SELECT event_id, date_str FROM d "
            "WHERE try_strptime(date_str, '%Y-%m-%d') IS NULL"
        ),
        "unique_violations": (
            "SELECT user_id, count(*) AS n FROM events "
            "GROUP BY user_id HAVING count(*) > 1"
        ),
        "ref_violations": (
            "SELECT o_custkey, count(*) AS n FROM orders "
            "WHERE o_custkey NOT IN (SELECT c_custkey FROM customer) "
            "GROUP BY o_custkey"
        ),
        "verdict_summary": (
            "WITH n AS (SELECT count(*) AS n_rows FROM events), "
            "checks(col, test, n_violations) AS ("
            "  SELECT 'event_id', 'nullable_test', (SELECT count(*) FROM events WHERE event_id IS NULL)"
            "  UNION ALL SELECT 'event_id', 'unique_test', (SELECT count(*) FROM (SELECT event_id FROM events GROUP BY event_id HAVING count(*) > 1))"
            "  UNION ALL SELECT 'user_id', 'nullable_test', (SELECT count(*) FROM events WHERE user_id IS NULL)"
            f"  UNION ALL SELECT 'value', 'min_max_test', (SELECT count(*) FROM events WHERE value < {VALUE_MIN} OR value > {VALUE_MAX})"
            f"  UNION ALL SELECT 'event_type', 'enum_test', (SELECT count(*) FROM events WHERE event_type IS NULL OR event_type NOT IN ({enum_list}))"
            "  UNION ALL SELECT 'event_type', 'nullable_test', (SELECT count(*) FROM events WHERE event_type IS NULL)"
            ") "
            "SELECT col AS \"column\", test, n_violations, n.n_rows AS n_rows, "
            "(CAST(n_violations AS DOUBLE) / n.n_rows) * 100 AS pct "
            "FROM checks, n ORDER BY \"column\", test"
        ),
        # segment_price_trend: the same closed form the engine folds,
        # over SQL SUM aggregates, rounded 6 dp both sides
        "segment_price_trend": (
            "WITH p AS (SELECT l_returnflag, count(*) AS n, "
            "sum(l_quantity) sx, sum(l_extendedprice) sy, "
            "sum(l_quantity*l_quantity) sxx, "
            "sum(l_extendedprice*l_extendedprice) syy, "
            "sum(l_quantity*l_extendedprice) sxy FROM lineitem "
            "WHERE l_returnflag IS NOT NULL AND l_quantity IS NOT NULL "
            "AND l_extendedprice IS NOT NULL AND NOT isnan(l_quantity) "
            "AND NOT isnan(l_extendedprice) GROUP BY l_returnflag) "
            "SELECT l_returnflag, n, "
            "round((n*sxy - sx*sy)/(n*sxx - sx*sx), 6) AS slope, "
            "round((sy - ((n*sxy - sx*sy)/(n*sxx - sx*sx))*sx)/n, 6) AS intercept, "
            "round((n*sxy - sx*sy)*(n*sxy - sx*sy)"
            "/((n*sxx - sx*sx)*(n*syy - sy*sy)), 6) AS r2 "
            "FROM p ORDER BY l_returnflag"
        ),
        # trailing_hour_load: RANGE frame includes peers; integer cents
        # make the windowed sum associative and exact on both sides
        "trailing_hour_load": (
            "SELECT user_id, event_id, ts, "
            "CAST(SUM(CAST(round(value*100) AS BIGINT)) OVER w AS BIGINT) "
            "AS roll_sum_cents, "
            "COUNT(value) OVER w AS roll_n "
            "FROM events WHERE user_id IS NOT NULL AND ts IS NOT NULL "
            "WINDOW w AS (PARTITION BY user_id ORDER BY ts "
            "RANGE BETWEEN INTERVAL 1 HOUR PRECEDING AND CURRENT ROW)"
        ),
        # daily_value_snapshot: ASOF over the max_by-collapsed series —
        # the same (ts, tie) last-observation rule the engine applies
        "daily_value_snapshot": (
            "WITH obs AS (SELECT user_id, ts, max_by(value, event_id) AS value "
            "FROM events WHERE user_id IS NOT NULL AND ts IS NOT NULL "
            "GROUP BY user_id, ts), "
            "grid AS (SELECT k.user_id, g.ts "
            "FROM (SELECT DISTINCT user_id FROM obs) k CROSS JOIN "
            "(SELECT unnest(generate_series(TIMESTAMP '2024-01-01', "
            "TIMESTAMP '2024-01-31', INTERVAL 1 DAY)) AS ts) g) "
            "SELECT grid.user_id, grid.ts, obs.value FROM grid "
            "ASOF LEFT JOIN obs ON grid.user_id = obs.user_id "
            "AND grid.ts >= obs.ts"
        ),
        # price_benford: string-based first significant digit (shortest
        # roundtrip repr agrees between Arrow and DuckDB casts)
        "price_benford": (
            "WITH d AS (SELECT CAST(regexp_extract("
            "CAST(abs(l_extendedprice) AS VARCHAR), '[1-9]') AS TINYINT) "
            "AS digit FROM lineitem WHERE l_extendedprice IS NOT NULL "
            "AND l_extendedprice != 0 AND isfinite(l_extendedprice)), "
            "c AS (SELECT digit, count(*) AS n FROM d GROUP BY digit), "
            "all_d AS (SELECT unnest(range(1, 10)) AS digit) "
            "SELECT all_d.digit, coalesce(c.n, 0) AS n, "
            "coalesce(c.n, 0) / (SELECT CAST(sum(n) AS DOUBLE) FROM c) AS p_obs, "
            "round(log10(1.0 + 1.0/all_d.digit), 6) AS p_exp "
            "FROM all_d LEFT JOIN c USING (digit) ORDER BY all_d.digit"
        ),
        # null_cooccurrence: both sides derive the same NULLIF view of
        # the null-free testdata; exact integer mask counts
        "null_cooccurrence": (
            "WITH t AS (SELECT NULLIF(l_discount, 0.0) AS l_discount, "
            "NULLIF(l_tax, 0.0) AS l_tax, "
            "NULLIF(l_returnflag, 'N') AS l_returnflag FROM lineitem) "
            "SELECT 'l_discount' AS col_a, 'l_returnflag' AS col_b, "
            "count(*) AS n_rows, "
            "CAST(count_if(l_discount IS NULL) AS BIGINT) AS n_a_null, "
            "CAST(count_if(l_returnflag IS NULL) AS BIGINT) AS n_b_null, "
            "CAST(count_if(l_discount IS NULL AND l_returnflag IS NULL) "
            "AS BIGINT) AS n_both_null FROM t "
            "UNION ALL SELECT 'l_discount', 'l_tax', count(*), "
            "CAST(count_if(l_discount IS NULL) AS BIGINT), "
            "CAST(count_if(l_tax IS NULL) AS BIGINT), "
            "CAST(count_if(l_discount IS NULL AND l_tax IS NULL) AS BIGINT) FROM t "
            "UNION ALL SELECT 'l_returnflag', 'l_tax', count(*), "
            "CAST(count_if(l_returnflag IS NULL) AS BIGINT), "
            "CAST(count_if(l_tax IS NULL) AS BIGINT), "
            "CAST(count_if(l_returnflag IS NULL AND l_tax IS NULL) AS BIGINT) FROM t"
        ),
        # value_distribution_ks: CDF-at-each-value step convention via
        # sum() OVER (ORDER BY value); identical divisions both sides —
        # bit-exact with no rounding
        "value_distribution_ks": (
            "WITH u AS (SELECT value, "
            "CASE WHEN event_type='click' THEN 1 ELSE 0 END AS g "
            "FROM events WHERE value IS NOT NULL AND NOT isnan(value) "
            "AND event_type IN ('click','view')), "
            "c AS (SELECT value, count_if(g=1) AS a, count_if(g=0) AS b "
            "FROM u GROUP BY value), "
            "t AS (SELECT CAST(sum(a) AS BIGINT) AS n_a, "
            "CAST(sum(b) AS BIGINT) AS n_b FROM c), "
            "s AS (SELECT sum(a) OVER (ORDER BY value) AS c1, "
            "sum(b) OVER (ORDER BY value) AS c2 FROM c) "
            "SELECT t.n_a, t.n_b, max(abs(c1/CAST(t.n_a AS DOUBLE) "
            "- c2/CAST(t.n_b AS DOUBLE))) AS ks "
            "FROM s, t GROUP BY t.n_a, t.n_b"
        ),
        # event_segment_chisq: per-cell expected and chi2 term from the
        # same exact ints by the same IEEE expression — bit-exact
        "event_segment_chisq": (
            "WITH t AS (SELECT event_type, user_id & 3 AS segment "
            "FROM events WHERE event_type IS NOT NULL AND user_id IS NOT NULL), "
            "c AS (SELECT event_type, segment, count(*) AS n FROM t "
            "GROUP BY event_type, segment), "
            "tot AS (SELECT CAST(sum(n) AS BIGINT) AS N FROM c) "
            "SELECT c.event_type, c.segment, c.n, "
            "(sum(c.n) OVER (PARTITION BY c.event_type)) * "
            "(sum(c.n) OVER (PARTITION BY c.segment)) / CAST(tot.N AS DOUBLE) "
            "AS expected, "
            "pow(c.n - (sum(c.n) OVER (PARTITION BY c.event_type)) * "
            "(sum(c.n) OVER (PARTITION BY c.segment)) / CAST(tot.N AS DOUBLE), 2) "
            "/ ((sum(c.n) OVER (PARTITION BY c.event_type)) * "
            "(sum(c.n) OVER (PARTITION BY c.segment)) / CAST(tot.N AS DOUBLE)) "
            "AS chi2_term FROM c, tot ORDER BY c.event_type, c.segment"
        ),
        # value_psi: reference-decile bins via quantile_disc (exact
        # parity with exact_quantiles); bin = #{boundaries <= v};
        # psi_term rounded 9 dp (numpy vs DuckDB ln last-ulp)
        "value_psi": (
            "WITH ref AS (SELECT value FROM events "
            "WHERE ts < TIMESTAMP '2024-01-16' AND value IS NOT NULL), "
            "cur AS (SELECT value FROM events "
            "WHERE ts >= TIMESTAMP '2024-01-16' AND value IS NOT NULL), "
            "b AS (SELECT quantile_disc(value, [x*0.1 for x in range(1,10)]) "
            "AS qs FROM ref), "
            "rc AS (SELECT len(list_filter(b.qs, q -> ref.value >= q)) AS bin, "
            "count(*) AS n_ref FROM ref, b GROUP BY 1), "
            "cc AS (SELECT len(list_filter(b.qs, q -> cur.value >= q)) AS bin, "
            "count(*) AS n_cur FROM cur, b GROUP BY 1), "
            "bins AS (SELECT unnest(range(0, 10)) AS bin), "
            "j AS (SELECT bins.bin, coalesce(rc.n_ref,0) AS n_ref, "
            "coalesce(cc.n_cur,0) AS n_cur FROM bins "
            "LEFT JOIN rc USING (bin) LEFT JOIN cc USING (bin)), "
            "t AS (SELECT CAST(sum(n_ref) AS DOUBLE) AS NR, "
            "CAST(sum(n_cur) AS DOUBLE) AS NC FROM j) "
            "SELECT j.bin, j.n_ref, j.n_cur, j.n_ref/t.NR AS p_ref, "
            "j.n_cur/t.NC AS p_cur, "
            "CASE WHEN j.n_ref>0 AND j.n_cur>0 THEN "
            "round((j.n_cur/t.NC - j.n_ref/t.NR) * "
            "ln((j.n_cur/t.NC)/(j.n_ref/t.NR)), 9) END AS psi_term "
            "FROM j, t ORDER BY j.bin"
        ),
        # value_gini: rank-sum identity on integer cents; HUGEINT-exact
        # folds, one double division — bit-exact
        "value_gini": (
            "WITH v AS (SELECT CAST(round(value*100) AS BIGINT) AS c "
            "FROM events WHERE value IS NOT NULL), "
            "r AS (SELECT c, row_number() OVER (ORDER BY c) AS i FROM v), "
            "s AS (SELECT count(*) AS n, sum(CAST(c AS HUGEINT)) AS s0, "
            "sum(CAST(i AS HUGEINT)*CAST(c AS HUGEINT)) AS s1 FROM r) "
            "SELECT CAST(n AS BIGINT) AS n, "
            "CAST(2*s1 - (n+1)*s0 AS DOUBLE) / "
            "CAST(CAST(n AS HUGEINT)*s0 AS DOUBLE) AS gini FROM s"
        ),
        # value_mannwhitney: doubled average ranks 2*rank() + cnt - 1
        # are ints; HUGEINT folds; one power-of-two divide — bit-exact
        "value_mannwhitney": (
            "WITH u AS (SELECT value, "
            "CASE WHEN event_type='click' THEN 1 ELSE 0 END AS g "
            "FROM events WHERE value IS NOT NULL AND NOT isnan(value) "
            "AND event_type IN ('click','view')), "
            "r AS (SELECT g, CAST(2*rank() OVER (ORDER BY value) + "
            "count(*) OVER (PARTITION BY value) - 1 AS HUGEINT) AS r2 FROM u), "
            "s AS (SELECT sum(CASE WHEN g=1 THEN r2 END) AS R2a, "
            "count_if(g=1) AS na, count_if(g=0) AS nb FROM r) "
            "SELECT CAST(na AS BIGINT) AS n_a, CAST(nb AS BIGINT) AS n_b, "
            "CAST(R2a - CAST(na AS HUGEINT)*(na+1) AS DOUBLE)/2 AS u_a, "
            "CAST(na AS DOUBLE)*CAST(nb AS DOUBLE) - "
            "CAST(R2a - CAST(na AS HUGEINT)*(na+1) AS DOUBLE)/2 AS u_b "
            "FROM s"
        ),
        # price_quantity_spearman: Pearson over doubled average ranks;
        # HUGEINT sufficient statistics are exact — rho pinned round-9
        # both sides (int→double casts exceed 2^53 at sf≥0.1, where the
        # last-ulp cast convention can differ between engines)
        "price_quantity_spearman": (
            "WITH p AS (SELECT l_quantity AS x, l_extendedprice AS y "
            "FROM lineitem WHERE l_quantity IS NOT NULL "
            "AND l_extendedprice IS NOT NULL "
            "AND NOT isnan(l_quantity) AND NOT isnan(l_extendedprice)), "
            "r AS (SELECT CAST(2*rank() OVER (ORDER BY x) + "
            "count(*) OVER (PARTITION BY x) - 1 AS HUGEINT) AS rx, "
            "CAST(2*rank() OVER (ORDER BY y) + "
            "count(*) OVER (PARTITION BY y) - 1 AS HUGEINT) AS ry FROM p), "
            "s AS (SELECT count(*) AS n, sum(rx) sx, sum(ry) sy, "
            "sum(rx*rx) sxx, sum(ry*ry) syy, sum(rx*ry) sxy FROM r) "
            "SELECT CAST(n AS BIGINT) AS n, "
            "round(CAST(n*sxy - sx*sy AS DOUBLE) / "
            "(sqrt(CAST(n*sxx - sx*sx AS DOUBLE)) * "
            "sqrt(CAST(n*syy - sy*sy AS DOUBLE))), 9) AS rho FROM s"
        ),
        # value_user_kendall: O(n²) pairwise self-join ground truth —
        # exact integer c/d; τ-b is the identical IEEE expression
        "value_user_kendall": (
            "WITH p AS (SELECT CAST(round(value) AS BIGINT) AS x, "
            "user_id AS y FROM events WHERE value IS NOT NULL "
            "AND NOT isnan(value) AND user_id IS NOT NULL), "
            "pr AS (SELECT x, y, row_number() OVER () AS rid FROM p), "
            "s AS (SELECT count_if((a.x - b.x)*(a.y - b.y) > 0) AS c, "
            "count_if((a.x - b.x)*(a.y - b.y) < 0) AS d, "
            "count(*) AS n0, count_if(a.x = b.x) AS n1, "
            "count_if(a.y = b.y) AS n2 "
            "FROM pr a JOIN pr b ON a.rid < b.rid) "
            "SELECT (SELECT count(*) FROM p) AS n, CAST(c AS BIGINT) AS c, "
            "CAST(d AS BIGINT) AS d, "
            "round(CAST(c - d AS DOUBLE)/(sqrt(CAST(n0 - n1 AS DOUBLE))"
            "*sqrt(CAST(n0 - n2 AS DOUBLE))), 9) AS tau_b FROM s"
        ),
        # event_segment_mi: per-cell exact ints + one ln, round-9
        "event_segment_mi": (
            "WITH t AS (SELECT event_type, user_id & 3 AS segment "
            "FROM events WHERE event_type IS NOT NULL AND user_id IS NOT NULL), "
            "c AS (SELECT event_type, segment, count(*) AS n FROM t "
            "GROUP BY event_type, segment), "
            "tot AS (SELECT CAST(sum(n) AS BIGINT) AS N FROM c) "
            "SELECT c.event_type, c.segment, c.n, "
            "round((c.n/CAST(tot.N AS DOUBLE)) * ln(c.n*CAST(tot.N AS DOUBLE) / "
            "((sum(c.n) OVER (PARTITION BY c.event_type)) * "
            "(sum(c.n) OVER (PARTITION BY c.segment)))), 9) AS mi_term "
            "FROM c, tot ORDER BY c.event_type, c.segment"
        ),
        # event_segment_cramers_v: chi2 cell sum round-6 + V
        "event_segment_cramers_v": (
            "WITH t AS (SELECT event_type, user_id & 3 AS segment "
            "FROM events WHERE event_type IS NOT NULL AND user_id IS NOT NULL), "
            "c AS (SELECT event_type, segment, count(*) AS n FROM t "
            "GROUP BY event_type, segment), "
            "tot AS (SELECT CAST(sum(n) AS BIGINT) AS N FROM c), "
            "e AS (SELECT c.n, (sum(c.n) OVER (PARTITION BY c.event_type)) * "
            "(sum(c.n) OVER (PARTITION BY c.segment)) / CAST(tot.N AS DOUBLE) "
            "AS expected FROM c, tot), "
            "s AS (SELECT sum(pow(n - expected, 2)/expected) AS chi2 FROM e), "
            "dims AS (SELECT count(DISTINCT event_type) AS r, "
            "count(DISTINCT segment) AS cc FROM t) "
            "SELECT tot.N AS n, round(s.chi2, 6) AS chi2, "
            "round(sqrt(s.chi2 / (tot.N * least(dims.r - 1, dims.cc - 1))), 6) "
            "AS cramers_v FROM s, tot, dims"
        ),
        # value_autocorr: lag pairs within (user, ts, event_id) order;
        # closed form over SUMs, round-6 (fold-order ulps)
        "value_autocorr": (
            "WITH r AS (SELECT value, lag(value) OVER "
            "(PARTITION BY user_id ORDER BY ts, event_id) AS prev "
            "FROM events WHERE user_id IS NOT NULL AND ts IS NOT NULL "
            "AND event_id IS NOT NULL), "
            "p AS (SELECT prev AS a, value AS b FROM r "
            "WHERE prev IS NOT NULL AND value IS NOT NULL), "
            "s AS (SELECT count(*) AS n, sum(a) sa, sum(b) sb, "
            "sum(a*a) saa, sum(b*b) sbb, sum(a*b) sab FROM p) "
            "SELECT CAST(n AS BIGINT) AS n_pairs, "
            "round((n*sab - sa*sb)/(sqrt(n*saa - sa*sa)"
            "*sqrt(n*sbb - sb*sb)), 6) AS corr FROM s"
        ),
        # price_quantity_heatmap: quantile_disc boundaries + the
        # v >= q bin rule; exact integer cells, non-empty only
        "price_quantity_heatmap": (
            "WITH p AS (SELECT l_quantity AS x, l_extendedprice AS y "
            "FROM lineitem WHERE l_quantity IS NOT NULL "
            "AND l_extendedprice IS NOT NULL "
            "AND NOT isnan(l_quantity) AND NOT isnan(l_extendedprice)), "
            "b AS (SELECT quantile_disc(x, [i/6.0 for i in range(1,6)]) AS qx, "
            "quantile_disc(y, [i/6.0 for i in range(1,6)]) AS qy FROM p) "
            "SELECT len(list_filter(b.qx, q -> p.x >= q)) AS bin_x, "
            "len(list_filter(b.qy, q -> p.y >= q)) AS bin_y, count(*) AS n "
            "FROM p, b GROUP BY 1, 2 ORDER BY 1, 2"
        ),
        # segment_drift_ks: per-group vs pooled CDF sup, one window
        # arm per group; identical divisions both sides — bit-exact
        "segment_drift_ks": (
            "WITH u AS (SELECT value AS v, event_type AS g FROM events WHERE value IS NOT NULL AND NOT isnan(value) AND event_type IS NOT NULL) SELECT 'click' AS event_type, CAST((SELECT count_if(g = 'click') FROM u) AS BIGINT) AS n, max(abs(cg/CAST((SELECT count_if(g='click') FROM u) AS DOUBLE) - ca/CAST((SELECT count(*) FROM u) AS DOUBLE))) AS ks FROM (SELECT sum(count_if(g = 'click')) OVER (ORDER BY v) AS cg, sum(count(*)) OVER (ORDER BY v) AS ca FROM u GROUP BY v) s UNION ALL SELECT 'error' AS event_type, CAST((SELECT count_if(g = 'error') FROM u) AS BIGINT) AS n, max(abs(cg/CAST((SELECT count_if(g='error') FROM u) AS DOUBLE) - ca/CAST((SELECT count(*) FROM u) AS DOUBLE))) AS ks FROM (SELECT sum(count_if(g = 'error')) OVER (ORDER BY v) AS cg, sum(count(*)) OVER (ORDER BY v) AS ca FROM u GROUP BY v) s UNION ALL SELECT 'purchase' AS event_type, CAST((SELECT count_if(g = 'purchase') FROM u) AS BIGINT) AS n, max(abs(cg/CAST((SELECT count_if(g='purchase') FROM u) AS DOUBLE) - ca/CAST((SELECT count(*) FROM u) AS DOUBLE))) AS ks FROM (SELECT sum(count_if(g = 'purchase')) OVER (ORDER BY v) AS cg, sum(count(*)) OVER (ORDER BY v) AS ca FROM u GROUP BY v) s UNION ALL SELECT 'signup' AS event_type, CAST((SELECT count_if(g = 'signup') FROM u) AS BIGINT) AS n, max(abs(cg/CAST((SELECT count_if(g='signup') FROM u) AS DOUBLE) - ca/CAST((SELECT count(*) FROM u) AS DOUBLE))) AS ks FROM (SELECT sum(count_if(g = 'signup')) OVER (ORDER BY v) AS cg, sum(count(*)) OVER (ORDER BY v) AS ca FROM u GROUP BY v) s UNION ALL SELECT 'view' AS event_type, CAST((SELECT count_if(g = 'view') FROM u) AS BIGINT) AS n, max(abs(cg/CAST((SELECT count_if(g='view') FROM u) AS DOUBLE) - ca/CAST((SELECT count(*) FROM u) AS DOUBLE))) AS ks FROM (SELECT sum(count_if(g = 'view')) OVER (ORDER BY v) AS cg, sum(count(*)) OVER (ORDER BY v) AS ca FROM u GROUP BY v) s ORDER BY event_type"
        ),
        # vocab_zipf_slope: same df SQL as "vocabulary", rank-OLS
        "vocab_zipf_slope": (
            "WITH toks AS (SELECT doc_id, unnest(list_distinct(list_filter("
            "regexp_split_to_array(lower(trim(text)), '\\W+'), t -> t <> ''))) "
            "AS g FROM documents), "
            "df_t AS (SELECT g AS token, count(*) AS df FROM toks "
            "GROUP BY g HAVING count(*) >= 5), "
            "top AS (SELECT ln(CAST(row_number() OVER (ORDER BY df DESC, token) "
            "AS DOUBLE)) AS x, ln(CAST(df AS DOUBLE)) AS y "
            "FROM df_t ORDER BY df DESC, token LIMIT 100), "
            "s AS (SELECT count(*) AS n, sum(x) sx, sum(y) sy, "
            "sum(x*x) sxx, sum(x*y) sxy FROM top) "
            "SELECT CAST(n AS BIGINT) AS n_tokens, "
            "round((n*sxy - sx*sy)/(n*sxx - sx*sx), 6) AS zipf_slope FROM s"
        ),
        # source_dup_rate: exact distinct texts per source; the rate is
        # one exact-int division — no rounding
        "source_dup_rate": (
            "SELECT source, count(*) AS n_docs, "
            "count(DISTINCT text) AS n_distinct, "
            "1.0 - count(DISTINCT text)/CAST(count(*) AS DOUBLE) AS dup_rate "
            "FROM documents WHERE source IS NOT NULL AND text IS NOT NULL "
            "GROUP BY source ORDER BY source"
        ),
        # event_basket_lift: distinct daily-basket presence; exact
        # integer counts, one exact-int lift expression
        "event_basket_lift": (
            "WITH b AS (SELECT DISTINCT CAST(user_id AS VARCHAR) || '@' || "
            "strftime(ts, '%Y-%m-%d') AS u, event_type AS it FROM events "
            "WHERE user_id IS NOT NULL AND ts IS NOT NULL "
            "AND event_type IS NOT NULL), "
            "nb AS (SELECT count(DISTINCT u) AS n_baskets FROM b), "
            "s AS (SELECT it, count(*) AS n FROM b GROUP BY it), "
            "p AS (SELECT x.it AS item_a, y.it AS item_b, count(*) AS n_ab "
            "FROM b x JOIN b y ON x.u = y.u AND x.it < y.it GROUP BY 1, 2) "
            "SELECT p.item_a, p.item_b, p.n_ab, sa.n AS n_a, sb.n AS n_b, "
            "nb.n_baskets, (p.n_ab * CAST(nb.n_baskets AS DOUBLE)) / "
            "(sa.n * CAST(sb.n AS DOUBLE)) AS lift "
            "FROM p JOIN s sa ON sa.it = p.item_a "
            "JOIN s sb ON sb.it = p.item_b, nb ORDER BY p.item_a, p.item_b"
        ),
        # price_by_quantity_quartiles: bucket rule + per-bucket
        # quantile_disc — selections, hash-exact
        "price_by_quantity_quartiles": (
            "WITH q AS (SELECT quantile_disc(l_quantity, 0.25) AS q1, "
            "quantile_disc(l_quantity, 0.50) AS q2, "
            "quantile_disc(l_quantity, 0.75) AS q3 FROM lineitem "
            "WHERE l_quantity IS NOT NULL), "
            "b AS (SELECT CAST(1 + CAST(l_quantity > q1 AS INT) + "
            "CAST(l_quantity > q2 AS INT) + CAST(l_quantity > q3 AS INT) "
            "AS BIGINT) AS bucket, l_extendedprice FROM lineitem, q "
            "WHERE l_quantity IS NOT NULL AND l_extendedprice IS NOT NULL), "
            "lq AS (SELECT bucket AS \"group\", "
            "quantile_disc(l_extendedprice, [0.25,0.5,0.75]) AS vs "
            "FROM b GROUP BY bucket) "
            "SELECT \"group\", unnest([0.25,0.5,0.75]) AS q, "
            "unnest(vs) AS value FROM lq"
        ),
        # weekly_drift_ks: per-week vs pooled CDF sup — bit-exact
        "weekly_drift_ks": (
            'WITH u AS (SELECT value AS v, (day(ts)-1)//7 AS g FROM events WHERE value IS NOT NULL AND NOT isnan(value) AND ts IS NOT NULL) SELECT CAST(0 AS BIGINT) AS week, CAST((SELECT count_if(g = 0) FROM u) AS BIGINT) AS n, max(abs(cg/CAST((SELECT count_if(g=0) FROM u) AS DOUBLE) - ca/CAST((SELECT count(*) FROM u) AS DOUBLE))) AS ks FROM (SELECT sum(count_if(g = 0)) OVER (ORDER BY v) AS cg, sum(count(*)) OVER (ORDER BY v) AS ca FROM u GROUP BY v) s UNION ALL SELECT CAST(1 AS BIGINT) AS week, CAST((SELECT count_if(g = 1) FROM u) AS BIGINT) AS n, max(abs(cg/CAST((SELECT count_if(g=1) FROM u) AS DOUBLE) - ca/CAST((SELECT count(*) FROM u) AS DOUBLE))) AS ks FROM (SELECT sum(count_if(g = 1)) OVER (ORDER BY v) AS cg, sum(count(*)) OVER (ORDER BY v) AS ca FROM u GROUP BY v) s UNION ALL SELECT CAST(2 AS BIGINT) AS week, CAST((SELECT count_if(g = 2) FROM u) AS BIGINT) AS n, max(abs(cg/CAST((SELECT count_if(g=2) FROM u) AS DOUBLE) - ca/CAST((SELECT count(*) FROM u) AS DOUBLE))) AS ks FROM (SELECT sum(count_if(g = 2)) OVER (ORDER BY v) AS cg, sum(count(*)) OVER (ORDER BY v) AS ca FROM u GROUP BY v) s UNION ALL SELECT CAST(3 AS BIGINT) AS week, CAST((SELECT count_if(g = 3) FROM u) AS BIGINT) AS n, max(abs(cg/CAST((SELECT count_if(g=3) FROM u) AS DOUBLE) - ca/CAST((SELECT count(*) FROM u) AS DOUBLE))) AS ks FROM (SELECT sum(count_if(g = 3)) OVER (ORDER BY v) AS cg, sum(count(*)) OVER (ORDER BY v) AS ca FROM u GROUP BY v) s UNION ALL SELECT CAST(4 AS BIGINT) AS week, CAST((SELECT count_if(g = 4) FROM u) AS BIGINT) AS n, max(abs(cg/CAST((SELECT count_if(g=4) FROM u) AS DOUBLE) - ca/CAST((SELECT count(*) FROM u) AS DOUBLE))) AS ks FROM (SELECT sum(count_if(g = 4)) OVER (ORDER BY v) AS cg, sum(count(*)) OVER (ORDER BY v) AS ca FROM u GROUP BY v) s ORDER BY week'
        ),
        # funnel_conversion: the funnel chain aggregated by level
        "funnel_conversion": (
            "WITH base AS (SELECT user_id, ts, event_type FROM events "
            "WHERE user_id IS NOT NULL AND ts IS NOT NULL), "
            "u AS (SELECT DISTINCT user_id FROM base), "
            "s1 AS (SELECT user_id, min(ts) AS t1 FROM base "
            "WHERE event_type = 'view' GROUP BY user_id), "
            "s2 AS (SELECT b.user_id, min(b.ts) AS t2 FROM base b "
            "JOIN s1 USING (user_id) WHERE b.event_type = 'click' "
            "AND b.ts > s1.t1 GROUP BY b.user_id), "
            "s3 AS (SELECT b.user_id, min(b.ts) AS t3 FROM base b "
            "JOIN s2 USING (user_id) WHERE b.event_type = 'purchase' "
            "AND b.ts > s2.t2 GROUP BY b.user_id), "
            "r AS (SELECT ((s1.t1 IS NOT NULL)::BIGINT + "
            "(s2.t2 IS NOT NULL)::BIGINT + (s3.t3 IS NOT NULL)::BIGINT) "
            "AS reached FROM u LEFT JOIN s1 USING (user_id) "
            "LEFT JOIN s2 USING (user_id) LEFT JOIN s3 USING (user_id)) "
            "SELECT reached, count(*) AS n_users FROM r "
            "GROUP BY reached ORDER BY reached"
        ),
        # value_sla_verdicts: exact quantile_disc + fixed ceilings
        "value_sla_verdicts": (
            "WITH q AS (SELECT unnest([0.5, 0.95, 0.99]) AS q, "
            "unnest(quantile_disc(value, [0.5, 0.95, 0.99])) AS value "
            "FROM events WHERE value IS NOT NULL), "
            "r(q, threshold) AS (VALUES (0.5, 60.0), (0.95, 110.0), "
            "(0.99, 140.0)) "
            "SELECT q.q, q.value, r.threshold, q.value <= r.threshold "
            "AS passed FROM q JOIN r USING (q) ORDER BY q.q"
        ),
        # weekly_active_users: distinct-in-trailing-window per day
        "weekly_active_users": (
            "WITH a AS (SELECT DISTINCT user_id, CAST(ts AS DATE) AS d "
            "FROM events WHERE user_id IS NOT NULL AND ts IS NOT NULL), "
            "span AS (SELECT min(d) AS lo, max(d) AS hi FROM a), "
            "grid AS (SELECT unnest(generate_series(span.lo, "
            "span.hi + INTERVAL 6 DAY, INTERVAL 1 DAY))::TIMESTAMP_S AS day "
            "FROM span) "
            "SELECT grid.day, (SELECT count(DISTINCT a.user_id) FROM a "
            "WHERE a.d BETWEEN grid.day - INTERVAL 6 DAY AND grid.day) "
            "AS n_active FROM grid ORDER BY grid.day"
        ),
        # session_duration_quartiles: the session_stats CTE + HAVING
        # count(*) > 1 + quantile_disc over int64 microsecond durations
        "session_duration_quartiles": (
            "WITH o AS (SELECT user_id, ts, CASE WHEN ts - lag(ts) OVER "
            "(PARTITION BY user_id ORDER BY ts) > INTERVAL 30 MINUTE "
            "OR lag(ts) OVER (PARTITION BY user_id ORDER BY ts) IS NULL "
            "THEN 1 ELSE 0 END AS brk FROM events), "
            "s AS (SELECT user_id, ts, sum(brk) OVER (PARTITION BY user_id "
            "ORDER BY ts ROWS UNBOUNDED PRECEDING) AS sid FROM o), "
            "d AS (SELECT epoch_us(max(ts)) - epoch_us(min(ts)) "
            "AS duration_us FROM s GROUP BY user_id, sid "
            "HAVING count(*) > 1) "
            "SELECT unnest([0.25, 0.5, 0.75]) AS q, "
            "CAST(unnest(quantile_disc(duration_us, [0.25, 0.5, 0.75])) "
            "AS DOUBLE) AS value FROM d"
        ),
        # source_pareto: exact integer mass; ordered cumulative share
        # rounded 9 dp both sides
        "source_pareto": (
            "WITH a AS (SELECT source, count(*) AS n_docs, "
            "CAST(sum(n_chars) AS BIGINT) AS chars FROM documents "
            "WHERE source IS NOT NULL AND n_chars IS NOT NULL "
            "GROUP BY source), "
            "t AS (SELECT CAST(sum(chars) AS DOUBLE) AS total FROM a), "
            "r AS (SELECT a.*, row_number() OVER "
            "(ORDER BY chars DESC, source) AS rank, "
            "chars/t.total AS share FROM a, t) "
            "SELECT rank, source, n_docs, chars, share, "
            "round(sum(share) OVER (ORDER BY rank), 9) AS cum_share "
            "FROM r ORDER BY rank"
        ),
        # source_freshness: exact microsecond lags vs the global max
        "source_freshness": (
            "WITH p AS (SELECT event_type, max(ts) AS max_ts FROM events "
            "WHERE event_type IS NOT NULL AND ts IS NOT NULL "
            "GROUP BY event_type), "
            "g AS (SELECT max(max_ts) AS gm FROM p) "
            "SELECT p.event_type, p.max_ts, "
            "epoch_us(g.gm) - epoch_us(p.max_ts) AS lag_us, "
            "(epoch_us(g.gm) - epoch_us(p.max_ts)) <= 3600000000 AS fresh "
            "FROM p, g ORDER BY p.event_type"
        ),
        # value_cusum_alarms: nested windows — per-key cumsum of cents
        # deviations, running min, clamp; integer-exact
        "value_cusum_alarms": (
            "WITH r AS (SELECT user_id, event_id, ts, "
            "COALESCE(CAST(round(value*100) AS BIGINT) - 5500, 0) AS dev "
            "FROM events WHERE user_id IS NOT NULL AND ts IS NOT NULL "
            "AND event_id IS NOT NULL), "
            "c AS (SELECT user_id, event_id, ts, sum(dev) OVER "
            "(PARTITION BY user_id ORDER BY ts, event_id "
            "ROWS UNBOUNDED PRECEDING) AS C FROM r), "
            "m AS (SELECT user_id, event_id, ts, C, min(C) OVER "
            "(PARTITION BY user_id ORDER BY ts, event_id "
            "ROWS UNBOUNDED PRECEDING) AS mn FROM c) "
            "SELECT user_id, event_id, ts, "
            "CAST(C - least(0, mn) AS BIGINT) AS cusum_cents "
            "FROM m WHERE C - least(0, mn) > 20000"
        ),
        # grouped_value_mad: per-group median + MAD, quantile_disc
        # lower-of-two semantics — selections, hash-exact
        "grouped_value_mad": (
            "WITH m AS (SELECT event_type AS \"group\", "
            "quantile_disc(value, 0.5) AS median FROM events "
            "WHERE event_type IS NOT NULL AND value IS NOT NULL "
            "GROUP BY event_type) "
            "SELECT m.\"group\", m.median, "
            "(SELECT quantile_disc(abs(e.value - m.median), 0.5) "
            "FROM events e WHERE e.event_type = m.\"group\" "
            "AND e.value IS NOT NULL) AS mad "
            "FROM m ORDER BY m.\"group\""
        ),
        # gap_quartiles: lag gaps in (ts, event_id) order per user
        "gap_quartiles": (
            "WITH g AS (SELECT epoch_us(ts) - epoch_us(lag(ts) OVER "
            "(PARTITION BY user_id ORDER BY ts, event_id)) AS gap_us "
            "FROM events WHERE user_id IS NOT NULL AND ts IS NOT NULL "
            "AND event_id IS NOT NULL) "
            "SELECT unnest([0.25, 0.5, 0.75]) AS q, "
            "CAST(unnest(quantile_disc(gap_us, [0.25, 0.5, 0.75])) AS DOUBLE) "
            "AS value FROM g WHERE gap_us IS NOT NULL"
        ),
    }
