"""The three lint workloads: input generation from a seed, the DuckDB
oracle over the generated files, one job, and the check of a job's
output against the oracle.

Sizes are per job at ``scale=1``; the benchmark's own test runs them at
a tiny scale.
"""

from __future__ import annotations

import dataclasses
import os
import shutil

import duckdb
import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from data_linter_ray import checks, synth
from data_linter_ray.metadata import ColumnSpec, TableSchema
from data_linter_ray.pipelines import run, validate
from data_linter_ray.sources import readers
from data_linter_ray.stages import sketch_stage
from data_linter_ray.state.sketches import TDigest

from oracle import SPAN_SQL, expected_counts, mismatches, quantile_shift, tests_for


def _fresh_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def _files(d: str) -> list[str]:
    return sorted(os.path.join(d, f) for f in os.listdir(d))


def _check_table_result(res, want: dict) -> list[str]:
    errs = mismatches(res.counts, want["counts"])
    if res.row_count != want["rows"]:
        errs.append(f"row_count: engine {res.row_count} oracle {want['rows']}")
    if res.valid != want["valid"]:
        errs.append(f"valid: engine {res.valid} oracle {want['valid']}")
    return errs


class InterleavedDocs:
    """``validate_dataset`` over synthetic interleaved documents: doc_id
    pattern + unique, the span checks and the broadcast media_ref
    anti-join against a catalog read from parquet."""

    name = "interleaved_docs"
    ROWS = 300_000
    FILE_ROWS = 50_000

    def __init__(self, work: str, seed: int, scale: float = 1.0):
        self.dir = os.path.join(work, "docs")
        self.catalog = os.path.join(work, "catalog.parquet")
        self.seed = seed
        self.rows = max(1000, int(self.ROWS * scale))
        self.schema = synth.documents_schema()

    def generate(self) -> None:
        _fresh_dir(self.dir)
        # absolute row indices key every seeded violation (synth.py), so
        # offsetting them by the seed gives a different, equally shaped input
        base = self.seed * 10**9
        for i, lo in enumerate(range(0, self.rows, self.FILE_ROWS)):
            ids = np.arange(base + lo, base + min(self.rows, lo + self.FILE_ROWS))
            pq.write_table(synth.make_documents_batch({"id": ids}),
                           os.path.join(self.dir, f"part-{i:04d}.parquet"))
        pq.write_table(
            pa.table({"media_ref": [synth.media_ref_for(i)
                                    for i in range(synth.MEDIA_CATALOG_SIZE)]}),
            self.catalog,
        )

    def oracle(self) -> dict:
        con = duckdb.connect()
        src = f"read_parquet('{self.dir}/*.parquet')"
        tests = tests_for(TableSchema("docs", [self.schema.column("doc_id")]))
        tests += [("spans", t) for t in SPAN_SQL] + [("spans", checks.REFERENTIAL_TEST)]
        counts = expected_counts(con, src, self.schema, tests,
                                 refs={"spans": (f"read_parquet('{self.catalog}')", "media_ref")})
        return {"counts": counts, "rows": self.rows, "valid": not counts}

    def job(self):
        import ray.data

        ds = readers.read_table_dataset(self.dir, self.schema)
        return validate.validate_dataset(
            ds, self.schema, id_column="doc_id",
            ref_tables={"media_catalog.media_ref": ray.data.read_parquet(self.catalog)},
        )

    def check(self, res, want: dict) -> list[str]:
        return _check_table_result(res, want)

    def units(self, res) -> list[float]:
        return []

    def kernel_inputs(self) -> list[tuple]:
        """(decoded table, schema, id column, referenced key set)."""
        keys = pq.read_table(self.catalog)["media_ref"].combine_chunks()
        return [(pq.read_table(_files(self.dir)[0]), self.schema, "doc_id", keys)]

    def scan_inputs(self) -> list[list[str]]:
        return [_files(self.dir)]


DRIFT_THRESHOLD = 0.25


def flat_schema() -> TableSchema:
    drift = {"metric": "quantile_shift"}
    return TableSchema("lineitem", [
        ColumnSpec("l_orderkey", "int64", unique=True),
        ColumnSpec("l_quantity", "float64", minimum=1.0, maximum=50.0, drift=drift),
        ColumnSpec("l_extendedprice", "float64", minimum=0.0, maximum=100_000.0, drift=drift),
        ColumnSpec("l_discount", "float64", minimum=0.0, maximum=0.10),
        ColumnSpec("l_returnflag", "string", enum=["A", "N", "R"], nullable=False),
        ColumnSpec("l_shipmode", "string", pattern="^[A-Z ]+$"),
        ColumnSpec("l_comment", "string", min_length=10, max_length=43),
        ColumnSpec("l_receipt", "timestamp(s)"),
    ])


def _lineitem(rng: np.random.Generator, n: int, price_lo: float) -> pa.Table:
    """A lineitem-like table with ~2-6% violations per checked column and
    about four rows per order key, so most keys are duplicated."""

    def some(p):
        return rng.random(n) < p

    qty = rng.integers(1, 51, n).astype(np.float64)
    qty[some(0.04)] = 55.0
    qty[some(0.02)] = 0.0
    price = qty * rng.uniform(price_lo, price_lo + 200.0, n)
    price[some(0.03)] *= -1.0
    disc = rng.integers(0, 11, n) / 100.0
    disc[some(0.03)] = 0.15
    flag = rng.choice(np.array(["A", "N", "R", "X"], dtype=object), n, p=[0.32, 0.32, 0.32, 0.04])
    flag[some(0.02)] = None
    modes = np.array(["AIR", "MAIL", "RAIL", "SHIP", "TRUCK", "REG AIR", "FOB", "air"], dtype=object)
    mode = rng.choice(modes, n, p=[0.135] * 7 + [0.055])
    mode[some(0.01)] = None
    letters = np.frombuffer(b"abcdefghijklmnopqrstuvwxyz    ", dtype="S1")
    lens = rng.integers(10, 44, n)
    lens[some(0.04)] = rng.integers(44, 60)
    lens[some(0.02)] = rng.integers(1, 10)
    pool = b"".join(rng.choice(letters, 64 * 1024)).decode()
    starts = rng.integers(0, len(pool) - 64, n)
    comment = [pool[s:s + k] for s, k in zip(starts.tolist(), lens.tolist())]
    day = rng.integers(0, 365, n)
    sec = rng.integers(0, 86_400, n)
    ts = (np.datetime64("2024-01-01") + day.astype("timedelta64[D]")).astype("datetime64[s]") \
        + sec.astype("timedelta64[s]")
    receipt = np.datetime_as_string(ts).astype(object)
    receipt = np.array([s.replace("T", " ") for s in receipt], dtype=object)
    bad = some(0.04)
    receipt[bad] = [s[:16].replace("-", "/") for s in receipt[bad]]
    receipt[some(0.01)] = ""
    receipt[some(0.01)] = None
    return pa.table({
        "l_orderkey": pa.array(rng.integers(1, max(2, n // 4), n), pa.int64()),
        "l_quantity": qty,
        "l_extendedprice": price,
        "l_discount": disc,
        "l_returnflag": pa.array(flag, pa.string()),
        "l_shipmode": pa.array(mode, pa.string()),
        "l_comment": pa.array(comment, pa.string()),
        "l_receipt": pa.array(receipt, pa.string()),
    })


class FlatTable:
    """``validate_dataset`` over a flat lineitem-like table: min/max,
    enum, pattern, nullable, length and datetime-format checks, a unique
    key with a heavy duplicate share, drift on two numeric columns and
    ``log_verbosity=10`` value samples."""

    name = "flat_table"
    ROWS = 150_000
    FILES = 3
    LOG_VERBOSITY = 10

    def __init__(self, work: str, seed: int, scale: float = 1.0):
        self.dir = os.path.join(work, "lineitem")
        self.base_dir = os.path.join(work, "lineitem_baseline")
        self.baseline = os.path.join(work, "baseline.json")
        self.seed = seed
        self.rows = max(1000, int(self.ROWS * scale))
        self.schema = flat_schema()
        self.drift_cols = [c.name for c in self.schema.columns if c.drift]

    def generate(self) -> None:
        _fresh_dir(self.dir)
        _fresh_dir(self.base_dir)
        t = _lineitem(np.random.default_rng(self.seed), self.rows, 900.0)
        step = -(-self.rows // self.FILES)
        for i in range(self.FILES):
            pq.write_table(t.slice(i * step, step), os.path.join(self.dir, f"part-{i}.parquet"))
        # the baseline comes from another seed; its prices are shifted so
        # l_extendedprice drifts while l_quantity does not
        base = _lineitem(np.random.default_rng(self.seed + 1), self.rows // 2, 1500.0)
        pq.write_table(base, os.path.join(self.base_dir, "part-0.parquet"))
        sketches = {}
        for c in self.drift_cols:
            td = TDigest()
            td.add(base[c].to_numpy())
            sketches[c] = {"tdigest": td}
        sketch_stage.save_baselines(sketches, self.baseline)

    def oracle(self) -> dict:
        con = duckdb.connect()
        src = f"read_parquet('{self.dir}/*.parquet')"
        counts = expected_counts(con, src, self.schema, tests_for(self.schema))
        drift = {}
        for c in self.drift_cols:
            d = quantile_shift(con, src, f"read_parquet('{self.base_dir}/*.parquet')", c)
            # the t-digest distance must land on the same side of the
            # threshold as the exact one; inputs near it would make the
            # verdict depend on sketch error, not on the engine's logic
            if abs(d - DRIFT_THRESHOLD) < 0.5 * DRIFT_THRESHOLD:
                raise ValueError(f"drift on {c} is {d:.3f}, too near the threshold")
            drift[c] = d <= DRIFT_THRESHOLD
        return {"counts": counts, "rows": self.rows, "drift": drift,
                "valid": not counts and all(drift.values())}

    def job(self):
        ds = readers.read_table_dataset(self.dir, self.schema)
        return validate.validate_dataset(
            ds, self.schema, log_verbosity=self.LOG_VERBOSITY,
            drift_baselines=sketch_stage.load_baselines(self.baseline),
            drift_threshold=DRIFT_THRESHOLD,
        )

    def check(self, res, want: dict) -> list[str]:
        errs = _check_table_result(res, want)
        out = res.response.get_result(copy=False)
        for c, ok in want["drift"].items():
            got = out.get(c, {}).get(checks.DRIFT_TEST, {}).get("valid")
            if got is not ok:
                errs.append(f"{c}/drift: engine {got} oracle {ok}")
        for (c, t), n in want["counts"].items():
            sample = out.get(c, {}).get(t, {}).get("unexpected_values_sample", [])
            if len(sample) != min(n, self.LOG_VERBOSITY):
                errs.append(f"{c}/{t}: {len(sample)} samples for {n} violations")
        return errs

    def units(self, res) -> list[float]:
        return []

    def kernel_inputs(self) -> list[tuple]:
        return [(pq.read_table(_files(self.dir)[0]), self.schema, None, None)]

    def scan_inputs(self) -> list[list[str]]:
        return [_files(self.dir)]


def land_tables() -> dict[str, TableSchema]:
    """table -> schema of the land_run workload."""
    return {
        "orders": TableSchema("orders", [
            ColumnSpec("o_orderkey", "int64", minimum=1),
            ColumnSpec("o_status", "string", enum=["F", "O", "P"]),
            ColumnSpec("o_email", "string", pattern=r"^[a-z0-9.]+@example\.org$"),
            ColumnSpec("o_total", "float64", minimum=0.0, maximum=500_000.0),
        ]),
        "events": TableSchema("events", [
            ColumnSpec("event_id", "int64", minimum=0),
            ColumnSpec("value", "float64", minimum=0.0, maximum=100.0),
            ColumnSpec("kind", "string", enum=["click", "view", "buy"], nullable=False),
        ]),
        "items": TableSchema("items", [
            ColumnSpec("sku", "string", pattern="^SKU-[0-9]{6}$"),
            ColumnSpec("qty", "int64", minimum=1, maximum=99),
            ColumnSpec("name", "string", min_length=3, max_length=30),
        ]),
    }


def _land_file(table: str, rng: np.random.Generator, n: int, bad: bool) -> pa.Table:
    """One land file's rows; ``bad`` files carry ~5% violations per column."""

    def some(p):
        return rng.random(n) < p if bad else np.zeros(n, dtype=bool)

    ids = np.arange(n, dtype=np.int64) + 1
    if table == "orders":
        ids[some(0.05)] = 0
        status = rng.choice(np.array(["F", "O", "P"], dtype=object), n)
        status[some(0.05)] = "X"
        email = np.array([f"user{i}@example.org" for i in ids], dtype=object)
        email[some(0.05)] = "User@Example.com"
        total = np.round(rng.uniform(1.0, 400_000.0, n), 2)
        total[some(0.05)] = 600_000.5
        return pa.table({"o_orderkey": ids, "o_status": pa.array(status, pa.string()),
                         "o_email": pa.array(email, pa.string()), "o_total": total})
    if table == "events":
        ids[some(0.05)] = -1
        value = np.round(rng.uniform(0.0, 100.0, n), 3)
        value[some(0.05)] = 150.25
        kind = rng.choice(np.array(["click", "view", "buy"], dtype=object), n)
        kind[some(0.03)] = "scroll"
        kind[some(0.03) & (np.arange(n) > 0)] = None
        return pa.table({"event_id": ids, "value": value, "kind": pa.array(kind, pa.string())})
    sku = np.array([f"SKU-{i:06d}" for i in rng.integers(0, 10**6, n)], dtype=object)
    sku[some(0.05)] = "sku-1"
    qty = rng.integers(1, 100, n)
    qty[some(0.05)] = 150
    name = np.array([f"item {i}" for i in range(n)], dtype=object)
    name[some(0.05)] = "x" * 40
    return pa.table({"sku": pa.array(sku, pa.string()), "qty": qty,
                     "name": pa.array(name, pa.string())})


class LandRun:
    """``run_validation`` over parquet land files of three tables. A
    third of the files carry violations and one file lacks a schema
    column; every file is routed to pass or fail.

    The land files are parquet only. For a CSV or JSONL file
    ``validate_dataset`` learns the schema from an execution cut short
    after its first block (``Dataset.schema()``), and on Ray 2.49 the
    forced shutdown of such an execution crashed the driver (``Check
    failed`` in reference_count.cc) in about 1 of 60 files. A failed cast
    aborts an execution the same way, so the file-level failure is a
    missing column."""

    name = "land_run"
    FILES_PER_TABLE = 8
    ROWS = 2_000
    LOG_VERBOSITY = 5

    def __init__(self, work: str, seed: int, scale: float = 1.0):
        self.master = os.path.join(work, "land_master")
        self.root = os.path.join(work, "land_job")
        self.seed = seed
        self.rows = max(50, int(self.ROWS * scale))
        self.files = max(3, round(self.FILES_PER_TABLE * min(1.0, scale)))
        self.tables = land_tables()
        self.misaligned = f"orders_{self.files - 1:03d}.parquet"

    def _paths(self):
        for ti, (table, schema) in enumerate(self.tables.items()):
            for i in range(self.files):
                yield ti, table, schema, i, f"{table}_{i:03d}.parquet"

    def generate(self) -> None:
        _fresh_dir(self.master)
        for ti, table, _schema, i, fname in self._paths():
            rng = np.random.default_rng([self.seed, ti, i])
            t = _land_file(table, rng, self.rows, bad=i % 3 == 1)
            if fname == self.misaligned:
                t = t.drop(["o_total"])
            pq.write_table(t, os.path.join(self.master, fname))

    def oracle(self) -> dict:
        con = duckdb.connect()
        files = {}
        for _ti, table, schema, _i, fname in self._paths():
            src = f"read_parquet('{os.path.join(self.master, fname)}')"
            have = {d[0] for d in con.execute(f"SELECT * FROM {src} LIMIT 0").description}
            if set(schema.column_names) - have:
                # a missing column fails the whole file, with no row counts
                files[fname] = {"table": table, "counts": {}, "rows": 0, "valid": False}
                continue
            counts = expected_counts(con, src, schema, tests_for(schema))
            rows = con.execute(f"SELECT count(*) FROM {src}").fetchone()[0]
            files[fname] = {"table": table, "counts": counts, "rows": rows, "valid": not counts}
        return {"files": files, "rows": sum(f["rows"] for f in files.values())}

    def restore(self) -> None:
        """Fresh land copy and empty outputs (outside the timed region)."""
        shutil.rmtree(self.root, ignore_errors=True)
        shutil.copytree(self.master, os.path.join(self.root, "land"))

    def config(self) -> dict:
        return {
            "land-base-path": os.path.join(self.root, "land"),
            "pass-base-path": os.path.join(self.root, "pass"),
            "fail-base-path": os.path.join(self.root, "fail"),
            "log-base-path": os.path.join(self.root, "log"),
            "validator-engine-params": {"log-verbosity": self.LOG_VERBOSITY},
            "tables": {
                table: {"metadata": _schema_dict(schema), "required": True}
                for table, schema in self.tables.items()
            },
        }

    def job(self):
        return run.run_validation(self.config(), raise_on_failure=False)

    def check(self, res, want: dict) -> list[str]:
        errs = []
        seen = set()
        for m in res.manifests:
            fname = os.path.basename(m.source_path)
            seen.add(fname)
            exp = want["files"].get(fname)
            if exp is None:
                errs.append(f"{fname}: not a land file")
                continue
            got = {tuple(k.split("::", 1)): n for k, n in m.counts.items()}
            errs += [f"{fname}: {e}" for e in mismatches(got, exp["counts"])]
            if m.valid != exp["valid"] or m.row_count != exp["rows"]:
                errs.append(f"{fname}: valid/rows {m.valid}/{m.row_count} "
                            f"oracle {exp['valid']}/{exp['rows']}")
            dest = "pass" if exp["valid"] else "fail"
            if os.path.join(self.root, dest, exp["table"], fname) != m.archived_path:
                errs.append(f"{fname}: routed to {m.archived_path}, oracle {dest}")
        errs += [f"{f}: no manifest" for f in sorted(set(want["files"]) - seen)]
        return errs

    def units(self, res) -> list[float]:
        return [m.duration_s for m in res.manifests]

    def kernel_inputs(self) -> list[tuple]:
        return [(pq.read_table(os.path.join(self.master, f"{table}_000.parquet")),
                 schema, None, None)
                for table, schema in self.tables.items()]

    def scan_inputs(self) -> list[list[str]]:
        """The well-formed land files, grouped by table: the misaligned
        file's schema differs from the others'."""
        by_table: dict[str, list[str]] = {}
        for _ti, table, _schema, _i, fname in self._paths():
            if fname != self.misaligned:
                by_table.setdefault(table, []).append(os.path.join(self.master, fname))
        return list(by_table.values())


def _schema_dict(schema: TableSchema) -> dict:
    """Metadata dict for a run config. Not ``TableSchema.to_dict``: that
    drops falsy constraint values such as ``minimum=0`` and
    ``nullable=False`` (``0 in (None, False)`` is true)."""
    return {"name": schema.name, "columns": [
        {k: v for k, v in dataclasses.asdict(c).items() if v is not None}
        for c in schema.columns
    ]}


WORKLOADS = {w.name: w for w in (InterleavedDocs, FlatTable, LandRun)}
