"""run_validation — the config-driven end-to-end lifecycle.

Re-creates the reference's ``run_validation``
(``/root/reference/data_linter/validation.py:212-251`` and
``collect_all_status`` :498-649) on Ray Data:

  1. load + validate config
  2. match land files to tables (J1 matcher semantics, validation.py:147-209)
  3. per table: the pending land files (resume skips committed ones) are
     grouped by data schema — a parquet file's from its footer, with no
     Ray execution; a file whose footer cannot be read fails alone
     (``parse_data``), a misaligned one gets its ``overall_validation``
     failure without a read, and any other format, a file with a
     ``path`` column and every file of a table with a ``row-limit`` go
     alone. ``validate_group`` reads each group once (ingest-normalize/
     cast) at the cluster's read width, so one read task may take
     several files, validates all of its files in ONE Ray Data execution
     (``validate_units``), with a verdict per file, and writes their
     violations from that execution's blocks, one Ray task per block,
     into per-file directories it clears first; a UnitManifest per
     file (the checkpoint unit) is committed atomically. A group whose
     execution raises is re-run one file at a time, so only the bad file
     records ``parse_data``.
  4. routing: all-pass → pass path; ``all-must-pass`` + any fail → ALL
     files to fail path and a final ValueError (validation.py:547-557,
     :635-642); else per-file pass/fail. Optional delete-on-pass.
  5. per-table JSON log written under the log path; a run-level main log
     is collated and uploaded on success AND on the error path
     (reference logging_functions.py:51-69, validation.py:240-251).

Every base path (land / pass / fail / log) may independently be a local
path or an ``s3://`` URI, in any combination — the reference's 16-way
path matrix (``tests/test_end_to_end_run.py:82-119``). All path I/O goes
through :mod:`data_linter_ray.fs`.

Resume: ``run_validation(..., resume=True)`` skips any unit whose
manifest is already committed — the reference's parallel mode used S3
status files with no re-entrancy; ours is re-entrant by design.

Improvement over the reference (deliberate, SURVEY.md §4 "bugs worth NOT
porting"): an empty required table records a failed match and the run
CONTINUES with other tables rather than silently returning early
(reference validation.py:439-442 quirk).
"""

from __future__ import annotations

import fnmatch
import json
import re
import time
from dataclasses import dataclass, field

import pyarrow as pa

from data_linter_ray import fs
from data_linter_ray.config import RunConfig, TableConfig, load_and_validate_config
from data_linter_ray.metadata import TableSchema
# ``validate_dataset`` and ``read_table_dataset`` stay module globals of
# this module: the benchmark's tracer (perfbench/tracer.py) wraps them here
from data_linter_ray.pipelines.validate import (  # noqa: F401
    alignment_failure,
    keep_violations,
    max_units,
    validate_dataset,
    validate_units,
)
from data_linter_ray.sources.readers import (
    PATH_COLUMN,
    format_of,
    normalized_names,
    read_parquet_dataset,
    read_table_dataset,
    row_path,
)
from data_linter_ray.state.manifest import ManifestStore, UnitManifest


def list_land_files(land: str) -> list[str]:
    """Land listing, local or S3: exclude dotfiles and zero-byte files
    (reference utils.get_filepaths_from_local_folder, utils.py:153-177;
    S3 branch validation.py:154-157)."""
    return fs.list_files(land)


def _basename(path: str) -> str:
    return path.rstrip("/").rsplit("/", 1)[-1]


def match_files_to_tables(
    files: list[str], config: RunConfig
) -> dict[str, list[str]]:
    """Reference J1 semantics (validation.py:147-209): regex ``pattern``
    or table-name prefix on the land-relative name. Reference-parity
    errors: required table with no match → FileNotFoundError; file
    matching ≥2 tables → FileExistsError; unknown files (only when
    ``fail-unknown-files`` is configured) → FileExistsError."""
    land = config.land_base_path.rstrip("/") + "/"
    if not files and config.fail_no_files:
        raise FileNotFoundError(f"No files found in the path: {config.land_base_path}")
    matched: dict[str, list[str]] = {name: [] for name in config.tables}
    all_matched: list[str] = []
    for name, tc in config.tables.items():
        for f in files:
            rel = f[len(land):] if f.startswith(land) else _basename(f)
            hit = (
                re.match(tc.pattern, rel) is not None
                if tc.pattern
                else rel.startswith(name)
            )
            if hit:
                matched[name].append(f)
                all_matched.append(f)
        if not matched[name] and tc.required:
            raise FileNotFoundError(
                f"Config states file for {name} must exist but no files matched."
            )
    if len(all_matched) != len(set(all_matched)):
        dupes = sorted({f for f in all_matched if all_matched.count(f) > 1})
        raise FileExistsError(f"We matched the same files to multiple tables: {dupes}")
    if config.fail_unknown_files:
        exceptions = (config.fail_unknown_files or {}).get("exceptions", [])
        unknown = [
            f
            for f in files
            if f not in set(all_matched)
            and not any(
                fnmatch.fnmatch(_basename(f), e) or f.endswith(e)
                for e in exceptions
            )
        ]
        if unknown:
            raise FileExistsError(
                f"Config states no unknown should exist. Unmatched: {unknown}"
            )
    return matched


def _load_schema(tc: TableConfig) -> TableSchema:
    if isinstance(tc.metadata, dict):
        return TableSchema.from_dict(tc.metadata)
    if isinstance(tc.metadata, str):
        return TableSchema.from_json(tc.metadata)
    raise ValueError(f"table {tc.name}: no metadata given")


@dataclass
class RunResult:
    all_tables_passed: bool
    manifests: list[UnitManifest] = field(default_factory=list)
    table_logs: dict = field(default_factory=dict)
    main_log_path: str | None = None

    @property
    def valid(self) -> bool:
        return self.all_tables_passed


def open_status_store(config: RunConfig) -> ManifestStore:
    return ManifestStore(
        fs.join(config.log_base_path, "data_linter_temporary_fs", "status")
    )


def validate_group(
    table: str,
    units: list[tuple[str, str | list[str]]],
    schema: TableSchema,
    violations_root: str,
    table_params: dict | None = None,
    **validate_kwargs,
) -> list[UnitManifest]:
    """Read, validate and sink a group of checkpoint units in one Ray
    Data execution, and return their uncommitted manifests.

    ``units`` are ``(source_path, paths)`` pairs: one group of table
    fragments, or land files of one data schema (one file each). All
    paths are read by one :func:`read_table_dataset` — tagged with each
    row's file when there are several units — and validated by
    :func:`validate_units`, to which extra ``validate_kwargs`` pass. Each
    unit gets its own verdict; the violation rows of every unit with a
    failing test go to ``{violations_root}/{key}``, the unit's
    :meth:`UnitManifest.key`, cleared first, in one write: a Ray task
    per block the pass already holds, and no second Ray Data
    execution. Every manifest's ``duration_s`` is the group's wall
    time. Errors propagate: each caller keeps its own
    failure policy."""
    t0 = time.monotonic()
    if len(units) == 1:
        ds, tags = read_table_dataset(units[0][1], schema, table_params), None
    else:
        paths = [p for _, p in units]
        ds = read_table_dataset(paths, schema, table_params, include_paths=True)
        tags = [row_path(p) for p in paths]
    results, violations = validate_units(ds, schema, tags, **validate_kwargs)
    manifests = [
        UnitManifest(
            table=table,
            source_path=source_path,
            valid=res.valid,
            row_count=res.row_count,
            counts={f"{c}::{t}": n for (c, t), n in res.counts.items()},
            response=res.response.get_result(),
        )
        for (source_path, _), res in zip(units, results)
    ]
    # an earlier attempt's parts (a run killed before its commits, a
    # group re-run one file at a time) must not add to this one's rows
    for m in manifests:
        fs.delete_dir(fs.join(violations_root, m.key()))
    failing = [m for m, res in zip(manifests, results) if res.counts]
    if violations is not None and failing:
        for m in failing:
            m.violations_path = fs.join(violations_root, m.key())
        keys = pa.array([m.key() for m in manifests])

        def unit_dir(t: pa.Table) -> pa.Table:
            t = keep_violations(t)
            return t.set_column(t.schema.get_field_index("cc"), "cc", keys.take(t["cc"]))

        fs.write_parquet_uri(violations, violations_root, partition_col="cc", prepare=unit_dir)
    duration = time.monotonic() - t0
    for m in manifests:
        m.duration_s = duration
    return manifests


def run_validation(
    config: dict | str | RunConfig,
    *,
    resume: bool = False,
    raise_on_failure: bool | None = None,
) -> RunResult:
    from data_linter_ray import runlog

    log, buf = runlog.logging_setup()
    main_log_path = None
    try:
        log.info("Loading config")
        config = load_and_validate_config(config)
        main_log_path = runlog.get_main_log_path(config.log_base_path)

        store = open_status_store(config)
        if not resume:
            store.clear()

        log.info("Matching land files")
        files = list_land_files(config.land_base_path)
        matched = match_files_to_tables(files, config)
        log.info("Running validation over %d matched files", sum(map(len, matched.values())))
        validate_phase(config, store, matched, resume=resume, log=log)
        result = collect_phase(
            config, store, raise_on_failure=raise_on_failure, log=log
        )
        result.main_log_path = main_log_path
    except Exception as e:
        # reference error path (validation.py:240-249): upload the main
        # log BEFORE re-raising
        log.error(
            "Unexpected error. Uploading log to %s before raising error.",
            main_log_path,
        )
        log.error(str(e))
        runlog.upload_log(buf, main_log_path)
        runlog.teardown(log, buf)
        raise
    else:
        runlog.upload_log(buf, main_log_path)
        runlog.teardown(log, buf)
    return result


def _parse_failure(table: str, path: str, e: Exception) -> UnitManifest:
    """The manifest of a unit whose read or validation raised: the
    reference captures ALL validation exceptions as a failed table test
    (pandas_validator.py:65-82), never aborting the run."""
    return UnitManifest(
        table=table,
        source_path=path,
        valid=False,
        response={"valid": False, "parse_data": {"valid": False, "traceback": repr(e)}},
    )


def _group_units(
    table: str, paths: list[str], schema: TableSchema, tc: TableConfig, alone: bool
) -> tuple[list[list[str]], list[UnitManifest]]:
    """A table's pending land files → the groups to validate in one pass
    each, and the manifests of files that fail on their footer alone.

    Parquet files group by footer schema. A file whose footer cannot be
    read records ``parse_data``; one whose columns do not align records
    ``overall_validation``; neither is read. A file of another format,
    one with a :data:`PATH_COLUMN` column (the tag a group's read adds)
    and, with ``alone``, every file is a group of its own; groups hold at
    most :func:`max_units` files."""
    import pyarrow.parquet as pq

    groups: dict = {}
    failed: list[UnitManifest] = []
    for path in paths:
        key = path
        if format_of(path) == "parquet":
            try:
                filesystem, rel = fs.resolve(path)
                footer = pq.read_schema(rel, filesystem=filesystem).remove_metadata()
            except Exception as e:  # noqa: BLE001
                failed.append(_parse_failure(table, path, e))
                continue
            names = normalized_names(footer.names, tc.headers_ignore_case)
            bad = alignment_failure(
                schema,
                pa.schema(list(zip(names, footer.types))),
                id_column=tc.id_column,
                allow_missing_cols=tc.allow_missing_cols,
                allow_unexpected_data=tc.allow_unexpected_data,
            )
            if bad is not None:
                failed.append(
                    UnitManifest(
                        table=table,
                        source_path=path,
                        valid=False,
                        response=bad.response.get_result(),
                    )
                )
                continue
            if not (alone or PATH_COLUMN in footer.names + names):
                key = footer
        groups.setdefault(key, []).append(path)
    n = max_units(schema)
    return [g[i : i + n] for g in groups.values() for i in range(0, len(g), n)], failed


def _validate_land_group(
    name: str,
    group: list[str],
    schema: TableSchema,
    tc: TableConfig,
    log_root: str,
    validate_kwargs: dict,
) -> list[UnitManifest]:
    """:func:`validate_group` over land files, plus their profiles. When
    the group raises, each file is re-run alone, so only a bad file
    records ``parse_data``."""
    t0 = time.monotonic()
    try:
        manifests = validate_group(
            name,
            [(path, path) for path in group],
            schema,
            fs.join(log_root, "violations", name),
            tc.table_params(),
            **validate_kwargs,
        )
        if tc.profile:
            # column-stats profile per unit → one small JSON in the log
            # area (the partials fold is KB-scale; this re-reads the unit
            # with the profiler's own pruned scan, keeping the validation
            # pass untouched)
            from data_linter_ray.functions.profile import profile_dataset

            for m in manifests:
                prof = profile_dataset(
                    read_table_dataset(m.source_path, schema, tc.table_params())
                ).to_pylist()
                fs.write_text(
                    fs.join(log_root, "profiles", name, m.key() + ".json"),
                    json.dumps(prof, indent=1),
                )
        return manifests
    except Exception as e:  # noqa: BLE001
        if len(group) > 1:
            return [
                m
                for path in group
                for m in _validate_land_group(
                    name, [path], schema, tc, log_root, validate_kwargs
                )
            ]
        m = _parse_failure(name, group[0], e)
        m.duration_s = time.monotonic() - t0
        return [m]


def validate_phase(
    config: RunConfig,
    store: ManifestStore,
    matched: dict[str, list[str]],
    *,
    resume: bool = False,
    log=None,
) -> None:
    """Validate every matched (table, file) unit, committing one manifest
    per unit (the checkpoint unit; committed units are skipped on
    resume). A table's pending files are validated in groups, one Ray
    execution each (:func:`_group_units`, :func:`validate_group`).
    ``validator-engine-params`` from the run config apply to every unit
    as defaults under the table's own settings (reference passes them to
    every validator constructor, validation.py:391-420)."""
    log_root = config.log_base_path
    engine_params = config.validator_engine_params or {}
    for name, tc in config.tables.items():
        pending = [
            path
            for path in matched.get(name, [])
            if not (
                resume
                and store.exists(UnitManifest(table=name, source_path=path, valid=False))
            )
        ]
        if not pending:
            continue  # optional table with no files: skip, keep validating
        schema = _load_schema(tc)
        if config.validator_engine == "parquet":
            # schema-only conformance (reference ParquetValidator path)
            from data_linter_ray.stages.schema_conformance import validate_parquet_schema

            for path in pending:
                t0 = time.monotonic()
                try:
                    resp = validate_parquet_schema(path, schema)
                    m = UnitManifest(
                        table=name,
                        source_path=path,
                        valid=resp.valid,
                        response=resp.get_result(),
                    )
                except Exception as e:  # noqa: BLE001
                    m = _parse_failure(name, path, e)
                m.duration_s = time.monotonic() - t0
                store.commit(m)
            continue

        drift_baselines = None
        if tc.drift_baseline and fs.exists(tc.drift_baseline):
            from data_linter_ray.stages.sketch_stage import load_baselines

            drift_baselines = load_baselines(tc.drift_baseline)
        row_limit = (
            tc.row_limit if tc.row_limit is not None else engine_params.get("row-limit")
        )
        validate_kwargs = dict(
            id_column=tc.id_column,
            ref_tables={
                key: read_parquet_dataset(path) for key, path in tc.ref_tables.items()
            },
            allow_missing_cols=tc.allow_missing_cols,
            allow_unexpected_data=tc.allow_unexpected_data,
            row_limit=row_limit,
            row_sample=engine_params.get("row-sample", "head"),
            sample_seed=engine_params.get("sample-seed"),
            log_verbosity=(
                tc.log_verbosity
                if tc.log_verbosity is not None
                else engine_params.get("log-verbosity")
            ),
            drift_baselines=drift_baselines,
            drift_threshold=tc.drift_threshold,
        )

        groups, failed = _group_units(name, pending, schema, tc, row_limit is not None)
        for m in failed:
            store.commit(m)
        for group in groups:
            if log:
                for path in group:
                    log.info("Linting %s (%s)", name, path)
            for m in _validate_land_group(
                name, group, schema, tc, log_root, validate_kwargs
            ):
                store.commit(m)


def collect_phase(
    config: RunConfig,
    store: ManifestStore,
    *,
    raise_on_failure: bool | None = None,
    log=None,
) -> RunResult:
    """Collect committed manifests, route files pass/fail, write per-table
    logs (reference ``collect_all_status``, validation.py:498-649)."""
    log_root = config.log_base_path
    manifests = store.all()
    all_passed = bool(manifests) and all(m.valid for m in manifests)

    from data_linter_ray.utils import get_out_path

    run_ts = str(int(time.time()))
    filenum: dict[str, int] = {}
    for m in manifests:
        if not m.source_path:
            continue
        to_pass = m.valid if not config.all_must_pass else all_passed
        dst_root = config.pass_base_path if to_pass else config.fail_base_path
        base = _basename(m.source_path)
        if config.timestamp_partition_name:
            # reference hive-style partitioned naming (utils.get_out_path):
            # {base}/{table}/{tpn}={ts}/{file}-{n}-{ts}[.gz]
            i = filenum.get(m.table, 0)
            filenum[m.table] = i + 1
            dst = get_out_path(
                dst_root,
                m.table,
                run_ts,
                base,
                compress=config.compress_data,
                filenum=i,
                timestamp_partition_name=config.timestamp_partition_name,
            )
        else:
            # stable idempotent naming (deliberate difference from the
            # reference's always-ts-suffixed names: a resumed run
            # overwrites rather than duplicating outputs)
            dst = fs.join(dst_root, m.table, base)
        archived = fs.copy_file(m.source_path, dst, compress=config.compress_data)
        if to_pass and config.remove_tables_on_pass:
            fs.delete_file(m.source_path)
        m.archived_path = archived
        store.commit(m)

    # ---- per-table logs ------------------------------------------------
    table_logs: dict = {}
    for m in manifests:
        table_logs.setdefault(m.table, []).append(
            {
                "valid": m.valid,
                "response": m.response,
                "original-path": m.source_path,
                "table-name": m.table,
                "archived-path": m.archived_path,
            }
        )
    for name, entries in table_logs.items():
        d = fs.join(log_root, "tables", name)
        for i, e in enumerate(entries):
            fs.write_text(fs.join(d, f"log-{name}-{i}.json"), json.dumps(e, indent=1))

    result = RunResult(
        all_tables_passed=all_passed, manifests=manifests, table_logs=table_logs
    )
    should_raise = config.all_must_pass if raise_on_failure is None else raise_on_failure
    if should_raise and not all_passed:
        if log:
            log.error("Tables did not pass linter")
        raise ValueError("Tables did not pass linter")
    return result
