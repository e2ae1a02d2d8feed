"""Parallel-mode API (reference S12 parity).

The reference splits a run across N external workers via S3-staged
bin-packed sub-configs (``para_run_init`` / ``para_run_validation(i)`` /
``para_collect_all_status`` / ``para_collect_all_logs`` —
``/root/reference/data_linter/validation.py:254-775``, README.md:136-190).

On Ray Data this external sharding is obsolete — the streaming executor
parallelizes within one job — but the 4-phase API is kept so pipelines
orchestrated that way (e.g. one Airflow task per phase/worker) keep
working. Semantics preserved: first-fit-decreasing bin packing by file
byte size; workers with no bin no-op; all workers share the status area;
closedown routes everything. Improvements over the reference: works on
local paths AND s3:// in any combination (reference raised for non-S3
land paths), the FFD loop doesn't drop bins (reference bug at
validation.py:316-320), and workers are re-entrant (committed units are
skipped).
"""

from __future__ import annotations

import json
from typing import Union

from data_linter_ray import fs
from data_linter_ray.config import RunConfig, load_and_validate_config
from data_linter_ray.pipelines.run import (
    RunResult,
    collect_phase,
    list_land_files,
    match_files_to_tables,
    open_status_store,
    validate_phase,
)


def _temp_configs_root(config: RunConfig) -> str:
    return fs.join(config.log_base_path, "data_linter_temporary_fs", "configs")


def bin_pack_files(
    sized_files: list[tuple[str, str, int]], max_bin_count: int
) -> list[list[tuple[str, str]]]:
    """First-fit-decreasing pack of (table, file, size) into ≤N bins.

    Reference ``bin_pack_configs`` (validation.py:284-320) greedy-packs
    by size toward total/N per bin; this keeps that strategy without the
    reference's dropped-bin bug."""
    order = sorted(sized_files, key=lambda x: -x[2])
    bins: list[list[tuple[str, str]]] = [[] for _ in range(max_bin_count)]
    loads = [0] * max_bin_count
    for table, path, size in order:
        i = min(range(max_bin_count), key=loads.__getitem__)
        bins[i].append((table, path))
        loads[i] += size
    return [b for b in bins if b]


def para_run_init(
    config: Union[str, dict, RunConfig], max_bin_count: int
) -> list[str]:
    """Phase 1: match files, bin-pack, stage one sub-config per bin under
    ``{log}/data_linter_temporary_fs/configs/{i}/``. Returns the bin dirs."""
    config = load_and_validate_config(config)
    store = open_status_store(config)
    store.clear()

    files = list_land_files(config.land_base_path)
    matched = match_files_to_tables(files, config)
    sized = [
        (table, path, fs.size(path))
        for table, paths in matched.items()
        for path in paths
    ]
    bins = bin_pack_files(sized, max_bin_count)

    root = _temp_configs_root(config)
    fs.delete_dir(root)
    out_dirs = []
    for i, units in enumerate(bins):
        d = fs.join(root, str(i))
        per_table: dict[str, list[str]] = {}
        for table, path in units:
            per_table.setdefault(table, []).append(path)
        fs.write_text(fs.join(d, "config_0.json"), json.dumps({"matched": per_table}))
        out_dirs.append(d)
    return out_dirs


def para_run_validation(bin_index: int, config: Union[str, dict, RunConfig]) -> None:
    """Phase 2 (×N, safely concurrent): validate the units of one bin.
    A worker whose bin folder doesn't exist no-ops (reference
    validation.py:694-695)."""
    config = load_and_validate_config(config)
    d = fs.join(_temp_configs_root(config), str(bin_index))
    names = fs.listdir(d)
    if not names:
        return
    store = open_status_store(config)
    for fn in names:
        if not fn.endswith(".json"):
            continue
        matched = json.loads(fs.read_text(fs.join(d, fn)))["matched"]
        validate_phase(config, store, matched, resume=True)


def para_collect_all_status(
    config: Union[str, dict, RunConfig], *, raise_on_failure: bool | None = None
) -> RunResult:
    """Phase 3: collect every worker's committed manifests and route."""
    config = load_and_validate_config(config)
    return collect_phase(
        config, open_status_store(config), raise_on_failure=raise_on_failure
    )


def para_collect_all_logs(config: Union[str, dict, RunConfig]) -> dict:
    """Phase 4: summarize the run's logs and clear the temp config area
    (reference para_collect_all_logs, validation.py:738-775)."""
    from data_linter_ray.log_explorer import summary_of_all_tables

    config = load_and_validate_config(config)
    summary = summary_of_all_tables(config)
    fs.delete_dir(_temp_configs_root(config))
    return summary
