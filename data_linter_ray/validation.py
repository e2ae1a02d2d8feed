"""Drop-in compatibility module mirroring the reference's
``data_linter.validation`` import surface
(``/root/reference/data_linter/validation.py``): users switching engines
can keep ``from data_linter.validation import run_validation, ...`` as
``from data_linter_ray.validation import ...``.

All names delegate to the Ray-native implementations."""

from __future__ import annotations

from data_linter_ray.config import load_and_validate_config  # noqa: F401
from data_linter_ray.pipelines.parallel import (  # noqa: F401
    para_collect_all_logs,
    para_collect_all_status,
    para_run_init,
    para_run_validation,
)
from data_linter_ray.pipelines.run import (  # noqa: F401
    RunResult,
    collect_phase,
    run_validation,
    validate_phase,
)
from data_linter_ray.validators import get_validator  # noqa: F401


def match_files_in_land_to_config(config) -> dict:
    """Reference-named matcher (validation.py:147-209): takes a config
    (dict/path/RunConfig), returns {table: [matched files]}."""
    from data_linter_ray.pipelines.run import list_land_files, match_files_to_tables

    config = load_and_validate_config(config)
    return match_files_to_tables(list_land_files(config.land_base_path), config)


def validate_data(config, *, resume: bool = False) -> None:
    """Reference-named validate phase (validation.py:390-447): validates
    all matched units into the status area without routing."""
    from data_linter_ray.pipelines.run import open_status_store

    config = load_and_validate_config(config)
    store = open_status_store(config)
    if not resume:
        store.clear()
    matched = match_files_in_land_to_config(config)
    validate_phase(config, store, matched, resume=resume)


def collect_all_status(config, *, raise_on_failure: bool | None = None) -> RunResult:
    """Reference-named collect phase (validation.py:498-649)."""
    from data_linter_ray.pipelines.run import open_status_store

    config = load_and_validate_config(config)
    return collect_phase(
        config, open_status_store(config), raise_on_failure=raise_on_failure
    )
