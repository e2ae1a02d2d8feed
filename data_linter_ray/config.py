"""Run-config model.

Same logical surface as the reference's YAML config
(``/root/reference/data_linter/validation.py:64-144``, JSON-Schema at
``data_linter/schemas/config-schema.json``): land/pass/fail/log base
paths, movement policy flags, and a ``tables`` map. Re-created as a
dataclass with the reference's underscore→dash key normalization
(``validation.py:80-120``) and its validation rules (required keys, known
engines) — no jsonschema dependency needed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

_TOP_LEVEL_KEYS = {
    "land-base-path",
    "fail-base-path",
    "pass-base-path",
    "log-base-path",
    "compress-data",
    "remove-tables-on-pass",
    "all-must-pass",
    "fail-unknown-files",
    "fail-no-files",
    "validator-engine",
    "validator-engine-params",
    "timestamp-partition-name",
    "tables",
}

_TABLE_KEYS = {
    "required",
    "pattern",
    "metadata",
    "expect-header",
    "headers-ignore-case",
    "row-limit",
    "allow-missing-cols",
    "allow-unexpected-data",
    "id-column",
    "pandas-kwargs",
    "log-verbosity",
    "ref-tables",
    "only-test-cols-in-metadata",
    "drift-baseline",
    "drift-threshold",
    "profile",
}


#: run-level validator kwargs applied to every table as defaults
#: (reference passes ``validator-engine-params`` to each validator
#: constructor — validation.py:391-393, :418-420)
_ENGINE_PARAM_KEYS = {
    "log-verbosity",
    "row-limit",
    "row-sample",
    "sample-seed",
}


class ConfigError(ValueError):
    pass


def _dashify(d: dict, known: set[str]) -> dict:
    """underscore→dash on known keys (reference
    ``_read_and_replace_config_underscores``, validation.py:80-120)."""
    out = {}
    for k, v in d.items():
        dk = k.replace("_", "-")
        out[dk if dk in known else k] = v
    return out


@dataclass
class TableConfig:
    name: str
    metadata: str | dict | None = None  # path to schema JSON or inline dict
    required: bool = True
    pattern: Optional[str] = None
    expect_header: bool = True
    headers_ignore_case: bool = False
    row_limit: Optional[int] = None
    allow_missing_cols: bool = False
    allow_unexpected_data: bool = False
    id_column: Optional[str] = None
    pandas_kwargs: dict = field(default_factory=dict)
    log_verbosity: Optional[int] = None
    ref_tables: dict = field(default_factory=dict)  # "table.column" -> path
    drift_baseline: Optional[str] = None  # path to saved sketch baselines
    drift_threshold: float = 0.1
    profile: bool = False  # write a column-stats profile JSON per unit

    def table_params(self) -> dict:
        return {
            "expect-header": self.expect_header,
            "headers-ignore-case": self.headers_ignore_case,
            "pandas-kwargs": self.pandas_kwargs,
        }

    @classmethod
    def from_dict(cls, name: str, d: dict) -> "TableConfig":
        d = _dashify(d or {}, _TABLE_KEYS)
        unknown = set(d) - _TABLE_KEYS
        if unknown:
            raise ConfigError(f"table {name}: unknown keys {sorted(unknown)}")
        # reference forces expect-header when headers-ignore-case is set
        # (_validate_and_clean_config, validation.py:123-144)
        if d.get("headers-ignore-case") and not d.get("expect-header", True):
            d["expect-header"] = True
        return cls(
            name=name,
            metadata=d.get("metadata"),
            required=d.get("required", True),
            pattern=d.get("pattern"),
            expect_header=d.get("expect-header", True),
            headers_ignore_case=d.get("headers-ignore-case", False),
            row_limit=d.get("row-limit"),
            allow_missing_cols=d.get("allow-missing-cols", False),
            allow_unexpected_data=d.get("allow-unexpected-data", False),
            id_column=d.get("id-column"),
            pandas_kwargs=d.get("pandas-kwargs", {}) or {},
            log_verbosity=d.get("log-verbosity"),
            ref_tables=d.get("ref-tables", {}) or {},
            drift_baseline=d.get("drift-baseline"),
            drift_threshold=d.get("drift-threshold", 0.1),
            profile=d.get("profile", False),
        )


@dataclass
class RunConfig:
    land_base_path: str
    fail_base_path: str
    pass_base_path: str
    log_base_path: str
    tables: dict[str, TableConfig]
    all_must_pass: bool = False
    remove_tables_on_pass: bool = True
    compress_data: bool = False
    fail_unknown_files: dict = field(default_factory=dict)
    fail_no_files: bool = False
    validator_engine: str = "ray"
    validator_engine_params: dict = field(default_factory=dict)
    timestamp_partition_name: Optional[str] = None

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        d = _dashify(d, _TOP_LEVEL_KEYS)
        if isinstance(d.get("tables"), dict):
            d = {
                **d,
                "tables": {
                    name: _dashify(td or {}, _TABLE_KEYS)
                    for name, td in d["tables"].items()
                },
            }
        from data_linter_ray.config_schema import validate_config_shape

        validate_config_shape(d)
        missing = [
            k
            for k in ("land-base-path", "fail-base-path", "log-base-path", "tables")
            if k not in d
        ]
        if missing:
            raise ConfigError(f"config missing required keys: {missing}")
        engine = d.get("validator-engine", "ray")
        # reference parity: the config schema ACCEPTS the
        # frictionless / great-expectations names (config-schema.json:36-49)
        # even though no such validator module ships — the failure there is
        # a missing-module KeyError at dispatch time (validation.py:58-61,
        # :418), mirrored by our get_validator registry raising the same
        # shape. Only genuinely unknown names fail config validation.
        if engine not in (
            "ray", "pandas", "parquet", "frictionless", "great-expectations"
        ):
            raise ConfigError(f"unknown validator-engine: {engine}")
        engine_params = _dashify(
            d.get("validator-engine-params", {}) or {}, _ENGINE_PARAM_KEYS
        )
        unknown_params = set(engine_params) - _ENGINE_PARAM_KEYS
        if unknown_params:
            raise ConfigError(
                f"unknown validator-engine-params keys: {sorted(unknown_params)}"
            )
        if engine_params.get("row-sample") not in (None, "head", "random"):
            raise ConfigError(
                "validator-engine-params.row-sample must be 'head' or 'random'"
            )
        if not isinstance(d["tables"], dict) or not d["tables"]:
            raise ConfigError("config.tables must be a non-empty mapping")
        return cls(
            land_base_path=d["land-base-path"],
            fail_base_path=d["fail-base-path"],
            pass_base_path=d.get("pass-base-path", d["fail-base-path"]),
            log_base_path=d["log-base-path"],
            tables={
                name: TableConfig.from_dict(name, td)
                for name, td in d["tables"].items()
            },
            all_must_pass=d.get("all-must-pass", False),
            remove_tables_on_pass=d.get("remove-tables-on-pass", True),
            compress_data=d.get("compress-data", False),
            fail_unknown_files=d.get("fail-unknown-files", {}) or {},
            fail_no_files=d.get("fail-no-files", False),
            validator_engine=engine,
            validator_engine_params=engine_params,
            timestamp_partition_name=d.get("timestamp-partition-name"),
        )

    @classmethod
    def from_yaml(cls, path: str) -> "RunConfig":
        import yaml

        from data_linter_ray import fs

        return cls.from_dict(yaml.safe_load(fs.read_text(path)))


def load_and_validate_config(source: str | dict | RunConfig) -> RunConfig:
    """YAML path or dict → validated RunConfig (reference
    ``load_and_validate_config``, validation.py:64-77). A RunConfig is
    returned unchanged."""
    if isinstance(source, RunConfig):
        return source
    if isinstance(source, dict):
        return RunConfig.from_dict(source)
    return RunConfig.from_yaml(source)
