"""Table schema + per-column constraint model.

Semantics derived from the reference metadata model
(``/root/reference/data_linter/validators/pandas_validator.py:159-201`` —
the constraint-key dispatch — and the mojap-metadata column shape used in
``tests/data/end_to_end1/meta_data/table1.json``).  This is NOT a port: the
model here is a plain dataclass pair that compiles to a
``pyarrow.Schema`` + a static list of (column, test, params) check tasks
baked into the Ray batch-checker.

Extensions beyond the reference (north-rule additions):
  - ``unique``      — column values must be globally unique (shuffle check)
  - ``references``  — "table.column" referential-integrity target
  - ``drift``       — distribution-drift sketch config for this column
  - span constraints for ``list<struct>`` columns (see stages/spans.py)
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Optional

import pyarrow as pa

# mojap-style type-name → arrow type. Flat relational types only, matching
# the reference corpus (SURVEY.md §1.2), plus the nested spans type we add.
_TYPE_MAP = {
    "int8": pa.int8(),
    "int16": pa.int16(),
    "int32": pa.int32(),
    "int64": pa.int64(),
    "uint8": pa.uint8(),
    "uint16": pa.uint16(),
    "uint32": pa.uint32(),
    "uint64": pa.uint64(),
    "float16": pa.float16(),
    "float32": pa.float32(),
    "float64": pa.float64(),
    "double": pa.float64(),
    "bool": pa.bool_(),
    "bool_": pa.bool_(),
    "boolean": pa.bool_(),
    "string": pa.string(),
    "str": pa.string(),
    "utf8": pa.string(),
    "large_string": pa.large_string(),
    "binary": pa.binary(),
    "date32": pa.date32(),
    "date64": pa.date64(),
    "timestamp(s)": pa.timestamp("s"),
    "timestamp(ms)": pa.timestamp("ms"),
    "timestamp(us)": pa.timestamp("us"),
    "timestamp(ns)": pa.timestamp("ns"),
}

SPAN_STRUCT = pa.struct(
    [
        ("kind", pa.string()),
        ("text", pa.string()),
        ("media_ref", pa.string()),
        ("offset", pa.int32()),
    ]
)
SPANS_TYPE = pa.list_(SPAN_STRUCT)
#: the type names of a span column
SPAN_TYPE_NAMES = ("spans", "list<span>")


def arrow_type_for(type_name: str) -> pa.DataType:
    """Map a mojap/arrow-style type name to a pyarrow DataType."""
    if type_name in _TYPE_MAP:
        return _TYPE_MAP[type_name]
    if type_name.startswith("decimal128"):
        # "decimal128(p,s)"
        inner = type_name[type_name.index("(") + 1 : type_name.rindex(")")]
        p, s = (int(x) for x in inner.split(","))
        return pa.decimal128(p, s)
    if type_name in SPAN_TYPE_NAMES:
        return SPANS_TYPE
    raise ValueError(f"unsupported type name: {type_name!r}")


@dataclass
class ColumnSpec:
    """One column's type + constraints.

    Key set mirrors the reference's meta-column keys
    (minimum/maximum/minLength/maxLength/pattern/enum/nullable/
    datetime_format — ``pandas_validator.py:159-201``) with pythonic
    aliases, plus the extension keys.
    """

    name: str
    type: str = "string"
    # None = "not specified" which the reference treats as nullable=True for
    # the enum test and as "skip the nullable test" for the nullable test.
    nullable: Optional[bool] = None
    minimum: Any = None
    maximum: Any = None
    min_length: Optional[int] = None
    max_length: Optional[int] = None
    pattern: Optional[str] = None
    enum: Optional[list] = None
    datetime_format: Optional[str] = None
    description: Optional[str] = None
    # --- extensions (north rule) ---
    unique: bool = False
    references: Optional[str] = None  # "table.column"
    drift: Optional[dict] = None  # e.g. {"metric": "quantile_shift", "threshold": 0.1}
    span_constraints: Optional[dict] = None  # for list<struct> spans columns

    @property
    def arrow_type(self) -> pa.DataType:
        return arrow_type_for(self.type)

    @classmethod
    def from_dict(cls, d: dict) -> "ColumnSpec":
        """Accepts mojap-style keys (minLength/maxLength) and ours."""
        d = dict(d)
        d.pop("type_category", None)
        if "minLength" in d:
            d["min_length"] = d.pop("minLength")
        if "maxLength" in d:
            d["max_length"] = d.pop("maxLength")
        known = set(cls.__dataclass_fields__)
        extra = {k: v for k, v in d.items() if k not in known}
        base = {k: v for k, v in d.items() if k in known}
        spec = cls(**base)
        if extra:
            spec.description = (spec.description or "") + (
                " [ignored keys: %s]" % sorted(extra) if extra else ""
            )
        return spec

    def to_dict(self) -> dict:
        out: dict = {"name": self.name, "type": self.type}
        for k in (
            "nullable",
            "minimum",
            "maximum",
            "pattern",
            "enum",
            "datetime_format",
            "unique",
            "references",
            "drift",
            "span_constraints",
        ):
            # compare with the field default, not falsiness: minimum=0,
            # maximum=0 and nullable=False are real checks
            v = getattr(self, k)
            if v != self.__dataclass_fields__[k].default:
                out[k] = v
        if self.min_length is not None:
            out["minLength"] = self.min_length
        if self.max_length is not None:
            out["maxLength"] = self.max_length
        return out


@dataclass
class TableSchema:
    """A named table schema: ordered columns + their constraints."""

    name: str
    columns: list[ColumnSpec] = field(default_factory=list)
    file_format: str = "parquet"

    @property
    def column_names(self) -> list[str]:
        return [c.name for c in self.columns]

    def column(self, name: str) -> ColumnSpec:
        for c in self.columns:
            if c.name == name:
                return c
        raise KeyError(name)

    def arrow_schema(self) -> pa.Schema:
        return pa.schema([pa.field(c.name, c.arrow_type, nullable=c.nullable is not False) for c in self.columns])

    @classmethod
    def from_dict(cls, d: dict) -> "TableSchema":
        return cls(
            name=d.get("name", "table"),
            columns=[ColumnSpec.from_dict(c) for c in d.get("columns", [])],
            file_format=d.get("file_format", "parquet"),
        )

    @classmethod
    def from_json(cls, path: str) -> "TableSchema":
        from data_linter_ray import fs

        return cls.from_dict(json.loads(fs.read_text(path)))

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "file_format": self.file_format,
            "columns": [c.to_dict() for c in self.columns],
        }

    def lowercase_names(self) -> "TableSchema":
        """headers-ignore-case support (reference pandas_validator.py:430-434)."""
        cols = []
        for c in self.columns:
            c2 = ColumnSpec(**{**c.__dict__})
            c2.name = c.name.lower()
            cols.append(c2)
        return TableSchema(name=self.name, columns=cols, file_format=self.file_format)
