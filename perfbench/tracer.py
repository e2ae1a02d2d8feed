"""Outside-in layer tracing for the benchmark.

The tracer wraps module attributes of ``data_linter_ray`` (and a few
``ray.data.Dataset`` methods) from the benchmark's own files, so the
package itself carries no tracing code. Every wrapped call records one
span: name, start, end, parent span and the id of the job it ran in.
Spans stay in memory and are written out once, when the run ends.

Only calls made on the driver's main thread are recorded; Ray Data's
executor threads and the worker processes run the original code.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    job: int | None
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start


def _materialize_attrs(mat) -> dict:
    return {"bytes": int(mat.size_bytes() or 0), "blocks": int(mat.num_blocks())}


def _validate_attrs(res) -> dict:
    return {"truncated": int(bool(getattr(res, "unique_report_truncated", False)))}


def _width_attrs(width) -> dict:
    return {"width": int(width)}


#: (module, attribute path, span name, result -> attrs). A module-level
#: function is wrapped where its CALLER looks it up: ``run.py`` and
#: ``validate.py`` import some names at module top, so those are wrapped
#: in the importing module's namespace.
TARGETS = [
    ("data_linter_ray.pipelines.run", "run_validation", "pipelines.run", None),
    ("data_linter_ray.pipelines.run", "load_and_validate_config", "config.load", None),
    ("data_linter_ray.pipelines.run", "list_land_files", "pipelines.run.list", None),
    ("data_linter_ray.pipelines.run", "match_files_to_tables", "pipelines.run.match", None),
    ("data_linter_ray.pipelines.run", "validate_phase", "pipelines.run.validate_phase", None),
    ("data_linter_ray.pipelines.run", "collect_phase", "pipelines.run.collect_phase", None),
    ("data_linter_ray.pipelines.run", "read_table_dataset", "sources.read_table_dataset", None),
    ("data_linter_ray.pipelines.run", "validate_dataset", "pipelines.validate", _validate_attrs),
    ("data_linter_ray.sources.readers", "read_table_dataset", "sources.read_table_dataset", None),
    ("data_linter_ray.pipelines.validate", "validate_dataset", "pipelines.validate", _validate_attrs),
    ("data_linter_ray.pipelines.validate", "compile_plan", "pipelines.validate.compile_plan", None),
    ("data_linter_ray.pipelines.validate", "_uniqueness_from_preagg", "pipelines.validate.exchange", None),
    ("data_linter_ray.pipelines.validate", "_fold_count_partials", "pipelines.validate.fold", None),
    ("data_linter_ray.pipelines.validate", "_collect_samples", "pipelines.validate.samples", None),
    ("data_linter_ray.pipelines.validate", "_build_response", "pipelines.validate.response", None),
    ("data_linter_ray.exchange", "exchange_width", "exchange.width", _width_attrs),
    ("data_linter_ray.stages.sketch_stage", "drift_check", "stages.sketch_stage.drift_check", None),
    ("data_linter_ray.stages.sketch_stage", "load_baselines", "stages.sketch_stage.load_baselines", None),
    ("data_linter_ray.stages.referential", "distinct_key_set", "stages.referential.distinct_key_set", None),
    ("data_linter_ray.fs", "write_parquet_uri", "fs.write_parquet_uri", None),
    ("data_linter_ray.fs", "copy_file", "fs.copy_file", None),
    ("data_linter_ray.fs", "delete_file", "fs.delete_file", None),
    ("data_linter_ray.fs", "write_text", "fs.write_text", None),
    ("data_linter_ray.state.manifest", "ManifestStore.commit", "state.manifest.commit", None),
    ("data_linter_ray.state.manifest", "ManifestStore.all", "state.manifest.all", None),
    ("data_linter_ray.runlog", "upload_log", "runlog.upload_log", None),
    ("ray.data", "Dataset.schema", "ray.data.schema", None),
    ("ray.data", "Dataset.materialize", "ray.data.materialize", _materialize_attrs),
]


class Tracer:
    """Records spans around the wrapped attributes while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._job: int | None = None
        self._saved: list[tuple[object, str, object]] = []
        self._main = threading.main_thread()

    # -- wrapping ---------------------------------------------------------
    def install(self) -> None:
        for modname, path, name, attrs in TARGETS:
            owner = importlib.import_module(modname)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            orig = vars(owner)[attr]
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, self._wrap(orig, name, attrs))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()

    def _wrap(self, fn, name, attrs):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if threading.current_thread() is not tracer._main:
                return fn(*args, **kwargs)
            with tracer.span(name) as sp:
                out = fn(*args, **kwargs)
            if attrs is not None:
                sp.attrs.update(attrs(out))
            return out

        return wrapper

    # -- spans ------------------------------------------------------------
    def span(self, name: str):
        return _SpanCtx(self, name)

    def job(self, job_id: int):
        """Root span of one job; spans inside it share ``job_id``."""
        self._job = job_id
        return _SpanCtx(self, "job", on_exit=lambda: setattr(self, "_job", None))

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump(
                [
                    {"id": s.id, "name": s.name, "start": s.start, "end": s.end,
                     "parent": s.parent, "job": s.job, **s.attrs}
                    for s in self.spans
                ],
                f,
            )


class _SpanCtx:
    def __init__(self, tracer: Tracer, name: str, on_exit=None):
        self.tracer, self.name, self.on_exit = tracer, name, on_exit

    def __enter__(self) -> Span:
        t = self.tracer
        parent = t._stack[-1].id if t._stack else None
        self.sp = Span(len(t.spans), self.name, parent, t._job, time.perf_counter())
        t.spans.append(self.sp)
        t._stack.append(self.sp)
        return self.sp

    def __exit__(self, *exc) -> None:
        self.sp.end = time.perf_counter()
        self.tracer._stack.pop()
        if self.on_exit:
            self.on_exit()


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> its duration minus the part its children cover. Children
    of one span run one after another on the main thread, so they never
    overlap and their durations add."""
    covered: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            covered[s.parent] = covered.get(s.parent, 0.0) + s.dur
    return {s.id: s.dur - covered.get(s.id, 0.0) for s in spans}


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer numbers of ONE job's spans (the per_layer metric names
    without the kernel, scan and overhead entries)."""
    by_id = {s.id: s for s in spans}
    selfs = self_times(spans)

    def parent_name(s: Span):
        return by_id[s.parent].name if s.parent in by_id else None

    def total(name: str, under: str | None = None) -> float:
        return sum(
            s.dur for s in spans
            if s.name == name and (under is None or parent_name(s) == under)
        )

    def calls(name: str) -> int:
        return sum(1 for s in spans if s.name == name)

    fused = [s for s in spans if s.name == "ray.data.materialize"
             and parent_name(s) == "pipelines.validate"]
    validates = [s for s in spans if s.name == "pipelines.validate"]
    widths = [s.attrs["width"] for s in spans if s.name == "exchange.width"]
    job_dur = sum(s.dur for s in spans if s.name == "job")
    v_self = sum(selfs[s.id] for s in validates)
    out = {
        "sources.read_table_dataset_s": total("sources.read_table_dataset"),
        "sources.read_table_dataset.calls": calls("sources.read_table_dataset"),
        "pipelines.validate.plan_s": total("ray.data.schema", "pipelines.validate")
        + total("pipelines.validate.compile_plan"),
        "pipelines.validate.fused_pass_s": sum(s.dur for s in fused),
        "pipelines.validate.stream_bytes": sum(s.attrs.get("bytes", 0) for s in fused),
        "pipelines.validate.stream_blocks": sum(s.attrs.get("blocks", 0) for s in fused),
        "pipelines.validate.exchange_s": total("pipelines.validate.exchange"),
        "pipelines.validate.exchange.width": max(widths, default=0),
        "pipelines.validate.unique_report_truncated": sum(
            s.attrs.get("truncated", 0) for s in validates
        ),
        "pipelines.validate.fold_s": total("pipelines.validate.fold"),
        "pipelines.validate.samples_s": total("pipelines.validate.samples"),
        "pipelines.validate.response_s": total("pipelines.validate.response"),
        "pipelines.validate.self_s": v_self,
        "pipelines.validate.self_share": v_self / job_dur if job_dur else 0.0,
        "stages.sketch_stage.drift_check_s": total("stages.sketch_stage.drift_check"),
        "stages.referential.distinct_key_set_s": total("stages.referential.distinct_key_set"),
    }
    for name in RUN_LAYERS:
        out[f"{name}_s"] = total(name)
        out[f"{name}.calls"] = calls(name)
    return out


#: layers of the config-driven lifecycle, each reported as time + calls
RUN_LAYERS = ("config.load", "pipelines.run.match", "pipelines.run.collect_phase",
              "fs.write_parquet_uri", "fs.copy_file", "state.manifest.commit",
              "runlog.upload_log")


def self_time_by_layer(spans: list[Span]) -> dict[str, float]:
    """Span name -> summed self time, over all the given spans."""
    selfs = self_times(spans)
    out: dict[str, float] = {}
    for s in spans:
        out[s.name] = out.get(s.name, 0.0) + selfs[s.id]
    return out
