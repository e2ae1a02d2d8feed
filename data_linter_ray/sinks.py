"""Training-export sinks.

LLM pipelines consume newline-delimited JSON shards (one object per
document) far more often than parquet; this module provides a
distributed, resumable JSONL shard writer over the same URI filesystem
layer as the parquet sink (``fs.py`` — every destination may be local
or ``s3://``).

Layout: ``{root}/shard-{task:06d}-{block:04d}-{chunk:04d}.jsonl[.gz]``
— one object per ≤ ``rows_per_shard`` rows, written atomically
(local: tmp+rename via ``fs.write_bytes``; S3: single boto3-style PUT
through the same helper), idempotent on Ray task retry (same task →
same names → overwrite, never duplicate).

Reference provenance: extends the reference's per-table JSON log sink
(utils.py:86-90, validation.py:624-633) to a first-class data export.
"""

from __future__ import annotations

import gzip as _gzip

import pyarrow as pa
from ray.data import Dataset, Datasink

from data_linter_ray import fs


class JsonlShardSink(Datasink):
    """Ray Datasink: size-bounded JSONL shards via the URI fs layer.

    Serialization is pandas ``to_json(orient="records", lines=True)`` —
    C-speed, one call per chunk, no per-row Python."""

    def __init__(
        self,
        root: str,
        rows_per_shard: int = 100_000,
        compress: bool = False,
    ):
        if rows_per_shard < 1:
            raise ValueError("rows_per_shard must be >= 1")
        self.root = root.rstrip("/")
        self.rows = int(rows_per_shard)
        self.compress = bool(compress)
        # S3 endpoint/credentials are captured on the DRIVER at
        # construction: worker processes may predate the env vars that
        # select a moto / S3-compatible endpoint
        self.is_s3 = fs.is_s3(self.root)
        self.s3_kwargs = fs.s3_client_kwargs() if self.is_s3 else {}
        self._client = None

    def _put(self, path: str, payload: bytes) -> None:
        if not self.is_s3:
            fs.write_bytes(path, payload)
            return
        if self._client is None:
            import boto3

            self._client = boto3.client("s3", **self.s3_kwargs)
        bucket, key = fs._bucket_key(path)
        self._client.put_object(Bucket=bucket, Key=key, Body=payload)

    def write(self, blocks, ctx) -> int:
        n = 0
        ext = ".jsonl.gz" if self.compress else ".jsonl"
        for i, block in enumerate(blocks):
            tbl = (
                block if isinstance(block, pa.Table) else pa.Table.from_pandas(block)
            )
            for j, start in enumerate(range(0, max(tbl.num_rows, 1), self.rows)):
                chunk = tbl.slice(start, self.rows)
                if chunk.num_rows == 0:
                    continue
                payload = (
                    chunk.to_pandas()
                    .to_json(orient="records", lines=True, force_ascii=False)
                    .encode("utf-8")
                )
                if self.compress:
                    payload = _gzip.compress(payload, mtime=0)  # deterministic
                self._put(
                    f"{self.root}/shard-{ctx.task_idx:06d}-{i:04d}-{j:04d}{ext}",
                    payload,
                )
                n += chunk.num_rows
        return n

    def get_name(self) -> str:
        return "JsonlShard"

    @property
    def supports_distributed_writes(self) -> bool:
        return True


def write_jsonl_shards(
    ds: Dataset,
    path: str,
    rows_per_shard: int = 100_000,
    compress: bool = False,
) -> None:
    """Sink a Dataset as size-bounded JSONL shards at a local path or S3
    URI (the training-export format). Distributed, streaming, atomic
    per shard, idempotent on retry."""
    ds.write_datasink(
        JsonlShardSink(path, rows_per_shard=rows_per_shard, compress=compress)
    )
