"""URI-dispatching filesystem layer for the run lifecycle.

The reference is S3-first everywhere: land listing
(``/root/reference/data_linter/validation.py:154-157``), file movement in
any local/S3 combination (``data_linter/utils.py:28-59,133-150``), status
files and logs on S3, exercised by a 16-way local/S3 path matrix
(``tests/test_end_to_end_run.py:82-119``). This module re-creates that
capability on ``pyarrow.fs`` so every base path in a run config —
land / pass / fail / log — may independently be a local path or an
``s3://`` URI.

Split transport, by design:

* **Reads and listings** go through ``pyarrow.fs`` (zero-copy into Arrow,
  and the same filesystem objects are handed to Ray Data readers so scan
  tasks on remote workers carry the endpoint configuration with them —
  pyarrow filesystems serialize their options).
* **Writes** go through boto3 ``put_object`` — one atomic PUT per
  artifact. Lifecycle artifacts (manifests, logs, copied data files) are
  small, and a single PUT is atomic on S3 where pyarrow's multipart
  upload is not (and is incompatible with the moto test server). Bulk
  distributed parquet output (``write_parquet_uri``) is one plain Ray
  task per object-store block, which serializes the block and PUTs one
  object per part file, so no second Ray Data execution starts for a
  materialized Dataset, and a failed task re-run overwrites its own
  objects idempotently.

Endpoint override (for the moto-backed tests, or any S3-compatible
store): set ``DATA_LINTER_RAY_S3_ENDPOINT`` (fallback
``AWS_ENDPOINT_URL``). The endpoint is resolved on the driver and
embedded in the serialized filesystem objects and write-task arguments,
so Ray workers do not need the environment variable.
"""

from __future__ import annotations

import gzip
import io
import os
import tempfile
from typing import Optional

import ray

_S3_ENDPOINT_ENVS = ("DATA_LINTER_RAY_S3_ENDPOINT", "AWS_ENDPOINT_URL")


def s3_endpoint() -> Optional[str]:
    for k in _S3_ENDPOINT_ENVS:
        v = os.environ.get(k)
        if v:
            return v
    return None


def is_uri(path: str) -> bool:
    return "://" in path


def is_s3(path: str) -> bool:
    return path.startswith("s3://")


def join(base: str, *parts: str) -> str:
    """Path join that keeps URI schemes intact (always '/'-separated)."""
    out = base.rstrip("/")
    for p in parts:
        out += "/" + str(p).strip("/")
    return out


def _s3_filesystem():
    from pyarrow import fs as pafs

    kwargs: dict = {}
    ep = s3_endpoint()
    if ep:
        kwargs.update(
            endpoint_override=ep,
            access_key=os.environ.get("AWS_ACCESS_KEY_ID", "test"),
            secret_key=os.environ.get("AWS_SECRET_ACCESS_KEY", "test"),
            region=os.environ.get("AWS_DEFAULT_REGION", "us-east-1"),
            allow_bucket_creation=True,
            allow_bucket_deletion=True,
        )
    return pafs.S3FileSystem(**kwargs)


def resolve(path: str):
    """path → (pyarrow FileSystem, fs-relative path). Local paths map to
    LocalFileSystem; ``s3://`` gets the (possibly endpoint-overridden)
    S3FileSystem; other URI schemes go through FileSystem.from_uri."""
    from pyarrow import fs as pafs

    if is_s3(path):
        return _s3_filesystem(), path[len("s3://"):]
    if is_uri(path):
        return pafs.FileSystem.from_uri(path)
    return pafs.LocalFileSystem(), path


def _boto_client():
    import boto3

    return boto3.client(
        "s3",
        endpoint_url=s3_endpoint(),
        region_name=os.environ.get("AWS_DEFAULT_REGION", "us-east-1"),
    )


def _bucket_key(path: str) -> tuple[str, str]:
    rest = path[len("s3://"):]
    bucket, _, key = rest.partition("/")
    return bucket, key


def list_files(
    base: str,
    *,
    exclude_hidden: bool = True,
    exclude_zero_byte: bool = True,
) -> list[str]:
    """Recursive file listing under ``base`` with the reference land-folder
    exclusions (dotfiles, zero-byte files —
    ``utils.get_filepaths_from_local_folder``, utils.py:153-177; S3 branch
    ``validation.py:154-157``). Returns full paths (scheme preserved)."""
    from pyarrow import fs as pafs

    filesystem, rel = resolve(base)
    prefix = "s3://" if is_s3(base) else ""
    try:
        infos = filesystem.get_file_info(
            pafs.FileSelector(rel.rstrip("/"), recursive=True)
        )
    except (FileNotFoundError, OSError):
        return []
    out = []
    for info in infos:
        if info.type != pafs.FileType.File:
            continue
        name = info.path.rsplit("/", 1)[-1]
        if exclude_hidden and name.startswith("."):
            continue
        if exclude_zero_byte and not info.size:
            continue
        out.append(prefix + info.path)
    return sorted(out)


def exists(path: str) -> bool:
    from pyarrow import fs as pafs

    filesystem, rel = resolve(path)
    return filesystem.get_file_info(rel).type != pafs.FileType.NotFound


def size(path: str) -> int:
    """File size in bytes (local stat or S3 HEAD — the reference sizes
    land files via S3 HEAD ContentLength for bin-packing,
    utils.py:233-265)."""
    filesystem, rel = resolve(path)
    return filesystem.get_file_info(rel).size or 0


def delete_dir(path: str) -> None:
    """Recursively delete a directory / object prefix (no-op if absent)."""
    filesystem, rel = resolve(path)
    try:
        filesystem.delete_dir(rel.rstrip("/"))
    except (FileNotFoundError, OSError):
        pass


def mtime(path: str) -> float:
    """Modification time as epoch seconds (works on local and S3)."""
    filesystem, rel = resolve(path)
    info = filesystem.get_file_info(rel)
    return info.mtime.timestamp() if info.mtime else 0.0


def makedirs(path: str) -> None:
    """Create parent directories for local paths; no-op on object stores
    (S3 has no directories)."""
    if not is_uri(path):
        os.makedirs(path, exist_ok=True)


def open_input_stream(path: str):
    """Raw byte stream — compression='detect' is explicitly disabled so
    .gz artifacts copy byte-faithfully."""
    filesystem, rel = resolve(path)
    return filesystem.open_input_stream(rel, compression=None)


def read_bytes(path: str) -> bytes:
    with open_input_stream(path) as f:
        return f.read()


def read_text(path: str) -> str:
    return read_bytes(path).decode("utf-8")


def _check_writable_scheme(path: str) -> None:
    """Write-side schemes are local or s3:// only — any other URI
    (gs://, file://, …) must fail loudly instead of silently writing a
    literal ``./gs:/…`` local directory tree."""
    if is_uri(path) and not is_s3(path):
        raise NotImplementedError(
            f"unsupported URI scheme for writes: {path!r} (only local paths "
            "and s3:// are supported)"
        )


def write_bytes(path: str, data: bytes) -> None:
    """Atomic single-object write: temp+rename locally, one PUT on S3."""
    _check_writable_scheme(path)
    if is_s3(path):
        bucket, key = _bucket_key(path)
        _boto_client().put_object(Bucket=bucket, Key=key, Body=data)
        return
    d = os.path.dirname(path)
    if d:
        os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d or ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def write_text(path: str, text: str) -> None:
    write_bytes(path, text.encode("utf-8"))


def delete_file(path: str, missing_ok: bool = True) -> None:
    filesystem, rel = resolve(path)
    try:
        filesystem.delete_file(rel)
    except (FileNotFoundError, OSError):
        if not missing_ok:
            raise


def copy_file(src: str, dst: str, *, compress: bool = False) -> str:
    """Copy ``src`` to the exact ``dst`` path, optionally gzip-compressing,
    across any local/S3 combination (reference ``copy_data`` /
    ``compress_data``, utils.py:28-59,133-150). Streams through a bounded
    buffer; S3 destinations use boto3 ``upload_fileobj`` (multipart for
    large files, atomic completion)."""
    _check_writable_scheme(dst)
    if compress and not dst.endswith(".gz"):
        dst += ".gz"

    src_stream = open_input_stream(src)
    try:
        if compress:
            # gzip into a spooled buffer (data files in the movement path
            # are single land files; spools to disk past 64 MiB)
            buf = tempfile.SpooledTemporaryFile(max_size=64 * 1024 * 1024)
            with gzip.GzipFile(fileobj=buf, mode="wb") as gz:
                while True:
                    chunk = src_stream.read(1 << 20)
                    if not chunk:
                        break
                    gz.write(chunk)
            buf.seek(0)
            reader = buf
        else:
            reader = src_stream

        if is_s3(dst):
            bucket, key = _bucket_key(dst)
            _boto_client().upload_fileobj(reader, bucket, key)
        else:
            makedirs(os.path.dirname(dst))
            with open(dst, "wb") as f:
                while True:
                    chunk = reader.read(1 << 20)
                    if not chunk:
                        break
                    f.write(chunk)
    finally:
        src_stream.close()
    return dst


def listdir(path: str) -> list[str]:
    """Non-recursive file listing (names only, sorted)."""
    from pyarrow import fs as pafs

    filesystem, rel = resolve(path)
    try:
        infos = filesystem.get_file_info(
            pafs.FileSelector(rel.rstrip("/"), recursive=False)
        )
    except (FileNotFoundError, OSError):
        return []
    return sorted(
        i.path.rsplit("/", 1)[-1] for i in infos if i.type == pafs.FileType.File
    )


def s3_client_kwargs() -> dict:
    """boto3 client arguments resolved on the driver, for worker tasks.
    With an endpoint override (moto / S3-compatible store) the driver's
    env credentials ride along, since worker processes may predate the
    env vars; with real S3 each worker uses its own default chain
    (instance role)."""
    kw = {
        "endpoint_url": s3_endpoint(),
        "region_name": os.environ.get("AWS_DEFAULT_REGION", "us-east-1"),
    }
    if kw["endpoint_url"]:
        kw["aws_access_key_id"] = os.environ.get("AWS_ACCESS_KEY_ID", "test")
        kw["aws_secret_access_key"] = os.environ.get("AWS_SECRET_ACCESS_KEY", "test")
    return kw


def _write_parquet_block(root, partition_col, prepare, s3_kwargs, idx, block) -> None:
    """Ray task: write one block as ``part-{idx}.parquet`` under ``root``
    — under ``{root}/{value}/`` per value of ``partition_col``, that
    column dropped — after ``prepare``."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    tbl = block if isinstance(block, pa.Table) else pa.Table.from_pandas(block)
    # an empty block may carry any schema: Ray Data passes empty blocks
    # through map_batches without calling the UDF
    if tbl.num_rows and prepare is not None:
        tbl = prepare(tbl)
    if not tbl.num_rows:
        return
    parts = [(root, tbl)]
    if partition_col is not None:
        col = tbl[partition_col]
        parts = [
            (join(root, str(v)), tbl.filter(pc.equal(col, v)).drop_columns([partition_col]))
            for v in pc.unique(col).to_pylist()
        ]
    client = None
    for d, part in parts:
        sink = io.BytesIO()
        pq.write_table(part, sink)
        dst = f"{d}/part-{idx:06d}.parquet"
        if not is_s3(dst):
            write_bytes(dst, sink.getvalue())
            continue
        if client is None:
            import boto3

            client = boto3.client("s3", **s3_kwargs)
        bucket, key = _bucket_key(dst)
        client.put_object(Bucket=bucket, Key=key, Body=sink.getvalue())


_write_block_task = ray.remote(_write_parquet_block)


def write_parquet_uri(
    datasets, path: str, partition_col: Optional[str] = None, prepare=None
) -> None:
    """Write a Dataset, or a list of them, as parquet files under a local
    path or S3 URI: one Ray task per block, ``prepare(table) -> table``
    applied in the task, and one ``part-{block}.parquet`` per block (and,
    with ``partition_col``, per value of it: each row goes under
    ``{path}/{its value}/`` without that column).

    A materialized Dataset's blocks are written where they are, with no
    Ray Data execution; a lazy one is materialized first. Each object
    holds at most one block (~128 MB target), under the 5 GB single-PUT
    limit, and a retried task rewrites its own objects."""
    from ray.data import Dataset

    from data_linter_ray.exchange import block_refs

    _check_writable_scheme(path)
    blocks = []
    for ds in [datasets] if isinstance(datasets, Dataset) else datasets:
        if type(ds).__name__ != "MaterializedDataset":
            ds = ds.materialize()
        blocks += block_refs(ds)
    args = (path.rstrip("/"), partition_col, prepare, s3_client_kwargs())
    ray.get([_write_block_task.remote(*args, i, b) for i, b in enumerate(blocks)])
