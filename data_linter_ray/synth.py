"""Deterministic synthesizer for the north-rule interleaved-document table.

Shape per BASELINE.json ``input_hint`` / FIXTURES.md F1:

    doc_id : string            pattern ^doc-[0-9a-f]{12}$, unique, non-null
    spans  : list<struct<kind:string, text:string, media_ref:string,
                         offset:int32>>

Seeded violations (all keyed off the absolute row index, so any scale /
any partitioning regenerates identical data — no RNG state carried
between blocks):

  - ~1% duplicate doc_ids; half of the duplicates collide into one hot
    key prefix (``doc-000000...``) to exercise shuffle skew/salting
  - ~1% malformed doc_id
  - ~2% of rows with one bad span (bad kind, negative offset, or
    out-of-order offsets)
  - ~0.5% dangling media_refs (absent from the media catalog)

Generation itself is a Ray pipeline (``range(n) → map_batches``) so test
fixtures and 10^12-scale bench inputs use the same code path.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

from data_linter_ray.metadata import SPAN_STRUCT, SPANS_TYPE

KINDS = ["text", "image", "audio", "video"]
MEDIA_CATALOG_SIZE = 10_000
HOT_PREFIX = "doc-000000"

DOC_SCHEMA = pa.schema([("doc_id", pa.string()), ("spans", SPANS_TYPE)])


def _rng_for(indices: np.ndarray) -> np.ndarray:
    """Stable per-row uint64 mix of the absolute row index (splitmix64)."""
    z = indices.astype(np.uint64) + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def media_ref_for(i: int) -> str:
    return f"media://cat/{i % MEDIA_CATALOG_SIZE:08d}"


def make_documents_batch(batch: dict) -> pa.Table:
    """map_batches fn over ``ray.data.range(n)`` blocks (numpy format).

    Vectorized: spans are built as [n, 8] numpy/arrow planes masked to
    each row's span count; only the md5 doc-id digests remain per-row
    (no vectorized md5 exists). Output is byte-identical to the original
    row-wise generator (``_make_documents_batch_rowwise``, kept for the
    parity test)."""
    idx = np.asarray(batch["id"], dtype=np.int64)
    h = _rng_for(idx)
    n = len(idx)
    if n == 0:
        return DOC_SCHEMA.empty_table()
    import pyarrow.compute as pc

    # --- doc ids (md5 per row only where needed) ----------------------
    r = (h % np.uint64(10_000)).astype(np.int64)
    doc_ids = np.empty(n, dtype=object)
    hot = r < 50
    scattered = (r >= 50) & (r < 100)
    malformed = (r >= 100) & (r < 200)
    normal = r >= 200
    for j in np.flatnonzero(hot):
        doc_ids[j] = f"{HOT_PREFIX}{int(h[j]) % 4:02x}"
    for j in np.flatnonzero(scattered):
        src = max(int(idx[j]) - 1, 0)
        doc_ids[j] = "doc-" + hashlib.md5(str(src).encode()).hexdigest()[:12]
    for j in np.flatnonzero(malformed):
        doc_ids[j] = f"DOC_{int(idx[j])}"
    for j in np.flatnonzero(normal):
        doc_ids[j] = "doc-" + hashlib.md5(str(int(idx[j])).encode()).hexdigest()[:12]

    # --- spans: [n, 8] planes, masked to each row's span count --------
    S = 8
    n_spans = (1 + (h >> np.uint64(8)) % np.uint64(8)).astype(np.int64)
    bad = r >= 9800
    bad_mode = (h % np.uint64(3)).astype(np.int64)
    s_idx = np.arange(S, dtype=np.int64)
    valid = s_idx[None, :] < n_spans[:, None]  # [n, 8] row-major = flat order

    kv = np.empty((n, S), dtype=np.int64)
    incr = np.empty((n, S), dtype=np.int64)
    for s in range(S):
        kv[:, s] = ((h >> np.uint64(4 * s)) % np.uint64(4)).astype(np.int64)
        incr[:, s] = 10 + ((h >> np.uint64(3 * s)) % np.uint64(90)).astype(np.int64)
    offsets_plane = np.zeros((n, S), dtype=np.int64)
    offsets_plane[:, 1:] = np.cumsum(incr[:, :-1], axis=1)

    is_last_and_bad = bad[:, None] & (s_idx[None, :] == (n_spans - 1)[:, None])
    # bad_mode 1: negative offset; bad_mode 2 (s>0): out-of-order
    offsets_plane = np.where(
        is_last_and_bad & (bad_mode == 1)[:, None], -1, offsets_plane
    )
    offsets_plane = np.where(
        is_last_and_bad & (bad_mode == 2)[:, None] & (s_idx[None, :] > 0),
        offsets_plane - 7,
        offsets_plane,
    )

    mask = valid.ravel()
    kv_f = kv.ravel()[mask]
    off_f = offsets_plane.ravel()[mask]
    row_f = np.repeat(idx, S)[mask]
    h_f = np.repeat(h, S)[mask]
    s_f = np.tile(s_idx, n)[mask]
    bad_kind_f = (is_last_and_bad & (bad_mode == 0)[:, None]).ravel()[mask]

    kind_arr = pc.take(
        pa.array(KINDS + ["hologram"], type=pa.string()),
        pa.array(np.where(bad_kind_f, 4, kv_f)),
    )
    is_text = (kv_f == 0) & ~bad_kind_f

    # text: "para-{i}-{s}" for text spans, null otherwise (vectorized
    # string build via arrow join on cast ints)
    text_all = pc.binary_join_element_wise(
        pa.scalar("para-"),
        pc.cast(pa.array(row_f), pa.string()),
        pa.scalar("-"),
        pc.cast(pa.array(s_f), pa.string()),
        pa.scalar(""),
    )
    text_arr = pc.if_else(pa.array(is_text), text_all, pa.nulls(len(is_text), pa.string()))

    # media_ref: catalog or missing URI, zero-padded 8-digit id
    ref_i = ((h_f >> np.uint64(16)) + s_f.astype(np.uint64)).astype(np.uint64)
    cat_id = (ref_i % np.uint64(MEDIA_CATALOG_SIZE)).astype(np.int64)
    dangling = (h_f % np.uint64(10_000)) >= np.uint64(9950)
    pad_cat = pc.utf8_lpad(pc.cast(pa.array(cat_id), pa.string()), 8, "0")
    # missing refs render the RAW index (may exceed 8 digits — %08d pads
    # to AT LEAST 8), lpad only when shorter
    raw = pc.cast(pa.array(ref_i.astype(np.int64)), pa.string())
    pad_raw = pc.utf8_lpad(raw, 8, "0")
    ref_all = pc.if_else(
        pa.array(dangling),
        pc.binary_join_element_wise(pa.scalar("media://missing/"), pad_raw, pa.scalar("")),
        pc.binary_join_element_wise(pa.scalar("media://cat/"), pad_cat, pa.scalar("")),
    )
    ref_arr = pc.if_else(pa.array(is_text), pa.nulls(len(is_text), pa.string()), ref_all)

    struct_arr = pa.StructArray.from_arrays(
        [
            kind_arr.combine_chunks() if isinstance(kind_arr, pa.ChunkedArray) else kind_arr,
            text_arr,
            ref_arr,
            pa.array(off_f.astype(np.int32), type=pa.int32()),
        ],
        fields=list(SPAN_STRUCT),
    )
    list_offsets = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(n_spans, out=list_offsets[1:])
    spans = pa.ListArray.from_arrays(pa.array(list_offsets, type=pa.int32()), struct_arr)
    return pa.Table.from_arrays(
        [pa.array(doc_ids, type=pa.string()), spans], schema=DOC_SCHEMA
    )


def _make_documents_batch_rowwise(batch: dict) -> pa.Table:
    """Original row-wise generator — retained as the parity oracle for
    the vectorized ``make_documents_batch``."""
    idx = np.asarray(batch["id"], dtype=np.int64)
    h = _rng_for(idx)
    n = len(idx)

    # --- doc ids ------------------------------------------------------
    doc_ids = []
    for i, hv in zip(idx.tolist(), h.tolist()):
        r = hv % 10_000
        if r < 50:  # 0.5%: hot-range duplicate (all share few suffixes)
            doc_ids.append(f"{HOT_PREFIX}{hv % 4:02x}")
        elif r < 100:  # 0.5%: scattered duplicate of a neighbour
            src = max(i - 1, 0)
            doc_ids.append("doc-" + hashlib.md5(str(src).encode()).hexdigest()[:12])
        elif r < 200:  # 1%: malformed
            doc_ids.append(f"DOC_{i}")
        else:
            doc_ids.append("doc-" + hashlib.md5(str(i).encode()).hexdigest()[:12])

    # --- spans --------------------------------------------------------
    kinds_flat: list = []
    texts_flat: list = []
    refs_flat: list = []
    offsets_flat: list = []
    lengths: list = []
    for i, hv in zip(idx.tolist(), h.tolist()):
        n_spans = 1 + (hv >> 8) % 8  # 1..8 spans typical
        bad = (hv % 10_000) >= 9800  # 2%: one corrupted span
        bad_mode = hv % 3
        offset = 0
        for s in range(int(n_spans)):
            kv = (hv >> (4 * s)) % 4
            kind = KINDS[kv]
            is_last_and_bad = bad and s == n_spans - 1
            if is_last_and_bad and bad_mode == 0:
                kind = "hologram"  # bad kind
            if kind == "text":
                text = f"para-{i}-{s}"
                ref = None
            else:
                text = None
                ref_i = (hv >> 16) + s
                # 0.5% dangling refs: point outside the catalog
                if (hv % 10_000) < 9950:
                    ref = media_ref_for(int(ref_i))
                else:
                    ref = f"media://missing/{int(ref_i):08d}"
            this_offset = offset
            if is_last_and_bad and bad_mode == 1:
                this_offset = -1  # negative offset
            if is_last_and_bad and bad_mode == 2 and s > 0:
                this_offset = offset - 7  # out-of-order
            kinds_flat.append(kind)
            texts_flat.append(text)
            refs_flat.append(ref)
            offsets_flat.append(int(this_offset))
            offset += 10 + int((hv >> (3 * s)) % 90)
        lengths.append(int(n_spans))

    struct_arr = pa.StructArray.from_arrays(
        [
            pa.array(kinds_flat, type=pa.string()),
            pa.array(texts_flat, type=pa.string()),
            pa.array(refs_flat, type=pa.string()),
            pa.array(offsets_flat, type=pa.int32()),
        ],
        fields=list(SPAN_STRUCT),
    )
    offsets = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(lengths, out=offsets[1:])
    spans = pa.ListArray.from_arrays(pa.array(offsets, type=pa.int32()), struct_arr)
    return pa.Table.from_arrays(
        [pa.array(doc_ids, type=pa.string()), spans], schema=DOC_SCHEMA
    )


def documents_dataset(num_rows: int, *, override_num_blocks: int | None = None):
    """Build the interleaved documents table as a Ray Dataset."""
    import ray.data

    ds = ray.data.range(num_rows, override_num_blocks=override_num_blocks)
    return ds.map_batches(make_documents_batch, batch_format="numpy")


def media_catalog_dataset():
    """The companion referential table: every valid media_ref."""
    import ray.data

    def gen(batch: dict) -> pa.Table:
        ids = np.asarray(batch["id"], dtype=np.int64)
        return pa.table(
            {"media_ref": pa.array([media_ref_for(int(i)) for i in ids])}
        )

    return ray.data.range(MEDIA_CATALOG_SIZE).map_batches(gen, batch_format="numpy")


def documents_schema():
    """Lint schema for the interleaved table (FIXTURES.md F1)."""
    from data_linter_ray.metadata import ColumnSpec, TableSchema

    return TableSchema(
        name="interleaved_documents",
        columns=[
            ColumnSpec(
                name="doc_id",
                type="string",
                pattern="^doc-[0-9a-f]{12}$",
                nullable=False,
                unique=True,
            ),
            ColumnSpec(
                name="spans",
                type="spans",
                references="media_catalog.media_ref",
                span_constraints={},
            ),
        ],
    )


def add_edited_reference(t: pa.Table) -> pa.Table:
    """Append a ``spans_reference`` copy with seeded edits: docs whose
    doc_id ends in "00" get their first span's media_ref swapped —
    content-keyed, so deterministic under any partitioning."""
    import pyarrow.compute as pc

    spans = t["spans"].combine_chunks()
    flat = pc.list_flatten(spans)
    parents = pc.list_parent_indices(spans).to_numpy(zero_copy_only=False)
    first_elem = np.empty(len(flat), dtype=bool)
    if len(flat):
        first_elem[0] = True
        first_elem[1:] = parents[1:] != parents[:-1]
    edit_row = pc.match_substring_regex(
        t["doc_id"].combine_chunks(), "00$"
    ).to_numpy(zero_copy_only=False)
    edit_elem = first_elem & edit_row[parents]
    media = flat.field("media_ref").to_pylist()
    for i in np.flatnonzero(edit_elem):
        media[i] = "media://edited/x"
    struct = pa.StructArray.from_arrays(
        [
            flat.field("kind"),
            flat.field("text"),
            pa.array(media, type=pa.string()),
            flat.field("offset"),
        ],
        fields=list(SPAN_STRUCT),
    )
    edited = pa.ListArray.from_arrays(spans.offsets, struct)
    return t.append_column("spans_reference", edited)


SPAN_FIXTURE_DOCS = 20_000
SPAN_FIXTURE_ZIPPED = 5_000


def ensure_span_fixture(root: str = "/tmp/dlr_fixtures") -> dict[str, str]:
    """Materialize the deterministic span fixtures ONCE as single parquet
    files (no Ray needed — plain numpy batch) so the driver's DuckDB
    oracle can read the exact same bytes the Ray queries validate.

    Returns {"docs": ..., "catalog": ..., "zipped": ...} paths.
    """
    import json
    import os

    import pyarrow.parquet as pq

    paths = {
        "docs": os.path.join(root, "span_docs.parquet"),
        "catalog": os.path.join(root, "media_catalog.parquet"),
        "zipped": os.path.join(root, "span_zipped.parquet"),
    }
    marker = os.path.join(root, "span_fixture.done.json")
    want = {"docs_n": SPAN_FIXTURE_DOCS, "zipped_n": SPAN_FIXTURE_ZIPPED}
    if os.path.exists(marker):
        try:
            with open(marker) as f:
                if json.load(f) == want and all(
                    os.path.exists(p) for p in paths.values()
                ):
                    return paths
        except (json.JSONDecodeError, OSError):
            pass
    os.makedirs(root, exist_ok=True)
    docs = make_documents_batch({"id": np.arange(SPAN_FIXTURE_DOCS)})
    pq.write_table(docs, paths["docs"])
    catalog = pa.table(
        {"media_ref": [media_ref_for(i) for i in range(MEDIA_CATALOG_SIZE)]}
    )
    pq.write_table(catalog, paths["catalog"])
    zipped = add_edited_reference(
        make_documents_batch({"id": np.arange(SPAN_FIXTURE_ZIPPED)})
    )
    pq.write_table(zipped, paths["zipped"])
    with open(marker, "w") as f:
        json.dump(want, f)
    return paths


RUN_FIXTURE_VERSION = 1


def ensure_run_fixture(root: str = "/tmp/dlr_fixtures/run_land") -> str:
    """Materialize the deterministic LAND fixture for the config-driven
    run-lifecycle query (``run_summary``): three parquet land files over
    two tables — one fully valid, one with a known violation mix
    (min/max + enum + nullable), one with out-of-range values — so the
    DuckDB oracle can recompute each file's verdict from the same bytes.

    The run itself must execute over a COPY of this directory (routing
    moves files out of land); this master stays untouched.

    Returns the master land directory path.
    """
    import json
    import os

    import pyarrow.parquet as pq

    marker = os.path.join(root, "run_fixture.done.json")
    want = {"version": RUN_FIXTURE_VERSION}
    if os.path.exists(marker):
        try:
            with open(marker) as f:
                if json.load(f) == want:
                    return root
        except (json.JSONDecodeError, OSError):
            pass
    os.makedirs(root, exist_ok=True)
    # table1_file1: 40 valid rows
    n = 40
    pq.write_table(
        pa.table(
            {
                "my_int": pa.array((10 + (np.arange(n) % 11)).astype(np.int64)),
                "animal": pa.array(
                    [["cat", "dog", "fish", "chicken"][i % 4] for i in range(n)]
                ),
                "my_email": pa.array([f"u{i}@example.org" for i in range(n)]),
            }
        ),
        os.path.join(root, "table1_file1.parquet"),
    )
    # table1_file2: 25 rows — 3 min/max (5, 25, 99), 1 null my_int,
    # 2 enum ('robot'), 1 null animal (counts under enum AND nullable
    # with nullable=False)
    my_int = [5, 25, 99, None] + [12] * 21
    animal = ["cat"] * 4 + ["robot", "robot", None] + ["dog"] * 18
    pq.write_table(
        pa.table(
            {
                "my_int": pa.array(my_int, pa.int64()),
                "animal": pa.array(animal, pa.string()),
                "my_email": pa.array([f"v{i}@example.org" for i in range(25)]),
            }
        ),
        os.path.join(root, "table1_file2.parquet"),
    )
    # events_tbl_file1: 30 rows, 4 with value > 100
    vals = (np.arange(30) * 3.5) % 100.0
    vals[[3, 11, 19, 27]] = [101.5, 250.0, 999.0, 100.001]
    pq.write_table(
        pa.table(
            {
                "event_id": pa.array(np.arange(30, dtype=np.int64)),
                "value": pa.array(vals),
            }
        ),
        os.path.join(root, "events_tbl_file1.parquet"),
    )
    with open(marker, "w") as f:
        json.dump(want, f)
    return root


CSV_RUN_FIXTURE_VERSION = 1


def ensure_csv_run_fixture(root: str = "/tmp/dlr_fixtures/csv_run_land") -> str:
    """Materialize the deterministic CSV LAND fixture for the
    CSV-ingest run-lifecycle query (``run_summary_csv``): five CSV land
    files over four tables exercising the reference's primary input
    path (pandas_validator.py:417-425) — headered CSV with the default
    pandas NA set, a headerless file (``expect-header`` false), a
    ``pandas-kwargs`` NA-override table (``keep_default_na`` false,
    ``na_values`` [""]), and a cast-failure file — so the DuckDB oracle
    can recompute each file's verdict from the same bytes.

    Like :func:`ensure_run_fixture`, the run executes over a COPY of
    this directory; this master stays untouched.
    """
    import json
    import os

    marker = os.path.join(root, "csv_run_fixture.done.json")
    want = {"version": CSV_RUN_FIXTURE_VERSION}
    if os.path.exists(marker):
        try:
            with open(marker) as f:
                if json.load(f) == want:
                    return root
        except (json.JSONDecodeError, OSError):
            pass
    os.makedirs(root, exist_ok=True)

    def w(name: str, text: str) -> None:
        with open(os.path.join(root, name), "w") as f:
            f.write(text)

    # table1_file1.csv: 30 fully valid headered rows
    rows = [
        f"{10 + i % 11},{['cat', 'dog', 'fish', 'chicken'][i % 4]},u{i}@example.org"
        for i in range(30)
    ]
    w("table1_file1.csv", "my_int,animal,my_email\n" + "\n".join(rows) + "\n")

    # table1_file2.csv: 20 rows — 2 min/max (5, 25), one EMPTY my_int
    # (default pandas NA set -> null -> nullable), one 'robot' (enum),
    # one literal 'NA' animal (default NA set -> null -> counts under
    # enum AND nullable with nullable=False)
    bad = [
        "5,cat,v0@example.org",
        "25,dog,v1@example.org",
        ",fish,v2@example.org",
        "12,robot,v3@example.org",
        "12,NA,v4@example.org",
    ]
    good = [f"15,cat,w{i}@example.org" for i in range(15)]
    w("table1_file2.csv", "my_int,animal,my_email\n" + "\n".join(bad + good) + "\n")

    # table2_file1.csv: HEADERLESS (expect-header false — column names
    # come from the schema); 12 rows, one out-of-range code (75)
    codes = [3, 14, 27, 41, 8, 75, 19, 33, 5, 48, 22, 11]
    w(
        "table2_file1.csv",
        "\n".join(f"{c},name{i}" for i, c in enumerate(codes)) + "\n",
    )

    # table3_file1.csv: pandas-kwargs NA override (keep_default_na
    # false, na_values [""]) — literal 'NA' stays a STRING and passes
    # the enum that contains it; the empty field is null (nullable +
    # enum-null violations)
    # (two columns: a single-column CSV can't encode a null — pyarrow
    # skips fully blank lines and quoted "" stays a string under
    # quoted_strings_can_be_null=False)
    w(
        "table3_file1.csv",
        "animal,note\ncat,n0\nNA,n1\n,n2\ncat,n3\nNA,n4\n",
    )

    # table4_file1.csv: cast failure — non-numeric my_int makes the
    # schema cast fail; the file FAILS with a parse_data table test
    # (zero row violations), mirroring the reference's caught-cast path
    w(
        "table4_file1.csv",
        "my_int,animal,my_email\nnot_a_number,cat,x@y.z\n10,dog,a@b.c\n",
    )

    with open(marker, "w") as f:
        json.dump(want, f)
    return root
