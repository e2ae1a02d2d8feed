"""Multimodal plumbing, parquet schema conformance, drift-in-pipeline,
and log-explorer tests."""

import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

import ray
from data_linter_ray.metadata import ColumnSpec, TableSchema


# ---------------- multimodal --------------------------------------------


def test_media_decode_pipeline(ray_session):
    from data_linter_ray.functions import multimodal as mm

    media = mm.synth_media_dataset(500, payload_bytes=512)
    out = mm.decode_pipeline(media, concurrency=2, batch_size=128)
    t = out.to_pandas()
    assert len(t) == 500
    assert len(t["pixels"].iloc[0]) == 64
    assert len(t["features"].iloc[0]) == mm.FEATURE_DIM
    # deterministic fake decode: same payload → same pixels
    t2 = mm.decode_pipeline(mm.synth_media_dataset(500, payload_bytes=512), concurrency=2).to_pandas()
    a = t.sort_values("media_ref").iloc[0]
    b = t2.sort_values("media_ref").iloc[0]
    assert list(a["pixels"]) == list(b["pixels"])


def test_frame_sampler(ray_session):
    from data_linter_ray.functions import multimodal as mm

    media = mm.synth_media_dataset(50, kind="video", payload_bytes=1024)
    frames = media.map_batches(
        mm.FrameSampler,
        batch_format="pyarrow",
        concurrency=2,
        batch_size=25,
        num_cpus=0.5,
    ).to_pandas()
    assert len(frames) == 200  # 4 frames per video
    assert set(frames["frame"]) == {0, 1, 2, 3}


def test_suggested_batch_size():
    from data_linter_ray.functions.multimodal import suggested_batch_size

    assert suggested_batch_size(1024 * 1024) == 64  # 64MB budget / 1MB payloads
    assert suggested_batch_size(10**9) == 1  # giant payloads → row-at-a-time


# ---------------- PNG codec (pure-stdlib, real) --------------------------


def _png_encode(img, filters=None):
    """Test-side PNG encoder (spec-direct, independent of the decoder):
    applies the requested per-scanline filter (default 0/None) then
    zlib-compresses. img: uint8 [h, w, c] with c in {1, 2, 3, 4}."""
    import struct
    import zlib

    import numpy as np

    h, w, c = img.shape
    color_type = {1: 0, 2: 4, 3: 2, 4: 6}[c]
    flat = img.reshape(h, w * c).astype(np.int32)
    filters = filters or [0] * h
    raw = bytearray()
    prev = np.zeros(w * c, dtype=np.int32)
    for y in range(h):
        f = filters[y]
        line = flat[y]
        if f == 0:
            enc = line
        elif f == 1:  # Sub
            left = np.zeros_like(line)
            left[c:] = line[:-c]
            enc = (line - left) & 0xFF
        elif f == 2:  # Up
            enc = (line - prev) & 0xFF
        elif f == 3:  # Average
            left = np.zeros_like(line)
            left[c:] = line[:-c]
            enc = (line - ((left + prev) >> 1)) & 0xFF
        elif f == 4:  # Paeth
            left = np.zeros_like(line)
            left[c:] = line[:-c]
            upleft = np.zeros_like(prev)
            upleft[c:] = prev[:-c]
            p = left + prev - upleft
            pa_, pb_, pc_ = abs(p - left), abs(p - prev), abs(p - upleft)
            pred = np.where(
                (pa_ <= pb_) & (pa_ <= pc_), left, np.where(pb_ <= pc_, prev, upleft)
            )
            enc = (line - pred) & 0xFF
        raw.append(f)
        raw.extend(enc.astype(np.uint8).tobytes())
        prev = line

    def chunk(ctype: bytes, body: bytes) -> bytes:
        return (
            struct.pack(">I", len(body))
            + ctype
            + body
            + struct.pack(">I", zlib.crc32(ctype + body) & 0xFFFFFFFF)
        )

    ihdr = struct.pack(">IIBBBBB", w, h, 8, color_type, 0, 0, 0)
    return (
        b"\x89PNG\r\n\x1a\n"
        + chunk(b"IHDR", ihdr)
        + chunk(b"IDAT", zlib.compress(bytes(raw)))
        + chunk(b"IEND", b"")
    )


@pytest.mark.parametrize("channels", [1, 2, 3, 4])
@pytest.mark.parametrize("filt", [0, 1, 2, 3, 4])
def test_png_decode_roundtrip(channels, filt):
    import numpy as np

    from data_linter_ray.functions.multimodal import png_decode

    rng = np.random.RandomState(7 * channels + filt)
    img = rng.randint(0, 256, size=(11, 13, channels), dtype=np.uint8)
    data = _png_encode(img, filters=[filt] * 11)
    out = png_decode(data)
    assert out.shape == img.shape
    assert (out == img).all()


def test_png_decode_rejects_garbage():
    import pytest as _pytest

    from data_linter_ray.functions.multimodal import png_decode

    with _pytest.raises(ValueError):
        png_decode(b"not a png at all")


def test_png_decode_rejects_unsupported_variants():
    """16-bit depth and interlaced PNGs must fail loudly, not decode
    garbage."""
    import struct
    import zlib

    import numpy as np

    from data_linter_ray.functions.multimodal import PNG_MAGIC, png_decode

    def make(bit_depth, interlace):
        ihdr = struct.pack(">IIBBBBB", 4, 4, bit_depth, 0, 0, 0, interlace)
        def chunk(ctype, body):
            return (
                struct.pack(">I", len(body)) + ctype + body
                + struct.pack(">I", zlib.crc32(ctype + body) & 0xFFFFFFFF)
            )
        raw = bytes(4 * (4 * (2 if bit_depth == 16 else 1) + 1))
        return (
            PNG_MAGIC + chunk(b"IHDR", ihdr)
            + chunk(b"IDAT", zlib.compress(raw)) + chunk(b"IEND", b"")
        )

    with pytest.raises(ValueError, match="bit depth"):
        png_decode(make(16, 0))
    with pytest.raises(ValueError, match="interlaced"):
        png_decode(make(8, 1))


def test_image_decoder_real_png_path(ray_session):
    """PNG payloads go through the REAL pure-stdlib codec: a flat-gray
    PNG must decode to exactly its gray level (a fake/hashed decoder
    cannot produce this)."""
    import numpy as np

    from data_linter_ray.functions import multimodal as mm

    img = np.full((16, 16, 3), 128, dtype=np.uint8)
    png = _png_encode(img)
    media = ray.data.from_items(
        [{"media_ref": f"media://png/{i}", "kind": "image", "payload": png} for i in range(40)]
    )
    out = mm.decode_pipeline(media, concurrency=2, batch_size=16).to_pandas()
    px = np.asarray(out["pixels"].iloc[0])
    assert px.shape == (64,)
    assert np.allclose(px, 128.0 / 255.0)
    # strict mode: PNG decodes fine, non-PNG raises
    dec = mm.ImageDecoder(strict=True)
    ok = dec(pa.table({"payload": pa.array([png], pa.binary())}))
    assert len(ok["pixels"]) == 1
    with pytest.raises(NotImplementedError):
        dec(pa.table({"payload": pa.array([b"JFIF-ish"], pa.binary())}))


def test_synth_png_media_runs_real_codec(ray_session):
    """fmt='png' payloads are real PNGs; the pipeline decodes them with
    the pure-stdlib codec and the pixels equal the known id-derived
    image (resized), not a hash-fake."""
    import hashlib

    import numpy as np

    from data_linter_ray.functions import multimodal as mm

    out = (
        mm.decode_pipeline(
            mm.synth_media_dataset(30, fmt="png"), concurrency=2, batch_size=10
        )
        .to_pandas()
        .sort_values("media_ref")
        .reset_index(drop=True)
    )
    assert len(out) == 30
    # reconstruct media id 0's expected decoded+resized pixels
    seed = hashlib.sha256(b"media-image-0").digest()
    px = np.frombuffer((seed * 8)[: 16 * 16], dtype=np.uint8).reshape(16, 16)
    expected = mm._resize_nearest(px.astype(np.float32)[:, :] / 255.0, (8, 8)).ravel()
    got = np.asarray(out["pixels"].iloc[0])
    assert np.allclose(got, expected)
    # prod encoder ↔ decoder roundtrip
    rgb = np.arange(10 * 7 * 3, dtype=np.uint8).reshape(10, 7, 3)
    assert (mm.png_decode(mm.png_encode(rgb)) == rgb).all()


@pytest.mark.parametrize("bits", [8, 16, 32])
@pytest.mark.parametrize("ch", [1, 2])
def test_wav_codec_roundtrip(bits, ch):
    import numpy as np

    from data_linter_ray.functions.multimodal import wav_decode, wav_encode

    rng = np.random.RandomState(bits + ch)
    x = (rng.rand(500, ch).astype(np.float32) * 2 - 1) * 0.9
    out, rate = wav_decode(wav_encode(x, sample_rate=8_000, bits=bits))
    assert rate == 8_000
    assert out.shape == (500, ch)
    tol = {8: 1e-2, 16: 1e-4, 32: 1e-7}[bits]
    assert np.abs(out - x).max() < tol


def test_wav_decode_rejects_garbage():
    from data_linter_ray.functions.multimodal import wav_decode

    with pytest.raises(ValueError):
        wav_decode(b"definitely not RIFF data")


def test_audio_decoder_real_wav_path(ray_session):
    """WAV payloads run the REAL PCM decoder: a pure 440 Hz half-scale
    tone has a predictable RMS envelope (~0.5/sqrt(2) per bin) — a
    hash-fake cannot produce this."""
    import numpy as np

    from data_linter_ray.functions import multimodal as mm

    t = np.arange(3200, dtype=np.float32) / 16_000.0
    tone = 0.5 * np.sin(2 * np.pi * 440.0 * t)
    wav = mm.wav_encode(tone, sample_rate=16_000)
    media = ray.data.from_items(
        [{"media_ref": f"media://wav/{i}", "kind": "audio", "payload": wav} for i in range(30)]
    )
    out = media.map_batches(
        mm.AudioDecoder,
        batch_format="pyarrow",
        concurrency=2,
        batch_size=10,
        num_cpus=0.5,
        max_restarts=0,
    ).to_pandas()
    assert len(out) == 30
    feats = np.asarray(out["features"].iloc[0])
    assert feats.shape == (mm.AUDIO_FEATURE_DIM,)
    rms_bins = feats[: mm.AUDIO_FEATURE_DIM // 2]
    assert np.allclose(rms_bins, 0.5 / np.sqrt(2), atol=0.02)
    # strict mode: WAV decodes, non-WAV raises
    dec = mm.AudioDecoder(strict=True)
    ok = dec(pa.table({"payload": pa.array([wav], pa.binary())}))
    assert len(ok["features"]) == 1
    with pytest.raises(NotImplementedError):
        dec(pa.table({"payload": pa.array([b"mp3-ish junk"], pa.binary())}))


def test_synth_wav_media_runs_real_codec(ray_session):
    from data_linter_ray.functions import multimodal as mm

    out = (
        mm.synth_media_dataset(40, kind="audio", fmt="wav")
        .map_batches(
            mm.AudioDecoder, batch_format="pyarrow", concurrency=2, batch_size=20,
            num_cpus=0.5, max_restarts=0,
        )
        .to_pandas()
    )
    assert len(out) == 40
    assert all(len(f) == mm.AUDIO_FEATURE_DIM for f in out["features"])


def test_decode_pipeline_fused_matches_two_stage(ray_session):
    import numpy as np

    from data_linter_ray.functions import multimodal as mm

    media = mm.synth_media_dataset(200, payload_bytes=256)
    fused = mm.decode_pipeline(media, concurrency=2, batch_size=64, fused=True).to_pandas()
    two = mm.decode_pipeline(media, concurrency=2, batch_size=64, fused=False).to_pandas()
    fused = fused.sort_values("media_ref").reset_index(drop=True)
    two = two.sort_values("media_ref").reset_index(drop=True)
    assert list(fused.columns) == list(two.columns)
    for i in (0, 99, 199):
        assert np.allclose(
            np.asarray(fused["features"].iloc[i]), np.asarray(two["features"].iloc[i])
        )


# ---------------- parquet schema conformance ----------------------------

BASE = TableSchema(
    name="t",
    columns=[
        ColumnSpec(name="a", type="int64"),
        ColumnSpec(name="b", type="string"),
        ColumnSpec(name="c", type="float64"),
    ],
)


def write(tmp_path, table):
    p = str(tmp_path / "f.parquet")
    pq.write_table(table, p)
    return p


def test_schema_conforms_exact(tmp_path):
    from data_linter_ray.stages.schema_conformance import validate_parquet_schema

    p = write(tmp_path, pa.table({"a": pa.array([1], pa.int64()), "b": ["x"], "c": [1.0]}))
    r = validate_parquet_schema(p, BASE).get_result()
    assert r["valid"]
    assert r["check_schema_conforms"]["valid"]


def test_schema_type_mismatch(tmp_path):
    from data_linter_ray.stages.schema_conformance import validate_parquet_schema

    p = write(tmp_path, pa.table({"a": pa.array([1], pa.int32()), "b": ["x"], "c": [1.0]}))
    r = validate_parquet_schema(p, BASE).get_result()
    cc = r["check_schema_conforms"]
    assert not cc["valid"]
    assert cc["cols_with_different_types"]["a"] == {
        "meta_field": "int64",
        "table_field": "int32",
    }


def test_schema_missing_and_extra_cols(tmp_path):
    from data_linter_ray.stages.schema_conformance import validate_parquet_schema

    p = write(tmp_path, pa.table({"a": pa.array([1], pa.int64()), "b": ["x"], "d": [2]}))
    cc = validate_parquet_schema(p, BASE).get_result()["check_schema_conforms"]
    assert cc["cols_in_meta_not_in_file"] == ["c"]
    assert cc["cols_in_file_not_in_meta"] == ["d"]


def test_parquet_engine_in_run(ray_session, tmp_path):
    from data_linter_ray.pipelines.run import run_validation

    land = tmp_path / "land"
    land.mkdir()
    pq.write_table(pa.table({"a": pa.array([1], pa.int64()), "b": ["x"], "c": [1.0]}), land / "t1.parquet")
    pq.write_table(pa.table({"a": pa.array([1], pa.int32()), "b": ["x"], "c": [1.0]}), land / "t1_bad.parquet")
    (land / "t1_corrupt.parquet").write_bytes(b"not a parquet file")
    cfg = {
        "land-base-path": str(land) + "/",
        "pass-base-path": str(tmp_path / "pass") + "/",
        "fail-base-path": str(tmp_path / "fail") + "/",
        "log-base-path": str(tmp_path / "log") + "/",
        "validator-engine": "parquet",
        "tables": {"t1": {"metadata": BASE.to_dict()}},
    }
    res = run_validation(cfg)
    assert not res.all_tables_passed
    assert os.path.exists(tmp_path / "pass" / "t1" / "t1.parquet")
    assert os.path.exists(tmp_path / "fail" / "t1" / "t1_bad.parquet")
    # an unreadable file is a failed unit, not an aborted run
    assert os.path.exists(tmp_path / "fail" / "t1" / "t1_corrupt.parquet")
    (corrupt,) = [m for m in res.manifests if m.source_path.endswith("t1_corrupt.parquet")]
    assert not corrupt.valid
    assert corrupt.response["parse_data"]["valid"] is False
    assert corrupt.response["parse_data"]["traceback"]


# ---------------- drift in pipeline -------------------------------------


def test_drift_in_validate_and_config(ray_session, tmp_path, sf_dir):
    from data_linter_ray.pipelines import validate_dataset
    from data_linter_ray.stages.sketch_stage import (
        compute_sketches,
        load_baselines,
        save_baselines,
    )

    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet")
    base = compute_sketches(ds, ["value"], [])
    path = str(tmp_path / "baselines.json")
    save_baselines(base, path)
    loaded = load_baselines(path)
    assert loaded["value"]["tdigest"].quantile(0.5) == pytest.approx(
        base["value"]["tdigest"].quantile(0.5)
    )

    schema = TableSchema(
        name="events",
        columns=[ColumnSpec(name="value", type="float64", drift={"metric": "quantile_shift"})],
    )
    res = validate_dataset(
        ds, schema, allow_unexpected_data=True, drift_baselines=loaded
    )
    r = res.response.get_result()
    assert r["value"]["drift_test"]["valid"]  # same data vs itself

    import pyarrow.compute as pc

    shifted = ds.map_batches(
        lambda t: t.set_column(
            t.schema.get_field_index("value"), "value", pc.add(t["value"], 500.0)
        ),
        batch_format="pyarrow",
    )
    res2 = validate_dataset(
        shifted, schema, allow_unexpected_data=True, drift_baselines=loaded
    )
    assert res2.response.get_result()["value"]["drift_test"]["valid"] is False
    assert not res2.valid


# ---------------- log explorer ------------------------------------------


def test_log_explorer(ray_session, tmp_path):
    from data_linter_ray import log_explorer
    from data_linter_ray.pipelines.run import run_validation

    land = tmp_path / "land"
    land.mkdir()
    (land / "table1.csv").write_text("my_int,animal\n10,cat\n")
    (land / "table1_bad.csv").write_text("my_int,animal\n99,robot\n")
    meta = {
        "name": "table1",
        "columns": [
            {"name": "my_int", "type": "int64", "minimum": 0, "maximum": 20},
            {"name": "animal", "type": "string", "enum": ["cat", "dog"]},
        ],
    }
    cfg = {
        "land-base-path": str(land) + "/",
        "pass-base-path": str(tmp_path / "pass") + "/",
        "fail-base-path": str(tmp_path / "fail") + "/",
        "log-base-path": str(tmp_path / "log") + "/",
        "tables": {"table1": {"metadata": meta}},
    }
    run_validation(cfg)
    summary = log_explorer.summary_of_all_tables(cfg)
    assert summary["overall_valid"] is False
    assert summary["fail_count"] == 1
    assert summary["fail_percentage"] == pytest.approx(50.0)
    assert summary["tables"]["table1"]["fail_count"] == 1

    failed = log_explorer.get_failed_files(cfg)
    assert failed["original-path"].iloc[0].endswith("table1_bad.csv")

    errs = log_explorer.get_all_errors_for_file(cfg, str(land / "table1_bad.csv"))
    assert len(errs) == 1
    assert errs["response"].iloc[0]["valid"] is False


def test_write_jsonl_shards_roundtrip(ray_session, tmp_path):
    """JSONL shard sink: size-bounded shards, every row exactly once,
    valid NDJSON, deterministic gzip variant, shard naming idempotent."""
    import glob
    import gzip
    import json

    import ray
    from data_linter_ray.sinks import write_jsonl_shards

    ds = ray.data.range(1000).map_batches(
        lambda b: {"doc_id": b["id"], "text": [f"t{i}" for i in b["id"]]},
        batch_format="numpy",
    ).repartition(4)
    out = str(tmp_path / "shards")
    write_jsonl_shards(ds, out, rows_per_shard=100)
    files = sorted(glob.glob(out + "/shard-*.jsonl"))
    assert files, "no shards written"
    rows = []
    for f in files:
        with open(f) as fh:
            lines = [json.loads(l) for l in fh if l.strip()]
        assert len(lines) <= 100  # size bound
        rows.extend(lines)
    assert sorted(r["doc_id"] for r in rows) == list(range(1000))
    assert all(r["text"] == f"t{r['doc_id']}" for r in rows)

    # gzip variant round-trips and is deterministic (mtime pinned)
    out2 = str(tmp_path / "gz")
    write_jsonl_shards(ds, out2, rows_per_shard=400, compress=True)
    gz = sorted(glob.glob(out2 + "/shard-*.jsonl.gz"))
    total = 0
    for f in gz:
        with gzip.open(f, "rt") as fh:
            total += sum(1 for l in fh if l.strip())
    assert total == 1000
