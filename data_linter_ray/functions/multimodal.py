"""Multimodal (image/audio/video) column operators.

Media payloads are opaque ``binary`` columns with typed metadata
(kind, media_ref) — the engine's Ray-side plumbing (schemas, actor-pool
signatures, batch sizing, output layout) is real and tested. The codec
layer is real for PNG: a pure-stdlib decoder (zlib + struct; 8-bit
gray/RGB/gray+alpha/RGBA, all five PNG filters, non-interlaced) runs in
this container with no extra dependencies; PIL is preferred when
importable (wider format support). Non-decodable payloads fall back to
a clearly-marked deterministic fake (or raise ``NotImplementedError``
in strict mode) — the audio/video codecs remain stubs.

Stages are callable CLASSES for ``map_batches(..., concurrency=N)``
actor pools: codec/init work happens once per actor in ``__init__``,
per-batch work in ``__call__``. Batch sizes should be small for large
payloads (bytes-based batching; see ``suggested_batch_size``).
"""

from __future__ import annotations

import hashlib
import struct
import zlib

import numpy as np
import pyarrow as pa
from ray.data import Dataset

MEDIA_SCHEMA = pa.schema(
    [
        ("media_ref", pa.string()),
        ("kind", pa.string()),  # image | audio | video
        ("payload", pa.binary()),
    ]
)

FEATURE_DIM = 32


def suggested_batch_size(avg_payload_bytes: int, budget_bytes: int = 64 * 1024 * 1024) -> int:
    """Rows per batch so one batch stays within a worker-heap budget."""
    return max(1, budget_bytes // max(1, avg_payload_bytes))


def _fake_decode(payload: bytes, out_pixels: int = 64) -> np.ndarray:
    """Deterministic stand-in for a real codec: derive a fixed-size
    float32 'pixel' array from the payload bytes via hashing."""
    h = hashlib.sha256(payload).digest()
    seed = np.frombuffer(h[:8], dtype=np.uint64)[0]
    rng = np.random.RandomState(int(seed % (2**32)))
    return rng.rand(out_pixels).astype(np.float32)


# ---------------------------------------------------------------------------
# pure-stdlib PNG codec (real, in-container)
# ---------------------------------------------------------------------------

PNG_MAGIC = b"\x89PNG\r\n\x1a\n"

#: PNG color type → sample channels
_PNG_CHANNELS = {0: 1, 2: 3, 4: 2, 6: 4}


def png_decode(data: bytes) -> np.ndarray:
    """Decode a PNG (stdlib ``zlib`` + ``struct`` only) → uint8
    ``[h, w, channels]``.

    Supports 8-bit depth, color types 0/2/4/6 (gray, RGB, gray+alpha,
    RGBA), non-interlaced — the shapes produced by virtually every
    screenshot/thumbnail pipeline. Filter reconstruction is per-scanline
    (filters Up/None vectorized; Sub/Average/Paeth need the sequential
    per-pixel recurrence the spec defines). Implemented from the public
    PNG specification (W3C/ISO PNG, RFC 2083 §6: chunk layout, IHDR
    fields, filter type reconstruction). Raises ``ValueError`` on
    non-PNG or unsupported variants.
    """
    if data[:8] != PNG_MAGIC:
        raise ValueError("not a PNG payload")
    pos = 8
    width = height = color_type = None
    idat: list[bytes] = []
    while pos + 8 <= len(data):
        (length,) = struct.unpack(">I", data[pos : pos + 4])
        ctype = data[pos + 4 : pos + 8]
        body = data[pos + 8 : pos + 8 + length]
        pos += 12 + length  # length + type + payload + crc
        if ctype == b"IHDR":
            width, height, bit_depth, color_type, _comp, _filt, interlace = (
                struct.unpack(">IIBBBBB", body)
            )
            if bit_depth != 8:
                raise ValueError(f"unsupported PNG bit depth: {bit_depth}")
            if interlace != 0:
                raise ValueError("interlaced PNG not supported")
            if color_type not in _PNG_CHANNELS:
                raise ValueError(f"unsupported PNG color type: {color_type}")
        elif ctype == b"IDAT":
            idat.append(body)
        elif ctype == b"IEND":
            break
    if width is None or not idat:
        raise ValueError("malformed PNG: missing IHDR/IDAT")
    channels = _PNG_CHANNELS[color_type]
    stride = width * channels
    raw = np.frombuffer(zlib.decompress(b"".join(idat)), dtype=np.uint8)
    if len(raw) != (stride + 1) * height:
        raise ValueError("malformed PNG: wrong decompressed size")
    bpp = channels  # bytes per pixel at 8-bit depth
    out = np.empty((height, stride), dtype=np.uint8)
    prev = np.zeros(stride, dtype=np.int32)
    for y in range(height):
        f = int(raw[y * (stride + 1)])
        line = raw[y * (stride + 1) + 1 : (y + 1) * (stride + 1)].astype(np.int32)
        if f == 0:  # None
            rec = line
        elif f == 2:  # Up — vectorized
            rec = (line + prev) & 0xFF
        elif f == 1:  # Sub
            rec = line
            for x in range(bpp, stride):
                rec[x] = (rec[x] + rec[x - bpp]) & 0xFF
        elif f == 3:  # Average
            rec = line
            for x in range(stride):
                left = rec[x - bpp] if x >= bpp else 0
                rec[x] = (rec[x] + ((left + int(prev[x])) >> 1)) & 0xFF
        elif f == 4:  # Paeth
            rec = line
            for x in range(stride):
                a = int(rec[x - bpp]) if x >= bpp else 0
                b = int(prev[x])
                c = int(prev[x - bpp]) if x >= bpp else 0
                p = a + b - c
                pa_, pb_, pc_ = abs(p - a), abs(p - b), abs(p - c)
                pred = a if (pa_ <= pb_ and pa_ <= pc_) else (b if pb_ <= pc_ else c)
                rec[x] = (rec[x] + pred) & 0xFF
        else:
            raise ValueError(f"bad PNG filter byte: {f}")
        out[y] = rec
        prev = rec.astype(np.int32, copy=False)
    return out.reshape(height, width, channels)


def png_encode(img: np.ndarray) -> bytes:
    """Encode uint8 ``[h, w]`` or ``[h, w, c]`` (c in 1/2/3/4) as a PNG
    (stdlib only, filter 0 per scanline — the filter step is a plain
    vectorized byte interleave). The decoder side-door for synthesizing
    real PNG payloads in tests/benches and for small thumbnail sinks."""
    if img.ndim == 2:
        img = img[:, :, None]
    h, w, c = img.shape
    color_type = {1: 0, 2: 4, 3: 2, 4: 6}[c]
    flat = img.reshape(h, w * c).astype(np.uint8)
    raw = np.zeros((h, w * c + 1), dtype=np.uint8)
    raw[:, 1:] = flat  # filter byte 0 per scanline

    def chunk(ctype: bytes, body: bytes) -> bytes:
        return (
            struct.pack(">I", len(body))
            + ctype
            + body
            + struct.pack(">I", zlib.crc32(ctype + body) & 0xFFFFFFFF)
        )

    ihdr = struct.pack(">IIBBBBB", w, h, 8, color_type, 0, 0, 0)
    return (
        PNG_MAGIC
        + chunk(b"IHDR", ihdr)
        + chunk(b"IDAT", zlib.compress(raw.tobytes()))
        + chunk(b"IEND", b"")
    )


# ---------------------------------------------------------------------------
# pure-stdlib WAV/PCM codec (real, in-container)
# ---------------------------------------------------------------------------

WAV_MAGIC = b"RIFF"


def wav_decode(data: bytes) -> tuple[np.ndarray, int]:
    """Decode a PCM WAV (stdlib ``struct`` only) → (float32 samples in
    [-1, 1] shaped ``[n, channels]``, sample_rate). Supports 8-bit
    unsigned and 16/32-bit signed PCM, per the public RIFF/WAVE layout
    (Microsoft/IBM Multimedia Programming Interface spec: RIFF header,
    word-aligned fmt/data chunks). Raises ``ValueError`` on non-WAV or
    compressed formats."""
    if data[:4] != WAV_MAGIC or data[8:12] != b"WAVE":
        raise ValueError("not a WAV payload")
    pos = 12
    fmt = None
    pcm = None
    while pos + 8 <= len(data):
        ctype = data[pos : pos + 4]
        (length,) = struct.unpack("<I", data[pos + 4 : pos + 8])
        body = data[pos + 8 : pos + 8 + length]
        pos += 8 + length + (length & 1)  # chunks are word-aligned
        if ctype == b"fmt ":
            audio_format, channels, rate, _bps, _align, bits = struct.unpack(
                "<HHIIHH", body[:16]
            )
            if audio_format != 1:
                raise ValueError(f"unsupported WAV format code: {audio_format}")
            if bits not in (8, 16, 32):
                raise ValueError(f"unsupported WAV bit depth: {bits}")
            fmt = (channels, rate, bits)
        elif ctype == b"data":
            pcm = body
    if fmt is None or pcm is None:
        raise ValueError("malformed WAV: missing fmt/data chunk")
    channels, rate, bits = fmt
    if bits == 8:  # unsigned, symmetric ±127 around the 128 midpoint
        x = np.frombuffer(pcm, dtype=np.uint8).astype(np.float32)
        x = (x - 128.0) / 127.0
    elif bits == 16:
        x = np.frombuffer(pcm, dtype="<i2").astype(np.float32) / 32768.0
    else:
        x = np.frombuffer(pcm, dtype="<i4").astype(np.float32) / 2147483648.0
    n = len(x) // channels
    return x[: n * channels].reshape(n, channels), rate


def wav_encode(samples: np.ndarray, sample_rate: int = 16_000, bits: int = 16) -> bytes:
    """Encode float samples in [-1, 1] (``[n]`` or ``[n, ch]``) as a PCM
    WAV (stdlib only). The synth/test counterpart of :func:`wav_decode`."""
    if samples.ndim == 1:
        samples = samples[:, None]
    n, ch = samples.shape
    clipped = np.clip(samples, -1.0, 1.0)
    if bits == 8:
        pcm = (np.round(clipped * 127.0) + 128.0).astype(np.uint8).tobytes()
    elif bits == 16:
        pcm = np.round(clipped * 32767.0).astype("<i2").tobytes()
    elif bits == 32:
        pcm = np.round(clipped * 2147483647.0).astype("<i4").tobytes()
    else:
        raise ValueError(f"unsupported bit depth: {bits}")
    block = ch * bits // 8
    fmt = struct.pack("<HHIIHH", 1, ch, sample_rate, sample_rate * block, block, bits)
    body = (
        b"WAVE"
        + b"fmt " + struct.pack("<I", len(fmt)) + fmt
        + b"data" + struct.pack("<I", len(pcm)) + pcm
    )
    return b"RIFF" + struct.pack("<I", len(body)) + body


AUDIO_FEATURE_DIM = 32


def audio_features(samples: np.ndarray, dim: int = AUDIO_FEATURE_DIM) -> np.ndarray:
    """Mono-mixed RMS-envelope (dim/2 bins) + zero-crossing-rate
    (dim/2 bins) feature vector — a deterministic, fully vectorized
    stand-in for model inference over decoded audio."""
    mono = samples.mean(axis=1) if samples.ndim == 2 else samples
    half = dim // 2
    n = len(mono)
    if n == 0:
        return np.zeros(dim, dtype=np.float32)
    # pad to a multiple of half and fold into [half, win] frames
    win = -(-n // half)
    padded = np.zeros(half * win, dtype=np.float32)
    padded[:n] = mono
    frames = padded.reshape(half, win)
    rms = np.sqrt((frames**2).mean(axis=1))
    zc = (np.abs(np.diff(np.signbit(frames), axis=1).astype(np.float32))).mean(axis=1)
    return np.concatenate([rms, zc]).astype(np.float32)


class AudioDecoder:
    """Actor-pool stage: WAV payload → feature vector column
    (``audio_features``). Per-payload dispatch mirrors ``ImageDecoder``:
    RIFF/WAV payloads are REALLY decoded; non-WAV falls back to the
    deterministic fake (or raises in strict mode)."""

    def __init__(self, payload_col: str = "payload", strict: bool = False, dim: int = AUDIO_FEATURE_DIM):
        self.payload_col = payload_col
        self.strict = strict
        self.dim = dim

    def __call__(self, batch: pa.Table) -> pa.Table:
        feats = []
        for p in batch[self.payload_col].to_pylist():
            if p[:4] == WAV_MAGIC:
                samples, _rate = wav_decode(p)
                feats.append(audio_features(samples, self.dim))
            elif self.strict:
                raise NotImplementedError(
                    "payload is not a WAV and strict=True: no audio codec "
                    "for this format in-container"
                )
            else:
                feats.append(_fake_decode(p, self.dim))
        flat = (
            np.concatenate(feats).astype(np.float32, copy=False)
            if feats
            else np.empty(0, np.float32)
        )
        col = pa.FixedSizeListArray.from_arrays(pa.array(flat, pa.float32()), self.dim)
        return batch.append_column("features", col)


def _to_grayscale(img: np.ndarray) -> np.ndarray:
    """uint8 [h, w, c] → float32 [h, w] in [0, 1] (ITU-R 601 luma)."""
    c = img.shape[2]
    if c == 1:
        g = img[:, :, 0].astype(np.float32)
    elif c == 2:  # gray + alpha
        g = img[:, :, 0].astype(np.float32)
    else:  # RGB / RGBA
        rgb = img[:, :, :3].astype(np.float32)
        g = rgb @ np.array([0.299, 0.587, 0.114], dtype=np.float32)
    return g / 255.0


def _resize_nearest(img: np.ndarray, size: tuple) -> np.ndarray:
    """float32 [h, w] → [size] by nearest-neighbor index sampling."""
    h, w = img.shape
    rows = (np.arange(size[1]) * h // size[1]).clip(0, h - 1)
    cols = (np.arange(size[0]) * w // size[0]).clip(0, w - 1)
    return img[np.ix_(rows, cols)]


class ImageDecoder:
    """Actor-pool stage: binary payload → decoded pixel array column.

    Codec dispatch is per payload: PNG payloads (magic-byte sniff) are
    REALLY decoded — via PIL when importable, else the pure-stdlib
    :func:`png_decode` — then grayscaled and resized to ``size``.
    Non-PNG payloads fall back to the deterministic fake decoder, or
    raise ``NotImplementedError`` when ``strict=True`` (production
    posture: no silent fakes).
    """

    def __init__(self, payload_col: str = "payload", strict: bool = False, size: tuple = (8, 8)):
        self.payload_col = payload_col
        self.size = size
        self.strict = strict
        try:  # pragma: no cover - PIL absent in this container
            from PIL import Image  # noqa: F401

            self.codec = "pil"
        except ImportError:
            self.codec = "png-pure"

    def _decode_one(self, p: bytes, n_px: int) -> np.ndarray:
        if p[:8] == PNG_MAGIC:
            if self.codec == "pil":  # pragma: no cover
                import io

                from PIL import Image

                return (
                    np.asarray(
                        Image.open(io.BytesIO(p)).convert("L").resize(self.size),
                        dtype=np.float32,
                    ).ravel()
                    / 255.0
                )
            return _resize_nearest(_to_grayscale(png_decode(p)), self.size).ravel()
        if self.strict:
            raise NotImplementedError(
                "payload is not a PNG and strict=True: no codec for this "
                "format in-container (install pillow for wider support)"
            )
        return _fake_decode(p, n_px)

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = batch[self.payload_col].to_pylist()
        n_px = self.size[0] * self.size[1]
        arrays = [self._decode_one(p, n_px) for p in payloads]
        flat = (
            np.concatenate(arrays).astype(np.float32, copy=False)
            if arrays
            else np.empty(0, np.float32)
        )
        pixels = pa.FixedSizeListArray.from_arrays(pa.array(flat, pa.float32()), n_px)
        return batch.append_column("pixels", pixels)


class FeatureExtractor:
    """Actor-pool stage: decoded pixels → small feature vector (mean/std
    pooled blocks — a deterministic stand-in for model inference; the
    model-load slot is ``__init__``)."""

    def __init__(self, pixels_col: str = "pixels", dim: int = FEATURE_DIM):
        self.pixels_col = pixels_col
        self.dim = dim
        # model-load stand-in: projections built ONCE per actor per input
        # width and cached (never rebuilt per batch)
        self._proj: dict[int, np.ndarray] = {
            64: np.random.RandomState(42).randn(64, dim).astype(np.float32)
        }

    def _projection(self, n_in: int) -> np.ndarray:
        if n_in not in self._proj:
            self._proj[n_in] = (
                np.random.RandomState(42).randn(n_in, self.dim).astype(np.float32)
            )
        return self._proj[n_in]

    def __call__(self, batch: pa.Table) -> pa.Table:
        col = batch[self.pixels_col].combine_chunks()
        # FixedSizeList<float32> → [n, width] zero-copy reshape
        width = col.type.list_size
        m = col.flatten().to_numpy(zero_copy_only=False).reshape(len(col), width)
        feats = m.astype(np.float32, copy=False) @ self._projection(width)
        flat = pa.array(feats.ravel(), pa.float32())
        return batch.append_column(
            "features", pa.FixedSizeListArray.from_arrays(flat, self.dim)
        )


class DecodeAndFeature:
    """Fused actor-pool stage: decode + feature-extract in ONE actor.

    One pool instead of two halves the actor cold-start cost and drops
    an object-store hop for the (wide) pixels column — the right shape
    when no other stage consumes raw pixels. Output is identical to
    ``ImageDecoder`` → ``FeatureExtractor``.
    """

    def __init__(
        self,
        payload_col: str = "payload",
        strict: bool = False,
        size: tuple = (8, 8),
        dim: int = FEATURE_DIM,
    ):
        self._decode = ImageDecoder(payload_col=payload_col, strict=strict, size=size)
        self._feat = FeatureExtractor(dim=dim)

    def __call__(self, batch: pa.Table) -> pa.Table:
        return self._feat(self._decode(batch))


class FrameSampler:
    """Actor-pool stage for video payloads: emit one row per sampled
    frame (flat_map-style expansion inside map_batches)."""

    def __init__(self, payload_col: str = "payload", frames_per_video: int = 4):
        self.payload_col = payload_col
        self.k = frames_per_video

    def __call__(self, batch: pa.Table) -> pa.Table:
        refs, frames, payloads = [], [], []
        ref_col = batch["media_ref"].to_pylist()
        for ref, p in zip(ref_col, batch[self.payload_col].to_pylist()):
            for f in range(self.k):
                refs.append(ref)
                frames.append(f)
                # fake frame extraction: deterministic slice of payload
                chunk = len(p) // self.k or 1
                payloads.append(p[f * chunk : (f + 1) * chunk] or p[:1])
        return pa.table(
            {
                "media_ref": pa.array(refs, pa.string()),
                "frame": pa.array(frames, pa.int32()),
                "payload": pa.array(payloads, pa.binary()),
            }
        )


def synth_media_dataset(
    n: int, kind: str = "image", payload_bytes: int = 256, fmt: str = "raw"
) -> Dataset:
    """Deterministic synthetic media table (binary payloads).

    ``fmt="raw"`` emits opaque hash-derived bytes (exercises the fake
    decoder); ``fmt="png"`` emits REAL 16×16 grayscale PNGs (unique,
    id-derived pixels); ``fmt="wav"`` emits REAL 0.1-second PCM16 WAVs
    (id-derived tone) — both real formats run the pure-stdlib codecs
    end-to-end.
    """

    import ray.data

    def gen(batch: dict) -> pa.Table:
        ids = np.asarray(batch["id"], dtype=np.int64)
        if fmt == "wav":
            t = np.arange(1600, dtype=np.float32) / 16_000.0
            payloads = [
                wav_encode(
                    0.5 * np.sin(2 * np.pi * (200.0 + (i % 97) * 20.0) * t),
                    sample_rate=16_000,
                )
                for i in ids
            ]
        elif fmt == "png":
            payloads = []
            for i in ids:
                seed = hashlib.sha256(f"media-{kind}-{i}".encode()).digest()
                px = np.frombuffer(
                    (seed * 8)[: 16 * 16], dtype=np.uint8
                ).reshape(16, 16)
                payloads.append(png_encode(px))
        else:
            payloads = [
                (
                    hashlib.sha256(f"media-{kind}-{i}".encode()).digest()
                    * (payload_bytes // 32 + 1)
                )[:payload_bytes]
                for i in ids
            ]
        return pa.table(
            {
                "media_ref": pa.array([f"media://cat/{i % 10_000:08d}" for i in ids]),
                "kind": pa.array([kind] * len(ids)),
                "payload": pa.array(payloads, pa.binary()),
            }
        )

    return ray.data.range(n).map_batches(gen, batch_format="numpy")


def decode_pipeline(
    media: Dataset,
    concurrency: int = 4,
    batch_size: int | None = None,
    num_cpus: float = 0.5,
    fused: bool = True,
) -> Dataset:
    """media table → decode → features.

    ``fused=True`` (default) runs both steps in ONE actor pool
    (:class:`DecodeAndFeature`) — half the pool cold-start, no
    object-store hop for the wide pixels column. ``fused=False`` keeps
    the two-pool layout for pipelines that tap the pixels column
    between the stages.

    Size ``concurrency × num_cpus`` per stage so the pool(s) plus the
    upstream read tasks fit the node — actor pools that reserve every
    CPU deadlock the streaming executor (the read can never run).
    """
    batch_size = batch_size or 1024
    # max_restarts=0: the stages are deterministic and Ray Data's actor
    # pool replaces dead workers itself; the default (restartable actors
    # whose constructor args live in the object store) logs a restart-
    # will-fail error per actor (ray#53727)
    if fused:
        return media.map_batches(
            DecodeAndFeature,
            batch_format="pyarrow",
            batch_size=batch_size,
            concurrency=concurrency,
            num_cpus=num_cpus,
            max_restarts=0,
        )
    decoded = media.map_batches(
        ImageDecoder,
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
        num_cpus=num_cpus,
        max_restarts=0,
    )
    return decoded.map_batches(
        FeatureExtractor,
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
        num_cpus=num_cpus,
        max_restarts=0,
    )
