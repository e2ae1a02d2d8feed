"""Mergeable sketches: t-digest (quantiles), HyperLogLog (distinct),
Count-Min (frequencies) and Misra-Gries (frequent items).

Public-knowledge algorithms: Dunning & Ertl, "Computing extremely
accurate quantiles using t-digests" (arXiv:1902.04023) and Flajolet et
al., "HyperLogLog: the analysis of a near-optimal cardinality estimation
algorithm" (AofA 2007), with the standard linear-counting small-range
correction. Implemented from the papers on numpy — no external libs.

t-digest is the engine's one quantile sketch. The t-digest, HLL and
Count-Min sizes are their constructor defaults (δ = 100, p = 12,
2^14 × 5); no operator takes them as a parameter. Misra-Gries' ``m``
sets the n/(m+1) frequency threshold a heavy-hitter operator reports
at, so those operators take it. The size is written into every
payload, so a payload decodes to the sketch that wrote it.

All merges are commutative and associative — safe under Ray task
retries because the pipeline *emits partials as data* (one sketch row
per batch) rather than mutating actor state (SURVEY.md §7.4 "prefer
emit-as-rows"). Serialization is a compact bytes payload so partial
sketches travel as ordinary Arrow binary columns through a groupby
merge.
"""

from __future__ import annotations

import struct

import numpy as np
import pandas as pd


class TDigest:
    """Merging t-digest on the logit scale function
    k(q) = (7/16)·δ·ln(q/(1−q)) (Dunning & Ertl's k2, unnormalized).

    A compress puts the centroids in stable sorted order and merges each
    run whose mid-rank quantiles fall in one unit of k: one
    ``np.add.reduceat``, no per-value loop. A compress of unit-weight
    values only (every per-batch partial) sorts the values themselves,
    ~10× cheaper than a stable argsort and two gathers, then restores
    the zero run's input order, the only place where the two orders can
    differ (±0.0); weighted merges keep the stable argsort. The size
    bound it keeps, for n unit-weight values:

    * at most (7/8)·δ·ln(2n) + 1 centroids, since the mid-rank quantiles
      span k ∈ ±(7/16)·δ·ln(2n − 1); the tails, where one unit holds
      under one value, keep their values as singletons, so δ = 100 and
      n = 10⁶ give about 970;
    * a centroid around quantile q spans at most one unit of k, so it
      weighs about 16·n·q(1−q)/(7δ), 4/7 of the k1-style bound
      4·n·q(1−q)/δ; a single input centroid heavier than that (a merged
      partial) is kept whole.
    """

    #: k-units per δ·ln(q/(1−q)); 1/4 would give one unit the k1-style
    #: bound's weight, 7/16 keeps the mean rank error at or below a
    #: greedy merge under that bound, on one-shot and merged inputs
    K_UNIT = 7 / 16

    def __init__(self, delta: int = 100):
        self.delta = delta
        self.means = np.empty(0, dtype=np.float64)
        self.weights = np.empty(0, dtype=np.float64)
        self._buf_means: list[np.ndarray] = []
        self._buf_weights: list[np.ndarray] = []
        self._buffered = 0

    # -- building -------------------------------------------------------
    def add(self, values: np.ndarray, weights: np.ndarray | None = None) -> None:
        values = np.asarray(values, dtype=np.float64)
        keep = ~np.isnan(values)
        values = values[keep]
        if values.size == 0:
            return
        self._buf_means.append(values)
        self._buf_weights.append(
            np.ones_like(values)
            if weights is None
            else np.asarray(weights, np.float64)[keep]
        )
        self._buffered += values.size
        if self._buffered > 32 * self.delta:
            self._compress()

    def _compress(self) -> None:
        if not self._buf_means and self.means.size <= 2 * self.delta:
            return
        means = np.concatenate([self.means] + self._buf_means)
        weights = np.concatenate([self.weights] + self._buf_weights)
        self._buf_means, self._buf_weights, self._buffered = [], [], 0
        if (weights == 1.0).all():
            # unit weights: the sorted values alone are the stable order,
            # but for the zero run, where ±0.0 compare equal; put its
            # values back in input order
            zeros = means[means == 0.0]
            means = np.sort(means)
            lo = np.searchsorted(means, 0.0)
            means[lo : lo + zeros.size] = zeros
        else:
            order = np.argsort(means, kind="stable")
            means, weights = means[order], weights[order]
        cum = np.cumsum(weights)
        q = (cum - weights / 2) / cum[-1]
        k = np.floor(self.K_UNIT * self.delta * np.log(q / (1.0 - q)))
        start = np.flatnonzero(np.r_[True, k[1:] != k[:-1]])
        self.weights = np.add.reduceat(weights, start)
        self.means = np.add.reduceat(means * weights, start) / self.weights

    def merge(self, other: "TDigest") -> "TDigest":
        other._compress()
        if other.means.size:
            self.add(other.means, other.weights)
        self._compress()
        return self

    # -- querying -------------------------------------------------------
    @property
    def count(self) -> float:
        return float(self.weights.sum()) + sum(w.sum() for w in self._buf_weights)

    def quantile(self, q: float) -> float:
        self._compress()
        if self.means.size == 0:
            return float("nan")
        if self.means.size == 1:
            return float(self.means[0])
        cum = np.cumsum(self.weights) - self.weights / 2
        target = q * self.weights.sum()
        return float(np.interp(target, cum, self.means))

    def quantiles(self, qs) -> np.ndarray:
        return np.array([self.quantile(q) for q in qs])

    # -- serialization --------------------------------------------------
    def to_bytes(self) -> bytes:
        self._compress()
        head = struct.pack("<Iq", self.delta, self.means.size)
        return head + self.means.tobytes() + self.weights.tobytes()

    @classmethod
    def from_bytes(cls, b: bytes) -> "TDigest":
        delta, n = struct.unpack_from("<Iq", b, 0)
        td = cls(delta)
        off = struct.calcsize("<Iq")
        td.means = np.frombuffer(b, np.float64, n, off).copy()
        td.weights = np.frombuffer(b, np.float64, n, off + 8 * n).copy()
        return td


def _leading_pattern_rank(w: np.ndarray, bits: int) -> np.ndarray:
    """rho = position of the first 1-bit in the top `bits` bits of w, in
    1..bits+1 (vectorized; exact integer bit-length, no float log)."""
    bl = np.zeros(w.shape, dtype=np.int64)
    v = w.copy()
    for shift in (32, 16, 8, 4, 2, 1):
        ge = v >= (np.uint64(1) << np.uint64(shift))
        bl[ge] += shift
        v[ge] >>= np.uint64(shift)
    bl[w > 0] += 1  # bit_length
    rho = bits - bl + 1
    rho[w == 0] = bits + 1
    return rho


class HyperLogLog:
    """Standard HLL with 2^p uint8 registers + linear counting."""

    def __init__(self, p: int = 12):
        self.p = p
        self.m = 1 << p
        self.registers = np.zeros(self.m, dtype=np.uint8)

    def add_hashes(self, h: np.ndarray) -> None:
        h = np.asarray(h, dtype=np.uint64)
        if h.size == 0:
            return
        idx = (h >> np.uint64(64 - self.p)).astype(np.int64)
        w = h & np.uint64((1 << (64 - self.p)) - 1)
        rho = _leading_pattern_rank(w, 64 - self.p).astype(np.uint8)
        np.maximum.at(self.registers, idx, rho)

    def merge(self, other: "HyperLogLog") -> "HyperLogLog":
        np.maximum(self.registers, other.registers, out=self.registers)
        return self

    def estimate(self) -> float:
        m = float(self.m)
        alpha = 0.7213 / (1 + 1.079 / m)
        est = alpha * m * m / np.sum(2.0 ** -self.registers.astype(np.float64))
        if est <= 2.5 * m:
            zeros = int(np.count_nonzero(self.registers == 0))
            if zeros:
                est = m * np.log(m / zeros)
        return float(est)

    def to_bytes(self) -> bytes:
        return struct.pack("<I", self.p) + self.registers.tobytes()

    @classmethod
    def from_bytes(cls, b: bytes) -> "HyperLogLog":
        (p,) = struct.unpack_from("<I", b, 0)
        hll = cls(p)
        hll.registers = np.frombuffer(b, np.uint8, hll.m, 4).copy()
        return hll


def hash_array(values, seed: int = 42) -> np.ndarray:
    """Stable vectorized 64-bit hash of an arrow/numpy/pandas array.

    polars' seeded hash is cross-process deterministic (for a fixed
    polars version — pin it alongside this engine) and ~40× faster than
    pandas' hash_pandas_object on string columns; pandas is the fallback
    when polars is unavailable.

    Two calls with independent ``seed`` values give an effective
    128-bit hash pair — use that where a 64-bit birthday bound is not
    acceptable (e.g. exact distinct counts at billion-key scale)."""
    import pyarrow as pa

    try:
        import polars as pl

        if isinstance(values, pa.ChunkedArray):
            values = values.combine_chunks()
        if not isinstance(values, pa.Array):
            values = pa.array(values)
        return pl.from_arrow(values).hash(seed=seed).to_numpy().astype(np.uint64)
    except ImportError:  # pragma: no cover
        import pandas as pd

        if isinstance(values, (pa.Array, pa.ChunkedArray)):
            values = values.to_pandas()
        # hash_key is pandas' seeding mechanism (16-byte key string)
        return pd.util.hash_pandas_object(
            pd.Series(values), index=False, hash_key=f"{seed:016d}"[:16]
        ).to_numpy(dtype=np.uint64)


class CountMin:
    """Count-Min sketch (Cormode & Muthukrishnan, "An improved data
    stream summary: the count-min sketch and its applications",
    J. Algorithms 2005): approximate per-key frequencies with one-sided
    error — estimates NEVER undercount, and overcount by at most
    ε·N (ε = e/width) with probability ≥ 1-δ (δ = e^-depth).

    Mergeable (element-wise add), vectorized (``np.add.at`` scatter per
    row), serializable — the approximate heavy-hitter companion to the
    exact ``top_values`` operator for unbounded key domains. Row hashes
    derive from one 64-bit input hash via splitmix re-mixing (the same
    double-hash recipe as the Bloom filter)."""

    def __init__(self, width: int = 1 << 14, depth: int = 5):
        if width < 8 or depth < 1:
            raise ValueError("width must be ≥ 8 and depth ≥ 1")
        self.width = int(width)
        self.depth = int(depth)
        self.table = np.zeros((self.depth, self.width), dtype=np.int64)
        self.n = 0  # total added count

    def _positions(self, h: np.ndarray, row: int) -> np.ndarray:
        from data_linter_ray.state.bloom import _mix

        h1 = h.astype(np.uint64, copy=False)
        h2 = _mix(h1) | np.uint64(1)
        return ((h1 + np.uint64(row) * h2) % np.uint64(self.width)).astype(np.int64)

    def add_hashes(self, h: np.ndarray, counts: np.ndarray | None = None) -> None:
        c = (
            np.ones(len(h), dtype=np.int64)
            if counts is None
            else counts.astype(np.int64, copy=False)
        )
        for r in range(self.depth):
            np.add.at(self.table[r], self._positions(h, r), c)
        self.n += int(c.sum())

    def estimate_hashes(self, h: np.ndarray) -> np.ndarray:
        """→ int64[n] upper-biased frequency estimates (never under)."""
        est = np.full(len(h), np.iinfo(np.int64).max, dtype=np.int64)
        for r in range(self.depth):
            np.minimum(est, self.table[r][self._positions(h, r)], out=est)
        return est

    def merge(self, other: "CountMin") -> "CountMin":
        if (self.width, self.depth) != (other.width, other.depth):
            raise ValueError("cannot merge sketches of different geometry")
        self.table += other.table
        self.n += other.n
        return self

    def to_bytes(self) -> bytes:
        head = struct.pack("<qqq", self.width, self.depth, self.n)
        return head + np.ascontiguousarray(self.table).tobytes()

    @classmethod
    def from_bytes(cls, b: bytes) -> "CountMin":
        w, d, n = struct.unpack("<qqq", b[:24])
        cm = cls(w, d)
        cm.table = np.frombuffer(b[24:], dtype=np.int64).reshape(d, w).copy()
        cm.n = n
        return cm


class MisraGries:
    """Misra-Gries frequent-items summary (Misra & Gries, "Finding
    repeated elements", Sci. Comput. Program. 2(2), 1982): at most
    ``m`` (value, count) counters over a stream of n items. Guarantee:
    every value with true frequency > n/(m+1) is present, and each
    kept counter undercounts its true frequency by at most the total
    decrement D, where (m+1)*D <= n (every unit of decrement destroys
    m+1 units of stored mass and only n mass ever enters — the bound
    holds across ANY number of truncations and merges, which is what
    makes the summary mergeable with unchanged error: Agarwal, Cormode,
    Huang, Phillips, Wei & Yi, "Mergeable summaries", PODS 2012).

    Merge/ingest rule (vectorized — no per-item Python): pointwise
    counter sum, then if more than ``m`` counters remain, subtract the
    (m+1)-st largest counter value from all and keep the strictly
    positive ones. An exact value_counts table is itself a valid
    summary, so per-batch ingestion is one pandas groupby fold.
    """

    def __init__(self, m: int = 255):
        if m < 1:
            raise ValueError("m must be >= 1")
        self.m = int(m)
        self.counts = pd.Series(dtype=np.int64)
        self.n = 0  # total stream mass seen (for the n/(m+1) threshold)

    def _fold(self, other: pd.Series) -> None:
        # collapse duplicate labels FIRST: callers may concatenate
        # several exact partials (Ray blocks merge multiple per-batch
        # outputs), and pandas' non-unique-index add would split one
        # value's mass across counters — breaking the superset
        # guarantee (a heavy hitter could be truncated away)
        if not other.index.is_unique:
            other = other.groupby(level=0, sort=False).sum()
        s = (
            other
            if self.counts.empty
            else self.counts.add(other, fill_value=0).astype(np.int64)
        )
        if len(s) > self.m:
            # decrement by the (m+1)-st largest counter; values equal to
            # it die, so at most m strictly-greater counters survive
            e = np.partition(s.to_numpy(), -(self.m + 1))[-(self.m + 1)]
            s = s[s > e] - e
        self.counts = s

    def add_counts(self, values, counts) -> None:
        """Ingest an exact (values, counts) partial — e.g. one batch's
        ``value_counts`` output."""
        c = np.asarray(counts, dtype=np.int64)
        self._fold(pd.Series(c, index=pd.Index(values)))
        self.n += int(c.sum())

    def merge(self, other: "MisraGries") -> "MisraGries":
        if self.m != other.m:
            raise ValueError("cannot merge summaries of different m")
        self._fold(other.counts)
        self.n += other.n
        return self

    def candidates(self) -> list:
        """Values possibly exceeding the n/(m+1) frequency threshold —
        a guaranteed superset of the true heavy hitters."""
        return list(self.counts.index)

