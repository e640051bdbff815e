"""Schema-versioned binary trace format with mmap streaming readers.

The paper evaluates on 78–100 M-request CDN traces; text formats (LRB /
CSV) and Python ``Request`` lists cannot carry that scale — parsing alone
dominates replay, and a materialised list of 100 M requests is tens of GB
of objects.  This module defines the repo's on-disk trace interchange
format, built for zero-copy streaming:

* **fixed-width little-endian records** — ``time: i64, key: i64,
  size: u64`` (24 bytes per request, no padding), so a trace file is a
  single :data:`RECORD_DTYPE` numpy array that can be ``mmap``-ed and
  sliced without parsing;
* **an 80-byte header** — magic, format version, record count, key-space
  statistics (exact min/max key, request-byte total, max object size, plus
  SHARDS-sampled *unique-object* and *working-set-byte* estimates — the
  two numbers cache-sizing needs, collected in bounded memory while
  writing), and a CRC32 checksum over the record payload;
* **one canonical error** — every malformed input (truncated header,
  truncated tail record, bad magic, unsupported version, checksum
  mismatch, trailing bytes) raises :class:`TraceFormatError` carrying the
  offending ``path`` and byte ``offset``; a reader never crashes with a
  stray ``struct.error`` and never silently yields a partial trace.

Versioning rules (see ``docs/trace_format.md``): the record layout and the
meaning of existing header fields are frozen per ``version``; any change
to either bumps :data:`FORMAT_VERSION`, and readers reject versions they
do not know rather than guessing.  ``header_size`` is stored explicitly so
a future version may *append* header fields without moving the payload.

:class:`BinTraceWriter` accepts numpy chunks (the streaming generators
yield straight into it); :class:`BinTraceReader` memory-maps the payload
and exposes :meth:`~BinTraceReader.iter_chunks` (structure-of-arrays
chunks for the batch engine) and :meth:`~BinTraceReader.stream_requests`
(:class:`~repro.sim.request.Request` objects for the rich engine) — in
both cases no full-trace list ever lives in RAM.
"""

from __future__ import annotations

import os
import struct
import zlib
from pathlib import Path
from typing import Iterable, Iterator, Optional, Tuple, Union

import numpy as np

from repro.hashing import splitmix64_array
from repro.sim.request import Request, Trace

__all__ = [
    "FORMAT_VERSION",
    "MAGIC",
    "RECORD_DTYPE",
    "RECORD_SIZE",
    "TraceFormatError",
    "BinTraceWriter",
    "BinTraceReader",
    "write_bin",
    "read_bin",
    "is_bin_trace",
]

PathLike = Union[str, Path]

#: First 8 bytes of every trace file.
MAGIC = b"SCIPTRC1"
#: Current format version; bump on any record-layout or field-meaning change.
FORMAT_VERSION = 1
#: Fixed header size for version 1 (stored in the header for forward compat).
HEADER_SIZE = 80
#: ``time, key, size`` — three 8-byte little-endian fields, no padding.
RECORD_DTYPE = np.dtype([("time", "<i8"), ("key", "<i8"), ("size", "<u8")])
RECORD_SIZE = RECORD_DTYPE.itemsize  # 24

# magic, version, header_size, count, key_min, key_max, total_bytes,
# max_size, unique_est, wss_est, checksum, reserved
_HEADER = struct.Struct("<8sIIQqqQQQQII")
assert _HEADER.size == HEADER_SIZE

#: SHARDS sampler bound: at most this many keys tracked while writing.
_SAMPLE_CAP = 8192
_U64 = np.uint64
_FULL_RATE = 1 << 64


class TraceFormatError(ValueError):
    """Canonical malformed-binary-trace error.

    Attributes
    ----------
    path:
        The offending file.
    offset:
        Byte offset of the problem (0 for whole-header issues).
    """

    def __init__(self, path: PathLike, offset: int, message: str):
        self.path = str(path)
        self.offset = int(offset)
        super().__init__(f"{self.path}: {message} (offset {self.offset})")


class _ShardsSampler:
    """Bounded-memory distinct-key statistics (SHARDS-max).

    Tracks ``{key: last size}`` for keys whose 64-bit hash falls below an
    adaptive threshold.  The threshold halves whenever the sample exceeds
    :data:`_SAMPLE_CAP`, so memory stays bounded while the expansion factor
    ``2**64 / threshold`` turns sample counts into whole-trace estimates —
    exact as long as the threshold never dropped.
    """

    def __init__(self) -> None:
        self.threshold = _FULL_RATE
        self.sample: dict = {}

    def update(self, keys: np.ndarray, sizes: np.ndarray) -> None:
        h = splitmix64_array(keys.astype(np.int64).view(np.uint64))
        if self.threshold < _FULL_RATE:
            mask = h < _U64(self.threshold)
            keys, sizes = keys[mask], sizes[mask]
        for k, s in zip(keys.tolist(), sizes.tolist()):
            self.sample[k] = s
        while len(self.sample) > _SAMPLE_CAP:
            self.threshold >>= 1
            t = _U64(self.threshold)
            kept = np.fromiter(self.sample, dtype=np.int64, count=len(self.sample))
            keep_mask = splitmix64_array(kept.view(np.uint64)) < t
            self.sample = {
                int(k): self.sample[int(k)] for k in kept[keep_mask].tolist()
            }

    @property
    def factor(self) -> float:
        return _FULL_RATE / self.threshold

    def unique_estimate(self) -> int:
        return round(len(self.sample) * self.factor)

    def wss_estimate(self) -> int:
        return round(sum(self.sample.values()) * self.factor)


class BinTraceWriter:
    """Streaming binary-trace writer (context manager).

    Chunks of parallel numpy arrays go in via :meth:`write_chunk`; the
    header (count, key-space stats, checksum) is finalised on
    :meth:`close`.  A writer abandoned mid-stream leaves a file whose
    header ``count`` is 0 but whose payload is not — which the reader
    rejects — so partially-written traces cannot be read as valid.
    """

    def __init__(self, path: PathLike):
        self.path = Path(path)
        self._fh = open(self.path, "wb")
        self._fh.write(b"\x00" * HEADER_SIZE)  # placeholder until close()
        self._crc = 0
        self.count = 0
        self._key_min: Optional[int] = None
        self._key_max: Optional[int] = None
        self._total_bytes = 0
        self._max_size = 0
        self._sampler = _ShardsSampler()
        self._closed = False

    # -- writing ----------------------------------------------------------
    def write_chunk(
        self,
        times: Optional[np.ndarray],
        keys: np.ndarray,
        sizes: np.ndarray,
    ) -> None:
        """Append one structure-of-arrays chunk.

        ``times`` may be ``None`` for the common synthetic case where the
        timestamp is the request index.  Sizes must be ``>= 1`` (the
        :class:`~repro.sim.request.Request` contract).
        """
        if self._closed:
            raise ValueError(f"writer for {self.path} is closed")
        keys = np.asarray(keys, dtype=np.int64)
        sizes_in = np.asarray(sizes)
        if sizes_in.dtype.kind not in "iu":
            raise TypeError(f"sizes must be integers, got dtype {sizes_in.dtype}")
        m = len(keys)
        if len(sizes_in) != m:
            raise ValueError(f"keys/sizes length mismatch: {m} vs {len(sizes_in)}")
        if m == 0:
            return
        if times is None:
            times = np.arange(self.count, self.count + m, dtype=np.int64)
        else:
            times = np.asarray(times, dtype=np.int64)
            if len(times) != m:
                raise ValueError(f"keys/times length mismatch: {m} vs {len(times)}")
        sizes = sizes_in.astype(np.uint64)
        if sizes_in.dtype.kind == "i" and bool((sizes_in < 1).any()):
            raise ValueError("request sizes must be >= 1 byte")
        if bool((sizes < 1).any()):
            raise ValueError("request sizes must be >= 1 byte")

        rec = np.empty(m, dtype=RECORD_DTYPE)
        rec["time"] = times
        rec["key"] = keys
        rec["size"] = sizes
        buf = rec.tobytes()
        self._crc = zlib.crc32(buf, self._crc)
        self._fh.write(buf)

        self.count += m
        kmin = int(keys.min())
        kmax = int(keys.max())
        self._key_min = kmin if self._key_min is None else min(self._key_min, kmin)
        self._key_max = kmax if self._key_max is None else max(self._key_max, kmax)
        self._total_bytes += int(sizes.sum(dtype=np.uint64))
        self._max_size = max(self._max_size, int(sizes.max()))
        self._sampler.update(keys, sizes)

    def write_requests(self, requests: Iterable[Request], chunk_size: int = 65536) -> None:
        """Append request objects, internally batched into array chunks."""
        times: list = []
        keys: list = []
        sizes: list = []
        for req in requests:
            times.append(req.time)
            keys.append(req.key)
            sizes.append(req.size)
            if len(keys) >= chunk_size:
                self.write_chunk(
                    np.asarray(times, dtype=np.int64),
                    np.asarray(keys, dtype=np.int64),
                    np.asarray(sizes, dtype=np.uint64),
                )
                times, keys, sizes = [], [], []
        if keys:
            self.write_chunk(
                np.asarray(times, dtype=np.int64),
                np.asarray(keys, dtype=np.int64),
                np.asarray(sizes, dtype=np.uint64),
            )

    # -- finalisation -----------------------------------------------------
    def header_dict(self) -> dict:
        """The header fields as they would be written right now."""
        return {
            "version": FORMAT_VERSION,
            "count": self.count,
            "key_min": self._key_min if self._key_min is not None else 0,
            "key_max": self._key_max if self._key_max is not None else 0,
            "total_bytes": self._total_bytes,
            "max_size": self._max_size,
            "unique_estimate": self._sampler.unique_estimate(),
            "wss_estimate": self._sampler.wss_estimate(),
            "checksum": self._crc & 0xFFFFFFFF,
        }

    def close(self) -> None:
        if self._closed:
            return
        h = self.header_dict()
        self._fh.seek(0)
        self._fh.write(
            _HEADER.pack(
                MAGIC,
                FORMAT_VERSION,
                HEADER_SIZE,
                h["count"],
                h["key_min"],
                h["key_max"],
                h["total_bytes"],
                h["max_size"],
                h["unique_estimate"],
                h["wss_estimate"],
                h["checksum"],
                0,
            )
        )
        self._fh.close()
        self._closed = True

    def __enter__(self) -> "BinTraceWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class BinTraceReader:
    """mmap-backed reader over a binary trace file.

    The payload is exposed as a read-only structured :func:`numpy.memmap`
    — opening a 100 M-request (2.4 GB) trace touches only the header, and
    chunked iteration streams pages through the OS cache without ever
    materialising the trace.

    Parameters
    ----------
    path:
        A file written by :class:`BinTraceWriter`.
    verify_checksum:
        Recompute the payload CRC32 on open (one full sequential read).
        Off by default — opening must stay O(1); call :meth:`verify`
        explicitly when integrity matters more than latency.
    """

    def __init__(self, path: PathLike, verify_checksum: bool = False):
        self.path = Path(path)
        self.name = self.path.stem
        try:
            fh = open(self.path, "rb")
        except OSError:
            raise
        with fh:
            header = fh.read(HEADER_SIZE)
            if len(header) < HEADER_SIZE:
                raise TraceFormatError(
                    self.path,
                    len(header),
                    f"truncated header: {len(header)} bytes, need {HEADER_SIZE}",
                )
            (
                magic,
                version,
                header_size,
                count,
                key_min,
                key_max,
                total_bytes,
                max_size,
                unique_est,
                wss_est,
                checksum,
                _reserved,
            ) = _HEADER.unpack(header)
            if magic != MAGIC:
                raise TraceFormatError(
                    self.path, 0, f"bad magic {magic!r}, expected {MAGIC!r}"
                )
            if version != FORMAT_VERSION:
                raise TraceFormatError(
                    self.path,
                    8,
                    f"unsupported format version {version} (reader supports "
                    f"{FORMAT_VERSION})",
                )
            if header_size < HEADER_SIZE:
                raise TraceFormatError(
                    self.path, 12, f"header_size {header_size} < {HEADER_SIZE}"
                )
            file_size = os.fstat(fh.fileno()).st_size
        payload = file_size - header_size
        expected = count * RECORD_SIZE
        if payload != expected:
            full = header_size + (max(payload, 0) // RECORD_SIZE) * RECORD_SIZE
            if payload < expected:
                msg = (
                    f"truncated payload: header promises {count} records "
                    f"({expected} bytes), file holds {payload}"
                )
            else:
                msg = (
                    f"trailing bytes after payload: header promises {count} "
                    f"records ({expected} bytes), file holds {payload}"
                )
            raise TraceFormatError(self.path, min(full, file_size), msg)

        self.count = count
        self.key_min = key_min
        self.key_max = key_max
        self.total_bytes = total_bytes
        self.max_size = max_size
        self.unique_estimate = unique_est
        self.wss_estimate = wss_est
        self.checksum = checksum
        self._header_size = header_size
        if count:
            self._records = np.memmap(
                self.path,
                dtype=RECORD_DTYPE,
                mode="r",
                offset=header_size,
                shape=(count,),
            )
        else:
            self._records = np.empty(0, dtype=RECORD_DTYPE)
        if verify_checksum:
            self.verify()

    # -- integrity --------------------------------------------------------
    def verify(self, chunk_bytes: int = 4 << 20) -> None:
        """Recompute the payload CRC32; raise :class:`TraceFormatError` on
        mismatch."""
        crc = 0
        with open(self.path, "rb") as fh:
            fh.seek(self._header_size)
            while True:
                buf = fh.read(chunk_bytes)
                if not buf:
                    break
                crc = zlib.crc32(buf, crc)
        if (crc & 0xFFFFFFFF) != self.checksum:
            raise TraceFormatError(
                self.path,
                self._header_size,
                f"checksum mismatch: header 0x{self.checksum:08x}, "
                f"payload 0x{crc & 0xFFFFFFFF:08x}",
            )

    # -- access -----------------------------------------------------------
    def __len__(self) -> int:
        return self.count

    @property
    def records(self) -> np.ndarray:
        """The raw structured record array (mmap view)."""
        return self._records

    def iter_chunks(
        self, chunk_size: int = 1 << 20
    ) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Yield ``(times, keys, sizes)`` array chunks (views, no copy)."""
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        for lo in range(0, self.count, chunk_size):
            block = self._records[lo : lo + chunk_size]
            yield block["time"], block["key"], block["size"]

    def stream_requests(self, chunk_size: int = 65536) -> Iterator[Request]:
        """Yield :class:`Request` objects, materialising one chunk at a
        time — the rich engine's streaming entry point."""
        for times, keys, sizes in self.iter_chunks(chunk_size):
            for t, k, s in zip(times.tolist(), keys.tolist(), sizes.tolist()):
                yield Request(t, k, s)

    def __iter__(self) -> Iterator[Request]:
        return self.stream_requests()

    def to_trace(self, name: Optional[str] = None) -> Trace:
        """Materialise the whole file as a :class:`Trace` (small traces /
        compatibility; defeats the purpose at paper scale)."""
        return Trace(list(self.stream_requests()), name=name or self.name)

    def summary(self) -> dict:
        """Header-level summary (no payload scan)."""
        return {
            "name": self.name,
            "path": str(self.path),
            "version": FORMAT_VERSION,
            "total_requests": self.count,
            "key_min": self.key_min,
            "key_max": self.key_max,
            "total_bytes": self.total_bytes,
            "max_object_size": self.max_size,
            "unique_estimate": self.unique_estimate,
            "wss_estimate": self.wss_estimate,
            "checksum": f"0x{self.checksum:08x}",
        }

    def close(self) -> None:
        rec = self._records
        self._records = np.empty(0, dtype=RECORD_DTYPE)
        self.count = 0
        del rec

    def __enter__(self) -> "BinTraceReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def write_bin(trace, path: PathLike) -> dict:
    """Write a trace to the binary format; returns the final header dict.

    ``trace`` may be a :class:`Trace`, any iterable of :class:`Request`,
    or an iterable of ``(times, keys, sizes)`` array chunks (the streaming
    generators' shape).
    """
    with BinTraceWriter(path) as w:
        if isinstance(trace, Trace):
            w.write_requests(trace)
        else:
            it = iter(trace)
            first = next(it, None)
            if first is None:
                pass
            elif isinstance(first, Request):
                w.write_requests(_chain_one(first, it))
            else:
                times, keys, sizes = first
                w.write_chunk(times, keys, sizes)
                for times, keys, sizes in it:
                    w.write_chunk(times, keys, sizes)
        return w.header_dict()


def _chain_one(first, rest):
    yield first
    yield from rest


def read_bin(path: PathLike, name: Optional[str] = None, verify: bool = False) -> Trace:
    """Read a whole binary trace into a :class:`Trace` (small traces)."""
    with BinTraceReader(path, verify_checksum=verify) as reader:
        return reader.to_trace(name=name)


def is_bin_trace(path: PathLike) -> bool:
    """Cheap sniff: does the file start with the trace magic?"""
    try:
        with open(path, "rb") as fh:
            return fh.read(len(MAGIC)) == MAGIC
    except OSError:
        return False
