"""Parameter store, deterministic init streams, and checkpoint persistence.

Checkpoint layout (all integers little-endian): a header record, then the
store block.

    magic   4 bytes  b"NNCK"
    version u32      format version (currently 1)
    length  u32      byte length of the header text
    header  length bytes, utf-8 (what the store was built for)
    magic   4 bytes  b"NNPS"
    version u32      format version (currently 1)
    count   u32      number of entries
    entry*  count times:
        key_len u32
        key     key_len bytes, utf-8
        rank    u32
        dims    rank * u32
        data    prod(dims) * f32, little-endian, C order

Entries are written in store insertion order; loading restores that order.
Keys ending in "/mean" or "/var" are running-statistic buffers and are not
trainable.
"""

from __future__ import annotations

import hashlib
import struct
from pathlib import Path

import numpy as np

from ..files import write_atomic

HEADER_MAGIC = b"NNCK"
MAGIC = b"NNPS"
FORMAT_VERSION = 1

BUFFER_SUFFIXES = ("/mean", "/var")


def stream_key(*names: object) -> int:
    """Map a tuple of names to a stable 64-bit integer for RNG seeding."""
    h = hashlib.blake2b(digest_size=8)
    for name in names:
        h.update(repr(name).encode("utf-8"))
        h.update(b"\x1f")
    return int.from_bytes(h.digest(), "little")


def named_rng(seed: int, *names: object) -> np.random.Generator:
    """Deterministic generator for a named stream under a global seed."""
    return np.random.default_rng(np.random.SeedSequence([seed & 0xFFFFFFFF, stream_key(*names)]))


class ParamStore:
    """Ordered map from string keys to tensors with gradient accumulators.

    Values are stored at `dtype` (float32 for training, float64 for gradient
    checks). Gradients live in a parallel map filled by Tape.backward and
    cleared by zero_grads.
    """

    def __init__(self, seed: int = 0, dtype=np.float32):
        self.seed = seed
        self.dtype = np.dtype(dtype)
        self._values: dict[str, np.ndarray] = {}
        self._grads: dict[str, np.ndarray] = {}

    def __contains__(self, key: str) -> bool:
        return key in self._values

    def __len__(self) -> int:
        return len(self._values)

    def keys(self) -> list[str]:
        return list(self._values)

    def items(self):
        """(key, value array) pairs in insertion order, as a live view."""
        return self._values.items()

    @staticmethod
    def is_buffer(key: str) -> bool:
        return key.endswith(BUFFER_SUFFIXES)

    def trainable_keys(self) -> list[str]:
        return [k for k in self._values if not self.is_buffer(k)]

    def create(self, key: str, shape: tuple[int, ...], init: str = "zeros", fan_in: int | None = None) -> np.ndarray:
        """Create a parameter if absent and return its value array.

        init: "zeros", "ones", or "normal" (fan-in scaled Gaussian, std =
        1/sqrt(fan_in), stream keyed by (seed, key) so creation order does
        not matter).
        """
        if key in self._values:
            existing = self._values[key]
            if existing.shape != tuple(shape):
                raise ValueError(f"parameter {key!r} exists with shape {existing.shape}, requested {tuple(shape)}")
            return existing
        if init == "zeros":
            value = np.zeros(shape, dtype=self.dtype)
        elif init == "ones":
            value = np.ones(shape, dtype=self.dtype)
        elif init == "normal":
            if not fan_in or fan_in <= 0:
                raise ValueError(f"normal init for {key!r} needs a positive fan_in")
            rng = named_rng(self.seed, "init", key)
            value = (rng.standard_normal(shape) / np.sqrt(fan_in)).astype(self.dtype)
        elif init == "identity":
            if len(shape) != 2 or shape[0] != shape[1]:
                raise ValueError(f"identity init for {key!r} needs a square 2-d shape, got {tuple(shape)}")
            value = np.eye(shape[0], dtype=self.dtype)
        else:
            raise ValueError(f"unknown init {init!r}")
        self._values[key] = value
        return value

    def get(self, key: str) -> np.ndarray:
        if key not in self._values:
            raise KeyError(f"unknown parameter {key!r}")
        return self._values[key]

    def set(self, key: str, value: np.ndarray) -> None:
        if key not in self._values:
            raise KeyError(f"unknown parameter {key!r}")
        if self._values[key].shape != value.shape:
            raise ValueError(f"shape mismatch for {key!r}")
        self._values[key] = np.asarray(value, dtype=self.dtype)

    def grad(self, key: str) -> np.ndarray | None:
        return self._grads.get(key)

    def grad_keys(self) -> list[str]:
        return list(self._grads)

    def accumulate_grad(self, key: str, grad: np.ndarray) -> None:
        if key not in self._values:
            raise KeyError(f"gradient for unknown parameter {key!r}")
        if self.is_buffer(key):
            raise ValueError(f"gradient accumulated into buffer {key!r}")
        if key in self._grads:
            self._grads[key] = (self._grads[key].astype(np.float64) + grad).astype(self.dtype)
        else:
            self._grads[key] = np.asarray(grad, dtype=self.dtype)

    def zero_grads(self) -> None:
        self._grads.clear()

    def scale_grads(self, factor: float) -> None:
        for key in self._grads:
            self._grads[key] = (self._grads[key] * factor).astype(self.dtype)

    def astype(self, dtype) -> "ParamStore":
        """Copy of the store at another dtype (used by the FD oracle)."""
        other = ParamStore(seed=self.seed, dtype=dtype)
        for key, value in self._values.items():
            other._values[key] = value.astype(dtype)
        return other


def save_checkpoint(store: ParamStore, path: str | Path, header: str) -> None:
    """Write the header record and the store in the binary format."""
    raw = header.encode("utf-8")
    chunks = [
        HEADER_MAGIC + struct.pack("<II", FORMAT_VERSION, len(raw)) + raw,
        MAGIC + struct.pack("<II", FORMAT_VERSION, len(store)),
    ]
    for key in store.keys():
        value = np.ascontiguousarray(store.get(key), dtype=np.float32)
        raw_key = key.encode("utf-8")
        chunks.append(struct.pack("<I", len(raw_key)) + raw_key)
        chunks.append(struct.pack("<I", value.ndim) + struct.pack(f"<{value.ndim}I", *value.shape))
        chunks.append(value.astype("<f4").tobytes(order="C"))
    write_atomic(path, b"".join(chunks))


def load_checkpoint(path: str | Path) -> tuple[ParamStore, str]:
    """Read a checkpoint; returns (store, header text)."""
    raw = Path(path).read_bytes()
    offset = 0

    def take(n: int) -> bytes:
        nonlocal offset
        if offset + n > len(raw):
            raise ValueError(f"truncated checkpoint {path} at byte {offset}")
        out = raw[offset : offset + n]
        offset += n
        return out

    def block(magic: bytes) -> int:
        found = take(4)
        if found != magic:
            raise ValueError(f"bad checkpoint magic {found!r} in {path}, expected {magic!r}")
        version, size = struct.unpack("<II", take(8))
        if version != FORMAT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version} in {path}")
        return size

    def text(n: int) -> str:
        try:
            return take(n).decode("utf-8")
        except UnicodeDecodeError as e:
            raise ValueError(f"text in checkpoint {path} at byte {offset - n} is not utf-8") from e

    header = text(block(HEADER_MAGIC))
    count = block(MAGIC)
    store = ParamStore()
    for _ in range(count):
        (key_len,) = struct.unpack("<I", take(4))
        key = text(key_len)
        (rank,) = struct.unpack("<I", take(4))
        dims = struct.unpack(f"<{rank}I", take(4 * rank)) if rank else ()
        size = int(np.prod(dims)) if dims else 1
        data = np.frombuffer(take(4 * size), dtype="<f4").reshape(dims).astype(np.float32)
        if key in store:
            raise ValueError(f"duplicate key {key!r} in checkpoint {path}")
        store._values[key] = data
    if offset != len(raw):
        raise ValueError(f"trailing bytes in checkpoint {path}")
    return store, header
