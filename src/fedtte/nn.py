"""Minimal dense-tensor and layer substrate.

Everything the model module composes lives here: named parameter sets with a
canonical (lexicographic) ordering, the layer helpers the model does not
inline (embedding-gradient scatter, softmax, ReLU), plain SGD on
client-stacked tensors, a central-difference gradient-checking oracle, and a flat binary serialization
used for checkpoints and simulated uploads.

Tensors are plain float64 numpy arrays. A ParamSet is a ``dict[str, ndarray]``
treated as a value: operations return new dicts with new arrays and never
mutate their inputs, except sgd_step, which updates the private (C, ...)
stacks that training steps in lockstep. GradSet is the same shape of object,
keyed and shaped congruently with the ParamSet it differentiates. A
FlatStack is a ParamSet of C clients' (C, ...) tensors that are views into
one (C, P) buffer, so that a step can treat them as one tensor; it lays out
local training's models and gradients and the personal working set, and
gives the flat positions of a tensor's coordinates in its buffer. Columns
selects the coordinates of such a buffer that a step reads and writes.
"""

from __future__ import annotations

import functools
import hashlib
import math
import struct
from typing import Callable, Iterable

import numpy as np

ParamSet = dict[str, np.ndarray]
GradSet = dict[str, np.ndarray]

_MAGIC = b"FTTE"
_VERSION = 1


# ---------------------------------------------------------------------------
# deterministic RNG streams


def stable_hash(*keys: object) -> int:
    """128-bit integer from a sequence of keys, stable across processes.

    Built on blake2s over the string forms of the keys; never use Python's
    ``hash()`` for this (salted per process).
    """
    h = hashlib.blake2s()
    h.update("\x1f".join(str(k) for k in keys).encode("utf-8"))
    return int.from_bytes(h.digest()[:16], "little")


def spawn_rng(*keys: object) -> np.random.Generator:
    """Independent, reproducible generator for a purpose-keyed stream.

    Example: ``spawn_rng(seed, "dp", client_id, round_index)``.
    """
    return np.random.default_rng(np.random.SeedSequence(stable_hash(*keys)))


def init_uniform(shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) with fan_in = shape[0]."""
    fan_in = max(int(shape[0]), 1)
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(np.float64)


# ---------------------------------------------------------------------------
# ParamSet plumbing


def assert_congruent(a: ParamSet, b: ParamSet) -> None:
    if a.keys() != b.keys():
        only_a = sorted(a.keys() - b.keys())
        only_b = sorted(b.keys() - a.keys())
        raise ValueError(f"param key mismatch: only-left={only_a} only-right={only_b}")
    for k in a:
        if a[k].shape != b[k].shape:
            raise ValueError(f"shape mismatch for {k!r}: {a[k].shape} vs {b[k].shape}")


def clone_params(params: ParamSet) -> ParamSet:
    return {k: v.copy() for k, v in params.items()}


@functools.lru_cache(maxsize=8)
def _layout(shapes: tuple[tuple[str, tuple[int, ...]], ...]) -> tuple[tuple[tuple[str, int, tuple[int, ...]], ...], int]:
    """(name, start column, shape) per tensor of sorted (name, shape) pairs, and the width."""
    starts = np.cumsum([0] + [math.prod(shape) for _, shape in shapes]).tolist()
    return tuple((name, start, shape) for (name, shape), start in zip(shapes, starts)), starts[-1]


class Columns:
    """The coordinates of C clients' (C, P) tensors that a step reads and
    writes: every one (ALL_COLUMNS), or client c's columns per_client[c] of a
    (C, K) array, in which a column may repeat; positions are their flat
    positions in a C-contiguous (C, P) tensor, P = width."""

    def __init__(self, per_client: np.ndarray | None = None, width: int = 0):
        self.shape = None if per_client is None else (len(per_client), width)
        self.positions = None if per_client is None else per_client + width * np.arange(len(per_client))[:, None]

    def _flat(self, a: np.ndarray) -> np.ndarray:
        if a.shape != self.shape or not a.flags.c_contiguous:
            raise ValueError(f"columns of C-contiguous {self.shape} tensors, got {a.shape}")
        return a.reshape(-1)

    def read(self, a: np.ndarray) -> np.ndarray:
        """a itself for every column, else a (C, K) copy of the columns."""
        return a if self.positions is None else self._flat(a).take(self.positions)

    def write(self, a: np.ndarray, x: np.ndarray) -> None:
        """Store x, a read of a, back into a (nothing to do for every column)."""
        if self.positions is not None:
            self._flat(a)[self.positions] = x


ALL_COLUMNS = Columns()


class FlatStack(dict):
    """C clients' tensors as named (C, ...) views into one (C, P) buffer,
    laid out in sorted-name order, starting at zero. The views are the
    ParamSet that forward and backward passes read and write; buffer holds
    the same coordinates as one tensor, for a step that checks and updates
    them all at once. Row c of buffer is client c's coordinates; a tensor
    starts at column start[name]; positions(name) gives its coordinates'
    flat positions in buffer. buffer, when given, is an (n, P) float64
    array to lay the views over, its contents kept. cols names the columns
    that hold values: all, unless a writer (model.base_loss) says fewer.
    Local training's models and gradients and the personal working set
    (model.PersonalWorkingSet) are laid out by it."""

    def __init__(self, shapes: dict[str, tuple[int, ...]], n: int, buffer: np.ndarray | None = None):
        super().__init__()
        layout, width = _layout(tuple(sorted(shapes.items())))
        if buffer is None:
            buffer = np.zeros((n, width))
        elif buffer.shape != (n, width):
            raise ValueError(f"buffer of shape {buffer.shape} for {n} clients of {width} coordinates")
        self.buffer, self.cols, self.start = buffer, ALL_COLUMNS, {name: start for name, start, _ in layout}
        for name, start, shape in layout:
            self[name] = buffer[:, start : start + math.prod(shape)].reshape(n, *shape)

    def head(self, n: int) -> "FlatStack":
        """The first n clients: views into the first n rows of buffer."""
        out = FlatStack.__new__(FlatStack)
        out.update((name, v[:n]) for name, v in self.items())
        out.buffer, out.cols, out.start = self.buffer[:n], ALL_COLUMNS, self.start
        return out

    def positions(self, name: str) -> np.ndarray:
        """The (C, size) flat positions in buffer of the named tensor's
        coordinates: client c's k-th coordinate sits at c * P + start[name] + k."""
        n, width = self.buffer.shape
        return self.start[name] + np.arange(math.prod(self[name].shape[1:])) + width * np.arange(n)[:, None]


def zeros_stack(values: ParamSet) -> FlatStack:
    """Zeros congruent with C clients' (C, ...) stacked tensors, in one new buffer."""
    return FlatStack({k: v.shape[1:] for k, v in values.items()}, len(next(iter(values.values()))))


def _serialized(params: ParamSet):
    """serialize_params's bytes in pieces: a tensor that is C-contiguous
    little-endian float64 already is passed as it is, not copied."""
    yield _MAGIC + struct.pack("<II", _VERSION, len(params))
    for name in sorted(params):
        arr = np.asarray(params[name], dtype=np.float64)  # keeps a 0-d tensor 0-d
        raw_name = name.encode("utf-8")
        yield struct.pack("<I", len(raw_name)) + raw_name + struct.pack(f"<I{arr.ndim}I", arr.ndim, *arr.shape)
        yield np.ascontiguousarray(arr, dtype="<f8")


def serialize_params(params: ParamSet) -> bytes:
    """Flat binary form: header, then per name in lexicographic order:
    name length, name bytes, rank, dims, raw float64 little-endian data."""
    return b"".join(_serialized(params))


def deserialize_params(buf: bytes) -> ParamSet:
    """Inverse of serialize_params. A malformed or truncated blob raises
    ValueError naming the offset where it stops making sense."""
    pos = 0

    def take(size: int) -> int:
        """Claim the next `size` bytes and return their offset."""
        nonlocal pos
        if size > len(buf) - pos:
            raise ValueError(f"truncated parameter blob: {len(buf)} bytes, needs {size} more at offset {pos}")
        pos += size
        return pos - size

    if buf[:4] != _MAGIC:
        raise ValueError("bad magic in parameter blob")
    take(4)
    (version,) = struct.unpack_from("<I", buf, take(4))
    if version != _VERSION:
        raise ValueError(f"unsupported parameter format version {version}")
    (count,) = struct.unpack_from("<I", buf, take(4))
    out: ParamSet = {}
    for _ in range(count):
        (name_len,) = struct.unpack_from("<I", buf, take(4))
        start = take(name_len)
        name = buf[start : start + name_len].decode("utf-8")
        (rank,) = struct.unpack_from("<I", buf, take(4))
        shape = struct.unpack_from(f"<{rank}I", buf, take(4 * rank)) if rank else ()
        n = math.prod(shape)
        arr = np.frombuffer(buf, dtype="<f8", count=n, offset=take(8 * n)).reshape(shape)
        out[name] = arr.astype(np.float64).copy()
    if pos != len(buf):
        raise ValueError("trailing bytes in parameter blob")
    return out


def save_params(params: ParamSet, path) -> None:
    with open(path, "wb") as fh:
        fh.writelines(_serialized(params))


def load_params(path) -> ParamSet:
    """deserialize_params of a file's bytes; its errors name the file."""
    try:
        with open(path, "rb") as fh:
            return deserialize_params(fh.read())
    except ValueError as exc:  # a name that is not UTF-8 included
        raise ValueError(f"{path}: {exc}") from exc


def params_digest(params: ParamSet) -> str:
    """Short stable content digest (sha256 prefix of the serialized bytes),
    hashed piece by piece, so the tensors are not copied."""
    h = hashlib.sha256()
    for piece in _serialized(params):
        h.update(piece)
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# layers


def embedding_scatter(shape: tuple[int, ...], ids: Iterable[int], grad_rows: np.ndarray) -> np.ndarray:
    """Gradient of the row gather table[ids]: accumulate grad_rows into an
    all-zero table of the given shape at the looked-up ids (duplicates
    accumulate, in the order of ids)."""
    idx = np.asarray(list(ids) if not isinstance(ids, np.ndarray) else ids, dtype=np.int64)
    rows, dim = shape
    # bincount adds each weight into a +0.0 start in input order, as np.add.at does.
    flat = np.bincount((idx[:, None] * dim + np.arange(dim)).ravel(), weights=grad_rows.ravel(), minlength=rows * dim)
    return flat.reshape(shape)


def softmax(v: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax (max subtraction) along one axis."""
    shifted = v - np.max(v, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def sgd_step(values: ParamSet, grads: GradSet, lr: float, take: np.ndarray, cols: Columns = ALL_COLUMNS) -> None:
    """One plain SGD update p <- p - lr * g, in place, for the clients c of
    (C, ...) stacked tensors with take[c] True; the others keep their values.

    The coordinates cols selects are updated (every one by default). Where
    a gradient is +0.0 (an embedding row no input looked up, or a padding
    slot of the personal working set), p - lr * 0.0 == p for the finite lr
    a taken step implies, so such a coordinate may be left out. Both
    training phases pass their clients' coordinates as one (C, P) tensor:
    local training a FlatStack's buffer and the columns base_loss wrote, the
    personal phase its working set. lr * g may overwrite the gradients.
    """
    for name, p in values.items():
        g, x = cols.read(grads[name]), cols.read(p)
        step = np.multiply(g, lr, out=g)
        np.subtract(x, step, out=x, where=take.reshape(-1, *(1,) * (x.ndim - 1)))
        cols.write(p, x)


# ---------------------------------------------------------------------------
# gradient checking oracle


def check_gradients(
    model_fn: Callable[[ParamSet, object], tuple[float, GradSet]],
    params: ParamSet,
    inputs: object,
    eps: float = 1e-6,
    atol: float = 1e-7,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    model_fn(params, inputs) must return (scalar loss, GradSet). Coordinates
    where both gradients are below atol in magnitude count as exact matches
    (relative error 0), which keeps finite-difference noise on genuinely zero
    gradients from registering as failures.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    loss0, grads = model_fn(params, inputs)
    if not np.isfinite(loss0):
        raise FloatingPointError("non-finite loss in gradient check")
    assert_congruent(params, grads)
    worst = 0.0
    for name in sorted(params):
        base = params[name]
        analytic = grads[name]
        for i in range(base.size):
            orig = base.flat[i]
            base.flat[i] = orig + eps
            lp = model_fn(params, inputs)[0]
            base.flat[i] = orig - eps
            lm = model_fn(params, inputs)[0]
            base.flat[i] = orig
            numeric = (lp - lm) / (2.0 * eps)
            a = analytic.flat[i]
            denom = max(abs(a), abs(numeric))
            if denom > atol:
                worst = max(worst, abs(a - numeric) / denom)
    return worst
