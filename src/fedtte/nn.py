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
one (C, P) buffer, so that a step can treat them as one tensor.
"""

from __future__ import annotations

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


class FlatStack(dict):
    """C clients' tensors as named (C, ...) views into one (C, P) buffer,
    laid out in sorted-name order, starting at zero. The views are the
    ParamSet that forward and backward passes read and write; buffer holds
    the same coordinates as one tensor, for a step that checks and updates
    them all at once. Row c of buffer is client c's coordinates. buffer,
    when given, is an (n, P) float64 array to reuse; it is zeroed."""

    def __init__(self, shapes: dict[str, tuple[int, ...]], n: int, buffer: np.ndarray | None = None):
        super().__init__()
        sizes = {name: math.prod(shape) for name, shape in shapes.items()}
        if buffer is None:
            buffer = np.zeros((n, sum(sizes.values())))
        elif buffer.shape != (n, sum(sizes.values())):
            raise ValueError(f"buffer of shape {buffer.shape} for {n} clients of {sum(sizes.values())} coordinates")
        else:
            buffer[...] = 0.0
        self.buffer = buffer
        offset = 0
        for name in sorted(shapes):
            self[name] = self.buffer[:, offset : offset + sizes[name]].reshape(n, *shapes[name])
            offset += sizes[name]


def zeros_stack(values: ParamSet, buffer: np.ndarray | None = None) -> FlatStack:
    """Zeros congruent with C clients' (C, ...) stacked tensors, in one
    buffer: a new one, or the first C rows of the given one."""
    shapes = {k: v.shape[1:] for k, v in values.items()}
    n = len(next(iter(values.values())))
    return FlatStack(shapes, n, None if buffer is None else buffer[:n])


def serialize_params(params: ParamSet) -> bytes:
    """Flat binary form: header, then per name in lexicographic order:
    name length, name bytes, rank, dims, raw float64 little-endian data."""
    chunks = [_MAGIC, struct.pack("<I", _VERSION), struct.pack("<I", len(params))]
    for name in sorted(params):
        arr = np.asarray(params[name], dtype=np.float64)  # keeps a 0-d tensor 0-d
        raw_name = name.encode("utf-8")
        chunks.append(struct.pack("<I", len(raw_name)))
        chunks.append(raw_name)
        chunks.append(struct.pack("<I", arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}I", *arr.shape) if arr.ndim else b"")
        chunks.append(arr.astype("<f8").tobytes())
    return b"".join(chunks)


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
        fh.write(serialize_params(params))


def load_params(path) -> ParamSet:
    with open(path, "rb") as fh:
        return deserialize_params(fh.read())


def params_digest(params: ParamSet) -> str:
    """Short stable content digest (sha256 prefix of the serialized bytes)."""
    return hashlib.sha256(serialize_params(params)).hexdigest()[:16]


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


def sgd_step(values: ParamSet, grads: GradSet, lr: float, take: np.ndarray) -> None:
    """One plain SGD update p <- p - lr * g, in place, for the clients c of
    (C, ...) stacked tensors with take[c] True; the others keep their values.

    Whole tensors are updated: where a gradient is +0.0 (an embedding row no
    input looked up, or a padding slot of the personal working set),
    p - lr * 0.0 == p for the finite lr a taken step implies. Both training
    phases pass their clients' coordinates as one (C, P) tensor: local
    training a FlatStack's buffer, the personal phase its working set.
    lr * g overwrites the gradients, which are not read again.
    """
    for name, p in values.items():
        step = np.multiply(grads[name], lr, out=grads[name])
        np.subtract(p, step, out=p, where=take.reshape(-1, *(1,) * (p.ndim - 1)))


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
