"""Dense float64 tensors with reverse-mode differentiation.

Covers exactly what the fusion pipeline needs: broadcasting elementwise
arithmetic, slicing, 2-d matmul, strided conv2d, row softmax, a Sobel
filter and the usual pointwise nonlinearities. Every operation records,
for each input that requires a gradient, one hand-written backward rule;
``backward`` replays the records in reverse topological order. The rules
are verified against central finite differences in the test suite.
"""
from __future__ import annotations

import ctypes
import functools
import os
from concurrent.futures import ThreadPoolExecutor, wait
from pathlib import Path
from contextlib import contextmanager
from typing import Callable, Iterable

import numpy as np

from .errors import ContractError, NonFiniteError, ShapeError

Array = np.ndarray


class Tensor:
    """N-d float64 array with an optional gradient buffer.

    ``Tensor(...)`` builds a leaf and raises ``NonFiniteError`` on NaN or
    Inf. Op outputs come from ``_node`` unscanned; a non-finite value is
    caught where a culprit can be named (a loss term, a gradient, a fused
    image). An op output keeps the inputs that required a gradient when it
    recorded, plus a closure giving their gradients from its own; they
    accumulate across ``backward`` calls until ``zero_grad``.
    """

    __slots__ = ("data", "requires_grad", "grad", "name", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        arr = np.asarray(data, dtype=np.float64)
        if not np.isfinite(arr).all():
            raise NonFiniteError(f"non-finite values in {name or 'tensor'}")
        self.data, self.requires_grad, self.grad, self.name = arr, bool(requires_grad), None, name
        self._parents, self._backward = (), None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() needs a single element, got shape {self.data.shape}")
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        backward(self)

    def __repr__(self) -> str:
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad}{tag})"

    # Arithmetic sugar. All routes through the module-level ops below.
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(_as_tensor(other), self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return neg(self)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _node(data: Array, parents: tuple = (), backward: Callable | None = None) -> Tensor:
    """An op output, unscanned; backward(g) gives one gradient per parent, in order."""
    out = Tensor.__new__(Tensor)
    out.data, out.grad, out.name = np.asarray(data, dtype=np.float64), None, None
    out.requires_grad, out._parents = bool(parents), tuple(parents)
    out._backward = backward if parents else None  # no parents: a constant
    return out


def _from_op(data: Array, *edges: tuple[Tensor, Callable[[Array], Array]],
             pre: Callable[[Array], Array] | None = None) -> Tensor:
    """The output of an op, with an edge to each input a gradient flows to.

    Each edge is an (input, rule) pair; rule(g) is that input's gradient
    given the output gradient g, or pre(g), taken once for all rules, if given.
    Only the edges whose input requires a gradient now are kept, so no
    rule runs for a constant; with none kept the result is a constant.
    """
    kept = [edge for edge in edges if edge[0].requires_grad]

    def rules(g):
        g = g if pre is None else pre(g)
        return tuple(rule(g) for _, rule in kept)

    return _node(data, tuple(p for p, _ in kept), rules)


def trace(root: Tensor) -> list[Tensor]:
    """Nodes below `root` in topological order (inputs before consumers)."""
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def backward(root: Tensor, grad: Array | None = None) -> None:
    """Accumulate d(root)/d(node) into `.grad` for every requires_grad leaf.

    `root` must be a single element. Repeated calls keep adding into the
    same buffers; call ``zero_grad`` on the leaves to reset between steps.
    One call adds into each leaf once, so calls run one after another add
    their gradients in call order.
    """
    if root.data.size != 1:
        raise ContractError(f"backward needs a scalar root, got shape {root.data.shape}")
    if not root.requires_grad:
        return
    seed = np.ones_like(root.data) if grad is None else np.asarray(grad, dtype=np.float64)
    flow: dict[int, Array] = {id(root): seed}
    for node in reversed(trace(root)):
        g = flow.pop(id(node), None)
        if g is None:
            continue
        if node._backward is None:
            node.grad = g.copy() if node.grad is None else node.grad + g
            continue
        for parent, pg in zip(node._parents, node._backward(g)):
            held = flow.get(id(parent))
            flow[id(parent)] = pg if held is None else held + pg
    # Anything left in `flow` is unreachable from the leaves; nothing to do.


@contextmanager
def frozen(tensors):
    """Temporarily clear requires_grad; restores on exit even after errors.

    Ops read the flag when they record, so the tensors are constants to
    every op run inside the block: a graph built there has no edge to
    them, and a ``backward`` through it gives them no gradient even after
    the block has exited. Freeze around both the forward and the backward.
    """
    tensors = list(tensors)
    saved = [t.requires_grad for t in tensors]
    for t in tensors:
        t.requires_grad = False
    try:
        yield
    finally:
        for t, flag in zip(tensors, saved):
            t.requires_grad = flag


def _unbroadcast(g: Array, shape: tuple[int, ...]) -> Array:
    """Sum `g` down to `shape`, undoing numpy broadcasting."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# elementwise arithmetic


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    return _from_op(a.data + b.data,
                    (a, lambda g: _unbroadcast(g, a.data.shape)),
                    (b, lambda g: _unbroadcast(g, b.data.shape)))


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    return _from_op(a.data - b.data,
                    (a, lambda g: _unbroadcast(g, a.data.shape)),
                    (b, lambda g: _unbroadcast(-g, b.data.shape)))


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    return _from_op(a.data * b.data,
                    (a, lambda g: _unbroadcast(g * b.data, a.data.shape)),
                    (b, lambda g: _unbroadcast(g * a.data, b.data.shape)))


def div(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    return _from_op(a.data / b.data,
                    (a, lambda g: _unbroadcast(g / b.data, a.data.shape)),
                    (b, lambda g: _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape)))


def neg(a) -> Tensor:
    a = _as_tensor(a)
    return _from_op(-a.data, (a, lambda g: -g))


def powi(a, p: float) -> Tensor:
    """Elementwise power with a constant exponent."""
    a = _as_tensor(a)
    p = float(p)
    return _from_op(a.data ** p, (a, lambda g: g * p * a.data ** (p - 1.0)))


def square(a) -> Tensor:
    a = _as_tensor(a)
    return _from_op(a.data * a.data, (a, lambda g: 2.0 * a.data * g))


def exp(a) -> Tensor:
    a = _as_tensor(a)
    out = np.exp(a.data)
    return _from_op(out, (a, lambda g: g * out))


def log(a) -> Tensor:
    a = _as_tensor(a)
    return _from_op(np.log(a.data), (a, lambda g: g / a.data))


def sqrt(a) -> Tensor:
    a = _as_tensor(a)
    out = np.sqrt(a.data)
    return _from_op(out, (a, lambda g: g / (2.0 * out)))


def absval(a) -> Tensor:
    a = _as_tensor(a)
    return _from_op(np.abs(a.data), (a, lambda g: g * np.sign(a.data)))


def clamp_min(a, floor: float) -> Tensor:
    """max(a, floor); gradient passes only where a > floor."""
    a = _as_tensor(a)
    return _from_op(np.maximum(a.data, floor), (a, lambda g: g * (a.data > floor)))


def sigmoid(a) -> Tensor:
    """1 / (1 + exp(-a)), with exp taken only of non-positive values."""
    a = _as_tensor(a)
    out = np.empty_like(a.data)
    pos = a.data >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-a.data[pos]))
    ex = np.exp(a.data[~pos])
    out[~pos] = ex / (1.0 + ex)
    return _from_op(out, (a, lambda g: g * out * (1.0 - out)))


# The one leaky-ReLU slope: of `leaky_relu`, `conv2d(leaky=True)` and the
# student's dense block. It lies in (0, 1], so max(a, LEAKY_SLOPE * a) is a
# where a >= 0, else LEAKY_SLOPE * a.
LEAKY_SLOPE = 0.2


def leaky_relu(a) -> Tensor:
    """max(a, LEAKY_SLOPE * a); the gradient is scaled by LEAKY_SLOPE where a < 0."""
    a = _as_tensor(a)
    return _from_op(np.maximum(a.data, LEAKY_SLOPE * a.data),
                    (a, lambda g: g * np.where(a.data >= 0, 1.0, LEAKY_SLOPE)))


# ---------------------------------------------------------------------------
# reductions


def tsum(a) -> Tensor:
    a = _as_tensor(a)
    return _from_op(np.asarray(a.data.sum()),
                    (a, lambda g: np.broadcast_to(g, a.data.shape).copy()))


def tmean(a) -> Tensor:
    a = _as_tensor(a)
    n = a.data.size
    return _from_op(np.asarray(a.data.mean()),
                    (a, lambda g: np.broadcast_to(g / n, a.data.shape).copy()))


def dot(a, b) -> Tensor:
    """Scalar product of two same-shape tensors."""
    return tsum(mul(a, b))


# ---------------------------------------------------------------------------
# shape plumbing


def reshape(a, shape: tuple[int, ...]) -> Tensor:
    a = _as_tensor(a)
    return _from_op(a.data.reshape(shape), (a, lambda g: g.reshape(a.data.shape)))


def flatten(a) -> Tensor:
    a = _as_tensor(a)
    return reshape(a, (a.data.size,))


def transpose2d(a) -> Tensor:
    a = _as_tensor(a)
    if a.data.ndim != 2:
        raise ShapeError(f"transpose2d needs a 2-d tensor, got shape {a.data.shape}")
    return _from_op(a.data.T.copy(), (a, lambda g: g.T))


def concat(parts: Iterable[Tensor]) -> Tensor:
    """The parts stacked along their first axis."""
    parts = [_as_tensor(p) for p in parts]
    if not parts:
        raise ContractError("concat of an empty sequence")
    out = np.concatenate([p.data for p in parts])

    def part_rule(lo: int, hi: int):
        return lambda g: np.ascontiguousarray(g[lo:hi])

    edges, lo = [], 0
    for p in parts:
        edges.append((p, part_rule(lo, lo + p.data.shape[0])))
        lo += p.data.shape[0]
    return _from_op(out, *edges)


def index(a, key: tuple[slice, ...]) -> Tensor:
    """The window a[key] as a view of a's data; `key` is a tuple of slices.

    Sharing memory is safe because no op writes into its input's data and
    Adam updates the leaves in place only after `backward` has run.
    """
    a = _as_tensor(a)
    if not isinstance(key, tuple) or not all(isinstance(s, slice) for s in key):
        raise ContractError(f"index needs a tuple of slices, got {key!r}")
    out = a.data[key]

    def rule(g):
        full = np.zeros_like(a.data)
        full[key] = g
        return full

    return _from_op(out, (a, rule))


def rows(a, start: int, stop: int) -> Tensor:
    """Contiguous row slice of a 2-d tensor."""
    a = _as_tensor(a)
    if a.data.ndim != 2:
        raise ShapeError(f"rows needs a 2-d tensor, got shape {a.data.shape}")
    if not (0 <= start < stop <= a.data.shape[0]):
        raise ShapeError(f"row slice [{start}:{stop}] out of range for shape {a.data.shape}")
    return index(a, (slice(start, stop),))


def crop2d(a, height: int, width: int) -> Tensor:
    """Keep the top-left height x width window of a (C, H, W) tensor."""
    a = _as_tensor(a)
    c, h, w = a.data.shape
    if height > h or width > w:
        raise ShapeError(f"crop to {height}x{width} exceeds input {h}x{w}")
    return index(a, (slice(None), slice(height), slice(width)))


def upsample_nearest2(a) -> Tensor:
    """Nearest-neighbour 2x upsampling of a (C, H, W) tensor."""
    a = _as_tensor(a)
    if a.data.ndim != 3:
        raise ShapeError(f"upsample_nearest2 needs (C, H, W), got shape {a.data.shape}")
    out = a.data.repeat(2, axis=1).repeat(2, axis=2)
    c, h, w = a.data.shape
    return _from_op(out, (a, lambda g: g.reshape(c, h, 2, w, 2).sum(axis=(2, 4))))


def pad_replicate(a) -> Tensor:
    """One pixel of edge-replicating spatial padding around a (C, H, W) tensor."""
    a = _as_tensor(a)
    if a.data.ndim != 3:
        raise ShapeError(f"pad_replicate needs (C, H, W), got shape {a.data.shape}")
    c, h, w = a.data.shape
    ih = np.clip(np.arange(-1, h + 1), 0, h - 1)
    iw = np.clip(np.arange(-1, w + 1), 0, w - 1)
    out = a.data[:, ih[:, None], iw[None, :]]

    def rule(g):
        gx = np.zeros_like(a.data)
        np.add.at(gx, (np.arange(c)[:, None, None], ih[None, :, None], iw[None, None, :]), g)
        return gx

    return _from_op(out, (a, rule))


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul needs 2-d operands, got {a.data.shape} and {b.data.shape}")
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul inner dims differ: {a.data.shape} x {b.data.shape}")
    return _from_op(a.data @ b.data,
                    (a, lambda g: g @ b.data.T),
                    (b, lambda g: a.data.T @ g))


def _softmax_(s: Array, stats: tuple[Array, Array] | None = None
              ) -> tuple[Array, tuple[Array, Array]]:
    """Row softmax of 2-d `s` in place, with max-shifted exponents.

    Returns `s` and its stats, the (T, 1) row max and row sum of the
    exponents. Given the stats of an earlier call on logits with the same
    bits, it skips both reductions and gives that call's bits again.
    """
    top, total = stats if stats is not None else (s.max(axis=1, keepdims=True), None)
    s -= top
    np.exp(s, out=s)
    if total is None:
        total = s.sum(axis=1, keepdims=True)
    s /= total
    return s, (top, total)


def _softmax_grad_(g: Array, p: Array) -> Array:
    """Map `g`, a gradient at p = row softmax, to one at its logits, in place."""
    g -= (g * p).sum(axis=1, keepdims=True)
    g *= p
    return g


def softmax_rows(a) -> Tensor:
    """Row-wise softmax of a 2-d tensor, computed with max-shifted exponents."""
    a = _as_tensor(a)
    if a.data.ndim != 2:
        raise ShapeError(f"softmax_rows needs a 2-d tensor, got shape {a.data.shape}")
    out, _ = _softmax_(a.data.copy())
    # g may be shared with other edges, so work on a copy
    return _from_op(out, (a, lambda g: _softmax_grad_(g.copy(), out)))


# ---------------------------------------------------------------------------
# convolution

# Output pixels per band of columns, rounded down to whole output rows.
# One (C_in*k*k, band) buffer per band group, at most 9.4 MB at 288 rows
# while an output row fits in BLOCK_PX, is reused by every band of its group
# and read back while still in cache; a full-image column matrix would be
# written to freshly faulted pages, read back from memory, and kept for the
# weight rule.
BLOCK_PX = 4096


def _openblas(name: str):
    """`openblas_<name>` of an OpenBLAS this process has loaded, under any of
    its manglings, or None."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    for lib in sorted({line.split()[-1] for line in maps.splitlines() if "openblas" in line}):
        for sym in (f"scipy_openblas_{name}64_", f"openblas_{name}64_", f"openblas_{name}"):
            fn = getattr(ctypes.CDLL(lib), sym, None)
            if fn is not None:
                return fn
    return None


def _blas_threads() -> int | None:
    """Threads of the OpenBLAS this process has loaded, or None if unknown."""
    fn = _openblas("get_num_threads")
    return None if fn is None else fn()


def _blas_config() -> str | None:
    """The loaded OpenBLAS's build line (version, options, core), or None if unknown."""
    fn = _openblas("get_config")
    if fn is not None:
        fn.restype = ctypes.c_char_p
    return None if fn is None else " ".join(fn().decode().split())


# semfuse does its own parallelism (conv bands, a batch's pairs), so it
# pins a loaded OpenBLAS to one thread for the whole process. A GEMM's
# bits can depend on its thread count, so the bytes then do not depend on
# OPENBLAS_NUM_THREADS. Another BLAS keeps its own count.
_PIN = _openblas("set_num_threads")
if _PIN is not None:
    _PIN.argtypes, _PIN.restype = [ctypes.c_int], None
    _PIN(1)
# Band groups a conv runs at once: one per core this process may run on,
# but only where BLAS is seen to run one thread; a GEMM that already runs
# on every core would share them with the other groups' GEMMs. The count
# is read once, at import, after the pin.
_WORKERS = ((len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1) if _blas_threads() == 1 else 1)
# At most this many groups, whatever the cores: each conv band group holds
# its own column buffer and padded rows, so the peak grows with the
# groups. A frozen student at 128^2 (four bands per conv) peaks at 259
# float64 per pixel with two groups and 420 with four; its test allows 280.
MAX_GROUPS = 2
# The calling thread runs a conv's first band group, so the pool holds the
# others. It starts no thread until the first conv of more than one group.
_POOL = ThreadPoolExecutor(MAX_GROUPS - 1, thread_name_prefix="semfuse-band")
_ONE = False                                        # inside `one_worker`


def workers() -> int:
    """Band groups a conv runs at once: min(_WORKERS, MAX_GROUPS), or 1 inside `one_worker`."""
    return 1 if _ONE else min(_WORKERS, MAX_GROUPS)


@contextmanager
def one_worker():
    """Inside the block, `workers()` is 1, so a conv runs all its bands on
    the calling thread: as a training pass does while its forked pair
    worker, which runs inside it too, runs the batch's other pairs."""
    global _ONE
    was, _ONE = _ONE, True
    try:
        yield
    finally:
        _ONE = was


def _bands(ho: int, wo: int) -> list[tuple[int, int]]:
    """(i0, i1) spans of the bands of a conv's (ho, wo) output, in order.

    A band is max(1, BLOCK_PX // wo) whole output rows, whatever the
    kernel, so a row wider than BLOCK_PX is a band of its own.
    """
    band = min(ho, max(1, BLOCK_PX // wo))
    return [(i0, min(i0 + band, ho)) for i0 in range(0, ho, band)]


def _pad_rows(x: Array, padding: int, r0: int, r1: int, buf: Array) -> Array:
    """Rows r0:r1 of `x` zero-padded by `padding` on every side, written into `buf`."""
    wd = x.shape[2]
    xp = buf[:, :r1 - r0]
    lo, hi = r0 - padding, r1 - padding             # the same rows, in x
    inner = x[:, max(lo, 0):max(hi, 0)]
    d0 = max(-lo, 0)
    d1 = d0 + inner.shape[1]
    xp[:, :d0] = 0
    xp[:, d1:] = 0
    xp[:, d0:d1, :padding] = 0
    xp[:, d0:d1, padding + wd:] = 0
    xp[:, d0:d1, padding:padding + wd] = inner
    return xp


def _run_bands(x: Array, k: int, padding: int, stride: int, wo: int,
               bands: list[tuple[int, int]], gemm: Callable, part_rows: int = 0) -> None:
    """Call gemm(b, p0, p1, cols, part) for every band b of a conv over the map `x`.

    `cols` holds the im2col columns of output pixels p0:p1 (the band's
    whole rows): row (c, di, dj) holds xp[c, di + stride*i, dj + stride*j]
    for the pixels (i, j) of the band, in row-major order, where xp is `x`
    zero-padded by `padding`. It is valid only during the call. `part` is the
    group's (part_rows, band pixels) scratch, or None if `part_rows` is 0.

    The bands are split into min(workers(), len(bands)) contiguous groups.
    The calling thread allocates each group's buffers (its band's padded
    input rows, its columns and its scratch) and runs group 0 while the
    pool runs the others under the caller's `np.errstate` (a pool thread
    starts at numpy's default). Groups overlap their gemm calls, so each
    writes only its band's part of any shared array. Once every group has
    finished, the first failing group's exception, in group order, reaches
    the caller as itself; within a group, it stops the bands after it.
    """
    c, _, wd = x.shape
    rows = bands[0][1] - bands[0][0]

    def run_group(group, pad, buf, part):
        for b, (i0, i1) in group:
            r0, r1 = stride * i0, stride * (i1 - 1) + k
            src = _pad_rows(x, padding, r0, r1, pad) if padding else x[:, r0:r1]
            sc, sh, sw = src.strides
            win = np.lib.stride_tricks.as_strided(
                src, (c, k, k, i1 - i0, wo), (sc, sh, sw, stride * sh, stride * sw),
                writeable=False)
            cols = buf[:, :(i1 - i0) * wo]
            cols.reshape(c, k, k, i1 - i0, wo)[...] = win
            gemm(b, i0 * wo, i1 * wo, cols, part)

    numbered, n_groups = list(enumerate(bands)), min(workers(), len(bands))
    tasks = []
    for g in range(n_groups):
        group = numbered[len(bands) * g // n_groups:len(bands) * (g + 1) // n_groups]
        pad = np.empty((c, stride * (rows - 1) + k, wd + 2 * padding)) if padding else None
        buf = np.empty((c * k * k, rows * wo))
        part = np.empty((part_rows, rows * wo)) if part_rows else None
        tasks.append(functools.partial(run_group, group, pad, buf, part))
    err, call = np.geterr(), np.geterrcall()

    def pooled(task):
        with np.errstate(call=call, **err):
            task()

    helpers = [_POOL.submit(pooled, task) for task in tasks[1:]]
    try:
        tasks[0]()
    finally:
        wait(helpers)
    for helper in helpers:
        helper.result()


def _col2im(gcols: Array, c: int, hp: int, wp: int, k: int, stride: int,
            ho: int, wo: int) -> Array:
    g = gcols.reshape(c, k, k, ho, wo)
    gx = np.zeros((c, hp, wp))
    for di in range(k):
        for dj in range(k):
            gx[:, di:di + stride * ho:stride, dj:dj + stride * wo:stride] += g[:, di, dj]
    return gx


def _out_side(n: int, k: int, padding: int, stride: int) -> int:
    return (n + 2 * padding - k) // stride + 1


def conv_into(x: Array, w: Array, out: Array, padding: int, stride: int,
              bias: Array | None = None, leaky: bool = False, add: bool = False,
              mask: Array | None = None) -> None:
    """The conv of the map `x` (C_in, H, W) by `w` (C_out, C_in, k, k) into
    `out` (C_out, H_out*W_out), without a tape, on the band workers.

    Each band of `_run_bands` writes its GEMM into its columns of `out`,
    or if `add` adds it through its band group's scratch. Then, in
    place, the band's first len(bias) rows (all rows if `bias` is None)
    get the bias and, if `leaky`, max(o, LEAKY_SLOPE*o). So each element
    sees a conv, `+` and `leaky_relu` in that order. A bool `mask` of
    those rows receives o >= 0 just before the leaky ReLU: the sign that
    `leaky_relu`'s rule reads.
    """
    cout, _, k, _ = w.shape
    ho, wo = (_out_side(n, k, padding, stride) for n in x.shape[1:])
    bands = _bands(ho, wo)
    w2 = w.reshape(cout, -1)
    done = out if bias is None else out[:len(bias)]

    def band(_, p0, p1, cols, part):
        if add:
            out[:, p0:p1] += np.matmul(w2, cols, out=part[:, :p1 - p0])
        else:
            np.matmul(w2, cols, out=out[:, p0:p1])
        o = done[:, p0:p1]
        if bias is not None:
            o += bias[:, None]
        if mask is not None:
            np.greater_equal(o, 0, out=mask[:, p0:p1])
        if leaky:
            # row by row: a band-sized LEAKY_SLOPE * o on each worker would
            # add 4 float64 per pixel to the frozen 128^2 student's peak
            for row in o:
                np.maximum(row, LEAKY_SLOPE * row, out=row)

    _run_bands(x, k, padding, stride, wo, bands, band, cout if add else 0)


def conv_input_grad(g: Array, w: Array, x_shape: tuple[int, int, int], padding: int,
                    stride: int) -> Array:
    """conv2d's input rule: the gradient at its input, of shape `x_shape`,
    of a conv by `w` whose output has the gradient `g` (C_out, H_out*W_out
    or (C_out, H_out, W_out))."""
    cout, cin, k, _ = w.shape
    _, h, wd = x_shape
    ho, wo = _out_side(h, k, padding, stride), _out_side(wd, k, padding, stride)
    gxp = _col2im(w.reshape(cout, -1).T @ g.reshape(cout, ho * wo), cin,
                  h + 2 * padding, wd + 2 * padding, k, stride, ho, wo)
    return gxp[:, padding:padding + h, padding:padding + wd] if padding else gxp


def conv_weight_grad(g: Array, x: Array, k: int, padding: int, stride: int) -> Array:
    """conv2d's weight rule: the (C_out, C_in, k, k) kernel gradient of a
    conv of the map `x` whose output has the gradient `g`.

    It keeps no columns: it builds the bands again, writes each band's
    GEMM into its own part and sums the parts in band order.
    """
    cout, cin = g.shape[0], x.shape[0]
    ho, wo = (_out_side(n, k, padding, stride) for n in x.shape[1:])
    bands = _bands(ho, wo)
    g2 = g.reshape(cout, ho * wo)
    parts = np.empty((len(bands), cout, cin * k * k))

    def weight_band(i, p0, p1, cols, _):
        np.matmul(g2[:, p0:p1], cols.T, out=parts[i])

    _run_bands(x, k, padding, stride, wo, bands, weight_band)
    gw = parts[0]
    for part in parts[1:]:
        gw += part          # in band order; a zero start would turn -0.0 into 0.0
    return gw.reshape(cout, cin, k, k)


def conv2d(x, w, b=None, padding: int = 0, stride: int = 1, leaky: bool = False,
           out: Array | None = None) -> Tensor:
    """2-d cross-correlation of (C_in, H, W) with (C_out, C_in, k, k), plus
    the bias `b` (C_out,) if given, then the leaky ReLU if `leaky`: one node.

    Zero padding; output side is (H + 2*padding - k) // stride + 1. The
    kernel must be square with odd side. The forward is `conv_into`, into
    `out` (C_out, H_out*W_out) if given, which the output's data then
    views. The rules are `conv_input_grad` and `conv_weight_grad`. So a
    conv over more than BLOCK_PX output pixels may differ from a one-GEMM
    conv in the last ulp, in its output and its weight gradient, but not
    with the number of workers that ran its bands. A leaky conv that
    records an edge keeps a bool mask of its pre-activation's sign, which
    `conv_into` writes, and scales the gradient by LEAKY_SLOPE where it is
    false, as `leaky_relu` does.
    """
    x, w = _as_tensor(x), _as_tensor(w)
    if x.data.ndim != 3 or w.data.ndim != 4:
        raise ShapeError(f"conv2d needs (C,H,W) x (O,C,k,k), got {x.data.shape} and {w.data.shape}")
    cin, h, wd = x.data.shape
    cout, cin_w, k, k2 = w.data.shape
    if k != k2 or k % 2 == 0:
        raise ShapeError(f"conv2d kernel must be square with odd side, got {w.data.shape}")
    if cin != cin_w:
        raise ShapeError(f"conv2d channel mismatch: input {x.data.shape} vs kernel {w.data.shape}")
    b = None if b is None else _as_tensor(b)
    if b is not None and b.data.shape != (cout,):
        raise ShapeError(f"conv2d bias {b.data.shape} does not match kernel {w.data.shape}")
    if padding < 0 or stride < 1:
        raise ContractError(f"conv2d invalid padding={padding} stride={stride}")
    ho, wo = _out_side(h, k, padding, stride), _out_side(wd, k, padding, stride)
    if ho < 1 or wo < 1:
        raise ShapeError(f"conv2d output would be empty for input {x.data.shape}, "
                         f"kernel {w.data.shape}, padding {padding}, stride {stride}")
    if out is None:
        out = np.empty((cout, ho * wo))
    elif out.shape != (cout, ho * wo):
        raise ShapeError(f"conv2d out {out.shape} does not hold its ({cout}, {ho * wo}) output")
    kept = x.requires_grad or w.requires_grad or (b is not None and b.requires_grad)
    mask = np.empty((cout, ho * wo), dtype=bool) if leaky and kept else None
    conv_into(x.data, w.data, out, padding, stride, None if b is None else b.data, leaky,
              mask=mask)
    out = out.reshape(cout, ho, wo)
    bias_edge = [] if b is None else [(b, lambda g: g.sum(axis=(1, 2)))]
    return _from_op(out,
                    (x, lambda g: conv_input_grad(g, w.data, x.data.shape, padding, stride)),
                    (w, lambda g: conv_weight_grad(g, x.data, k, padding, stride)),
                    *bias_edge,
                    pre=None if mask is None else
                    (lambda g: g * np.where(mask.reshape(cout, ho, wo), 1.0, LEAKY_SLOPE)))


def sobel(x) -> Tensor:
    """Two-channel Sobel response of a (1, H, W) tensor with replicate padding.

    Channel 0 responds to horizontal intensity change (vertical edges),
    channel 1 to vertical change; cross-correlation convention.
    """
    x = _as_tensor(x)
    if x.data.ndim != 3 or x.data.shape[0] != 1:
        raise ShapeError(f"sobel needs a (1, H, W) tensor, got shape {x.data.shape}")
    if x.data.shape[1] < 3 or x.data.shape[2] < 3:
        raise ShapeError(f"sobel needs at least 3x3 input, got shape {x.data.shape}")
    _, h, w = x.data.shape
    xp = pad_replicate(x)
    # Separable form with the neighbour difference taken first. Equal
    # neighbours cancel exactly, so constants map to exact zeros instead
    # of accumulating BLAS rounding residue.
    p = xp.data[0]
    dxh = p[:, 2:] - p[:, :-2]
    gx = dxh[:-2] + 2.0 * dxh[1:-1] + dxh[2:]
    dyv = p[2:, :] - p[:-2, :]
    gy = dyv[:, :-2] + 2.0 * dyv[:, 1:-1] + dyv[:, 2:]
    out = np.stack([gx, gy])

    def rule(g):
        g0, g1 = g[0], g[1]
        gdxh = np.zeros((h + 2, w))
        gdxh[:-2] += g0
        gdxh[1:-1] += 2.0 * g0
        gdxh[2:] += g0
        gp = np.zeros((h + 2, w + 2))
        gp[:, 2:] += gdxh
        gp[:, :-2] -= gdxh
        gdyv = np.zeros((h, w + 2))
        gdyv[:, :-2] += g1
        gdyv[:, 1:-1] += 2.0 * g1
        gdyv[:, 2:] += g1
        gp[2:, :] += gdyv
        gp[:-2, :] -= gdyv
        return gp[None]

    return _from_op(out, (xp, rule))
