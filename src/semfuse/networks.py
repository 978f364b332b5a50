"""Teacher and student fusion networks.

The teacher encodes the stacked source pair, builds the persistent
repository once, runs its STAGES attention stages over per-modality
patch features, and decodes the final stage to a fused image; under
`no_pr` it has neither repository nor source encoder. The
student is a compact stem / dense-block / transition stack with a
sigmoid head; 1x1 stride-2 adapters expose per-block features in the
same shape as the teacher's per-stage features so the distillation terms
can compare them directly. The student has one forward: training passes
it a list for the adapter features, and `fuse` runs it with the
parameters frozen and no list, so it builds no tape and no adapter runs.

Both networks map [0, 1] inputs of any size >= 3x3 to an output of
exactly the input size.
"""
from __future__ import annotations

import hashlib
import operator
import struct
from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import autodiff as ad
from .attention import OWNS, VARIANTS, AttentionParams, attention_stage, build_repository, kaiming
from .autodiff import Tensor
from .errors import CheckpointError, ContractError, ShapeError


# Attention stages of the teacher, as many as the student has blocks.
STAGES = 3


@dataclass(frozen=True)
class TeacherConfig:
    base_channels: int = 16
    heads: int = 4
    head_dim: int = 8
    variant: str = "full"          # full | no_z | no_kv | no_pr

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ContractError(f"unknown attention variant {self.variant!r}")


@dataclass(frozen=True)
class StudentConfig:
    stem_channels: int = 32
    growth: int = 16
    layers_per_block: int = 4
    blocks: int = 3
    tap_width: int = 32            # the teacher's token width, heads x head_dim


class ParamModule:
    """Ordered named parameters; declaration order fixes the checkpoint layout.

    A subclass sets KIND and `cfg`, which together give its config digest.
    """

    def __init__(self):
        self._params: dict[str, Tensor] = {}

    def _conv(self, rng, name: str, c_out: int, c_in: int, k: int) -> tuple[Tensor, Tensor]:
        w = Tensor(kaiming(rng, c_out, c_in, k, k), requires_grad=True, name=f"{name}.w")
        b = Tensor(np.zeros(c_out), requires_grad=True, name=f"{name}.b")
        self._params[w.name] = w
        self._params[b.name] = b
        return w, b

    def _adopt(self, named: list[tuple[str, Tensor]]) -> None:
        for name, t in named:
            self._params[name] = t

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        return list(self._params.items())

    def parameters(self) -> list[Tensor]:
        return list(self._params.values())

    def zero_grad(self) -> None:
        for t in self._params.values():
            t.zero_grad()

    def config_digest(self) -> str:
        return hashlib.sha256(f"{self.KIND}:{self.cfg}".encode()).hexdigest()

    def state_checksum(self) -> str:
        h = hashlib.sha256()
        for name, t in self.named_parameters():
            h.update(name.encode())
            h.update(t.data.tobytes())
        return h.hexdigest()


def param_count(net: ParamModule) -> int:
    """Total trainable scalar count."""
    return sum(t.data.size for t in net.parameters())


def _image(x) -> Tensor:
    """A (1, H, W) tensor from an (H, W) array; a Tensor passes through."""
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x)[None])


def dense_block(x: Tensor, layer_params: list[tuple[Tensor, Tensor]],
                buf: np.ndarray | None = None) -> Tensor:
    """Densely connected conv layers, each consuming every prior feature map: one node.

    The node runs in place over `buf` (C_in + growth * L, H*W), whose
    first C_in rows hold x's data: the conv that made x wrote them there
    (`conv2d(out=)`), or, if `buf` is None, x is copied into a new buffer.
    Each layer's output goes into the rows after its predecessor's, so
    `buf` ends as the concatenated block output, which the node's output
    views. Map j's stacked conv (the input-channel slices of the kernels
    of layers j.., which read it) writes (map 0) or adds (later maps) its
    product into the rows of layers j.., summing each layer's products in
    map order, and layer j's band gets its bias and leaky ReLU at once.
    Unless nothing it reads needs a gradient, the node keeps a bool mask
    per layer of its pre-activation's sign, which is what `leaky_relu`
    reads.

    The backward walks the maps from last to first. Map m's gradient is its
    rows of the output gradient plus conv2d's input rule on the stacked
    pre-activation gradients of layers m.., the layers that read it, and
    their stacked kernel slices. The weight rule on the same stack gives
    those slices' gradients. Layer m-1's pre-activation gradient is map m's,
    times LEAKY_SLOPE where its mask is false. These are the operations, on
    the same operands, of a tape of per-map convs, index windows, sums and
    `leaky_relu`, so the gradients have its bits.
    """
    c0, h, w = x.shape
    widths = [c0] + [lw.shape[0] for lw, _ in layer_params]
    for j, (lw, _) in enumerate(layer_params):
        if lw.shape[1] != sum(widths[:j + 1]):
            raise ShapeError(f"dense layer {j} kernel {lw.shape} does not read {widths[:j + 1]}")
    start = np.cumsum([0] + widths)                 # map m: rows start[m]:start[m+1]
    if buf is None:
        buf = np.empty((start[-1], h * w))
        buf[:c0] = x.data.reshape(c0, -1)
    elif buf.shape != (start[-1], h * w) or buf.ctypes.data != x.data.ctypes.data:
        raise ContractError(f"dense block buffer {buf.shape} does not begin with its input")
    leaves = [x] + [t for pair in layer_params for t in pair]
    needed = [t.requires_grad for t in leaves]      # read when the node records
    mask = np.empty((start[-1] - c0, h * w), dtype=bool) if any(needed) else None
    for j, (_, b) in enumerate(layer_params):
        lo, hi = start[j], start[j + 1]
        stacked = np.concatenate([lw.data[:, lo:hi] for lw, _ in layer_params[j:]])
        ad.conv_into(buf[lo:hi].reshape(hi - lo, h, w), stacked, buf[hi:], 1, 1,
                     b.data, True, j > 0,
                     None if mask is None else mask[hi - c0:start[j + 2] - c0])
    out = buf.reshape(-1, h, w)
    if mask is None:
        return ad._node(out)
    mask = mask.reshape(-1, h, w)

    def grads(g):
        n_layers = len(layer_params)
        pre = np.empty_like(mask, dtype=np.float64)  # layer l: rows start[l+1]-c0:start[l+2]-c0
        gx, gws = None, [np.zeros(lw.shape) if needed[1 + 2 * l] else None
                         for l, (lw, _) in enumerate(layer_params)]
        for m in range(n_layers, -1, -1):
            lo, hi = start[m], start[m + 1]
            gm = g[lo:hi]
            if m < n_layers:
                stack = pre[hi - c0:]                # layers m.., which read map m
                kernels = np.concatenate([lw.data[:, lo:hi] for lw, _ in layer_params[m:]])
                if m > 0 or needed[0]:
                    gm = gm + ad.conv_input_grad(stack, kernels, (hi - lo, h, w), 1, 1)
                if any(gw is not None for gw in gws[m:]):
                    gk = ad.conv_weight_grad(stack, out[lo:hi], kernels.shape[2], 1, 1)
                    for l in range(m, n_layers):
                        if gws[l] is not None:
                            gws[l][:, lo:hi] += gk[start[l + 1] - hi:start[l + 2] - hi]
            if m > 0:
                rows = slice(lo - c0, hi - c0)
                np.multiply(gm, np.where(mask[rows], 1.0, ad.LEAKY_SLOPE), out=pre[rows])
            else:
                gx = gm
        flat = [gx]
        for l in range(n_layers):
            p = pre[start[l + 1] - c0:start[l + 2] - c0]
            flat += [gws[l], p.sum(axis=(1, 2)) if needed[2 + 2 * l] else None]
        return tuple(gr for gr, n in zip(flat, needed) if n)

    return ad._node(out, tuple(t for t, n in zip(leaves, needed) if n), grads)


class TeacherNet(ParamModule):
    """Fusion network with repository cross-attention over semantic patches."""

    KIND = "teacher"

    def __init__(self, cfg: TeacherConfig = TeacherConfig(), seed: int = 0):
        super().__init__()
        self.cfg = cfg
        rng = np.random.default_rng(seed)
        cb, d = cfg.base_channels, cfg.heads * cfg.head_dim
        self.shared_repo = cfg.variant != "no_pr"
        if self.shared_repo:
            self.enc1 = self._conv(rng, "enc1", cb, 2, 3)
            self.enc2 = self._conv(rng, "enc2", d, cb, 3)
        self.pvis1 = self._conv(rng, "patch_vis1", cb, 1, 3)
        self.pvis2 = self._conv(rng, "patch_vis2", d, cb, 3)
        self.pir1 = self._conv(rng, "patch_ir1", cb, 1, 3)
        self.pir2 = self._conv(rng, "patch_ir2", d, cb, 3)
        self.stages: list[AttentionParams] = []
        for m in range(STAGES):
            builds = m == 0 or not self.shared_repo    # no_pr: every stage builds one
            own_z, own_kv = OWNS[cfg.variant] if builds else (False, False)
            p = AttentionParams(rng, cfg.heads, cfg.head_dim, f"stage{m}",
                                own_z=own_z, own_kv=own_kv)
            self.stages.append(p)
            self._adopt(p.named())
        self.dec1 = self._conv(rng, "dec1", cb, d, 3)
        self.dec2 = self._conv(rng, "dec2", 1, cb, 3)

    def _encode_pair(self, vis: Tensor, ir: Tensor) -> Tensor:
        h = ad.conv2d(ad.concat([vis, ir]), *self.enc1, padding=1, leaky=True)
        return ad.conv2d(h, *self.enc2, padding=1, stride=2, leaky=True)

    def _encode_patches(self, patches: list, which: str) -> Tensor:
        c1, c2 = (self.pvis1, self.pvis2) if which == "vis" else (self.pir1, self.pir2)
        return reduce(operator.add, [
            ad.conv2d(ad.conv2d(_image(p), *c1, padding=1, leaky=True), *c2, padding=1, stride=2,
                      leaky=True)
            for p in patches])

    def forward(self, vis, ir, patches_vis: list, patches_ir: list
                ) -> tuple[Tensor, list[Tensor]]:
        """Fuse one pair. Returns (fused image (1, H, W), per-stage features)."""
        vis, ir = _image(vis), _image(ir)
        if vis.shape != ir.shape:
            raise ShapeError(f"source shapes differ: {vis.shape} vs {ir.shape}")
        if not patches_vis or not patches_ir:
            raise ContractError(f"empty patch list: {len(patches_vis)} vis, {len(patches_ir)} ir")
        _, h, w = vis.shape
        repo = (build_repository(self._encode_pair(vis, ir), self.stages[0])
                if self.shared_repo else None)
        cur_vis = self._encode_patches(patches_vis, "vis")
        cur_ir = self._encode_patches(patches_ir, "ir")
        feats = []
        for p in self.stages:
            merged, cur_vis, cur_ir = attention_stage(cur_vis, cur_ir, repo, p)
            feats.append(merged)
        up = ad.crop2d(ad.upsample_nearest2(feats[-1]), h, w)
        out = ad.conv2d(up, *self.dec1, padding=1, leaky=True)
        out = ad.conv2d(out, *self.dec2, padding=1)
        return ad.sigmoid(out), feats


class StudentNet(ParamModule):
    """Compact dense-block fusion network, runs without any prior machinery."""

    KIND = "student"

    def __init__(self, cfg: StudentConfig = StudentConfig(), seed: int = 1):
        super().__init__()
        self.cfg = cfg
        rng = np.random.default_rng(seed)
        sc, g = cfg.stem_channels, cfg.growth
        self.stem = self._conv(rng, "stem", sc, 2, 3)
        self.blocks: list[list[tuple[Tensor, Tensor]]] = []
        self.adapters: list[tuple[Tensor, Tensor]] = []
        self.transitions: list[tuple[Tensor, Tensor]] = []
        block_out = sc + g * cfg.layers_per_block
        for b in range(cfg.blocks):
            layers = [self._conv(rng, f"block{b}.layer{j}", g, sc + g * j, 3)
                      for j in range(cfg.layers_per_block)]
            self.blocks.append(layers)
            self.adapters.append(self._conv(rng, f"adapter{b}", cfg.tap_width, block_out, 1))
            self.transitions.append(self._conv(rng, f"transition{b}", sc, block_out, 1))
        self.head = self._conv(rng, "head", 1, sc, 3)

    def forward(self, vis, ir, taps: list | None = None) -> Tensor:
        """Fuse one pair: the fused image (1, H, W).

        Given a list `taps`, appends each block's adapted features to it,
        in block order; without one, no adapter runs. The stem and each
        transition write their output into the first rows of a full-height
        buffer, the next dense block's or, after the last block, the
        head's input. Inside `ad.frozen(self.parameters())`, as `fuse` runs
        it, every op returns a constant, so the pass builds no tape.
        """
        vis, ir = _image(vis), _image(ir)
        if vis.shape != ir.shape:
            raise ShapeError(f"source shapes differ: {vis.shape} vs {ir.shape}")
        _, h, w = vis.shape
        sc = self.cfg.stem_channels
        shape = (sc + self.cfg.growth * self.cfg.layers_per_block, h * w)
        buf = np.empty(shape)
        cur = ad.conv2d(ad.concat([vis, ir]), *self.stem, padding=1, leaky=True,
                        out=buf[:sc])
        for layers, adapter, transition in zip(self.blocks, self.adapters, self.transitions):
            blocked = dense_block(cur, layers, buf)
            if taps is not None:
                taps.append(ad.conv2d(blocked, *adapter, padding=0, stride=2))
            # the last buffer full height too: at 256^2 a smaller one is
            # served from the heap instead of a fresh mapping, and raised
            # the fuse-256 peak RSS by 12 MB
            buf = np.empty(shape)
            cur = ad.conv2d(blocked, *transition, padding=0, leaky=True, out=buf[:sc])
            del blocked                            # free it before the next block runs
        return ad.sigmoid(ad.conv2d(cur, *self.head, padding=1))


def build_nets(seed: int, variant: str = "full") -> tuple[TeacherNet, StudentNet]:
    """The teacher/student pair of a run at `seed`: teacher seed+1, student seed+2.

    perfbench/workloads.py builds its pair with its own copy of this rule,
    which must agree with it.
    """
    return TeacherNet(TeacherConfig(variant=variant), seed=seed + 1), StudentNet(seed=seed + 2)


# ---------------------------------------------------------------------------
# checkpoint format: MAGIC, 32-byte config digest, then per parameter in
# declaration order: u16 name length, name, u8 ndim, u32 dims, float64 LE data.

MAGIC = b"SMFUSE01"


def save_checkpoint(path, net: ParamModule) -> None:
    blob = bytearray(MAGIC + bytes.fromhex(net.config_digest()))
    for name, t in net.named_parameters():
        enc, shape = name.encode(), t.data.shape
        blob += struct.pack(f"<H{len(enc)}sB{len(shape)}I", len(enc), enc, len(shape), *shape)
        blob += t.data.astype("<f8").tobytes()
    with open(path, "wb") as fh:
        fh.write(bytes(blob))


def load_checkpoint(path, net: ParamModule) -> None:
    """Restore parameters in place, all or none; the net must match the checkpoint's config."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:8] != MAGIC:
        raise CheckpointError(f"bad magic {blob[:8]!r}, expected {MAGIC!r}")
    digest = blob[8:40].hex()
    if digest != net.config_digest():
        raise CheckpointError("checkpoint config digest does not match this network")
    pos = 40
    loaded = []

    def take(size: int, what: str) -> bytes:
        nonlocal pos
        if pos + size > len(blob):
            raise CheckpointError(f"checkpoint ends at byte {len(blob)}, inside {what}")
        pos += size
        return blob[pos - size:pos]

    for name, t in net.named_parameters():
        (nlen,) = struct.unpack("<H", take(2, f"the name length of {name}"))
        try:
            got = take(nlen, f"the name of {name}").decode()
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"parameter name is not UTF-8 where {name} belongs") from exc
        if got != name:
            raise CheckpointError(f"parameter order mismatch: expected {name}, found {got}")
        (ndim,) = struct.unpack("<B", take(1, f"the rank of {name}"))
        shape = struct.unpack(f"<{ndim}I", take(4 * ndim, f"the shape of {name}"))
        if shape != t.data.shape:
            raise CheckpointError(f"shape mismatch for {name}: {shape} vs {t.data.shape}")
        n = int(np.prod(shape)) if shape else 1
        data = take(8 * n, f"the data of {name}")
        arr = np.frombuffer(data, dtype="<f8").reshape(shape).astype(np.float64)
        if not np.all(np.isfinite(arr)):
            raise CheckpointError(f"non-finite values in parameter {name}")
        loaded.append((t, arr))
    if pos != len(blob):
        raise CheckpointError(f"{len(blob) - pos} trailing bytes after last parameter")
    for t, arr in loaded:
        t.data = arr
