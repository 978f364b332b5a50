"""Cross-attention against a persistent repository of source features.

The repository is built once per input pair: source features are
projected to a latent token matrix Z, and keys/values are projected from
Z. Every attention stage then reads the same repository; queries come
from per-modality patch features. A stage's own projections decide the
repository it builds: without a latent one Z is the raw source tokens
(`no_z`); without key/value ones keys and values are Z itself (`no_kv`).
Under `no_pr` each stage attends to the `no_z` repository of its own
query features.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ContractError, ShapeError
from .instrumentation import bump

# Per variant, what a repository-building stage owns: (latent projection,
# key/value projections). Under `no_pr` every stage builds a `no_z` one.
OWNS = {"full": (True, True), "no_z": (False, True),
        "no_kv": (True, False), "no_pr": (False, True)}
VARIANTS = tuple(OWNS)


def kaiming(rng: np.random.Generator, *shape: int) -> np.ndarray:
    """He-uniform weights of `shape`; the fan-in is the product of shape[1:]."""
    bound = np.sqrt(6.0 / math.prod(shape[1:]))
    return rng.uniform(-bound, bound, size=shape)


class Linear:
    """Dense projection on token matrices: y = W x + b, x is (in, T)."""

    def __init__(self, rng: np.random.Generator, d_out: int, d_in: int, prefix: str,
                 bias: bool = True):
        self.w = Tensor(kaiming(rng, d_out, d_in), requires_grad=True, name=f"{prefix}.w")
        self.b = Tensor(np.zeros((d_out, 1)), requires_grad=True, name=f"{prefix}.b") if bias else None

    def __call__(self, x: Tensor) -> Tensor:
        y = ad.matmul(self.w, x)
        return y + self.b if self.b is not None else y

    def named(self):
        out = [(self.w.name, self.w)]
        if self.b is not None:
            out.append((self.b.name, self.b))
        return out


class AttentionParams:
    """Parameters for one attention stage.

    Its features and tokens are `d` = heads x head_dim wide. Query
    projections are modality specific; head recombination and the
    two-modality merge are shared. Repository projections (latent Z if
    `own_z`, keys and values if `own_kv`) exist only on a stage that builds
    a repository, and `build_repository` uses whichever of them it has.
    """

    def __init__(self, rng: np.random.Generator, heads: int, head_dim: int, prefix: str,
                 own_z: bool, own_kv: bool):
        d = self.d = heads * head_dim
        self.heads = heads
        self.head_dim = head_dim
        self.q_vis = Linear(rng, d, d, f"{prefix}.q_vis")
        self.q_ir = Linear(rng, d, d, f"{prefix}.q_ir")
        self.attn_out = Linear(rng, d, d, f"{prefix}.attn_out")
        self.merge = Linear(rng, d, 2 * d, f"{prefix}.merge")
        self.z_proj = Linear(rng, d, d, f"{prefix}.z") if own_z else None
        # key bias omitted: under row softmax it shifts every logit in a
        # row by the same amount, so it can never influence the output
        self.kv_k = Linear(rng, d, d, f"{prefix}.k", bias=False) if own_kv else None
        self.kv_v = Linear(rng, d, d, f"{prefix}.v") if own_kv else None

    def named(self):
        out = []
        for blk in (self.q_vis, self.q_ir, self.attn_out, self.merge,
                    self.z_proj, self.kv_k, self.kv_v):
            if blk is not None:
                out.extend(blk.named())
        return out


@dataclass
class PersistentRepository:
    """Read-only latent memory shared by every attention stage of a pair."""

    z: Tensor
    k: Tensor
    v: Tensor

    def checksum(self) -> str:
        h = hashlib.sha256()
        for t in (self.z, self.k, self.v):
            h.update(t.data.tobytes())
        return h.hexdigest()


def build_repository(f_src: Tensor, p: AttentionParams) -> PersistentRepository:
    """Project (c, H, W) source features into the token repository.

    Z is `p.z_proj` of the source tokens, or the raw tokens when the stage
    owns no latent projection; keys and values are `p.kv_k(Z)` and
    `p.kv_v(Z)`, or Z itself when the stage owns no key/value projections.
    """
    bump("attention")
    c, h, w = f_src.shape
    if p.z_proj is None and c != p.d:
        raise ShapeError(f"no latent projection: source channels {c} != token width {p.d}")
    tokens = ad.reshape(f_src, (c, h * w))
    z = tokens if p.z_proj is None else p.z_proj(tokens)
    k, v = (z, z) if p.kv_k is None else (p.kv_k(z), p.kv_v(z))
    return PersistentRepository(z=z, k=k, v=v)


def _attend(q: Tensor, k: Tensor, v: Tensor, head_dim: int,
            weights_sink: list | None) -> Tensor:
    """All heads of one attention call as a single tape node.

    Rows [i*head_dim, (i+1)*head_dim) of the (d, T_q) output are head i's
    V_h P_h^T, with P_h = softmax(Q_h^T K_h / sqrt(head_dim)) over rows.
    Each head's P is freed before the next head runs: the node keeps only
    its row max and row sum (T_q floats each), and the backward rebuilds P
    from the same GEMM, scale and stats, so with the same bits. The
    backward forms the score gradient once per head for both dQ and dK and
    skips every input that was constant when the node was recorded.
    """
    scale = 1.0 / np.sqrt(head_dim)
    heads = range(0, q.data.shape[0], head_dim)
    out = np.empty((v.data.shape[0], q.data.shape[1]))

    def weights(lo: int, stats=None):
        s = q.data[lo:lo + head_dim].T @ k.data[lo:lo + head_dim]
        s *= scale
        return ad._softmax_(s, stats)

    stats = []
    for lo in heads:
        w, st = weights(lo)
        out[lo:lo + head_dim] = v.data[lo:lo + head_dim] @ w.T
        stats.append(st)
        if weights_sink is not None:
            weights_sink.append(ad._node(w))
        del w

    # read when the node records, as `_from_op` reads them to keep edges
    needed = [t.requires_grad for t in (q, k, v)]

    def grads(g):
        dq, dk, dv = (np.empty_like(t.data) if n else None for t, n in zip((q, k, v), needed))
        for lo, st in zip(heads, stats):
            hi = lo + head_dim
            w, _ = weights(lo, st)
            if dv is not None:
                dv[lo:hi] = g[lo:hi] @ w
            if dq is None and dk is None:
                continue
            ds = ad._softmax_grad_(g[lo:hi].T @ v.data[lo:hi], w)
            ds *= scale
            if dq is not None:
                dq[lo:hi] = (ds @ k.data[lo:hi].T).T
            if dk is not None:
                dk[lo:hi] = q.data[lo:hi] @ ds
        return tuple(d for d in (dq, dk, dv) if d is not None)

    return ad._node(out, tuple(t for t, n in zip((q, k, v), needed) if n), grads)


def cross_attend(f_q: Tensor, repo: PersistentRepository | None, p: AttentionParams,
                 modality: str, weights_sink: list | None = None) -> Tensor:
    """Multi-head attention of per-modality query features against the repository.

    Queries are projected from (c, H, W) features; each head computes
    softmax(Q_h^T K_h / sqrt(head_dim)) V_h^T over repository tokens, all
    heads in one tape node. With `repo=None` the features attend to the
    repository the stage builds from them (the repository-free ablation).
    `weights_sink` receives each head's (T_q, T_k) weights as a constant.
    """
    bump("attention")
    if modality not in ("vis", "ir"):
        raise ContractError(f"modality must be 'vis' or 'ir', got {modality!r}")
    if repo is None:
        repo = build_repository(f_q, p)
    c, h, w = f_q.shape
    q = (p.q_vis if modality == "vis" else p.q_ir)(ad.reshape(f_q, (c, h * w)))
    out = p.attn_out(_attend(q, repo.k, repo.v, p.head_dim, weights_sink))
    return ad.reshape(out, (p.d, h, w))


def attention_stage(vis_feats: Tensor, ir_feats: Tensor,
                    repo: PersistentRepository | None,
                    p: AttentionParams) -> tuple[Tensor, Tensor, Tensor]:
    """One stage: attend each modality, merge into a fused feature map.

    Returns (merged, vis_attended, ir_attended); the attended maps feed
    the next stage's queries.
    """
    if vis_feats.shape != ir_feats.shape:
        raise ShapeError(f"modality features differ: {vis_feats.shape} vs {ir_feats.shape}")
    av = cross_attend(vis_feats, repo, p, "vis")
    ai = cross_attend(ir_feats, repo, p, "ir")
    d, h, w = av.shape
    both = ad.concat([ad.reshape(av, (d, h * w)), ad.reshape(ai, (d, h * w))])
    merged = ad.reshape(p.merge(both), (d, h, w))
    return merged, av, ai
