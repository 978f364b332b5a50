"""Distillation loss terms and their bookkeeping.

Every term returns an autodiff scalar so one backward pass covers any
weighted combination. Norm-like reductions are means over elements, not
raw sums, which keeps magnitudes comparable across resolutions.
"""
from __future__ import annotations

import operator
import warnings
from dataclasses import dataclass, field, fields
from functools import reduce

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ContractError, ShapeError
from .priors import FrozenEncoder, MaskSet

COS_EPS = 1e-8
CS_EPS = 1e-8
PROB_FLOOR = 1e-12


def _cosine(a: Tensor, b: Tensor) -> Tensor:
    """Cosine of two flattened tensors.

    The denominator is floored at COS_EPS rather than shifted by it, so
    identical inputs give cosine exactly 1 (sqrt(x*x) == x in doubles)
    and the alignment loss hits exact zero at its identity.
    """
    fa, fb = ad.flatten(a), ad.flatten(b)
    num = ad.tsum(fa * fb)
    na2 = ad.tsum(fa * fa)
    nb2 = ad.tsum(fb * fb)
    den = ad.clamp_min(ad.sqrt(na2 * nb2), COS_EPS)
    return ad.div(num, den)


def loss_fea(dens: list, spas: list) -> Tensor:
    """Feature alignment: sum over scales of (1 - cosine)."""
    if not dens or len(dens) != len(spas):
        raise ContractError(
            f"feature lists must be non-empty and equal length, "
            f"got {len(dens)} and {len(spas)}")
    for i, (a, b) in enumerate(zip(dens, spas)):
        if a.data.shape != b.data.shape:
            raise ShapeError(
                f"scale {i}: feature shapes differ, "
                f"{a.data.shape} vs {b.data.shape}")
    return reduce(operator.add, [1.0 - _cosine(a, b) for a, b in zip(dens, spas)])


def _check_image(t: Tensor, what: str) -> None:
    if t.data.ndim != 3 or t.data.shape[0] != 1:
        raise ShapeError(f"{what} must be (1, H, W), got {t.data.shape}")


def loss_context(a: Tensor, b: Tensor) -> tuple:
    """Structural + intensity consistency between two images.

    Returns (grad, mse): mean absolute Sobel-response difference and
    mean squared intensity difference. Their sum is the context loss
    for the pair.
    """
    _check_image(a, "first image")
    _check_image(b, "second image")
    if a.data.shape != b.data.shape:
        raise ShapeError(f"image shapes differ, {a.data.shape} vs {b.data.shape}")
    g = ad.tmean(ad.absval(ad.sobel(a) - ad.sobel(b)))
    m = ad.tmean(ad.square(a - b))
    return g, m


_BUNDLE_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3))


def context_bundle(ref: Tensor, fus: Tensor, vis: Tensor, ir: Tensor) -> tuple:
    """Context loss over the five image pairs used in training.

    Reference-to-fused keeps the student on the teacher, and each fused
    output is additionally tied to both source images, all unit weight.
    Returns summed (grad, mse).
    """
    imgs = (ref, fus, vis, ir)
    terms = [loss_context(imgs[i], imgs[j]) for i, j in _BUNDLE_PAIRS]
    return (reduce(operator.add, [g for g, _ in terms]),
            reduce(operator.add, [m for _, m in terms]))


def _rms(t: Tensor) -> Tensor:
    return ad.sqrt(ad.tmean(ad.square(t)))


def loss_cs(fus: Tensor, ref: Tensor, vis: Tensor, ir: Tensor,
            masks_vis: MaskSet, masks_ir: MaskSet,
            enc: FrozenEncoder) -> tuple:
    """Contrastive semantic loss per modality, (cs_ir, cs_vis).

    For each modality's union mask M: at every encoder layer the
    positive distance rms(enc(fus*M) - enc(ref*M)) is divided by the
    negative distance to the single-modality source, once with the
    reference and once with the fused output as the anchor, and all
    ratios are summed. A modality whose union mask is empty contributes
    zero and raises a warning.
    """
    for name, t in (("fused", fus), ("reference", ref),
                    ("visible", vis), ("infrared", ir)):
        _check_image(t, f"{name} image")
        if t.data.shape != fus.data.shape:
            raise ShapeError(f"{name} image shape {t.data.shape} != {fus.data.shape}")
    out = {}
    for modality, src, mset in (("ir", ir, masks_ir), ("vis", vis, masks_vis)):
        union = mset.union()
        if union.shape != fus.data.shape[1:]:
            raise ShapeError(
                f"{modality} mask shape {union.shape} != image {fus.data.shape[1:]}")
        if not union.any():
            warnings.warn(f"{modality} union mask is empty; term set to 0")
            out[modality] = Tensor(0.0)
            continue
        mask = Tensor(union.astype(float)[None])
        ef = enc.forward(fus * mask)
        er = enc.forward(ref * mask)
        es = enc.forward(src * mask)
        terms = []
        for f_l, r_l, s_l in zip(ef, er, es):
            num = _rms(f_l - r_l)
            terms += [ad.div(num, _rms(anchor - s_l) + CS_EPS) for anchor in (r_l, f_l)]
        out[modality] = reduce(operator.add, terms)
    return out["ir"], out["vis"]


def loss_seg(probs: Tensor, labels: np.ndarray) -> Tensor:
    """Pixel-wise cross entropy of class probabilities against a label map.

    probs is (C, H, W) on the per-pixel simplex; labels is an integer
    (H, W) map with values in [0, C). Picked probabilities are floored
    at PROB_FLOOR before the log.
    """
    c, h, w = probs.data.shape
    if not np.issubdtype(np.asarray(labels).dtype, np.integer):
        raise ContractError("labels must be an integer array")
    labels = np.asarray(labels)
    if labels.shape != (h, w):
        raise ShapeError(f"labels shape {labels.shape} != spatial {(h, w)}")
    if labels.min() < 0 or labels.max() >= c:
        raise ContractError(
            f"labels must lie in [0, {c}), got range "
            f"[{labels.min()}, {labels.max()}]")
    flat = ad.reshape(probs, (c, h * w))
    onehot = np.zeros((c, h * w))
    onehot[labels.ravel(), np.arange(h * w)] = 1.0
    picked = ad.matmul(Tensor(np.ones((1, c))), flat * Tensor(onehot))
    return ad.tmean(-ad.log(ad.clamp_min(picked, PROB_FLOOR)))


_TERM = {"term": True}


@dataclass(frozen=True)
class LossBreakdown:
    """One training step's loss components, CSV-serializable.

    The six fields marked as terms are the per-step batch means that
    training logs; context, cs and the totals are sums of them.
    """

    step: int
    lr_main: float
    lr_sub: float
    fea: float = field(metadata=_TERM)
    grad: float = field(metadata=_TERM)
    mse: float = field(metadata=_TERM)
    context: float
    cs_ir: float = field(metadata=_TERM)
    cs_vis: float = field(metadata=_TERM)
    cs: float
    seg: float = field(metadata=_TERM)
    total_sub: float
    total_main: float

    @classmethod
    def from_parts(cls, step: int, lr_main: float, lr_sub: float,
                   **terms: float) -> "LossBreakdown":
        """Derive the sums from any subset of the terms; an absent term is 0.0."""
        unknown = sorted(set(terms) - set(TERMS))
        if unknown:
            raise ContractError(f"unknown loss terms {unknown}; known: {list(TERMS)}")
        parts = {name: terms.get(name, 0.0) for name in TERMS}
        for name, v in parts.items():
            if v < 0 or not np.isfinite(v):
                raise ContractError(f"loss part {name} must be finite and >= 0, got {v}")
        context = parts["grad"] + parts["mse"]
        cs = parts["cs_ir"] + parts["cs_vis"]
        total_sub = parts["fea"] + context + cs
        return cls(step=step, lr_main=lr_main, lr_sub=lr_sub, context=context, cs=cs,
                   total_sub=total_sub, total_main=total_sub + parts["seg"], **parts)

    def csv_row(self) -> str:
        cells = [str(self.step)]
        cells += [repr(float(getattr(self, f.name))) for f in fields(self)[1:]]
        return ",".join(cells)


TERMS = tuple(f.name for f in fields(LossBreakdown) if f.metadata.get("term"))
CSV_HEADER = ",".join(f.name for f in fields(LossBreakdown))
