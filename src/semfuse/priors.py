"""Deterministic semantic-prior provider.

Stands in for a heavyweight promptable segmenter: Otsu thresholding plus
4-connected components yields region masks, masked copies of the source
act as semantic patches, and two small frozen seeded networks provide a
semantic feature encoder and a per-pixel class predictor. Everything is
a pure function of its inputs and a seed.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from . import autodiff as ad
from .attention import kaiming
from .autodiff import Tensor
from .errors import ContractError
from .imageio import quantize
from .instrumentation import bump

# Seeds for the frozen stand-in networks. Fixed constants so the
# provider behaves like a pretrained component, independent of run seeds.
ENCODER_SEED = 101
SEGMENT_SEED = 202
# The provider's mask policy: at most TOP_K regions per source, each
# covering at least MIN_AREA pixels.
TOP_K = 4
MIN_AREA = 8


@dataclass
class MaskSet:
    """Binary region masks for one source image, largest area first."""

    masks: list[np.ndarray]
    areas: list[int]

    def __post_init__(self):
        for m in self.masks:
            if m.dtype != bool:
                raise ContractError("masks must be boolean arrays")
        if self.areas != sorted(self.areas, reverse=True):
            raise ContractError("masks must be ordered by descending area")

    def union(self) -> np.ndarray:
        out = np.zeros(self.masks[0].shape, dtype=bool)
        for m in self.masks:
            out |= m
        return out


def otsu_threshold(img: np.ndarray) -> int | None:
    """Otsu's threshold over the 256-bin histogram of an image in [0, 1].

    Returns the 8-bit level t maximizing between-class variance; pixels
    with quantized value > t are foreground. None when the image has no
    contrast (single occupied bin).
    """
    levels = quantize(img)
    hist = np.bincount(levels.reshape(-1), minlength=256).astype(np.float64)
    total = hist.sum()
    if np.count_nonzero(hist) < 2:
        return None
    omega = np.cumsum(hist) / total                 # class-0 mass for t = 0..255
    mu = np.cumsum(hist * np.arange(256)) / total   # first moment
    mu_total = mu[-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        sigma_b = (mu_total * omega - mu) ** 2 / (omega * (1.0 - omega))
    sigma_b[~np.isfinite(sigma_b)] = -1.0
    return int(np.argmax(sigma_b))


def _components(binary: np.ndarray) -> list[tuple[int, int, np.ndarray]]:
    """4-connected components of a boolean map as (area, first_pixel, mask)."""
    structure = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)
    labels, n = ndimage.label(binary, structure=structure)
    out = []
    flat = labels.reshape(-1)
    for lbl in range(1, n + 1):
        mask = labels == lbl
        area = int(mask.sum())
        first = int(np.argmax(flat == lbl))
        out.append((area, first, mask))
    return out


def generate_masks(img: np.ndarray, top_k: int, min_area: int) -> MaskSet:
    """Region masks from Otsu + 4-connected components, both polarities.

    Components of the foreground and the background are pooled, filtered
    by `min_area`, and the `top_k` largest kept (ties broken by first
    pixel in row-major order). When nothing survives, or the image has no
    contrast, a single whole-image mask is returned.
    """
    bump("provider")
    if img.ndim != 2:
        raise ContractError(f"generate_masks needs a grayscale (H, W) image, got {img.shape}")
    if top_k < 1 or min_area < 1:
        raise ContractError(f"top_k and min_area must be positive, got {top_k}, {min_area}")
    t = otsu_threshold(img)
    comps = []
    if t is not None:
        fg = quantize(img) > t
        comps = [c for c in _components(fg) + _components(~fg) if c[0] >= min_area]
    if not comps:
        return MaskSet([np.ones(img.shape, dtype=bool)], [int(img.size)])
    comps.sort(key=lambda c: (-c[0], c[1]))
    comps = comps[:top_k]
    return MaskSet([c[2] for c in comps], [c[0] for c in comps])


def random_rect_masks(img: np.ndarray, top_k: int, rng: np.random.Generator) -> MaskSet:
    """Seeded random rectangles standing in for semantic regions.

    This is the ablation that removes the segmentation prior: patches
    become arbitrary crops with no relation to image content.
    """
    bump("provider")
    h, w = img.shape
    rects = []
    for _ in range(top_k):
        rh = int(rng.integers(max(1, h // 4), max(2, 3 * h // 4) + 1))
        rw = int(rng.integers(max(1, w // 4), max(2, 3 * w // 4) + 1))
        r0 = int(rng.integers(0, h - rh + 1))
        c0 = int(rng.integers(0, w - rw + 1))
        m = np.zeros((h, w), dtype=bool)
        m[r0:r0 + rh, c0:c0 + rw] = True
        rects.append((int(m.sum()), r0 * w + c0, m))
    rects.sort(key=lambda c: (-c[0], c[1]))
    return MaskSet([r[2] for r in rects], [r[0] for r in rects])


def make_patches(img: np.ndarray, masks: MaskSet) -> list[np.ndarray]:
    """Masked copies of the source, aligned with `masks`: patch_i = img * mask_i."""
    bump("provider")
    if any(m.shape != img.shape for m in masks.masks):
        raise ContractError("mask shape does not match image")
    return [img * m for m in masks.masks]


class FrozenEncoder:
    """Three strided conv layers with fixed seeded weights.

    Spatial sides halve per layer (16 -> 8 -> 4 -> 2); channels grow
    1 -> 8 -> 16 -> 32. Weights never receive gradients, but the forward
    pass is differentiable with respect to its input.
    """

    CHANNELS = (8, 16, 32)

    def __init__(self):
        rng = np.random.default_rng(ENCODER_SEED)
        self.weights = []
        c_in = 1
        for c_out in self.CHANNELS:
            self.weights.append(Tensor(kaiming(rng, c_out, c_in, 3, 3),
                                       name=f"frozen_enc.conv{len(self.weights)}"))
            c_in = c_out

    def forward(self, x: Tensor) -> list[Tensor]:
        """All three per-layer feature maps of a (1, H, W) tensor."""
        bump("provider")
        feats = []
        cur = x
        for w in self.weights:
            cur = ad.conv2d(cur, w, padding=1, stride=2, leaky=True)
            feats.append(cur)
        return feats


class SegmentationStub:
    """Frozen seeded conv head emitting a per-pixel class distribution."""

    n_classes = 4

    def __init__(self):
        rng = np.random.default_rng(SEGMENT_SEED)
        self.w1 = Tensor(kaiming(rng, 8, 1, 3, 3), name="segstub.conv0")
        self.w2 = Tensor(kaiming(rng, self.n_classes, 8, 3, 3), name="segstub.conv1")

    def forward(self, x: Tensor) -> Tensor:
        """(1, H, W) -> (C, H, W) probabilities summing to 1 over classes."""
        bump("provider")
        h = ad.conv2d(x, self.w1, padding=1, leaky=True)
        logits = ad.conv2d(h, self.w2, padding=1)
        c, hh, ww = logits.shape
        cols = ad.transpose2d(ad.reshape(logits, (c, hh * ww)))   # pixels as rows
        probs = ad.transpose2d(ad.softmax_rows(cols))
        return ad.reshape(probs, (c, hh, ww))


def synth_labels(masks_vis: MaskSet, masks_ir: MaskSet) -> np.ndarray:
    """Integer label map over the stub's n_classes from mask rank:
    background 0, mask i gets class (i mod (n_classes - 1)) + 1 by
    combined descending-area rank; overlaps resolve to the smaller mask."""
    ranked = []
    for src_idx, ms in enumerate((masks_vis, masks_ir)):
        for j, (mask, area) in enumerate(zip(ms.masks, ms.areas)):
            ranked.append((area, src_idx, j, mask))
    ranked.sort(key=lambda r: (-r[0], r[1], r[2]))
    labels = np.zeros(masks_vis.masks[0].shape, dtype=np.int64)
    for rank, (_, _, _, mask) in enumerate(ranked):
        labels[mask] = (rank % (SegmentationStub.n_classes - 1)) + 1   # smaller wins overlaps
    return labels


class PriorProvider:
    """Bundles mask generation policy with the frozen networks.

    `random_patches` swaps the Otsu regions for seeded random rectangles
    (the ablation that removes the segmentation prior).
    """

    def __init__(self, random_patches: bool = False):
        self.random_patches = random_patches
        self.encoder = FrozenEncoder()
        self.stub = SegmentationStub()

    def masks_for(self, img: np.ndarray, rng: np.random.Generator | None = None) -> MaskSet:
        if self.random_patches:
            if rng is None:
                raise ContractError("random_patches mode needs an rng")
            return random_rect_masks(img, TOP_K, rng)
        return generate_masks(img, TOP_K, MIN_AREA)
