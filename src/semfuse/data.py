"""Paired-image datasets: seeded synthetic pairs and directory discovery.

File convention: `<stem>.vis.pgm` (or `.ppm` for color visible) paired
with `<stem>.ir.pgm` in one directory.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import ContractError
from .imageio import Image, load_image, quantize, rgb_to_ycbcr, save_image


def _blobs(rng: np.random.Generator, h: int, w: int, count: int) -> np.ndarray:
    """Sum of random Gaussian bumps, each with its own amplitude."""
    yy, xx = np.mgrid[0:h, 0:w]
    out = np.zeros((h, w))
    for _ in range(count):
        cy, cx = rng.uniform(0, h), rng.uniform(0, w)
        r = rng.uniform(min(h, w) / 10, min(h, w) / 4)
        amp = rng.uniform(0.3, 0.9)
        out += amp * np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * r * r))
    return out


def synth_pair(seed: int, h: int, w: int) -> tuple:
    """One deterministic (visible, infrared) pair on the 8-bit grid.

    Both modalities share blob geometry so fusion has aligned content;
    the visible side adds fine texture and a lighting gradient, the
    infrared side re-weights blobs as thermal sources over a dim
    background.
    """
    rng = np.random.default_rng([977, seed])
    yy, xx = np.mgrid[0:h, 0:w]
    scene = _blobs(rng, h, w, 4)

    gradient = 0.3 * (xx / max(w - 1, 1)) + 0.1 * (yy / max(h - 1, 1))
    texture = 0.08 * np.sin(2 * np.pi * (xx * rng.uniform(2, 5) / w)) \
        * np.sin(2 * np.pi * (yy * rng.uniform(2, 5) / h))
    texture += 0.05 * rng.standard_normal((h, w))
    vis = 0.25 + 0.5 * scene / max(scene.max(), 1e-9) + gradient * 0.5 + texture

    hot = _blobs(rng, h, w, 2)
    ir = 0.1 + 0.55 * scene / max(scene.max(), 1e-9) * rng.uniform(0.4, 0.7) \
        + 0.8 * hot / max(hot.max(), 1e-9)

    vis = quantize(np.clip(vis, 0.0, 1.0)) / 255.0
    ir = quantize(np.clip(ir, 0.0, 1.0)) / 255.0
    return vis, ir


def write_dataset(directory, count: int, h: int = 32, w: int = 32,
                  seed: int = 0) -> list:
    """Write `count` synthetic pairs; returns their stems."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    stems = []
    for i in range(count):
        vis, ir = synth_pair(seed + i, h, w)
        stem = f"pair{i:03d}"
        save_image(Image(vis), directory / f"{stem}.vis.pgm")
        save_image(Image(ir), directory / f"{stem}.ir.pgm")
        stems.append(stem)
    return stems


def discover_pairs(directory) -> list:
    """All (stem, vis_path, ir_path) pairs in a directory, sorted by stem.

    Every visible file needs its infrared partner and vice versa, and a
    stem has one visible file, .pgm or .ppm; orphans or doubled stems
    abort discovery with their stems listed.
    """
    directory = Path(directory)
    vis_files, doubled = {}, []
    for ext in ("pgm", "ppm"):
        for p in directory.glob(f"*.vis.{ext}"):
            stem = p.name[:-8]
            if stem in vis_files:
                doubled.append(stem)
            vis_files[stem] = p
    if doubled:
        raise ContractError(f"stems with both a .vis.pgm and a .vis.ppm in {directory}: "
                            f"{', '.join(sorted(doubled))}")
    ir_files = {p.name[:-7]: p for p in directory.glob("*.ir.pgm")}
    orphans = sorted(set(vis_files) ^ set(ir_files))
    if orphans:
        raise ContractError(f"unpaired stems in {directory}: {', '.join(orphans)}")
    if not vis_files:
        raise ContractError(f"no image pairs found in {directory}")
    return [(stem, vis_files[stem], ir_files[stem]) for stem in sorted(vis_files)]


def load_pair(vis_path, ir_path) -> tuple:
    """Grayscale arrays (vis, ir) plus the chroma planes of a color visible.

    Color visible inputs contribute their luma to fusion; the (Cb, Cr)
    pair is returned so a fused luma can be recombined to color.
    """
    vis_img = load_image(vis_path)
    ir_img = load_image(ir_path)
    if ir_img.data.ndim != 2:
        raise ContractError(f"infrared image must be grayscale: {ir_path}")
    chroma = None
    if vis_img.data.ndim == 3:
        y, chroma = rgb_to_ycbcr(vis_img)
        vis = y.data
    else:
        vis = vis_img.data
    if vis.shape != ir_img.data.shape:
        raise ContractError(
            f"pair shapes differ: {vis.shape} vs {ir_img.data.shape}")
    return vis, ir_img.data, chroma


def random_crop(vis: np.ndarray, ir: np.ndarray, size: int,
                rng: np.random.Generator) -> tuple:
    """Aligned square crop from both modalities."""
    h, w = vis.shape
    if size > h or size > w:
        raise ContractError(f"crop {size} exceeds image {h}x{w}")
    r = int(rng.integers(0, h - size + 1))
    c = int(rng.integers(0, w - size + 1))
    return vis[r:r + size, c:c + size], ir[r:r + size, c:c + size]
