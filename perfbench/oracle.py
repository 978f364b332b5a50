"""Independent reference computations for the benchmark's output checks.

Nothing here imports semfuse. The checkpoint decoder follows the
documented SMFUSE01 layout, the student forward computes every
convolution by shift-and-accumulate (no im2col), and the metrics are
recomputed from the bytes of the written files.
"""
from __future__ import annotations

import re
import struct
from pathlib import Path

import numpy as np

MAGIC = b"SMFUSE01"
LEAKY_SLOPE = 0.2

# BT.601 full range, the colour convention the README documents. The
# matrices are applied as (N, 3) @ M.T, the same operation order as the
# program, so a luma that lands exactly on a rounding boundary quantizes
# to the same level in both.
RGB_TO_YCC = np.array([
    [0.299, 0.587, 0.114],
    [-0.168735892, -0.331264108, 0.5],
    [0.5, -0.418687589, -0.081312411],
])
YCC_TO_RGB = np.array([
    [1.0, 0.0, 1.402],
    [1.0, -0.344136286, -0.714136286],
    [1.0, 1.772, 0.0],
])

_PNM_HEADER = re.compile(rb"(P[56])\s+(\d+)\s+(\d+)\s+(\d+)\s")


def parse_pnm(buf: bytes) -> np.ndarray:
    """Binary P5/P6 payload as uint8, (H, W) or (H, W, 3)."""
    m = _PNM_HEADER.match(buf)
    if m is None or int(m.group(4)) != 255:
        raise ValueError("not an 8-bit binary PGM/PPM")
    w, h = int(m.group(2)), int(m.group(3))
    channels = 1 if m.group(1) == b"P5" else 3
    payload = np.frombuffer(buf, dtype=np.uint8, offset=m.end())
    if payload.size != w * h * channels:
        raise ValueError(f"payload holds {payload.size} bytes, expected {w * h * channels}")
    return payload.reshape((h, w) if channels == 1 else (h, w, 3))


def read_checkpoint(path) -> dict[str, np.ndarray]:
    """Decode SMFUSE01: magic, 32-byte config digest, then per parameter
    u16 name length, name, u8 ndim, u32 dims, float64 little-endian data."""
    blob = Path(path).read_bytes()
    if blob[:8] != MAGIC:
        raise ValueError(f"{path}: bad magic {blob[:8]!r}")
    pos = 40
    params = {}
    while pos < len(blob):
        (nlen,) = struct.unpack_from("<H", blob, pos)
        name = blob[pos + 2:pos + 2 + nlen].decode()
        pos += 2 + nlen
        (ndim,) = struct.unpack_from("<B", blob, pos)
        shape = struct.unpack_from(f"<{ndim}I", blob, pos + 1)
        pos += 1 + 4 * ndim
        n = int(np.prod(shape)) if shape else 1
        params[name] = np.frombuffer(blob, dtype="<f8", count=n, offset=pos).reshape(shape)
        pos += 8 * n
    return params


def _conv(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Zero-padded stride-1 conv of (C_in, H, W) with (C_out, C_in, k, k).

    All k*k taps multiply the unshifted input in one product; each tap's
    response is then added to the output shifted by the tap offset,
    clipped at the border, which is where the zero padding acts.
    """
    cout, cin, k, _ = w.shape
    h, wd = x.shape[1:]
    taps = w.transpose(2, 3, 0, 1).reshape(k * k * cout, cin)
    resp = (taps @ x.reshape(cin, h * wd)).reshape(k, k, cout, h, wd)
    out = np.repeat(b[:, None], h * wd, axis=1).reshape(cout, h, wd)
    for di in range(k):
        rows_out, rows_in = _shifted(di - k // 2, h)
        for dj in range(k):
            cols_out, cols_in = _shifted(dj - k // 2, wd)
            out[:, rows_out, cols_out] += resp[di, dj][:, rows_in, cols_in]
    return out


def _shifted(offset: int, n: int) -> tuple[slice, slice]:
    """Output and input index ranges where out[i] takes in[i + offset]."""
    if offset >= 0:
        return slice(0, n - offset), slice(offset, n)
    return slice(-offset, n), slice(0, n + offset)


def _leaky(x: np.ndarray) -> np.ndarray:
    return np.where(x >= 0, x, LEAKY_SLOPE * x)


def student_forward(params: dict[str, np.ndarray], vis: np.ndarray, ir: np.ndarray) -> np.ndarray:
    """Student fused luma in [0, 1]: stem, dense blocks with transitions,
    head and sigmoid. The adapter taps feed only the distillation losses
    and are skipped."""
    blocks = sorted({int(n.split(".")[0][5:]) for n in params if n.startswith("block")})
    cur = _leaky(_conv(np.stack([vis, ir]), params["stem.w"], params["stem.b"]))
    for bi in blocks:
        layers = sorted({int(n.split(".")[1][5:]) for n in params if n.startswith(f"block{bi}.")})
        block = cur
        for li in layers:
            grown = _leaky(_conv(block, params[f"block{bi}.layer{li}.w"], params[f"block{bi}.layer{li}.b"]))
            block = np.concatenate([block, grown])
        cur = _leaky(_conv(block, params[f"transition{bi}.w"], params[f"transition{bi}.b"]))
    logits = _conv(cur, params["head.w"], params["head.b"])[0]
    return np.exp(-np.logaddexp(0.0, -logits))


def quantize(values: np.ndarray) -> np.ndarray:
    return np.floor(np.asarray(values) * 255.0 + 0.5).astype(np.int64)


def split_luma(rgb_u8: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(Y, Cb, Cr) planes in [0, 1] of an 8-bit RGB image."""
    ycc = ((rgb_u8.astype(np.float64) / 255.0).reshape(-1, 3) @ RGB_TO_YCC.T).reshape(rgb_u8.shape)
    return (np.clip(ycc[..., 0], 0.0, 1.0), np.clip(ycc[..., 1] + 0.5, 0.0, 1.0),
            np.clip(ycc[..., 2] + 0.5, 0.0, 1.0))


def join_luma(y: np.ndarray, cb: np.ndarray, cr: np.ndarray) -> np.ndarray:
    """RGB in [0, 1] from a luma and the source chroma planes."""
    stacked = np.stack([y, cb - 0.5, cr - 0.5], axis=-1)
    return np.clip((stacked.reshape(-1, 3) @ YCC_TO_RGB.T).reshape(stacked.shape), 0.0, 1.0)


def gray(img_u8: np.ndarray) -> np.ndarray:
    """The grayscale plane the metrics see: the file itself, or the luma of RGB."""
    return img_u8.astype(np.float64) / 255.0 if img_u8.ndim == 2 else split_luma(img_u8)[0]


def entropy(img: np.ndarray) -> float:
    counts = np.bincount(quantize(img).ravel(), minlength=256)
    p = counts[counts > 0] / img.size
    return float(-np.sum(p * np.log2(p)))


def std255(img: np.ndarray) -> float:
    return float(np.std(img * 255.0))


def _corr(a: np.ndarray, b: np.ndarray) -> float:
    da, db = a - a.mean(), b - b.mean()
    va, vb = np.sum(da * da), np.sum(db * db)
    return 0.0 if va == 0.0 or vb == 0.0 else float(np.sum(da * db) / np.sqrt(va * vb))


def scd(fused: np.ndarray, vis: np.ndarray, ir: np.ndarray) -> float:
    return _corr(fused - ir, vis) + _corr(fused - vis, ir)
