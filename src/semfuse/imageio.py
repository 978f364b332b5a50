"""Bit-exact binary netpbm (P5/P6) reading and writing, plus YCbCr.

Only 8-bit files (maxval 255) are supported. The writer emits a fixed
canonical header, so save(load(f)) reproduces a canonically written file
byte for byte. Pixels live in [0, 1] as float64; quantization rounds
half away from zero, so 127.5/255 maps back to 128.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, PnmParseError

_WHITESPACE = b" \t\r\n\v\f"

# BT.601 full-range. Grey (r=g=b=v) maps to y=v, cb=cr=0.5.
_FWD = np.array([
    [0.299, 0.587, 0.114],
    [-0.168735892, -0.331264108, 0.5],
    [0.5, -0.418687589, -0.081312411],
])
_INV = np.array([
    [1.0, 0.0, 1.402],
    [1.0, -0.344136286, -0.714136286],
    [1.0, 1.772, 0.0],
])


@dataclass
class Image:
    """Float image in [0, 1]: (H, W) for grayscale, (H, W, 3) for RGB."""

    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.float64)
        if arr.ndim == 2:
            pass
        elif arr.ndim == 3 and arr.shape[2] == 3:
            pass
        else:
            raise ContractError(f"image must be (H, W) or (H, W, 3), got shape {arr.shape}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ContractError(f"image must be at least 1x1, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ContractError("image contains non-finite values")
        if arr.min() < 0.0 or arr.max() > 1.0:
            raise ContractError(f"image values outside [0, 1]: min={arr.min()}, max={arr.max()}")
        self.data = arr

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def channels(self) -> int:
        return 1 if self.data.ndim == 2 else 3


def quantize(values: np.ndarray) -> np.ndarray:
    """[0, 1] floats to uint8, rounding half away from zero."""
    return np.floor(np.asarray(values) * 255.0 + 0.5).astype(np.uint8)


def _read_token(buf: bytes, pos: int, what: str) -> tuple[int, int, int]:
    while pos < len(buf) and buf[pos:pos + 1] in _WHITESPACE:
        pos += 1
    if pos >= len(buf):
        raise PnmParseError(f"unexpected end of header while reading {what}", pos)
    if buf[pos:pos + 1] == b"#":
        raise PnmParseError("comments are not supported", pos)
    start = pos
    while pos < len(buf) and buf[pos:pos + 1].isdigit():
        pos += 1
    if pos == start:
        raise PnmParseError(f"expected a decimal integer for {what}", pos)
    return int(buf[start:pos]), pos, start


def load_image(path) -> Image:
    """Read a binary PGM (P5) or PPM (P6) file with maxval 255."""
    with open(path, "rb") as fh:
        buf = fh.read()
    if len(buf) < 2 or buf[:1] != b"P":
        raise PnmParseError("not a netpbm file (expected P5 or P6 magic)", 0)
    magic = buf[:2]
    if magic not in (b"P5", b"P6"):
        raise PnmParseError(f"unsupported magic {magic!r} (only binary P5/P6)", 0)
    channels = 1 if magic == b"P5" else 3
    pos = 2
    width, pos, _ = _read_token(buf, pos, "width")
    height, pos, _ = _read_token(buf, pos, "height")
    maxval, pos, maxpos = _read_token(buf, pos, "maxval")
    if width < 1 or height < 1:
        raise PnmParseError(f"degenerate dimensions {width}x{height}", 2)
    if maxval != 255:
        raise PnmParseError(f"maxval must be 255, got {maxval}", maxpos)
    if pos >= len(buf) or buf[pos:pos + 1] not in _WHITESPACE:
        raise PnmParseError("expected single whitespace byte after maxval", pos)
    pos += 1
    need = width * height * channels
    payload = buf[pos:]
    if len(payload) < need:
        raise PnmParseError(f"truncated payload: expected {need} bytes, got {len(payload)}",
                            len(buf))
    if len(payload) > need:
        raise PnmParseError(f"trailing data after payload: {len(payload) - need} extra bytes",
                            pos + need)
    raw = np.frombuffer(payload, dtype=np.uint8, count=need)
    shape = (height, width) if channels == 1 else (height, width, 3)
    return Image(raw.reshape(shape).astype(np.float64) / 255.0)


def save_image(img: Image, path) -> None:
    """Write `img` as binary P5/P6 with the canonical header."""
    magic = b"P5" if img.channels == 1 else b"P6"
    header = magic + f"\n{img.width} {img.height}\n255\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(quantize(img.data).tobytes())


def rgb_to_ycbcr(img: Image) -> tuple[Image, tuple[Image, Image]]:
    """Split an RGB image into (Y, (Cb, Cr)), all single-channel in [0, 1]."""
    if img.channels != 3:
        raise ContractError("rgb_to_ycbcr needs a 3-channel image")
    flat = img.data.reshape(-1, 3) @ _FWD.T
    ycc = flat.reshape(img.data.shape)
    y = ycc[..., 0]
    cb = ycc[..., 1] + 0.5
    cr = ycc[..., 2] + 0.5
    # The matrix keeps all three in [0, 1] for RGB in [0, 1]; clip only the
    # few ulps of rounding spill at the boundaries.
    return (Image(np.clip(y, 0.0, 1.0)),
            (Image(np.clip(cb, 0.0, 1.0)), Image(np.clip(cr, 0.0, 1.0))))


def ycbcr_to_rgb(y: Image, cbcr: tuple[Image, Image]) -> Image:
    """Inverse of `rgb_to_ycbcr`. Out-of-gamut results are clipped to [0, 1]."""
    cb, cr = cbcr
    if not (y.channels == cb.channels == cr.channels == 1):
        raise ContractError("ycbcr_to_rgb needs three single-channel images")
    if not (y.data.shape == cb.data.shape == cr.data.shape):
        raise ContractError(f"ycbcr_to_rgb shape mismatch: {y.data.shape}, "
                            f"{cb.data.shape}, {cr.data.shape}")
    stacked = np.stack([y.data, cb.data - 0.5, cr.data - 0.5], axis=-1)
    rgb = stacked.reshape(-1, 3) @ _INV.T
    return Image(np.clip(rgb.reshape(stacked.shape), 0.0, 1.0))
