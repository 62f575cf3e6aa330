"""Binary outputs: 16-bit PGM rasters and raw float64 grids.

Raw grid layout (little-endian, 64-byte header):
  offset  0  magic "HSKW" (4 bytes)
  offset  4  version u8, slice-kind u8 (0 x-fixed, 1 y-fixed), reserved u16
  offset  8  nx u32, ny u32
  offset 16  x0, y0, dx, dy as f64  (x0, y0 = center of pixel (0, 0))
  offset 48  slice constant re, im as f64
followed by ny*nx float64 values, row-major. Readers raise ValidationError
on any file that does not follow the layout, an unknown slice-kind code included.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .grids import SLICE_X, SLICE_Y, SliceGrid, SliceSpec

MAGIC = b"HSKW"
VERSION = 1

_KIND_CODE = {SLICE_X: 0, SLICE_Y: 1}
_CODE_KIND = {v: k for k, v in _KIND_CODE.items()}

_HEADER = struct.Struct("<4sBBHII4d2d")
assert _HEADER.size == 64


def write_raw_grid(path: str | Path, grid: SliceGrid) -> None:
    if grid.data is None:
        raise ValidationError("grid has no data to write")
    const = complex(grid.spec.const)
    header = _HEADER.pack(
        MAGIC,
        VERSION,
        _KIND_CODE[grid.spec.kind],
        0,
        grid.nx,
        grid.ny,
        grid.x0,
        grid.y0,
        grid.dx,
        grid.dy,
        const.real,
        const.imag,
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(grid.data, dtype="<f8").tobytes())


def read_raw_grid(path: str | Path) -> SliceGrid:
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        payload = fh.read()
    if len(head) != _HEADER.size:
        raise ValidationError(f"raw-grid header is {len(head)} bytes, not {_HEADER.size}")
    magic, version, kind, _, nx, ny, x0, y0, dx, dy, cre, cim = _HEADER.unpack(head)
    if magic != MAGIC:
        raise ValidationError(f"bad magic {magic!r}")
    if version != VERSION:
        raise ValidationError(f"unsupported raw-grid version {version}")
    if kind not in _CODE_KIND:
        raise ValidationError(f"unknown raw-grid slice-kind code {kind}")
    if len(payload) != 8 * nx * ny:
        raise ValidationError(f"raw-grid payload is {len(payload)} bytes, not 8 * {nx} * {ny}")
    data = np.frombuffer(payload, dtype="<f8").reshape(ny, nx).copy()
    spec = SliceSpec(_CODE_KIND[kind], complex(cre, cim))
    return SliceGrid(nx=nx, ny=ny, x0=x0, y0=y0, dx=dx, dy=dy, spec=spec, data=data)


def write_pgm16(path: str | Path, values: np.ndarray, lo: float | None = None, hi: float | None = None) -> tuple[float, float]:
    """Binary 16-bit PGM with an affine value map; sidecar records the map.

    Returns the (lo, hi) actually used.
    """
    path = Path(path)
    v = np.asarray(values, dtype=float)
    lo = float(np.nanmin(v)) if lo is None else lo
    hi = float(np.nanmax(v)) if hi is None else hi
    span = hi - lo if hi > lo else 1.0
    scaled = np.clip((v - lo) / span, 0.0, 1.0)
    pix = (scaled * 65535.0 + 0.5).astype(">u2")  # PGM payload is big-endian
    with open(path, "wb") as fh:
        fh.write(f"P5\n{v.shape[1]} {v.shape[0]}\n65535\n".encode())
        fh.write(pix.tobytes())
    sidecar = path.with_suffix(path.suffix + ".map.txt")
    sidecar.write_text(
        f"affine value map: pixel = round(65535 * clamp((value - lo) / (hi - lo), 0, 1))\n"
        f"lo = {lo!r}\nhi = {hi!r}\n"
    )
    return lo, hi


def read_pgm16(path: str | Path) -> np.ndarray:
    with open(path, "rb") as fh:
        if fh.readline().strip() != b"P5":
            raise ValidationError("not a binary PGM")
        try:
            w, h = map(int, fh.readline().split())
            maxval = int(fh.readline())
        except ValueError:
            raise ValidationError("PGM header needs a width, a height and a maxval") from None
        if maxval != 65535:
            raise ValidationError("expected 16-bit PGM")
        payload = fh.read()
    if min(w, h) < 1 or len(payload) != 2 * w * h:
        raise ValidationError(f"PGM of {w} x {h} pixels has {len(payload)} payload bytes")
    return np.frombuffer(payload, dtype=">u2").reshape(h, w).astype(np.uint16)
