"""Shared scene data model: points, gaussians, cameras, rasters.

Everything here is immutable value data once constructed; downstream stages
never mutate these objects in place. Every array field is a read-only view,
so writing through it raises ValueError. An array the caller passes in that
already has the field's dtype is not copied: the field views the caller's
memory, and the caller must not write to its own handle afterwards.

A gaussian's fields, shapes and bounds are written once, in the record table `_GAUSSIAN`.
Every array and scalar argument passes `_real`: real numbers of a shape whose None lengths
match any. Only an array that a value object keeps passes `_field`, which adds a read-only
view; `_scalar` is `_real` of shape (), as a float.

The row kernels `quats_to_rotations`, `covariances_from_arrays`, `GaussianSet.validate`
and `CameraView.project` (of more than one point) each hand `_split` a function of one
block of rows, and `_split` calls it on every block of `_blocks(n)`. From 4 * BLOCK rows
(131 072), whatever the CPU count, the blocks past the middle go to one helper thread.
Every block is computed by the same operations either way, so the result equals the
serial one bit for bit. The helper runs only private functions, so every public entry
point is entered from the calling thread, and a tracer that wraps them sees one thread.
`psnr` stays on one thread. Whether a row warns depends on that row alone, never on the
rows that share its block (see `project`).
"""

from __future__ import annotations

import contextvars
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from functools import partial
from itertools import chain
from operator import attrgetter
from typing import Iterable, Sequence

import numpy as np

PSNR_CAP = 99.0
# Rows per block of the row kernels, and values per block of psnr. Two threads need
# calls this large: over 8 192-row blocks the GIL changed hands around ~5 us ufunc calls
# and the split covariance kernel was slower than one thread.
BLOCK = 1 << 15

QUAT_NORM_TOL = 1e-6
# |q| in [1 - tol, 1 + tol], written on q.q so that no square root is taken.
QUAT_NORM2_MIN = (1 - QUAT_NORM_TOL) ** 2
QUAT_NORM2_MAX = (1 + QUAT_NORM_TOL) ** 2
ROTATION_ORTHO_TOL = 1e-6

_F64_MAX = float(np.finfo(np.float64).max)
_F64_TINY = float(np.finfo(np.float64).tiny)  # the depth project divides by at z == 0
# The record of one gaussian (Kerbl et al. 2023), a row per field in GaussianSet column
# order: (name, shape of one value, lower, upper, rule), checked as lower <= v <= upper,
# so NaN fails. Strict bounds are the nearest float64: "> 0" is ">= 5e-324" and "finite"
# is within +-finfo.max. The rotation row bounds q.q, not the components.
_GAUSSIAN = (
    ("position", (3,), -_F64_MAX, _F64_MAX, "finite"),
    ("scale", (3,), 5e-324, _F64_MAX, "finite and > 0"),
    ("rotation", (4,), QUAT_NORM2_MIN, QUAT_NORM2_MAX, "a unit quaternion"),
    ("opacity", (), 0.0, 1.0, "in [0, 1]"),
    ("color", (3,), 0.0, 1.0, "in [0, 1]"),
)
((_POSITION, _POSITION_SHAPE), (_SCALE, _SCALE_SHAPE), (_ROTATION, _ROTATION_SHAPE),
 (_OPACITY, _), (_COLOR, _COLOR_SHAPE)) = (row[:2] for row in _GAUSSIAN)  # for Gaussian3D


def _check_gaussians(*values) -> None:
    """Raise ValueError unless every value lies within the bounds of its _GAUSSIAN row.

    One table, read two ways: `Gaussian3D` passes each field's own values,
    as Python floats, and `GaussianSet.validate` passes each column's
    (min, max) pair. Each value is tested as `lower <= v <= upper`, so NaN
    fails wherever it sits; the builtin min and max are not used, since
    their result with NaN depends on the order of the values.
    """
    for (name, _, lower, upper, rule), vs in zip(_GAUSSIAN, values):
        for v in vs:
            if not lower <= v <= upper:
                raise ValueError(f"gaussian {name} must be {rule}")


def _real(a, name, shape, dtype=np.dtype(np.float64)) -> np.ndarray:
    """`a` as a `dtype` array of `shape`, a None length matching any; else ValueError.

    The error names `name`. Only real numbers (dtype kind b, i, u or f) are taken,
    never by a lossy cast or a parse. A `shape` of None matches any shape (`psnr`'s
    images). An array that has `dtype` already comes back itself, not a view.
    """
    out = np.asarray(a)
    if out.dtype != dtype:  # the default is a dtype: a type here is converted on each call
        if out.dtype.kind not in "biuf":
            raise ValueError(f"{name}: expected real numbers, got dtype {out.dtype}")
        out = out.astype(dtype)
    if out.shape != shape and shape is not None and not (
            out.ndim == len(shape) and all(s in (None, k) for s, k in zip(shape, out.shape))):
        raise ValueError(f"{name}: expected shape {shape}, got {out.shape}")
    return out


def _field(a, name, shape, dtype=np.dtype(np.float64)) -> np.ndarray:
    """`_real(a, name, shape, dtype)` made read-only, for a value object to keep as a field.

    A writeable array comes back as a read-only view of it, not a copy, and a
    read-only one as it is.
    """
    out = _real(a, name, shape, dtype)
    if out.flags.writeable:
        out = out.view()  # a copy would double the memory of a large set
        out.setflags(write=False)
    return out


def _scalar(v, name) -> float:
    """`v`, one real number (`_real` of shape ()), as a float; else ValueError naming `name`."""
    return v if isinstance(v, float) else float(_real(v, name, ()))


def _new_pool() -> None:
    """Make _split's one-thread pool, whose thread starts with its first task.

    Called at import, in a forked child (which has no copy of the parent's
    thread), and after a submit whose thread failed to start.
    """
    global _pool
    _pool = ThreadPoolExecutor(1, thread_name_prefix="proxysplat")


_new_pool()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_new_pool)


def _blocks(n: int):
    """Slices of BLOCK rows that cover rows [0, n) in order, the last one widened by the rest.

    No block is shorter than BLOCK unless n is, so a block is one row only when
    n is 1: numpy hands a one-column matrix product to BLAS gemv, whose bits can
    differ from those of the same column in a wider product.
    """
    b = 0
    while n - b >= 2 * BLOCK:
        yield slice(b, b + BLOCK)
        b += BLOCK
    if b < n:
        yield slice(b, n)


def _split(fn, n: int) -> list:
    """[fn(b) for b in _blocks(n)], with the second half of the blocks on a helper thread.

    Below 4 * BLOCK rows every block runs in the calling thread: no task is
    submitted, so no thread is started. Otherwise one helper thread maps `fn`
    over the blocks from len(blocks) // 2 on, in a copy of the caller's
    context, so it sees the caller's `np.errstate`, while the calling thread
    maps it over the blocks before them. The call returns or raises only once
    both halves are done, so no block writes into a buffer afterwards. numpy
    releases the GIL in each block-sized ufunc and BLAS call, which is where
    the two halves overlap. Where the helper takes no work (at interpreter
    shutdown, or when its thread cannot be started), every block runs in the
    calling thread.

    The CPU count is not read. On a process pinned to one of 2 vCPUs, with one
    BLAS thread, 10^6-row `validate` + `covariances` + `project` ops split this
    way took 0.99-1.01 of the serial time at the median over six processes.

    The helper thread lives in a one-thread pool that later calls reuse. A
    thread started per call was slower on 2 vCPUs: 10^6-row `validate` and
    `project` calls took 0.58-0.72 of the serial time, against 0.53-0.58
    with the pool.

    `fn(b)` writes only block b's rows of any shared output, and its result
    depends only on those rows, so the results equal the serial ones bit for
    bit. It calls only private helpers: never `_split`, which could wait on
    the one helper thread from that thread, and never a public entry point, so
    that those are entered from the calling thread alone.
    """
    blocks = list(_blocks(n))
    if n < 4 * BLOCK:
        return [*map(fn, blocks)]
    half = len(blocks) // 2
    try:
        tail = _pool.submit(contextvars.copy_context().run, list, map(fn, blocks[half:]))
    except RuntimeError:
        # A pool whose thread failed to start keeps the work queued; it must never run.
        _new_pool()
        return [*map(fn, blocks)]
    try:
        head = [*map(fn, blocks[:half])]
    finally:
        tail.exception()  # waits for the helper, whether or not a head block raised
    return head + tail.result()


class _Value:
    """Base of the value classes: their fields in order, and pickling through the constructor.

    Unpickling and `copy.deepcopy` call the constructor with the field values,
    so a copy is checked again and its array fields are read-only views, as
    in the original. The subclasses with array fields compare and hash by
    identity (`eq=False`): == on an array gives no single truth value.
    """

    def _columns(self) -> tuple:
        """The fields in declaration order."""
        return tuple(getattr(self, f.name) for f in fields(self))

    def __reduce__(self):
        return type(self), self._columns()


def _quat_norm2(w, x, y, z):
    """q.q of quaternion (w, x, y, z) summed left to right, floats or arrays (in place)."""
    n2 = w * w
    n2 += x * x
    n2 += y * y
    n2 += z * z
    return n2


def _rotation_entries(w, x, y, z):
    """The nine rotation entries of quaternion (w, x, y, z), row by row; floats or arrays."""
    yield 1 - 2 * (y * y + z * z)
    yield 2 * (x * y - w * z)
    yield 2 * (x * z + w * y)
    yield 2 * (x * y + w * z)
    yield 1 - 2 * (x * x + z * z)
    yield 2 * (y * z - w * x)
    yield 2 * (x * z - w * y)
    yield 2 * (y * z + w * x)
    yield 1 - 2 * (x * x + y * y)


# (i, j) of the six unique entries of a symmetric 3x3 matrix, in the order
# _covariance_entries yields them.
_UPPER = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))


def _covariance_entries(m):
    """The six unique entries of M M^T, at _UPPER; M indexed m[i][k], floats or arrays.

    Entry (i, j) is the dot product of rows i and j of M, summed left to right.
    On arrays the sum builds up in place in the first product's temporary.
    """
    for i, j in _UPPER:
        mi, mj = m[i], m[j]
        v = mi[0] * mj[0]
        v += mi[1] * mj[1]
        v += mi[2] * mj[2]
        yield v


def _points(points) -> np.ndarray:
    """`points` as an (N,3) `_real` array, one (3,) point as N = 1; other shapes raise.

    The ndim picks the shape, so that one point, which `project_point` passes per
    call, meets an exact shape compare, not the slower None-length match.
    """
    pts = np.asarray(points)
    if pts.ndim == 1:
        return _real(pts, "points", (3,)).reshape(1, 3)
    return _real(pts, "points", (None, 3))


def _pixel(v, f, d, c):
    """Pixel coordinate f v / d + c of camera coordinate v at divisor depth d.

    On floats it returns the value; on arrays it works in place in v, one
    broadcast ufunc call per step. The steps and their order are the same
    either way, so the two give the same bits.
    """
    v *= f
    v /= d
    v += c
    return v


def quat_to_rotation(q) -> np.ndarray:
    """Rotation matrix from a unit quaternion (w, x, y, z)."""
    w, x, y, z = _real(q, "q", (4,)).tolist()
    return np.fromiter(_rotation_entries(w, x, y, z), np.float64, 9).reshape(3, 3)


def quats_to_rotations(quats: np.ndarray) -> np.ndarray:
    """Vectorized (N,4) unit quaternions -> (N,3,3) rotation matrices.

    The result is stored entry-major: it is the (N,3,3) transpose of a
    (3,3,N) buffer, so each entry R[:, i, j] over all rows is contiguous and
    the nine entries are written from contiguous columns w, x, y, z. The rows
    are filled in blocks of BLOCK, split between two threads from 4 * BLOCK
    rows (see `_split`).
    """
    q = _real(quats, "quats", (None, 4))
    R = np.empty((3, 3, len(q)))
    _split(partial(_rotations_into, R.reshape(9, len(q)), q), len(q))
    return R.transpose(2, 0, 1)


def _rotations_into(R9, q, b) -> None:
    """Rotations of the quaternions of block b of q into columns b of the (9,N) entry rows R9.

    The block's contiguous columns w, x, y, z are copied out of q first. Each
    entry is stored before the next is computed, so at most one block-sized
    entry is alive at a time.
    """
    entries = _rotation_entries(*q[b].T.copy())
    for row in R9[:, b]:
        row[...] = next(entries)


@dataclass(frozen=True)
class Point3:
    """A world-space point in meters.

    The components are kept as given, once `_scalar` finds each one real number.
    """

    x: float
    y: float
    z: float

    def __post_init__(self):
        if not all(abs(_scalar(getattr(self, name), name)) <= _F64_MAX for name in "xyz"):
            raise ValueError("Point3 components must be finite")

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])


@dataclass(frozen=True, eq=False, init=False)
class Gaussian3D(_Value):
    """One splat: position, anisotropic scale, rotation, opacity, RGB color.

    Color is view-independent (spherical harmonics degree 0).

    Each field is set once, in `__init__`. The fields are checked against the same _GAUSSIAN
    table as `GaussianSet.validate`, read value by value: each component of position, scale
    and color, q.q of the rotation, and the opacity, as Python floats. q.q is `_quat_norm2` on
    Python floats, so a component too large to square gives q.q = inf and a ValueError, not
    an overflow warning. The opacity is kept as given, once `_scalar` finds it one real number.
    """

    position: np.ndarray
    scale: np.ndarray
    rotation: np.ndarray  # unit quaternion (w, x, y, z)
    opacity: float
    color: np.ndarray

    def __init__(self, position, scale, rotation, opacity, color):
        set_ = object.__setattr__  # unrolled: a loop over _GAUSSIAN was about 1.1x slower
        set_(self, "position", position := _field(position, _POSITION, _POSITION_SHAPE))
        set_(self, "scale", scale := _field(scale, _SCALE, _SCALE_SHAPE))
        set_(self, "rotation", rotation := _field(rotation, _ROTATION, _ROTATION_SHAPE))
        set_(self, "opacity", opacity)
        set_(self, "color", color := _field(color, _COLOR, _COLOR_SHAPE))
        _check_gaussians(position.tolist(), scale.tolist(), (_quat_norm2(*rotation.tolist()),),
                         (_scalar(opacity, _OPACITY),), color.tolist())


def quaternion_to_covariance(g: Gaussian3D) -> np.ndarray:
    """3x3 covariance R diag(scale^2) R^T = M M^T of a gaussian's ellipsoid.

    M = R diag(scale) and its products are computed on Python floats with the formulas of
    covariances_from_arrays, so the result equals that gaussian's row of the kernel exactly.
    The nine rotation entries are evaluated once, into a list; M's rows are entries * scale.
    """
    s0, s1, s2 = g.scale.tolist()
    r = [*_rotation_entries(*g.rotation.tolist())]
    m = ((r[0] * s0, r[1] * s1, r[2] * s2), (r[3] * s0, r[4] * s1, r[5] * s2),
         (r[6] * s0, r[7] * s1, r[8] * s2))
    c00, c01, c02, c11, c12, c22 = _covariance_entries(m)
    return np.array([c00, c01, c02, c01, c11, c12, c02, c12, c22]).reshape(3, 3)


def covariances_from_arrays(scales: np.ndarray, quats: np.ndarray) -> np.ndarray:
    """(N,3) scales + (N,4) unit quaternions -> (N,3,3) covariances.

    Each covariance is R diag(s^2) R^T = M M^T with M = R diag(s), so entry
    (i, j) is the dot product of rows i and j of M. M is kept entry-major,
    (3,3,B), so each product reads contiguous rows M[i, k]. Only the six
    unique entries are computed; each is written at (i, j) and (j, i), so the
    result is exactly symmetric. No full-size array is made besides the output.

    The rotations come from one `quats_to_rotations` call, made in the calling
    thread, and their (3,3,N) buffer becomes the output: its blocks of BLOCK
    rows are turned into covariances in place, split between two threads from
    4 * BLOCK rows (see `_split`).

    The result is the (N,3,3) transpose of a (3,3,N) buffer, so each entry
    over all rows is contiguous and every store is a contiguous run. Only the
    strides differ from a C-ordered (N,3,3) array; the values are the same.
    """
    q = _real(quats, "quats", (None, 4))
    s = _real(scales, "scales", (len(q), 3))
    M = quats_to_rotations(q).transpose(1, 2, 0)
    _split(partial(_covariances_into, M, s), len(q))
    return M.transpose(2, 0, 1)


def _covariances_into(M, s, b) -> None:
    """Turn block b of the (3,3,N) rotations M into the covariances of scales s[b], in place.

    The block is scaled first. All six entries are computed before any is
    written back, and they are freed before the next block.
    """
    blk = M[:, :, b]
    blk *= s[b].T
    entries = list(_covariance_entries(blk))
    for (i, j), v in zip(_UPPER, entries):
        blk[i, j] = v
        blk[j, i] = v


@dataclass(frozen=True, eq=False)
class GaussianSet(_Value):
    """Columnar set of gaussians; the workhorse container for rendering.

    building_ids is always an (N,) int32 array in [0, 2**31 - 1]: 0 for surround
    gaussians, positive ids for buildings. A set built without ids is all
    surround, its ids a read-only broadcast zero that takes no memory.

    The fields are read-only views, so writing through `gs.scales[...]`
    raises ValueError. Arrays the caller passes in that are already float64
    (int32 for building_ids) are not copied, so the caller must not mutate
    them afterwards.
    """

    positions: np.ndarray  # (N, 3)
    scales: np.ndarray  # (N, 3), > 0
    rotations: np.ndarray  # (N, 4), unit quaternions
    opacities: np.ndarray  # (N,), in [0, 1]
    colors: np.ndarray  # (N, 3), in [0, 1]
    building_ids: np.ndarray | None = None  # (N,) int32; None gives all 0

    def __post_init__(self):
        n = None  # positions may have any length; the other columns must match it
        for f, (_, shape, _, _, _) in zip(fields(self), _GAUSSIAN):
            object.__setattr__(self, f.name, _field(getattr(self, f.name), f.name, (n, *shape)))
            n = len(self.positions)
        if self.building_ids is None:
            ids = np.broadcast_to(np.int32(0), (n,))  # valid by construction, so not checked
        else:
            ids = np.asarray(self.building_ids)
            # Checked before the int32 cast, which would wrap, truncate or
            # turn NaN into a negative id without an error.
            if ids.size and not (ids.dtype.kind in "iu" and 0 <= ids.min()
                                 and ids.max() <= np.iinfo(np.int32).max):
                raise ValueError("building_ids must be integers in [0, 2**31 - 1]")
        object.__setattr__(self, "building_ids", _field(ids, "building_ids", (n,), np.int32))

    def validate(self) -> None:
        """Raise ValueError unless every row lies within the bounds of `_GAUSSIAN`.

        From 4 * BLOCK rows the rows are split between two threads (see `_split`).
        """
        parts = _split(self._extremes, len(self))  # no parts, and so no check, when empty
        _check_gaussians(*(chain(*column) for column in zip(*parts)))

    def _extremes(self, b: slice) -> list:
        """(min, max) of block b's rows of each column, q.q for the rotations, in _GAUSSIAN order.

        numpy's min and max, unlike the builtins, give NaN when any value is NaN,
        so a NaN row fails the check. The reductions make no temporaries, and
        q.q is summed and reduced while the block is in cache. A q.q that
        overflows is inf and fails the check, so it is not worth a warning.
        """
        with np.errstate(over="ignore"):
            n2 = _quat_norm2(*self.rotations[b].T)
        return [(a.min(), a.max()) for a in (self.positions[b], self.scales[b], n2,
                                             self.opacities[b], self.colors[b])]

    def __len__(self) -> int:
        return len(self.positions)

    def select(self, index) -> "GaussianSet":
        return GaussianSet(*(c[index] for c in self._columns()))

    def covariances(self) -> np.ndarray:
        return covariances_from_arrays(self.scales, self.rotations)

    def to_gaussians(self) -> list[Gaussian3D]:
        return [Gaussian3D(*row) for row in zip(self.positions, self.scales, self.rotations,
                                                self.opacities.tolist(), self.colors)]

    @staticmethod
    def from_gaussians(gaussians: Sequence[Gaussian3D],
                       building_ids=None) -> "GaussianSet":
        n = len(gaussians)
        return GaussianSet(*(np.array([*map(attrgetter(name), gaussians)], np.float64).reshape(
            n, *shape) for name, shape, _, _, _ in _GAUSSIAN), building_ids)

    @staticmethod
    def empty() -> "GaussianSet":
        return GaussianSet.from_gaussians([])

    @staticmethod
    def concatenate(sets: Iterable["GaussianSet"]) -> "GaussianSet":
        columns = list(zip(*(s._columns() for s in sets)))
        if not columns:
            return GaussianSet.empty()
        return GaussianSet(*(np.concatenate(c) for c in columns))


@dataclass(frozen=True, eq=False)
class CameraView(_Value):
    """Posed pinhole camera. Extrinsics map world to camera space.

    Camera space: x right, y down, z forward. Pixel coordinates follow
    pixel = (fx * x/z + cx, fy * y/z + cy); raster pixel [row, col]
    samples the image plane at (x=col, y=row). A view holds no image: a
    target photo is a (height, width, 3) `Raster` that the caller pairs
    with its view. The intrinsics fx, fy, cx, cy, width and height are kept
    as given, once `_scalar` finds each one real number.
    """

    rotation: np.ndarray  # (3, 3) world-to-camera
    translation: np.ndarray  # (3,)
    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        object.__setattr__(self, "rotation", _field(self.rotation, "rotation", (3, 3)))
        object.__setattr__(self, "translation", _field(self.translation, "translation", (3,)))
        fx, fy, cx, cy, width, height = (_scalar(getattr(self, name), name) for name in
                                         ("fx", "fy", "cx", "cy", "width", "height"))
        # Every check is written so that NaN fails it, as in _check_gaussians.
        if not all(1 <= v and v.is_integer() for v in (width, height)):
            raise ValueError("image width and height must be integers >= 1")
        if not (0 < fx <= _F64_MAX and 0 < fy <= _F64_MAX):
            raise ValueError("focal lengths must be finite and > 0")
        if not (-0.5 <= cx <= width - 0.5 and -0.5 <= cy <= height - 0.5):
            raise ValueError("principal point must lie inside the image")
        if not (np.isfinite(self.rotation).all() and np.isfinite(self.translation).all()):
            raise ValueError("extrinsic rotation and translation must be finite")
        err = np.abs(self.rotation @ self.rotation.T - np.eye(3)).max()
        if not err <= ROTATION_ORTHO_TOL:
            raise ValueError("extrinsic rotation must be orthonormal")
        if not np.linalg.det(self.rotation) > 0:
            raise ValueError("extrinsic rotation must have det +1, not be a reflection")

    @property
    def camera_center(self) -> np.ndarray:
        return -self.rotation.T @ self.translation

    def to_camera(self, points: np.ndarray) -> np.ndarray:
        """(N,3) world points -> (N,3) camera-space points R p + t; one (3,) point is N = 1.

        Any other shape of `points` is a ValueError (see `_points`).
        The result is the (N,3) transpose of a (3,N) buffer, so each coordinate over all
        points is contiguous and the translation is added one contiguous row at a time.
        Only the strides differ from a C-ordered (N,3) array; the values are the same.
        """
        return self._camera(_points(points)).T

    def _camera(self, pts, out=None) -> np.ndarray:
        """R p + t of (B,3) points as a (3,B) array, written into `out` when one is given."""
        cam = np.matmul(self.rotation, pts.T, out=out)
        cam += self.translation[:, None]
        return cam

    def project(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Project (N,3) world points; returns ((N,2) pixels, (N,) depths).

        Depth is camera-space z; negative depth flags points behind the
        camera (their pixel coordinates are still returned but meaningless).
        A point on the camera plane (z == 0) is divided by the smallest
        normal float instead of 0: its pixel coordinates are non-finite (or
        huge, near the optical axis) and as meaningless. The pixel steps warn
        for no point, whatever points share its block: +-inf and NaN there are
        that point's own result. R p + t follows the caller's `np.errstate`.

        The pixels and depths are views of one (3,N) camera-space buffer,
        filled a block of BLOCK points at a time: R p + t is written into the
        block, then its rows x and y are scaled by (fx, fy), divided by z and
        offset by (cx, cy) in place, one broadcast ufunc call each, while the
        block is in cache. The pixels are the (N,2) transpose of rows x and y,
        so only their strides differ from a C-ordered (N,2) array, not their
        values. From 4 * BLOCK points the blocks are split between two threads
        (see `_split`), which gives the serial result bit for bit.

        One point's pixel steps run on Python floats, the same operations in the same order
        as the broadcast path's. Its R p + t is a (3,) gemv, equal bit for bit to `to_camera`'s
        (3,1) product, whose low bits can differ from the point's row of a batch. Its pixels
        and depth are fresh (1,2) and (1,) arrays, not views.
        """
        pts = _points(points)
        if len(pts) == 1:
            x, y, z = (self.rotation @ pts[0] + self.translation).tolist()
            d = z if z else _F64_TINY  # falsy at -0.0 too, as z == 0.0 below
            # float(): a float32 focal length, say, must not set the products' precision.
            return (np.array([[_pixel(x, float(self.fx), d, float(self.cx)),
                               _pixel(y, float(self.fy), d, float(self.cy))]]), np.array([z]))
        cam = np.empty((3, len(pts)))
        f, c = np.array([[self.fx], [self.fy]]), np.array([[self.cx], [self.cy]])
        _split(partial(self._project_into, cam, pts, f, c), len(pts))
        return cam[:2].T, cam[2]

    def _project_into(self, cam, pts, f, c, b) -> None:
        """Pixels and depths of the points of block b of pts into columns b of the (3,N) cam."""
        blk = self._camera(pts[b], cam[:, b])
        xy, z = blk[:2], blk[2]
        # z.all() spares blocks with no z == 0 the cost of np.where (1.09-1.14x on project).
        with np.errstate(over="ignore", invalid="ignore"):
            _pixel(xy, f, z if z.all() else np.where(z == 0.0, _F64_TINY, z), c)

    def unproject(self, pixels: np.ndarray, depths: np.ndarray) -> np.ndarray:
        """Inverse of project: (N,2) pixels + (N,) camera-space depths -> (N,3) world points.

        One (2,) pixel with a scalar depth is N = 1.
        """
        pix = _real(np.atleast_2d(pixels), "pixels", (None, 2))
        z = _real(np.atleast_1d(depths), "depths", (len(pix),))
        x = (pix[:, 0] - self.cx) * z / self.fx
        y = (pix[:, 1] - self.cy) * z / self.fy
        cam = np.stack([x, y, z], axis=1)
        return (cam - self.translation) @ self.rotation

    @staticmethod
    def look_at(eye, target, fx, fy, cx, cy, width, height) -> "CameraView":
        """The view from `eye` to `target`, world +z up; near +-z, world +x stands in for up."""
        eye = _real(eye, "eye", (3,))
        target = _real(target, "target", (3,))
        if not (np.isfinite(eye).all() and np.isfinite(target).all()):
            raise ValueError("eye and target must be finite")
        with np.errstate(over="ignore"):
            forward = target - eye
        big = np.abs(forward).max()
        if not 0 < big < np.inf:
            raise ValueError("eye and target coincide" if big == 0 else
                             "target - eye overflows float64")
        # Scaled by a power of two near its largest component, its norm cannot
        # overflow; a power of two is exact, so forward / norm keeps its bits.
        forward = np.ldexp(forward, -np.frexp(big)[1])
        forward /= np.linalg.norm(forward)
        right = np.cross(forward, (0.0, 0.0, 1.0) if abs(forward[2]) <= 0.999 else (1.0, 0.0, 0.0))
        right /= np.linalg.norm(right)
        down = np.cross(forward, right)
        R = np.stack([right, down, forward])
        t = -R @ eye
        return CameraView(R, t, fx, fy, cx, cy, width, height)


def project_point(view: CameraView, p) -> tuple[np.ndarray, float]:
    """Pinhole projection of one point; depth < 0 flags behind-camera.

    `p` is a Point3 or one point that `project` takes (see `_points`): a (3,)
    or (1, 3) array. Any other shape is a ValueError naming `points`.
    """
    # The row count is checked after project, so `p` passes `_points` once.
    pix, z = view.project(p.as_array() if isinstance(p, Point3) else p)
    if len(z) != 1:
        raise ValueError(f"points: expected one point, got {len(z)}")
    return pix[0], float(z[0])


@dataclass(frozen=True, eq=False)
class Raster(_Value):
    """Row-major float64 image raster: (H, W) for 1 channel (mask/depth), (H, W, 3) for RGB.

    Its only field is `data`: height, width and channels are `data.shape`.
    Depth rasters use +inf as the background sentinel.
    """

    data: np.ndarray

    def __post_init__(self):
        shape = (None, None, 3) if np.ndim(self.data) == 3 else (None, None)
        object.__setattr__(self, "data", _field(self.data, "raster data", shape))

    @staticmethod
    def full(width: int, height: int, value, channels: int = 3) -> "Raster":
        data = np.full((height, width, channels), value, dtype=np.float64)
        return Raster(data[..., 0] if channels == 1 else data)


def psnr(a, b) -> float:
    """Peak signal-to-noise ratio in dB, peak 1.0, capped at 99 for zero MSE.

    Raises ValueError when the shapes differ, the images are empty or not real
    numbers, or they hold NaN or inf. The squared error is summed in blocks of
    BLOCK values through one scratch block, so no full-size temporary is made.
    It runs on one thread: the order of the blocks sets the bits of the sum.
    """
    arr_a = a.data if isinstance(a, Raster) else _real(a, "psnr a", None)
    arr_b = b.data if isinstance(b, Raster) else _real(b, "psnr b", None)
    if arr_a.shape != arr_b.shape:
        raise ValueError(f"psnr: shape mismatch {arr_a.shape} vs {arr_b.shape}")
    n = arr_a.size
    if n == 0:
        raise ValueError("psnr: the images are empty")
    fa, fb = arr_a.reshape(-1), arr_b.reshape(-1)
    blk = np.empty(min(n, BLOCK))
    sse = 0.0
    # inf - inf and overflowing differences end in a non-finite sum, which
    # the check below turns into a ValueError rather than a warning.
    with np.errstate(invalid="ignore", over="ignore"):
        for lo in range(0, n, BLOCK):
            d = blk[:min(BLOCK, n - lo)]
            np.subtract(fa[lo:lo + BLOCK], fb[lo:lo + BLOCK], out=d)
            sse += float(np.dot(d, d))
    mse = sse / n
    if not np.isfinite(mse):
        raise ValueError(f"psnr: mean squared error is {mse}; the images hold NaN or inf")
    return PSNR_CAP if mse == 0.0 else float(min(PSNR_CAP, 10.0 * np.log10(1.0 / mse)))
