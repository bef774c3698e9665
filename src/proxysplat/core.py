"""Shared scene data model: points, gaussians, cameras, rasters.

Everything here is immutable value data once constructed; downstream stages
never mutate these objects in place. Every array field is a read-only view,
so writing through it raises ValueError. An array the caller passes in that
already has the field's dtype is not copied: the field views the caller's
memory, and the caller must not write to its own handle afterwards.

A gaussian's fields, shapes and bounds are written once, in the record table `_GAUSSIAN`.
Every array argument passes `_field`: real numbers of a shape whose None lengths match any.

The row kernels `quats_to_rotations`, `covariances_from_arrays`, `GaussianSet.validate`
and `CameraView.project` (of more than one point) work in blocks of BLOCK rows (8 192
for covariances on one thread). From 4 * BLOCK rows (131 072), when the process may use
two CPUs by its affinity mask and cgroup quota, `_split` gives the blocks past the
middle to one helper thread. Every output element is computed by the same
operations either way, so the result equals the serial one bit for bit. The helper runs
only private functions, so every public entry point is entered from the calling thread,
and a tracer that wraps them sees one thread. `psnr` stays on one thread.
"""

from __future__ import annotations

import contextvars
import os
import threading
from dataclasses import dataclass, fields
from functools import partial
from itertools import chain
from operator import attrgetter
from pathlib import Path
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


def _field(a, shape, name, dtype=np.float64) -> np.ndarray:
    """`a` as a read-only `dtype` array of `shape`; otherwise ValueError naming `name`.

    A length of None in `shape` matches any length. Only real numbers (dtype kind
    b, i, u or f) are taken; any other kind is a ValueError, not a lossy cast or a parse.
    Not a copy when `a` has `dtype` already, and a read-only array comes back as it is.
    """
    out = np.asarray(a)
    if out.dtype != dtype:
        if out.dtype.kind not in "biuf":
            raise ValueError(f"{name}: expected real numbers, got dtype {out.dtype}")
        out = out.astype(dtype)
    if out.shape != shape and not (
            out.ndim == len(shape) and all(s in (None, k) for s, k in zip(shape, out.shape))):
        raise ValueError(f"{name}: expected shape {shape}, got {out.shape}")
    if out.flags.writeable:
        out = out.view()  # a copy would double the memory of a large set
        out.setflags(write=False)
    return out


_pool = None  # the helper thread of _split, made on first use
_pool_lock = threading.Lock()


def _drop_pool() -> None:
    """Forget the pool in a forked child, which has no copy of its thread."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_pool)


# Where a container sees its own cgroup's CPU quota: cgroup v2's "quota period" (quota
# "max" for none), else cgroup v1's quota (-1 for none) and period, in that order.
_CPU_QUOTA_FILES = (("/sys/fs/cgroup/cpu.max",),
                    ("/sys/fs/cgroup/cpu/cpu.cfs_quota_us", "/sys/fs/cgroup/cpu/cpu.cfs_period_us"))


def _cpus() -> int:
    """The CPUs this process may use: its affinity mask, capped by a cgroup CPU quota.

    The quota counts whole CPUs, rounded down, so a 1.5-CPU container counts
    as one; a quota that is absent or unreadable caps nothing.
    """
    if hasattr(os, "sched_getaffinity"):
        n = len(os.sched_getaffinity(0))
    else:
        n = os.cpu_count() or 1
    for paths in _CPU_QUOTA_FILES:
        try:
            quota, period = " ".join(Path(p).read_text() for p in paths).split()
            return n if quota in ("max", "-1") else max(1, min(n, int(quota) // int(period)))
        except (OSError, ValueError, ZeroDivisionError):
            continue
    return n


def _serial(n: int) -> bool:
    """Whether `_split` runs an n-row call on the calling thread alone."""
    return n < 4 * BLOCK or _cpus() < 2


def _blocks(lo: int, hi: int):
    """Slices of BLOCK rows that cover [lo, hi), the last one widened by the rest.

    No block is shorter than BLOCK unless the whole range is, so a block is one
    row only when the range is: numpy hands a one-column matrix product to BLAS
    gemv, whose bits can differ from those of the same column in a wider product.
    """
    b = lo
    while hi - b >= 2 * BLOCK:
        yield slice(b, b + BLOCK)
        b += BLOCK
    if b < hi:
        yield slice(b, hi)


def _split(fn, n: int) -> list:
    """[fn(0, n)], or [fn(0, mid), fn(mid, n)] with the second part on a helper thread.

    Below 4 * BLOCK rows, or when the process may use fewer than two CPUs (see
    `_cpus`), `fn` runs once in the calling thread, and no thread is started
    and nothing imported. Otherwise `mid` is a whole number of blocks near
    n / 2: one helper thread runs fn(mid, n) in a copy of the caller's
    context, so it sees the caller's `np.errstate`, while the calling thread
    runs fn(0, mid). The call returns or raises only once both parts are
    done, so no part writes into a buffer afterwards. numpy releases the GIL
    in each block-sized ufunc and BLAS call, which is where the two parts
    overlap. Where the helper takes no work (at interpreter shutdown, or when
    its thread cannot be started), `fn` runs once in the calling thread.

    The helper thread lives in a one-thread pool that later calls reuse. A
    thread started per call was slower on 2 vCPUs: 10^6-row `validate` and
    `project` calls took 0.58-0.72 of the serial time, against 0.53-0.58
    with the pool.

    `fn` writes only its own rows of any shared output, and its result for a
    range depends only on those rows, so the results equal the serial ones bit
    for bit. It calls only private helpers: never `_split`, which could wait on
    the one helper thread from that thread, and never a public entry point, so
    that those are entered from the calling thread alone.
    """
    global _pool
    if _serial(n):
        return [fn(0, n)]
    with _pool_lock:
        if _pool is None:
            from concurrent.futures import ThreadPoolExecutor

            _pool = ThreadPoolExecutor(1, thread_name_prefix="proxysplat")
        pool = _pool
    mid = n // (2 * BLOCK) * BLOCK
    try:
        tail = pool.submit(contextvars.copy_context().run, fn, mid, n)
    except RuntimeError:
        # A pool whose thread failed to start keeps the work queued; it must never run.
        _pool = None
        return [fn(0, n)]
    try:
        head = fn(0, mid)
    finally:
        tail.exception()  # waits for the helper, whether or not fn(0, mid) raised
    return [head, tail.result()]


class _Value:
    """Base of the value classes: their fields in order, and pickling through the constructor.

    Unpickling and `copy.deepcopy` call the constructor with the field values,
    so a copy is checked again and its array fields are read-only views, as
    in the original.
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
    """`points` as an (N,3) float64 array, one (3,) point as N = 1; other shapes raise.

    Not `_field`: `project_point` calls this once per point and so skips the cost of
    a read-only view.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.shape == (3,):
        return pts.reshape(1, 3)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"points: expected shape (N, 3) or (3,), got {pts.shape}")
    return pts


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
    w, x, y, z = _field(q, (4,), "q").tolist()
    return np.fromiter(_rotation_entries(w, x, y, z), np.float64, 9).reshape(3, 3)


def quats_to_rotations(quats: np.ndarray) -> np.ndarray:
    """Vectorized (N,4) unit quaternions -> (N,3,3) rotation matrices.

    The result is stored entry-major: it is the (N,3,3) transpose of a
    (3,3,N) buffer, so each entry R[:, i, j] over all rows is contiguous and
    the nine entries are written from contiguous columns w, x, y, z. The rows
    are filled in blocks of BLOCK, split between two threads from 4 * BLOCK
    rows (see `_split`).
    """
    q = _field(quats, (None, 4), "quats")
    R = np.empty((3, 3, len(q)))
    _split(partial(_rotations_into, R.reshape(9, len(q)), q), len(q))
    return R.transpose(2, 0, 1)


def _rotations_into(R9, q, lo, hi) -> None:
    """Rotations of quaternions q[lo:hi] into columns lo:hi of the (9,N) entry rows R9.

    A block's contiguous columns w, x, y, z are copied out of q first. Each
    entry is stored before the next is computed, so at most one block-sized
    entry is alive at a time.
    """
    for b in _blocks(lo, hi):
        entries = _rotation_entries(*q[b].T.copy())
        for row in R9[:, b]:
            row[...] = next(entries)


@dataclass(frozen=True)
class Point3:
    """A world-space point in meters."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        if not (np.isfinite(self.x) and np.isfinite(self.y) and np.isfinite(self.z)):
            raise ValueError("Point3 components must be finite")

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])


@dataclass(frozen=True)
class Gaussian3D(_Value):
    """One splat: position, anisotropic scale, rotation, opacity, RGB color.

    Color is view-independent (spherical harmonics degree 0).

    The fields are checked against the same _GAUSSIAN table as
    `GaussianSet.validate`, read value by value: each component of position,
    scale and color, q.q of the rotation, and the opacity, as Python floats.
    q.q is `_quat_norm2` on Python floats, so a component too large to square
    gives q.q = inf and a ValueError, not an overflow warning.
    """

    position: np.ndarray
    scale: np.ndarray
    rotation: np.ndarray  # unit quaternion (w, x, y, z)
    opacity: float
    color: np.ndarray

    def __post_init__(self):
        for name, shape, _, _, _ in _GAUSSIAN:
            if shape:  # opacity stays the scalar it was given
                object.__setattr__(self, name, _field(getattr(self, name), shape, name))
        n2 = _quat_norm2(*self.rotation.tolist())
        _check_gaussians(self.position.tolist(), self.scale.tolist(), (n2,),
                         (self.opacity,), self.color.tolist())


def quaternion_to_covariance(g: Gaussian3D) -> np.ndarray:
    """3x3 covariance R diag(scale^2) R^T = M M^T of a gaussian's ellipsoid.

    M = R diag(scale) and its products are computed on Python floats with the
    formulas of covariances_from_arrays, so the result equals that gaussian's
    row of the kernel exactly.
    """
    s = g.scale.tolist()
    r = _rotation_entries(*g.rotation.tolist())
    m = [[next(r) * sk for sk in s] for _ in range(3)]
    c00, c01, c02, c11, c12, c22 = _covariance_entries(m)
    return np.array([c00, c01, c02, c01, c11, c12, c02, c12, c22]).reshape(3, 3)


def covariances_from_arrays(scales: np.ndarray, quats: np.ndarray) -> np.ndarray:
    """(N,3) scales + (N,4) unit quaternions -> (N,3,3) covariances.

    Each covariance is R diag(s^2) R^T = M M^T with M = R diag(s), so entry
    (i, j) is the dot product of rows i and j of M. M is kept entry-major,
    (3,3,B), so each product reads contiguous rows M[i, k]. Only the six
    unique entries are computed; each is written at (i, j) and (j, i), so the
    result is exactly symmetric. No full-size array is made besides the output.

    On one thread (see `_split`) the rows go in blocks of BLOCK // 4 (8 192):
    a block's rotations come from `quats_to_rotations`, and they, M and the
    products stay in a core's L2 while the output is written once. From
    4 * BLOCK rows on two CPUs the rotations instead come from one
    `quats_to_rotations` call, made in the calling thread, and their (3,3,N)
    buffer becomes the output: the two threads turn its blocks of BLOCK rows
    into covariances in place. Both give the same bits.

    The result is the (N,3,3) transpose of a (3,3,N) buffer, so each entry
    over all rows is contiguous and every store is a contiguous run. Only the
    strides differ from a C-ordered (N,3,3) array; the values are the same.
    """
    q = _field(quats, (None, 4), "quats")
    s = _field(scales, (len(q), 3), "scales")
    if _serial(len(q)):
        out = np.empty((3, 3, len(q)))
        for lo in range(0, len(q), BLOCK // 4):
            b = slice(lo, lo + BLOCK // 4)
            _covariances_into(out[:, :, b], quats_to_rotations(q[b]).transpose(1, 2, 0), s[b])
        return out.transpose(2, 0, 1)
    M = quats_to_rotations(q).transpose(1, 2, 0)
    _split(partial(_covariances_over, M, s), len(q))
    return M.transpose(2, 0, 1)


def _covariances_over(M, s, lo, hi) -> None:
    """Turn rows lo:hi of the (3,3,N) rotations M into covariances, in place."""
    for b in _blocks(lo, hi):
        m = M[:, :, b]
        _covariances_into(m, m, s[b])


def _covariances_into(out, M, s) -> None:
    """Covariances of (3,3,B) rotations M and (B,3) scales s into (3,3,B) `out`.

    M is scaled in place. All six entries are computed before any is written,
    so `out` may be M itself.
    """
    M *= s.T
    entries = list(_covariance_entries(M))
    for (i, j), v in zip(_UPPER, entries):
        out[i, j] = v
        out[j, i] = v


@dataclass(frozen=True)
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
            object.__setattr__(self, f.name, _field(getattr(self, f.name), (n, *shape), f.name))
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
        object.__setattr__(self, "building_ids", _field(ids, (n,), "building_ids", np.int32))

    def validate(self) -> None:
        """Raise ValueError unless every row lies within the bounds of `_GAUSSIAN`.

        From 4 * BLOCK rows the rows are split between two threads (see `_split`).
        """
        if len(self) == 0:
            return  # min and max below are undefined on empty arrays
        parts = _split(self._extremes, len(self))
        _check_gaussians(*(chain(*column) for column in zip(*parts)))

    def _extremes(self, lo: int, hi: int) -> list:
        """(min, max) of rows [lo, hi) of each column, q.q for the rotations, in _GAUSSIAN order.

        numpy's min and max, unlike the builtins, give NaN when any value is NaN,
        so a NaN row fails the check. The reductions make no temporaries, and
        q.q is summed and reduced a block of rows at a time, while the block is
        in cache. A q.q that overflows is inf and fails the check, so it is not
        worth a warning.
        """
        n2 = []
        with np.errstate(over="ignore"):
            for b in _blocks(lo, hi):
                block = _quat_norm2(*self.rotations[b].T)
                n2 += block.min(), block.max()
        rows = slice(lo, hi)
        return [(a.min(), a.max()) for a in (self.positions[rows], self.scales[rows],
                                             np.array(n2), self.opacities[rows], self.colors[rows])]

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


@dataclass(frozen=True)
class CameraView(_Value):
    """Posed pinhole camera. Extrinsics map world to camera space.

    Camera space: x right, y down, z forward. Pixel coordinates follow
    pixel = (fx * x/z + cx, fy * y/z + cy); raster pixel [row, col]
    samples the image plane at (x=col, y=row). A view holds no image: a
    target photo is a (height, width, 3) `Raster` that the caller pairs
    with its view.
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
        object.__setattr__(self, "rotation", _field(self.rotation, (3, 3), "rotation"))
        object.__setattr__(self, "translation", _field(self.translation, (3,), "translation"))
        # Every check is written so that NaN fails it, as in _check_gaussians.
        if not all(1 <= v and float(v).is_integer() for v in (self.width, self.height)):
            raise ValueError("image width and height must be integers >= 1")
        if not (0 < self.fx < np.inf and 0 < self.fy < np.inf):
            raise ValueError("focal lengths must be finite and > 0")
        if not (-0.5 <= self.cx <= self.width - 0.5 and -0.5 <= self.cy <= self.height - 0.5):
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
        huge, near the optical axis) and as meaningless, and no warning is
        raised.

        The pixels and depths are views of one (3,N) camera-space buffer,
        filled a block of BLOCK points at a time: R p + t is written into the
        block, then its rows x and y are scaled by (fx, fy), divided by z and
        offset by (cx, cy) in place, one broadcast ufunc call each, while the
        block is in cache. The pixels are the (N,2) transpose of rows x and y,
        so only their strides differ from a C-ordered (N,2) array, not their
        values. From 4 * BLOCK points the blocks are split between two threads
        (see `_split`), which gives the serial result bit for bit.

        One point is evaluated on Python floats with the same operations in
        the same order, so its bits are those of the broadcast path; its
        pixels and depth are fresh (1,2) and (1,) arrays, not views.
        """
        pts = _points(points)
        if len(pts) == 1:
            x, y, z = self._camera(pts)[:, 0].tolist()
            d = z if z else _F64_TINY  # falsy at -0.0 too, as z == 0.0 below
            # float() keeps a numpy scalar focal length (say float32) from
            # setting the precision of the products.
            return (np.array([[_pixel(x, float(self.fx), d, float(self.cx)),
                               _pixel(y, float(self.fy), d, float(self.cy))]]),
                    np.array([z]))
        cam = np.empty((3, len(pts)))
        f, c = np.array([[self.fx], [self.fy]]), np.array([[self.cx], [self.cy]])
        _split(partial(self._project_into, cam, pts, f, c), len(pts))
        return cam[:2].T, cam[2]

    def _project_into(self, cam, pts, f, c, lo, hi) -> None:
        """Pixels and depths of points pts[lo:hi] into columns lo:hi of the (3,N) cam."""
        for b in _blocks(lo, hi):
            blk = self._camera(pts[b], cam[:, b])
            xy, z = blk[:2], blk[2]
            if z.all():
                _pixel(xy, f, z, c)
            else:
                # x / tiny overflows to +-inf once |fx x| exceeds about 4; that
                # result is expected, not an error worth a warning.
                with np.errstate(over="ignore"):
                    _pixel(xy, f, np.where(z == 0.0, _F64_TINY, z), c)

    def unproject(self, pixels: np.ndarray, depths: np.ndarray) -> np.ndarray:
        """Inverse of project: (N,2) pixels + (N,) camera-space depths -> (N,3) world points.

        One (2,) pixel with a scalar depth is N = 1.
        """
        pix = _field(np.atleast_2d(pixels), (None, 2), "pixels")
        z = _field(np.atleast_1d(depths), (len(pix),), "depths")
        x = (pix[:, 0] - self.cx) * z / self.fx
        y = (pix[:, 1] - self.cy) * z / self.fy
        cam = np.stack([x, y, z], axis=1)
        return (cam - self.translation) @ self.rotation

    @staticmethod
    def look_at(eye, target, fx, fy, cx, cy, width, height) -> "CameraView":
        """The view from `eye` to `target`, world +z up; near +-z, world +x stands in for up."""
        eye = _field(eye, (3,), "eye")
        target = _field(target, (3,), "target")
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
    """Pinhole projection of one point; depth < 0 flags behind-camera."""
    if isinstance(p, Point3):
        p = p.as_array()
    pix, z = view.project(np.asarray(p, dtype=np.float64).reshape(1, 3))
    return pix[0], float(z[0])


@dataclass(frozen=True)
class Raster(_Value):
    """Row-major float64 image raster: (H, W) for 1 channel (mask/depth), (H, W, 3) for RGB.

    Its only field is `data`: height, width and channels are `data.shape`.
    Depth rasters use +inf as the background sentinel.
    """

    data: np.ndarray

    def __post_init__(self):
        shape = np.shape(self.data)
        if not (len(shape) == 2 or shape[2:] == (3,)):
            raise ValueError(f"raster data: expected shape (H, W) or (H, W, 3), got {shape}")
        object.__setattr__(self, "data", _field(self.data, shape, "raster data"))

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
    arr_a = a.data if isinstance(a, Raster) else _field(a, np.shape(a), "psnr a")
    arr_b = b.data if isinstance(b, Raster) else _field(b, np.shape(b), "psnr b")
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
    if mse == 0.0:
        return PSNR_CAP
    return min(PSNR_CAP, 10.0 * np.log10(1.0 / mse))
