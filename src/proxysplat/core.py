"""Shared scene data model: points, gaussians, meshes, cameras, rasters.

Everything here is immutable value data once constructed; downstream stages
never mutate these objects in place. Every array field is a read-only view,
so writing through it raises ValueError. An array the caller passes in that
already has the field's dtype is not copied: the field views the caller's
memory, and the caller must not write to its own handle afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Iterable, Sequence

import numpy as np

PSNR_CAP = 99.0
PSNR_BLOCK = 1 << 15  # values per block of psnr

QUAT_NORM_TOL = 1e-6
# |q| in [1 - tol, 1 + tol], written on q.q so that no square root is taken.
QUAT_NORM2_MIN = (1 - QUAT_NORM_TOL) ** 2
QUAT_NORM2_MAX = (1 + QUAT_NORM_TOL) ** 2
ROTATION_ORTHO_TOL = 1e-6
COV_BLOCK = 8192  # rows per block of covariances_from_arrays

_F64_MAX = float(np.finfo(np.float64).max)
# (field, lower, upper, rule) of a gaussian, checked as lower <= min and
# max <= upper, so NaN fails. Strict bounds are written as the nearest
# float64: "> 0" is ">= 5e-324" and "finite" is within +-finfo.max. The
# rotation row bounds q.q, not the components.
_GAUSSIAN_BOUNDS = (
    ("position", -_F64_MAX, _F64_MAX, "finite"),
    ("scale", 5e-324, _F64_MAX, "finite and > 0"),
    ("rotation", QUAT_NORM2_MIN, QUAT_NORM2_MAX, "a unit quaternion"),
    ("opacity", 0.0, 1.0, "in [0, 1]"),
    ("color", 0.0, 1.0, "in [0, 1]"),
)


def _check_gaussians(*extremes) -> None:
    """Raise ValueError unless each (min, max) pair lies in its _GAUSSIAN_BOUNDS row."""
    for (name, lower, upper, rule), (lo, hi) in zip(_GAUSSIAN_BOUNDS, extremes):
        if not (lower <= lo and hi <= upper):
            raise ValueError(f"gaussian {name} must be {rule}")


def _field(a, shape, name, dtype=np.float64) -> np.ndarray:
    """`a` as a read-only `dtype` array of `shape`; otherwise ValueError naming `name`.

    Not a copy when `a` has `dtype` already, and a read-only array comes back as it is.
    """
    out = np.asarray(a, dtype=dtype)
    if out.shape != shape:
        raise ValueError(f"{name}: expected shape {shape}, got {out.shape}")
    if out.flags.writeable:
        out = out.view()  # a copy would double the memory of a large set
        out.setflags(write=False)
    return out


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


def quat_to_rotation(q) -> np.ndarray:
    """Rotation matrix from a unit quaternion (w, x, y, z)."""
    w, x, y, z = np.asarray(q, dtype=np.float64).tolist()
    return np.fromiter(_rotation_entries(w, x, y, z), np.float64, 9).reshape(3, 3)


def quats_to_rotations(quats: np.ndarray) -> np.ndarray:
    """Vectorized (N,4) unit quaternions -> (N,3,3) rotation matrices.

    The result is stored entry-major: it is the (N,3,3) transpose of a
    (3,3,N) buffer, so each entry R[:, i, j] over all rows is contiguous and
    the nine entries are written from contiguous columns w, x, y, z.
    """
    q = np.asarray(quats, dtype=np.float64)
    if q.ndim != 2 or q.shape[1] != 4:
        raise ValueError(f"quats: expected shape (N, 4), got {q.shape}")
    w, x, y, z = q.T.copy()
    R = np.empty((3, 3, len(q)))
    entries = _rotation_entries(w, x, y, z)
    # Each entry is stored before the next is computed, so at most one
    # full-size entry is alive at a time.
    for row in R.reshape(9, len(q)):
        row[...] = next(entries)
    return R.transpose(2, 0, 1)


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
class Gaussian3D:
    """One splat: position, anisotropic scale, rotation, opacity, RGB color.

    Color is view-independent (spherical harmonics degree 0).
    """

    position: np.ndarray
    scale: np.ndarray
    rotation: np.ndarray  # unit quaternion (w, x, y, z)
    opacity: float
    color: np.ndarray

    def __post_init__(self):
        for name, shape in (("position", (3,)), ("scale", (3,)), ("rotation", (4,)),
                            ("color", (3,))):
            object.__setattr__(self, name, _field(getattr(self, name), shape, name))
        p, s, c = self.position, self.scale, self.color
        n2 = float(self.rotation @ self.rotation)
        _check_gaussians((p.min(), p.max()), (s.min(), s.max()), (n2, n2),
                         (self.opacity, self.opacity), (c.min(), c.max()))


def quaternion_to_covariance(g: Gaussian3D) -> np.ndarray:
    """3x3 covariance R diag(scale^2) R^T of a gaussian's ellipsoid."""
    R = quat_to_rotation(g.rotation)
    return (R * (g.scale**2)) @ R.T


def covariances_from_arrays(scales: np.ndarray, quats: np.ndarray) -> np.ndarray:
    """(N,3) scales + (N,4) unit quaternions -> (N,3,3) covariances.

    Each covariance is R diag(s^2) R^T = M M^T with M = R diag(s), so entry
    (i, j) is the dot product of rows i and j of M. The rows are handled in
    blocks of COV_BLOCK: a block's rotations, M and products stay in cache,
    and no full-size temporary is allocated besides the output. M is kept
    entry-major, (3,3,B), so each product reads contiguous rows M[i, k].
    Only the six unique entries are computed; each is written at (i, j) and
    copied to (j, i), so the result is exactly symmetric.

    The result is stored entry-major too: it is the (N,3,3) transpose of a
    (3,3,N) buffer, so each entry over all rows is contiguous and every store
    is a contiguous run. Only the strides differ from a C-ordered (N,3,3)
    array; the values are the same.
    """
    q = np.asarray(quats)
    s = np.asarray(scales)
    n = len(q)
    if s.shape != (n, 3):
        raise ValueError(f"scales: expected shape {(n, 3)}, got {s.shape}")
    out = np.empty((3, 3, n))
    for lo in range(0, n, COV_BLOCK):
        hi = lo + COV_BLOCK
        M = quats_to_rotations(q[lo:hi]).transpose(1, 2, 0)
        M *= s[lo:hi].T
        for i in range(3):
            for j in range(i, 3):
                v = out[i, j, lo:hi]
                np.multiply(M[i, 0], M[j, 0], out=v)
                v += M[i, 1] * M[j, 1]
                v += M[i, 2] * M[j, 2]
                if i != j:
                    out[j, i, lo:hi] = v
    return out.transpose(2, 0, 1)


@dataclass(frozen=True)
class GaussianSet:
    """Columnar set of gaussians; the workhorse container for rendering.

    building_ids uses 0 for surround gaussians, positive ids for buildings,
    and must hold integers in [0, 2**31 - 1].

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
    building_ids: np.ndarray | None = None  # (N,) int32, optional

    def __post_init__(self):
        n = len(self.positions)
        for name, shape in (("positions", (n, 3)), ("scales", (n, 3)), ("rotations", (n, 4)),
                            ("opacities", (n,)), ("colors", (n, 3))):
            object.__setattr__(self, name, _field(getattr(self, name), shape, name))
        if self.building_ids is not None:
            ids = np.asarray(self.building_ids)
            # Checked before the int32 cast, which would wrap, truncate or
            # turn NaN into a negative id without an error.
            if ids.size and not (ids.dtype.kind in "iu" and 0 <= ids.min()
                                 and ids.max() <= np.iinfo(np.int32).max):
                raise ValueError("building_ids must be integers in [0, 2**31 - 1]")
            object.__setattr__(self, "building_ids", _field(ids, (n,), "building_ids", np.int32))

    def validate(self) -> None:
        if len(self) == 0:
            return  # min and max below are undefined on empty arrays
        # The min/max reductions make no full-size temporaries.
        n2 = np.einsum("ij,ij->i", self.rotations, self.rotations)
        _check_gaussians(*((a.min(), a.max()) for a in (
            self.positions, self.scales, n2, self.opacities, self.colors)))

    def __len__(self) -> int:
        return len(self.positions)

    def _columns(self) -> tuple:
        """The fields in declaration order; building_ids may be None."""
        return tuple(getattr(self, f.name) for f in fields(self))

    def select(self, index) -> "GaussianSet":
        return GaussianSet(*(None if c is None else c[index] for c in self._columns()))

    def covariances(self) -> np.ndarray:
        return covariances_from_arrays(self.scales, self.rotations)

    def to_gaussians(self) -> list[Gaussian3D]:
        return [
            Gaussian3D(self.positions[i], self.scales[i], self.rotations[i],
                       float(self.opacities[i]), self.colors[i])
            for i in range(len(self))
        ]

    @staticmethod
    def from_gaussians(gaussians: Sequence[Gaussian3D],
                       building_ids=None) -> "GaussianSet":
        return GaussianSet(
            np.array([g.position for g in gaussians], np.float64).reshape(-1, 3),
            np.array([g.scale for g in gaussians], np.float64).reshape(-1, 3),
            np.array([g.rotation for g in gaussians], np.float64).reshape(-1, 4),
            np.array([g.opacity for g in gaussians], np.float64),
            np.array([g.color for g in gaussians], np.float64).reshape(-1, 3),
            building_ids,
        )

    @staticmethod
    def empty(with_ids: bool = False) -> "GaussianSet":
        ids = np.zeros(0, dtype=np.int32) if with_ids else None
        return GaussianSet(np.zeros((0, 3)), np.ones((0, 3)), np.zeros((0, 4)),
                           np.zeros(0), np.zeros((0, 3)), ids)

    @staticmethod
    def concatenate(sets: Iterable["GaussianSet"]) -> "GaussianSet":
        # Empty sets hold no rows, so whether they carry ids does not matter.
        indexed = [(i, s) for i, s in enumerate(sets) if len(s) > 0]
        if not indexed:
            return GaussianSet.empty()
        missing = [i for i, s in indexed if s.building_ids is None]
        if missing and len(missing) < len(indexed):
            raise ValueError(f"concatenate: set {missing[0]} has no building_ids "
                             "but other sets do")
        # Either every set carries ids or none does.
        columns = zip(*(s._columns() for _, s in indexed))
        return GaussianSet(*(None if c[0] is None else np.concatenate(c) for c in columns))


@dataclass(frozen=True)
class CameraView:
    """Posed pinhole camera. Extrinsics map world to camera space.

    Camera space: x right, y down, z forward. Pixel coordinates follow
    pixel = (fx * x/z + cx, fy * y/z + cy); raster pixel [row, col]
    samples the image plane at (x=col, y=row).
    """

    rotation: np.ndarray  # (3, 3) world-to-camera
    translation: np.ndarray  # (3,)
    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int
    image: np.ndarray | None = None  # (H, W, 3) ground truth in [0, 1]

    def __post_init__(self):
        object.__setattr__(self, "rotation", _field(self.rotation, (3, 3), "rotation"))
        object.__setattr__(self, "translation", _field(self.translation, (3,), "translation"))
        # Every check is written so that NaN fails it, as in _check_gaussians.
        if not (1 <= self.width and 1 <= self.height):
            raise ValueError("image width and height must be >= 1")
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
        if self.image is not None:
            img = _field(self.image, (self.height, self.width, 3), "image")
            if not (0 <= img.min() and img.max() <= 1):
                raise ValueError("image values must be in [0, 1]")
            object.__setattr__(self, "image", img)

    @property
    def camera_center(self) -> np.ndarray:
        return -self.rotation.T @ self.translation

    def with_image(self, image: np.ndarray) -> "CameraView":
        return replace(self, image=image)

    def to_camera(self, points: np.ndarray) -> np.ndarray:
        """(N,3) world points -> (N,3) camera-space points R p + t.

        The result is the (N,3) transpose of a (3,N) buffer, so each
        coordinate over all points is contiguous and the translation is added
        one contiguous row at a time. Only the strides differ from a C-ordered
        (N,3) array; the values are the same.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        cam = self.rotation @ pts.T
        cam += self.translation[:, None]
        return cam.T

    def project(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Project (N,3) world points; returns ((N,2) pixels, (N,) depths).

        Depth is camera-space z; negative depth flags points behind the
        camera (their pixel coordinates are still returned but meaningless).
        The pixels and depths are views of the (3,N) camera-space buffer:
        px and py are computed in place in its rows x and y, and the pixels
        are the (N,2) transpose of those two rows. Only their strides differ
        from a C-ordered (N,2) array, not their values.
        """
        cam = self.to_camera(points).T
        px, py, z = cam
        safe_z = z if z.all() else np.where(z == 0.0, np.finfo(np.float64).tiny, z)
        px *= self.fx
        px /= safe_z
        px += self.cx
        py *= self.fy
        py /= safe_z
        py += self.cy
        return cam[:2].T, z

    def unproject(self, pixels: np.ndarray, depths: np.ndarray) -> np.ndarray:
        """Inverse of project: pixel + camera-space depth -> world point."""
        pix = np.atleast_2d(np.asarray(pixels, dtype=np.float64))
        z = np.atleast_1d(np.asarray(depths, dtype=np.float64))
        x = (pix[:, 0] - self.cx) * z / self.fx
        y = (pix[:, 1] - self.cy) * z / self.fy
        cam = np.stack([x, y, z], axis=1)
        return (cam - self.translation) @ self.rotation

    @staticmethod
    def look_at(eye, target, fx, fy, cx, cy, width, height,
                up=(0.0, 0.0, 1.0), image=None) -> "CameraView":
        eye = _field(eye, (3,), "eye")
        target = _field(target, (3,), "target")
        forward = target - eye
        norm = np.linalg.norm(forward)
        if norm == 0:
            raise ValueError("eye and target coincide")
        forward = forward / norm
        up = _field(up, (3,), "up")
        up_norm = np.linalg.norm(up)
        if not 0 < up_norm < np.inf:
            raise ValueError(f"up must be a finite, non-zero vector, got {up}")
        if abs(np.dot(forward, up) / up_norm) > 0.999:
            up = np.array([1.0, 0.0, 0.0])
        right = np.cross(forward, up)
        right /= np.linalg.norm(right)
        down = np.cross(forward, right)
        R = np.stack([right, down, forward])
        t = -R @ eye
        return CameraView(R, t, fx, fy, cx, cy, width, height, image)


def project_point(view: CameraView, p) -> tuple[np.ndarray, float]:
    """Pinhole projection of one point; depth < 0 flags behind-camera."""
    if isinstance(p, Point3):
        p = p.as_array()
    pix, z = view.project(np.asarray(p, dtype=np.float64).reshape(1, 3))
    return pix[0], float(z[0])


@dataclass(frozen=True)
class Raster:
    """Row-major image raster; 1 channel (mask/depth) or 3 (RGB).

    Depth rasters use +inf as the background sentinel.
    """

    width: int
    height: int
    channels: int
    data: np.ndarray  # (H, W) if channels == 1 else (H, W, 3)

    def __post_init__(self):
        if self.channels not in (1, 3):
            raise ValueError("channels must be 1 or 3")
        expected = (self.height, self.width) if self.channels == 1 else (self.height, self.width, 3)
        object.__setattr__(self, "data", _field(self.data, expected, "raster data"))

    @staticmethod
    def from_array(arr: np.ndarray) -> "Raster":
        arr = np.asarray(arr)
        if arr.ndim == 2:
            return Raster(arr.shape[1], arr.shape[0], 1, arr)
        if arr.ndim == 3 and arr.shape[2] == 3:
            return Raster(arr.shape[1], arr.shape[0], 3, arr)
        raise ValueError("array must be (H, W) or (H, W, 3)")

    @staticmethod
    def full(width: int, height: int, value, channels: int = 3) -> "Raster":
        if channels == 1:
            return Raster(width, height, 1, np.full((height, width), value, dtype=np.float64))
        data = np.empty((height, width, 3), dtype=np.float64)
        data[...] = np.asarray(value, dtype=np.float64)
        return Raster(width, height, 3, data)


def psnr(a, b) -> float:
    """Peak signal-to-noise ratio in dB, peak 1.0, capped at 99 for zero MSE.

    Raises ValueError when the shapes differ, the images are empty or they
    hold NaN or inf. The squared error is summed in blocks of PSNR_BLOCK
    values through one scratch block, so no full-size temporary is made.
    """
    arr_a = a.data if isinstance(a, Raster) else np.asarray(a, dtype=np.float64)
    arr_b = b.data if isinstance(b, Raster) else np.asarray(b, dtype=np.float64)
    if arr_a.shape != arr_b.shape:
        raise ValueError(f"psnr: shape mismatch {arr_a.shape} vs {arr_b.shape}")
    n = arr_a.size
    if n == 0:
        raise ValueError("psnr: the images are empty")
    fa, fb = arr_a.reshape(-1), arr_b.reshape(-1)
    blk = np.empty(min(n, PSNR_BLOCK))
    sse = 0.0
    # inf - inf and overflowing differences end in a non-finite sum, which
    # the check below turns into a ValueError rather than a warning.
    with np.errstate(invalid="ignore", over="ignore"):
        for lo in range(0, n, PSNR_BLOCK):
            d = blk[:min(PSNR_BLOCK, n - lo)]
            np.subtract(fa[lo:lo + PSNR_BLOCK], fb[lo:lo + PSNR_BLOCK], out=d)
            sse += float(np.dot(d, d))
    mse = sse / n
    if not np.isfinite(mse):
        raise ValueError(f"psnr: mean squared error is {mse}; the images hold NaN or inf")
    if mse == 0.0:
        return PSNR_CAP
    return min(PSNR_CAP, 10.0 * np.log10(1.0 / mse))
