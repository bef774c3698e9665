"""Shared scene data model: points, gaussians, meshes, cameras, rasters.

Everything here is immutable value data once constructed; downstream stages
never mutate these objects in place.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

import numpy as np

PSNR_CAP = 99.0

QUAT_NORM_TOL = 1e-6
ROTATION_ORTHO_TOL = 1e-6
COV_BLOCK = 8192  # rows per block of covariances_from_arrays


def _as_f64(a, shape=None, name="array"):
    out = np.asarray(a, dtype=np.float64)
    if shape is not None and out.shape != shape:
        raise ValueError(f"{name}: expected shape {shape}, got {out.shape}")
    return out


def quat_to_rotation(q) -> np.ndarray:
    """Rotation matrix from a unit quaternion (w, x, y, z)."""
    w, x, y, z = np.asarray(q, dtype=np.float64)
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def quats_to_rotations(quats: np.ndarray) -> np.ndarray:
    """Vectorized (N,4) unit quaternions -> (N,3,3) rotation matrices."""
    q = np.asarray(quats, dtype=np.float64)
    w, x, y, z = q[:, 0], q[:, 1], q[:, 2], q[:, 3]
    R = np.empty((len(q), 3, 3))
    R[:, 0, 0] = 1 - 2 * (y * y + z * z)
    R[:, 0, 1] = 2 * (x * y - w * z)
    R[:, 0, 2] = 2 * (x * z + w * y)
    R[:, 1, 0] = 2 * (x * y + w * z)
    R[:, 1, 1] = 1 - 2 * (x * x + z * z)
    R[:, 1, 2] = 2 * (y * z - w * x)
    R[:, 2, 0] = 2 * (x * z - w * y)
    R[:, 2, 1] = 2 * (y * z + w * x)
    R[:, 2, 2] = 1 - 2 * (x * x + y * y)
    return R


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
        object.__setattr__(self, "position", _as_f64(self.position, (3,), "position"))
        object.__setattr__(self, "scale", _as_f64(self.scale, (3,), "scale"))
        object.__setattr__(self, "rotation", _as_f64(self.rotation, (4,), "rotation"))
        object.__setattr__(self, "color", _as_f64(self.color, (3,), "color"))
        if not np.all(np.isfinite(self.position)):
            raise ValueError("gaussian position must be finite")
        # Every check is written so that NaN fails it: min and max return NaN
        # when any component is NaN, and every comparison with NaN is False.
        if not (0 < self.scale.min() and self.scale.max() < np.inf):
            raise ValueError("gaussian scale components must be finite and > 0")
        if not abs(np.linalg.norm(self.rotation) - 1.0) <= QUAT_NORM_TOL:
            raise ValueError("gaussian rotation must be a unit quaternion")
        if not (0.0 <= self.opacity <= 1.0):
            raise ValueError("gaussian opacity must be in [0, 1]")
        if not (0 <= self.color.min() and self.color.max() <= 1):
            raise ValueError("gaussian color must be in [0, 1]^3")


def quaternion_to_covariance(g: Gaussian3D) -> np.ndarray:
    """3x3 covariance R diag(scale^2) R^T of a gaussian's ellipsoid."""
    R = quat_to_rotation(g.rotation)
    return (R * (g.scale**2)) @ R.T


def covariances_from_arrays(scales: np.ndarray, quats: np.ndarray) -> np.ndarray:
    """(N,3) scales + (N,4) unit quaternions -> (N,3,3) covariances.

    Each covariance is R diag(s^2) R^T = M M^T with M = R diag(s), so entry
    (i, j) is the dot product of rows i and j of M. The rows are handled in
    blocks of COV_BLOCK: a block's rotations, M and products stay in cache,
    and no full-size temporary is allocated besides the output. Only the six
    unique entries are computed; each is written at (i, j) and (j, i), so
    the result is exactly symmetric.
    """
    q = np.asarray(quats)
    s = np.asarray(scales)
    if s.shape != (len(q), 3):
        raise ValueError(f"scales: expected shape {(len(q), 3)}, got {s.shape}")
    out = np.empty((len(q), 3, 3))
    for lo in range(0, len(q), COV_BLOCK):
        M = quats_to_rotations(q[lo:lo + COV_BLOCK])
        M *= s[lo:lo + COV_BLOCK, None, :]
        block = out[lo:lo + COV_BLOCK]
        for i in range(3):
            for j in range(i, 3):
                v = M[:, i, 0] * M[:, j, 0]
                v += M[:, i, 1] * M[:, j, 1]
                v += M[:, i, 2] * M[:, j, 2]
                block[:, i, j] = v
                block[:, j, i] = v
    return out


@dataclass(frozen=True)
class GaussianSet:
    """Columnar set of gaussians; the workhorse container for rendering.

    building_ids uses 0 for surround gaussians, positive ids for buildings.
    """

    positions: np.ndarray  # (N, 3)
    scales: np.ndarray  # (N, 3), > 0
    rotations: np.ndarray  # (N, 4), unit quaternions
    opacities: np.ndarray  # (N,), in [0, 1]
    colors: np.ndarray  # (N, 3), in [0, 1]
    building_ids: np.ndarray | None = None  # (N,) int32, optional

    def __post_init__(self):
        n = len(np.asarray(self.positions))
        object.__setattr__(self, "positions", _as_f64(self.positions, (n, 3), "positions"))
        object.__setattr__(self, "scales", _as_f64(self.scales, (n, 3), "scales"))
        object.__setattr__(self, "rotations", _as_f64(self.rotations, (n, 4), "rotations"))
        object.__setattr__(
            self, "opacities", _as_f64(self.opacities, (n,), "opacities")
        )
        object.__setattr__(self, "colors", _as_f64(self.colors, (n, 3), "colors"))
        if self.building_ids is not None:
            ids = np.asarray(self.building_ids, dtype=np.int32)
            if ids.shape != (n,):
                raise ValueError("building_ids must be (N,)")
            object.__setattr__(self, "building_ids", ids)

    def validate(self) -> None:
        if len(self) == 0:
            return  # min and max below are undefined on empty arrays
        if not np.all(np.isfinite(self.positions)):
            raise ValueError("positions must be finite")
        # Every check is written so that NaN fails it, as in Gaussian3D. The
        # min/max reductions also make no full-size temporaries.
        if not (0 < self.scales.min() and self.scales.max() < np.inf):
            raise ValueError("scales must be finite and > 0")
        norms = np.linalg.norm(self.rotations, axis=1)
        if not np.all(np.abs(norms - 1.0) <= QUAT_NORM_TOL):
            raise ValueError("rotations must be unit quaternions")
        if not (0 <= self.opacities.min() and self.opacities.max() <= 1):
            raise ValueError("opacities must be in [0, 1]")
        if not (0 <= self.colors.min() and self.colors.max() <= 1):
            raise ValueError("colors must be in [0, 1]")

    def __len__(self) -> int:
        return len(self.positions)

    def select(self, index) -> "GaussianSet":
        ids = None if self.building_ids is None else self.building_ids[index]
        return GaussianSet(
            self.positions[index],
            self.scales[index],
            self.rotations[index],
            self.opacities[index],
            self.colors[index],
            ids,
        )

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
        if len(gaussians) == 0:
            return GaussianSet.empty()
        return GaussianSet(
            np.stack([g.position for g in gaussians]),
            np.stack([g.scale for g in gaussians]),
            np.stack([g.rotation for g in gaussians]),
            np.array([g.opacity for g in gaussians]),
            np.stack([g.color for g in gaussians]),
            building_ids,
        )

    @staticmethod
    def empty(with_ids: bool = False) -> "GaussianSet":
        ids = np.zeros(0, dtype=np.int32) if with_ids else None
        return GaussianSet(
            np.zeros((0, 3)), np.ones((0, 3)), np.tile([1.0, 0, 0, 0], (0, 1)).reshape(0, 4),
            np.zeros(0), np.zeros((0, 3)), ids,
        )

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
        sets = [s for _, s in indexed]
        ids = None if missing else np.concatenate([s.building_ids for s in sets])
        return GaussianSet(
            np.concatenate([s.positions for s in sets]),
            np.concatenate([s.scales for s in sets]),
            np.concatenate([s.rotations for s in sets]),
            np.concatenate([s.opacities for s in sets]),
            np.concatenate([s.colors for s in sets]),
            ids,
        )


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
        object.__setattr__(self, "rotation", _as_f64(self.rotation, (3, 3), "rotation"))
        object.__setattr__(self, "translation", _as_f64(self.translation, (3,), "translation"))
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError("focal lengths must be > 0")
        if not (-0.5 <= self.cx <= self.width - 0.5 and -0.5 <= self.cy <= self.height - 0.5):
            raise ValueError("principal point must lie inside the image")
        err = np.abs(self.rotation @ self.rotation.T - np.eye(3)).max()
        if err > ROTATION_ORTHO_TOL:
            raise ValueError("extrinsic rotation must be orthonormal")
        if self.image is not None:
            img = np.asarray(self.image, dtype=np.float64)
            if img.shape != (self.height, self.width, 3):
                raise ValueError("image shape must match resolution")
            object.__setattr__(self, "image", img)

    @property
    def camera_center(self) -> np.ndarray:
        return -self.rotation.T @ self.translation

    def with_image(self, image: np.ndarray) -> "CameraView":
        return replace(self, image=image)

    def to_camera(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        return pts @ self.rotation.T + self.translation

    def project(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Project (N,3) world points; returns ((N,2) pixels, (N,) depths).

        Depth is camera-space z; negative depth flags points behind the
        camera (their pixel coordinates are still returned but meaningless).
        """
        cam = self.to_camera(points)
        z = cam[:, 2]
        safe_z = np.where(z == 0.0, np.finfo(np.float64).tiny, z)
        px = self.fx * cam[:, 0] / safe_z + self.cx
        py = self.fy * cam[:, 1] / safe_z + self.cy
        return np.stack([px, py], axis=1), z

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
        eye = _as_f64(eye, (3,), "eye")
        target = _as_f64(target, (3,), "target")
        forward = target - eye
        norm = np.linalg.norm(forward)
        if norm == 0:
            raise ValueError("eye and target coincide")
        forward = forward / norm
        up = _as_f64(up, (3,), "up")
        if abs(np.dot(forward, up) / np.linalg.norm(up)) > 0.999:
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
        arr = np.asarray(self.data, dtype=np.float64)
        if arr.shape != expected:
            raise ValueError(f"raster data must have shape {expected}, got {arr.shape}")
        object.__setattr__(self, "data", arr)

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

    Raises ValueError when the shapes differ or the images hold NaN or inf.
    """
    arr_a = a.data if isinstance(a, Raster) else np.asarray(a, dtype=np.float64)
    arr_b = b.data if isinstance(b, Raster) else np.asarray(b, dtype=np.float64)
    if arr_a.shape != arr_b.shape:
        raise ValueError(f"psnr: shape mismatch {arr_a.shape} vs {arr_b.shape}")
    mse = float(np.mean((arr_a - arr_b) ** 2))
    if not np.isfinite(mse):
        raise ValueError(f"psnr: mean squared error is {mse}; the images hold NaN or inf")
    if mse == 0.0:
        return PSNR_CAP
    return min(PSNR_CAP, 10.0 * np.log10(1.0 / mse))
