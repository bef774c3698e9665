"""The cases that tools/ab.py runs on both sides: per-gaussian API calls and the objects-2k op.

Each case takes a loaded proxysplat package and returns a list of calls
without arguments. Its inputs come from a fixed seed, so the two sides get
equal inputs, and the i-th calls of the two sides take the same one.
"""

from __future__ import annotations

import importlib.util
import sys
from functools import partial
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
N = 1000  # inputs per per-gaussian case


def _params(n: int, seed: int = 24) -> tuple[np.ndarray, ...]:
    """positions, scales, unit quaternions, opacities and colours of n gaussians."""
    rng = np.random.default_rng(seed)
    quats = rng.standard_normal((n, 4))
    quats /= np.linalg.norm(quats, axis=1, keepdims=True)
    return (rng.uniform(-5, 5, (n, 3)), np.exp(rng.uniform(np.log(0.01), np.log(0.5), (n, 3))),
            quats, rng.uniform(0, 1, n), rng.uniform(0, 1, (n, 3)))


def _rows(params, read_only: bool) -> list[tuple]:
    """One Gaussian3D argument tuple per gaussian, its arrays rows of the (read-only) columns."""
    positions, scales, quats, opacities, colors = (a.copy() for a in params)
    for a in (positions, scales, quats, colors):
        a.setflags(write=not read_only)
    return list(zip(positions, scales, quats, opacities.tolist(), colors))


def _views(ps) -> list:
    """Four views onto the scene, 640x480 at f = 500, from eyes 15-25 m out."""
    rng = np.random.default_rng(7)
    eyes = rng.standard_normal((4, 3))
    eyes *= rng.uniform(15, 25, (4, 1)) / np.linalg.norm(eyes, axis=1, keepdims=True)
    return [ps.core.CameraView.look_at(eye, (0.0, 0.0, 0.0), 500.0, 500.0, 319.5, 239.5,
                                       640, 480) for eye in eyes]


def _view_points(views) -> list[tuple]:
    """(view, point) pairs: each view with N / 4 scene points and, for the first view,
    its camera centre, a point near its camera plane and one behind it."""
    positions = _params(N)[0]
    pairs = [(v, p) for k, v in enumerate(views) for p in positions[k::len(views)]]
    v = views[0]
    right, _, forward = v.rotation
    return pairs + [(v, v.camera_center), (v, v.camera_center + 3 * right),
                    (v, v.camera_center - 2 * forward)]


def gaussian3d_writable(ps):
    return [partial(ps.core.Gaussian3D, *row) for row in _rows(_params(N), read_only=False)]


def gaussian3d_read_only(ps):
    return [partial(ps.core.Gaussian3D, *row) for row in _rows(_params(N), read_only=True)]


def quaternion_to_covariance(ps):
    return [partial(ps.core.quaternion_to_covariance, ps.core.Gaussian3D(*row))
            for row in _rows(_params(N), read_only=False)]


def project_point(ps):
    return [partial(ps.core.project_point, v, p) for v, p in _view_points(_views(ps))]


def project_one_point(ps):
    """`project` of one point, as a (3,) and as a (1, 3) array in turn."""
    pairs = _view_points(_views(ps))
    return [partial(v.project, p if i % 2 else p[None]) for i, (v, p) in enumerate(pairs)]


def to_gaussians(ps):
    params = _params(8 * 50)
    sets = [ps.core.GaussianSet(*(a[k:k + 50] for a in params)) for k in range(0, 8 * 50, 50)]
    return [s.to_gaussians for s in sets]


def _workloads(ps):
    """perfbench/workloads.py executed with `ps` as the proxysplat it imports."""
    spec = importlib.util.spec_from_file_location(f"{ps.__name__}_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    saved = sys.modules.get("proxysplat")
    sys.modules["proxysplat"] = ps
    try:
        spec.loader.exec_module(module)
    finally:
        if saved is None:
            del sys.modules["proxysplat"]
        else:
            sys.modules["proxysplat"] = saved
    return module


def objects_2k_op(ps):
    """The objects-2k op's sample, for ops 0-2 of seed 24."""
    w = _workloads(ps).ObjectsAPI(24)
    w.setup()
    return [partial(w.op, k) for k in range(3)]


CASES = {f.__name__: f for f in (gaussian3d_writable, gaussian3d_read_only,
                                  quaternion_to_covariance, project_point, project_one_point,
                                  to_gaussians, objects_2k_op)}
