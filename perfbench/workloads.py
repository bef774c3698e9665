"""Workload inputs, ops and output checks.

Each workload makes all its inputs from the seed when it is constructed;
the library receives only those arrays. `setup` and `op` call the library
through the `core` module's attributes, so tracing installed on that module
sees every call. `op` returns a small sample of its outputs, and `check`
validates a sample after the timed loop.
"""

from __future__ import annotations

import numpy as np
from proxysplat import core

WIDTH, HEIGHT = 640, 480
FOCAL = 500.0
SCENE_HALF_EXTENT = 5.0  # gaussians lie in a cube of this half side, metres
ORBIT_RADIUS = 20.0  # keeps every gaussian at least 11 m in front of each view
GOLDEN_ANGLE = np.pi * (3.0 - np.sqrt(5.0))
PSNR_PAIRS = 4
SAMPLE_ROWS = 16

COV_TOL = 1e-12
UNPROJECT_TOL = 1e-9
PSNR_TOL = 1e-9


def gaussian_params(rng: np.random.Generator, n: int) -> tuple[np.ndarray, ...]:
    """positions, scales, unit quaternions, opacities, colours of n gaussians."""
    positions = rng.uniform(-SCENE_HALF_EXTENT, SCENE_HALF_EXTENT, (n, 3))
    scales = np.exp(rng.uniform(np.log(0.01), np.log(0.5), (n, 3)))
    quats = rng.standard_normal((n, 4))
    quats /= np.linalg.norm(quats, axis=1, keepdims=True)
    opacities = rng.uniform(0.0, 1.0, n)
    colors = rng.uniform(0.0, 1.0, (n, 3))
    return positions, scales, quats, opacities, colors


def orbit_view(angle: float) -> core.CameraView:
    eye = ORBIT_RADIUS * np.array([np.cos(angle), np.sin(angle), 0.3])
    return core.CameraView.look_at(eye, (0.0, 0.0, 0.0), FOCAL, FOCAL,
                                   (WIDTH - 1) / 2, (HEIGHT - 1) / 2, WIDTH, HEIGHT)


def covariance_errors(rows: np.ndarray, oracle: np.ndarray, idx: np.ndarray) -> list[str]:
    errors = []
    for i, cov, ref in zip(idx, rows, oracle):
        diff = np.abs(cov - ref).max()
        if not diff <= COV_TOL:
            errors.append(f"covariance of gaussian {i} is off its oracle by {diff:.3g}")
        asym = np.abs(cov - cov.T).max()
        if not asym <= COV_TOL:
            errors.append(f"covariance of gaussian {i} is asymmetric by {asym:.3g}")
    return errors


def projection_errors(view, pixels, depths, positions, idx) -> list[str]:
    err = np.abs(view.unproject(pixels, depths) - positions).max(axis=1)
    return [f"gaussian {i} moved {e:.3g} m through project/unproject"
            for i, e in zip(idx, err) if not e <= UNPROJECT_TOL]


def psnr_errors(value: float, delta: float) -> list[str]:
    expected = -20.0 * np.log10(delta)
    if not abs(value - expected) <= PSNR_TOL:
        return [f"psnr {value!r} dB, expected {expected!r} dB for a constant offset {delta!r}"]
    return []


class Workload:
    """One closed-loop client. Subclasses set name, key, default_n and the ops."""

    name = ""
    key = 0  # mixed into the seed, so workloads draw independent inputs
    default_n = 0

    def __init__(self, seed: int, n: int | None = None):
        self.n = self.default_n if n is None else n
        self.rng = np.random.default_rng([seed, self.key])
        self.idx = np.sort(self.rng.choice(self.n, min(SAMPLE_ROWS, self.n), replace=False))
        self.phase = float(self.rng.uniform(0.0, 2.0 * np.pi))

    def _make_images(self):
        self.reference = self.rng.uniform(0.0, 0.8, (HEIGHT, WIDTH, 3))
        self.deltas = self.rng.uniform(0.01, 0.2, PSNR_PAIRS)
        self.rendered = [self.reference + d for d in self.deltas]

    def setup(self) -> dict | None:
        """Library calls that precede the first op; may return a sample."""
        return None

    def op(self, k: int) -> dict:
        raise NotImplementedError

    def covariance_oracle(self, params) -> np.ndarray:
        """Covariances of the sampled rows from the per-gaussian API."""
        positions, scales, quats, opacities, colors = params
        return np.array([
            core.quaternion_to_covariance(core.Gaussian3D(
                positions[i], scales[i], quats[i], float(opacities[i]), colors[i]))
            for i in self.idx
        ])

    def check(self, sample: dict) -> list[str]:
        params = sample["params"]
        errors = []
        if "cov" in sample:
            errors += covariance_errors(sample["cov"], self.covariance_oracle(params), self.idx)
        if "pix" in sample:
            errors += projection_errors(sample["view"], sample["pix"], sample["depth"],
                                        params[0][self.idx], self.idx)
        if "psnr" in sample:
            errors += psnr_errors(sample["psnr"], self.deltas[sample["k"] % PSNR_PAIRS])
        return errors


class TrainStep(Workload):
    """One training-step-shaped frame over parameters that change every step."""

    name = "train-1m"
    key = 1
    default_n = 10**6

    def __init__(self, seed, n=None):
        super().__init__(seed, n)
        # Two parameter sets, used in turn, stand in for per-step updates.
        self.params = [gaussian_params(self.rng, self.n) for _ in range(2)]
        self._make_images()

    def op(self, k):
        params = self.params[k % 2]
        gaussians = core.GaussianSet(*params)
        gaussians.validate()
        cov = gaussians.covariances()
        view = orbit_view(self.phase + k * GOLDEN_ANGLE)
        pixels, depths = view.project(gaussians.positions)
        value = core.psnr(self.reference, self.rendered[k % PSNR_PAIRS])
        return {"k": k, "params": params, "cov": cov[self.idx], "view": view,
                "pix": pixels[self.idx], "depth": depths[self.idx], "psnr": value}


class EvalViews(Workload):
    """Novel orbit views of a fixed set whose covariances are computed once."""

    name = "eval-100k"
    key = 2
    default_n = 10**5

    def __init__(self, seed, n=None):
        super().__init__(seed, n)
        self.params = gaussian_params(self.rng, self.n)
        self._make_images()

    def setup(self):
        self.gaussians = core.GaussianSet(*self.params)
        self.gaussians.validate()
        cov = self.gaussians.covariances()
        return {"params": self.params, "cov": cov[self.idx]}

    def op(self, k):
        view = orbit_view(self.phase + k * GOLDEN_ANGLE)
        pixels, depths = view.project(self.gaussians.positions)
        value = core.psnr(self.reference, self.rendered[k % PSNR_PAIRS])
        return {"k": k, "params": self.params, "view": view,
                "pix": pixels[self.idx], "depth": depths[self.idx], "psnr": value}


class ObjectsAPI(Workload):
    """The same maths through the per-gaussian object API."""

    name = "objects-2k"
    key = 3
    default_n = 2000

    def __init__(self, seed, n=None):
        super().__init__(seed, n)
        self.params = gaussian_params(self.rng, self.n)
        positions, scales, quats, opacities, colors = self.params
        self.rows = list(zip(positions, scales, quats, opacities.tolist(), colors))

    def setup(self):
        self.view = orbit_view(self.phase)
        return None

    def op(self, k):
        gaussians = [core.Gaussian3D(*row) for row in self.rows]
        covs = [core.quaternion_to_covariance(g) for g in gaussians]
        points = [core.project_point(self.view, g.position) for g in gaussians]
        back = core.GaussianSet.from_gaussians(gaussians).to_gaussians()
        idx = self.idx
        # Samples are copies, so they do not keep the op's arrays alive.
        return {"k": k, "params": self.params, "cov": np.array([covs[i] for i in idx]),
                "view": self.view, "pix": np.array([points[i][0] for i in idx]),
                "depth": np.array([points[i][1] for i in idx]),
                "back": np.array([_flat(back[i]) for i in idx]), "n_back": len(back)}

    def covariance_oracle(self, params):
        """Covariances of the sampled rows from the columnar kernel."""
        return core.covariances_from_arrays(params[1][self.idx], params[2][self.idx])

    def check(self, sample):
        errors = super().check(sample)
        if sample["n_back"] != self.n:
            errors.append(f"round trip returned {sample['n_back']} of {self.n} gaussians")
        positions, scales, quats, opacities, colors = self.params
        expected = np.hstack([positions, scales, quats, opacities[:, None], colors])[self.idx]
        for i, got, want in zip(self.idx, sample["back"], expected):
            if not np.array_equal(got, want):
                errors.append(f"gaussian {i} changed through from_gaussians/to_gaussians")
        return errors


def _flat(g) -> np.ndarray:
    return np.concatenate([g.position, g.scale, g.rotation, [g.opacity], g.color])


WORKLOADS = {w.name: w for w in (TrainStep, EvalViews, ObjectsAPI)}
