"""In-memory span tracing of proxysplat.core, installed from outside the package.

`Recorder.install` replaces each public entry point listed in `LAYERS` with a
wrapper that records a span (layer, start, end, parent, rows) and calls the
original; `uninstall` puts the originals back. No package file is edited.
Calls made inside a traced call become child spans, so `covariances` holds
`rotations` and `project_point` holds `project`.
"""

from __future__ import annotations

import functools
from array import array
from time import perf_counter

import numpy as np


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _one(*args, **kwargs):
    return 1


def _psnr_pixels(*args, **kwargs):
    a = _arg(args, kwargs, 0, "a")
    if not isinstance(a, np.ndarray):
        a = getattr(a, "data", a)  # a Raster
    return int(np.prod(np.shape(a)[:2]))


# (layer, attribute path in proxysplat.core, rows of work in one call,
#  computed bytes moved per row or None when the layer is not a columnar kernel).
# Computed bytes count the arrays a kernel must read plus those it must write,
# in float64, and ignore temporaries and cache misses.
LAYERS = (
    ("ingest", "GaussianSet.__init__",
     lambda *a, **k: len(_arg(a, k, 1, "positions")), 24 + 24 + 32 + 8 + 24),
    ("validate", "GaussianSet.validate",
     lambda *a, **k: len(_arg(a, k, 0, "self")), 24 + 24 + 32 + 8 + 24),
    ("rotations", "quats_to_rotations",
     lambda *a, **k: len(_arg(a, k, 0, "quats")), 32 + 72),
    ("covariances", "covariances_from_arrays",
     lambda *a, **k: len(_arg(a, k, 0, "scales")), 24 + 72 + 72),
    ("camera", "CameraView.look_at", _one, None),
    ("project", "CameraView.project",
     lambda *a, **k: len(np.atleast_2d(_arg(a, k, 1, "points"))), 24 + 16 + 8),
    ("psnr", "psnr", _psnr_pixels, 2 * 3 * 8),
    ("gaussian3d", "Gaussian3D.__init__", _one, None),
    ("quaternion_to_covariance", "quaternion_to_covariance", _one, None),
    ("project_point", "project_point", _one, None),
    ("from_gaussians", "GaussianSet.from_gaussians",
     lambda *a, **k: len(_arg(a, k, 0, "gaussians")), None),
    ("to_gaussians", "GaussianSet.to_gaussians",
     lambda *a, **k: len(_arg(a, k, 0, "self")), None),
)
LAYER_NAMES = tuple(layer[0] for layer in LAYERS)
OP_ID = len(LAYERS)  # layer id of the root span of one timed op


class Recorder:
    """Spans of the traced ops, kept in flat arrays until the run ends."""

    def __init__(self, core):
        self.core = core
        self.layer = array("b")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.rows = array("q")
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def open(self, layer_id: int, rows: int) -> int:
        i = len(self.start)
        self.layer.append(layer_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.rows.append(rows)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    def _wrap(self, layer_id, fn, rows_of):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self.open(layer_id, rows_of(*args, **kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(i)

        return traced

    def install(self) -> None:
        for layer_id, (_, path, rows_of, _) in enumerate(LAYERS):
            *owner_path, attr = path.split(".")
            owner = self.core
            for part in owner_path:
                owner = getattr(owner, part)
            raw = vars(owner)[attr]
            is_static = isinstance(raw, staticmethod)
            traced = self._wrap(layer_id, raw.__func__ if is_static else raw, rows_of)
            setattr(owner, attr, staticmethod(traced) if is_static else traced)
            self._saved.append((owner, attr, raw))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "layer": np.frombuffer(self.layer, dtype=np.int8),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "rows": np.frombuffer(self.rows, dtype=np.int64),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(LAYER_NAMES + ("op",)), **self.arrays())


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children.

    Spans come from one thread, so children never overlap each other.
    """
    duration = np.asarray(end) - np.asarray(start)
    parent = np.asarray(parent)
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=duration[has_parent],
                          minlength=len(duration))
    return duration - covered


def layer_metrics(spans: dict[str, np.ndarray]) -> dict[str, tuple[float, str]]:
    """Per-op `<layer>.*` metrics over the traced ops in `spans`."""
    layer = spans["layer"]
    own = self_times(spans["start"], spans["end"], spans["parent"])
    is_op = layer == OP_ID
    n_ops = max(int(is_op.sum()), 1)
    op_total = float((spans["end"] - spans["start"])[is_op].sum())
    out = {}
    for layer_id, (name, _, _, bytes_per_row) in enumerate(LAYERS):
        mine = layer == layer_id
        self_s = float(own[mine].sum())
        rows = float(spans["rows"][mine].sum())
        out[f"{name}.calls"] = (int(mine.sum()) / n_ops, "calls/op")
        out[f"{name}.rows"] = (rows / n_ops, "rows/op")
        out[f"{name}.self_ms"] = (1e3 * self_s / n_ops, "ms")
        out[f"{name}.share"] = (self_s / op_total if op_total else 0.0, "ratio")
        if bytes_per_row is not None:
            moved = rows * bytes_per_row
            out[f"{name}.bytes"] = (moved / n_ops, "B/op-computed")
            out[f"{name}.gbps"] = (moved / self_s / 1e9 if self_s else 0.0, "GB/s")
    return out
