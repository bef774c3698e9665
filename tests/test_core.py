import copy
import functools
import inspect
import os
import pickle
import signal
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from proxysplat import core
from proxysplat.core import (
    BLOCK,
    QUAT_NORM2_MAX,
    QUAT_NORM2_MIN,
    QUAT_NORM_TOL,
    CameraView,
    Gaussian3D,
    GaussianSet,
    Point3,
    Raster,
    covariances_from_arrays,
    project_point,
    psnr,
    quat_to_rotation,
    quaternion_to_covariance,
    quats_to_rotations,
)

F64_MAX = np.finfo(np.float64).max
QUARTER = BLOCK // 4  # 8 192 rows: sizes near its multiples end inside a block
SPLIT_SIZES = [4 * BLOCK + 1, 4 * BLOCK + 7]  # the smallest sizes the row kernels split


def _mid(n):
    """The first row of the helper thread's part of a split n-row call."""
    return n // (2 * BLOCK) * BLOCK


@pytest.fixture
def two_cpus(monkeypatch):
    """Split-size calls take the two-thread path even where one CPU is allowed."""
    monkeypatch.setattr(core, "_cpus", lambda: 2)


def _gaussian(position=(0, 0, 0), scale=(1, 1, 1), rotation=(1, 0, 0, 0),
              opacity=1.0, color=(1, 1, 1)):
    return Gaussian3D(np.array(position, float), np.array(scale, float),
                      np.array(rotation, float), opacity, np.array(color, float))


def _component_params(sizes, first):
    """(field, index) for every component of each field, as pytest params.

    The component a test used before it covered every index keeps the bare
    field name as its id: index 0 when `first`, else the last index.
    """
    return [pytest.param(field, i, id=field if i == (0 if first else size - 1)
                         else f"{field}-{i}")
            for field, size in sizes.items() for i in range(size)]


_NUMBER = st.one_of(
    st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, F64_MAX, -F64_MAX,
                     1.0, np.nextafter(1.0, 2.0), np.nextafter(0.0, -1.0)]),
    st.floats(-2, 2))
# A vector or opacity of 0.5 passes every field's check, so that the other fields'
# rules, q.q's above all, are not always masked by an earlier rejection.
_VEC3 = st.one_of(st.just((0.5, 0.5, 0.5)), st.lists(_NUMBER, min_size=3, max_size=3)).map(np.array)


@st.composite
def _quaternions(draw):
    """A direction scaled to |q| near 1, near a |q| bound or a few ulps either side of one,
    sometimes with a non-finite component. Seeded normal directions have full-precision
    components, whose q.q rounds differently in each order of the sum far more often than
    that of the short floats hypothesis favours."""
    q = draw(st.one_of(
        st.lists(st.floats(-1, 1), min_size=4, max_size=4).map(np.array),
        st.integers(0, 2**32 - 1).map(lambda seed: np.random.default_rng(seed).normal(size=4))))
    assume(np.linalg.norm(q) > 0.1)
    q /= np.linalg.norm(q)
    bound = draw(st.sampled_from([np.sqrt(QUAT_NORM2_MIN), np.sqrt(QUAT_NORM2_MAX)]))
    q *= draw(st.one_of(
        st.sampled_from([1.0, 1 - 0.5 * QUAT_NORM_TOL, 1 + 0.5 * QUAT_NORM_TOL,
                         1 - 2 * QUAT_NORM_TOL, 1 + 2 * QUAT_NORM_TOL]),
        st.integers(-2, 2).map(lambda k: bound + k * np.spacing(bound))))
    if draw(st.booleans()):
        q[draw(st.integers(0, 3))] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    return q


def _random_unit_quat(rng):
    q = rng.normal(size=4)
    return q / np.linalg.norm(q)


def _einsum_covariances(scales, quats):
    """Reference: the original one-shot kernel R diag(s^2) R^T."""
    R = quats_to_rotations(quats)
    S2 = np.asarray(scales, dtype=np.float64) ** 2
    return np.einsum("nij,nj,nkj->nik", R, S2, R)


def _random_params(rng, n):
    quats = rng.normal(size=(n, 4))
    quats /= np.linalg.norm(quats, axis=1, keepdims=True)
    return rng.uniform(1e-3, 10, (n, 3)), quats


def _loop_rotations(quats):
    """Reference: the per-quaternion formula applied row by row."""
    return np.array([quat_to_rotation(q) for q in quats]).reshape(-1, 3, 3)


def _assert_matches_reference(scales, quats):
    cov = covariances_from_arrays(scales, quats)
    assert cov.shape == (len(quats), 3, 3)
    assert np.abs(cov - _einsum_covariances(scales, quats)).max(initial=0.0) <= 1e-12
    assert np.array_equal(cov, cov.transpose(0, 2, 1))


class TestQuaternionToCovariance:
    def test_isotropic_identity(self):
        cov = quaternion_to_covariance(_gaussian(scale=(1, 1, 1)))
        assert np.allclose(cov, np.eye(3), atol=1e-12)

    def test_axis_aligned(self):
        cov = quaternion_to_covariance(_gaussian(scale=(2, 1, 1)))
        assert np.allclose(cov, np.diag([4.0, 1.0, 1.0]), atol=1e-12)

    def test_rotated_90_about_z(self):
        # oracle: compose the covariance from an explicitly built rotation matrix
        angle = np.pi / 2
        q = np.array([np.cos(angle / 2), 0.0, 0.0, np.sin(angle / 2)])
        Rz = np.array(
            [
                [np.cos(angle), -np.sin(angle), 0.0],
                [np.sin(angle), np.cos(angle), 0.0],
                [0.0, 0.0, 1.0],
            ]
        )
        expected = Rz @ np.diag([1.0, 4.0, 9.0]) @ Rz.T
        cov = quaternion_to_covariance(_gaussian(scale=(1, 2, 3), rotation=q))
        assert np.allclose(cov, expected, atol=1e-12)
        assert np.allclose(cov, np.diag([4.0, 1.0, 9.0]), atol=1e-12)

    def test_eigenvalue_roundtrip_1000_random(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            scale = rng.uniform(0.1, 5.0, size=3)
            g = _gaussian(scale=scale, rotation=_random_unit_quat(rng))
            cov = quaternion_to_covariance(g)
            assert np.allclose(cov, cov.T, atol=1e-12)
            eig = np.sort(np.linalg.eigvalsh(cov))
            assert np.allclose(eig, np.sort(scale**2), atol=1e-9)

    @pytest.mark.usefixtures("two_cpus")
    @pytest.mark.parametrize("n, rows", [
        (2000, None), (2 * QUARTER + 1, [0, QUARTER - 1, QUARTER, QUARTER + 1, 2 * QUARTER]),
        (SPLIT_SIZES[0], [0, _mid(SPLIT_SIZES[0]) - 1, _mid(SPLIT_SIZES[0]),
                          SPLIT_SIZES[0] - 1])])
    def test_equals_its_kernel_row_exactly(self, n, rows):
        scales, quats = _random_params(np.random.default_rng(n), n)
        cov = covariances_from_arrays(scales, quats)
        for i in range(n) if rows is None else rows:
            g = _gaussian(scale=scales[i], rotation=quats[i])
            assert np.array_equal(quaternion_to_covariance(g), cov[i])


class TestRotationKernel:
    @pytest.mark.usefixtures("two_cpus")
    @pytest.mark.parametrize("n", [0, 1, 5, QUARTER + 1, *SPLIT_SIZES])
    def test_matches_per_quaternion_formula(self, n):
        scales, quats = _random_params(np.random.default_rng(n), n)
        strided = np.hstack([scales, quats])[:, 3:]
        for q in (quats, quats.astype(np.float32), strided):
            R = quats_to_rotations(q)
            assert R.shape == (n, 3, 3)
            assert np.array_equal(R, _loop_rotations(q))

    @pytest.mark.parametrize("shape", [(4,), (3, 3), (2, 5)])
    def test_rejects_shapes_other_than_n_by_4(self, shape):
        with pytest.raises(ValueError):
            quats_to_rotations(np.ones(shape))


class TestCovarianceKernel:
    @pytest.mark.usefixtures("two_cpus")
    @pytest.mark.parametrize(
        "n", [0, 1, QUARTER - 1, QUARTER, QUARTER + 1, 3 * QUARTER + 5,
              BLOCK - 1, BLOCK, BLOCK + 1, *SPLIT_SIZES])
    def test_matches_einsum_across_block_edges(self, n):
        _assert_matches_reference(*_random_params(np.random.default_rng(n), n))

    def test_strided_and_float32_inputs(self):
        scales, quats = _random_params(np.random.default_rng(11), 2 * QUARTER + 3)
        wide = np.hstack([quats, scales])  # column slices of this are strided views
        strided_quats, strided_scales = wide[:, :4], wide[:, 4:]
        assert not strided_quats.flags.c_contiguous
        _assert_matches_reference(strided_scales, strided_quats)
        _assert_matches_reference(scales[::-1], quats[::-1])
        _assert_matches_reference(scales.astype(np.float32), quats.astype(np.float32))

    def test_gather_from_entry_major_result(self):
        # The workloads read rows back with a fancy-index gather, cov[idx].
        n = 3 * QUARTER + 5
        scales, quats = _random_params(np.random.default_rng(13), n)
        cov = covariances_from_arrays(scales, quats)
        assert cov.transpose(1, 2, 0).flags.c_contiguous  # the entry-major layout
        idx = np.random.default_rng(14).choice(n, 64)
        idx[:3] = (0, QUARTER, n - 1)
        rows = cov[idx]
        assert np.array_equal(rows, rows.transpose(0, 2, 1))
        assert np.abs(rows - _einsum_covariances(scales, quats)[idx]).max() <= 1e-12

    def test_rejects_mismatched_scales(self):
        scales, quats = _random_params(np.random.default_rng(12), 5)
        with pytest.raises(ValueError):
            covariances_from_arrays(scales[:1], quats)
        for shape in ((0, 5), (0, 4, 1), (2, 4, 1)):
            with pytest.raises(ValueError, match="quats"):
                covariances_from_arrays(np.zeros((shape[0], 3)), np.zeros(shape))
        # Neither a complex nor a string array is cast to float64.
        with pytest.raises(ValueError, match="quats"):
            covariances_from_arrays(scales, quats + 0j)
        with pytest.raises(ValueError, match="scales"):
            covariances_from_arrays(scales.astype(str), quats)

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(0, 40), data=st.data())
    def test_property_random_unit_quats_and_scales(self, n, data):
        quats = data.draw(hnp.arrays(np.float64, (n, 4), elements=st.floats(-1, 1)))
        norms = np.linalg.norm(quats, axis=1, keepdims=True)
        assume(np.all(norms > 0.1))
        scales = data.draw(hnp.arrays(np.float64, (n, 3), elements=st.floats(1e-3, 10)))
        _assert_matches_reference(scales, quats / norms)


class TestGaussianInvariants:
    def test_rejects_bad_scale(self):
        with pytest.raises(ValueError):
            _gaussian(scale=(0.0, 1, 1))

    def test_rejects_non_unit_quaternion(self):
        with pytest.raises(ValueError):
            _gaussian(rotation=(1, 1, 0, 0))

    def test_rejects_opacity_out_of_range(self):
        with pytest.raises(ValueError):
            _gaussian(opacity=1.5)

    def test_rejects_color_out_of_range(self):
        with pytest.raises(ValueError):
            _gaussian(color=(1.2, 0, 0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field, index", _component_params(
        {"position": 3, "scale": 3, "rotation": 4, "opacity": 1, "color": 3}, first=True))
    def test_rejects_non_finite(self, field, index, bad):
        if field == "opacity":
            kwargs = {"opacity": bad}
        else:
            value = getattr(_gaussian(), field).copy()
            value[index] = bad
            kwargs = {field: value}
        with pytest.raises(ValueError):
            _gaussian(**kwargs)

    def test_point3_rejects_nan(self):
        with pytest.raises(ValueError):
            Point3(np.nan, 0.0, 0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("index", [0, 1, 2])
    def test_point3_rejects_non_finite_components(self, index, bad):
        xyz = [0.0, 0.0, 0.0]
        xyz[index] = bad
        with pytest.raises(ValueError):
            Point3(*xyz)

    @settings(max_examples=300, deadline=None)
    @given(position=_VEC3, scale=_VEC3, q=_quaternions(), opacity=st.just(0.5) | _NUMBER,
           color=_VEC3)
    # q.q of this q, summed left to right, is within the bounds; in another order it is not.
    @example(position=np.zeros(3), scale=np.ones(3), opacity=1.0, color=np.ones(3),
             q=np.array([-0.4233791979141464, -0.2460499701826707, 0.3202074964608177,
                         0.8109714089645678]))
    def test_agrees_with_validate_of_one_row_set(self, position, scale, q, opacity, color):
        # One rule: a gaussian is rejected exactly when a set of it fails validate().
        try:
            Gaussian3D(position, scale, q, opacity, color)
            accepted = True
        except ValueError:
            accepted = False
        gs = GaussianSet(position[None], scale[None], q[None], np.array([opacity]), color[None])
        try:
            gs.validate()
            valid = True
        except ValueError:
            valid = False
        assert accepted == valid

    @pytest.mark.parametrize("field", ["position", "scale", "rotation", "color"])
    def test_fields_are_read_only(self, field):
        arrays = {"position": np.zeros(3), "scale": np.ones(3),
                  "rotation": np.array([1.0, 0, 0, 0]), "color": np.ones(3)}
        g = Gaussian3D(opacity=1.0, **arrays)
        with pytest.raises(ValueError):
            getattr(g, field)[0] = 0.5
        assert arrays[field].flags.writeable  # the caller's own array is left as it was
        assert np.shares_memory(getattr(g, field), arrays[field])  # a view, not a copy
        # Only real numbers are taken: a complex or string field is refused, not cast.
        for bad in (arrays[field] + 0j, arrays[field].astype(str)):
            with pytest.raises(ValueError, match=field):
                Gaussian3D(opacity=1.0, **{**arrays, field: bad})

    @pytest.mark.parametrize("edge", ["low", "high"])
    def test_bounds_are_closed_at_their_nearest_float(self, edge):
        # Each field at its extreme allowed value is accepted by both checks.
        low = edge == "low"
        position = np.full(3, -F64_MAX if low else F64_MAX)
        scale = np.full(3, 5e-324 if low else F64_MAX)
        opacity, color = (0.0, np.zeros(3)) if low else (1.0, np.ones(3))
        rotation = np.array([1 - QUAT_NORM_TOL if low else 1 + QUAT_NORM_TOL, 0, 0, 0]) * (
            1 + (1e-12 if low else -1e-12))
        Gaussian3D(position, scale, rotation, opacity, color)
        GaussianSet(position[None], scale[None], rotation[None], np.array([opacity]),
                    color[None]).validate()


def _identity_view(width=100, height=100, f=100.0, c=50.0):
    return CameraView(np.eye(3), np.zeros(3), f, f, c, c, width, height)


class TestProjectPoint:
    def test_optical_axis(self):
        pix, depth = project_point(_identity_view(), (0, 0, 1))
        assert np.allclose(pix, (50, 50))
        assert depth == pytest.approx(1.0)

    def test_similar_triangles(self):
        pix, depth = project_point(_identity_view(), (1, 0, 1))
        assert np.allclose(pix, (150, 50))
        assert depth == pytest.approx(1.0)

    def test_behind_camera_flagged(self):
        _, depth = project_point(_identity_view(), (0, 0, -1))
        assert depth == pytest.approx(-1.0)
        assert depth < 0

    @settings(max_examples=200, deadline=None)
    @given(
        x=st.floats(-5, 5), y=st.floats(-5, 5), z=st.floats(0.1, 50),
        yaw=st.floats(0, 6.28), seed=st.integers(0, 2**16),
    )
    def test_unproject_roundtrip(self, x, y, z, yaw, seed):
        rng = np.random.default_rng(seed)
        eye = rng.uniform(-2, 2, size=3)
        view = CameraView.look_at(eye, eye + [np.cos(yaw), np.sin(yaw), 0.1],
                                  120.0, 110.0, 64.0, 48.0, 128, 96)
        p = np.array([x, y, z])
        pix, depth = view.project(p.reshape(1, 3))
        back = view.unproject(pix, depth)
        assert np.allclose(back[0], p, atol=1e-9)

    def test_point3_projects_as_its_tuple(self):
        view = CameraView.look_at((3, 2, 1), (0, 0, 0), 100, 100, 50, 50, 100, 100)
        for xyz in ((0.5, -0.25, 0.125), (0.0, 0.0, 0.0), (-3.0, 7.0, 2.0)):
            pix, depth = project_point(view, Point3(*xyz))
            expected_pix, expected_depth = project_point(view, xyz)
            assert np.array_equal(pix, expected_pix) and depth == expected_depth

    def test_unproject_checks_shapes(self):
        view = CameraView.look_at((3, 2, 1), (0, 0, 0), 100, 100, 50, 50, 100, 100)
        assert view.unproject(np.zeros((4, 2)), np.ones(4)).shape == (4, 3)
        assert np.array_equal(view.unproject((50.0, 50.0), 2.0),
                              view.unproject([[50.0, 50.0]], [2.0]))
        with pytest.raises(ValueError, match="pixels"):
            view.unproject(np.zeros((4, 3)), np.ones(4))  # the third column was dropped
        with pytest.raises(ValueError, match="pixels"):
            view.unproject(np.zeros((2, 2, 2)), np.ones(2))
        with pytest.raises(ValueError, match="depths"):
            view.unproject(np.zeros((4, 2)), np.ones(3))
        with pytest.raises(ValueError, match="depths"):
            view.unproject(np.zeros((4, 2)), 1.0)

    def test_camera_center_projects_through(self):
        view = CameraView.look_at((3, 2, 1), (0, 0, 0), 100, 100, 50, 50, 100, 100)
        pix, depth = project_point(view, (0, 0, 0))
        assert depth == pytest.approx(np.linalg.norm([3, 2, 1]))
        assert np.allclose(pix, (50, 50), atol=1e-9)


def _reference_projection(view, cam):
    """(pixels, depths) of (N,3) camera-space points, as whole-array expressions."""
    x, y, z = cam.T
    safe_z = np.where(z == 0.0, np.finfo(np.float64).tiny, z)
    return np.stack([view.fx * x / safe_z + view.cx, view.fy * y / safe_z + view.cy], axis=1), z


class TestProject:
    def test_matches_reference_expression(self):
        # A cyclic permutation of the axes, so camera z = world x + 2 exactly.
        permuted = CameraView(np.array([[0.0, 1, 0], [0, 0, 1], [1, 0, 0]]),
                              np.array([0.5, -1.0, 2.0]), 120.0, 110.0, 64.0, 48.0, 128, 96)
        oblique = CameraView.look_at((4, -3, 2), (0, 0, 0), 120.0, 110.0, 64.0, 48.0, 128, 96)
        # float32 intrinsics must not lower the precision of the products.
        single = CameraView.look_at((4, -3, 2), (0, 0, 0), np.float32(120.3), np.float32(110.7),
                                    np.float32(64.1), np.float32(47.9), 128, 96)
        points = np.random.default_rng(8).uniform(-5, 5, (20, 3))
        points[0] = (-2.0, -0.5 + 2.0**-30, 1.0)  # on the camera plane of `permuted`
        points[1] = (-5.0, 1.0, 2.0)  # behind `permuted`
        for view in (permuted, oblique, single):
            cam = points @ view.rotation.T + view.translation
            expected, z = _reference_projection(view, cam)
            pix, depth = view.project(points)
            assert np.array_equal(pix, expected)
            assert np.array_equal(depth, z)
            # One point takes the float path. Its reference is its own
            # to_camera, whose bits may differ from its row of the batch.
            for p in points:
                expected, z = _reference_projection(view, view.to_camera(p[None]))
                pix, depth = view.project(p[None])
                assert pix.shape == (1, 2) and depth.shape == (1,)
                assert np.array_equal(pix, expected)
                assert np.array_equal(depth, z)
        pix, depth = permuted.project(points[:2])
        assert depth[0] == 0.0 and depth[1] < 0.0
        assert np.all(np.isfinite(pix))

    @pytest.mark.usefixtures("two_cpus")
    @pytest.mark.parametrize("n", [1, 2, 7, 1000, 10**5, *SPLIT_SIZES])
    def test_matches_reference_at_every_size(self, n):
        # The bits must not change where the matmul switches BLAS paths.
        points = np.random.default_rng(n).uniform(-5, 5, (n, 3))
        for eye in ((20, 3, 6), (-7, 15, -9), (2, -18, 11)):
            view = CameraView.look_at(eye, (0.5, -0.2, 0.1), 500.0, 480.0, 319.5, 239.5,
                                      640, 480)
            cam = points @ view.rotation.T + view.translation
            expected, z = _reference_projection(view, cam)
            pix, depth = view.project(points)
            assert np.array_equal(view.to_camera(points), cam)
            assert np.array_equal(pix, expected)
            assert np.array_equal(depth, z)

    @pytest.mark.parametrize("eye", [(-5.0, 0.0, 0.0), (0.0, 7.0, 0.0), (0.0, 0.0, 4.0)])
    def test_camera_plane_point_off_axis_gives_inf_without_warning(self, eye):
        # The views look along an axis, so the points' camera z is exactly 0.
        # Warnings are errors in this suite, so an overflow warning fails here.
        view = CameraView.look_at(eye, (0, 0, 0), 500.0, 500.0, 319.5, 239.5, 640, 480)
        right, down, _ = view.rotation
        points = np.array([view.camera_center + right, view.camera_center + down, (0, 0, 0)])
        expected = [[np.inf, view.cy], [view.cx, np.inf], [view.cx, view.cy]]
        pix, depth = view.project(points)
        assert depth[0] == 0.0 and depth[1] == 0.0
        assert np.array_equal(pix, expected)
        for p, row in zip(points, expected):
            pix, depth = view.project(p[None])
            assert np.array_equal(pix, [row])

    def test_outputs_are_separate_and_points_unchanged(self):
        view = CameraView.look_at((20, 3, 6), (0, 0, 0), 500.0, 480.0, 319.5, 239.5, 640, 480)
        points = np.random.default_rng(9).uniform(-5, 5, (1000, 3))
        before = points.copy()
        pix, depth = view.project(points)
        assert not np.shares_memory(pix, depth)
        assert np.array_equal(points, before)

    def test_empty_and_single_point_shapes(self):
        view = _identity_view()
        pix, depth = view.project(np.empty((0, 3)))
        assert pix.shape == (0, 2) and depth.shape == (0,)
        assert view.to_camera(np.array([1.0, 2.0, 3.0])).shape == (1, 3)
        pix, depth = view.project(np.array([1.0, 2.0, 3.0]))
        assert pix.shape == (1, 2) and depth.shape == (1,)
        assert not np.shares_memory(pix, depth)
        for shape in ((4, 3, 1), (4, 2), (4, 4), (2,), (4,), ()):
            with pytest.raises(ValueError, match="points"):
                view.project(np.zeros(shape))
            with pytest.raises(ValueError, match="points"):
                view.to_camera(np.zeros(shape))


class TestCameraInvariants:
    def test_rejects_nonpositive_focal(self):
        with pytest.raises(ValueError):
            CameraView(np.eye(3), np.zeros(3), 0.0, 100, 50, 50, 100, 100)

    def test_rejects_principal_point_outside(self):
        with pytest.raises(ValueError):
            CameraView(np.eye(3), np.zeros(3), 100, 100, 200, 50, 100, 100)

    def test_rejects_non_orthonormal_rotation(self):
        R = np.eye(3)
        R[0, 1] = 0.2
        with pytest.raises(ValueError):
            CameraView(R, np.zeros(3), 100, 100, 50, 50, 100, 100)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["fx", "fy", "cx", "cy"])
    def test_rejects_non_finite_intrinsics(self, field, bad):
        intrinsics = {"fx": 100.0, "fy": 100.0, "cx": 50.0, "cy": 50.0, field: bad}
        with pytest.raises(ValueError):
            CameraView(np.eye(3), np.zeros(3), width=100, height=100, **intrinsics)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_rotation(self, bad):
        R = np.eye(3)
        R[1, 2] = bad
        with pytest.raises(ValueError):
            CameraView(R, np.zeros(3), 100, 100, 50, 50, 100, 100)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_translation(self, bad):
        with pytest.raises(ValueError):
            CameraView(np.eye(3), np.array([0.0, bad, 0.0]), 100, 100, 50, 50, 100, 100)

    def test_rejects_reflection(self):
        with pytest.raises(ValueError):
            CameraView(np.diag([1.0, 1.0, -1.0]), np.zeros(3), 100, 100, 50, 50, 100, 100)

    def test_look_at_far_from_the_origin(self):
        # Warnings are errors in this suite: the norm of target - eye must not overflow.
        view = CameraView.look_at((1e300, 1e300, 0), (0, 0, 0), 100, 100, 50, 50, 100, 100)
        assert np.allclose(view.rotation[2], [-np.sqrt(0.5), -np.sqrt(0.5), 0], atol=1e-15)
        # target - eye is scaled by a power of two, exactly, so the axes keep their bits.
        near = CameraView.look_at((3, 2, 1), (0, 0, 0), 100, 100, 50, 50, 100, 100)
        far = CameraView.look_at((3 * 2.0**1000, 2 * 2.0**1000, 2.0**1000), (0, 0, 0),
                                 100, 100, 50, 50, 100, 100)
        assert np.array_equal(far.rotation, near.rotation)
        with pytest.raises(ValueError, match="overflows"):
            CameraView.look_at((1e308, 0, 0), (-1e308, 0, 0), 100, 100, 50, 50, 100, 100)
        with pytest.raises(ValueError, match="coincide"):
            CameraView.look_at((1e308, 0, 0), (1e308, 0, 0), 100, 100, 50, 50, 100, 100)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("index", [0, 1, 2])
    @pytest.mark.parametrize("arg", ["eye", "target"])
    def test_look_at_rejects_non_finite_eye_and_target(self, arg, index, bad):
        # Warnings are errors in this suite, so a warning before the ValueError fails here.
        points = {"eye": [3.0, 2.0, 1.0], "target": [0.0, 0.0, 0.0]}
        points[arg][index] = bad
        with pytest.raises(ValueError, match="finite"):
            CameraView.look_at(points["eye"], points["target"], 100, 100, 50, 50, 100, 100)

    @pytest.mark.parametrize("width, height", [(0, 0), (0, 1), (1, 0), (np.nan, 1), (1, np.nan),
                                               (1.5, 2.5), (1, 2.5), (np.inf, 1), (1, np.inf)])
    def test_rejects_resolution_below_one_pixel(self, width, height):
        with pytest.raises(ValueError):
            CameraView(np.eye(3), np.zeros(3), 100, 100, -0.5, -0.5, width, height)

    @pytest.mark.parametrize("field", ["rotation", "translation"])
    def test_fields_are_read_only(self, field):
        arrays = {"rotation": np.eye(3), "translation": np.zeros(3)}
        view = CameraView(fx=100, fy=100, cx=1.5, cy=1.0, width=4, height=3, **arrays)
        with pytest.raises(ValueError):
            getattr(view, field)[0] = 0.5
        assert arrays[field].flags.writeable  # the caller's own array is left as it was


class TestPsnr:
    def test_identical_hits_cap(self):
        a = Raster.full(8, 8, (0.3, 0.5, 0.7))
        assert psnr(a, a) == 99.0

    def test_unit_error_is_zero_db(self):
        a = Raster.full(8, 8, 0.0)
        b = Raster.full(8, 8, 1.0)
        assert psnr(a, b) == pytest.approx(0.0, abs=1e-12)

    def test_half_error(self):
        a = Raster.full(8, 8, 0.0)
        b = Raster.full(8, 8, 0.5)
        assert psnr(a, b) == pytest.approx(10 * np.log10(4.0), abs=1e-9)

    def test_all_nan_image_errors(self):
        with pytest.raises(ValueError):
            psnr(Raster.full(8, 8, np.nan), Raster.full(8, 8, 0.5))
        # Images that are not real numbers are refused, not cast to float64.
        with pytest.raises(ValueError, match="psnr a"):
            psnr(np.array([1 + 1j, 0]), np.array([1.0, 0]))
        with pytest.raises(ValueError, match="psnr b"):
            psnr(np.array([1.0, 0]), np.array(["1.0", "0"]))

    def test_single_inf_pixel_errors(self):
        a = np.full((8, 8, 3), 0.5)
        b = a.copy()
        b[3, 4, 1] = np.inf
        with pytest.raises(ValueError):
            psnr(a, b)

    def test_dimension_mismatch_errors(self):
        with pytest.raises(ValueError):
            psnr(Raster.full(8, 8, 0.0), Raster.full(8, 9, 0.0))

    def test_empty_images_error(self):
        with pytest.raises(ValueError, match="empty"):
            psnr(np.zeros((0, 0, 3)), np.zeros((0, 0, 3)))
        with pytest.raises(ValueError, match="empty"):
            psnr(Raster(np.zeros((0, 0))), Raster(np.zeros((0, 0))))

    def test_inf_in_both_images_errors(self):
        # inf - inf is NaN: a ValueError, not a RuntimeWarning.
        a = np.full((8, 8, 3), 0.5)
        a[2, 2, 0] = np.inf
        with pytest.raises(ValueError):
            psnr(a, a.copy())
        with pytest.raises(ValueError):
            psnr(np.full(4, 1e308), np.full(4, -1e308))  # the difference overflows

    @pytest.mark.parametrize("n", [BLOCK - 1, BLOCK, BLOCK + 1,
                                   2 * BLOCK - 1, 2 * BLOCK, 2 * BLOCK + 1,
                                   3 * BLOCK + 5])
    def test_matches_reference_across_block_edges(self, n):
        rng = np.random.default_rng(n)
        a = rng.uniform(0, 1, n)
        b = rng.uniform(0, 1, n)
        wide_a = np.repeat(a, 2).reshape(1, 2 * n)  # every other column: a strided view
        wide_b = np.repeat(b, 2).reshape(1, 2 * n)
        assert not wide_a[:, ::2].flags.c_contiguous
        pairs = [(a, b), (Raster(a.reshape(1, n)), Raster(b.reshape(1, n))),
                 (a.astype(np.float32), b.astype(np.float32)), (wide_a[:, ::2], wide_b[:, ::2])]
        for x, y in pairs:
            x64 = np.asarray(getattr(x, "data", x), dtype=np.float64)
            y64 = np.asarray(getattr(y, "data", y), dtype=np.float64)
            expected = 10 * np.log10(1 / np.mean((x64 - y64) ** 2))
            assert abs(psnr(x, y) - expected) <= 1e-10

    @pytest.mark.parametrize("delta", [0.01, 0.07, 0.2])
    def test_constant_offset_at_full_resolution(self, delta):
        a = np.random.default_rng(4).uniform(0, 0.8, (480, 640, 3))
        assert abs(psnr(a, a + delta) + 20 * np.log10(delta)) <= 1e-9

    def test_symmetry_and_noise_monotonicity(self):
        rng = np.random.default_rng(3)
        base = rng.uniform(0.2, 0.8, size=(16, 16, 3))
        values = []
        for amp in [0.01, 0.03, 0.1, 0.2, 0.4]:
            noisy = np.clip(base + rng.uniform(-amp, amp, size=base.shape), 0, 1)
            assert psnr(base, noisy) == pytest.approx(psnr(noisy, base))
            values.append(psnr(base, noisy))
        assert all(values[i] > values[i + 1] for i in range(len(values) - 1))


class TestRaster:
    def test_depth_background_sentinel(self):
        r = Raster.full(4, 4, np.inf, channels=1)
        assert np.all(np.isinf(r.data))

    def test_shape_validation(self):
        for shape in ((0, 0), (3, 4), (3, 4, 3)):
            data = np.arange(np.prod(shape), dtype=np.int64).reshape(shape)
            r = Raster(data)
            assert r.data.shape == shape and r.data.dtype == np.float64
            assert np.array_equal(r.data, data)
        assert Raster.full(4, 3, 0.5, channels=1).data.shape == (3, 4)
        assert Raster.full(4, 3, (0.1, 0.2, 0.3)).data.shape == (3, 4, 3)
        with pytest.raises(ValueError):
            Raster.full(4, 3, 0.5, channels=2)
        for data in (np.full((2, 2), 1 + 2j), np.array([["0.5"]])):
            with pytest.raises(ValueError, match="raster data"):
                Raster(data)

    @pytest.mark.parametrize("shape", [(3, 4, 2), (3, 4, 4), (12,)])
    def test_from_array_rejects_other_shapes(self, shape):
        with pytest.raises(ValueError, match="raster data"):
            Raster(np.zeros(shape))

    def test_data_is_read_only(self):
        data = np.zeros((2, 4))
        r = Raster(data)
        with pytest.raises(ValueError):
            r.data[0, 0] = 1.0
        assert data.flags.writeable  # the caller's own array is left as it was


class TestGaussianSet:
    def test_roundtrip_through_gaussians(self):
        rng = np.random.default_rng(0)
        gaussians = [
            _gaussian(position=rng.normal(size=3), scale=rng.uniform(0.1, 2, 3),
                      rotation=_random_unit_quat(rng), opacity=float(rng.uniform()),
                      color=rng.uniform(size=3))
            for _ in range(5)
        ]
        gs = GaussianSet.from_gaussians(gaussians)
        back = gs.to_gaussians()
        for a, b in zip(gaussians, back):
            assert np.allclose(a.position, b.position)
            assert np.allclose(a.scale, b.scale)

    def test_covariances_match_scalar_path(self):
        rng = np.random.default_rng(1)
        gaussians = [
            _gaussian(scale=rng.uniform(0.1, 2, 3), rotation=_random_unit_quat(rng))
            for _ in range(8)
        ]
        gs = GaussianSet.from_gaussians(gaussians)
        covs = gs.covariances()
        for i, g in enumerate(gaussians):
            assert np.allclose(covs[i], quaternion_to_covariance(g), atol=1e-12)

    def test_select_and_concat(self):
        gs = GaussianSet.from_gaussians([_gaussian(position=(i, 0, 0)) for i in range(4)],
                                        building_ids=np.array([0, 1, 1, 2], dtype=np.int32))
        sub = gs.select(gs.building_ids == 1)
        assert len(sub) == 2
        merged = GaussianSet.concatenate([sub, gs.select(gs.building_ids == 2)])
        assert len(merged) == 3
        assert merged.building_ids.tolist() == [1, 1, 2]

    def test_concatenate_gives_sets_without_ids_surround_ids(self):
        with_ids = GaussianSet.from_gaussians([_gaussian()], building_ids=np.array([3]))
        without = GaussianSet.from_gaussians([_gaussian()])
        assert GaussianSet.concatenate([GaussianSet.empty(), with_ids]).building_ids.tolist() == [3]
        ids = GaussianSet.concatenate([with_ids, GaussianSet.empty(), without, without]).building_ids
        assert ids.tolist() == [3, 0, 0] and ids.dtype == np.int32
        with pytest.raises(ValueError):
            ids[0] = 1

    def test_set_built_without_ids_is_all_surround(self):
        gs = GaussianSet(np.zeros((5, 3)), np.ones((5, 3)), np.tile([1.0, 0, 0, 0], (5, 1)),
                         np.ones(5), np.ones((5, 3)))
        assert gs.building_ids.shape == (5,) and gs.building_ids.dtype == np.int32
        assert not gs.building_ids.any()
        with pytest.raises(ValueError):
            gs.building_ids[0] = 1

    def test_select_and_concatenate_keep_columns_and_ids(self):
        rng = np.random.default_rng(6)
        sets = []
        for n, first_id in ((3, 0), (2, 5), (4, 9)):
            sets.append(GaussianSet(
                rng.normal(size=(n, 3)), rng.uniform(0.1, 2, (n, 3)),
                np.array([_random_unit_quat(rng) for _ in range(n)]), rng.uniform(size=n),
                rng.uniform(size=(n, 3)), np.arange(first_id, first_id + n)))
        merged = GaussianSet.concatenate(sets)
        columns = ("positions", "scales", "rotations", "opacities", "colors", "building_ids")
        for name in columns:
            assert np.array_equal(getattr(merged, name),
                                  np.concatenate([getattr(s, name) for s in sets]))
        index = np.array([8, 0, 4, 4])
        sub = merged.select(index)
        for name in columns:
            assert np.array_equal(getattr(sub, name), getattr(merged, name)[index])
        assert sub.building_ids.tolist() == [12, 0, 6, 6]
        no_ids = GaussianSet.concatenate([GaussianSet(*(getattr(s, c) for c in columns[:5]))
                                          for s in sets])
        assert np.array_equal(no_ids.building_ids, np.zeros(9, np.int32))
        assert np.array_equal(no_ids.select(index).building_ids, np.zeros(4, np.int32))
        assert np.array_equal(no_ids.select(index).colors, sub.colors)

    @pytest.mark.parametrize("ids", [[2**31, 0], [-5, 1], [-1, 0]])
    def test_rejects_building_ids_out_of_int32_range(self, ids):
        with pytest.raises(ValueError, match="building_ids"):
            GaussianSet.from_gaussians([_gaussian(), _gaussian()], building_ids=np.array(ids))

    @pytest.mark.parametrize("ids", [np.array([1.7, np.nan]), np.array([1.0, 2.0]),
                                     np.array([True, False])])
    def test_rejects_building_ids_of_non_integer_dtype(self, ids):
        with pytest.raises(ValueError, match="building_ids"):
            GaussianSet.from_gaussians([_gaussian(), _gaussian()], building_ids=ids)

    def test_accepts_building_ids_at_the_int32_edges(self):
        gs = GaussianSet.from_gaussians([_gaussian(), _gaussian()],
                                        building_ids=np.array([0, 2**31 - 1], dtype=np.uint64))
        assert gs.building_ids.dtype == np.int32
        assert gs.building_ids.tolist() == [0, 2**31 - 1]
        for empty in (np.zeros(0), np.zeros(0, dtype=bool), []):
            assert GaussianSet.from_gaussians([], building_ids=empty).building_ids.shape == (0,)

    def test_from_gaussians_keeps_ids_of_empty_input(self):
        gs = GaussianSet.from_gaussians([], building_ids=np.zeros(0, np.int32))
        assert gs.building_ids is not None and gs.building_ids.shape == (0,)
        assert gs.rotations.shape == (0, 4) and gs.opacities.shape == (0,)
        with pytest.raises(ValueError, match="building_ids"):
            GaussianSet.from_gaussians([], building_ids=np.array([1]))
        with pytest.raises(ValueError, match="building_ids"):
            GaussianSet.from_gaussians([_gaussian()], building_ids=np.array([1, 2]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field, index", _component_params(
        {"positions": 3, "scales": 3, "rotations": 4, "opacities": 1, "colors": 3}, first=False))
    def test_validate_rejects_non_finite(self, field, index, bad):
        gs = GaussianSet.from_gaussians([_gaussian(), _gaussian(color=(0.5, 0.5, 0.5))])
        gs.validate()
        arrays = {name: getattr(gs, name).copy() for name in
                  ("positions", "scales", "rotations", "opacities", "colors")}
        arrays[field].reshape(2, -1)[-1, index] = bad  # in the last row
        with pytest.raises(ValueError):
            GaussianSet(**arrays).validate()

    @pytest.mark.parametrize(
        "field", ["positions", "scales", "rotations", "opacities", "colors", "building_ids"])
    def test_fields_are_read_only(self, field):
        arrays = {"positions": np.zeros((2, 3)), "scales": np.ones((2, 3)),
                  "rotations": np.tile([1.0, 0, 0, 0], (2, 1)), "opacities": np.ones(2),
                  "colors": np.ones((2, 3)), "building_ids": np.array([1, 2], dtype=np.int32)}
        gs = GaussianSet(**arrays)
        with pytest.raises(ValueError):
            getattr(gs, field)[0] = 0
        assert arrays[field].flags.writeable  # the caller's own array is left as it was
        # A scalar, or a complex or string copy of the field, is refused by name.
        for bad in (arrays[field].flat[0], arrays[field] + 0j, arrays[field].astype(str)):
            with pytest.raises(ValueError, match=field):
                GaussianSet(**{**arrays, field: bad})

    def test_validate_accepts_empty_set(self):
        GaussianSet.empty().validate()
        assert GaussianSet.empty().building_ids.shape == (0,)

    @pytest.mark.parametrize("factor, ok", [(1 - 0.5 * QUAT_NORM_TOL, True),
                                            (1 + 0.5 * QUAT_NORM_TOL, True),
                                            (1 - 2 * QUAT_NORM_TOL, False),
                                            (1 + 2 * QUAT_NORM_TOL, False),
                                            (1e200, False)])  # q.q overflows to inf
    def test_quaternion_norm_bounds_agree(self, factor, ok):
        q = _random_unit_quat(np.random.default_rng(5)) * factor
        gs = GaussianSet(np.zeros((2, 3)), np.ones((2, 3)), np.array([[1.0, 0, 0, 0], q]),
                         np.ones(2), np.ones((2, 3)))
        if ok:
            _gaussian(rotation=q)
            gs.validate()
        else:
            with pytest.raises(ValueError):
                _gaussian(rotation=q)
            with pytest.raises(ValueError):
                gs.validate()

    @pytest.mark.usefixtures("two_cpus")
    def test_validate_flags_bad_rows(self):
        gs = GaussianSet(
            np.zeros((1, 3)), np.ones((1, 3)),
            np.array([[2.0, 0, 0, 0]]), np.array([0.5]), np.zeros((1, 3)),
        )
        with pytest.raises(ValueError):
            gs.validate()
        # q.q is checked block by block: a bad row on either side of a block edge fails,
        # and so does one that only the helper thread of a split call reads.
        split = SPLIT_SIZES[0]
        for n, rows in ((2 * BLOCK + 2, (BLOCK - 1, BLOCK, 2 * BLOCK + 1)),
                        (split, (_mid(split), split - 1))):
            for row in rows:
                for bad in (np.nan, 1 + 2 * QUAT_NORM_TOL):
                    quats = np.tile([1.0, 0, 0, 0], (n, 1))
                    args = np.zeros((n, 3)), np.ones((n, 3)), quats, np.ones(n), np.ones((n, 3))
                    GaussianSet(*args).validate()
                    quats[row, 0] = bad
                    with pytest.raises(ValueError):
                        GaussianSet(*args).validate()
                    quats[row, 0] = 1.0
                    args[0][row, 1] = np.nan  # a NaN position in the same row
                    with pytest.raises(ValueError):
                        GaussianSet(*args).validate()


def _split_inputs(seed):
    """A split-size set of gaussians and a view, with points in front of it."""
    n = SPLIT_SIZES[1]
    scales, quats = _random_params(np.random.default_rng(seed), n)
    points = np.random.default_rng(seed + 1).uniform(-5, 5, (n, 3))
    gs = GaussianSet(points, scales, quats, np.ones(n), np.ones((n, 3)))
    view = CameraView.look_at((20, 3, 6), (0, 0, 0), 500.0, 480.0, 319.5, 239.5, 640, 480)
    return gs, view


@pytest.mark.usefixtures("two_cpus")
class TestSplit:
    """The row kernels at the sizes where they split across two threads."""

    def test_no_thread_below_the_split_size_or_on_one_cpu(self, monkeypatch):
        monkeypatch.setattr(core, "_pool", None)
        gs, view = _split_inputs(20)
        small = gs.select(slice(4 * BLOCK - 1))
        small.validate()
        small.covariances()
        view.project(small.positions)
        assert core._pool is None
        monkeypatch.setattr(core, "_cpus", lambda: 1)
        gs.validate()
        serial = gs.covariances(), *view.project(gs.positions)
        assert core._pool is None
        monkeypatch.setattr(core, "_cpus", lambda: 2)
        split = gs.covariances(), *view.project(gs.positions)
        assert core._pool is not None
        assert all(np.array_equal(a, b) for a, b in zip(serial, split))

    @pytest.mark.parametrize("files, cpus", [
        ({}, 2), ({"cpu.max": "max 100000\n"}, 2), ({"cpu.max": "200000 100000\n"}, 2),
        ({"cpu.max": "150000 100000\n"}, 1), ({"cpu.max": "50000 100000\n"}, 1),
        ({"cpu.max": "400000 100000\n"}, 2), ({"quota": "-1\n", "period": "100000\n"}, 2),
        ({"quota": "100000\n", "period": "100000\n"}, 1), ({"cpu.max": "garbled"}, 2),
        ({"quota": "100000\n"}, 2)])
    def test_cpus_are_capped_by_the_cgroup_quota(self, monkeypatch, tmp_path, files, cpus):
        monkeypatch.undo()  # the real _cpus, not the two_cpus fixture's
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        monkeypatch.setattr(core, "_CPU_QUOTA_FILES", (
            (str(tmp_path / "cpu.max"),), (str(tmp_path / "quota"), str(tmp_path / "period"))))
        assert core._cpus() == cpus

    @pytest.mark.parametrize("failure", ["interpreter shutdown", "thread start"])
    def test_runs_serially_when_the_helper_takes_no_work(self, monkeypatch, failure):
        import concurrent.futures.thread

        gs, _ = _split_inputs(26)
        expected = gs.covariances()
        monkeypatch.setattr(core, "_pool", None)
        if failure == "interpreter shutdown":  # as in an atexit handler
            monkeypatch.setattr(concurrent.futures.thread, "_shutdown", True)
        else:
            def no_thread(self):
                raise RuntimeError("can't start new thread")
            monkeypatch.setattr(threading.Thread, "start", no_thread)
        assert np.array_equal(gs.covariances(), expected)
        assert core._pool is None
        monkeypatch.undo()
        monkeypatch.setattr(core, "_cpus", lambda: 2)
        monkeypatch.setattr(core, "_pool", None)
        assert np.array_equal(gs.covariances(), expected)  # a new pool takes work again
        assert core._pool is not None

    @pytest.mark.parametrize("lo, hi", [(0, 0), (0, 1), (0, 2), (0, BLOCK + 1), (0, 2 * BLOCK),
                                        (0, 2 * BLOCK + 1), (2 * BLOCK, 4 * BLOCK + 1)])
    def test_blocks_cover_the_range_and_none_is_one_row_unless_it_is(self, lo, hi):
        # A one-row block would make project's matmul a BLAS gemv, whose bits differ.
        blocks = list(core._blocks(lo, hi))
        assert [b.start for b in blocks] == list(range(lo, hi, BLOCK))[:len(blocks)]
        assert [b.stop for b in blocks[:-1]] == [b.start for b in blocks[1:]]
        assert not blocks or blocks[-1].stop == hi
        assert all(b.stop - b.start >= min(BLOCK, hi - lo) for b in blocks)

    def test_helper_thread_sees_the_callers_errstate(self):
        scales, quats = _random_params(np.random.default_rng(21), SPLIT_SIZES[0])
        # In the last row, which only the helper thread computes, the zero entries
        # of the identity rotation times the infinite scale are inf * 0.
        scales[-1] = np.inf
        quats[-1] = (1.0, 0.0, 0.0, 0.0)
        with pytest.raises(RuntimeWarning, match="invalid value"):
            covariances_from_arrays(scales, quats)  # warnings are errors in this suite
        with np.errstate(invalid="ignore"):
            cov = covariances_from_arrays(scales, quats)
        assert np.isnan(cov[-1]).all()
        assert np.array_equal(cov[:-1], covariances_from_arrays(scales[:-1], quats[:-1]))

    def test_public_calls_come_from_the_calling_thread(self, monkeypatch):
        calls, parts = [], []

        def record(log, name, fn):
            @functools.wraps(fn)
            def recorded(*args, **kwargs):
                log.append((name, threading.get_ident()))
                return fn(*args, **kwargs)
            return recorded

        for name, value in vars(core).items():
            if name.startswith("_") or getattr(value, "__module__", None) != core.__name__:
                continue
            if inspect.isfunction(value):
                monkeypatch.setattr(core, name, record(calls, name, value))
            elif inspect.isclass(value):
                for attr, raw in list(vars(value).items()):
                    if isinstance(raw, staticmethod):
                        monkeypatch.setattr(value, attr, staticmethod(
                            record(calls, f"{name}.{attr}", raw.__func__)))
                    elif inspect.isfunction(raw) and not attr.startswith("_"):
                        monkeypatch.setattr(value, attr, record(calls, f"{name}.{attr}", raw))
        # The part functions, so that the test sees the calls did split.
        for owner, attr in ((core, "_rotations_into"), (core, "_covariances_over"),
                            (GaussianSet, "_extremes"), (CameraView, "_project_into")):
            monkeypatch.setattr(owner, attr, record(parts, attr, getattr(owner, attr)))
        gs, view = _split_inputs(23)
        gs.validate()
        gs.covariances()
        core.covariances_from_arrays(gs.scales, gs.rotations)
        view.project(gs.positions)
        names = [name for name, _ in calls]
        assert {ident for _, ident in calls} == {threading.get_ident()}
        assert names.count("quats_to_rotations") == names.count("covariances_from_arrays") == 2
        assert {"GaussianSet.validate", "GaussianSet.covariances", "CameraView.project"} <= {
            *names}
        for attr in ("_rotations_into", "_covariances_over", "_extremes", "_project_into"):
            assert len({ident for name, ident in parts if name == attr}) == 2, attr

    def test_concurrent_callers_share_the_helper_thread(self):
        # More caller threads than CPUs, switching often: each must get its own result.
        gs, _ = _split_inputs(24)
        expected = gs.covariances()
        results, errors = {}, []

        def call(k):
            try:
                results[k] = covariances_from_arrays(gs.scales, gs.rotations)
            except Exception as e:  # reported by the assertion below
                errors.append(e)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=call, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and not errors
        assert all(np.array_equal(results[k], expected) for k in range(4))

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    # Python 3.12+ warns when a process with threads forks; that is the case tested here.
    @pytest.mark.filterwarnings("ignore:.*is multi-threaded, use of fork:DeprecationWarning")
    def test_forked_child_splits_on_a_thread_of_its_own(self):
        gs, _ = _split_inputs(25)
        expected = gs.covariances()  # the parent's helper thread exists from here on
        assert core._pool is not None
        pid = os.fork()
        if pid == 0:  # the child leaves through os._exit, whatever happens
            code = 1
            try:
                code = 0 if np.array_equal(gs.covariances(), expected) else 2
            finally:
                os._exit(code)
        deadline = time.monotonic() + 60
        done, status = os.waitpid(pid, os.WNOHANG)
        while not done and time.monotonic() < deadline:
            time.sleep(0.01)
            done, status = os.waitpid(pid, os.WNOHANG)
        if not done:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child's split call did not finish within 60 s")
        assert os.waitstatus_to_exitcode(status) == 0


@pytest.mark.parametrize("value", [
    pytest.param(GaussianSet(np.zeros((2, 3)), np.ones((2, 3)), np.tile([1.0, 0, 0, 0], (2, 1)),
                             np.array([0.5, 1.0]), np.ones((2, 3)), np.array([0, 7])),
                 id="GaussianSet"),
    pytest.param(_gaussian(position=(1, 2, 3), opacity=0.5), id="Gaussian3D"),
    pytest.param(CameraView.look_at((3, 2, 1), (0, 0, 0), 100, 100, 1.5, 1.0, 4, 3),
                 id="CameraView"),
    pytest.param(Raster.full(4, 3, (0.1, 0.2, 0.3)), id="Raster"),
    pytest.param(Raster(np.full((3, 4), np.inf)), id="Raster-depth"),
    pytest.param(Raster(np.zeros((0, 0))), id="Raster-empty"),
])
@pytest.mark.parametrize("clone", [lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy],
                         ids=["pickle", "deepcopy"])
def test_copies_keep_values_and_read_only_fields(value, clone):
    other = clone(value)
    assert type(other) is type(value)
    for a, b in zip(other._columns(), value._columns()):
        if isinstance(b, np.ndarray):
            assert np.array_equal(a, b) and a.dtype == b.dtype
            assert not a.flags.writeable
        else:
            assert a == b
