import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from proxysplat.core import (
    COV_BLOCK,
    PSNR_BLOCK,
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


def _gaussian(position=(0, 0, 0), scale=(1, 1, 1), rotation=(1, 0, 0, 0),
              opacity=1.0, color=(1, 1, 1)):
    return Gaussian3D(np.array(position, float), np.array(scale, float),
                      np.array(rotation, float), opacity, np.array(color, float))


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


class TestRotationKernel:
    @pytest.mark.parametrize("n", [0, 1, 5, COV_BLOCK + 1])
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
    @pytest.mark.parametrize(
        "n", [0, 1, COV_BLOCK - 1, COV_BLOCK, COV_BLOCK + 1, 3 * COV_BLOCK + 5])
    def test_matches_einsum_across_block_edges(self, n):
        _assert_matches_reference(*_random_params(np.random.default_rng(n), n))

    def test_strided_and_float32_inputs(self):
        scales, quats = _random_params(np.random.default_rng(11), 2 * COV_BLOCK + 3)
        wide = np.hstack([quats, scales])  # column slices of this are strided views
        strided_quats, strided_scales = wide[:, :4], wide[:, 4:]
        assert not strided_quats.flags.c_contiguous
        _assert_matches_reference(strided_scales, strided_quats)
        _assert_matches_reference(scales[::-1], quats[::-1])
        _assert_matches_reference(scales.astype(np.float32), quats.astype(np.float32))

    def test_gather_from_entry_major_result(self):
        # The workloads read rows back with a fancy-index gather, cov[idx].
        n = 3 * COV_BLOCK + 5
        scales, quats = _random_params(np.random.default_rng(13), n)
        cov = covariances_from_arrays(scales, quats)
        assert cov.transpose(1, 2, 0).flags.c_contiguous  # the entry-major layout
        idx = np.random.default_rng(14).choice(n, 64)
        idx[:3] = (0, COV_BLOCK, n - 1)
        rows = cov[idx]
        assert np.array_equal(rows, rows.transpose(0, 2, 1))
        assert np.abs(rows - _einsum_covariances(scales, quats)[idx]).max() <= 1e-12

    def test_rejects_mismatched_scales(self):
        scales, quats = _random_params(np.random.default_rng(12), 5)
        with pytest.raises(ValueError):
            covariances_from_arrays(scales[:1], quats)

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
    @pytest.mark.parametrize("field", ["position", "scale", "rotation", "opacity", "color"])
    def test_rejects_non_finite(self, field, bad):
        kwargs = {"opacity": bad} if field == "opacity" else {
            field: np.r_[bad, getattr(_gaussian(), field)[1:]]}
        with pytest.raises(ValueError):
            _gaussian(**kwargs)

    def test_point3_rejects_nan(self):
        with pytest.raises(ValueError):
            Point3(np.nan, 0.0, 0.0)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_agrees_with_validate_of_one_row_set(self, data):
        # One rule: a gaussian is rejected exactly when a set of it fails validate().
        edge = st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, F64_MAX,
                                -F64_MAX, 1.0, np.nextafter(1.0, 2.0), np.nextafter(0.0, -1.0)])
        number = st.one_of(edge, st.floats(-2, 2))
        position, scale, color = (np.array(data.draw(st.lists(number, min_size=3, max_size=3)))
                                  for _ in range(3))
        opacity = data.draw(number)
        q = np.array(data.draw(st.lists(st.floats(-1, 1), min_size=4, max_size=4)))
        assume(np.linalg.norm(q) > 0.1)
        q /= np.linalg.norm(q)
        q *= data.draw(st.sampled_from([1.0, 1 - 0.5 * QUAT_NORM_TOL, 1 + 0.5 * QUAT_NORM_TOL,
                                        1 - 2 * QUAT_NORM_TOL, 1 + 2 * QUAT_NORM_TOL]))
        if data.draw(st.booleans()):
            q[data.draw(st.integers(0, 3))] = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
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

    def test_camera_center_projects_through(self):
        view = CameraView.look_at((3, 2, 1), (0, 0, 0), 100, 100, 50, 50, 100, 100)
        pix, depth = project_point(view, (0, 0, 0))
        assert depth == pytest.approx(np.linalg.norm([3, 2, 1]))
        assert np.allclose(pix, (50, 50), atol=1e-9)


class TestProject:
    def test_matches_reference_expression(self):
        # A cyclic permutation of the axes, so camera z = world x + 2 exactly.
        permuted = CameraView(np.array([[0.0, 1, 0], [0, 0, 1], [1, 0, 0]]),
                              np.array([0.5, -1.0, 2.0]), 120.0, 110.0, 64.0, 48.0, 128, 96)
        oblique = CameraView.look_at((4, -3, 2), (0, 0, 0), 120.0, 110.0, 64.0, 48.0, 128, 96)
        points = np.random.default_rng(8).uniform(-5, 5, (20, 3))
        points[0] = (-2.0, -0.5 + 2.0**-30, 1.0)  # on the camera plane of `permuted`
        points[1] = (-5.0, 1.0, 2.0)  # behind `permuted`
        for view in (permuted, oblique):
            cam = points @ view.rotation.T + view.translation
            x, y, z = cam.T
            safe_z = np.where(z == 0.0, np.finfo(np.float64).tiny, z)
            expected = np.stack([view.fx * x / safe_z + view.cx,
                                 view.fy * y / safe_z + view.cy], axis=1)
            pix, depth = view.project(points)
            assert np.array_equal(pix, expected)
            assert np.array_equal(depth, z)
        pix, depth = permuted.project(points[:2])
        assert depth[0] == 0.0 and depth[1] < 0.0
        assert np.all(np.isfinite(pix))

    @pytest.mark.parametrize("n", [1, 2, 7, 1000, 10**5])
    def test_matches_reference_at_every_size(self, n):
        # The bits must not change where the matmul switches BLAS paths.
        points = np.random.default_rng(n).uniform(-5, 5, (n, 3))
        for eye in ((20, 3, 6), (-7, 15, -9), (2, -18, 11)):
            view = CameraView.look_at(eye, (0.5, -0.2, 0.1), 500.0, 480.0, 319.5, 239.5,
                                      640, 480)
            cam = points @ view.rotation.T + view.translation
            x, y, z = cam.T
            safe_z = np.where(z == 0.0, np.finfo(np.float64).tiny, z)
            expected = np.stack([view.fx * x / safe_z + view.cx,
                                 view.fy * y / safe_z + view.cy], axis=1)
            pix, depth = view.project(points)
            assert np.array_equal(view.to_camera(points), cam)
            assert np.array_equal(pix, expected)
            assert np.array_equal(depth, z)

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

    def test_look_at_rejects_zero_up(self):
        # errstate makes a 0/0 on the way raise FloatingPointError, not ValueError.
        with np.errstate(all="raise"), pytest.raises(ValueError):
            CameraView.look_at((3, 2, 1), (0, 0, 0), 100, 100, 50, 50, 100, 100, up=(0, 0, 0))

    @pytest.mark.parametrize("width, height", [(0, 0), (0, 1), (1, 0), (np.nan, 1), (1, np.nan)])
    def test_rejects_resolution_below_one_pixel(self, width, height):
        with pytest.raises(ValueError):
            CameraView(np.eye(3), np.zeros(3), 100, 100, -0.5, -0.5, width, height)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1.5, -0.1])
    def test_rejects_image_outside_unit_range(self, bad):
        view = CameraView(np.eye(3), np.zeros(3), 100, 100, 1.5, 1.0, 4, 3)
        image = np.full((3, 4, 3), 0.5)
        assert view.with_image(image).image.shape == (3, 4, 3)
        image[2, 1, 0] = bad
        with pytest.raises(ValueError):
            view.with_image(image)
        with pytest.raises(ValueError):
            view.with_image(np.full((3, 4, 3), bad))

    @pytest.mark.parametrize("field", ["rotation", "translation", "image"])
    def test_fields_are_read_only(self, field):
        arrays = {"rotation": np.eye(3), "translation": np.zeros(3), "image": np.zeros((3, 4, 3))}
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
            psnr(Raster(0, 0, 1, np.zeros((0, 0))), Raster(0, 0, 1, np.zeros((0, 0))))

    def test_inf_in_both_images_errors(self):
        # inf - inf is NaN: a ValueError, not a RuntimeWarning.
        a = np.full((8, 8, 3), 0.5)
        a[2, 2, 0] = np.inf
        with pytest.raises(ValueError):
            psnr(a, a.copy())
        with pytest.raises(ValueError):
            psnr(np.full(4, 1e308), np.full(4, -1e308))  # the difference overflows

    @pytest.mark.parametrize("n", [PSNR_BLOCK - 1, PSNR_BLOCK, PSNR_BLOCK + 1,
                                   2 * PSNR_BLOCK - 1, 2 * PSNR_BLOCK, 2 * PSNR_BLOCK + 1,
                                   3 * PSNR_BLOCK + 5])
    def test_matches_reference_across_block_edges(self, n):
        rng = np.random.default_rng(n)
        a = rng.uniform(0, 1, n)
        b = rng.uniform(0, 1, n)
        wide_a = np.repeat(a, 2).reshape(1, 2 * n)  # every other column: a strided view
        wide_b = np.repeat(b, 2).reshape(1, 2 * n)
        assert not wide_a[:, ::2].flags.c_contiguous
        pairs = [(a, b), (Raster.from_array(a.reshape(1, n)), Raster.from_array(b.reshape(1, n))),
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
        with pytest.raises(ValueError):
            Raster(4, 4, 3, np.zeros((4, 4)))
        with pytest.raises(ValueError):
            Raster(4, 4, 2, np.zeros((4, 4, 2)))

    def test_data_is_read_only(self):
        data = np.zeros((2, 4))
        r = Raster.from_array(data)
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

    def test_concatenate_rejects_sets_without_ids_among_sets_with_ids(self):
        with_ids = GaussianSet.from_gaussians([_gaussian()], building_ids=np.array([3]))
        without = GaussianSet.from_gaussians([_gaussian()])
        assert GaussianSet.concatenate([GaussianSet.empty(), with_ids]).building_ids.tolist() == [3]
        with pytest.raises(ValueError, match="set 2 "):
            GaussianSet.concatenate([with_ids, GaussianSet.empty(), without, without])

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
        assert no_ids.building_ids is None and no_ids.select(index).building_ids is None
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
    @pytest.mark.parametrize("field", ["positions", "scales", "rotations", "opacities", "colors"])
    def test_validate_rejects_non_finite(self, field, bad):
        gs = GaussianSet.from_gaussians([_gaussian(), _gaussian(color=(0.5, 0.5, 0.5))])
        gs.validate()
        arrays = {name: getattr(gs, name).copy() for name in
                  ("positions", "scales", "rotations", "opacities", "colors")}
        arrays[field].reshape(-1)[-1] = bad
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

    def test_validate_accepts_empty_set(self):
        GaussianSet.empty().validate()
        GaussianSet.empty(with_ids=True).validate()

    @pytest.mark.parametrize("factor, ok", [(1 - 0.5 * QUAT_NORM_TOL, True),
                                            (1 + 0.5 * QUAT_NORM_TOL, True),
                                            (1 - 2 * QUAT_NORM_TOL, False),
                                            (1 + 2 * QUAT_NORM_TOL, False)])
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

    def test_validate_flags_bad_rows(self):
        gs = GaussianSet(
            np.zeros((1, 3)), np.ones((1, 3)),
            np.array([[2.0, 0, 0, 0]]), np.array([0.5]), np.zeros((1, 3)),
        )
        with pytest.raises(ValueError):
            gs.validate()
