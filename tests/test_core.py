import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from proxysplat.core import (
    COV_BLOCK,
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

    def test_validate_accepts_empty_set(self):
        GaussianSet.empty().validate()
        GaussianSet.empty(with_ids=True).validate()

    def test_validate_flags_bad_rows(self):
        gs = GaussianSet(
            np.zeros((1, 3)), np.ones((1, 3)),
            np.array([[2.0, 0, 0, 0]]), np.array([0.5]), np.zeros((1, 3)),
        )
        with pytest.raises(ValueError):
            gs.validate()
