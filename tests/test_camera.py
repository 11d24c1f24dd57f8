import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sparsemotion.camera import (
    AssemblyError,
    CameraModel,
    DepthError,
    are_collinear,
    assemble_system,
    project,
    projection_jacobian,
    stacked_projection_blocks,
    stacked_projection_kernel,
)
from sparsemotion.kinematics import Pose, articulated_jacobian, rigid_jacobian
from sparsemotion.liegroup import RigidTransform

from conftest import in_bounds_pose


class TestCameraModel:
    def test_pixel_roundtrip(self):
        cam = CameraModel(focal=1145.0, principal=np.array([320.0, 240.0]))
        uv = np.array([0.12, -0.34])
        np.testing.assert_allclose(cam.to_normalized(cam.to_pixels(uv)), uv,
                                   atol=1e-14)

    def test_rejects_nonpositive_focal(self):
        with pytest.raises(ValueError):
            CameraModel(focal=0.0)

    def test_rejects_nonpositive_min_depth(self):
        with pytest.raises(ValueError):
            CameraModel(focal=1145.0, min_depth=0.0)


class TestProjection:
    def test_known_point(self):
        cam = CameraModel(focal=1145.0)
        np.testing.assert_allclose(project([1.0, 2.0, 4.0], cam), [0.25, 0.5])
        pts = np.array([[1.0, 2.0, 4.0], [-3.0, 0.5, 2.0], [0.0, 0.0, 1.0]])
        np.testing.assert_allclose(
            project(pts, cam), [[0.25, 0.5], [-1.5, 0.25], [0.0, 0.0]])

    def test_depth_guard(self):
        cam = CameraModel(focal=1145.0)
        with pytest.raises(DepthError):
            project([0.0, 0.0, 1e-6], cam)
        with pytest.raises(DepthError):
            project([[1.0, 2.0, 4.0], [0.0, 0.0, 1e-6], [0.5, 0.5, 3.0]], cam)

    @given(st.floats(-5, 5), st.floats(-5, 5),
           st.floats(0.1, 50), st.floats(0.01, 10))
    @settings(max_examples=100, deadline=None)
    def test_scale_invariance_along_sightline(self, x, y, z, scale):
        cam = CameraModel(focal=1145.0)
        p = np.array([x, y, z])
        np.testing.assert_allclose(project(scale * p, cam), project(p, cam),
                                   atol=1e-9)


class TestProjectionJacobian:
    def test_closed_form_entries(self):
        Mp = projection_jacobian([1.0, 2.0, 4.0])
        np.testing.assert_allclose(
            Mp, [[0.25, 0.0, -1.0 / 16], [0.0, 0.25, -2.0 / 16]], atol=1e-15)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        cam = CameraModel(focal=1145.0)
        h = 1e-6
        for _ in range(50):
            p = rng.uniform([-2, -2, 0.5], [2, 2, 6])
            Mp = projection_jacobian(p)
            for k in range(3):
                e = np.zeros(3)
                e[k] = h
                fd = (project(p + e, cam) - project(p - e, cam)) / (2 * h)
                assert np.max(np.abs(Mp[:, k] - fd)) <= 1e-5

    def test_annihilates_own_point(self):
        """Radial motion along the sightline is invisible: M(p) p = 0."""
        rng = np.random.default_rng(1)
        for _ in range(100):
            p = rng.uniform([-2, -2, 0.5], [2, 2, 6])
            np.testing.assert_allclose(projection_jacobian(p) @ p, 0,
                                       atol=1e-12)

    def test_depth_guard(self):
        with pytest.raises(DepthError):
            projection_jacobian([0.0, 0.0, -1.0])


class TestStackedBlocks:
    def test_block_diagonal_layout(self):
        rng = np.random.default_rng(2)
        pts = rng.uniform([-1, -1, 1], [1, 1, 5], (4, 3))
        M = stacked_projection_blocks(pts)
        assert M.shape == (8, 12)
        for i in range(4):
            blk = M[2 * i : 2 * i + 2, 3 * i : 3 * i + 3]
            np.testing.assert_array_equal(blk, projection_jacobian(pts[i]))
            off = M[2 * i : 2 * i + 2].copy()
            off[:, 3 * i : 3 * i + 3] = 0
            np.testing.assert_array_equal(off, 0)

    def test_kernel_columns_are_sightlines(self):
        """M (e_i kron p_i) = 0 for every landmark: the stated null space."""
        rng = np.random.default_rng(3)
        pts = rng.uniform([-1, -1, 1], [1, 1, 5], (13, 3))
        M = stacked_projection_blocks(pts)
        K = stacked_projection_kernel(pts)
        assert np.max(np.abs(M @ K)) <= 1e-12
        # and the kernel is exactly N-dimensional: rank(M) = 2N
        assert np.linalg.matrix_rank(M, tol=1e-10) == 26

    def test_kernel_depth_guard(self):
        with pytest.raises(DepthError):
            stacked_projection_kernel([[0.0, 0.0, -2.0]])


class TestCollinearity:
    def test_collinear_points(self):
        pts = np.outer(np.arange(4.0), [1.0, 2.0, 3.0]) + [0, 0, 1]
        assert are_collinear(pts)

    def test_noncollinear_points(self):
        assert not are_collinear([[0, 0, 1], [1, 0, 1], [0, 1, 1]])

    def test_scale_free(self):
        pts = np.array([[0, 0, 1], [1, 0, 1], [0, 1, 1]], dtype=float)
        assert not are_collinear(1e-8 * pts)

    def test_coincident_points_are_collinear(self):
        assert are_collinear([[1, 1, 1]] * 3)


class TestAssembleSystem:
    def test_shapes_and_factorization(self, skel40, cam1145):
        rng = np.random.default_rng(4)
        pose = in_bounds_pose(skel40, rng)
        sys = assemble_system(skel40, pose, cam1145)
        assert sys.A.shape == (26, 6)
        assert sys.B.shape == (26, 40)
        assert sys.n_visible == 13
        # A and B are the projection blocks applied to the 3D Jacobians
        from sparsemotion.kinematics import fk_arrays
        _, _, pts = fk_arrays(skel40, pose)
        M = stacked_projection_blocks(pts)
        np.testing.assert_allclose(sys.A, M @ rigid_jacobian(pts), atol=1e-13)
        np.testing.assert_allclose(
            sys.B, M @ articulated_jacobian(skel40, pose), atol=1e-13)

    def test_rigid_block_well_conditioned(self, skel40, cam1145):
        """Noncollinear landmarks make A injective with a quantified margin."""
        rng = np.random.default_rng(5)
        for _ in range(20):
            pose = in_bounds_pose(skel40, rng)
            sys = assemble_system(skel40, pose, cam1145)
            sv = np.linalg.svd(sys.A, compute_uv=False)
            assert sys.conditioning == pytest.approx(sv[-1])
            assert sv[-1] > 1e-10 * sv[0]

    def test_occlusion_removes_rows(self, skel40, cam1145, skel40_pose):
        visible = np.ones(13, dtype=bool)
        visible[[2, 7]] = False
        sys = assemble_system(skel40, skel40_pose, cam1145, visible=visible)
        assert sys.A.shape == (22, 6)
        assert sys.n_visible == 11
        np.testing.assert_array_equal(sys.visible_index,
                                      np.delete(np.arange(13), [2, 7]))
        full = assemble_system(skel40, skel40_pose, cam1145)
        rows = np.concatenate([[2 * i, 2 * i + 1] for i in sys.visible_index])
        np.testing.assert_allclose(sys.B, full.B[rows], atol=1e-14)

    def test_too_few_visible(self, skel40, cam1145, skel40_pose):
        visible = np.zeros(13, dtype=bool)
        visible[[0, 1]] = True
        with pytest.raises(AssemblyError, match="at least 3"):
            assemble_system(skel40, skel40_pose, cam1145, visible=visible)

    def test_behind_camera_landmarks_dropped(self, skel40, cam1145):
        pose = Pose(RigidTransform(np.eye(3), np.array([0.0, 0.0, -5.0])),
                    np.zeros(skel40.dof))
        with pytest.raises(AssemblyError):
            assemble_system(skel40, pose, cam1145)

    def test_visibility_length_checked(self, skel40, cam1145, skel40_pose):
        with pytest.raises(AssemblyError, match="visibility"):
            assemble_system(skel40, skel40_pose, cam1145,
                            visible=np.ones(5, dtype=bool))

    def test_stacked_rows_span_full_space(self, skel40, cam1145):
        """[A | B] has full row rank: the linear model can fit any image
        motion, so exactness rests entirely on the sparse decomposition."""
        rng = np.random.default_rng(6)
        pose = in_bounds_pose(skel40, rng)
        sys = assemble_system(skel40, pose, cam1145)
        AB = np.hstack([sys.A, sys.B])
        assert np.linalg.matrix_rank(AB, tol=1e-9) == 26
