"""The jitted kernels and their pure-numpy originals must agree bitwise-
closely; the originals in _IMPLS are the reference lane selected by
SPARSEMOTION_NUMBA=0."""

import subprocess
import sys

import numpy as np

from sparsemotion import _kernels
from sparsemotion.kinematics import Pose, fk_arrays
from sparsemotion.solvers import SolveOptions, solve_rf

from conftest import in_bounds_pose


def test_rotation_kernel_matches_reference():
    rng = np.random.default_rng(0)
    ref = _kernels._IMPLS["rotation_about_axis"]
    for _ in range(50):
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        theta = rng.uniform(-np.pi, np.pi)
        np.testing.assert_allclose(
            _kernels.rotation_about_axis(axis, theta), ref(axis, theta),
            atol=1e-15)


def test_fk_and_jacobian_kernels_match_reference(skel40):
    rng = np.random.default_rng(1)
    pose = in_bounds_pose(skel40, rng)
    Rc = pose.camera_to_root.rotation
    tc = pose.camera_to_root.translation
    args = (skel40.parents, skel40.offsets, skel40.axes, Rc, tc, pose.theta)
    R, t = _kernels.fk_chain(*args)
    R2, t2 = _kernels._IMPLS["fk_chain"](*args)
    np.testing.assert_allclose(R, R2, atol=1e-15)
    np.testing.assert_allclose(t, t2, atol=1e-15)

    pts = _kernels.landmark_points(R, t, skel40.lmk_joint, skel40.lmk_local)
    pts2 = _kernels._IMPLS["landmark_points"](R, t, skel40.lmk_joint,
                                              skel40.lmk_local)
    np.testing.assert_allclose(pts, pts2, atol=1e-15)

    jargs = (R, t, skel40.axes, skel40.ancestry, pts)
    np.testing.assert_allclose(
        _kernels.articulated_jacobian(*jargs),
        _kernels._IMPLS["articulated_jacobian"](*jargs), atol=1e-15)


def test_fallback_lane_via_environment_flag():
    """A subprocess with SPARSEMOTION_NUMBA=0 must produce the same solve."""
    code = (
        "import os; os.environ['SPARSEMOTION_NUMBA'] = '0'\n"
        "import numpy as np\n"
        "from sparsemotion import _kernels\n"
        "assert not _kernels.NUMBA_ENABLED\n"
        "from sparsemotion.kinematics import default_skeleton\n"
        "from sparsemotion.camera import CameraModel, assemble_system\n"
        "from sparsemotion.experiments import sample_pose\n"
        "from sparsemotion.solvers import SolveOptions, solve_rf\n"
        "skel = default_skeleton()\n"
        "cam = CameraModel(focal=1145.0)\n"
        "pose = sample_pose(skel, np.random.default_rng(7))\n"
        "sys_m = assemble_system(skel, pose, cam)\n"
        "omega = np.zeros(40); omega[[4, 18]] = [2e-3, -1e-3]\n"
        "y = sys_m.B @ omega\n"
        "opts = SolveOptions(max_iter=20000, primal_tol=1e-10,"
        " dual_tol=1e-10)\n"
        "motion, stats = solve_rf(sys_m, y, opts)\n"
        "assert stats.converged\n"
        "print(repr(motion.omega.tolist()))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    fallback_omega = np.array(eval(proc.stdout.strip()))

    from sparsemotion.camera import CameraModel, assemble_system
    from sparsemotion.experiments import sample_pose
    from sparsemotion.kinematics import default_skeleton
    skel = default_skeleton()
    cam = CameraModel(focal=1145.0)
    pose = sample_pose(skel, np.random.default_rng(7))
    sys_m = assemble_system(skel, pose, cam)
    omega = np.zeros(40)
    omega[[4, 18]] = [2e-3, -1e-3]
    motion, stats = solve_rf(sys_m, sys_m.B @ omega,
                             SolveOptions(max_iter=20000, primal_tol=1e-10,
                                          dual_tol=1e-10))
    assert stats.converged
    np.testing.assert_allclose(motion.omega, fallback_omega, atol=1e-12)
