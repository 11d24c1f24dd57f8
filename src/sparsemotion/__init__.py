"""Sparse differential articulated motion recovery from 2D landmark motion,
with exact-recovery certification for a given skeleton/camera configuration.
"""

from .camera import CameraModel, SystemMatrices, assemble_system
from .errors import InputError
from .kinematics import Pose, Skeleton, clamp_angles, default_skeleton, load_skeleton
from .liegroup import RigidTransform, Twist
from .pksp import ambiguity_nullspace, check_pksp, check_pksp_order
from .solvers import (
    DifferentialMotion,
    SolveOptions,
    Support,
    extract_support,
    solve_l0_oracle,
    solve_l2,
    solve_rf,
)

__version__ = "0.1.0"

__all__ = [
    "CameraModel",
    "DifferentialMotion",
    "InputError",
    "Pose",
    "RigidTransform",
    "Skeleton",
    "SolveOptions",
    "Support",
    "SystemMatrices",
    "Twist",
    "ambiguity_nullspace",
    "assemble_system",
    "check_pksp",
    "check_pksp_order",
    "clamp_angles",
    "default_skeleton",
    "extract_support",
    "load_skeleton",
    "solve_l0_oracle",
    "solve_l2",
    "solve_rf",
]
