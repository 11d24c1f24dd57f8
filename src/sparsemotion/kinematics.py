"""Kinematic skeleton: configuration loading, forward kinematics, the
articulated and rigid Jacobians, and anatomical angle clamping.

A skeleton config declares joints with up to three rotational degrees of
freedom each; multi-DoF joints are expanded on load into chains of 1-DoF
joints with zero offsets, in declared order.  Angles are degrees in config
files and radians everywhere else.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from . import _kernels
from .liegroup import RigidTransform, skew

_AXIS_TOL = 1e-8


class SkeletonError(ValueError):
    """Invalid skeleton configuration."""


@dataclass(frozen=True)
class JointSpec:
    """One rotational degree of freedom (post-expansion)."""

    id: int
    name: str
    parent: int  # index of parent JointSpec, -1 for the root transform
    offset: np.ndarray  # translation from parent frame, length units
    axis: np.ndarray  # unit rotation axis in the reference configuration
    bound_min: float  # rad
    bound_max: float  # rad


@dataclass(frozen=True)
class LandmarkSpec:
    id: int
    joint: int  # deepest parent joint (post-expansion index)
    local: np.ndarray  # constant position in that joint's frame


@dataclass(frozen=True)
class Skeleton:
    name: str
    joints: tuple[JointSpec, ...]
    landmarks: tuple[LandmarkSpec, ...]
    # flat arrays mirroring the joint/landmark records, consumed by the kernels
    parents: np.ndarray = field(repr=False, default=None)
    offsets: np.ndarray = field(repr=False, default=None)
    axes: np.ndarray = field(repr=False, default=None)
    bounds_min: np.ndarray = field(repr=False, default=None)
    bounds_max: np.ndarray = field(repr=False, default=None)
    lmk_joint: np.ndarray = field(repr=False, default=None)
    lmk_local: np.ndarray = field(repr=False, default=None)
    ancestry: np.ndarray = field(repr=False, default=None)  # (d, N) bool

    @property
    def dof(self) -> int:
        return len(self.joints)

    @property
    def n_landmarks(self) -> int:
        return len(self.landmarks)


@dataclass(frozen=True)
class Pose:
    camera_to_root: RigidTransform
    theta: np.ndarray  # rad, one entry per expanded joint

    def __post_init__(self):
        object.__setattr__(self, "theta", np.asarray(self.theta, dtype=float))

    def within_bounds(self, skel: Skeleton, tol: float = 1e-12) -> bool:
        return bool(
            np.all(self.theta >= skel.bounds_min - tol)
            and np.all(self.theta <= skel.bounds_max + tol)
        )


def _freeze_arrays(name, joints, landmarks):
    d = len(joints)
    n = len(landmarks)
    parents = np.array([j.parent for j in joints], dtype=np.int64)
    offsets = np.array([j.offset for j in joints], dtype=float)
    axes = np.array([j.axis for j in joints], dtype=float)
    bmin = np.array([j.bound_min for j in joints], dtype=float)
    bmax = np.array([j.bound_max for j in joints], dtype=float)
    lmk_joint = np.array([l.joint for l in landmarks], dtype=np.int64)
    lmk_local = np.array([l.local for l in landmarks], dtype=float)
    ancestry = np.zeros((d, n), dtype=np.bool_)
    for i, l in enumerate(landmarks):
        j = l.joint
        while j >= 0:
            ancestry[j, i] = True
            j = joints[j].parent
    return Skeleton(
        name=name,
        joints=tuple(joints),
        landmarks=tuple(landmarks),
        parents=parents,
        offsets=offsets,
        axes=axes,
        bounds_min=bmin,
        bounds_max=bmax,
        lmk_joint=lmk_joint,
        lmk_local=lmk_local,
        ancestry=ancestry,
    )


def load_skeleton(config_text: str) -> Skeleton:
    """Parse a JSON skeleton config and expand multi-DoF joints.

    Raises SkeletonError on malformed input: parse failure, cycles,
    non-unit axes, duplicate ids, inverted bounds, or landmarks referencing
    unknown joints.
    """
    try:
        cfg = json.loads(config_text)
    except json.JSONDecodeError as e:
        raise SkeletonError(f"config parse failure: {e}") from e
    try:
        raw_joints = cfg["joints"]
        raw_landmarks = cfg["landmarks"]
        name = cfg.get("name", "skeleton")
    except (KeyError, TypeError) as e:
        raise SkeletonError(f"missing config section: {e}") from e

    seen_ids = set()
    expanded: list[JointSpec] = []
    last_sub: dict[int, int] = {}  # config joint id -> last expanded index
    n_roots = 0
    for rj in raw_joints:
        jid = rj["id"]
        if jid in seen_ids:
            raise SkeletonError(f"duplicate joint id {jid}")
        seen_ids.add(jid)
        parent = rj["parent"]
        if parent == jid:
            raise SkeletonError(f"cycle detected: joint {jid} is its own parent")
        if parent == -1:
            n_roots += 1
            parent_idx = -1
        else:
            if parent not in last_sub:
                raise SkeletonError(
                    f"joint {jid} references parent {parent} not declared earlier"
                )
            parent_idx = last_sub[parent]
        offset = np.asarray(rj["offset"], dtype=float)
        dofs = rj.get("dof", [])
        if not dofs:
            raise SkeletonError(f"joint {jid} has no degrees of freedom")
        for k, dof in enumerate(dofs):
            axis = np.asarray(dof["axis"], dtype=float)
            nrm = np.linalg.norm(axis)
            if abs(nrm - 1.0) > _AXIS_TOL:
                if nrm < _AXIS_TOL:
                    raise SkeletonError(f"joint {jid}: zero rotation axis")
                axis = axis / nrm
            lo = math.radians(dof["min_deg"])
            hi = math.radians(dof["max_deg"])
            if lo > hi:
                raise SkeletonError(f"joint {jid}: min bound exceeds max bound")
            sub_name = rj.get("name", f"joint{jid}")
            if len(dofs) > 1:
                sub_name = f"{sub_name}.{k}"
            expanded.append(
                JointSpec(
                    id=len(expanded),
                    name=sub_name,
                    parent=parent_idx if k == 0 else len(expanded) - 1,
                    offset=offset if k == 0 else np.zeros(3),
                    axis=axis,
                    bound_min=lo,
                    bound_max=hi,
                )
            )
        last_sub[jid] = len(expanded) - 1
    if n_roots != 1:
        raise SkeletonError(f"expected exactly one root joint, found {n_roots}")

    landmarks: list[LandmarkSpec] = []
    lmk_ids = set()
    for rl in raw_landmarks:
        lid = rl["id"]
        if lid in lmk_ids:
            raise SkeletonError(f"duplicate landmark id {lid}")
        lmk_ids.add(lid)
        if rl["joint"] not in last_sub:
            raise SkeletonError(f"landmark {lid} references unknown joint {rl['joint']}")
        landmarks.append(
            LandmarkSpec(
                id=lid,
                joint=last_sub[rl["joint"]],
                local=np.asarray(rl["local"], dtype=float),
            )
        )
    if lmk_ids != set(range(len(landmarks))):
        raise SkeletonError("landmark ids must be contiguous from 0")
    landmarks.sort(key=lambda l: l.id)
    return _freeze_arrays(name, expanded, landmarks)


def default_skeleton() -> Skeleton:
    """Bundled 40-DoF humanoid with 13 landmarks."""
    text = resources.files("sparsemotion.data").joinpath("skeleton40.json").read_text()
    return load_skeleton(text)


def _check_dims(skel: Skeleton, pose: Pose):
    if pose.theta.shape != (skel.dof,):
        raise ValueError(
            f"pose has {pose.theta.shape[0]} angles, skeleton has {skel.dof} DoF"
        )


def fk_arrays(skel: Skeleton, pose: Pose):
    """Kernel-facing forward kinematics.

    Returns (R, t, points): per-joint world rotations (d,3,3) and
    translations (d,3), and landmark positions (N,3) in the camera frame.
    """
    _check_dims(skel, pose)
    R, t = _kernels.fk_chain(
        skel.parents,
        skel.offsets,
        skel.axes,
        np.ascontiguousarray(pose.camera_to_root.rotation),
        np.ascontiguousarray(pose.camera_to_root.translation),
        pose.theta,
    )
    pts = _kernels.landmark_points(R, t, skel.lmk_joint, skel.lmk_local)
    return R, t, pts


def forward_kinematics(skel: Skeleton, pose: Pose):
    """Per-joint rigid transforms and landmark positions in the camera frame."""
    R, t, pts = fk_arrays(skel, pose)
    transforms = [RigidTransform(R[j], t[j]) for j in range(skel.dof)]
    return transforms, pts


def jacobian_from_fk(skel: Skeleton, R, t, points) -> np.ndarray:
    """articulated_jacobian from the (R, t, points) that fk_arrays returned."""
    return _kernels.articulated_jacobian(R, t, skel.axes, skel.ancestry, points)


def articulated_jacobian(skel: Skeleton, pose: Pose) -> np.ndarray:
    """3N x d Jacobian mapping joint rates to landmark 3D velocities.

    Column j is zero for landmarks that joint j does not parent.
    """
    return jacobian_from_fk(skel, *fk_arrays(skel, pose))


def rigid_jacobian(points) -> np.ndarray:
    """3N x 6 Jacobian mapping rigid rates (v, w) to point velocities.

    Block i is [I | -skew(p_i)]: pdot = v + w x p.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n = pts.shape[0]
    G = np.zeros((3 * n, 6))
    for i in range(n):
        G[3 * i : 3 * i + 3, :3] = np.eye(3)
        G[3 * i : 3 * i + 3, 3:] = -skew(pts[i])
    return G


def clamp_angles(theta, skel: Skeleton) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (skel.dof,):
        raise ValueError("angle vector dimension mismatch")
    return np.clip(theta, skel.bounds_min, skel.bounds_max)
