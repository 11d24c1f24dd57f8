"""Kinematic skeleton: configuration loading, forward kinematics, the
articulated and rigid Jacobians, and anatomical angle clamping.

A skeleton config declares joints with up to three rotational degrees of
freedom each; multi-DoF joints are expanded on load into chains of 1-DoF
joints with zero offsets, in declared order.  A loaded Skeleton is nothing
but flat per-joint and per-landmark arrays, which forward kinematics and the
Jacobians read as they are; all three work in the camera frame.  Angles are
degrees in config files and radians everywhere else.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .liegroup import RigidTransform

_AXIS_TOL = 1e-8


class SkeletonError(ValueError):
    """Invalid skeleton configuration."""


@dataclass(frozen=True)
class Skeleton:
    """A kinematic tree of 1-DoF rotational joints, as the arrays fk_arrays
    reads.  Joint j turns about axes[j] after the translation offsets[j] from
    joint parents[j] (-1: the camera-to-root transform); landmark i sits at
    lmk_local[i] in joint lmk_joint[i]'s frame.
    """

    name: str
    joint_names: tuple[str, ...]
    parents: np.ndarray  # (d,) int64
    offsets: np.ndarray  # (d, 3) length units
    axes: np.ndarray  # (d, 3) unit axes in the reference configuration
    bounds_min: np.ndarray  # (d,) rad
    bounds_max: np.ndarray  # (d,) rad
    lmk_joint: np.ndarray  # (N,) int64, deepest parent joint
    lmk_local: np.ndarray  # (N, 3)
    ancestry: np.ndarray  # (d, N) bool, joint j moves landmark i

    @property
    def dof(self) -> int:
        return self.parents.size

    @property
    def n_landmarks(self) -> int:
        return self.lmk_joint.size


@dataclass(frozen=True, slots=True)
class Pose:
    camera_to_root: RigidTransform
    theta: np.ndarray  # rad, one entry per expanded joint

    def __post_init__(self):
        object.__setattr__(self, "theta", np.asarray(self.theta, dtype=float))


def _key(entry: dict, key: str, where: str):
    """entry[key], or a SkeletonError naming the entry when it is not a JSON
    object or lacks the key."""
    if not isinstance(entry, dict):
        raise SkeletonError(f"{where}: not a JSON object")
    if key not in entry:
        raise SkeletonError(f"{where}: missing key {key!r}")
    return entry[key]


def _int_key(entry: dict, key: str, where: str) -> int:
    """_key's value, or a SkeletonError naming the entry when it is not an
    integer (ids and the joints they reference are integers)."""
    value = _key(entry, key, where)
    if type(value) is not int:
        raise SkeletonError(f"{where}: {key} {value!r} is not an integer")
    return value


def _number_key(entry: dict, key: str, where: str, size: int = 0):
    """_key's value, checked to be a number or, given size, size numbers."""
    value = _key(entry, key, where)
    items = value if size else [value]
    if (not isinstance(items, list) or len(items) != max(size, 1)
            or not {int, float}.issuperset(map(type, items))):
        raise SkeletonError(f"{where}: {key} {value!r} is not "
                            + (f"{size} numbers" if size else "a number"))
    return value


def _section(cfg: dict, key: str) -> list:
    """cfg[key] (KeyError when missing), or a SkeletonError when it is not
    a JSON array."""
    section = cfg[key]
    if not isinstance(section, list):
        raise SkeletonError(f"section {key!r}: not a JSON array")
    return section


def load_skeleton(config_text: str) -> Skeleton:
    """Parse a JSON skeleton config and expand multi-DoF joints.

    Raises SkeletonError on malformed input: parse failure, cycles,
    non-unit axes, duplicate ids, inverted bounds, missing keys, sections
    that are not JSON arrays, entries that are not JSON objects, ids that
    are not integers, number fields that are not numbers, or landmarks
    referencing unknown joints.
    """
    try:
        cfg = json.loads(config_text)
    except json.JSONDecodeError as e:
        raise SkeletonError(f"config parse failure: {e}") from e
    try:
        raw_joints = _section(cfg, "joints")
        raw_landmarks = _section(cfg, "landmarks")
        name = cfg.get("name", "skeleton")
    except (KeyError, TypeError) as e:
        raise SkeletonError(f"missing config section: {e}") from e

    names, parents, offsets, axes, lows, highs = [], [], [], [], [], []
    last_sub: dict[int, int] = {}  # config joint id -> last expanded index
    n_roots = 0
    for n, rj in enumerate(raw_joints):
        jid = _int_key(rj, "id", f"joint entry {n}")
        if jid in last_sub:
            raise SkeletonError(f"duplicate joint id {jid}")
        parent = _int_key(rj, "parent", f"joint {jid}")
        if parent == jid:
            raise SkeletonError(f"cycle detected: joint {jid} is its own parent")
        if parent == -1:
            n_roots += 1
            parent_idx = -1
        elif parent not in last_sub:
            raise SkeletonError(
                f"joint {jid} references parent {parent} not declared earlier"
            )
        else:
            parent_idx = last_sub[parent]
        dofs = rj.get("dof", [])
        if not isinstance(dofs, list):
            raise SkeletonError(f"joint {jid}: dof is not a JSON array")
        if not dofs:
            raise SkeletonError(f"joint {jid} has no degrees of freedom")
        for k, dof in enumerate(dofs):
            where = f"joint {jid} dof {k}"
            axis = np.asarray(_number_key(dof, "axis", where, 3), dtype=float)
            nrm = np.linalg.norm(axis)
            if abs(nrm - 1.0) > _AXIS_TOL:
                if nrm < _AXIS_TOL:
                    raise SkeletonError(f"joint {jid}: zero rotation axis")
                axis = axis / nrm
            lo = math.radians(_number_key(dof, "min_deg", where))
            hi = math.radians(_number_key(dof, "max_deg", where))
            if lo > hi:
                raise SkeletonError(f"joint {jid}: min bound exceeds max bound")
            sub_name = rj.get("name", f"joint{jid}")
            # a multi-DoF joint becomes a chain of sub-joints; all but the
            # first sit at zero offset from their predecessor
            names.append(f"{sub_name}.{k}" if len(dofs) > 1 else sub_name)
            parents.append(parent_idx if k == 0 else len(parents) - 1)
            offsets.append(_number_key(rj, "offset", f"joint {jid}", 3) if k == 0 else np.zeros(3))
            axes.append(axis)
            lows.append(lo)
            highs.append(hi)
        last_sub[jid] = len(parents) - 1
    if n_roots != 1:
        raise SkeletonError(f"expected exactly one root joint, found {n_roots}")

    placed: dict[int, tuple] = {}  # landmark id -> (expanded joint, local)
    for n, rl in enumerate(raw_landmarks):
        lid = _int_key(rl, "id", f"landmark entry {n}")
        if lid in placed:
            raise SkeletonError(f"duplicate landmark id {lid}")
        joint = _int_key(rl, "joint", f"landmark {lid}")
        if joint not in last_sub:
            raise SkeletonError(f"landmark {lid} references unknown joint {joint}")
        placed[lid] = (last_sub[joint], _number_key(rl, "local", f"landmark {lid}", 3))
    if placed.keys() != set(range(len(placed))):
        raise SkeletonError("landmark ids must be contiguous from 0")
    lmk_joint = [placed[i][0] for i in range(len(placed))]
    ancestry = np.zeros((len(parents), len(placed)), dtype=np.bool_)
    for i, j in enumerate(lmk_joint):
        while j >= 0:
            ancestry[j, i] = True
            j = parents[j]
    return Skeleton(
        name=name,
        joint_names=tuple(names),
        parents=np.array(parents, dtype=np.int64),
        offsets=np.array(offsets, dtype=float),
        axes=np.array(axes, dtype=float),
        bounds_min=np.array(lows, dtype=float),
        bounds_max=np.array(highs, dtype=float),
        lmk_joint=np.array(lmk_joint, dtype=np.int64),
        lmk_local=np.array([placed[i][1] for i in range(len(placed))], dtype=float),
        ancestry=ancestry,
    )


def default_skeleton() -> Skeleton:
    """Bundled 40-DoF humanoid with 13 landmarks."""
    text = resources.files("sparsemotion.data").joinpath("skeleton40.json").read_text()
    return load_skeleton(text)


def _check_dims(skel: Skeleton, pose: Pose):
    if pose.theta.shape != (skel.dof,):
        raise ValueError(
            f"pose has {pose.theta.shape[0]} angles, skeleton has {skel.dof} DoF"
        )


def _axis_rotations(axes, theta):
    """Rodrigues rotations (d,3,3) about unit axes (d,3) by angles (d,)."""
    c = np.cos(theta)
    s = np.sin(theta)
    one_c = 1.0 - c
    x, y, z = axes[:, 0], axes[:, 1], axes[:, 2]
    R = np.empty((theta.shape[0], 3, 3))
    R[:, 0, 0] = c + x * x * one_c
    R[:, 0, 1] = x * y * one_c - z * s
    R[:, 0, 2] = x * z * one_c + y * s
    R[:, 1, 0] = y * x * one_c + z * s
    R[:, 1, 1] = c + y * y * one_c
    R[:, 1, 2] = y * z * one_c - x * s
    R[:, 2, 0] = z * x * one_c - y * s
    R[:, 2, 1] = z * y * one_c + x * s
    R[:, 2, 2] = c + z * z * one_c
    return R


def fk_arrays(skel: Skeleton, pose: Pose):
    """Forward kinematics along the tree, parents first.

    Returns (R, t, points): per-joint rotations (d,3,3) and translations
    (d,3), and landmark positions (N,3), all in the camera frame.  Joint j's
    frame is parents[j]'s frame * translate(offsets[j]) * rot(axes[j],
    theta[j]); parent -1 is the camera-to-root transform.
    """
    _check_dims(skel, pose)
    local = _axis_rotations(skel.axes, pose.theta)
    parents, offsets = skel.parents, skel.offsets
    Rc, tc = pose.camera_to_root.rotation, pose.camera_to_root.translation
    d = parents.shape[0]
    R = np.empty((d, 3, 3))
    t = np.empty((d, 3))
    for j in range(d):
        p = parents[j]
        Rp, tp = (Rc, tc) if p < 0 else (R[p], t[p])
        t[j] = tp + Rp @ offsets[j]
        R[j] = Rp @ local[j]
    lj = skel.lmk_joint
    pts = t[lj] + (R[lj] @ skel.lmk_local[:, :, None])[:, :, 0]
    return R, t, pts


def jacobian_from_fk(skel: Skeleton, R, t, points) -> np.ndarray:
    """articulated_jacobian from the (R, t, points) that fk_arrays returned.

    Rows 3i..3i+2 of column j are landmark i's camera-frame velocity per unit
    rate of joint j, w_j x (p_i - t_j) with w_j = R_j axes[j] the joint's
    camera-frame axis, and zero where skel.ancestry[j, i] is false.
    """
    w = (R @ skel.axes[:, :, None])[:, None, :, 0]  # (d, 1, 3)
    r = points[None, :, :] - t[:, None, :]  # (d, N, 3)
    cross = np.stack(
        [
            w[..., 1] * r[..., 2] - w[..., 2] * r[..., 1],
            w[..., 2] * r[..., 0] - w[..., 0] * r[..., 2],
            w[..., 0] * r[..., 1] - w[..., 1] * r[..., 0],
        ],
        axis=-1,
    )
    cross = np.where(skel.ancestry[:, :, None], cross, 0.0)
    d, n = skel.ancestry.shape
    return cross.transpose(1, 2, 0).reshape(3 * n, d)


def articulated_jacobian(skel: Skeleton, pose: Pose) -> np.ndarray:
    """3N x d Jacobian mapping joint rates to landmark 3D velocities.

    Column j is zero for landmarks that joint j does not parent.
    """
    return jacobian_from_fk(skel, *fk_arrays(skel, pose))


def rigid_jacobian(points) -> np.ndarray:
    """3N x 6 Jacobian mapping rigid rates (v, w) to point velocities.

    Block i is [I | -skew(p_i)]: pdot = v + w x p.
    """
    x, y, z = np.atleast_2d(np.asarray(points, dtype=float)).T
    G = np.zeros((x.size, 3, 6))
    G[:, [0, 1, 2], [0, 1, 2]] = 1.0
    G[:, 0, 4], G[:, 0, 5] = z, -y
    G[:, 1, 3], G[:, 1, 5] = -z, x
    G[:, 2, 3], G[:, 2, 4] = y, -x
    return G.reshape(3 * x.size, 6)


def clamp_angles(theta, skel: Skeleton) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (skel.dof,):
        raise ValueError("angle vector dimension mismatch")
    return np.clip(theta, skel.bounds_min, skel.bounds_max)
