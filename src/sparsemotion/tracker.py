"""Frame-to-frame tracking: differential observations from 2D landmark
sequences, per-frame l1 solves, pose integration with anatomical clamping,
and reinitialization flagging on reprojection failure.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, replace

import numpy as np

from .camera import AssemblyError, CameraModel, Observation, RankDeficientError
from .camera import assemble_system, project
from .kinematics import Pose, Skeleton, clamp_angles, fk_arrays
from .liegroup import RigidTransform, exp_twist_vector
from .solvers import SolveOptions, Support, extract_support, solve_rf

_RENORM_EVERY = 100  # composition steps between rotation renormalizations


class SequenceError(ValueError):
    """Malformed landmark sequence input."""


@dataclass(frozen=True)
class LandmarkFrame:
    frame_index: int
    uv: np.ndarray  # (N, 2) pixels
    visible: np.ndarray  # (N,) flags

    def __post_init__(self):
        object.__setattr__(self, "uv", np.asarray(self.uv, dtype=float))
        object.__setattr__(self, "visible", np.asarray(self.visible, dtype=bool))


@dataclass(frozen=True)
class TrackOptions:
    solve: SolveOptions = SolveOptions(max_iter=5000, box_enabled=True)
    reinit_threshold_px: float = 50.0
    support_epsilon: float = 1e-4


@dataclass(frozen=True)
class TrackerState:
    pose: Pose
    last_frame: LandmarkFrame
    steps: int = 0
    needs_reinit: bool = False


@dataclass(frozen=True)
class FrameResult:
    frame_index: int
    rho: np.ndarray
    omega: np.ndarray
    support: Support
    reproj_err_px: float
    iterations: int
    converged: bool
    termination: str | None  # SolveStats.termination; None for a skipped frame
    reinit: bool
    skipped: bool = False


def render_frame(skel: Skeleton, pose: Pose, cam: CameraModel, frame_index: int) -> LandmarkFrame:
    """Project the model landmarks to a fully visible pixel-space frame."""
    _, _, pts = fk_arrays(skel, pose)
    uv = cam.to_pixels(project(pts, cam))
    return LandmarkFrame(frame_index, uv, np.ones(len(pts), dtype=bool))


def differential_observation(
    prev: LandmarkFrame, curr: LandmarkFrame, cam: CameraModel
) -> Observation:
    """Normalized-coordinate motion between frames over jointly visible landmarks."""
    if prev.uv.shape != curr.uv.shape:
        raise SequenceError("frames have different landmark counts")
    both = prev.visible & curr.visible
    if np.sum(both) < 3:
        raise AssemblyError(f"only {int(np.sum(both))} jointly visible landmarks")
    idx = np.flatnonzero(both)
    diff = cam.to_normalized(curr.uv[idx]) - cam.to_normalized(prev.uv[idx])
    return Observation(y=diff.ravel(), visible=both, frame_index=curr.frame_index)


def reprojection_error(
    skel: Skeleton, pose: Pose, frame: LandmarkFrame, cam: CameraModel
) -> float:
    """Worst-landmark pixel distance between projected model landmarks and
    observations.  The max (not the mean) is what makes a per-landmark
    failure detectable against the reinit threshold.
    """
    idx = np.flatnonzero(frame.visible)
    if idx.size == 0:
        raise ValueError("no visible landmarks")
    _, _, pts = fk_arrays(skel, pose)
    diff = cam.to_pixels(project(pts[idx], cam)) - frame.uv[idx]
    # per-row inner products, the same dot that np.linalg.norm takes of one
    # row, so each distance equals the per-landmark norm to the bit
    return float(np.sqrt(np.max((diff[:, None, :] @ diff[:, :, None])[:, 0, 0])))


def make_initial_state(
    skel: Skeleton, pose: Pose, cam: CameraModel, frame_index: int = -1
) -> TrackerState:
    return TrackerState(pose=pose, last_frame=render_frame(skel, pose, cam, frame_index))


def step_frame(
    state: TrackerState,
    frame: LandmarkFrame,
    skel: Skeleton,
    cam: CameraModel,
    opts: TrackOptions = TrackOptions(),
):
    """Solve one frame and integrate the pose.

    Assembles the system at the current pose, solves the box-constrained l1
    problem, applies theta += omega with clamping and T_c <- exp(rho) T_c,
    and flags reinitialization when the reprojection error of the updated
    pose exceeds the threshold.  Unrecoverable frames are skipped with the
    flag raised and do not advance the reference frame.
    """
    try:
        obs = differential_observation(state.last_frame, frame, cam)
        sys = assemble_system(skel, state.pose, cam, obs.visible)
        motion, stats = solve_rf(sys, obs, opts.solve)
    except (AssemblyError, SequenceError, RankDeficientError):
        result = FrameResult(
            frame_index=frame.frame_index,
            rho=np.zeros(6),
            omega=np.zeros(skel.dof),
            support=Support((), epsilon=opts.support_epsilon),
            reproj_err_px=float("nan"),
            iterations=0,
            converged=False,
            termination=None,
            reinit=True,
            skipped=True,
        )
        return replace(state, needs_reinit=True), result

    theta = clamp_angles(state.pose.theta + motion.omega, skel)
    Tc = exp_twist_vector(motion.rho).compose(state.pose.camera_to_root)
    steps = state.steps + 1
    if steps % _RENORM_EVERY == 0:
        Tc = Tc.renormalized()
    pose = Pose(Tc, theta)
    err = reprojection_error(skel, pose, frame, cam)
    reinit = err > opts.reinit_threshold_px
    result = FrameResult(
        frame_index=frame.frame_index,
        rho=motion.rho,
        omega=motion.omega,
        support=extract_support(motion.omega, opts.support_epsilon),
        reproj_err_px=err,
        iterations=stats.iterations,
        converged=stats.converged,
        termination=stats.termination,
        reinit=reinit,
    )
    new_state = TrackerState(
        pose=pose,
        last_frame=frame,
        steps=steps,
        needs_reinit=reinit,
    )
    return new_state, result


def iter_track(
    init_pose: Pose,
    frames,
    skel: Skeleton,
    cam: CameraModel,
    opts: TrackOptions = TrackOptions(),
    reinit_provider=None,
):
    """Step through an ordered frame stream, yielding (state, result) per frame.

    The frame stream is validated before the first frame is solved.  On a
    reinit flag, reinit_provider(frame_index) may supply a fresh pose, which
    the yielded state already carries; without one the flag is recorded and
    tracking continues.
    """
    frames = list(frames)
    if not frames:
        raise SequenceError("empty frame stream")
    last = None
    for f in frames:
        if last is not None and f.frame_index <= last:
            raise SequenceError("frame indices must be strictly increasing")
        last = f.frame_index
    state = make_initial_state(skel, init_pose, cam, frames[0].frame_index - 1)
    for frame in frames:
        state, result = step_frame(state, frame, skel, cam, opts)
        if result.reinit and reinit_provider is not None:
            new_pose = reinit_provider(frame.frame_index)
            if new_pose is not None:
                state = make_initial_state(skel, new_pose, cam, frame.frame_index)
        yield state, result


def track_sequence(
    init_pose: Pose,
    frames,
    skel: Skeleton,
    cam: CameraModel,
    opts: TrackOptions = TrackOptions(),
    reinit_provider=None,
):
    """Fold step_frame over an ordered frame stream (see iter_track).

    Returns (results, final_state).
    """
    results = []
    state = None
    for state, result in iter_track(init_pose, frames, skel, cam, opts, reinit_provider):
        results.append(result)
    return results, state


def load_landmark_csv(text: str, n_landmarks: int) -> list[LandmarkFrame]:
    """Parse `frame,landmark_id,u,v,visible` rows; missing rows are invisible."""
    reader = csv.DictReader(text.splitlines())
    required = {"frame", "landmark_id", "u", "v", "visible"}
    if reader.fieldnames is None or not required.issubset(reader.fieldnames):
        raise SequenceError(f"landmark CSV must have columns {sorted(required)}")
    by_frame: dict[int, list] = {}
    for row in reader:
        by_frame.setdefault(int(row["frame"]), []).append(row)
    frames = []
    for fidx in sorted(by_frame):
        uv = np.zeros((n_landmarks, 2))
        vis = np.zeros(n_landmarks, dtype=bool)
        for row in by_frame[fidx]:
            lid = int(row["landmark_id"])
            if lid < 0 or lid >= n_landmarks:
                raise SequenceError(f"landmark id {lid} out of range")
            uv[lid] = (float(row["u"]), float(row["v"]))
            vis[lid] = row["visible"].strip() in ("1", "true", "True")
        frames.append(LandmarkFrame(fidx, uv, vis))
    return frames


def pose_from_json(obj, dof: int) -> Pose:
    """Pose from {cameraToRoot: {rotation: 9 row-major, translation: [3]}, theta_deg: [d]}."""
    rot = np.asarray(obj["cameraToRoot"]["rotation"], dtype=float).reshape(3, 3)
    trans = np.asarray(obj["cameraToRoot"]["translation"], dtype=float)
    theta = np.radians(np.asarray(obj["theta_deg"], dtype=float))
    if theta.shape != (dof,):
        raise ValueError(f"pose has {theta.size} angles, expected {dof}")
    return Pose(RigidTransform(rot, trans), theta)


def pose_to_json(pose: Pose) -> dict:
    return {
        "cameraToRoot": {
            "rotation": pose.camera_to_root.rotation.ravel().tolist(),
            "translation": pose.camera_to_root.translation.tolist(),
        },
        "theta_deg": np.degrees(pose.theta).tolist(),
    }


def frame_result_to_json(result: FrameResult) -> dict:
    return {
        "frame": result.frame_index,
        "rho": result.rho.tolist(),
        "omega": result.omega.tolist(),
        "support": list(result.support.indices),
        "reproj_err_px": result.reproj_err_px,
        "iterations": result.iterations,
        "converged": result.converged,
        "termination": result.termination,
        "reinit": result.reinit,
        "skipped": result.skipped,
    }


def frame_result_to_jsonl(result: FrameResult, theta_deg=None) -> str:
    rec = frame_result_to_json(result)
    if theta_deg is not None:
        rec["theta_deg"] = list(theta_deg)
    return json.dumps(rec)
