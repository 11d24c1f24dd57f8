"""Frame-to-frame tracking: differential observations from 2D landmark
sequences, per-frame l1 solves, pose integration with anatomical clamping,
and reinitialization flagging on reprojection failure.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from .camera import AssemblyError, CameraModel, assemble_system, in_view, project
from .errors import InputError, check_number
from .kinematics import Pose, Skeleton, clamp_angles, fk_arrays
from .liegroup import RigidTransform, exp_twist_vector
from .solvers import SUPPORT_EPSILON, SolveOptions, Support, extract_support, solve_rf

_RENORM_EVERY = 100  # composition steps between rotation renormalizations
# largest |R'R - I| entry and |det R - 1| of a pose file's rotation: a rotation
# written to 6 decimals is within 4e-6 of orthonormal
_POSE_ROTATION_TOL = 1e-5


class SequenceError(InputError):
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
    solve: SolveOptions = SolveOptions(box_enabled=True)
    reinit_threshold_px: float = 50.0

    def __post_init__(self):
        # NaN would never flag a frame
        if not check_number(self.reinit_threshold_px, "reinit threshold") > 0:
            raise InputError("reinit threshold must be positive")


@dataclass(frozen=True)
class TrackerState:
    pose: Pose
    last_frame: LandmarkFrame
    steps: int = 0


@dataclass(frozen=True, slots=True)
class FrameResult:
    frame_index: int
    rho: np.ndarray
    omega: np.ndarray
    reproj_err_px: float
    iterations: int
    converged: bool
    termination: str | None  # SolveStats.termination; None for a skipped frame
    reinit: bool

    @property
    def skipped(self) -> bool:
        """The frame could not be solved and left the state as it was."""
        return self.termination is None

    @property
    def support(self) -> Support:
        """The rates above SUPPORT_EPSILON; empty for a skipped frame."""
        return extract_support(self.omega, SUPPORT_EPSILON)


def render_frame(skel: Skeleton, pose: Pose, cam: CameraModel, frame_index: int) -> LandmarkFrame:
    """Project the model landmarks to a pixel-space frame.  Landmarks out of
    view (camera.in_view) are flagged invisible at pixel (0, 0)."""
    _, _, pts = fk_arrays(skel, pose)
    visible = in_view(pts, np.ones(len(pts), dtype=bool), cam)
    uv = np.zeros((len(pts), 2))
    uv[visible] = cam.to_pixels(project(pts[visible], cam))
    return LandmarkFrame(frame_index, uv, visible)


def differential_observation(prev: LandmarkFrame, curr: LandmarkFrame, cam: CameraModel):
    """Per-landmark normalized-coordinate motion between frames, (N, 2), and
    the flags of the landmarks both frames observe.  The rows a solve reads
    are the assembled system's (SystemMatrices.visible_index).
    """
    if prev.uv.shape != curr.uv.shape:
        raise SequenceError("frames have different landmark counts")
    rates = cam.to_normalized(curr.uv) - cam.to_normalized(prev.uv)
    return rates, prev.visible & curr.visible


def reprojection_error(
    skel: Skeleton, pose: Pose, frame: LandmarkFrame, cam: CameraModel
) -> float:
    """Worst-landmark pixel distance between the model landmarks rendered at
    pose (render_frame) and the observations, over the landmarks both flag
    visible.  The max (not the mean) is what makes a per-landmark failure
    detectable against the reinit threshold.  A SequenceError when no
    landmark is both in view at pose and visible in the frame.
    """
    model = render_frame(skel, pose, cam, frame.frame_index)
    idx = np.flatnonzero(model.visible & frame.visible)
    if idx.size == 0:
        raise SequenceError(f"frame {frame.frame_index}: no visible landmarks")
    diff = model.uv[idx] - frame.uv[idx]
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

    Assembles the system at the current pose over the jointly visible
    landmarks, solves the box-constrained l1 problem on the rows of the
    landmarks in view, applies theta += omega with clamping and
    T_c <- exp(rho) T_c, and flags reinitialization when the reprojection
    error of the updated pose exceeds the threshold.  A frame that cannot be
    assembled or leaves no landmark in view (AssemblyError, SequenceError)
    is skipped with the flag raised and leaves the state as it was.
    """
    try:
        rates, both = differential_observation(state.last_frame, frame, cam)
        sys = assemble_system(skel, state.pose, cam, both)
        motion, stats = solve_rf(sys, rates[sys.visible_index].ravel(), opts.solve)
        theta = clamp_angles(state.pose.theta + motion.omega, skel)
        Tc = exp_twist_vector(motion.rho).compose(state.pose.camera_to_root)
        steps = state.steps + 1
        if steps % _RENORM_EVERY == 0:
            Tc = Tc.renormalized()
        pose = Pose(Tc, theta)
        err = reprojection_error(skel, pose, frame, cam)
    except (AssemblyError, SequenceError):
        result = FrameResult(
            frame_index=frame.frame_index,
            rho=np.zeros(6),
            omega=np.zeros(skel.dof),
            reproj_err_px=float("nan"),
            iterations=0,
            converged=False,
            termination=None,
            reinit=True,
        )
        return state, result

    reinit = err > opts.reinit_threshold_px
    result = FrameResult(
        frame_index=frame.frame_index,
        rho=motion.rho,
        omega=motion.omega,
        reproj_err_px=err,
        iterations=stats.iterations,
        converged=stats.converged,
        termination=stats.termination,
        reinit=reinit,
    )
    return TrackerState(pose=pose, last_frame=frame, steps=steps), result


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
    """Parse `frame,landmark_id,u,v,visible` rows; missing rows are invisible.
    A SequenceError names a row whose numbers do not parse, a landmark id out
    of range, a non-finite u or v, and a CSV with no rows."""
    reader = csv.DictReader(text.splitlines(), restval="")
    required = {"frame", "landmark_id", "u", "v", "visible"}
    if reader.fieldnames is None or not required.issubset(reader.fieldnames):
        raise SequenceError(f"landmark CSV must have columns {sorted(required)}")
    by_frame: dict[int, list] = {}
    for row in reader:
        try:
            fidx, lid = int(row["frame"]), int(row["landmark_id"])
            uv = (float(row["u"]), float(row["v"]))
        except ValueError as e:
            raise SequenceError(f"line {reader.line_num}: {e}") from e
        if lid < 0 or lid >= n_landmarks:
            raise SequenceError(f"landmark id {lid} out of range")
        if not np.all(np.isfinite(uv)):
            raise SequenceError(f"frame {fidx} landmark {lid}: u, v must be finite")
        flag = row["visible"].strip() in ("1", "true", "True")
        by_frame.setdefault(fidx, []).append((lid, uv, flag))
    if not by_frame:
        raise SequenceError("landmark CSV contains no frames")
    frames = []
    for fidx in sorted(by_frame):
        uv = np.zeros((n_landmarks, 2))
        vis = np.zeros(n_landmarks, dtype=bool)
        for lid, point, flag in by_frame[fidx]:
            uv[lid] = point
            vis[lid] = flag
        frames.append(LandmarkFrame(fidx, uv, vis))
    return frames


def pose_from_json(obj, dof: int) -> Pose:
    """Pose from {cameraToRoot: {rotation: 9 row-major, translation: [3]},
    theta_deg: [d]}; an InputError when a key is missing, an entry is not a
    number, a count is wrong, a number is not finite or the rotation is not
    one within _POSE_ROTATION_TOL."""
    try:
        rot = np.asarray(obj["cameraToRoot"]["rotation"], dtype=float)
        trans = np.asarray(obj["cameraToRoot"]["translation"], dtype=float)
        theta = np.radians(np.asarray(obj["theta_deg"], dtype=float))
    except KeyError as e:
        raise InputError(f"pose has no key {e}") from e
    except (TypeError, ValueError) as e:
        raise InputError(f"malformed pose: {e}") from e
    if rot.size != 9:
        raise InputError(f"pose rotation has {rot.size} entries, expected 9")
    rot = rot.reshape(3, 3)
    if theta.shape != (dof,):
        raise InputError(f"pose has {theta.size} angles, expected {dof}")
    if trans.shape != (3,):
        raise InputError(f"pose translation has {trans.size} entries, expected 3")
    if not all(np.all(np.isfinite(a)) for a in (rot, trans, theta)):
        raise InputError("pose must be finite")
    camera_to_root = RigidTransform(rot, trans)
    if not camera_to_root.is_valid(_POSE_ROTATION_TOL):
        raise InputError("pose rotation is not a rotation matrix")
    return Pose(camera_to_root, theta)


def pose_to_json(pose: Pose) -> dict:
    return {
        "cameraToRoot": {
            "rotation": pose.camera_to_root.rotation.ravel().tolist(),
            "translation": pose.camera_to_root.translation.tolist(),
        },
        "theta_deg": np.degrees(pose.theta).tolist(),
    }


def frame_result_to_jsonl(result: FrameResult, theta_deg) -> str:
    """One JSON line: the frame's solve outcome and the tracked angles
    theta_deg (degrees) after it."""
    return json.dumps({
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
        "theta_deg": list(theta_deg),
    })
