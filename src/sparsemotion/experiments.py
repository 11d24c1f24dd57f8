"""Synthetic evaluation harness: sparse ground-truth motion generation,
noisy observation synthesis, support-recovery metrics, and grid sweeps
comparing the l1 and l2 estimators.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from .camera import AssemblyError, CameraModel, RankDeficientError, SystemMatrices
from .camera import assemble_system
from .kinematics import Pose, Skeleton, fk_arrays
from .liegroup import RigidTransform
from .solvers import SUPPORT_EPSILON, DifferentialMotion, SolveOptions, SolverError
from .solvers import solve_l2, solve_rf

_DEG = math.pi / 180.0


class SamplingError(ValueError):
    """No pose or motion of the requested kind could be drawn."""


@dataclass(frozen=True)
class TrialConfig:
    support_size: int
    noise_std_px: float
    magnitude_range: tuple[float, float] = (0.5 * _DEG, 5.0 * _DEG)  # rad
    rigid_scale: float = 1e-3

    def __post_init__(self):
        if self.support_size < 0:
            raise ValueError("support size must be nonnegative")
        if self.noise_std_px < 0:
            raise ValueError("noise std must be nonnegative")
        lo, hi = self.magnitude_range
        if not (0 < lo <= hi <= 5.0 * _DEG + 1e-12):
            raise ValueError("magnitude range must satisfy 0 < min <= max <= 5 deg")


def sample_pose(skel: Skeleton, rng) -> Pose:
    """Uniform draw within joint bounds with the root at (0, 0, 3), rejecting
    poses with a landmark at depth <= 0.5; gives up after 1000 draws."""
    Tc = RigidTransform(np.eye(3), np.array([0.0, 0.0, 3.0]))
    for _ in range(1000):
        theta = rng.uniform(skel.bounds_min, skel.bounds_max)
        pose = Pose(Tc, theta)
        _, _, pts = fk_arrays(skel, pose)
        if np.all(pts[:, 2] > 0.5):
            return pose
    raise SamplingError("could not sample a pose with valid landmark depths")


def gen_sparse_motion(
    skel: Skeleton, pose: Pose, s: int, rng, cfg: TrialConfig
) -> DifferentialMotion:
    """Random s-sparse articulated rates plus dense Gaussian rigid rates.

    Nonzero magnitudes are uniform in the configured range with random
    sign, clipped against the remaining headroom to the joint bounds at
    the current angles; joints with no headroom are resampled.
    """
    d = skel.dof
    if s > d:
        raise ValueError(f"support size {s} exceeds {d} DoF")
    mag_lo, mag_hi = cfg.magnitude_range
    omega = np.zeros(d)
    candidates = rng.permutation(d)
    picked = 0
    for j in candidates:
        if picked == s:
            break
        head_up = skel.bounds_max[j] - pose.theta[j]
        head_dn = pose.theta[j] - skel.bounds_min[j]
        mag = rng.uniform(mag_lo, mag_hi)
        sign = 1.0 if rng.random() < 0.5 else -1.0
        head = head_up if sign > 0 else head_dn
        if head < mag_lo:
            sign = -sign
            head = head_up if sign > 0 else head_dn
        if head < mag_lo:
            continue  # pinned joint, pick another index
        omega[j] = sign * min(mag, head)
        picked += 1
    if picked < s:
        raise SamplingError("not enough joints with bound headroom for requested support")
    rho = rng.normal(0.0, cfg.rigid_scale, size=6)
    return DifferentialMotion(rho, omega)


def synthesize_observation(
    skel: Skeleton,
    pose: Pose,
    motion: DifferentialMotion,
    cam: CameraModel,
    noise_std_px: float,
    rng,
    visible=None,
    sys: SystemMatrices | None = None,
) -> np.ndarray:
    """y = A rho + B omega + noise, noise i.i.d. N(0, (std_px / focal)^2),
    stacked over the rows of sys (assembled here unless given)."""
    if sys is None:
        sys = assemble_system(skel, pose, cam, visible)
    y = sys.A @ motion.rho + sys.B @ motion.omega
    if noise_std_px > 0:
        y = y + rng.normal(0.0, noise_std_px / cam.focal, size=y.shape)
    return y


def support_metrics(omega_hat, omega_true):
    """(accuracy, specificity, sensitivity) with positive = |rate| above
    SUPPORT_EPSILON; 0/0 -> 1."""
    oh = np.abs(np.asarray(omega_hat, dtype=float)) > SUPPORT_EPSILON
    ot = np.abs(np.asarray(omega_true, dtype=float)) > SUPPORT_EPSILON
    if oh.shape != ot.shape:
        raise ValueError("dimension mismatch")
    tp = np.sum(oh & ot)
    tn = np.sum(~oh & ~ot)
    fp = np.sum(oh & ~ot)
    fn = np.sum(~oh & ot)
    d = oh.size
    accuracy = (tp + tn) / d if d else 1.0
    specificity = tn / (tn + fp) if (tn + fp) else 1.0
    sensitivity = tp / (tp + fn) if (tp + fn) else 1.0
    return float(accuracy), float(specificity), float(sensitivity)


def mpjpe(skel: Skeleton, pose_hat: Pose, pose_true: Pose) -> float:
    """Mean per-joint position error after aligning the roots."""
    ph = fk_arrays(skel, pose_hat)[1]
    pt = fk_arrays(skel, pose_true)[1]
    ph = ph - ph[0]
    pt = pt - pt[0]
    return float(np.mean(np.linalg.norm(ph - pt, axis=1)))


def run_trial(
    skel: Skeleton,
    pose: Pose,
    cam: CameraModel,
    cfg: TrialConfig,
    rng,
    solver_names=("rf", "l2"),
    opts: SolveOptions | None = None,
    visible=None,
) -> dict[str, dict]:
    """One synthesis + solve + metrics pass; returns {solver: record}.

    A record holds solver, accuracy, specificity, sensitivity (support
    metrics), omega_err_inf, rho_err_inf, mpjpe, iterations and converged,
    in that order; l2 reports 0 iterations and converged.
    """
    # box on by default: noisy equality solves are only meaningful with the
    # +-5 deg clamp on differential angles
    opts = opts or SolveOptions(
        max_iter=20000, primal_tol=1e-10, dual_tol=1e-10, box_enabled=True
    )
    sys = assemble_system(skel, pose, cam, visible)
    motion = gen_sparse_motion(skel, pose, cfg.support_size, rng, cfg)
    y = synthesize_observation(
        skel, pose, motion, cam, cfg.noise_std_px, rng, sys=sys
    )
    out = {}
    for name in solver_names:
        iters, conv = 0, True
        if name == "rf":
            est, stats = solve_rf(sys, y, opts)
            iters, conv = stats.iterations, stats.converged
        elif name == "l2":
            est = solve_l2(sys, y)
        else:
            raise ValueError(f"unknown solver {name!r}")
        acc, spec, sens = support_metrics(est.omega, motion.omega)
        pose_hat = Pose(pose.camera_to_root, pose.theta + est.omega)
        pose_true = Pose(pose.camera_to_root, pose.theta + motion.omega)
        out[name] = {
            "solver": name,
            "accuracy": acc,
            "specificity": spec,
            "sensitivity": sens,
            "omega_err_inf": float(np.max(np.abs(est.omega - motion.omega))),
            "rho_err_inf": float(np.max(np.abs(est.rho - motion.rho))),
            "mpjpe": mpjpe(skel, pose_hat, pose_true),
            "iterations": iters,
            "converged": conv,
        }
    return out


_METRICS = ("accuracy", "specificity", "sensitivity", "omega_err_inf", "rho_err_inf", "mpjpe")


def run_sweep(
    skel: Skeleton,
    poses: list[Pose],
    cam: CameraModel,
    grid: list[tuple[int, float]],
    trials: int,
    seed: int,
    solver_names=("rf", "l2"),
    occlude_landmark: int | None = None,
    magnitude_range: tuple[float, float] = (0.5 * _DEG, 5.0 * _DEG),
    rigid_scale: float = 1e-3,
    opts: SolveOptions | None = None,
):
    """Grid sweep over (support size, noise std) cells, trials >= 1 each.

    Each trial draws its RNG stream from (seed, cell, trial), so a trial's
    result does not depend on the others.  Returns (rows, trial_records):
    aggregated mean/std per cell and solver, plus one dict per trial and
    solver, {cell, s, delta, trial} followed by run_trial's record.  Each
    row also counts the cell's trials that raised (``errors``, left out of
    ``trials``) and the solver's non-converged solves (``not_converged``).
    A trial that cannot be sampled, assembled or solved (SamplingError,
    AssemblyError, RankDeficientError, SolverError) is recorded as {cell, s,
    delta, trial, error}; any other exception propagates.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    visible = None
    if occlude_landmark is not None:
        visible = np.ones(skel.n_landmarks, dtype=bool)
        visible[occlude_landmark] = False
    rows = []
    records = []
    for cell_idx, (s, delta) in enumerate(grid):
        cfg = TrialConfig(s, delta, magnitude_range, rigid_scale)
        per_solver: dict[str, list[dict]] = {n: [] for n in solver_names}
        errors = 0
        for t in range(trials):
            rng = np.random.default_rng((seed, cell_idx, t))
            key = {"cell": cell_idx, "s": s, "delta": delta, "trial": t}
            try:
                res = run_trial(
                    skel, poses[t % len(poses)], cam, cfg, rng, solver_names, opts, visible
                )
            except (AssemblyError, RankDeficientError, SamplingError, SolverError) as e:
                errors += 1
                records.append({**key, "error": str(e)})
                continue
            for name, r in res.items():
                per_solver[name].append(r)
                records.append({**key, **r})
        for name in solver_names:
            rs = per_solver[name]
            row = {
                "s": s,
                "delta": delta,
                "solver": name,
                "trials": len(rs),
                "errors": errors,
                "not_converged": sum(not r["converged"] for r in rs),
            }
            for m in _METRICS:
                vals = np.array([r[m] for r in rs]) if rs else np.array([np.nan])
                row[f"{m}_mean"] = float(np.mean(vals))
                row[f"{m}_std"] = float(np.std(vals))
            rows.append(row)
    return rows, records


def write_results_csv(rows, path):
    if not rows:
        raise ValueError("no rows to write")
    fields = list(rows[0].keys())
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def write_trials_jsonl(records, path):
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")
