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

from .camera import AssemblyError, CameraModel, SystemMatrices, assemble_system
from .errors import InputError, check_number
from .kinematics import Pose, Skeleton, fk_arrays, fk_chain
from .liegroup import RigidTransform
from .solvers import SUPPORT_EPSILON, DifferentialMotion, SolveOptions, SolverError
from .solvers import solve_l2, solve_rf

_DEG = math.pi / 180.0
# box on: noisy equality solves are only meaningful with the +-5 deg clamp on
# differential angles
_TRIAL_SOLVE = SolveOptions(primal_tol=1e-10, dual_tol=1e-10, box_enabled=True)


class SamplingError(InputError):
    """No pose or motion of the requested kind could be drawn."""


@dataclass(frozen=True)
class TrialConfig:
    support_size: int
    noise_std_px: float
    magnitude_range: tuple[float, float] = (0.5 * _DEG, _TRIAL_SOLVE.omega_max)  # rad
    rigid_scale: float = 1e-3

    def __post_init__(self):
        if check_number(self.support_size, "support size", integer=True) < 0:
            raise InputError("support size must be nonnegative")
        if not check_number(self.noise_std_px, "noise std") >= 0:
            raise InputError("noise std must be nonnegative")
        if not check_number(self.rigid_scale, "rigid scale") >= 0:
            raise InputError("rigid scale must be nonnegative")
        try:
            lo, hi = self.magnitude_range
        except (TypeError, ValueError) as e:
            raise InputError(f"magnitude range must be a (min, max) pair: {e}") from e
        check_number(lo, "magnitude range min")
        check_number(hi, "magnitude range max")
        if not (0 < lo <= hi <= _TRIAL_SOLVE.omega_max + 1e-12):
            raise InputError("magnitude range must satisfy 0 < min <= max <= 5 deg")


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
        raise InputError(f"support size {s} exceeds {d} DoF")
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
        raise InputError("dimension mismatch")
    tp = np.sum(oh & ot)
    tn = np.sum(~oh & ~ot)
    fp = np.sum(oh & ~ot)
    fn = np.sum(~oh & ot)
    d = oh.size
    accuracy = (tp + tn) / d if d else 1.0
    specificity = tn / (tn + fp) if (tn + fp) else 1.0
    sensitivity = tp / (tp + fn) if (tp + fn) else 1.0
    return float(accuracy), float(specificity), float(sensitivity)


def mpjpe(joints_hat, joints_true) -> float:
    """Mean per-joint position error after aligning the roots, between two
    (d, 3) sets of joint positions (fk_chain's t[:, k] for row k)."""
    ph = joints_hat - joints_hat[0]
    pt = joints_true - joints_true[0]
    return float(np.mean(np.linalg.norm(ph - pt, axis=1)))


def run_trial(
    skel: Skeleton,
    pose: Pose,
    cam: CameraModel,
    cfg: TrialConfig,
    rng,
    visible=None,
) -> dict[str, dict]:
    """One synthesis + solve + metrics pass; returns {"rf": record, "l2": record}.

    rf is solved with _TRIAL_SOLVE, then l2.  A record holds solver,
    accuracy, specificity, sensitivity (support metrics), omega_err_inf,
    rho_err_inf, mpjpe, iterations and converged, in that order; l2 reports
    0 iterations and converged.  The joint positions that mpjpe compares,
    of the pose moved by the planted motion and by each estimate, come from
    one fk_chain pass over the three angle rows.
    """
    sys = assemble_system(skel, pose, cam, visible)
    motion = gen_sparse_motion(skel, pose, cfg.support_size, rng, cfg)
    y = synthesize_observation(
        skel, pose, motion, cam, cfg.noise_std_px, rng, sys=sys
    )
    rf, stats = solve_rf(sys, y, _TRIAL_SOLVE)
    l2 = solve_l2(sys, y)
    thetas = pose.theta + np.stack([motion.omega, rf.omega, l2.omega])
    joints = fk_chain(skel, pose.camera_to_root, thetas)[1]
    out = {}
    for k, (name, est, iters, conv) in enumerate(
        (("rf", rf, stats.iterations, stats.converged), ("l2", l2, 0, True)), start=1
    ):
        acc, spec, sens = support_metrics(est.omega, motion.omega)
        out[name] = {
            "solver": name,
            "accuracy": acc,
            "specificity": spec,
            "sensitivity": sens,
            "omega_err_inf": float(np.max(np.abs(est.omega - motion.omega))),
            "rho_err_inf": float(np.max(np.abs(est.rho - motion.rho))),
            "mpjpe": mpjpe(joints[:, k], joints[:, 0]),
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
    occlude_landmark: int | None = None,
    magnitude_range: tuple[float, float] = TrialConfig.magnitude_range,
    rigid_scale: float = TrialConfig.rigid_scale,
):
    """Grid sweep over (support size, noise std) cells, trials >= 1 each.

    Each trial draws its RNG stream from (seed, cell, trial), so a trial's
    result does not depend on the others.  Returns (rows, trial_records):
    aggregated mean/std per cell and solver (rf, then l2), plus one dict per
    trial and solver, {cell, s, delta, trial} followed by run_trial's
    record.  Each row also counts the cell's trials that raised (``errors``,
    left out of ``trials``) and the solver's non-converged solves
    (``not_converged``).
    Before the first trial an InputError refuses trials < 1, an empty grid,
    no poses, a cell TrialConfig refuses or above the DoF, and an occlude_landmark
    that is not an int in [0, N).  A trial that cannot be sampled, assembled
    or solved (SamplingError, AssemblyError, SolverError) is recorded as
    {cell, s, delta, trial, error}; any other exception propagates.
    """
    if trials < 1:
        raise InputError("trials must be >= 1")
    if not grid:
        raise InputError("the grid has no cells")
    if not poses:
        raise InputError("no poses to sweep")
    cfgs = [TrialConfig(s, delta, magnitude_range, rigid_scale) for s, delta in grid]
    if max(s for s, _ in grid) > skel.dof:
        raise InputError(f"a support size exceeds {skel.dof} DoF")
    visible = None
    if occlude_landmark is not None:
        n = skel.n_landmarks
        if not (type(occlude_landmark) is int and 0 <= occlude_landmark < n):
            raise InputError(f"occlude_landmark {occlude_landmark!r} is not an int in [0, {n})")
        visible = np.ones(n, dtype=bool)
        visible[occlude_landmark] = False
    rows = []
    records = []
    for cell_idx, ((s, delta), cfg) in enumerate(zip(grid, cfgs)):
        per_solver: dict[str, list[dict]] = {"rf": [], "l2": []}
        errors = 0
        for t in range(trials):
            rng = np.random.default_rng((seed, cell_idx, t))
            key = {"cell": cell_idx, "s": s, "delta": delta, "trial": t}
            try:
                res = run_trial(skel, poses[t % len(poses)], cam, cfg, rng, visible)
            except (AssemblyError, SamplingError, SolverError) as e:
                errors += 1
                records.append({**key, "error": str(e)})
                continue
            for name, r in res.items():
                per_solver[name].append(r)
                records.append({**key, **r})
        for name, rs in per_solver.items():
            row = {
                "s": s,
                "delta": delta,
                "solver": name,
                "trials": len(rs),
                "errors": errors,
                "not_converged": sum(not r["converged"] for r in rs),
            }
            # one row per metric, each reduced with the same pairwise
            # summation as a 1-D array of it; a cell with no trial reads NaN
            vals = np.full((len(_METRICS), 1), np.nan)
            if rs:
                vals = np.array([[r[m] for r in rs] for m in _METRICS])
            for m, mean, std in zip(_METRICS, vals.mean(axis=1), vals.std(axis=1)):
                row[f"{m}_mean"] = float(mean)
                row[f"{m}_std"] = float(std)
            rows.append(row)
    return rows, records


def write_results_csv(rows, path):
    if not rows:
        raise InputError("no rows to write")
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
