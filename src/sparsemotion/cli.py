"""Command-line surface: solve-frame, track, pksp-check, synth-bench,
validate-skeleton.

Exit codes: 0 ok / 1 input error / 2 resource-or-convergence / 3 property
fails, so scripts can branch on certification verdicts.  Angles are degrees
at the CLI boundary, radians internally.

pksp-check proves every verdict by exact sign-pattern LPs.  A --support may
hold at most 12 distinct DoFs, and --budget caps the comb(d, s) * 2^s
enumerations of --order s; past either limit it exits 2, as solve-frame
--solver l0 does past the oracle's enumeration budget, and as any command
does when HiGHS ends an LP with no result (SolverError).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys

import numpy as np

from .camera import CameraModel, assemble_system
from .experiments import run_sweep, sample_pose, write_results_csv, write_trials_jsonl
from .kinematics import SkeletonError, load_skeleton
from .pksp import check_pksp, check_pksp_order
from .solvers import SUPPORT_EPSILON, BudgetExceededError, SolveOptions, SolverError, Support
from .solvers import extract_support, solve_l0_oracle, solve_l2, solve_rf
from .tracker import (
    SequenceError,
    TrackOptions,
    frame_result_to_jsonl,
    iter_track,
    load_landmark_csv,
    pose_from_json,
)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_RESOURCE = 2
EXIT_PROPERTY = 3


class InputError(Exception):
    pass


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as e:
        raise InputError(f"cannot read {path}: {e}") from e


def _load_json(path: str):
    try:
        return json.loads(_read(path))
    except json.JSONDecodeError as e:
        raise InputError(f"{path}: invalid JSON: {e}") from e


def _load_skeleton(path: str):
    try:
        return load_skeleton(_read(path))
    except SkeletonError as e:
        raise InputError(f"{path}: {e}") from e


def _load_camera(path: str) -> CameraModel:
    obj = _load_json(path)
    try:
        return CameraModel(
            focal=obj["focal_px"],
            principal=obj.get("principal_px", (0.0, 0.0)),
            min_depth=obj.get("min_depth", 1e-3),
        )
    except (KeyError, ValueError) as e:
        raise InputError(f"{path}: bad camera config: {e}") from e


def _load_pose(path: str, dof: int):
    obj = _load_json(path)
    try:
        return pose_from_json(obj, dof)
    except (KeyError, ValueError) as e:
        raise InputError(f"{path}: bad pose: {e}") from e


def _emit(obj):
    print(json.dumps(obj, indent=2))


def cmd_solve_frame(args) -> int:
    skel = _load_skeleton(args.skeleton)
    cam = _load_camera(args.camera)
    pose = _load_pose(args.pose, skel.dof)
    obs_obj = _load_json(args.observation)
    try:
        y = np.asarray(obs_obj["y_normalized"], dtype=float)
        visible = np.asarray(
            obs_obj.get("visible", np.ones(skel.n_landmarks, dtype=bool)), dtype=bool
        )
    except (KeyError, ValueError) as e:
        raise InputError(f"{args.observation}: bad observation: {e}") from e
    if y.shape != (2 * int(np.sum(visible)),):
        raise InputError("observation length does not match visible landmark count")
    sys_m = assemble_system(skel, pose, cam, visible)
    rates = np.zeros((skel.n_landmarks, 2))
    rates[visible] = y.reshape(-1, 2)
    y = rates[sys_m.visible_index].ravel()
    opts = SolveOptions(
        max_iter=args.max_iter,
        primal_tol=args.tol,
        dual_tol=args.tol,
        omega_max=math.radians(args.omega_max_deg),
        box_enabled=args.box == "on",
    )
    code = EXIT_OK
    if args.solver == "rf":
        motion, stats = solve_rf(sys_m, y, opts)
        stats_obj = {
            "iterations": stats.iterations,
            "primal_residual": stats.primal_residual,
            "dual_residual": stats.dual_residual,
            "objective": stats.objective,
            "converged": stats.converged,
            "termination": stats.termination,
        }
        if not stats.converged:
            code = EXIT_RESOURCE
    elif args.solver == "l2":
        motion = solve_l2(sys_m, y)
        stats_obj = {"converged": True}
    else:
        motion, _ = solve_l0_oracle(sys_m, y, args.l0_max_support)
        stats_obj = {"converged": True}
    support = extract_support(motion.omega, args.epsilon)
    _emit(
        {
            "schema_version": SCHEMA_VERSION,
            "rho": motion.rho.tolist(),
            "omega": motion.omega.tolist(),
            "support": list(support.indices),
            "stats": stats_obj,
        }
    )
    return code


def cmd_pksp_check(args) -> int:
    skel = _load_skeleton(args.skeleton)
    cam = _load_camera(args.camera)
    pose = _load_pose(args.pose, skel.dof)
    if (args.support is None) == (args.order is None):
        raise InputError("specify exactly one of --support or --order")
    Z = assemble_system(skel, pose, cam).reduction.null_space
    pose_hash = hashlib.sha256(_read(args.pose).encode()).hexdigest()[:16]
    cert = {"schema_version": SCHEMA_VERSION, "pose_hash": pose_hash}
    if args.support is not None:
        F = Support(int(t) for t in args.support.split(","))
        verdict = check_pksp(Z, F)
        cert["support"] = list(F.indices)
    else:
        verdict, worst = check_pksp_order(Z, args.order, args.budget)
        cert["order"] = args.order
        cert["worst_support"] = list(worst.indices)
    cert["holds"] = verdict.holds
    cert["margin"] = verdict.margin
    if verdict.counterexample is not None:
        cert["counterexample"] = verdict.counterexample.tolist()
    _emit(cert)
    return EXIT_OK if verdict.holds else EXIT_PROPERTY


def cmd_synth_bench(args) -> int:
    skel = _load_skeleton(args.skeleton)
    cam = _load_camera(args.camera)
    cfg = _load_json(args.sweep_config)
    try:
        sizes = cfg["grid"]["support_sizes"]
        deltas = cfg["grid"]["noise_std_px"]
        trials = int(cfg["trials"])
        seed = int(cfg["seed"])
    except (KeyError, TypeError, ValueError) as e:
        raise InputError(f"{args.sweep_config}: bad sweep config: {e}") from e
    grid = [(int(s), float(dl)) for s in sizes for dl in deltas]
    occlude, n = cfg.get("occlude_landmark"), skel.n_landmarks
    if occlude is not None and not (type(occlude) is int and 0 <= occlude < n):
        raise InputError(
            f"{args.sweep_config}: occlude_landmark {occlude!r} is not an int in [0, {n})"
        )
    rng = np.random.default_rng(seed)
    n_poses = int(cfg.get("poses", 8))
    poses = [sample_pose(skel, rng) for _ in range(n_poses)]
    mag = cfg.get("magnitude_range_deg", (0.5, 5.0))
    rows, records = run_sweep(
        skel,
        poses,
        cam,
        grid,
        trials,
        seed,
        occlude_landmark=occlude,
        magnitude_range=(math.radians(mag[0]), math.radians(mag[1])),
        rigid_scale=float(cfg.get("rigid_scale", 1e-3)),
    )
    os.makedirs(args.out, exist_ok=True)
    try:
        write_results_csv(rows, os.path.join(args.out, "results.csv"))
        write_trials_jsonl(records, os.path.join(args.out, "trials.jsonl"))
    except OSError as e:
        raise InputError(f"cannot write to {args.out}: {e}") from e
    print(f"wrote {len(rows)} result rows to {args.out}/results.csv")
    return EXIT_OK


def cmd_track(args) -> int:
    skel = _load_skeleton(args.skeleton)
    cam = _load_camera(args.camera)
    pose = _load_pose(args.init_pose, skel.dof)
    try:
        frames = load_landmark_csv(_read(args.landmarks), skel.n_landmarks)
    except SequenceError as e:
        raise InputError(f"{args.landmarks}: {e}") from e
    if not frames:
        raise InputError("landmark CSV contains no frames")
    opts = TrackOptions(reinit_threshold_px=args.reinit_threshold)
    out = open(args.out, "w") if args.out else sys.stdout
    try:
        n_reinit = 0
        errs = []
        for state, result in iter_track(pose, frames, skel, cam, opts):
            n_reinit += int(result.reinit)
            if np.isfinite(result.reproj_err_px):
                errs.append(result.reproj_err_px)
            out.write(
                frame_result_to_jsonl(result, np.degrees(state.pose.theta).tolist())
                + "\n"
            )
        summary = {
            "schema_version": SCHEMA_VERSION,
            "summary": True,
            "frames": len(frames),
            "reinit_count": n_reinit,
            "mean_reproj_err_px": float(np.mean(errs)) if errs else None,
        }
        out.write(json.dumps(summary) + "\n")
    finally:
        if args.out:
            out.close()
    return EXIT_OK


def cmd_validate_skeleton(args) -> int:
    skel = _load_skeleton(args.skeleton)
    _emit(
        {
            "schema_version": SCHEMA_VERSION,
            "name": skel.name,
            "dof": skel.dof,
            "landmarks": skel.n_landmarks,
            "joints": list(skel.joint_names),
        }
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="sparsemotion")
    sub = p.add_subparsers(dest="command", required=True)

    sf = sub.add_parser("solve-frame", help="solve one differential observation")
    sf.add_argument("--skeleton", required=True)
    sf.add_argument("--camera", required=True)
    sf.add_argument("--pose", required=True)
    sf.add_argument("--observation", required=True)
    sf.add_argument("--solver", choices=("rf", "l2", "l0"), default="rf")
    sf.add_argument("--box", choices=("on", "off"), default="off")
    sf.add_argument("--max-iter", type=int, default=20000)
    sf.add_argument("--tol", type=float, default=1e-9)
    sf.add_argument("--omega-max-deg", type=float, default=5.0)
    sf.add_argument("--epsilon", type=float, default=SUPPORT_EPSILON)
    sf.add_argument("--l0-max-support", type=int, default=3)
    sf.set_defaults(func=cmd_solve_frame)

    pc = sub.add_parser("pksp-check", help="certify exact recovery for a support or order")
    pc.add_argument("--skeleton", required=True)
    pc.add_argument("--camera", required=True)
    pc.add_argument("--pose", required=True)
    pc.add_argument("--support", help="comma-separated DoF indices")
    pc.add_argument("--order", type=int)
    pc.add_argument(
        "--budget",
        type=int,
        default=2_000_000,
        help="--order only: refuse when comb(d, order) * 2^order exceeds this",
    )
    pc.set_defaults(func=cmd_pksp_check)

    sb = sub.add_parser("synth-bench", help="synthetic sweep over support size and noise")
    sb.add_argument("--skeleton", required=True)
    sb.add_argument("--camera", required=True)
    sb.add_argument("--sweep-config", required=True)
    sb.add_argument("--out", required=True)
    sb.set_defaults(func=cmd_synth_bench)

    tr = sub.add_parser("track", help="track a landmark sequence")
    tr.add_argument("--skeleton", required=True)
    tr.add_argument("--camera", required=True)
    tr.add_argument("--init-pose", required=True)
    tr.add_argument("--landmarks", required=True)
    tr.add_argument("--reinit-threshold", type=float, default=50.0)
    tr.add_argument("--out")
    tr.set_defaults(func=cmd_track)

    vs = sub.add_parser("validate-skeleton", help="parse and summarize a skeleton config")
    vs.add_argument("--skeleton", required=True)
    vs.set_defaults(func=cmd_validate_skeleton)
    return p


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except (BudgetExceededError, SolverError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT


def main():  # pragma: no cover
    sys.exit(run())
