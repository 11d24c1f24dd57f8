"""Command-line surface: solve-frame, track, pksp-check, synth-bench,
validate-skeleton.

Exit codes: 0 ok / 1 input error / 2 resource-or-convergence / 3 property
fails, so scripts can branch on certification verdicts.  Exit 1 is an
errors.InputError, raised where the package checks what it is given, and
exit 2 a solvers.BudgetExceededError or SolverError; any other exception is
a fault of the program and ends in a traceback.  Angles are degrees at the
CLI boundary, radians internally.  Every input file is read by _load, and
every flag default the library decides is read from the library.

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
from .errors import InputError
from .experiments import TrialConfig, run_sweep, sample_pose, write_results_csv, write_trials_jsonl
from .kinematics import load_skeleton
from .pksp import ORDER_BUDGET, check_pksp, check_pksp_order
from .solvers import SUPPORT_EPSILON, BudgetExceededError, SolveOptions, SolverError, Support
from .solvers import extract_support, solve_l0_oracle, solve_l2, solve_rf
from .tracker import TrackOptions, frame_result_to_jsonl, iter_track, load_landmark_csv
from .tracker import pose_from_json

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_RESOURCE = 2
EXIT_PROPERTY = 3


def _load(path: str, parse, what: str = ""):
    """parse(text) of the file at path, the one place the CLI reads an input
    file.  A file that cannot be read, text that is not JSON, or an
    InputError of parse becomes an InputError naming the file (and what)."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as e:
        raise InputError(f"cannot read {path}: {e}") from e
    try:
        return parse(text)
    except json.JSONDecodeError as e:
        raise InputError(f"{path}: invalid JSON: {e}") from e
    except InputError as e:
        raise InputError(f"{path}: {what}: {e}" if what else f"{path}: {e}") from e


def _camera(text: str) -> CameraModel:
    obj = json.loads(text)
    keys = (("principal_px", "principal"), ("min_depth", "min_depth"))
    try:
        focal, kwargs = obj["focal_px"], {arg: obj[k] for k, arg in keys if k in obj}
    except (KeyError, TypeError) as e:
        raise InputError(str(e)) from e
    return CameraModel(focal, **kwargs)


def _pose(text: str, dof: int):
    return pose_from_json(json.loads(text), dof)


def _observation(text: str, n_landmarks: int):
    """(y_normalized, visible flags) of an observation; all visible unless
    flagged."""
    obj = json.loads(text)
    try:
        return (np.asarray(obj["y_normalized"], dtype=float),
                np.asarray(obj.get("visible", np.ones(n_landmarks, dtype=bool)), dtype=bool))
    except (KeyError, TypeError, ValueError) as e:
        raise InputError(str(e)) from e


def _sweep(text: str):
    """(pose count, run_sweep's keyword arguments) of a sweep config; a key
    left out takes TrialConfig's default."""
    cfg = json.loads(text)
    try:
        sizes = cfg["grid"]["support_sizes"]
        deltas = cfg["grid"]["noise_std_px"]
        trials = int(cfg["trials"])
        seed = int(cfg["seed"])
        n_poses = int(cfg.get("poses", 8))
        mag = cfg.get("magnitude_range_deg", [math.degrees(r) for r in TrialConfig.magnitude_range])
        rigid_scale = float(cfg.get("rigid_scale", TrialConfig.rigid_scale))
    except (KeyError, TypeError, ValueError) as e:
        raise InputError(f"bad sweep config: {e}") from e
    for key, ok, want in (
        ("grid.support_sizes", isinstance(sizes, list), "a list"),
        ("grid.noise_std_px", isinstance(deltas, list), "a list"),
        ("poses", n_poses >= 1, "at least 1"),
        ("magnitude_range_deg", isinstance(mag, list) and len(mag) == 2, "a [min, max] pair"),
    ):
        if not ok:
            raise InputError(f"{key} must be {want}")
    try:
        grid = [(int(s), float(dl)) for s in sizes for dl in deltas]
        magnitude_range = (math.radians(float(mag[0])), math.radians(float(mag[1])))
    except (TypeError, ValueError) as e:
        raise InputError(f"bad sweep config: {e}") from e
    return n_poses, dict(grid=grid, trials=trials, seed=seed,
                         occlude_landmark=cfg.get("occlude_landmark"),
                         magnitude_range=magnitude_range, rigid_scale=rigid_scale)


def _emit(obj):
    print(json.dumps(obj, indent=2))


def cmd_solve_frame(args) -> int:
    skel = _load(args.skeleton, load_skeleton)
    cam = _load(args.camera, _camera, "bad camera config")
    pose = _load(args.pose, lambda text: _pose(text, skel.dof), "bad pose")
    y, visible = _load(args.observation, lambda text: _observation(text, skel.n_landmarks),
                       "bad observation")
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
        stats_obj = {k: v for k, v in vars(stats).items() if k != "dual_vector"}
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
    skel = _load(args.skeleton, load_skeleton)
    cam = _load(args.camera, _camera, "bad camera config")
    text, pose = _load(args.pose, lambda text: (text, _pose(text, skel.dof)), "bad pose")
    if (args.support is None) == (args.order is None):
        raise InputError("specify exactly one of --support or --order")
    Z = assemble_system(skel, pose, cam).reduction.null_space
    pose_hash = hashlib.sha256(text.encode()).hexdigest()[:16]
    cert = {"schema_version": SCHEMA_VERSION, "pose_hash": pose_hash}
    if args.support is not None:
        try:
            F = Support(int(t) for t in args.support.split(","))
        except ValueError as e:
            raise InputError(f"bad --support: {e}") from e
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
    skel = _load(args.skeleton, load_skeleton)
    cam = _load(args.camera, _camera, "bad camera config")
    n_poses, sweep = _load(args.sweep_config, _sweep)
    rng = np.random.default_rng(sweep["seed"])
    poses = [sample_pose(skel, rng) for _ in range(n_poses)]
    rows, records = run_sweep(skel, poses, cam, **sweep)
    try:
        os.makedirs(args.out, exist_ok=True)
        write_results_csv(rows, os.path.join(args.out, "results.csv"))
        write_trials_jsonl(records, os.path.join(args.out, "trials.jsonl"))
    except OSError as e:
        raise InputError(f"cannot write to {args.out}: {e}") from e
    print(f"wrote {len(rows)} result rows to {args.out}/results.csv")
    return EXIT_OK


def cmd_track(args) -> int:
    skel = _load(args.skeleton, load_skeleton)
    cam = _load(args.camera, _camera, "bad camera config")
    pose = _load(args.init_pose, lambda text: _pose(text, skel.dof), "bad pose")
    frames = _load(args.landmarks, lambda text: load_landmark_csv(text, skel.n_landmarks))
    opts = TrackOptions(reinit_threshold_px=args.reinit_threshold)
    try:
        out = open(args.out, "w") if args.out else sys.stdout
    except OSError as e:
        raise InputError(f"cannot write to {args.out}: {e}") from e
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
    skel = _load(args.skeleton, load_skeleton)
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

    def command(name, func, help, *required):
        cmd = sub.add_parser(name, help=help)
        for flag in required:
            cmd.add_argument(flag, required=True)
        cmd.set_defaults(func=func)
        return cmd

    sf = command("solve-frame", cmd_solve_frame, "solve one differential observation",
                 "--skeleton", "--camera", "--pose", "--observation")
    sf.add_argument("--solver", choices=("rf", "l2", "l0"), default="rf")
    sf.add_argument("--box", choices=("on", "off"), default="off")
    sf.add_argument("--max-iter", type=int, default=SolveOptions.max_iter)
    sf.add_argument("--tol", type=float, default=SolveOptions.primal_tol)
    sf.add_argument("--omega-max-deg", type=float, default=math.degrees(SolveOptions.omega_max))
    sf.add_argument("--epsilon", type=float, default=SUPPORT_EPSILON)
    sf.add_argument("--l0-max-support", type=int, default=3)

    pc = command("pksp-check", cmd_pksp_check, "certify exact recovery for a support or order",
                 "--skeleton", "--camera", "--pose")
    pc.add_argument("--support", help="comma-separated DoF indices")
    pc.add_argument("--order", type=int)
    pc.add_argument("--budget", type=int, default=ORDER_BUDGET,
                    help="--order only: refuse when comb(d, order) * 2^order exceeds this")

    command("synth-bench", cmd_synth_bench, "synthetic sweep over support size and noise",
            "--skeleton", "--camera", "--sweep-config", "--out")

    tr = command("track", cmd_track, "track a landmark sequence",
                 "--skeleton", "--camera", "--init-pose", "--landmarks")
    tr.add_argument("--reinit-threshold", type=float, default=TrackOptions.reinit_threshold_px)
    tr.add_argument("--out")

    command("validate-skeleton", cmd_validate_skeleton, "parse and summarize a skeleton config",
            "--skeleton")
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


def main():  # pragma: no cover
    sys.exit(run())


if __name__ == "__main__":
    main()
