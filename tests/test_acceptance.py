"""End-to-end acceptance suite.

Each test covers one numbered acceptance criterion and prints a single
`[criterion N] PASS/FAIL` line with the measured quantity (surfaced in the
pytest summary via -rP).
"""

import math
import json
import time

import numpy as np
import pytest

from sparsemotion.camera import (
    CameraModel,
    assemble_system,
    project,
    stacked_projection_blocks,
    stacked_projection_kernel,
)
from sparsemotion.cli import run as cli_run
from sparsemotion.experiments import run_sweep, sample_pose
from sparsemotion.kinematics import (
    Pose,
    articulated_jacobian,
    clamp_angles,
    fk_arrays,
    rigid_jacobian,
)
from sparsemotion.pksp import build_ambiguous_observation, check_pksp
from sparsemotion.solvers import (
    SolveOptions,
    extract_support,
    solve_l0_oracle,
    solve_rf,
)
from sparsemotion.tracker import (
    LandmarkFrame,
    TrackOptions,
    render_frame,
    track_sequence,
)

from conftest import in_bounds_pose

TIGHT = SolveOptions(max_iter=20000, primal_tol=1e-10, dual_tol=1e-10,
                     box_enabled=False)


def report(n, ok, detail):
    print(f"[criterion {n}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {n}: {detail}"


def test_criterion_01_jacobians_match_finite_differences(skel40, cam1145):
    t0 = time.monotonic()
    rng = np.random.default_rng(1)
    h = 1e-6
    worst_j = 0.0
    worst_m = 0.0
    for _ in range(200):
        pose = in_bounds_pose(skel40, rng)
        J = articulated_jacobian(skel40, pose)
        for j in range(skel40.dof):
            tp, tm = pose.theta.copy(), pose.theta.copy()
            tp[j] += h
            tm[j] -= h
            _, _, pp = fk_arrays(skel40, Pose(pose.camera_to_root, tp))
            _, _, pm = fk_arrays(skel40, Pose(pose.camera_to_root, tm))
            fd = (pp - pm).ravel() / (2 * h)
            worst_j = max(worst_j, float(np.max(np.abs(J[:, j] - fd))))
        _, _, pts = fk_arrays(skel40, pose)
        for p in pts:
            Mp = stacked_projection_blocks(p)
            for k in range(3):
                e = np.zeros(3)
                e[k] = h
                fd = (project(p + e, cam1145) - project(p - e, cam1145)) / (2 * h)
                worst_m = max(worst_m, float(np.max(np.abs(Mp[:, k] - fd))))
    elapsed = time.monotonic() - t0
    ok = worst_j <= 1e-5 and worst_m <= 1e-5 and elapsed < 10.0
    report(1, ok, f"max |J-FD|={worst_j:.2e}, max |M-FD|={worst_m:.2e}, "
                  f"{elapsed:.1f}s (limits 1e-5, 10s)")


def test_criterion_02_nullspace_lemmas(skel40, cam1145):
    rng = np.random.default_rng(2)
    worst_k1 = worst_k2 = 0.0
    worst_smin3 = np.inf
    for _ in range(100):
        p = rng.uniform(-2, 2, 3)
        K = np.vstack([np.cross(p, np.eye(3)).T, np.eye(3)])
        worst_k1 = max(worst_k1, float(np.linalg.norm(rigid_jacobian([p]) @ K)))
        p1, p2 = rng.uniform(-2, 2, (2, 3))
        if abs(p2[2] - p1[2]) < 1e-2:
            p2[2] += 1.0
        k = np.concatenate([-np.cross(p2, p1), p2 - p1]) / (p2[2] - p1[2])
        worst_k2 = max(worst_k2,
                       float(np.linalg.norm(rigid_jacobian([p1, p2]) @ k)))
        while True:
            pts = rng.uniform(-2, 2, (3, 3))
            sv = np.linalg.svd(pts - pts.mean(0), compute_uv=False)
            if sv[1] > 1e-2:
                break
        worst_smin3 = min(worst_smin3,
                          float(np.linalg.svd(rigid_jacobian(pts),
                                              compute_uv=False)[-1]))
    worst_proj = 0.0
    worst_ratio = np.inf
    for _ in range(100):
        pose = sample_pose(skel40, rng)
        _, _, pts = fk_arrays(skel40, pose)
        M = stacked_projection_blocks(pts)
        K = stacked_projection_kernel(pts)
        worst_proj = max(worst_proj, float(np.max(np.abs(M @ K))))
        sv = np.linalg.svd(M @ rigid_jacobian(pts), compute_uv=False)
        worst_ratio = min(worst_ratio, float(sv[-1] / sv[0]))
    ok = (worst_k1 <= 1e-12 and worst_k2 <= 1e-12 and worst_smin3 > 1e-8
          and worst_proj <= 1e-12 and worst_ratio > 1e-10)
    report(2, ok,
           f"‖Γk‖ N=1 {worst_k1:.1e}, N=2 {worst_k2:.1e} (≤1e-12); "
           f"σmin N=3 {worst_smin3:.1e} (>1e-8); ‖M(e⊗p)‖ {worst_proj:.1e} "
           f"(≤1e-12); σmin/σmax(MΓ) {worst_ratio:.1e} (>1e-10)")


def test_criterion_03_exact_recovery_on_certified_supports(skel40, cam1145):
    t0 = time.monotonic()
    rng = np.random.default_rng(123)
    poses = [sample_pose(skel40, rng) for _ in range(20)]
    systems = [assemble_system(skel40, p, cam1145) for p in poses]
    bases = [s.reduction.null_space for s in systems]
    n_certified = 0
    n_exact = 0
    worst = 0.0
    attempts = 0
    while n_certified < 100 and attempts < 20000:
        attempts += 1
        k = attempts % 20
        s = int(rng.integers(1, 10))
        F = tuple(sorted(rng.choice(40, size=s, replace=False).tolist()))
        if not check_pksp(bases[k], F).holds:
            continue
        n_certified += 1
        omega = np.zeros(40)
        omega[list(F)] = (rng.uniform(math.radians(0.5), math.radians(5.0),
                                      s) * rng.choice([-1.0, 1.0], s))
        rho = rng.normal(0.0, 1e-3, 6)
        y = systems[k].A @ rho + systems[k].B @ omega
        motion, stats = solve_rf(systems[k], y, TIGHT)
        err = max(float(np.max(np.abs(motion.omega - omega))),
                  float(np.max(np.abs(motion.rho - rho))))
        worst = max(worst, err)
        if err <= 1e-6:
            n_exact += 1
    elapsed = time.monotonic() - t0
    ok = n_certified == 100 and n_exact == 100 and elapsed < 300.0
    report(3, ok, f"{n_exact}/{n_certified} certified supports recovered "
                  f"exactly (worst ℓ∞ err {worst:.1e} ≤ 1e-6), {elapsed:.0f}s "
                  f"(<300s)")


def test_criterion_04_ambiguous_observations_beat_ground_truth(toy12,
                                                               toy12_system):
    basis = toy12_system.reduction.null_space
    import itertools
    failing = []
    for size in (1, 2):
        for F in itertools.combinations(range(12), size):
            verdict = check_pksp(basis, F)
            if not verdict.holds and verdict.counterexample is not None:
                failing.append((F, verdict))
    n_beaten = 0
    worst_margin = np.inf
    for F, verdict in failing:
        obs = build_ambiguous_observation(toy12_system,
                                          verdict.counterexample, F)
        motion, _ = solve_rf(toy12_system, obs.y, TIGHT)
        margin = float(np.sum(np.abs(obs.x_on)) - np.sum(np.abs(motion.omega)))
        worst_margin = min(worst_margin, margin)
        if margin > 1e-8:
            n_beaten += 1
    ok = len(failing) >= 5 and n_beaten == len(failing)
    report(4, ok, f"{n_beaten}/{len(failing)} failing supports (≥5 required) "
                  f"beaten by a strictly smaller ℓ1 solution "
                  f"(worst margin {worst_margin:.1e} > 1e-8)")


def test_criterion_05_l0_oracle_matches_l1_on_certified_toy(toy12,
                                                            toy12_system):
    basis = toy12_system.reduction.null_space
    certified = [F for F in [(1,), (2,), (1, 2)] if check_pksp(basis, F).holds]
    assert certified == [(1,), (2,), (1, 2)]
    rng = np.random.default_rng(5)
    n_match = 0
    worst = 0.0
    for t in range(50):
        F = certified[t % len(certified)]
        omega = np.zeros(12)
        omega[list(F)] = (rng.uniform(0.01, 0.08, len(F))
                          * rng.choice([-1.0, 1.0], len(F)))
        rho = rng.normal(0.0, 1e-3, 6)
        y = toy12_system.A @ rho + toy12_system.B @ omega
        m_rf, _ = solve_rf(toy12_system, y, TIGHT)
        m_l0, sup_l0 = solve_l0_oracle(toy12_system, y, s_max=2)
        sup_rf = extract_support(m_rf.omega, 1e-4)
        err = float(np.max(np.abs(m_rf.omega - m_l0.omega)))
        worst = max(worst, err)
        if sup_rf.indices == sup_l0.indices == F and err <= 1e-6:
            n_match += 1
    ok = n_match == 50
    report(5, ok, f"{n_match}/50 trials: identical supports, "
                  f"max |ω_l0 - ω_l1| = {worst:.1e} ≤ 1e-6")


def test_criterion_06_l1_vs_l2_specificity_contrast(skel40, cam1145):
    pose_rng = np.random.default_rng(7)
    poses = [sample_pose(skel40, pose_rng) for _ in range(8)]
    rows, _ = run_sweep(skel40, poses, cam1145, [(3, 0.0)], trials=200,
                        seed=7)
    spec = {r["solver"]: r["specificity_mean"] for r in rows}
    ok = spec["rf"] >= 0.95 and spec["l2"] <= 0.2
    report(6, ok, f"s=3 δ=0, 200 trials: RF specificity "
                  f"{spec['rf']:.3f} (≥0.95), L2 specificity "
                  f"{spec['l2']:.3f} (≤0.2)")


def test_criterion_07_accuracy_monotone_in_noise(skel40, cam1145):
    pose_rng = np.random.default_rng(3)
    poses = [sample_pose(skel40, pose_rng) for _ in range(8)]
    grid = [(3, float(dl)) for dl in range(5)]
    rows, _ = run_sweep(skel40, poses, cam1145, grid, trials=200, seed=42)
    acc = [r["accuracy_mean"] for r in rows if r["solver"] == "rf"]
    steps = [acc[i + 1] - acc[i] for i in range(4)]
    ok = all(st <= 0.02 for st in steps)
    report(7, ok, "RF accuracy over δ=0..4px: "
                  + ", ".join(f"{a:.3f}" for a in acc)
                  + f" (each step ≤ +0.02; max step {max(steps):+.3f})")


def test_criterion_08_closed_loop_tracking(skel40, cam1145):
    rng = np.random.default_rng(21)
    pose0 = sample_pose(skel40, rng)
    sys0 = assemble_system(skel40, pose0, cam1145)
    basis = sys0.reduction.null_space
    pairs = []
    while len(pairs) < 15:
        F = tuple(sorted(rng.choice(np.arange(3, 40), size=2,
                                    replace=False).tolist()))
        if F not in pairs and check_pksp(basis, F).holds:
            pairs.append(F)

    theta = pose0.theta.copy()
    frames = []
    gt_theta = []
    for k in range(300):
        F = pairs[k % len(pairs)]
        step = np.zeros(40)
        step[list(F)] = (rng.uniform(1e-4, 5e-4, 2)
                         * rng.choice([-1.0, 1.0], 2))
        theta = clamp_angles(theta + step, skel40)
        gt_theta.append(theta.copy())
        frames.append(render_frame(skel40, Pose(pose0.camera_to_root, theta),
                                   cam1145, k))

    opts = TrackOptions(solve=SolveOptions(
        max_iter=20000, primal_tol=1e-10, dual_tol=1e-10,
        omega_max=math.radians(5.0), box_enabled=True))
    results, state = track_sequence(pose0, frames, skel40, cam1145, opts)
    final_err = float(np.max(np.abs(state.pose.theta - gt_theta[-1])))
    n_reinit = sum(r.reinit for r in results)

    # same sequence with one landmark teleporting 60 px at frame 150
    jump_frames = list(frames)
    uv = jump_frames[150].uv.copy()
    uv[3, 1] += 60.0
    jump_frames[150] = LandmarkFrame(150, uv, jump_frames[150].visible)

    def provider(frame_index):
        return Pose(pose0.camera_to_root, gt_theta[frame_index])

    jump_results, _ = track_sequence(pose0, jump_frames, skel40, cam1145,
                                     opts, reinit_provider=provider)
    n_jump_reinit = sum(r.reinit for r in jump_results)

    ok = final_err <= 1e-3 and n_reinit == 0 and n_jump_reinit == 1
    report(8, ok, f"300 noiseless frames: final θ error {final_err:.1e} "
                  f"(≤1e-3), {n_reinit} reinits (0 required); 60px jump: "
                  f"{n_jump_reinit} reinit (exactly 1 required)")


def test_criterion_09_single_frame_solve_under_50ms(skel40, cam1145):
    rng = np.random.default_rng(9)
    pose = sample_pose(skel40, rng)
    omega = np.zeros(40)
    omega[[5, 17, 30]] = [2e-3, -1e-3, 3e-3]
    opts = SolveOptions(max_iter=20000, primal_tol=1e-6, dual_tol=1e-6)
    y = assemble_system(skel40, pose, cam1145).B @ omega
    for _ in range(3):  # jit warmup
        solve_rf(assemble_system(skel40, pose, cam1145), y, opts)
    times = []
    for _ in range(31):
        t0 = time.perf_counter()
        sys_m = assemble_system(skel40, pose, cam1145)
        solve_rf(sys_m, y, opts)
        times.append(time.perf_counter() - t0)
    median_ms = float(np.median(times) * 1e3)
    ok = median_ms <= 50.0
    report(9, ok, f"median single-frame solve (assembly + LP, d=40, N=13, "
                  f"tol 1e-6): {median_ms:.2f} ms (≤50 ms)")


def test_criterion_10_benchmark_determinism(tmp_path, capsys):
    from importlib import resources
    skel_path = tmp_path / "skeleton.json"
    skel_path.write_text(
        resources.files("sparsemotion.data").joinpath("skeleton40.json")
        .read_text())
    cam_path = tmp_path / "camera.json"
    cam_path.write_text(json.dumps({"focal_px": 1145.0}))
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(
        {"grid": {"support_sizes": [1, 3], "noise_std_px": [0.0, 1.0]},
         "trials": 5, "seed": 2024, "poses": 3}))
    blobs = []
    for name in ("run_a", "run_b"):
        out = tmp_path / name
        code = cli_run(["synth-bench", "--skeleton", str(skel_path),
                        "--camera", str(cam_path), "--sweep-config",
                        str(cfg_path), "--out", str(out)])
        assert code == 0
        blobs.append((out / "results.csv").read_bytes())
    capsys.readouterr()
    ok = blobs[0] == blobs[1]
    report(10, ok, f"synth-bench fixed seed: results.csv byte-identical "
                   f"across two runs ({len(blobs[0])} bytes)")
