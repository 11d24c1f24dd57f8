import csv
import json
import math

import numpy as np
import pytest

from sparsemotion import experiments
from sparsemotion.experiments import (
    SamplingError,
    TrialConfig,
    gen_sparse_motion,
    mpjpe,
    run_sweep,
    run_trial,
    sample_pose,
    support_metrics,
    synthesize_observation,
    write_results_csv,
    write_trials_jsonl,
)
from sparsemotion.camera import assemble_system
from sparsemotion.kinematics import Pose
from sparsemotion.liegroup import RigidTransform
from sparsemotion.solvers import SolveOptions


class TestTrialConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrialConfig(support_size=-1, noise_std_px=0.0)
        with pytest.raises(ValueError):
            TrialConfig(support_size=1, noise_std_px=-0.5)
        with pytest.raises(ValueError):
            TrialConfig(support_size=1, noise_std_px=0.0,
                        magnitude_range=(0.0, 0.01))
        with pytest.raises(ValueError):
            TrialConfig(support_size=1, noise_std_px=0.0,
                        magnitude_range=(0.01, 1.0))  # above the 5 deg cap


class TestSamplePose:
    def test_within_bounds_and_depths(self, skel40):
        rng = np.random.default_rng(0)
        for _ in range(10):
            pose = sample_pose(skel40, rng)
            assert np.all(pose.theta >= skel40.bounds_min - 1e-12)
            assert np.all(pose.theta <= skel40.bounds_max + 1e-12)
            from sparsemotion.kinematics import fk_arrays
            _, _, pts = fk_arrays(skel40, pose)
            assert np.all(pts[:, 2] > 0.5)

    def test_deterministic_given_seed(self, skel40):
        p1 = sample_pose(skel40, np.random.default_rng(7))
        p2 = sample_pose(skel40, np.random.default_rng(7))
        np.testing.assert_array_equal(p1.theta, p2.theta)


class TestGenSparseMotion:
    def test_exact_support_size_and_magnitudes(self, skel40):
        rng = np.random.default_rng(1)
        cfg = TrialConfig(support_size=4, noise_std_px=0.0)
        pose = sample_pose(skel40, rng)
        for _ in range(20):
            motion = gen_sparse_motion(skel40, pose, 4, rng, cfg)
            nz = np.flatnonzero(motion.omega)
            assert nz.size == 4
            mags = np.abs(motion.omega[nz])
            assert np.all(mags <= math.radians(5.0) + 1e-12)
            assert np.all(mags > 0)

    def test_respects_joint_bound_headroom(self, skel40):
        """Steps never push an angle outside its bounds."""
        rng = np.random.default_rng(2)
        cfg = TrialConfig(support_size=6, noise_std_px=0.0)
        for _ in range(50):
            pose = sample_pose(skel40, rng)
            motion = gen_sparse_motion(skel40, pose, 6, rng, cfg)
            after = pose.theta + motion.omega
            assert np.all(after >= skel40.bounds_min - 1e-12)
            assert np.all(after <= skel40.bounds_max + 1e-12)

    def test_rigid_rates_present(self, skel40):
        rng = np.random.default_rng(3)
        cfg = TrialConfig(support_size=2, noise_std_px=0.0, rigid_scale=1e-3)
        pose = sample_pose(skel40, rng)
        motion = gen_sparse_motion(skel40, pose, 2, rng, cfg)
        assert np.any(motion.rho != 0)
        assert np.max(np.abs(motion.rho)) < 0.05  # ~gaussian at 1e-3 scale

    def test_oversized_support_rejected(self, skel40):
        rng = np.random.default_rng(4)
        cfg = TrialConfig(support_size=41, noise_std_px=0.0)
        pose = sample_pose(skel40, rng)
        with pytest.raises(ValueError):
            gen_sparse_motion(skel40, pose, 41, rng, cfg)


class TestSynthesizeObservation:
    def test_noiseless_matches_linear_model(self, skel40, cam1145):
        rng = np.random.default_rng(5)
        pose = sample_pose(skel40, rng)
        cfg = TrialConfig(support_size=3, noise_std_px=0.0)
        motion = gen_sparse_motion(skel40, pose, 3, rng, cfg)
        sys = assemble_system(skel40, pose, cam1145)
        y = synthesize_observation(skel40, pose, motion, cam1145, 0.0, rng)
        np.testing.assert_allclose(
            y, sys.A @ motion.rho + sys.B @ motion.omega, atol=1e-14)

    def test_noise_scaled_by_focal_length(self, skel40, cam1145):
        """Pixel-level noise enters normalized coordinates divided by the
        focal length; verified by the empirical standard deviation."""
        rng = np.random.default_rng(6)
        pose = sample_pose(skel40, rng)
        cfg = TrialConfig(support_size=0, noise_std_px=2.0)
        motion = gen_sparse_motion(skel40, pose, 0, rng, cfg)
        sys = assemble_system(skel40, pose, cam1145)
        clean = sys.A @ motion.rho
        samples = []
        for _ in range(200):
            y = synthesize_observation(skel40, pose, motion, cam1145, 2.0,
                                       rng, sys=sys)
            samples.append(y - clean)
        emp = np.std(np.concatenate(samples))
        assert emp == pytest.approx(2.0 / 1145.0, rel=0.05)

    def test_occlusion_shrinks_observation(self, skel40, cam1145):
        rng = np.random.default_rng(7)
        pose = sample_pose(skel40, rng)
        cfg = TrialConfig(support_size=1, noise_std_px=0.0)
        motion = gen_sparse_motion(skel40, pose, 1, rng, cfg)
        visible = np.ones(13, dtype=bool)
        visible[4] = False
        y = synthesize_observation(skel40, pose, motion, cam1145, 0.0, rng,
                                   visible=visible)
        sys = assemble_system(skel40, pose, cam1145, visible)
        assert 4 not in sys.visible_index
        np.testing.assert_array_equal(
            y, sys.A @ motion.rho + sys.B @ motion.omega)


class TestSupportMetrics:
    def test_perfect_recovery(self):
        omega = np.array([0.0, 0.01, 0.0, -0.02])
        assert support_metrics(omega, omega) == (1.0, 1.0, 1.0)

    def test_confusion_counts(self):
        true = np.array([0.01, 0.0, 0.0, 0.0])
        hat = np.array([0.01, 0.02, 0.0, 0.0])  # one false positive
        acc, spec, sens = support_metrics(hat, true)
        assert acc == pytest.approx(0.75)
        assert spec == pytest.approx(2.0 / 3.0)
        assert sens == 1.0

    def test_zero_over_zero_is_one(self):
        # no true positives possible: sensitivity defaults to 1
        acc, spec, sens = support_metrics(np.zeros(5), np.zeros(5))
        assert (acc, spec, sens) == (1.0, 1.0, 1.0)

    def test_threshold_epsilon(self):
        hat = np.array([5e-5, 2e-4])
        true = np.array([0.0, 2e-4])
        acc, spec, sens = support_metrics(hat, true)  # SUPPORT_EPSILON is 1e-4
        assert acc == 1.0

    def test_rejects_bad_epsilon_and_shapes(self):
        with pytest.raises(ValueError):
            support_metrics(np.zeros(3), np.zeros(4))


class TestPoseErrors:
    def test_zero_for_identical_poses(self, skel40, skel40_pose):
        assert mpjpe(skel40, skel40_pose, skel40_pose) == 0.0

    def test_mpjpe_ignores_root_translation(self, skel40, skel40_pose):
        moved = Pose(
            RigidTransform(skel40_pose.camera_to_root.rotation,
                           skel40_pose.camera_to_root.translation + 1.0),
            skel40_pose.theta)
        assert mpjpe(skel40, moved, skel40_pose) < 1e-12

    def test_positive_for_perturbed_pose(self, skel40, skel40_pose):
        theta = skel40_pose.theta.copy()
        # bend a knee: a mid-chain joint moves every joint below it
        knee = skel40.joint_names.index("right_knee")
        theta[knee] += 0.3
        other = Pose(skel40_pose.camera_to_root, theta)
        assert mpjpe(skel40, other, skel40_pose) > 0


class TestRunTrial:
    def test_metrics_well_formed(self, toy12, cam1145):
        from conftest import in_bounds_pose
        pose = in_bounds_pose(toy12, np.random.default_rng(5))
        cfg = TrialConfig(support_size=1, noise_std_px=0.0)
        results = run_trial(toy12, pose, cam1145, cfg,
                            np.random.default_rng(0))
        rf = results["rf"]
        assert rf["solver"] == "rf" and rf["converged"]
        for m in ("accuracy", "specificity", "sensitivity"):
            assert 0.0 <= rf[m] <= 1.0
        assert rf["mpjpe"] >= 0.0

    def test_reports_both_solvers(self, skel40, cam1145, skel40_pose):
        cfg = TrialConfig(support_size=2, noise_std_px=0.0)
        results = run_trial(skel40, skel40_pose, cam1145, cfg,
                            np.random.default_rng(1))
        assert set(results) == {"rf", "l2"}
        assert results["l2"]["iterations"] == 0

    def test_unknown_solver(self, skel40, cam1145, skel40_pose):
        cfg = TrialConfig(support_size=1, noise_std_px=0.0)
        with pytest.raises(ValueError, match="solver"):
            run_trial(skel40, skel40_pose, cam1145, cfg,
                      np.random.default_rng(2), solver_names=("cvx",))


class TestRunSweep:
    def test_rows_and_records_structure(self, skel40, cam1145):
        rng = np.random.default_rng(8)
        poses = [sample_pose(skel40, rng) for _ in range(2)]
        grid = [(1, 0.0), (2, 1.0)]
        rows, records = run_sweep(skel40, poses, cam1145, grid, trials=3,
                                  seed=11)
        assert len(rows) == 4  # 2 cells x 2 solvers
        assert {r["solver"] for r in rows} == {"rf", "l2"}
        assert all(r["trials"] == 3 for r in rows)
        assert all("accuracy_mean" in r and "mpjpe_std" in r for r in rows)
        ok = [r for r in records if "error" not in r]
        assert len(ok) == 2 * 2 * 3

    def test_written_layout(self, skel40, cam1145, tmp_path):
        """The results.csv header and the trials.jsonl keys, in order, as
        their readers expect them."""
        poses = [sample_pose(skel40, np.random.default_rng(12))]
        rows, records = run_sweep(skel40, poses, cam1145, [(1, 0.0)], trials=1,
                                  seed=4)
        write_results_csv(rows, tmp_path / "results.csv")
        write_trials_jsonl(records, tmp_path / "trials.jsonl")
        header = (tmp_path / "results.csv").read_text().splitlines()[0]
        assert header == (
            "s,delta,solver,trials,errors,not_converged,"
            "accuracy_mean,accuracy_std,specificity_mean,specificity_std,"
            "sensitivity_mean,sensitivity_std,omega_err_inf_mean,"
            "omega_err_inf_std,rho_err_inf_mean,rho_err_inf_std,"
            "mpjpe_mean,mpjpe_std")
        lines = (tmp_path / "trials.jsonl").read_text().splitlines()
        assert [list(json.loads(line)) for line in lines] == [[
            "cell", "s", "delta", "trial", "solver", "accuracy",
            "specificity", "sensitivity", "omega_err_inf", "rho_err_inf",
            "mpjpe", "iterations", "converged"]] * 2
        assert [json.loads(line)["solver"] for line in lines] == ["rf", "l2"]

    def test_rejects_zero_trials(self, skel40, cam1145, skel40_pose):
        with pytest.raises(ValueError, match="trials must be >= 1"):
            run_sweep(skel40, [skel40_pose], cam1145, [(1, 0.0)], trials=0,
                      seed=4)

    def test_deterministic_for_fixed_seed(self, skel40, cam1145):
        rng = np.random.default_rng(9)
        poses = [sample_pose(skel40, rng)]
        grid = [(2, 0.5)]
        r1, _ = run_sweep(skel40, poses, cam1145, grid, trials=2, seed=123)
        r2, _ = run_sweep(skel40, poses, cam1145, grid, trials=2, seed=123)
        assert r1 == r2

    def test_seed_changes_results(self, skel40, cam1145):
        rng = np.random.default_rng(10)
        poses = [sample_pose(skel40, rng)]
        grid = [(2, 0.5)]
        r1, _ = run_sweep(skel40, poses, cam1145, grid, trials=2, seed=1)
        r2, _ = run_sweep(skel40, poses, cam1145, grid, trials=2, seed=2)
        assert r1 != r2

    def test_occlusion_plumbed_through(self, skel40, cam1145):
        rng = np.random.default_rng(11)
        poses = [sample_pose(skel40, rng)]
        rows, _ = run_sweep(skel40, poses, cam1145, [(1, 0.0)], trials=1,
                            seed=5, occlude_landmark=3)
        assert rows[0]["trials"] == 1

    def test_rows_count_errors_and_non_converged(self, skel40, cam1145,
                                                 monkeypatch):
        real = experiments.gen_sparse_motion
        calls = []

        def fails_on_second_trial(*args, **kwargs):
            calls.append(None)
            if len(calls) == 2:
                raise SamplingError("planted failure")
            return real(*args, **kwargs)

        monkeypatch.setattr(experiments, "gen_sparse_motion",
                            fails_on_second_trial)
        poses = [sample_pose(skel40, np.random.default_rng(12))]
        rows, records = run_sweep(skel40, poses, cam1145, [(3, 0.0)],
                                  trials=3, seed=4,
                                  opts=SolveOptions(max_iter=1))
        counts = {r["solver"]: (r["trials"], r["errors"], r["not_converged"])
                  for r in rows}
        assert counts == {"rf": (2, 1, 2), "l2": (2, 1, 0)}
        assert [r["trial"] for r in records if "error" in r] == [1]

    def test_programming_error_propagates(self, skel40, cam1145, monkeypatch):
        """Only assembly and solve failures are recorded as trial errors; a
        planted TypeError is not swallowed."""
        def broken(*args, **kwargs):
            raise TypeError("planted programming error")

        monkeypatch.setattr(experiments, "solve_l2", broken)
        poses = [sample_pose(skel40, np.random.default_rng(12))]
        with pytest.raises(TypeError, match="planted"):
            run_sweep(skel40, poses, cam1145, [(1, 0.0)], trials=1, seed=4)

    def test_runtime_error_subclass_propagates(self, skel40, cam1145,
                                               monkeypatch):
        """A RuntimeError that is not a SolverError, here a planted
        NotImplementedError in solve_rf, is not recorded as a trial error."""
        def unfinished(*args, **kwargs):
            raise NotImplementedError("planted")

        monkeypatch.setattr(experiments, "solve_rf", unfinished)
        poses = [sample_pose(skel40, np.random.default_rng(12))]
        with pytest.raises(NotImplementedError, match="planted"):
            run_sweep(skel40, poses, cam1145, [(1, 0.0)], trials=1, seed=4)


class TestSerialization:
    def test_csv_round_trip(self, tmp_path):
        rows = [{"s": 1, "delta": 0.0, "solver": "rf", "accuracy_mean": 0.9},
                {"s": 2, "delta": 1.0, "solver": "l2", "accuracy_mean": 0.5}]
        path = tmp_path / "results.csv"
        write_results_csv(rows, path)
        with open(path, newline="") as fh:
            back = list(csv.DictReader(fh))
        assert len(back) == 2
        assert back[0]["solver"] == "rf"
        assert float(back[1]["accuracy_mean"]) == 0.5

    def test_csv_rejects_empty(self, tmp_path):
        with pytest.raises(ValueError):
            write_results_csv([], tmp_path / "empty.csv")

    def test_jsonl_round_trip(self, tmp_path):
        records = [{"trial": 0, "solver": "rf", "accuracy": 1.0},
                   {"trial": 1, "error": "boom"}]
        path = tmp_path / "trials.jsonl"
        write_trials_jsonl(records, path)
        back = [json.loads(line) for line in open(path)]
        assert back == records
