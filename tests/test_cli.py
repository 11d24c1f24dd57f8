import json
from importlib import resources

import numpy as np
import pytest

from sparsemotion.camera import CameraModel, assemble_system
from sparsemotion.cli import run
from sparsemotion.experiments import sample_pose
from sparsemotion.kinematics import Pose, default_skeleton, fk_arrays
from sparsemotion.tracker import (
    TrackOptions,
    load_landmark_csv,
    pose_from_json,
    pose_to_json,
    render_frame,
    track_sequence,
)

from conftest import toy12_config


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    """Write skeleton/camera/pose/observation JSON inputs once."""
    root = tmp_path_factory.mktemp("cli")
    skel_path = root / "skeleton.json"
    skel_path.write_text(
        resources.files("sparsemotion.data").joinpath("skeleton40.json")
        .read_text())
    toy_path = root / "toy.json"
    toy_path.write_text(toy12_config())
    cam_path = root / "camera.json"
    cam_path.write_text(json.dumps(
        {"focal_px": 1145.0, "principal_px": [0.0, 0.0]}))

    skel = default_skeleton()
    cam = CameraModel(focal=1145.0)
    pose = sample_pose(skel, np.random.default_rng(7))
    pose_path = root / "pose.json"
    pose_path.write_text(json.dumps(pose_to_json(pose)))

    sys_m = assemble_system(skel, pose, cam)
    omega = np.zeros(40)
    omega[[5, 22]] = [2e-3, -3e-3]
    y = sys_m.B @ omega
    obs_path = root / "obs.json"
    obs_path.write_text(json.dumps(
        {"y_normalized": y.tolist(), "visible": [True] * 13}))
    return dict(root=root, skel=str(skel_path), toy=str(toy_path),
                cam=str(cam_path), pose=str(pose_path), obs=str(obs_path),
                omega=omega, skel_obj=skel, cam_obj=cam, pose_obj=pose)


def base_args(paths):
    return ["--skeleton", paths["skel"], "--camera", paths["cam"],
            "--pose", paths["pose"]]


class TestSolveFrame:
    def test_rf_solver_output(self, paths, capsys):
        code = run(["solve-frame", *base_args(paths),
                    "--observation", paths["obs"], "--solver", "rf",
                    "--tol", "1e-10", "--max-iter", "20000"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["schema_version"] == 1
        assert out["stats"]["converged"]
        assert len(out["rho"]) == 6 and len(out["omega"]) == 40
        assert set(out["support"]) >= set()

    def test_l2_solver(self, paths, capsys):
        code = run(["solve-frame", *base_args(paths),
                    "--observation", paths["obs"], "--solver", "l2"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        fit = paths["skel_obj"]  # just sanity on shape
        assert len(out["omega"]) == 40

    def test_unconverged_exit_code(self, paths, capsys):
        code = run(["solve-frame", *base_args(paths),
                    "--observation", paths["obs"], "--solver", "rf",
                    "--max-iter", "2", "--tol", "1e-14"])
        capsys.readouterr()
        assert code == 2

    def test_bad_observation_length(self, paths, tmp_path, capsys):
        bad = tmp_path / "bad_obs.json"
        bad.write_text(json.dumps({"y_normalized": [0.0] * 10,
                                   "visible": [True] * 13}))
        code = run(["solve-frame", *base_args(paths),
                    "--observation", str(bad)])
        capsys.readouterr()
        assert code == 1

    @pytest.mark.parametrize("solver", ["rf", "l2"])
    def test_landmark_below_min_depth(self, paths, tmp_path, capsys, solver):
        """Assembly drops the nearest landmark; the 26-entry observation is
        refused with both counts named instead of a numpy shape error."""
        _, _, pts = fk_arrays(paths["skel_obj"], paths["pose_obj"])
        z = np.sort(pts[:, 2])
        near = tmp_path / "near_camera.json"
        near.write_text(json.dumps({"focal_px": 1145.0,
                                    "min_depth": (z[0] + z[1]) / 2}))
        code = run(["solve-frame", "--skeleton", paths["skel"],
                    "--camera", str(near), "--pose", paths["pose"],
                    "--observation", paths["obs"], "--solver", solver])
        err = capsys.readouterr().err
        assert code == 1
        assert "observation has 26 entries" in err
        assert "24 rows" in err

    def test_missing_file(self, paths, capsys):
        code = run(["solve-frame", *base_args(paths),
                    "--observation", "/nonexistent.json"])
        err = capsys.readouterr().err
        assert code == 1
        assert "error" in err


class TestPkspCheck:
    def toy_args(self, paths, tmp_path):
        from sparsemotion.kinematics import load_skeleton
        from conftest import in_bounds_pose
        toy = load_skeleton(toy12_config())
        pose = in_bounds_pose(toy, np.random.default_rng(5))
        pose_path = tmp_path / "toy_pose.json"
        pose_path.write_text(json.dumps(pose_to_json(pose)))
        return ["--skeleton", paths["toy"], "--camera", paths["cam"],
                "--pose", str(pose_path)]

    def test_certified_support_exits_zero(self, paths, tmp_path, capsys):
        code = run(["pksp-check", *self.toy_args(paths, tmp_path),
                    "--support", "1,2"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["holds"] and out["margin"] > 0
        assert out["support"] == [1, 2]
        assert len(out["pose_hash"]) == 16

    def test_failing_support_exits_three(self, paths, tmp_path, capsys):
        code = run(["pksp-check", *self.toy_args(paths, tmp_path),
                    "--support", "0"])
        out = json.loads(capsys.readouterr().out)
        assert code == 3
        assert not out["holds"]
        assert "counterexample" in out

    def test_randomized_mode_writes_json(self, paths, tmp_path, capsys):
        code = run(["pksp-check", *self.toy_args(paths, tmp_path),
                    "--support", "1,2", "--mode", "randomized",
                    "--budget", "200"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["mode"] == "randomized" and out["holds"] is True

    def test_order_mode(self, paths, tmp_path, capsys):
        code = run(["pksp-check", *self.toy_args(paths, tmp_path),
                    "--order", "1"])
        out = json.loads(capsys.readouterr().out)
        assert code == 3  # the root joint alone defeats order-1 recovery
        assert out["order"] == 1
        assert "worst_support" in out

    def test_budget_exit_code(self, paths, capsys):
        code = run(["pksp-check", *base_args(paths), "--order", "9",
                    "--budget", "100"])
        err = capsys.readouterr().err
        assert code == 2
        assert "budget" in err.lower()

    def test_one_factorization_per_run(self, paths, tmp_path, capsys,
                                       monkeypatch):
        """Certification reads the null space that assembly factored: the
        collinearity check, A and Btilde are the only SVDs of a run."""
        calls = []
        svd = np.linalg.svd

        def counting_svd(*args, **kwargs):
            calls.append(1)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        code = run(["pksp-check", *self.toy_args(paths, tmp_path),
                    "--support", "1,2"])
        capsys.readouterr()
        assert code == 0
        assert len(calls) == 3

    def test_support_and_order_mutually_exclusive(self, paths, capsys):
        code = run(["pksp-check", *base_args(paths)])
        capsys.readouterr()
        assert code == 1


class TestSynthBench:
    def sweep_config(self, tmp_path, seed=99):
        cfg = {"grid": {"support_sizes": [1, 2], "noise_std_px": [0.0]},
               "trials": 2, "seed": seed, "poses": 2}
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(cfg))
        return str(path)

    def test_writes_results_and_trials(self, paths, tmp_path, capsys):
        out = tmp_path / "out"
        code = run(["synth-bench", "--skeleton", paths["skel"],
                    "--camera", paths["cam"],
                    "--sweep-config", self.sweep_config(tmp_path),
                    "--out", str(out)])
        capsys.readouterr()
        assert code == 0
        assert (out / "results.csv").exists()
        assert (out / "trials.jsonl").exists()
        lines = (out / "results.csv").read_text().splitlines()
        assert len(lines) == 1 + 2 * 2  # header + cells x solvers

    def test_byte_identical_for_fixed_seed(self, paths, tmp_path, capsys):
        cfg = self.sweep_config(tmp_path)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run(["synth-bench", "--skeleton", paths["skel"],
                        "--camera", paths["cam"], "--sweep-config", cfg,
                        "--out", str(out)]) == 0
            outs.append((out / "results.csv").read_bytes())
        capsys.readouterr()
        assert outs[0] == outs[1]

    def test_bad_config(self, paths, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"trials": 1}))
        code = run(["synth-bench", "--skeleton", paths["skel"],
                    "--camera", paths["cam"], "--sweep-config", str(path),
                    "--out", str(tmp_path / "x")])
        capsys.readouterr()
        assert code == 1


def landmark_csv(paths, poses):
    """Landmark CSV text with frame k rendered at poses[k], all visible."""
    rows = ["frame,landmark_id,u,v,visible"]
    for k, pose in enumerate(poses):
        frame = render_frame(paths["skel_obj"], pose, paths["cam_obj"], k)
        for lid, (u, v) in enumerate(frame.uv):
            rows.append(f"{k},{lid},{float(u)!r},{float(v)!r},1")
    return "\n".join(rows) + "\n"


class TestTrack:
    def test_static_sequence(self, paths, tmp_path, capsys):
        pose = paths["pose_obj"]
        lm_path = tmp_path / "landmarks.csv"
        lm_path.write_text(landmark_csv(paths, [pose] * 3))
        out_path = tmp_path / "track.jsonl"
        code = run(["track", "--skeleton", paths["skel"],
                    "--camera", paths["cam"], "--init-pose", paths["pose"],
                    "--landmarks", str(lm_path), "--out", str(out_path)])
        capsys.readouterr()
        assert code == 0
        lines = [json.loads(x) for x in out_path.read_text().splitlines()]
        assert len(lines) == 4  # 3 frames + summary
        summary = lines[-1]
        assert summary["summary"] and summary["frames"] == 3
        assert summary["reinit_count"] == 0
        assert summary["mean_reproj_err_px"] < 1e-6

    def test_theta_lines_match_track_sequence(self, paths, tmp_path, capsys):
        """Each frame's streamed theta_deg is the pose track_sequence
        reaches on the same frames up to that one."""
        skel, cam = paths["skel_obj"], paths["cam_obj"]
        with open(paths["pose"]) as fh:
            pose = pose_from_json(json.load(fh), skel.dof)
        csv_text = landmark_csv(paths, [
            Pose(pose.camera_to_root, pose.theta + (k + 1) * paths["omega"])
            for k in range(4)])
        lm_path = tmp_path / "landmarks.csv"
        lm_path.write_text(csv_text)
        out_path = tmp_path / "track.jsonl"
        code = run(["track", "--skeleton", paths["skel"],
                    "--camera", paths["cam"], "--init-pose", paths["pose"],
                    "--landmarks", str(lm_path), "--out", str(out_path)])
        capsys.readouterr()
        assert code == 0
        lines = [json.loads(x) for x in out_path.read_text().splitlines()]
        frames = load_landmark_csv(csv_text, skel.n_landmarks)
        assert len(lines) == len(frames) + 1
        for k, line in enumerate(lines[:-1]):
            _, state = track_sequence(pose, frames[:k + 1], skel, cam,
                                      TrackOptions())
            assert line["frame"] == k
            np.testing.assert_array_equal(line["theta_deg"],
                                          np.degrees(state.pose.theta))
        moved = np.flatnonzero(np.abs(np.radians(lines[-2]["theta_deg"])
                                      - pose.theta) > 1e-3)
        assert set(moved) == {5, 22}

    def test_bad_landmark_csv(self, paths, tmp_path, capsys):
        lm_path = tmp_path / "bad.csv"
        lm_path.write_text("x,y\n1,2\n")
        code = run(["track", "--skeleton", paths["skel"],
                    "--camera", paths["cam"], "--init-pose", paths["pose"],
                    "--landmarks", str(lm_path)])
        capsys.readouterr()
        assert code == 1


class TestValidateSkeleton:
    def test_summary(self, paths, capsys):
        code = run(["validate-skeleton", "--skeleton", paths["skel"]])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["dof"] == 40
        assert out["landmarks"] == 13
        assert len(out["joints"]) == 40

    def test_invalid_config(self, tmp_path, capsys):
        bad = tmp_path / "bad_skel.json"
        bad.write_text("{")
        code = run(["validate-skeleton", "--skeleton", str(bad)])
        capsys.readouterr()
        assert code == 1
