import json
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from sparsemotion import solvers
from sparsemotion.camera import CameraModel, assemble_system
from sparsemotion.cli import run
from sparsemotion.experiments import sample_pose
from sparsemotion.kinematics import Pose, default_skeleton, fk_arrays
from sparsemotion.liegroup import RigidTransform
from sparsemotion.tracker import (
    TrackOptions,
    load_landmark_csv,
    pose_from_json,
    pose_to_json,
    render_frame,
    track_sequence,
)

from conftest import plant_highs_status, toy12_config, toy8_config


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


def solve_args(paths):
    return ["solve-frame", *base_args(paths), "--observation", paths["obs"]]


def validate_edited(edit):
    """argv for validate-skeleton on the bundled skeleton after edit(cfg)."""
    def argv(paths, tmp_path):
        cfg = json.loads(Path(paths["skel"]).read_text())
        edit(cfg)
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(cfg))
        return ["validate-skeleton", "--skeleton", str(path)]
    return argv


def synth_bench(sweep=None, skeleton=None):
    """argv for synth-bench over one cell and one trial, with sweep's keys
    added to the config, on the skeleton text given or the bundled one."""
    def argv(paths, tmp_path):
        cfg = {"grid": {"support_sizes": [1], "noise_std_px": [0.0]},
               "trials": 1, "seed": 1, "poses": 1, **(sweep or {})}
        (tmp_path / "sweep.json").write_text(json.dumps(cfg))
        skel = paths["skel"]
        if skeleton is not None:
            skel = str(tmp_path / "skeleton.json")
            Path(skel).write_text(skeleton)
        return ["synth-bench", "--skeleton", skel, "--camera", paths["cam"],
                "--sweep-config", str(tmp_path / "sweep.json"),
                "--out", str(tmp_path / "out")]
    return argv


def unsamplable_toy8() -> str:
    """toy8 with landmark 0 at the camera's depth 0 in every pose."""
    cfg = json.loads(toy8_config())
    cfg["landmarks"][0]["local"] = [0.0, 0.0, -3.0]
    return json.dumps(cfg)


@pytest.mark.parametrize("argv, lp_fault, code, message", [
    pytest.param(lambda p, t: ["solve-frame", *base_args(p), "--observation",
                               str(t / "absent.json")],
                 None, 1, "cannot read", id="missing-file"),
    pytest.param(validate_edited(lambda c: c["joints"][3].pop("parent")),
                 None, 1, "joint 3: missing key 'parent'",
                 id="skeleton-missing-key"),
    pytest.param(validate_edited(lambda c: c["joints"].insert(1, 5)),
                 None, 1, "joint entry 1: not a JSON object",
                 id="skeleton-joint-not-object"),
    pytest.param(validate_edited(lambda c: c["joints"][1]["dof"].insert(0, None)),
                 None, 1, "joint 1 dof 0: not a JSON object",
                 id="skeleton-dof-not-object"),
    pytest.param(validate_edited(lambda c: c["landmarks"].insert(2, None)),
                 None, 1, "landmark entry 2: not a JSON object",
                 id="skeleton-landmark-not-object"),
    pytest.param(validate_edited(lambda c: c.update(joints=5)),
                 None, 1, "section 'joints': not a JSON array",
                 id="skeleton-joints-not-array"),
    pytest.param(validate_edited(lambda c: c.update(landmarks=5)),
                 None, 1, "section 'landmarks': not a JSON array",
                 id="skeleton-landmarks-not-array"),
    pytest.param(validate_edited(lambda c: c["joints"][1].update(dof=5)),
                 None, 1, "joint 1: dof is not a JSON array",
                 id="skeleton-dof-not-array"),
    pytest.param(validate_edited(lambda c: c["joints"][1].update(id=[1])),
                 None, 1, "joint entry 1: id [1] is not an integer",
                 id="skeleton-joint-id-list"),
    pytest.param(validate_edited(lambda c: c["landmarks"][2].update(joint=[3])),
                 None, 1, "landmark 2: joint [3] is not an integer",
                 id="skeleton-landmark-joint-list"),
    pytest.param(validate_edited(
                     lambda c: c["joints"][1]["dof"][0].update(min_deg="x")),
                 None, 1, "joint 1 dof 0: min_deg 'x' is not a number",
                 id="skeleton-min-deg-string"),
    pytest.param(validate_edited(
                     lambda c: c["joints"][1]["dof"][2].update(max_deg=None)),
                 None, 1, "joint 1 dof 2: max_deg None is not a number",
                 id="skeleton-max-deg-null"),
    pytest.param(validate_edited(
                     lambda c: c["joints"][1]["dof"][1].update(axis={"x": 1})),
                 None, 1, "joint 1 dof 1: axis {'x': 1} is not 3 numbers",
                 id="skeleton-axis-object"),
    pytest.param(validate_edited(
                     lambda c: c["joints"][2].update(offset=[0.0, 0.15])),
                 None, 1, "joint 2: offset [0.0, 0.15] is not 3 numbers",
                 id="skeleton-offset-short"),
    pytest.param(validate_edited(
                     lambda c: c["landmarks"][2].update(local=[0, "x", 0])),
                 None, 1, "landmark 2: local [0, 'x', 0] is not 3 numbers",
                 id="skeleton-local-string-entry"),
    pytest.param(synth_bench(skeleton=unsamplable_toy8()),
                 None, 1, "could not sample a pose", id="synth-bench-unsamplable"),
    pytest.param(synth_bench({"occlude_landmark": 99}),
                 None, 1, "occlude_landmark", id="occlude-out-of-range"),
    pytest.param(synth_bench({"occlude_landmark": -1}),
                 None, 1, "occlude_landmark", id="occlude-negative"),
    pytest.param(synth_bench({"occlude_landmark": "2"}),
                 None, 1, "occlude_landmark", id="occlude-not-int"),
    pytest.param(synth_bench({"poses": 0}),
                 None, 1, "poses must be at least 1", id="synth-bench-zero-poses"),
    pytest.param(synth_bench({"poses": -3}),
                 None, 1, "poses must be at least 1",
                 id="synth-bench-negative-poses"),
    pytest.param(synth_bench({"magnitude_range_deg": 5}),
                 None, 1, "magnitude_range_deg must be a [min, max] pair",
                 id="synth-bench-magnitude-not-pair"),
    pytest.param(synth_bench({"grid": {"support_sizes": 1,
                                       "noise_std_px": [0.0]}}),
                 None, 1, "grid.support_sizes must be a list",
                 id="synth-bench-sizes-not-list"),
    pytest.param(lambda p, t: [*solve_args(p), "--solver", "l0",
                               "--l0-max-support", "5"],
                 None, 2, "exceeds budget", id="l0-budget"),
    pytest.param(lambda p, t: [*solve_args(p), "--solver", "rf"],
                 lambda mp: plant_highs_status(
                     mp, solvers.highs.HighsModelStatus.kSolveError), 2,
                 "basis-pursuit LP failed: Solve error", id="rf-lp-status-4"),
    pytest.param(lambda p, t: ["pksp-check", *base_args(p), "--support",
                               "12,27"],
                 lambda mp: plant_highs_status(
                     mp, solvers.highs.HighsModelStatus.kSolveError), 2,
                 "sign-pattern LP failed: Solve error",
                 id="pksp-lp-status-4"),
    pytest.param(lambda p, t: ["pksp-check", *base_args(p), "--support",
                               "12,27"],
                 lambda mp: plant_highs_status(
                     mp, solvers.highs.HighsModelStatus.kInfeasible), 2,
                 "no sign-pattern LP was feasible",
                 id="pksp-all-lps-infeasible"),
])
def test_failing_exit(argv, lp_fault, code, message, paths, tmp_path, capsys,
                      monkeypatch):
    """The failing exits of the CLI contract: 1 for an input error, 2 for a
    resource or convergence failure (here a HiGHS model status that
    lp_fault plants in every LP: a solve error, or infeasible, which leaves
    pksp no sign pattern), each reported as one "error: ..." on stderr and
    never as a traceback."""
    if lp_fault is not None:
        lp_fault(monkeypatch)
    assert run(argv(paths, tmp_path)) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert message in err
    assert "Traceback" not in err


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
        """Assembly leaves out the landmark nearer than min_depth, and the
        solve reads the rows of the landmarks left: the output is the same,
        byte for byte, as with that landmark's flag off and its two entries
        removed from the observation."""
        _, _, pts = fk_arrays(paths["skel_obj"], paths["pose_obj"])
        z = np.sort(pts[:, 2])
        nearest = int(np.argmin(pts[:, 2]))
        near = tmp_path / "near_camera.json"
        near.write_text(json.dumps({"focal_px": 1145.0,
                                    "min_depth": (z[0] + z[1]) / 2}))
        obs = json.loads(open(paths["obs"]).read())
        keep = np.arange(13) != nearest
        flag_off = tmp_path / "flag_off.json"
        flag_off.write_text(json.dumps({
            "y_normalized": np.reshape(obs["y_normalized"], (13, 2))[keep]
            .ravel().tolist(),
            "visible": keep.tolist()}))
        outs = []
        for camera, observation in ((str(near), paths["obs"]),
                                    (paths["cam"], str(flag_off))):
            code = run(["solve-frame", "--skeleton", paths["skel"],
                        "--camera", camera, "--pose", paths["pose"],
                        "--observation", observation, "--solver", solver])
            assert code == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]


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

    def test_support_written_as_checked(self, paths, tmp_path, capsys):
        """Repeated and unordered indices name one sorted support."""
        code = run(["pksp-check", *self.toy_args(paths, tmp_path),
                    "--support", "2,1,2"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["support"] == [1, 2]
        assert "mode" not in out

    def test_support_above_sign_pattern_cap(self, paths, capsys):
        code = run(["pksp-check", *base_args(paths),
                    "--support", ",".join(str(i) for i in range(13))])
        err = capsys.readouterr().err
        assert code == 2
        assert "exceed the exact cap of 2^12" in err

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
        """Certification reads the null space that assembly factored: A and
        Btilde are the only SVDs of a run."""
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
        assert len(calls) == 2

    def test_order_out_of_range(self, paths, capsys):
        code = run(["pksp-check", *base_args(paths), "--order", "41"])
        err = capsys.readouterr().err
        assert code == 1
        assert "0..40" in err

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

    def test_step_across_min_depth_completes(self, paths, tmp_path, capsys):
        """The body moves 1e-3 per frame toward a camera whose min_depth
        lies 1e-4 below the nearest landmark: every frame is tracked."""
        pose = paths["pose_obj"]
        _, _, pts = fk_arrays(paths["skel_obj"], pose)
        near = tmp_path / "near_camera.json"
        near.write_text(json.dumps({"focal_px": 1145.0,
                                    "min_depth": np.min(pts[:, 2]) - 1e-4}))
        Tc = pose.camera_to_root
        poses = [Pose(RigidTransform(Tc.rotation,
                                     Tc.translation - [0.0, 0.0, 1e-3 * k]),
                      pose.theta) for k in range(3)]
        lm_path = tmp_path / "landmarks.csv"
        lm_path.write_text(landmark_csv(paths, poses))
        out_path = tmp_path / "track.jsonl"
        code = run(["track", "--skeleton", paths["skel"],
                    "--camera", str(near), "--init-pose", paths["pose"],
                    "--landmarks", str(lm_path), "--out", str(out_path)])
        capsys.readouterr()
        assert code == 0
        lines = [json.loads(x) for x in out_path.read_text().splitlines()]
        assert [line.get("frame") for line in lines[:-1]] == [0, 1, 2]
        assert not any(line["skipped"] for line in lines[:-1])
        assert lines[-1]["summary"] and lines[-1]["frames"] == 3

    def test_initial_pose_below_min_depth(self, paths, tmp_path, capsys):
        """The initial pose puts one landmark nearer than the camera's
        min_depth: tracking starts without it and solves every frame."""
        pose = paths["pose_obj"]
        _, _, pts = fk_arrays(paths["skel_obj"], pose)
        z = np.sort(pts[:, 2])
        near = tmp_path / "near_camera.json"
        near.write_text(json.dumps({"focal_px": 1145.0,
                                    "min_depth": (z[0] + z[1]) / 2}))
        lm_path = tmp_path / "landmarks.csv"
        lm_path.write_text(landmark_csv(paths, [
            Pose(pose.camera_to_root, pose.theta + (k + 1) * paths["omega"])
            for k in range(3)]))
        out_path = tmp_path / "track.jsonl"
        code = run(["track", "--skeleton", paths["skel"],
                    "--camera", str(near), "--init-pose", paths["pose"],
                    "--landmarks", str(lm_path), "--out", str(out_path)])
        capsys.readouterr()
        assert code == 0
        lines = [json.loads(x) for x in out_path.read_text().splitlines()]
        assert [line.get("frame") for line in lines[:-1]] == [0, 1, 2]
        assert not any(line["skipped"] for line in lines[:-1])

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
