import json
import math
from dataclasses import replace

import numpy as np
import pytest

from sparsemotion.camera import CameraModel, in_view, project
from sparsemotion.errors import InputError
from sparsemotion.kinematics import Pose, clamp_angles, fk_arrays
from sparsemotion.liegroup import RigidTransform, exp_twist_vector
from sparsemotion.solvers import SolveOptions
from sparsemotion.tracker import (
    LandmarkFrame,
    SequenceError,
    TrackOptions,
    differential_observation,
    frame_result_to_jsonl,
    load_landmark_csv,
    make_initial_state,
    pose_from_json,
    pose_to_json,
    render_frame,
    reprojection_error,
    step_frame,
    track_sequence,
)

from conftest import in_bounds_pose

TIGHT = TrackOptions(
    solve=SolveOptions(max_iter=20000, primal_tol=1e-10, dual_tol=1e-10,
                       omega_max=math.radians(5.0), box_enabled=True))


def synthetic_frames(skel, cam, pose0, steps, n_frames, start=0):
    """Render frames of a pose walking along per-frame angle steps."""
    frames = []
    theta = pose0.theta.copy()
    for k in range(n_frames):
        theta = clamp_angles(theta + steps[k], skel)
        frames.append(render_frame(skel, Pose(pose0.camera_to_root, theta),
                                   cam, start + k))
    return frames


class TestRenderAndDifferential:
    def test_render_projects_all_landmarks(self, skel40, cam1145,
                                           skel40_pose):
        frame = render_frame(skel40, skel40_pose, cam1145, 0)
        assert frame.uv.shape == (13, 2)
        assert frame.visible.all()

    def test_initial_state_leaves_out_landmark_below_min_depth(
            self, skel40, cam1145, skel40_pose):
        """A landmark nearer than the camera's min_depth at the initial pose
        is flagged invisible; the others render as with every landmark in
        view."""
        _, _, pts = fk_arrays(skel40, skel40_pose)
        z = np.sort(pts[:, 2])
        keep = pts[:, 2] > z[0]
        near = CameraModel(focal=cam1145.focal, min_depth=(z[0] + z[1]) / 2)
        frame = make_initial_state(skel40, skel40_pose, near).last_frame
        full = render_frame(skel40, skel40_pose, cam1145, -1)
        np.testing.assert_array_equal(frame.visible, keep)
        np.testing.assert_array_equal(frame.uv[keep], full.uv[keep])

    def test_differential_matches_linear_model_to_first_order(
            self, skel40, cam1145, skel40_pose):
        from sparsemotion.camera import assemble_system
        sys = assemble_system(skel40, skel40_pose, cam1145)
        omega = np.zeros(40)
        omega[7] = 1e-5
        f0 = render_frame(skel40, skel40_pose, cam1145, 0)
        f1 = render_frame(
            skel40, Pose(skel40_pose.camera_to_root, skel40_pose.theta + omega),
            cam1145, 1)
        rates, both = differential_observation(f0, f1, cam1145)
        assert both.all()
        np.testing.assert_allclose(rates.ravel(), sys.B @ omega, atol=1e-9)

    def test_joint_visibility(self, skel40, cam1145, skel40_pose):
        f0 = render_frame(skel40, skel40_pose, cam1145, 0)
        vis = np.ones(13, dtype=bool)
        vis[5] = False
        f1 = LandmarkFrame(1, f0.uv, vis)
        rates, both = differential_observation(f0, f1, cam1145)
        assert rates.shape == (13, 2)
        np.testing.assert_array_equal(both, vis)

    def test_mismatched_frames(self, skel40, cam1145, skel40_pose):
        f0 = render_frame(skel40, skel40_pose, cam1145, 0)
        f1 = LandmarkFrame(1, np.zeros((5, 2)), np.ones(5, dtype=bool))
        with pytest.raises(SequenceError):
            differential_observation(f0, f1, cam1145)


class TestReprojectionError:
    def test_zero_for_rendered_frame(self, skel40, cam1145, skel40_pose):
        frame = render_frame(skel40, skel40_pose, cam1145, 0)
        assert reprojection_error(skel40, skel40_pose, frame, cam1145) < 1e-9

    def test_reports_worst_landmark(self, skel40, cam1145, skel40_pose):
        frame = render_frame(skel40, skel40_pose, cam1145, 0)
        uv = frame.uv.copy()
        uv[3, 1] += 60.0
        bumped = LandmarkFrame(0, uv, frame.visible)
        err = reprojection_error(skel40, skel40_pose, bumped, cam1145)
        assert err == pytest.approx(60.0, abs=1e-9)

    def test_ignores_invisible_landmarks(self, skel40, cam1145, skel40_pose):
        frame = render_frame(skel40, skel40_pose, cam1145, 0)
        uv = frame.uv.copy()
        uv[3] += 500.0
        vis = frame.visible.copy()
        vis[3] = False
        err = reprojection_error(skel40, skel40_pose,
                                 LandmarkFrame(0, uv, vis), cam1145)
        assert err < 1e-9

    def test_no_visible_landmarks(self, skel40, cam1145, skel40_pose):
        frame = LandmarkFrame(0, np.zeros((13, 2)), np.zeros(13, dtype=bool))
        with pytest.raises(ValueError):
            reprojection_error(skel40, skel40_pose, frame, cam1145)

    @staticmethod
    def reference_error(skel, pose, frame, cam):
        """The error worked out step by step: FK, the frame's landmarks in
        view, their projection and the largest per-landmark distance."""
        _, _, pts = fk_arrays(skel, pose)
        idx = np.flatnonzero(in_view(pts, frame.visible, cam))
        diff = cam.to_pixels(project(pts[idx], cam)) - frame.uv[idx]
        return float(np.sqrt(np.max(
            (diff[:, None, :] @ diff[:, :, None])[:, 0, 0])))

    @pytest.mark.parametrize("case", ["one_invisible", "bumped", "min_depth"])
    def test_matches_reference_to_the_bit(self, skel40, cam1145, skel40_pose,
                                          case):
        """The error of a frame rendered at a nearby pose, then edited,
        equals the step-by-step reference exactly."""
        rng = np.random.default_rng(4)
        moved = Pose(skel40_pose.camera_to_root,
                     skel40_pose.theta + rng.normal(0.0, 0.01, 40))
        frame = render_frame(skel40, moved, cam1145, 0)
        uv, vis, cam = frame.uv.copy(), frame.visible.copy(), cam1145
        if case == "one_invisible":
            vis[3] = False
        elif case == "bumped":
            uv[7] += [40.0, -25.0]
        else:
            _, _, pts = fk_arrays(skel40, skel40_pose)
            z = np.sort(pts[:, 2])
            cam = CameraModel(focal=cam1145.focal, min_depth=(z[0] + z[1]) / 2)
        edited = LandmarkFrame(0, uv, vis)
        err = reprojection_error(skel40, skel40_pose, edited, cam)
        assert err > 0.0
        assert err == self.reference_error(skel40, skel40_pose, edited, cam)


class TestStepFrame:
    def test_static_scene_is_a_fixed_point(self, skel40, cam1145,
                                           skel40_pose):
        state = make_initial_state(skel40, skel40_pose, cam1145)
        frame = render_frame(skel40, skel40_pose, cam1145, 0)
        new_state, result = step_frame(state, frame, skel40, cam1145, TIGHT)
        assert result.reproj_err_px < 1e-6
        assert not result.reinit
        np.testing.assert_allclose(new_state.pose.theta, skel40_pose.theta,
                                   atol=1e-8)

    def test_small_certified_motion_tracked(self, toy12, cam1145):
        pose = in_bounds_pose(toy12, np.random.default_rng(5))
        state = make_initial_state(toy12, pose, cam1145)
        omega = np.zeros(12)
        omega[1] = 5e-4
        next_pose = Pose(pose.camera_to_root, pose.theta + omega)
        frame = render_frame(toy12, next_pose, cam1145, 0)
        new_state, result = step_frame(state, frame, toy12, cam1145, TIGHT)
        assert result.support.indices == (1,)
        assert result.reproj_err_px < 1e-3
        assert np.max(np.abs(new_state.pose.theta - next_pose.theta)) < 1e-6

    def test_unsolvable_frame_skipped_with_flag(self, skel40, cam1145,
                                                skel40_pose):
        state = make_initial_state(skel40, skel40_pose, cam1145)
        frame = LandmarkFrame(0, state.last_frame.uv,
                              np.zeros(13, dtype=bool))
        new_state, result = step_frame(state, frame, skel40, cam1145, TIGHT)
        assert result.skipped and result.reinit
        # a skipped frame leaves the state, reference frame included, as it was
        assert new_state is state

    def test_too_few_jointly_visible(self, skel40, cam1145, skel40_pose):
        state = make_initial_state(skel40, skel40_pose, cam1145)
        vis = np.zeros(13, dtype=bool)
        vis[[0, 6]] = True
        frame = LandmarkFrame(0, state.last_frame.uv, vis)
        new_state, result = step_frame(state, frame, skel40, cam1145, TIGHT)
        assert result.skipped and result.reinit
        assert new_state is state

    def test_landmark_below_min_depth_solved_without_it(self, skel40, cam1145,
                                                         skel40_pose):
        """A landmark nearer than the camera's min_depth is left out of the
        solve and of the reprojection error: the frame is solved exactly as
        the same frame with that landmark flagged invisible."""
        _, _, pts = fk_arrays(skel40, skel40_pose)
        z = np.sort(pts[:, 2])
        nearest = int(np.argmin(pts[:, 2]))
        near = CameraModel(focal=cam1145.focal, min_depth=(z[0] + z[1]) / 2)
        state = make_initial_state(skel40, skel40_pose, cam1145)
        omega = np.zeros(40)
        omega[[12, 24]] = [3e-4, -2e-4]
        frame = render_frame(
            skel40, Pose(skel40_pose.camera_to_root, skel40_pose.theta + omega),
            cam1145, 0)
        vis = frame.visible.copy()
        vis[nearest] = False
        flagged = LandmarkFrame(0, frame.uv, vis)

        near_state, near_result = step_frame(state, frame, skel40, near, TIGHT)
        flag_state, flag_result = step_frame(state, flagged, skel40, cam1145,
                                             TIGHT)
        assert not near_result.skipped
        np.testing.assert_array_equal(near_state.pose.theta,
                                      flag_state.pose.theta)
        theta_deg = np.degrees(near_state.pose.theta)
        assert json.loads(frame_result_to_jsonl(near_result, theta_deg)) == \
            json.loads(frame_result_to_jsonl(flag_result, theta_deg))
        np.testing.assert_array_equal(near_state.pose.camera_to_root.matrix(),
                                      flag_state.pose.camera_to_root.matrix())

    def test_step_across_min_depth_returns_result(self, skel40, cam1145,
                                                  skel40_pose):
        """The body moves 1e-3 toward a camera whose min_depth lies 1e-4
        below the nearest landmark: the updated pose carries that landmark
        past min_depth, and its reprojection leaves it out."""
        _, _, pts = fk_arrays(skel40, skel40_pose)
        near = CameraModel(focal=cam1145.focal,
                           min_depth=np.min(pts[:, 2]) - 1e-4)
        Tc = skel40_pose.camera_to_root
        closer = Pose(RigidTransform(Tc.rotation,
                                     Tc.translation - [0.0, 0.0, 1e-3]),
                      skel40_pose.theta)
        state = make_initial_state(skel40, skel40_pose, near)
        frame = render_frame(skel40, closer, cam1145, 0)
        _, result = step_frame(state, frame, skel40, near, TIGHT)
        assert not result.skipped and not result.reinit
        assert result.reproj_err_px < 1e-3

    def test_no_landmark_left_in_view_skips_frame(self, skel40, cam1145,
                                                  skel40_pose):
        """The body moves 1.0 and then 2.0 toward a camera whose min_depth
        lies 0.05 below the nearest landmark: each solved pose leaves no
        landmark in view to reproject, so each frame is skipped with the
        flag raised and the state is left as it was."""
        _, _, pts = fk_arrays(skel40, skel40_pose)
        near = CameraModel(focal=cam1145.focal,
                           min_depth=np.min(pts[:, 2]) - 0.05)
        Tc = skel40_pose.camera_to_root
        frames = [render_frame(skel40, Pose(RigidTransform(
            Tc.rotation, Tc.translation - [0.0, 0.0, dz]), skel40_pose.theta),
            cam1145, k) for k, dz in enumerate((1.0, 2.0))]
        state = make_initial_state(skel40, skel40_pose, near)
        for frame in frames:
            after, result = step_frame(state, frame, skel40, near, TIGHT)
            assert after is state
            assert result.skipped and result.reinit
            assert np.isnan(result.reproj_err_px)

    def test_wrong_angle_count_raises(self, skel40, cam1145, skel40_pose):
        """A pose of the wrong dimension is a programming error, not a bad
        frame: it propagates instead of being skipped."""
        state = make_initial_state(skel40, skel40_pose, cam1145)
        bad = replace(state, pose=Pose(skel40_pose.camera_to_root,
                                       skel40_pose.theta[:39]))
        frame = render_frame(skel40, skel40_pose, cam1145, 0)
        with pytest.raises(ValueError):
            step_frame(bad, frame, skel40, cam1145, TIGHT)

    def test_large_jump_raises_reinit_flag(self, skel40, cam1145,
                                           skel40_pose):
        state = make_initial_state(skel40, skel40_pose, cam1145)
        uv = state.last_frame.uv.copy()
        uv[3, 1] += 150.0  # one landmark teleports well past what the
        # box-limited articulation can absorb
        frame = LandmarkFrame(0, uv, np.ones(13, dtype=bool))
        _, result = step_frame(state, frame, skel40, cam1145, TIGHT)
        assert result.reinit
        assert result.reproj_err_px > 50.0

    def test_angles_stay_clamped(self, skel40, cam1145):
        rng = np.random.default_rng(3)
        pose = in_bounds_pose(skel40, rng)
        state = make_initial_state(skel40, pose, cam1145)
        uv = state.last_frame.uv + rng.normal(0, 4.0, (13, 2))
        frame = LandmarkFrame(0, uv, np.ones(13, dtype=bool))
        new_state, _ = step_frame(state, frame, skel40, cam1145, TIGHT)
        assert np.all(new_state.pose.theta >= skel40.bounds_min - 1e-12)
        assert np.all(new_state.pose.theta <= skel40.bounds_max + 1e-12)


class TestTrackSequence:
    def test_tracks_certified_walk(self, toy12, cam1145):
        rng = np.random.default_rng(5)
        pose = in_bounds_pose(toy12, np.random.default_rng(5))
        steps = []
        for _ in range(20):
            st = np.zeros(12)
            st[rng.choice([1, 2])] = rng.uniform(1e-4, 5e-4) * rng.choice(
                [-1, 1])
            steps.append(st)
        frames = synthetic_frames(toy12, cam1145, pose, steps, 20)
        results, state = track_sequence(pose, frames, toy12, cam1145, TIGHT)
        assert len(results) == 20
        assert not any(r.reinit for r in results)
        final_theta = pose.theta + np.sum(steps, axis=0)
        assert np.max(np.abs(state.pose.theta - final_theta)) < 1e-5

    def test_reinit_provider_restores_pose(self, skel40, cam1145,
                                           skel40_pose):
        frames = [render_frame(skel40, skel40_pose, cam1145, k)
                  for k in range(3)]
        uv = frames[1].uv.copy()
        uv[3, 1] += 150.0
        frames[1] = LandmarkFrame(1, uv, frames[1].visible)
        calls = []

        def provider(frame_index):
            calls.append(frame_index)
            return skel40_pose

        results, state = track_sequence(skel40_pose, frames, skel40, cam1145,
                                        TIGHT, reinit_provider=provider)
        assert calls == [1]
        assert [r.reinit for r in results] == [False, True, False]
        np.testing.assert_allclose(state.pose.theta, skel40_pose.theta,
                                   atol=1e-8)

    def test_empty_stream_rejected(self, skel40, cam1145, skel40_pose):
        with pytest.raises(SequenceError):
            track_sequence(skel40_pose, [], skel40, cam1145)

    def test_non_monotone_indices_rejected(self, skel40, cam1145,
                                           skel40_pose):
        f = render_frame(skel40, skel40_pose, cam1145, 0)
        with pytest.raises(SequenceError):
            track_sequence(skel40_pose, [f, f], skel40, cam1145)


class TestSerialization:
    def test_landmark_csv_round_trip(self):
        text = "frame,landmark_id,u,v,visible\n" \
               "0,0,10.5,20.5,1\n0,1,30.0,40.0,0\n1,0,11.0,21.0,true\n"
        frames = load_landmark_csv(text, n_landmarks=2)
        assert [f.frame_index for f in frames] == [0, 1]
        np.testing.assert_allclose(frames[0].uv[0], [10.5, 20.5])
        assert not frames[0].visible[1]
        assert frames[1].visible[0]
        assert not frames[1].visible[1]  # missing row -> invisible

    def test_landmark_csv_header_check(self):
        with pytest.raises(SequenceError, match="columns"):
            load_landmark_csv("a,b\n1,2\n", 2)
        with pytest.raises(SequenceError, match="no frames"):
            load_landmark_csv("frame,landmark_id,u,v,visible\n", 2)

    @pytest.mark.parametrize("row, message", [
        ("4,1,nan,20.5,1", "frame 4 landmark 1: u, v must be finite"),
        ("4,1,10.5,inf,1", "frame 4 landmark 1: u, v must be finite"),
        ("4,1,-inf,NaN,1", "frame 4 landmark 1: u, v must be finite"),
        ("4,1,abc,2.0,1", "line 3: could not convert string to float"),
        ("x,1,1.0,2.0,1", "line 3: invalid literal for int"),
        ("4,1,1.0", "line 3: could not convert string to float: ''"),
    ])
    def test_landmark_csv_number_check(self, row, message):
        text = f"frame,landmark_id,u,v,visible\n0,0,10.5,20.5,1\n{row}\n"
        with pytest.raises(SequenceError, match=message):
            load_landmark_csv(text, 2)

    def test_landmark_csv_range_check(self):
        text = "frame,landmark_id,u,v,visible\n0,9,0,0,1\n"
        with pytest.raises(SequenceError, match="range"):
            load_landmark_csv(text, 2)

    def test_pose_json_round_trip(self, skel40, skel40_pose):
        back = pose_from_json(pose_to_json(skel40_pose), 40)
        np.testing.assert_allclose(back.theta, skel40_pose.theta, atol=1e-12)
        np.testing.assert_allclose(back.camera_to_root.rotation,
                                   skel40_pose.camera_to_root.rotation)

    def test_pose_json_dof_check(self, skel40_pose):
        with pytest.raises(ValueError):
            pose_from_json(pose_to_json(skel40_pose), 12)

    @pytest.mark.parametrize("key, index, value, message", [
        ("theta_deg", 3, float("nan"), "pose must be finite"),
        ("rotation", 0, float("inf"), "pose must be finite"),
        ("translation", 2, None, "translation has 2 entries, expected 3"),
        ("rotation", 0, 2.0, "pose rotation is not a rotation matrix"),
    ])
    def test_pose_json_refuses_bad_numbers(self, skel40_pose, key, index,
                                           value, message):
        """A NaN angle would otherwise drop the landmarks below that joint
        from every system assembled at the pose, without a word."""
        obj = pose_to_json(skel40_pose)
        entries = obj[key] if key == "theta_deg" else obj["cameraToRoot"][key]
        if value is None:
            del entries[index]
        else:
            entries[index] = value
        with pytest.raises(InputError, match=message):
            pose_from_json(obj, 40)

    def test_pose_json_loads_rotation_written_to_6_decimals(self, skel40_pose):
        """Pose 7, its camera turned off the axes, with every number rounded
        to 6 decimals: the rotation is orthonormal only to about 1e-6, and
        loads as written."""
        turned = exp_twist_vector([0.0, 0.0, 0.0, 0.3, -0.5, 0.9]).compose(
            skel40_pose.camera_to_root)
        obj = pose_to_json(Pose(turned, skel40_pose.theta))
        obj["theta_deg"] = np.round(obj["theta_deg"], 6).tolist()
        for key, values in obj["cameraToRoot"].items():
            obj["cameraToRoot"][key] = np.round(values, 6).tolist()
        rotation = np.reshape(obj["cameraToRoot"]["rotation"], (3, 3))
        assert not RigidTransform(rotation, np.zeros(3)).is_valid(1e-10)
        back = pose_from_json(obj, 40)
        np.testing.assert_array_equal(back.camera_to_root.rotation, rotation)

    def test_frame_jsonl_reports_solve_outcome(self, skel40, cam1145,
                                               skel40_pose):
        state = make_initial_state(skel40, skel40_pose, cam1145)
        omega = np.zeros(40)
        omega[[12, 24]] = [3e-4, -2e-4]
        frame = render_frame(
            skel40, Pose(skel40_pose.camera_to_root, skel40_pose.theta + omega),
            cam1145, 0)
        solved_state, solved = step_frame(state, frame, skel40, cam1145, TIGHT)
        theta_deg = np.degrees(solved_state.pose.theta)
        rec = json.loads(frame_result_to_jsonl(solved, theta_deg))
        assert rec["theta_deg"] == theta_deg.tolist()
        assert rec["iterations"] == solved.iterations > 0
        assert rec["converged"] is True
        assert rec["termination"] == "converged"

        blind = LandmarkFrame(1, frame.uv, np.zeros(13, dtype=bool))
        _, skipped = step_frame(state, blind, skel40, cam1145, TIGHT)
        rec = json.loads(frame_result_to_jsonl(skipped, theta_deg))
        assert rec["skipped"] is True
        assert (rec["iterations"], rec["converged"], rec["termination"]) == (
            0, False, None)
