"""The four workloads: inputs made from the seed, the closed loop that times
the calls into the program, and the checks of every output.

Each workload has ``setup(seed)``, which makes the inputs; ``run(state,
seconds, ops)``, which repeats whole rounds of operations until the time
is up, one call at a time; and ``check(state, out)``, which returns a list
of problems found in the outputs. Checks compare against ``reference``
(computed apart from the program) or against properties the method must
have, never against stored output.
"""

from __future__ import annotations

import math
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

import reference as ref
from layers import BATCH, OP, PREP
from sparsemotion import camera, experiments, kinematics, pksp, solvers, tracker

OMEGA_MAX = math.radians(5.0)  # the +-5 deg box of the boxed solves
EPSILON = 1e-4  # rad, support threshold of the synthetic benchmark
SIZES = range(1, 7)  # support sizes of the sweeps and of certification
CAMERA = camera.CameraModel(focal=1145.0)


def rng_for(seed, *path):
    return np.random.default_rng(np.random.SeedSequence([seed, *path]))


def seed_for(seed, *path) -> int:
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


class Ops:
    """Times each call of the closed loop, by kind: "op" is a counted
    operation, "batch" a whole-batch call, "prep" work the operations wait
    for. In the traced run each call also gets a span."""

    SPANS = {"op": OP, "batch": BATCH, "prep": PREP}

    def __init__(self, tracer=None):
        self.times = {"op": [], "batch": [], "prep": []}
        self.failures: list[str] = []
        self._tracer = tracer

    def call(self, fn, *args, kind="op", **kwargs):
        """fn's result, or None when it raised (the traceback is kept)."""
        span = self._tracer.span(self.SPANS[kind]) if self._tracer else nullcontext()
        result = None
        with span:
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:  # one failed call is counted; the loop goes on
                self.failures.append(traceback.format_exc())
            self.times[kind].append(time.perf_counter() - t0)
        return result

    @property
    def attempted(self) -> int:
        return len(self.times["op"]) + len(self.times["batch"])


def rounds_for(seconds):
    """Round numbers 0, 1, ... until seconds have passed; a round that has
    started runs to its end, and there is always at least one."""
    end = time.perf_counter() + seconds
    r = 0
    while True:
        yield r
        r += 1
        if time.perf_counter() >= end:
            return


# ---------------------------------------------------------------- track


@dataclass
class Clip:
    pose0: kinematics.Pose
    frames: list
    truth: list  # ground-truth theta after each frame


class Track:
    """Noiseless closed-loop tracking with the box on, one frame per
    operation. Each clip starts at its own sampled pose and moves by small
    certified 2-sparse joint steps, as in acceptance criterion 8; a round
    tracks one clip from its first frame.

    ADMM's iteration count depends mostly on the step's support, so every
    frame of every clip gets a support of its own: the run then samples as
    many distinct solves as it tracks frames."""

    name = "track"
    count_window = 24
    CLIPS, FRAMES = 20, 8
    OPTS = tracker.TrackOptions(
        solve=solvers.SolveOptions(
            max_iter=20000, primal_tol=1e-10, dual_tol=1e-10, omega_max=OMEGA_MAX, box_enabled=True
        )
    )
    THETA_TOL = 1e-3  # rad, final pose against the generator's truth
    REPROJ_PX = 1e-3  # noiseless frames reproject to (near) zero error

    def setup(self, seed):
        skel = kinematics.default_skeleton()
        rng = rng_for(seed, 1)
        return seed, skel, [self._clip(skel, rng) for _ in range(self.CLIPS)]

    def _clip(self, skel, rng) -> Clip:
        pose0 = experiments.sample_pose(skel, rng)
        sys0 = camera.assemble_system(skel, pose0, CAMERA)
        basis = pksp.ambiguity_nullspace(sys0.A, sys0.B)
        pairs = []
        while len(pairs) < self.FRAMES:
            F = tuple(sorted(rng.choice(np.arange(3, skel.dof), size=2, replace=False).tolist()))
            if F not in pairs and pksp.check_pksp(basis, F).holds:
                pairs.append(F)
        Tc = pose0.camera_to_root
        theta = pose0.theta.copy()
        frames, truth = [], []
        for k in range(self.FRAMES):
            step = np.zeros(skel.dof)
            step[list(pairs[k])] = rng.uniform(1e-4, 5e-4, 2) * rng.choice([-1.0, 1.0], 2)
            theta = np.clip(theta + step, skel.bounds_min, skel.bounds_max)
            truth.append(theta)
            pts = ref.landmark_points(skel, Tc.rotation, Tc.translation, theta)
            uv = ref.pixels(pts, CAMERA.focal, CAMERA.principal)
            frames.append(tracker.LandmarkFrame(k, uv, np.ones(skel.n_landmarks, dtype=bool)))
        return Clip(pose0, frames, truth)

    def run(self, state, seconds, ops):
        _, skel, clips = state
        out = []  # (clip index, clip seconds, [(frame index, result, pose)])
        for c in rounds_for(seconds):
            clip = clips[c % len(clips)]
            t0 = time.perf_counter()
            st = tracker.make_initial_state(skel, clip.pose0, CAMERA, -1)
            steps = []
            for k, frame in enumerate(clip.frames):
                step = ops.call(tracker.step_frame, st, frame, skel, CAMERA, self.OPTS)
                if step is not None:
                    st, result = step
                    steps.append((k, result, st.pose))
            out.append((c % len(clips), time.perf_counter() - t0, steps))
        return out

    def batch_seconds(self, out, ops):
        return [secs for _, secs, _ in out]

    def check(self, state, out):
        _, skel, clips = state
        problems = []
        for c, _, steps in out:
            clip = clips[c]
            for k, result, pose in steps:
                where = f"clip {c} frame {k}"
                if result.skipped or result.reinit:
                    problems.append(f"{where}: skipped={result.skipped} reinit={result.reinit}")
                T = pose.camera_to_root
                pts = ref.landmark_points(skel, T.rotation, T.translation, pose.theta)
                err = np.max(np.linalg.norm(ref.pixels(pts, CAMERA.focal, CAMERA.principal) - clip.frames[k].uv, axis=1))
                if not err <= self.REPROJ_PX or not result.reproj_err_px <= self.REPROJ_PX:
                    problems.append(
                        f"{where}: reprojection error {err:.2e} px (program says "
                        f"{result.reproj_err_px:.2e}), limit {self.REPROJ_PX}"
                    )
            if len(steps) == len(clip.frames):
                err = np.max(np.abs(steps[-1][2].theta - clip.truth[-1]))
                if not err <= self.THETA_TOL:
                    problems.append(f"clip {c}: final theta error {err:.2e} rad > {self.THETA_TOL}")
        return problems


# ---------------------------------------------------------------- sweeps


class Capture:
    """Keeps the arguments and results of calls made through the named
    bindings of a module. run_sweep returns scores only; the capture gives
    the checks the planted motion, the system and every estimate."""

    def __init__(self, module, names):
        self.calls: list[tuple] = []
        self._module = module
        self._saved = {name: getattr(module, name) for name in names}
        for name, fn in self._saved.items():
            setattr(module, name, self._keep(name, fn))

    def _keep(self, name, fn):
        def keep(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.calls.append((name, args, kwargs, result))
            return result

        return keep

    def take(self) -> dict:
        calls, self.calls = self.calls, []
        return {name: (args, kwargs, result) for name, args, kwargs, result in calls}

    def close(self):
        for name, fn in self._saved.items():
            setattr(self._module, name, fn)


@dataclass
class SweepOut:
    """What the checks keep of a sweep run. Trials are checked as they
    finish, so memory does not grow with the number of trials."""

    round_seconds: list = field(default_factory=list)
    problems: list = field(default_factory=list)
    specificity: dict = field(default_factory=lambda: {"rf": [], "l2": []})  # at s = 3
    accuracy: dict = field(default_factory=dict)  # rf, by noise
    # misses without a witness, settled by pksp after the run:
    # (where, A, B, support, error)
    unsettled: list = field(default_factory=list)


class Sweep:
    """Synthetic sweep trials through experiments.run_sweep with solvers rf
    and l2 and the box on, one trial per operation, over sampled poses and
    support sizes 1-6. Noiseless, a round is one trial of each size. Noisy,
    a round is one support size at 1 px and at 2 px with the same motion
    and noise direction, so that the accuracy trend is compared in pairs."""

    POSES = 64  # the share of trials that run to max_iter varies by pose
    RF_SPEC = 0.95  # criterion 6, at s = 3
    L2_SPEC = 0.2
    RECOVERY_TOL = 1e-6  # criterion 3
    TREND_STEP = 0.02  # criterion 7

    def __init__(self, name, noisy):
        self.name = name
        self.noisy = noisy
        self.count_window = 8 if noisy else 60

    def setup(self, seed):
        skel = kinematics.default_skeleton()
        rng = rng_for(seed, 2)
        return seed, skel, [experiments.sample_pose(skel, rng) for _ in range(self.POSES)]

    def plan(self, seed, r):
        """The trials of round r: (pose, support size, noise px, trial seed)."""
        p = r % self.POSES
        if self.noisy:
            s = SIZES[r % len(SIZES)]
            trial_seed = seed_for(seed, 3, r)
            return [(p, s, 1.0, trial_seed), (p, s, 2.0, trial_seed)]
        return [(p, s, 0.0, seed_for(seed, 3, r, s)) for s in SIZES]

    def run(self, state, seconds, ops):
        seed, skel, poses = state
        out = SweepOut()
        capture = Capture(experiments, ("synthesize_observation", "solve_rf", "solve_l2"))
        try:
            for r in rounds_for(seconds):
                t0 = time.perf_counter()
                for p, s, delta, trial_seed in self.plan(seed, r):
                    where = f"round {r} (pose {p}, s {s}, delta {delta})"
                    self.trial(ops, capture, out, where, skel, poses[p], s, delta, trial_seed)
                out.round_seconds.append(time.perf_counter() - t0)
        finally:
            capture.close()
        return out

    def trial(self, ops, capture, out, where, skel, pose, s, delta, trial_seed):
        """One timed single-trial sweep, checked as soon as it returns."""
        res = ops.call(experiments.run_sweep, skel, [pose], CAMERA, [(s, delta)], 1, trial_seed)
        calls = capture.take()
        if res is None:
            return
        errors = [rec["error"] for rec in res[1] if "error" in rec]
        if errors:
            ops.failures.append(f"{where}: run_sweep recorded {errors}")
            return
        self._check_trial(out, where, s, delta, res[1], calls)

    def batch_seconds(self, out, ops):
        return out.round_seconds

    def _check_trial(self, out, where, s, delta, records, calls):
        synth_args, synth_kwargs, _ = calls["synthesize_observation"]
        truth, sys_ = synth_args[2], synth_kwargs["sys"]
        estimates = {"rf": calls["solve_rf"][2][0], "l2": calls["solve_l2"][2]}
        if np.count_nonzero(truth.omega) != s:
            out.problems.append(f"{where}: planted support has {np.count_nonzero(truth.omega)} entries")
        scores = {rec["solver"]: rec for rec in records}
        for name, est in estimates.items():
            accuracy, specificity = ref.support_rates(est.omega, truth.omega, EPSILON)
            mine = (
                np.max(np.abs(est.omega - truth.omega)),
                np.max(np.abs(est.rho - truth.rho)),
                accuracy,
                specificity,
            )
            theirs = tuple(scores[name][k] for k in ("omega_err_inf", "rho_err_inf", "accuracy", "specificity"))
            if not np.allclose(mine, theirs, rtol=1e-12, atol=1e-15):
                out.problems.append(f"{where}: {name} scores {theirs} differ from recomputed {mine}")
            if s == 3:
                out.specificity[name].append(specificity)
            if name == "rf":
                out.accuracy.setdefault(delta, []).append(accuracy)
        rf = estimates["rf"]
        if not np.max(np.abs(rf.omega)) <= OMEGA_MAX * (1 + 1e-12):
            out.problems.append(f"{where}: rf estimate leaves the box, max |w| {np.max(np.abs(rf.omega)):.4e}")
        if self.noisy:
            return
        # Exact recovery on every certified support (criterion 3). A trial
        # that misses the planted motion must show that its support is not
        # certified: the miss itself is a witness when it is an ambiguity
        # direction with at least half its l1 mass on the support; else
        # pksp's exact check has to say "fails", after the run.
        err = max(np.max(np.abs(rf.omega - truth.omega)), np.max(np.abs(rf.rho - truth.rho)))
        F = tuple(int(i) for i in np.flatnonzero(truth.omega))
        if err > self.RECOVERY_TOL and ref.witness_problem(sys_.A, sys_.B, rf.omega - truth.omega, F):
            out.unsettled.append((where, sys_.A, sys_.B, F, err))

    def check(self, state, out):
        problems = list(out.problems)
        for where, A, B, F, err in out.unsettled:
            verdict = pksp.check_pksp(pksp.ambiguity_nullspace(A, B), F)
            if verdict.holds:
                problems.append(f"{where}: certified support {F} missed by {err:.2e} > {self.RECOVERY_TOL}")
            else:
                problem = ref.witness_problem(A, B, verdict.counterexample, F)
                if problem:
                    problems.append(f"{where}: pksp counterexample for {F}: {problem}")
        mean = {k: float(np.mean(v)) for k, v in out.accuracy.items()}
        if self.noisy:
            rise = mean.get(2.0, 0.0) - mean.get(1.0, 0.0)
            if not rise <= self.TREND_STEP:
                problems.append(f"rf accuracy rises by {rise:.3f} from 1 px to 2 px (limit {self.TREND_STEP})")
        elif out.specificity["rf"]:
            rf, l2 = (float(np.mean(out.specificity[k])) for k in ("rf", "l2"))
            if not (rf >= self.RF_SPEC and l2 <= self.L2_SPEC):
                problems.append(f"s=3 specificity rf {rf:.3f} (>= {self.RF_SPEC}), l2 {l2:.3f} (<= {self.L2_SPEC})")
        return problems


# ---------------------------------------------------------------- certify


@dataclass
class Verdict:
    pose: int
    F: tuple
    sys: camera.SystemMatrices
    verdict: pksp.PkspVerdict


class Certify:
    """Exact PKSP certification on the 40-DoF skeleton. One full order-2
    check (the batch call) at the first pose, then rounds of single
    supports, one verdict per operation: a round assembles the system and
    its ambiguity null space at the next pose and checks one random
    support of each size 1-6."""

    name = "certify"
    count_window = 12
    POSES = 32
    ORDER = 2

    def setup(self, seed):
        skel = kinematics.default_skeleton()
        rng = rng_for(seed, 4)
        return seed, skel, [experiments.sample_pose(skel, rng) for _ in range(self.POSES)]

    @staticmethod
    def _prepare(skel, pose):
        sys_ = camera.assemble_system(skel, pose, CAMERA)
        return sys_, pksp.ambiguity_nullspace(sys_.A, sys_.B)

    def _order2(self, skel, pose):
        sys_, basis = self._prepare(skel, pose)
        verdict, worst = pksp.check_pksp_order(basis, self.ORDER)
        return Verdict(0, worst.indices, sys_, verdict)

    def run(self, state, seconds, ops):
        seed, skel, poses = state
        verdicts = []
        start = time.perf_counter()
        order2 = ops.call(self._order2, skel, poses[0], kind="batch")
        for r in rounds_for(seconds - (time.perf_counter() - start)):
            p = r % self.POSES
            rng = rng_for(seed, 5, r)
            supports = [tuple(sorted(rng.choice(skel.dof, size=s, replace=False).tolist())) for s in SIZES]
            prepared = ops.call(self._prepare, skel, poses[p], kind="prep")
            if prepared is not None:
                sys_, basis = prepared
                for F in supports:
                    v = ops.call(pksp.check_pksp, basis, F)
                    if v is not None:
                        verdicts.append(Verdict(p, F, sys_, v))
        return order2, verdicts

    def batch_seconds(self, out, ops):
        return ops.times["batch"]

    def check(self, state, out):
        seed = state[0]
        order2, verdicts = out
        rng = rng_for(seed, 6)
        problems = []
        for v in ([order2] if order2 else []) + verdicts:
            where = f"pose {v.pose} support {v.F}"
            if v.verdict.holds:
                problem = ref.holds_problem(v.sys.A, v.sys.B, v.F, rng)
            elif v.verdict.counterexample is None:
                problem = "'fails' verdict without a counterexample"
            else:
                problem = ref.witness_problem(v.sys.A, v.sys.B, v.verdict.counterexample, v.F)
            if problem:
                problems.append(f"{where}: {problem}")
        return problems


WORKLOADS = {
    "track": Track(),
    "sweep-exact": Sweep("sweep-exact", noisy=False),
    "sweep-noisy": Sweep("sweep-noisy", noisy=True),
    "certify": Certify(),
}
