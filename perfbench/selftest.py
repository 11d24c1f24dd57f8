#!/usr/bin/env python3
"""Self-tests of the benchmark's correctness checks.

Each check must pass the program's real output and reject a planted wrong
answer: a perturbed omega (tracking and exact recovery), an estimate
outside the box, a counterexample moved out of the ambiguity space, and a
"holds" verdict on a support that fails. Run from the repository root:

    python3 perfbench/selftest.py

Exit code 0 when every check behaves, 1 otherwise.
"""

import math
import sys
from dataclasses import replace

from run import require_program

require_program()

import numpy as np  # noqa: E402

import workloads as wl  # noqa: E402
from sparsemotion import camera, experiments, pksp, solvers  # noqa: E402

SEED = 7
results = []


def expect(name, problems, should_fail):
    ok = bool(problems) == should_fail
    results.append(ok)
    verdict = "rejected" if problems else "accepted"
    print(f"{'ok  ' if ok else 'FAIL'} {name}: {verdict}" + (f" ({problems[0]})" if problems else ""))


def track_cases():
    track = wl.Track()
    state = track.setup(SEED)
    out = track.run(state, 1e-9, wl.Ops())  # one whole clip
    expect("track, real output", track.check(state, out), False)
    c, secs, steps = out[0]
    k, result, pose = steps[-1]
    theta = pose.theta.copy()
    theta[10] += 2e-3
    wrong = [(c, secs, steps[:-1] + [(k, result, replace(pose, theta=theta))])]
    expect("track, last frame's omega off by 2e-3 rad", track.check(state, wrong), True)


class Perturb:
    """Replaces experiments.solve_rf by a version whose omega is moved."""

    def __init__(self, change):
        self.fn = experiments.solve_rf

        def perturbed(*args, **kwargs):
            motion, stats = self.fn(*args, **kwargs)
            return solvers.DifferentialMotion(motion.rho, change(motion.omega.copy())), stats

        experiments.solve_rf = perturbed

    def close(self):
        experiments.solve_rf = self.fn


def certified_trial(skel, pose):
    """A single-support noiseless trial seed whose planted support pksp certifies."""
    sys_ = camera.assemble_system(skel, pose, wl.CAMERA)
    basis = pksp.ambiguity_nullspace(sys_.A, sys_.B)
    for trial_seed in range(100):
        rng = np.random.default_rng((trial_seed, 0, 0))
        motion = experiments.gen_sparse_motion(skel, pose, 1, rng, experiments.TrialConfig(1, 0.0))
        if pksp.check_pksp(basis, tuple(np.flatnonzero(motion.omega))).holds:
            return trial_seed
    raise RuntimeError("no certified single support found")


def sweep_cases():
    sweep = wl.Sweep("sweep-exact", noisy=False)
    _, skel, poses = sweep.setup(SEED)
    trial_seed = certified_trial(skel, poses[0])

    def one_trial(change=None):
        perturb = Perturb(change) if change else None
        capture = wl.Capture(experiments, ("synthesize_observation", "solve_rf", "solve_l2"))
        out = wl.SweepOut()
        try:
            sweep.trial(wl.Ops(), capture, out, "trial", skel, poses[0], 1, 0.0, trial_seed)
        finally:
            capture.close()
            if perturb:
                perturb.close()
        return sweep.check(None, out)

    def nudge(w):
        w[np.argmax(np.abs(w))] += 1e-3
        return w

    def leave_box(w):
        w[np.argmin(np.abs(w))] = math.radians(6.0)
        return w

    expect("sweep-exact, real output on a certified support", one_trial(), False)
    expect("sweep-exact, omega perturbed by 1e-3 rad", one_trial(nudge), True)
    expect("sweep, rf estimate outside the +-5 deg box", one_trial(leave_box), True)


def certify_cases():
    certify = wl.Certify()
    state = certify.setup(SEED)
    _, skel, poses = state
    sys_ = camera.assemble_system(skel, poses[0], wl.CAMERA)
    basis = pksp.ambiguity_nullspace(sys_.A, sys_.B)
    failing = (0, 17)  # DoF 0 moves the root like a rigid motion: always ambiguous
    fails = pksp.check_pksp(basis, failing)
    holding = next(F for F in ((i,) for i in range(3, skel.dof)) if pksp.check_pksp(basis, F).holds)
    holds = pksp.check_pksp(basis, holding)
    fails_v = wl.Verdict(0, failing, sys_, fails)
    holds_v = wl.Verdict(0, holding, sys_, holds)
    expect("certify, real 'fails' and 'holds' verdicts", certify.check(state, (None, [fails_v, holds_v])), False)
    moved = fails.counterexample + 1e-3 * np.random.default_rng(0).standard_normal(skel.dof)
    wrong = wl.Verdict(0, failing, sys_, replace(fails, counterexample=moved))
    expect("certify, counterexample moved out of the ambiguity space", certify.check(state, (None, [wrong])), True)
    wrong = wl.Verdict(0, failing, sys_, replace(fails, holds=True, counterexample=None))
    expect("certify, 'holds' verdict on a failing support", certify.check(state, (None, [wrong])), True)


def main():
    track_cases()
    sweep_cases()
    certify_cases()
    print(f"{sum(results)}/{len(results)} checks behave")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
