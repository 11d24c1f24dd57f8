#!/usr/bin/env python3
"""Time the jitted kernels against their pure-numpy reference lane.

The package compiles its hot kernels with numba by default and falls back
to the plain implementations when SPARSEMOTION_NUMBA=0.  This script times
both lanes in one process by calling the jitted public functions and the
originals preserved in ``sparsemotion._kernels._IMPLS``.

Usage: python benchmarks/bench_kernels.py [--repeats 200]
"""

import argparse
import time

import numpy as np

from sparsemotion import _kernels
from sparsemotion.experiments import sample_pose
from sparsemotion.kinematics import default_skeleton


def timeit(fn, args, repeats):
    fn(*args)  # warmup (and jit compile for the numba lane)
    t0 = time.perf_counter()
    for _ in range(repeats):
        fn(*args)
    return (time.perf_counter() - t0) / repeats


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--repeats", type=int, default=200)
    args = parser.parse_args()

    skel = default_skeleton()
    rng = np.random.default_rng(0)
    pose = sample_pose(skel, rng)
    Rc = pose.camera_to_root.rotation
    tc = pose.camera_to_root.translation

    R, t = _kernels.fk_chain(skel.parents, skel.offsets, skel.axes, Rc, tc,
                             pose.theta)
    pts = _kernels.landmark_points(R, t, skel.lmk_joint, skel.lmk_local)

    cases = {
        "rotation_about_axis": (np.array([0.0, 0.0, 1.0]), 0.3),
        "fk_chain": (skel.parents, skel.offsets, skel.axes, Rc, tc,
                     pose.theta),
        "landmark_points": (R, t, skel.lmk_joint, skel.lmk_local),
        "articulated_jacobian": (R, t, skel.axes, skel.ancestry, pts),
    }

    lane = "numba" if _kernels.NUMBA_ENABLED else "numpy (fallback)"
    print(f"active lane: {lane}; repeats: {args.repeats}\n")
    print(f"{'kernel':<24}{'jitted (µs)':>14}{'reference (µs)':>17}"
          f"{'speedup':>10}")
    for name, case in cases.items():
        jit_fn = getattr(_kernels, name)
        ref_fn = _kernels._IMPLS[name]
        t_jit = timeit(jit_fn, case, args.repeats) * 1e6
        t_ref = timeit(ref_fn, case, args.repeats) * 1e6
        print(f"{name:<24}{t_jit:>14.1f}{t_ref:>17.1f}"
              f"{t_ref / t_jit:>9.1f}x")


if __name__ == "__main__":
    main()
