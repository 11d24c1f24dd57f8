"""Per-layer metrics of the traced run, computed from its spans.

Times are means over every span of a kind in the run. Counts that should
repeat exactly between runs of one seed are taken over the first
``count_window`` operations only, because how many operations fit in a
run depends on the machine. A layer that does no work on a workload
reports 0.
"""

from __future__ import annotations

import numpy as np

from tracing import ATTRS, NAME, SpanTree

OP, BATCH, PREP, SETUP = "bench.op", "bench.batch", "bench.prep", "bench.setup"

FACTORIZATIONS = ("numpy.linalg.svd", "numpy.linalg.lstsq", "numpy.linalg.pinv")
ASSEMBLY_AND_SOLVE = ("camera.assemble_system", "solvers.solve_rf", "solvers.solve_l2")


# values kept with a span, computed from the call's result
ANNOTATE = {"solvers.solve_rf": lambda result: [result[1].iterations, result[1].converged]}


def _mean(values) -> float:
    return float(np.mean(values)) if len(values) else 0.0


def _per(count, base) -> float:
    return count / base if base else 0.0


def per_layer_metrics(spans, count_window: int) -> dict[str, float]:
    tree = SpanTree(spans)
    dur, own = tree.duration, tree.self_time
    idx = tree.indices
    op_of = tree.enclosing({OP})
    counted_ops = set(idx(OP)[:count_window])
    in_window = [op_of[i] in counted_ops for i in range(len(spans))]
    in_order2 = [p >= 0 for p in tree.enclosing({"pksp.check_pksp_order"})]
    in_asm_solve = [p >= 0 for p in tree.enclosing(set(ASSEMBLY_AND_SOLVE))]
    n_window = len(counted_ops)

    fk = idx("kinematics.fk_arrays")
    rf = [i for i in idx("solvers.solve_rf") if spans[i][ATTRS]]  # calls that returned
    rf_window = [i for i in rf if in_window[i]]
    rf_iters = sum(spans[i][ATTRS][0] for i in rf)
    factorizations = [
        i for i, s in enumerate(spans) if s[NAME] in FACTORIZATIONS and in_asm_solve[i] and in_window[i]
    ]
    singles = [i for i in idx("pksp.check_pksp") if not in_order2[i]]
    lps = idx("pksp.linprog")
    order2 = idx("pksp.check_pksp_order")
    frames = idx("tracker.step_frame")
    trials = idx("experiments.run_trial")
    ms, us = 1e-6, 1e-3
    return {
        "kinematics.fk_calls_per_op": _per(sum(in_window[i] for i in fk), n_window),
        "kinematics.fk_us": _mean([dur[i] for i in fk]) * us,
        "kinematics.jacobian_self_us": _mean([own[i] for i in idx("kinematics.articulated_jacobian")]) * us,
        "camera.assemble_ms": _mean([dur[i] for i in idx("camera.assemble_system")]) * ms,
        "camera.assemble_self_ms": _mean([own[i] for i in idx("camera.assemble_system")]) * ms,
        "solvers.factorizations_per_frame": _per(len(factorizations), n_window),
        "solvers.solve_rf_ms": _mean([dur[i] for i in rf]) * ms,
        "solvers.rf_iterations": _mean([spans[i][ATTRS][0] for i in rf_window]),
        "solvers.rf_us_per_iteration": _per(sum(own[i] for i in rf), rf_iters) * us,
        "solvers.rf_max_iter_stops": float(sum(not spans[i][ATTRS][1] for i in rf_window)),
        "solvers.solve_l2_ms": _mean([dur[i] for i in idx("solvers.solve_l2")]) * ms,
        "pksp.nullspace_ms": _mean([dur[i] for i in idx("pksp.ambiguity_nullspace")]) * ms,
        "pksp.lps_per_support": _per(sum(not in_order2[i] for i in lps), len(singles)),
        "pksp.lp_ms": _mean([dur[i] for i in lps]) * ms,
        "pksp.order2_supports_checked": _per(sum(in_order2[i] for i in idx("pksp.check_pksp")), len(order2)),
        "pksp.order2_lps": _per(sum(in_order2[i] for i in lps), len(order2)),
        "tracker.step_frame_self_ms": _mean(
            [dur[i] - tree.child_time(i, ASSEMBLY_AND_SOLVE) for i in frames]
        ) * ms,
        "tracker.reproj_us": _mean([dur[i] for i in idx("tracker.reprojection_error")]) * us,
        "experiments.trial_ms_p50": float(np.median([dur[i] for i in trials])) * ms if trials else 0.0,
        "experiments.trial_self_ms": _mean(
            [dur[i] - tree.child_time(i, ASSEMBLY_AND_SOLVE) for i in trials]
        ) * ms,
    }


UNITS = {
    "kinematics.fk_calls_per_op": "count",
    "kinematics.fk_us": "us",
    "kinematics.jacobian_self_us": "us",
    "camera.assemble_ms": "ms",
    "camera.assemble_self_ms": "ms",
    "solvers.factorizations_per_frame": "count",
    "solvers.solve_rf_ms": "ms",
    "solvers.rf_iterations": "count",
    "solvers.rf_us_per_iteration": "us",
    "solvers.rf_max_iter_stops": "count",
    "solvers.solve_l2_ms": "ms",
    "pksp.nullspace_ms": "ms",
    "pksp.lps_per_support": "count",
    "pksp.lp_ms": "ms",
    "pksp.order2_supports_checked": "count",
    "pksp.order2_lps": "count",
    "tracker.step_frame_self_ms": "ms",
    "tracker.reproj_us": "us",
    "experiments.trial_ms_p50": "ms",
    "experiments.trial_self_ms": "ms",
}
