"""Exact-recovery certification.

The ambiguity null space is the set of articulated rate vectors whose
image-plane motion is indistinguishable from some rigid motion.  Exact l1
recovery relative to a support F holds iff every such vector carries
strictly less l1 mass on F than off F.  The check fixes the signs on F
(2^|F| patterns, halved by symmetry) and solves one small LP per pattern,
so a verdict is decided, not sampled: "holds" rests on the LP optima and
"fails" carries a counterexample.  The LPs go to HiGHS through the same
builder as solvers' basis pursuit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .camera import SystemMatrices, reduce_system
from .solvers import BudgetExceededError, SolverError, Support
# bound under this name because the benchmark's traced run wraps pksp.linprog
from .solvers import _highs_lp as linprog

_AMBIGUITY_TOL = 1e-9  # build_ambiguous_observation's membership and inequality slack


class InvalidCounterexampleError(ValueError):
    """Vector is not a valid ambiguity counterexample for the support."""


@dataclass(frozen=True)
class PkspVerdict:
    holds: bool
    margin: float  # min over ambiguity directions of (||v_off||_1 - ||v_on||_1), l1-normalized
    counterexample: np.ndarray | None


@dataclass(frozen=True)
class AmbiguousObservation:
    y: np.ndarray
    x_on: np.ndarray  # ground truth supported on F
    x_off: np.ndarray  # competing solution supported off F
    z_on: np.ndarray  # rigid vector paired with x_on
    z_off: np.ndarray  # rigid vector paired with x_off


def ambiguity_nullspace(A, B) -> np.ndarray:
    """d x k orthonormal basis of {w : B w in span(A)} = ker((I - QQ^T) B).

    An assembled system already holds it as system.reduction.null_space.
    """
    return reduce_system(A, B).null_space


def _support_indices(F: Support | tuple) -> np.ndarray:
    """Sorted distinct indices of a Support or of a tuple of DoF indices."""
    return np.asarray((F if isinstance(F, Support) else Support(F)).indices, dtype=int)


def _sign_pattern_lp(Z, on_idx, off_idx, signs):
    """Max of the normalized gap over ambiguity vectors with fixed signs on F.

    Variables: c (k coords in the basis), a_j, b_j >= 0 splitting the
    off-support entries.  Rows: (Zc)_j - a_j + b_j = 0 for j off F,
    sum_i s_i (Zc)_i + sum(a + b) = 1, and s_i (Zc)_i >= 0 on F.  With the
    l1 normalization fixed to 1, maximizing the gap is equivalent to
    minimizing the off-support mass sum(a + b); the optimum is 1 - 2 * min.
    Returns (value, v), or (-inf, None) if no ambiguity vector has these signs.
    """
    k, q, f = Z.shape[1], len(off_idx), len(on_idx)
    Z_on = signs[:, None] * Z[on_idx]
    A = np.block([
        [Z[off_idx], -np.eye(q), np.eye(q)],
        [Z_on.sum(axis=0)[None], np.ones((1, 2 * q))],
        [Z_on, np.zeros((f, 2 * q))],
    ])
    row_lo = np.r_[np.zeros(q), 1.0, np.zeros(f)]
    row_hi = np.r_[np.zeros(q), 1.0, np.full(f, np.inf)]
    cost = np.r_[np.zeros(k), np.ones(2 * q)]
    col_lo = np.r_[np.full(k, -np.inf), np.zeros(2 * q)]
    _, x, _, _ = linprog("sign-pattern", cost, A, row_lo, row_hi, col_lo, np.inf)
    if x is None:  # infeasible, the only other end of an LP with no iteration limit
        return -np.inf, None
    return 1.0 - 2.0 * float(np.sum(x[k:])), Z @ x[:k]


def check_pksp(Z: np.ndarray, F: Support | tuple) -> PkspVerdict:
    """Decide the exact-recovery property relative to support F.

    Z is a d x k orthonormal basis of the ambiguity null space
    (system.reduction.null_space or ambiguity_nullspace).  The check
    enumerates the 2^(|F|-1) sign patterns on F, for |F| <= 12, and is a
    proof either way.  An LP that ends with no result, or LPs that all
    report infeasible, raise SolverError.
    """
    d, k = Z.shape
    on_idx = _support_indices(F)
    if on_idx.size and (on_idx.min() < 0 or on_idx.max() >= d):
        raise ValueError("support indices out of range")
    if k == 0:
        return PkspVerdict(True, 1.0, None)
    f = on_idx.size
    if f > 12:
        raise BudgetExceededError(f"2^{f} sign patterns exceed the exact cap of 2^12")
    if f == 0:
        # F empty: gap = -1 for every nonzero ambiguity vector
        return PkspVerdict(True, 1.0, None)
    off_idx = np.delete(np.arange(d), on_idx)
    worst, worst_v = -np.inf, None
    # v -> -v symmetry: fix the first sign to +1
    for tail in itertools.product((1.0, -1.0), repeat=f - 1):
        value, v = _sign_pattern_lp(Z, on_idx, off_idx, np.array((1.0,) + tail))
        if value > worst:
            worst, worst_v = value, v
    if worst == -np.inf:
        # c = 0 with a = b = 1/(2q) is feasible when F misses a DoF, and a
        # nonzero vector of the subspace has some sign pattern when it does not
        raise SolverError("no sign-pattern LP was feasible")
    holds = worst < 0.0
    counter = None if holds else worst_v / np.sum(np.abs(worst_v))
    return PkspVerdict(holds, float(-worst), counter)


def check_pksp_order(Z: np.ndarray, s: int, budget: int = 2_000_000):
    """Decide the property for every support of size s, 0 <= s <= d.

    Z is the d x k ambiguity basis, as for check_pksp.  Returns (verdict,
    worst_support): every support of size s is checked with check_pksp and
    the one with the smallest margin (the first in lexicographic order on
    ties) is reported.  Refuses when comb(d, s) * 2^s exceeds budget.
    """
    d, k = Z.shape
    if not 0 <= s <= d:
        raise ValueError(f"order {s} outside 0..{d}")
    if s == 0 or k == 0:
        return PkspVerdict(True, 1.0, None), Support(())
    if math.comb(d, s) * 2**s > budget:
        raise BudgetExceededError(
            f"comb({d},{s}) * 2^{s} support/sign enumerations exceed budget {budget}"
        )
    worst_margin = np.inf
    for comb in itertools.combinations(range(d), s):
        verdict = check_pksp(Z, comb)
        if verdict.margin < worst_margin:
            worst_margin, worst_sup, worst_verdict = verdict.margin, comb, verdict
    return worst_verdict, Support(worst_sup)


def build_ambiguous_observation(
    sys: SystemMatrices, counterexample, F: Support | tuple
) -> AmbiguousObservation:
    """Instantiate the failure construction for a non-certified support.

    Splits the counterexample v into x = v_F and xbar = -v_Fbar and finds
    the rigid vector zbar with A zbar + B xbar = B x (z = 0), read from the
    system's reduction; the shared observation y demonstrates that l1
    minimization prefers the off-support decomposition whenever
    ||x||_1 >= ||xbar||_1.
    """
    v = np.asarray(counterexample, dtype=float)
    on_idx = _support_indices(F)
    nrm = np.sum(np.abs(v))
    if nrm == 0.0:
        raise InvalidCounterexampleError("counterexample is zero")
    Z = sys.reduction.null_space
    resid = v - Z @ (Z.T @ v)
    if np.linalg.norm(resid) > _AMBIGUITY_TOL * max(np.linalg.norm(v), 1.0) * 1e3:
        raise InvalidCounterexampleError("vector is not in the ambiguity subspace")
    on_mask = np.zeros(v.shape[0], dtype=bool)
    on_mask[on_idx] = True
    if np.sum(np.abs(v[on_mask])) < np.sum(np.abs(v[~on_mask])) - _AMBIGUITY_TOL:
        raise InvalidCounterexampleError("vector does not violate the support inequality")
    x_on = np.where(on_mask, v, 0.0)
    x_off = np.where(on_mask, 0.0, -v)
    # B v lies in span(A) by membership: A zbar = B v
    z_on = np.zeros(6)
    z_off = sys.reduction.rigid_rates(sys.B @ v)
    y = sys.B @ x_on
    gap = np.linalg.norm(sys.A @ z_off + sys.B @ x_off - y)
    if gap > _AMBIGUITY_TOL * max(np.linalg.norm(y), 1.0) * 1e3:
        raise InvalidCounterexampleError(
            f"decomposition mismatch {gap:.3g}; vector may not be ambiguous"
        )
    return AmbiguousObservation(y=y, x_on=x_on, x_off=x_off, z_on=z_on, z_off=z_off)
