"""Exact-recovery certification.

The ambiguity null space is the set of articulated rate vectors whose
image-plane motion is indistinguishable from some rigid motion.  Exact l1
recovery relative to a support F holds iff every such vector carries
strictly less l1 mass on F than off F.  The exact check fixes the signs on
F (2^|F| patterns, halved by symmetry) and solves one small LP per pattern;
the randomized check samples the ambiguity subspace and can only falsify.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from .camera import RANK_TOL, reduce_system
from .solvers import Support


class BudgetExceededError(ValueError):
    """Exact enumeration too large for the requested budget."""


class LpFailureError(RuntimeError):
    """The LP solver failed on a sign-pattern subproblem."""


class InvalidCounterexampleError(ValueError):
    """Vector is not a valid ambiguity counterexample for the support."""


@dataclass(frozen=True)
class AmbiguityBasis:
    Z: np.ndarray  # d x k, orthonormal columns spanning ker(Pperp @ B)
    rank_warning: bool = False  # singular values near the rank threshold

    @property
    def dim(self) -> int:
        return self.Z.shape[1]

    @property
    def d(self) -> int:
        return self.Z.shape[0]


@dataclass(frozen=True)
class PkspVerdict:
    holds: bool
    margin: float  # min over ambiguity directions of (||v_off||_1 - ||v_on||_1), l1-normalized
    counterexample: np.ndarray | None
    mode: str  # "exact" | "randomized"
    rank_warning: bool = False


@dataclass(frozen=True)
class AmbiguousObservation:
    y: np.ndarray
    x_on: np.ndarray  # ground truth supported on F
    x_off: np.ndarray  # competing solution supported off F
    z_on: np.ndarray  # rigid vector paired with x_on
    z_off: np.ndarray  # rigid vector paired with x_off


def ambiguity_nullspace(A, B, rank_tol: float = RANK_TOL) -> AmbiguityBasis:
    """Orthonormal basis of {w : B w in span(A)} = ker((I - QQ^T) B)."""
    red = reduce_system(A, B, rank_tol)
    return AmbiguityBasis(Z=np.ascontiguousarray(red.null_space), rank_warning=red.rank_warning)


def _normalized_gap(v, on_mask) -> float:
    """(||v_F||_1 - ||v_Fbar||_1) / ||v||_1; positive means violation."""
    a = np.abs(v)
    tot = a.sum()
    if tot == 0.0:
        return -1.0
    on = a[on_mask].sum()
    return (2.0 * on - tot) / tot


def _sign_pattern_lp(Z, on_idx, off_idx, signs):
    """Max of the normalized gap over ambiguity vectors with fixed signs on F.

    Variables: c (k coords in the basis), a_j, b_j >= 0 splitting the
    off-support entries.  With the l1 normalization fixed to 1, maximizing
    the gap is equivalent to minimizing the off-support mass sum(a + b);
    the optimum is 1 - 2 * min.  Returns (value, v) or None if no ambiguity
    vector has this sign pattern.
    """
    k = Z.shape[1]
    f = len(on_idx)
    q = len(off_idx)
    nvar = k + 2 * q
    c_obj = np.zeros(nvar)
    c_obj[k:] = 1.0
    # equalities: (Zc)_j - a_j + b_j = 0 for j off F; sum_i s_i (Zc)_i + sum(a+b) = 1
    A_eq = np.zeros((q + 1, nvar))
    b_eq = np.zeros(q + 1)
    A_eq[:q, :k] = Z[off_idx]
    A_eq[np.arange(q), k + np.arange(q)] = -1.0
    A_eq[np.arange(q), k + q + np.arange(q)] = 1.0
    A_eq[q, :k] = signs @ Z[on_idx]
    A_eq[q, k:] = 1.0
    b_eq[q] = 1.0
    # inequalities: -s_i (Zc)_i <= 0 on F
    if f:
        A_ub = np.zeros((f, nvar))
        A_ub[:, :k] = -(signs[:, None] * Z[on_idx])
        b_ub = np.zeros(f)
    else:
        A_ub = None
        b_ub = None
    bounds = [(None, None)] * k + [(0, None)] * (2 * q)
    res = linprog(
        c_obj, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq, bounds=bounds, method="highs"
    )
    if res.status == 2:  # infeasible: no such sign pattern in the subspace
        return None
    if not res.success:
        raise LpFailureError(f"LP failed: {res.message}")
    value = 1.0 - 2.0 * res.fun
    v = Z @ res.x[:k]
    return value, v


def check_pksp(
    basis: AmbiguityBasis,
    F: Support | tuple,
    mode: str = "exact",
    budget: int = 4096,
    rng=None,
) -> PkspVerdict:
    """Decide the exact-recovery property relative to support F.

    Exact mode enumerates sign patterns on F (requires 2^|F| <= budget,
    capped at 4096) and is a proof either way.  Randomized mode samples the
    ambiguity subspace with sign-flip local ascent; it can certify failure
    (counterexample) but "holds" only means "not falsified".
    """
    on_idx = np.asarray(
        F.indices if isinstance(F, Support) else sorted(set(int(i) for i in F)),
        dtype=int,
    )
    d = basis.d
    if on_idx.size and (on_idx.min() < 0 or on_idx.max() >= d):
        raise ValueError("support indices out of range")
    if basis.dim == 0:
        return PkspVerdict(True, 1.0, None, mode, basis.rank_warning)
    on_mask = np.zeros(d, dtype=bool)
    on_mask[on_idx] = True
    off_idx = np.flatnonzero(~on_mask)
    Z = basis.Z

    if mode == "exact":
        f = on_idx.size
        if f > 12 or 2**f > max(budget, 4096):
            raise BudgetExceededError(f"2^{f} sign patterns exceed the exact budget")
        if f == 0:
            # F empty: gap = -1 for every nonzero ambiguity vector
            return PkspVerdict(True, 1.0, None, mode, basis.rank_warning)
        worst = -np.inf
        worst_v = None
        # v -> -v symmetry: fix the first sign to +1
        for tail in itertools.product((1.0, -1.0), repeat=f - 1):
            signs = np.array((1.0,) + tail)
            out = _sign_pattern_lp(Z, on_idx, off_idx, signs)
            if out is None:
                continue
            value, v = out
            if value > worst:
                worst, worst_v = value, v
        if worst == -np.inf:
            # subspace meets no sign pattern nontrivially (Z rows on F all zero
            # and normalization infeasible); treat as vacuous
            return PkspVerdict(True, 1.0, None, mode, basis.rank_warning)
        holds = worst < 0.0
        margin = -worst
        counter = None
        if not holds:
            counter = worst_v / np.sum(np.abs(worst_v))
        return PkspVerdict(holds, float(margin), counter, mode, basis.rank_warning)

    if mode == "randomized":
        rng = np.random.default_rng(0) if rng is None else rng
        best = -np.inf
        best_v = None
        for _ in range(max(budget, 1)):
            v = Z @ rng.standard_normal(basis.dim)
            nrm = np.sum(np.abs(v))
            if nrm == 0.0:
                continue
            v /= nrm
            g = _normalized_gap(v, on_mask)
            if g > best:
                best, best_v = g, v
        if best_v is not None:
            best_v, best = _local_ascent(Z, best_v, on_mask)
        holds = best < 0.0
        counter = None if holds else best_v
        return PkspVerdict(holds, float(-best), counter, mode, basis.rank_warning)

    raise ValueError(f"unknown mode {mode!r}")


def _local_ascent(Z, v, on_mask, steps: int = 200, step0: float = 0.5):
    """Projected subgradient ascent on the normalized gap within range(Z)."""
    c = Z.T @ v
    best = _normalized_gap(Z @ c, on_mask)
    step = step0
    for _ in range(steps):
        v = Z @ c
        g = np.sign(v)
        g[~on_mask] *= -1.0
        dirc = Z.T @ g
        nd = np.linalg.norm(dirc)
        if nd == 0.0:
            break
        cand = c + step * dirc / nd * np.linalg.norm(c)
        vc = Z @ cand
        nrm = np.sum(np.abs(vc))
        if nrm == 0.0:
            step *= 0.5
            continue
        gc = _normalized_gap(vc, on_mask)
        if gc > best:
            best, c = gc, cand
        else:
            step *= 0.7
            if step < 1e-6:
                break
    v = Z @ c
    return v / np.sum(np.abs(v)), best


def check_pksp_order(
    basis: AmbiguityBasis,
    s: int,
    mode: str = "exact",
    budget: int = 2_000_000,
    rng=None,
):
    """Decide the property for every support of size s.

    Returns (verdict, worst_support).  Exact mode enumerates all supports;
    for a one-dimensional ambiguity space the per-support gap is computed
    directly from the single extreme ray (the worst support is the s
    largest-magnitude coordinates), skipping the LPs.
    """
    d = basis.d
    if s == 0 or basis.dim == 0:
        return (
            PkspVerdict(True, 1.0, None, mode, basis.rank_warning),
            Support((), epsilon=1.0),
        )
    if mode == "exact" and math.comb(d, s) * 2**s > budget:
        raise BudgetExceededError(
            f"comb({d},{s}) * 2^{s} support/sign enumerations exceed budget {budget}"
        )

    if mode == "exact" and basis.dim == 1:
        v = basis.Z[:, 0]
        a = np.abs(v)
        order = np.argsort(-a, kind="stable")
        worst_sup = tuple(sorted(int(i) for i in order[:s]))
        tot = a.sum()
        gap = (2.0 * a[list(worst_sup)].sum() - tot) / tot
        holds = gap < 0.0
        counter = None if holds else v / tot
        verdict = PkspVerdict(holds, float(-gap), counter, mode, basis.rank_warning)
        return verdict, Support(worst_sup, epsilon=1.0)

    worst_margin = np.inf
    worst_sup: tuple = ()
    worst_verdict = None
    for comb in itertools.combinations(range(d), s):
        verdict = check_pksp(basis, comb, mode=mode, budget=budget, rng=rng)
        if verdict.margin < worst_margin:
            worst_margin = verdict.margin
            worst_sup = comb
            worst_verdict = verdict
    assert worst_verdict is not None
    return worst_verdict, Support(worst_sup, epsilon=1.0)


def build_ambiguous_observation(
    basis: AmbiguityBasis, counterexample, F: Support | tuple, A, B, tol: float = 1e-9
) -> AmbiguousObservation:
    """Instantiate the failure construction for a non-certified support.

    Splits the counterexample v into x = v_F and xbar = -v_Fbar and finds
    rigid vectors z, zbar with A zbar + B xbar = A z + B x; the shared
    observation y demonstrates that l1 minimization prefers the off-support
    decomposition whenever ||x||_1 >= ||xbar||_1.
    """
    v = np.asarray(counterexample, dtype=float)
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    on_idx = np.asarray(
        F.indices if isinstance(F, Support) else sorted(set(int(i) for i in F)),
        dtype=int,
    )
    nrm = np.sum(np.abs(v))
    if nrm == 0.0:
        raise InvalidCounterexampleError("counterexample is zero")
    Z = basis.Z
    resid = v - Z @ (Z.T @ v)
    if np.linalg.norm(resid) > tol * max(np.linalg.norm(v), 1.0) * 1e3:
        raise InvalidCounterexampleError("vector is not in the ambiguity subspace")
    on_mask = np.zeros(v.shape[0], dtype=bool)
    on_mask[on_idx] = True
    if np.sum(np.abs(v[on_mask])) < np.sum(np.abs(v[~on_mask])) - tol:
        raise InvalidCounterexampleError("vector does not violate the support inequality")
    x_on = np.where(on_mask, v, 0.0)
    x_off = np.where(on_mask, 0.0, -v)
    # B v lies in span(A) by membership; solve A r = B v
    r, _, _, _ = np.linalg.lstsq(A, B @ v, rcond=None)
    z_on = np.zeros(6)
    z_off = r
    y = B @ x_on
    gap = np.linalg.norm(A @ z_off + B @ x_off - y)
    if gap > tol * max(np.linalg.norm(y), 1.0) * 1e3:
        raise InvalidCounterexampleError(
            f"decomposition mismatch {gap:.3g}; vector may not be ambiguous"
        )
    return AmbiguousObservation(y=y, x_on=x_on, x_off=x_off, z_on=z_on, z_off=z_off)
