"""Estimators for y = A rho + B omega: l1 basis pursuit as an exact HiGHS
linear program, the minimum-l2-norm baseline, and a brute-force l0 oracle.

Every LP of the program, the basis pursuit here and pksp's sign-pattern
LPs, is built by _highs_lp straight into HiGHS's Python binding, the one
scipy ships as scipy.optimize._highspy._core, and solved by the dual
simplex with presolve off.  Most of a call through scipy's public LP front
end goes to checking its input and building the model; on these small
dense LPs presolve costs more than it saves.

The l1 and l2 solvers work on the reduced problem Btilde omega = ytilde
obtained by projecting out the 6-dimensional rigid block, and recover rho
afterwards by least squares.  Both read the factorization that
camera.assemble_system keeps on the system (camera.reduce_system).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize._highspy import _core as highs

from .camera import AssemblyError, SystemMatrices

_DEG5 = math.radians(5.0)

# the HiGHS model statuses that end an LP with a termination
_TERMINATION = {
    highs.HighsModelStatus.kOptimal: "converged",
    highs.HighsModelStatus.kIterationLimit: "max_iter",
    highs.HighsModelStatus.kInfeasible: "infeasible",
}
# simplex_strategy 1 is the dual simplex, as scipy's LP front end sets it
_HIGHS_OPTIONS = {"output_flag": False, "presolve": "off", "simplex_strategy": 1}
_LP_FEAS_TOL = 1e-7  # HiGHS's default primal feasibility tolerance


class BudgetExceededError(ValueError):
    """Support or sign-pattern enumeration too large for its budget."""


class NoFeasibleSupportError(ValueError):
    """No support of admissible size explains the observation."""


class SolverError(RuntimeError):
    """HiGHS ended an LP with a status that yields no result."""


@dataclass(frozen=True)
class DifferentialMotion:
    rho: np.ndarray  # (6,) translation rates then rotation rates
    omega: np.ndarray  # (d,) joint-angle rates, rad/frame

    def __post_init__(self):
        object.__setattr__(self, "rho", np.asarray(self.rho, dtype=float))
        object.__setattr__(self, "omega", np.asarray(self.omega, dtype=float))


@dataclass(frozen=True)
class SolveOptions:
    max_iter: int = 2000
    primal_tol: float = 1e-9
    dual_tol: float = 1e-9
    omega_max: float = _DEG5  # rad, box half-width
    box_enabled: bool = False

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.primal_tol <= 0 or self.dual_tol <= 0:
            raise ValueError("tolerances must be positive")


@dataclass(frozen=True)
class SolveStats:
    iterations: int  # simplex iterations of the LPs solved
    primal_residual: float  # distance of omega from the affine constraint set
    dual_residual: float  # KKT violation of dual_vector at omega
    objective: float  # ||omega||_1
    converged: bool
    termination: str  # "converged", "max_iter" or "infeasible"
    dual_vector: np.ndarray  # l1 dual certificate u; zero at max_iter


@dataclass(frozen=True)
class Support:
    indices: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "indices", tuple(sorted(set(int(i) for i in self.indices))))

    def __len__(self):
        return len(self.indices)


SUPPORT_EPSILON = 1e-4  # rad, default threshold of a nonzero rate


def extract_support(omega, epsilon: float) -> Support:
    """Indices with |omega_i| > epsilon."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    omega = np.asarray(omega, dtype=float)
    return Support(tuple(np.flatnonzero(np.abs(omega) > epsilon)))


def _observation_vector(sys: SystemMatrices, y) -> np.ndarray:
    """The stacked observation, checked to have one finite entry per system row."""
    yv = np.asarray(y, dtype=float)
    if yv.shape != (sys.A.shape[0],):
        raise AssemblyError(
            f"observation has {yv.size} entries but the assembled system has "
            f"{sys.A.shape[0]} rows"
        )
    if not np.all(np.isfinite(yv)):  # HiGHS calls a NaN model optimal; l2 returns NaN
        raise ValueError("observation must be finite")
    return yv


def _highs_lp(what, cost, A, row_lo, row_hi, col_lo, col_hi, max_iter=None):
    """min cost'x s.t. row_lo <= A x <= row_hi, col_lo <= x <= col_hi (+-inf: no
    bound) on a fresh HiGHS instance, since a live one holds its memory.
    Returns (status, x, row_dual, iterations), status a key of _TERMINATION;
    x and the row duals (the sign scipy reports as eqlin.marginals) are None
    unless the LP was solved.  Any other status raises SolverError naming what.
    """
    r, n = A.shape
    lp = highs.HighsLp()
    lp.num_col_, lp.num_row_ = n, r
    lp.col_cost_ = cost
    lp.col_lower_, lp.col_upper_ = np.broadcast_to(col_lo, n), np.broadcast_to(col_hi, n)
    lp.row_lower_, lp.row_upper_ = np.broadcast_to(row_lo, r), np.broadcast_to(row_hi, r)
    a = lp.a_matrix_
    a.format_ = highs.MatrixFormat.kRowwise
    a.num_col_, a.num_row_ = n, r
    a.start_ = np.arange(0, n * r + 1, n)
    a.index_ = np.tile(np.arange(n), r)
    a.value_ = A.ravel()
    h = highs._Highs()
    for name, value in _HIGHS_OPTIONS.items():
        h.setOptionValue(name, value)
    if max_iter is not None:
        h.setOptionValue("simplex_iteration_limit", int(max_iter))
    h.passModel(lp)
    h.run()
    status = h.getModelStatus()
    iterations = h.getInfo().simplex_iteration_count
    if status == highs.HighsModelStatus.kOptimal:
        sol = h.getSolution()
        return status, np.asarray(sol.col_value), np.asarray(sol.row_dual), iterations
    if status in _TERMINATION:
        return status, None, None, iterations
    raise SolverError(f"{what} LP failed: {h.modelStatusToString(status)}")


def _basis_pursuit_lp(Vr, b, upper, max_iter):
    """min 1'(p + n) s.t. Vr'(p - n) = b, 0 <= p, n <= upper, as _highs_lp's
    (status, w, u, iterations) with w = p - n and the certificate u = Vr @
    lambda for the row duals lambda."""
    d = Vr.shape[0]
    A = np.hstack([Vr.T, -Vr.T])
    status, x, lam, nit = _highs_lp("basis-pursuit", np.ones(2 * d), A, b, b, 0.0, upper, max_iter)
    return (status, None, None, nit) if x is None else (status, x[:d] - x[d:], Vr @ lam, nit)


def _kkt_violation(w, u, upper) -> float:
    """Largest violation of the l1 optimality conditions by u at w.

    u = sign(w) on the support inside the box, sign(w) u >= 1 where the
    box binds, and |u| <= 1 off the support.  Entries within the LP's
    feasibility tolerance of zero or of the box count as there.
    """
    on = np.abs(w) > _LP_FEAS_TOL
    at_box = on & (np.abs(w) >= upper - _LP_FEAS_TOL)
    sgn = np.sign(w)
    viol = np.where(on, np.abs(u - sgn), np.abs(u) - 1.0)
    viol = np.where(at_box, 1.0 - sgn * u, viol)
    return float(np.max(viol, initial=0.0))


def solve_rf(sys: SystemMatrices, y, opts: SolveOptions = SolveOptions()):
    """Relaxed formulation: min ||omega||_1 s.t. y = A rho + B omega.

    Solved as basis pursuit on the rigid-eliminated system: one HiGHS LP
    over omega = p - n with the equality restricted to the numerical row
    space of Btilde, in units of the min-norm solution's largest entry, and
    bounds |omega_i| <= omega_max when the box is enabled.  When the box
    makes the LP infeasible, the unboxed optimum clipped to the box is
    returned; at the iteration limit, the clipped min-norm point.  Neither
    counts as converged.  Returns (DifferentialMotion, SolveStats).
    """
    yv = _observation_vector(sys, y)
    Vr, x0 = sys.reduction.row_space, sys.reduction.min_norm(yv)
    scale = float(np.max(np.abs(x0), initial=0.0)) or 1.0
    b = Vr.T @ x0 / scale
    upper = opts.omega_max / scale if opts.box_enabled else np.inf
    status, w, u, iters = _basis_pursuit_lp(Vr, b, upper, opts.max_iter)
    termination = _TERMINATION[status]
    if termination == "infeasible":  # only the box can cut the affine set off
        _, w, u, nit = _basis_pursuit_lp(Vr, b, np.inf, opts.max_iter)
        iters += nit
    if w is None:  # iteration limit: fall back on the min-norm point
        w, u = x0 / scale, np.zeros_like(x0)
    omega = scale * w
    if opts.box_enabled:
        omega = np.clip(omega, -opts.omega_max, opts.omega_max)
    primal = float(np.linalg.norm(Vr.T @ (omega - x0)))
    dual = _kkt_violation(omega / scale, u, upper)
    converged = termination == "converged" and primal <= opts.primal_tol and dual <= opts.dual_tol
    rho = sys.reduction.rigid_rates(yv - sys.B @ omega)
    stats = SolveStats(
        iterations=int(iters),
        primal_residual=primal,
        dual_residual=dual,
        objective=float(np.sum(np.abs(omega))),
        converged=converged,
        termination=termination,
        dual_vector=u,
    )
    return DifferentialMotion(rho, omega), stats


def solve_l2(sys: SystemMatrices, y) -> DifferentialMotion:
    """Minimum-l2-norm omega satisfying the equality constraint (closed form)."""
    yv = _observation_vector(sys, y)
    omega = sys.reduction.min_norm(yv)
    return DifferentialMotion(sys.reduction.rigid_rates(yv - sys.B @ omega), omega)


def solve_l0_oracle(sys: SystemMatrices, y, s_max: int, feas_tol: float = 1e-8):
    """Brute-force l0 oracle: smallest support explaining the observation.

    Enumerates supports by increasing size (lexicographic within a size) and
    accepts the first one whose least-squares residual over (rho, omega_S)
    is within feas_tol * ||y||.  Guarded to desk scale: s_max <= 4 or d <= 16.
    """
    yv = _observation_vector(sys, y)
    d = sys.B.shape[1]
    if s_max > 4 and d > 16:
        raise BudgetExceededError(
            f"enumeration of supports up to size {s_max} in dimension {d} exceeds budget"
        )
    ynorm = np.linalg.norm(yv)
    tol = feas_tol * max(ynorm, 1e-300)
    for s in range(0, s_max + 1):
        for comb in itertools.combinations(range(d), s):
            cols = np.hstack([sys.A, sys.B[:, list(comb)]]) if s else sys.A
            sol, _, _, _ = np.linalg.lstsq(cols, yv, rcond=None)
            resid = np.linalg.norm(cols @ sol - yv)
            if resid <= tol:
                omega = np.zeros(d)
                if s:
                    omega[list(comb)] = sol[6:]
                return DifferentialMotion(sol[:6], omega), Support(comb)
    raise NoFeasibleSupportError(f"no support of size <= {s_max} explains the observation")
