"""Estimators for y = A rho + B omega: l1 basis pursuit as an exact HiGHS
linear program, the minimum-l2-norm baseline, and a brute-force l0 oracle.

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
from scipy.optimize import linprog

from .camera import AssemblyError, Observation, SystemMatrices

_DEG5 = math.radians(5.0)

# scipy.optimize.linprog status codes
_LP_OPTIMAL, _LP_ITERATION_LIMIT, _LP_INFEASIBLE = 0, 1, 2
_TERMINATION = {
    _LP_OPTIMAL: "converged",
    _LP_ITERATION_LIMIT: "max_iter",
    _LP_INFEASIBLE: "infeasible",
}
_LP_FEAS_TOL = 1e-7  # HiGHS's default primal feasibility tolerance


class EnumerationBudgetError(ValueError):
    """Support enumeration too large for the brute-force oracle."""


class NoFeasibleSupportError(ValueError):
    """No support of admissible size explains the observation."""


class SolverError(RuntimeError):
    """HiGHS ended a basis-pursuit LP with a status that yields no estimate."""


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
    epsilon: float

    def __post_init__(self):
        object.__setattr__(self, "indices", tuple(sorted(set(int(i) for i in self.indices))))

    def __len__(self):
        return len(self.indices)

    def as_set(self) -> frozenset:
        return frozenset(self.indices)


def extract_support(omega, epsilon: float) -> Support:
    """Indices with |omega_i| > epsilon."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    omega = np.asarray(omega, dtype=float)
    return Support(tuple(np.flatnonzero(np.abs(omega) > epsilon)), epsilon)


def _observation_vector(sys: SystemMatrices, y) -> np.ndarray:
    """The stacked observation, checked to have one entry per system row."""
    yv = y.y if isinstance(y, Observation) else np.asarray(y, dtype=float)
    if yv.shape != (sys.A.shape[0],):
        raise AssemblyError(
            f"observation has {yv.size} entries but the assembled system has "
            f"{sys.A.shape[0]} rows (assembly drops landmarks below the camera's "
            "minimum depth)"
        )
    return yv


def _basis_pursuit_lp(Vr, b, upper, max_iter):
    """min 1'(p + n) s.t. Vr'(p - n) = b, 0 <= p, n <= upper (None: no bound).

    Returns (status, w, u, iterations) with w = p - n and the certificate
    u = Vr @ lambda; w and u are None unless the LP was solved.
    """
    d = Vr.shape[0]
    res = linprog(
        np.ones(2 * d),
        A_eq=np.hstack([Vr.T, -Vr.T]),
        b_eq=b,
        bounds=(0.0, upper),
        method="highs",
        options={"maxiter": max_iter},
    )
    if res.status == _LP_OPTIMAL:
        return res.status, res.x[:d] - res.x[d:], Vr @ res.eqlin.marginals, res.nit
    if res.status in (_LP_ITERATION_LIMIT, _LP_INFEASIBLE):
        return res.status, None, None, res.nit
    raise SolverError(f"basis-pursuit LP failed: {res.message}")


def _kkt_violation(w, u, upper) -> float:
    """Largest violation of the l1 optimality conditions by u at w.

    u = sign(w) on the support inside the box, sign(w) u >= 1 where the
    box binds, and |u| <= 1 off the support.  Entries within the LP's
    feasibility tolerance of zero or of the box count as there.
    """
    on = np.abs(w) > _LP_FEAS_TOL
    at_box = on & (np.abs(w) >= upper - _LP_FEAS_TOL) if upper is not None else False
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
    upper = opts.omega_max / scale if opts.box_enabled else None
    status, w, u, iters = _basis_pursuit_lp(Vr, b, upper, opts.max_iter)
    termination = _TERMINATION[status]
    if status == _LP_INFEASIBLE:  # only the box can cut the affine set off
        _, w, u, nit = _basis_pursuit_lp(Vr, b, None, opts.max_iter)
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
        raise EnumerationBudgetError(
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
                return DifferentialMotion(sol[:6], omega), Support(comb, epsilon=feas_tol)
    raise NoFeasibleSupportError(f"no support of size <= {s_max} explains the observation")
