import itertools

import numpy as np
import pytest
from scipy.optimize import linprog

from sparsemotion import solvers
from sparsemotion.pksp import (
    BudgetExceededError,
    InvalidCounterexampleError,
    ambiguity_nullspace,
    build_ambiguous_observation,
    check_pksp,
    check_pksp_order,
)
from sparsemotion.camera import RankDeficientError
from sparsemotion.solvers import SolverError, Support

from conftest import plant_highs_status


def linprog_verdict(Z, F):
    """(holds, margin) as check_pksp decides them, from the sign-pattern LPs
    in equality/inequality form solved by scipy's linprog: the reference
    for the LP check_pksp hands to HiGHS directly."""
    d, k = Z.shape
    on = np.asarray(F)
    off = np.delete(np.arange(d), on)
    f, q = on.size, off.size
    worst = -np.inf
    for tail in itertools.product((1.0, -1.0), repeat=f - 1):
        signs = np.array((1.0,) + tail)
        A_eq = np.zeros((q + 1, k + 2 * q))
        A_eq[:q] = np.hstack([Z[off], -np.eye(q), np.eye(q)])
        A_eq[q, :k] = signs @ Z[on]
        A_eq[q, k:] = 1.0
        b_eq = np.zeros(q + 1)
        b_eq[q] = 1.0
        A_ub = np.hstack([-(signs[:, None] * Z[on]), np.zeros((f, 2 * q))])
        res = linprog(np.r_[np.zeros(k), np.ones(2 * q)], A_ub=A_ub,
                      b_ub=np.zeros(f), A_eq=A_eq, b_eq=b_eq,
                      bounds=[(None, None)] * k + [(0, None)] * (2 * q),
                      method="highs")
        if res.status == 2:  # no ambiguity vector has this sign pattern
            continue
        assert res.success, res.message
        worst = max(worst, 1.0 - 2.0 * res.fun)
    return worst < 0.0, -worst


def line_basis(v):
    v = np.asarray(v, dtype=float)
    return (v / np.linalg.norm(v))[:, None]


class TestAmbiguityNullspace:
    def test_orthonormal_and_annihilating(self, skel40_system):
        Z = ambiguity_nullspace(skel40_system.A, skel40_system.B)
        np.testing.assert_allclose(Z.T @ Z, np.eye(Z.shape[1]), atol=1e-12)
        Bt = skel40_system.reduction.project_out(skel40_system.B)
        assert np.max(np.abs(Bt @ Z)) < 1e-10

    def test_dimension_counts_rigid_overlap(self, skel40_system):
        """d - rank(reduced system): 40 - 20 here, the structural floor."""
        Z = ambiguity_nullspace(skel40_system.A, skel40_system.B)
        assert Z.shape == (40, 20)

    def test_root_rotations_always_ambiguous(self, skel40, skel40_system):
        """A root-joint rotation is reproducible by a rigid rotation, so its
        coordinate axis lies inside the ambiguity subspace at every pose."""
        Z = ambiguity_nullspace(skel40_system.A, skel40_system.B)
        for j in (0, 1, 2):
            # the three root rotations sit at the body origin: zero offsets
            np.testing.assert_array_equal(skel40.offsets[j], 0)
            e = np.zeros(40)
            e[j] = 1.0
            resid = e - Z @ (Z.T @ e)
            assert np.linalg.norm(resid) < 1e-10

    def test_system_null_space_gives_identical_verdicts(self, toy12_system,
                                                         skel40_system):
        """Certifying on the assembled system's own null space decides every
        support exactly as certifying on a fresh factorization of A and B:
        same verdict, margin and counterexample bits."""
        rng = np.random.default_rng(3)
        cases = [(toy12_system, F) for s in (1, 2)
                 for F in itertools.combinations(range(12), s)]
        cases += [(skel40_system, tuple(rng.choice(40, size=s, replace=False)))
                  for s in (1, 2, 3, 4) for _ in range(3)]
        n_failing = 0
        for sys_m, F in cases:
            mine = check_pksp(sys_m.reduction.null_space, F)
            fresh = check_pksp(ambiguity_nullspace(sys_m.A, sys_m.B), F)
            assert mine.holds == fresh.holds
            assert mine.margin == fresh.margin
            if fresh.counterexample is None:
                assert mine.counterexample is None
            else:
                n_failing += 1
                np.testing.assert_array_equal(mine.counterexample,
                                              fresh.counterexample)
        assert 0 < n_failing < len(cases)

    def test_rank_deficient_rigid_block(self):
        A = np.outer(np.arange(8.0), np.ones(6))
        with pytest.raises(RankDeficientError):
            ambiguity_nullspace(A, np.zeros((8, 3)))


class TestCheckPkspExact:
    def test_line_basis_holds_with_quarter_margin(self):
        """Single direction (3,1,1,1,1,1): on-support mass 3 vs off 5, so
        the property holds with normalized margin (5-3)/8 = 0.25."""
        verdict = check_pksp(line_basis([3, 1, 1, 1, 1, 1]), (0,))
        assert verdict.holds
        assert verdict.margin == pytest.approx(0.25, abs=1e-9)
        assert verdict.counterexample is None

    def test_line_basis_fails_when_mass_concentrates(self):
        verdict = check_pksp(line_basis([6, 1, 1, 1, 1]), (0,))
        assert not verdict.holds
        assert verdict.margin == pytest.approx(-0.2, abs=1e-9)
        v = verdict.counterexample
        assert np.sum(np.abs(v)) == pytest.approx(1.0)
        a = np.abs(v)
        assert a[0] > a[1:].sum()  # violates the support inequality

    def test_borderline_equality_has_zero_margin(self):
        # exact ties are numerically fragile; only the margin is asserted
        verdict = check_pksp(line_basis([5, 1, 1, 1, 1, 1]), (0,))
        assert verdict.margin == pytest.approx(0.0, abs=1e-9)

    def test_pair_support_on_line_basis(self):
        # F = {0, 1} on (4,1,1,1,1,1): mass 5 on F vs 3 off, clear failure
        verdict = check_pksp(line_basis([4, 1, 1, 1, 1, 1]), (0, 1))
        assert not verdict.holds
        # normalized gap (5 - 3)/9 on F, reported as a negative margin
        assert verdict.margin == pytest.approx(-1.0 / 9.0, abs=1e-9)

    def test_two_dim_basis_worst_direction_found(self):
        """With two directions the check must find the worst combination,
        not just the generators."""
        Z = np.array([[1.0, 0], [0, 1.0], [0.5, 0.5], [-0.5, 0.5]])
        Z, _ = np.linalg.qr(Z)
        verdict = check_pksp(Z, (0, 1))
        # direction e0 + e1 in coords gives |v| = (1,1,1,0)-ish: fails
        assert not verdict.holds

    def test_empty_support_always_holds(self):
        verdict = check_pksp(line_basis([1, 2, 3]), ())
        assert verdict.holds and verdict.margin == 1.0

    def test_empty_ambiguity_space_always_holds(self):
        assert check_pksp(np.zeros((10, 0)), (0, 3, 7)).holds

    def test_out_of_range_support(self):
        with pytest.raises(ValueError, match="out of range"):
            check_pksp(line_basis([1, 1, 1]), (5,))

    def test_sign_pattern_budget(self):
        Z = np.eye(20)[:, :2]
        with pytest.raises(BudgetExceededError):
            check_pksp(Z, tuple(range(13)))

    def test_budget_error_is_the_solvers_class(self):
        assert BudgetExceededError is solvers.BudgetExceededError

    def test_matches_linprog_reference(self, toy12_system, skel40_system):
        """Every toy12 support of size 1-3 and skel40 support of size 1-2
        gets linprog's verdict, and its margin to 1e-9."""
        cases = [(toy12_system, F) for s in (1, 2, 3)
                 for F in itertools.combinations(range(12), s)]
        cases += [(skel40_system, F) for s in (1, 2)
                  for F in itertools.combinations(range(40), s)]
        n_holding = 0
        for sys_m, F in cases:
            Z = sys_m.reduction.null_space
            verdict = check_pksp(Z, F)
            holds, margin = linprog_verdict(Z, F)
            assert verdict.holds == holds, F
            assert verdict.margin == pytest.approx(margin, abs=1e-9), F
            n_holding += holds
        assert 0 < n_holding < len(cases)

    def test_unexpected_lp_status_raises(self, toy12_system, monkeypatch):
        """A HiGHS status that is neither optimal nor infeasible decides
        nothing, so no verdict is returned."""
        plant_highs_status(monkeypatch, solvers.highs.HighsModelStatus.kSolveError)
        with pytest.raises(SolverError, match="sign-pattern LP failed: Solve error"):
            check_pksp(toy12_system.reduction.null_space, (1, 2))

    def test_all_lps_infeasible_raises(self, skel40_system, monkeypatch):
        """A nonzero ambiguity subspace meets some sign pattern, so LPs that
        all report infeasible decide nothing; (0, 1) in truth fails."""
        plant_highs_status(monkeypatch, solvers.highs.HighsModelStatus.kInfeasible)
        with pytest.raises(SolverError, match="no sign-pattern LP was feasible"):
            check_pksp(skel40_system.reduction.null_space, (0, 1))

    def test_root_singleton_never_certified(self, skel40_system):
        Z = skel40_system.reduction.null_space
        verdict = check_pksp(Z, (0,))
        assert not verdict.holds

    def test_toy_certified_supports(self, toy12_system):
        Z = toy12_system.reduction.null_space
        for F in [(1,), (2,), (1, 2)]:
            verdict = check_pksp(Z, F)
            assert verdict.holds and verdict.margin > 0.0

    def test_accepts_support_objects(self, toy12_system):
        Z = toy12_system.reduction.null_space
        assert check_pksp(Z, Support((1,))).holds


class TestCheckPkspOrder:
    def test_order_one_fails_on_full_skeleton(self, skel40_system):
        Z = skel40_system.reduction.null_space
        verdict, worst = check_pksp_order(Z, 1, budget=200)
        assert not verdict.holds
        assert len(worst) == 1

    def test_line_basis_matches_direct_gap(self):
        v = np.array([3.0, 1, 1, 1, 1, 1])
        verdict, worst = check_pksp_order(line_basis(v), 1)
        assert worst.indices == (0,)
        assert verdict.holds
        assert verdict.margin == pytest.approx(0.25, abs=1e-12)

    def test_line_basis_worst_pair_fails(self):
        verdict, worst = check_pksp_order(line_basis([6.0, 1, 1, 1, 1]), 2)
        assert worst.indices == (0, 1)
        assert not verdict.holds

    def test_order_zero_trivial(self):
        verdict, worst = check_pksp_order(line_basis([1.0, 2.0]), 0)
        assert verdict.holds and worst.indices == ()

    def test_order_out_of_range(self, skel40_system):
        Z = skel40_system.reduction.null_space
        for s in (-1, 41):
            with pytest.raises(ValueError, match=r"0\.\.40"):
                check_pksp_order(Z, s)

    def test_enumeration_budget(self, skel40_system):
        Z = skel40_system.reduction.null_space
        with pytest.raises(BudgetExceededError):
            check_pksp_order(Z, 9, budget=1000)


class TestBuildAmbiguousObservation:
    def test_failure_instantiation_on_full_skeleton(self, skel40_system):
        Z = skel40_system.reduction.null_space
        F = (0, 1, 2)
        verdict = check_pksp(Z, F)
        assert not verdict.holds
        obs = build_ambiguous_observation(skel40_system,
                                          verdict.counterexample, F)
        # two decompositions of one observation
        y_on = skel40_system.A @ obs.z_on + skel40_system.B @ obs.x_on
        y_off = skel40_system.A @ obs.z_off + skel40_system.B @ obs.x_off
        np.testing.assert_allclose(y_on, obs.y, atol=1e-10)
        np.testing.assert_allclose(y_off, obs.y, atol=1e-10)
        # supports are disjoint and on the right sides of F
        on_mask = np.zeros(40, dtype=bool)
        on_mask[list(F)] = True
        assert np.all(obs.x_on[~on_mask] == 0)
        assert np.all(obs.x_off[on_mask] == 0)
        # the competitor is no heavier in l1
        assert np.sum(np.abs(obs.x_off)) <= np.sum(np.abs(obs.x_on)) + 1e-12

    def test_rejects_zero_vector(self, skel40_system):
        with pytest.raises(InvalidCounterexampleError, match="zero"):
            build_ambiguous_observation(skel40_system, np.zeros(40), (0,))

    def test_rejects_vector_outside_subspace(self, skel40_system):
        v = np.zeros(40)
        v[5] = 1.0  # a knee rate is observable, not ambiguous
        with pytest.raises(InvalidCounterexampleError):
            build_ambiguous_observation(skel40_system, v, (5,))

    def test_rejects_non_violating_vector(self, skel40_system):
        Z = skel40_system.reduction.null_space
        v = Z @ np.ones(Z.shape[1])
        a = np.abs(v)
        F = (int(np.argmin(a + (a == 0) * 1e9)),)  # lightest nonzero entry
        with pytest.raises(InvalidCounterexampleError):
            build_ambiguous_observation(skel40_system, v, F)
