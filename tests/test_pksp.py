import itertools
import math

import numpy as np
import pytest
from scipy.optimize import linprog

from sparsemotion import pksp, solvers
from sparsemotion.pksp import (
    BudgetExceededError,
    InvalidCounterexampleError,
    ambiguity_nullspace,
    build_ambiguous_observation,
    check_pksp,
    check_pksp_order,
)
from sparsemotion.camera import RankDeficientError
from sparsemotion.errors import InputError
from sparsemotion.solvers import SolverError, Support

from conftest import enumerated_order, plant_highs_status, plant_pass_model_error


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


def per_pattern_verdict(Z, F):
    """check_pksp with each sign pattern's LP matrix built anew by np.block:
    the reference for the one matrix check_pksp rewrites in place."""
    d, k = Z.shape
    on = np.asarray(F)
    off = np.delete(np.arange(d), on)
    f, q = on.size, off.size
    worst, worst_v = -np.inf, None
    for tail in itertools.product((1.0, -1.0), repeat=f - 1):
        Z_on = np.array((1.0,) + tail)[:, None] * Z[on]
        A = np.block([
            [Z[off], -np.eye(q), np.eye(q)],
            [Z_on.sum(axis=0)[None], np.ones((1, 2 * q))],
            [Z_on, np.zeros((f, 2 * q))],
        ])
        _, x, _, _ = solvers._highs_lp(
            "sign-pattern", np.r_[np.zeros(k), np.ones(2 * q)], A,
            np.r_[np.zeros(q), 1.0, np.zeros(f)], np.r_[np.zeros(q), 1.0, np.full(f, np.inf)],
            np.r_[np.full(k, -np.inf), np.zeros(2 * q)], np.inf)
        value = -np.inf if x is None else 1.0 - 2.0 * float(np.sum(x[k:]))
        if value > worst:
            worst, worst_v = value, Z @ x[:k]
    counter = None if worst < 0.0 else worst_v / np.sum(np.abs(worst_v))
    return worst < 0.0, float(-worst), counter


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

    def test_matches_per_pattern_matrices(self, skel40_system):
        """Rewriting one matrix's sign rows gives each LP bit for bit the
        matrix built per pattern: same verdicts, margins, counterexamples."""
        Z = skel40_system.reduction.null_space
        rng = np.random.default_rng(16)
        supports = [tuple(sorted(rng.choice(40, size=s, replace=False)))
                    for s in (1, 1, 2, 2, 3, 3, 3, 4, 4, 4, 5, 5)]
        kinds = set()
        for F in supports:
            verdict = check_pksp(Z, F)
            holds, margin, counter = per_pattern_verdict(Z, F)
            assert (verdict.holds, verdict.margin) == (holds, margin), F
            assert (None if counter is None else counter.tobytes()) == (
                None if verdict.counterexample is None
                else verdict.counterexample.tobytes()), F
            kinds.add(holds)
        assert kinds == {True, False}

    def test_rejected_model_raises(self, toy12_system, monkeypatch):
        """A model HiGHS will not take decides nothing."""
        plant_pass_model_error(monkeypatch)
        with pytest.raises(SolverError, match="sign-pattern LP failed"):
            check_pksp(toy12_system.reduction.null_space, (1, 2))

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

    @pytest.mark.parametrize("basis, orders", [
        pytest.param(lambda r: r.getfixturevalue("toy8_system").reduction.null_space,
                     (1, 2, 3, 7), id="toy8"),
        pytest.param(lambda r: r.getfixturevalue("toy12_system").reduction.null_space,
                     (1, 2, 3), id="toy12"),
        pytest.param(lambda r: r.getfixturevalue("skel40_system").reduction.null_space,
                     (2,), id="skel40"),
        pytest.param(lambda r: line_basis([3.0, 1, 1, 1, 1, 1]), (2,), id="tie-3-1"),
        pytest.param(lambda r: line_basis([2.0, 2, 1, 1, 1, 1]), (2,), id="tie-2-2"),
        pytest.param(lambda r: np.linalg.qr(np.random.default_rng(3).standard_normal((8, 4)))[0],
                     (2, 3), id="gaussian-8x4"),
        pytest.param(lambda r: np.zeros((5, 0)), (0, 1, 2), id="empty-basis"),
    ])
    def test_matches_exhaustive_enumeration(self, basis, orders, request):
        """The pruned search reports the support, holds, margin bits and
        counterexample bits that check_pksp on every support in
        lexicographic order gives.  On the two line bases several pairs
        carry exactly half the l1 mass, so the tie rule decides; on the
        Gaussian basis the bound is loose, and a search that stops 0.02
        early misses the worst triple; on an empty basis every margin is 1
        and the first support is the worst.  toy8 at order 7 has more
        subsets of size 6 than supports, so it is enumerated outright."""
        Z = basis(request)
        for s in orders:
            verdict, worst = check_pksp_order(Z, s)
            F, expected = enumerated_order(Z, s)
            assert worst.indices == F
            assert verdict.holds == expected.holds
            assert verdict.margin == expected.margin
            if expected.counterexample is None:
                assert verdict.counterexample is None
            else:
                assert verdict.counterexample.tobytes() == expected.counterexample.tobytes()

    def test_search_skips_supports_the_bound_rules_out(self, skel40_system,
                                                       monkeypatch):
        """At order 2 on the skeleton the singleton margins rule out most
        pairs: with the 40 singletons, check_pksp runs on under half of the
        780 pairs."""
        calls = []
        check = pksp.check_pksp

        def counting(Z, F):
            calls.append(len(F))
            return check(Z, F)

        monkeypatch.setattr(pksp, "check_pksp", counting)
        check_pksp_order(skel40_system.reduction.null_space, 2)
        assert calls.count(1) == 40
        assert calls.count(2) < math.comb(40, 2) / 2

    def test_budget_below_one_is_an_input_error(self, skel40_system):
        """No enumeration fits a budget below 1: that is the caller's
        mistake, not a resource limit, at every order."""
        Z = skel40_system.reduction.null_space
        for s, budget in ((1, -1), (1, 0), (0, -1)):
            with pytest.raises(InputError, match=f"budget {budget} must be >= 1"):
                check_pksp_order(Z, s, budget=budget)


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
