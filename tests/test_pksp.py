import numpy as np
import pytest

from sparsemotion.pksp import (
    AmbiguityBasis,
    BudgetExceededError,
    InvalidCounterexampleError,
    ambiguity_nullspace,
    build_ambiguous_observation,
    check_pksp,
    check_pksp_order,
)
from sparsemotion.camera import RankDeficientError
from sparsemotion.solvers import Support


def line_basis(v):
    v = np.asarray(v, dtype=float)
    return AmbiguityBasis(Z=(v / np.linalg.norm(v))[:, None])


class TestAmbiguityNullspace:
    def test_orthonormal_and_annihilating(self, skel40_system):
        basis = ambiguity_nullspace(skel40_system.A, skel40_system.B)
        Z = basis.Z
        np.testing.assert_allclose(Z.T @ Z, np.eye(basis.dim), atol=1e-12)
        Bt = skel40_system.reduction.project_out(skel40_system.B)
        assert np.max(np.abs(Bt @ Z)) < 1e-10

    def test_dimension_counts_rigid_overlap(self, skel40_system):
        """d - rank(reduced system): 40 - 20 here, the structural floor."""
        basis = ambiguity_nullspace(skel40_system.A, skel40_system.B)
        assert basis.dim == 20

    def test_root_rotations_always_ambiguous(self, skel40, skel40_system):
        """A root-joint rotation is reproducible by a rigid rotation, so its
        coordinate axis lies inside the ambiguity subspace at every pose."""
        basis = ambiguity_nullspace(skel40_system.A, skel40_system.B)
        for j in (0, 1, 2):
            # the three root rotations sit at the body origin: zero offsets
            np.testing.assert_array_equal(skel40.joints[j].offset, 0)
            e = np.zeros(40)
            e[j] = 1.0
            resid = e - basis.Z @ (basis.Z.T @ e)
            assert np.linalg.norm(resid) < 1e-10

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
        verdict = check_pksp(AmbiguityBasis(Z=Z), (0, 1))
        # direction e0 + e1 in coords gives |v| = (1,1,1,0)-ish: fails
        assert not verdict.holds

    def test_empty_support_always_holds(self):
        verdict = check_pksp(line_basis([1, 2, 3]), ())
        assert verdict.holds and verdict.margin == 1.0

    def test_empty_ambiguity_space_always_holds(self):
        basis = AmbiguityBasis(Z=np.zeros((10, 0)))
        assert check_pksp(basis, (0, 3, 7)).holds

    def test_out_of_range_support(self):
        with pytest.raises(ValueError, match="out of range"):
            check_pksp(line_basis([1, 1, 1]), (5,))

    def test_sign_pattern_budget(self):
        basis = AmbiguityBasis(Z=np.eye(20)[:, :2])
        with pytest.raises(BudgetExceededError):
            check_pksp(basis, tuple(range(13)))

    def test_root_singleton_never_certified(self, skel40_system):
        basis = ambiguity_nullspace(skel40_system.A, skel40_system.B)
        verdict = check_pksp(basis, (0,))
        assert not verdict.holds

    def test_toy_certified_supports(self, toy12_system):
        basis = ambiguity_nullspace(toy12_system.A, toy12_system.B)
        for F in [(1,), (2,), (1, 2)]:
            verdict = check_pksp(basis, F)
            assert verdict.holds and verdict.margin > 0.0

    def test_accepts_support_objects(self, toy12_system):
        basis = ambiguity_nullspace(toy12_system.A, toy12_system.B)
        assert check_pksp(basis, Support((1,), epsilon=1e-4)).holds


class TestCheckPkspRandomized:
    def test_falsifies_clear_failures(self, skel40_system):
        basis = ambiguity_nullspace(skel40_system.A, skel40_system.B)
        rng = np.random.default_rng(0)
        verdict = check_pksp(basis, (0, 1, 2), mode="randomized",
                             budget=500, rng=rng)
        assert not verdict.holds
        v = verdict.counterexample
        a = np.abs(v)
        assert a[[0, 1, 2]].sum() >= a.sum() - a[[0, 1, 2]].sum()

    def test_agrees_with_exact_on_held_supports(self, toy12_system):
        basis = ambiguity_nullspace(toy12_system.A, toy12_system.B)
        rng = np.random.default_rng(1)
        verdict = check_pksp(basis, (1, 2), mode="randomized", budget=500,
                             rng=rng)
        assert verdict.holds  # "not falsified", matching the exact proof

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            check_pksp(line_basis([1, 1]), (0,), mode="exhaustive")


class TestCheckPkspOrder:
    def test_order_one_fails_on_full_skeleton(self, skel40_system):
        basis = ambiguity_nullspace(skel40_system.A, skel40_system.B)
        verdict, worst = check_pksp_order(basis, 1, budget=200)
        assert not verdict.holds
        assert len(worst) == 1

    def test_one_dim_fast_path_matches_direct_gap(self):
        v = np.array([3.0, 1, 1, 1, 1, 1])
        verdict, worst = check_pksp_order(line_basis(v), 1)
        assert worst.indices == (0,)
        assert verdict.holds
        assert verdict.margin == pytest.approx(0.25, abs=1e-12)

    def test_one_dim_fast_path_failure(self):
        verdict, worst = check_pksp_order(line_basis([6.0, 1, 1, 1, 1]), 2)
        assert worst.indices == (0, 1)
        assert not verdict.holds

    def test_order_zero_trivial(self):
        verdict, worst = check_pksp_order(line_basis([1.0, 2.0]), 0)
        assert verdict.holds and worst.indices == ()

    def test_enumeration_budget(self, skel40_system):
        basis = ambiguity_nullspace(skel40_system.A, skel40_system.B)
        with pytest.raises(BudgetExceededError):
            check_pksp_order(basis, 9, budget=1000)


class TestBuildAmbiguousObservation:
    def test_failure_instantiation_on_full_skeleton(self, skel40_system):
        basis = ambiguity_nullspace(skel40_system.A, skel40_system.B)
        F = (0, 1, 2)
        verdict = check_pksp(basis, F)
        assert not verdict.holds
        obs = build_ambiguous_observation(basis, verdict.counterexample, F,
                                          skel40_system.A, skel40_system.B)
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
        basis = ambiguity_nullspace(skel40_system.A, skel40_system.B)
        with pytest.raises(InvalidCounterexampleError, match="zero"):
            build_ambiguous_observation(basis, np.zeros(40), (0,),
                                        skel40_system.A, skel40_system.B)

    def test_rejects_vector_outside_subspace(self, skel40_system):
        basis = ambiguity_nullspace(skel40_system.A, skel40_system.B)
        v = np.zeros(40)
        v[5] = 1.0  # a knee rate is observable, not ambiguous
        with pytest.raises(InvalidCounterexampleError):
            build_ambiguous_observation(basis, v, (5,), skel40_system.A,
                                        skel40_system.B)

    def test_rejects_non_violating_vector(self, skel40_system):
        basis = ambiguity_nullspace(skel40_system.A, skel40_system.B)
        v = basis.Z @ np.ones(basis.dim)
        a = np.abs(v)
        F = (int(np.argmin(a + (a == 0) * 1e9)),)  # lightest nonzero entry
        with pytest.raises(InvalidCounterexampleError):
            build_ambiguous_observation(basis, v, F, skel40_system.A,
                                        skel40_system.B)
