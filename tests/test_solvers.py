import numpy as np
import pytest

from sparsemotion import pksp, solvers
from sparsemotion.camera import RankDeficientError, assemble_system, reduce_system
from sparsemotion.errors import InputError
from sparsemotion.experiments import (
    TrialConfig,
    gen_sparse_motion,
    sample_pose,
    synthesize_observation,
)
from sparsemotion.solvers import (
    BudgetExceededError,
    DifferentialMotion,
    NoFeasibleSupportError,
    SolveOptions,
    SolverError,
    Support,
    extract_support,
    solve_l0_oracle,
    solve_l2,
    solve_rf,
)

from conftest import in_bounds_pose, plant_highs_status, plant_pass_model_error

TIGHT = SolveOptions(max_iter=20000, primal_tol=1e-10, dual_tol=1e-10,
                     box_enabled=False)


def sparse_observation(sys, indices, values, rho=None, rng=None):
    omega = np.zeros(sys.B.shape[1])
    omega[list(indices)] = values
    if rho is None:
        rho = (rng.uniform(-1e-3, 1e-3, 6) if rng is not None else np.zeros(6))
    return sys.A @ rho + sys.B @ omega, omega, rho


class TestSupport:
    def test_sorted_deduplicated(self):
        s = Support((5, 1, 5, 3))
        assert s.indices == (1, 3, 5)
        assert len(s) == 3

    def test_extract_support_threshold(self):
        omega = np.array([0.0, 2e-4, -5e-5, -3e-3])
        s = extract_support(omega, epsilon=1e-4)
        assert s.indices == (1, 3)

    def test_extract_support_rejects_bad_epsilon(self):
        # no rate exceeds a NaN threshold, so NaN would read as an empty support
        for epsilon in (0.0, float("nan")):
            with pytest.raises(InputError, match="epsilon must be positive"):
                extract_support(np.array([0.0, 2e-4]), epsilon)


class TestEliminateRigid:
    def test_projection_properties(self, skel40_system):
        rng = np.random.default_rng(0)
        y = rng.standard_normal(26)
        red = reduce_system(skel40_system.A, skel40_system.B)
        Q = red.Q
        Bt, yt = red.project_out(skel40_system.B), red.project_out(y)
        # Q orthonormal basis of span(A)
        np.testing.assert_allclose(Q.T @ Q, np.eye(6), atol=1e-12)
        assert np.max(np.abs(Bt.T @ skel40_system.A)) < 1e-10
        assert np.max(np.abs(skel40_system.A.T @ yt)) < 1e-10
        # projecting twice changes nothing
        Bt2 = Bt - Q @ (Q.T @ Bt)
        np.testing.assert_allclose(Bt2, Bt, atol=1e-14)
        # the kept singular triplets rebuild Btilde; the rest is below the cut
        rebuilt = red.U @ (red.sv[:, None] * red.row_space.T)
        np.testing.assert_allclose(rebuilt, Bt, atol=1e-14)
        np.testing.assert_allclose(red.Vt @ red.Vt.T, np.eye(40), atol=1e-12)
        assert np.max(np.abs(Bt @ red.null_space)) < 1e-10

    def test_feasibility_equivalence(self, skel40_system):
        """omega solves the reduced system iff some rho completes it."""
        rng = np.random.default_rng(1)
        omega = np.zeros(40)
        omega[[4, 17]] = [2e-3, -1e-3]
        rho = rng.uniform(-1e-3, 1e-3, 6)
        y = skel40_system.A @ rho + skel40_system.B @ omega
        red = reduce_system(skel40_system.A, skel40_system.B)
        Bt, yt = red.project_out(skel40_system.B), red.project_out(y)
        assert np.linalg.norm(Bt @ omega - yt) < 1e-12
        rhs = y - skel40_system.B @ omega
        rec = red.rigid_rates(rhs)
        np.testing.assert_allclose(rec, rho, atol=1e-10)
        # the SVD solve is the least-squares solution
        ref, _, rank, _ = np.linalg.lstsq(skel40_system.A, rhs, rcond=None)
        assert rank == 6
        np.testing.assert_allclose(rec, ref, rtol=1e-12, atol=1e-15)

    def test_reduced_rank_bounded_by_rows_minus_six(self, skel40_system):
        red = reduce_system(skel40_system.A, skel40_system.B)
        Bt = red.project_out(skel40_system.B)
        assert np.linalg.matrix_rank(Bt, tol=1e-9) <= 20
        assert red.sv.size == np.linalg.matrix_rank(Bt, tol=1e-9)

    def test_rank_deficient_rigid_block(self):
        A = np.zeros((8, 6))
        A[:, 0] = 1.0
        with pytest.raises(RankDeficientError):
            reduce_system(A, np.zeros((8, 4)))

    def test_assembly_keeps_the_reduction(self, skel40_system):
        red = reduce_system(skel40_system.A, skel40_system.B)
        kept = skel40_system.reduction
        for name in ("Q", "rigid_sv", "rigid_vt", "U", "sv", "Vt"):
            np.testing.assert_array_equal(getattr(kept, name), getattr(red, name))

    def test_one_factorization_of_each_block(self, skel40, skel40_pose,
                                             cam1145, monkeypatch):
        """Assembly and both solvers take two factorizations in all: one
        SVD of A and one of Btilde."""
        calls = []

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        for name in ("svd", "lstsq", "pinv"):
            monkeypatch.setattr(np.linalg, name,
                                counting(name, getattr(np.linalg, name)))
        sys_m = assemble_system(skel40, skel40_pose, cam1145)
        y = sys_m.B[:, 7] * 1e-3
        solve_rf(sys_m, y, TIGHT)
        solve_l2(sys_m, y)
        assert calls == ["svd"] * 2


class TestSolveRF:
    def test_exact_recovery_on_certified_toy_supports(self, toy12,
                                                      toy12_system):
        """Noiseless 1- and 2-sparse motions on the certified joints come
        back exactly, including the rigid part."""
        rng = np.random.default_rng(2)
        for indices in [(1,), (2,), (1, 2)]:
            vals = rng.uniform(0.01, 0.08, len(indices)) * rng.choice(
                [-1, 1], len(indices))
            y, omega, rho = sparse_observation(toy12_system, indices, vals,
                                               rng=rng)
            motion, stats = solve_rf(toy12_system, y, TIGHT)
            assert stats.converged
            assert np.max(np.abs(motion.omega - omega)) < 1e-7
            assert np.max(np.abs(motion.rho - rho)) < 1e-6

    def test_zero_observation_gives_zero_motion(self, toy12_system):
        motion, stats = solve_rf(toy12_system, np.zeros(8), TIGHT)
        assert stats.converged
        np.testing.assert_allclose(motion.omega, 0, atol=1e-12)
        np.testing.assert_allclose(motion.rho, 0, atol=1e-12)

    def test_equality_constraint_satisfied(self, skel40_system):
        rng = np.random.default_rng(3)
        y, _, _ = sparse_observation(skel40_system, (7, 21, 33),
                                     [2e-3, -1e-3, 8e-4], rng=rng)
        motion, stats = solve_rf(skel40_system, y, TIGHT)
        fit = skel40_system.A @ motion.rho + skel40_system.B @ motion.omega
        assert np.linalg.norm(fit - y) < 1e-8

    def test_objective_not_above_truth(self, skel40_system):
        """The returned omega never beats a 1-norm the truth also attains:
        objective <= ||omega_true||_1 + tol since the truth is feasible."""
        rng = np.random.default_rng(4)
        for _ in range(10):
            idx = rng.choice(40, size=3, replace=False)
            vals = rng.uniform(0.01, 0.05, 3)
            y, omega, _ = sparse_observation(skel40_system, idx, vals, rng=rng)
            _, stats = solve_rf(skel40_system, y, TIGHT)
            assert stats.objective <= np.sum(np.abs(omega)) + 1e-7

    def test_box_constraint_respected(self, skel40_system):
        """A 0.2 rad step on DoF 9 is still explained by spreading it over
        other joints inside the box (the bound is about 0.26 rad at this
        pose); 0.5 rad is not, and the estimate is clipped to the box."""
        opts = SolveOptions(max_iter=20000, primal_tol=1e-10, dual_tol=1e-10,
                            box_enabled=True, omega_max=np.radians(5.0))
        for mag, termination in ((0.2, "converged"), (0.5, "infeasible")):
            rng = np.random.default_rng(5)
            y, _, _ = sparse_observation(skel40_system, (9,), [mag], rng=rng)
            motion, stats = solve_rf(skel40_system, y, opts)
            assert np.max(np.abs(motion.omega)) <= np.radians(5.0) + 1e-9
            assert stats.termination == termination
            assert stats.converged == (termination == "converged")

    def test_feasible_boxed_problem_converges(self, skel40, cam1145):
        """A noiseless 4-sparse step planted inside the box: the boxed LP
        is feasible and must converge to an exact solution in the box."""
        pose_rng = np.random.default_rng(11)
        poses = [sample_pose(skel40, pose_rng) for _ in range(8)]
        t = 51
        rng = np.random.default_rng((5, t))
        pose = poses[t % 8]
        sys_m = assemble_system(skel40, pose, cam1145)
        truth = gen_sparse_motion(skel40, pose, 4, rng, TrialConfig(4, 0.0))
        y = synthesize_observation(skel40, pose, truth, cam1145, 0.0, rng,
                                   sys=sys_m)
        opts = SolveOptions(max_iter=20000, primal_tol=1e-10,
                            dual_tol=1e-10, box_enabled=True)
        motion, stats = solve_rf(sys_m, y, opts)
        assert stats.termination == "converged"
        assert stats.converged
        red = sys_m.reduction
        Bt, yt = red.project_out(sys_m.B), red.project_out(y)
        assert np.linalg.norm(Bt @ motion.omega - yt) <= 1e-10
        assert np.max(np.abs(motion.omega)) <= opts.omega_max

    def test_dual_certificate_bounded(self, skel40_system):
        """At convergence the scaled dual variable is an l1 subgradient
        pulled back through the constraint: its entries lie in [-1, 1]."""
        rng = np.random.default_rng(6)
        y, _, _ = sparse_observation(skel40_system, (12, 25), [3e-3, -2e-3],
                                     rng=rng)
        _, stats = solve_rf(skel40_system, y, TIGHT)
        assert stats.converged
        assert np.max(np.abs(stats.dual_vector)) <= 1.0 + 1e-6

    def test_iteration_cap_reported(self, skel40_system):
        rng = np.random.default_rng(7)
        y, _, _ = sparse_observation(skel40_system, (3, 14, 29),
                                     [1e-2, 2e-2, -1e-2], rng=rng)
        _, stats = solve_rf(skel40_system, y,
                            SolveOptions(max_iter=3, primal_tol=1e-14,
                                         dual_tol=1e-14))
        assert stats.iterations == 3
        assert stats.termination == "max_iter"
        assert not stats.converged

    def test_unexpected_lp_status_raises(self, skel40_system, monkeypatch):
        """A HiGHS status with no estimate is a RuntimeError, which the
        tracker's input-error handling does not swallow."""
        plant_highs_status(monkeypatch, solvers.highs.HighsModelStatus.kSolveError)
        with pytest.raises(SolverError, match="basis-pursuit LP failed: Solve error") as info:
            solve_rf(skel40_system, skel40_system.B[:, 5] * 1e-3, TIGHT)
        assert not isinstance(info.value, ValueError)

    def test_rejected_model_raises(self, skel40_system, monkeypatch):
        """A model HiGHS will not take is never solved, so no estimate."""
        plant_pass_model_error(monkeypatch)
        with pytest.raises(SolverError, match="basis-pursuit LP failed"):
            solve_rf(skel40_system, skel40_system.B[:, 5] * 1e-3, TIGHT)

    def test_option_validation(self):
        with pytest.raises(ValueError):
            SolveOptions(max_iter=0)
        with pytest.raises(ValueError):
            SolveOptions(primal_tol=-1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("solve", [
    pytest.param(lambda sys, y: solve_rf(sys, y, TIGHT), id="rf"),
    pytest.param(solve_l2, id="l2"),
    pytest.param(lambda sys, y: solve_l0_oracle(sys, y, s_max=2), id="l0"),
])
def test_non_finite_observation_raises(solve, bad, skel40_system):
    """No solver turns a NaN or inf observation into an estimate: l2 would
    return NaN rates, and HiGHS would call a model with a NaN row bound
    optimal."""
    y = skel40_system.B[:, 5] * 1e-3
    y[3] = bad
    with pytest.raises(ValueError, match="finite"):
        solve(skel40_system, y)


def highs_lp_object_reference(what, cost, A, row_lo, row_hi, col_lo, col_hi,
                              max_iter=None):
    """_highs_lp as it was built on a HighsLp object, field by field: the
    reference for the array hand-off, which must give HiGHS the same LP."""
    core = solvers.highs
    r, n = A.shape
    lp = core.HighsLp()
    lp.num_col_, lp.num_row_ = n, r
    lp.col_cost_ = cost
    lp.col_lower_, lp.col_upper_ = np.broadcast_to(col_lo, n), np.broadcast_to(col_hi, n)
    lp.row_lower_, lp.row_upper_ = np.broadcast_to(row_lo, r), np.broadcast_to(row_hi, r)
    a = lp.a_matrix_
    a.format_ = core.MatrixFormat.kRowwise
    a.num_col_, a.num_row_ = n, r
    a.start_ = np.arange(0, n * r + 1, n)
    a.index_ = np.tile(np.arange(n), r)
    a.value_ = A.ravel()
    h = core._Highs()
    for name, value in solvers._HIGHS_OPTIONS.items():
        h.setOptionValue(name, value)
    if max_iter is not None:
        h.setOptionValue("simplex_iteration_limit", int(max_iter))
    h.passModel(lp)
    h.run()
    status = h.getModelStatus()
    iterations = h.getInfo().simplex_iteration_count
    if status == core.HighsModelStatus.kOptimal:
        sol = h.getSolution()
        return status, np.asarray(sol.col_value), np.asarray(sol.row_dual), iterations
    return status, None, None, iterations


def recorded_lps(monkeypatch, module, name, run):
    """The argument tuples of every LP run() hands to module.name, arrays
    copied: check_pksp rewrites one matrix in place between patterns."""
    calls, real = [], getattr(module, name)

    def record(*args):
        calls.append(tuple(np.array(a) if isinstance(a, np.ndarray) else a for a in args))
        return real(*args)

    with monkeypatch.context() as mp:
        mp.setattr(module, name, record)
        run()
    return calls


def as_bytes(result):
    status, x, row_dual, iterations = result
    return (status, iterations) + tuple(None if v is None else v.tobytes() for v in (x, row_dual))


class TestArrayHandOff:
    """_highs_lp hands HiGHS the LP the HighsLp object did, bit for bit."""

    def test_basis_pursuit_lps(self, skel40, cam1145, monkeypatch):
        rng = np.random.default_rng(11)
        sys_m = assemble_system(skel40, sample_pose(skel40, np.random.default_rng(3)), cam1145)
        y, _, _ = sparse_observation(sys_m, (4, 17, 30), [3e-2, -2e-2, 4e-2], rng=rng)
        noisy = y + rng.normal(0.0, 2.0 / 1145.0, y.shape)
        runs = [(y, SolveOptions(max_iter=20000, box_enabled=True)),
                (y, TIGHT),
                (noisy, SolveOptions(max_iter=20000, box_enabled=True)),
                (y, SolveOptions(max_iter=3))]
        calls = []
        for obs, opts in runs:
            calls += recorded_lps(monkeypatch, solvers, "_highs_lp",
                                  lambda: solve_rf(sys_m, obs, opts))
        statuses = set()
        for args in calls:
            expected = as_bytes(highs_lp_object_reference(*args))
            assert as_bytes(solvers._highs_lp(*args)) == expected
            statuses.add(expected[0])
        # box on, box off, box-infeasible (then unboxed) and iteration limit
        assert len(calls) == 5
        assert statuses == set(solvers._TERMINATION)

    def test_sign_pattern_lps(self, skel40_system, monkeypatch):
        Z = skel40_system.reduction.null_space
        calls = recorded_lps(monkeypatch, pksp, "linprog",
                             lambda: pksp.check_pksp(Z, (4, 12, 27, 33)))
        assert len(calls) == 8
        for args in calls:
            assert as_bytes(solvers._highs_lp(*args)) == as_bytes(
                highs_lp_object_reference(*args))

    def test_reused_instance_solves_as_a_fresh_one(self, skel40, cam1145,
                                                   skel40_system, monkeypatch):
        """One instance runs a mixed sequence of LPs, each as a new one
        would: an iteration limit, then no limit, an infeasible box, a
        rejected model and an optimum."""
        rng = np.random.default_rng(11)
        sys_m = assemble_system(skel40, sample_pose(skel40, np.random.default_rng(3)), cam1145)
        y, _, _ = sparse_observation(sys_m, (4, 17, 30), [3e-2, -2e-2, 4e-2], rng=rng)
        noisy = y + rng.normal(0.0, 2.0 / 1145.0, y.shape)
        limited, = recorded_lps(monkeypatch, solvers, "_highs_lp",
                                lambda: solve_rf(sys_m, y, SolveOptions(max_iter=3)))
        boxed, unboxed = recorded_lps(
            monkeypatch, solvers, "_highs_lp",
            lambda: solve_rf(sys_m, noisy, SolveOptions(max_iter=20000, box_enabled=True)))
        patterns = recorded_lps(monkeypatch, pksp, "linprog", lambda: pksp.check_pksp(
            skel40_system.reduction.null_space, (4, 12, 27, 33)))
        longest = max(patterns, key=lambda args: highs_lp_object_reference(*args)[3])
        sequence = [limited, longest, boxed]
        expected = [as_bytes(highs_lp_object_reference(*args)) for args in sequence]
        M = solvers.highs.HighsModelStatus
        assert [status for status, *_ in expected] == [M.kIterationLimit, M.kOptimal,
                                                       M.kInfeasible]
        assert expected[1][1] > 3  # iterations past the limit of the LP before it
        for args, reference in zip(sequence, expected):
            assert as_bytes(solvers._highs_lp(*args)) == reference
        with monkeypatch.context() as mp:
            plant_pass_model_error(mp)
            with pytest.raises(SolverError, match="HiGHS rejected the model"):
                solvers._highs_lp(*unboxed)
        reference = as_bytes(highs_lp_object_reference(*unboxed))
        assert reference[0] == M.kOptimal
        assert as_bytes(solvers._highs_lp(*unboxed)) == reference

    def test_one_instance_serves_every_lp(self, skel40_system, monkeypatch):
        built = []

        class Counting(solvers.highs._Highs):
            def __init__(self):
                super().__init__()
                built.append(self)

        Z = skel40_system.reduction.null_space
        rng = np.random.default_rng(12)
        with monkeypatch.context() as mp:
            mp.setattr(solvers.highs, "_Highs", Counting)
            pksp.check_pksp(Z, (4, 12, 27, 33))
            for idx in ((5,), (9, 21), (3, 14, 30)):
                y, _, _ = sparse_observation(skel40_system, idx, [2e-3] * len(idx), rng=rng)
                solve_rf(skel40_system, y)
        assert len(built) == 1
        # with the class restored, the verdict of a new instance per LP
        verdict = pksp.check_pksp(Z, (4, 12, 27, 33))
        with monkeypatch.context() as mp:
            mp.setattr(pksp, "linprog", highs_lp_object_reference)
            fresh = pksp.check_pksp(Z, (4, 12, 27, 33))
        assert (verdict.holds, verdict.margin) == (fresh.holds, fresh.margin)
        assert (verdict.counterexample is None) == (fresh.counterexample is None)
        if fresh.counterexample is not None:
            assert verdict.counterexample.tobytes() == fresh.counterexample.tobytes()


class TestSolveL2:
    def test_fits_constraint_with_min_norm(self, skel40_system):
        rng = np.random.default_rng(8)
        y, omega, _ = sparse_observation(skel40_system, (11,), [5e-3],
                                         rng=rng)
        motion = solve_l2(skel40_system, y)
        fit = skel40_system.A @ motion.rho + skel40_system.B @ motion.omega
        assert np.linalg.norm(fit - y) < 1e-10
        # min-l2 point: orthogonal to the reduced null space
        red = skel40_system.reduction
        Bt, yt = red.project_out(skel40_system.B), red.project_out(y)
        _, _, Vt = np.linalg.svd(Bt)
        r = np.linalg.matrix_rank(Bt, tol=1e-9)
        assert np.max(np.abs(Vt[r:] @ motion.omega)) < 1e-10
        # the pseudoinverse and least-squares references
        ref = np.linalg.pinv(Bt, rcond=1e-10) @ yt
        np.testing.assert_allclose(motion.omega, ref, rtol=1e-10, atol=1e-15)
        rho, _, _, _ = np.linalg.lstsq(skel40_system.A,
                                       y - skel40_system.B @ motion.omega,
                                       rcond=None)
        np.testing.assert_allclose(motion.rho, rho, rtol=1e-10, atol=1e-15)

    def test_l2_norm_never_above_rf(self, skel40_system):
        rng = np.random.default_rng(9)
        for _ in range(5):
            idx = rng.choice(40, size=2, replace=False)
            y, _, _ = sparse_observation(skel40_system, idx, [2e-3, -3e-3],
                                         rng=rng)
            m2 = solve_l2(skel40_system, y)
            m1, _ = solve_rf(skel40_system, y, TIGHT)
            assert np.linalg.norm(m2.omega) <= np.linalg.norm(m1.omega) + 1e-8

    def test_dense_on_sparse_input(self, skel40_system):
        """The baseline smears energy across many joints: that contrast is
        the reason the l1 program exists."""
        rng = np.random.default_rng(10)
        y, _, _ = sparse_observation(skel40_system, (20,), [5e-3], rng=rng)
        motion = solve_l2(skel40_system, y)
        assert len(extract_support(motion.omega, 1e-6).indices) > 5


class TestL0Oracle:
    def test_smallest_support_wins(self, toy12, toy12_system):
        rng = np.random.default_rng(11)
        y, omega, rho = sparse_observation(toy12_system, (1, 2),
                                           [0.03, -0.02], rng=rng)
        motion, supp = solve_l0_oracle(toy12_system, y, s_max=2)
        assert supp.indices == (1, 2)
        np.testing.assert_allclose(motion.omega, omega, atol=1e-9)
        np.testing.assert_allclose(motion.rho, rho, atol=1e-8)

    def test_zero_observation_empty_support(self, toy12_system):
        motion, supp = solve_l0_oracle(toy12_system, np.zeros(8), s_max=2)
        assert supp.indices == ()
        np.testing.assert_allclose(motion.omega, 0)

    def test_lexicographic_tie_break(self, toy12_system):
        """Observations from the always-rigid-equivalent root joint have
        the zero column; the oracle returns the first feasible support."""
        y = toy12_system.B[:, 0] * 0.05  # zero column after elimination
        _, supp = solve_l0_oracle(toy12_system, y, s_max=2)
        assert supp.indices == ()

    def test_budget_guard(self, skel40_system):
        with pytest.raises(BudgetExceededError):
            solve_l0_oracle(skel40_system, np.zeros(26), s_max=5)

    def test_infeasible_raises(self, toy12, cam1145):
        from sparsemotion.kinematics import Pose
        from sparsemotion.liegroup import RigidTransform
        rng = np.random.default_rng(12)
        pose = in_bounds_pose(toy12, rng, spread=0.2)
        sys = assemble_system(toy12, pose, cam1145)
        # dense omega needs more than 2 active joints in general
        omega = rng.uniform(0.02, 0.05, 12)
        y = sys.B @ omega
        with pytest.raises(NoFeasibleSupportError):
            solve_l0_oracle(sys, y, s_max=1)


class TestCrossSolverConsistency:
    def test_all_solvers_agree_on_certified_singleton(self, toy12_system):
        rng = np.random.default_rng(13)
        y, omega, _ = sparse_observation(toy12_system, (1,), [0.04], rng=rng)
        m_rf, _ = solve_rf(toy12_system, y, TIGHT)
        m_l0, _ = solve_l0_oracle(toy12_system, y, s_max=2)
        np.testing.assert_allclose(m_rf.omega, m_l0.omega, atol=1e-7)
        np.testing.assert_allclose(m_rf.omega, omega, atol=1e-7)
