"""Simplex core, vertex enumeration, and the conditional-gradient solver."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fairtree import SolverError
from fairtree.optim import (
    ConvexProblem,
    LinearProgram,
    enumerate_vertices,
    gradient_check,
    kkt_residuals,
    minimize_convex,
    solve_lp,
)


def simplex_lp(objective, n=None):
    """min objective over the probability simplex."""
    c = np.asarray(objective, dtype=float)
    n = len(c) if n is None else n
    return LinearProgram(c, np.ones((1, n)), np.array([1.0]))


# ---------------------------------------------------------------------------
# linear programs
# ---------------------------------------------------------------------------


class TestSolveLP:
    def test_simplex_vertex_optimum(self):
        sol = solve_lp(simplex_lp([3.0, 1.0, 2.0]))
        assert sol.status == "optimal"
        assert sol.value == pytest.approx(1.0)
        np.testing.assert_allclose(sol.x, [0, 1, 0], atol=1e-12)

    def test_infeasible(self):
        # x1 + x2 = -1 with x >= 0
        lp = LinearProgram(np.ones(2), np.ones((1, 2)), np.array([-1.0]))
        assert solve_lp(lp).status == "infeasible"

    def test_inconsistent_rows_infeasible(self):
        lp = LinearProgram(
            np.zeros(2),
            np.array([[1.0, 1.0], [1.0, 1.0]]),
            np.array([1.0, 2.0]),
        )
        assert solve_lp(lp).status == "infeasible"

    def test_unbounded(self):
        # min -x1 with x1 - x2 = 0: push both to infinity
        lp = LinearProgram(
            np.array([-1.0, 0.0]),
            np.array([[1.0, -1.0]]),
            np.array([0.0]),
        )
        assert solve_lp(lp).status == "unbounded"

    def test_degenerate_does_not_cycle(self):
        # classic cycling-prone instance (Beale); Bland's rule must finish
        a = np.array([
            [0.25, -8.0, -1.0, 9.0, 1.0, 0.0, 0.0],
            [0.5, -12.0, -0.5, 3.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0],
        ])
        c = np.array([-0.75, 150.0, -0.02, 6.0, 0.0, 0.0, 0.0])
        lp = LinearProgram(c, a, np.array([0.0, 0.0, 1.0]))
        sol = solve_lp(lp)
        assert sol.status == "optimal"
        assert sol.value == pytest.approx(-0.77)  # x = (1, 0, 1, 0, 0.75, 0, 0)
        best = min(float(c @ v) for v in enumerate_vertices(lp))
        assert sol.value == pytest.approx(best, abs=1e-10)

    def test_duals_certify_value(self):
        lp = simplex_lp([3.0, 1.0, 2.0])
        sol = solve_lp(lp)
        assert sol.duals @ lp.eq_rhs == pytest.approx(sol.value)

    def test_kkt_residuals_are_tiny(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(3, 7))
        x_feas = rng.uniform(0.5, 1.5, size=7)
        lp = LinearProgram(rng.normal(size=7), a, a @ x_feas)
        sol = solve_lp(lp)
        assert sol.status == "optimal"
        res = kkt_residuals(lp, sol)
        assert max(res.values()) < 1e-8

    def test_pivot_limit_raises(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(4, 12))
        lp = LinearProgram(rng.normal(size=12), a, a @ rng.uniform(1, 2, size=12))
        with pytest.raises(SolverError, match="pivot"):
            solve_lp(lp, pivot_limit=1)

    @given(st.integers(0, 10_000))
    @settings(max_examples=60)
    def test_random_lp_matches_vertex_minimum(self, seed):
        """On a bounded feasible region the optimum sits on a vertex."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        # rows of a random partition-style system keep the region bounded
        a = np.vstack([np.ones(n), rng.uniform(0.1, 2.0, size=n)])
        x_feas = rng.uniform(0.1, 1.0, size=n)
        lp = LinearProgram(rng.normal(size=n), a, a @ x_feas)
        sol = solve_lp(lp)
        assert sol.status == "optimal"
        vertices = enumerate_vertices(lp)
        best = min(float(lp.objective @ v) for v in vertices)
        assert sol.value == pytest.approx(best, abs=1e-8)


class TestEnumerateVertices:
    def test_unit_simplex(self):
        vertices = enumerate_vertices(simplex_lp(np.zeros(4)))
        assert len(vertices) == 4
        stacked = np.array(sorted(vertices, key=lambda v: int(np.argmax(v))))
        np.testing.assert_allclose(stacked, np.eye(4), atol=1e-12)

    def test_product_of_segments(self):
        # x1 + x2 = 1, x3 + x4 = 1: four vertices
        a = np.array([[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0]])
        vertices = enumerate_vertices(LinearProgram(np.zeros(4), a, np.ones(2)))
        assert len(vertices) == 4
        for v in vertices:
            assert set(np.round(v, 12)) <= {0.0, 1.0}

    def test_point_polytope(self):
        a = np.eye(3)
        vertices = enumerate_vertices(LinearProgram(np.zeros(3), a, np.array([1.0, 2.0, 3.0])))
        assert len(vertices) == 1
        np.testing.assert_allclose(vertices[0], [1, 2, 3])

    def test_empty_polytope(self):
        lp = LinearProgram(np.zeros(2), np.ones((1, 2)), np.array([-1.0]))
        assert enumerate_vertices(lp) == []


# ---------------------------------------------------------------------------
# conditional gradient
# ---------------------------------------------------------------------------


def quadratic_over_simplex(target, n):
    target = np.asarray(target, dtype=float)
    return ConvexProblem(
        objective=lambda x: 0.5 * float((x - target) @ (x - target)),
        gradient=lambda x: x - target,
        feasible=simplex_lp(np.zeros(n), n),
    )


class TestMinimizeConvex:
    def test_projection_onto_simplex(self):
        problem = quadratic_over_simplex([0.9, 0.3, -0.2], 3)
        sol = minimize_convex(problem, np.full(3, 1 / 3), tol=1e-10)
        assert sol.converged
        assert sol.gap <= 1e-10
        np.testing.assert_allclose(sol.x, [0.8, 0.2, 0.0], atol=1e-6)

    def test_interior_fixed_point(self):
        problem = quadratic_over_simplex([0.25, 0.25, 0.25, 0.25], 4)
        sol = minimize_convex(problem, np.full(4, 0.25), tol=1e-12)
        assert sol.converged
        assert sol.iterations == 0
        np.testing.assert_allclose(sol.x, 0.25)

    def test_curvature_accelerates(self):
        """Newton-corrected runs reach the same answer in far fewer steps."""
        target = np.array([0.5, 0.5, -0.2, 0.1, -0.3])
        base = quadratic_over_simplex(target, 5)
        fast = ConvexProblem(
            objective=base.objective,
            gradient=base.gradient,
            feasible=base.feasible,
            curvature=lambda x: np.ones(5),
        )
        start = np.full(5, 0.2)
        slow_sol = minimize_convex(base, start, tol=1e-11)
        fast_sol = minimize_convex(fast, start, tol=1e-11)
        assert slow_sol.converged and fast_sol.converged
        np.testing.assert_allclose(fast_sol.x, slow_sol.x, atol=1e-5)
        assert fast_sol.iterations <= slow_sol.iterations

    def test_custom_oracle_matches_lp_oracle(self):
        target = np.array([0.1, -0.4, 0.8])
        base = quadratic_over_simplex(target, 3)
        with_oracle = ConvexProblem(
            objective=base.objective,
            gradient=base.gradient,
            feasible=base.feasible,
            oracle=lambda cost: np.eye(3)[int(np.argmin(cost))],
        )
        start = np.full(3, 1 / 3)
        a = minimize_convex(base, start, tol=1e-10)
        b = minimize_convex(with_oracle, start, tol=1e-10)
        np.testing.assert_allclose(a.x, b.x, atol=1e-6)

    def test_barrier_objective_stays_in_domain(self):
        """Entropy-style objective with an infinite-slope boundary."""
        def objective(x):
            if np.any(x <= 0):
                return np.inf
            return float(x @ np.log(x))

        def gradient(x):
            with np.errstate(divide="ignore"):
                return np.where(x > 0, np.log(np.where(x > 0, x, 1.0)) + 1.0, -np.inf)

        problem = ConvexProblem(objective, gradient, simplex_lp(np.zeros(4), 4))
        sol = minimize_convex(problem, np.array([0.7, 0.1, 0.1, 0.1]), tol=1e-8)
        assert sol.converged
        # unconstrained-in-the-simplex minimum of negative entropy is uniform
        np.testing.assert_allclose(sol.x, 0.25, atol=1e-4)

    def test_iteration_cap_reports_unconverged(self):
        problem = quadratic_over_simplex([0.5, 0.5, -0.2, 0.1, -0.3], 5)
        sol = minimize_convex(problem, np.full(5, 0.2), tol=1e-14, max_iters=2)
        assert not sol.converged
        assert sol.iterations == 2

    def test_callback_sees_monotone_progress(self):
        problem = quadratic_over_simplex([0.9, 0.3, -0.2], 3)
        gaps = []
        minimize_convex(
            problem, np.full(3, 1 / 3), tol=1e-10,
            callback=lambda k, x, gap: gaps.append(gap),
        )
        # the certificate shrinks to (floating-point) zero
        assert gaps[0] >= gaps[-1] >= -1e-12

    def test_infeasible_start_rejected(self):
        problem = quadratic_over_simplex([0.5, 0.5], 2)
        with pytest.raises(ValueError, match="start"):
            minimize_convex(problem, np.array([0.9, 0.9]), tol=1e-9)

    def test_unbounded_oracle_raises(self):
        # region x1 = x2, x >= 0 is an unbounded ray; the default oracle's
        # linear subproblem diverges as soon as the gradient points down it
        problem = ConvexProblem(
            objective=lambda x: float((x[0] - 4.0) ** 2),
            gradient=lambda x: np.array([2.0 * (x[0] - 4.0), 0.0]),
            feasible=LinearProgram(
                np.zeros(2), np.array([[1.0, -1.0]]), np.array([0.0])
            ),
        )
        with pytest.raises(SolverError):
            minimize_convex(problem, np.array([1.0, 1.0]), tol=1e-9)


class TestGradientCheck:
    def test_quadratic_gradient_passes(self):
        rng = np.random.default_rng(3)
        h = rng.normal(size=(4, 4))
        h = h @ h.T + np.eye(4)

        def objective(x):
            return 0.5 * float(x @ h @ x)

        points = rng.normal(size=(20, 4))
        err = gradient_check(objective, lambda x: h @ x, points)
        assert err < 1e-6

    def test_wrong_gradient_fails_loudly(self):
        points = np.random.default_rng(4).normal(size=(5, 3))
        err = gradient_check(
            lambda x: float(x @ x), lambda x: 3.0 * x, points
        )
        assert err > 1e-2
