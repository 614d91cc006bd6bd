"""Engine results re-derived by the oracles.

The brute-force oracles run on instances small enough for exhaustive
vertex enumeration, and their guards are exercised too.  The engine's
tree recursions are also held against the whole-tree LPs of
:mod:`fairtree.oracle` and, when scipy is installed, against HiGHS; the
per-node dual recursion is held against the whole-tree Frank-Wolfe.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from fairtree import (
    SizeGuardError,
    UnfairMarketError,
    augment_market,
    build_polytope,
    check_complete,
    check_deflator_values,
    check_fair,
    classify_attainability,
    davis_price,
    default_claims,
    generate_market,
    local_vertices,
    log_utility,
    optional_decomposition,
    power_utility,
    solve_dual,
    solve_primal,
    superhedge_price,
    superhedge_process,
)
from fairtree.deflators import FAIRNESS_THRESHOLD
from fairtree.oracle import (
    compare,
    fw_dual,
    lp_face_radius,
    lp_interior_radius,
    lp_price_interval,
    lp_superhedge_process,
    oracle_complete,
    oracle_dual,
    oracle_price_interval,
)

from conftest import arb_corpus, corpus_claim, fair_corpus, wide_market


def small_corpus():
    """Corpus entries whose polytope admits vertex enumeration."""
    out = []
    for i, model in enumerate(fair_corpus(20)):
        if model.tree.n_nodes <= 25:
            out.append((i, model))
    return out


class TestSuperhedgeOracle:
    def test_intervals_agree(self):
        checked = 0
        for i, model in small_corpus():
            claim = corpus_claim(model, i)
            try:
                lo, hi = oracle_price_interval(model, claim)
            except SizeGuardError:
                continue
            interval = superhedge_price(model, claim)
            assert abs(interval.upper - hi) <= 1e-8
            assert abs(interval.lower - lo) <= 1e-8
            checked += 1
        assert checked >= 8

    def test_fixture_values(self, t1):
        lo, hi = oracle_price_interval(t1.model, t1.claims["digital-up"])
        assert lo == pytest.approx(0.0, abs=1e-12)
        assert hi == pytest.approx(1 / 3, abs=1e-12)

    def test_unfair_market_raises(self):
        model = arb_corpus(1)[0]
        claim = corpus_claim(model, 0)
        with pytest.raises(UnfairMarketError):
            oracle_price_interval(model, claim)


class TestCompletenessOracle:
    def test_verdicts_match_exactly(self):
        checked = 0
        for _, model in small_corpus():
            try:
                expected = oracle_complete(model)
            except SizeGuardError:
                continue
            assert check_complete(model).complete == expected
            checked += 1
        assert checked >= 8

    def test_fixtures(self, b1_model, t1_model):
        assert oracle_complete(b1_model) is True
        assert oracle_complete(t1_model) is False


class TestDualOracle:
    @pytest.mark.parametrize("u", [log_utility(), power_utility(0.5)],
                             ids=lambda u: u.label)
    def test_grid_value_close(self, u):
        checked = 0
        for _, model in small_corpus():
            try:
                grid_value = oracle_dual(model, u, 1.0)
            except SizeGuardError:
                continue
            engine = solve_dual(model, u, 1.0).value
            # the grid value is an upper bound, tight to grid resolution
            assert engine <= grid_value + 1e-12
            assert abs(engine - grid_value) <= 1e-4
            checked += 1
        assert checked >= 6

    def test_t1_exact(self, t1_model):
        grid_value = oracle_dual(t1_model, log_utility(), 1.0)
        engine = solve_dual(t1_model, log_utility(), 1.0).value
        assert abs(engine - grid_value) <= 1e-5

    def test_complete_market_needs_no_grid(self, b1_model):
        # zero-dimensional polytope: the single vertex is the answer
        value = oracle_dual(b1_model, log_utility(), 1.0)
        assert value == pytest.approx(
            solve_dual(b1_model, log_utility(), 1.0).value, abs=1e-12
        )

    def test_density_validation(self, t1_model):
        with pytest.raises(ValueError):
            oracle_dual(t1_model, log_utility(), 1.0, density=1)

    def test_dimension_guard_trips(self):
        # branching 4 with one asset leaves 3 free directions per node;
        # two levels of that pushes the family dimension past the guard
        model = generate_market(seed=5, depth=2, branching=4, assets=1)
        with pytest.raises(SizeGuardError):
            oracle_dual(model, log_utility(), 1.0)


class TestVertexGuards:
    def test_variable_guard(self):
        model = generate_market(seed=6, depth=4, branching=3, assets=1)
        assert model.tree.n_nodes > 25
        with pytest.raises(SizeGuardError):
            oracle_complete(model)


class TestCompare:
    def test_report_arithmetic(self):
        report = compare("price", 1.0, 1.0 + 5e-9)
        assert report.quantity == "price"
        assert report.absolute_difference == pytest.approx(5e-9)
        assert report.relative_difference == pytest.approx(5e-9)
        big = compare("price", 200.0, 100.0)
        assert big.relative_difference == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# tree recursions against whole-tree LPs
# ---------------------------------------------------------------------------


def _close(a: float, b: float, tol: float = 1e-9) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


def _verdict(upper: float, lower: float, face_radius) -> str:
    """Attainability class from reference bounds and face floor."""
    if upper - lower <= 1e-9 * max(1.0, abs(upper), abs(lower)):
        return "strongly-regular"
    if face_radius() > FAIRNESS_THRESHOLD:
        return "regular-attainable"
    return "not-attainable"


def _reference_cases():
    """Corpus markets with their random claim."""
    return [(model, corpus_claim(model, i)) for i, model in enumerate(fair_corpus(20))]


class TestWholeTreeLPs:
    def test_fairness_matches(self):
        for model, _ in _reference_cases():
            report = check_fair(model)
            radius, _ = lp_interior_radius(model)
            assert _close(report.interior_radius, radius)
            assert _close(float(report.witness.values.min()), radius)

    def test_unfair_radius_matches(self):
        for model in arb_corpus(20):
            radius, _ = lp_interior_radius(model)
            assert _close(check_fair(model).interior_radius, radius)

    def test_bounds_and_verdicts_match(self):
        seen = set()
        for model, claim in _reference_cases():
            interval = superhedge_price(model, claim)
            lower, upper, _, _ = lp_price_interval(model, claim)
            assert _close(interval.lower, lower)
            assert _close(interval.upper, upper)
            expected = _verdict(
                upper, lower, lambda: lp_face_radius(model, claim, upper)[0]
            )
            assert classify_attainability(model, claim).classification == expected
            seen.add(expected)
        assert len(seen) >= 2


class TestHighs:
    """The same quantities as :class:`TestWholeTreeLPs`, from HiGHS."""

    @staticmethod
    def _linprog(cost, a_eq, b_eq, a_ub=None, b_ub=None):
        from scipy.optimize import linprog

        res = linprog(
            cost, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
            bounds=(0, None), method="highs",
        )
        return res

    def _floor(self, a_eq, b_eq):
        """Largest uniform floor over ``{a_eq m = b_eq, m >= 0}``."""
        n = a_eq.shape[1]
        cost = np.zeros(n + 1)
        cost[n] = -1.0
        a_ub = np.hstack([-np.eye(n), np.ones((n, 1))])
        a_eq = np.hstack([a_eq, np.zeros((a_eq.shape[0], 1))])
        res = self._linprog(cost, a_eq, b_eq, a_ub, np.zeros(n))
        return float(-res.fun) if res.status == 0 else 0.0

    def test_engine_matches_highs(self):
        pytest.importorskip("scipy")
        seen = set()
        for model, claim in _reference_cases():
            polytope = build_polytope(model)
            a, b = polytope.matrix, polytope.rhs
            report = check_fair(model)
            radius = self._floor(a, b)
            assert _close(report.interior_radius, radius)
            assert _close(float(report.witness.values.min()), radius)

            leaves = model.tree.leaves
            objective = np.zeros(model.tree.n_nodes)
            objective[leaves] = model.tree.path_prob[leaves] * claim.payoff
            lower = float(self._linprog(objective, a, b).fun)
            upper = float(-self._linprog(-objective, a, b).fun)
            interval = superhedge_price(model, claim)
            assert _close(interval.lower, lower)
            assert _close(interval.upper, upper)

            face = np.vstack([a, objective])
            expected = _verdict(
                upper, lower, lambda: self._floor(face, np.append(b, upper))
            )
            assert classify_attainability(model, claim).classification == expected
            seen.add(expected)
        assert len(seen) >= 2


class TestWideNode:
    def test_node_past_the_vertex_guard(self):
        model, claim = wide_market()
        with pytest.raises(SizeGuardError):
            local_vertices(model, 0)
        assert check_fair(model).fair
        interval = superhedge_price(model, claim)
        lower, upper, _, _ = lp_price_interval(model, claim)
        assert _close(interval.lower, lower)
        assert _close(interval.upper, upper)
        process = superhedge_process(model, claim)
        assert _close(process[0], upper)
        np.testing.assert_allclose(process, lp_superhedge_process(model, claim), rtol=1e-8, atol=1e-8)

    def test_decomposes_and_optimizes(self):
        model, claim = wide_market()
        process = superhedge_process(model, claim)
        result = optional_decomposition(model, process)
        tree = model.tree
        # wealth identity: value = parent value + one-step gain - consumption
        for k in range(1, tree.n_nodes):
            p = tree.parent[k]
            gain = result.strategy.holdings[:, p] @ (model.price[:, k] - model.price[:, p])
            drop = result.consumption[k] - result.consumption[p]
            assert abs(process[k] - process[p] - gain + drop) <= 1e-9
            assert drop >= -1e-9
        assert (process[tree.leaves] - claim.payoff).min() >= -1e-9

        primal = solve_primal(model, log_utility(), 1.0)
        assert primal.budget_residual <= 1e-8
        assert primal.max_consumption <= 1e-7
        np.testing.assert_allclose(primal.wealth * primal.deflator.values, 1.0, atol=1e-8)


class TestLargestShape:
    def test_fair_and_superhedge_within_budget(self):
        start = time.perf_counter()
        model = generate_market(seed=7, depth=6, branching=4, assets=5)
        assert model.tree.n_nodes == 5461
        report = check_fair(model)
        assert report.fair
        check_deflator_values(model, report.witness)
        claim = default_claims(model, seed=7)["random"]
        interval = superhedge_price(model, claim)
        process = superhedge_process(model, claim)
        assert abs(process[0] - interval.upper) <= 1e-8
        reference = lp_superhedge_process(model, claim)
        assert np.all(np.abs(process - reference) <= 1e-8 * np.maximum(1.0, np.abs(reference)))
        assert time.perf_counter() - start <= 60.0

    def test_utility_questions_within_budget(self):
        model = generate_market(seed=7, depth=6, branching=4, assets=2)
        assert model.tree.n_nodes == 5461
        claim = default_claims(model, seed=7)["random"]
        utility = log_utility()

        start = time.perf_counter()
        primal = solve_primal(model, utility, 1.0)
        assert time.perf_counter() - start <= 60.0
        assert primal.budget_residual <= 1e-8
        assert primal.max_consumption <= 1e-7
        np.testing.assert_allclose(primal.wealth * primal.deflator.values, 1.0, atol=1e-8)

        start = time.perf_counter()
        davis = davis_price(model, utility, 1.0, claim)
        assert time.perf_counter() - start <= 60.0
        assert davis.residual <= 1e-8

        start = time.perf_counter()
        augmented, diagnostics = augment_market(model, utility, 1.0, claim)
        assert time.perf_counter() - start <= 60.0
        assert augmented.n_assets == 3
        assert diagnostics.fair
        assert diagnostics.deflator_residual <= 1e-8
        assert diagnostics.dual_value_shift <= 1e-7
        assert diagnostics.primal_value_shift <= 1e-7
        assert diagnostics.deflator_shift <= 1e-7


# ---------------------------------------------------------------------------
# the per-node dual recursion against the whole-tree Frank-Wolfe
# ---------------------------------------------------------------------------

DUAL_UTILITIES = [log_utility(), power_utility(0.5), power_utility(-1.0), power_utility(-5.0)]


class TestDualRecursion:
    @pytest.mark.parametrize("u", DUAL_UTILITIES, ids=lambda u: u.label)
    def test_matches_frank_wolfe(self, u):
        tol = 1e-11
        for model in fair_corpus(20):
            engine = solve_dual(model, u, 1.0, tol=tol)
            reference = fw_dual(model, u, 1.0, tol=tol)
            np.testing.assert_allclose(
                engine.deflator.values, reference.deflator.values, rtol=0.0, atol=1e-8
            )
            assert abs(engine.value - reference.value) <= 1e-12 * max(1.0, abs(reference.value))
            assert engine.gap <= tol
            assert reference.gap <= tol

    @pytest.mark.parametrize("u", DUAL_UTILITIES, ids=lambda u: u.label)
    def test_complete_market_gives_the_unique_deflator(self, u):
        complete = [m for m in fair_corpus(20) if check_complete(m).complete]
        assert complete
        for model in complete:
            _, unique = lp_interior_radius(model)
            np.testing.assert_allclose(
                solve_dual(model, u, 1.0).deflator.values, unique, rtol=0.0, atol=1e-9
            )
