"""Utility duality: conjugates, primal/dual solvers, minimax deflators,
marginal prices, augmentation, growth-optimal portfolio."""

from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

import fairtree.utility

from fairtree import (
    Claim,
    Deflator,
    ScenarioTree,
    augment_market,
    check_complete,
    davis_price,
    default_claims,
    deflate,
    dual_value,
    fairness_report,
    generate_market,
    growth_optimal,
    log_utility,
    optional_decomposition,
    parse_utility,
    polytope_minimizer,
    power_utility,
    require_fair,
    sample_deflators,
    solve_dual,
    solve_primal,
    superhedge_price,
    value_functions,
    verify_minimax,
)
from fairtree.deflators import _node_stacks
from fairtree.errors import ModelError, SolverError
from fairtree.utility import (
    CONSUMPTION_TOL,
    _budget_multiplier,
    _dual_objective,
    _minimax_levels,
)

from conftest import fair_corpus, priced_market

UTILITIES = [log_utility(), power_utility(0.5), power_utility(-1.0)]

T1_LOG_VALUE = np.log(9 / 8) / 3


# ---------------------------------------------------------------------------
# the utility family itself
# ---------------------------------------------------------------------------


class TestUtilitySpec:
    @pytest.mark.parametrize("u", UTILITIES, ids=lambda u: u.label)
    @given(y=st.floats(1e-3, 1e3))
    def test_conjugate_identity(self, u, y):
        x_star = u.inverse_marginal(y)
        assert u.conjugate(y) == pytest.approx(
            u.utility(x_star) - y * x_star, rel=1e-12, abs=1e-12
        )

    @pytest.mark.parametrize("u", UTILITIES, ids=lambda u: u.label)
    @given(y=st.floats(1e-3, 1e3))
    def test_inverse_marginal_inverts(self, u, y):
        assert u.marginal(u.inverse_marginal(y)) == pytest.approx(y, rel=1e-12)

    @pytest.mark.parametrize("u", UTILITIES, ids=lambda u: u.label)
    def test_conjugate_slope_is_minus_inverse_marginal(self, u):
        ys = np.geomspace(0.05, 20.0, 9)
        h = 1e-6
        slope = (u.conjugate(ys + h) - u.conjugate(ys - h)) / (2 * h)
        np.testing.assert_allclose(slope, -u.inverse_marginal(ys), rtol=1e-5)

    @pytest.mark.parametrize("u", UTILITIES, ids=lambda u: u.label)
    def test_curvature_is_conjugate_second_derivative(self, u):
        ys = np.geomspace(0.1, 10.0, 7)
        h = 1e-4  # second differences amplify roundoff as 1/h^2
        second = (
            u.conjugate(ys + h) - 2 * u.conjugate(ys) + u.conjugate(ys - h)
        ) / h**2
        np.testing.assert_allclose(second, u.conjugate_curvature(ys), rtol=1e-4)
        assert np.all(u.conjugate_curvature(ys) > 0)

    def test_out_of_domain_values(self):
        u = power_utility(0.5)
        assert u.utility(-1.0) == -np.inf
        assert u.conjugate(-2.0) == np.inf
        assert power_utility(-1.0).conjugate(0.0) == 0.0
        assert log_utility().conjugate(0.0) == np.inf

    @pytest.mark.parametrize("exponent, method, level, expected", [
        (-5.0, "marginal", 1e-60, np.inf),
        (0.5, "conjugate_curvature", 1e-110, np.inf),
        (0.5, "inverse_marginal", 1e-200, np.inf),
        (0.5, "conjugate", 1e-310, np.inf),
        (-5.0, "utility", 1e-70, -np.inf),
    ])
    def test_overflow_reads_infinite_without_a_warning(self, exponent, method, level, expected):
        """Values past the float range are infinite, and the overflow is
        no warning (warnings are errors in this suite)."""
        assert getattr(power_utility(exponent), method)(level) == expected

    @pytest.mark.parametrize("bad", [1.0, 0.0, 1.5, np.inf, np.nan])
    def test_bad_power_exponents(self, bad):
        with pytest.raises(ValueError):
            power_utility(bad)

    def test_parse(self):
        assert parse_utility("log") == log_utility()
        assert parse_utility("power:0.5") == power_utility(0.5)
        assert parse_utility("power:-1") == power_utility(-1.0)
        for text in ("quadratic", "power:abc", "power:1", "POWER:0.5"):
            with pytest.raises(ValueError):
                parse_utility(text)

    def test_labels(self):
        assert log_utility().label == "log"
        assert power_utility(-1.0).label == "power:-1"


# ---------------------------------------------------------------------------
# the hand-derived trinomial optimum
# ---------------------------------------------------------------------------


class TestT1LogOptimum:
    def test_dual_minimizer(self, t1_model):
        dual = solve_dual(t1_model, log_utility(), 1.0)
        np.testing.assert_allclose(
            dual.deflator.values, [1, 2 / 3, 1, 4 / 3], atol=1e-8
        )
        assert dual.gap <= 1e-9

    def test_primal_optimum(self, t1_model):
        primal = solve_primal(t1_model, log_utility(), 1.0)
        assert primal.value == pytest.approx(T1_LOG_VALUE, abs=1e-8)
        np.testing.assert_allclose(primal.wealth, [1, 1.5, 1, 0.75], atol=1e-8)
        np.testing.assert_allclose(
            primal.strategy.holdings[:, 0], [0.5, 0.5], atol=1e-8
        )
        assert primal.budget_residual <= 1e-8
        assert primal.max_consumption <= 1e-7

    def test_dual_value_minimal_over_the_family(self, t1_model):
        util = log_utility()
        best = solve_dual(t1_model, util, 1.0).value
        for t in (0.4, 1.0, 4 / 3, 1.9):
            member = Deflator.for_market(
                t1_model, [1.0, t / 2, 3 - 1.5 * t, t]
            )
            value = dual_value(t1_model, util, member, 1.0)
            assert value >= best - 1e-10
        exact = dual_value(
            t1_model, util, Deflator.for_market(t1_model, [1, 2 / 3, 1, 4 / 3]), 1.0
        )
        assert exact == pytest.approx(best, abs=1e-9)

    def test_scale_invariance_of_the_minimizer(self, t1_model):
        a = solve_dual(t1_model, log_utility(), 0.25)
        b = solve_dual(t1_model, log_utility(), 4.0)
        np.testing.assert_allclose(a.deflator.values, b.deflator.values, atol=1e-9)
        assert a.value != pytest.approx(b.value)  # the value does move

    def test_davis_price_of_the_digital(self, t1):
        davis = davis_price(t1.model, log_utility(), 1.0, t1.claims["digital-up"])
        assert davis.price == pytest.approx(2 / 9, abs=1e-9)
        assert davis.residual <= 1e-8
        interval = superhedge_price(t1.model, t1.claims["digital-up"])
        assert interval.lower - 1e-9 <= davis.price <= interval.upper + 1e-9


class TestB1Complete:
    def test_all_utilities_agree_on_davis_price(self, b1):
        # one deflator means one price, whatever the utility
        for u in UTILITIES:
            davis = davis_price(b1.model, u, 1.0, b1.claims["call"])
            assert davis.price == pytest.approx(1 / 3, abs=1e-9)

    def test_log_wealth_is_reciprocal_deflator(self, b1_model):
        primal = solve_primal(b1_model, log_utility(), 2.0)
        np.testing.assert_allclose(
            primal.wealth * primal.deflator.values, 2.0, atol=1e-9
        )


# ---------------------------------------------------------------------------
# solver properties on the random corpus
# ---------------------------------------------------------------------------


class TestDualityProperties:
    @pytest.mark.parametrize("u", UTILITIES, ids=lambda u: u.label)
    def test_residuals_small(self, u):
        for model in fair_corpus(6):
            for x in (0.5, 2.0):
                primal = solve_primal(model, u, x)
                assert primal.budget_residual <= 1e-8
                assert primal.max_consumption <= 1e-7
                # deflated wealth is a martingale
                tree = model.tree
                m = primal.deflator.values
                prod = primal.wealth * m
                for k in range(tree.n_nodes):
                    ch = list(tree.children[k])
                    if ch:
                        forward = float(tree.branch_prob[ch] @ prod[ch])
                        assert forward == pytest.approx(
                            prod[k], abs=1e-8 * max(1.0, abs(prod[k]))
                        )

    def test_conjugacy_bound_and_touch(self, t1_model):
        u = log_utility()
        for x in (0.5, 1.0, 2.0):
            primal = solve_primal(t1_model, u, x)
            for y in (0.3, 1.0, 3.0):
                v = solve_dual(t1_model, u, y).value
                assert primal.value <= v + x * y + 1e-9
            y_hat = primal.y
            v_hat = solve_dual(t1_model, u, y_hat).value
            assert primal.value == pytest.approx(v_hat + x * y_hat, abs=1e-6)

    def test_power_scaling_law(self, t1_model):
        p = 0.5
        u = power_utility(p)
        base = solve_primal(t1_model, u, 1.0)
        scaled = solve_primal(t1_model, u, 2.0)
        assert scaled.value == pytest.approx(2**p * base.value, rel=1e-8)
        np.testing.assert_allclose(scaled.wealth, 2.0 * base.wealth, atol=1e-7)

    def test_log_scaling_law(self, t1_model):
        u = log_utility()
        base = solve_primal(t1_model, u, 1.0)
        scaled = solve_primal(t1_model, u, 3.0)
        assert scaled.value == pytest.approx(base.value + np.log(3.0), abs=1e-8)

    def test_value_functions_grid(self, t1_model):
        grid = value_functions(t1_model, log_utility(), [0.5, 1.0, 2.0], [0.5, 1.0, 2.0])
        # weak duality at every grid pair
        for i, x in enumerate(grid.wealth_grid):
            for j, y in enumerate(grid.scale_grid):
                assert grid.primal_values[i] <= grid.dual_values[j] + x * y + 1e-9
        # for log utility the conjugate pair of x=1 is y=1; both sit on the
        # grid, so those residuals are solver-sized, not grid-sized
        assert grid.primal_conjugacy_residuals[1] <= 1e-7
        assert grid.dual_conjugacy_residuals[1] <= 1e-7

    def test_rejects_bad_arguments(self, t1_model):
        with pytest.raises(ValueError):
            solve_dual(t1_model, log_utility(), 0.0)
        with pytest.raises(ValueError):
            solve_primal(t1_model, log_utility(), -1.0)


class TestExtremeWealth:
    def test_bisection_resolves_a_tiny_multiplier(self):
        model = generate_market(seed=0, depth=1, branching=2, assets=1)
        primal = solve_primal(model, power_utility(-5.0), 1e6)
        assert primal.budget_residual <= 1e-8 * 1e6

    @pytest.mark.parametrize("p", [-3.0, -5.0])
    def test_budget_met_across_a_corpus(self, p):
        for model in fair_corpus(12):
            primal = solve_primal(model, power_utility(p), 1e6)
            assert primal.budget_residual <= 1e-8 * 1e6

    def test_consumption_tolerance_scales_with_wealth(self):
        model = generate_market(seed=6, depth=3, branching=3, assets=2)
        primal = solve_primal(model, log_utility(), 1e6)
        assert primal.max_consumption <= 1e-7 * 1e6
        assert verify_minimax(model, log_utility(), primal.deflator, 1e6).minimax


class TestBudgetMultiplier:
    @pytest.mark.parametrize(
        "u",
        UTILITIES + [power_utility(-50.0), power_utility(0.999)],
        ids=lambda u: u.label,
    )
    @pytest.mark.parametrize("x", [1e-6, 1.0, 1e6])
    def test_prices_the_wealth_back(self, u, x):
        # at p = 0.999, q = -999 and E[m_T**q] is about 1e2997: only its
        # logarithm is a float, while y itself is about 1e3
        weights = np.array([0.25, 0.5, 0.25])
        levels = np.array([1e-3, 1.0, 2.0])
        y = _budget_multiplier(u, weights, levels, x)
        p = 0.0 if u.kind == "log" else u.exponent
        # log E[m_T I(y m_T)] with I(z) = z**(1 / (p - 1)), log included;
        # 1 / (p - 1) = -1000 magnifies the rounding of log y to about 1e-12
        budget = np.logaddexp.reduce(
            np.log(weights) + np.log(levels) + np.log(y * levels) / (p - 1.0)
        )
        assert budget == pytest.approx(np.log(x), abs=1e-10)


class TestSteepUtility:
    @pytest.mark.parametrize("index", [24, 27])
    def test_gap_certified_relative_to_its_scale(self, index):
        # |g . m| is about 4e4 and 2.5e3 on these markets, so an absolute
        # gap of 1e-11 lies below the rounding of the inner products the gap
        # subtracts; both gaps are a few 1e-10 in absolute terms
        model = fair_corpus(40)[index]
        u = power_utility(0.9)
        primal = solve_primal(model, u, 1.0)
        assert primal.budget_residual <= 1e-8
        assert primal.max_consumption <= 1e-7
        dual = solve_dual(model, u, primal.y)
        assert dual.value == pytest.approx(primal.value - primal.y, rel=1e-9)
        assert verify_minimax(model, u, primal.deflator, 1.0).minimax


class TestMinimax:
    def test_accepts_the_dual_minimizer(self, t1_model):
        for u in UTILITIES:
            dual = solve_dual(t1_model, u, 1.0)
            report = verify_minimax(t1_model, u, dual.deflator, 1.0)
            assert report.minimax, report.reason

    def test_rejects_other_family_members(self, t1_model):
        u = log_utility()
        for t in (0.5, 1.0, 1.8):
            member = Deflator.for_market(t1_model, [1.0, t / 2, 3 - 1.5 * t, t])
            report = verify_minimax(t1_model, u, member, 1.0)
            assert not report.minimax
            assert report.reason

    def test_rejects_perturbations_across_a_corpus(self):
        u = power_utility(0.5)
        rejected = 0
        for model in fair_corpus(6):
            best = solve_dual(model, u, 1.0).deflator.values
            for m in sample_deflators(model, 4, seed=11):
                candidate = 0.5 * best + 0.5 * m.values
                if np.abs(candidate - best).max() < 1e-4:
                    continue  # complete market: nothing to perturb with
                report = verify_minimax(model, u, candidate, 1.0)
                assert not report.minimax
                rejected += 1
        assert rejected >= 8  # the corpus contains incomplete markets


class TestAugmentation:
    def test_t1_digital_becomes_an_asset(self, t1):
        augmented, diag = augment_market(
            t1.model, log_utility(), 1.0, t1.claims["digital-up"], name="digital"
        )
        assert augmented.n_assets == 3
        assert "digital" in augmented.asset_names
        np.testing.assert_allclose(
            augmented.price[2], [2 / 9, 1.0, 0.0, 0.0], atol=1e-8
        )
        assert diag.fair
        assert diag.deflator_residual <= 1e-8
        assert diag.dual_value_shift <= 1e-7
        assert diag.deflator_shift <= 1e-7
        assert diag.primal_value_shift <= 1e-7

    def test_augmented_market_may_lose_completeness_dimension(self, t1):
        # the digital spans the missing direction: T1 becomes complete
        from fairtree import check_complete

        augmented, _ = augment_market(
            t1.model, log_utility(), 1.0, t1.claims["digital-up"]
        )
        assert check_complete(augmented).complete

    def test_worthless_claim_rejected(self, t1_model):
        zero = Claim(np.zeros(3))
        with pytest.raises(ModelError):
            augment_market(t1_model, log_utility(), 1.0, zero)

    def test_name_collision_resolved(self, t1):
        augmented, _ = augment_market(
            t1.model, log_utility(), 1.0, t1.claims["stock-claim"], name="stock"
        )
        assert augmented.asset_names[-1] == "stock-augmented"
        # a name taken again takes the first free numbered suffix
        model = generate_market(seed=1, depth=2, branching=2, assets=1)
        claim = default_claims(model, seed=1)["call"]
        names = []
        for _ in range(3):
            model, _ = augment_market(model, log_utility(), 1.0, claim, name="asset0")
            names.append(model.asset_names[-1])
        assert names == ["asset0-augmented", "asset0-augmented-2", "asset0-augmented-3"]

    def test_one_sweep_and_three_martingale_checks_per_call(self, monkeypatch):
        # with the original market's dual certified, the enlarged market's
        # certificate is the only sweep of the linear oracle; the defect is
        # measured for the enlarged market's witness, the original levels on
        # the enlarged rows and the enlarged market's deflator, not for the
        # already validated levels that price the claim
        import fairtree.market

        model = generate_market(seed=0, depth=3, branching=3, assets=2)
        assert not check_complete(model).complete
        claim = default_claims(model, seed=0)["digital"]
        solve_primal(model, log_utility(), 1.0)
        sweeps = _count_sweeps(monkeypatch)
        defects = []
        defect = fairtree.market.martingale_defect

        def counted(*args, **kwargs):
            defects.append(1)
            return defect(*args, **kwargs)

        monkeypatch.setattr(fairtree.market, "martingale_defect", counted)
        augmented, _ = augment_market(model, log_utility(), 1.0, claim)
        assert _newton_nodes(augmented)
        assert len(sweeps) == 1
        assert len(defects) == 3

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_warm_start_hides_nothing(self, seed):
        # the new asset is priced under power:-5's minimax deflator, so the
        # log Newton started there has to travel to the log optimum: it must
        # land where the witness's start lands, far from where it began
        model = generate_market(seed=seed, depth=3, branching=3, assets=2)
        steep = power_utility(-5.0)
        claim = default_claims(model, seed=seed)["digital"]
        augmented, _ = augment_market(model, steep, 1.0, claim)
        start = solve_primal(model, steep, 1.0).deflator.values
        warm = _minimax_levels(augmented, log_utility(), start)
        cold = _minimax_levels(augmented, log_utility(), require_fair(augmented).witness.values)
        assert np.abs(warm - cold).max() <= 1e-12
        assert np.abs(warm - start).max() > 1e-3


class TestGrowthOptimal:
    def test_matches_log_primal(self, t1_model):
        g = growth_optimal(t1_model, 1.0)
        p = solve_primal(t1_model, log_utility(), 1.0)
        np.testing.assert_allclose(g.wealth, p.wealth, atol=1e-10)

    def test_reciprocal_identity_on_the_corpus(self):
        for model in fair_corpus(8):
            g = growth_optimal(model, 1.5)
            np.testing.assert_allclose(
                g.wealth * g.deflator.values, 1.5, atol=1e-8
            )


# ---------------------------------------------------------------------------
# the optimal strategy: replication held against the decomposition LP
# ---------------------------------------------------------------------------

REPLICATION_UTILITIES = [log_utility(), power_utility(0.5), power_utility(-1.0)]


class TestReplication:
    @pytest.mark.parametrize("u", REPLICATION_UTILITIES, ids=lambda u: u.label)
    def test_decomposition_of_the_optimal_wealth_consumes_nothing(self, u):
        for model in fair_corpus(20):
            for x in (0.5, 2.0):
                primal = solve_primal(model, u, x)
                result = optional_decomposition(model, primal.wealth)
                assert np.abs(result.consumption).max() <= CONSUMPTION_TOL * max(1.0, x)

    @pytest.mark.parametrize("u", REPLICATION_UTILITIES, ids=lambda u: u.label)
    def test_unique_positions_match_the_decomposition(self, u):
        # complete, and each node's rank equals the number of assets: the
        # replicating position is unique there (with more assets than
        # children it is not, and the replication takes the least-norm one)
        unique = [
            m for m in fair_corpus(20)
            if all(r == n == m.n_assets for _, n, r in check_complete(m).local_ranks)
        ]
        assert len(unique) >= 3
        for model in unique:
            primal = solve_primal(model, u, 1.0)
            reference = optional_decomposition(model, primal.wealth).strategy.holdings
            difference = np.abs(primal.strategy.holdings - reference).max()
            assert difference <= 1e-9 * max(1.0, np.abs(reference).max())

    def test_runs_no_linear_program_once_fairness_is_cached(self, monkeypatch):
        import fairtree.deflators
        import fairtree.hedging
        import fairtree.optim
        import fairtree.utility

        models = fair_corpus(10)
        for model in models:
            require_fair(model)
        calls = []

        def counting(module, name):
            original = getattr(module, name, None)

            def counted(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)
            return counted

        for module, name in [
            (fairtree.optim, "solve_lp"),
            (fairtree.deflators, "solve_lp"),
            (fairtree.hedging, "solve_lp"),
            (fairtree.hedging, "optional_decomposition"),
            (fairtree.hedging, "check_supermartingale"),
            (fairtree.utility, "optional_decomposition"),
        ]:
            monkeypatch.setattr(module, name, counting(module, name), raising=False)
        for model in models:
            for u in REPLICATION_UTILITIES:
                solve_primal(model, u, 1.0)
        assert calls == []

    def test_witness_of_an_incomplete_market_is_rejected_at_a_node(self):
        incomplete = [m for m in fair_corpus(10) if not check_complete(m).complete]
        assert incomplete
        for model in incomplete[:3]:
            witness = fairness_report(model).witness
            report = verify_minimax(model, log_utility(), witness, 1.0)
            assert not report.minimax
            named = re.search(r"at node '([^']+)'", report.reason)
            assert named and named.group(1) in model.tree.ids


def wild_market(seed: int, scale: float):
    """``generate_market(seed, 3, 3, 2)`` deflated by a log-normal numeraire
    of the given scale, drawn per node, with 1 at the root."""
    model = generate_market(seed=seed, depth=3, branching=3, assets=2)
    s = np.random.default_rng(3).lognormal(0.0, scale, model.tree.n_nodes)
    s[0] = 1.0
    return deflate(model, s)


class TestWildNumeraire:
    # one-step node weights span 14 orders of magnitude on this market
    # (power:0.9), and the optimal ratios lie near 1e-15 (power:-20): the
    # Newton recursion fails there, and the error names the node
    @pytest.mark.parametrize("p", [0.9, -20.0])
    def test_newton_failure_names_the_node(self, p):
        wild = wild_market(11, 1.5)
        with pytest.raises(SolverError, match=r"decrement of .* at node '[^']+'") as info:
            solve_dual(wild, power_utility(p), 1.0)
        named = re.search(r"at node '([^']+)'", str(info.value)).group(1)
        assert named in wild.tree.ids

    # Newton stops a node on its relative step, which reads the same on any
    # numeraire.  The decrement-stall stop leaves the first three short of
    # the gap's bound, and a decrement threshold of 1e-20 loses the last
    # three: under power:-20 a full step from a decrement of 1e-24 can still
    # move a ratio near 1e-22 by a fifth.
    @pytest.mark.parametrize(
        "seed, scale, p",
        [
            (2, 0.5, -20.0),
            (4, 1.0, 0.9),
            (3, 2.0, -5.0),
            (1, 0.5, -20.0),
            (6, 1.0, -20.0),
            (3, 1.5, 0.9),
        ],
    )
    def test_certified_on_a_wild_numeraire(self, seed, scale, p):
        # solve_dual's certificate, recomputed from a fresh oracle sweep
        wild = wild_market(seed, scale)
        levels = solve_dual(wild, power_utility(p), 1.0).deflator.values
        _, gradient, _ = _dual_objective(wild, power_utility(p), 1.0)
        grad = gradient(levels)
        gap = float(grad @ (levels - polytope_minimizer(wild)(grad)))
        assert gap <= 1e-9 * max(1.0, abs(float(grad @ levels)))


# ---------------------------------------------------------------------------
# the whole-tree Newton
# ---------------------------------------------------------------------------

STACKED_UTILITIES = [
    log_utility(),
    power_utility(0.5),
    power_utility(-1.0),
    power_utility(-5.0),
    power_utility(0.9),
]


def layered_market(layout, assets: int, seed: int):
    """A fair market whose nodes at time ``t`` have ``layout[t][i % len]``
    children, ``i`` counting that level's nodes (:func:`priced_market`)."""
    rng = np.random.default_rng(seed)
    nodes, level = [("n", None, 1.0)], ["n"]
    for counts in layout:
        below = []
        for i, parent in enumerate(level):
            probs = rng.dirichlet(np.ones(counts[i % len(counts)]))
            below += [f"{parent}{j}" for j in range(probs.size)]
            nodes += [(f"{parent}{j}", parent, float(p)) for j, p in enumerate(probs)]
        level = below
    return priced_market(ScenarioTree.build(nodes), rng, assets)


# On most markets the levels converge together, so a node that stopped
# before its subtree would still land within the gap's bound; on these
# seeds it leaves a gap of 1e-7 or more under power:-1.
STACKED_MARKETS = {
    # Newton nodes with 3 and 4 children beside full-rank ones with 2
    "mixed-branching": lambda: layered_market([(3,), (2, 3, 4), (4, 2, 3)], 2, 34),
    # a Newton root above full-rank nodes above Newton nodes: the root's
    # heights move until the bottom level has stopped
    "full-rank-between": lambda: layered_market([(3,), (2,), (3,), (2,)], 2, 4),
}


def _newton_nodes(model):
    """``(node, branching)`` of the nodes without full column rank."""
    return {
        (int(k), stack.children.shape[1])
        for stack in _node_stacks(model)
        for k, rank in zip(stack.nodes, stack.rank)
        if rank < stack.children.shape[1]
    }


def _count_solves(monkeypatch):
    calls = []
    solve = np.linalg.solve

    def counted(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "solve", counted)
    return calls


class TestStackedNewton:
    def test_markets_have_the_intended_shape(self):
        mixed = STACKED_MARKETS["mixed-branching"]()
        assert {b for _, b in _newton_nodes(mixed)} == {3, 4}
        between = STACKED_MARKETS["full-rank-between"]()
        tree = between.tree
        newton = {k for k, _ in _newton_nodes(between)}
        full = set(range(tree.n_nodes)) - newton - set(tree.leaves.tolist())
        assert 0 in newton
        assert {int(tree.time[k]) for k in full} == {1, 3}
        assert {int(tree.time[k]) for k in newton} == {0, 2}

    @pytest.mark.parametrize("u", STACKED_UTILITIES, ids=lambda u: u.label)
    @pytest.mark.parametrize("name", sorted(STACKED_MARKETS))
    def test_whole_tree_gap(self, name, u):
        # the gap of solve_dual's certificate, recomputed here from the
        # objective's gradient and one sweep of the linear oracle
        model = STACKED_MARKETS[name]()
        levels = _minimax_levels(model, u, require_fair(model).witness.values)
        Deflator.for_market(model, levels)
        _, gradient, _ = _dual_objective(model, u, 1.0)
        grad = gradient(levels)
        gap = float(grad @ (levels - polytope_minimizer(model)(grad)))
        assert abs(gap) <= 1e-11 * max(1.0, abs(float(grad @ levels)))

    @pytest.mark.parametrize("u", UTILITIES, ids=lambda u: u.label)
    def test_one_solve_per_iteration_for_the_whole_tree(self, u, monkeypatch):
        # 63 Newton nodes on six levels, all solved by one Newton of about
        # ten iterations, one solve each
        model = generate_market(seed=0, depth=6, branching=2, assets=1)
        start = require_fair(model).witness.values
        assert len(_newton_nodes(model)) == 63
        calls = _count_solves(monkeypatch)
        _minimax_levels(model, u, start)
        assert 0 < len(calls) <= 20

    def test_a_start_at_the_optimum_makes_one_solve(self, monkeypatch):
        # the enlarged market's Newton, started from the original minimax
        # levels: its first step is full and moves no ratio by more than
        # 1e-9 of itself, so it stops there
        model = generate_market(seed=1, depth=6, branching=2, assets=1)
        u = log_utility()
        original = solve_primal(model, u, 1.0).deflator.values
        claim = default_claims(model, seed=0)["call"]
        augmented, _ = augment_market(model, u, 1.0, claim)
        calls = _count_solves(monkeypatch)
        warm = _minimax_levels(augmented, u, original)
        assert len(calls) == 1
        np.testing.assert_allclose(warm, original, rtol=1e-12)

    @pytest.mark.parametrize("u", UTILITIES, ids=lambda u: u.label)
    def test_a_complete_tree_iterates_nothing(self, u, two_period, monkeypatch):
        start = require_fair(two_period).witness.values
        _node_stacks(two_period)
        calls = _count_solves(monkeypatch)
        levels = _minimax_levels(two_period, u, start)
        assert calls == []
        np.testing.assert_allclose(levels, start, rtol=1e-12)


def _count_sweeps(monkeypatch):
    """Count the sweeps of every linear oracle that solve_dual builds."""
    import fairtree.utility

    calls = []
    build = fairtree.utility.polytope_minimizer

    def counting(model):
        minimize = build(model)

        def counted(cost):
            calls.append(1)
            return minimize(cost)
        return counted

    monkeypatch.setattr(fairtree.utility, "polytope_minimizer", counting)
    return calls


class TestCertifiedDual:
    def test_a_non_finite_gradient_fails_the_certificate(self, monkeypatch):
        """A NaN in the gradient makes the gap NaN, which certifies
        nothing: the entry's vertex is already swept, so the gap check
        alone decides."""
        model = generate_market(seed=3, depth=3, branching=3, assets=2)
        solve_dual(model, log_utility(), 1.0)
        dual_objective = fairtree.utility._dual_objective

        def broken(*args):
            objective, gradient, *rest = dual_objective(*args)

            def with_nan(levels):
                grad = gradient(levels).copy()
                grad[1] = np.nan
                return grad
            return objective, with_nan, *rest

        monkeypatch.setattr(fairtree.utility, "_dual_objective", broken)
        with pytest.raises(SolverError, match="duality gap of nan"):
            solve_dual(model, log_utility(), 1.0)

    def test_one_sweep_per_market_and_utility(self, monkeypatch):
        # the gradient at scale y is y**q times the one at scale 1, so the
        # first call's vertex certifies every later scale and tolerance
        model = generate_market(seed=3, depth=3, branching=3, assets=2)
        require_fair(model)
        sweeps = _count_sweeps(monkeypatch)
        for i, u in enumerate(UTILITIES):
            duals = [solve_dual(model, u, y) for y in (0.5, 1.0, 2.0)]
            primal = solve_primal(model, u, 1.0)
            assert len(sweeps) == i + 1
            minimize = polytope_minimizer(model)
            for dual in duals:
                assert dual.deflator is primal.deflator
                _, gradient, _ = _dual_objective(model, u, dual.y)
                grad = gradient(dual.deflator.values)
                fresh = float(grad @ (dual.deflator.values - minimize(grad)))
                size = abs(float(grad @ dual.deflator.values))
                assert abs(dual.gap - max(fresh, 0.0)) <= 1e-12 * max(1.0, size)

    @pytest.mark.parametrize("u", STACKED_UTILITIES, ids=lambda u: u.label)
    @pytest.mark.parametrize("name", sorted(STACKED_MARKETS))
    def test_warm_start_on_the_enlarged_market(self, name, u):
        # the Newton of augment_market's enlarged market, started from the
        # original minimax deflator, lands where the witness's start lands
        model = STACKED_MARKETS[name]()
        original = solve_primal(model, u, 1.0).deflator.values
        for claim in default_claims(model, seed=0).values():
            augmented, diagnostics = augment_market(model, u, 1.0, claim)
            warm = _minimax_levels(augmented, u, original)
            cold = _minimax_levels(augmented, u, require_fair(augmented).witness.values)
            assert np.abs(warm - cold).max() <= 1e-12
            assert diagnostics.deflator_shift <= 1e-10
