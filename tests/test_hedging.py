"""Superhedging prices, optional decomposition, attainability classes."""

from __future__ import annotations

import numpy as np
import pytest

from fairtree import (
    Claim,
    ModelError,
    ScenarioTree,
    SizeGuardError,
    SupermartingaleError,
    check_supermartingale,
    classify_attainability,
    default_claims,
    local_vertices,
    optional_decomposition,
    polytope_minimizer,
    superhedge_price,
    superhedge_process,
    wealth_process,
)

from fairtree.deflators import _best_vertex
from fairtree.oracle import lp_superhedge_process

from conftest import corpus_claim, fair_corpus, mixed_market, priced_market, wide_market


def decomposition_wealth(model, result, x0):
    """Replay ``x0 + gains - consumption`` along the tree."""
    tree = model.tree
    gains = wealth_process(model, result.strategy, 0.0)
    # wealth_process marks the parent position to market; subtract the
    # parent's own marked value to isolate one-step gains, then cumulate
    wealth = np.empty(tree.n_nodes)
    wealth[0] = x0
    for k in range(1, tree.n_nodes):
        p = tree.parent[k]
        step = result.strategy.holdings[:, p] @ (model.price[:, k] - model.price[:, p])
        wealth[k] = wealth[p] + step - (result.consumption[k] - result.consumption[p])
    del gains
    return wealth


class TestFixtures:
    def test_b1_call_is_replicable_at_one_third(self, b1):
        interval = superhedge_price(b1.model, b1.claims["call"])
        assert interval.width <= 1e-10
        assert interval.upper == pytest.approx(1 / 3, abs=1e-9)
        process = superhedge_process(b1.model, b1.claims["call"])
        assert process[0] == pytest.approx(interval.upper, abs=1e-10)

    def test_b1_decomposition_replicates(self, b1):
        process = superhedge_process(b1.model, b1.claims["call"])
        result = optional_decomposition(b1.model, process)
        np.testing.assert_allclose(result.consumption, 0.0, atol=1e-10)
        np.testing.assert_allclose(
            result.strategy.holdings[:, 0], [-1 / 3, 2 / 3], atol=1e-9
        )

    def test_t1_digital_interval(self, t1):
        interval = superhedge_price(t1.model, t1.claims["digital-up"])
        assert interval.lower == pytest.approx(0.0, abs=1e-9)
        assert interval.upper == pytest.approx(1 / 3, abs=1e-9)

    def test_t1_digital_superhedge_consumes_in_the_middle(self, t1):
        model = t1.model
        process = superhedge_process(model, t1.claims["digital-up"])
        result = optional_decomposition(model, process)
        np.testing.assert_allclose(
            result.strategy.holdings[:, 0], [-1 / 3, 2 / 3], atol=1e-9
        )
        mid = model.tree.node_index("m")
        assert result.consumption[mid] == pytest.approx(1 / 3, abs=1e-9)
        assert result.consumption[0] == 0.0

    def test_t1_price_bounds_are_attained_by_family_members(self, t1):
        interval = superhedge_price(t1.model, t1.claims["digital-up"])
        # E[M_T xi] = mu/3 = t/6 over the family (1, t/2, 3-3t/2, t), t in
        # [0, 2]: both bounds sit at family endpoints
        leaves = t1.model.tree.leaves
        weights = t1.model.tree.path_prob[leaves]
        payoff = t1.claims["digital-up"].payoff
        for point, bound in (
            (interval.lower_point, interval.lower),
            (interval.upper_point, interval.upper),
        ):
            assert float((weights * point[leaves]) @ payoff) == pytest.approx(
                bound, abs=1e-9
            )

    def test_t1_replicable_claim_is_degenerate(self, t1):
        interval = superhedge_price(t1.model, t1.claims["stock-claim"])
        assert interval.width <= 1e-9
        assert interval.upper == pytest.approx(1.0, abs=1e-9)  # the stock itself


class TestDuality:
    def test_dp_equals_lp_across_the_corpus(self):
        for i, model in enumerate(fair_corpus(20)):
            claim = corpus_claim(model, i)
            interval = superhedge_price(model, claim)
            process = superhedge_process(model, claim)
            assert abs(process[0] - interval.upper) <= 1e-8
            assert interval.lower <= interval.upper + 1e-12
            # the node-LP recursion, node by node
            reference = lp_superhedge_process(model, claim)
            assert np.all(np.abs(process - reference) <= 1e-8 * np.maximum(1.0, np.abs(reference)))

    def test_aggregate_claim_prices_at_par(self):
        """The terminal aggregate is replicated by buy-and-hold, so its
        interval collapses to the initial aggregate price under every
        deflator."""
        from fairtree import default_claims

        for i, model in enumerate(fair_corpus(8)):
            claim = default_claims(model, seed=1000 + i)["aggregate"]
            interval = superhedge_price(model, claim)
            assert interval.width <= 1e-8 * max(1.0, interval.upper)
            assert interval.upper == pytest.approx(model.total_initial, rel=1e-9)


def node_step(model, node, cost):
    """One node's vertex step on its own: the best row of its vertex table
    (the first on ties), or its one-step LP past the enumeration guard."""
    try:
        table = np.array(local_vertices(model, node))
    except SizeGuardError:
        return _best_vertex(model, node, cost)
    totals = table @ cost
    best = int(np.argmin(totals))
    return table[best], totals[best]


def node_minimizer(model, cost):
    """:func:`polytope_minimizer`'s sweep node by node, in tree order."""
    tree = model.tree
    per_unit = np.asarray(cost, dtype=float).copy()
    chosen = {}
    for k in range(tree.n_nodes - 1, -1, -1):
        ch = list(tree.children[k])
        if ch:
            chosen[k], best = node_step(model, k, per_unit[ch])
            per_unit[k] += best
    levels = np.zeros(tree.n_nodes)
    levels[0] = 1.0
    for k in sorted(chosen):
        levels[list(tree.children[k])] = levels[k] * chosen[k]
    return levels


def node_superhedge(model, claim):
    """:func:`superhedge_process` node by node, in tree order."""
    tree = model.tree
    values = np.zeros(tree.n_nodes)
    values[tree.leaves] = claim.payoff
    for k in range(tree.n_nodes - 1, -1, -1):
        ch = list(tree.children[k])
        if ch:
            values[k] = -node_step(model, k, -tree.branch_prob[ch] * values[ch])[1]
    return values


def step_markets():
    """Markets with their claims: ``fair_corpus``, random trees whose nodes
    have 1-4 children, and the node past the vertex guard."""
    for i, model in enumerate(fair_corpus(20)):
        yield model, list(default_claims(model, seed=1000 + i).values())
    for seed in range(6):
        model = mixed_market(seed)
        yield model, list(default_claims(model, seed=seed).values())
    model, claim = wide_market()
    yield model, [claim]


class TestVertexStep:
    def test_group_steps_equal_the_node_loop_bit_for_bit(self):
        for model, claims in step_markets():
            minimize = polytope_minimizer(model)
            rng = np.random.default_rng(model.tree.n_nodes)
            costs = [rng.normal(size=model.tree.n_nodes)]
            for claim in claims:
                np.testing.assert_array_equal(
                    superhedge_process(model, claim), node_superhedge(model, claim)
                )
                objective = np.zeros(model.tree.n_nodes)
                objective[model.tree.leaves] = model.tree.path_prob[model.tree.leaves] * claim.payoff
                costs += [objective, -objective]
            for cost in costs:
                np.testing.assert_array_equal(minimize(cost), node_minimizer(model, cost))

    @pytest.mark.parametrize("shallow_first", [False, True])
    def test_supermartingale_error_names_the_first_node_in_tree_order(self, shallow_first):
        # depth-first order: r, a, aa, ab, b, ba, bb, then the leaves, so
        # the node at time 2 "aa" comes before the node at time 1 "b"
        names = ["r", "a", "aa", "ab", "b", "ba", "bb"]
        nodes = [("r", None, 1.0)]
        for name in names[1:]:
            nodes.append((name, name[:-1] or "r", 0.4 if name.endswith("a") else 0.6))
            if len(name) == 2:
                nodes += [(name + "a", name, 0.3), (name + "b", name, 0.7)]
        model = priced_market(ScenarioTree.build(nodes), np.random.default_rng(5), 2)
        tree = model.tree
        claim = default_claims(model, seed=5)["random"]
        process = superhedge_process(model, claim)
        lowered = ["a", "bb"] if shallow_first else ["aa", "b"]
        for name in lowered:
            process[tree.node_index(name)] -= 1.0
        first = min(lowered, key=tree.node_index)
        k = tree.node_index(first)
        ch = list(tree.children[k])
        table = np.array(local_vertices(model, k))
        totals = table @ (tree.branch_prob[ch] * process[ch])
        with pytest.raises(SupermartingaleError) as info:
            check_supermartingale(model, process)
        assert info.value.node_id == first
        np.testing.assert_array_equal(info.value.vertex, table[int(np.argmax(totals))])
        assert info.value.excess == pytest.approx(totals.max() - process[k], rel=1e-12)


class TestDecomposition:
    def test_invariants_across_the_corpus(self):
        for i, model in enumerate(fair_corpus(20)):
            claim = corpus_claim(model, i)
            process = superhedge_process(model, claim)
            result = optional_decomposition(model, process)
            tree = model.tree

            np.testing.assert_allclose(result.process, process, atol=1e-12)
            assert result.consumption[0] == 0.0
            # consumption is cumulative along paths, never decreasing
            drops = result.consumption[1:] - result.consumption[tree.parent[1:]]
            assert drops.min() >= -1e-9
            # wealth replay hits the process at every node, and dominates
            # the claim at the leaves
            wealth = decomposition_wealth(model, result, process[0])
            np.testing.assert_allclose(wealth, process, atol=1e-7)
            assert (
                wealth[tree.leaves] - claim.payoff
            ).min() >= -1e-9

    def test_supermartingale_precondition_enforced(self, t1_model):
        growing = np.asarray(t1_model.tree.time, dtype=float)
        with pytest.raises(SupermartingaleError) as info:
            optional_decomposition(t1_model, growing)
        assert info.value.node_id == "r"

    def test_martingale_process_passes_check(self, t1_model):
        # any deflator-priced claim process is a supermartingale (here: a
        # martingale) under every polytope vertex
        from fairtree import fair_price_process, sample_deflators

        m = sample_deflators(t1_model, 1, seed=2)[0]
        values = fair_price_process(t1_model, m, Claim([2.0, 1.0, 0.5]))
        deflated = values * m.values
        check_supermartingale(t1_model, deflated)

    def test_slack_parameter_loosens_the_check(self, t1_model):
        nearly_flat = np.ones(t1_model.tree.n_nodes)
        nearly_flat[1:] += 5e-8  # a hair above a martingale
        with pytest.raises(SupermartingaleError):
            check_supermartingale(t1_model, nearly_flat, slack=1e-9)
        check_supermartingale(t1_model, nearly_flat, slack=1e-6)


class TestAttainability:
    def test_t1_digital_not_attainable(self, t1):
        verdict = classify_attainability(t1.model, t1.claims["digital-up"])
        assert verdict.classification == "not-attainable"
        assert verdict.supporting_deflator is None
        # the supremum is reached only on the polytope boundary
        assert verdict.boundary_witness is not None
        assert verdict.boundary_witness.min() <= 1e-6
        assert verdict.price == pytest.approx(1 / 3, abs=1e-9)

    def test_t1_stock_claim_strongly_regular(self, t1):
        verdict = classify_attainability(t1.model, t1.claims["stock-claim"])
        assert verdict.classification == "strongly-regular"
        assert verdict.price == pytest.approx(1.0, abs=1e-9)

    def test_complete_market_everything_strongly_regular(self, b1):
        for payoff in ([1.0, 0.0], [0.3, 2.0], [5.0, 5.0]):
            verdict = classify_attainability(b1.model, Claim(payoff))
            assert verdict.classification == "strongly-regular"

    def test_corpus_verdicts_are_consistent(self):
        seen = set()
        for i, model in enumerate(fair_corpus(16)):
            claim = corpus_claim(model, i)
            verdict = classify_attainability(model, claim)
            seen.add(verdict.classification)
            assert verdict.classification in {
                "strongly-regular",
                "regular-attainable",
                "not-attainable",
            }
            if verdict.classification == "strongly-regular":
                assert verdict.interval.width <= 1e-9 * max(1.0, verdict.price)
            if verdict.supporting_deflator is not None:
                assert verdict.supporting_deflator.values.min() > 0
        # the random corpus must exercise the degenerate and open cases
        assert "strongly-regular" in seen or "regular-attainable" in seen
        assert "not-attainable" in seen


class TestValidation:
    def test_negative_claim_rejected(self):
        with pytest.raises(ModelError):
            Claim([1.0, -0.5])

    def test_wrong_length_claim(self, t1_model):
        with pytest.raises(ValueError, match="leaves"):
            superhedge_price(t1_model, Claim([1.0, 0.0]))
