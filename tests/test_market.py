"""Tree and market construction, wealth algebra, numeraire changes."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fairtree import (
    Claim,
    Deflator,
    DeflatorError,
    MarketModel,
    ModelError,
    ScenarioTree,
    Strategy,
    build_market,
    check_deflator_values,
    complete_strategy,
    deflate,
    fair_price_process,
    generate_market,
    self_financing_violations,
    wealth_process,
)
from fairtree.market import martingale_defect

from conftest import fair_corpus, mixed_market, priced_market, shuffled_tree

B1_NODES = [("r", None, 1.0), ("u", "r", 0.5), ("d", "r", 0.5)]
B1_PRICES = [[1, 1, 1], [1, 2, 0.5]]


def b1_pair():
    tree = ScenarioTree.build(B1_NODES)
    return tree, build_market(tree, B1_PRICES, ("bond", "stock"))


# ---------------------------------------------------------------------------
# tree construction
# ---------------------------------------------------------------------------


class TestScenarioTree:
    def test_indexing_and_paths(self):
        tree = ScenarioTree.build(
            [("r", None, 1.0), ("a", "r", 0.25), ("b", "r", 0.75),
             ("aa", "a", 1.0), ("ba", "b", 0.5), ("bb", "b", 0.5)]
        )
        assert tree.n_nodes == 6
        assert tree.horizon == 2
        assert tree.node_index("ba") == 4
        assert list(tree.leaves) == [3, 4, 5]
        assert tree.path_prob[tree.node_index("bb")] == pytest.approx(0.375)
        assert tree.children[tree.node_index("b")] == (4, 5)

    def test_expect_terminal_is_conditional_expectation(self):
        tree = ScenarioTree.build(
            [("r", None, 1.0), ("a", "r", 0.25), ("b", "r", 0.75),
             ("aa", "a", 1.0), ("ba", "b", 0.5), ("bb", "b", 0.5)]
        )
        values = tree.expect_terminal([8.0, 4.0, 0.0])
        assert values[tree.node_index("aa")] == 8.0  # leaves keep their value
        assert values[tree.node_index("b")] == pytest.approx(2.0)
        assert values[0] == pytest.approx(0.25 * 8 + 0.75 * 2)

    @pytest.mark.parametrize("seed", range(10))
    def test_expect_terminal_matches_the_node_loop(self, seed):
        rng = np.random.default_rng(seed)
        tree = shuffled_tree(rng)
        leaf_values = rng.uniform(0.5, 2.0, tree.n_leaves)
        expected = np.zeros(tree.n_nodes)
        expected[tree.leaves] = leaf_values
        for k in range(tree.n_nodes - 1, -1, -1):
            ch = list(tree.children[k])
            if ch:
                expected[k] = tree.branch_prob[ch] @ expected[ch]
        values = tree.expect_terminal(leaf_values)
        np.testing.assert_array_equal(values[tree.leaves], leaf_values)
        assert np.abs(values - expected).max() <= 1e-15 * np.abs(expected).max()

    @pytest.mark.parametrize("seed", range(10))
    def test_levels_and_the_forward_walk_match_the_node_loop(self, seed):
        """On a tree listed out of time order, each level holds its time's
        nodes in index order, and the walk equals a node-by-node pass in
        index order bit for bit, with one step array or several."""
        rng = np.random.default_rng(seed)
        tree = shuffled_tree(rng)
        n = tree.n_nodes
        times = [0] * n
        for k in range(1, n):
            times[k] = times[tree.parent[k]] + 1
        assert [level.tolist() for level in tree.levels] == [
            [k for k in range(n) if times[k] == t] for t in range(tree.horizon + 1)
        ]
        assert times != sorted(times)
        ratio, gain, cost = rng.uniform(0.5, 2.0, (3, n))
        for root, combine, steps in (
            (1.0, np.multiply, (ratio,)),
            (0.0, lambda up, g, c: up + g - c, (gain, cost)),
        ):
            expected = [root] * n
            for k in range(1, n):
                expected[k] = combine(expected[tree.parent[k]], *(step[k] for step in steps))
            assert tree.forward(root, combine, *steps).tolist() == expected

    @pytest.mark.parametrize("seed", range(10))
    def test_descendant_leaves_match_a_depth_first_search(self, seed):
        tree = shuffled_tree(np.random.default_rng(seed))
        for node in range(tree.n_nodes):
            stack, found = [node], set()
            while stack:
                k = stack.pop()
                if tree.children[k]:
                    stack.extend(tree.children[k])
                else:
                    found.add(k)
            expected = [i for i, leaf in enumerate(tree.leaves.tolist()) if leaf in found]
            assert tree.descendant_leaves(node).tolist() == expected

    def test_descendant_leaves(self):
        tree = ScenarioTree.build(
            [("r", None, 1.0), ("a", "r", 0.5), ("b", "r", 0.5),
             ("aa", "a", 1.0), ("ba", "b", 0.5), ("bb", "b", 0.5)]
        )
        # positions into tree.leaves, not raw node indices
        assert list(tree.leaves[tree.descendant_leaves(tree.node_index("b"))]) == [4, 5]
        assert list(tree.descendant_leaves(0)) == [0, 1, 2]

    @pytest.mark.parametrize(
        "nodes, fragment",
        [
            ([], "at least one node"),
            ([("r", None, 1.0), ("r", "r", 1.0)], "duplicate"),
            ([("r", None, 1.0), ("a", "zz", 1.0)], "must appear earlier"),
            ([("r", None, 1.0), ("a", "r", 0.0)], "branch probability"),
            ([("r", None, 1.0), ("a", "r", -0.5)], "branch probability"),
            ([("r", None, 0.5), ("a", "r", 1.0)], "root"),
            ([("a", "b", 1.0)], "must appear earlier"),
            ([("r", None, 1.0), ("a", "r", 0.6), ("b", "r", 0.6)], "sum to"),
            # one leaf at time 1, the other at time 2
            (
                [("r", None, 1.0), ("a", "r", 0.5), ("b", "r", 0.5),
                 ("aa", "a", 1.0)],
                "horizon",
            ),
        ],
    )
    def test_rejects_malformed_trees(self, nodes, fragment):
        with pytest.raises(ModelError, match=fragment):
            ScenarioTree.build(nodes)

    @pytest.mark.parametrize("seed", range(10))
    def test_arrays_match_the_node_loop(self, seed):
        tree = shuffled_tree(np.random.default_rng(seed))
        n = tree.n_nodes
        kids, times, path = [[] for _ in range(n)], [0] * n, [1.0] * n
        for k in range(1, n):
            p = tree.parent[k]
            kids[p].append(k)
            times[k] = times[p] + 1
            path[k] = path[p] * tree.branch_prob[k]
        assert tree.children == tuple(map(tuple, kids))
        assert tree.time.tolist() == times
        # the same products in the same order: equal bit for bit
        assert tree.path_prob.tolist() == path
        assert tree.leaves.tolist() == [k for k in range(n) if not kids[k]]

    def test_names_the_first_node_whose_children_miss_one(self):
        # siblings interleaved in document order; both 'a' and 'b' offend
        nodes = [("r", None, 1.0), ("a", "r", 0.5), ("b", "r", 0.5),
                 ("ba", "b", 0.3), ("aa", "a", 0.6), ("bb", "b", 0.3), ("ab", "a", 0.6)]
        with pytest.raises(ModelError) as info:
            ScenarioTree.build(nodes)
        assert str(info.value) == (
            "children of node 'a': branch probabilities sum to 1.2, expected 1"
        )

    @pytest.mark.parametrize(
        "nodes, message",
        [
            # each list breaks more than one whole-list check; the message
            # names the first offender in node order
            ([("r", None, 1.0), ("a", "r", 1.5), ("a", "r", 0.5)],
             "node 'a': branch probability must lie in (0, 1], got 1.5"),
            ([("r", None, 1.0), ("a", "b", 0.5), ("b", "r", 0.0)],
             "node 'a': parent 'b' must appear earlier in the node list"),
            ([("r", None, 1.0), ("r", "r", 0.5), ("b", "r", "x")], "duplicate node id 'r'"),
            ([("r", None, 1.0), ("", "r", 0.5), ("b", "r")],
             "node ids must be non-empty strings"),
            ([("r", None, 1.0), ("a", "a", 1.0)],
             "node 'a': parent 'a' must appear earlier in the node list"),
        ],
    )
    def test_names_the_first_offending_node(self, nodes, message):
        with pytest.raises(ModelError) as info:
            ScenarioTree.build(nodes)
        assert str(info.value) == message

    def test_two_roots_rejected(self):
        with pytest.raises(ModelError):
            ScenarioTree.build([("r", None, 1.0), ("s", None, 1.0)])


# ---------------------------------------------------------------------------
# market construction
# ---------------------------------------------------------------------------


class TestBuildMarket:
    def test_b1_numeraire(self):
        _, model = b1_pair()
        assert model.n_assets == 2
        np.testing.assert_allclose(model.numeraire, [1.0, 1.5, 0.75])
        assert model.total_initial == pytest.approx(2.0)

    def test_single_node_degenerate(self):
        tree = ScenarioTree.build([("r", None, 1.0)])
        model = build_market(tree, [[1.0]])
        assert model.numeraire[0] == 1.0
        assert model.tree.horizon == 0

    def test_rejects_negative_price(self):
        tree, _ = b1_pair()
        with pytest.raises(ModelError, match="negative"):
            build_market(tree, [[1, 1, 1], [1, 2, -0.5]])

    def test_rejects_zero_initial_price(self):
        tree, _ = b1_pair()
        with pytest.raises(ModelError, match="root"):
            build_market(tree, [[1, 1, 1], [0, 2, 0.5]])

    def test_rejects_zero_aggregate(self):
        tree, _ = b1_pair()
        with pytest.raises(ModelError, match="aggregate"):
            build_market(tree, [[1, 1, 0], [1, 2, 0]])

    def test_rejects_absorbing_zero_violation(self):
        tree = ScenarioTree.build(
            [("r", None, 1.0), ("a", "r", 1.0), ("aa", "a", 1.0)]
        )
        with pytest.raises(ModelError, match="absorbing"):
            build_market(tree, [[1, 1, 1], [1, 0, 0.5]])

    def test_names_the_first_revival_in_tree_order(self):
        # 'bb' comes first in the document, but the edge from 'a' is checked
        # first, and at it the lowest revived asset is named
        tree = ScenarioTree.build(
            [("r", None, 1.0), ("a", "r", 0.5), ("b", "r", 0.5),
             ("bb", "b", 1.0), ("aa", "a", 1.0)]
        )
        with pytest.raises(ModelError) as info:
            build_market(tree, [[1, 1, 1, 1, 1], [1, 0, 0, 1, 1], [1, 0, 1, 1, 1]])
        assert str(info.value) == (
            "asset 1 revives at node 'aa' after hitting zero; zero prices are absorbing"
        )

    def test_ruin_asset_accepted(self):
        tree = ScenarioTree.build(
            [("r", None, 1.0), ("a", "r", 1.0), ("aa", "a", 1.0)]
        )
        model = build_market(tree, [[1, 1, 1], [1, 0, 0]])
        assert model.price[1, 1] == 0.0
        assert np.all(model.numeraire > 0)

    def test_rejects_dimension_mismatch(self):
        tree, _ = b1_pair()
        with pytest.raises(ModelError):
            build_market(tree, [[1, 1], [1, 2]])


# ---------------------------------------------------------------------------
# wealth algebra
# ---------------------------------------------------------------------------


def node_wealth(model, holdings, initial):
    """:func:`wealth_process` as a node-by-node loop."""
    tree = model.tree
    wealth = np.empty(tree.n_nodes)
    wealth[0] = float(initial)
    for k in range(1, tree.n_nodes):
        wealth[k] = float(holdings[:, tree.parent[k]] @ model.price[:, k])
    return wealth


def node_violations(model, holdings, initial, tol):
    """:func:`self_financing_violations` as a node-by-node loop."""
    tree = model.tree
    out = []
    gap = abs(float(holdings[:, 0] @ model.price[:, 0]) - float(initial))
    if gap > tol:
        out.append((0, gap))
    for k in range(1, tree.n_nodes):
        if tree.is_leaf(k):
            continue
        diff = holdings[:, k] - holdings[:, tree.parent[k]]
        gap = abs(float(diff @ model.price[:, k]))
        if gap > tol:
            out.append((k, gap))
    return out


def node_completion(model, partial, initial):
    """:func:`complete_strategy`'s holdings as a node-by-node loop."""
    tree = model.tree
    aggregate = model.price.sum(axis=0)
    uniform = np.zeros(tree.n_nodes)
    uniform[0] = (float(initial) - float(partial[:, 0] @ model.price[:, 0])) / aggregate[0]
    for k in range(1, tree.n_nodes):
        if tree.is_leaf(k):
            continue
        p = tree.parent[k]
        inherited = uniform[p] * aggregate[k] + float((partial[:, p] - partial[:, k]) @ model.price[:, k])
        uniform[k] = inherited / aggregate[k]
    return partial + uniform[np.newaxis, :]


def wealth_markets():
    """Markets on trees listed out of time order with 1-6 assets, and on
    chains of two and three nodes, whose passes have a single column."""
    rng = np.random.default_rng(11)
    for assets in range(1, 7):
        yield priced_market(shuffled_tree(rng), rng, assets)
    for ids in (["r", "a"], ["r", "a", "b"]):
        tree = ScenarioTree.build([(ids[0], None, 1.0)] + [(c, p, 1.0) for p, c in zip(ids, ids[1:])])
        yield build_market(tree, rng.uniform(0.5, 2.0, (5, len(ids))))


class TestWealth:
    def test_passes_equal_the_node_loops_bit_for_bit(self):
        rng = np.random.default_rng(3)
        for model in wealth_markets():
            for _ in range(3):
                holdings = rng.normal(size=model.price.shape)
                strategy = Strategy(holdings)
                np.testing.assert_array_equal(
                    wealth_process(model, strategy, 0.7), node_wealth(model, holdings, 0.7)
                )
                for tol in (0.0, 1.0):
                    assert self_financing_violations(
                        model, strategy, initial=0.7, tol=tol
                    ) == node_violations(model, holdings, 0.7, tol)
                np.testing.assert_array_equal(
                    complete_strategy(model, strategy, 1.3).holdings,
                    node_completion(model, holdings, 1.3),
                )

    def test_b1_replication_of_call(self):
        _, model = b1_pair()
        theta = Strategy([[-1 / 3] * 3, [2 / 3] * 3])
        np.testing.assert_allclose(
            wealth_process(model, theta, 1 / 3), [1 / 3, 1.0, 0.0], atol=1e-15
        )
        assert self_financing_violations(model, theta, initial=1 / 3) == []

    def test_zero_strategy(self):
        _, model = b1_pair()
        wealth = wealth_process(model, Strategy(np.zeros((2, 3))), 0.0)
        np.testing.assert_array_equal(wealth, np.zeros(3))

    def test_buy_and_hold_tracks_aggregate(self):
        _, model = b1_pair()
        theta = Strategy(np.ones((2, 3)))
        wealth = wealth_process(model, theta, model.total_initial)
        np.testing.assert_allclose(wealth, model.price.sum(axis=0))

    def test_violations_flag_consumption(self):
        market = b1_pair()[1]
        # position changes at the root's children would matter only if they
        # had children themselves; inject a root budget gap instead
        theta = Strategy([[0.0] * 3, [1.0] * 3])
        hits = self_financing_violations(market, theta, initial=0.5)
        assert hits and hits[0][0] == 0
        assert hits[0][1] == pytest.approx(0.5)

    def test_shape_mismatch(self):
        _, model = b1_pair()
        with pytest.raises(ValueError, match="shape"):
            wealth_process(model, Strategy(np.zeros((3, 3))), 0.0)


class TestCompleteStrategy:
    def test_zero_partial_buys_the_aggregate(self):
        _, model = b1_pair()
        strat = complete_strategy(model, Strategy(np.zeros((2, 3))), 5.0)
        np.testing.assert_allclose(strat.holdings[:, 0], [2.5, 2.5])
        wealth = wealth_process(model, strat, 5.0)
        np.testing.assert_allclose(wealth, 5.0 * model.numeraire)

    def test_b1_stock_leg_gets_uniform_adjustment(self):
        """The completion adds the same amount of every asset: a stock-only
        2/3 position costing 2/3 needs a uniform -1/6 to open at 1/3."""
        _, model = b1_pair()
        partial = Strategy([[0.0] * 3, [2 / 3] * 3])
        strat = complete_strategy(model, partial, 1 / 3)
        shift = strat.holdings - partial.holdings
        np.testing.assert_allclose(shift[0, 0], shift[1, 0])
        assert strat.holdings[0, 0] == pytest.approx(-1 / 6)
        assert strat.holdings[1, 0] == pytest.approx(1 / 2)
        assert strat.holdings[:, 0] @ model.price[:, 0] == pytest.approx(1 / 3)

    @given(st.integers(0, 2**32 - 1), st.floats(-3.0, 3.0))
    def test_output_is_always_self_financing(self, seed, x):
        model = b1_pair()[1]
        rng = np.random.default_rng(seed)
        partial = Strategy(rng.normal(size=(2, 3)))
        strat = complete_strategy(model, partial, x)
        assert self_financing_violations(model, strat, initial=x) == []

    def test_multi_period_self_financing(self, two_period):
        rng = np.random.default_rng(7)
        partial = Strategy(rng.normal(size=(2, 7)))
        strat = complete_strategy(two_period, partial, 2.0)
        assert self_financing_violations(two_period, strat, initial=2.0) == []


# ---------------------------------------------------------------------------
# numeraire changes
# ---------------------------------------------------------------------------


class TestDeflate:
    def test_deflating_by_numeraire(self):
        _, model = b1_pair()
        deflated = deflate(model, 1.0 / model.numeraire)
        np.testing.assert_allclose(deflated.price[0], [1, 2 / 3, 4 / 3])
        np.testing.assert_allclose(deflated.price[1], [1, 4 / 3, 2 / 3])
        # the aggregate is constant after deflation
        np.testing.assert_allclose(deflated.price.sum(axis=0), 2.0)

    def test_identity_numeraire(self):
        _, model = b1_pair()
        same = deflate(model, np.ones(3))
        np.testing.assert_array_equal(same.price, model.price)

    def test_rejects_nonpositive_numeraire(self):
        _, model = b1_pair()
        with pytest.raises(ModelError):
            deflate(model, [1.0, 0.0, 1.0])

    @given(st.integers(0, 2**32 - 1))
    def test_self_financing_invariant_under_scaling(self, seed):
        """A self-financing strategy stays self-financing in any rescaled
        market, and its wealth transforms by the same scaling, exactly."""
        model = b1_pair()[1]
        rng = np.random.default_rng(seed)
        strat = complete_strategy(model, Strategy(rng.normal(size=(2, 3))), 1.0)
        y = np.exp(rng.normal(size=3))
        y[0] = 1.0
        scaled = deflate(model, y)
        assert self_financing_violations(scaled, strat, initial=1.0) == []
        w = wealth_process(model, strat, 1.0)
        w_scaled = wealth_process(scaled, strat, 1.0)
        np.testing.assert_allclose(w_scaled, y * w, rtol=0, atol=1e-12)

    def test_both_directions_of_the_deflated_equivalence(self, two_period):
        """Self-financing in original prices iff in numeraire-deflated ones."""
        rng = np.random.default_rng(21)
        strat = complete_strategy(
            two_period, Strategy(rng.normal(size=(2, 7))), 1.5
        )
        deflated = deflate(two_period, 1.0 / two_period.numeraire)
        assert self_financing_violations(deflated, strat) == []
        # and a strategy self-financing only in the deflated market maps back
        back = deflate(deflated, two_period.numeraire)
        assert self_financing_violations(back, strat) == []


# ---------------------------------------------------------------------------
# deflator validation and pricing
# ---------------------------------------------------------------------------


class TestDeflatorPricing:
    def test_b1_unique_deflator_prices_the_call(self):
        _, model = b1_pair()
        m = [1.0, 2 / 3, 4 / 3]
        values = fair_price_process(model, m, Claim([1.0, 0.0]))
        assert values[0] == pytest.approx(1 / 3)
        np.testing.assert_allclose(values[1:], [1.0, 0.0])

    def test_zero_claim_prices_to_zero(self):
        _, model = b1_pair()
        values = fair_price_process(model, [1.0, 2 / 3, 4 / 3], Claim([0.0, 0.0]))
        np.testing.assert_array_equal(values, np.zeros(3))

    def test_primitive_asset_reprices_itself(self):
        _, model = b1_pair()
        claim = Claim(model.price[1, model.tree.leaves])
        values = fair_price_process(model, [1.0, 2 / 3, 4 / 3], claim)
        np.testing.assert_allclose(values, model.price[1], atol=1e-12)

    def test_deflated_price_is_a_martingale(self):
        _, model = b1_pair()
        m = np.array([1.0, 2 / 3, 4 / 3])
        values = fair_price_process(model, m, Claim([1.0, 0.25]))
        probs = model.tree.branch_prob
        assert m[0] * values[0] == pytest.approx(
            probs[1] * m[1] * values[1] + probs[2] * m[2] * values[2]
        )

    @pytest.mark.parametrize(
        "bad",
        [
            [1.0, -2 / 3, 4 / 3],  # negative level
            [0.9, 2 / 3, 4 / 3],   # wrong root level
            [1.0, 1.0, 1.0],       # not a martingale deflator for the stock
        ],
    )
    def test_check_deflator_values_rejects(self, bad):
        _, model = b1_pair()
        with pytest.raises(DeflatorError):
            check_deflator_values(model, bad)

    def test_wrapped_and_bare_deflators_accepted(self):
        _, model = b1_pair()
        bare = np.array([1.0, 2 / 3, 4 / 3])
        assert np.array_equal(check_deflator_values(model, bare), bare)
        wrapped = Deflator(bare)
        assert np.array_equal(check_deflator_values(model, wrapped), bare)

    def test_martingale_defect_matches_a_node_loop(self):
        rng = np.random.default_rng(4)
        for model in fair_corpus(10):
            tree = model.tree
            levels = rng.uniform(0.5, 2.0, tree.n_nodes)
            prices = rng.uniform(0.0, 3.0, (2, tree.n_nodes))
            for rows in (None, prices):
                x = model.price if rows is None else rows
                expected = []
                for k in range(tree.n_nodes):
                    ch = list(tree.children[k])
                    if ch:
                        lhs = x[:, ch] @ (tree.branch_prob[ch] * levels[ch])
                        rhs = levels[k] * x[:, k]
                        expected.append((float(np.max(np.abs(lhs - rhs) / np.maximum(1.0, np.abs(rhs)))), k))
                worst, node = martingale_defect(model, levels, rows)
                best = max(expected)
                assert worst == pytest.approx(best[0], rel=1e-12)
                assert dict((k, d) for d, k in expected)[node] == pytest.approx(best[0], rel=1e-12)

    def test_martingale_defect_sums_like_add_at(self):
        # the worst defect, bit for bit, and its node are those of sums
        # taken with an unbuffered np.add.at, on trees with 1-4 children
        # per node and at the generator's largest shape
        def reference(model, levels, rows):
            tree = model.tree
            inner = np.unique(tree.parent[1:])
            deflated = np.atleast_2d(model.price if rows is None else rows) * levels
            lhs = np.zeros_like(deflated)
            np.add.at(lhs, (slice(None), tree.parent[1:]), deflated[:, 1:] * tree.branch_prob[1:])
            rhs = deflated[:, inner]
            defect = (np.abs(lhs[:, inner] - rhs) / np.maximum(1.0, np.abs(rhs))).max(axis=0)
            worst = int(np.argmax(defect))
            return float(defect[worst]), int(inner[worst])

        rng = np.random.default_rng(9)
        models = [mixed_market(seed) for seed in range(4)]
        models += [
            generate_market(seed=seed, depth=depth, branching=branching, assets=assets)
            for seed in range(2)
            for depth, branching, assets in [(6, 2, 1), (4, 3, 2), (3, 4, 4), (6, 4, 5)]
        ]
        for model in models:
            n = model.tree.n_nodes
            levels = rng.uniform(0.5, 2.0, n)
            for rows in (None, rng.uniform(0.0, 3.0, n), rng.uniform(0.0, 3.0, (3, n))):
                worst, node = martingale_defect(model, levels, rows)
                expected = reference(model, levels, rows)
                assert (worst, node) == expected
                assert worst > 0.0

    def test_martingale_defect_of_a_one_node_tree(self):
        tree = ScenarioTree.build([("r", None, 1.0)])
        assert martingale_defect(build_market(tree, [[1.0]]), [1.0]) == (0.0, 0)
