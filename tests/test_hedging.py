"""Superhedging prices, optional decomposition, attainability classes."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

import fairtree.deflators
import fairtree.hedging
from fairtree import (
    Claim,
    ModelError,
    ScenarioTree,
    build_market,
    SizeGuardError,
    SupermartingaleError,
    check_supermartingale,
    classify_attainability,
    default_claims,
    generate_market,
    local_vertices,
    log_utility,
    optional_decomposition,
    polytope_minimizer,
    require_fair,
    solve_dual,
    SolverError,
    superhedge_price,
    superhedge_process,
    wealth_process,
)

from fairtree.deflators import _local_system, _node_lp, _node_stacks, _svd_rank
from fairtree.hedging import SUPERMARTINGALE_SLACK
from fairtree.oracle import lp_superhedge_process
from fairtree.utility import _budget_multiplier, _replicate

from conftest import (
    corpus_claim,
    fair_corpus,
    mixed_market,
    priced_market,
    wide_market,
    wide_two_step_market,
)


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
        _, _, matrix, rhs, _ = _local_system(model, node)
        ratios = _node_lp(matrix, rhs, cost)[0]
        return ratios, ratios @ cost
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
    have 1-4 children, and a node past the vertex guard at the root and
    below it."""
    for i, model in enumerate(fair_corpus(20)):
        yield model, list(default_claims(model, seed=1000 + i).values())
    for seed in range(6):
        model = mixed_market(seed)
        yield model, list(default_claims(model, seed=seed).values())
    for model, claim in (wide_market(), wide_two_step_market()):
        yield model, [claim]


def kernel_and_lp_market():
    """Two steps whose second level group holds a rank-2 node with 25
    children, solved by the basis kernel, and a rank-12 node with 25
    children, past the vertex guard (C(25, 12) bases)."""
    rng = np.random.default_rng(12)
    nodes = [("r", None, 1.0), ("a", "r", 0.5), ("b", "r", 0.5)]
    for parent in "ab":
        probs = rng.dirichlet(np.ones(25))
        nodes += [(f"{parent}{j}", parent, float(p)) for j, p in enumerate(probs)]
    tree = ScenarioTree.build(nodes)
    ratio = rng.uniform(0.7, 1.3, tree.n_nodes)
    prices = np.ones((12, tree.n_nodes))
    prices[1:, tree.leaves] = rng.uniform(0.5, 2.0, (11, tree.n_leaves))
    a, b = tree.ids.index("a"), tree.ids.index("b")
    b_leaves = list(tree.children[b])
    prices[2:, b_leaves] = prices[1, b_leaves]  # rank 2 at b
    for k in (b, a, 0):
        ch = list(tree.children[k])
        prices[:, k] = prices[:, ch] @ (tree.branch_prob[ch] * ratio[ch])
    model = build_market(tree, prices)
    return model, Claim(rng.uniform(0.0, 1.0, tree.n_leaves))


def two_stack_market():
    """Three steps whose time-1 nodes have 2 and 3 children and whose
    time-2 nodes have 3 and 2, so each branching's stack spans several
    times and each time step holds both stacks."""
    nodes = [("r", None, 1.0), ("a", "r", 0.4), ("b", "r", 0.6)]
    for parent, count in (("a", 2), ("b", 3), ("a0", 3), ("a1", 2), ("b0", 2), ("b1", 3), ("b2", 3)):
        probs = np.random.default_rng(len(nodes)).dirichlet(np.ones(count))
        nodes += [(f"{parent}{j}", parent, float(p)) for j, p in enumerate(probs)]
    model = priced_market(ScenarioTree.build(nodes), np.random.default_rng(21), 2)
    assert {tuple(stack.nodes.tolist()) for stack in _node_stacks(model)} == {
        tuple(model.tree.node_index(name) for name in names)
        for names in (("r", "a", "a1", "b0"), ("b", "a0", "b1", "b2"))
    }
    claims = default_claims(model, seed=21)
    return model, list(claims.values())


def stack_markets():
    """:func:`step_markets`, the kernel and node-LP level group and the
    two-stack market."""
    yield from step_markets()
    model, claim = kernel_and_lp_market()
    yield model, [claim]
    yield two_stack_market()


def node_decomposition(model, values):
    """:func:`optional_decomposition` one node at a time, in tree order,
    each node's one-step system built and solved as a stack of one (the
    stacked products round by the same kernels as the engine's): holdings
    and consumption.  The positions are checked one ``(time, branching)``
    group at a time in time order, so a failure names the same node."""
    tree = model.tree
    holdings = np.zeros((model.n_assets, tree.n_nodes))
    consumption = np.zeros(tree.n_nodes)
    misses = {}
    for k in range(tree.n_nodes):  # parents before children
        if not tree.children[k]:
            continue
        node = np.array([k])
        ch, probs, matrix, rhs, scale = _local_system(model, node)
        target = probs * values[ch]
        cost_slack = SUPERMARTINGALE_SLACK * np.maximum(1.0, np.abs(values[node]))
        slack = np.maximum(cost_slack, SUPERMARTINGALE_SLACK * np.abs(values[ch]).max(axis=1))
        try:
            local_vertices(model, k)
        except SizeGuardError:
            theta = -_node_lp(matrix[0], rhs[0], -target[0])[1][np.newaxis]
        else:
            left, _, _, _, rank = _svd_rank(matrix)
            _, feasible, factors = fairtree.deflators._basic_solutions(
                matrix, rhs, left, int(rank[0])
            )
            duals = fairtree.deflators._basis_multipliers(factors, target)
            reduced = np.einsum("gmc,gbm->gbc", matrix, duals) - target[:, np.newaxis]
            optimal = feasible & (reduced.min(axis=2) >= -slack[:, np.newaxis])
            theta = duals[:, np.argmax(optimal[0])]
        position = theta / scale
        holdings[:, k] = position[0]
        surplus = np.einsum("gmc,gm->gc", matrix, theta) - target
        node_gap = values[node] - np.einsum("gd,dg->g", position, model.price[:, node])
        misses[k] = ((-surplus.min(), slack[0]), (-node_gap[0], cost_slack[0]))
        payoff = np.einsum("gd,dgn->gn", position, model.price[:, ch])
        consumption[ch] = (
            consumption[node][:, np.newaxis] + payoff - values[ch] + node_gap[:, np.newaxis]
        )
    order = sorted(misses, key=lambda k: (tree.time[k], len(tree.children[k]), k))
    for _, members in itertools.groupby(order, lambda k: (tree.time[k], len(tree.children[k]))):
        members = list(members)
        for check, name in enumerate(("dominate the children", "stay within the process")):
            for k in members:
                miss, bound = misses[k][check]
                if miss > bound:
                    raise SolverError(
                        f"decomposition position fails to {name} at node "
                        f"{tree.ids[k]!r} by {miss:.3e}"
                    )
    return holdings, consumption


def node_replication(model, utility, deflator, x):
    """:func:`~fairtree.utility._replicate` one node at a time, in tree
    order, as a stack of one: each position is the pseudo-inverse of its
    node's rows as its stack holds it (``tests/test_kernel.py`` holds that
    build against one built per group) times its children's wealth.
    Returns holdings, wealth and the largest absolute cumulative miss."""
    tree = model.tree
    rows = {k: (stack, i) for stack in _node_stacks(model) for i, k in enumerate(stack.nodes.tolist())}
    levels = deflator.values
    y = _budget_multiplier(utility, tree.path_prob[tree.leaves], levels[tree.leaves], x)
    terminal = utility.inverse_marginal(y * levels[tree.leaves])
    wealth = tree.expect_terminal(levels[tree.leaves] * terminal) / levels
    holdings = np.zeros((model.n_assets, tree.n_nodes))
    consumption = np.zeros(tree.n_nodes)
    for k in range(tree.n_nodes):
        if not tree.children[k]:
            continue
        stack, i = rows[k]
        one = slice(i, i + 1)
        node, ch = stack.nodes[one], stack.children[one]
        position = np.einsum(
            "gnd,gn->gd", stack.pinv[one], stack.probs[one] * wealth[ch]
        ) / stack.scale[one]
        holdings[:, k] = position[0]
        cost = np.einsum("gd,dg->g", position, model.price[:, node])
        payoff = np.einsum("gd,dgn->gn", position, model.price[:, ch])
        miss = payoff - wealth[ch] + (wealth[node] - cost)[:, np.newaxis]
        consumption[ch] = consumption[node][:, np.newaxis] + miss
    return holdings, wealth, float(np.abs(consumption).max())


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

    def test_node_past_the_guard_solves_one_lp(self, monkeypatch):
        """The supermartingale check's vertex step hands its node LP's
        duals to the decomposition, so the 30-child root is solved once."""
        model, claim = wide_market()
        process = superhedge_process(model, claim)
        original = fairtree.deflators.solve_lp
        calls = []

        def counted(program):
            calls.append(program.objective.size)
            return original(program)

        monkeypatch.setattr(fairtree.deflators, "solve_lp", counted)
        result = optional_decomposition(model, process)
        assert len(calls) == 1
        wealth = decomposition_wealth(model, result, process[0])
        np.testing.assert_allclose(wealth, process, rtol=0, atol=1e-9)

    def test_group_with_kernel_and_node_lp_nodes(self, monkeypatch):
        """One level group holds a rank-2 node, solved by the kernel, and a
        rank-12 node past the guard (C(25, 12) bases), which takes the
        vertex step's duals: each gets its own node's position."""
        model, claim = kernel_and_lp_market()
        process = superhedge_process(model, claim)
        original = fairtree.deflators.solve_lp
        calls = []

        def counted(program):
            calls.append(program.objective.size)
            return original(program)

        monkeypatch.setattr(fairtree.deflators, "solve_lp", counted)
        result = optional_decomposition(model, process)
        assert len(calls) == 1
        wealth = decomposition_wealth(model, result, process[0])
        np.testing.assert_allclose(wealth, process, rtol=0, atol=1e-9)

    def test_supermartingale_precondition_enforced(self, t1_model):
        growing = np.asarray(t1_model.tree.time, dtype=float)
        with pytest.raises(SupermartingaleError) as info:
            optional_decomposition(t1_model, growing)
        assert info.value.node_id == "r"

    def test_martingale_process_passes_check(self, t1_model):
        # the claim pays the stock, so whichever deflator prices it, its
        # price process is the stock's: a martingale (so a supermartingale)
        # under every polytope vertex.  The deflated process is not checked:
        # it is a martingale only under the deflator that priced it.
        from fairtree import fair_price_process, sample_deflators

        for m in sample_deflators(t1_model, 8, seed=2):
            values = fair_price_process(t1_model, m, Claim([2.0, 1.0, 0.5]))
            np.testing.assert_allclose(values, t1_model.price[1], rtol=1e-12)
            check_supermartingale(t1_model, values)

    def test_slack_parameter_loosens_the_check(self, t1_model):
        nearly_flat = np.ones(t1_model.tree.n_nodes)
        nearly_flat[1:] += 5e-8  # a hair above a martingale
        with pytest.raises(SupermartingaleError):
            check_supermartingale(t1_model, nearly_flat, slack=1e-9)
        check_supermartingale(t1_model, nearly_flat, slack=1e-6)


class TestStackedPasses:
    """The decomposition's positions and the replication's misses take one
    pass per branching's stack; only their consumption sums run forward
    one level group at a time.  Node by node they come out the same to
    the bit."""

    def test_stack_passes_equal_the_node_loop_bit_for_bit(self):
        utility = log_utility()
        for model, claims in stack_markets():
            for claim in claims:
                process = superhedge_process(model, claim)
                result = optional_decomposition(model, process)
                holdings, consumption = node_decomposition(model, process)
                np.testing.assert_array_equal(result.strategy.holdings, holdings)
                np.testing.assert_array_equal(result.consumption, consumption)
            # the minimax deflator replicates; the fairness witness of an
            # incomplete market misses
            for deflator in (solve_dual(model, utility, 1.0).deflator, require_fair(model).witness):
                primal, _ = _replicate(model, utility, deflator, 1.0)
                holdings, wealth, max_consumption = node_replication(model, utility, deflator, 1.0)
                np.testing.assert_array_equal(primal.strategy.holdings, holdings)
                np.testing.assert_array_equal(primal.wealth, wealth)
                assert primal.max_consumption == max_consumption

    @pytest.mark.parametrize("scaled, named", [
        # a level group at time 1 before a later one, whatever the check
        ({"b": 1.1, "a1": 0.9}, ("stay within the process", "b")),
        # within a group a domination failure first, wherever its node
        ({"a0": 1.1, "b2": 0.9}, ("dominate the children", "b2")),
        # at one time, the group of fewer children first
        ({"a0": 0.9, "b0": 1.1}, ("stay within the process", "b0")),
    ])
    def test_a_failing_position_names_the_first_node_in_group_order(
        self, monkeypatch, scaled, named
    ):
        """The kernel's multipliers at the named nodes of the two-stack
        market are scaled down (the position no longer dominates) or up
        (it costs more than the process).  The error names the first
        failing node of the earliest ``(time, branching)`` group, a
        domination failure first, as the node loop does."""
        model, claims = two_stack_market()
        process = superhedge_process(model, claims[-1])
        costs = []
        for name, factor in scaled.items():
            children, probs = _local_system(model, model.tree.node_index(name))[:2]
            costs.append((probs * process[children], factor))
        multipliers = fairtree.deflators._basis_multipliers

        def scaled_kernel(factors, cost):
            duals = multipliers(factors, cost)
            for node_cost, factor in costs:
                if node_cost.shape == cost.shape[1:]:
                    duals[(cost == node_cost).all(axis=1)] *= factor
            return duals

        monkeypatch.setattr(fairtree.deflators, "_basis_multipliers", scaled_kernel)
        monkeypatch.setattr(fairtree.hedging, "_basis_multipliers", scaled_kernel)
        message = f"decomposition position fails to {named[0]} at node {named[1]!r}"
        with pytest.raises(SolverError, match=message):
            node_decomposition(model, process)
        with pytest.raises(SolverError, match=message):
            optional_decomposition(model, process)


def counting_kernel(monkeypatch):
    """Count :func:`_basic_solutions` calls as ``(rank, columns)`` pairs,
    whichever engine module makes them."""
    calls = []
    kernel = fairtree.deflators._basic_solutions

    def counted(matrix, rhs, left, rank, *args, **kwargs):
        calls.append((rank, matrix.shape[2]))
        return kernel(matrix, rhs, left, rank, *args, **kwargs)

    for module in (fairtree.deflators, fairtree.hedging):
        monkeypatch.setattr(module, "_basic_solutions", counted, raising=False)
    return calls


# the benchmark's incomplete and complete shapes and four more, (depth,
# branching, assets)
BASIS_SHAPES = (
    (6, 2, 1), (4, 3, 2), (3, 4, 2), (5, 2, 1), (6, 2, 2), (4, 3, 3),
    (3, 4, 4), (5, 2, 2), (3, 3, 2), (2, 4, 3), (4, 4, 2), (3, 4, 3),
)


class TestStoredBases:
    """The decomposition solves only each claim's multipliers on the
    bases its vertex tables kept, those of the nodes of full column rank
    included, so it makes no kernel call; the positions and consumption
    are those of a fresh kernel call per node, to the bit."""

    def test_no_kernel_call_on_the_incomplete_benchmark_shapes(self, monkeypatch):
        calls = counting_kernel(monkeypatch)
        for seed in range(3):
            for shape in BASIS_SHAPES[:4]:
                model = generate_market(seed, *shape)
                for claim in default_claims(model, seed=seed).values():
                    process = superhedge_process(model, claim)
                    calls.clear()
                    optional_decomposition(model, process)
                    assert calls == [], (seed, shape)

    def test_kernel_calls_only_for_full_rank_chunks(self, monkeypatch):
        # the node systems make the one kernel call per stack with nodes of
        # full column rank, on those nodes alone; the decomposition, on
        # full-rank and rank-deficient nodes alike, makes none
        calls = counting_kernel(monkeypatch)
        models = [(seed, generate_market(seed, *shape))
                  for seed in range(3) for shape in BASIS_SHAPES[4:]]
        models += [(seed, mixed_market(seed)) for seed in range(12)]
        ranks = {"full": 0, "deficient": 0}
        for seed, model in models:
            calls.clear()
            expected = []
            for stack in _node_stacks(model):
                columns = stack.children.shape[1]
                full = int((stack.rank == columns).sum())
                if full:
                    expected.append((columns, columns))
                ranks["full"] += full
                ranks["deficient"] += stack.rank.size - full
            assert calls == expected, seed
            for claim in default_claims(model, seed=seed).values():
                process = superhedge_process(model, claim)
                calls.clear()
                optional_decomposition(model, process)
                assert calls == [], seed
        assert ranks["full"] > 0 and ranks["deficient"] > 0

    def test_positions_equal_a_fresh_kernel_call_per_node(self):
        checked = 0
        for shape in BASIS_SHAPES:
            for seed in range(6):
                model = generate_market(seed, *shape)
                for claim in default_claims(model, seed=seed).values():
                    process = superhedge_process(model, claim)
                    result = optional_decomposition(model, process)
                    holdings, consumption = node_decomposition(model, process)
                    assert result.strategy.holdings.tobytes() == holdings.tobytes()
                    assert result.consumption.tobytes() == consumption.tobytes()
                    checked += 1
        assert checked == 288


class TestLargestShape:
    """The decomposition's invariants on the generator's largest shape,
    5461 nodes, where the oracles refuse to run."""

    @pytest.mark.parametrize("assets", [2, 5])
    def test_wealth_identity_and_domination(self, assets):
        model = generate_market(seed=7, depth=6, branching=4, assets=assets)
        tree = model.tree
        for name, claim in default_claims(model, seed=7).items():
            process = superhedge_process(model, claim)
            result = optional_decomposition(model, process)
            assert result.consumption[0] == 0.0
            drops = result.consumption[1:] - result.consumption[tree.parent[1:]]
            assert drops.min() >= -1e-9, name
            wealth = decomposition_wealth(model, result, process[0])
            np.testing.assert_allclose(wealth, process, rtol=0, atol=1e-7, err_msg=name)
            assert (wealth[tree.leaves] - claim.payoff).min() >= -1e-9, name


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
            assert verdict.classification in {"strongly-regular", "not-attainable"}
            if verdict.classification == "strongly-regular":
                assert verdict.interval.width <= 1e-9 * max(1.0, verdict.price)
                assert verdict.supporting_deflator.values.min() > 0
                assert verdict.boundary_witness is None
            else:
                assert verdict.boundary_witness is not None
                assert verdict.supporting_deflator is None
        # the random corpus must exercise the degenerate and open cases
        assert seen == {"strongly-regular", "not-attainable"}


class TestValidation:
    def test_negative_claim_rejected(self):
        with pytest.raises(ModelError):
            Claim([1.0, -0.5])

    def test_wrong_length_claim(self, t1_model):
        with pytest.raises(ValueError, match="leaves"):
            superhedge_price(t1_model, Claim([1.0, 0.0]))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_process_rejected(self, t1_model, value):
        """Both public entry points refuse a process with a value that is
        not finite, naming the first such node in tree order."""
        process = np.ones(4)
        process[2:] = value
        for entry in (check_supermartingale, optional_decomposition):
            with pytest.raises(ValueError, match="process value at node 'm' is not finite"):
                entry(t1_model, process)
        with pytest.raises(ValueError, match="node 'r' is not finite"):
            check_supermartingale(t1_model, np.full(4, value))
