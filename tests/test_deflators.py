"""Deflator polytope geometry: fairness, completeness, measures, sampling."""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

import fairtree.deflators
from fairtree import (
    Deflator,
    DeflatorError,
    MeasureWeights,
    SizeGuardError,
    ScenarioTree,
    UnfairMarketError,
    augment_market,
    build_market,
    build_polytope,
    check_complete,
    check_deflator_values,
    check_fair,
    default_claims,
    deflator_to_measure,
    fairness_report,
    generate_market,
    local_vertices,
    log_utility,
    measure_to_deflator,
    optional_decomposition,
    polytope_minimizer,
    require_fair,
    sample_deflators,
    solve_primal,
    superhedge_process,
)
from fairtree.deflators import (
    _STORE,
    _floor_step,
    _local_system,
    _node_stacks,
    _ray_tables,
    _svd_rank,
    _vertex_tables,
)
from fairtree.optim import solve_lp
from fairtree.oracle import completeness_via_claims, lp_interior_radius

from conftest import arb_corpus, fair_corpus, priced_market, wide_market, wide_two_step_market


class TestPolytope:
    def test_row_count_and_labels(self, t1_model):
        poly = build_polytope(t1_model)
        # one row per (non-leaf, asset) plus the root normalization
        assert poly.matrix.shape == (3, 4)
        assert poly.n_rows == 3 and poly.n_variables == 4
        kinds = {label[0] for label in poly.row_labels}
        assert "root" in kinds

    def test_members_satisfy_the_system(self, t1_model):
        poly = build_polytope(t1_model)
        for m in sample_deflators(t1_model, 5, seed=3):
            np.testing.assert_allclose(
                poly.matrix @ m.values, poly.rhs, atol=1e-10
            )

    def test_t1_family_parameterization(self, t1_model):
        """Solutions are exactly (1, t/2, 3 - 3t/2, t) for t in (0, 2)."""
        for m in sample_deflators(t1_model, 8, seed=9):
            _, mu, mm, md = m.values
            assert mu == pytest.approx(md / 2, abs=1e-10)
            assert mm == pytest.approx(3 - 1.5 * md, abs=1e-10)
            assert 0 < md < 2


def _assert_one_step_arbitrage(model, cert):
    """The certificate checks of ``fairtree fair --verify``, plus its
    reported cost and payoffs against the raw prices."""
    price = model.price
    ch = list(model.tree.children[cert.node])
    assert ch, "certificate must sit at a non-leaf node"
    assert cert.cost == pytest.approx(
        float(cert.holdings @ price[:, cert.node]), abs=1e-12
    )
    np.testing.assert_allclose(
        cert.payoffs, cert.holdings @ price[:, ch], atol=1e-12
    )
    assert cert.cost <= 1e-9
    assert cert.payoffs.min() >= -1e-9
    assert cert.payoffs.max() > 1e-10


def counted_lps(monkeypatch) -> list:
    """The variable count of every ``solve_lp`` call the engine makes from
    now on, in order."""
    original = fairtree.deflators.solve_lp
    calls = []

    def counted(program):
        calls.append(program.objective.size)
        return original(program)

    monkeypatch.setattr(fairtree.deflators, "solve_lp", counted)
    return calls


def root_markup_twin(seed: int, shape, eps: float):
    """``generate_market(seed, *shape)`` plus a copy of its first asset
    whose root price is marked up by ``eps``: a free lunch of relative size
    ``eps`` at the root."""
    model = generate_market(seed, *shape)
    copy = model.price[0].copy()
    copy[0] *= 1.0 + eps
    return build_market(model.tree, np.vstack([model.price, copy]))


def raised_copy(seed: int, shape, delta: float):
    """``generate_market(seed, *shape)`` plus a copy of its first asset
    whose price at every node but the root is raised by ``delta * S * u``,
    with ``S`` the first asset's price there and ``u`` drawn uniformly from
    [0.5, 1.5) per node: the copy pays more than the original everywhere,
    so the market is unfair at the root and, for some draws, below it."""
    model = generate_market(seed, *shape)
    u = np.random.default_rng(seed).uniform(0.5, 1.5, size=model.tree.n_nodes - 1)
    copy = model.price[0].copy()
    copy[1:] += delta * model.price[0, 1:] * u
    return build_market(model.tree, np.vstack([model.price, copy]))


def certificate_kind(model, node: int) -> str:
    """Which case of the certificate read applies at ``node``: its
    right-hand side off the column space, or else the payoff rays of a
    node of full or deficient column rank."""
    _, _, matrix, rhs, _ = _local_system(model, node)
    left, _, _, _, rank = _svd_rank(matrix[np.newaxis])
    beyond = left[0][:, rank[0]:]
    if np.abs(beyond @ (beyond.T @ rhs)).max() > 1e-9:
        return "off-span"
    return "full rank" if rank[0] == matrix.shape[1] else "rank deficient"


class TestFairness:
    def test_b1_unique_deflator(self, b1_model):
        report = check_fair(b1_model)
        assert report.fair
        np.testing.assert_allclose(report.witness.values, [1, 2 / 3, 4 / 3], atol=1e-9)
        # the single point of the polytope has floor 2/3
        assert report.interior_radius == pytest.approx(2 / 3, abs=1e-6)
        assert report.certificate is None

    def test_t1_witness_maximizes_the_floor(self, t1_model):
        report = check_fair(t1_model)
        assert report.fair
        # max_t min(1, t/2, 3 - 3t/2, t) = 3/4 at t = 3/2
        assert report.interior_radius == pytest.approx(0.75, abs=1e-6)
        check_deflator_values(t1_model, report.witness)

    def test_witnesses_validate_across_a_corpus(self):
        for model in fair_corpus(20):
            report = check_fair(model)
            assert report.fair
            check_deflator_values(model, report.witness)
            assert report.interior_radius > 1e-10

    def test_arbitrage_certificates_check_out(self):
        for model in arb_corpus(20):
            report = check_fair(model)
            assert not report.fair
            assert report.witness is None
            assert report.certificate is not None
            _assert_one_step_arbitrage(model, report.certificate)

    @pytest.mark.parametrize("leaf_children", [True, False])
    def test_certificate_screen_reuses_the_floor_past_the_guard(self, monkeypatch, leaf_children):
        """The root, past the vertex guard, has a copy of the bond marked
        up 25%.  Whether its children are leaves (floor 1) or not (floor
        under 1), check_fair solves the root's floor LP once, whose
        variables are one per child and three more, and reads the
        certificate off the root's right-hand side, which the twin puts
        off the column space, with no LP."""
        if leaf_children:
            model, _ = wide_market(30, 2)
        else:
            rng = np.random.default_rng(26)
            nodes = [("r", None, 1.0)]
            for j, p in enumerate(rng.dirichlet(np.ones(26))):
                nodes += [(f"c{j}", "r", float(p)), (f"c{j}u", f"c{j}", 0.5), (f"c{j}d", f"c{j}", 0.5)]
            model = priced_market(ScenarioTree.build(nodes), rng, 2)
        price = np.vstack([model.price, model.price[:1]])
        price[2, 0] *= 1.25
        twin = build_market(model.tree, price)
        calls = counted_lps(monkeypatch)
        report = check_fair(twin)
        assert not report.fair
        assert report.certificate.node_id == "r"
        children = len(model.tree.children[0])
        assert calls == [children + 3]

    @pytest.mark.parametrize("bump", [1e-2, 1e-6])
    def test_certificate_past_the_guard_from_the_node_program(self, monkeypatch, bump):
        """A copy of the stock paying ``bump`` more at one of the root's 30
        leaves, at the stock's root price.  The root is past the vertex
        guard and its right-hand side lies in the column space, so its
        certificate is the position of its floor program at unit spread,
        scaled to unit length: a payoff of 1e-6 costs no precision and
        takes no holding near 1e6.  The position is the one the floor
        recursion's program returned, so that program is solved once."""
        model, _ = wide_market(30, 2)
        copy = model.price[1].copy()
        copy[16] *= 1.0 + bump
        twin = build_market(model.tree, np.vstack([model.price, copy]))
        calls = counted_lps(monkeypatch)
        report = check_fair(twin)
        assert not report.fair
        assert report.certificate.node_id == "r"
        _assert_one_step_arbitrage(twin, report.certificate)
        assert np.abs(report.certificate.holdings).max() <= 2.0
        assert calls == [33]

    def test_certificate_past_the_guard_above_inner_children(self, monkeypatch):
        """The root, past the vertex guard, has 26 children of two leaves
        each, whose floors are below 1, so its floor program runs at a
        spread other than all ones.  A copy of the stock worth 1% more on
        one child's subtree is fair below the root and an arbitrage at it;
        the certificate is that program's position, solved once."""
        rng = np.random.default_rng(26)
        nodes = [("r", None, 1.0)]
        for j, p in enumerate(rng.dirichlet(np.ones(26))):
            nodes += [(f"c{j}", "r", float(p)), (f"c{j}u", f"c{j}", 0.5), (f"c{j}d", f"c{j}", 0.5)]
        model = priced_market(ScenarioTree.build(nodes), rng, 2)
        tree = model.tree
        copy = model.price[1].copy()
        raised = [tree.node_index(name) for name in ("c16", "c16u", "c16d")]
        copy[raised] *= 1.01
        twin = build_market(tree, np.vstack([model.price, copy]))
        spreads = []
        spread_lp = fairtree.deflators._spread_lp

        def recorded(matrix, rhs, spread):
            spreads.append(spread)
            return spread_lp(matrix, rhs, spread)

        monkeypatch.setattr(fairtree.deflators, "_spread_lp", recorded)
        calls = counted_lps(monkeypatch)
        report = check_fair(twin)
        assert not report.fair
        assert report.certificate.node_id == "r"
        _assert_one_step_arbitrage(twin, report.certificate)
        assert calls == [26 + 3]
        assert len(spreads) == 1 and spreads[0].min() < 1.0

    def test_arbitrage_below_the_root(self, monkeypatch):
        """A copy of the first asset marked up 25% at ``r12`` only: selling
        the copy against the original at ``r12`` is a one-step arbitrage.
        Its zero floor pulls the floors of ``r1`` and the root to 0 through
        the recursion's zero-child-floor branch, so the certificate sits at
        ``r12``, the first node whose zero floor is its own, and takes no
        LP."""
        model = generate_market(3, 4, 3, 2)
        price = np.vstack([model.price, model.price[:1]])
        price[2, model.tree.ids.index("r12")] *= 1.25
        twin = build_market(model.tree, price)
        calls = counted_lps(monkeypatch)
        report = check_fair(twin)
        assert not report.fair
        assert report.interior_radius == 0.0
        assert lp_interior_radius(twin)[0] == 0.0
        assert report.certificate.node_id == "r12"
        _assert_one_step_arbitrage(twin, report.certificate)
        assert calls == []

    @pytest.mark.parametrize("eps", [1e-8, -1e-8])
    @pytest.mark.parametrize(
        "seed, shape", [(0, (2, 3, 2)), (3, (3, 2, 1)), (7, (3, 4, 2)), (10, (2, 4, 3))]
    )
    def test_near_arbitrage_certificates(self, monkeypatch, seed, shape, eps):
        """A free lunch of 1e-8 at the root leaves its right-hand side 1e-8
        off the column space.  The certificate is read off that residual,
        normalized to unit length, so it holds units near 1 rather than
        near 1e8, and it takes no LP."""
        twin = root_markup_twin(seed, shape, eps)
        calls = counted_lps(monkeypatch)
        report = check_fair(twin)
        assert not report.fair
        _assert_one_step_arbitrage(twin, report.certificate)
        assert np.abs(report.certificate.holdings).max() <= 2.0
        assert calls == []

    @pytest.mark.parametrize(
        "seed, shape, delta, kind",
        [
            (0, (2, 3, 2), 1e-8, "off-span"),
            (1, (2, 4, 3), 1e-6, "full rank"),
            (9, (3, 4, 2), 1e-6, "rank deficient"),
        ],
    )
    def test_raised_copy_certificates(self, monkeypatch, seed, shape, delta, kind):
        """One raised copy for each case of the certificate read: the
        right-hand side off the column space, and the least-cost payoff
        ray of a node of full and of deficient column rank."""
        twin = raised_copy(seed, shape, delta)
        calls = counted_lps(monkeypatch)
        report = check_fair(twin)
        assert not report.fair
        cert = report.certificate
        _assert_one_step_arbitrage(twin, cert)
        assert certificate_kind(twin, cert.node) == kind
        assert np.abs(cert.holdings).max() <= 2.0
        assert calls == []

    @pytest.mark.parametrize("seed", range(6))
    def test_infeasible_single_point(self, seed):
        """The arbitrage twin of a complete market: its root has full
        column rank, and the marked-up copy leaves its single point
        infeasible.  The root is no single node of its ray table, its
        floor is 0, it has no vertex, and the certificate sits there."""
        twin = generate_market(seed, 3, 3, 3, arbitrage=True)
        (stack,) = _node_stacks(twin)
        assert stack.nodes[0] == 0 and stack.rank[0] == 3
        assert not stack.fixed[0].any()
        table = _ray_tables(twin)[0][-1]
        assert table.group.nodes.tolist() == [0] and table.single is None
        best, ratios, _, _ = _floor_step(table, np.ones((1, 3)))
        assert best.tolist() == [0.0] and not ratios.any()
        assert local_vertices(twin, 0) == []
        report = check_fair(twin)
        assert not report.fair and report.interior_radius == 0.0
        assert report.certificate.node_id == "r"
        _assert_one_step_arbitrage(twin, report.certificate)

    def test_unfair_markets_below_the_guard_solve_no_lp(self, monkeypatch):
        calls = counted_lps(monkeypatch)
        for model in arb_corpus(20):
            assert check_fair(model).certificate is not None
        assert calls == []

    def test_require_fair_raises_with_the_node(self):
        model = arb_corpus(1)[0]
        with pytest.raises(UnfairMarketError):
            require_fair(model)

    def test_dominated_asset_is_a_one_step_arbitrage(self, b1_model):
        # sanity: short the marked-up duplicate, buy the original
        from fairtree import generate_market

        model = generate_market(seed=77, depth=2, branching=2, assets=2, arbitrage=True)
        cert = check_fair(model).certificate
        wealthless = cert.holdings @ model.price[:, cert.node]
        assert wealthless <= 1e-9


class TestCompleteness:
    def test_b1_complete(self, b1_model):
        report = check_complete(b1_model)
        assert report.complete
        assert report.dimension == 0
        assert report.local_ranks == (("r", 2, 2),)

    def test_t1_incomplete_dimension_one(self, t1_model):
        report = check_complete(t1_model)
        assert not report.complete
        assert report.dimension == 1
        assert report.local_ranks == (("r", 3, 2),)

    def test_agrees_with_claim_by_claim_probe(self):
        for model in fair_corpus(12):
            assert check_complete(model).complete == completeness_via_claims(model)

    def test_unfair_market_rejected(self):
        with pytest.raises(UnfairMarketError):
            check_complete(arb_corpus(1)[0])


class TestMeasures:
    def test_b1_measure_is_half_half(self, b1_model):
        m = Deflator.for_market(b1_model, [1, 2 / 3, 4 / 3])
        q = deflator_to_measure(b1_model, m)
        np.testing.assert_allclose(q.weights, [0.5, 0.5], atol=1e-12)

    def test_uniform_measure_on_t1_is_the_reciprocal_numeraire(self, t1_model):
        q = MeasureWeights(np.full(3, 1 / 3))
        m = measure_to_deflator(t1_model, q)
        np.testing.assert_allclose(m.values, [1, 2 / 3, 1, 4 / 3], atol=1e-12)

    def test_round_trip_both_ways(self):
        for model in fair_corpus(10):
            for m in sample_deflators(model, 3, seed=1):
                q = deflator_to_measure(model, m)
                back = measure_to_deflator(model, q)
                np.testing.assert_allclose(back.values, m.values, atol=1e-12)
                again = deflator_to_measure(model, back)
                np.testing.assert_allclose(again.weights, q.weights, atol=1e-12)

    def test_rejects_bad_weights(self, t1_model):
        with pytest.raises(DeflatorError):
            measure_to_deflator(t1_model, MeasureWeights([0.5, 0.5, 0.5]))
        with pytest.raises(DeflatorError):
            measure_to_deflator(t1_model, MeasureWeights([1.2, -0.1, -0.1]))

    def test_non_martingale_measure_rejected(self, t1_model):
        # positive, sums to one, but the induced terminal levels break the
        # stock's martingale identity
        with pytest.raises(DeflatorError):
            measure_to_deflator(t1_model, MeasureWeights([0.90, 0.05, 0.05]))


class TestSampling:
    def test_deterministic_and_valid(self, t1_model):
        a = sample_deflators(t1_model, 6, seed=42)
        b = sample_deflators(t1_model, 6, seed=42)
        assert len(a) == 6
        for m1, m2 in zip(a, b):
            np.testing.assert_array_equal(m1.values, m2.values)
            check_deflator_values(t1_model, m1)

    def test_seeds_differ(self, t1_model):
        a = sample_deflators(t1_model, 4, seed=1)
        b = sample_deflators(t1_model, 4, seed=2)
        assert any(
            not np.array_equal(m1.values, m2.values) for m1, m2 in zip(a, b)
        )

    def test_complete_market_sampling_collapses(self, b1_model):
        for m in sample_deflators(b1_model, 3, seed=5):
            np.testing.assert_allclose(m.values, [1, 2 / 3, 4 / 3], atol=1e-9)


class TestLocalGeometry:
    def test_local_vertices_cached(self, t1_model):
        first = local_vertices(t1_model, 0)
        second = local_vertices(t1_model, 0)
        assert first is second

    def test_minimizer_takes_one_finite_cost_per_node(self, t1_model):
        minimize = polytope_minimizer(t1_model)
        cost = np.array([0.0, 0.3, -0.2, 0.1])
        assert minimize(cost).shape == (4,)
        for bad in (np.append(cost, 1.0), cost[:3], [0.0, 0.3, -0.2, np.nan], [np.inf, 0, 0, 0]):
            with pytest.raises(ValueError, match="cost needs one finite value per node"):
                minimize(bad)

    def test_leaf_is_refused(self, t1_model):
        for leaf in t1_model.tree.leaves.tolist():
            with pytest.raises(ValueError, match=f"node {leaf} is not a non-leaf node"):
                local_vertices(t1_model, leaf)

    def test_node_past_the_guard_is_refused(self):
        model, _ = wide_market()
        assert len(model.tree.children[0]) == 30
        for _ in range(2):  # a refusal is not stored as an answer
            with pytest.raises(SizeGuardError, match="node 'r' is past the vertex enumeration guard"):
                local_vertices(model, 0)
        with pytest.raises(ValueError):
            local_vertices(model, 1)

    def test_lists_are_the_rows_of_the_vertex_tables(self):
        for model in [*fair_corpus(12)[::3], wide_two_step_market()[0]]:
            listed = 0
            for table in _vertex_tables(model)[0]:
                nodes = table.group.nodes
                for at, vertices in table.stacks:
                    for node, rows in zip(nodes[at], vertices):
                        found = local_vertices(model, node)
                        assert len(found) == len(rows)
                        for vertex, row in zip(found, rows):
                            np.testing.assert_array_equal(vertex, row)
                        assert local_vertices(model, int(node)) is found
                        listed += 1
                for node in nodes[table.past].tolist():
                    with pytest.raises(SizeGuardError):
                        local_vertices(model, node)
                    listed += 1
            tree = model.tree
            assert listed == tree.n_nodes - tree.n_leaves

    def test_t1_root_vertices_span_the_segment(self, t1_model):
        vertices = np.array(local_vertices(t1_model, 0))
        # the ratio polytope of the trinomial step is a segment: 2 vertices
        assert vertices.shape == (2, 3)
        # each vertex satisfies both one-step pricing identities
        probs = t1_model.tree.branch_prob[list(t1_model.tree.children[0])]
        for v in vertices:
            for prices in t1_model.price:
                assert float((probs * v) @ prices[1:]) == pytest.approx(
                    prices[0], abs=1e-10
                )

    def test_minimizer_matches_lp_on_random_costs(self):
        rng = np.random.default_rng(8)
        for model in fair_corpus(12):
            minimize = polytope_minimizer(model)
            poly = build_polytope(model)
            for _ in range(3):
                cost = rng.normal(size=model.tree.n_nodes)
                levels = minimize(cost)
                np.testing.assert_allclose(
                    poly.matrix @ levels, poly.rhs, atol=1e-9
                )
                lp = solve_lp(poly.linear_program(cost))
                assert float(cost @ levels) == pytest.approx(
                    lp.value, abs=1e-8 * max(1.0, abs(lp.value))
                )


class TestPerModelStore:
    def test_state_dies_with_its_model(self):
        gc.collect()
        before = len(_STORE)
        model = generate_market(seed=5, depth=3, branching=3, assets=2)
        claim = default_claims(model, seed=5)["call"]
        fairness_report(model)
        process = superhedge_process(model, claim)
        optional_decomposition(model, process)
        solve_primal(model, log_utility(), 1.0)
        augment_market(model, log_utility(), 1.0, claim)
        assert len(_STORE) > before
        alive = weakref.ref(model)
        del model
        gc.collect()
        assert alive() is None
        assert len(_STORE) == before
