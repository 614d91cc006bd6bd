"""The basis kernel of :mod:`fairtree.deflators` on adversarial one-step
programs, held against HiGHS, and the engine routes that run on it
without the simplex or vertex enumeration.

Each case is a small market built so that one node's one-step program is
awkward: a degenerate vertex, a duplicated asset row, more assets than
children, an absorbed asset's zero row, an arbitrage twin, a single point
with a negative entry, and more assets than children with prices off the
column space.  HiGHS solves the same programs from the raw (unscaled)
prices.  Nodes of full column rank take their floor from their single
point, the others from their extreme payoff rays, with the maximizing
ratios from the witness pass.
"""

from __future__ import annotations

import numpy as np
import pytest

import fairtree.deflators
import fairtree.hedging
import fairtree.optim
from fairtree import (
    Claim,
    ScenarioTree,
    SolverError,
    build_market,
    check_fair,
    classify_attainability,
    optional_decomposition,
    superhedge_process,
)
from fairtree import augment_market, check_complete, generate_market, log_utility, solve_primal
from fairtree.deflators import (
    _basic_solutions,
    _basis_multipliers,
    _distinct_vertices,
    _floor_step,
    _local_system,
    _node_groups,
    _node_stacks,
    _ray_tables,
    _regular_bases,
    _svd_rank,
    _vertex_tables,
    _witness_ratios,
)
from fairtree.market import check_deflator_values, martingale_defect

from fairtree.deflators import RANK_RTOL

from conftest import (
    arb_corpus,
    corpus_claim,
    fair_corpus,
    mixed_market,
    wide_market,
    wide_two_step_market,
)

RTOL = 1e-9


def one_step(probs, child_prices, root_prices):
    """A market of one step from the root to ``len(probs)`` leaves."""
    tree = ScenarioTree.build(
        [("r", None, 1.0)] + [(f"c{j}", "r", float(p)) for j, p in enumerate(probs)]
    )
    prices = np.column_stack([root_prices, np.asarray(child_prices, dtype=float)])
    return build_market(tree, prices)


def degenerate():
    # child c2 repeats the root's prices, so its vertex r = e2 / 0.4 has
    # one positive entry in a rank-2 system and three bases
    return one_step([0.3, 0.3, 0.4], [[1, 1, 1], [0.5, 1.5, 1.0]], [1, 1]), 0


def duplicated_row():
    return one_step(
        [0.2, 0.5, 0.3], [[1, 1, 1], [0.6, 1.1, 1.7], [0.6, 1.1, 1.7]], [1, 1.09, 1.09]
    ), 0


def more_assets_than_children():
    probs = np.array([0.45, 0.55])
    child = np.array([[1.0, 1.0], [0.7, 1.6], [2.0, 0.4]])
    return one_step(probs, child, child @ (probs * [1.1, 0.92])), 0


def absorbed_zero_row():
    # the third asset dies at u, so u's program has its zero row; node
    # prices are the leaves' priced back by the deflator ratios ``ratio``
    tree = ScenarioTree.build(
        [("r", None, 1.0), ("u", "r", 0.5), ("d", "r", 0.5),
         ("uu", "u", 0.4), ("ud", "u", 0.6), ("du", "d", 0.3), ("dd", "d", 0.7)]
    )
    ratio = np.array([1.0, 0.9, 1.1, 1.2, 0.87, 0.8, 1.08])
    prices = np.array([
        [0, 0, 0, 1.0, 1.0, 1.0, 1.0],
        [0, 0, 0, 1.8, 0.9, 1.1, 0.6],
        [0, 0, 0, 0.0, 0.0, 2.6, 1.4],
    ])
    for k in (2, 1, 0):
        ch = list(tree.children[k])
        prices[:, k] = prices[:, ch] @ (tree.branch_prob[ch] * ratio[ch])
    return build_market(tree, prices), 1


def arbitrage_twin():
    return one_step(
        [0.5, 0.5], [[1, 1], [0.5, 1.5], [0.5, 1.5]], [1, 1, 1.25]
    ), 0


def negative_point():
    # two children, two assets: the single point r solves 0.5 r0 + 0.5 r1
    # = 1 and 0.25 r0 + 0.75 r1 = 1.6, so r0 = -0.2
    return one_step([0.5, 0.5], [[1, 1], [0.5, 1.5]], [1, 1.6]), 0


def outside_column_space():
    # more assets than children, the third asset's root price off the
    # column space: no ratio vector meets all three rows
    probs = np.array([0.45, 0.55])
    child = np.array([[1.0, 1.0], [0.7, 1.6], [2.0, 0.4]])
    root = child @ (probs * [1.1, 0.92])
    root[2] *= 1.01
    return one_step(probs, child, root), 0


def empty_rank_deficient():
    # three children, two assets, the stock's root price above every child
    # price: no ratio vector, though the rows lack full column rank
    return one_step([0.3, 0.3, 0.4], [[1, 1, 1], [0.5, 1.5, 1.0]], [1, 2]), 0


CASES = {
    "degenerate": degenerate,
    "duplicated-row": duplicated_row,
    "more-assets": more_assets_than_children,
    "zero-row": absorbed_zero_row,
    "twin": arbitrage_twin,
    "negative-point": negative_point,
    "outside-column-space": outside_column_space,
    "empty-rank-deficient": empty_rank_deficient,
}
UNFAIR_CASES = ("twin", "negative-point", "outside-column-space", "empty-rank-deficient")
SINGLE_POINT_CASES = ("more-assets", "zero-row", "negative-point", "outside-column-space")
FAIR_CASES = [name for name in CASES if name not in UNFAIR_CASES]


def node_system(model, node):
    """The group system of ``node``, as a stack of one."""
    for group in _node_groups(model):
        at = np.flatnonzero(group.nodes == node)
        if at.size:
            return group, at


def group_floors(group, floors):
    """``floors`` as the child floors of every node of ``group``."""
    return np.tile(floors, (group.nodes.size, 1))


def ray_floor(model, node, floors):
    """``node``'s floor and maximizing ratios with child floors ``floors``
    through the engine's route: the :func:`_floor_step` of its group over
    the ray tables, then, for a node served by rays, the witness pass of
    its slice.  Every node with as many children gets the same floors, so
    the slice's other nodes are consistent too."""
    tables, slices = _ray_tables(model)
    n = model.tree.n_nodes
    child_floors, best, pick = np.ones(n), np.zeros(n), np.zeros(n, dtype=np.intp)
    for table in tables:
        group = table.group
        if group.children.shape[1] != len(floors):
            continue
        child_floors[group.children] = floors
        best[group.nodes], ratios, pick[group.nodes], _ = _floor_step(
            table, group_floors(group, floors)
        )
        if node in group.nodes:
            r = ratios[group.nodes == node][0]
    for ray_slice in slices:
        nodes = ray_slice.stack.nodes[ray_slice.at]
        if node in nodes and best[node] > 0.0:
            r = _witness_ratios(model, ray_slice, child_floors, best, pick)[nodes == node][0]
    return best[node], r


def raw_rows(model, node):
    ch = list(model.tree.children[node])
    return ch, model.price[:, ch] * model.tree.branch_prob[ch], model.price[:, node]


def highs(cost, a_eq, b_eq, a_ub=None, b_ub=None):
    from scipy.optimize import linprog

    return linprog(
        cost, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs"
    )


def highs_floor(a_eq, b_eq, floors):
    """``max t`` with ``a_eq r = b_eq``, ``floors * r >= t``, in units of
    the smallest floor, as the kernel measures it; 0 when infeasible."""
    unit = floors.min()
    spread = unit / floors
    n = a_eq.shape[1]
    cost = np.zeros(n + 1)
    cost[n] = -1.0
    a_ub = np.hstack([-np.eye(n), spread[:, np.newaxis]])
    res = highs(cost, np.hstack([a_eq, np.zeros((a_eq.shape[0], 1))]), b_eq, a_ub, np.zeros(n))
    return unit * float(-res.fun) if res.status == 0 else 0.0


def floor_cases(n_children):
    tiny = np.full(n_children, 1.0)
    tiny[0] = 1e-16
    tiny[-1] = 0.5
    return {
        "unit": np.ones(n_children),
        "near-1e-16": tiny,
        "all-tiny": np.linspace(1e-16, 4e-16, n_children),
    }


def close(actual, expected, unit=1.0):
    """Within RTOL of ``expected``, or of ``unit`` where that is larger:
    a floor is measured in units of the smallest child floor, so where the
    exact floor is 0 its rounding error is relative to that unit."""
    return abs(actual - expected) <= RTOL * max(abs(expected), unit)


class TestAgainstHighs:
    @pytest.mark.parametrize("name", list(CASES))
    def test_floor(self, name):
        pytest.importorskip("scipy")
        model, node = CASES[name]()
        group, at = node_system(model, node)
        ch, a_eq, b_eq = raw_rows(model, node)
        for floors in floor_cases(len(ch)).values():
            t, r = ray_floor(model, node, floors)
            expected = highs_floor(a_eq, b_eq, floors)
            if name in SINGLE_POINT_CASES:
                assert group.rank[at][0] == len(ch)
            assert close(float(t), expected, floors.min()), (floors, t, expected)
            if expected > 0.0:
                np.testing.assert_allclose(a_eq @ r, b_eq, rtol=0, atol=1e-12)
                assert float((r * floors).min()) >= t * (1 - RTOL)
        assert check_fair(model).fair == (name not in UNFAIR_CASES)

    @pytest.mark.parametrize("name", FAIR_CASES)
    def test_position(self, name):
        """Some basis is primal and dual feasible for the node's cost, and
        the decomposition's position dominates the children (it is
        feasible) and costs the node's superhedging value, the optimum
        HiGHS finds (so it is optimal)."""
        pytest.importorskip("scipy")
        model, node = CASES[name]()
        group, at = node_system(model, node)
        ch, a_eq, b_eq = raw_rows(model, node)
        for seed in range(4):
            payoff = np.random.default_rng(seed).uniform(0.0, 2.0, model.tree.n_leaves)
            claim = Claim(payoff)
            process = superhedge_process(model, claim)
            target = model.tree.branch_prob[ch] * process[ch]
            upper = float(-highs(-target, a_eq, b_eq).fun)
            assert close(float(process[node]), upper)

            x, feasible, factors = _basic_solutions(
                group.matrix[at], group.rhs[at], group.left[at], int(group.rank[at][0])
            )
            duals = _basis_multipliers(factors, target[np.newaxis])
            reduced = np.einsum("mc,bm->bc", group.matrix[at][0], duals[0]) - target
            optimal = feasible[0] & (reduced.min(axis=1) >= -1e-12)
            assert optimal.any()
            assert all(close(float(x[0, b] @ target), upper) for b in np.flatnonzero(optimal))

            position = optional_decomposition(model, process).strategy.holdings[:, node]
            payoffs = position @ model.price[:, ch]
            size = max(1.0, float(np.abs(process).max()))
            assert float((payoffs - process[ch]).min()) >= -RTOL * size
            assert close(float(position @ model.price[:, node]), upper)


class TestNoSimplex:
    def test_engine_routes_call_neither_the_simplex_nor_enumeration(self, monkeypatch):
        # fresh models, so no per-model cache answers for them
        models = [build_market(m.tree, m.price, m.asset_names) for m in fair_corpus(20)]
        calls = []

        def counting(module, name):
            original = getattr(module, name, None)

            def counted(*args, **kwargs):
                calls.append(f"{module.__name__}.{name}")
                return original(*args, **kwargs)
            return counted

        for module in (fairtree.optim, fairtree.deflators, fairtree.hedging):
            for name in ("solve_lp", "enumerate_vertices"):
                monkeypatch.setattr(module, name, counting(module, name), raising=False)
        for i, model in enumerate(models):
            claim = corpus_claim(model, i)
            assert check_fair(model).fair
            classify_attainability(model, claim)
            optional_decomposition(model, superhedge_process(model, claim))
        assert calls == []


def per_group_build(model):
    """The fields of :func:`_node_groups`' groups, built one ``(time,
    branching)`` group at a time, latest time first."""
    tree = model.tree
    keyed = {}
    for k in range(tree.n_nodes):
        if tree.children[k]:
            keyed.setdefault((int(tree.time[k]), len(tree.children[k])), []).append(k)
    for key in sorted(keyed, reverse=True):
        nodes = np.asarray(keyed[key])
        children, probs, matrix, rhs, scale = _local_system(model, nodes)
        left, singular, right, kept, rank = _svd_rank(matrix)
        width = singular.shape[1]
        inverse = np.divide(1.0, singular, out=np.zeros_like(singular), where=kept)
        beyond = np.arange(key[1]) >= rank[:, np.newaxis]
        fixed = np.zeros((nodes.size, key[1]))
        full = np.flatnonzero(rank == key[1])
        if full.size:
            x, feasible, _ = _basic_solutions(matrix[full], rhs[full], left[full], key[1])
            fixed[full] = np.where(feasible, x[:, 0], 0.0)
        yield dict(
            nodes=nodes,
            children=children,
            probs=probs,
            matrix=matrix,
            rhs=rhs,
            scale=scale,
            rank=rank,
            left=left,
            pinv=np.einsum("gkn,gk,gdk->gnd", right[:, :width], inverse, left[:, :, :width]),
            null=right.transpose(0, 2, 1) * beyond[:, np.newaxis, :],
            fixed=fixed,
        )


class TestNodeGroups:
    def test_fused_build_equals_the_per_group_build(self):
        models = [*fair_corpus(20), *(mixed_market(seed) for seed in range(6))]
        for model in models:
            groups = _node_groups(model)
            expected = list(per_group_build(model))
            assert len(groups) == len(expected)
            for group, fields in zip(groups, expected):
                for name, value in fields.items():
                    np.testing.assert_array_equal(getattr(group, name), value, err_msg=name)

    def test_groups_are_time_slices_of_the_stacks(self):
        for model in [*fair_corpus(20), *(mixed_market(seed) for seed in range(6))]:
            times = model.tree.time
            for stack in _node_stacks(model):
                branching = stack.children.shape[1]
                assert np.all(np.diff(times[stack.nodes]) >= 0)
                sliced = [g for g in reversed(_node_groups(model)) if g.children.shape[1] == branching]
                for name, value in vars(stack).items():
                    joined = np.concatenate([getattr(g, name) for g in sliced])
                    np.testing.assert_array_equal(joined, value, err_msg=name)

    def test_complete_markets_deflators_are_martingales(self):
        """A complete market's fairness witness and minimax deflator are
        products of the nodes' single points, which solve the scaled rows
        to rounding (a pseudo-inverse product left defects near 1e-12)."""
        for seed in range(30):
            for depth, branching, assets in (
                (6, 2, 2), (4, 3, 3), (3, 4, 4), (5, 2, 2), (4, 2, 2), (2, 3, 3)
            ):
                model = generate_market(seed, depth, branching, assets)
                assert check_complete(model).complete
                witness = check_fair(model).witness.values
                deflator = solve_primal(model, log_utility(), 1.0).deflator.values
                for levels in (witness, deflator):
                    assert martingale_defect(model, levels)[0] <= 1e-14, (seed, depth)


def complete_markets():
    """New models of the benchmark's complete shapes, seeds 0-4, whose
    nodes all have full column rank."""
    shapes = ((6, 2, 2), (4, 3, 3), (3, 4, 4), (5, 2, 2))
    return [generate_market(seed, *shape) for seed in range(5) for shape in shapes]


class TestVertexTables:
    """A node of full column rank has one basis, whose solution is its
    single point: one kernel call per stack solves its full-rank nodes
    when the node systems are built, the vertex tables read those nodes
    off that call without another, and their tables equal a fresh kernel
    call's bit for bit."""

    def test_one_kernel_call_per_stack_with_full_rank_nodes(self, monkeypatch):
        calls = []

        def counted(matrix, rhs, left, rank, *args, **kwargs):
            calls.append((rank, matrix.shape[2], matrix.shape[0]))
            return _basic_solutions(matrix, rhs, left, rank, *args, **kwargs)

        monkeypatch.setattr(fairtree.deflators, "_basic_solutions", counted)
        deficient = 0
        for model in [*complete_markets(), *(mixed_market(seed) for seed in range(6))]:
            calls.clear()
            expected = []
            for stack in _node_stacks(model):
                columns = stack.children.shape[1]
                full = int((stack.rank == columns).sum())
                if full:
                    expected.append((columns, columns, full))
            assert calls == expected
            calls.clear()
            _vertex_tables(model)
            assert all(rank < columns for rank, columns, _ in calls)
            deficient += len(calls)
        assert deficient > 0

    def test_full_rank_tables_equal_the_kernels(self):
        checked = 0
        for model in [*complete_markets(), *(mixed_market(seed) for seed in range(6))]:
            for table in _vertex_tables(model)[0]:
                group = table.group
                columns = group.children.shape[1]
                for at, vertices in table.stacks:
                    at = np.arange(group.nodes.size)[at]
                    full = group.rank[at] == columns
                    if not full.any():
                        continue
                    rows = at[full]
                    x, feasible, _ = _basic_solutions(
                        group.matrix[rows], group.rhs[rows], group.left[rows], columns
                    )
                    x, count = _distinct_vertices(x, feasible)
                    assert np.all(count == vertices.shape[1])
                    assert x.tobytes() == np.ascontiguousarray(vertices[full]).tobytes()
                    checked += rows.size
        assert checked > 500


def counting_kernel(monkeypatch):
    """Count :func:`_basic_solutions` calls made through the module."""
    calls = []

    def counted(matrix, rhs, left, rank, *args, **kwargs):
        calls.append(matrix.shape)
        return _basic_solutions(matrix, rhs, left, rank, *args, **kwargs)

    monkeypatch.setattr(fairtree.deflators, "_basic_solutions", counted)
    return calls


def tied_market():
    """An augmented market whose claim pays only on every third leaf: the
    claim's zero payoffs make payoff rays that are tight on more columns
    than the rank needs, so some nodes' chosen bases are infeasible."""
    base = generate_market(seed=3, depth=2, branching=4, assets=2)
    payoff = np.zeros(base.tree.n_leaves)
    payoff[::3] = 1.0
    augmented, _ = augment_market(base, log_utility(), 1.0, Claim(payoff))
    return build_market(augmented.tree, augmented.price, augmented.asset_names)


class TestRayFloors:
    """The floor recursion over each node's extreme payoff rays: no basis
    solve on a generic market, the pinned kernel only where a chosen basis
    is infeasible, and every ray floor met by its witness ratios."""

    def test_generic_market_makes_no_kernel_call(self, monkeypatch):
        calls = counting_kernel(monkeypatch)
        report = check_fair(generate_market(seed=3, depth=4, branching=3, assets=2))
        assert report.fair
        assert calls == []

    def test_infeasible_chosen_basis_falls_back_to_the_kernel(self, monkeypatch):
        from fairtree.oracle import lp_interior_radius

        model = tied_market()
        calls = counting_kernel(monkeypatch)
        report = check_fair(model)
        assert len(calls) == 1
        assert report.fair
        check_deflator_values(model, report.witness.values)
        assert report.witness.values.min() >= report.interior_radius * (1 - 1e-12)
        expected = lp_interior_radius(model)[0]
        assert abs(report.interior_radius - expected) <= 1e-12 * expected

    def test_a_floor_its_witness_misses_raises(self, monkeypatch):
        """With every ray but one dropped, some node claims a floor above
        its true one, and no ratio vector meets it."""
        payoff_rays = fairtree.deflators._payoff_rays

        def one_ray(*args):
            payoffs, cost, ray, inside, rows, target, vectors = payoff_rays(*args)
            last = ray.shape[1] - 1 - np.argmax(ray[:, ::-1], axis=1)
            kept = np.zeros_like(ray)
            kept[np.arange(ray.shape[0]), last] = True
            return payoffs, cost, kept, inside, rows, target, vectors

        monkeypatch.setattr(fairtree.deflators, "_payoff_rays", one_ray)
        with pytest.raises(SolverError, match="floor witness at node"):
            check_fair(generate_market(seed=3, depth=4, branching=3, assets=2))

    def test_ray_floors_meet_their_witness_at_the_largest_branching(self):
        model = generate_market(seed=7, depth=6, branching=4, assets=2)
        tables, slices = _ray_tables(model)
        n = model.tree.n_nodes
        floors, best, pick = np.ones(n), np.zeros(n), np.zeros(n, dtype=np.intp)
        for table in tables:
            group = table.group
            found, _, pick[group.nodes], _ = _floor_step(table, floors[group.children])
            best[group.nodes] = found
            floors[group.nodes] = np.minimum(1.0, found)
        checked = 0
        for ray_slice in slices:
            ratios = _witness_ratios(model, ray_slice, floors, best, pick)
            children = ray_slice.stack.children[ray_slice.at]
            attained = (ratios * floors[children]).min(axis=1)
            expected = best[ray_slice.stack.nodes[ray_slice.at]]
            np.testing.assert_allclose(attained, expected, rtol=1e-12, atol=0)
            checked += attained.size
        assert checked == model.tree.n_nodes - model.tree.n_leaves


def svd_regular(bases):
    """The SVD's regularity mask: smallest singular value above
    ``RANK_RTOL`` times the largest."""
    singular = np.linalg.svd(bases, compute_uv=False)
    return singular[..., -1] > RANK_RTOL * singular[..., 0]


class TestBasisRegularity:
    """At ranks 1 and 2 a basis's regularity is read off its entry, or its
    determinant and Frobenius norm, without an SVD; the masks are the
    SVD's."""

    def test_closed_forms_match_the_svd(self):
        # a unit column and one turned from it by each angle; the singular
        # values' ratio is tan(angle / 2), so the threshold lies near 2e-10
        angles = np.array(
            [0.0, 1e-14, 1e-12, 1.5e-10, 3e-10, 1e-9, 1e-3, 0.5, np.pi / 2, np.pi - 1e-12]
        )
        bases = np.zeros((1, angles.size + 1, 2, 2))
        bases[0, :, 0, 0] = 1.0
        bases[0, :-1, 0, 1], bases[0, :-1, 1, 1] = np.cos(angles), np.sin(angles)
        mask = _regular_bases(bases, 2)
        np.testing.assert_array_equal(mask, svd_regular(bases))
        assert mask[0].tolist() == [False] * 4 + [True] * 5 + [False] * 2
        single = np.array([0.0, -1.0, 1.0, 1e-300]).reshape(1, 4, 1, 1)
        np.testing.assert_array_equal(_regular_bases(single, 1), svd_regular(single))
        assert _regular_bases(single, 1)[0].tolist() == [False, True, True, True]

    def test_masks_match_the_svd_across_the_corpora(self, monkeypatch):
        regular = fairtree.deflators._regular_bases
        checked = {1: 0, 2: 0}

        def compared(bases, rank):
            mask = regular(bases, rank)
            if rank <= 2:
                np.testing.assert_array_equal(mask, svd_regular(bases))
                checked[rank] += mask.size
            return mask

        monkeypatch.setattr(fairtree.deflators, "_regular_bases", compared)
        markets = [
            *fair_corpus(40), *arb_corpus(40), *(mixed_market(seed) for seed in range(12)),
            wide_market()[0], wide_two_step_market()[0], tied_market(),
            generate_market(seed=7, depth=6, branching=4, assets=2),
        ]
        for i, model in enumerate(markets):
            # fresh models, so no per-model table answers for them
            model = build_market(model.tree, model.price, model.asset_names)
            if check_fair(model).fair:
                claim = corpus_claim(model, i)
                optional_decomposition(model, superhedge_process(model, claim))
            _vertex_tables(model)
        assert checked[1] > 1000 and checked[2] > 8000
