"""The basis kernel of :mod:`fairtree.deflators` on adversarial one-step
programs, held against HiGHS, and the engine routes that run on it
without the simplex or vertex enumeration.

Each case is a small market built so that one node's one-step program is
awkward: a degenerate vertex, a duplicated asset row, more assets than
children, an absorbed asset's zero row, an arbitrage twin, a single point
with a negative entry, and more assets than children with prices off the
column space.  HiGHS solves the same programs from the raw (unscaled)
prices.  Nodes of full column rank take their floor from their single
point, the others from the kernel's bases.
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
    build_market,
    check_fair,
    classify_attainability,
    optional_decomposition,
    superhedge_process,
)
from fairtree import check_complete, generate_market, log_utility, solve_primal
from fairtree.deflators import (
    _basic_solutions,
    _floor_step,
    _local_system,
    _node_groups,
    _single_points,
    _svd_rank,
)
from fairtree.market import martingale_defect

from conftest import corpus_claim, fair_corpus, mixed_market

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


CASES = {
    "degenerate": degenerate,
    "duplicated-row": duplicated_row,
    "more-assets": more_assets_than_children,
    "zero-row": absorbed_zero_row,
    "twin": arbitrage_twin,
    "negative-point": negative_point,
    "outside-column-space": outside_column_space,
}
UNFAIR_CASES = ("twin", "negative-point", "outside-column-space")
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
            t, r = (part[at] for part in _floor_step(group, group_floors(group, floors)))
            expected = highs_floor(a_eq, b_eq, floors)
            if name in SINGLE_POINT_CASES:
                assert group.rank[at][0] == len(ch)
            assert close(float(t[0]), expected, floors.min()), (floors, t, expected)
            if expected > 0.0:
                np.testing.assert_allclose(a_eq @ r[0], b_eq, rtol=0, atol=1e-12)
                assert float((r[0] * floors).min()) >= t[0] * (1 - RTOL)
        assert check_fair(model).fair == (name not in UNFAIR_CASES)

    @pytest.mark.parametrize("name", FAIR_CASES)
    def test_face_floor(self, name):
        pytest.importorskip("scipy")
        model, node = CASES[name]()
        group, at = node_system(model, node)
        ch, a_eq, b_eq = raw_rows(model, node)
        # three random claims, whose faces are mostly vertices, and the
        # second asset, whose face row lies in the row space: every
        # deflator prices it alike, so the face is the whole polytope
        values = [np.random.default_rng(seed).uniform(0.0, 2.0, len(ch)) for seed in range(3)]
        for value in values + [model.price[1, ch]]:
            weights = model.tree.branch_prob[ch] * value
            upper = float(-highs(-weights, a_eq, b_eq).fun)
            face = np.zeros(model.tree.n_nodes)
            face[ch] = value
            face[node] = upper
            for floors in floor_cases(len(ch)).values():
                expected = highs_floor(np.vstack([a_eq, weights]), np.append(b_eq, upper), floors)
                # a claim's scale changes no face
                for scale in (1.0, 1e-12, 1e12):
                    t, _ = _floor_step(group, group_floors(group, floors), face * scale)
                    t = t[at]
                    assert close(float(t[0]), expected, floors.min()), (value, scale, floors)

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

            x, feasible, duals = _basic_solutions(
                group.matrix[at], group.rhs[at], group.left[at], int(group.rank[at][0]),
                target[np.newaxis],
            )
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
            fixed=_single_points(matrix, rhs, left, rank),
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
