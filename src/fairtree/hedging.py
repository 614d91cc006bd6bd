"""Superhedging prices, consumption decompositions, attainability.

The superhedging cost of a claim is the largest deflator-weighted expected
payoff over the closure of the deflator polytope.  The polytope factorizes
over the tree, so every answer here is a backward recursion over one-step
problems, each answered by the best vertex of the node's one-step
polytope, the vertices being the node's feasible bases from the batched
basis kernel (:func:`~fairtree.deflators._basic_solutions`).  One
:func:`~fairtree.deflators._vertex_step` takes the best vertex of every
node of a ``(time, branching)`` group at once: for the price bounds
through :func:`~fairtree.deflators.polytope_minimizer`, the running cost
by :func:`superhedge_process` and the supermartingale test by
:func:`check_supermartingale`.  The same kernel gives attainability its
face floors and the decomposition its positions, as the duals of each
node's optimal basis.  Independent cross-checks live in
:mod:`fairtree.oracle`: the node-local LP recursion
(:func:`~fairtree.oracle.lp_superhedge_process`) and the whole-tree linear
programs that the recursions replace.

Any process that is a one-step supermartingale under every deflator splits
as initial value plus trading gains minus a nondecreasing consumption
(:func:`optional_decomposition`); applied to the superhedging process this
yields the cheapest dominating strategy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SolverError, SupermartingaleError
from .market import Claim, MarketModel, Strategy, _check_claim
from .deflators import (
    FAIRNESS_THRESHOLD,
    Deflator,
    _basic_solutions,
    _local_system,
    _max_floor,
    _node_groups,
    _rank_slices,
    _vertex_step,
    _vertex_tables,
    polytope_minimizer,
    require_fair,
)
from .optim import LinearProgram, solve_lp

INTERVAL_TOL = 1e-9
SUPERMARTINGALE_SLACK = 1e-9

STRONGLY_REGULAR = "strongly-regular"
REGULAR_ATTAINABLE = "regular-attainable"
NOT_ATTAINABLE = "not-attainable"


@dataclass(frozen=True, eq=False)
class PriceInterval:
    """Superhedging (upper) and subhedging (lower) prices of a claim with
    the optimizing polytope-closure points.  The bound points may sit on
    the boundary and are therefore bare arrays, not deflators."""

    lower: float
    upper: float
    lower_point: np.ndarray
    upper_point: np.ndarray

    @property
    def width(self) -> float:
        return self.upper - self.lower


@dataclass(frozen=True, eq=False)
class DecompositionResult:
    """``process = process[root] + gains(strategy) - consumption`` along
    every path, with ``consumption`` cumulative, nondecreasing and zero at
    the root."""

    process: np.ndarray
    strategy: Strategy
    consumption: np.ndarray


@dataclass(frozen=True, eq=False)
class AttainabilityVerdict:
    """``process`` is the :func:`superhedge_process` the face recursion
    ran on, ``None`` for a strongly regular claim (which needs none)."""

    classification: str
    price: float
    interval: PriceInterval
    supporting_deflator: Deflator | None
    boundary_witness: np.ndarray | None
    process: np.ndarray | None = None


def _claim_objective(model: MarketModel, payoff: np.ndarray) -> np.ndarray:
    tree = model.tree
    objective = np.zeros(tree.n_nodes)
    objective[tree.leaves] = tree.path_prob[tree.leaves] * payoff
    return objective


def superhedge_price(model: MarketModel, claim: Claim) -> PriceInterval:
    """Both price bounds and their bound points from two sweeps of
    :func:`~fairtree.deflators.polytope_minimizer` (costs ``±objective``)."""
    payoff = _check_claim(model, claim)
    require_fair(model)
    objective = _claim_objective(model, payoff)
    minimize = polytope_minimizer(model)
    lower_point = minimize(objective)
    upper_point = minimize(-objective)
    return PriceInterval(
        lower=float(objective @ lower_point),
        upper=float(objective @ upper_point),
        lower_point=lower_point,
        upper_point=upper_point,
    )


def superhedge_process(model: MarketModel, claim: Claim) -> np.ndarray:
    """Backward dynamic program for the running superhedging cost.

    Each non-leaf node takes the largest probability-weighted continuation
    value over its one-step polytope at its best local vertex, one
    :func:`~fairtree.deflators._vertex_step` per ``(time, branching)``
    group.  :func:`fairtree.oracle.lp_superhedge_process` solves each step
    by LP.
    """
    payoff = _check_claim(model, claim)
    require_fair(model)
    values = np.zeros(model.tree.n_nodes)
    values[model.tree.leaves] = payoff
    for table in _vertex_tables(model):
        group = table.group
        _, best = _vertex_step(model, table, -group.probs * values[group.children])
        values[group.nodes] = -best
    return values


def check_supermartingale(
    model: MarketModel, process, slack: float = SUPERMARTINGALE_SLACK
) -> None:
    """Verify the one-step supermartingale property under every deflator.

    The forward value is linear in the deflator, so each node's value is
    compared with its one-step maximum, at the worst vertex of its ratio
    polytope, one :func:`~fairtree.deflators._vertex_step` per ``(time,
    branching)`` group; levels that vanish propagate zero down the subtree
    and contribute nothing.  Raises :class:`SupermartingaleError` at the
    first violating node in tree order, naming that worst vertex.
    ``slack`` is relative to the magnitude of the terms compared.
    """
    values = np.asarray(process, dtype=float)
    tree = model.tree
    if values.shape != (tree.n_nodes,):
        raise ValueError("process needs one value per node")
    # each node's one-step maximum; a leaf's own value, so it never violates
    upper = values.copy()
    found = []
    for table in _vertex_tables(model):
        group = table.group
        vertices, best = _vertex_step(model, table, -group.probs * values[group.children])
        upper[group.nodes] = -best
        found.append((group.nodes, vertices))
    excess = upper - values
    bad = np.flatnonzero(excess > slack * np.maximum(np.maximum(1.0, np.abs(upper)), np.abs(values)))
    if bad.size:
        k = bad[0]
        vertex = next(vertices[nodes == k][0] for nodes, vertices in found if k in nodes)
        raise SupermartingaleError(tree.ids[k], vertex, float(excess[k]))


def _position_lp(model: MarketModel, node: int, values: np.ndarray) -> np.ndarray:
    """The cheapest scaled position dominating the children's values at a
    node past the vertex-enumeration guard, by LP over the transpose of
    the node's scaled one-step rows."""
    ch, probs, matrix, rhs, _ = _local_system(model, node)
    d = model.n_assets
    # columns: the scaled position (free), then one surplus per child
    rows = np.hstack([matrix.T, -np.diag(probs)])
    objective = np.concatenate([rhs, np.zeros(len(ch))])
    lower = np.concatenate([np.full(d, -np.inf), np.zeros(len(ch))])
    sol = solve_lp(LinearProgram(objective, rows, probs * values[ch], lower, "min"))
    if sol.status != "optimal":  # pragma: no cover - fair market
        raise SolverError(f"decomposition LP {sol.status} at node {model.tree.ids[node]!r}")
    return sol.x[:d]


def optional_decomposition(model: MarketModel, process) -> DecompositionResult:
    """Split a universal supermartingale into gains minus consumption.

    At each non-leaf node the cheapest position dominating the children's
    values is the dual of the node's superhedging step: with ``A`` the
    node's scaled one-step rows (:func:`~fairtree.deflators._local_system`)
    and ``c = probs * values[children]``, a basis of ``A r = b`` that is
    primal feasible and dual feasible for the cost ``-c`` gives the scaled
    position ``theta`` with ``A_B^T theta = c_B`` and ``A^T theta >= c``
    (complementary slackness), and its cost ``b @ theta`` is the node's
    superhedging value, never above the node's own.  Every basis of each
    ``(time, branching)`` group comes from
    :func:`~fairtree.deflators._basic_solutions`, the first such basis is
    taken, and ``theta`` is scaled back to holdings; a node past the
    vertex-enumeration guard solves the dual LP instead.  The per-edge
    consumption increment is the domination surplus at the child plus the
    node-level cost gap, so the wealth identity holds exactly by
    construction.  Domination, cost and the supermartingale precondition
    are checked with the relative ``SUPERMARTINGALE_SLACK``.  Attainable
    wealth is replicated without bases by
    :func:`~fairtree.utility._replicate`.
    """
    values = np.asarray(process, dtype=float)
    tree = model.tree
    require_fair(model)
    check_supermartingale(model, values)

    holdings = np.zeros((model.n_assets, tree.n_nodes))
    consumption = np.zeros(tree.n_nodes)
    for group in reversed(_node_groups(model)):
        nodes, children = group.nodes, group.children
        target = group.probs * values[children]
        cost_slack = SUPERMARTINGALE_SLACK * np.maximum(1.0, np.abs(values[nodes]))
        slack = np.maximum(cost_slack, SUPERMARTINGALE_SLACK * np.abs(values[children]).max(axis=1))
        theta = np.zeros(group.rhs.shape)
        for rank, at, within in _rank_slices(group.rank, children.shape[1]):
            if not within:
                for i in at:
                    theta[i] = _position_lp(model, int(nodes[i]), values)
                continue
            _, feasible, duals = _basic_solutions(
                group.matrix[at], group.rhs[at], group.left[at], rank, target[at]
            )
            reduced = np.einsum("gmc,gbm->gbc", group.matrix[at], duals) - target[at][:, np.newaxis]
            optimal = feasible & (reduced.min(axis=2) >= -slack[at][:, np.newaxis])
            # without an optimal basis, the first basis fails the checks below
            theta[at] = duals[np.arange(at.size), np.argmax(optimal, axis=1)]
        position = theta / group.scale
        holdings[:, nodes] = position.T
        surplus = np.einsum("gmc,gm->gc", group.matrix, theta) - target
        node_gap = values[nodes] - np.einsum("gd,dg->g", position, model.price[:, nodes])
        for name, miss, bound in (
            ("dominate the children", -surplus.min(axis=1), slack),
            ("stay within the process", -node_gap, cost_slack),
        ):
            bad = np.flatnonzero(miss > bound)
            if bad.size:
                raise SolverError(
                    f"decomposition position fails to {name} at node "
                    f"{tree.ids[nodes[bad[0]]]!r} by {miss[bad[0]]:.3e}"
                )
        payoff = np.einsum("gd,dgn->gn", position, model.price[:, children])
        consumption[children] = (
            consumption[nodes][:, np.newaxis] + payoff - values[children] + node_gap[:, np.newaxis]
        )

    return DecompositionResult(
        process=values.copy(),
        strategy=Strategy(holdings),
        consumption=consumption,
    )


def classify_attainability(model: MarketModel, claim: Claim) -> AttainabilityVerdict:
    """Three-way attainability verdict for a claim.

    * ``strongly-regular``: the deflator-weighted expectation is constant
      over the polytope (upper and lower bounds agree within 1e-9) -- the
      claim is replicable and every deflator prices it identically.
    * ``regular-attainable``: the upper bound is attained by a strictly
      positive deflator, found by maximizing a uniform floor over the
      optimal face; the face is the product of each node's locally
      optimal face under :func:`superhedge_process`.
    * ``not-attainable``: the supremum is only approached; the optimal
      boundary point is returned as a witness.
    """
    _check_claim(model, claim)
    report = require_fair(model)
    interval = superhedge_price(model, claim)
    tol = INTERVAL_TOL * max(1.0, abs(interval.upper), abs(interval.lower))
    if interval.width <= tol:
        return AttainabilityVerdict(
            classification=STRONGLY_REGULAR,
            price=interval.upper,
            interval=interval,
            supporting_deflator=report.witness,
            boundary_witness=None,
        )

    # A deflator attains the upper bound exactly when every node's ratios
    # lie on the node's locally optimal face, so the floor recursion over
    # those faces decides whether a strictly positive one does.
    dp = superhedge_process(model, claim)
    radius, levels = _max_floor(model, dp)
    if radius > FAIRNESS_THRESHOLD:
        return AttainabilityVerdict(
            classification=REGULAR_ATTAINABLE,
            price=interval.upper,
            interval=interval,
            supporting_deflator=Deflator.for_market(model, levels),
            boundary_witness=None,
            process=dp,
        )
    return AttainabilityVerdict(
        classification=NOT_ATTAINABLE,
        price=interval.upper,
        interval=interval,
        supporting_deflator=None,
        boundary_witness=interval.upper_point,
        process=dp,
    )

