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
:func:`check_supermartingale`.  The decomposition's positions are the
duals of each node's optimal basis, on the bases the vertex tables kept
(:func:`~fairtree.deflators._vertex_tables`), those of the nodes of full
column rank included: per claim, only the multipliers are solved
(:func:`~fairtree.deflators._basis_multipliers`), and no kernel call is
made.  A node past the vertex-enumeration guard takes
its vertex step and its position from one node LP
(:func:`~fairtree.deflators._node_lp`).  The decomposed process is
known at every node, so the positions are not a recursion: they come from
one pass per branching's stack (:func:`~fairtree.deflators._node_stacks`),
and only the consumption sum runs forward, one level of the tree at a
time (:meth:`~fairtree.market.ScenarioTree.forward`).  Attainability
is read off the price interval alone.  Independent cross-checks live in
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
    Deflator,
    _basis_multipliers,
    _node_groups,
    _node_stacks,
    _vertex_step,
    _vertex_tables,
    polytope_minimizer,
    require_fair,
)

INTERVAL_TOL = 1e-9
SUPERMARTINGALE_SLACK = 1e-9

STRONGLY_REGULAR = "strongly-regular"
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
    """A strongly regular claim carries the fairness witness as its
    ``supporting_deflator``; a claim that is not attainable carries the
    upper bound point as its ``boundary_witness``."""

    classification: str
    price: float
    interval: PriceInterval
    supporting_deflator: Deflator | None
    boundary_witness: np.ndarray | None


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
    for table in _vertex_tables(model)[0]:
        group = table.group
        _, best, _ = _vertex_step(table, -group.probs * values[group.children])
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
    first violating node in tree order, naming that worst vertex, and
    ``ValueError`` unless the process is one finite value per node.
    ``slack`` is relative to the magnitude of the terms compared.
    """
    _supermartingale_duals(model, np.asarray(process, dtype=float), slack)


def _supermartingale_duals(model: MarketModel, values: np.ndarray, slack: float):
    """:func:`check_supermartingale`, returning the row duals of the node
    LPs past the vertex guard that its :func:`~fairtree.deflators._vertex_step`
    solved for the cost ``-probs * values[children]``, one row per node
    (zero at the other nodes)."""
    tree = model.tree
    if values.shape != (tree.n_nodes,):
        raise ValueError("process needs one value per node")
    nonfinite = np.flatnonzero(~np.isfinite(values))
    if nonfinite.size:
        raise ValueError(f"process value at node {tree.ids[nonfinite[0]]!r} is not finite")
    # each node's one-step maximum; a leaf's own value, so it never violates
    upper = values.copy()
    found = []
    duals = np.zeros((tree.n_nodes, model.n_assets))
    for table in _vertex_tables(model)[0]:
        group = table.group
        vertices, best, past = _vertex_step(table, -group.probs * values[group.children])
        upper[group.nodes] = -best
        found.append((group.nodes, vertices))
        if past is not None:
            duals[group.nodes] = past
    excess = upper - values
    bad = np.flatnonzero(excess > slack * np.maximum(np.maximum(1.0, np.abs(upper)), np.abs(values)))
    if bad.size:
        k = bad[0]
        vertex = next(vertices[nodes == k][0] for nodes, vertices in found if k in nodes)
        raise SupermartingaleError(tree.ids[k], vertex, float(excess[k]))
    return duals


def optional_decomposition(model: MarketModel, process) -> DecompositionResult:
    """Split a universal supermartingale into gains minus consumption.

    At each non-leaf node the cheapest position dominating the children's
    values is the dual of the node's superhedging step: with ``A`` the
    node's scaled one-step rows (:func:`~fairtree.deflators._local_system`)
    and ``c = probs * values[children]``, a basis of ``A r = b`` that is
    primal feasible and dual feasible for the cost ``-c`` gives the scaled
    position ``theta`` with ``A_B^T theta = c_B`` and ``A^T theta >= c``
    (complementary slackness), and its cost ``b @ theta`` is the node's
    superhedging value, never above the node's own.  Every node's values
    are known, so the positions need no recursion: they take one pass per
    branching's stack (:func:`~fairtree.deflators._node_stacks`) and rank
    chunk, the first such basis is taken, and ``theta`` is scaled back to
    holdings.  The bases and their feasibility do not depend on the
    claim: they are the ones each node's vertex table was read off, kept
    by :func:`~fairtree.deflators._vertex_tables` (for a node of full
    column rank, its one basis from the node systems' kernel call), so
    only the multipliers are solved here, in one loop over the kept
    chunks (:func:`~fairtree.deflators._basis_multipliers`), and no
    kernel call is made.  The supermartingale check has built the tables
    before they are read.  A node past the vertex-enumeration guard takes
    ``theta`` as minus the duals of its
    :func:`~fairtree.deflators._node_lp` for the cost ``-c``, which the
    supermartingale check's vertex step has already solved: their dual
    feasibility is the domination, and ``duals @ b`` is the optimum.  The
    per-edge consumption increment is the domination surplus at the child
    plus the node-level cost gap, summed forward one level of the tree at
    a time, so the wealth identity holds exactly by construction.
    Domination, cost and the supermartingale precondition are checked
    with the relative ``SUPERMARTINGALE_SLACK``; a failure names the first
    failing node of the earliest group, a domination failure before a
    cost failure, and a process value that is not finite is refused with
    ``ValueError``, as by :func:`check_supermartingale`.  Attainable
    wealth is replicated without bases by
    :func:`~fairtree.utility._replicate`.
    """
    values = np.asarray(process, dtype=float)
    tree = model.tree
    require_fair(model)
    past_duals = _supermartingale_duals(model, values, SUPERMARTINGALE_SLACK)

    holdings = np.zeros((model.n_assets, tree.n_nodes))
    paid = np.zeros(tree.n_nodes)  # each child's payoff of its parent's position
    node_gap = np.zeros(tree.n_nodes)  # each node's value above its position's cost
    # per node: how far its position fails to dominate the children and to
    # stay within the process, and the bounds on those misses
    misses = np.zeros((2, tree.n_nodes))
    bounds = np.zeros((2, tree.n_nodes))
    for stack, chunks in zip(_node_stacks(model), _vertex_tables(model)[1]):
        nodes, children = stack.nodes, stack.children
        target = stack.probs * values[children]
        cost_slack = SUPERMARTINGALE_SLACK * np.maximum(1.0, np.abs(values[nodes]))
        slack = np.maximum(cost_slack, SUPERMARTINGALE_SLACK * np.abs(values[children]).max(axis=1))
        # minus the LP duals the supermartingale check solved past the guard; chunks set the rest
        theta = -past_duals[nodes]
        for at, feasible, factors in chunks:
            duals = _basis_multipliers(factors, target[at])
            reduced = np.einsum("gmc,gbm->gbc", stack.matrix[at], duals) - target[at][:, np.newaxis]
            optimal = feasible & (reduced.min(axis=2) >= -slack[at][:, np.newaxis])
            # without an optimal basis, the first basis fails the checks below
            theta[at] = duals[np.arange(at.size), np.argmax(optimal, axis=1)]
        position = theta / stack.scale
        holdings[:, nodes] = position.T
        surplus = np.einsum("gmc,gm->gc", stack.matrix, theta) - target
        node_gap[nodes] = values[nodes] - np.einsum("gd,dg->g", position, model.price[:, nodes])
        misses[0, nodes], bounds[0, nodes] = -surplus.min(axis=1), slack
        misses[1, nodes], bounds[1, nodes] = -node_gap[nodes], cost_slack
        paid[children] = np.einsum("gd,dgn->gn", position, model.price[:, children])

    failed = misses > bounds
    if failed.any():
        for group in _node_groups(model)[::-1]:  # time order
            for check, name in enumerate(("dominate the children", "stay within the process")):
                bad = group.nodes[failed[check, group.nodes]]
                if bad.size:
                    raise SolverError(
                        f"decomposition position fails to {name} at node "
                        f"{tree.ids[bad[0]]!r} by {misses[check, bad[0]]:.3e}"
                    )
    consumption = tree.forward(
        0.0, lambda up, pay, value, gap: up + pay - value + gap,
        paid, values, node_gap[tree.parent],
    )

    return DecompositionResult(
        process=values.copy(),
        strategy=Strategy(holdings),
        consumption=consumption,
    )


def classify_attainability(model: MarketModel, claim: Claim) -> AttainabilityVerdict:
    """Two-way attainability verdict for a claim, from its price interval.

    * ``strongly-regular``: the deflator-weighted expectation is constant
      over the polytope (upper and lower bounds agree within 1e-9) -- the
      claim is replicable and every deflator prices it identically.
    * ``not-attainable``: the supremum is only approached; the optimal
      boundary point is returned as a witness.

    There is no third class of claims whose upper bound a strictly
    positive deflator attains while the interval stays open: a linear
    price maximized at a strictly positive point of ``{m >= 0 : A m = b}``
    is constant over the polytope, since from that point one can step a
    little toward any other point and a little past it.
    :func:`fairtree.oracle.lp_face_radius` checks this independently.
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
    return AttainabilityVerdict(
        classification=NOT_ATTAINABLE,
        price=interval.upper,
        interval=interval,
        supporting_deflator=None,
        boundary_witness=interval.upper_point,
    )
