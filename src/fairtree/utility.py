"""Expected-utility maximization by convex duality over the deflator set.

The dual problem minimizes the expected convex conjugate of the utility,
evaluated on scaled terminal deflator levels, over the deflator polytope.
Its minimizer (the minimax deflator) determines the optimal terminal
wealth through the inverse marginal utility, the optimal strategy by
replicating that attainable wealth node by node with the same one-step
rows the dual uses, and marginal prices of claims.

The objective factorizes over the tree just as the polytope does, so the
minimax deflator is made of one-step problems: each node's ratios solve
the one-step dual problem of its children, weighted by their subtrees'
values.  One damped Newton solves every node's problem at once, from the
fairness witness, with the subtree weights refreshed from the current
ratios at each iteration.  One sweep of the polytope's linear oracle then
certifies the whole-tree duality gap.

Both supported utility families -- logarithmic and power -- have scale-
invariant conjugates: rescaling the dual variable rescales the objective
without moving the minimizer.  The primal solver exploits that, computing
the minimizer once; the same homogeneity gives the budget-matching
multiplier in closed form.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import SolverError
from .market import (
    Claim,
    MarketModel,
    Strategy,
    _check_claim,
    _check_martingale,
    build_market,
    deflator_values,
    fair_price_process,
)
from .deflators import (
    Deflator,
    _node_groups,
    _node_stacks,
    _per_model,
    fairness_report,
    polytope_minimizer,
    require_fair,
)

DUAL_GAP_TOL = 1e-9
BUDGET_TOL = 1e-10
CONSUMPTION_TOL = 1e-7
_EXTREME_EXPONENT = 8.0


def _pow(base, exponent: float):
    """Power with a log-space route for extreme exponents, where the naive
    form loses accuracy to over/underflow long before the result does."""
    if abs(exponent) <= _EXTREME_EXPONENT:
        return base ** exponent
    with np.errstate(divide="ignore", over="ignore"):
        return np.exp(exponent * np.log(base))


@dataclass(frozen=True)
class UtilitySpec:
    """Utility on (0, inf) with the pieces duality needs.

    ``kind`` is ``"log"`` (``ln x``) or ``"power"`` (``x**p / p`` with
    exponent ``p < 1``, ``p != 0``).  Marginal utility maps (0, inf) onto
    itself with infinite slope at zero and vanishing slope at infinity, so
    the inverse marginal is globally defined and the conjugate is finite on
    (0, inf).
    """

    kind: str
    exponent: float | None = None

    def __post_init__(self):
        if self.kind == "log":
            if self.exponent is not None:
                raise ValueError("log utility takes no exponent")
        elif self.kind == "power":
            p = self.exponent
            if p is None or not math.isfinite(p) or p >= 1.0 or p == 0.0:
                raise ValueError(
                    f"power utility needs an exponent below 1 and nonzero, got {p!r}"
                )
        else:
            raise ValueError(f"unknown utility kind {self.kind!r}")

    @property
    def label(self) -> str:
        if self.kind == "log":
            return "log"
        return f"power:{self.exponent:g}"

    # -- primal side ------------------------------------------------------

    def utility(self, x):
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            if self.kind == "log":
                out = np.where(x > 0, np.log(np.where(x > 0, x, 1.0)), -np.inf)
            else:
                p = self.exponent
                out = np.where(x > 0, _pow(np.where(x > 0, x, 1.0), p) / p, -np.inf)
        return float(out) if out.ndim == 0 else out

    def marginal(self, x):
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore"):
            if self.kind == "log":
                out = np.where(x > 0, 1.0 / np.where(x > 0, x, 1.0), np.inf)
            else:
                out = np.where(
                    x > 0, _pow(np.where(x > 0, x, 1.0), self.exponent - 1.0), np.inf
                )
        return float(out) if out.ndim == 0 else out

    # -- dual side --------------------------------------------------------

    def inverse_marginal(self, y):
        y = np.asarray(y, dtype=float)
        with np.errstate(divide="ignore"):
            if self.kind == "log":
                out = np.where(y > 0, 1.0 / np.where(y > 0, y, 1.0), np.inf)
            else:
                a = 1.0 / (self.exponent - 1.0)
                out = np.where(y > 0, _pow(np.where(y > 0, y, 1.0), a), np.inf)
        return float(out) if out.ndim == 0 else out

    def conjugate(self, y):
        """Convex conjugate ``sup_x [U(x) - x y]`` on y > 0.

        For log this is ``-ln y - 1``; for power it is
        ``-((p - 1) / p) * y**(p / (p - 1))``.  Values at ``y <= 0`` are
        ``+inf`` except for negative exponents, whose conjugate extends
        continuously to 0 at the origin (the barrier there is the infinite
        slope, not the value).
        """
        y = np.asarray(y, dtype=float)
        with np.errstate(divide="ignore"):
            if self.kind == "log":
                out = np.where(y > 0, -np.log(np.where(y > 0, y, 1.0)) - 1.0, np.inf)
            else:
                p = self.exponent
                q = p / (p - 1.0)
                safe = _pow(np.where(y > 0, y, 1.0), q)
                out = np.where(y > 0, -((p - 1.0) / p) * safe, np.inf)
                if p < 0:
                    out = np.where(y == 0, 0.0, out)
        return float(out) if out.ndim == 0 else out

    def conjugate_curvature(self, y):
        """Second derivative of the conjugate on y > 0.

        Both families reduce to ``y**(q - 2) / (1 - p)`` with
        ``q = p / (p - 1)`` and ``p = 0`` for log; always positive, so the
        dual objective is strictly convex in the terminal levels.
        """
        y = np.asarray(y, dtype=float)
        p = 0.0 if self.kind == "log" else self.exponent
        q = p / (p - 1.0)
        with np.errstate(divide="ignore"):
            out = np.where(
                y > 0, _pow(np.where(y > 0, y, 1.0), q - 2.0) / (1.0 - p), np.inf
            )
        return float(out) if out.ndim == 0 else out


def log_utility() -> UtilitySpec:
    return UtilitySpec(kind="log")


def power_utility(exponent: float) -> UtilitySpec:
    return UtilitySpec(kind="power", exponent=exponent)


def parse_utility(text: str) -> UtilitySpec:
    """Parse ``"log"`` or ``"power:P"`` (e.g. ``power:0.5``, ``power:-1``)."""
    if text == "log":
        return log_utility()
    if text.startswith("power:"):
        try:
            return power_utility(float(text.split(":", 1)[1]))
        except ValueError as exc:
            raise ValueError(f"bad utility spec {text!r}: {exc}") from None
    raise ValueError(f"bad utility spec {text!r}; expected 'log' or 'power:P'")


# ---------------------------------------------------------------------------
# dual problem
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class DualSolution:
    y: float
    deflator: Deflator
    value: float
    gap: float


@dataclass(frozen=True, eq=False)
class PrimalSolution:
    """Optimal wealth and strategy from ``x``.  ``max_consumption`` is the
    largest absolute cumulative replication miss (:func:`_replicate`); a
    least-squares position can miss in either direction."""

    x: float
    y: float
    wealth: np.ndarray
    strategy: Strategy
    value: float
    deflator: Deflator
    budget_residual: float
    max_consumption: float


def _dual_objective(model: MarketModel, utility: UtilitySpec, y: float):
    leaves = model.tree.leaves
    weights = model.tree.path_prob[leaves]

    def objective(m: np.ndarray) -> float:
        return float(weights @ utility.conjugate(y * m[leaves]))

    def gradient(m: np.ndarray) -> np.ndarray:
        out = np.zeros(model.tree.n_nodes)
        out[leaves] = -weights * y * utility.inverse_marginal(y * m[leaves])
        return out

    def curvature(m: np.ndarray) -> np.ndarray:
        out = np.zeros(model.tree.n_nodes)
        out[leaves] = weights * y * y * utility.conjugate_curvature(y * m[leaves])
        return out

    return objective, gradient, curvature


def dual_value(model: MarketModel, utility: UtilitySpec, deflator, y: float) -> float:
    """Expected conjugate of the utility at a given deflator and scale."""
    levels = deflator_values(deflator)
    objective, _, _ = _dual_objective(model, utility, y)
    return objective(levels)


_NEWTON_ITERS = 100
_FULL_STEP_DECREMENT = 1e-10
_ARMIJO = 0.25
_BACKTRACKS = 60


def _newton_ratios(model: MarketModel, ratio: np.ndarray, start: np.ndarray, p: float) -> None:
    """Minimax ratios of every node whose one-step matrix lacks full column
    rank (a Newton node), by one damped Newton over the whole tree.

    ``ratio[j]`` is child ``j``'s level over its parent's; it holds the
    single points of the full-rank nodes and is overwritten, in place, for
    the Newton nodes' children, from the ratios of the strictly positive
    levels ``start``.  Node ``k`` minimizes ``sum_j p_j h_j V(r_j)`` over
    its one-step polytope ``{r > 0 : matrix @ r = rhs}``, where ``V`` is
    the conjugate of the utility with exponent ``p`` (0 for log) and ``h``
    the subtree heights of :func:`_minimax_levels`.  The Newton nodes of
    each stack of :func:`~fairtree.deflators._node_stacks` are one working
    set, and the stacks advance in lockstep; for power utility each
    iteration first refreshes ``h`` from the current ratios, level by
    level, while for log utility ``h`` is 1 and the nodes' problems are
    independent.  Each step makes the least-norm move onto the martingale
    system, ``-pinv @ residual``, plus the Newton step of the objective
    along the system's null space; it is halved until the ratios stay
    strictly positive and, while the Newton decrement exceeds
    ``_FULL_STEP_DECREMENT``, until the objective falls enough (Armijo).
    Below that decrement the full step is taken with only the domain
    checked: the remaining gain is below what the function values resolve,
    so a sufficient-decrease test would stall there.  A node stops once a
    full step leaves the decrement, below that threshold, above a quarter
    of its previous value (the rounding floor) -- for power utility only
    once its whole subtree has stopped too, since until then its heights
    still move.  A full-rank node counts as stopped once its children
    have, and the stops are settled level by level, latest first, so a
    whole subtree can stop in one iteration.  The weights are normalized
    per node, so the thresholds do not depend on the heights.  A working
    set drops its stopped nodes once at most half of it is live.  Raises
    :class:`SolverError` naming the node with the largest decrement left
    above that threshold after ``_NEWTON_ITERS`` iterations.
    """
    tree = model.tree
    # V(r) = (1 - p) / p * r**(p * a), or -ln r for log; V'(r) = -r**a and
    # V''(r) = r**(a - 1) / (1 - p)
    a = 1.0 / (p - 1.0)
    q = p / (p - 1.0)
    groups = _node_groups(model)
    heights = np.ones(tree.n_nodes)
    # nodes whose subtree has stopped, and nodes that may stop: the
    # full-rank ones, and the Newton nodes whose last step left them at
    # the rounding floor
    settled = np.zeros(tree.n_nodes, dtype=bool)
    settled[tree.leaves] = True
    floored = np.ones(tree.n_nodes, dtype=bool)
    works = []
    for stack in _node_stacks(model):
        newton = stack.rank < stack.children.shape[1]
        if not newton.any():
            continue
        nodes, children, null = stack.nodes[newton], stack.children[newton], stack.null[newton]
        works.append({
            "nodes": nodes,
            "children": children,
            "matrix": stack.matrix[newton],
            "rhs": stack.rhs[newton],
            "pinv": stack.pinv[newton],
            "null": null,
            "padding": np.eye(null.shape[2]) * ~null.any(axis=1)[:, np.newaxis, :],
            "probs": stack.probs[newton],
            "r": start[children] / start[nodes][:, np.newaxis],
            "active": np.ones(nodes.size, dtype=bool),
            "previous": np.full(nodes.size, np.inf),
            "full": np.zeros(nodes.size, dtype=bool),
        })
        ratio[children] = works[-1]["r"]

    def value(weights, r):
        v = -np.log(r) if p == 0.0 else (1.0 - p) / p * _pow(r, p * a)
        return (weights * v).sum(axis=1)

    for _ in range(_NEWTON_ITERS):
        if p != 0.0:
            powered = _pow(ratio, q)
            # latest level first; the root's height (the last group) weighs nothing
            for group in groups[:-1]:
                heights[group.nodes] = (
                    group.probs * heights[group.children] * powered[group.children]
                ).sum(axis=1)
        steps = []
        floor_seen = False
        for w in works:
            r, null = w["r"], w["null"]
            weights = w["probs"] * heights[w["children"]]
            weights = weights / weights.sum(axis=1, keepdims=True)
            residual = np.einsum("gdn,gn->gd", w["matrix"], r) - w["rhs"]
            move = -np.einsum("gnd,gd->gn", w["pinv"], residual)
            slope = -weights * _pow(r, a)
            curvature = weights * _pow(r, a - 1.0) / (1.0 - p)
            hess = np.einsum("gnk,gn,gnl->gkl", null, curvature, null) + w["padding"]
            grad = np.einsum("gnk,gn->gk", null, slope + curvature * move)
            newton = np.linalg.solve(hess, grad[:, :, np.newaxis])[:, :, 0]
            decrement = np.einsum("gk,gk->g", grad, newton)
            step = move - np.einsum("gnk,gk->gn", null, newton)
            previous = w["previous"]
            floor = w["full"] & (previous <= _FULL_STEP_DECREMENT) & (decrement >= 0.25 * previous)
            if p == 0.0:
                w["active"] &= ~floor
            else:
                floored[w["nodes"]] = floor
                floor_seen = floor_seen or floor.any()
            w["previous"] = decrement
            steps.append((weights, slope, step))
        if floor_seen:
            for group in groups:
                settled[group.nodes] |= floored[group.nodes] & settled[group.children].all(axis=1)
            for w in works:
                w["active"] &= ~settled[w["nodes"]]
        if not any(w["active"].any() for w in works):
            break
        for i, (w, (weights, slope, step)) in enumerate(zip(works, steps)):
            r, active = w["r"], w["active"]
            if not active.any():
                continue
            damped = w["previous"] > _FULL_STEP_DECREMENT
            if damped.any():
                current = value(weights, r)
                descent = (slope * step).sum(axis=1)
            length = active.astype(float)
            for _ in range(_BACKTRACKS):
                trial = r + length[:, np.newaxis] * step
                accepted = np.all(trial > 0.0, axis=1)
                if damped.any():
                    accepted &= ~damped | (
                        value(weights, np.where(accepted[:, np.newaxis], trial, 1.0))
                        <= current + _ARMIJO * length * descent
                    )
                if accepted.all():
                    break
                length = np.where(accepted, length, 0.5 * length)
            else:
                length = np.where(accepted, length, 0.0)
            w["full"] = length == 1.0
            w["r"] = r + length[:, np.newaxis] * step
            ratio[w["children"]] = w["r"]
            if 2 * active.sum() <= active.size:
                works[i] = {name: rows[active] for name, rows in w.items()}
    left = np.concatenate([
        np.where(w["active"] & (w["previous"] > _FULL_STEP_DECREMENT), w["previous"], 0.0)
        for w in works
    ])
    if left.any():
        worst = int(np.argmax(left))
        node = np.concatenate([w["nodes"] for w in works])[worst]
        raise SolverError(
            f"one-step dual Newton left a decrement of {left[worst]:.3e} "
            f"at node {tree.ids[node]!r} after {_NEWTON_ITERS} iterations"
        )


def _check_positive(model: MarketModel, nodes: np.ndarray, r: np.ndarray) -> None:
    bad = np.flatnonzero(~np.all(r > 0.0, axis=1))
    if bad.size:
        raise SolverError(
            f"minimax ratios are not strictly positive at node "
            f"{model.tree.ids[nodes[bad[0]]]!r}"
        )


def _minimax_levels(model: MarketModel, utility: UtilitySpec, start: np.ndarray) -> np.ndarray:
    """Minimax deflator levels from the one-step problems of the tree.

    With ``h = 1`` at the leaves, node ``k`` takes the ratios minimizing
    ``sum_j p_j h_j V(r_j)`` over its one-step polytope; for power utility
    ``h_k = sum_j p_j h_j r_j**q`` with ``q = p / (p - 1)``, the expected
    ``q``-th power of the subtree's relative levels, and for log utility
    ``h`` stays 1.  Nodes whose one-step matrix has full column rank have a
    single admissible ratio vector, taken as it is; the others are solved
    together by :func:`_newton_ratios`, from the ratios of the strictly
    positive deflator levels ``start``, and a tree without such nodes
    iterates nothing.  The levels are rebuilt forward from the ratios.
    """
    p = 0.0 if utility.kind == "log" else float(utility.exponent)
    tree = model.tree
    stacks = _node_stacks(model)
    ratio = np.ones(tree.n_nodes)
    newton = False
    for stack in stacks:
        full = stack.rank == stack.children.shape[1]
        _check_positive(model, stack.nodes[full], stack.fixed[full])
        ratio[stack.children] = stack.fixed
        newton = newton or not full.all()
    if newton:
        _newton_ratios(model, ratio, start, p)
        for stack in stacks:
            _check_positive(model, stack.nodes, ratio[stack.children])
    levels = np.ones(tree.n_nodes)
    for group in reversed(_node_groups(model)):
        levels[group.children] = levels[group.nodes][:, np.newaxis] * ratio[group.children]
    return levels


@dataclass(eq=False)
class _DualEntry:
    """One market's dual under one utility: the minimax levels, the
    minimizing vertex of the first certificate's oracle sweep, and the
    levels' validated deflator once they have passed a certificate."""

    levels: np.ndarray
    vertex: np.ndarray | None = None
    deflator: Deflator | None = None


@_per_model
def _dual_entries(model: MarketModel) -> dict:
    """A market's :class:`_DualEntry` per utility ``(kind, exponent)``,
    filled by :func:`_dual_entry`."""
    return {}


def _dual_entry(model: MarketModel, utility: UtilitySpec, start: np.ndarray | None = None) -> _DualEntry:
    """The :class:`_DualEntry` of a fair market and a utility, built once.
    A new entry's levels come from :func:`_minimax_levels`, whose Newton
    starts from the strictly positive deflator levels ``start``, the
    fairness witness by default."""
    report = require_fair(model)
    entries = _dual_entries(model)
    key = (utility.kind, utility.exponent)
    entry = entries.get(key)
    if entry is None:
        if start is None:
            start = report.witness.values
        entry = entries[key] = _DualEntry(_minimax_levels(model, utility, start))
    return entry


def solve_dual(
    model: MarketModel,
    utility: UtilitySpec,
    y: float,
    tol: float = DUAL_GAP_TOL,
) -> DualSolution:
    """Minimize the expected conjugate over the deflator polytope.

    The objective factorizes over the tree like the polytope does, so the
    minimizer (the minimax deflator) is made of the one-step problems of
    :func:`_minimax_levels`, which one whole-tree Newton solves
    (:func:`_newton_ratios`).  The infinite marginal utility at zero keeps
    every ratio strictly positive.  Newton's stop test is node by node, so
    the result is certified globally: the Frank-Wolfe duality gap
    ``g . (m - s)``, with ``g`` the gradient at the levels ``m`` and ``s``
    the :func:`~fairtree.deflators.polytope_minimizer` sweep of ``g``, must
    be at most ``tol * max(1, |g . m|)``; otherwise :class:`SolverError` is
    raised.  The gap is the difference of two inner products of the size
    of ``|g . m|`` (``y`` times the wealth that ``y`` finances, 1 for log
    utility), so it is resolved only relative to that size; steep power
    utilities reach ``|g . m|`` of 1e4 and more.  The reported ``gap`` is
    the absolute one.

    Both utility families are scale invariant: the gradient at scale ``y``
    is ``y**q`` times the gradient at scale 1, with ``q = p / (p - 1)``
    (0 for log), so neither the minimizer nor the vertex ``s`` that
    minimizes the gradient moves with ``y``.  Each market and utility
    therefore solves the Newton, sweeps the oracle and validates the
    deflator once (:func:`_dual_entry`); every call recomputes the
    gradient, the gap and its bound at its own ``y`` and ``tol``.
    :func:`fairtree.oracle.fw_dual` solves the same problem as one
    whole-tree Frank-Wolfe, for cross-checks.
    """
    if not (y > 0 and math.isfinite(y)):
        raise ValueError(f"dual scale y must be positive and finite, got {y!r}")
    entry = _dual_entry(model, utility)
    levels = entry.levels
    objective, gradient, _ = _dual_objective(model, utility, y)
    grad = gradient(levels)
    if entry.vertex is None:
        entry.vertex = polytope_minimizer(model)(grad)
    gap = float(grad @ (levels - entry.vertex))
    bound = tol * max(1.0, abs(float(grad @ levels)))
    if gap > bound:
        raise SolverError(
            f"minimax recursion leaves a duality gap of {gap:.3e} above {bound:.3g}"
        )
    if entry.deflator is None:
        entry.deflator = Deflator.for_market(model, levels)
    return DualSolution(
        y=float(y),
        deflator=entry.deflator,
        value=objective(levels),
        gap=max(gap, 0.0),
    )


def _budget_multiplier(utility: UtilitySpec, weights, terminal, x: float) -> float:
    """The multiplier ``y`` at which ``I(y m_T)``, priced back by ``m``,
    costs ``x``.  ``I(y m)`` is homogeneous in ``y``, so the budget
    ``E[m_T I(y m_T)]`` is ``1 / y`` for log and ``y**(1/(p-1)) E[m_T**q]``
    with ``q = p / (p - 1)`` for power; ``log E[m_T**q]`` is taken as a
    log-sum-exp over the leaves, since ``m_T**q`` over- or underflows for
    steep exponents long before ``y`` does."""
    if utility.kind == "log":
        return 1.0 / x
    p = utility.exponent
    exponents = np.log(weights) + (p / (p - 1.0)) * np.log(terminal)
    top = float(exponents.max())
    log_moment = top + math.log(float(np.exp(exponents - top).sum()))
    # a multiplier past the float range fails the budget check, not here
    with np.errstate(over="ignore"):
        return float(np.exp((p - 1.0) * (math.log(x) - log_moment)))


def _replicate(
    model: MarketModel, utility: UtilitySpec, deflator: Deflator, x: float
) -> tuple[PrimalSolution, str | None]:
    """Candidate optimum under a deflator, replicated node by node.

    ``y`` makes ``I(y m_T)``, priced back by ``m``, cost ``x``
    (:func:`_budget_multiplier`).  Each node's position is the
    least-squares solution of its scaled one-step rows, transposed,
    against the children's wealth.  Every node's wealth is known, so the
    positions and their misses take one pass per branching's stack
    (:func:`~fairtree.deflators._node_stacks`); the misses, summed forward
    along each path like consumption, one ``(time, branching)`` group at a
    time, vanish exactly when the wealth is attainable.  Returns the
    candidate and why it fails the budget or the
    ``CONSUMPTION_TOL * max(1, x)`` bound (``None`` if it passes)."""
    tree = model.tree
    levels = deflator.values
    weights = tree.path_prob[tree.leaves]
    y = _budget_multiplier(utility, weights, levels[tree.leaves], x)
    terminal = utility.inverse_marginal(y * levels[tree.leaves])
    wealth = tree.expect_terminal(levels[tree.leaves] * terminal) / levels
    holdings = np.zeros((model.n_assets, tree.n_nodes))
    miss = np.zeros(tree.n_nodes)  # each child's miss of its parent's position
    for stack in _node_stacks(model):
        nodes, children = stack.nodes, stack.children
        position = np.einsum("gnd,gn->gd", stack.pinv, stack.probs * wealth[children]) / stack.scale
        holdings[:, nodes] = position.T
        cost = np.einsum("gd,dg->g", position, model.price[:, nodes])
        payoff = np.einsum("gd,dgn->gn", position, model.price[:, children])
        miss[children] = payoff - wealth[children] + (wealth[nodes] - cost)[:, np.newaxis]
    consumption = np.zeros(tree.n_nodes)
    for group in reversed(_node_groups(model)):  # time order
        consumption[group.children] = consumption[group.nodes][:, np.newaxis] + miss[group.children]
    size = max(1.0, abs(x))
    budget_residual = abs(float(wealth[0]) - x)
    max_consumption = float(np.abs(consumption).max())
    failure = None
    if budget_residual > BUDGET_TOL * 100 * size:
        failure = f"budget residual {budget_residual:.3e}"
    elif max_consumption > CONSUMPTION_TOL * size:
        failure = (
            f"wealth is not attainable: replication misses by {max_consumption:.3e} "
            f"at node {tree.ids[int(np.argmax(np.abs(consumption)))]!r}"
        )
    primal = PrimalSolution(
        x=float(x),
        y=float(y),
        wealth=wealth,
        strategy=Strategy(holdings),
        value=float(weights @ utility.utility(terminal)),
        deflator=deflator,
        budget_residual=budget_residual,
        max_consumption=max_consumption,
    )
    return primal, failure


def solve_primal(model: MarketModel, utility: UtilitySpec, x: float) -> PrimalSolution:
    """Maximize expected terminal utility from initial wealth ``x``.

    Solves the dual once (the minimizer does not depend on the scale for
    the supported utility families), takes the multiplier at which the
    candidate wealth ``I(y * m)`` prices back to ``x`` in closed form, and
    replicates that wealth node by node (:func:`_replicate`).  The optimal wealth is
    attainable, so a budget or replication miss above its bound raises
    :class:`SolverError`.
    """
    if not (x > 0 and math.isfinite(x)):
        raise ValueError(f"initial wealth must be positive and finite, got {x!r}")
    # Tight dual gap: the replication below is exact only at the minimizer.
    dual = solve_dual(model, utility, 1.0, tol=1e-11)
    primal, failure = _replicate(model, utility, dual.deflator, x)
    if failure is not None:
        raise SolverError(failure)
    return primal


# ---------------------------------------------------------------------------
# value functions, minimax verification, marginal pricing
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ValueFunctions:
    wealth_grid: np.ndarray
    scale_grid: np.ndarray
    primal_values: np.ndarray
    dual_values: np.ndarray
    primal_conjugacy_residuals: np.ndarray
    dual_conjugacy_residuals: np.ndarray


def value_functions(model: MarketModel, utility: UtilitySpec, wealth_grid, scale_grid) -> ValueFunctions:
    """Tabulate both value functions and their conjugacy residuals.

    The dual value at each scale should equal ``max_x [u(x) - x y]`` and
    the primal value ``min_y [v(y) + x y]``; residuals are measured against
    the grid, so they shrink with grid resolution rather than to zero.
    """
    xs = np.asarray(wealth_grid, dtype=float)
    ys = np.asarray(scale_grid, dtype=float)
    u = np.array([solve_primal(model, utility, x).value for x in xs])
    v = np.array([solve_dual(model, utility, y).value for y in ys])
    dual_res = np.array(
        [abs(v[j] - np.max(u - xs * ys[j])) for j in range(len(ys))]
    )
    primal_res = np.array(
        [abs(u[i] - np.min(v + xs[i] * ys)) for i in range(len(xs))]
    )
    return ValueFunctions(
        wealth_grid=xs,
        scale_grid=ys,
        primal_values=u,
        dual_values=v,
        primal_conjugacy_residuals=primal_res,
        dual_conjugacy_residuals=dual_res,
    )


@dataclass(frozen=True, eq=False)
class MinimaxReport:
    minimax: bool
    reason: str
    y: float | None = None
    wealth: np.ndarray | None = None


def verify_minimax(
    model: MarketModel, utility: UtilitySpec, candidate, x: float
) -> MinimaxReport:
    """Decide whether a deflator is the minimax deflator for wealth ``x``.

    The candidate passes exactly when the wealth process built from it --
    inverse marginal of the scaled terminal levels, priced backward by the
    candidate itself -- is attainable: the budget matches ``x`` and the
    replication of :func:`_replicate` stays within its bound, else the
    reason names the node where the cumulative miss is largest.
    """
    deflator = candidate if isinstance(candidate, Deflator) else Deflator.for_market(model, candidate)
    primal, failure = _replicate(model, utility, deflator, x)
    if failure is not None:
        return MinimaxReport(False, failure, primal.y, primal.wealth)
    reference = solve_primal(model, utility, x).value
    if abs(primal.value - reference) > 1e-7 * max(1.0, abs(reference)):
        raise SolverError(
            f"supportable candidate disagrees with the primal value: "
            f"{primal.value!r} vs {reference!r}"
        )
    return MinimaxReport(True, "supportable", primal.y, primal.wealth)


@dataclass(frozen=True)
class DavisPrice:
    price: float
    residual: float


def davis_price(model: MarketModel, utility: UtilitySpec, x: float, claim: Claim) -> DavisPrice:
    """Marginal utility-indifference price of a claim.

    Computed two ways -- marginal utility of optimal terminal wealth scaled
    by the wealth multiplier, and directly under the minimax deflator --
    and returned with the cross-route residual.
    """
    payoff = _check_claim(model, claim)
    primal = solve_primal(model, utility, x)
    weights = model.tree.path_prob[model.tree.leaves]
    terminal = primal.wealth[model.tree.leaves]
    via_marginal = float(weights @ (utility.marginal(terminal) * payoff)) / primal.y
    via_deflator = float(weights @ (primal.deflator.values[model.tree.leaves] * payoff))
    return DavisPrice(price=via_deflator, residual=abs(via_marginal - via_deflator))


@dataclass(frozen=True, eq=False)
class AugmentationDiagnostics:
    fair: bool
    interior_radius: float
    deflator_residual: float
    dual_value_shift: float
    deflator_shift: float
    primal_value_shift: float


def augment_market(
    model: MarketModel,
    utility: UtilitySpec,
    x: float,
    claim: Claim,
    name: str = "derivative",
):
    """Add a claim at its minimax-deflator price process as a new asset.

    Pricing the claim this way keeps the original minimax deflator a
    deflator of the enlarged market, so fairness, the dual value and the
    optimal investment are all unchanged; the diagnostics quantify exactly
    that on the result.  The original levels are checked to price the
    enlarged market's rows as martingales, and its dual's Newton starts
    from them rather than from its fairness witness.  Newton stops node by
    node whatever its start, and the enlarged dual is certified by its own
    gap, so the shifts still measure how far the enlarged optimum moved.
    The claim must not be identically zero (assets need positive root
    prices).  A name already taken becomes ``NAME-augmented``, or
    ``NAME-augmented-2``, ``-3`` and so on, the first that is free.
    """
    if name in model.asset_names:
        base = f"{name}-augmented"
        name = next(
            candidate
            for candidate in itertools.chain([base], (f"{base}-{i}" for i in itertools.count(2)))
            if candidate not in model.asset_names
        )
    primal = solve_primal(model, utility, x)
    levels = primal.deflator.values
    prices = fair_price_process(model, primal.deflator, claim)
    stacked = np.vstack([model.price, prices[np.newaxis, :]])
    augmented = build_market(model.tree, stacked, model.asset_names + (name,))

    report = fairness_report(augmented)
    residual = _check_martingale(augmented, levels)
    _dual_entry(augmented, utility, start=levels)
    dual_after = solve_dual(augmented, utility, primal.y)
    objective, _, _ = _dual_objective(model, utility, primal.y)
    dual_before_value = objective(levels)
    primal_after = solve_primal(augmented, utility, x)
    diagnostics = AugmentationDiagnostics(
        fair=report.fair,
        interior_radius=report.interior_radius,
        deflator_residual=residual,
        dual_value_shift=abs(dual_after.value - dual_before_value),
        deflator_shift=float(np.abs(dual_after.deflator.values - levels).max()),
        primal_value_shift=abs(primal_after.value - primal.value),
    )
    return augmented, diagnostics


def growth_optimal(model: MarketModel, x: float) -> PrimalSolution:
    """Log-optimal investment; its wealth is ``x`` over the minimax deflator,
    so the product of wealth and deflator is constant along the tree."""
    primal = solve_primal(model, log_utility(), x)
    product = primal.wealth * primal.deflator.values
    drift = float(np.abs(product - x).max())
    if drift > 1e-8 * max(1.0, abs(x)):
        raise SolverError(
            f"growth-optimal identity violated: max |wealth * deflator - x| "
            f"= {drift:.3e}"
        )
    return primal
