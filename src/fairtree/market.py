"""Scenario-tree market models and self-financing wealth algebra.

A market lives on a finite event tree: every node carries one price per
asset, prices are nonnegative, and the cross-section of assets never
vanishes entirely.  That last condition makes the normalized aggregate
price (the sum of all asset prices, scaled to 1 at the root) a strictly
positive process, which serves as the canonical numeraire throughout the
package.  No single asset is assumed riskless and nothing is discounted
up front; deflators do that job.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DeflatorError, ModelError

PROB_SUM_TOL = 1e-12
SELF_FINANCING_TOL = 1e-10
DEFLATOR_TOL = 1e-9


def _frozen(values, dtype=float) -> np.ndarray:
    out = np.ascontiguousarray(np.asarray(values, dtype=dtype))
    out.flags.writeable = False
    return out


# ---------------------------------------------------------------------------
# event tree
# ---------------------------------------------------------------------------


def _node_arrays(entries: list):
    """Ids, parent indices (-1 for none) and branch probabilities (capped
    at 1) of ``(id, parent_id or None, branch_prob)`` triples.  The whole
    list is checked at once -- unique non-empty ids, parents listed
    earlier, probabilities in (0, 1] -- and the node loop runs only when
    that check fails, to name the first offender."""
    try:
        rows = [(str(node_id), parent_id, float(prob)) for node_id, parent_id, prob in entries]
    except (TypeError, ValueError, OverflowError):
        rows = None
    if rows is not None:
        ids, parent_ids, probs = zip(*rows)
        n = len(ids)
        index = dict(zip(ids, range(n)))
        parent = np.array(
            [-1 if p is None else index.get(str(p), n) for p in parent_ids], dtype=int
        )
        prob = np.array(probs)
        if (
            len(index) == n
            and all(ids)
            and np.all(parent < np.arange(n))
            and np.all(np.isfinite(prob) & (prob > 0.0) & (prob <= 1.0 + PROB_SUM_TOL))
        ):
            return ids, parent, np.minimum(prob, 1.0)

    index: dict[str, int] = {}
    ids: list[str] = []
    parents: list[int] = []
    probs: list[float] = []
    for k, (node_id, parent_id, prob) in enumerate(entries):
        node_id = str(node_id)
        if not node_id:
            raise ModelError("node ids must be non-empty strings")
        if node_id in index:
            raise ModelError(f"duplicate node id {node_id!r}")
        if parent_id is None:
            parent_idx = -1
        else:
            parent_id = str(parent_id)
            if parent_id not in index:
                raise ModelError(
                    f"node {node_id!r}: parent {parent_id!r} must appear "
                    "earlier in the node list"
                )
            parent_idx = index[parent_id]
        prob = float(prob)
        if not math.isfinite(prob) or prob <= 0.0 or prob > 1.0 + PROB_SUM_TOL:
            raise ModelError(
                f"node {node_id!r}: branch probability must lie in (0, 1], "
                f"got {prob!r}"
            )
        index[node_id] = k
        ids.append(node_id)
        parents.append(parent_idx)
        probs.append(min(prob, 1.0))
    return ids, np.asarray(parents, dtype=int), np.asarray(probs, dtype=float)


@dataclass(frozen=True, eq=False)
class ScenarioTree:
    """Finite event tree with strictly positive one-step branch probabilities.

    Nodes are indexed in document order with the root at index 0 and every
    parent preceding its children.  ``branch_prob[k]`` is the conditional
    probability of reaching node ``k`` from its parent (1.0 at the root),
    and ``path_prob`` the product along the path from the root.
    ``levels[t]`` lists the nodes at time ``t`` in index order, which need
    not be time order; :meth:`forward` walks the levels from the root, one
    array step each, and :meth:`expect_terminal` walks them back.  All
    arrays are frozen after construction; instances are safe to share.
    """

    ids: tuple[str, ...]
    parent: np.ndarray
    branch_prob: np.ndarray
    time: np.ndarray
    levels: tuple[np.ndarray, ...]
    children: tuple[tuple[int, ...], ...]
    leaves: np.ndarray
    horizon: int
    path_prob: np.ndarray

    @classmethod
    def build(cls, nodes) -> "ScenarioTree":
        """Build a tree from ``(id, parent_id or None, branch_prob)`` triples.

        The root must come first; parents must appear before their children.
        Children's branch probabilities must sum to one (within 1e-12) under
        each node, and every leaf must sit at the common horizon.
        """
        entries = list(nodes)
        if not entries:
            raise ModelError("a scenario tree needs at least one node")

        ids, parent, branch_prob = _node_arrays(entries)
        roots = np.flatnonzero(parent < 0)
        if len(roots) != 1 or roots[0] != 0:
            raise ModelError("exactly one root is allowed and it must be listed first")
        if abs(branch_prob[0] - 1.0) > PROB_SUM_TOL:
            raise ModelError("the root's branch probability must be 1")
        branch_prob[0] = 1.0

        n = len(ids)
        below = parent[1:]
        # children in index order, grouped by parent
        order = (np.argsort(below, kind="stable") + 1).tolist()
        counts = np.bincount(below, minlength=n)
        ends = np.cumsum(counts).tolist()
        kids = [order[end - count:end] for end, count in zip(ends, counts.tolist())]

        totals = np.bincount(below, weights=branch_prob[1:], minlength=n)
        bad = np.flatnonzero((counts > 0) & (np.abs(totals - 1.0) > PROB_SUM_TOL))
        if bad.size:
            k = int(bad[0])
            total = float(branch_prob[kids[k]].sum())
            raise ModelError(
                f"children of node {ids[k]!r}: branch probabilities sum to "
                f"{total!r}, expected 1"
            )

        # a pass over all nodes settles one more level: a node's time is
        # final one pass after its parent's
        time = np.zeros(n, dtype=int)
        while not np.array_equal(time[1:], time[below] + 1):
            time[1:] = time[below] + 1
        horizon = int(time.max())
        by_time = _frozen(np.argsort(time, kind="stable"), dtype=int)
        ends = np.cumsum(np.bincount(time)).tolist()
        levels = tuple(by_time[start:end] for start, end in zip([0] + ends, ends))

        leaves = np.flatnonzero(counts == 0)
        off_horizon = [ids[k] for k in leaves[time[leaves] != horizon]]
        if off_horizon:
            raise ModelError(
                f"every leaf must sit at the horizon {horizon}; "
                f"offenders: {off_horizon}"
            )

        tree = cls(
            ids=tuple(ids),
            parent=_frozen(parent, dtype=int),
            branch_prob=_frozen(branch_prob),
            time=_frozen(time, dtype=int),
            levels=levels,
            children=tuple(map(tuple, kids)),
            leaves=_frozen(leaves, dtype=int),
            horizon=horizon,
            path_prob=None,
        )
        path_prob = tree.forward(1.0, np.multiply, tree.branch_prob)
        object.__setattr__(tree, "path_prob", _frozen(path_prob))
        return tree

    @property
    def n_nodes(self) -> int:
        return len(self.ids)

    @property
    def n_leaves(self) -> int:
        return len(self.leaves)

    def is_leaf(self, node: int) -> bool:
        return not self.children[node]

    def node_index(self, node_id: str) -> int:
        try:
            return self.ids.index(node_id)
        except ValueError:
            raise ModelError(f"unknown node id {node_id!r}") from None

    def forward(self, root, combine, *steps) -> np.ndarray:
        """A node process walked forward from the root, one level at a
        time: ``x[0] = root`` and ``x[k] = combine(x[parent[k]], *(s[k]
        for s in steps))``, each ``combine`` call taking a whole level.
        The steps are node-indexed arrays whose root entries are never
        read; the process has ``root``'s dtype.  With an elementwise
        ``combine``, each node's value is the one a node-by-node pass in
        index order computes, bit for bit."""
        out = np.full(self.n_nodes, root)
        for level in self.levels[1:]:
            out[level] = combine(out[self.parent[level]], *[step[level] for step in steps])
        return out

    def expect_terminal(self, leaf_values) -> np.ndarray:
        """Conditional expectation process of a terminal random variable.

        Returns the node-indexed array ``E[f | node]`` where ``leaf_values``
        lists ``f`` leaf by leaf (in ``self.leaves`` order).  One pass per
        level, latest first, sums each node's probability-weighted children
        over ``parent``.
        """
        leaf_values = np.asarray(leaf_values, dtype=float)
        if leaf_values.shape != (self.n_leaves,):
            raise ValueError(
                f"expected {self.n_leaves} leaf values, got shape {leaf_values.shape}"
            )
        out = np.zeros(self.n_nodes, dtype=float)
        out[self.leaves] = leaf_values
        for level in self.levels[:0:-1]:
            out += np.bincount(
                self.parent[level], self.branch_prob[level] * out[level], self.n_nodes
            )
        return out

    def descendant_leaves(self, node: int) -> np.ndarray:
        """Indices (into ``self.leaves``) of the leaves below ``node``."""
        below = self.forward(node == 0, np.logical_or, np.arange(self.n_nodes) == node)
        return np.flatnonzero(below[self.leaves])


# ---------------------------------------------------------------------------
# market model, claims, strategies
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class MarketModel:
    """Nonnegative asset prices on a scenario tree.

    ``price`` has one row per asset and one column per node.  ``numeraire``
    is the aggregate price scaled to 1 at the root; it is strictly positive
    by the cross-section condition enforced in :func:`build_market`.
    """

    tree: ScenarioTree
    price: np.ndarray
    asset_names: tuple[str, ...]
    numeraire: np.ndarray
    total_initial: float

    @property
    def n_assets(self) -> int:
        return self.price.shape[0]


def build_market(tree: ScenarioTree, prices, asset_names=None) -> MarketModel:
    """Validate prices against the tree and assemble a :class:`MarketModel`.

    Checks: the price matrix is finite and nonnegative with shape
    ``(n_assets, n_nodes)``; every asset has a strictly positive root price;
    the aggregate price is strictly positive at every node; and zero is
    absorbing per asset (a vanished price stays at zero on the subtree).
    """
    price = np.asarray(prices, dtype=float)
    if price.ndim != 2 or price.shape[1] != tree.n_nodes:
        raise ModelError(
            f"price matrix must have shape (n_assets, {tree.n_nodes}), "
            f"got {price.shape}"
        )
    if price.shape[0] < 1:
        raise ModelError("a market needs at least one asset")
    if not np.all(np.isfinite(price)):
        raise ModelError("prices must be finite")
    if np.any(price < 0):
        i, k = np.argwhere(price < 0)[0]
        raise ModelError(
            f"asset {i} has a negative price at node {tree.ids[k]!r}"
        )
    if np.any(price[:, 0] <= 0):
        i = int(np.flatnonzero(price[:, 0] <= 0)[0])
        raise ModelError(f"asset {i} must have a strictly positive root price")

    aggregate = price.sum(axis=0)
    if np.any(aggregate <= 0):
        k = int(np.flatnonzero(aggregate <= 0)[0])
        raise ModelError(
            f"aggregate price vanishes at node {tree.ids[k]!r}; "
            "the cross-section of assets must never be worthless"
        )

    below = tree.parent[1:]
    revived = (price[:, below] == 0.0) & (price[:, 1:] != 0.0)
    edges = np.flatnonzero(revived.any(axis=0))
    if edges.size:
        # the first offending edge in (parent, child) order
        edge = edges[np.lexsort((edges, below[edges]))[0]]
        i = int(np.flatnonzero(revived[:, edge])[0])
        raise ModelError(
            f"asset {i} revives at node {tree.ids[edge + 1]!r} after hitting "
            "zero; zero prices are absorbing"
        )

    if asset_names is None:
        asset_names = tuple(f"asset{i}" for i in range(price.shape[0]))
    else:
        asset_names = tuple(str(a) for a in asset_names)
        if len(asset_names) != price.shape[0]:
            raise ModelError("asset_names length must match the number of assets")
        if len(set(asset_names)) != len(asset_names):
            raise ModelError("asset names must be unique")

    total_initial = float(aggregate[0])
    return MarketModel(
        tree=tree,
        price=_frozen(price),
        asset_names=asset_names,
        numeraire=_frozen(aggregate / total_initial),
        total_initial=total_initial,
    )


@dataclass(frozen=True, eq=False)
class Claim:
    """Nonnegative terminal payoff, one value per leaf (in ``tree.leaves`` order)."""

    payoff: np.ndarray

    def __post_init__(self):
        payoff = np.asarray(self.payoff, dtype=float)
        if payoff.ndim != 1:
            raise ModelError("a claim payoff must be a flat vector of leaf values")
        if not np.all(np.isfinite(payoff)) or np.any(payoff < 0):
            raise ModelError("claim payoffs must be finite and nonnegative")
        object.__setattr__(self, "payoff", _frozen(payoff))


@dataclass(frozen=True, eq=False)
class Strategy:
    """Asset holdings per node.  Leaf columns are carried but never read:
    a position chosen at a node pays off at its children."""

    holdings: np.ndarray

    def __post_init__(self):
        holdings = np.asarray(self.holdings, dtype=float)
        if holdings.ndim != 2:
            raise ModelError("strategy holdings must be an (assets x nodes) matrix")
        if not np.all(np.isfinite(holdings)):
            raise ModelError("strategy holdings must be finite")
        object.__setattr__(self, "holdings", _frozen(holdings))


def _check_claim(model: MarketModel, claim: Claim) -> np.ndarray:
    payoff = claim.payoff
    if payoff.shape != (model.tree.n_leaves,):
        raise ValueError(
            f"claim has {payoff.shape[0]} values but the tree has "
            f"{model.tree.n_leaves} leaves"
        )
    return payoff


def _check_strategy(model: MarketModel, strategy: Strategy) -> np.ndarray:
    holdings = strategy.holdings
    if holdings.shape != model.price.shape:
        raise ValueError(
            f"strategy shape {holdings.shape} does not match the market's "
            f"price matrix shape {model.price.shape}"
        )
    return holdings


# ---------------------------------------------------------------------------
# wealth algebra
# ---------------------------------------------------------------------------


def _column_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a[:, k] @ b[:, k]`` for every column ``k``: one stacked ``matmul``
    over a row-major copy, whose columns BLAS reads with a stride, as it
    does a price column, so that each dot rounds as that product does."""
    rows, columns = np.split(np.ascontiguousarray(np.hstack([a, b])).T, 2)
    return np.matmul(rows[:, np.newaxis], columns[..., np.newaxis])[:, 0, 0]


def wealth_process(model: MarketModel, strategy: Strategy, initial: float) -> np.ndarray:
    """Mark a strategy to market along the tree.

    The root carries the given initial wealth; every other node is worth the
    parent's position at the node's prices.  The recursion is purely
    mechanical and applies to consuming strategies as well; use
    :func:`self_financing_violations` to flag rebalancing gaps.
    """
    holdings = _check_strategy(model, strategy)
    wealth = np.empty(model.tree.n_nodes, dtype=float)
    wealth[0] = float(initial)
    wealth[1:] = _column_dots(holdings[:, model.tree.parent[1:]], model.price[:, 1:])
    return wealth


def self_financing_violations(
    model: MarketModel,
    strategy: Strategy,
    initial: float | None = None,
    tol: float = SELF_FINANCING_TOL,
):
    """Nodes where rebalancing moves money in or out.

    Returns ``(node_index, gap)`` pairs: interior rebalancing gaps
    ``|new position - old position| . price`` above ``tol``, plus the root
    budget gap when ``initial`` is given.
    """
    holdings = _check_strategy(model, strategy)
    out = []
    if initial is not None:
        gap = abs(float(holdings[:, 0] @ model.price[:, 0]) - float(initial))
        if gap > tol:
            out.append((0, gap))
    tree = model.tree
    inner = np.setdiff1d(np.arange(1, tree.n_nodes), tree.leaves)
    diff = holdings[:, inner] - holdings[:, tree.parent[inner]]
    gaps = np.abs(_column_dots(diff, model.price[:, inner]))
    over = gaps > tol
    return out + list(zip(inner[over].tolist(), gaps[over].tolist()))


def complete_strategy(model: MarketModel, partial: Strategy, initial: float) -> Strategy:
    """Extend risky positions to an exactly self-financing strategy.

    Adds a uniform position across all assets at every non-leaf node so the
    strategy finances itself node by node and costs exactly ``initial`` at
    the root.  This works because the aggregate price is strictly positive;
    in particular a zero ``partial`` yields the buy-and-hold aggregate
    portfolio, whose uniform position is constant over time.
    """
    partial_holdings = _check_strategy(model, partial)
    tree = model.tree
    aggregate = model.price.sum(axis=0)
    start = (float(initial) - float(partial_holdings[:, 0] @ model.price[:, 0])) / aggregate[0]
    # the partial position's change from the parent's, priced (the root's is never read)
    rebalance = _column_dots(partial_holdings[:, tree.parent] - partial_holdings, model.price)
    uniform = tree.forward(
        start, lambda up, total, paid: (up * total + paid) / total, aggregate, rebalance
    )
    uniform[tree.leaves] = 0.0
    return Strategy(partial_holdings + uniform[np.newaxis, :])


def deflate(model: MarketModel, numeraire_process) -> MarketModel:
    """Rescale all prices by a strictly positive node process.

    A unit value at the root keeps the initial normalization; other roots
    simply scale the market.  Claims are not part of the model and must be
    rescaled by the caller where relevant.
    """
    y = np.asarray(numeraire_process, dtype=float)
    if y.shape != (model.tree.n_nodes,):
        raise ValueError(
            f"numeraire process needs one value per node, got shape {y.shape}"
        )
    if not np.all(np.isfinite(y)) or np.any(y <= 0):
        raise ModelError("numeraire process must be finite and strictly positive")
    return build_market(model.tree, model.price * y[np.newaxis, :], model.asset_names)


# ---------------------------------------------------------------------------
# deflators: raw-value checks and pricing under a deflator
# ---------------------------------------------------------------------------


def deflator_values(candidate) -> np.ndarray:
    """Accept either a wrapped deflator or a bare node-indexed array."""
    values = getattr(candidate, "values", candidate)
    return np.asarray(values, dtype=float)


def martingale_defect(model: MarketModel, levels, prices=None) -> tuple[float, int]:
    """Worst scaled one-step martingale defect of ``levels * prices`` (one
    process per row, the asset prices by default) and its node: at node
    ``k`` a row's defect is ``|lhs - rhs| / max(1, |rhs|)`` with
    ``lhs = sum_j p_j m_j x_j`` over the children and ``rhs = m_k x_k``.
    ``(0.0, 0)`` for a one-node tree."""
    tree = model.tree
    parent = tree.parent[1:]
    inner = np.flatnonzero(np.bincount(parent))
    if not inner.size:
        return 0.0, 0
    deflated = np.atleast_2d(model.price if prices is None else prices) * deflator_values(levels)
    weighted = deflated[:, 1:] * tree.branch_prob[1:]
    lhs = np.array([np.bincount(parent, weights=row)[inner] for row in weighted])
    rhs = deflated[:, inner]
    defect = (np.abs(lhs - rhs) / np.maximum(1.0, np.abs(rhs))).max(axis=0)
    worst = int(np.argmax(defect))
    return float(defect[worst]), int(inner[worst])


def check_deflator_values(model: MarketModel, values, tol: float = DEFLATOR_TOL) -> np.ndarray:
    """Validate a candidate deflator; raise :class:`DeflatorError` if invalid.

    A deflator is strictly positive, equals 1 at the root, and turns every
    asset price into a one-step martingale: the worst
    :func:`martingale_defect` must be at most ``tol``.
    """
    tree = model.tree
    m = deflator_values(values)
    if m.shape != (tree.n_nodes,):
        raise DeflatorError(
            f"deflator needs one value per node, got shape {m.shape}"
        )
    if not np.all(np.isfinite(m)) or np.any(m <= 0):
        raise DeflatorError("deflator values must be finite and strictly positive")
    if abs(m[0] - 1.0) > tol:
        raise DeflatorError(f"deflator must equal 1 at the root, got {m[0]!r}")
    _check_martingale(model, m, tol)
    return m


def _check_martingale(model: MarketModel, values, tol: float = DEFLATOR_TOL) -> float:
    """The worst :func:`martingale_defect` of ``values``, which must be at
    most ``tol``; the martingale part of :func:`check_deflator_values`, for
    levels already known to be positive and 1 at the root."""
    worst, node = martingale_defect(model, values)
    if worst > tol:
        raise DeflatorError(
            f"martingale defect {worst:.3e} at node {model.tree.ids[node]!r} "
            f"exceeds tolerance {tol:g}"
        )
    return worst


def fair_price_process(model: MarketModel, deflator, claim: Claim) -> np.ndarray:
    """Price a claim along the tree under a given deflator.

    The node value is the deflator-weighted conditional expectation of the
    terminal payoff, divided by the deflator's current level.  The result is
    the unique price system making the deflated claim value a martingale.
    """
    payoff = _check_claim(model, claim)
    m = check_deflator_values(model, deflator)
    weighted = model.tree.expect_terminal(m[model.tree.leaves] * payoff)
    return weighted / m
