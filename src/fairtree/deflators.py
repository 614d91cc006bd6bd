"""The polytope of martingale deflators: fairness, completeness, measures.

A martingale deflator is a strictly positive node process, equal to 1 at
the root, that turns every asset price into a martingale.  Collecting the
one-step martingale constraints over all non-leaf nodes (plus the root
normalization) yields a polytope in node space whose strictly positive
points are exactly the deflators.  A market is *fair* when that polytope
has a strictly positive point; it is *complete* when the point is unique.

The polytope factorizes over the tree: fixing a node's level leaves an
independent one-step polytope for its children's levels, cut out by the
node's scaled one-step rows (:func:`_local_system`).  Its optimum over any
linear cost is a basic feasible solution, and a node has few candidate
bases, so one kernel (:func:`_basic_solutions`) solves every basis of
every node of a ``(time, branching)`` group (:func:`_node_groups`), or of
a branching's whole stack (:func:`_node_stacks`), in one stacked solve.
The vertex tables behind price bounds and the optional decomposition's
positions come from it.  The fairness floor comes from the dual side: by
LP duality a node's floor is the least cost per unit of floor-weighted
payoff over the extreme rays of its cone of portfolios with nonnegative
payoffs, and those rays do not depend on the children's floors, so they
are listed once per model (:func:`_ray_tables`); the arbitrage screen
reads the same rays.  A node whose one-step matrix has full column rank
has a single point (:func:`_single_points`), from which its floor and its
vertex table are read directly.  Every recursion takes one array step per
group: the floor (:func:`_floor_step`) and the best vertex under a linear
cost (:func:`_vertex_step`).  The floor's maximizing ratios are solved
after the recursion, one basis per node (:func:`_witness_ratios`).  The
simplex runs only in :func:`_node_lp`, the one node LP of a node with too
many bases to list, and in :func:`_extract_certificate`.  Samples of the
deflator set mix the witness with vertices of the vertex sweep
(:func:`sample_deflators`, :func:`polytope_minimizer`), so the engine
builds no whole-tree object: :func:`build_polytope` serves the oracles.

Every per-model table -- the node systems, the vertex tables and their
per-node lists, the fairness report, the utility dual's entries -- is
built once per model into one store (:func:`_per_model`), whose entry
dies with its model.

Boundary points of the closure are not deflators -- several routines in
:mod:`fairtree.hedging` return them as certificates, always as bare arrays
rather than :class:`Deflator` instances.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace
from weakref import WeakKeyDictionary

import numpy as np

from .errors import DeflatorError, SizeGuardError, SolverError, UnfairMarketError
from .market import MarketModel, check_deflator_values, deflator_values, _frozen
from .optim import (
    _FEAS_TOL,
    _VERTEX_COMBO_GUARD,
    _VERTEX_VARIABLE_GUARD,
    LinearProgram,
    solve_lp,
)

FAIRNESS_THRESHOLD = 1e-10
RANK_RTOL = 1e-10
MEASURE_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class Deflator:
    """Validated martingale deflator (node-indexed levels, root level 1)."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen(self.values))

    @classmethod
    def for_market(cls, model: MarketModel, values, tol: float = 1e-9) -> "Deflator":
        return cls(check_deflator_values(model, values, tol=tol))


@dataclass(frozen=True, eq=False)
class MeasureWeights:
    """Equivalent-measure weights, one strictly positive value per leaf."""

    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "weights", _frozen(self.weights))


@dataclass(frozen=True, eq=False)
class DeflatorPolytope:
    """Equality description ``matrix @ m = rhs`` of the deflator closure.

    Variables are node levels in tree order.  There is one row per
    (non-leaf node, asset) pair -- the one-step martingale constraint --
    plus the root normalization, so ``matrix`` has
    ``n_assets * n_nonleaf + 1`` rows.  Together with ``m >= 0`` the
    feasible set is compact.
    """

    matrix: np.ndarray
    rhs: np.ndarray
    row_labels: tuple[tuple[str, str], ...]

    def __post_init__(self):
        object.__setattr__(self, "matrix", _frozen(self.matrix))
        object.__setattr__(self, "rhs", _frozen(self.rhs))

    @property
    def n_variables(self) -> int:
        return self.matrix.shape[1]

    @property
    def n_rows(self) -> int:
        return self.matrix.shape[0]

    def linear_program(self, objective=None, sense: str = "min") -> LinearProgram:
        if objective is None:
            objective = np.zeros(self.n_variables)
        return LinearProgram(
            objective=np.asarray(objective, dtype=float),
            eq_matrix=self.matrix,
            eq_rhs=self.rhs,
            lower=0.0,
            sense=sense,
        )


@dataclass(frozen=True, eq=False)
class ArbitrageCertificate:
    """One-step arbitrage at a single node: a position with nonpositive
    cost, nonnegative payoff at every child and a strictly positive payoff
    at some child."""

    node: int
    node_id: str
    holdings: np.ndarray
    cost: float
    payoffs: np.ndarray


@dataclass(frozen=True, eq=False)
class FairnessReport:
    """Outcome of :func:`check_fair`.

    ``interior_radius`` is the largest uniform floor under all node levels
    achievable inside the polytope (0 when it is empty).  Markets whose
    radius is positive but at most 1e-10 are reported unfair with the tiny
    radius preserved, never silently rounded either way.
    """

    fair: bool
    witness: Deflator | None
    interior_radius: float
    certificate: ArbitrageCertificate | None


def build_polytope(model: MarketModel) -> DeflatorPolytope:
    """Assemble the martingale-constraint polytope of a market."""
    tree = model.tree
    n = tree.n_nodes
    rows: list[np.ndarray] = []
    labels: list[tuple[str, str]] = []
    for k in range(n):
        ch = list(tree.children[k])
        if not ch:
            continue
        for i in range(model.n_assets):
            row = np.zeros(n)
            row[ch] = tree.branch_prob[ch] * model.price[i, ch]
            row[k] -= model.price[i, k]
            rows.append(row)
            labels.append((tree.ids[k], model.asset_names[i]))
    normalization = np.zeros(n)
    normalization[0] = 1.0
    rows.append(normalization)
    labels.append(("root", "normalization"))
    matrix = np.vstack(rows)
    rhs = np.zeros(len(rows))
    rhs[-1] = 1.0
    return DeflatorPolytope(matrix=matrix, rhs=rhs, row_labels=tuple(labels))


def _local_system(model: MarketModel, node: int):
    """One-step system ``matrix @ r = rhs`` in the ratios ``r`` (child
    level over node level) at ``node``: row ``i`` is asset ``i``'s
    martingale identity ``sum_j p_j S_i(c_j) r_j = S_i(node)`` divided,
    right-hand side included, by its largest magnitude ``scale[i]`` (1 for
    the zero row of an absorbed asset).  A constant factor on an asset's
    prices changes no deflator, and so scaled it changes no coefficient
    either; raw prices 1e12 apart make the simplex fail verification and
    the rank test drop a row.  Returns ``(children, probs, matrix, rhs,
    scale)``; for an array of nodes with equal branching, stacked."""
    tree = model.tree
    if isinstance(node, np.ndarray):
        ch = np.asarray([tree.children[k] for k in node])
        probs = tree.branch_prob[ch]
        matrix = model.price[:, ch].transpose(1, 0, 2) * probs[:, np.newaxis, :]
        rhs = model.price[:, node].T
    else:
        ch = list(tree.children[node])
        probs = tree.branch_prob[ch]
        matrix = model.price[:, ch] * probs
        rhs = model.price[:, node]
    scale = np.maximum(matrix.max(axis=-1), rhs)
    scale[scale == 0.0] = 1.0
    matrix /= scale[..., np.newaxis]
    return ch, probs, matrix, rhs / scale, scale


def _svd_rank(matrix: np.ndarray):
    """Singular value decomposition of stacked matrices with each one's
    rank: the count of singular values above ``RANK_RTOL`` times its
    largest.  Returns ``(left, singular, right, kept, rank)``."""
    left, singular, right = np.linalg.svd(matrix)
    kept = singular > RANK_RTOL * np.maximum(singular[:, :1], 1e-300)
    return left, singular, right, kept, kept.sum(axis=1)


@dataclass(frozen=True, eq=False)
class _NodeGroup:
    """Non-leaf nodes with the same number of children, their
    :func:`_local_system` rows stacked: those of one time step (a group of
    :func:`_node_groups`) or of every time step in time order (a stack of
    :func:`_node_stacks`).

    ``matrix[g] @ r = rhs[g]`` is node ``nodes[g]``'s one-step system in
    its ratios ``r``, asset ``i``'s row divided by ``scale[g, i]``.  One
    singular value decomposition of each matrix gives its rank (singular
    values above ``RANK_RTOL`` times the largest), the left singular
    vectors ``left`` (the first ``rank[g]`` of them span its column
    space), its pseudo-inverse ``pinv`` and an orthonormal basis of its
    null space (``null``, padded with zero columns).  Where a matrix has
    full column rank, its one-step polytope is the single point
    ``fixed[g]`` (:func:`_single_points`; zero elsewhere).  Every array is
    read-only."""

    nodes: np.ndarray
    children: np.ndarray
    probs: np.ndarray
    matrix: np.ndarray
    rhs: np.ndarray
    scale: np.ndarray
    rank: np.ndarray
    left: np.ndarray
    pinv: np.ndarray
    null: np.ndarray
    fixed: np.ndarray

    def __post_init__(self):
        for value in vars(self).values():
            value.flags.writeable = False


_STORE: "WeakKeyDictionary[MarketModel, dict]" = WeakKeyDictionary()


def _per_model(build):
    """``build(model)``, computed once per model: every per-model table of
    the package lives in one store, an entry per model keyed by builder.
    Models are immutable, and an entry dies with its model, so no stored
    value may refer back to its model."""

    @functools.wraps(build)
    def memoized(model):
        try:
            return _STORE[model][build]
        except KeyError:  # built outside the handler, so its errors chain no KeyError
            pass
        entry = _STORE.get(model)
        if entry is None:
            entry = _STORE[model] = {}
        value = entry[build] = build(model)
        return value

    return memoized


def _node_groups(model: MarketModel) -> tuple[_NodeGroup, ...]:
    """Non-leaf nodes batched by ``(time, branching)``, latest time first,
    so a backward recursion can solve each group at once.  Each group is
    a slice of its branching's stack (:func:`_node_stacks`).  Cached per
    model."""
    return _node_systems(model)[1]


def _node_stacks(model: MarketModel) -> tuple[_NodeGroup, ...]:
    """Non-leaf nodes batched by branching, fewest children first, each
    stack ordered by time: the systems of all nodes with the same
    branching, built and decomposed together.  Cached per model."""
    return _node_systems(model)[0]


@_per_model
def _node_systems(model: MarketModel):
    """``(stacks, groups, levels)``: the stacks of :func:`_node_stacks`,
    the groups of :func:`_node_groups` and, for each stack, its groups in
    time order as ``(group index, slice of the stack)`` pairs, so a table
    built per stack is cut into its groups without a search.  Built once
    per model."""
    tree = model.tree
    branchings = np.bincount(tree.parent[1:], minlength=tree.n_nodes)
    stacks, spans, built = [], [], {}
    for branching in np.unique(branchings[branchings > 0]).tolist():
        nodes = np.flatnonzero(branchings == branching)
        nodes = nodes[np.argsort(tree.time[nodes], kind="stable")]
        children, probs, matrix, rhs, scale = _local_system(model, nodes)
        left, singular, right, kept, rank = _svd_rank(matrix)
        width = singular.shape[1]
        inverse = np.divide(1.0, singular, out=np.zeros_like(singular), where=kept)
        pinv = np.einsum("gkn,gk,gdk->gnd", right[:, :width], inverse, left[:, :, :width])
        beyond = np.arange(branching) >= rank[:, np.newaxis]
        null = right.transpose(0, 2, 1) * beyond[:, np.newaxis, :]
        stack = _NodeGroup(
            nodes=nodes,
            children=children,
            probs=probs,
            matrix=matrix,
            rhs=rhs,
            scale=scale,
            rank=rank,
            left=left,
            pinv=pinv,
            null=null,
            fixed=_single_points(matrix, rhs, left, rank),
        )
        stacks.append(stack)
        spans.append([])
        times = tree.time[nodes]
        starts = np.flatnonzero(np.diff(times, prepend=-1))
        for lo, hi in zip(starts.tolist(), np.append(starts[1:], nodes.size).tolist()):
            at = slice(lo, hi)
            key = int(times[lo]), branching
            spans[-1].append((key, at))
            built[key] = _NodeGroup(**{name: value[at] for name, value in vars(stack).items()})
    order = {key: i for i, key in enumerate(sorted(built, reverse=True))}
    groups = tuple(built[key] for key in order)
    levels = tuple(tuple((order[key], at) for key, at in each) for each in spans)
    return tuple(stacks), groups, levels


# ---------------------------------------------------------------------------
# the basis kernel
# ---------------------------------------------------------------------------


def _rank_slices(rank: np.ndarray, columns: int):
    """Split stacked node systems with ``columns`` columns by rank.

    Yields ``(value, at, within)``: the indices ``at`` of systems of rank
    ``value``, and whether that many bases are within the
    :func:`~fairtree.optim.enumerate_vertices` guard (at most 25 columns
    and 400 000 bases per node).  Slices within it hold at most 400 000
    bases in all, so one :func:`_basic_solutions` call stays bounded."""
    for value in np.unique(rank).tolist():
        at = np.flatnonzero(rank == value)
        bases = math.comb(columns, value)
        if columns > _VERTEX_VARIABLE_GUARD or bases > _VERTEX_COMBO_GUARD:
            yield value, at, False
            continue
        step = max(1, _VERTEX_COMBO_GUARD // bases)
        for start in range(0, at.size, step):
            yield value, at[start:start + step], True


@functools.cache
def _combinations(columns: int, rank: int, pinned: bool) -> np.ndarray:
    """The ``rank``-subsets of ``range(columns)`` in ``itertools.combinations``
    order as a read-only ``(bases, rank)`` array; with ``pinned``, only
    those that hold the last column, still in that order."""
    if pinned:
        rest = itertools.combinations(range(columns - 1), rank - 1)
        combos = [combo + (columns - 1,) for combo in rest]
    else:
        combos = list(itertools.combinations(range(columns), rank))
    return _frozen(combos, dtype=np.intp)


def _projection(matrix, rhs, left, rank: int):
    """The stacked systems ``matrix[g] @ x = rhs[g]`` projected onto their
    ``rank`` leading left singular vectors ``left[g]``, which leaves
    ``rank`` independent rows with the same solutions, each column divided
    by its length (a zero column by 1): ``(span, rows, norms, target)``,
    ``rows[g] @ (norms[g] * x) = target[g]``."""
    span = left[:, :, :rank]
    rows = np.einsum("gmr,gmc->grc", span, matrix)
    norms = np.linalg.norm(rows, axis=1)
    norms[norms == 0.0] = 1.0
    return span, rows / norms[:, np.newaxis, :], norms, np.einsum("gmr,gm->gr", span, rhs)


def _single_points(matrix, rhs, left, rank):
    """The solution of each stacked system whose matrix has full column
    rank, by the basis kernel's solve of its projected square system
    (:func:`_projection`), and zero for the others.  Unlike the product
    of the pseudo-inverse with the right-hand side, which loses digits on
    an ill-conditioned matrix, it meets the rows to rounding."""
    count, _, columns = matrix.shape
    points = np.zeros((count, columns))
    full = np.flatnonzero(rank == columns)
    if full.size:
        _, rows, norms, target = _projection(matrix[full], rhs[full], left[full], columns)
        points[full] = np.linalg.solve(rows, target[..., np.newaxis])[..., 0] / norms
    return points


def _basic_solutions(matrix, rhs, left, rank: int, cost=None, pinned: bool = False):
    """Every basic solution of the stacked systems ``matrix[g] @ x = rhs[g]``,
    ``x >= 0``, each of rank ``rank``.

    The rows are projected onto the system's ``rank`` leading left singular
    vectors ``left[g]`` (:func:`_projection`).  Each ``rank``-subset of the
    columns, in ``itertools.combinations`` order, is a candidate basis
    (with ``pinned``, only those holding the last column), and all
    candidates of all systems are solved by one stacked
    ``np.linalg.solve``.  A basis is singular when, its columns scaled to
    unit length, its smallest singular value is at most ``RANK_RTOL``
    times its largest.  A regular basis's solution is feasible by
    :func:`_feasible_points`, which also checks the unprojected rows, so a
    right-hand side outside the column space leaves no feasible basis;
    entries below zero are set to zero.

    Returns ``(x, feasible, duals)``, shaped ``(g, bases, columns)``,
    ``(g, bases)`` and ``(g, bases, rows)``.  ``duals`` (``None`` without
    ``cost``) holds each basis's row multipliers ``theta``, the solution
    of ``A_B^T theta = cost_B`` in the column space: ``cost - A^T theta``
    is zero on the basis and is the basis's reduced cost.
    """
    count, _, columns = matrix.shape
    combos = _combinations(columns, rank, pinned)
    span, rows, norms, target = _projection(matrix, rhs, left, rank)
    bases = rows[:, :, combos].transpose(0, 2, 1, 3)
    singular = np.linalg.svd(bases, compute_uv=False)
    regular = singular[..., -1] > RANK_RTOL * singular[..., 0]
    bases = np.where(regular[..., np.newaxis, np.newaxis], bases, np.eye(rank))
    target = target[:, np.newaxis, :, np.newaxis]
    solved = np.linalg.solve(bases, np.broadcast_to(target, bases.shape[:3] + (1,)))
    x = np.zeros((count, len(combos), columns))
    x[:, np.arange(len(combos))[:, np.newaxis], combos] = solved[..., 0] / norms[:, combos]
    feasible = regular & _feasible_points(matrix, rhs, x)
    if cost is None:
        return x, feasible, None
    multipliers = np.linalg.solve(
        bases.transpose(0, 1, 3, 2), (cost[:, combos] / norms[:, combos])[..., np.newaxis]
    )[..., 0]
    return x, feasible, np.einsum("gmr,gbr->gbm", span, multipliers)


def _feasible_points(matrix, rhs, x):
    """Which of the candidate solutions ``x[g, b]`` of the stacked systems
    ``matrix[g] @ x = rhs[g]``, ``x >= 0``, are feasible: entries at least
    ``-_FEAS_TOL * (1 + max|x|)`` and the rows met within the same bound.
    Entries below zero are then set to zero in place."""
    bound = _FEAS_TOL * (1.0 + np.abs(x).max(axis=2))
    residual = np.abs(np.einsum("gmc,gbc->gbm", matrix, x) - rhs[:, np.newaxis, :]).max(axis=2)
    feasible = (x.min(axis=2) >= -bound) & (residual <= bound)
    np.maximum(x, 0.0, out=x)
    return feasible


def _distinct_vertices(x, feasible):
    """The distinct feasible basic solutions of each stacked system, first
    in basis order (entries within 1e-11 of zero set to zero, solutions
    within 1e-9 in the sup norm merged into the first, as
    :func:`~fairtree.optim.enumerate_vertices` does): ``(x, count)``, the
    first ``count[g]`` rows of ``x[g]`` being system ``g``'s vertices."""
    x[x <= 1e-11] = 0.0
    order = np.argsort(~feasible, axis=1, kind="stable")
    found = feasible.sum(axis=1)
    x = np.take_along_axis(x, order[:, :, np.newaxis], axis=1)[:, : found.max()]
    keep = np.arange(x.shape[1]) < found[:, np.newaxis]
    for j in range(x.shape[1]):
        close = np.abs(x - x[:, j : j + 1]).max(axis=2) <= 1e-9
        close[:, : j + 1] = False
        keep &= ~(close & keep[:, j : j + 1])
    order = np.argsort(~keep, axis=1, kind="stable")
    count = keep.sum(axis=1)
    return np.take_along_axis(x, order[:, :, np.newaxis], axis=1)[:, : count.max()], count


@dataclass(frozen=True, eq=False)
class _VertexTable:
    """The one-step vertices of a :class:`_NodeGroup`'s nodes.

    ``stacks`` holds ``(at, vertices)`` pairs: ``vertices[i]`` stacks the
    vertex rows of node ``group.nodes[at][i]`` (``at`` is a full slice
    where one stack holds the whole group), and every node of a stack
    has the same number of vertices, so a stacked product computes each
    node's totals exactly as a product with the node's own table would
    (a zero row padded onto a table changes how BLAS blocks the product,
    and so the last bits of the other rows' totals).  ``past`` holds the
    positions of the nodes past the vertex-enumeration guard."""

    group: _NodeGroup
    stacks: tuple
    past: np.ndarray


@_per_model
def _vertex_tables(model: MarketModel) -> tuple[_VertexTable, ...]:
    """One :class:`_VertexTable` per group of :func:`_node_groups`, in its
    order, built once per model.  The vertices are read off the feasible
    bases (:func:`_distinct_vertices`), from one :func:`_basic_solutions`
    call per stack of :func:`_node_stacks` and rank, and cut into the
    stack's groups by the slices of :func:`_node_systems`; a node of full
    column rank has one basis, whose solution is its single point
    ``fixed``, so it takes that point through the kernel's feasibility
    test (:func:`_feasible_points`) without a solve."""
    stacks, groups, levels = _node_systems(model)
    tables = [None] * len(groups)
    for stack, spans in zip(stacks, levels):
        matrix, rhs, left, rank = stack.matrix, stack.rhs, stack.left, stack.rank
        branching = stack.children.shape[1]
        counts = np.zeros(rank.size, dtype=int)
        past = np.zeros(rank.size, dtype=bool)
        found = []
        for value, at, within in _rank_slices(rank, branching):
            if not within:
                past[at] = True
                continue
            if value == branching:
                x = stack.fixed[at][:, np.newaxis].copy()
                feasible = _feasible_points(matrix[at], rhs[at], x)
            else:
                x, feasible, _ = _basic_solutions(matrix[at], rhs[at], left[at], value)
            x, counts[at] = _distinct_vertices(x, feasible)
            found.append((at, x))
        vertices = np.zeros((rank.size, counts.max(), branching))
        for at, x in found:
            vertices[at, : x.shape[1]] = x
        for i, span in spans:
            own, shut = counts[span], past[span]
            parts = []
            for count in np.unique(own[~shut]).tolist():
                at = np.flatnonzero((own == count) & ~shut)
                table = _frozen(vertices[span][at, :count])
                parts.append((slice(None) if at.size == own.size else at, table))
            tables[i] = _VertexTable(groups[i], tuple(parts), np.flatnonzero(shut))
    return tuple(tables)


@_per_model
def _local_vertex_lists(model: MarketModel) -> dict:
    """Each non-leaf node's rows of :func:`_vertex_tables` as a list, and
    ``None`` for a node past the vertex-enumeration guard."""
    lists = {}
    for table in _vertex_tables(model):
        nodes = table.group.nodes
        lists.update(dict.fromkeys(nodes[table.past].tolist()))
        for at, vertices in table.stacks:
            lists.update(zip(nodes[at].tolist(), map(list, vertices)))
    return lists


def local_vertices(model: MarketModel, node: int) -> list[np.ndarray]:
    """Vertices of the one-step deflator-ratio polytope at a node.

    A per-node view of the model's vertex tables, listed once per model
    for callers that inspect single nodes (a repeat call returns the same
    list); the engine's recursions read the stacked tables through
    :func:`_vertex_step`.  Raises :class:`SizeGuardError` for a node past
    the vertex-enumeration guard and ``ValueError`` for a leaf.
    """
    try:
        vertices = _local_vertex_lists(model)[node]
    except KeyError:
        raise ValueError(f"node {node!r} is not a non-leaf node of the market") from None
    if vertices is None:
        raise SizeGuardError(
            f"the one-step polytope at node {model.tree.ids[node]!r} is past the "
            f"vertex enumeration guard ({_VERTEX_VARIABLE_GUARD} variables, "
            f"{_VERTEX_COMBO_GUARD} bases)"
        )
    return vertices


def _node_lp(matrix: np.ndarray, rhs: np.ndarray, cost: np.ndarray):
    """``min cost @ r`` subject to ``matrix @ r = rhs``, ``r >= 0``, by the
    simplex: the one node LP of a node past the vertex-enumeration guard.
    Returns the solution and its row duals (``duals @ rhs`` is the optimum
    and ``cost - matrix.T @ duals >= 0``), or ``None`` when the program
    has no optimum."""
    sol = solve_lp(LinearProgram(cost, matrix, rhs, 0.0, "min"))
    if sol.status != "optimal":
        return None
    return sol.x, sol.duals


def _vertex_step(model: MarketModel, table: _VertexTable, cost: np.ndarray):
    """Ratio vectors minimizing ``cost[g] @ r`` over each one-step polytope
    of a group, and those minima: the best row of each node's vertices
    (the first on ties), one stacked product and ``argmin`` per stack of
    ``table``, and :func:`_node_lp` past the enumeration guard.  Returns
    ``(chosen, best, duals)``; ``duals`` holds the row duals of the node
    LPs past the guard (zero for the other nodes; ``None`` for a group
    without such nodes), so a caller that needs them solves no LP again."""
    chosen = np.empty(cost.shape)
    best = np.empty(cost.shape[0])
    group = table.group
    duals = np.zeros(group.rhs.shape) if table.past.size else None
    for at, vertices in table.stacks:
        totals = np.matmul(vertices, cost[at, :, np.newaxis])[..., 0]
        pick = totals.argmin(axis=1)
        rows = np.arange(vertices.shape[0])
        chosen[at] = vertices[rows, pick]
        best[at] = totals[rows, pick]
    for i in table.past.tolist():
        solved = _node_lp(group.matrix[i], group.rhs[i], cost[i])
        if solved is None:  # pragma: no cover - fair market
            raise SolverError(f"local LP has no optimum at node "
                              f"{model.tree.ids[group.nodes[i]]!r}")
        chosen[i], duals[i] = solved
        best[i] = solved[0] @ cost[i]
    return chosen, best, duals


def polytope_minimizer(model: MarketModel):
    """Build an exact linear-minimization oracle for the deflator closure.

    Fixing a node's level, the admissible child levels form an independent
    one-step polytope, so the whole constraint set factorizes over the
    tree.  Minimizing a linear cost then takes one backward sweep of
    :func:`_vertex_step` per ``(time, branching)`` group and one forward
    sweep rebuilding the levels (nodes at level zero propagate zero).  The
    result matches the LP optimum to solver precision at a fraction of the
    cost, which is what makes it suitable for the utility dual's gap
    certificate and for price bounds.  A node past the vertex-enumeration
    guard answers its step with its one-step LP.
    """
    tree = model.tree
    tables = _vertex_tables(model)

    def minimize(cost) -> np.ndarray:
        per_unit = np.asarray(cost, dtype=float).copy()
        chosen = []
        for table in tables:
            ratios, best, _ = _vertex_step(model, table, per_unit[table.group.children])
            per_unit[table.group.nodes] += best
            chosen.append(ratios)
        levels = np.zeros(tree.n_nodes)
        levels[0] = 1.0
        for table, ratios in zip(reversed(tables), reversed(chosen)):
            group = table.group
            levels[group.children] = levels[group.nodes][:, np.newaxis] * ratios
        return levels

    return minimize


# ---------------------------------------------------------------------------
# fairness
# ---------------------------------------------------------------------------


def _payoff_rays(matrix, rhs, left, rank: int):
    """The extreme rays of the cones ``{y : matrix[g].T @ y >= 0}`` of
    stacked systems of rank ``rank``: the portfolios of a node's assets
    whose child payoffs are all nonnegative.

    The rows are projected onto their ``rank`` leading left singular
    vectors (:func:`_projection`), which drops the left null space, so the
    cone is pointed and each extreme ray is orthogonal to ``rank - 1``
    independent columns.  Every ``(rank - 1)``-subset of the columns, in
    ``itertools.combinations`` order, gives its null vector ``y``: at rank
    2 the column ``(a, b)`` turned to ``(-b, a)``, above it the last
    column of a complete QR of the subset, regular when every diagonal
    entry of the triangular factor exceeds ``RANK_RTOL`` (the columns have
    unit length).  ``y`` is a ray where its payoffs ``w = A.T @ y``, at
    unit column length, all have one sign within ``_FEAS_TOL`` of the
    largest; the sign is flipped to make that one positive, and entries
    below zero are set to zero.  The tolerance only admits vectors a
    rounding outside the cone, which can only lower a floor
    (:func:`_floor_step`), never raise it.

    Returns ``(payoffs, cost, ray, inside, rows, target)``: ``payoffs``
    ``(g, subsets, columns)`` are ``w`` on the unprojected rows, ``cost =
    rhs @ y`` and ``ray`` are ``(g, subsets)``, ``inside`` says whether the
    right-hand side lies in the column space (its projection meets the
    unprojected rows within ``_FEAS_TOL``), and ``rows @ x = target`` is the
    projected system, columns at their own length.
    """
    count, _, columns = matrix.shape
    span, rows, norms, target = _projection(matrix, rhs, left, rank)
    inside = np.abs(np.einsum("gmr,gr->gm", span, target) - rhs).max(axis=1) <= _FEAS_TOL
    if rank == 1:
        null, regular = np.ones((count, 1, 1)), True
    elif rank == 2:
        null = rows[:, ::-1].transpose(0, 2, 1) * np.array([-1.0, 1.0])
        regular = np.abs(null).max(axis=2) > RANK_RTOL
    else:
        faces = rows[:, :, _combinations(columns, rank - 1, False)].transpose(0, 2, 1, 3)
        q, tri = np.linalg.qr(faces, mode="complete")
        null = q[..., -1]
        regular = np.abs(np.diagonal(tri, axis1=-2, axis2=-1)).min(axis=-1) > RANK_RTOL
    payoffs = null @ rows
    sign = np.where(payoffs.max(axis=2) >= -payoffs.min(axis=2), 1.0, -1.0)
    payoffs *= sign[..., np.newaxis]
    ray = regular & (payoffs.min(axis=2) >= -_FEAS_TOL * payoffs.max(axis=2))
    np.maximum(payoffs, 0.0, out=payoffs)
    cost = sign * (null @ target[..., np.newaxis])[..., 0]
    scale = norms[:, np.newaxis, :]
    return payoffs * scale, cost, ray, inside, rows * scale, target


@dataclass(frozen=True, eq=False)
class _RayTable:
    """The floor programs of a :class:`_NodeGroup`'s nodes, in dual form.

    ``single`` holds the positions of the nodes of full column rank (a
    full slice where they make up the group, ``None`` where there are
    none), and ``past`` those of the nodes past the vertex-enumeration
    guard of the lifted floor program (:func:`_rank_slices` over
    ``children + 1`` columns).  ``stacks`` holds one ``(at, payoffs,
    cost)`` triple per rank for the other nodes (``at`` a full slice where
    one rank holds the whole group): ``payoffs[i, e]`` and ``cost[i, e]``
    are the child payoffs and the cost of extreme ray ``e`` of node
    ``group.nodes[at][i]`` (:func:`_payoff_rays`), and a node with fewer
    rays than the widest repeats its first, which changes no minimum.  A
    node in none of them has its right-hand side off its column space, so
    it has no ratio vector and its floor is 0."""

    group: _NodeGroup
    single: np.ndarray
    stacks: tuple
    past: np.ndarray


@dataclass(frozen=True, eq=False)
class _RaySlice:
    """The ray nodes of one rank of a branching's stack
    (:func:`_node_stacks`), for the witness pass (:func:`_witness_ratios`):
    their positions ``at`` in ``stack``, their projected systems ``rows @ r
    = target`` (:func:`_payoff_rays`) and, for each of their rays in
    :class:`_RayTable` order, the ``rank - 1`` columns it is orthogonal to
    (``tight``)."""

    stack: _NodeGroup
    at: np.ndarray
    rank: int
    tight: np.ndarray
    rows: np.ndarray
    target: np.ndarray


def _ray_tables(model: MarketModel):
    """``(tables, slices)``: one :class:`_RayTable` per group of
    :func:`_node_groups`, in its order, and the :class:`_RaySlice` of
    every ``(branching, rank)`` slice of :func:`_node_stacks` with ray
    nodes.  The rays of a slice come from one :func:`_payoff_rays` call
    per chunk of :func:`_rank_slices`; a stack of full-rank nodes builds
    none.  Rays do not depend on the children's floors, so one table
    serves the floor recursion and the certificate screen."""
    stacks, groups, levels = _node_systems(model)
    tables = [None] * len(groups)
    slices = []
    for stack, spans in zip(stacks, levels):
        branching = stack.children.shape[1]
        single = stack.rank == branching
        past = np.zeros(single.size, dtype=bool)
        chunks = {}
        lacking = np.flatnonzero(~single)
        for value, at, within in _rank_slices(stack.rank[lacking], branching + 1):
            at = lacking[at]
            if not within:
                past[at] = True
                continue
            chunk = _payoff_rays(stack.matrix[at], stack.rhs[at], stack.left[at], value)
            chunks.setdefault(value, []).append((at, *chunk))
        found = []
        for value, parts in chunks.items():
            at, payoffs, cost, ray, inside, rows, target = map(np.concatenate, zip(*parts))
            at, payoffs, cost, ray, rows, target = (
                part[inside] for part in (at, payoffs, cost, ray, rows, target)
            )
            if not at.size:
                continue
            count = ray.sum(axis=1)
            if not count.all():  # pragma: no cover - the cone is pointed
                node = stack.nodes[at[np.argmin(count)]]
                raise SolverError(f"no extreme payoff ray at node {model.tree.ids[node]!r}")
            order = np.argsort(~ray, axis=1, kind="stable")[:, : count.max()]
            order = np.where(np.arange(order.shape[1]) < count[:, np.newaxis], order, order[:, :1])
            each = np.arange(at.size)[:, np.newaxis]
            tight = _combinations(branching, value - 1, False)[order]
            slices.append(_RaySlice(stack, at, value, tight, rows, target))
            found.append((at, payoffs[each, order], cost[each, order], count))
        for i, span in spans:
            lo, hi = span.start, span.stop
            parts = []
            for at, payoffs, cost, count in found:
                first, last = np.searchsorted(at, [lo, hi]).tolist()
                if first == last:
                    continue
                width = count[first:last].max()
                own = slice(None) if last - first == hi - lo else at[first:last] - lo
                parts.append((own, payoffs[first:last, :width], cost[first:last, :width]))
            own = single[span]
            tables[i] = _RayTable(
                groups[i],
                slice(None) if own.all() else np.flatnonzero(own) if own.any() else None,
                tuple(parts),
                np.flatnonzero(past[span]),
            )
    return tuple(tables), tuple(slices)


def _floor_step(table: _RayTable, floors):
    """Largest ``t`` with a one-step ratio vector ``r`` such that
    ``r[j] * floors[g, j] >= t`` for every child ``j``, at each node of
    ``table.group``.

    A node whose one-step matrix has full column rank has the single point
    ``r = group.fixed[g]``, so ``t = min_j r[j] * floors[g, j]`` where
    that point passes the basis kernel's feasibility test
    (:func:`_basic_solutions`) on the system's rows, and no ratio vector
    is feasible where it does not.  For the other nodes LP duality gives
    ``t = min_e cost_e / sum_j payoffs_ej / floors[g, j]`` over the node's
    extreme payoff rays (:class:`_RayTable`), clipped at 0 (a ray of
    negative cost leaves no ratio vector): one stacked product and
    ``argmin`` per rank, measured in units of the smallest floor so that
    floors far below 1 stay in range.  The minimizing ray is returned for
    the witness pass (:func:`_witness_ratios`), which finds those nodes'
    ratios.  A node past the vertex-enumeration guard solves the lifted
    program as its :func:`_node_lp`: columns ``s >= 0`` (one per child)
    and ``tau = t / min(floors)``, with ``r = tau * min(floors) / floors +
    s``, so the system is ``[A | A @ spread]`` and the cost ``-tau``.
    Returns ``(t, r, pick)``: ``t`` is zero where a floor is zero or no
    ratio vector is feasible, ``r`` is zero at the ray nodes, and ``pick``
    holds the ray nodes' minimizing rays.
    """
    group = table.group
    matrix, rhs = group.matrix, group.rhs
    count, _, columns = matrix.shape
    best = np.zeros(count)
    ratios = np.zeros((count, columns))
    pick = np.zeros(count, dtype=np.intp)
    unit = floors.min(axis=1)
    positive = unit > 0.0
    everywhere = positive.all()
    if not everywhere:
        floors = np.where(positive[:, np.newaxis], floors, 1.0)
        unit = floors.min(axis=1)
    single = table.single
    if single is not None:
        point = group.fixed[single]
        bound = _FEAS_TOL * (1.0 + np.abs(point).max(axis=1))
        residual = np.abs(np.einsum("gmc,gc->gm", matrix[single], point) - rhs[single])
        met = (point.min(axis=1) >= -bound) & (residual.max(axis=1) <= bound)
        point = np.where(met[:, np.newaxis], np.maximum(point, 0.0), 0.0)
        best[single] = (point * floors[single]).min(axis=1)
        ratios[single] = point
    for at, payoffs, cost in table.stacks:
        spread = unit[at, np.newaxis] / floors[at]
        bounds = cost / np.matmul(payoffs, spread[..., np.newaxis])[..., 0]
        chosen = bounds.argmin(axis=1)
        pick[at] = chosen
        best[at] = unit[at] * np.maximum(bounds[np.arange(chosen.size), chosen], 0.0)
    for i in table.past.tolist():
        if not positive[i]:
            continue
        spread = unit[i] / floors[i]
        lifted = np.column_stack([matrix[i], matrix[i] @ spread])
        solved = _node_lp(lifted, rhs[i], -np.eye(columns + 1)[columns])  # maximize tau
        if solved is not None:
            tau = solved[0][columns]
            best[i] = unit[i] * tau
            ratios[i] = tau * spread + solved[0][:columns]
    if not everywhere:
        best[~positive] = 0.0
        ratios[~positive] = 0.0
    return best, ratios, pick


def _witness_ratios(model: MarketModel, ray_slice: _RaySlice, floors, best, pick):
    """The maximizing ratio vectors of the floor programs of a
    :class:`_RaySlice`'s nodes, from the final floors.

    By complementary slackness, ``s`` is zero wherever the node's
    minimizing ray pays, so its basis of the lifted system ``[A | A @
    spread]`` (:func:`_floor_step`) is the ray's tight columns plus
    ``tau``.  All of a slice's bases are solved by one stacked solve on the
    projected rows.  Where several rays tie, the chosen basis may have a
    negative entry (below ``-_FEAS_TOL * (1 + max|x|)``); only those nodes
    solve every basis that holds ``tau`` (:func:`_basic_solutions`) and
    take the best feasible one.  Each node's ``min_j r_j floors_j`` must
    meet its ray floor ``best`` within ``_FEAS_TOL`` relative; otherwise
    :class:`SolverError` names the node."""
    stack, at, rows = ray_slice.stack, ray_slice.at, ray_slice.rows
    nodes = stack.nodes[at]
    child_floors = floors[stack.children[at]]
    spread = child_floors.min(axis=1)[:, np.newaxis] / child_floors
    each = np.arange(at.size)[:, np.newaxis]
    tight = ray_slice.tight[each[:, 0], pick[nodes]]
    by_column = rows.transpose(0, 2, 1)
    tau = (rows @ spread[..., np.newaxis]).transpose(0, 2, 1)
    bases = np.concatenate([by_column[each, tight], tau], axis=1).transpose(0, 2, 1)
    x = np.linalg.solve(bases, ray_slice.target[..., np.newaxis])[..., 0]
    feasible = x.min(axis=1) >= -_FEAS_TOL * (1.0 + np.abs(x).max(axis=1))
    ratios = x[:, -1:] * spread
    ratios[each, tight] += np.maximum(x[:, :-1], 0.0)
    retry = np.flatnonzero(~feasible)
    if retry.size:
        width = spread.shape[1]
        matrix = stack.matrix[at[retry]]
        lifted = np.concatenate([matrix, matrix @ spread[retry, :, np.newaxis]], axis=2)
        x, feasible, _ = _basic_solutions(
            lifted, stack.rhs[at[retry]], stack.left[at[retry]], ray_slice.rank, pinned=True
        )
        found = feasible.any(axis=1)
        if not found.all():  # pragma: no cover - the floor is positive
            node = nodes[retry[np.argmin(found)]]
            raise SolverError(
                f"floor program has no feasible basis at node {model.tree.ids[node]!r}"
            )
        x = x[np.arange(retry.size), np.argmax(np.where(feasible, x[:, :, width], -np.inf), axis=1)]
        ratios[retry] = x[:, width, np.newaxis] * spread[retry] + x[:, :width]
    attained = (ratios * child_floors).min(axis=1)
    miss = np.abs(attained - best[nodes]) > _FEAS_TOL * best[nodes]
    if miss.any():
        i = np.argmax(miss)
        raise SolverError(
            f"floor witness at node {model.tree.ids[nodes[i]]!r} attains {attained[i]:.17g}, "
            f"not the ray floor {best[nodes[i]]:.17g}"
        )
    return ratios


def _max_floor(model: MarketModel, rays):
    """Largest uniform floor under the node levels, by backward recursion
    over the ray tables ``rays`` (:func:`_ray_tables`).

    ``F(k) = min(1, max_{r in P_k} min_j r_j F(c_j))`` with ``F = 1`` at
    the leaves is the largest floor of the subtree at ``k`` relative to its
    own level, so ``F(root)`` is the interior radius of the whole polytope.
    Each ``(time, branching)`` group runs as one :func:`_floor_step` once
    its children's floors are known: a node of full column rank reads its
    floor off its single point ``fixed``, the others take the best bound
    of their extreme payoff rays, one product per rank, or their
    :func:`_node_lp` past the vertex-enumeration guard.  A node with a
    child floor of 0 gets 0.  The cap at 1 (the node's own level) is
    applied after the node's program, not inside it, so each node's ratios
    stay as balanced as its children's floors allow even where the cap
    binds.  Returns ``F(root)``, the witness levels rebuilt forward from
    the maximizing ratios when it exceeds ``FAIRNESS_THRESHOLD`` (``None``
    otherwise), which the ray nodes take in one pass per slice
    (:func:`_witness_ratios`), and each node's floor before the cap (1 at
    the leaves), which the certificate screen reuses
    (:func:`_find_certificate`).
    """
    tables, slices = rays
    tree = model.tree
    floors = np.ones(tree.n_nodes)
    best = np.ones(tree.n_nodes)
    pick = np.zeros(tree.n_nodes, dtype=np.intp)
    ratios = np.zeros(tree.n_nodes)  # each node's level over its parent's
    for table in tables:
        group = table.group
        found, ratios[group.children], pick[group.nodes] = _floor_step(
            table, floors[group.children]
        )
        best[group.nodes] = found
        floors[group.nodes] = np.minimum(1.0, found)
    radius = float(floors[0])
    if radius <= FAIRNESS_THRESHOLD:
        return radius, None, best
    for ray_slice in slices:
        children = ray_slice.stack.children[ray_slice.at]
        ratios[children] = _witness_ratios(model, ray_slice, floors, best, pick)
    levels = np.ones(tree.n_nodes)
    for table in reversed(tables):
        group = table.group
        levels[group.children] = levels[group.nodes][:, np.newaxis] * ratios[group.children]
    return radius, levels, best


def _extract_certificate(model: MarketModel, node: int) -> ArbitrageCertificate | None:
    """Search for a one-step arbitrage position at ``node`` by LP.

    Works on the node's scaled rows ``A`` and ``b`` (:func:`_local_system`)
    with a scaled position ``theta``: it minimizes the cost ``b @ theta``
    subject to nonnegative probability-weighted child payoffs ``A^T theta``
    normalized to sum to one (plus a harmless cost floor that keeps the
    program bounded).  A nonpositive minimum is an arbitrage; the holdings
    are ``theta / scale``, priced back at the raw prices.
    """
    tree = model.tree
    ch, _, matrix, rhs, scale = _local_system(model, node)
    d, k = matrix.shape
    # variables: scaled position (d, free), payoff slacks (k), cost-floor slack
    n_vars = d + k + 1
    rows = np.zeros((k + 2, n_vars))
    rows[:k, :d] = matrix.T
    rows[:k, d : d + k] = -np.eye(k)
    rows[k, :d] = matrix.sum(axis=1)
    rows[k + 1, :d] = rhs
    rows[k + 1, d + k] = -1.0
    constants = np.zeros(k + 2)
    constants[k] = 1.0
    constants[k + 1] = -1.0
    objective = np.zeros(n_vars)
    objective[:d] = rhs
    lower = np.zeros(n_vars)
    lower[:d] = -np.inf
    sol = solve_lp(LinearProgram(objective, rows, constants, lower, "min"))
    if sol.status != "optimal" or sol.value > FAIRNESS_THRESHOLD:
        return None
    holdings = sol.x[:d] / scale
    return ArbitrageCertificate(
        node=node,
        node_id=tree.ids[node],
        holdings=holdings,
        cost=float(holdings @ model.price[:, node]),
        payoffs=holdings @ model.price[:, ch],
    )


def _find_certificate(model: MarketModel, rays, best) -> ArbitrageCertificate | None:
    """A one-step arbitrage at the first node, in tree order, whose own
    one-step polytope has no unit floor above the fairness threshold
    (:func:`_floor_step` with unit child floors over the ray tables
    ``rays``, so the rays' own costs and payoffs decide).  A node past the
    vertex-enumeration guard whose children all had floor 1 in the
    recursion (``best``, from :func:`_max_floor`) solved this very program
    there, so it takes that floor instead of its lifted node LP again."""
    suspects = []
    for table in rays[0]:
        group, past = table.group, table.past
        reused = (best[group.children[past]] >= 1.0).all(axis=1)
        unit, _, _ = _floor_step(replace(table, past=past[~reused]), np.ones(group.children.shape))
        unit[past[reused]] = best[group.nodes[past[reused]]]
        suspects.extend(group.nodes[unit <= FAIRNESS_THRESHOLD].tolist())
    for node in sorted(suspects):
        certificate = _extract_certificate(model, node)
        if certificate is not None:
            return certificate
    return None


def check_fair(model: MarketModel) -> FairnessReport:
    """Decide fairness by the largest uniform floor under the polytope.

    The floor, ``max eps`` subject to the martingale constraints and
    ``m[node] >= eps`` for every node, comes from the backward recursion of
    :func:`_max_floor` over the nodes' extreme payoff rays
    (:func:`_ray_tables`, built here once and passed on), one stacked
    product per ``(time, branching)`` group and rank.  The market is fair
    exactly when it exceeds 1e-10; the levels rebuilt from the maximizing
    ratios are returned as a strictly positive witness whose smallest
    level is the floor.  When unfair, a one-step arbitrage certificate is
    assembled by LP at the first node whose own polytope has no positive
    unit floor, read from the same rays (``None`` in the near-degenerate
    case where every node passes locally but the floor is still tiny).
    :func:`fairtree.oracle.lp_interior_radius` solves the same problem as
    one whole-tree LP, for cross-checks.
    """
    rays = _ray_tables(model)
    radius, levels, best = _max_floor(model, rays)
    if radius <= FAIRNESS_THRESHOLD:
        return FairnessReport(
            fair=False,
            witness=None,
            interior_radius=radius,
            certificate=_find_certificate(model, rays, best),
        )
    return FairnessReport(
        fair=True,
        witness=Deflator.for_market(model, levels),
        interior_radius=radius,
        certificate=None,
    )


@_per_model
def fairness_report(model: MarketModel) -> FairnessReport:
    """:func:`check_fair`, once per model; models are immutable so this is
    safe."""
    return check_fair(model)


def require_fair(model: MarketModel) -> FairnessReport:
    report = fairness_report(model)
    if not report.fair:
        raise UnfairMarketError(
            f"market admits no martingale deflator "
            f"(interior radius {report.interior_radius:.3e})"
        )
    return report


# ---------------------------------------------------------------------------
# completeness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CompletenessReport:
    complete: bool
    dimension: int
    #: per non-leaf node: (node id, number of children, local rank)
    local_ranks: tuple = ()


def check_complete(model: MarketModel) -> CompletenessReport:
    """Completeness by local rank: the deflator is unique exactly when at
    every non-leaf node the one-step matrix (the node's
    :func:`_local_system` rows) has rank equal to the number of children.
    The reported dimension sums the local defects, which is the dimension
    of the deflator family.  The ranks are those of :func:`_node_groups`.
    Requires a fair market."""
    require_fair(model)
    tree = model.tree
    ranks = {k: r for g in _node_groups(model) for k, r in zip(g.nodes.tolist(), g.rank.tolist())}
    local_ranks = tuple(
        (tree.ids[k], len(tree.children[k]), ranks[k]) for k in sorted(ranks)
    )
    dimension = sum(children - rank for _, children, rank in local_ranks)
    return CompletenessReport(
        complete=dimension == 0, dimension=dimension, local_ranks=local_ranks
    )


# ---------------------------------------------------------------------------
# deflators <-> equivalent measures
# ---------------------------------------------------------------------------


def deflator_to_measure(model: MarketModel, deflator) -> MeasureWeights:
    """Terminal weights of the equivalent measure induced by a deflator.

    The weight of a leaf is its path probability times the deflator level
    times the numeraire level.  Weights sum to one because the deflated
    numeraire is a martingale started at 1.
    """
    m = check_deflator_values(model, deflator)
    leaves = model.tree.leaves
    weights = model.tree.path_prob[leaves] * m[leaves] * model.numeraire[leaves]
    total = float(weights.sum())
    if abs(total - 1.0) > 1e-8:
        raise DeflatorError(
            f"induced measure weights sum to {total!r}; the deflator fails "
            "the aggregate martingale identity"
        )
    return MeasureWeights(weights)


def validate_measure(model: MarketModel, measure: MeasureWeights) -> np.ndarray:
    q = np.asarray(measure.weights, dtype=float)
    if q.shape != (model.tree.n_leaves,):
        raise DeflatorError(
            f"measure needs one weight per leaf, got shape {q.shape}"
        )
    if not np.all(np.isfinite(q)) or np.any(q <= 0):
        raise DeflatorError(
            "measure weights must be strictly positive (equivalent measure)"
        )
    if abs(float(q.sum()) - 1.0) > MEASURE_TOL:
        raise DeflatorError(f"measure weights sum to {float(q.sum())!r}, expected 1")
    return q


def measure_to_deflator(model: MarketModel, measure: MeasureWeights) -> Deflator:
    """Invert :func:`deflator_to_measure`.

    Terminal deflator levels are the measure density over the numeraire;
    interior levels follow from the conditional-expectation identity
    ``m[n] * numeraire[n] = E[m_T * numeraire_T | n]``.
    """
    q = validate_measure(model, measure)
    tree = model.tree
    leaves = tree.leaves
    terminal = q / (tree.path_prob[leaves] * model.numeraire[leaves])
    values = tree.expect_terminal(terminal * model.numeraire[leaves]) / model.numeraire
    return Deflator.for_market(model, values)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def sample_deflators(model: MarketModel, count: int, seed: int) -> list[Deflator]:
    """Draw strictly positive deflators, deterministically under ``seed``.

    Each sample is an even mix of the fairness witness with a random convex
    combination of three polytope vertices, so positivity is inherited from
    the witness.  The vertices minimize random costs by the vertex sweep of
    :func:`polytope_minimizer` (a generic linear cost has a unique
    minimizer, which is a vertex), node by node, so no whole-tree polytope
    is built.  Randomness flows through ``numpy.random.default_rng``
    (PCG64) only.
    """
    witness = require_fair(model).witness.values
    minimize = polytope_minimizer(model)
    rng = np.random.default_rng(seed)
    samples: list[Deflator] = []
    for _ in range(count):
        found = [minimize(rng.normal(size=model.tree.n_nodes)) for _ in range(3)]
        mix = rng.dirichlet(np.ones(3)) @ np.asarray(found)
        samples.append(Deflator.for_market(model, 0.5 * witness + 0.5 * mix))
    return samples
