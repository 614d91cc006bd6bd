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
every node of a ``(time, branching)`` group (:func:`_node_groups`) in one
stacked solve.  The fairness floor, its arbitrage screen, the vertex
tables behind price bounds and the optional decomposition's positions
all come from it; a node whose one-step matrix has full column rank has
a single point (:func:`_single_points`), from which the floor is read
directly.  Every recursion takes one array step per group: the floor
(:func:`_floor_step`) and the best vertex under a linear cost
(:func:`_vertex_step`).  The simplex runs only where a node has too many
bases to list and in :func:`_extract_certificate`.

Boundary points of the closure are not deflators -- several routines in
:mod:`fairtree.hedging` return them as certificates, always as bare arrays
rather than :class:`Deflator` instances.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from weakref import WeakKeyDictionary

import numpy as np

from .errors import DeflatorError, SizeGuardError, SolverError, UnfairMarketError
from .market import MarketModel, check_deflator_values, deflator_values, _frozen
from .optim import (
    _FEAS_TOL,
    _VERTEX_COMBO_GUARD,
    _VERTEX_VARIABLE_GUARD,
    LinearProgram,
    enumerate_vertices,
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


def _scaled_rows(matrix: np.ndarray, rhs: np.ndarray):
    """``matrix @ m = rhs`` with each row, right-hand side included,
    divided by the row's largest magnitude (a zero row stays zero): raw
    prices far apart make the simplex fail verification and the rank test
    of vertex enumeration drop a row, so a fair market's polytope comes out
    empty."""
    scale = np.abs(matrix).max(axis=1)
    scale[scale == 0.0] = 1.0
    return matrix / scale[:, np.newaxis], rhs / scale


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
    """The non-leaf nodes of one time step with the same number of
    children, their :func:`_local_system` rows stacked.

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


_NODE_GROUP_CACHE: "WeakKeyDictionary[MarketModel, tuple]" = WeakKeyDictionary()


def _node_groups(model: MarketModel) -> tuple[_NodeGroup, ...]:
    """Non-leaf nodes batched by ``(time, branching)``, latest time first,
    so a backward recursion can solve each group at once.  The systems of
    all nodes with the same branching are built and decomposed together,
    ordered by time, and each group is a slice of them.  Cached per
    model."""
    groups = _NODE_GROUP_CACHE.get(model)
    if groups is not None:
        return groups
    tree = model.tree
    branchings = np.bincount(tree.parent[1:], minlength=tree.n_nodes)
    built = {}
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
        fixed = _single_points(matrix, rhs, left, rank)
        times = tree.time[nodes]
        starts = np.flatnonzero(np.diff(times, prepend=-1))
        for lo, hi in zip(starts.tolist(), np.append(starts[1:], nodes.size).tolist()):
            at = slice(lo, hi)
            built[int(times[lo]), branching] = _NodeGroup(
                nodes=nodes[at],
                children=children[at],
                probs=probs[at],
                matrix=matrix[at],
                rhs=rhs[at],
                scale=scale[at],
                rank=rank[at],
                left=left[at],
                pinv=pinv[at],
                null=null[at],
                fixed=fixed[at],
            )
    groups = _NODE_GROUP_CACHE[model] = tuple(built[key] for key in sorted(built, reverse=True))
    return groups


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
    times its largest.  A solution is feasible when its entries are at
    least ``-_FEAS_TOL * (1 + max|x|)`` and it meets the unprojected rows
    within the same bound, so a right-hand side outside the column space
    leaves no feasible basis; entries below zero are set to zero.

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
    bound = _FEAS_TOL * (1.0 + np.abs(x).max(axis=2))
    residual = np.abs(np.einsum("gmc,gbc->gbm", matrix, x) - rhs[:, np.newaxis, :]).max(axis=2)
    feasible = regular & (x.min(axis=2) >= -bound) & (residual <= bound)
    np.maximum(x, 0.0, out=x)
    if cost is None:
        return x, feasible, None
    multipliers = np.linalg.solve(
        bases.transpose(0, 1, 3, 2), (cost[:, combos] / norms[:, combos])[..., np.newaxis]
    )[..., 0]
    return x, feasible, np.einsum("gmr,gbr->gbm", span, multipliers)


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


_VERTEX_TABLE_CACHE: "WeakKeyDictionary[MarketModel, tuple]" = WeakKeyDictionary()


def _vertex_tables(model: MarketModel) -> tuple[_VertexTable, ...]:
    """One :class:`_VertexTable` per group of :func:`_node_groups`, in its
    order, cached per model.  The vertices are read off the feasible bases
    (:func:`_distinct_vertices`), from one :func:`_basic_solutions` call
    per branching and rank across the groups."""
    tables = _VERTEX_TABLE_CACHE.get(model)
    if tables is not None:
        return tables
    groups = _node_groups(model)
    tables = [None] * len(groups)
    for branching in sorted({g.children.shape[1] for g in groups}):
        members = [i for i, g in enumerate(groups) if g.children.shape[1] == branching]
        matrix, rhs, left, rank = (
            np.concatenate([getattr(groups[i], name) for i in members])
            for name in ("matrix", "rhs", "left", "rank")
        )
        counts = np.zeros(rank.size, dtype=int)
        past = np.zeros(rank.size, dtype=bool)
        found = []
        for value, at, within in _rank_slices(rank, branching):
            if not within:
                past[at] = True
                continue
            x, feasible, _ = _basic_solutions(matrix[at], rhs[at], left[at], value)
            x, counts[at] = _distinct_vertices(x, feasible)
            found.append((at, x))
        vertices = np.zeros((rank.size, counts.max(), branching))
        for at, x in found:
            vertices[at, : x.shape[1]] = x
        start = 0
        for i in members:
            span = slice(start, start + groups[i].nodes.size)
            start = span.stop
            own, shut = counts[span], past[span]
            stacks = []
            for count in np.unique(own[~shut]).tolist():
                at = np.flatnonzero((own == count) & ~shut)
                stack = _frozen(vertices[span][at, :count])
                stacks.append((slice(None) if at.size == own.size else at, stack))
            tables[i] = _VertexTable(groups[i], tuple(stacks), np.flatnonzero(shut))
    tables = _VERTEX_TABLE_CACHE[model] = tuple(tables)
    return tables


_LOCAL_VERTEX_CACHE: "WeakKeyDictionary[MarketModel, dict]" = WeakKeyDictionary()


def local_vertices(model: MarketModel, node: int) -> list[np.ndarray]:
    """Vertices of the one-step deflator-ratio polytope at a node.

    A per-node view of the model's vertex tables, cached per model; these
    small polytopes are re-scanned by every supermartingale check and
    every oracle sweep.  Raises :class:`SizeGuardError` for a node past
    the vertex-enumeration guard and ``ValueError`` for a leaf.
    """
    cache = _LOCAL_VERTEX_CACHE.setdefault(model, {})
    try:
        return cache[node]
    except KeyError:
        pass
    for table in _vertex_tables(model):
        position = np.flatnonzero(table.group.nodes == node)
        if not position.size:
            continue
        if position[0] in table.past:
            raise SizeGuardError(
                f"the one-step polytope at node {model.tree.ids[node]!r} is past the "
                f"vertex enumeration guard ({_VERTEX_VARIABLE_GUARD} variables, "
                f"{_VERTEX_COMBO_GUARD} bases)"
            )
        for at, vertices in table.stacks:
            held = np.flatnonzero(np.arange(table.group.nodes.size)[at] == position[0])
            if held.size:
                vertices = cache[node] = list(vertices[held[0]])
                return vertices
    raise ValueError(f"node {node!r} is not a non-leaf node of the market")


def _best_vertex(model: MarketModel, node: int, cost: np.ndarray):
    """Ratio vector minimizing ``cost @ r`` over the one-step polytope at
    ``node``, and that minimum, by the node's one-step LP: the vertex
    step of a node past the enumeration guard."""
    _, _, matrix, rhs, _ = _local_system(model, node)
    sol = solve_lp(LinearProgram(cost, matrix, rhs, 0.0, "min"))
    if sol.status != "optimal":  # pragma: no cover - fair market
        raise SolverError(f"local LP {sol.status} at node {model.tree.ids[node]!r}")
    return sol.x, float(sol.x @ cost)


def _vertex_step(model: MarketModel, table: _VertexTable, cost: np.ndarray):
    """Ratio vectors minimizing ``cost[g] @ r`` over each one-step polytope
    of a group, and those minima: the best row of each node's vertices
    (the first on ties), one stacked product and ``argmin`` per stack of
    ``table``, and :func:`_best_vertex` past the enumeration guard."""
    chosen = np.empty(cost.shape)
    best = np.empty(cost.shape[0])
    for at, vertices in table.stacks:
        totals = np.matmul(vertices, cost[at, :, np.newaxis])[..., 0]
        pick = totals.argmin(axis=1)
        rows = np.arange(vertices.shape[0])
        chosen[at] = vertices[rows, pick]
        best[at] = totals[rows, pick]
    for i in table.past.tolist():
        chosen[i], best[i] = _best_vertex(model, int(table.group.nodes[i]), cost[i])
    return chosen, best


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
            ratios, best = _vertex_step(model, table, per_unit[table.group.children])
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


def _floor_lp(matrix: np.ndarray, rhs: np.ndarray, floors: np.ndarray):
    """:func:`_floor_step` at one node by the simplex, for a node past the
    vertex-enumeration guard: ``(t, r)``, or ``None`` when no ratio vector
    satisfies ``matrix @ r = rhs``."""
    unit = float(floors.min())
    spread = unit / floors
    n_children = matrix.shape[1]
    objective = np.zeros(n_children + 1)
    objective[n_children] = 1.0
    lifted = np.column_stack([matrix, matrix @ spread])
    sol = solve_lp(LinearProgram(objective, lifted, rhs, 0.0, "max"))
    if sol.status != "optimal":
        return None
    tau = float(sol.x[n_children])
    return unit * tau, tau * spread + sol.x[:n_children]


def _face_system(group: _NodeGroup, face: np.ndarray):
    """The group's rows with the face row ``probs * face[children] @ r =
    face[node]`` added at each node, divided, value included, by its
    largest magnitude as :func:`_local_system` divides the others (1 for a
    zero row); ``(matrix, rhs, left, rank)``."""
    weights = group.probs * face[group.children]
    value = face[group.nodes]
    size = np.maximum(np.abs(weights).max(axis=1), np.abs(value))
    size[size == 0.0] = 1.0
    matrix = np.concatenate([group.matrix, (weights / size[:, np.newaxis])[:, np.newaxis]], axis=1)
    rhs = np.concatenate([group.rhs, (value / size)[:, np.newaxis]], axis=1)
    left, _, _, _, rank = _svd_rank(matrix)
    return matrix, rhs, left, rank


def _floor_step(group: _NodeGroup, floors, face=None):
    """Largest ``t`` with a one-step ratio vector ``r`` such that
    ``r[j] * floors[g, j] >= t`` for every child ``j``, at each node of
    ``group``, over its one-step system or, given a node process ``face``,
    over its :func:`_face_system`.

    A node whose one-step matrix has full column rank has the single point
    ``r = group.fixed[g]``, so ``t = min_j r[j] * floors[g, j]`` where
    that point passes the basis kernel's feasibility test
    (:func:`_basic_solutions`) on the system's rows, the face row
    included, and no ratio vector is feasible where it does not.  For the
    other nodes, the program's columns are ``s >= 0`` (one per child) and
    ``tau = t / min(floors)``, with ``r = tau * min(floors) / floors + s``,
    so the floor rows need no slacks of their own: the lifted system is
    ``[A | A @ spread]``, of the same rank as ``A``.  It is bounded because
    the one-step polytope is, so its optimum is a basic solution; a
    positive optimum has ``tau`` basic, so only the bases holding ``tau``
    are solved (all of them at rank 0), and ties go to the first basis.
    Measuring ``t`` in units of the smallest floor keeps every coefficient
    at most 1: floors far below 1, as on a face whose exact floor is 0,
    would otherwise put coefficients of 1e16 into the martingale rows.
    Returns ``(t, r)``, ``t`` zero where a floor is zero or no ratio
    vector is feasible.
    """
    if face is None:
        matrix, rhs, left, rank = group.matrix, group.rhs, group.left, group.rank
    else:
        matrix, rhs, left, rank = _face_system(group, face)
    count, _, columns = matrix.shape
    best = np.zeros(count)
    ratios = np.zeros((count, columns))
    positive = floors.min(axis=1) > 0.0
    full = group.rank == columns
    single = np.flatnonzero(positive & full)
    if single.size:
        point = group.fixed[single]
        bound = _FEAS_TOL * (1.0 + np.abs(point).max(axis=1))
        residual = np.abs(np.einsum("gmc,gc->gm", matrix[single], point) - rhs[single])
        met = (point.min(axis=1) >= -bound) & (residual.max(axis=1) <= bound)
        point = np.where(met[:, np.newaxis], np.maximum(point, 0.0), 0.0)
        best[single] = (point * floors[single]).min(axis=1)
        ratios[single] = point
    live = np.flatnonzero(positive & ~full)
    if not live.size:
        return best, ratios
    unit = floors[live].min(axis=1)
    spread = unit[:, np.newaxis] / floors[live]
    lifted = np.concatenate([matrix[live], matrix[live] @ spread[..., np.newaxis]], axis=2)
    for value, at, within in _rank_slices(rank[live], columns + 1):
        nodes = live[at]
        if not within:
            for g in nodes:
                solved = _floor_lp(matrix[g], rhs[g], floors[g])
                if solved is not None:
                    best[g], ratios[g] = solved
            continue
        x, feasible, _ = _basic_solutions(
            lifted[at], rhs[nodes], left[nodes], value, pinned=value > 0
        )
        pick = np.argmax(np.where(feasible, x[:, :, columns], -np.inf), axis=1)
        chosen = x[np.arange(at.size), pick]
        found = feasible.any(axis=1)
        tau = np.where(found, chosen[:, columns], 0.0)
        best[nodes] = unit[at] * tau
        r = tau[:, np.newaxis] * spread[at] + chosen[:, :columns]
        ratios[nodes] = np.where(found[:, np.newaxis], r, 0.0)
    return best, ratios


def _max_floor(model: MarketModel, face=None):
    """Largest uniform floor under the node levels, by backward recursion.

    ``F(k) = min(1, max_{r in P_k} min_j r_j F(c_j))`` with ``F = 1`` at
    the leaves is the largest floor of the subtree at ``k`` relative to its
    own level, so ``F(root)`` is the interior radius of the whole polytope.
    Each ``(time, branching)`` group of :func:`_node_groups` runs as one
    :func:`_floor_step` once its children's floors are known: a node of
    full column rank reads its floor off its single point ``fixed``, the
    others solve the lifted bases that hold the floor's column.  A node
    with a child floor of 0 gets 0.  The cap at 1 (the node's own level) is
    applied after the node's program, not inside it, so each node's ratios
    stay as balanced as its children's floors allow even where the cap
    binds.  ``face``, a node process ``v``, restricts each node to its
    face ``probs * v[children] @ r = v[node]``.  Returns ``F(root)`` and, when it is positive, the witness levels
    rebuilt forward from the maximizing ratios.
    """
    tree = model.tree
    groups = _node_groups(model)
    floors = np.ones(tree.n_nodes)
    ratios = np.zeros(tree.n_nodes)  # each node's level over its parent's
    for group in groups:
        best, ratios[group.children] = _floor_step(group, floors[group.children], face)
        floors[group.nodes] = np.minimum(1.0, best)
    radius = float(floors[0])
    if radius <= 0.0:
        return radius, None
    levels = np.ones(tree.n_nodes)
    for group in reversed(groups):
        levels[group.children] = levels[group.nodes][:, np.newaxis] * ratios[group.children]
    return radius, levels


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


def _find_certificate(model: MarketModel) -> ArbitrageCertificate | None:
    """A one-step arbitrage at the first node, in tree order, whose own
    one-step polytope has no unit floor above the fairness threshold
    (:func:`_floor_step` with unit child floors)."""
    suspects = []
    for group in _node_groups(model):
        unit, _ = _floor_step(group, np.ones(group.children.shape))
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
    :func:`_max_floor`, one batched basis solve per ``(time, branching)``
    group.  The market is fair exactly when it exceeds 1e-10; the levels
    rebuilt from the maximizing ratios are returned as a strictly positive
    witness whose smallest level is the floor.  When unfair, a one-step
    arbitrage certificate is assembled by LP at the first node whose own
    polytope has no positive unit floor (``None`` in the near-degenerate
    case where every node passes locally but the floor is still tiny).
    :func:`fairtree.oracle.lp_interior_radius` solves the same problem as
    one whole-tree LP, for cross-checks.
    """
    radius, levels = _max_floor(model)
    if radius <= FAIRNESS_THRESHOLD:
        return FairnessReport(
            fair=False,
            witness=None,
            interior_radius=radius,
            certificate=_find_certificate(model),
        )
    return FairnessReport(
        fair=True,
        witness=Deflator.for_market(model, levels),
        interior_radius=radius,
        certificate=None,
    )


_FAIRNESS_CACHE: "WeakKeyDictionary[MarketModel, FairnessReport]" = WeakKeyDictionary()


def fairness_report(model: MarketModel) -> FairnessReport:
    """Cached :func:`check_fair`; models are immutable so this is safe."""
    try:
        return _FAIRNESS_CACHE[model]
    except KeyError:
        report = check_fair(model)
        _FAIRNESS_CACHE[model] = report
        return report


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
    combination of polytope vertices, so positivity is inherited from the
    witness.  Small polytopes use the full vertex list, enumerated over
    the polytope's rows each divided by its largest magnitude
    (:func:`_scaled_rows`); past the enumeration guard, vertices are found by minimizing random objectives
    with :func:`polytope_minimizer` (a generic linear cost has a unique
    minimizer, which is a vertex).  Randomness flows
    through ``numpy.random.default_rng`` (PCG64) only.
    """
    report = require_fair(model)
    witness = report.witness.values
    polytope = build_polytope(model)
    rng = np.random.default_rng(seed)

    vertices: list[np.ndarray] | None
    try:
        matrix, rhs = _scaled_rows(polytope.matrix, polytope.rhs)
        vertices = enumerate_vertices(LinearProgram(np.zeros(polytope.n_variables), matrix, rhs))
    except SizeGuardError:
        vertices = None
        minimize = polytope_minimizer(model)

    samples: list[Deflator] = []
    for _ in range(count):
        if vertices is not None:
            weights = rng.dirichlet(np.ones(len(vertices)))
            mix = weights @ np.asarray(vertices)
        else:
            found = [minimize(rng.normal(size=polytope.n_variables)) for _ in range(3)]
            weights = rng.dirichlet(np.ones(len(found)))
            mix = weights @ np.asarray(found)
        samples.append(Deflator.for_market(model, 0.5 * witness + 0.5 * mix))
    return samples
