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
The vertex tables behind price bounds come from it and keep its
claim-independent factors, on which the optional decomposition solves
each claim's multipliers (:func:`_basis_multipliers`).  The fairness
floor comes from the dual side: by LP duality a node's floor is the
least cost per unit of floor-weighted payoff over the extreme rays of
its cone of portfolios with nonnegative payoffs, and those rays do not
depend on the children's floors, so they are listed once per model
(:func:`_ray_tables`).  A node whose one-step matrix has full column
rank has one basis, solved in one kernel call per stack
(:func:`_node_systems`); a feasible solution is its single point, and
an infeasible one leaves it floor 0 and no vertex.  Every
recursion takes one array step per group: the floor (:func:`_floor_step`)
and the best vertex under a linear cost (:func:`_vertex_step`), and the
tree's forward walk rebuilds the levels from the chosen ratios.  The
floor's maximizing ratios are solved after the recursion, one basis per
node (:func:`_witness_ratios`), and an unfair market's arbitrage is read
off the node program whose zero floor is its own (:func:`_certificate`).
The simplex runs only in :func:`_node_lp`, at a node with too many bases
to list.  Samples of the deflator set
mix the witness with vertices of the vertex sweep
(:func:`sample_deflators`, :func:`polytope_minimizer`), so the engine
builds no whole-tree object: :func:`build_polytope` serves the oracles.

Every per-model table -- the node systems, the vertex tables with their
kept bases and their per-node lists, the fairness report, the utility
dual's entries -- is built once per model into one store
(:func:`_per_model`), whose entry dies with its model.

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

    def linear_program(self, objective=None) -> LinearProgram:
        if objective is None:
            objective = np.zeros(self.n_variables)
        return LinearProgram(
            objective=np.asarray(objective, dtype=float),
            eq_matrix=self.matrix,
            eq_rhs=self.rhs,
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
    radius preserved, never silently rounded either way.  An unfair
    market's ``certificate`` sits at the first node in tree order whose
    own floor is at most 1e-10; it is ``None`` in the near-degenerate case
    where that node's cheapest position costs more.
    """

    fair: bool
    witness: Deflator | None
    interior_radius: float
    certificate: ArbitrageCertificate | None


def build_polytope(model: MarketModel) -> DeflatorPolytope:
    """Assemble the martingale-constraint polytope of a market."""
    tree, assets = model.tree, model.n_assets
    inner = np.flatnonzero(np.bincount(tree.parent[1:], minlength=tree.n_nodes))
    first = np.zeros(tree.n_nodes, dtype=int)  # each non-leaf node's first row
    first[inner] = assets * np.arange(inner.size)
    rows = np.arange(assets)[:, np.newaxis]
    matrix = np.zeros((assets * inner.size + 1, tree.n_nodes))
    weighted = tree.branch_prob[1:] * model.price[:, 1:]
    matrix[first[tree.parent[1:]] + rows, np.arange(1, tree.n_nodes)] = weighted
    matrix[first[inner] + rows, inner] -= model.price[:, inner]
    matrix[-1, 0] = 1.0
    rhs = np.zeros(len(matrix))
    rhs[-1] = 1.0
    labels = [(tree.ids[k], name) for k in inner.tolist() for name in model.asset_names]
    return DeflatorPolytope(matrix, rhs, tuple(labels) + (("root", "normalization"),))


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
    full column rank, ``fixed[g]`` is its one basis's solution if that is
    feasible (:func:`_node_systems`; zero elsewhere).  Every array is
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
    """``(stacks, groups, levels, singles)``: the stacks of
    :func:`_node_stacks`, the groups of :func:`_node_groups`, for each
    stack its groups in time order as ``(group index, slice of the
    stack)`` pairs, so a table built per stack is cut into its groups
    without a search, and for each stack the ``(at, feasible, factors)``
    of its one :func:`_basic_solutions` call on its nodes of full column
    rank, or ``None``.  Built once per model."""
    tree = model.tree
    branchings = np.bincount(tree.parent[1:], minlength=tree.n_nodes)
    stacks, singles, spans, built = [], [], [], {}
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
        fixed, single = np.zeros(matrix.shape[::2]), None
        full = np.flatnonzero(rank == branching)
        if full.size:
            x, feasible, factors = _basic_solutions(matrix[full], rhs[full], left[full], branching)
            fixed[full] = np.where(feasible, x[:, 0], 0.0)
            full.flags.writeable = feasible.flags.writeable = False
            single = full, feasible, factors
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
            fixed=fixed,
        )
        stacks.append(stack)
        singles.append(single)
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
    return tuple(stacks), groups, levels, tuple(singles)


# ---------------------------------------------------------------------------
# the basis kernel
# ---------------------------------------------------------------------------


def _rank_slices(rank: np.ndarray, columns: int):
    """Split stacked node systems with ``columns`` columns by rank.

    Yields ``(value, at, within)``: the indices ``at`` of systems of rank
    ``value``, and whether that many bases are within the
    :func:`~fairtree.optim.enumerate_vertices` guard (at most 25 columns
    and 400 000 bases per node).  Slices within it hold at most 400 000
    bases in all, so one :func:`_basic_solutions` call stays bounded,
    except at full column rank: one basis per node, all in one slice."""
    for value in np.unique(rank).tolist():
        at = np.flatnonzero(rank == value)
        bases = math.comb(columns, value)
        if columns > _VERTEX_VARIABLE_GUARD or bases > _VERTEX_COMBO_GUARD:
            yield value, at, False
            continue
        step = max(1, _VERTEX_COMBO_GUARD // bases) if value < columns else at.size
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


@dataclass(frozen=True, eq=False)
class _BasisFactors:
    """The candidate bases of stacked systems of one rank, as the basis
    kernel (:func:`_basic_solutions`) forms them: the projection ``span``
    onto each system's leading left singular vectors, ``(g, rows,
    rank)``; the bases of the projected rows, columns at unit length,
    ``(g, bases, rank, rank)``, the identity in place of a singular one;
    the lengths of their columns, ``norms``, ``(g, bases, rank)``; and the
    columns of each basis, ``combos``.  Claim-independent, so a system's
    factors answer every cost's multipliers (:func:`_basis_multipliers`).
    Every array is read-only."""

    span: np.ndarray
    bases: np.ndarray
    norms: np.ndarray
    combos: np.ndarray

    def __post_init__(self):
        for value in vars(self).values():
            value.flags.writeable = False


def _regular_bases(bases, rank: int):
    """Which of the square ``rank``-column bases, columns at unit length,
    are regular: their smallest singular value above ``RANK_RTOL`` times
    their largest.  At rank 1 that is a nonzero entry.  At rank 2, with
    ``s = |B|_F^2`` and ``d = |det B|``, the largest singular value
    squared is ``(s + sqrt(s^2 - 4 d^2)) / 2`` and the ratio of the two
    singular values is ``d`` over it, so no SVD is needed; above rank 2
    the SVD decides."""
    if rank == 1:
        return bases[..., 0, 0] != 0.0
    if rank == 2:
        s = np.square(bases).sum(axis=(-2, -1))
        d = np.abs(bases[..., 0, 0] * bases[..., 1, 1] - bases[..., 0, 1] * bases[..., 1, 0])
        top = (s + np.sqrt(np.maximum(s * s - 4.0 * d * d, 0.0))) / 2.0
        return d > RANK_RTOL * top
    singular = np.linalg.svd(bases, compute_uv=False)
    return singular[..., -1] > RANK_RTOL * singular[..., 0]


def _basic_solutions(matrix, rhs, left, rank: int, pinned: bool = False):
    """Every basic solution of the stacked systems ``matrix[g] @ x = rhs[g]``,
    ``x >= 0``, each of rank ``rank``.

    The rows are projected onto the system's ``rank`` leading left singular
    vectors ``left[g]`` (:func:`_projection`).  Each ``rank``-subset of the
    columns, in ``itertools.combinations`` order, is a candidate basis
    (with ``pinned``, only those holding the last column), and all
    candidates of all systems are solved by one stacked
    ``np.linalg.solve``.  A basis is singular when, its columns scaled to
    unit length, its smallest singular value is at most ``RANK_RTOL``
    times its largest (:func:`_regular_bases`); at full column rank the
    caller's SVD has found the one basis regular.  A regular basis's
    solution is feasible by :func:`_feasible_points`, which also checks
    the unprojected rows, so a right-hand side outside the column space
    leaves no feasible basis; entries below zero are set to zero.

    Returns ``(x, feasible, factors)``: ``x`` and ``feasible`` shaped
    ``(g, bases, columns)`` and ``(g, bases)``, and the
    :class:`_BasisFactors` the solve formed, which depend on no cost: the
    vertex tables keep them (:func:`_vertex_tables`), and the
    decomposition solves each claim's multipliers on them.
    """
    count, _, columns = matrix.shape
    combos = _combinations(columns, rank, pinned)
    span, rows, norms, target = _projection(matrix, rhs, left, rank)
    bases = rows[:, :, combos].transpose(0, 2, 1, 3)
    regular = True
    if rank < columns:
        regular = _regular_bases(bases, rank)
        bases = np.where(regular[..., np.newaxis, np.newaxis], bases, np.eye(rank))
    target = target[:, np.newaxis, :, np.newaxis]
    solved = np.linalg.solve(bases, np.broadcast_to(target, bases.shape[:3] + (1,)))
    norms = norms[:, combos]
    x = np.zeros((count, len(combos), columns))
    x[:, np.arange(len(combos))[:, np.newaxis], combos] = solved[..., 0] / norms
    feasible = regular & _feasible_points(matrix, rhs, x)
    return x, feasible, _BasisFactors(span, bases, norms, combos)


def _basis_multipliers(factors: _BasisFactors, cost):
    """Each basis's row multipliers ``theta`` for the stacked costs
    ``cost[g]``: the solution of ``A_B^T theta = cost_B`` in the column
    space, one stacked solve on the kernel's projected bases mapped back
    through ``span``, so ``cost - A^T theta`` is zero on the basis and is
    the basis's reduced cost.  Shaped ``(g, bases, rows)``."""
    multipliers = np.linalg.solve(
        factors.bases.transpose(0, 1, 3, 2),
        (cost[:, factors.combos] / factors.norms)[..., np.newaxis],
    )[..., 0]
    return np.einsum("gmr,gbr->gbm", factors.span, multipliers)


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
def _vertex_tables(model: MarketModel):
    """``(tables, chunks)``, built once per model: one :class:`_VertexTable`
    per group of :func:`_node_groups`, in its order, and for each stack
    of :func:`_node_stacks`, in its order, the ``(at, feasible, factors)``
    of the kernel calls that built its tables.  The vertices are read off
    the feasible bases (:func:`_distinct_vertices`), from one
    :func:`_basic_solutions` call per chunk of :func:`_rank_slices` within
    the guard, and cut into the stack's groups by the slices of
    :func:`_node_systems`; each call's feasibility mask and
    :class:`_BasisFactors` are kept, read-only and in the order of
    :func:`_rank_slices`, for the decomposition's positions.  The chunk of
    full column rank is the call of :func:`_node_systems`, whose
    solutions are the stack's ``fixed`` rows."""
    stacks, groups, levels, singles = _node_systems(model)
    tables = [None] * len(groups)
    kept = []
    for stack, spans, single in zip(stacks, levels, singles):
        matrix, rhs, left, rank = stack.matrix, stack.rhs, stack.left, stack.rank
        branching = stack.children.shape[1]
        counts = np.zeros(rank.size, dtype=int)
        past = np.zeros(rank.size, dtype=bool)
        found, chunks = [], []
        for value, at, within in _rank_slices(rank, branching):
            if not within:
                past[at] = True
                continue
            if value == branching:
                at, feasible, factors = single
                x = stack.fixed[at, np.newaxis]
            else:
                x, feasible, factors = _basic_solutions(matrix[at], rhs[at], left[at], value)
                at.flags.writeable = feasible.flags.writeable = False
            chunks.append((at, feasible, factors))
            x, counts[at] = _distinct_vertices(x, feasible)
            found.append((at, x))
        kept.append(tuple(chunks))
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
    return tuple(tables), tuple(kept)


@_per_model
def _local_vertex_lists(model: MarketModel) -> dict:
    """Each non-leaf node's rows of :func:`_vertex_tables` as a list, and
    ``None`` for a node past the vertex-enumeration guard."""
    lists = {}
    for table in _vertex_tables(model)[0]:
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
    and ``cost - matrix.T @ duals >= 0``); raises :class:`SolverError`
    when the program has no optimum."""
    sol = solve_lp(LinearProgram(cost, matrix, rhs))
    if sol.status != "optimal":
        raise SolverError(f"node LP is {sol.status}")
    return sol.x, sol.duals


def _vertex_step(table: _VertexTable, cost: np.ndarray):
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
        chosen[i], duals[i] = _node_lp(group.matrix[i], group.rhs[i], cost[i])
        best[i] = chosen[i] @ cost[i]
    return chosen, best, duals


def polytope_minimizer(model: MarketModel):
    """Build an exact linear-minimization oracle for the deflator closure.

    Fixing a node's level, the admissible child levels form an independent
    one-step polytope, so the whole constraint set factorizes over the
    tree.  Minimizing a linear cost then takes one backward sweep of
    :func:`_vertex_step` per ``(time, branching)`` group and the tree's
    forward walk rebuilding the levels (nodes at level zero propagate
    zero).  The result matches the LP optimum to solver precision at a
    fraction of the cost, which is what makes it suitable for the utility
    dual's gap certificate and for price bounds.  A node past the
    vertex-enumeration guard answers its step with its one-step LP.  A
    cost other than one finite value per node raises ``ValueError``.
    """
    tree = model.tree
    tables = _vertex_tables(model)[0]

    def minimize(cost) -> np.ndarray:
        per_unit = np.asarray(cost, dtype=float).copy()
        if per_unit.shape != (tree.n_nodes,) or not np.isfinite(per_unit).all():
            raise ValueError("cost needs one finite value per node")
        ratios = np.empty(tree.n_nodes)  # each node's level over its parent's
        for table in tables:
            group = table.group
            ratios[group.children], best, _ = _vertex_step(table, per_unit[group.children])
            per_unit[group.nodes] += best
        return tree.forward(1.0, np.multiply, ratios)

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

    Returns ``(payoffs, cost, ray, inside, rows, target, vectors)``: the
    ``w`` on the unprojected rows, ``(g, subsets, columns)``; ``cost = rhs
    @ y`` and ``ray``, ``(g, subsets)``; whether the right-hand side lies in
    the column space (its projection meets the unprojected rows within
    ``_FEAS_TOL``); the projected system ``rows @ x = target``, columns at
    their own length; and the ``y`` as positions on the unprojected rows.
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
    vectors = sign[..., np.newaxis] * (null @ span.transpose(0, 2, 1))
    scale = norms[:, np.newaxis, :]
    return payoffs * scale, cost, ray, inside, rows * scale, target, vectors


@dataclass(frozen=True, eq=False)
class _RayTable:
    """The floor programs of a :class:`_NodeGroup`'s nodes, in dual form.

    ``single`` holds the positions of the nodes with a feasible single
    point (a full slice where they make up the group, ``None`` where
    there are none), and ``past`` those of the rank-deficient nodes past
    the vertex-enumeration guard of the floor program (:func:`_rank_slices`
    over ``children + 1`` columns).  ``stacks`` holds one ``(at, payoffs,
    cost)`` triple per rank for the other nodes (``at`` a full slice where
    one rank holds the whole group): ``payoffs[i, e]`` and ``cost[i, e]``
    are the child payoffs and the cost of extreme ray ``e`` of node
    ``group.nodes[at][i]`` (:func:`_payoff_rays`), and a node with fewer
    rays than the widest repeats its first, which changes no minimum.  A
    node in none of them (an infeasible single point, or a right-hand
    side off the column space) has no ratio vector and floor 0."""

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
    per chunk of :func:`_rank_slices`; a node of full column rank builds
    none.  Rays do not depend on the children's floors, so the tables are
    listed before the floor recursion runs."""
    stacks, groups, levels, singles = _node_systems(model)
    tables = [None] * len(groups)
    slices = []
    for stack, spans, full in zip(stacks, levels, singles):
        branching = stack.children.shape[1]
        single = np.zeros(stack.rank.size, dtype=bool)
        if full is not None:
            single[full[0]] = full[1][:, 0]
        past = np.zeros(single.size, dtype=bool)
        chunks = {}
        lacking = np.flatnonzero(stack.rank < branching)
        for value, at, within in _rank_slices(stack.rank[lacking], branching + 1):
            at = lacking[at]
            if not within:
                past[at] = True
                continue
            chunk = _payoff_rays(stack.matrix[at], stack.rhs[at], stack.left[at], value)
            chunks.setdefault(value, []).append((at, *chunk))
        found = []
        for value, parts in chunks.items():
            at, payoffs, cost, ray, inside, rows, target, _ = map(np.concatenate, zip(*parts))
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

    A node with a feasible single point (``table.single``) has ``r =
    group.fixed[g]``, so ``t = min_j r[j] * floors[g, j]``; one with an
    infeasible point has ``t = 0``.  For the other nodes LP duality gives
    ``t = min_e cost_e / sum_j payoffs_ej / floors[g, j]`` over the node's
    extreme payoff rays (:class:`_RayTable`), clipped at 0 (a ray of
    negative cost leaves no ratio vector): one stacked product and
    ``argmin`` per rank, measured in units of the smallest floor so that
    floors far below 1 stay in range.  The minimizing ray is returned for
    the witness pass (:func:`_witness_ratios`), which finds those nodes'
    ratios.  A node past the vertex-enumeration guard solves its
    :func:`_spread_lp` at ``spread = min(floors) / floors``, whose positive
    optimum is ``t / min(floors)``.  Returns ``(t, r, pick, theta)``: ``t``
    is zero where a floor is zero or no ratio vector is feasible, ``r`` is
    zero at the ray nodes, ``pick`` holds the ray nodes' minimizing rays
    and ``theta`` the positions of those node programs (zero elsewhere;
    ``None`` without such nodes), for :func:`_certificate`.
    """
    group = table.group
    matrix, rhs = group.matrix, group.rhs
    count, _, columns = matrix.shape
    best = np.zeros(count)
    ratios = np.zeros((count, columns))
    pick = np.zeros(count, dtype=np.intp)
    theta = np.zeros(rhs.shape) if table.past.size else None
    unit = floors.min(axis=1)
    positive = unit > 0.0
    everywhere = positive.all()
    if not everywhere:
        floors = np.where(positive[:, np.newaxis], floors, 1.0)
        unit = floors.min(axis=1)
    single = table.single
    if single is not None:
        point = group.fixed[single]
        best[single] = (point * floors[single]).min(axis=1)
        ratios[single] = point
    for at, payoffs, cost in table.stacks:
        spread = unit[at, np.newaxis] / floors[at]
        bounds = cost / np.matmul(payoffs, spread[..., np.newaxis])[..., 0]
        chosen = bounds.argmin(axis=1)
        pick[at] = chosen
        best[at] = unit[at] * np.maximum(bounds[np.arange(chosen.size), chosen], 0.0)
    for i in table.past[positive[table.past]].tolist():
        tau, r, theta[i] = _spread_lp(matrix[i], rhs[i], unit[i] / floors[i])
        if tau > 0.0:
            best[i], ratios[i] = unit[i] * tau, r
    if not everywhere:
        best[~positive] = 0.0
        ratios[~positive] = 0.0
    return best, ratios, pick, theta


def _spread_lp(matrix, rhs, spread):
    """A node's floor program at child weights ``spread``, one
    :func:`_node_lp`: ``max lambda - mu`` subject to ``A u + lambda (A @
    spread) + mu b = b``, ``u, mu >= 0``, feasible at ``mu = 1`` and bounded
    by the aggregate's positive payoffs.  A positive optimum is the largest
    ``tau`` with ratios ``r >= tau * spread`` meeting the rows, at ``r = u +
    lambda * spread``; the negated row duals ``theta`` pay ``A^T theta >=
    0`` at the cost ``b @ theta``, the optimum: ``(optimum, r, theta)``."""
    columns = matrix.shape[1]
    lifted = matrix @ spread
    cost = np.zeros(columns + 3)
    cost[columns:] = -1.0, 1.0, 1.0
    x, duals = _node_lp(np.column_stack([matrix, lifted, -lifted, rhs]), rhs, cost)
    lam = x[columns] - x[columns + 1]
    return lam - x[columns + 2], x[:columns] + lam * spread, -duals


def _witness_ratios(model: MarketModel, ray_slice: _RaySlice, floors, best, pick):
    """The maximizing ratio vectors of the floor programs of a
    :class:`_RaySlice`'s nodes, from the final floors.

    By complementary slackness, ``u`` is zero wherever the node's
    minimizing ray pays, so its basis of the floor program's columns ``[A
    | A @ spread]`` (:func:`_spread_lp`) is the ray's tight columns plus
    ``lambda``.  All of a slice's bases are solved by one stacked solve on the
    projected rows.  Where several rays tie, the chosen basis may have a
    negative entry (below ``-_FEAS_TOL * (1 + max|x|)``); only those nodes
    solve every basis that holds ``lambda`` (:func:`_basic_solutions`) and
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
    its children's floors are known; a node with a child floor of 0 gets 0.
    The cap at 1 (the node's own level) is applied after the node's
    program, not inside it, so each node's ratios stay as balanced as its
    children's floors allow even where the cap binds.  Returns ``(F(root),
    levels, owner)``.  Where ``F(root)`` exceeds ``FAIRNESS_THRESHOLD``,
    ``levels`` is the witness walked forward from the maximizing ratios
    (the ray nodes' in one pass per slice, :func:`_witness_ratios`) and
    ``owner`` is ``None``.  Otherwise ``levels`` is ``None`` and ``owner``
    is the certificate node as ``(table, position, theta)``: the first node
    in tree order of floor at most the threshold whose children's floors
    are all positive, so that a zero inherited from a child is skipped,
    with its node program's ``theta`` from :func:`_floor_step`.
    """
    tables, slices = rays
    tree = model.tree
    floors = np.ones(tree.n_nodes)
    best = np.ones(tree.n_nodes)
    pick = np.zeros(tree.n_nodes, dtype=np.intp)
    ratios = np.zeros(tree.n_nodes)  # each node's level over its parent's
    positions = np.zeros((tree.n_nodes, model.n_assets))
    for table in tables:
        group = table.group
        found, ratios[group.children], pick[group.nodes], theta = _floor_step(
            table, floors[group.children]
        )
        if theta is not None:
            positions[group.nodes] = theta
        best[group.nodes] = found
        floors[group.nodes] = np.minimum(1.0, found)
    radius = float(floors[0])
    if radius <= FAIRNESS_THRESHOLD:
        inherited = np.isin(np.arange(tree.n_nodes), tree.parent[1:][floors[1:] <= 0.0])
        node = np.flatnonzero((best <= FAIRNESS_THRESHOLD) & ~inherited)[0]
        table = next(table for table in tables if node in table.group.nodes)
        i = int(np.flatnonzero(table.group.nodes == node)[0])
        return radius, None, (table, i, positions[node])
    for ray_slice in slices:
        children = ray_slice.stack.children[ray_slice.at]
        ratios[children] = _witness_ratios(model, ray_slice, floors, best, pick)
    return radius, tree.forward(1.0, np.multiply, ratios), None


def _certificate(
    model: MarketModel, table: _RayTable, i: int, program: np.ndarray
) -> ArbitrageCertificate | None:
    """The one-step arbitrage at node ``table.group.nodes[i]``, read off
    its floor program's objects.  On its scaled rows ``A``, ``b``
    (:func:`_local_system`) the position ``theta``, of unit length with
    ``A^T theta >= 0``, is ``-N N^T b / |N^T b|`` at the cost ``-|N^T b|``
    where ``b`` is off the column space (``|N N^T b| > _FEAS_TOL``, ``N``
    the left singular vectors past the rank); past the vertex guard, the
    position ``program`` of the :func:`_spread_lp` that :func:`_floor_step`
    solved, whose payoffs are nonnegative with ``spread @ A^T theta = 1``
    at any positive spread; otherwise its extreme payoff ray
    (:func:`_payoff_rays`, at any rank) of least cost per unit of payoff.
    ``None`` where the cost ``b @ theta`` exceeds the threshold.
    Half a negative cost buys equal units of every asset, whose aggregate
    is strictly positive, so that every payoff is.  The holdings are
    ``theta / scale``, priced back at the raw prices."""
    group = table.group
    node = int(group.nodes[i])
    matrix, rhs, rank = group.matrix[i], group.rhs[i], int(group.rank[i])
    beyond = group.left[i, :, rank:]
    off = beyond.T @ rhs
    if np.abs(beyond @ off).max() > _FEAS_TOL:
        theta = beyond @ off / -np.linalg.norm(off)
    elif i in table.past:
        theta = program / np.linalg.norm(program)
    else:
        payoffs, cost, ray, *_, vectors = _payoff_rays(
            matrix[np.newaxis], rhs[np.newaxis], group.left[i : i + 1], rank
        )
        theta = vectors[ray][np.argmin(cost[ray] / payoffs[ray].sum(axis=1))]
    cost = rhs @ theta
    if cost > FAIRNESS_THRESHOLD:
        return None
    tree, price = model.tree, model.price[:, node]
    holdings = theta / group.scale[i]
    if cost < 0.0:
        holdings += -0.5 * cost / price.sum()
    payoffs = holdings @ model.price[:, list(tree.children[node])]
    return ArbitrageCertificate(node, tree.ids[node], holdings, float(holdings @ price), payoffs)


def check_fair(model: MarketModel) -> FairnessReport:
    """Decide fairness by the largest uniform floor under the polytope.

    The floor, ``max eps`` subject to the martingale constraints and
    ``m[node] >= eps`` for every node, comes from the backward recursion of
    :func:`_max_floor` over the nodes' extreme payoff rays
    (:func:`_ray_tables`), one stacked product per ``(time, branching)``
    group and rank.  The market is fair exactly when it exceeds 1e-10; the
    levels rebuilt from the maximizing ratios are returned as a strictly
    positive witness whose smallest level is the floor.  When unfair, a
    one-step arbitrage certificate is read off the floor program of the
    node the recursion names (:func:`_certificate`), with no search.
    :func:`fairtree.oracle.lp_interior_radius` solves the same problem as
    one whole-tree LP, for cross-checks.
    """
    radius, levels, owner = _max_floor(model, _ray_tables(model))
    if radius <= FAIRNESS_THRESHOLD:
        return FairnessReport(
            fair=False,
            witness=None,
            interior_radius=radius,
            certificate=_certificate(model, *owner),
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
    of the deflator family.  The ranks are those of :func:`_node_stacks`.
    Requires a fair market."""
    require_fair(model)
    tree = model.tree
    ranks = {k: r for g in _node_stacks(model) for k, r in zip(g.nodes.tolist(), g.rank.tolist())}
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
