"""Reference implementations for cross-checking the engine.

Four kinds live here, and none is used by the engine itself.

* **Brute force.**  Suprema are taken over an explicit vertex list, dual
  values come from a two-pass grid search, and completeness is read off
  the vertex count.  These oracles are exponential-time and guarded by
  size limits; they re-derive an engine result on a small instance by a
  method with no shared failure modes (no simplex pivoting, no
  first-order descent, no tree recursion).
* **Whole-tree linear programs.**  The interior radius, the price bounds
  and the attainability face floor as one dense LP over the whole
  deflator polytope (:func:`lp_interior_radius`, :func:`lp_price_interval`,
  :func:`lp_face_radius`).  The engine answers the first two by backward
  recursions over one-step problems; the face floor is the independent
  evidence that no strictly positive deflator attains the upper bound of
  an open price interval, so the engine reads attainability off the
  interval alone.  These LPs share the simplex but not the factorization,
  and their tableaux grow with the square of the node count, so they suit
  small and mid-sized trees only.
* **The node-LP superhedge recursion.**  :func:`lp_superhedge_process`
  solves each node step by simplex where the engine's
  :func:`~fairtree.hedging.superhedge_process` reads it off enumerated
  vertices; unlike the whole-tree programs, it runs on the largest trees.
* **The whole-tree utility dual.**  :func:`fw_dual` minimizes the expected
  conjugate over the whole polytope by Frank-Wolfe
  (:func:`~fairtree.optim.minimize_convex`); the engine's
  :func:`~fairtree.utility.solve_dual` solves one-step problems by Newton
  instead.  They share the objective and the linear oracle
  behind the gap certificate, not the solver.  The Frank-Wolfe iteration
  count grows with the tree, so it suits trees of a few hundred nodes.

:func:`completeness_via_claims` re-derives completeness from price
intervals rather than from the local ranks the engine reads.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import SizeGuardError, SolverError, UnfairMarketError
from .market import Claim, MarketModel, _check_claim
from .deflators import (
    Deflator,
    _local_system,
    _node_lp,
    build_polytope,
    polytope_minimizer,
    require_fair,
)
from .hedging import INTERVAL_TOL, _claim_objective, superhedge_price
from .optim import (
    _VERTEX_VARIABLE_GUARD,
    ConvexProblem,
    LinearProgram,
    enumerate_vertices,
    minimize_convex,
    solve_lp,
)
from .utility import DUAL_GAP_TOL, DualSolution, _dual_objective

DIMENSION_GUARD = 3
_GRID_POINT_GUARD = 50_000_000
_RANK_TOL = 1e-9


def _polytope_vertices(model: MarketModel) -> np.ndarray:
    # the guard's variable count is the node count: trip it before the
    # dense polytope (one row per node and asset) is built
    if model.tree.n_nodes > _VERTEX_VARIABLE_GUARD:
        raise SizeGuardError(
            f"vertex enumeration is limited to {_VERTEX_VARIABLE_GUARD} "
            f"variables, got {model.tree.n_nodes}"
        )
    matrix, rhs = _scaled_polytope(model)
    vertices = enumerate_vertices(LinearProgram(np.zeros(model.tree.n_nodes), matrix, rhs))
    if not vertices:
        raise UnfairMarketError("the deflator polytope is empty")
    return np.array(vertices)


def oracle_price_interval(model: MarketModel, claim: Claim) -> tuple[float, float]:
    """Sub- and superhedging prices by vertex enumeration."""
    payoff = _check_claim(model, claim)
    vertices = _polytope_vertices(model)
    leaves = model.tree.leaves
    values = vertices[:, leaves] @ (model.tree.path_prob[leaves] * payoff)
    return float(values.min()), float(values.max())


def _scaled_polytope(model: MarketModel, face=None):
    """The whole-tree polytope ``matrix @ m = rhs`` of
    :func:`~fairtree.deflators.build_polytope`, with the row ``face[0] @ m
    = face[1]`` appended when given, each row, right-hand side included,
    divided by its largest magnitude (a zero row stays zero), as the engine
    divides its one-step rows: raw prices far apart make the simplex fail
    verification and the rank test of vertex enumeration drop a row, so a
    fair market's polytope comes out empty."""
    polytope = build_polytope(model)
    matrix, rhs = polytope.matrix, polytope.rhs
    if face is not None:
        matrix = np.vstack([matrix, face[0]])
        rhs = np.append(rhs, face[1])
    scale = np.abs(matrix).max(axis=1)
    scale[scale == 0.0] = 1.0
    return matrix / scale[:, np.newaxis], rhs / scale


def lp_interior_radius(model: MarketModel, face=None):
    """Largest uniform floor under the node levels and a maximizer, as one
    whole-tree LP: ``max eps`` subject to the polytope and ``m[node] >= eps``
    at every node.  ``face``, when given as ``(row, value)``, adds the
    constraint ``row @ m = value``.  Returns ``(0.0, None)`` when the
    program is infeasible."""
    base, rhs = _scaled_polytope(model, face)
    n = model.tree.n_nodes
    # variables: levels m (n), floor eps, slacks (n)
    rows = np.zeros((base.shape[0] + n, 2 * n + 1))
    rows[: base.shape[0], :n] = base
    rows[base.shape[0]:, :n] = np.eye(n)
    rows[base.shape[0]:, n] = -1.0
    rows[base.shape[0]:, n + 1:] = -np.eye(n)
    objective = np.zeros(2 * n + 1)
    objective[n] = -1.0  # maximize eps
    sol = solve_lp(LinearProgram(objective, rows, np.concatenate([rhs, np.zeros(n)])))
    if sol.status != "optimal":
        return 0.0, None
    return float(sol.x[n]), sol.x[:n]


def lp_price_interval(model: MarketModel, claim: Claim):
    """Sub- and superhedging prices with their bound points, as two
    whole-tree LPs: ``(lower, upper, lower_point, upper_point)``."""
    payoff = _check_claim(model, claim)
    matrix, rhs = _scaled_polytope(model)
    objective = _claim_objective(model, payoff)
    solutions = []
    for sign in (1.0, -1.0):  # the upper bound minimizes the negated claim
        sol = solve_lp(LinearProgram(sign * objective, matrix, rhs))
        if sol.status != "optimal":
            raise UnfairMarketError(f"the deflator polytope LP is {sol.status}")
        solutions.append(sol)
    low, high = solutions
    return float(low.value), float(objective @ high.x), low.x, high.x


def lp_face_radius(model: MarketModel, claim: Claim, upper: float):
    """Largest uniform floor over the face of the polytope where the claim
    prices at ``upper``, as one whole-tree LP: ``(eps, levels)``.  A floor
    above the fairness threshold means a strictly positive deflator attains
    the superhedging price."""
    payoff = _check_claim(model, claim)
    return lp_interior_radius(model, (_claim_objective(model, payoff), upper))


def lp_superhedge_process(model: MarketModel, claim: Claim) -> np.ndarray:
    """The running superhedging cost by a backward recursion of node-local
    LPs: each non-leaf node maximizes the probability-weighted continuation
    value over its one-step polytope by the simplex
    (:func:`~fairtree.deflators._node_lp`, the one node LP of a node past
    the enumeration guard)."""
    payoff = _check_claim(model, claim)
    require_fair(model)
    tree = model.tree
    values = np.zeros(tree.n_nodes)
    values[tree.leaves] = payoff
    for k in range(tree.n_nodes - 1, -1, -1):
        if tree.children[k]:
            ch, probs, matrix, rhs, _ = _local_system(model, k)
            cost = -probs * values[ch]
            values[k] = -(_node_lp(matrix, rhs, cost)[0] @ cost)
    return values


def completeness_via_claims(model: MarketModel, tol: float = INTERVAL_TOL) -> bool:
    """Completeness probed claim by claim: the market is complete exactly
    when every single-leaf payout (scaled by the numeraire, so it is
    dominated by the aggregate portfolio) has a degenerate price interval."""
    require_fair(model)
    tree = model.tree
    for i, leaf in enumerate(tree.leaves):
        payoff = np.zeros(tree.n_leaves)
        payoff[i] = model.numeraire[leaf]
        interval = superhedge_price(model, Claim(payoff))
        if interval.width > tol * max(1.0, abs(interval.upper)):
            return False
    return True


def fw_dual(model: MarketModel, utility, y: float, tol: float = DUAL_GAP_TOL) -> DualSolution:
    """The utility dual as one whole-tree Frank-Wolfe over the deflator
    polytope, started from the fairness witness, with the exact
    :func:`~fairtree.deflators.polytope_minimizer` as its linear oracle.
    Returns the same record as :func:`~fairtree.utility.solve_dual`."""
    if not (y > 0 and math.isfinite(y)):
        raise ValueError(f"dual scale y must be positive and finite, got {y!r}")
    report = require_fair(model)
    objective, gradient, curvature = _dual_objective(model, utility, y)
    problem = ConvexProblem(
        objective=objective,
        gradient=gradient,
        feasible=build_polytope(model).linear_program(),
        oracle=polytope_minimizer(model),
        curvature=curvature,
    )
    result = minimize_convex(problem, report.witness.values, tol=tol)
    if not result.converged:
        raise SolverError(
            f"Frank-Wolfe dual stalled with gap {result.gap:.3e} after "
            f"{result.iterations} iterations"
        )
    return DualSolution(
        y=float(y),
        deflator=Deflator.for_market(model, result.x),
        value=result.value,
        gap=result.gap,
    )


def oracle_complete(model: MarketModel) -> bool:
    """Completeness by exhaustion: the deflator set is a single point
    exactly when vertex enumeration returns one vertex."""
    return len(_polytope_vertices(model)) == 1


def oracle_dual(model: MarketModel, utility, y: float, density: int = 64) -> float:
    """Dual value by grid search over the deflator polytope.

    The polytope is charted through an orthonormal basis of its affine
    hull (dimension at most ``DIMENSION_GUARD``); the chart's bounding box
    is scanned at ``density`` points per axis, then scanned again at the
    same density inside the cell around the best point.  The effective
    per-axis resolution is therefore about ``density**2 / 2`` -- above
    10^3 for the default -- and the returned value is an upper bound on
    the true minimum that is tight to grid resolution.  Box points outside
    the polytope are discarded; the vertices and centroid are always
    included, so the scan never comes back empty.
    """
    if density < 2:
        raise ValueError(f"grid density must be at least 2, got {density}")
    vertices = _polytope_vertices(model)
    leaves = model.tree.leaves
    weights = model.tree.path_prob[leaves]

    def evaluate(points: np.ndarray) -> np.ndarray:
        feasible = np.all(points >= -1e-12, axis=1)
        vals = utility.conjugate(y * np.clip(points[:, leaves], 0.0, None)) @ weights
        return np.where(feasible, vals, np.inf)

    center = vertices.mean(axis=0)
    spread = vertices - center
    singular = np.linalg.svd(spread, compute_uv=False) if len(vertices) > 1 else np.zeros(1)
    top = float(singular.max(initial=0.0))
    dim = int(np.count_nonzero(singular > _RANK_TOL * max(top, 1e-300)))
    if dim == 0:
        return float(evaluate(vertices[:1])[0])
    if dim > DIMENSION_GUARD:
        raise SizeGuardError(
            f"deflator polytope has dimension {dim}, above the grid-search "
            f"guard {DIMENSION_GUARD}"
        )
    if density**dim > _GRID_POINT_GUARD:
        raise SizeGuardError(
            f"grid of {density}^{dim} points exceeds the evaluation guard"
        )
    basis = np.linalg.svd(spread, full_matrices=False)[2][:dim]
    coords = spread @ basis.T

    def scan(lo: np.ndarray, hi: np.ndarray):
        axes = [np.linspace(lo[i], hi[i], density) for i in range(dim)]
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dim)
        points = center + mesh @ basis
        vals = evaluate(points)
        best = int(np.argmin(vals))
        return mesh[best], float(vals[best])

    box_lo = coords.min(axis=0)
    box_hi = coords.max(axis=0)
    z1, v1 = scan(box_lo, box_hi)
    cell = (box_hi - box_lo) / (density - 1)
    z2, v2 = scan(np.maximum(z1 - cell, box_lo), np.minimum(z1 + cell, box_hi))
    anchors = evaluate(np.vstack([vertices, center[np.newaxis, :]]))
    return min(v1, v2, float(anchors.min()))
