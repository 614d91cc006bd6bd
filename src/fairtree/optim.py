"""Self-contained linear and convex solvers used by every other module.

Every linear program here has one form, ``min c @ x`` subject to
``A x = b`` and ``x >= 0`` (:class:`LinearProgram`); a caller that wants a
maximum negates its objective, and a free variable is split in two.

Three pieces live here:

* :func:`solve_lp` -- a dense two-phase primal simplex.  Pivoting follows
  Bland's rule (smallest eligible index enters; ratio ties break toward
  the smallest basic index), which rules out cycling, so the pivot budget
  below is a pure safety net.  Dual multipliers come from a fresh
  factorization of the final basis, not from the drifting tableau.
* :func:`enumerate_vertices` -- brute-force basic feasible solutions of
  ``{A x = b, x >= 0}``, guarded against combinatorial blow-up.
* :func:`minimize_convex` -- Frank-Wolfe (conditional gradient) with an
  exact line search, using :func:`solve_lp` as the linear-minimization
  oracle.  The duality gap ``g . (x - s)`` certifies optimality on exit.
  The engine no longer calls it; :func:`fairtree.oracle.fw_dual` does.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import SizeGuardError, SolverError

_PIVOT_TOL = 1e-11
_FEAS_TOL = 1e-9
_REFRESH_INTERVAL = 25
_VERTEX_VARIABLE_GUARD = 25
_VERTEX_COMBO_GUARD = 400_000


@dataclass(frozen=True, eq=False)
class LinearProgram:
    """``min objective . x`` subject to ``eq_matrix @ x = eq_rhs`` and
    ``x >= 0``."""

    objective: np.ndarray
    eq_matrix: np.ndarray
    eq_rhs: np.ndarray


@dataclass(frozen=True, eq=False)
class LPSolution:
    """Solver outcome.  ``x`` and ``duals`` are ``None`` unless optimal.

    ``duals`` holds one multiplier per equality row: ``duals @ eq_rhs``
    equals the optimal value and ``objective - eq_matrix.T @ duals >= 0``;
    :func:`kkt_residuals` audits both.
    """

    status: str
    x: np.ndarray | None
    duals: np.ndarray | None
    value: float | None


def _lp_arrays(lp: LinearProgram):
    a = np.asarray(lp.eq_matrix, dtype=float)
    if a.ndim != 2:
        raise ValueError("eq_matrix must be two-dimensional")
    m, n = a.shape
    b = np.asarray(lp.eq_rhs, dtype=float).reshape(m)
    c = np.asarray(lp.objective, dtype=float).reshape(n)
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b)) and np.all(np.isfinite(c))):
        raise ValueError("LP data must be finite")
    return a, b, c


def _pivot(tableau: np.ndarray, row: int, col: int) -> None:
    pivot_row = tableau[row] / tableau[row, col]
    column = tableau[:, col].copy()
    tableau -= np.outer(column, pivot_row)
    tableau[row] = pivot_row


def _canonical_tableau(a_aug: np.ndarray, rhs: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Tableau of ``[a_aug | rhs]`` in canonical form for ``basis``, built
    from the original data.  Recomputing instead of carrying the pivoted
    tableau forward bounds floating-point drift by the conditioning of the
    current basis rather than by the whole pivot history."""
    cols = a_aug[:, basis]
    try:
        tableau = np.linalg.solve(cols, np.column_stack([a_aug, rhs]))
    except np.linalg.LinAlgError:
        raise SolverError("simplex basis became singular") from None
    # Parasitic negatives in the rhs (degenerate bases) would poison the
    # ratio test; snap them to the boundary they represent.
    last = tableau[:, -1]
    last[(last < 0.0) & (last > -1e-11)] = 0.0
    return tableau


def _run_phase(a_aug, rhs, basis, cost, allowed, budget):
    """Pivot with Bland's rule until optimal or unbounded.

    The entering column is the smallest index with a reduced cost below
    ``-_PIVOT_TOL`` (Bland's rule); the leaving row minimizes the ratio.
    Ratio ties are broken toward the numerically largest pivot element —
    on degenerate steps every tied ratio is equally valid, and accepting a
    tiny element over an O(1) one is what corrodes the basis — with the
    smallest basic index as the final tie-break.  Column entries at the
    noise floor of
    a refactorized tableau are treated as zero: pivoting on them is what
    drives a basis singular.  An entering column with no usable entry is
    an unbounded ray when its reduced cost is decisively negative and is
    skipped as noise otherwise.  The tableau is refreshed from the
    original data every ``_REFRESH_INTERVAL`` pivots and whenever it shows
    signs of drift (negative rhs, huge or non-finite entries).  Returns
    the status and the number of pivots spent.
    """
    tableau = _canonical_tableau(a_aug, rhs, basis)
    in_basis = np.zeros(a_aug.shape[1], dtype=bool)
    in_basis[basis] = True
    decisive = 1e-7 * (1.0 + float(np.abs(cost).max(initial=0.0)))
    fresh = 0
    for spent in range(budget):
        reduced = cost - cost[basis] @ tableau[:, :-1]
        eligible = np.flatnonzero((reduced < -_PIVOT_TOL) & allowed & ~in_basis)
        col = -1
        for candidate in eligible:
            column = tableau[:, candidate]
            floor = max(_PIVOT_TOL, 1e-9 * (1.0 + float(np.abs(column).max(initial=0.0))))
            if float(column.max(initial=0.0)) > floor:
                col = int(candidate)
                break
            if reduced[candidate] < -decisive:
                return "unbounded", spent
        if col == -1:
            return "optimal", spent
        rows = np.flatnonzero(column > floor)
        ratios = tableau[rows, -1] / column[rows]
        best = float(ratios.min())
        ties = rows[ratios <= best + 1e-9 * (1.0 + abs(best))]
        strong = ties[column[ties] >= 0.5 * float(column[ties].max())]
        row = int(strong[np.argmin(basis[strong])])
        _pivot(tableau, row, col)
        in_basis[basis[row]] = False
        in_basis[col] = True
        basis[row] = col
        fresh += 1
        if (
            fresh >= _REFRESH_INTERVAL
            or float(tableau[:, -1].min(initial=0.0)) < -1e-9
            or not np.all(np.isfinite(tableau))
            or float(np.abs(tableau).max(initial=0.0)) > 1e9
        ):
            tableau = _canonical_tableau(a_aug, rhs, basis)
            fresh = 0
    raise SolverError(
        "simplex pivot budget exhausted; Bland's rule makes cycling "
        "impossible, so this indicates corrupted input or a solver bug"
    )


def solve_lp(lp: LinearProgram, pivot_limit: int | None = None) -> LPSolution:
    """Two-phase primal simplex.  See the module docstring for conventions."""
    a, b, c = _lp_arrays(lp)
    m, n = a.shape
    row_sign = np.where(b < 0, -1.0, 1.0)
    a_signed = a * row_sign[:, np.newaxis]
    rhs = b * row_sign

    if pivot_limit is None:
        pivot_limit = max(5_000, 60 * (m + n))

    # Phase 1: artificial basis, minimize the sum of artificials.
    a_aug = np.hstack([a_signed, np.eye(m)])
    basis = np.arange(n, n + m)
    cost1 = np.concatenate([np.zeros(n), np.ones(m)])
    allowed = np.concatenate([np.ones(n, dtype=bool), np.zeros(m, dtype=bool)])
    status, _ = _run_phase(a_aug, rhs, basis, cost1, allowed, pivot_limit)
    if status != "optimal":  # pragma: no cover - phase 1 is always bounded
        raise SolverError("phase-1 simplex reported an unbounded problem")
    tableau = _canonical_tableau(a_aug, rhs, basis)
    infeasibility = float(cost1[basis] @ np.abs(tableau[:, -1]))
    if infeasibility > _FEAS_TOL * (1.0 + float(np.abs(rhs).max(initial=0.0))):
        return LPSolution(status="infeasible", x=None, duals=None, value=None)

    # Drive leftover artificials out of the basis; drop redundant rows.
    keep_rows = np.ones(m, dtype=bool)
    for i in range(m):
        if basis[i] < n:
            continue
        candidates = np.flatnonzero(np.abs(tableau[i, :n]) > 1e-9)
        if candidates.size:
            _pivot(tableau, i, int(candidates[0]))
            basis[i] = int(candidates[0])
        else:
            keep_rows[i] = False
    kept = np.flatnonzero(keep_rows)
    a_aug = a_aug[kept]
    a_kept = a_signed[kept]
    rhs_kept = rhs[kept]
    basis = basis[kept]

    # Phase 2 on the original objective, artificial columns barred.  The
    # solution is verified against the original data; on residual trouble
    # the phase is re-entered from a refreshed tableau.
    cost2 = np.concatenate([c, np.zeros(m)])
    feas_scale = 1.0 + float(np.abs(b).max(initial=0.0))
    cost_scale = 1.0 + float(np.abs(c).max(initial=0.0))
    for _attempt in range(8):
        status, _ = _run_phase(a_aug, rhs_kept, basis, cost2, allowed, pivot_limit)
        if status == "unbounded":
            return LPSolution(status="unbounded", x=None, duals=None, value=None)

        basis_cols = a_kept[:, basis]
        try:
            x_basis = np.linalg.solve(basis_cols, rhs_kept)
            lam = np.linalg.solve(basis_cols.T, c[basis])
        except np.linalg.LinAlgError:
            raise SolverError("simplex basis became singular") from None

        x = np.zeros(n)
        x[basis] = x_basis + 0.0  # no negative zeros in a solution
        primal = float(np.abs(a @ x - b).max(initial=0.0))
        bound = float(np.maximum(-x, 0.0).max(initial=0.0))
        reduced = c - a_kept.T @ lam
        dual = float(np.maximum(-reduced, 0.0).max(initial=0.0))
        if (
            primal <= _FEAS_TOL * feas_scale
            and bound <= _FEAS_TOL * feas_scale
            and dual <= _FEAS_TOL * cost_scale
        ):
            duals = np.zeros(m)
            duals[kept] = lam * row_sign[kept]
            return LPSolution(status="optimal", x=x, duals=duals, value=float(c @ x))
    raise SolverError(
        "simplex result failed verification after repeated refactorization"
    )


def kkt_residuals(lp: LinearProgram, solution: LPSolution) -> dict[str, float]:
    """Primal/dual optimality residuals of an optimal solve, for audits.

    Keys: ``primal`` (equality and sign violation), ``dual`` (reduced-cost
    violation), ``slackness`` (complementary slackness) and ``gap``
    (relative primal-dual objective gap).
    """
    if solution.status != "optimal":
        raise ValueError("KKT residuals are only defined for optimal solves")
    a, b, c = _lp_arrays(lp)
    x, duals = solution.x, solution.duals
    primal = float(np.abs(a @ x - b).max(initial=0.0))
    primal = max(primal, float(np.maximum(-x, 0.0).max(initial=0.0)))
    reduced = c - a.T @ duals
    dual = float(np.maximum(-reduced, 0.0).max(initial=0.0))
    slackness = float(np.abs(x * reduced).max(initial=0.0))
    gap = abs(solution.value - float(duals @ b)) / max(1.0, abs(solution.value))
    return {"primal": primal, "dual": dual, "slackness": slackness, "gap": gap}


def enumerate_vertices(lp: LinearProgram, tol: float = 1e-9) -> list[np.ndarray]:
    """All vertices of ``{A x = b, x >= 0}``.

    Works by enumerating column subsets of size ``rank(A)``; duplicate
    solutions within ``tol`` (sup-norm) are merged.  Guarded to at most
    25 variables and a bounded number of subsets, since the count grows
    combinatorially.
    """
    a, b, _ = _lp_arrays(lp)
    m, n = a.shape
    if n > _VERTEX_VARIABLE_GUARD:
        raise SizeGuardError(
            f"vertex enumeration is limited to {_VERTEX_VARIABLE_GUARD} "
            f"variables, got {n}"
        )
    scale = 1.0 + float(np.abs(b).max(initial=0.0))
    rank = int(np.linalg.matrix_rank(a, tol=1e-12 * max(1.0, float(np.abs(a).max(initial=0.0)))))
    n_combos = math.comb(n, rank)
    if n_combos > _VERTEX_COMBO_GUARD:
        raise SizeGuardError(
            f"vertex enumeration would inspect {n_combos} bases "
            f"(limit {_VERTEX_COMBO_GUARD})"
        )

    vertices: list[np.ndarray] = []
    for combo in itertools.combinations(range(n), rank):
        cols = a[:, combo]
        w, _, rank_cols, _ = np.linalg.lstsq(cols, b, rcond=None)
        if rank_cols < len(combo):
            continue
        if float(np.abs(cols @ w - b).max(initial=0.0)) > tol * scale:
            continue
        if np.any(w < -tol):
            continue
        x = np.zeros(n)
        x[list(combo)] = np.where(np.abs(w) <= 1e-11, 0.0, w)
        if any(float(np.abs(x - v).max()) <= tol for v in vertices):
            continue
        vertices.append(x)
    return vertices


# ---------------------------------------------------------------------------
# Frank-Wolfe
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ConvexProblem:
    """Convex objective with gradient over the feasible set of ``feasible``
    (only the constraint part of the linear program is used).  The objective
    may return ``+inf`` outside its domain.  The gradient must be non-finite
    outside the domain and may blow up at its boundary -- the line search
    treats both as "stepped too far".  A gradient that stays finite just
    outside (a bare ``-p / x`` is one) lets the line search accept a step
    onto or past the boundary.

    ``oracle``, when given, must map a cost vector to an exact minimizer of
    ``cost @ x`` over the feasible set; it replaces the default LP-based
    linear-minimization oracle (same contract, typically much faster for
    structured polytopes).

    ``curvature``, when given, must return the diagonal of the objective's
    Hessian (the objective must be separable for that to be exact); it
    enables Newton corrections of the running vertex combination, which
    sharply cuts the iteration count on badly conditioned polytopes."""

    objective: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    feasible: LinearProgram
    oracle: Callable[[np.ndarray], np.ndarray] | None = None
    curvature: Callable[[np.ndarray], np.ndarray] | None = None


@dataclass(frozen=True, eq=False)
class ConvexSolution:
    x: np.ndarray
    value: float
    gap: float
    iterations: int
    converged: bool


def _line_search(gradient, x, direction, limit: float = 1.0, iters: int = 64) -> float:
    """Exact step length: root of the directional derivative on ``[0, limit]``.

    The derivative of a convex objective along a fixed direction is
    nondecreasing, so a sign change brackets the minimizer; the root is
    polished with the Illinois variant of regula falsi (superlinear, and
    unlike plain secant it cannot stall on one side).  Non-finite
    derivatives (barrier blow-ups at the boundary) count as positive.
    The returned point always has a strictly negative-slope left endpoint,
    keeping iterates inside the objective's domain.
    """

    def slope(step: float) -> float:
        g = gradient(x + step * direction)
        value = float(g @ direction)
        return value if not math.isnan(value) else math.inf

    if slope(limit) <= 0.0:
        return limit
    lo, s_lo = 0.0, slope(0.0)
    if s_lo >= 0.0:
        return 0.0
    hi, s_hi = limit, math.inf
    side = 0
    for _ in range(iters):
        if hi - lo <= 1e-13 * limit:
            break
        if math.isfinite(s_hi) and s_hi - s_lo > 0.0:
            mid = (lo * s_hi - hi * s_lo) / (s_hi - s_lo)
            if not lo < mid < hi:
                mid = 0.5 * (lo + hi)
        else:
            mid = 0.5 * (lo + hi)
        s_mid = slope(mid)
        if s_mid > 0.0:
            hi, s_hi = mid, s_mid
            if side == +1 and math.isfinite(s_lo):
                s_lo *= 0.5
            side = +1
        else:
            lo, s_lo = mid, s_mid
            if side == -1 and math.isfinite(s_hi):
                s_hi *= 0.5
            side = -1
    return lo


def minimize_convex(
    problem: ConvexProblem,
    start: np.ndarray,
    tol: float = 1e-9,
    max_iters: int = 100_000,
    callback=None,
) -> ConvexSolution:
    """Frank-Wolfe with exact line search and away steps over a polytope.

    Parameters
    ----------
    problem:
        Objective, gradient and feasible polytope (plus an optional exact
        linear-minimization oracle).
    start:
        Strictly feasible starting point (interior with respect to the
        bounds); the first gradient must be finite there.
    tol:
        Duality-gap certificate: iteration stops once
        ``gradient(x) . (x - s) <= tol`` where ``s`` is the oracle vertex.
    max_iters:
        Hard iteration cap; the result reports ``converged=False`` when hit.
    callback:
        Optional ``callback(iteration, x, gap)`` invoked before each step.

    Returns
    -------
    ConvexSolution
        Final iterate with its objective value and gap certificate.

    Notes
    -----
    The iterate is kept as an explicit convex combination of the start
    point and oracle vertices.  Whenever the combination holds more than
    one atom, the step transfers weight from the steepest active atom
    directly onto the oracle vertex (a pairwise step); otherwise it is the
    plain conditional-gradient step.  Pairwise steps remove the zig-zag
    behaviour that makes plain conditional gradients crawl when the
    minimizer sits on or near a face; the reported certificate is still
    the plain Frank-Wolfe gap.
    """
    constraints = problem.feasible
    a = np.asarray(constraints.eq_matrix, dtype=float)
    b = np.asarray(constraints.eq_rhs, dtype=float)
    x = np.array(start, dtype=float)
    if x.shape != (a.shape[1],):
        raise ValueError("start must have one entry per variable")
    if float(np.abs(a @ x - b).max(initial=0.0)) > 1e-8 * (1.0 + float(np.abs(b).max(initial=0.0))):
        raise ValueError("start violates the equality constraints")

    def oracle(grad: np.ndarray) -> np.ndarray:
        if problem.oracle is not None:
            return np.asarray(problem.oracle(grad), dtype=float)
        sol = solve_lp(LinearProgram(objective=grad, eq_matrix=a, eq_rhs=b))
        if sol.status != "optimal":
            raise SolverError(
                f"linear-minimization oracle returned {sol.status!r}"
            )
        return sol.x

    atoms: list[np.ndarray] = [x.copy()]
    weights: list[float] = [1.0]

    def absorb(vertex: np.ndarray, amount: float) -> None:
        span = 1e-11 * (1.0 + float(np.abs(vertex).max(initial=0.0)))
        for i, atom in enumerate(atoms):
            if float(np.abs(atom - vertex).max()) <= span:
                weights[i] += amount
                return
        atoms.append(vertex)
        weights.append(amount)

    def prune() -> None:
        nonlocal atoms, weights
        keep = [i for i, weight in enumerate(weights) if weight > 1e-14]
        if len(keep) < len(atoms):
            atoms = [atoms[i] for i in keep]
            weights = [weights[i] for i in keep]

    def resync() -> np.ndarray:
        total = sum(weights)
        mixed = np.zeros_like(atoms[0])
        for weight, atom in zip(weights, atoms):
            mixed += (weight / total) * atom
        return mixed

    def correct() -> None:
        # Newton re-optimization of the weights over the current atoms,
        # restricted to the probability simplex.  Each pass solves the
        # equality-constrained Newton system (weights sum to one), caps the
        # step at the first weight to hit zero and line-searches along the
        # resulting direction in problem space.
        nonlocal x
        for _ in range(3):
            if len(atoms) < 2:
                return
            basis = np.asarray(atoms)
            grad = np.asarray(problem.gradient(x), dtype=float)
            curv = np.asarray(problem.curvature(x), dtype=float)
            if not (np.all(np.isfinite(grad)) and np.all(np.isfinite(curv))):
                return
            count = len(atoms)
            kkt = np.zeros((count + 1, count + 1))
            hess = (basis * curv) @ basis.T
            ridge = 1e-12 * max(1.0, float(np.trace(hess))) / count
            kkt[:count, :count] = hess + ridge * np.eye(count)
            kkt[:count, count] = 1.0
            kkt[count, :count] = 1.0
            rhs_vec = np.concatenate([-(basis @ grad), [0.0]])
            try:
                delta = np.linalg.solve(kkt, rhs_vec)[:count]
            except np.linalg.LinAlgError:
                return
            current = np.asarray(weights)
            shrinking = delta < 0.0
            limit = 1.0
            if shrinking.any():
                limit = min(1.0, float(np.min(current[shrinking] / -delta[shrinking])))
            if limit <= 0.0 or not np.all(np.isfinite(delta)):
                return
            move = basis.T @ delta
            step = _line_search(problem.gradient, x, move, limit)
            if step <= 0.0:
                return
            for i in range(count):
                weights[i] = max(float(current[i] + step * delta[i]), 0.0)
            prune()
            x = resync()

    gap = math.inf
    iterations = 0
    for iterations in range(max_iters):
        grad = np.asarray(problem.gradient(x), dtype=float)
        if not np.all(np.isfinite(grad)):
            raise SolverError("gradient is not finite at an interior iterate")
        target = oracle(grad)
        gap = float(grad @ (x - target))
        if callback is not None:
            callback(iterations, x, gap)
        if gap <= tol:
            return ConvexSolution(x=x, value=float(problem.objective(x)), gap=gap,
                                  iterations=iterations, converged=True)

        stepped = False
        if len(atoms) > 1:
            scores = [float(grad @ atom) for atom in atoms]
            worst = int(np.argmax(scores))
            direction = target - atoms[worst]
            # the steepest atom sits at least as high as the iterate, so
            # this direction descends whenever the plain one does
            if float(grad @ direction) < 0.0 and weights[worst] > 0.0:
                step = _line_search(problem.gradient, x, direction, weights[worst])
                if step > 0.0:
                    weights[worst] -= step
                    absorb(target, step)
                    stepped = True
        if not stepped:
            step = _line_search(problem.gradient, x, target - x, 1.0)
            if step <= 0.0:
                break
            for i in range(len(weights)):
                weights[i] *= 1.0 - step
            absorb(target, step)
        prune()
        x = resync()
        if problem.curvature is not None:
            correct()

    grad = np.asarray(problem.gradient(x), dtype=float)
    target = oracle(grad)
    gap = float(grad @ (x - target))
    return ConvexSolution(x=x, value=float(problem.objective(x)), gap=gap,
                          iterations=iterations + 1, converged=gap <= tol)


def gradient_check(objective, gradient, points, step: float = 1e-6) -> float:
    """Largest relative sup-norm error between the analytic gradient and a
    central finite difference over the given points."""
    worst = 0.0
    for point in points:
        point = np.asarray(point, dtype=float)
        analytic = np.asarray(gradient(point), dtype=float)
        numeric = np.empty_like(analytic)
        for j in range(point.size):
            bump = np.zeros_like(point)
            bump[j] = step
            numeric[j] = (objective(point + bump) - objective(point - bump)) / (2.0 * step)
        denom = max(1e-12, float(np.abs(analytic).max(initial=0.0)))
        worst = max(worst, float(np.abs(analytic - numeric).max(initial=0.0)) / denom)
    return worst
