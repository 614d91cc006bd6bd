"""Independent correctness checks of the benchmark.

Nothing here calls ``fairtree``.  Every check rests on the benchmark's own
arrays (prices, probabilities, payoffs and the deflator known by
construction), on linear programs solved by scipy's HiGHS, or on closed
forms: never on a copy of an earlier output.  Each check returns a list of
problems; an empty list means the output passed.

Tolerances:

* ``DEFLATOR_TOL`` (1e-9) is the martingale tolerance of the package,
  scaled the same way (by ``max(1, |level * price|)``).
* ``HIGHS_TOL`` (1e-8, relative to ``max(1, |value|)``) compares an
  optimal value with HiGHS, which is run at feasibility tolerances of
  1e-9, so the bound is never tighter than the reference solver's own.
* ``REPLAY_TOL`` (1e-7, scaled) bounds self-financing and domination
  replays; it matches the package's consumption tolerance.
"""

from __future__ import annotations

import math

import numpy as np

DEFLATOR_TOL = 1e-9
HIGHS_TOL = 1e-8
REPLAY_TOL = 1e-7
FAIRNESS_THRESHOLD = 1e-10
HIGHS_OPTIONS = {
    "primal_feasibility_tolerance": 1e-9,
    "dual_feasibility_tolerance": 1e-9,
}


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


# ---------------------------------------------------------------------------
# reference solutions by HiGHS, computed once per market
# ---------------------------------------------------------------------------


class Reference:
    """The deflator polytope of one market, built from the benchmark's own
    arrays, with HiGHS solutions cached per question."""

    def __init__(self, market):
        self.market = market
        n = market.n_nodes
        rows, rhs = [], []
        for k, ch in enumerate(market.children):
            if not ch:
                continue
            ch = list(ch)
            for i in range(market.price.shape[0]):
                row = np.zeros(n)
                row[ch] = market.prob[ch] * market.price[i, ch]
                row[k] -= market.price[i, k]
                rows.append(row)
                rhs.append(0.0)
        root = np.zeros(n)
        root[0] = 1.0
        rows.append(root)
        rhs.append(1.0)
        self.matrix = np.asarray(rows)
        self.rhs = np.asarray(rhs)
        self.weights = market.path_prob[market.leaves]
        self._cache: dict = {}

    def _linprog(self, cost, a_ub=None, b_ub=None, extra=0):
        from scipy.optimize import linprog

        a_eq = self.matrix
        if extra:
            a_eq = np.hstack([a_eq, np.zeros((a_eq.shape[0], extra))])
        return linprog(
            cost, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=self.rhs,
            bounds=(0, None), method="highs", options=HIGHS_OPTIONS,
        )

    def radius(self) -> float | None:
        """Largest uniform floor under all levels (None if infeasible)."""
        if "radius" not in self._cache:
            n = self.market.n_nodes
            cost = np.zeros(n + 1)
            cost[n] = -1.0
            a_ub = np.hstack([-np.eye(n), np.ones((n, 1))])
            res = self._linprog(cost, a_ub, np.zeros(n), extra=1)
            self._cache["radius"] = float(-res.fun) if res.status == 0 else None
        return self._cache["radius"]

    def objective(self, leaf_values) -> np.ndarray:
        out = np.zeros(self.market.n_nodes)
        out[self.market.leaves] = self.weights * np.asarray(leaf_values, dtype=float)
        return out

    def bounds(self, leaf_values) -> tuple[float, float]:
        """(lower, upper) deflator prices of a terminal payoff."""
        key = ("bounds", np.asarray(leaf_values, dtype=float).tobytes())
        if key not in self._cache:
            obj = self.objective(leaf_values)
            low = self._linprog(obj)
            high = self._linprog(-obj)
            if low.status != 0 or high.status != 0:
                raise RuntimeError("HiGHS failed on a fair market's polytope")
            self._cache[key] = (float(low.fun), float(-high.fun))
        return self._cache[key]


# ---------------------------------------------------------------------------
# deflators and closure points
# ---------------------------------------------------------------------------


def deflator_problems(market, values, label: str = "deflator", price=None) -> list[str]:
    """Strictly positive, 1 at the root, and a martingale deflator of
    ``price`` (the market's own prices by default) to DEFLATOR_TOL."""
    m = np.asarray(values, dtype=float)
    if m.shape != (market.n_nodes,):
        return [f"{label}: shape {m.shape}"]
    if not np.all(np.isfinite(m)) or np.any(m <= 0):
        return [f"{label}: not strictly positive"]
    if abs(m[0] - 1.0) > DEFLATOR_TOL:
        return [f"{label}: root level {m[0]!r}"]
    worst = martingale_defect(market, m, market.price if price is None else price)
    if worst > DEFLATOR_TOL:
        return [f"{label}: martingale defect {worst:.3e}"]
    return []


def martingale_defect(market, m, processes) -> float:
    """Largest scaled one-step defect of ``m * process`` over the rows of
    ``processes`` (assets x nodes)."""
    processes = np.atleast_2d(processes)
    worst = 0.0
    for k, ch in enumerate(market.children):
        if not ch:
            continue
        ch = list(ch)
        lhs = processes[:, ch] @ (market.prob[ch] * m[ch])
        rhs = m[k] * processes[:, k]
        scale = np.maximum(1.0, np.abs(rhs))
        worst = max(worst, float(np.max(np.abs(lhs - rhs) / scale)))
    return worst


def closure_problems(ref: Reference, point, value: float, leaf_values, label: str) -> list[str]:
    """``point`` lies in the closed polytope and prices the payoff at ``value``."""
    x = np.asarray(point, dtype=float)
    if x.shape != (ref.market.n_nodes,):
        return [f"{label}: shape {x.shape}"]
    out = []
    residual = float(np.abs(ref.matrix @ x - ref.rhs).max())
    if residual > DEFLATOR_TOL * max(1.0, float(np.abs(x).max())):
        out.append(f"{label}: constraint residual {residual:.3e}")
    if float(x.min()) < -DEFLATOR_TOL:
        out.append(f"{label}: negative level {float(x.min()):.3e}")
    priced = float(ref.objective(leaf_values) @ x)
    if not _close(priced, value, HIGHS_TOL):
        out.append(f"{label}: prices the claim at {priced!r}, not {value!r}")
    return out


# ---------------------------------------------------------------------------
# fairness
# ---------------------------------------------------------------------------


def fair_problems(ref: Reference, fair: bool, radius: float, witness) -> list[str]:
    if not fair or witness is None:
        return ["fair market reported unfair"]
    out = deflator_problems(ref.market, witness, "witness")
    reference = ref.radius()
    if reference is None:
        out.append("HiGHS finds no deflator for a fair market")
    elif not _close(radius, reference, HIGHS_TOL):
        out.append(f"interior radius {radius!r} vs HiGHS {reference!r}")
    if not out and float(np.min(witness)) < radius - HIGHS_TOL:
        out.append("witness dips below the interior radius")
    return out


def unfair_problems(ref: Reference, fair: bool, node: int, holdings) -> list[str]:
    """An unfair verdict with a one-step arbitrage, recomputed from prices."""
    if fair:
        return ["arbitrage twin reported fair"]
    market = ref.market
    out = []
    reference = ref.radius()
    if reference is not None and reference > FAIRNESS_THRESHOLD:
        out.append(f"HiGHS finds interior radius {reference!r} for a twin")
    if node is None or holdings is None:
        return out + ["unfair verdict without a certificate"]
    h = np.asarray(holdings, dtype=float)
    ch = list(market.children[node])
    if not ch or h.shape != (market.price.shape[0],):
        return out + ["certificate has the wrong node or shape"]
    cost = float(h @ market.price[:, node])
    payoffs = h @ market.price[:, ch]
    scale = max(1.0, float(np.abs(h).max()))
    if cost > DEFLATOR_TOL * scale:
        out.append(f"certificate cost {cost!r} is positive")
    if float(payoffs.min()) < -DEFLATOR_TOL * scale:
        out.append("certificate payoff is negative")
    if float(payoffs.max()) <= FAIRNESS_THRESHOLD:
        out.append("certificate payoffs are all zero")
    return out


def complete_problems(market, complete: bool, dimension: int) -> list[str]:
    """Dimension of the deflator family from local ranks, recomputed."""
    expected = 0
    for k, ch in enumerate(market.children):
        if ch:
            block = market.price[:, list(ch)]
            expected += len(ch) - int(np.linalg.matrix_rank(block))
    if dimension != expected or complete != (expected == 0):
        return [f"completeness ({complete}, {dimension}) vs local ranks {expected}"]
    return []


# ---------------------------------------------------------------------------
# superhedging
# ---------------------------------------------------------------------------


def interval_problems(ref: Reference, claim: str, lower, upper,
                      lower_point=None, upper_point=None) -> list[str]:
    """Bounds against HiGHS, bound points (when given) in the closure and
    pricing at the bounds, and the construction deflator's price between."""
    payoff = ref.market.claims[claim]
    low, high = ref.bounds(payoff)
    out = []
    if not _close(upper, high, HIGHS_TOL):
        out.append(f"{claim}: upper {upper!r} vs HiGHS {high!r}")
    if not _close(lower, low, HIGHS_TOL):
        out.append(f"{claim}: lower {lower!r} vs HiGHS {low!r}")
    if upper_point is not None:
        out += closure_problems(ref, upper_point, upper, payoff, f"{claim} upper point")
    if lower_point is not None:
        out += closure_problems(ref, lower_point, lower, payoff, f"{claim} lower point")
    if ref.market.deflator is not None:
        price = float(ref.objective(payoff) @ ref.market.deflator)
        if not (lower - HIGHS_TOL * max(1.0, abs(lower)) <= price <= upper + HIGHS_TOL * max(1.0, abs(upper))):
            out.append(f"{claim}: construction price {price!r} outside [{lower!r}, {upper!r}]")
    return out


def attainability_problems(ref: Reference, claim: str, kind: str, upper, lower, supporting) -> list[str]:
    payoff = ref.market.claims[claim]
    width_tol = 1e-9 * max(1.0, abs(upper), abs(lower))
    if (upper - lower <= width_tol) != (kind == "strongly-regular"):
        return [f"{claim}: classification {kind!r} with width {upper - lower!r}"]
    if kind == "regular-attainable":
        out = deflator_problems(ref.market, supporting, f"{claim} supporting deflator")
        priced = float(ref.objective(payoff) @ np.asarray(supporting))
        if not _close(priced, upper, HIGHS_TOL):
            out.append(f"{claim}: supporting deflator prices at {priced!r}, not {upper!r}")
        return out
    if kind not in ("strongly-regular", "not-attainable"):
        return [f"{claim}: unknown classification {kind!r}"]
    return []


def dp_problems(ref: Reference, claim: str, dp, upper) -> list[str]:
    dp = np.asarray(dp, dtype=float)
    payoff = ref.market.claims[claim]
    out = []
    if not _close(float(dp[0]), float(upper), HIGHS_TOL):
        out.append(f"{claim}: dp[0] {float(dp[0])!r} vs upper {upper!r}")
    if float(np.abs(dp[ref.market.leaves] - payoff).max()) > 1e-12:
        out.append(f"{claim}: dp differs from the payoff at a leaf")
    return out


def decomposition_problems(market, claim: str, process, holdings, consumption) -> list[str]:
    """Replay: starting from the process's root value, the holdings never
    need fresh money and dominate the payoff; consumption starts at 0, is
    nondecreasing, and closes the wealth identity on every edge."""
    v = np.asarray(process, dtype=float)
    h = np.asarray(holdings, dtype=float)
    c = np.asarray(consumption, dtype=float)
    s = market.price
    payoff = market.claims[claim]
    out = []
    if abs(c[0]) > 1e-12:
        out.append(f"{claim}: consumption starts at {c[0]!r}")
    if float(h[:, 0] @ s[:, 0]) > v[0] + REPLAY_TOL * max(1.0, abs(v[0])):
        out.append(f"{claim}: the root position costs more than the process")
    leaf_of = {leaf: j for j, leaf in enumerate(market.leaves)}
    for k in range(1, market.n_nodes):
        p = market.parent[k]
        scale = max(1.0, abs(v[k]), abs(v[p]))
        held = float(h[:, p] @ s[:, k])
        if c[k] - c[p] < -REPLAY_TOL * scale:
            out.append(f"{claim}: consumption decreases at {market.ids[k]}")
        identity = v[k] - v[p] - float(h[:, p] @ (s[:, k] - s[:, p])) + (c[k] - c[p])
        if abs(identity) > REPLAY_TOL * scale:
            out.append(f"{claim}: wealth identity fails at {market.ids[k]} by {identity:.3e}")
        if k in leaf_of:
            if held < payoff[leaf_of[k]] - REPLAY_TOL * scale:
                out.append(f"{claim}: replay misses the payoff at {market.ids[k]}")
        elif float(h[:, k] @ s[:, k]) > held + REPLAY_TOL * scale:
            out.append(f"{claim}: rebalancing at {market.ids[k]} needs fresh money")
        if len(out) > 3:
            break
    return out


# ---------------------------------------------------------------------------
# utility
# ---------------------------------------------------------------------------


def parse_utility(label: str):
    """(exponent or None for log) from ``log`` / ``power:P``."""
    return None if label == "log" else float(label.split(":", 1)[1])


def utility_value(p, x):
    x = np.asarray(x, dtype=float)
    return np.log(x) if p is None else x ** p / p


def inverse_marginal(p, y):
    y = np.asarray(y, dtype=float)
    return 1.0 / y if p is None else y ** (1.0 / (p - 1.0))


def conjugate(p, y):
    """Closed-form convex conjugate ``sup_x U(x) - x y``."""
    y = np.asarray(y, dtype=float)
    if p is None:
        return -np.log(y) - 1.0
    q = p / (p - 1.0)
    return -((p - 1.0) / p) * y ** q


def primal_problems(ref: Reference, label: str, x: float, y: float, value: float,
                    deflator, wealth, holdings) -> list[str]:
    market = ref.market
    p = parse_utility(label)
    m = np.asarray(deflator, dtype=float)
    w = np.asarray(wealth, dtype=float)
    h = np.asarray(holdings, dtype=float)
    out = deflator_problems(market, m, f"{label} minimax deflator")
    if out:
        return out
    leaves = market.leaves
    if not _close(float(w[0]), x, 1e-8):
        out.append(f"{label}: budget {float(w[0])!r} vs wealth {x!r}")
    defect = martingale_defect(market, m, w)
    if defect > DEFLATOR_TOL:
        out.append(f"{label}: wealth x deflator defect {defect:.3e}")
    foc = inverse_marginal(p, y * m[leaves])
    gap = float(np.max(np.abs(w[leaves] - foc) / np.maximum(1.0, np.abs(foc))))
    if gap > 1e-9:
        out.append(f"{label}: terminal wealth is off I(y m) by {gap:.3e}")
    if abs(float(h[:, 0] @ market.price[:, 0]) - w[0]) > REPLAY_TOL * max(1.0, abs(w[0])):
        out.append(f"{label}: the root position does not cost the wealth")
    for k in range(1, market.n_nodes):
        scale = max(1.0, abs(w[k]))
        if abs(float(h[:, market.parent[k]] @ market.price[:, k]) - w[k]) > REPLAY_TOL * scale:
            out.append(f"{label}: replay misses the wealth at {market.ids[k]}")
            break
        if market.children[k] and abs(float(h[:, k] @ market.price[:, k]) - w[k]) > REPLAY_TOL * scale:
            out.append(f"{label}: rebalancing at {market.ids[k]} is not self-financing")
            break
    expected = float(ref.weights @ utility_value(p, w[leaves]))
    if not _close(value, expected, 1e-9):
        out.append(f"{label}: value {value!r} vs expected utility {expected!r}")
    dual = float(ref.weights @ conjugate(p, y * m[leaves]))
    if not _close(value, dual + x * y, 1e-8):
        out.append(f"{label}: conjugacy gap {abs(value - dual - x * y):.3e}")
    _, high = ref.bounds(w[leaves])
    if not _close(high, x, HIGHS_TOL):
        out.append(f"{label}: optimal wealth superhedges at {high!r}, not {x!r}")
    return out


def bounded_price_problems(ref: Reference, claim: str, price: float, label: str) -> list[str]:
    """A price of the claim under some deflator lies in HiGHS's interval."""
    low, high = ref.bounds(ref.market.claims[claim])
    tol = HIGHS_TOL * max(1.0, abs(high))
    if not (low - tol <= price <= high + tol):
        return [f"{claim}: {label} {price!r} outside [{low!r}, {high!r}]"]
    return []


def augment_problems(market, claim: str, augmented_price, minimax) -> list[str]:
    """The enlarged market keeps every old price, adds the claim as a
    last asset, and the old minimax deflator is a deflator of it."""
    a = np.asarray(augmented_price, dtype=float)
    d = market.price.shape[0]
    if a.shape != (d + 1, market.n_nodes):
        return [f"augmented price matrix has shape {a.shape}"]
    out = []
    if not np.array_equal(a[:d], market.price):
        out.append("augmentation changed the old prices")
    if float(np.abs(a[d, market.leaves] - market.claims[claim]).max()) > 1e-9:
        out.append("the new asset does not pay the claim")
    out += deflator_problems(market, minimax, "old minimax deflator on the enlarged market", a)
    return out


def closed_form_problems(market_name: str, question: str, value: float) -> list[str]:
    """Hand-derived answers for the bundled markets.

    ``b1`` (one-step binomial, complete): the call costs 1/3 by every
    route.  ``t1`` (one-step trinomial): the up-digital has price interval
    [0, 1/3] and is not attainable; log utility at wealth 1 has value
    ln(9/8)/3; the log-utility Davis price of the digital, which is also
    its price under the log minimax deflator, is 2/9.  ``value`` is a
    number, or the attainability class for ``"class"``.
    """
    expected = {
        ("b1", "upper"): 1.0 / 3.0,
        ("b1", "lower"): 1.0 / 3.0,
        ("b1", "dp"): 1.0 / 3.0,
        ("b1", "davis"): 1.0 / 3.0,
        ("b1", "price"): 1.0 / 3.0,
        ("t1", "upper"): 1.0 / 3.0,
        ("t1", "lower"): 0.0,
        ("t1", "class"): "not-attainable",
        ("t1", "dp"): 1.0 / 3.0,
        ("t1", "log-value"): math.log(9.0 / 8.0) / 3.0,
        ("t1", "davis"): 2.0 / 9.0,
        ("t1", "price"): 2.0 / 9.0,
    }.get((market_name, question))
    if expected is None:
        return []
    if isinstance(expected, str):
        wrong = value != expected
    else:
        wrong = abs(value - expected) > 1e-9
    return [f"{market_name} {question}: {value!r}, closed form {expected!r}"] if wrong else []
