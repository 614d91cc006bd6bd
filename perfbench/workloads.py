"""The three workloads: their markets, their questions and their checks.

Every workload asks the same families of questions (fairness, superhedging,
decomposition, optimization, Davis prices, augmentation) on a different
population of markets.  A workload is a cycle of passes.  A pass asks
every question of its markets once, timing each family; its checks run
after it, outside the timed region.  A pass parses its documents afresh,
so the package's caches (keyed by model object) start cold in every pass,
and a pass repeated in a later cycle does the same work again.
"""

from __future__ import annotations

import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import checks
from markets import document, from_document, make_market, make_twin

FAMILIES = ("fair", "superhedge", "decompose", "optimize", "davis", "augment")
UTILITIES = ("log", "power:0.5", "power:-1")
WEALTHS = (0.5, 1.0, 2.0)
CLAIMS = ("call", "digital", "random")
# augmentation needs a claim that is not identically zero; a call can be
AUGMENT_CLAIMS = ("digital", "random")

# (depth, branching, assets): 63 to 127 nodes, fewer assets than branches
INCOMPLETE_SHAPES = ((6, 2, 1), (4, 3, 2), (3, 4, 2), (5, 2, 1))
# the same trees with as many assets as branches: one deflator per market
COMPLETE_SHAPES = ((6, 2, 2), (4, 3, 3), (3, 4, 4), (5, 2, 2))
# passes of a mid-* cycle; each pass has new markets, one of every shape
MID_PASSES = 5
# 13 to 85 nodes, complete and incomplete
SMALL_SHAPES = (
    (2, 3, 2), (3, 2, 1), (2, 4, 3), (3, 2, 1),
    (4, 2, 2), (3, 3, 2), (2, 3, 3), (3, 4, 2),
)
SMALL_MARKETS = 24  # every fourth one an arbitrage twin
BUNDLED = ("t1", "b1")


@dataclass
class Item:
    """A market of the workload and the path of its document."""

    market: object
    path: str
    slot: int  # position in the generated list; picks the question mix
    ref: checks.Reference = field(init=False)

    def __post_init__(self):
        self.ref = checks.Reference(self.market)


def _mid_passes(seed: int, shapes) -> list:
    passes = []
    for p in range(MID_PASSES):
        markets = []
        for s, (depth, branching, assets) in enumerate(shapes):
            i = p * len(shapes) + s
            market = make_market(f"m{i:02d}", (seed, i), depth, branching, assets)
            markets.append((i, market))
            # twins for half the markets, every shape among them
            if (s + p) % 2 == 0:
                markets.append((i, make_twin(market)))
        passes.append(markets)
    return passes


def _small_passes(seed: int, bundled_text) -> list:
    markets = []
    for i in range(SMALL_MARKETS):
        depth, branching, assets = SMALL_SHAPES[i % len(SMALL_SHAPES)]
        market = make_market(f"s{i:02d}", (seed, i), depth, branching, assets)
        markets.append((i, make_twin(market) if i % 4 == 3 else market))
    markets += [(SMALL_MARKETS + j, from_document(name, bundled_text(name)))
                for j, name in enumerate(BUNDLED)]
    return [markets]


def prepare(workload: str, seed: int, directory: str, bundled_text) -> list:
    """Generate the workload's markets and write their documents.

    Returns the cycle of the workload: a list of passes, each a list of
    (slot, market, path) triples.
    """
    if workload == "mid-incomplete":
        passes = _mid_passes(seed, INCOMPLETE_SHAPES)
    elif workload == "mid-complete":
        passes = _mid_passes(seed, COMPLETE_SHAPES)
    else:
        passes = _small_passes(seed, bundled_text)
    os.makedirs(directory, exist_ok=True)
    out = []
    for markets in passes:
        out.append([])
        for slot, market in markets:
            path = os.path.join(directory, market.name + ".market")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(document(market))
            out[-1].append((slot, market, path))
    return out


# ---------------------------------------------------------------------------
# one pass
# ---------------------------------------------------------------------------


class Pass:
    """Times the operations of one pass and collects their checks."""

    def __init__(self):
        self.times = dict.fromkeys(FAMILIES, 0.0)
        self.attempted = 0
        self.errors: list[str] = []
        self.pending: list = []

    def op(self, family, label: str, fn, check=None):
        """Run one operation; it fails when it raises.  ``check`` maps the
        output to a list of problems and runs after the pass."""
        self.attempted += 1
        start = perf_counter()
        try:
            out = fn()
        except Exception as exc:  # a failing operation is counted, not fatal
            out = None
            self.errors.append(f"{label}: {type(exc).__name__}: {exc}")
        if family is not None:
            self.times[family] += perf_counter() - start
        if out is not None and check is not None:
            self.pending.append((label, check, out))
        return out

    def check(self) -> list[str]:
        """Run the collected checks; one line per failing operation."""
        problems = []
        for label, check, out in self.pending:
            try:
                found = check(out)
            except Exception as exc:  # a check that cannot run is a failure
                found = [f"check raised {type(exc).__name__}: {exc}"]
            if found:
                problems.append(f"{label}: " + "; ".join(found))
        self.pending.clear()
        return problems


def run_pass(workload: str, items: list, ft) -> Pass:
    record = Pass()
    if workload == "small-cli":
        for item in items:
            _cli_market(record, ft, item)
        return record
    # one command-line validation per pass keeps the command-line layers
    # measured (and small) on the library workloads too
    first = items[0]
    record.op(None, f"{first.market.name} validate", lambda: _cli(ft, ["validate", first.path]),
              _expect(0, _validate_check(first.market)))
    for item in items:
        _library_market(record, ft, item)
    return record


# ---------------------------------------------------------------------------
# mid-*: the library, each document parsed once per pass
# ---------------------------------------------------------------------------


def _parse_check(market):
    def check(parsed):
        model = parsed.model
        if not (np.array_equal(model.price, market.price)
                and np.array_equal(model.tree.branch_prob, market.prob)):
            return ["parsed market differs from the generated one"]
        return []
    return check


def _library_market(record: Pass, ft, item: Item) -> None:
    market, ref = item.market, item.ref
    name = market.name
    parsed = record.op(None, f"{name} parse", lambda: ft.parse_market(item.path),
                       _parse_check(market))
    if parsed is None:
        return
    if market.twin:
        def twin_check(report):
            cert = report.certificate
            node = None if cert is None else cert.node
            holdings = None if cert is None else cert.holdings
            return checks.unfair_problems(ref, report.fair, node, holdings)
        record.op("fair", f"{name} check_fair", lambda: ft.check_fair(parsed.model), twin_check)
        return

    model = parsed.model
    r = item.slot % 3
    record.op(
        "fair", f"{name} fairness_report", lambda: ft.fairness_report(model),
        lambda rep: checks.fair_problems(
            ref, rep.fair, rep.interior_radius, None if rep.witness is None else rep.witness.values),
    )
    record.op(
        "fair", f"{name} check_complete", lambda: ft.check_complete(model),
        lambda rep: checks.complete_problems(market, rep.complete, rep.dimension),
    )

    claim = CLAIMS[r]
    payoff = parsed.claims[claim]

    def verdict_check(v):
        iv = v.interval
        support = None if v.supporting_deflator is None else v.supporting_deflator.values
        return (checks.interval_problems(ref, claim, iv.lower, iv.upper, iv.lower_point, iv.upper_point)
                + checks.attainability_problems(ref, claim, v.classification, iv.upper, iv.lower, support))

    record.op("superhedge", f"{name} classify_attainability {claim}",
              lambda: ft.classify_attainability(model, payoff), verdict_check)
    dp = record.op("superhedge", f"{name} superhedge_process {claim}",
                   lambda: ft.superhedge_process(model, payoff),
                   lambda dp: checks.dp_problems(ref, claim, dp, ref.bounds(market.claims[claim])[1]))
    record.op(
        "decompose", f"{name} optional_decomposition {claim}",
        lambda: ft.optional_decomposition(model, dp),
        lambda d: checks.decomposition_problems(market, claim, d.process, d.strategy.holdings, d.consumption),
    )

    u_opt, x_opt = UTILITIES[r], WEALTHS[r]
    primal = record.op(
        "optimize", f"{name} solve_primal {u_opt} {x_opt}",
        lambda: ft.solve_primal(model, ft.parse_utility(u_opt), x_opt),
        lambda p: checks.primal_problems(ref, u_opt, x_opt, p.y, p.value, p.deflator.values,
                                         p.wealth, p.strategy.holdings),
    )

    u_dav, x_dav, c_dav = UTILITIES[(r + 1) % 3], WEALTHS[(r + 1) % 3], CLAIMS[(r + 1) % 3]
    record.op(
        "davis", f"{name} davis_price {u_dav} {x_dav} {c_dav}",
        lambda: ft.davis_price(model, ft.parse_utility(u_dav), x_dav, parsed.claims[c_dav]),
        lambda d: checks.bounded_price_problems(ref, c_dav, d.price, "Davis price"),
    )

    c_aug = AUGMENT_CLAIMS[item.slot % 2]
    record.op(
        "augment", f"{name} augment_market {u_opt} {x_opt} {c_aug}",
        lambda: ft.augment_market(model, ft.parse_utility(u_opt), x_opt, parsed.claims[c_aug]),
        lambda out: (["augmented market reported unfair"] if not out[1].fair else [])
        + checks.augment_problems(market, c_aug, out[0].price, primal.deflator.values),
    )


# ---------------------------------------------------------------------------
# small-cli: every command through run_command, re-parsing each time
# ---------------------------------------------------------------------------


def _cli(ft, argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = ft.cli.run_command(argv)
    return code, out.getvalue()


def _node_array(market, mapping) -> np.ndarray:
    index = market.index()
    values = np.zeros(market.n_nodes)
    for node_id, value in mapping.items():
        values[index[node_id]] = value
    return values


def _holdings(market, mapping) -> np.ndarray:
    index = market.index()
    out = np.zeros((len(market.asset_names), market.n_nodes))
    for node_id, row in mapping.items():
        out[:, index[node_id]] = [row[a] for a in market.asset_names]
    return out


def _expect(code: int, check):
    """Wrap a report check: the exit code must match, then the report
    (parsed from captured stdout) must pass."""
    def run(out):
        got, text = out
        if got != code:
            return [f"exit code {got}, expected {code}"]
        return check(json.loads(text))
    return run


def _validate_check(market):
    def check(rep):
        if rep["nodes"] == market.n_nodes and rep["claims"] == sorted(market.claims):
            return []
        return ["validate summary differs from the document"]
    return check


def _cli_settings(market, i: int):
    """Claim, utility, wealth, Davis claim and augmenting claim of a
    small-cli market."""
    if market.name == "t1":
        return "digital-up", "log", 1.0, "digital-up", "digital-up"
    if market.name == "b1":
        return "call", "power:0.5", 2.0, "call", "call"
    return (CLAIMS[i % 3], UTILITIES[(i // 3) % 3], WEALTHS[(i // 2) % 3],
            CLAIMS[(i + 1) % 3], AUGMENT_CLAIMS[i % 2])


def _cli_market(record: Pass, ft, item: Item) -> None:
    market, ref, path = item.market, item.ref, item.path
    name = market.name
    claim, utility, wealth, c_dav, c_aug = _cli_settings(market, item.slot)
    closed = checks.closed_form_problems

    def cmd(family, argv, code, check):
        record.op(family, f"{name} {' '.join(argv[:1] + argv[2:])}",
                  lambda: _cli(ft, argv), _expect(code, check))

    cmd(None, ["validate", path], 0, _validate_check(market))

    if market.twin:
        def twin_check(rep):
            cert = rep.get("certificate")
            if not cert:
                return checks.unfair_problems(ref, rep["fair"], None, None)
            node = market.index()[cert["node"]]
            holdings = [cert["holdings"][a] for a in market.asset_names]
            return checks.unfair_problems(ref, rep["fair"], node, holdings)
        cmd("fair", ["fair", path], 1, twin_check)
        cmd("superhedge", ["superhedge", path, "--claim", claim], 1,
            lambda rep: [] if rep.get("verdict") == "unfair" else ["no unfair verdict"])
        return

    cmd("fair", ["fair", path], 0, lambda rep: checks.fair_problems(
        ref, rep["fair"], rep["interior_radius"], _node_array(market, rep["witness"])))
    cmd("fair", ["complete", path], 0,
        lambda rep: checks.complete_problems(market, rep["complete"], rep["dimension"]))

    def superhedge_check(rep):
        low, high = rep["lower"], rep["upper"]
        support = rep["supporting_deflator"]
        kind = rep["classification"]
        out = checks.attainability_problems(
            ref, claim, kind, high, low,
            None if kind != "regular-attainable" else _node_array(market, support))
        out += checks.interval_problems(ref, claim, low, high)
        if abs(rep["dp_upper"] - high) > 1e-8 * max(1.0, abs(high)):
            out.append(f"dp_upper {rep['dp_upper']!r} vs upper {high!r}")
        if kind == "not-attainable":
            out += checks.closure_problems(ref, _node_array(market, rep["boundary_witness"]),
                                           high, market.claims[claim], "boundary witness")
        return (out + closed(name, "upper", high) + closed(name, "lower", low)
                + closed(name, "class", kind))

    cmd("superhedge", ["superhedge", path, "--claim", claim], 0, superhedge_check)

    def decompose_check(rep):
        process = _node_array(market, rep["process"])
        out = checks.decomposition_problems(
            market, claim, process, _holdings(market, rep["strategy"]),
            _node_array(market, rep["consumption"]))
        out += checks.dp_problems(ref, claim, process, ref.bounds(market.claims[claim])[1])
        return out + closed(name, "dp", process[0])

    cmd("decompose", ["decompose", path, "--claim", claim], 0, decompose_check)

    optimized = {}

    def optimize_check(rep):
        optimized["deflator"] = _node_array(market, rep["deflator"])
        out = checks.primal_problems(
            ref, utility, wealth, rep["multiplier"], rep["value"], optimized["deflator"],
            _node_array(market, rep["wealth_process"]), _holdings(market, rep["strategy"]))
        if utility == "log" and wealth == 1.0:
            out += closed(name, "log-value", rep["value"])
        return out

    cmd("optimize", ["optimize", path, "--utility", utility, "--wealth", repr(wealth)], 0,
        optimize_check)

    cmd("davis", ["davis", path, "--utility", utility, "--wealth", repr(wealth), "--claim", c_dav],
        0, lambda rep: (checks.bounded_price_problems(ref, c_dav, rep["price"], "Davis price")
                        + closed(name, "davis", rep["price"])))

    def augment_check(rep):
        assets = rep["market"]["assets"]
        index = market.index()
        price = np.zeros((len(assets), market.n_nodes))
        for a, levels in enumerate(assets.values()):
            for node_id, value in levels.items():
                price[a, index[node_id]] = value
        if "deflator" not in optimized:
            return ["no minimax deflator from the optimize command to compare with"]
        out = [] if rep["diagnostics"]["fair"] else ["augmented market reported unfair"]
        return out + checks.augment_problems(market, c_aug, price, optimized["deflator"])

    cmd("augment", ["augment", path, "--utility", utility, "--wealth", repr(wealth), "--claim", c_aug],
        0, augment_check)

    def price_check(rep):
        m = _node_array(market, rep["deflator"])
        prices = _node_array(market, rep["prices"])
        out = checks.deflator_problems(market, m, "minimax deflator")
        defect = checks.martingale_defect(market, m, prices)
        if defect > checks.DEFLATOR_TOL:
            out.append(f"deflated price process defect {defect:.3e}")
        if float(np.abs(prices[market.leaves] - market.claims[claim]).max()) > 1e-10:
            out.append("terminal prices differ from the payoff")
        out += checks.bounded_price_problems(ref, claim, prices[0], "minimax price")
        return out + closed(name, "price", prices[0])

    cmd("optimize", ["price-process", path, "--claim", claim, "--deflator", "minimax:" + utility],
        0, price_check)
