"""Command-line interface.

Every command reads a market document, prints a machine-readable report
to standard output (JSON by default, flat CSV with ``--format csv``) and
exits 0 on success, 1 on a domain verdict (unfair market, infeasible
process), 2 on usage or input errors, and 3 on internal errors --
including any ``--verify`` cross-check that disagrees with the engine.

:func:`run_command` is the one runner: it parses the arguments and the
document, starts the report, lets the command's handler fill it in and
return its CSV header, rows and exit code, prints it, and maps errors to
exit codes.  ``generate`` reads no document and fills an empty report.
"""

from __future__ import annotations

import argparse
import functools
import sys
import traceback

import numpy as np

from . import oracle
from .errors import (
    FairtreeError,
    MarketFileError,
    ModelError,
    SizeGuardError,
    SupermartingaleError,
    UnfairMarketError,
)
from .market import Claim, MarketModel, check_deflator_values, fair_price_process, martingale_defect
from .market import _column_dots
from .deflators import FAIRNESS_THRESHOLD, check_complete, check_fair, require_fair
from .hedging import (
    classify_attainability,
    optional_decomposition,
    superhedge_price,
    superhedge_process,
)
from .utility import (
    augment_market,
    davis_price,
    dual_value,
    parse_utility,
    solve_dual,
    solve_primal,
)
from .generate import default_claims, generate_market
from .marketio import (
    REPORT_FORMAT,
    ParsedMarket,
    emit_csv,
    emit_json,
    market_document,
    markets_identical,
    parse_market,
    parse_market_text,
    serialize_market,
)

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


class VerifyError(Exception):
    """An oracle cross-check disagreed with the engine."""


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------


def _node_map(model: MarketModel, values) -> dict:
    return dict(zip(model.tree.ids, np.asarray(values, dtype=float).tolist()))


def _strategy_map(model: MarketModel, holdings) -> dict:
    tree, names = model.tree, model.asset_names
    rows = np.asarray(holdings, dtype=float).T.tolist()
    return {
        node_id: dict(zip(names, row))
        for node_id, row, children in zip(tree.ids, rows, tree.children)
        if children
    }


def _market_table(model: MarketModel):
    """CSV header and rows of a market: one row per node."""
    tree = model.tree
    header = ["node", "parent", "prob", "time"] + list(model.asset_names)
    parents = [""] + [tree.ids[p] for p in tree.parent[1:].tolist()]
    rows = [
        [node_id, parent, prob, time] + prices
        for node_id, parent, prob, time, prices in zip(
            tree.ids, parents, tree.branch_prob.tolist(), tree.time.tolist(),
            model.price.T.tolist(),
        )
    ]
    return header, rows


def _node_rows(model: MarketModel, *columns, holdings=None) -> list:
    """CSV rows, one per node: its id, each column's value there (a scalar
    column repeats), then with ``holdings`` its holdings, blank at a leaf."""
    tree = model.tree
    values = np.column_stack(np.broadcast_arrays(*columns)).astype(float).tolist()
    rows = [[node_id] + row for node_id, row in zip(tree.ids, values)]
    if holdings is not None:
        blank = [""] * model.n_assets
        held = np.asarray(holdings, dtype=float).T.tolist()
        rows = [row + (own if ch else blank) for row, own, ch in zip(rows, held, tree.children)]
    return rows


def _base_report(command: str, parsed: ParsedMarket, tolerances: dict) -> dict:
    return {
        "format": REPORT_FORMAT,
        "command": command,
        "inputs": {"path": parsed.source, "sha256": parsed.digest},
        "tolerances": tolerances,
    }


def _print_report(args, report: dict, header, rows) -> None:
    sys.stdout.write(emit_csv(header, rows) if args.format == "csv" else emit_json(report))


def _verdict(args, command: str, parsed: ParsedMarket, kind: str, message: str) -> int:
    report = _base_report(command, parsed, {})
    report["verdict"] = kind
    report["message"] = message
    _print_report(args, report, ["verdict", "message"], [[kind, message]])
    print(f"fairtree {command}: {message}", file=sys.stderr)
    return EXIT_VERDICT


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise VerifyError(message)


def _oracle_entry(quantity: str, oracle_value, engine_value, bound: float) -> dict:
    """The ``--verify`` entry of an oracle value beside the engine's;
    raises :class:`VerifyError` when they differ by more than ``bound``."""
    oracle_value, engine_value = float(oracle_value), float(engine_value)
    difference = abs(oracle_value - engine_value)
    _check(
        difference <= bound,
        f"{quantity}: oracle {oracle_value!r} vs engine {engine_value!r} "
        f"differ by {difference:.3e} (bound {bound:g})",
    )
    return dict(oracle=oracle_value, engine=engine_value, difference=difference, bound=bound)


def _pick_claim(parsed: ParsedMarket, name: str) -> Claim:
    if name not in parsed.claims:
        available = ", ".join(sorted(parsed.claims)) or "none"
        raise MarketFileError(
            "$.claims", f"no claim named {name!r} (available: {available})"
        )
    return parsed.claims[name]


def _pick_deflator(model: MarketModel, choice: str):
    if choice == "witness":
        return require_fair(model).witness, "witness"
    if choice.startswith("minimax:"):
        utility = parse_utility(choice.split(":", 1)[1])
        return solve_dual(model, utility, 1.0).deflator, f"minimax ({utility.label})"
    raise ValueError(
        f"bad deflator choice {choice!r}; expected 'witness' or 'minimax:UTILITY'"
    )


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _cmd_validate(args, parsed, report):
    model, tree = parsed.model, parsed.model.tree
    report.update(
        valid=True,
        nodes=tree.n_nodes,
        leaves=tree.n_leaves,
        horizon=tree.horizon,
        assets=list(model.asset_names),
        claims=sorted(parsed.claims),
    )
    if args.verify:
        round_trip = parse_market_text(serialize_market(model, parsed.claims))
        _check(markets_identical(model, round_trip.model), "serialization round trip")
        report["verify"] = {"round_trip": "ok"}
    return (*_market_table(model), EXIT_OK)


def _cmd_fair(args, parsed, report):
    model = parsed.model
    result = check_fair(model)
    # A custom threshold can only tighten the verdict: a fair market whose
    # interior radius sits below it is reclassified, never the other way.
    fair = result.fair and result.interior_radius > args.tolerance
    report["fair"] = fair
    report["interior_radius"] = result.interior_radius
    if fair:
        report["witness"] = _node_map(model, result.witness.values)
        header = ["node", "witness"]
        rows = [[node, value] for node, value in report["witness"].items()]
    elif result.certificate is not None:
        cert = result.certificate
        children = model.tree.children[cert.node]
        holdings = dict(zip(model.asset_names, cert.holdings.tolist()))
        report["certificate"] = {
            "node": cert.node_id,
            "cost": cert.cost,
            "holdings": holdings,
            "payoffs": dict(zip([model.tree.ids[c] for c in children], cert.payoffs.tolist())),
        }
        header = ["node", "asset", "holding"]
        rows = [[cert.node_id, name, holding] for name, holding in holdings.items()]
    else:
        report["certificate"] = None
        header = ["node", "witness"]
        rows = []
    if args.verify:
        if fair:
            check_deflator_values(model, result.witness.values)
            report["verify"] = {"witness": "valid deflator"}
        elif result.certificate is not None:
            cert = result.certificate
            children = list(model.tree.children[cert.node])
            payoffs = cert.holdings @ model.price[:, children]
            cost = float(cert.holdings @ model.price[:, cert.node])
            _check(cost <= 1e-9, f"certificate cost {cost!r} is positive")
            _check(float(payoffs.min()) >= -1e-9, "certificate payoff is negative")
            _check(float(payoffs.max()) > 1e-10, "certificate payoffs are all zero")
            report["verify"] = {"certificate": "valid one-step arbitrage"}
        elif result.fair:
            # Reclassified only by a custom threshold; there is no
            # arbitrage to certify.
            report["verify"] = {"certificate": "none at this threshold"}
        else:
            raise VerifyError("unfair verdict without a certificate")
    return header, rows, EXIT_OK if fair else EXIT_VERDICT


def _cmd_complete(args, parsed, report):
    model = parsed.model
    result = check_complete(model)
    report["complete"] = result.complete
    report["dimension"] = result.dimension
    report["local_ranks"] = [
        {"node": node, "children": children, "rank": rank}
        for node, children, rank in result.local_ranks
    ]
    if args.verify:
        try:
            entry = oracle.oracle_complete(model)
        except SizeGuardError as exc:
            report["verify"] = {"vertex_count": f"skipped ({exc})"}
        else:
            _check(
                entry == result.complete,
                f"completeness: oracle {entry} vs engine {result.complete}",
            )
            report["verify"] = {"vertex_count": "agrees"}
    header = ["node", "children", "rank", "defect"]
    rows = [
        [node, children, rank, children - rank]
        for node, children, rank in result.local_ranks
    ]
    return header, rows, EXIT_OK


def _cmd_superhedge(args, parsed, report):
    model = parsed.model
    claim = _pick_claim(parsed, args.claim)
    verdict = classify_attainability(model, claim)
    interval = verdict.interval
    dp = superhedge_process(model, claim)
    agreement = abs(float(dp[0]) - interval.upper)
    report.update(
        claim=args.claim,
        lower=interval.lower,
        upper=interval.upper,
        width=interval.width,
        classification=verdict.classification,
        dp_upper=float(dp[0]),
        dp_agreement=agreement,
        price=verdict.price,
    )
    report["supporting_deflator"] = (
        None
        if verdict.supporting_deflator is None
        else _node_map(model, verdict.supporting_deflator.values)
    )
    report["boundary_witness"] = (
        None
        if verdict.boundary_witness is None
        else _node_map(model, verdict.boundary_witness)
    )
    if args.verify:
        verify = {}
        lp = oracle.lp_superhedge_process(model, claim)
        dp_vs_lp = float((np.abs(dp - lp) / np.maximum(1.0, np.abs(lp))).max())
        _check(
            dp_vs_lp <= 1e-8,
            f"vertex and node-LP superhedge processes differ by {dp_vs_lp:.3e}",
        )
        verify["dp_vs_lp"] = dp_vs_lp
        try:
            lo, hi = oracle.oracle_price_interval(model, claim)
        except SizeGuardError as exc:
            verify["vertex_interval"] = f"skipped ({exc})"
        else:
            bound = max(args.tolerance, 1e-8)
            verify["upper"] = _oracle_entry("superhedge upper", hi, interval.upper, bound)
            verify["lower"] = _oracle_entry("superhedge lower", lo, interval.lower, bound)
        report["verify"] = verify
    header = ["node", "dp_value", "lower_deflator", "upper_deflator", "lower", "upper"]
    rows = _node_rows(
        model, dp, interval.lower_point, interval.upper_point, interval.lower, interval.upper
    )
    return header, rows, EXIT_OK


def _cmd_decompose(args, parsed, report):
    model = parsed.model
    claim = _pick_claim(parsed, args.claim)
    process = superhedge_process(model, claim)
    result = optional_decomposition(model, process)
    report.update(
        claim=args.claim,
        initial=float(process[0]),
        process=_node_map(model, result.process),
        strategy=_strategy_map(model, result.strategy.holdings),
        consumption=_node_map(model, result.consumption),
    )
    if args.verify:
        tree, price = model.tree, model.price
        parent = tree.parent[1:]
        gain = _column_dots(result.strategy.holdings[:, parent], price[:, 1:] - price[:, parent])
        drop = result.consumption[1:] - result.consumption[parent]
        identity = result.process[1:] - result.process[parent] - gain + drop
        failed = ~(np.abs(identity) <= 1e-7) | ~(drop >= -1e-9)
        if failed.any():  # the first failing node, its identity checked first
            i = int(np.argmax(failed))
            node = tree.ids[i + 1]
            _check(
                abs(identity[i]) <= 1e-7,
                f"decomposition identity fails at node {node!r} by {identity[i]:.3e}",
            )
            _check(drop[i] >= -1e-9, f"consumption decreases at node {node!r}")
        payoff = claim.payoff
        slack = result.process[tree.leaves] - payoff
        _check(float(slack.min()) >= -1e-9, "terminal value fails to dominate claim")
        report["verify"] = {
            "consumption_monotone": "ok",
            "terminal_domination": float(slack.min()),
        }
    header = ["node", "value", "consumption"] + [
        f"holding:{name}" for name in model.asset_names
    ]
    rows = _node_rows(
        model, result.process, result.consumption, holdings=result.strategy.holdings
    )
    return header, rows, EXIT_OK


def _cmd_optimize(args, parsed, report):
    model = parsed.model
    utility = parse_utility(args.utility)
    primal = solve_primal(model, utility, args.wealth)
    v = dual_value(model, utility, primal.deflator, primal.y)
    conjugacy_gap = abs(primal.value - (v + primal.x * primal.y))
    report.update(
        utility=utility.label,
        wealth=primal.x,
        multiplier=primal.y,
        value=primal.value,
        dual_value=v,
        conjugacy_gap=conjugacy_gap,
        budget_residual=primal.budget_residual,
        max_consumption=primal.max_consumption,
        deflator=_node_map(model, primal.deflator.values),
        wealth_process=_node_map(model, primal.wealth),
        strategy=_strategy_map(model, primal.strategy.holdings),
    )
    if args.verify:
        verify = {}
        _check(conjugacy_gap <= 1e-6, f"conjugacy gap {conjugacy_gap:.3e}")
        _check(
            primal.budget_residual <= 1e-8 * max(1.0, primal.x),
            f"budget residual {primal.budget_residual:.3e}",
        )
        verify["conjugacy_gap"] = conjugacy_gap
        try:
            grid = oracle.oracle_dual(model, utility, primal.y)
        except SizeGuardError as exc:
            verify["grid_dual"] = f"skipped ({exc})"
        else:
            verify["grid_dual"] = _oracle_entry("dual value", grid, v, max(args.tolerance, 1e-4))
        report["verify"] = verify
    header = ["node", "wealth", "deflator"] + [
        f"holding:{name}" for name in model.asset_names
    ]
    rows = _node_rows(
        model, primal.wealth, primal.deflator.values, holdings=primal.strategy.holdings
    )
    return header, rows, EXIT_OK


def _cmd_davis(args, parsed, report):
    model = parsed.model
    utility = parse_utility(args.utility)
    claim = _pick_claim(parsed, args.claim)
    result = davis_price(model, utility, args.wealth, claim)
    interval = superhedge_price(model, claim)
    contained = (
        interval.lower - 1e-9 <= result.price <= interval.upper + 1e-9
    )
    report.update(
        claim=args.claim,
        utility=utility.label,
        wealth=args.wealth,
        price=result.price,
        cross_route_residual=result.residual,
        lower=interval.lower,
        upper=interval.upper,
        contained=contained,
    )
    if args.verify:
        _check(
            result.residual <= max(args.tolerance, 1e-9),
            f"marginal-utility and deflator prices differ by {result.residual:.3e}",
        )
        _check(contained, "price escapes the superhedge interval")
        report["verify"] = {"cross_route_residual": result.residual}
    header = ["price", "cross_route_residual", "lower", "upper"]
    rows = [[result.price, result.residual, interval.lower, interval.upper]]
    return header, rows, EXIT_OK


def _cmd_augment(args, parsed, report):
    model = parsed.model
    utility = parse_utility(args.utility)
    claim = _pick_claim(parsed, args.claim)
    augmented, diagnostics = augment_market(
        model, utility, args.wealth, claim, name=args.asset_name
    )
    report.update(
        claim=args.claim,
        utility=utility.label,
        wealth=args.wealth,
        diagnostics={
            "fair": diagnostics.fair,
            "interior_radius": diagnostics.interior_radius,
            "deflator_residual": diagnostics.deflator_residual,
            "dual_value_shift": diagnostics.dual_value_shift,
            "deflator_shift": diagnostics.deflator_shift,
            "primal_value_shift": diagnostics.primal_value_shift,
        },
        market=market_document(augmented, parsed.claims),
    )
    if args.verify:
        bound = max(args.tolerance, 1e-7)
        _check(diagnostics.fair, "augmented market is not fair")
        _check(
            diagnostics.dual_value_shift <= bound,
            f"dual value moved by {diagnostics.dual_value_shift:.3e}",
        )
        _check(
            diagnostics.deflator_shift <= bound,
            f"minimax deflator moved by {diagnostics.deflator_shift:.3e}",
        )
        _check(
            diagnostics.primal_value_shift <= bound,
            f"optimal utility moved by {diagnostics.primal_value_shift:.3e}",
        )
        report["verify"] = {"invariance": "ok"}
    header = ["node"] + list(augmented.asset_names)
    rows = _node_rows(augmented, *augmented.price)
    return header, rows, EXIT_OK


def _cmd_price_process(args, parsed, report):
    model = parsed.model
    claim = _pick_claim(parsed, args.claim)
    deflator, label = _pick_deflator(model, args.deflator)
    prices = fair_price_process(model, deflator, claim)
    report.update(
        claim=args.claim,
        deflator_choice=label,
        initial=float(prices[0]),
        prices=_node_map(model, prices),
        deflator=_node_map(model, deflator.values),
    )
    if args.verify:
        tree = model.tree
        payoff = claim.payoff
        terminal_gap = float(np.abs(prices[tree.leaves] - payoff).max())
        _check(
            terminal_gap <= 1e-10 * max(1.0, float(np.abs(payoff).max())),
            f"terminal prices differ from the payoff by {terminal_gap:.3e}",
        )
        worst, _ = martingale_defect(model, deflator.values, prices)
        _check(worst <= 1e-9, f"deflated price is not a martingale ({worst:.3e})")
        report["verify"] = {"terminal_gap": terminal_gap, "martingale_defect": worst}
    header = ["node", "price", "deflator"]
    rows = _node_rows(model, prices, deflator.values)
    return header, rows, EXIT_OK


def _cmd_generate(args, parsed, report):
    model = generate_market(
        args.seed, args.depth, args.branching, args.assets, arbitrage=args.arb
    )
    claims = default_claims(model, args.seed)
    metadata = {
        "generator": "pcg64",
        "seed": args.seed,
        "depth": args.depth,
        "branching": args.branching,
        "assets": args.assets,
        "arbitrage": args.arb,
    }
    if args.verify:
        verdict = check_fair(model)
        _check(
            verdict.fair != args.arb,
            f"generated market fairness {verdict.fair} contradicts arb={args.arb}",
        )
    report.update(market_document(model, claims, metadata))
    return (*_market_table(model), EXIT_OK)


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------


class _CommandParser(argparse.ArgumentParser):
    """A subcommand's parser.  Arguments it does not take are a usage error
    under its own name; argparse would hand them back to the main parser,
    whose message names no subcommand."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command parser, built once and shared: argparse keeps a parse's
    state on the namespace it returns, never on the parser."""
    parser = argparse.ArgumentParser(
        prog="fairtree",
        description="Fairness, superhedging and optimal investment on scenario trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser)

    def cmd(name, handler, help_text, market=True, tolerance=None):
        """Register a command.  ``tolerance`` is the ``(report name,
        default)`` pair of a command that reads ``--tolerance``."""
        p = sub.add_parser(name, help=help_text)
        tolerance_name, default = tolerance or (None, None)
        if tolerance_name is not None:
            p.add_argument(
                "--tolerance", type=float, default=default,
                help="override the command's decision/verification tolerance",
            )
        p.add_argument(
            "--verify", action="store_true",
            help="re-derive the result with the brute-force oracles; exit 3 on disagreement",
        )
        p.add_argument(
            "--format", choices=("report", "csv"), default="report",
            help="output format (default: JSON report)",
        )
        if market:
            p.add_argument("market", help="path to a market document")
        else:
            p.set_defaults(market=None)
        p.set_defaults(handler=handler, tolerance_name=tolerance_name)
        return p

    cmd("validate", _cmd_validate, "parse a market document and summarize it")
    cmd("fair", _cmd_fair, "decide market fairness; exit 1 with a certificate if unfair",
        tolerance=("fairness_threshold", FAIRNESS_THRESHOLD))
    cmd("complete", _cmd_complete, "decide completeness and the deflator-family dimension")

    p = cmd("superhedge", _cmd_superhedge, "price interval and attainability of a claim",
            tolerance=("oracle_agreement", 1e-8))
    p.add_argument("--claim", required=True, help="claim name from the market document")

    p = cmd("decompose", _cmd_decompose, "superhedge strategy and consumption for a claim")
    p.add_argument("--claim", required=True)

    p = cmd("optimize", _cmd_optimize, "maximize expected utility of terminal wealth",
            tolerance=("oracle_agreement", 1e-4))
    p.add_argument("--utility", required=True, help="'log' or 'power:P' (P<1, nonzero)")
    p.add_argument("--wealth", required=True, type=float, help="initial wealth (> 0)")

    p = cmd("davis", _cmd_davis, "marginal utility-indifference price of a claim",
            tolerance=("cross_route", 1e-9))
    p.add_argument("--utility", required=True)
    p.add_argument("--wealth", required=True, type=float)
    p.add_argument("--claim", required=True)

    p = cmd("augment", _cmd_augment, "add a claim priced by the minimax deflator as an asset",
            tolerance=("invariance", 1e-7))
    p.add_argument("--utility", required=True)
    p.add_argument("--wealth", required=True, type=float)
    p.add_argument("--claim", required=True)
    p.add_argument("--asset-name", default="derivative")

    p = cmd("price-process", _cmd_price_process, "price a claim along the tree under a deflator")
    p.add_argument("--claim", required=True)
    p.add_argument(
        "--deflator", default="witness",
        help="'witness' (fairness witness) or 'minimax:UTILITY'",
    )

    p = cmd("generate", _cmd_generate, "emit a random fair market document", market=False)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--depth", default=2, type=int)
    p.add_argument("--branching", default=2, type=int)
    p.add_argument("--assets", default=2, type=int)
    p.add_argument("--arb", action="store_true", help="inject a dominated asset")
    return parser


def run_command(argv) -> int:
    """Run one command: parse, engine, emit.  Returns the exit code."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    command, parsed, report = args.command, None, {}
    try:
        if args.market is not None:
            parsed = parse_market(args.market)
            name = args.tolerance_name
            report = _base_report(command, parsed, {} if name is None else {name: args.tolerance})
        header, rows, code = args.handler(args, parsed, report)
        _print_report(args, report, header, rows)
        return code
    except (UnfairMarketError, SupermartingaleError) as exc:
        if parsed is not None:
            kind = "unfair" if isinstance(exc, UnfairMarketError) else "infeasible"
            return _verdict(args, command, parsed, kind, str(exc))
        print(f"fairtree {command}: {exc}", file=sys.stderr)
        return EXIT_VERDICT
    except (MarketFileError, ModelError, SizeGuardError, ValueError) as exc:
        print(f"fairtree {command}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except VerifyError as exc:
        print(f"fairtree {command}: verification failed: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except FairtreeError as exc:
        print(f"fairtree {command}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
