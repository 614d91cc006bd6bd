"""Fast self-test of the benchmark (a few seconds).

    python3 perfbench/selftest.py

1. Runs one pass of every workload at a tiny size and requires every
   operation to succeed and pass its checks.
2. Shows that each check rejects a perturbed output: a witness scaled at
   one node, a bound shifted by 1e-6, a holding with its sign flipped, a
   deflator moved off the optimum, and a certificate turned around.

Exits 0 when everything holds, 1 otherwise.
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path.insert(0, str(SRC))

import fairtree as ft  # noqa: E402
import fairtree.cli  # noqa: E402,F401
import fairtree.data  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from markets import document, make_market, make_twin  # noqa: E402

FAILURES: list[str] = []


def expect(condition: bool, what: str) -> None:
    print(("ok    " if condition else "FAIL  ") + what)
    if not condition:
        FAILURES.append(what)


def tiny_passes() -> None:
    workloads.INCOMPLETE_SHAPES = ((2, 2, 1), (2, 3, 2))
    workloads.COMPLETE_SHAPES = ((2, 2, 2), (2, 3, 3))
    workloads.MID_PASSES = 2
    workloads.SMALL_SHAPES = ((2, 3, 2), (2, 2, 1))
    workloads.SMALL_MARKETS = 4
    directory = BENCH / "work" / "selftest"
    try:
        for workload in ("mid-incomplete", "mid-complete", "small-cli"):
            attempted, problems = 0, []
            for prepared in workloads.prepare(workload, 7, str(directory), fairtree.data.text):
                items = [workloads.Item(market, path, slot) for slot, market, path in prepared]
                record = workloads.run_pass(workload, items, ft)
                attempted += record.attempted
                problems += record.errors + record.check()
            for line in problems:
                print("      " + line)
            expect(not problems, f"{workload}: {attempted} operations, all pass")
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def perturbations() -> None:
    market = make_market("probe", (99,), 3, 3, 2)
    ref = checks.Reference(market)
    parsed = ft.parse_market_text(document(market))
    model = parsed.model

    report = ft.check_fair(model)
    witness = report.witness.values
    expect(not checks.fair_problems(ref, True, report.interior_radius, witness),
           "fairness: the engine's witness passes")
    scaled = witness.copy()
    scaled[5] *= 1.001
    expect(bool(checks.fair_problems(ref, True, report.interior_radius, scaled)),
           "fairness: a witness scaled at one node is rejected")
    expect(bool(checks.fair_problems(ref, True, report.interior_radius + 1e-6, witness)),
           "fairness: an interior radius shifted by 1e-6 is rejected")

    twin = make_twin(market)
    twin_report = ft.check_fair(ft.parse_market_text(document(twin)).model)
    cert = twin_report.certificate
    twin_ref = checks.Reference(twin)
    expect(not checks.unfair_problems(twin_ref, False, cert.node, cert.holdings),
           "unfairness: the engine's certificate passes")
    expect(bool(checks.unfair_problems(twin_ref, False, cert.node, -cert.holdings)),
           "unfairness: a certificate with its holdings turned around is rejected")

    claim = "random"
    payoff = parsed.claims[claim]
    verdict = ft.classify_attainability(model, payoff)
    iv = verdict.interval
    expect(not checks.interval_problems(ref, claim, iv.lower, iv.upper, iv.lower_point, iv.upper_point),
           "superhedging: the engine's interval passes")
    expect(bool(checks.interval_problems(ref, claim, iv.lower, iv.upper + 1e-6, iv.lower_point, iv.upper_point)),
           "superhedging: an upper bound shifted by 1e-6 is rejected")
    expect(bool(checks.interval_problems(ref, claim, iv.lower - 1e-6, iv.upper, iv.lower_point, iv.upper_point)),
           "superhedging: a lower bound shifted by 1e-6 is rejected")
    dp = ft.superhedge_process(model, payoff)
    expect(bool(checks.dp_problems(ref, claim, dp + 1e-6, iv.upper)),
           "superhedging: a process shifted by 1e-6 is rejected")

    decomposition = ft.optional_decomposition(model, dp)
    holdings = decomposition.strategy.holdings
    expect(not checks.decomposition_problems(market, claim, dp, holdings, decomposition.consumption),
           "decomposition: the engine's strategy passes")
    flipped = holdings.copy()
    flipped[0, 0] = -flipped[0, 0]
    expect(bool(checks.decomposition_problems(market, claim, dp, flipped, decomposition.consumption)),
           "decomposition: a holding with its sign flipped is rejected")

    for label in workloads.UTILITIES:
        utility = ft.parse_utility(label)
        primal = ft.solve_primal(model, utility, 1.0)
        args = (ref, label, 1.0, primal.y, primal.value)
        m = primal.deflator.values
        expect(not checks.primal_problems(*args, m, primal.wealth, primal.strategy.holdings),
               f"utility {label}: the engine's optimum passes")
        moved = 0.99 * m + 0.01 * market.deflator
        expect(not checks.deflator_problems(market, moved),
               f"utility {label}: the moved deflator is still a deflator")
        expect(bool(checks.primal_problems(*args, moved, primal.wealth, primal.strategy.holdings)),
               f"utility {label}: a deflator moved off the optimum is rejected")
        flipped = primal.strategy.holdings.copy()
        flipped[1, 0] = -flipped[1, 0]
        expect(bool(checks.primal_problems(*args, m, primal.wealth, flipped)),
               f"utility {label}: a holding with its sign flipped is rejected")
        davis = ft.davis_price(model, utility, 1.0, parsed.claims["digital"]).price
        high = ref.bounds(market.claims["digital"])[1]
        expect(not checks.bounded_price_problems(ref, "digital", davis, "Davis price"),
               f"utility {label}: the Davis price passes")
        expect(bool(checks.bounded_price_problems(ref, "digital", high + 1e-6, "Davis price")),
               f"utility {label}: a Davis price 1e-6 above the upper bound is rejected")

        augmented, _ = ft.augment_market(model, utility, 1.0, parsed.claims["digital"])
        expect(not checks.augment_problems(market, "digital", augmented.price, m),
               f"utility {label}: the augmented market passes")
        expect(bool(checks.augment_problems(market, "digital", augmented.price, moved)),
               f"utility {label}: augmentation checked with a moved deflator is rejected")


def main() -> int:
    tiny_passes()
    perturbations()
    print(f"{len(FAILURES)} failures")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
