"""Asset scaling: multiplying one asset's prices by a constant changes no
deflator, so every answer of the engine must stay where it was.

Each market gets its first asset multiplied by ``s`` and its last by
``1/s``, for ``s`` of 1e5 and 1e6, which puts the two assets' prices up to
twelve orders of magnitude apart; arbitrage certificates are asked for
at 1e8 and 1e9 as well.  Scaling a claim's payoff scales its price
bounds and changes no attainability verdict.  A change of numeraire,
every price divided by a node process, changes no answer either once the
claims are moved with it; that is checked at the generator's largest
shape, where the brute-force oracles refuse to run.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest

from fairtree import (
    Claim,
    Deflator,
    build_market,
    check_complete,
    check_deflator_values,
    check_fair,
    classify_attainability,
    default_claims,
    deflate,
    generate_market,
    log_utility,
    optional_decomposition,
    oracle,
    sample_deflators,
    serialize_market,
    solve_primal,
    superhedge_price,
    superhedge_process,
)
from fairtree.cli import run_command
from fairtree.hedging import INTERVAL_TOL, STRONGLY_REGULAR

# name -> (seed, branching); all have depth 3 and two assets.  seed 3 at
# branching 2 is complete.
FAIR = {
    "d3b3a2-seed11": (11, 3),
    "d3b2a2-seed3": (3, 2),
    **{f"d3b3a2-seed{seed}": (seed, 3) for seed in range(4)},
}
SCALES = (1e5, 1e6)
RTOL = 1e-9


@lru_cache(maxsize=None)
def market(seed: int, branching: int, arbitrage: bool = False):
    return generate_market(
        seed=seed, depth=3, branching=branching, assets=2, arbitrage=arbitrage
    )


@lru_cache(maxsize=None)
def rescaled(seed: int, branching: int, scale: float, arbitrage: bool = False):
    base = market(seed, branching, arbitrage)
    factors = np.ones((base.n_assets, 1))
    factors[0] = scale
    factors[-1] = 1.0 / scale
    return build_market(base.tree, base.price * factors, base.asset_names)


def pair(name: str, scale: float):
    seed, branching = FAIR[name]
    base = market(seed, branching)
    claim = default_claims(base, seed=1)["call"]
    return base, rescaled(seed, branching, scale), claim


def assert_same(actual, expected):
    """Equal within RTOL relative to the largest magnitude of ``expected``."""
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    size = max(float(np.abs(expected).max()), 1e-300)
    assert float(np.abs(actual - expected).max()) <= RTOL * size


cases = pytest.mark.parametrize(
    "name, scale", [(name, s) for name in FAIR for s in SCALES]
)


class TestAssetScaling:
    @cases
    def test_fairness(self, name, scale):
        base, scaled, _ = pair(name, scale)
        expected, report = check_fair(base), check_fair(scaled)
        assert expected.fair and report.fair
        assert_same(report.interior_radius, expected.interior_radius)
        assert_same(report.witness.values, expected.witness.values)

    @cases
    def test_completeness(self, name, scale):
        base, scaled, _ = pair(name, scale)
        expected, report = check_complete(base), check_complete(scaled)
        assert report.complete == expected.complete
        assert report.dimension == expected.dimension
        assert expected.complete == (name == "d3b2a2-seed3")

    @cases
    def test_superhedging(self, name, scale):
        base, scaled, claim = pair(name, scale)
        expected, interval = superhedge_price(base, claim), superhedge_price(scaled, claim)
        assert_same(interval.upper, expected.upper)
        assert_same(interval.lower, expected.lower)
        assert_same(superhedge_process(scaled, claim), superhedge_process(base, claim))
        assert (
            classify_attainability(scaled, claim).classification
            == classify_attainability(base, claim).classification
        )

    @cases
    def test_decomposition(self, name, scale):
        _, scaled, claim = pair(name, scale)
        process = superhedge_process(scaled, claim)
        result = optional_decomposition(scaled, process)
        tree = scaled.tree
        parent = tree.parent[1:]
        holdings = result.strategy.holdings[:, parent]
        gain = (holdings * (scaled.price[:, 1:] - scaled.price[:, parent])).sum(axis=0)
        drop = result.consumption[1:] - result.consumption[parent]
        identity = process[1:] - process[parent] - gain + drop
        assert float(np.abs(identity).max()) <= 1e-9 * max(1.0, float(np.abs(process).max()))
        assert drop.min() >= -1e-9
        assert (process[tree.leaves] - claim.payoff).min() >= -1e-9

    @cases
    def test_log_optimum(self, name, scale):
        base, scaled, _ = pair(name, scale)
        expected = solve_primal(base, log_utility(), 1.0)
        primal = solve_primal(scaled, log_utility(), 1.0)
        assert_same(primal.value, expected.value)
        assert_same(primal.deflator.values, expected.deflator.values)

    @cases
    def test_whole_tree_oracles(self, name, scale):
        # scaling assets apart moves no answer, so the whole-tree LPs must
        # still match the engine's recursions
        _, scaled, claim = pair(name, scale)
        radius, _ = oracle.lp_interior_radius(scaled)
        assert_same(radius, check_fair(scaled).interior_radius)
        lower, upper, _, _ = oracle.lp_price_interval(scaled, claim)
        interval = superhedge_price(scaled, claim)
        assert_same([lower, upper], [interval.lower, interval.upper])

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("scale", SCALES + (1e8, 1e9))
    def test_arbitrage_twins_stay_unfair(self, seed, scale):
        expected = check_fair(market(seed, 3, arbitrage=True))
        model = rescaled(seed, 3, scale, arbitrage=True)
        report = check_fair(model)
        assert not expected.fair and not report.fair
        cert = report.certificate
        assert cert is not None
        assert cert.node == expected.certificate.node
        ch = list(model.tree.children[cert.node])
        assert cert.cost == float(cert.holdings @ model.price[:, cert.node])
        np.testing.assert_array_equal(cert.payoffs, cert.holdings @ model.price[:, ch])
        assert cert.cost <= 0.0
        # the payoffs' rounding error is that of the CLI's --verify check
        assert cert.payoffs.min() >= -1e-9
        assert cert.payoffs.max() > 1e-10


def apart(seed: int, depth: int, branching: int, scale: float):
    """``generate_market(seed, depth, branching, 2)`` with its first asset
    multiplied by ``scale`` and its second by ``1 / scale``."""
    base = generate_market(seed=seed, depth=depth, branching=branching, assets=2)
    return build_market(base.tree, base.price * np.array([[scale], [1.0 / scale]]))


class TestVertexOracles:
    """The vertex oracles enumerate the whole-tree polytope over scaled
    rows, so a fair market's polytope does not come out empty when its
    assets are scaled apart."""

    def test_cli_verify(self, capsys, tmp_path):
        model = apart(0, 2, 2, 1e6)
        claims = default_claims(model, seed=1)
        path = tmp_path / "apart.market"
        path.write_text(serialize_market(model, claims), encoding="utf-8")
        for argv in (
            ["complete", str(path), "--verify"],
            *(["superhedge", str(path), "--claim", name, "--verify"] for name in claims),
        ):
            code = run_command(argv)
            out = capsys.readouterr().out
            assert code == 0, (argv, out)

    def test_sample_deflators(self):
        model = apart(0, 2, 2, 1e6)
        samples = sample_deflators(model, 3, seed=1)
        assert len(samples) == 3
        assert all(isinstance(m, Deflator) for m in samples)

    @pytest.mark.parametrize("depth, branching", [(2, 2), (2, 3), (1, 4)])
    @pytest.mark.parametrize("scale", (1e6, 1e8))
    def test_oracles_match_the_engine(self, depth, branching, scale):
        for seed in range(3):
            model = apart(seed, depth, branching, scale)
            assert oracle.oracle_complete(model) == check_complete(model).complete
            for claim in default_claims(model, seed=1).values():
                interval = superhedge_price(model, claim)
                lower, upper = oracle.oracle_price_interval(model, claim)
                assert_same([lower, upper], [interval.lower, interval.upper])


CLAIM_SCALES = (1e-8, 1e6, 1e9, 1e12)


class TestClaimScaling:
    @pytest.mark.parametrize("branching, assets", [(3, 2), (4, 2), (2, 1), (3, 1)])
    @pytest.mark.parametrize("scale", CLAIM_SCALES)
    def test_attainability_verdicts(self, branching, assets, scale):
        for seed in range(12):
            model = generate_market(seed=seed, depth=3, branching=branching, assets=assets)
            for claim in default_claims(model, seed=1).values():
                base = classify_attainability(model, claim)
                verdict = classify_attainability(model, Claim(claim.payoff * scale))
                expected = base.classification
                # the strongly-regular test's tolerance has an absolute
                # floor, INTERVAL_TOL, that a small enough claim falls under
                if scale * base.interval.width <= INTERVAL_TOL:
                    expected = STRONGLY_REGULAR
                assert verdict.classification == expected, (seed, claim)


#: the non-unit root level of the large-tree numeraire's second form
ROOT_LEVEL = 2.375


def large_numeraire(model, assets: int) -> np.ndarray:
    """A log-normal numeraire (sigma 0.4) with 1 at the root."""
    scaling = np.exp(np.random.default_rng(assets).normal(0.0, 0.4, model.tree.n_nodes))
    scaling[0] = 1.0
    return scaling


class TestLargeTreeNumeraire:
    """Criterion 9's numeraire change at d6b4a2 and d6b4a5 (5461 nodes): a
    log-normal numeraire (sigma 0.4, 1 at the root) moves no verdict and no
    price bound of a claim moved with it; the same numeraire at a root
    level of ``ROOT_LEVEL`` scales both bounds by exactly that level, and
    keeps the arbitrage twin unfair with a certificate."""

    @pytest.mark.parametrize("assets", (2, 5))
    def test_answers_match_the_unscaled_market(self, assets):
        model = generate_market(seed=7, depth=6, branching=4, assets=assets)
        tree = model.tree
        scaling = large_numeraire(model, assets)
        scaled, lifted = deflate(model, scaling), deflate(model, ROOT_LEVEL * scaling)
        assert check_fair(model).fair and check_fair(scaled).fair
        assert check_complete(scaled).complete == check_complete(model).complete
        for claim in default_claims(model, seed=7).values():
            moved = Claim(scaling[tree.leaves] * claim.payoff)
            base, interval = superhedge_price(model, claim), superhedge_price(scaled, moved)
            assert_same([interval.lower, interval.upper], [base.lower, base.upper])
            assert (
                classify_attainability(scaled, moved).classification
                == classify_attainability(model, claim).classification
            )
            rooted = superhedge_price(lifted, Claim(ROOT_LEVEL * moved.payoff))
            assert_same(
                [rooted.lower, rooted.upper], [ROOT_LEVEL * base.lower, ROOT_LEVEL * base.upper]
            )
        for market in (model, scaled):
            samples = sample_deflators(market, 3, seed=1)
            assert len(samples) == 3
            for m, again in zip(samples, sample_deflators(market, 3, seed=1)):
                check_deflator_values(market, m)
                np.testing.assert_array_equal(m.values, again.values)

    @pytest.mark.parametrize("assets", (2, 5))
    def test_the_arbitrage_twin_stays_unfair(self, assets):
        twin = generate_market(seed=7, depth=6, branching=4, assets=assets, arbitrage=True)
        model = deflate(twin, ROOT_LEVEL * large_numeraire(twin, assets))
        report = check_fair(model)
        assert not check_fair(twin).fair and not report.fair
        cert = report.certificate
        assert cert is not None
        ch = list(model.tree.children[cert.node])
        assert cert.cost == float(cert.holdings @ model.price[:, cert.node])
        np.testing.assert_array_equal(cert.payoffs, cert.holdings @ model.price[:, ch])
        assert cert.cost <= 0.0
        # the payoffs' rounding error is that of the CLI's --verify check
        assert cert.payoffs.min() >= -1e-9
        assert cert.payoffs.max() > 1e-10
