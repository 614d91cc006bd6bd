"""Shared fixtures and corpus helpers.

The two bundled markets (``b1``, ``t1``) carry the hand-derived numbers
used throughout; ``two_period`` is a small multi-period market built
inline so tests exercise depth > 1 without touching the generator.
Corpus helpers deterministically fan out over a fixed shape table so
every suite sees the same mix of depths, branchings and asset counts.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import settings

from fairtree import Claim, ScenarioTree, build_market, default_claims, generate_market
from fairtree.data import load

settings.register_profile("fairtree", deadline=None, derandomize=True)
settings.load_profile("fairtree")

# depth, branching, assets -- all within the generator guards and small
# enough that every suite that walks a corpus stays well under a minute.
SHAPES = [
    (1, 2, 1),
    (1, 3, 2),
    (2, 2, 2),
    (2, 3, 1),
    (3, 2, 3),
    (2, 2, 3),
    (3, 3, 2),
    (4, 2, 2),
    (2, 3, 3),
    (4, 3, 1),
]


def corpus_shape(i: int) -> tuple[int, int, int]:
    return SHAPES[i % len(SHAPES)]


@lru_cache(maxsize=None)
def fair_corpus(count: int, seed0: int = 1000):
    """``count`` deterministic fair markets cycling through SHAPES."""
    out = []
    for i in range(count):
        depth, branching, assets = corpus_shape(i)
        out.append(
            generate_market(
                seed=seed0 + i, depth=depth, branching=branching, assets=assets
            )
        )
    return out


@lru_cache(maxsize=None)
def arb_corpus(count: int, seed0: int = 1000):
    """The unfair twins of :func:`fair_corpus` (same seeds, same shapes)."""
    out = []
    for i in range(count):
        depth, branching, assets = corpus_shape(i)
        out.append(
            generate_market(
                seed=seed0 + i,
                depth=depth,
                branching=branching,
                assets=assets,
                arbitrage=True,
            )
        )
    return out


def shuffled_tree(rng) -> ScenarioTree:
    """A random depth-3 tree with 1-4 children per node, listed in a random
    order that keeps parents before children."""
    parent, time, k = [-1], [0], 0
    while k < len(parent):
        if time[k] < 3:
            count = int(rng.integers(1, 5))
            parent += [k] * count
            time += [time[k] + 1] * count
        k += 1
    n = len(parent)
    probs = rng.random(n) + 0.1
    probs[1:] /= np.bincount(parent[1:], weights=probs[1:], minlength=n)[parent[1:]]
    order, ready = [], [0]
    while ready:
        k = ready.pop(int(rng.integers(len(ready))))
        order.append(k)
        ready += [c for c in range(n) if parent[c] == k]
    return ScenarioTree.build(
        [(f"n{k}", None if k == 0 else f"n{parent[k]}", probs[k] if k else 1.0)
         for k in order]
    )


def priced_market(tree: ScenarioTree, rng, assets: int):
    """A fair market on ``tree``: a bond worth 1 at the leaves and random
    positive leaf prices for the other assets, priced back to every node
    by random positive deflator ratios."""
    ratio = rng.uniform(0.7, 1.3, tree.n_nodes)
    prices = np.ones((assets, tree.n_nodes))
    prices[1:, tree.leaves] = rng.uniform(0.5, 2.0, (assets - 1, tree.n_leaves))
    for k in range(tree.n_nodes - 1, -1, -1):
        ch = list(tree.children[k])
        if ch:
            prices[:, k] = prices[:, ch] @ (tree.branch_prob[ch] * ratio[ch])
    return build_market(tree, prices)


def mixed_market(seed: int):
    """A fair market of two or three assets on a :func:`shuffled_tree`,
    whose nodes have 1-4 children."""
    rng = np.random.default_rng(seed)
    return priced_market(shuffled_tree(rng), rng, 2 + seed % 2)


def wide_market(children: int = 30):
    """One step to ``children`` leaves, a bond and a stock, fair by
    construction: child prices are scaled so that chosen positive ratios
    price both assets."""
    rng = np.random.default_rng(children)
    probs = rng.dirichlet(np.ones(children))
    ratios = rng.uniform(0.5, 1.5, children)
    raw = np.vstack([np.ones(children), rng.uniform(0.5, 2.0, children)])
    child = raw / (raw @ (probs * ratios))[:, np.newaxis]
    tree = ScenarioTree.build(
        [("r", None, 1.0)] + [(f"c{j}", "r", float(p)) for j, p in enumerate(probs)]
    )
    prices = np.hstack([np.ones((2, 1)), child])
    return build_market(tree, prices, ("bond", "stock")), Claim(rng.uniform(0.0, 1.0, children))


def corpus_claim(model, i: int, seed0: int = 1000):
    """The 'random' example claim for corpus entry ``i``."""
    return default_claims(model, seed=seed0 + i)["random"]


@pytest.fixture(scope="session")
def b1():
    return load("b1")


@pytest.fixture(scope="session")
def t1():
    return load("t1")


@pytest.fixture(scope="session")
def b1_model(b1):
    return b1.model


@pytest.fixture(scope="session")
def t1_model(t1):
    return t1.model


@pytest.fixture(scope="session")
def two_period():
    """Two-period recombining-looking (but tree-shaped) market, two assets.

    Bond is constant; the stock doubles or halves each step.  Complete at
    every node (binary branching, two independent assets), so it exercises
    multi-period replication exactly.
    """
    tree = ScenarioTree.build(
        [
            ("r", None, 1.0),
            ("u", "r", 0.5),
            ("d", "r", 0.5),
            ("uu", "u", 0.5),
            ("ud", "u", 0.5),
            ("du", "d", 0.5),
            ("dd", "d", 0.5),
        ]
    )
    prices = [
        [1, 1, 1, 1, 1, 1, 1],
        [1, 2, 0.5, 4, 1, 1, 0.25],
    ]
    return build_market(tree, prices, ("bond", "stock"))
