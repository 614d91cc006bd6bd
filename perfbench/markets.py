"""Seeded market generator and document writer of the benchmark.

It repeats the construction of ``fairtree.generate`` without calling it:
per node, a strictly positive deflator ratio per child is drawn first, then
raw child-price shapes are rescaled so those ratios price every asset
exactly.  The product of the ratios along each path is therefore a strictly
positive deflator known by construction, which the checks use as an
independent interior point.  Documents are written with the standard
library's JSON encoder (``repr`` floats round-trip exactly), so a change in
the package's serializer cannot change the inputs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

TWIN_ASSET = "dominated"
TWIN_MARKUP = 0.25


@dataclass(frozen=True, eq=False)
class Market:
    """One benchmark market, held as plain arrays in document order."""

    name: str
    ids: tuple
    parent: np.ndarray          # parent index per node, -1 at the root
    prob: np.ndarray            # conditional branch probability per node
    children: tuple             # tuple of child-index tuples per node
    price: np.ndarray           # assets x nodes
    asset_names: tuple
    claims: dict                # claim name -> payoff per leaf
    deflator: np.ndarray | None  # construction deflator (None for twins)
    twin: bool = False

    @property
    def n_nodes(self) -> int:
        return len(self.ids)

    @property
    def leaves(self) -> np.ndarray:
        return np.asarray([k for k, ch in enumerate(self.children) if not ch])

    @property
    def path_prob(self) -> np.ndarray:
        out = np.ones(self.n_nodes)
        for k in range(1, self.n_nodes):
            out[k] = out[self.parent[k]] * self.prob[k]
        return out

    def index(self) -> dict:
        return {node_id: k for k, node_id in enumerate(self.ids)}


def make_market(name: str, seed, depth: int, branching: int, assets: int) -> Market:
    """A fair market on the uniform tree of the given shape.

    ``seed`` is anything ``numpy.random.default_rng`` accepts; the same
    seed and shape give the same market bit for bit.
    """
    rng = np.random.default_rng(seed)
    ids = ["r"]
    parent = [-1]
    prob = [1.0]
    frontier = [0]
    for _ in range(depth):
        next_frontier = []
        for k in frontier:
            weights = rng.gamma(2.0, 1.0, size=branching)
            weights /= weights.sum()
            for j in range(branching):
                ids.append(f"{ids[k]}{j}")
                parent.append(k)
                prob.append(float(weights[j]))
                next_frontier.append(len(ids) - 1)
        frontier = next_frontier
    n = len(ids)
    children = [[] for _ in range(n)]
    for k in range(1, n):
        children[parent[k]].append(k)
    prob_arr = np.asarray(prob)

    price = np.zeros((assets, n))
    price[:, 0] = rng.uniform(0.5, 2.0, size=assets)
    deflator = np.ones(n)
    sigma = 0.2 + 0.15 * np.arange(assets)
    for k in range(n):
        ch = children[k]
        if not ch:
            continue
        p = prob_arr[ch]
        ratio = rng.lognormal(0.0, 0.35, size=len(ch))
        deflator[ch] = deflator[k] * ratio
        for a in range(assets):
            shape = rng.lognormal(0.0, sigma[a], size=len(ch))
            price[a, ch] = price[a, k] * shape / ((p * ratio) @ shape)

    leaves = [k for k in range(n) if not children[k]]
    terminal = price[0, leaves]
    digital = np.zeros(len(leaves))
    digital[int(np.argmax(terminal))] = 1.0
    claims = {
        "call": np.maximum(terminal - price[0, 0], 0.0),
        "digital": digital,
        "random": rng.uniform(0.0, 2.0, size=len(leaves)),
    }
    return Market(
        name=name,
        ids=tuple(ids),
        parent=np.asarray(parent),
        prob=prob_arr,
        children=tuple(tuple(ch) for ch in children),
        price=price,
        asset_names=tuple(f"asset{a}" for a in range(assets)),
        claims=claims,
        deflator=deflator,
    )


def make_twin(market: Market) -> Market:
    """The arbitrage twin: one more asset that copies the first asset
    everywhere except the root, where it costs 25% more.  Buying the first
    asset against it is a one-step arbitrage, so the twin is unfair."""
    marked = market.price[0].copy()
    marked[0] *= 1.0 + TWIN_MARKUP
    return Market(
        name=market.name + "-twin",
        ids=market.ids,
        parent=market.parent,
        prob=market.prob,
        children=market.children,
        price=np.vstack([market.price, marked[np.newaxis, :]]),
        asset_names=market.asset_names + (TWIN_ASSET,),
        claims=market.claims,
        deflator=None,
        twin=True,
    )


def document(market: Market) -> str:
    """The market as a ``fairtree-market/1`` document."""
    leaves = market.leaves
    doc = {
        "format": "fairtree-market/1",
        "tree": [
            {
                "id": market.ids[k],
                "parent": None if k == 0 else market.ids[market.parent[k]],
                "prob": float(market.prob[k]),
            }
            for k in range(market.n_nodes)
        ],
        "assets": {
            name: {market.ids[k]: float(market.price[a, k]) for k in range(market.n_nodes)}
            for a, name in enumerate(market.asset_names)
        },
        "claims": {
            name: {market.ids[leaf]: float(payoff[j]) for j, leaf in enumerate(leaves)}
            for name, payoff in market.claims.items()
        },
    }
    return json.dumps(doc, indent=1) + "\n"


def from_document(name: str, text: str) -> Market:
    """Read a document into benchmark arrays (used for the bundled markets,
    which have no construction deflator)."""
    doc = json.loads(text)
    ids = tuple(entry["id"] for entry in doc["tree"])
    index = {node_id: k for k, node_id in enumerate(ids)}
    parent = np.asarray(
        [-1 if e["parent"] is None else index[e["parent"]] for e in doc["tree"]]
    )
    children = [[] for _ in ids]
    for k in range(1, len(ids)):
        children[parent[k]].append(k)
    leaves = [k for k in range(len(ids)) if not children[k]]
    names = tuple(doc["assets"])
    price = np.asarray([[float(doc["assets"][a][i]) for i in ids] for a in names])
    claims = {
        c: np.asarray([float(values[ids[leaf]]) for leaf in leaves])
        for c, values in doc.get("claims", {}).items()
    }
    return Market(
        name=name,
        ids=ids,
        parent=parent,
        prob=np.asarray([float(e["prob"]) for e in doc["tree"]]),
        children=tuple(tuple(ch) for ch in children),
        price=price,
        asset_names=names,
        claims=claims,
        deflator=None,
    )
