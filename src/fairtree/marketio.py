"""Canonical text formats: market files, reports, and CSV flattening.

Markets and reports share one JSON-syntax format family.  Parsing is
strict -- unknown fields, duplicate keys, and schema violations are
rejected with a JSON-path location -- and serialization writes floats
with 17 significant digits, so ``parse(serialize(model))`` reproduces the
model bit for bit.

Both directions work on whole containers.  The parser checks each tree
entry list, asset price map and claim leaf map at once (exact key set,
known ids, every value's type) and fills it with one ``np.fromiter``;
only when that check fails does it walk the container value by value,
and the first offender in document order names the error, so every
location and message is the one a value-by-value parse gives.  The
emitter writes the scalar children of each dict and list inline and joins
each container once; anything else (numpy values, tuples) takes the
general branch, with the same bytes.
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import json
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import MarketFileError, ModelError
from .market import Claim, MarketModel, ScenarioTree, build_market

MARKET_FORMAT = "fairtree-market/1"
REPORT_FORMAT = "fairtree-report/1"

#: what ``json.dumps`` calls for a string under its defaults
_quote = json.encoder.encode_basestring_ascii


# ---------------------------------------------------------------------------
# JSON emission with explicit float formatting
# ---------------------------------------------------------------------------


def format_float(x: float) -> str:
    """17 significant digits: enough to reproduce any double exactly."""
    if not math.isfinite(x):
        raise ValueError(f"refusing to serialize non-finite number {x!r}")
    return format(float(x), ".17g")


def emit_json(value, indent: int = 2) -> str:
    """Serialize a report-shaped structure (dicts, lists, strings, numbers,
    booleans, None, plus numpy scalars/arrays) as deterministic JSON.

    The standard encoder hardwires ``repr`` for floats; this emitter exists
    to pin the documented 17-significant-digit contract instead.  Dict keys
    keep insertion order.
    """
    return _emit(value, indent, 0) + "\n"


def _emit(value, indent: int, level: int) -> str:
    """Any value: numpy scalars and arrays become Python values, tuples and
    other containers go through :func:`_join`."""
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, (np.floating, np.integer)):
        value = value.item()
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format_float(value)
    if isinstance(value, str):
        return _quote(value)
    if isinstance(value, (dict, list, tuple)):
        return _join(value, indent, level)
    raise TypeError(f"cannot serialize {type(value).__name__} value {value!r}")


def _join(value, indent: int, level: int) -> str:
    """One dict, list or tuple as one joined string.  Children of an exact
    scalar, dict or list type are written here; anything else (numpy
    values, tuples, non-finite floats) goes through :func:`_emit`."""
    is_dict = isinstance(value, dict)
    if not value:
        return "{}" if is_dict else "[]"
    pad = " " * (indent * (level + 1))
    parts = []
    for key, item in value.items() if is_dict else enumerate(value):
        if is_dict and not isinstance(key, str):
            raise TypeError(f"JSON object keys must be strings, got {key!r}")
        kind = type(item)
        if kind is float and math.isfinite(item):
            text = format(item, ".17g")
        elif kind is str:
            text = _quote(item)
        elif kind is int:
            text = str(item)
        elif kind is bool:
            text = "true" if item else "false"
        elif item is None:
            text = "null"
        elif kind is dict or kind is list:
            text = _join(item, indent, level + 1)
        else:
            text = _emit(item, indent, level + 1)
        parts.append(f"{pad}{_quote(key)}: {text}" if is_dict else pad + text)
    close_pad = " " * (indent * level)
    if is_dict:
        return "{\n" + ",\n".join(parts) + f"\n{close_pad}}}"
    return "[\n" + ",\n".join(parts) + f"\n{close_pad}]"


def emit_csv(header, rows) -> str:
    """Flat CSV with the same float formatting as the JSON emitter."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(
            [format_float(cell) if isinstance(cell, float) else cell for cell in row]
        )
    return buffer.getvalue()


def digest_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# market files
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ParsedMarket:
    model: MarketModel
    claims: dict = field(default_factory=dict)
    metadata: dict | None = None
    digest: str = ""
    source: str = "<string>"


class _DuplicateKey(Exception):
    """A repeated key (``args[0]``) in some object of the document,
    located afterwards by :func:`_locate_duplicate`."""


def _reject_duplicates(pairs):
    seen = dict(pairs)
    if len(seen) != len(pairs):
        seen = {}
        for key, value in pairs:
            if key in seen:
                raise _DuplicateKey(key)
            seen[key] = value
    return seen


class _Duplicated(dict):
    """An object with a repeated key, as :func:`_mark_duplicates` decodes
    it: its first repeated key in ``key``."""

    key = None


def _mark_duplicates(pairs):
    seen = _Duplicated()
    for key, value in pairs:
        if key in seen and seen.key is None:
            seen.key = key
        seen[key] = value
    return seen if seen.key is not None else dict(seen)


def _locate_duplicate(text: str, key: str) -> MarketFileError:
    """The error for a document with a repeated key, at the JSON path of
    the first object, in document order, that repeats one.  The document
    is decoded again with each such object marked, then walked; only this
    error path pays for it.  Where the text past the first repeated key
    is not JSON, the error names ``key``, the first repeat the decoder
    met, at ``$``."""
    try:
        pending = [("$", json.loads(text, object_pairs_hook=_mark_duplicates))]
    except json.JSONDecodeError:
        pending = []
    while pending:
        where, value = pending.pop()
        if isinstance(value, _Duplicated):
            return MarketFileError(where, f"duplicate key {value.key!r} in object")
        if isinstance(value, dict):
            items = [(f"{where}.{key}", item) for key, item in value.items()]
        elif isinstance(value, list):
            items = [(f"{where}[{i}]", item) for i, item in enumerate(value)]
        else:
            continue
        pending.extend(reversed(items))
    return MarketFileError("$", f"duplicate key {key!r} in object")


def _reject_constant(token):
    raise MarketFileError("$", f"non-finite number {token!r} is not allowed")


def _expect_object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise MarketFileError(where, f"expected an object, got {type(value).__name__}")
    return value


def _expect_number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise MarketFileError(where, f"expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise MarketFileError(where, "integer too large for a double") from None


def _expect_string(value, where: str) -> str:
    if not isinstance(value, str):
        raise MarketFileError(where, f"expected a string, got {value!r}")
    return value


#: the exact field set of a tree entry, and its fields in tuple order
_NODE_FIELDS = frozenset(("id", "parent", "prob"))
_NODE_ROW = operator.itemgetter("id", "parent", "prob")
#: the exact types ``json.loads`` gives each kind of value (bool is no number)
_STRING = frozenset((str,))
_PARENT = frozenset((str, type(None)))
_NUMBER = frozenset((int, float))


def _check_fields(obj: dict, where: str, required, optional=()) -> None:
    for name in required:
        if name not in obj:
            raise MarketFileError(where, f"missing required field {name!r}")
    for name in obj:
        if name not in required and name not in optional:
            raise MarketFileError(f"{where}.{name}", "unknown field")


def _tree_nodes(entries: list) -> list:
    """The tree entries as ``(id, parent, prob)`` triples.  The whole list
    is checked at once; the entry loop runs only when that check fails (or
    an integer prob overflows a double), to name the first offender."""
    if all(type(entry) is dict and entry.keys() == _NODE_FIELDS for entry in entries):
        ids, parents, probs = zip(*map(_NODE_ROW, entries))
        if (
            _STRING.issuperset(map(type, ids))
            and _PARENT.issuperset(map(type, parents))
            and _NUMBER.issuperset(map(type, probs))
        ):
            try:
                return list(zip(ids, parents, map(float, probs)))
            except OverflowError:
                pass
    nodes = []
    for i, entry in enumerate(entries):
        where = f"$.tree[{i}]"
        entry = _expect_object(entry, where)
        _check_fields(entry, where, required=("id", "parent", "prob"))
        node_id = _expect_string(entry["id"], f"{where}.id")
        parent = entry["parent"]
        if parent is not None:
            parent = _expect_string(parent, f"{where}.parent")
        prob = _expect_number(entry["prob"], f"{where}.prob")
        nodes.append((node_id, parent, prob))
    return nodes


def _price_row(levels: dict, known: dict, where: str) -> np.ndarray:
    """One asset's prices in node order (``known`` maps node id to index).
    The map is checked whole; the per-price loop runs only when that check
    fails (or an integer overflows a double), to name the first offender."""
    if levels.keys() == known.keys() and _NUMBER.issuperset(map(type, levels.values())):
        try:
            return np.fromiter(map(levels.__getitem__, known), float, len(known))
        except OverflowError:
            pass
    row = np.zeros(len(known))
    for node_id, price in levels.items():
        if node_id not in known:
            raise MarketFileError(f"{where}.{node_id}", "unknown node id")
        row[known[node_id]] = _expect_number(price, f"{where}.{node_id}")
    missing = [node_id for node_id in known if node_id not in levels]
    if missing:
        raise MarketFileError(where, f"no price for node {missing[0]!r}")
    return row


def _payoff_row(payoffs: dict, leaf_ids: dict, where: str) -> np.ndarray:
    """One claim's payoffs in leaf order, 0 where the map names no leaf.
    Checked whole like :func:`_price_row`."""
    if payoffs.keys() <= leaf_ids.keys() and _NUMBER.issuperset(map(type, payoffs.values())):
        try:
            return np.fromiter(
                map(payoffs.get, leaf_ids, itertools.repeat(0.0)), float, len(leaf_ids)
            )
        except OverflowError:
            pass
    values = np.zeros(len(leaf_ids))
    for leaf_id, payoff in payoffs.items():
        if leaf_id not in leaf_ids:
            raise MarketFileError(f"{where}.{leaf_id}", "not a leaf node id")
        values[leaf_ids[leaf_id]] = _expect_number(payoff, f"{where}.{leaf_id}")
    return values


def parse_market_text(text: str, source: str = "<string>") -> ParsedMarket:
    """Parse a market document; all problems raise :class:`MarketFileError`
    whose location is a JSON path like ``$.assets.stock.n3``."""
    try:
        doc = json.loads(
            text, object_pairs_hook=_reject_duplicates, parse_constant=_reject_constant
        )
    except json.JSONDecodeError as exc:
        raise MarketFileError(
            "$", f"invalid JSON: {exc.msg} (line {exc.lineno} column {exc.colno})"
        ) from None
    except _DuplicateKey as exc:
        raise _locate_duplicate(text, exc.args[0]) from None
    doc = _expect_object(doc, "$")
    _check_fields(doc, "$", required=("format", "tree", "assets"),
                  optional=("claims", "metadata"))
    fmt = _expect_string(doc["format"], "$.format")
    if fmt != MARKET_FORMAT:
        raise MarketFileError(
            "$.format", f"unsupported format {fmt!r}; expected {MARKET_FORMAT!r}"
        )

    entries = doc["tree"]
    if not isinstance(entries, list) or not entries:
        raise MarketFileError("$.tree", "expected a non-empty list of nodes")
    try:
        tree = ScenarioTree.build(_tree_nodes(entries))
    except ModelError as exc:
        raise MarketFileError("$.tree", str(exc)) from None

    assets = _expect_object(doc["assets"], "$.assets")
    if not assets:
        raise MarketFileError("$.assets", "at least one asset is required")
    known = dict(zip(tree.ids, range(tree.n_nodes)))
    prices = np.zeros((len(assets), tree.n_nodes))
    for a, (name, levels) in enumerate(assets.items()):
        where = f"$.assets.{name}"
        prices[a] = _price_row(_expect_object(levels, where), known, where)
    try:
        model = build_market(tree, prices, tuple(assets))
    except ModelError as exc:
        raise MarketFileError("$.assets", str(exc)) from None

    claims: dict = {}
    leaf_ids = {tree.ids[leaf]: j for j, leaf in enumerate(tree.leaves.tolist())}
    for name, payoffs in _expect_object(doc.get("claims", {}), "$.claims").items():
        where = f"$.claims.{name}"
        values = _payoff_row(_expect_object(payoffs, where), leaf_ids, where)
        try:
            claims[name] = Claim(values)
        except ModelError as exc:
            raise MarketFileError(where, str(exc)) from None

    metadata = doc.get("metadata")
    if metadata is not None:
        metadata = _expect_object(metadata, "$.metadata")
    return ParsedMarket(
        model=model,
        claims=claims,
        metadata=metadata,
        digest=digest_text(text),
        source=source,
    )


def parse_market(path) -> ParsedMarket:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise MarketFileError(str(path), exc.strerror or str(exc)) from None
    return parse_market_text(text, source=str(path))


def market_document(model: MarketModel, claims=None, metadata=None) -> dict:
    """The canonical market document as a dict, ready for :func:`emit_json`;
    leaf maps list every leaf explicitly."""
    tree = model.tree
    ids = tree.ids
    parents = [None] + [ids[p] for p in tree.parent[1:].tolist()]
    leaf_ids = [ids[leaf] for leaf in tree.leaves.tolist()]
    doc = {
        "format": MARKET_FORMAT,
        "tree": [
            {"id": node_id, "parent": parent, "prob": prob}
            for node_id, parent, prob in zip(ids, parents, tree.branch_prob.tolist())
        ],
        "assets": {
            name: dict(zip(ids, row))
            for name, row in zip(model.asset_names, model.price.tolist())
        },
        "claims": {
            name: dict(zip(leaf_ids, claim.payoff.tolist()))
            for name, claim in (claims or {}).items()
        },
    }
    if metadata is not None:
        doc["metadata"] = metadata
    return doc


def serialize_market(model: MarketModel, claims=None, metadata=None) -> str:
    """Canonical market document text; see :func:`market_document`."""
    return emit_json(market_document(model, claims, metadata))


def markets_identical(a: MarketModel, b: MarketModel) -> bool:
    """Exact structural equality: ids, shape, probabilities, prices, names."""
    return (
        a.tree.ids == b.tree.ids
        and a.asset_names == b.asset_names
        and np.array_equal(a.tree.parent, b.tree.parent)
        and np.array_equal(a.tree.branch_prob, b.tree.branch_prob)
        and np.array_equal(a.price, b.price)
    )
