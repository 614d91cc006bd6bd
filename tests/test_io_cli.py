"""Market document parsing/serialization and the command-line interface."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import fairtree
import fairtree.cli
from fairtree import MarketFileError, default_claims, generate_market
from fairtree.cli import run_command
from fairtree.data import text as bundled_text
from fairtree.marketio import (
    digest_text,
    emit_csv,
    emit_json,
    format_float,
    markets_identical,
    parse_market,
    parse_market_text,
    serialize_market,
)

T1_LOG_VALUE = float(np.log(9 / 8) / 3)


# ---------------------------------------------------------------------------
# serialization primitives
# ---------------------------------------------------------------------------


class TestFormatting:
    @pytest.mark.parametrize(
        "x", [0.1, 1 / 3, 2 / 3, 1e-17, 1e300, -0.0, 123456789.123456789]
    )
    def test_float_round_trip_is_exact(self, x):
        assert float(format_float(x)) == x

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            format_float(float("nan"))
        with pytest.raises(ValueError):
            format_float(float("inf"))

    def test_emit_json_handles_numpy(self):
        doc = json.loads(emit_json({"a": np.float64(0.1), "b": np.arange(3), "c": None}))
        assert doc == {"a": 0.1, "b": [0, 1, 2], "c": None}

    def test_emit_json_is_deterministic(self):
        payload = {"z": 1.5, "a": [True, False], "nested": {"k": 2 / 3}}
        assert emit_json(payload) == emit_json(payload)

    def test_emit_json_golden_bytes(self):
        value = {
            "format": "fairtree-report/1",
            "scalars": [np.float64(0.1), np.int64(-7), np.float32(0.5), True, False, None,
                        -0.0, 1e-300, 1e17, 2 / 3, 12, 10**20],
            "array": np.array([[1.5, -0.0], [np.pi, 1e17]]),
            "ints": np.arange(3),
            "pair": (1, "two", (3.25, [])),
            "empty": {"list": [], "dict": {}, "tuple": (), "array": np.zeros(0),
                      "nested": [[], {}, [{}]]},
            "text": ["café – \U0001d11e", 'tab\there "quoted" back\\slash\n',
                     "\x00\x1f", ""],
            "nésted": {"deep": {"deeper": [{"k": np.float64(-1.25e-5)}]}},
        }
        lines = [
            '{',
            '  "format": "fairtree-report/1",',
            '  "scalars": [',
            '    0.10000000000000001,',
            '    -7,',
            '    0.5,',
            '    true,',
            '    false,',
            '    null,',
            '    -0,',
            '    1e-300,',
            '    1e+17,',
            '    0.66666666666666663,',
            '    12,',
            '    100000000000000000000',
            '  ],',
            '  "array": [',
            '    [',
            '      1.5,',
            '      -0',
            '    ],',
            '    [',
            '      3.1415926535897931,',
            '      1e+17',
            '    ]',
            '  ],',
            '  "ints": [',
            '    0,',
            '    1,',
            '    2',
            '  ],',
            '  "pair": [',
            '    1,',
            '    "two",',
            '    [',
            '      3.25,',
            '      []',
            '    ]',
            '  ],',
            '  "empty": {',
            '    "list": [],',
            '    "dict": {},',
            '    "tuple": [],',
            '    "array": [],',
            '    "nested": [',
            '      [],',
            '      {},',
            '      [',
            '        {}',
            '      ]',
            '    ]',
            '  },',
            '  "text": [',
            r'    "caf\u00e9 \u2013 \ud834\udd1e",',
            r'    "tab\there \"quoted\" back\\slash\n",',
            r'    "\u0000\u001f",',
            '    ""',
            '  ],',
            r'  "n\u00e9sted": {',
            '    "deep": {',
            '      "deeper": [',
            '        {',
            '          "k": -1.2500000000000001e-05',
            '        }',
            '      ]',
            '    }',
            '  }',
            '}',
        ]
        assert emit_json(value) == "\n".join(lines) + "\n"
        assert emit_json([1.0, [2.0, {"a": None}]], indent=0) == (
            '[\n1,\n[\n2,\n{\n"a": null\n}\n]\n]\n'
        )

    @pytest.mark.parametrize(
        "value, error, message",
        [
            ([1.0, float("nan")], ValueError, "refusing to serialize non-finite number nan"),
            ({"a": np.array([1.0, np.nan])}, ValueError,
             "refusing to serialize non-finite number nan"),
            ([np.array([np.inf])], ValueError, "refusing to serialize non-finite number inf"),
            ({1: 2.0}, TypeError, "JSON object keys must be strings, got 1"),
            ({"a": {2.5: 1}}, TypeError, "JSON object keys must be strings, got 2.5"),
        ],
    )
    def test_emit_json_refusals(self, value, error, message):
        with pytest.raises(error) as info:
            emit_json(value)
        assert str(info.value) == message

    def test_emit_csv_quoting_and_floats(self):
        out = emit_csv(["name", "value"], [["a,b", 1 / 3]])
        lines = out.splitlines()
        assert lines[0] == "name,value"
        assert lines[1].startswith('"a,b",0.333333333')

    def test_digest_is_sha256(self):
        assert digest_text("") == (
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        )


# ---------------------------------------------------------------------------
# document parsing
# ---------------------------------------------------------------------------


def minimal_doc(**overrides):
    doc = {
        "format": "fairtree-market/1",
        "tree": [
            {"id": "r", "parent": None, "prob": 1},
            {"id": "u", "parent": "r", "prob": 0.5},
            {"id": "d", "parent": "r", "prob": 0.5},
        ],
        "assets": {"bond": {"r": 1, "u": 1, "d": 1}},
    }
    doc.update(overrides)
    return doc


class TextEdit:
    """A mutation of a document's JSON text, for what a dict cannot hold:
    duplicate keys and numbers that overflow to infinity."""

    def __init__(self, old, new):
        self.old, self.new = old, new

    def __call__(self, text):
        assert self.old in text
        return text.replace(self.old, self.new, 1)


def _case(mutate, location, message, name=None):
    # the cases without a name keep the ids pytest generated for them
    # before their messages were pinned
    return pytest.param(mutate, location, message, id=name or f"<lambda>-{location}")


def _stray_parent(d):
    d["tree"][1]["parant"] = d["tree"][1].pop("parent")


ERROR_CASES = [
    _case(lambda d: d.pop("format"), "$", "missing required field 'format'"),
    _case(lambda d: d.update(format="fairtree-market/2"), "$.format",
          "unsupported format 'fairtree-market/2'; expected 'fairtree-market/1'"),
    _case(lambda d: d.update(extra=1), "$.extra", "unknown field"),
    _case(lambda d: d.update(tree={}), "$.tree", "expected a non-empty list of nodes"),
    _case(lambda d: d["tree"][1].pop("prob"), "$.tree[1]", "missing required field 'prob'"),
    _case(lambda d: d["tree"][1].update(prob="x"), "$.tree[1].prob",
          "expected a number, got 'x'"),
    _case(lambda d: d["tree"][0].update(parent=3), "$.tree[0].parent",
          "expected a string, got 3"),
    _case(lambda d: d.update(assets={}), "$.assets", "at least one asset is required"),
    _case(lambda d: d["assets"]["bond"].update(zz=1), "$.assets.bond.zz", "unknown node id"),
    _case(lambda d: d["assets"]["bond"].pop("u"), "$.assets.bond", "no price for node 'u'"),
    _case(lambda d: d.update(claims={"c": {"r": 1}}), "$.claims.c.r", "not a leaf node id"),
    _case(lambda d: d.update(claims={"c": {"u": -1}}), "$.claims.c",
          "claim payoffs must be finite and nonnegative"),
    _case(lambda d: d.update(metadata=[1]), "$.metadata", "expected an object, got list"),
    # one case per branch of the one-by-one checks behind the whole-map ones
    _case(lambda d: d["tree"][1].update(prob=True), "$.tree[1].prob",
          "expected a number, got True", "bool-prob"),
    _case(lambda d: d["assets"]["bond"].update(d=False), "$.assets.bond.d",
          "expected a number, got False", "bool-price"),
    _case(lambda d: d.update(claims={"c": {"u": 1, "d": "0"}}), "$.claims.c.d",
          "expected a number, got '0'", "string-payoff"),
    _case(lambda d: d["assets"].update(bond={"r": 1, "u": 1, "d": 1, "x": 1}),
          "$.assets.bond.x", "unknown node id", "unknown-id-after-valid-ones"),
    _case(lambda d: d["assets"].update(bond={"r": 1, "d": 1}), "$.assets.bond",
          "no price for node 'u'", "missing-price"),
    _case(TextEdit('{"id": "u", "parent": "r"', '{"id": "u", "parent": "r", "id": "u"'),
          "$.tree[1]", "duplicate key 'id' in object", "duplicate-key-in-entry"),
    _case(TextEdit('{"r": 1, "u": 1', '{"r": 1, "u": 1, "r": 1'),
          "$.assets.bond", "duplicate key 'r' in object", "duplicate-key-in-prices"),
    _case(TextEdit('"format": "fairtree-market/1"',
                   '"format": "fairtree-market/1", "format": "fairtree-market/1"'),
          "$", "duplicate key 'format' in object", "duplicate-key-at-the-top"),
    _case(TextEdit('{"id": "r", "parent": null', '{"id": "r", "parent": null, "parent": null'),
          "$.tree[0]", "duplicate key 'parent' in object", "duplicate-key-in-first-entry"),
    _case(_stray_parent, "$.tree[1]", "missing required field 'parent'", "stray-field"),
    _case(TextEdit('"u": 1,', '"u": 1e999,'), "$.assets", "prices must be finite",
          "overflowing-price"),
    _case(TextEdit('"prob": 0.5', '"prob": 1e999'), "$.tree",
          "node 'u': branch probability must lie in (0, 1], got inf", "overflowing-prob"),
    # integers too large for a double, which json.loads keeps exact
    _case(TextEdit('"u": 1,', f'"u": {"9" * 400},'), "$.assets.bond.u",
          "integer too large for a double", "huge-integer-price"),
    _case(TextEdit('"prob": 0.5', f'"prob": {"9" * 400}'), "$.tree[1].prob",
          "integer too large for a double", "huge-integer-prob"),
    _case(lambda d: d.update(claims={"c": {"u": 1, "d": int("9" * 400)}}), "$.claims.c.d",
          "integer too large for a double", "huge-integer-payoff"),
]


class TestParseMarket:
    def test_parses_the_bundled_markets(self):
        for name in ("b1", "t1"):
            parsed = parse_market_text(bundled_text(name))
            assert parsed.model.tree.ids[0] == "r"
            assert parsed.digest == digest_text(bundled_text(name))

    def test_round_trip_identity(self, t1):
        document = serialize_market(t1.model, t1.claims, t1.metadata)
        again = parse_market_text(document)
        assert markets_identical(t1.model, again.model)
        assert set(again.claims) == set(t1.claims)
        for name in t1.claims:
            np.testing.assert_array_equal(
                again.claims[name].payoff, t1.claims[name].payoff
            )
        assert again.metadata == t1.metadata

    def test_round_trip_survives_generated_markets(self):
        model = generate_market(seed=321, depth=3, branching=3, assets=3)
        claims = default_claims(model, seed=321)
        again = parse_market_text(serialize_market(model, claims))
        assert markets_identical(model, again.model)

    @pytest.mark.parametrize("mutate, location, message", ERROR_CASES)
    def test_error_locations(self, mutate, location, message):
        doc = minimal_doc()
        if isinstance(mutate, TextEdit):
            text = mutate(json.dumps(doc))
        else:
            mutate(doc)
            text = json.dumps(doc)
        with pytest.raises(MarketFileError) as info:
            parse_market_text(text)
        assert (info.value.location, info.value.reason) == (location, message)

    @pytest.mark.parametrize("seed", range(3))
    def test_shuffled_maps_parse_alike(self, seed):
        model = generate_market(seed=40 + seed, depth=2, branching=3, assets=2)
        claims = default_claims(model, seed=40 + seed)
        doc = json.loads(serialize_market(model, claims))
        rng = np.random.default_rng(seed)

        def shuffled(mapping):
            keys = list(mapping)
            return {keys[i]: mapping[keys[i]] for i in rng.permutation(len(keys))}

        doc["assets"] = {name: shuffled(levels) for name, levels in doc["assets"].items()}
        doc["claims"] = {name: shuffled(leaves) for name, leaves in doc["claims"].items()}
        again = parse_market_text(json.dumps(doc))
        assert markets_identical(model, again.model)
        assert set(again.claims) == set(claims)
        for name, claim in claims.items():
            np.testing.assert_array_equal(again.claims[name].payoff, claim.payoff)

    def test_invalid_json_reports_position(self):
        with pytest.raises(MarketFileError, match="invalid JSON"):
            parse_market_text("{not json")

    def test_duplicate_keys_rejected(self):
        text = '{"format": "fairtree-market/1", "format": "fairtree-market/1"}'
        with pytest.raises(MarketFileError, match="duplicate key"):
            parse_market_text(text)

    def test_duplicate_key_before_malformed_text_stays_at_the_root(self):
        text = '{"tree": [{"id": "r", "id": "r"}], "assets": '
        with pytest.raises(MarketFileError) as info:
            parse_market_text(text)
        assert (info.value.location, info.value.reason) == ("$", "duplicate key 'id' in object")

    def test_first_duplicate_in_document_order_is_reported(self):
        text = '{"tree": [{"id": "r", "id": "r"}], "tree": []}'
        with pytest.raises(MarketFileError) as info:
            parse_market_text(text)
        assert (info.value.location, info.value.reason) == ("$", "duplicate key 'tree' in object")

    def test_non_finite_numbers_rejected(self):
        doc = json.dumps(minimal_doc()).replace('"prob": 1}', '"prob": NaN}', 1)
        assert "NaN" in doc
        with pytest.raises(MarketFileError, match="non-finite"):
            parse_market_text(doc)

    def test_tree_invariants_surface_as_file_errors(self):
        doc = minimal_doc()
        doc["tree"][2]["prob"] = 0.25  # siblings no longer sum to one
        with pytest.raises(MarketFileError) as info:
            parse_market_text(json.dumps(doc))
        assert info.value.location == "$.tree"

    def test_market_invariants_surface_as_file_errors(self):
        doc = minimal_doc()
        doc["assets"]["bond"]["u"] = -1
        with pytest.raises(MarketFileError) as info:
            parse_market_text(json.dumps(doc))
        assert info.value.location == "$.assets"

    def test_missing_file(self, tmp_path):
        with pytest.raises(MarketFileError):
            parse_market(tmp_path / "nope.market")


# ---------------------------------------------------------------------------
# command-line interface
# ---------------------------------------------------------------------------


@pytest.fixture()
def b1_path(tmp_path):
    path = tmp_path / "b1.market"
    path.write_text(bundled_text("b1"), encoding="utf-8")
    return str(path)


@pytest.fixture()
def t1_path(tmp_path):
    path = tmp_path / "t1.market"
    path.write_text(bundled_text("t1"), encoding="utf-8")
    return str(path)


def run_json(capsys, argv, expect=0):
    code = run_command(argv)
    out = capsys.readouterr().out
    assert code == expect, out
    return json.loads(out)


class TestCli:
    def test_validate(self, capsys, t1_path):
        report = run_json(capsys, ["validate", t1_path, "--verify"])
        assert report["command"] == "validate"
        assert report["nodes"] == 4
        assert report["claims"] == ["digital-up", "stock-claim"]
        assert report["verify"] == {"round_trip": "ok"}
        assert report["inputs"]["sha256"] == digest_text(bundled_text("t1"))

    def test_fair_witness(self, capsys, t1_path):
        report = run_json(capsys, ["fair", t1_path, "--verify"])
        assert report["fair"] is True
        assert report["interior_radius"] == pytest.approx(0.75, abs=1e-6)
        assert report["witness"]["r"] == pytest.approx(1.0)

    def test_fair_verdict_exit_code(self, capsys, tmp_path):
        model = generate_market(seed=3, depth=2, branching=2, assets=2, arbitrage=True)
        path = tmp_path / "arb.market"
        path.write_text(serialize_market(model), encoding="utf-8")
        report = run_json(capsys, ["fair", str(path), "--verify"], expect=1)
        assert report["fair"] is False
        assert report["certificate"]["cost"] <= 1e-9
        assert report["verify"] == {"certificate": "valid one-step arbitrage"}

    def test_fair_custom_threshold_tightens(self, capsys, t1_path):
        argv = ["fair", t1_path, "--tolerance", "0.9"]
        report = run_json(capsys, argv, expect=1)
        assert report["fair"] is False
        assert report["certificate"] is None
        # fair at the default threshold: there is no arbitrage to certify
        report = run_json(capsys, [*argv, "--verify"], expect=1)
        assert report["certificate"] is None
        assert report["verify"] == {"certificate": "none at this threshold"}

    def test_complete(self, capsys, t1_path, b1_path):
        report = run_json(capsys, ["complete", t1_path, "--verify"])
        assert report["complete"] is False
        assert report["dimension"] == 1
        assert report["local_ranks"] == [{"node": "r", "children": 3, "rank": 2}]
        report = run_json(capsys, ["complete", b1_path, "--verify"])
        assert report["complete"] is True

    def test_superhedge(self, capsys, t1_path):
        report = run_json(
            capsys,
            ["superhedge", t1_path, "--claim", "digital-up", "--verify"],
        )
        assert report["lower"] == pytest.approx(0.0, abs=1e-9)
        assert report["upper"] == pytest.approx(1 / 3, abs=1e-9)
        assert report["classification"] == "not-attainable"
        assert report["dp_agreement"] <= 1e-8
        assert report["verify"]["dp_vs_lp"] <= 1e-8
        assert report["verify"]["upper"]["difference"] <= 1e-8

    @pytest.mark.parametrize("claim", ["digital-up", "stock-claim"])
    def test_superhedge_solves_the_process_once(self, capsys, t1_path, monkeypatch, claim):
        import fairtree.cli
        import fairtree.hedging

        calls = []
        original = fairtree.hedging.superhedge_process

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(fairtree.hedging, "superhedge_process", counted)
        monkeypatch.setattr(fairtree.cli, "superhedge_process", counted)
        report = run_json(capsys, ["superhedge", t1_path, "--claim", claim])
        assert report["dp_agreement"] <= 1e-8
        assert len(calls) == 1

    def test_unfair_verdict_parses_the_document_once(self, capsys, tmp_path, monkeypatch):
        import fairtree.cli

        model = generate_market(seed=3, depth=2, branching=2, assets=2, arbitrage=True)
        claims = default_claims(model, 3)
        path = tmp_path / "arb.market"
        path.write_text(serialize_market(model, claims), encoding="utf-8")
        calls = []
        original = fairtree.cli.parse_market

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(fairtree.cli, "parse_market", counted)
        report = run_json(
            capsys, ["superhedge", str(path), "--claim", sorted(claims)[0]], expect=1
        )
        assert report["verdict"] == "unfair"
        assert report["inputs"]["path"] == str(path)
        assert len(calls) == 1

    def test_decompose(self, capsys, t1_path):
        report = run_json(
            capsys, ["decompose", t1_path, "--claim", "digital-up", "--verify"]
        )
        assert report["initial"] == pytest.approx(1 / 3, abs=1e-9)
        assert report["consumption"]["m"] == pytest.approx(1 / 3, abs=1e-9)
        assert report["verify"]["consumption_monotone"] == "ok"

    def test_optimize(self, capsys, t1_path):
        report = run_json(
            capsys,
            ["optimize", t1_path, "--utility", "log", "--wealth", "1", "--verify"],
        )
        assert report["value"] == pytest.approx(T1_LOG_VALUE, abs=1e-8)
        assert report["strategy"]["r"]["bond"] == pytest.approx(0.5, abs=1e-8)
        assert report["strategy"]["r"]["stock"] == pytest.approx(0.5, abs=1e-8)
        assert report["conjugacy_gap"] <= 1e-6

    def test_davis(self, capsys, t1_path):
        report = run_json(
            capsys,
            ["davis", t1_path, "--claim", "digital-up", "--utility", "log",
             "--wealth", "1", "--verify"],
        )
        assert report["price"] == pytest.approx(2 / 9, abs=1e-9)
        assert report["contained"] is True

    def test_augment_emits_a_parseable_market(self, capsys, t1_path):
        report = run_json(
            capsys,
            ["augment", t1_path, "--claim", "digital-up", "--utility", "log",
             "--wealth", "1", "--asset-name", "digital", "--verify"],
        )
        assert report["diagnostics"]["fair"] is True
        augmented = parse_market_text(emit_json(report["market"]))
        assert "digital" in augmented.model.asset_names
        assert augmented.model.price[2, 0] == pytest.approx(2 / 9, abs=1e-8)

    def test_augment_embeds_the_canonical_document(self, capsys, tmp_path):
        # The market block is serialize_market's own text, indented, down to
        # a signed zero: "-0", where decoding and re-emitting printed "0".
        doc = json.loads(bundled_text("t1"))
        doc["claims"]["signed-zero"] = {"u": 1, "m": 0.5, "d": -0.0}
        path = tmp_path / "signed.market"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code = run_command(
            ["augment", str(path), "--claim", "digital-up", "--utility", "log",
             "--wealth", "1"]
        )
        out = capsys.readouterr().out
        assert code == 0
        augmented = parse_market_text(emit_json(json.loads(out)["market"])).model
        block = serialize_market(augmented, parse_market(path).claims)
        assert '"d": -0\n' in block
        assert '"market": ' + block.rstrip("\n").replace("\n", "\n  ") in out

    def test_price_process_on_an_unfair_market_is_a_verdict(self, capsys, tmp_path):
        model = generate_market(seed=6, depth=2, branching=2, assets=2, arbitrage=True)
        path = tmp_path / "arb.market"
        path.write_text(serialize_market(model, default_claims(model, 6)), encoding="utf-8")
        report = run_json(capsys, ["price-process", str(path), "--claim", "call"], expect=1)
        assert report["command"] == "price-process"
        assert report["verdict"] == "unfair"
        assert "no martingale deflator" in report["message"]

    def test_price_process_with_minimax_deflator(self, capsys, t1_path):
        report = run_json(
            capsys,
            ["price-process", t1_path, "--claim", "digital-up",
             "--deflator", "minimax:log", "--verify"],
        )
        assert report["initial"] == pytest.approx(2 / 9, abs=1e-8)
        assert report["deflator"]["d"] == pytest.approx(4 / 3, abs=1e-8)

    def test_generate_pipes_back_in(self, capsys, tmp_path):
        code = run_command(
            ["generate", "--seed", "9", "--depth", "2", "--branching", "3",
             "--assets", "2", "--verify"]
        )
        out = capsys.readouterr().out
        assert code == 0
        parsed = parse_market_text(out)
        assert parsed.metadata["seed"] == 9
        # identical arguments must reproduce the document byte for byte
        run_command(
            ["generate", "--seed", "9", "--depth", "2", "--branching", "3",
             "--assets", "2"]
        )
        assert capsys.readouterr().out == out

    def test_optimize_at_large_wealth(self, capsys, tmp_path):
        assert run_command(
            ["generate", "--seed", "6", "--depth", "3", "--branching", "3",
             "--assets", "2"]
        ) == 0
        path = tmp_path / "g.market"
        path.write_text(capsys.readouterr().out, encoding="utf-8")
        report = run_json(
            capsys, ["optimize", str(path), "--utility", "log", "--wealth", "1e6"]
        )
        assert report["wealth"] == 1e6

    def test_generate_arb_flag(self, capsys):
        code = run_command(["generate", "--seed", "4", "--arb", "--verify"])
        out = capsys.readouterr().out
        assert code == 0
        parsed = parse_market_text(out)
        assert "dominated" in parsed.model.asset_names

    def test_csv_format(self, capsys, t1_path):
        code = run_command(["validate", t1_path, "--format", "csv"])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "node,parent,prob,time,bond,stock"
        assert len(lines) == 5

    @pytest.mark.parametrize(
        "argv",
        [
            ["superhedge", "PATH", "--claim", "missing"],
            ["optimize", "PATH", "--utility", "cubic", "--wealth", "1"],
            ["optimize", "PATH", "--utility", "log", "--wealth", "-2"],
            ["price-process", "PATH", "--claim", "digital-up", "--deflator", "x"],
            ["generate", "--seed", "1", "--depth", "99"],
        ],
    )
    def test_usage_errors_exit_2(self, capsys, t1_path, argv):
        argv = [t1_path if token == "PATH" else token for token in argv]
        assert run_command(argv) == 2
        assert capsys.readouterr().err

    def test_unreadable_market_exits_2(self, capsys, tmp_path):
        assert run_command(["fair", str(tmp_path / "none.market")]) == 2

    def test_worthless_augmentation_exits_2(self, capsys, tmp_path):
        # a claim that pays nothing cannot enter the market as an asset
        doc = json.loads(bundled_text("t1"))
        doc["claims"]["nothing"] = {"u": 0, "m": 0, "d": 0}
        path = tmp_path / "zero.market"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code = run_command(
            ["augment", str(path), "--claim", "nothing", "--utility", "log",
             "--wealth", "1"]
        )
        assert code == 2
        assert "root price" in capsys.readouterr().err

    def test_unknown_command_exits_2(self, capsys):
        assert run_command(["frobnicate"]) == 2

    def test_help_exits_0(self, capsys):
        assert run_command(["--help"]) == 0
        assert "superhedge" in capsys.readouterr().out

    def test_reports_reparse_and_rerun_identically(self, capsys, t1_path):
        """The JSON report is stable under a second run on the same input."""
        first = run_json(
            capsys, ["optimize", t1_path, "--utility", "power:0.5", "--wealth", "2"]
        )
        second = run_json(
            capsys, ["optimize", t1_path, "--utility", "power:0.5", "--wealth", "2"]
        )
        assert first == second


#: each market command's arguments past the market path: those that
#: succeed on a fair market, and those that name a missing claim and a bad
#: utility or wealth (``None`` where the command takes neither)
CONTRACT_COMMANDS = {
    "validate": ([], None, None),
    "fair": ([], None, None),
    "complete": ([], None, None),
    "superhedge": (["--claim", "call"], ["--claim", "missing"], None),
    "decompose": (["--claim", "call"], ["--claim", "missing"], None),
    "optimize": (["--utility", "log", "--wealth", "1"], None,
                 ["--utility", "cubic", "--wealth", "1"]),
    "davis": (["--utility", "log", "--wealth", "1", "--claim", "call"],
              ["--utility", "log", "--wealth", "1", "--claim", "missing"],
              ["--utility", "log", "--wealth", "-2", "--claim", "call"]),
    "augment": (["--utility", "log", "--wealth", "1", "--claim", "call"],
                ["--utility", "log", "--wealth", "1", "--claim", "missing"],
                ["--utility", "power:1.5", "--wealth", "1", "--claim", "call"]),
    "price-process": (["--claim", "call"], ["--claim", "missing"],
                      ["--claim", "call", "--deflator", "minimax:cubic"]),
}

#: the exit code of each command on a fair market, its arbitrage twin, a
#: malformed document, a missing claim, a bad utility or wealth, the fair
#: market with ``--tolerance 1e-6`` (taken only by the commands that read
#: it), and an unexpected exception inside the command (0 success, 1
#: verdict, 2 usage or input error, 3 internal error)
CONTRACT = {
    "validate": (0, 0, 2, None, None, 2, 3),
    "fair": (0, 1, 2, None, None, 0, 3),
    "complete": (0, 1, 2, None, None, 2, 3),
    "superhedge": (0, 1, 2, 2, None, 0, 3),
    "decompose": (0, 1, 2, 2, None, 2, 3),
    "optimize": (0, 1, 2, None, 2, 0, 3),
    "davis": (0, 1, 2, 2, 2, 0, 3),
    "augment": (0, 1, 2, 2, 2, 0, 3),
    "price-process": (0, 1, 2, 2, 2, 2, 3),
}


@pytest.fixture(scope="module")
def contract_paths(tmp_path_factory):
    """A fair generated market with its default claims, its arbitrage
    twin and a malformed document."""
    folder = tmp_path_factory.mktemp("contract")
    paths = {}
    for name, arbitrage in (("fair", False), ("twin", True)):
        model = generate_market(seed=6, depth=2, branching=3, assets=2, arbitrage=arbitrage)
        paths[name] = folder / f"{name}.market"
        paths[name].write_text(serialize_market(model, default_claims(model, 6)), encoding="utf-8")
    paths["malformed"] = folder / "malformed.market"
    paths["malformed"].write_text('{"format": "fairtree-market/1", "tree": [', encoding="utf-8")
    return {name: str(path) for name, path in paths.items()}


def contract_cases(paths, command):
    """The argument lists of ``command``'s row of :data:`CONTRACT`, but for
    the injected exception (``None`` where the command has no such case)."""
    good, missing_claim, bad_utility = CONTRACT_COMMANDS[command]
    return [
        [command, paths["fair"], *good],
        [command, paths["twin"], *good],
        [command, paths["malformed"], *good],
        None if missing_claim is None else [command, paths["fair"], *missing_claim],
        None if bad_utility is None else [command, paths["fair"], *bad_utility],
        [command, paths["fair"], *good, "--tolerance", "1e-6"],
    ]


def names_rejected_tolerance(command: str, err: str) -> bool:
    """Whether ``err`` is ``command``'s own usage error for the
    ``--tolerance 1e-6`` of the contract's tolerance column."""
    return err.endswith(f"fairtree {command}: error: unrecognized arguments: --tolerance 1e-6\n")


class TestExitCodeContract:
    @pytest.mark.parametrize("command", list(CONTRACT))
    def test_exit_codes(self, capsys, monkeypatch, contract_paths, command):
        cases = contract_cases(contract_paths, command)
        codes = [None if argv is None else run_command(argv) for argv in cases[:-1]]
        capsys.readouterr()
        codes.append(run_command(cases[-1]))
        # a command that takes no --tolerance rejects it under its own name
        assert names_rejected_tolerance(command, capsys.readouterr().err) == (codes[-1] == 2)

        def broken(*args, **kwargs):
            raise RuntimeError("unexpected")

        monkeypatch.setattr(fairtree.cli, "parse_market", broken)
        codes.append(run_command(cases[0]))
        assert "RuntimeError: unexpected" in capsys.readouterr().err
        assert tuple(codes) == CONTRACT[command]

    @pytest.mark.parametrize("command", list(CONTRACT))
    def test_exit_codes_in_fresh_processes(self, contract_paths, command):
        """The table as ``python -m fairtree.cli`` processes, importing the
        package under test, with no parser or store shared between runs."""
        env = {
            **os.environ,
            "PYTHONPATH": os.pathsep.join(
                filter(None, [str(Path(fairtree.__file__).parent.parent), os.environ.get("PYTHONPATH")])
            ),
            "OPENBLAS_NUM_THREADS": "1",
        }
        runs = [
            None if argv is None else subprocess.run(
                [sys.executable, "-m", "fairtree.cli", *argv],
                env=env, capture_output=True, text=True, timeout=120,
            )
            for argv in contract_cases(contract_paths, command)
        ]
        codes = [None if run is None else run.returncode for run in runs]
        assert tuple(codes) == CONTRACT[command][:-1]
        assert names_rejected_tolerance(command, runs[-1].stderr) == (codes[-1] == 2)

    def test_usage_errors_name_their_parser(self, capsys, contract_paths):
        """Arguments after a subcommand that it does not take are its own
        usage error; an unknown option before it is the main parser's."""
        fair = contract_paths["fair"]
        assert run_command(["decompose", fair, "--claim", "call", "extra"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: fairtree decompose ")
        assert err.endswith("fairtree decompose: error: unrecognized arguments: extra\n")
        assert run_command(["--bogus", "fair", fair]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: fairtree [-h]")
        assert err.endswith("fairtree: error: unrecognized arguments: --bogus\n")

    def test_every_market_command_is_in_the_table(self, capsys):
        assert run_command(["--help"]) == 0
        usage = capsys.readouterr().out
        commands = usage[usage.index("{") + 1 : usage.index("}")].split(",")
        assert set(commands) - {"generate"} == set(CONTRACT)


class TestParserReuse:
    def test_shared_parser_matches_a_fresh_one(self, capsys, tmp_path, t1_path):
        import fairtree.cli

        model = generate_market(seed=3, depth=2, branching=2, assets=2, arbitrage=True)
        claims = default_claims(model, 3)
        arb = tmp_path / "arb.market"
        arb.write_text(serialize_market(model, claims), encoding="utf-8")
        commands = [
            ["optimize", t1_path, "--utility", "log"],
            ["--help"],
            ["superhedge", str(arb), "--claim", sorted(claims)[0]],
            ["fair", t1_path],
            ["optimize", t1_path, "--utility", "log", "--wealth", "1"],
        ]

        def run(argv):
            code = run_command(argv)
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        fresh = []
        for argv in commands:
            fairtree.cli._build_parser.cache_clear()
            fresh.append(run(argv))
        assert [code for code, _, _ in fresh] == [2, 0, 1, 0, 0]
        fairtree.cli._build_parser.cache_clear()
        # twice over, so every command also runs after every other one
        assert [run(argv) for argv in commands * 2] == fresh * 2
        info = fairtree.cli._build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 2 * len(commands) - 1)


@pytest.fixture(scope="module")
def largest_path(tmp_path_factory):
    """The generator's largest shape, d6b4a5: 5461 nodes."""
    model = generate_market(seed=7, depth=6, branching=4, assets=5)
    path = tmp_path_factory.mktemp("largest") / "d6b4a5.market"
    path.write_text(serialize_market(model, default_claims(model, 7)), encoding="utf-8")
    return str(path)


LARGEST_COMMANDS = {
    "validate": [],
    "fair": [],
    "complete": [],
    "superhedge": ["--claim", "call"],
    "decompose": ["--claim", "call"],
    "optimize": ["--utility", "log", "--wealth", "1"],
    "davis": ["--utility", "log", "--wealth", "1", "--claim", "call"],
    "augment": ["--utility", "log", "--wealth", "1", "--claim", "call"],
    "price-process": ["--claim", "call"],
}


class TestLargestShape:
    @pytest.mark.parametrize("command", list(LARGEST_COMMANDS))
    def test_command_within_budget(self, capsys, largest_path, command):
        start = time.perf_counter()
        code = run_command([command, largest_path, *LARGEST_COMMANDS[command], "--verify"])
        elapsed = time.perf_counter() - start
        out = capsys.readouterr().out
        assert code == 0, out[-2000:]
        assert elapsed <= 60.0

    def test_generate_within_budget(self, capsys):
        start = time.perf_counter()
        code = run_command(
            ["generate", "--seed", "7", "--depth", "6", "--branching", "4", "--assets", "5",
             "--verify"]
        )
        capsys.readouterr()
        assert code == 0
        assert time.perf_counter() - start <= 60.0
