"""EXPLAIN/ANALYZE: determinism, estimates vs actuals, provenance."""

import json
import re

from repro.tde.explain import ExplainResult

AGG = '(aggregate (name) ((n (count)) (d (avg delay))) (join inner ((carrier_id id)) (scan "Extract.flights") (scan "Extract.carriers")))'
RLE = '(aggregate () ((n (count))) (select (= date_ (date "2014-03-05")) (scan "Extract.flights")))'


class TestExplain:
    def test_deterministic_text(self, flights_engine):
        first = flights_engine.explain(AGG)
        second = flights_engine.explain(AGG)
        assert first == second

    def test_no_raw_identities(self, flights_engine):
        text = flights_engine.explain(AGG, analyze=True)
        assert "0x" not in text
        assert "object at" not in text

    def test_operators_numbered_preorder(self, flights_engine):
        result = flights_engine.explain(AGG)
        ops = re.findall(r"#(\d+) ", str(result))
        assert ops == [str(i) for i in range(len(ops))]
        assert len(ops) >= 3

    def test_every_operator_has_estimate(self, flights_engine):
        result = flights_engine.explain(AGG)
        assert isinstance(result, ExplainResult)

        def walk(entry):
            yield entry
            for child in entry["children"]:
                yield from walk(child)

        nodes = list(walk(result.to_dict()["plan"]))
        assert nodes
        for node in nodes:
            assert node["est_rows"] >= 0
            assert node.get("actual") is None  # not an ANALYZE run

    def test_analyze_has_actuals_for_every_operator(self, flights_engine):
        result = flights_engine.explain(AGG, analyze=True)
        data = result.to_dict()
        assert data["analyze"] is True
        assert data["result_rows"] > 0

        def walk(entry):
            yield entry
            for child in entry["children"]:
                yield from walk(child)

        nodes = list(walk(data["plan"]))
        for node in nodes:
            actual = node["actual"]
            assert actual is not None, node["label"]
            assert actual["rows"] >= 0
            assert actual["seconds"] >= 0
        # The text form carries both estimate and actual per line.
        for line in str(result).splitlines():
            if line.strip().startswith("#"):
                assert "est=" in line and "actual=" in line

    def test_provenance_sections(self, flights_engine):
        text = str(flights_engine.explain(AGG))
        assert "== optimizer provenance ==" in text
        assert "fired:" in text and "declined:" in text
        assert "parallel.decide_dop" in text
        # The join collapses through the total+onto FK: culling must
        # explain itself either way it decided.
        assert "culling.dimension_removal" in text

    def test_rle_index_provenance(self, flights_engine):
        text = str(flights_engine.explain(RLE))
        assert "decompression.rle_index" in text
        assert "IndexedRleScan" in text or "selectivity" in text

    def test_json_round_trip(self, flights_engine):
        result = flights_engine.explain(AGG, analyze=True)
        data = json.loads(result.to_json())
        assert data["query"] == AGG
        assert data["plan"]["op"] == 0

    def test_result_is_still_a_string(self, flights_engine):
        # Pre-existing callers treat explain() as text; keep that contract.
        text = flights_engine.explain(AGG)
        assert isinstance(text, str)
        assert "HashJoin" in text
