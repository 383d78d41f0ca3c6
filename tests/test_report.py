import csv
import dataclasses
import io
import json

import pytest

from vedicfft import (
    GateKind,
    NetlistBuilder,
    build_butterfly2,
    build_ripple_adder,
    build_vedic2x2,
)
from vedicfft import report
from vedicfft.report import (
    MODEL_NOTE,
    ComparisonError,
    build_variants,
    compare,
    cost_report,
    multipliers_equivalent,
    render,
    render_tables,
)

ROW_ORDER = [
    "conventional_2pt",
    "vedic_2pt",
    "conventional_4pt",
    "vedic_4pt",
    "conventional_reconfigurable",
    "vedic_reconfigurable",
]


@pytest.fixture(scope="module")
def tables():
    return compare()


def broken_multiplier():
    b = NetlistBuilder("broken4x4")
    a_bus = b.add_input("a", 4)
    b_bus = b.add_input("b", 4)
    outs = [b.add_gate(GateKind.AND, (a_bus[i], b_bus[i])) for i in range(4)]
    zero = b.const(0)
    b.set_output("p", outs + [zero] * 4)
    return b.finalize()


class TestCostReport:
    def test_single_gate(self):
        b = NetlistBuilder("unit")
        x = b.add_input("x", 1)
        y = b.add_input("y", 1)
        b.set_output("o", [b.add_gate(GateKind.AND, (x[0], y[0]))])
        report = cost_report(b.finalize())
        assert report.depth_units == 1
        assert report.gates_total == 1
        assert report.gates_by_kind == {"AND": 1}

    def test_vedic2x2(self, vedic2x2):
        report = cost_report(vedic2x2)
        assert report.unit_name == "vedic2x2"
        assert report.depth_units == 3
        assert report.gates_total == 8

    def test_matches_netlist_queries(self, vedic4x4):
        report = cost_report(vedic4x4)
        assert report.depth_units == vedic4x4.critical_path_depth()
        assert report.gates_total == vedic4x4.gate_counts().total

    def test_label_override(self, vedic2x2):
        assert cost_report(vedic2x2, label="alias").unit_name == "alias"


class TestMultiplierEquivalence:
    def test_reference_pair(self, vedic4x4, array4x4):
        assert multipliers_equivalent(vedic4x4, array4x4)

    def test_detects_difference(self, vedic4x4):
        assert not multipliers_equivalent(vedic4x4, broken_multiplier())

    @pytest.mark.parametrize(
        "other", [build_ripple_adder(4), build_butterfly2(4)], ids=lambda n: n.name
    )
    def test_rejects_what_is_not_a_multiplier(self, vedic4x4, other):
        # Checked by bus signature before any simulation, on either side.
        for pair in ((other, vedic4x4), (vedic4x4, other)):
            with pytest.raises(ComparisonError) as info:
                multipliers_equivalent(*pair)
            assert str(info.value) == f"{other.name} is not a 4x4 multiplier"


class TestCompare:
    def test_row_order_and_metrics(self, tables):
        delay, area = tables
        assert delay.metric == "delay"
        assert area.metric == "area"
        assert [name for name, _ in delay.rows] == ROW_ORDER
        assert [name for name, _ in area.rows] == ROW_ORDER

    def test_delay_direction_measured_honestly(self, tables):
        delay, _ = tables
        text = render(delay, "text")
        for pair, vedic, conventional in delay.directions:
            # Each direction line states what its two numbers say.
            assert delay.direction_holds(pair) == (vedic <= conventional)
            relation = "<=" if vedic <= conventional else "> conventional (vedic advantage NOT"
            line = f"{pair}: vedic {vedic} vs conventional {conventional} -> vedic {relation}"
            assert line in text
        # The vedic core is deeper than the array core inside the signed
        # multipliers, so the multiplier-bearing paths are slower with it.
        outcomes = {pair: delay.direction_holds(pair) for pair, _, _ in delay.directions}
        assert outcomes == {"2pt": True, "4pt": False, "reconfigurable": False}

    def test_area_direction_measured_honestly(self, tables):
        _, area = tables
        outcomes = {pair: area.direction_holds(pair) for pair, _, _ in area.directions}
        # The two-point path has no multiplier, so the variants tie; on the
        # multiplier-bearing paths the vedic tree costs more gates than the
        # array under this model, and the table must say so.
        assert outcomes["2pt"] is True
        assert outcomes["4pt"] is False
        assert outcomes["reconfigurable"] is False

    def test_two_point_paths_identical(self, tables):
        delay, area = tables
        assert dict(delay.rows)["vedic_2pt"] == dict(delay.rows)["conventional_2pt"]
        assert dict(area.rows)["vedic_2pt"] == dict(area.rows)["conventional_2pt"]

    def test_deterministic(self, tables):
        assert compare() == tables

    def test_model_note_attached(self, tables):
        delay, area = tables
        assert delay.model_note == MODEL_NOTE
        assert area.model_note == MODEL_NOTE
        assert "unit-delay" in MODEL_NOTE

    def test_reconfigurable_envelops_components(self, tables):
        delay, area = tables
        delays = dict(delay.rows)
        areas = dict(area.rows)
        assert delays["vedic_reconfigurable"] >= delays["vedic_4pt"]
        assert areas["vedic_reconfigurable"] >= areas["vedic_4pt"] + areas["vedic_2pt"]

    def test_each_distinct_netlist_costed_once(self, monkeypatch, tables):
        # The two 2-point rows share one butterfly; separate but equal
        # butterflies cost twice and give the same tables.
        costed = []

        def counting_cost_report(netlist, label=None):
            costed.append(netlist)
            return cost_report(netlist, label)

        monkeypatch.setattr(report, "cost_report", counting_cost_report)
        variants = build_variants()
        assert compare(variants) == tables
        assert len(costed) == len({id(net) for net in costed}) == 5
        datapaths = {**variants.datapaths, "vedic_2pt": build_butterfly2(4)}
        costed.clear()
        assert compare(dataclasses.replace(variants, datapaths=datapaths)) == tables
        assert len(costed) == len({id(net) for net in costed}) == 6


class TestCompareRefusals:
    def test_non_equivalent_multipliers(self):
        variants = build_variants()
        bad = dataclasses.replace(
            variants, multipliers=(broken_multiplier(), variants.multipliers[1])
        )
        with pytest.raises(ComparisonError, match="not truth-table equivalent"):
            compare(bad)

    def test_missing_variant(self):
        variants = build_variants()
        datapaths = dict(variants.datapaths)
        datapaths.pop("vedic_4pt")
        with pytest.raises(ComparisonError, match="missing variants"):
            compare(dataclasses.replace(variants, datapaths=datapaths))

    def test_mismatched_configuration(self):
        variants = build_variants()
        datapaths = dict(variants.datapaths)
        datapaths["vedic_2pt"] = build_ripple_adder(4)
        with pytest.raises(ComparisonError, match="not configured identically"):
            compare(dataclasses.replace(variants, datapaths=datapaths))


class TestRender:
    def test_text_layout(self, tables):
        delay, area = tables
        text = render(delay, "text")
        assert text.splitlines()[0] == "Delay comparison (unit delays)"
        for name in ROW_ORDER:
            assert name in text
        assert "vedic <= conventional" in text
        area_text = render(area, "text")
        assert "vedic > conventional (vedic advantage NOT reproduced" in area_text
        assert MODEL_NOTE in area_text

    def test_csv_parses_back(self, tables):
        text = render_tables(tables, "csv")
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["architecture", "metric", "value", "model"]
        assert len(rows) == 13
        assert [r[1] for r in rows[1:7]] == ["delay"] * 6
        assert [r[1] for r in rows[7:]] == ["area"] * 6
        assert all(r[3] == MODEL_NOTE for r in rows[1:])
        assert int(rows[1][2]) == dict(tables[0].rows)["conventional_2pt"]

    def test_json_parses_back(self, tables):
        parsed = json.loads(render_tables(tables, "json"))
        assert len(parsed) == 12
        by_key = {(r["architecture"], r["metric"]): r["value"] for r in parsed}
        assert by_key[("vedic_4pt", "delay")] == dict(tables[0].rows)["vedic_4pt"]
        assert by_key[("vedic_4pt", "area")] == dict(tables[1].rows)["vedic_4pt"]
        assert all(isinstance(r["value"], int) for r in parsed)

    def test_rendering_is_deterministic(self, tables):
        for fmt in ("text", "csv", "json"):
            assert render_tables(tables, fmt) == render_tables(compare(), fmt)

    def test_unknown_format(self, tables):
        with pytest.raises(ValueError, match="unknown format"):
            render(tables[0], "yaml")

    def test_empty_table_refused(self, tables):
        with pytest.raises(ComparisonError, match="empty"):
            render(dataclasses.replace(tables[0], rows=()), "text")


def test_build_variants_catalog():
    variants = build_variants()
    assert [m.name for m in variants.multipliers] == ["vedic4x4", "array4x4"]
    assert sorted(variants.datapaths) == sorted(ROW_ORDER)


def test_cost_report_of_freestanding_unit():
    report = cost_report(build_vedic2x2())
    assert (report.depth_units, report.gates_total) == (3, 8)
