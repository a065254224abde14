"""Tokenizer and network-builder tests."""

import json
import math
import warnings

import pytest

from hydrolora import build_network, read_inp, tokenize_inp
from hydrolora.cli import main
from hydrolora.errors import (
    ConfigError,
    CoordinateOverflow,
    DanglingEndpoint,
    DuplicateId,
    MalformedRow,
    MissingCoordinates,
    MissingSection,
    RowOutsideSection,
    SelfLoop,
    UndecodableText,
)
from tests.conftest import CHAIN_INP, TWO_NODE_INP
from tests.test_csv_format import QUOTED_INP

# Four sections, mixed-case headers, inline comments.  Expected token lists
# were derived by hand from the EPANET 2.x grammar and frozen.
MIXED_CASE_INP = """\
[Title]
Small demo system
[JUNCTIONS]
 j1  100  5  ; kitchen tap
 J2  95       ;no demand given
[pipes]
 p1  j1  J2  120.5  0.3  130 ; main
[COORDinates]
 j1  0  0    ; origin
 J2  100  0
"""


class TestTokenize:
    def test_single_row(self):
        doc = tokenize_inp("[JUNCTIONS]\nJ1 100 5 ;tap")
        assert list(doc.sections) == ["JUNCTIONS"]
        assert [r.tokens for r in doc.rows("JUNCTIONS")] == [("J1", "100", "5")]

    def test_empty_input(self):
        doc = tokenize_inp("")
        assert doc.sections == {}

    def test_mixed_case_fixture(self):
        doc = tokenize_inp(MIXED_CASE_INP)
        assert list(doc.sections) == ["TITLE", "JUNCTIONS", "PIPES", "COORDINATES"]
        assert [r.tokens for r in doc.rows("JUNCTIONS")] == [("j1", "100", "5"), ("J2", "95")]
        assert [r.tokens for r in doc.rows("PIPES")] == [("p1", "j1", "J2", "120.5", "0.3", "130")]
        assert [r.tokens for r in doc.rows("COORDINATES")] == [("j1", "0", "0"), ("J2", "100", "0")]
        # comment text never reaches tokens
        for rows in doc.sections.values():
            for row in rows:
                assert not any(";" in token for token in row.tokens)

    def test_line_numbers_recorded(self):
        doc = tokenize_inp("[JUNCTIONS]\n\nJ1 100\nJ2 90")
        assert [r.line for r in doc.rows("JUNCTIONS")] == [3, 4]

    def test_row_before_header_rejected(self):
        with pytest.raises(RowOutsideSection):
            tokenize_inp("J1 100 5\n[JUNCTIONS]")

    def test_undecodable_bytes_rejected(self):
        with pytest.raises(UndecodableText):
            tokenize_inp(b"[JUNCTIONS]\nJ1 \xff\xfe")

    def test_bytes_accepted(self):
        doc = tokenize_inp(TWO_NODE_INP.encode())
        assert len(doc.rows("JUNCTIONS")) == 2

    def test_unknown_section_preserved(self):
        doc = tokenize_inp("[FROBNICATE]\nA B C")
        assert [r.tokens for r in doc.rows("FROBNICATE")] == [("A", "B", "C")]

    def test_comment_only_line_skipped(self):
        doc = tokenize_inp("[JUNCTIONS]\n; pure comment\nJ1 100")
        assert len(doc.rows("JUNCTIONS")) == 1


class TestBuildNetwork:
    def test_two_node_network(self):
        net = build_network(tokenize_inp(TWO_NODE_INP))
        assert net.node_count == 2
        assert len(net.links) == 1
        assert net.bbox == (0.0, 0.0, 100.0, 0.0)
        assert net.nodes[0].base_demand == 5.0

    def test_counts_reported(self, chain_net):
        summary = chain_net.summary()
        assert summary["junctions"] == 2
        assert summary["reservoirs"] == 1
        assert summary["pipes"] == 2
        assert summary["nodes"] == summary["junctions"] + summary["reservoirs"] + summary["tanks"]
        assert summary["links"] == summary["pipes"] + summary["pumps"] + summary["valves"]

    def test_node_order_is_file_order(self, chain_net):
        assert [n.id for n in chain_net.nodes] == ["R1", "J1", "J2"]

    def test_dangling_endpoint(self):
        text = TWO_NODE_INP.replace("P1  J1  J2", "P1  J1  J9")
        with pytest.raises(DanglingEndpoint) as exc:
            build_network(tokenize_inp(text))
        assert exc.value.node_id == "J9"
        assert exc.value.link_id == "P1"

    def test_self_loop_rejected(self):
        text = TWO_NODE_INP.replace("P1  J1  J2", "P1  J1  J1")
        with pytest.raises(SelfLoop):
            build_network(tokenize_inp(text))

    def test_duplicate_node_id(self):
        text = TWO_NODE_INP.replace("J2  95   2", "J1  95   2")
        with pytest.raises(DuplicateId):
            build_network(tokenize_inp(text))

    def test_missing_coordinates(self):
        text = TWO_NODE_INP.replace(" J2  100  0\n", "")
        with pytest.raises(MissingCoordinates) as exc:
            build_network(tokenize_inp(text))
        assert exc.value.node_id == "J2"

    def test_missing_required_sections(self):
        with pytest.raises(MissingSection):
            build_network(tokenize_inp("[PIPES]\nP1 A B 1 1 1"))
        with pytest.raises(MissingSection):
            build_network(tokenize_inp("[JUNCTIONS]\nJ1 100\n[COORDINATES]\nJ1 0 0"))

    def test_malformed_numeric_field(self):
        text = TWO_NODE_INP.replace("J1  100  5", "J1  abc  5")
        with pytest.raises(MalformedRow) as exc:
            build_network(tokenize_inp(text))
        assert exc.value.section == "JUNCTIONS"

    def test_nonpositive_pipe_dimensions_rejected(self):
        text = TWO_NODE_INP.replace("P1  J1  J2  100  0.3", "P1  J1  J2  0  0.3")
        with pytest.raises(MalformedRow):
            build_network(tokenize_inp(text))

    def test_demands_section_accumulates(self):
        text = TWO_NODE_INP + "[DEMANDS]\n J1  3\n J1  2\n"
        net = build_network(tokenize_inp(text))
        assert net.nodes[0].base_demand == 10.0  # 5 inline + 3 + 2

    def test_demand_for_unknown_junction_rejected(self):
        text = TWO_NODE_INP + "[DEMANDS]\n J9  3\n"
        with pytest.raises(MalformedRow):
            build_network(tokenize_inp(text))

    def test_negative_total_demand_rejected(self):
        text = TWO_NODE_INP + "[DEMANDS]\n J1  -20\n"
        with pytest.raises(MalformedRow):
            build_network(tokenize_inp(text))

    def test_unknown_section_warns(self):
        text = TWO_NODE_INP + "[RULES]\nRULE 1\n"
        net = build_network(tokenize_inp(text))
        assert any("RULES" in w for w in net.warnings)

    def test_coordinate_scale(self):
        net = build_network(tokenize_inp(TWO_NODE_INP), coordinate_scale=10.0)
        assert net.bbox == (0.0, 0.0, 1000.0, 0.0)

    @pytest.mark.parametrize("scale", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_coordinate_scale_rejected(self, scale):
        with pytest.raises(ConfigError, match="coordinate_scale"):
            build_network(tokenize_inp(TWO_NODE_INP), coordinate_scale=scale)

    @pytest.mark.parametrize("old,new,section", [
        ("J1  100  5", "J1  nan  5", "JUNCTIONS"),
        ("J1  100  5", "J1  100  inf", "JUNCTIONS"),
        ("P1  J1  J2  100  0.3", "P1  J1  J2  NaN  0.3", "PIPES"),
        ("P1  J1  J2  100  0.3", "P1  J1  J2  100  Infinity", "PIPES"),
        ("J2  100  0\n", "J2  -inf  0\n", "COORDINATES"),
    ])
    def test_non_finite_number_rejected(self, old, new, section):
        assert old in TWO_NODE_INP
        with pytest.raises(MalformedRow, match="not finite") as exc:
            build_network(tokenize_inp(TWO_NODE_INP.replace(old, new)))
        assert exc.value.section == section

    def test_coordinate_overflowing_after_scaling_rejected(self):
        text = TWO_NODE_INP.replace("J2  100  0\n", "J2  1e150  0\n")
        assert build_network(tokenize_inp(text)).bbox[2] == 1e150
        with pytest.raises(MalformedRow, match="overflow") as exc:
            build_network(tokenize_inp(text), coordinate_scale=1e160)
        assert exc.value.section == "COORDINATES"

    @pytest.mark.parametrize("coordinates, scale", [
        ("J1 0 0\n J2 1e155 0\n", 1.0), ("J1 -1e154 0\n J2 0 1e154\n", 1.0),
        ("J1 0 0\n J2 1e154 1e154\n", 1.0), ("J1 0 0\n J2 1 0\n", 1e160)])
    def test_squared_extent_overflowing_rejected(self, coordinates, scale):
        """Every coordinate is finite, but the squared diagonal of the bbox is not,
        so squared distances in placement and the link budget would overflow."""
        text = TWO_NODE_INP.split("[COORDINATES]")[0] + "[COORDINATES]\n " + coordinates
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CoordinateOverflow, match="^the squared diagonal of the coordinates' bbox "):
                build_network(tokenize_inp(text), coordinate_scale=scale)
        assert build_network(tokenize_inp(text), coordinate_scale=scale / 1e6).node_count == 2

    def test_pumps_and_valves(self):
        text = (
            "[JUNCTIONS]\n J1 10\n J2 20\n J3 30\n"
            "[PIPES]\n P1 J1 J2 10 0.3 130\n"
            "[PUMPS]\n PU1 J2 J3 HEAD curve1\n"
            "[VALVES]\n V1 J3 J1 0.3 PRV 40\n"
            "[COORDINATES]\n J1 0 0\n J2 1 0\n J3 2 0\n"
        )
        net = build_network(tokenize_inp(text))
        kinds = [link.kind for link in net.links]
        assert kinds == ["pipe", "pump", "valve"]
        assert math.isnan(net.links[1].length) and math.isnan(net.links[1].diameter)  # pipes only

    def test_tank_parsed_as_source_kind(self):
        text = (
            "[JUNCTIONS]\n J1 10 1\n"
            "[TANKS]\n T1 50 3 0.5 5 10\n"
            "[PIPES]\n P1 T1 J1 10 0.3 130\n"
            "[COORDINATES]\n J1 0 0\n T1 5 5\n"
        )
        net = build_network(tokenize_inp(text))
        assert net.nodes[1].kind == "tank"
        assert net.nodes[1].base_demand == 0.0


class TestDeterminism:
    def test_identical_bytes_identical_network(self):
        a = build_network(tokenize_inp(CHAIN_INP))
        b = build_network(tokenize_inp(CHAIN_INP))
        for table_a, table_b in ((a.nodes, b.nodes), (a.links, b.links)):
            assert table_a.dtype == table_b.dtype
            for name in table_a.dtype.names:
                assert table_a[name].tolist() == table_b[name].tolist(), name
        assert a.bbox == b.bbox

    def test_read_inp_roundtrip(self, tmp_path):
        path = tmp_path / "net.inp"
        path.write_text(CHAIN_INP)
        net = read_inp(path)
        assert [n.id for n in net.nodes] == ["R1", "J1", "J2"]


class TestTables:
    @pytest.mark.parametrize("text", [CHAIN_INP, QUOTED_INP], ids=["chain", "quoted"])
    def test_endpoint_indices_map_back_to_row_ids(self, text):
        doc = tokenize_inp(text)
        net = build_network(doc)
        rows = [row.tokens for row in doc.rows("PIPES")]
        assert net.links.id.tolist() == [tokens[0] for tokens in rows]
        assert net.nodes.id[net.links.from_index].tolist() == [tokens[1] for tokens in rows]
        assert net.nodes.id[net.links.to_index].tolist() == [tokens[2] for tokens in rows]

    def test_columns(self, chain_net):
        assert chain_net.nodes.kind.tolist() == ["reservoir", "junction", "junction"]
        assert chain_net.nodes.base_demand.tolist() == [0.0, 1.0, 2.0]
        assert chain_net.coordinates().tolist() == [[0.0, 0.0], [100.0, 0.0], [200.0, 0.0]]
        assert chain_net.links.length.tolist() == [100.0, 100.0]
        assert chain_net.links.from_index.dtype == chain_net.links.to_index.dtype == "int64"

    def test_bbox_keeps_the_first_of_zero_and_negative_zero(self, tmp_path, capsys):
        # Python's min/max keep the first of equal values; numpy's min of
        # [0.0, -0.0] would give -0.0 and change the bytes written.
        path = tmp_path / "zeros.inp"
        path.write_text("[JUNCTIONS]\n J1 1\n J2 1\n J3 1\n[PIPES]\n P1 J1 J2 1 1\n P2 J2 J3 1 1\n"
                        "[COORDINATES]\n J1 0 -0\n J2 -0 0\n J3 3 5\n")
        assert main(["parse", str(path)]) == 0
        bbox = json.loads(capsys.readouterr().out)["bbox"]
        assert [repr(value) for value in bbox] == ["0.0", "-0.0", "3.0", "5.0"]
