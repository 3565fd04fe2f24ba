"""Tests for BLIF reading and writing (repro.network.blif)."""

import pytest

from repro.errors import ParseError
from repro.network.blif import dumps_blif, loads_blif, read_blif, write_blif
from repro.network.simulate import check_equivalent


SIMPLE = """
.model test
.inputs a b c
.outputs f g
.names a b x
11 1
.names x c f
1- 1
-1 1
.names a g
0 1
.end
"""


class TestParsing:
    def test_simple(self):
        net = loads_blif(SIMPLE)
        assert net.name == "test"
        assert net.pis == ["a", "b", "c"]
        assert net.pos == ["f", "g"]
        values = net.simulate({"a": 1, "b": 1, "c": 0}, 1)
        assert values["x"] == 1 and values["f"] == 1 and values["g"] == 0

    def test_offset_cover(self):
        net = loads_blif(
            ".model t\n.inputs a b\n.outputs f\n.names a b f\n11 0\n.end\n"
        )
        # f is NAND(a, b): rows with output 0 define the off-set.
        assert net.node("f").tt.bits == 0b0111

    def test_dont_cares(self):
        net = loads_blif(
            ".model t\n.inputs a b c\n.outputs f\n.names a b c f\n1-0 1\n.end\n"
        )
        tt = net.node("f").tt
        assert tt.evaluate(0b001) == 1  # a=1, b=0, c=0
        assert tt.evaluate(0b011) == 1  # a=1, b=1, c=0
        assert tt.evaluate(0b101) == 0

    def test_constant_nodes(self):
        net = loads_blif(
            ".model t\n.inputs a\n.outputs k0 k1\n"
            ".names k0\n.names k1\n1\n.end\n"
        )
        assert net.node("k0").tt.is_const0()
        assert net.node("k1").tt.is_const1()

    def test_continuation_lines(self):
        net = loads_blif(
            ".model t\n.inputs a \\\nb\n.outputs f\n.names a b f\n11 1\n.end\n"
        )
        assert net.pis == ["a", "b"]

    def test_comments_ignored(self):
        net = loads_blif(
            "# header\n.model t # trailing\n.inputs a\n.outputs f\n"
            ".names a f # comment\n1 1\n.end\n"
        )
        assert net.pos == ["f"]

    def test_latch(self):
        net = loads_blif(
            ".model t\n.inputs d\n.outputs q\n.latch nd q 1\n"
            ".names d q nd\n11 1\n.end\n"
        )
        assert len(net.latches) == 1
        assert net.latches[0].init == 1

    def test_mixed_cover_rejected(self):
        with pytest.raises(ParseError):
            loads_blif(
                ".model t\n.inputs a\n.outputs f\n.names a f\n1 1\n0 0\n.end\n"
            )

    def test_bad_literal(self):
        with pytest.raises(ParseError):
            loads_blif(".model t\n.inputs a\n.outputs f\n.names a f\n2 1\n.end\n")

    def test_row_width_mismatch(self):
        with pytest.raises(ParseError):
            loads_blif(
                ".model t\n.inputs a b\n.outputs f\n.names a b f\n1 1\n.end\n"
            )

    def test_unknown_construct(self):
        with pytest.raises(ParseError):
            loads_blif(".model t\n.gate and2 a=x b=y O=f\n.end\n")

    def test_rows_before_names(self):
        with pytest.raises(ParseError):
            loads_blif(".model t\n.inputs a\n11 1\n.end\n")

    def test_multiple_models_rejected(self):
        with pytest.raises(ParseError):
            loads_blif(".model a\n.model b\n.end\n")

    @pytest.mark.parametrize("width", [21, 24])
    def test_node_wider_than_truth_table_cap(self, width):
        pis = " ".join(f"x{i}" for i in range(width))
        text = (f".model w\n.inputs {pis}\n.outputs wide\n"
                f".names {pis} wide\n{'1' * width} 1\n.end\n")
        with pytest.raises(ParseError) as info:
            loads_blif(text, filename="wide.blif")
        assert info.value.line == 4
        assert info.value.token == "wide"
        assert f"{width} inputs" in info.value.bare_message
        assert "at most 20 inputs" in info.value.bare_message

    def test_node_at_truth_table_cap_parses(self):
        pis = " ".join(f"x{i}" for i in range(20))
        net = loads_blif(f".model w\n.inputs {pis}\n.outputs f\n"
                         f".names {pis} f\n{'1' * 20} 1\n.end\n")
        assert net.node("f").tt.n_vars == 20

    def test_end_stops_parsing(self):
        net = loads_blif(".model a\n.inputs x\n.outputs x\n.end\ngarbage here\n")
        assert net.pis == ["x"]


class TestRoundtrip:
    def test_dumps_loads(self):
        net = loads_blif(SIMPLE)
        again = loads_blif(dumps_blif(net))
        check_equivalent(net, again)

    def test_file_io(self, tmp_path):
        net = loads_blif(SIMPLE)
        path = tmp_path / "test.blif"
        write_blif(net, path)
        again = read_blif(path)
        assert again.name == "test"
        check_equivalent(net, again)

    def test_latch_roundtrip(self):
        text = (
            ".model t\n.inputs d\n.outputs q\n.latch nd q 0\n"
            ".names d q nd\n1- 1\n-1 1\n.end\n"
        )
        net = loads_blif(text)
        again = loads_blif(dumps_blif(net))
        assert len(again.latches) == 1
        assert again.latches[0].input == "nd"
        check_equivalent(net, again)

    def test_benchmark_roundtrip(self):
        from repro.bench import circuits

        net = circuits.alu(4)
        again = loads_blif(dumps_blif(net))
        check_equivalent(net, again)
