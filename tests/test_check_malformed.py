"""Malformed inputs produce coded, located diagnostics — never tracebacks.

Exercises the failure paths the ISSUE calls out: genlib duplicate cells,
zero-pin cells, unparseable expressions; BLIF latch-only cycles and
redeclared models.  Everything funnels through the lint entry points, so
a regression back to a bare exception fails these tests immediately.
"""

import pytest

from repro.check import lint_blif_source, lint_genlib_source
from repro.errors import ParseError
from repro.library.genlib import parse_genlib

PIN = "  PIN * UNKNOWN 1 999 1.0 0.2 1.0 0.2"


def codes(report):
    return [d.code for d in report]


class TestGenlibMalformed:
    def test_duplicate_cells_located(self):
        text = "\n".join(
            [
                "GATE inv 1 O=!a;",
                PIN,
                "GATE inv 2 O=!(a*b);",
                PIN,
            ]
        )
        with pytest.raises(ParseError) as info:
            parse_genlib(text, filename="dup.genlib")
        err = info.value
        assert "duplicate gate name 'inv'" in err.bare_message
        assert "line 1" in str(err)  # points back at the first definition
        assert err.line == 3
        assert err.file == "dup.genlib"
        assert err.token == "inv"

        report, library = lint_genlib_source(text, filename="dup.genlib")
        assert library is None
        assert codes(report) == ["L000"]
        assert report.by_code("L000")[0].loc.line == 3

    def test_zero_pin_constant_cell_is_linted_not_fatal(self):
        text = "\n".join(
            [
                "GATE inv 1 O=!a;",
                PIN,
                "GATE nand2 2 O=!(a*b);",
                PIN,
                "GATE tie0 1 O=CONST0;",
            ]
        )
        report, library = lint_genlib_source(text, check_patterns=False)
        assert library is not None
        assert "L010" in codes(report)
        assert not report.has_errors  # warning-level: usable library

    def test_unparseable_expression_located(self):
        text = "GATE weird 1 O=a**;\n" + PIN
        with pytest.raises(ParseError) as info:
            parse_genlib(text, filename="weird.genlib")
        err = info.value
        assert "unparseable expression" in err.bare_message
        assert err.line == 1
        assert err.token is not None

        report, library = lint_genlib_source(text, filename="weird.genlib")
        assert library is None
        assert codes(report) == ["L000"]
        diag = report.by_code("L000")[0]
        assert diag.loc.file == "weird.genlib"
        assert "unparseable expression" in diag.message

    def test_truncated_gate_statement(self):
        report, library = lint_genlib_source("GATE broken 1 O=!a\n")
        assert library is None
        assert codes(report) == ["L000"]
        assert "unexpected end" in report.by_code("L000")[0].message

    def test_pin_outside_support(self):
        text = "GATE inv 1 O=!a;\n  PIN b UNKNOWN 1 999 1 0 1 0"
        report, library = lint_genlib_source(text, filename="pins.genlib")
        assert library is None
        diag = report.by_code("L000")[0]
        assert "not in function support" in diag.message
        assert diag.loc.file == "pins.genlib"


class TestBlifMalformed:
    def test_latch_only_cycle_warned_not_fatal(self):
        source = "\n".join(
            [
                ".model ring",
                ".inputs a",
                ".outputs y",
                ".latch q2 q1 0",
                ".latch q1 q2 0",
                ".names a q1 y",
                "11 1",
                ".end",
            ]
        )
        report, net = lint_blif_source(source)
        assert net is not None
        assert "N009" in codes(report)
        assert not report.has_errors

    def test_redeclared_model_becomes_n000(self):
        source = "\n".join(
            [
                ".model one",
                ".inputs a",
                ".outputs y",
                ".names a y",
                "1 1",
                ".model two",
                ".end",
            ]
        )
        report, net = lint_blif_source(source, filename="twice.blif")
        assert net is None
        assert codes(report) == ["N000"]
        diag = report.by_code("N000")[0]
        assert "model" in diag.message
        assert diag.loc.file == "twice.blif"
        assert diag.loc.line == 6

    def test_bad_cover_row_located(self):
        source = ".model bad\n.inputs a\n.outputs y\n.names a y\n12 1\n.end\n"
        report, net = lint_blif_source(source, filename="row.blif")
        assert net is None
        diag = report.by_code("N000")[0]
        assert "cover row" in diag.message
        assert diag.loc.line in (4, 5)  # attributed to the .names block

    @pytest.mark.parametrize("width", [21, 24])
    def test_node_wider_than_truth_table_cap_is_n000(self, width):
        pis = " ".join(f"x{i}" for i in range(width))
        source = (f".model w\n.inputs {pis}\n.outputs wide\n"
                  f".names {pis} wide\n{'1' * width} 1\n.end\n")
        report, net = lint_blif_source(source, filename="wide.blif")
        assert net is None
        assert codes(report) == ["N000"]
        diag = report.by_code("N000")[0]
        assert f"{width} inputs" in diag.message and "'wide'" in diag.message
        assert diag.loc.file == "wide.blif"
        assert diag.loc.line == 4

    def test_unsupported_construct_located(self):
        source = ".model x\n.inputs a\n.outputs y\n.gate inv O=y a=a\n.end\n"
        report, net = lint_blif_source(source)
        assert net is None
        assert codes(report) == ["N000"]
