"""Tests for the experiment harness (repro.harness)."""

import pytest

from repro.core.match import MatchKind
from repro.harness.experiment import (
    area_recovery_experiment,
    flowmap_experiment,
    match_class_ablation,
    run_tree_vs_dag,
    scaling_experiment,
    sequential_experiment,
)
from repro.harness.tables import (
    format_comparison_table,
    format_rows,
    summarise_comparison,
)
from repro.library.builtin import mini_library
from repro.library.patterns import PatternSet

_SMALL = ["C880s", "C1908s"]


@pytest.fixture(scope="module")
def rows():
    return run_tree_vs_dag(
        PatternSet(mini_library(), max_variants=8), names=_SMALL
    )


class TestComparison:
    def test_rows_shape(self, rows):
        assert [r.circuit for r in rows] == _SMALL
        for row in rows:
            assert row.verified
            assert row.dag_delay <= row.tree_delay + 1e-9
            assert 0.0 <= row.improvement < 1.0
            assert row.subject_gates > 0

    def test_format_table(self, rows):
        text = format_comparison_table(rows, "demo table")
        assert "demo table" in text
        assert "C880s" in text
        assert "average delay improvement" in text

    def test_summary(self, rows):
        summary = summarise_comparison(rows)
        assert 0 <= summary["avg_improvement"] < 1
        assert summary["area_ratio"] > 0
        assert summarise_comparison([]) == {
            "avg_improvement": 0.0, "area_ratio": 0.0, "cpu_ratio": 0.0,
        }

    def test_no_verify_flag(self):
        rows = run_tree_vs_dag(
            PatternSet(mini_library()), names=["C1908s"], verify=False
        )
        assert not rows[0].verified

    def test_failure_rows_render_below_the_table(self, rows):
        from repro.perf.parallel import CellFailure

        failure = CellFailure(
            circuit="C9999s", iscas="C9999", kind="crash",
            error="worker process died with exit code 13",
            error_type="WorkerCrash", attempts=3, wall_s=1.5,
        )
        text = format_comparison_table(list(rows) + [failure], "demo table")
        assert "FAILED  C9999s: crash after 3 attempt(s)" in text
        assert "1 of 3 cells failed" in text
        # aggregates must ignore the failure row entirely.
        assert summarise_comparison(list(rows) + [failure]) == \
            summarise_comparison(rows)


class TestAblations:
    def test_match_class_ablation(self):
        rows = match_class_ablation(mini_library(), names=["C1908s"])
        row = rows[0]
        assert row["extended_delay"] <= row["standard_delay"] + 1e-9
        assert row["extended_matches"] >= row["standard_matches"]

    def test_scaling_rows(self):
        rows = scaling_experiment(sizes=(2, 3), library=mini_library())
        assert rows[0]["subject_gates"] < rows[1]["subject_gates"]
        assert all(r["us_per_gate"] > 0 for r in rows)

    def test_flowmap_rows(self):
        rows = flowmap_experiment(names=["C1908s"], ks=(4,))
        assert rows[0]["agree"] is True

    def test_sequential_rows(self):
        rows = sequential_experiment(library=mini_library())
        assert {r["mode"] for r in rows} == {"tree", "dag"}
        for row in rows:
            assert row["retimed_period"] <= row["mapped_period"] + 1e-9

    def test_area_recovery_rows(self):
        rows = area_recovery_experiment(
            library=mini_library(), names=["C1908s"], slack_factors=(1.0,)
        )
        row = rows[0]
        assert row["area_opt"] <= row["area_plain"] + 1e-9

    def test_format_rows(self):
        text = format_rows([{"a": 1, "b": 2.5}], "tbl")
        assert "tbl" in text and "2.500" in text
        assert "(no rows)" in format_rows([], "empty")
