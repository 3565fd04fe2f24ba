"""The S### source linter (repro.check.source).

Mutation oracles: for every code, a minimal source snippet that MUST
fire it, a near-miss that must NOT, and an inline ``# repro:
allow[...]`` variant proving the suppression silences exactly that
code.  Plus the baseline mechanism, the CLI wiring, and the
self-application gate the CI job runs (the package must be clean
against the committed ``analysis-baseline.json``).
"""

import json
import textwrap
from pathlib import Path

import pytest

from repro.check.diagnostics import CODES, CheckReport, Severity
from repro.check.source import (
    BASELINE_SCHEMA,
    analyze_package,
    analyze_paths,
    finding_key,
    load_baseline,
    new_findings,
    save_baseline,
    suppressions_for_source,
)
from repro.cli import main
from repro.errors import ReproError

REPO_ROOT = Path(__file__).resolve().parent.parent


def analyze_snippet(tmp_path, source, filename="mod.py", root_package=None):
    path = tmp_path / filename
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return analyze_paths([str(tmp_path)], root_package=root_package)


def codes_of(report):
    return [d.code for d in report]


class TestCatalog:
    def test_all_source_codes_registered(self):
        for code in ("S000", "S101", "S102", "S103", "S104",
                     "S201", "S202", "S301", "S302"):
            assert code in CODES
            assert CODES[code].code == code

    def test_severities(self):
        assert CODES["S101"].severity is Severity.ERROR
        assert CODES["S104"].severity is Severity.ERROR
        assert CODES["S201"].severity is Severity.ERROR
        assert CODES["S103"].severity is Severity.WARNING
        assert CODES["S202"].severity is Severity.WARNING
        assert CODES["S301"].severity is Severity.WARNING
        assert CODES["S302"].severity is Severity.WARNING


class TestS000Parse:
    def test_syntax_error_fires(self, tmp_path):
        report = analyze_snippet(tmp_path, "def broken(:\n    pass\n")
        assert codes_of(report) == ["S000"]
        assert report.diagnostics[0].loc.line == 1

    def test_clean_file_is_silent(self, tmp_path):
        report = analyze_snippet(tmp_path, "x = 1\n")
        assert codes_of(report) == []


class TestS101Random:
    def test_module_random_call_fires(self, tmp_path):
        report = analyze_snippet(tmp_path, """\
            import random

            def pick(items):
                return items[random.randrange(len(items))]
        """)
        assert "S101" in codes_of(report)

    def test_from_import_fires(self, tmp_path):
        report = analyze_snippet(tmp_path, """\
            from random import shuffle

            def scramble(items):
                shuffle(items)
        """)
        assert "S101" in codes_of(report)

    def test_seeded_rng_instance_is_fine(self, tmp_path):
        report = analyze_snippet(tmp_path, """\
            import random

            def pick(items, seed):
                rng = random.Random(seed)
                return items[rng.randrange(len(items))]
        """)
        assert codes_of(report) == []

    def test_suppression_silences(self, tmp_path):
        report = analyze_snippet(tmp_path, """\
            import random

            def jitter():
                return random.random()  # repro: allow[S101]
        """)
        assert codes_of(report) == []
        assert report.meta["suppressed"] == 1


class TestS102WallClock:
    def test_time_time_fires(self, tmp_path):
        report = analyze_snippet(tmp_path, """\
            import time

            def stamp():
                return time.time()
        """)
        assert "S102" in codes_of(report)

    def test_datetime_now_fires(self, tmp_path):
        report = analyze_snippet(tmp_path, """\
            from datetime import datetime

            def stamp():
                return datetime.now()
        """)
        assert "S102" in codes_of(report)

    def test_perf_counter_is_fine(self, tmp_path):
        report = analyze_snippet(tmp_path, """\
            import time

            def measure():
                return time.perf_counter()
        """)
        assert codes_of(report) == []

    def test_suppression_silences(self, tmp_path):
        report = analyze_snippet(tmp_path, """\
            import time

            def stamp():
                return time.time()  # repro: allow[S102] run metadata
        """)
        assert codes_of(report) == []


class TestS103SetOrder:
    def test_list_comp_over_set_fires(self, tmp_path):
        report = analyze_snippet(tmp_path, """\
            def cones(graph):
                seen = {graph.root}
                return [node for node in seen]
        """)
        assert "S103" in codes_of(report)

    def test_for_loop_over_set_fires(self, tmp_path):
        report = analyze_snippet(tmp_path, """\
            def emit(names):
                bag = set(names)
                out = []
                for name in bag:
                    out.append(name)
                return out
        """)
        assert "S103" in codes_of(report)

    def test_sorted_set_is_fine(self, tmp_path):
        report = analyze_snippet(tmp_path, """\
            def emit(names):
                bag = set(names)
                return sorted(bag)
        """)
        assert codes_of(report) == []

    def test_set_comprehension_target_is_fine(self, tmp_path):
        # set -> set keeps unorderedness explicit; only ordered sinks gate.
        report = analyze_snippet(tmp_path, """\
            def grow(names):
                bag = set(names)
                return {name.upper() for name in bag}
        """)
        assert codes_of(report) == []

    def test_suppression_silences(self, tmp_path):
        report = analyze_snippet(tmp_path, """\
            def emit(names):
                bag = set(names)
                return list(bag)  # repro: allow[S103]
        """)
        assert codes_of(report) == []


class TestS104Environ:
    def test_os_environ_fires(self, tmp_path):
        report = analyze_snippet(tmp_path, """\
            import os

            def vectors():
                return int(os.environ.get("REPRO_SIM_VECTORS", "4096"))
        """)
        assert "S104" in codes_of(report)

    def test_os_getenv_fires(self, tmp_path):
        report = analyze_snippet(tmp_path, """\
            import os

            def flag():
                return os.getenv("X")
        """)
        assert "S104" in codes_of(report)

    def test_env_module_itself_is_exempt(self, tmp_path):
        report = analyze_snippet(tmp_path, """\
            import os

            def read_raw(name):
                return os.environ.get(name)
        """, filename="env.py", root_package="repro")
        assert codes_of(report) == []

    def test_suppression_silences(self, tmp_path):
        report = analyze_snippet(tmp_path, """\
            import os

            def flag():
                return os.getenv("X")  # repro: allow[S104]
        """)
        assert codes_of(report) == []


class TestS201Unpicklable:
    def test_lambda_setup_fires(self, tmp_path):
        report = analyze_snippet(tmp_path, """\
            from repro.perf.parallel import RunPolicy, _task_bundle_factory
            from repro.perf.stream import stream_jobs

            def go(tasks):
                return stream_jobs(tasks, _task_bundle_factory,
                                   (lambda: make(), ()),
                                   policy=RunPolicy())
        """)
        assert "S201" in codes_of(report)

    def test_nested_closure_fires(self, tmp_path):
        report = analyze_snippet(tmp_path, """\
            from repro.perf.parallel import RunPolicy
            from repro.perf.stream import stream_jobs

            def go(tasks, spec):
                def configure():
                    return spec
                return stream_jobs(tasks, factory=configure,
                                   policy=RunPolicy())
        """)
        assert "S201" in codes_of(report)

    def test_bound_method_in_pool_map_fires(self, tmp_path):
        report = analyze_snippet(tmp_path, """\
            def go(pool, runner, items):
                return pool.map(runner.cell, items)
        """)
        assert "S201" in codes_of(report)

    def test_module_level_callable_is_fine(self, tmp_path):
        report = analyze_snippet(tmp_path, """\
            from repro.perf.parallel import RunPolicy, _task_bundle_factory
            from repro.perf.stream import stream_jobs

            def configure():
                return 1

            def go(tasks, args):
                return stream_jobs(tasks, _task_bundle_factory,
                                   (configure, args), policy=RunPolicy())
        """)
        assert codes_of(report) == []

    def test_process_target_lambda_fires(self, tmp_path):
        report = analyze_snippet(tmp_path, """\
            from multiprocessing import Process

            def go():
                proc = Process(target=lambda: None)
                proc.start()
        """)
        assert "S201" in codes_of(report)

    def test_suppression_silences(self, tmp_path):
        report = analyze_snippet(tmp_path, """\
            def go(pool, runner, items):
                return pool.map(runner.cell, items)  # repro: allow[S201]
        """)
        assert codes_of(report) == []


WORKER_MODULE = """\
_CACHE = {}


def _run_task(payload):
    return _remember(payload)


def _remember(payload):
    _CACHE[payload] = True
    return payload
"""


class TestS202WorkerGlobals:
    def test_reachable_global_write_fires(self, tmp_path):
        report = analyze_snippet(
            tmp_path, WORKER_MODULE,
            filename="perf/parallel.py", root_package="repro",
        )
        assert "S202" in codes_of(report)
        diag = report.by_code("S202")[0]
        assert diag.obj == "_remember"
        assert "_CACHE" in diag.message

    def test_unreachable_write_is_fine(self, tmp_path):
        # Same write, but nothing on the worker call graph reaches it.
        report = analyze_snippet(tmp_path, """\
            _CACHE = {}


            def remember(payload):
                _CACHE[payload] = True
                return payload
        """, filename="perf/parallel.py", root_package="repro")
        assert codes_of(report) == []

    def test_local_shadow_is_fine(self, tmp_path):
        report = analyze_snippet(tmp_path, """\
            _CACHE = {}


            def _run_task(payload):
                _CACHE = {}
                _CACHE[payload] = True
                return _CACHE
        """, filename="perf/parallel.py", root_package="repro")
        assert codes_of(report) == []

    def test_cross_module_reachability(self, tmp_path):
        (tmp_path / "perf").mkdir()
        (tmp_path / "perf" / "parallel.py").write_text(textwrap.dedent("""\
            from repro.other import helper


            def _run_task(payload):
                return helper(payload)
        """))
        (tmp_path / "other.py").write_text(textwrap.dedent("""\
            STATS = {"calls": 0}


            def helper(payload):
                STATS["calls"] += 1
                return payload
        """))
        report = analyze_paths([str(tmp_path)], root_package="repro")
        s202 = report.by_code("S202")
        assert len(s202) == 1
        assert s202[0].loc.file == "repro/other.py"

    def test_dispatch_setup_becomes_entrypoint(self, tmp_path):
        # A module-level setup passed to stream_jobs is walked too.
        report = analyze_snippet(tmp_path, """\
            from repro.perf.parallel import RunPolicy, _task_bundle_factory
            from repro.perf.stream import stream_jobs

            KNOBS = {}


            def configure():
                KNOBS["ready"] = True


            def go(tasks):
                return stream_jobs(tasks, _task_bundle_factory,
                                   factory_args=(configure, ()),
                                   policy=RunPolicy())
        """, filename="driver.py", root_package="repro")
        assert "S202" in codes_of(report)

    def test_dispatch_table_entries_are_reachable(self, tmp_path):
        # A runner picked from a module-level table is walked too.
        report = analyze_snippet(tmp_path, """\
            from repro.perf.parallel import RunPolicy
            from repro.perf.stream import stream_jobs

            KNOBS = {}


            def fast(job):
                KNOBS["fast"] = job


            RUNNERS = {"fast": fast}


            def factory():
                return lambda job: RUNNERS[job](job)


            def go(jobs):
                return stream_jobs(jobs, factory, policy=RunPolicy())
        """, filename="driver.py", root_package="repro")
        assert "S202" in codes_of(report)

    def test_suppression_silences(self, tmp_path):
        report = analyze_snippet(tmp_path, """\
            _CACHE = {}


            def _run_task(payload):
                _CACHE[payload] = True  # repro: allow[S202] per-worker state
                return payload
        """, filename="perf/parallel.py", root_package="repro")
        assert codes_of(report) == []


class TestS301Swallow:
    def test_bare_except_fires(self, tmp_path):
        report = analyze_snippet(tmp_path, """\
            def load(path):
                try:
                    return open(path).read()
                except:
                    pass
        """)
        assert "S301" in codes_of(report)

    def test_broad_silent_except_fires(self, tmp_path):
        report = analyze_snippet(tmp_path, """\
            def load(path):
                try:
                    return open(path).read()
                except Exception:
                    pass
        """)
        assert "S301" in codes_of(report)

    def test_narrow_except_is_fine(self, tmp_path):
        report = analyze_snippet(tmp_path, """\
            def load(path):
                try:
                    return open(path).read()
                except OSError:
                    pass
        """)
        assert codes_of(report) == []

    def test_broad_except_that_handles_is_fine(self, tmp_path):
        report = analyze_snippet(tmp_path, """\
            def describe(exc):
                try:
                    return str(exc)
                except Exception:
                    return "<unprintable>"
        """)
        assert codes_of(report) == []

    def test_suppression_silences(self, tmp_path):
        report = analyze_snippet(tmp_path, """\
            def load(path):
                try:
                    return open(path).read()
                except Exception:  # repro: allow[S301]
                    pass
        """)
        assert codes_of(report) == []


class TestS302Assert:
    def test_validation_assert_fires(self, tmp_path):
        report = analyze_snippet(tmp_path, """\
            def set_vectors(n):
                assert n > 0, "vector count must be positive"
                return n
        """)
        assert "S302" in codes_of(report)

    def test_narrowing_assert_is_fine(self, tmp_path):
        report = analyze_snippet(tmp_path, """\
            def use(maybe):
                assert maybe is not None
                assert isinstance(maybe, str)
                return maybe.upper()
        """)
        assert codes_of(report) == []

    def test_suppression_silences(self, tmp_path):
        report = analyze_snippet(tmp_path, """\
            def set_vectors(n):
                assert n > 0  # repro: allow[S302]
                return n
        """)
        assert codes_of(report) == []


class TestSuppressions:
    def test_multi_code_allow(self):
        sup = suppressions_for_source(
            "import os\n"
            "x = os.getenv('A')  # repro: allow[S104, S101]\n"
        )
        assert sup[2] == {"S104", "S101"}

    def test_unrelated_comment_ignored(self):
        assert suppressions_for_source("x = 1  # plain comment\n") == {}

    def test_allow_for_other_code_does_not_silence(self, tmp_path):
        path = tmp_path / "mod.py"
        path.write_text(
            "import os\n\n"
            "def flag():\n"
            "    return os.getenv('X')  # repro: allow[S101]\n"
        )
        report = analyze_paths([str(tmp_path)])
        assert codes_of(report) == ["S104"]


class TestBaseline:
    def _report_with(self, *messages):
        report = CheckReport()
        from repro.errors import SourceLoc
        for i, message in enumerate(messages):
            report.add("S104", message,
                       loc=SourceLoc(file="repro/a.py", line=10 + i),
                       obj="flag")
        return report

    def test_key_is_line_free(self):
        report = self._report_with("direct environ read")
        key = finding_key(report.diagnostics[0])
        assert key == "S104|repro/a.py|flag|direct environ read"

    def test_roundtrip_and_gate(self, tmp_path):
        report = self._report_with("read one", "read one", "read two")
        path = tmp_path / "baseline.json"
        save_baseline(str(path), report)
        baseline = load_baseline(str(path))
        assert sum(baseline.values()) == 3
        assert new_findings(report, baseline) == []

    def test_budget_overflow_is_new(self, tmp_path):
        one = self._report_with("read one")
        path = tmp_path / "baseline.json"
        save_baseline(str(path), one)
        baseline = load_baseline(str(path))
        two = self._report_with("read one", "read one")
        fresh = new_findings(two, baseline)
        assert len(fresh) == 1

    def test_schema_validation(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"schema": "bogus/9", "findings": {}}))
        with pytest.raises(ReproError):
            load_baseline(str(path))
        assert BASELINE_SCHEMA == "repro-analysis-baseline/1"


class TestSelfApplication:
    def test_package_is_clean_against_committed_baseline(self):
        """The CI gate: zero non-baseline findings on src/repro itself."""
        report = analyze_package()
        baseline = load_baseline(str(REPO_ROOT / "analysis-baseline.json"))
        fresh = new_findings(report, baseline)
        assert fresh == [], "\n".join(d.format() for d in fresh)

    def test_package_has_no_errors_at_all(self):
        # The baseline only grandfathers warnings; errors are fixed, not
        # baselined.
        report = analyze_package()
        assert report.errors() == []


class TestSourceCli:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        (tmp_path / "mod.py").write_text("x = 1\n")
        assert main(["check", "--source", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "gating on 0 finding(s)" in out

    def test_error_finding_exits_one(self, tmp_path, capsys):
        (tmp_path / "mod.py").write_text(
            "import os\n\ndef f():\n    return os.getenv('X')\n"
        )
        assert main(["check", "--source", str(tmp_path),
                     "--baseline", str(tmp_path / "missing.json")]) == 1
        out = capsys.readouterr().out
        assert "S104" in out

    def test_warning_gates_only_with_strict(self, tmp_path, capsys):
        (tmp_path / "mod.py").write_text(
            "def f(n):\n    assert n > 0, 'bad'\n    return n\n"
        )
        base = str(tmp_path / "missing.json")
        assert main(["check", "--source", str(tmp_path),
                     "--baseline", base]) == 0
        assert main(["check", "--source", str(tmp_path),
                     "--baseline", base, "--strict"]) == 1
        capsys.readouterr()

    def test_update_baseline_then_gate(self, tmp_path, capsys):
        (tmp_path / "mod.py").write_text(
            "def f(n):\n    assert n > 0, 'bad'\n    return n\n"
        )
        base = str(tmp_path / "baseline.json")
        assert main(["check", "--source", str(tmp_path),
                     "--baseline", base, "--update-baseline"]) == 0
        assert main(["check", "--source", str(tmp_path),
                     "--baseline", base, "--strict"]) == 0
        out = capsys.readouterr().out
        assert "match the committed baseline" in out

    def test_package_self_application_via_cli(self, capsys, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        assert main(["check", "--source", "--strict"]) == 0
        capsys.readouterr()
