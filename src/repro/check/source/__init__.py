"""Source-level static analysis: determinism and worker-safety lints.

The data linters of :mod:`repro.check` guard what the mapper *consumes*
(netlists, libraries, certificates); this package guards the *code
itself* — the coding rules that make the repository's byte-identical
determinism promises (journal ``--resume`` replay, serial == parallel,
corpus replay) actually hold.  Every finding is a coded
:class:`~repro.check.diagnostics.Diagnostic` (``S###`` codes,
catalogued in ``docs/CHECKING.md``) with a real
:class:`~repro.errors.SourceLoc` into the offending file:

* ``S1##`` determinism: unseeded ``random.*`` calls, wall-clock time
  sources, order-sensitive iteration over unordered sets, and direct
  ``os.environ`` access outside the typed :mod:`repro.env` registry;
* ``S2##`` worker safety: unpicklable callables handed to the
  fault-tolerant pool, and writes to mutable module-level globals from
  functions reachable from the worker entry points of
  :mod:`repro.perf.parallel`;
* ``S3##`` exception hygiene: broad handlers that swallow silently and
  ``assert`` used for runtime validation.

Intentional violations are silenced inline with ``# repro:
allow[S###]`` on the flagged line; pre-existing ones can be
grandfathered in a committed ``analysis-baseline.json`` — the CI gate
fails only on *new* findings (:func:`new_findings`).
"""

from repro.check.source.analyzer import (
    ModuleInfo,
    analyze_package,
    analyze_paths,
    parse_module,
)
from repro.check.source.baseline import (
    BASELINE_SCHEMA,
    finding_key,
    load_baseline,
    new_findings,
    save_baseline,
)
from repro.check.source.suppress import suppressions_for_source

__all__ = [
    "BASELINE_SCHEMA",
    "ModuleInfo",
    "analyze_package",
    "analyze_paths",
    "finding_key",
    "load_baseline",
    "new_findings",
    "parse_module",
    "save_baseline",
    "suppressions_for_source",
]
