"""Static analysis over the Alloy AST: types, lint, graphs, pruning, dedup.

Public surface:

- :mod:`repro.analysis.reltypes` — bounding-type inference
  (:class:`TypeInferencer`, :class:`RelType`)
- :mod:`repro.analysis.diagnostics` — rule registry and findings
  (:class:`Rule`, :class:`Diagnostic`, :class:`Severity`, :class:`LintError`)
- :mod:`repro.analysis.lint` — the lint engine (:func:`lint_module`,
  :func:`check_module`, :func:`render_diagnostics`)
- :mod:`repro.analysis.depgraph` / :mod:`repro.analysis.slice` — the
  whole-spec dependency graph (:func:`build_depgraph`, :class:`DepGraph`)
  and forward/backward slicing (:func:`backward_slice`,
  :func:`forward_slice`)
- :mod:`repro.analysis.cardinality` — interval-domain abstract
  interpretation of tuple counts (:class:`CardinalityAnalyzer`,
  :class:`Interval`), behind the A5xx lint rules
- :mod:`repro.analysis.prune` — candidate vetoes (:class:`CandidateFilter`)
- :mod:`repro.analysis.canon` — semantic candidate canonicalization for
  oracle dedup (:func:`canonical_key`) and the shard-scoped cross-tool
  oracle cache (:func:`verdict_sharing`)
"""

from repro.analysis.canon import canonical_key, canonical_text, verdict_sharing
from repro.analysis.cardinality import (
    CardinalityAnalyzer,
    Interval,
    cardinality_analyzer,
)
from repro.analysis.depgraph import DepGraph, DepNode, build_depgraph
from repro.analysis.diagnostics import (
    Diagnostic,
    LintError,
    Rule,
    Severity,
    all_rules,
    rule_by_name,
)
from repro.analysis.lint import (
    check_module,
    lint_module,
    lint_source,
    render_diagnostics,
)
from repro.analysis.prune import CandidateFilter
from repro.analysis.reltypes import (
    INT_TYPE,
    RelType,
    TypeInferencer,
    empty_type,
    inferencer_for,
    wildcard,
)
from repro.analysis.slice import backward_slice, forward_slice, slice_for

__all__ = [
    "CandidateFilter",
    "CardinalityAnalyzer",
    "DepGraph",
    "DepNode",
    "Diagnostic",
    "INT_TYPE",
    "Interval",
    "LintError",
    "RelType",
    "Rule",
    "Severity",
    "TypeInferencer",
    "all_rules",
    "backward_slice",
    "build_depgraph",
    "canonical_key",
    "canonical_text",
    "cardinality_analyzer",
    "check_module",
    "empty_type",
    "forward_slice",
    "inferencer_for",
    "lint_module",
    "lint_source",
    "render_diagnostics",
    "rule_by_name",
    "slice_for",
    "verdict_sharing",
    "wildcard",
]
