"""The observability subsystem: spans, metrics, export, and run telemetry.

The subsystem's central contracts, in the order tested here:

- spans nest per thread and always close, even when the traced code raises;
- the disabled path (no scope installed) is a shared no-op — it records
  nothing and allocates nothing per call;
- metric snapshots merge across shards exactly (counters add, gauges keep
  the max, histograms keep exact count/sum/min/max);
- a trace file round-trips through the JSONL writer;
- the solver's ``last_solve`` is a fresh per-call view on a reused solver;
- tracing never changes a run's results, and a serial run and a parallel
  run of the same config produce traces with the same span names and
  metric totals (the acceptance criterion for per-shard capture).
"""

import threading

import pytest

from repro import obs
from repro.experiments.runner import RunConfig, run_matrix
from repro.obs.export import (
    TraceData,
    flatten_spans,
    merge_trace_data,
    read_trace,
    write_trace,
)
from repro.obs.metrics import MetricsRegistry, metric_key, parse_key
from repro.obs.trace import NULL_TRACER, Span, Tracer
from repro.sat.solver import SatSolver

from .test_executor import payload


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    return tmp_path / "cache"


class TestTracer:
    def test_spans_nest(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner", detail=1):
                pass
            assert tracer.current() is outer
        (root,) = tracer.roots()
        assert root.name == "outer"
        assert [child.name for child in root.children] == ["inner"]
        assert root.children[0].attrs == {"detail": 1}

    def test_span_closes_on_exception(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                raise RuntimeError("boom")
        (root,) = tracer.roots()
        assert root.name == "doomed"
        assert tracer.current() is None

    def test_attrs_set_after_entry(self):
        tracer = Tracer()
        with tracer.span("work") as span:
            span.set(result="sat", count=3)
        (root,) = tracer.roots()
        assert root.attrs == {"result": "sat", "count": 3}

    def test_span_json_round_trip(self):
        parent = Span(name="p", attrs={"a": 1}, duration=0.5)
        parent.children.append(Span(name="c", duration=0.25))
        clone = Span.from_json(parent.to_json())
        assert clone == parent

    def test_threads_do_not_interleave_span_trees(self):
        tracer = Tracer()

        def worker(label):
            for _ in range(50):
                with tracer.span("root", worker=label):
                    with tracer.span("child", worker=label):
                        pass

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        roots = tracer.roots()
        assert len(roots) == 4 * 50
        for root in roots:
            (child,) = root.children
            # The child belongs to the same thread's root, never another's.
            assert child.attrs["worker"] == root.attrs["worker"]

    def test_null_tracer_is_inert_and_allocation_free(self):
        assert not NULL_TRACER.enabled
        # The disabled fast path hands back one shared context manager.
        assert NULL_TRACER.span("a") is NULL_TRACER.span("b", attr=1)
        with NULL_TRACER.span("ignored") as span:
            assert span.set(anything=True) is span
        assert NULL_TRACER.roots() == []
        assert NULL_TRACER.current() is None


class TestMetrics:
    def test_key_encoding_round_trips(self):
        key = metric_key("sat.solves", {"technique": "ATR", "phase": "x"})
        assert key == "sat.solves{phase=x,technique=ATR}"
        assert parse_key(key) == (
            "sat.solves",
            {"phase": "x", "technique": "ATR"},
        )
        assert parse_key("plain") == ("plain", {})

    def test_instruments_are_get_or_create(self):
        registry = MetricsRegistry()
        registry.counter("hits", technique="ATR").inc()
        registry.counter("hits", technique="ATR").inc(2)
        registry.counter("hits", technique="BeAFix").inc()
        assert registry.counter_values() == {
            "hits{technique=ATR}": 3,
            "hits{technique=BeAFix}": 1,
        }

    def test_histogram_summary(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("latency")
        for value in [1.0, 2.0, 3.0, 4.0, 5.0]:
            histogram.observe(value)
        summary = histogram.summary()
        assert summary["count"] == 5
        assert summary["sum"] == 15.0
        assert summary["min"] == 1.0
        assert summary["max"] == 5.0
        assert summary["mean"] == 3.0
        assert summary["p50"] == 3.0
        assert summary["p99"] == 5.0

    def test_snapshot_merge_folds_shard_registries(self):
        run = MetricsRegistry()
        for shard_value in (2, 5):
            shard = MetricsRegistry()
            shard.counter("cells").inc(shard_value)
            shard.gauge("peak").set(shard_value)
            shard.histogram("seconds").observe(float(shard_value))
            run.merge(shard.snapshot())
        assert run.counter_values() == {"cells": 7}
        assert run.gauge("peak").value == 5
        summary = run.histogram_summaries()["seconds"]
        assert summary["count"] == 2
        assert summary["min"] == 2.0 and summary["max"] == 5.0

    def test_snapshot_is_json_safe(self):
        import json

        registry = MetricsRegistry()
        registry.counter("a", technique="ATR").inc()
        registry.histogram("b").observe(1.5)
        assert json.loads(json.dumps(registry.snapshot()))


class TestScope:
    def test_no_scope_means_null_instruments(self):
        assert obs.get_tracer() is NULL_TRACER
        assert not obs.tracing_enabled()
        # Module-level helpers are no-ops outside a scope.
        with obs.span("ignored") as span:
            span.set(x=1)
        obs.counter("ignored").inc()
        assert obs.get_metrics().counter_values() == {}

    def test_scope_installs_and_restores(self):
        tracer, metrics = Tracer(), MetricsRegistry()
        with obs.scope(tracer, metrics):
            assert obs.get_tracer() is tracer
            with obs.span("work"):
                obs.counter("ops").inc()
        assert obs.get_tracer() is NULL_TRACER
        assert [root.name for root in tracer.roots()] == ["work"]
        assert metrics.counter_values() == {"ops": 1}

    def test_ambient_labels_attach_to_metrics(self):
        metrics = MetricsRegistry()
        with obs.scope(Tracer(), metrics):
            with obs.labels(technique="ATR"):
                obs.counter("sat.solves").inc()
                with obs.labels(phase="verify"):
                    obs.counter("sat.solves").inc()
            obs.counter("sat.solves").inc()
        assert metrics.counter_values() == {
            "sat.solves{technique=ATR}": 1,
            "sat.solves{phase=verify,technique=ATR}": 1,
            "sat.solves": 1,
        }

    def test_scope_is_thread_local(self):
        seen = {}

        def other_thread():
            seen["tracer"] = obs.get_tracer()

        with obs.scope(Tracer(), MetricsRegistry()):
            thread = threading.Thread(target=other_thread)
            thread.start()
            thread.join()
        assert seen["tracer"] is NULL_TRACER


class TestExport:
    def _sample(self):
        tracer = Tracer()
        with tracer.span("run") as span:
            span.set(benchmark="arepair")
            with tracer.span("cell", spec="s1", technique="ATR"):
                with tracer.span("sat.solve"):
                    pass
        metrics = MetricsRegistry()
        metrics.counter("sat.solves", technique="ATR").inc(3)
        metrics.counter("sat.solves", technique="BeAFix").inc(2)
        metrics.gauge("peak").set(7)
        metrics.histogram("repair.seconds", technique="ATR").observe(0.5)
        return tracer, metrics

    def test_flatten_paths_and_depths(self):
        tracer, _ = self._sample()
        records = list(flatten_spans(tracer.roots()))
        assert [(r["path"], r["depth"]) for r in records] == [
            ("run", 0),
            ("run/cell", 1),
            ("run/cell/sat.solve", 2),
        ]

    def test_trace_file_round_trips(self, tmp_path):
        tracer, metrics = self._sample()
        path = tmp_path / "trace.jsonl"
        write_trace(path, tracer.roots(), metrics, meta={"seed": 0})
        data = read_trace(path)
        assert data.meta == {"seed": 0}
        assert data.span_names() == {"run", "cell", "sat.solve"}
        assert data.counter_total("sat.solves") == 5
        assert data.labelled_counter("sat.solves", "ATR") == 3
        assert data.techniques() == ["ATR", "BeAFix"]
        assert data.gauges == {"peak": 7}
        assert data.histograms["repair.seconds{technique=ATR}"]["count"] == 1

    def test_merge_trace_data_sums_counters(self):
        first = TraceData(counters={"sat.solves": 2, "llm.requests": 1})
        second = TraceData(counters={"sat.solves": 3})
        merged = merge_trace_data([first, second])
        assert merged.counters == {"sat.solves": 5, "llm.requests": 1}


def _pigeonhole_solver(pigeons: int, holes: int) -> SatSolver:
    """An UNSAT pigeonhole instance: guaranteed to generate conflicts."""
    solver = SatSolver()
    var = {
        (i, j): solver.new_var()
        for i in range(pigeons)
        for j in range(holes)
    }
    for i in range(pigeons):
        solver.add_clause([var[i, j] for j in range(holes)])
    for j in range(holes):
        for a in range(pigeons):
            for b in range(a + 1, pigeons):
                solver.add_clause([-var[a, j], -var[b, j]])
    return solver


class TestSolverPerCallStats:
    """Satellite: counters reset correctly between ``solve()`` calls."""

    def test_last_solve_is_a_per_call_view(self):
        solver = _pigeonhole_solver(5, 4)
        assert not solver.solve()
        first = solver.last_solve
        assert first.conflicts > 0
        cumulative = solver.stats.copy()

        assert not solver.solve()
        second = solver.last_solve
        # The lifetime stats advanced by exactly the second call's delta...
        assert solver.stats.conflicts == cumulative.conflicts + second.conflicts
        assert solver.stats.decisions == cumulative.decisions + second.decisions
        assert solver.stats.restarts == cumulative.restarts + second.restarts
        # ...and last_solve no longer reflects the first call.
        assert second.conflicts <= first.conflicts

    def test_restart_schedule_is_per_call(self):
        solver = _pigeonhole_solver(6, 5)
        assert not solver.solve()
        assert solver.last_solve.restarts > 0, "instance too easy to restart"
        # A reused solver re-proving the learned UNSAT does almost no work,
        # so its per-call restart count starts from zero again.
        assert not solver.solve()
        assert solver.last_solve.restarts == 0
        assert solver.stats.restarts > 0

    def test_unsat_by_assumption_keeps_per_call_stats(self):
        solver = SatSolver()
        a, b = solver.new_var(), solver.new_var()
        solver.add_clause([a, b])
        solver.add_clause([-a, b])
        assert not solver.solve(assumptions=[-b])
        by_assumption = solver.last_solve
        assert solver.solve()
        # The failed-assumption call did not leak into the next call's view.
        assert solver.last_solve is not by_assumption

    def test_solve_records_metrics_inside_a_scope(self):
        metrics = MetricsRegistry()
        solver = _pigeonhole_solver(4, 3)
        with obs.scope(Tracer(), metrics):
            assert not solver.solve()
        counters = metrics.counter_values()
        assert counters["sat.solves"] == 1
        assert counters["sat.conflicts"] == solver.last_solve.conflicts
        assert metrics.histogram_summaries()["sat.conflicts_per_solve"][
            "count"
        ] == 1


class TestTracedRuns:
    """Acceptance criteria: tracing never changes results, and serial vs
    parallel traced runs agree on span names and metric totals."""

    CONFIG = dict(
        benchmark="arepair",
        scale=0.05,
        techniques=("ATR", "Single-Round_None"),
        use_cache=False,
    )

    def test_tracing_does_not_change_the_matrix(self, tmp_path):
        plain = run_matrix(RunConfig(**self.CONFIG))
        traced = run_matrix(
            RunConfig(
                **self.CONFIG, trace_out=str(tmp_path / "trace.jsonl")
            )
        )
        assert payload(traced) == payload(plain)
        assert plain.telemetry is None
        assert traced.telemetry is not None
        assert (tmp_path / "trace.jsonl").exists()

    def test_serial_and_process_traces_agree(self, tmp_path):
        serial_out = tmp_path / "serial.jsonl"
        parallel_out = tmp_path / "parallel.jsonl"
        run_matrix(RunConfig(**self.CONFIG, trace_out=str(serial_out)))
        run_matrix(
            RunConfig(
                **self.CONFIG,
                trace_out=str(parallel_out),
                jobs=2,
            )
        )
        serial = read_trace(serial_out)
        parallel = read_trace(parallel_out)
        assert serial.span_names() == parallel.span_names()
        # Deterministic cells mean every count matches exactly; only
        # timings (span durations, seconds histograms) may differ.
        assert serial.counters == parallel.counters
        assert {
            key: summary["count"] for key, summary in serial.histograms.items()
        } == {
            key: summary["count"]
            for key, summary in parallel.histograms.items()
        }
        assert serial.techniques() == ["ATR", "Single-Round_None"]

    def test_thread_executor_traced_run_smoke(self, tmp_path):
        # Traced shards on pool threads (as the service daemon runs them)
        # keep their span trees and metrics apart: merged the way the
        # runner merges them, every spec contributes exactly one cell.
        from concurrent.futures import ThreadPoolExecutor

        from repro.benchmarks.cache import load_benchmark
        from repro.experiments.executor import ShardTask, execute_shard

        specs = load_benchmark("arepair", seed=0, scale=0.05)
        shards = [
            ShardTask(spec=spec, techniques=("ATR",), seed=0, trace=True)
            for spec in specs
        ]
        with ThreadPoolExecutor(max_workers=2) as pool:
            results = list(pool.map(execute_shard, shards))
        spans = []
        metrics = MetricsRegistry()
        for result in results:
            spans.extend(Span.from_json(payload) for payload in result.spans)
            metrics.merge(result.metrics)
        out = tmp_path / "threads.jsonl"
        write_trace(out, spans, metrics)
        data = read_trace(out)
        assert "cell" in data.span_names()
        cell_spans = [r for r in data.spans if r["name"] == "cell"]
        assert len(cell_spans) == len(specs)
        assert data.counter_total("repair.attempts") == len(specs)
        assert data.counter_total("sat.solves") > 0

    def test_trace_telemetry_reaches_the_matrix(self, tmp_path):
        matrix = run_matrix(
            RunConfig(
                benchmark="arepair",
                scale=0.05,
                techniques=("ATR",),
                use_cache=False,
                trace_out=str(tmp_path / "t.jsonl"),
            )
        )
        snapshot = matrix.telemetry["metrics"]
        assert snapshot["counters"]["repair.attempts{technique=ATR}"] == len(
            matrix.specs
        )


class TestOnMetricsListener:
    """The per-shard timing the ``on_shard_done`` event carries."""

    class Recorder:
        def __init__(self):
            self.summaries = []

        def on_cell(self, benchmark, outcome, done, total):
            pass

        def on_shard_done(
            self, benchmark, spec_id, done, total, elapsed, cells
        ):
            self.summaries.append({"elapsed": elapsed, "cells": cells})

        def on_failure(self, benchmark, failure):
            pass

    def test_listener_receives_per_shard_summaries(self):
        recorder = self.Recorder()
        matrix = run_matrix(
            RunConfig(
                benchmark="arepair",
                scale=0.05,
                techniques=("ATR",),
                use_cache=False,
                listener=recorder,
            )
        )
        assert len(recorder.summaries) == len(matrix.specs)
        for summary in recorder.summaries:
            assert summary["cells"] == 1
            assert summary["elapsed"] >= 0

    def test_verbose_console_listener_prints_shard_timing(self, capsys):
        from repro.experiments.progress import ConsoleListener

        listener = ConsoleListener(verbose=True)
        listener.on_shard_done("arepair", "s1", 1, 2, 0.5, 13)
        out = capsys.readouterr().out
        assert "s1" in out and "13 cells" in out

    def test_quiet_console_listener_stays_silent(self, capsys):
        from repro.experiments.progress import ConsoleListener

        listener = ConsoleListener(verbose=False)
        listener.on_shard_done("arepair", "s1", 1, 2, 0.5, 13)
        assert capsys.readouterr().out == ""


class TestProfileStaticAnalysisSections:
    """The profile surfaces for the static-analysis subsystem."""

    def _data(self) -> TraceData:
        return TraceData(
            counters={
                "analyzer.solve_calls{technique=ATR}": 10,
                "analysis.pruned_typed{rule=disjoint-join,technique=ATR}": 4,
                "analysis.pruned_typed{rule=tautology,technique=ATR}": 2,
                "analysis.pruned_typed{rule=disjoint-join,technique=BeAFix}": 1,
                "analysis.lint_findings{rule=unused-sig,technique=Single-Round_0shot}": 3,
            },
            gauges={
                "analyzer.peak_vars": 321,
                "analyzer.peak_clauses{technique=ATR}": 999,
            },
        )

    def test_labelled_total_sums_across_extra_labels(self):
        data = self._data()
        assert data.labelled_total("analysis.pruned_typed", "ATR") == 6
        assert data.labelled_total("analysis.pruned_typed", "BeAFix") == 1
        assert data.labelled_total("analysis.pruned_typed", "ICEBAR") == 0

    def test_profile_renders_typed_column(self):
        from repro.obs.export import render_profile

        rendered = render_profile(self._data())
        assert "typed" in rendered
        header, atr_row = None, None
        for line in rendered.splitlines():
            if line.lstrip().startswith("technique"):
                header = line.split()
            if line.strip().startswith("ATR"):
                atr_row = line.split()
                break
        assert header is not None and atr_row is not None
        assert atr_row[header.index("typed")] == "6"

    def test_profile_renders_pruning_by_rule(self):
        from repro.obs.export import render_profile

        rendered = render_profile(self._data())
        assert "Static pruning by rule" in rendered
        assert "disjoint-join" in rendered and "tautology" in rendered

    def test_profile_renders_peak_gauges(self):
        from repro.obs.export import render_profile

        rendered = render_profile(self._data())
        assert "Peak gauges" in rendered
        assert "analyzer.peak_vars" in rendered and "321" in rendered

    def test_gauges_section_absent_without_gauges(self):
        from repro.obs.export import render_profile

        data = TraceData(counters={"analyzer.solve_calls{technique=ATR}": 1})
        assert "Peak gauges" not in render_profile(data)

    def test_gauges_merge_as_max(self):
        first = TraceData(gauges={"analyzer.peak_vars": 10})
        second = TraceData(gauges={"analyzer.peak_vars": 30, "other": 1})
        merged = merge_trace_data([first, second])
        assert merged.gauges == {"analyzer.peak_vars": 30, "other": 1}
