"""The chaos invariant checker: report shape, determinism, cheap drills.

The expensive drills (matrix-equivalence, shard-timeout) are
exercised end-to-end by ``repro chaos`` in CI; here we pin the harness
machinery itself — payload projection, site routing, report canonical
form, and the suite scaffold the engine and daemon suites share — plus
the persistence drill, which is fast enough to run whole.
"""

import pytest

from repro.chaos import SITES, harness
from repro.chaos.harness import (
    CHAOS_SCHEMA,
    ENGINE_SUITE,
    DrillResult,
    equivalence_drill,
    matrix_payload,
    persist_drill,
    render_report,
    retry_drill,
    run_drills,
    run_suite,
    write_report,
)
from repro.experiments.runner import ResultMatrix, SpecOutcome
from repro.service import drill as service_drill
from repro.service.drill import (
    AVAILABILITY_SITES,
    SERVICE_SUITE,
    run_service_drills,
)


def outcome(spec_id, technique, status="not_fixed", elapsed=1.25):
    return SpecOutcome(
        spec_id=spec_id,
        technique=technique,
        rep=0,
        tm=0.5,
        sm=0.25,
        status=status,
        elapsed=elapsed,
    )


class TestMatrixPayload:
    def test_payload_is_sorted_and_drops_wall_clock(self):
        matrix = ResultMatrix(benchmark="adhoc", seed=0, scale=1.0)
        matrix.outcomes = {
            "z": {"B": outcome("z", "B", elapsed=9.0), "A": outcome("z", "A")},
            "a": {"A": outcome("a", "A", elapsed=0.1)},
        }
        payload = matrix_payload(matrix)
        assert list(payload) == ["a", "z"]
        assert list(payload["z"]) == ["A", "B"]
        assert payload["a"]["A"] == {
            "rep": 0, "tm": 0.5, "sm": 0.25, "status": "not_fixed"
        }
        # elapsed must not appear anywhere: it would break byte-identity.
        assert "elapsed" not in str(payload)


class TestSiteRouting:
    def test_drills_skip_when_their_sites_are_not_requested(self):
        assert persist_drill(0, {"sat.budget"}).skipped
        assert retry_drill(0, {"persist.corrupt"}, scale=0.05).skipped
        assert equivalence_drill(0, {"persist.corrupt"}, 2, 0.05).skipped

    def test_run_drills_rejects_unknown_sites(self):
        with pytest.raises(ValueError, match="unknown injection site"):
            run_drills(sites=["persist.corrupt", "made.up"])


class TestSuiteScaffold:
    """One site check, one report assembly and one renderer serve the
    engine and daemon suites alike."""

    def _report(self, suite, ok=True, **header):
        return run_suite(
            suite,
            ["sat.flip"],
            [lambda requested: DrillResult(
                name="only", violations=[] if ok else ["it broke"]
            )],
            **header,
        )

    def test_report_carries_schema_header_and_sites(self):
        calls = []

        def drill(requested):
            calls.append(sorted(requested))
            return DrillResult(name="d", violations=["v"])

        report = run_suite(
            SERVICE_SUITE, ["sat.flip", "sat.budget"], [drill, drill],
            seed=3, scale=0.05, replicas=2,
        )
        assert calls == [["sat.budget", "sat.flip"]] * 2
        assert report == {
            "schema": SERVICE_SUITE.schema,
            "seed": 3,
            "scale": 0.05,
            "replicas": 2,
            "sites": ["sat.budget", "sat.flip"],
            "drills": [DrillResult(name="d", violations=["v"]).to_json()] * 2,
            "violations": 2,
            "ok": False,
        }

    def test_unknown_site_runs_no_drill(self):
        def drill(requested):
            raise AssertionError("a drill ran before the sites were checked")

        with pytest.raises(ValueError, match="unknown injection site"):
            run_suite(ENGINE_SUITE, ["made.up"], [drill])

    def test_service_suite_rejects_unknown_site_before_any_daemon(
        self, monkeypatch
    ):
        def start(*args, **kwargs):
            raise AssertionError("a daemon started before the site check")

        monkeypatch.setattr(service_drill.ServiceHandle, "start", start)
        with pytest.raises(ValueError, match="unknown injection site"):
            run_service_drills(sites=["persist.corrupt", "made.up"])

    def test_cluster_suite_rejects_unknown_site_before_any_replica(
        self, monkeypatch
    ):
        # The service suite drills the replicated fleet too: its site
        # check must come before any replica or cluster drill starts.
        def refuse(*args, **kwargs):
            raise AssertionError("a cluster drill ran before the site check")

        monkeypatch.setattr(service_drill.ServiceHandle, "start", refuse)
        monkeypatch.setattr(service_drill, "_spawn_replica", refuse)
        with pytest.raises(ValueError, match="unknown injection site"):
            run_service_drills(sites=["made.up"])

    def test_each_suite_reports_only_the_sites_it_can_fire(self, monkeypatch):
        # Stub every drill: the suites' own site sets are under test.
        def stub(name):
            return lambda *args, **kwargs: DrillResult(name=name)

        for name in (
            "equivalence_drill",
            "persist_drill",
            "retry_drill",
            "timeout_drill",
        ):
            monkeypatch.setattr(harness, name, stub(name))
        service_drills = [
            "availability_drill",
            "backpressure_drill",
            "breaker_drill",
            "cluster_failover_drill",
        ]
        for name in service_drills:
            monkeypatch.setattr(service_drill, name, stub(name))
        service = run_service_drills()
        assert service["sites"] == sorted(AVAILABILITY_SITES)
        assert len(service["sites"]) == 7
        assert "SERVICE CHAOS — seed=0 scale=0.05 replicas=2 sites=7" in (
            render_report(service, SERVICE_SUITE)
        )
        assert [drill["name"] for drill in service["drills"]] == service_drills
        assert run_drills()["sites"] == sorted(SITES)
        assert len(SITES) == 9

    @pytest.mark.parametrize(
        "suite, header, title, held",
        [
            (
                ENGINE_SUITE,
                {"seed": 0, "jobs": 2, "scale": 0.05},
                "CHAOS — seed=0 jobs=2 scale=0.05 sites=1",
                "all invariants held",
            ),
            (
                SERVICE_SUITE,
                {"seed": 0, "scale": 0.05, "replicas": 2},
                "SERVICE CHAOS — seed=0 scale=0.05 replicas=2 sites=1",
                "availability and failover invariants held",
            ),
        ],
    )
    def test_each_suite_renders_its_title_and_verdict(
        self, suite, header, title, held
    ):
        lines = render_report(self._report(suite, **header), suite).splitlines()
        assert lines == [title, "  [  ok] only", f"  {held}"]
        failed = render_report(self._report(suite, ok=False, **header), suite)
        assert failed.splitlines()[-1] == "  1 violation(s)"
        assert held not in failed

    def test_suites_have_distinct_schemas_and_files(self):
        suites = (ENGINE_SUITE, SERVICE_SUITE)
        assert [s.schema for s in suites] == [
            "repro-chaos/2",
            "repro-service-chaos/4",
        ]
        assert [s.report_file for s in suites] == [
            "chaos-report.json",
            "service-chaos-report.json",
        ]


class TestPersistDrill:
    def test_no_corrupted_file_reads_back_valid(self):
        drill = persist_drill(0, {"persist.corrupt", "persist.truncate"})
        assert not drill.skipped
        assert drill.violations == []
        assert drill.detail["sites"] == ["persist.corrupt", "persist.truncate"]
        # 4 JSON + 4 JSONL writes per site.
        assert drill.detail["writes"] == 16


class TestReport:
    def _report(self):
        return {
            "schema": CHAOS_SCHEMA,
            "seed": 0,
            "jobs": 2,
            "scale": 0.05,
            "sites": ["persist.corrupt"],
            "drills": [
                DrillResult(name="good").to_json(),
                DrillResult(name="idle", skipped=True).to_json(),
                DrillResult(name="bad", violations=["it broke"]).to_json(),
            ],
            "violations": 1,
            "ok": False,
        }

    def test_write_report_is_byte_deterministic(self, tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        write_report(first, self._report())
        write_report(second, self._report())
        assert first.read_bytes() == second.read_bytes()
        assert first.read_bytes().endswith(b"\n")

    def test_render_report_marks_each_drill(self):
        text = render_report(self._report(), ENGINE_SUITE)
        assert "[  ok] good" in text
        assert "[SKIP] idle" in text
        assert "[FAIL] bad" in text
        assert "- it broke" in text
        assert "1 violation(s)" in text

    def test_ok_report_renders_verdict(self):
        report = self._report()
        report["drills"] = report["drills"][:2]
        report["violations"] = 0
        report["ok"] = True
        assert "all invariants held" in render_report(report, ENGINE_SUITE)


class TestDrillResult:
    def test_ok_tracks_violations(self):
        assert DrillResult(name="x").ok
        assert not DrillResult(name="x", violations=["v"]).ok

    def test_to_json_shape(self):
        data = DrillResult(name="x", detail={"k": 1}).to_json()
        assert data == {
            "name": "x",
            "ok": True,
            "skipped": False,
            "violations": [],
            "detail": {"k": 1},
        }
