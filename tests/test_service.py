"""Service-layer tests: protocol framing, admission control, circuit
breakers, the warm worker pool, the result store the ledger holds, and
the daemon's drain/adopt contract.

The expensive end-to-end paths (chaos under load, SLO assertions) live in
``repro chaos --service``; these tests pin the component contracts with
fake clocks and paused pools so every assertion is deterministic.
"""

import tempfile
import threading
import time
from pathlib import Path

import pytest

from repro.experiments.executor import ShardTask, execute_shard
from repro.obs.metrics import Histogram, percentile
from repro.service.admission import AdmissionController, TokenBucket
from repro.service.breaker import BreakerConfig, CircuitBreaker
from repro.service.client import ServiceClient
from repro.service.daemon import (
    ReproService,
    ServiceConfig,
    ServiceHandle,
    store_recipe,
)
from repro.service.ledger import ClusterFold, ClusterStore, JobLedger
from repro.service.pool import WorkerPool
from repro.service.protocol import (
    JobRecord,
    JobSpec,
    JobState,
    ProtocolError,
    decode_message,
    encode_message,
    event_frame,
    reject_frame,
    uses_llm,
)


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    return tmp_path / "cache"


@pytest.fixture
def socket_dir():
    # Unix socket paths are length-limited (~108 bytes); a short /tmp dir
    # keeps the tests independent of how deep pytest's tmp_path nests.
    with tempfile.TemporaryDirectory(prefix="repro-svc-") as path:
        yield path


def _config(socket_dir, **overrides):
    defaults = dict(
        socket=str(Path(socket_dir) / "svc.sock"),
        benchmark="arepair",
        scale=0.1,
        seed=0,
        workers=1,
        job_timeout=None,
    )
    defaults.update(overrides)
    return ServiceConfig(**defaults)


def _wait(predicate, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


def _projection(cells: dict) -> dict:
    """Strip timing fields so equality means *result* equality."""
    return {
        technique: (cell["rep"], cell["tm"], cell["sm"], cell["status"])
        for technique, cell in cells.items()
    }


class TestProtocol:
    def test_frames_round_trip(self):
        frame = {"op": "submit", "job": {"spec_id": "x"}, "watch": True}
        assert decode_message(encode_message(frame)) == frame

    def test_encoding_is_canonical(self):
        # Sorted keys, compact separators, newline-terminated: the frame
        # bytes are a pure function of the message.
        raw = encode_message({"b": 1, "a": 2})
        assert raw == b'{"a":2,"b":1}\n'

    @pytest.mark.parametrize(
        "line", [b"{nope", b"[1, 2]", b'"just a string"', b"\xff\xfe"]
    )
    def test_malformed_frames_raise_protocol_error(self, line):
        with pytest.raises(ProtocolError):
            decode_message(line)

    def test_job_spec_round_trips(self):
        spec = JobSpec(
            benchmark="arepair",
            spec_id="s#1",
            techniques=("ATR", "BeAFix"),
            seed=3,
            tenant="t1",
            priority=2,
        )
        assert JobSpec.from_json(spec.to_json()) == spec

    def test_adhoc_jobs_must_carry_source(self):
        with pytest.raises(ValueError, match="source"):
            JobSpec(benchmark="adhoc", spec_id="x", techniques=("ATR",))

    def test_jobs_need_at_least_one_technique(self):
        with pytest.raises(ValueError, match="technique"):
            JobSpec(benchmark="arepair", spec_id="x", techniques=())

    def test_malformed_job_payload_raises_protocol_error(self):
        with pytest.raises(ProtocolError):
            JobSpec.from_json({"benchmark": "arepair"})

    @pytest.mark.parametrize(
        "technique, expected",
        [
            ("Single-Round_Pass", True),
            ("Multi-Round_Generic", True),
            ("ATR", False),
            ("BeAFix", False),
        ],
    )
    def test_llm_technique_classification(self, technique, expected):
        assert uses_llm(technique) is expected

    def test_reject_frame_carries_the_backpressure_hint(self):
        frame = reject_frame("queue_full", 0.123456789)
        assert frame["type"] == "reject"
        assert frame["retry_after"] == pytest.approx(0.123457)

    def test_terminal_event_frame_carries_the_payload(self):
        spec = JobSpec(benchmark="arepair", spec_id="s", techniques=("ATR",))
        record = JobRecord(job_id="job-1", spec=spec, state=JobState.DONE)
        record.outcomes = {"ATR": {"rep": 1}}
        frame = event_frame(record)
        assert frame["state"] == "done"
        assert frame["outcomes"] == {"ATR": {"rep": 1}}
        running = JobRecord(job_id="job-2", spec=spec, state=JobState.RUNNING)
        assert "outcomes" not in event_frame(running)


class TestTokenBucket:
    def test_drains_then_reports_the_exact_wait(self):
        bucket = TokenBucket(capacity=2, refill_rate=0.5)
        for _ in range(2):
            assert bucket.wait(0.0) == 0.0
            bucket.take(0.0)
        # Empty: one token at 0.5/s is 2 seconds away.
        assert bucket.wait(0.0) == pytest.approx(2.0)
        assert bucket.level(0.0) == 0.0
        assert bucket.wait(2.0) == 0.0
        # Refill is capped: a long idle spell holds only the capacity.
        assert bucket.level(100.0) == 2.0

    def test_unrefillable_bucket_reports_the_horizon_not_infinity(self):
        bucket = TokenBucket(capacity=1, refill_rate=0.0)
        assert bucket.wait(0.0) == 0.0
        bucket.take(0.0)
        assert bucket.wait(10.0) == 3600.0

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(capacity=0, refill_rate=1.0)
        with pytest.raises(ValueError):
            TokenBucket(capacity=1, refill_rate=-1.0)


class TestServiceConfigValidation:
    """Tuning values the daemon could never honour fail at construction,
    not on the first submission or deep inside the lease manager."""

    @pytest.mark.parametrize(
        "overrides, field",
        [
            (dict(bucket_capacity=0), "bucket_capacity"),
            (dict(bucket_capacity=-2.0), "bucket_capacity"),
            (dict(bucket_refill=-1.0), "bucket_refill"),
            (dict(lease_ttl=0), "lease_ttl"),
        ],
    )
    def test_rejects(self, socket_dir, overrides, field):
        with pytest.raises(ValueError, match=field):
            _config(socket_dir, **overrides)

    def test_accepts_boundary_values(self, socket_dir):
        config = _config(socket_dir, bucket_refill=0.0, lease_ttl=5.0)
        assert config.bucket_refill == 0.0
        assert config.lease_ttl == 5.0
        # A lone daemon is a one-replica cluster next to its socket.
        assert config.resolved_cluster_dir() == Path(f"{config.socket}.cluster")


def _quotas(tmp_path, now, capacity, refill):
    """Ledger-backed tenant buckets on a fake clock."""
    return ClusterStore(
        tmp_path / "cluster", "r1", {"b": "test"}, clock=lambda: now[0],
        bucket_capacity=capacity, bucket_refill=refill,
    )


class TestAdmissionController:
    def test_full_queue_rejects_without_spending_tokens(self, tmp_path):
        now = [0.0]
        quotas = _quotas(tmp_path, now, capacity=4, refill=0.0)
        controller = AdmissionController(quotas, max_queue=2)
        verdict = controller.admit("t1", queue_depth=2)
        assert not verdict.admitted
        assert verdict.reason == "queue_full"
        assert verdict.retry_after > 0
        # The queue gate ran first: the tenant's budget is intact.
        assert quotas.balance("t1") == 4.0
        assert quotas.tenants() == []

    def test_rate_limit_recovers_with_the_clock(self, tmp_path):
        now = [0.0]
        controller = AdmissionController(
            _quotas(tmp_path, now, capacity=1, refill=2.0), max_queue=64
        )
        assert controller.admit("t1", queue_depth=0).admitted
        verdict = controller.admit("t1", queue_depth=0)
        assert verdict.reason == "rate_limited"
        assert verdict.retry_after == pytest.approx(0.5)
        # Other tenants draw from their own buckets.
        assert controller.admit("t2", queue_depth=0).admitted
        now[0] = 0.5
        assert controller.admit("t1", queue_depth=0).admitted

    def test_snapshot_counts_verdicts(self, tmp_path):
        controller = AdmissionController(
            _quotas(tmp_path, [0.0], capacity=1, refill=0.0), max_queue=1
        )
        controller.admit("a", queue_depth=0)
        controller.admit("a", queue_depth=0)
        controller.admit("a", queue_depth=5)
        snapshot = controller.snapshot()
        assert snapshot["admitted"] == 1
        assert snapshot["rejected"] == {"queue_full": 1, "rate_limited": 1}
        assert snapshot["tenants"] == ["a"]


class TestCircuitBreaker:
    def _breaker(self, now, **overrides):
        defaults = dict(
            window=4, min_calls=2, failure_rate=0.5, cooldown=10.0,
            half_open_probes=1,
        )
        defaults.update(overrides)
        return CircuitBreaker(
            "dep", BreakerConfig(**defaults), clock=lambda: now[0]
        )

    def test_trips_at_the_failure_rate(self):
        now = [0.0]
        breaker = self._breaker(now)
        breaker.record_failure("llm.transient")
        assert breaker.state == "closed"  # below min_calls
        breaker.record_failure("llm.transient")
        assert breaker.state == "open"
        assert not breaker.allow()
        assert breaker.retry_after() == pytest.approx(10.0)
        assert breaker.last_failure_code == "llm.transient"

    def test_successes_keep_the_rate_below_threshold(self):
        now = [0.0]
        breaker = self._breaker(now)
        for _ in range(3):
            breaker.record_success()
        breaker.record_failure("llm.transient")
        # 1 failure in a window of 4 is under the 0.5 trip rate.
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_cooldown_leads_to_half_open_probing(self):
        now = [0.0]
        breaker = self._breaker(now)
        breaker.record_failure("x")
        breaker.record_failure("x")
        now[0] = 10.0
        assert breaker.state == "half-open"
        assert breaker.allow()  # the single probe
        assert not breaker.allow()  # no more until the probe reports

    def test_successful_probe_closes(self):
        now = [0.0]
        breaker = self._breaker(now)
        breaker.record_failure("x")
        breaker.record_failure("x")
        now[0] = 10.0
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_failing_probe_reopens(self):
        now = [0.0]
        breaker = self._breaker(now)
        breaker.record_failure("x")
        breaker.record_failure("x")
        now[0] = 10.0
        assert breaker.allow()
        breaker.record_failure("x")
        assert breaker.state == "open"
        # The cooldown restarts from the failed probe.
        assert breaker.retry_after() == pytest.approx(10.0)
        assert breaker.opens == 2


class TestWorkerPool:
    def test_dispatch_order_is_priority_then_longest_then_fifo(self):
        pool = WorkerPool(
            workers=1, runner=lambda item: item, on_result=lambda *a: None
        )
        pool.pause()
        try:
            pool.submit("a", priority=0, cost=1.0)
            pool.submit("b", priority=1, cost=0.5)
            pool.submit("c", priority=1, cost=2.0)
            pool.submit("d", priority=0, cost=1.0)
            assert pool.drain_pending() == ["c", "b", "a", "d"]
        finally:
            pool.stop()

    def test_paused_pool_holds_work_until_resume(self):
        done = []
        pool = WorkerPool(
            workers=2,
            runner=lambda item: item * 2,
            on_result=lambda item, result, error: done.append(result),
        )
        pool.pause()
        try:
            pool.submit(1)
            pool.submit(2)
            time.sleep(0.05)
            assert done == []
            assert pool.queued() == 2
            pool.resume()
            assert _wait(lambda: len(done) == 2)
            assert sorted(done) == [2, 4]
            assert pool.executed == 2
        finally:
            pool.stop()

    def test_wedged_worker_is_replaced_and_its_late_result_discarded(self):
        now = [0.0]
        release = threading.Event()
        results = []

        def runner(item):
            if item == "wedge":
                release.wait(timeout=30)
            return item

        pool = WorkerPool(
            workers=1,
            runner=runner,
            on_result=lambda item, result, error: results.append(item),
            deadline=1.0,
            clock=lambda: now[0],
        )
        try:
            pool.submit("wedge")
            assert _wait(lambda: pool.running() == 1)
            assert pool.reap_wedged() == []  # within the allowance
            now[0] = 3.5  # past deadline*2 + 1
            assert pool.reap_wedged() == ["wedge"]
            assert pool.wedged == 1 and pool.replaced == 1
            # The replacement thread restores capacity immediately...
            release.set()
            pool.submit("fresh")
            assert _wait(lambda: "fresh" in results)
            # ...and the abandoned worker's eventual result is discarded.
            assert "wedge" not in results
        finally:
            pool.stop()

    def test_submit_after_stop_is_an_error(self):
        pool = WorkerPool(
            workers=1, runner=lambda item: item, on_result=lambda *a: None
        )
        pool.stop()
        with pytest.raises(RuntimeError, match="stopped"):
            pool.submit("x")


class TestResultStore:
    """The daemon's result store is the ledger fold: the cells of
    committed ``done`` records, keyed by recipe and run seed."""

    def _store(self, socket_dir, replica="r1"):
        config = _config(socket_dir)
        return ClusterStore(
            config.resolved_cluster_dir(), replica, store_recipe(config)
        )

    def _cell(self, status="not_fixed", rep=1):
        return {"rep": rep, "tm": 0.5, "sm": 0.25, "status": status,
                "elapsed": 0.1, "error_code": None}

    def _commit(self, store, job_id, outcomes):
        token = store.register(job_id, {"spec_id": "s"})
        store.commit(job_id, "s", outcomes, token, seed=0)

    def test_round_trips_and_skips_timeout_cells(self, socket_dir):
        store = self._store(socket_dir)
        self._commit(store, "job-1", {
            "ATR": self._cell(),
            "BeAFix": self._cell(status="timeout", rep=0),
        })
        again = self._store(socket_dir, replica="r2")
        assert again.lookup("s", 0)["ATR"]["rep"] == 1
        # Timeout cells are execution artifacts: never stored, so a
        # resubmitted job recomputes them.
        assert "BeAFix" not in again.lookup("s", 0)
        assert again.missing("s", 0, ("ATR", "BeAFix")) == ("BeAFix",)

    def test_torn_done_record_is_a_miss_not_a_crash(self, socket_dir):
        store = self._store(socket_dir)
        token = store.register("job-1", {"spec_id": "s"})
        with store.ledger.path.open("ab") as handle:
            handle.write(b'\n{"event":"done","job_id":"job-1","spec_id":"s"')
        # A replica killed mid-commit: its torn record stores nothing.
        healed = self._store(socket_dir, replica="r2")
        assert healed.lookup("s", 0) == {}
        assert healed.snapshot()["ledger_corrupt_lines"] == 0
        # The job's next commit lands and is served; the torn line is
        # sealed off by that append and counted.
        store.commit("job-1", "s", {"ATR": self._cell()}, token, seed=0)
        assert healed.lookup("s", 0)["ATR"]["rep"] == 1
        assert healed.snapshot()["ledger_corrupt_lines"] == 1

    def test_percentile_is_nearest_rank(self):
        # Nearest rank: the ceil(q * n)-th smallest value.
        assert percentile([], 0.99) == 0.0
        values = [float(v) for v in range(1, 101)]
        assert percentile(values, 0.50) == 50.0
        assert percentile(values, 0.99) == 99.0
        assert percentile(values, 1.0) == 100.0
        assert percentile([7.0], 0.99) == 7.0
        # Exact ranks must not round up: round-half-even and float noise
        # (0.07 * 100 == 7.000000000000001) both used to add one.
        assert percentile([1.0, 2.0], 0.50) == 1.0
        ten = [float(v) for v in range(1, 11)]
        assert percentile(ten, 0.50) == 5.0
        assert percentile(ten, 0.90) == 9.0
        assert percentile(values, 0.07) == 7.0
        # Histograms report the same definition as the daemon's stats.
        histogram = Histogram()
        for value in (1.0, 2.0, 3.0, 4.0):
            histogram.observe(value)
        summary = histogram.summary()
        assert summary["p50"] == percentile([1.0, 2.0, 3.0, 4.0], 0.50) == 2.0
        assert summary["p90"] == 4.0


class TestServiceSubmission:
    def test_validation_errors_never_create_jobs(self, socket_dir):
        service = ReproService(_config(socket_dir))
        service.pool.pause()
        try:
            known = service.jobs_corpus_ids()[0]
            cases = [
                (
                    JobSpec(benchmark="alloy4fun", spec_id=known,
                            techniques=("ATR",)),
                    "service.wrong_benchmark",
                ),
                (
                    JobSpec(benchmark="arepair", spec_id="no-such-spec",
                            techniques=("ATR",)),
                    "service.unknown_spec",
                ),
                (
                    JobSpec(benchmark="arepair", spec_id=known,
                            techniques=("NotATool",)),
                    "service.unknown_technique",
                ),
            ]
            for spec, code in cases:
                record, frame = service.submit(spec)
                assert record is None
                assert frame["type"] == "error"
                assert frame["code"] == code
            assert service.jobs == {}
        finally:
            service.pool.stop()

    def test_draining_service_rejects_new_work(self, socket_dir):
        service = ReproService(_config(socket_dir))
        service.pool.pause()
        try:
            service._draining = True
            spec = JobSpec(
                benchmark="arepair",
                spec_id=service.jobs_corpus_ids()[0],
                techniques=("ATR",),
            )
            record, frame = service.submit(spec)
            assert record is None
            assert frame == reject_frame("draining", 1.0)
        finally:
            service.pool.stop()


class TestDrainResume:
    """The kill-and-restart contract: drained jobs are adopted by the next
    incarnation, keep their ids, and produce results bit-identical to a
    direct run."""

    TECHNIQUES = ("ATR", "Single-Round_Pass")
    """A traditional and an LLM technique, so adopted cells on both
    paths are compared with direct execution."""

    def _admit_and_drain(self, config, count):
        """Incarnation one admits jobs into a paused pool, then drains:
        every job must be journaled ``drained``, none executed."""
        first = ReproService(config)
        first.pool.pause()
        spec_ids = first.jobs_corpus_ids()[:count]
        assert spec_ids, "scaled benchmark should not be empty"
        job_ids = []
        for spec_id in spec_ids:
            record, frame = first.submit(
                JobSpec(benchmark="arepair", spec_id=spec_id,
                        techniques=self.TECHNIQUES)
            )
            assert frame["type"] == "ack"
            job_ids.append(record.job_id)
        first._hand_off()
        first.pool.stop()
        return first, spec_ids, job_ids

    def _fold(self, config):
        cluster_dir = config.resolved_cluster_dir()
        fold = ClusterFold()
        for record in JobLedger(
            cluster_dir / "ledger.jsonl", cluster_dir / ".cluster.lock"
        ).replay():
            fold.apply(record)
        return fold

    def test_resumed_jobs_match_a_direct_run(self, socket_dir, monkeypatch):
        import repro.service.daemon as daemon

        config = _config(socket_dir)
        first, spec_ids, job_ids = self._admit_and_drain(config, 2)
        assert sorted(
            view.job_id
            for view in self._fold(config).jobs.values()
            if view.state == "drained"
        ) == sorted(job_ids)

        # The reference: the same cells computed directly by the engine.
        reference = {}
        for spec_id in spec_ids:
            result = execute_shard(
                ShardTask(
                    spec=first._specs[spec_id],
                    techniques=self.TECHNIQUES,
                    seed=0,
                )
            )
            reference[spec_id] = {
                t: (o.rep, o.tm, o.sm, o.status)
                for t, o in result.outcomes.items()
            }

        # Incarnation two adopts the drained jobs before it listens.
        at_listen = {}
        listen = daemon.asyncio.start_unix_server

        async def spy(*args, **kwargs):
            at_listen["jobs"] = sorted(handle_service.jobs)
            at_listen["adopted"] = handle_service.adopted_jobs
            return await listen(*args, **kwargs)

        monkeypatch.setattr(daemon.asyncio, "start_unix_server", spy)
        handle_service = ReproService(config)
        thread = threading.Thread(
            target=lambda: daemon.asyncio.run(handle_service.serve()),
            daemon=True,
        )
        thread.start()
        handle = ServiceHandle(handle_service, thread)
        try:
            assert handle_service.started.wait(60.0)
            assert at_listen == {"jobs": sorted(job_ids), "adopted": 2}
            assert _wait(
                lambda: all(r.terminal for r in handle_service.jobs.values())
            )
            for job_id in job_ids:
                record = handle_service.jobs[job_id]
                assert record.adopted is True
                assert record.state is JobState.DONE
                assert _projection(record.outcomes) == (
                    reference[record.spec.spec_id]
                )
        finally:
            handle.drain(grace=5.0)
        assert self._fold(config).non_terminal() == []

        # Incarnation three finds everything in the store: jobs complete
        # without executing anything.
        third = ReproService(config)
        try:
            for spec_id in spec_ids:
                record, _ = third.submit(
                    JobSpec(benchmark="arepair", spec_id=spec_id,
                            techniques=self.TECHNIQUES)
                )
                assert record.state is JobState.DONE
                assert record.from_store is True
                assert _projection(record.outcomes) == reference[spec_id]
            assert third.pool.executed == 0
        finally:
            third.pool.stop()

    def test_clean_drain_leaves_nothing_to_adopt(self, socket_dir):
        config = _config(socket_dir)
        service = ReproService(config)
        try:
            service._hand_off()
            assert self._fold(config).non_terminal() == []
        finally:
            service.pool.stop()
        reborn = ReproService(config)
        try:
            reborn._reclaim_orphans()
            assert reborn.adopted_jobs == 0
        finally:
            reborn.pool.stop()

    def test_store_hit_leaves_no_lease_no_record_no_rewrite(
        self, socket_dir
    ):
        config = _config(socket_dir)
        service = ReproService(config)
        try:
            spec_id = service.jobs_corpus_ids()[0]
            job = JobSpec(
                benchmark="arepair", spec_id=spec_id, techniques=("ATR",)
            )
            record, _ = service.submit(job)
            assert _wait(lambda: record.terminal)
            ledger_jobs = set(self._fold(config).jobs)
            acquired = service.cluster.acquired
            hit, _ = service.submit(job)
            assert hit.from_store is True and hit.state is JobState.DONE
            assert hit.outcomes == record.outcomes
            assert service.cluster.acquired == acquired
            assert service.cluster.snapshot()["leases_held"] == []
            assert set(self._fold(config).jobs) == ledger_jobs
            assert hit.job_id not in ledger_jobs
            cluster_dir = config.resolved_cluster_dir()
            assert sorted(p.name for p in cluster_dir.iterdir()) == [
                ".cluster.lock",
                "ledger.jsonl",
            ]
        finally:
            service.pool.stop()

    def test_store_hits_are_per_job_seed(self, socket_dir):
        config = _config(socket_dir)
        service = ReproService(config)
        try:
            spec_id = service.jobs_corpus_ids()[0]

            def job(seed):
                return JobSpec(
                    benchmark="arepair", spec_id=spec_id,
                    techniques=("ATR",), seed=seed,
                )

            first, _ = service.submit(job(1))
            assert _wait(lambda: first.terminal)
            other, _ = service.submit(job(0))
            assert other.from_store is False
            assert _wait(lambda: other.terminal)
            assert other.state is JobState.DONE
            again, _ = service.submit(job(1))
            assert again.from_store is True
            assert again.outcomes == first.outcomes
            assert service.pool.executed == 2
        finally:
            service.pool.stop()

    def test_result_landing_during_shutdown_commits(
        self, socket_dir, monkeypatch
    ):
        import repro.service.daemon as daemon

        config = _config(socket_dir)
        running, release = threading.Event(), threading.Event()
        real = daemon.execute_shard

        def slow(task):
            result = real(task)
            running.set()
            release.wait(10.0)
            return result

        monkeypatch.setattr(daemon, "execute_shard", slow)
        handle = ServiceHandle.start(config)
        try:
            spec_id = handle.service.jobs_corpus_ids()[0]
            outcome = ServiceClient(handle.socket).submit(
                JobSpec(benchmark="arepair", spec_id=spec_id,
                        techniques=("ATR",)),
                watch=False,
            )
            assert running.wait(60.0)
            # The worker finishes 0.3 s into the shutdown, inside the
            # pool's join: the result must commit, not be fenced behind
            # a drain.
            threading.Timer(0.3, release.set).start()
        finally:
            handle.drain(grace=0.0)
        fold = self._fold(config)
        assert fold.jobs[outcome.job_id].state == "done"
        events = {
            record.get("event")
            for record in JobLedger(
                config.resolved_cluster_dir() / "ledger.jsonl",
                config.resolved_cluster_dir() / ".cluster.lock",
            ).replay()
            if record.get("job_id") == outcome.job_id
        }
        assert not events & {"drained", "fenced"}, events
        assert fold.fenced_commits == 0


class TestServiceEndToEnd:
    def test_socket_submission_matches_direct_execution(self, socket_dir):
        config = _config(socket_dir, workers=2)
        handle = ServiceHandle.start(config)
        try:
            client = ServiceClient(handle.socket)
            pong = client.ping()
            assert pong["type"] == "pong"
            assert pong["benchmark"] == "arepair"

            spec_id = handle.service.jobs_corpus_ids()[0]
            job = JobSpec(
                benchmark="arepair", spec_id=spec_id, techniques=("ATR",)
            )
            outcome = client.submit_retrying(job)
            assert outcome.accepted
            assert outcome.state == "done"
            assert outcome.error is None

            direct = execute_shard(
                ShardTask(
                    spec=handle.service._specs[spec_id],
                    techniques=("ATR",),
                    seed=0,
                )
            )
            assert _projection(outcome.outcomes) == {
                t: (o.rep, o.tm, o.sm, o.status)
                for t, o in direct.outcomes.items()
            }

            # The repeat is served from the store, byte-identical.
            again = client.submit_retrying(job)
            assert again.from_store is True
            assert again.outcomes == outcome.outcomes

            stats = client.stats()
            assert stats["jobs_by_state"] == {"done": 2}
            assert stats["queue_wait"]["count"] == 2
            (summary,) = [
                j for j in client.jobs() if j["job_id"] == outcome.job_id
            ]
            assert summary["state"] == "done"
        finally:
            handle.drain(grace=5.0)
        assert not Path(handle.socket).exists()
