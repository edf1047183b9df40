"""Cluster-tier tests: fenced leases, the job ledger, ledger-folded
quotas, client failover, and two in-process replicas handing work over.

The subprocess ``kill -9`` failover path lives in ``repro chaos
--cluster``; these tests pin the component contracts with fake clocks
(lease expiry, quota refill) and deterministic thread races so every
assertion reproduces.
"""

import tempfile
import threading
import time
from pathlib import Path

import pytest

from repro.experiments.executor import ShardTask, execute_shard
from repro.service.client import ServiceClient
from repro.service.daemon import ReproService, ServiceConfig, ServiceHandle
from repro.service.ledger import (
    ClusterFold,
    ClusterStore,
    DuplicateCommitError,
    JobLedger,
    StaleWriterError,
)
from repro.service.lease import (
    HeartbeatLoop,
    LeaseError,
    LeaseLostError,
    LeaseManager,
)
from repro.service.admission import TokenBucket
from repro.service.protocol import JobSpec, ServiceError


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    return tmp_path / "cache"


@pytest.fixture
def socket_dir():
    # Unix socket paths are length-limited (~108 bytes); a short /tmp dir
    # keeps the tests independent of how deep pytest's tmp_path nests.
    with tempfile.TemporaryDirectory(prefix="repro-clu-") as path:
        yield path


def _wait(predicate, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return False


class _Clock:
    def __init__(self, start=100.0):
        self.now = start

    def __call__(self):
        return self.now


RECIPE = {"b": "arepair", "s": 0}


class TestLeaseManager:
    def test_expiry_is_boundary_inclusive(self, tmp_path):
        clock = _Clock()
        manager = LeaseManager(tmp_path, "r1", ttl=5.0, clock=clock)
        lease = manager.acquire("job-1")
        assert not manager.is_expired(lease, lease.expires_at - 1e-6)
        assert manager.is_expired(lease, lease.expires_at)

    def test_expiry_exactly_at_heartbeat_boundary(self, tmp_path):
        # A replica that renews at exactly expires_at has already lost:
        # an adopter observing the same instant wins first.
        clock = _Clock()
        m1 = LeaseManager(tmp_path, "r1", ttl=3.0, clock=clock)
        m2 = LeaseManager(tmp_path, "r2", ttl=3.0, clock=clock)
        lease = m1.acquire("job-1")
        clock.now = lease.expires_at
        adopted = m2.adopt("job-1")
        assert adopted.token > lease.token
        with pytest.raises(LeaseLostError):
            m1.renew(lease)
        assert m1.lost == 1

    def test_two_replicas_racing_to_adopt_one_wins(self, tmp_path):
        clock = _Clock()
        owner = LeaseManager(tmp_path, "r0", ttl=1.0, clock=clock)
        lease = owner.acquire("job-1")
        clock.now = lease.expires_at + 1.0
        managers = [
            LeaseManager(tmp_path, f"r{i}", ttl=30.0, clock=clock)
            for i in (1, 2)
        ]
        outcomes: list = [None, None]
        barrier = threading.Barrier(2)

        def race(index):
            barrier.wait()
            try:
                outcomes[index] = managers[index].adopt("job-1")
            except LeaseError as error:
                outcomes[index] = error

        threads = [
            threading.Thread(target=race, args=(i,)) for i in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        winners = [o for o in outcomes if not isinstance(o, Exception)]
        losers = [o for o in outcomes if isinstance(o, LeaseError)]
        assert len(winners) == 1 and len(losers) == 1
        assert winners[0].token > lease.token

    def test_renewal_extends_and_keeps_the_token(self, tmp_path):
        clock = _Clock()
        manager = LeaseManager(tmp_path, "r1", ttl=5.0, clock=clock)
        lease = manager.acquire("job-1")
        clock.now += 4.0
        renewed = manager.renew(lease)
        assert renewed.token == lease.token
        assert renewed.expires_at == clock.now + 5.0

    def test_corrupt_fence_counter_never_reuses_a_token(self, tmp_path):
        clock = _Clock()
        manager = LeaseManager(tmp_path, "r1", ttl=5.0, clock=clock)
        high = max(manager.acquire(f"job-{i}").token for i in range(3))
        manager._fence_path.write_text("scrambled")
        fresh = manager.acquire("job-9")
        assert fresh.token > high

    def test_heartbeat_jitter_is_deterministic_and_bounded(self, tmp_path):
        manager = LeaseManager(tmp_path, "r1", ttl=6.0, jitter_seed=7)
        twin = LeaseManager(tmp_path, "r1", ttl=6.0, jitter_seed=7)
        other = LeaseManager(tmp_path, "r2", ttl=6.0, jitter_seed=7)
        delays = [manager.heartbeat_delay(beat) for beat in range(8)]
        assert delays == [twin.heartbeat_delay(beat) for beat in range(8)]
        assert delays != [other.heartbeat_delay(beat) for beat in range(8)]
        base = manager.heartbeat
        assert all(base * 0.5 <= d < base for d in delays)

    def test_heartbeat_loop_reports_a_lost_lease(self, tmp_path):
        manager = LeaseManager(tmp_path, "r1", ttl=0.4, heartbeat=0.05)
        rival = LeaseManager(tmp_path, "r2", ttl=30.0)
        lease = manager.acquire("job-1")
        lost: list[str] = []
        loop = HeartbeatLoop(manager, on_lost=lost.append)
        loop.start()
        try:
            time.sleep(0.5)  # let the lease lapse without pausing renewals
        finally:
            loop.stop()
        # Renewals kept it alive the whole time; now fence it out.
        current = manager.current("job-1")
        assert current is not None and current.token == lease.token
        time.sleep(0.45)
        rival.adopt("job-1")
        loop2 = HeartbeatLoop(manager, on_lost=lost.append)
        loop2.start()
        try:
            assert _wait(lambda: lost == ["job-1"], timeout=5.0)
        finally:
            loop2.stop()


class TestJobLedger:
    def test_torn_tail_is_one_skippable_line(self, tmp_path):
        ledger = JobLedger(tmp_path / "l.jsonl", tmp_path / ".lock")
        ledger.append({"event": "submitted", "job_id": "a", "ts": 1})
        with ledger.path.open("ab") as handle:
            handle.write(b'{"event":"done","job_id":"a","outco')
        reader = JobLedger(ledger.path, ledger.lock_path)
        records = reader.replay()
        assert [r["event"] for r in records] == ["submitted"]
        assert reader.corrupt_lines == 1
        # The next append's leading newline seals the junk off.
        ledger.append({"event": "running", "job_id": "a", "ts": 2})
        healed = JobLedger(ledger.path, ledger.lock_path)
        assert [r["event"] for r in healed.replay()] == [
            "submitted",
            "running",
        ]
        assert healed.corrupt_lines == 1

    def test_poll_consumes_only_complete_lines(self, tmp_path):
        ledger = JobLedger(tmp_path / "l.jsonl", tmp_path / ".lock")
        ledger.append({"event": "submitted", "job_id": "a", "ts": 1})
        reader = JobLedger(ledger.path, ledger.lock_path)
        assert [r["event"] for r in reader.poll()] == ["submitted"]
        assert reader.poll() == []
        ledger.append({"event": "done", "job_id": "a", "ts": 2})
        assert [r["event"] for r in reader.poll()] == ["done"]

    def test_fold_first_terminal_record_wins(self, tmp_path):
        fold = ClusterFold()
        fold.apply({"event": "submitted", "job_id": "a", "spec": {}, "ts": 1})
        fold.apply({"event": "leased", "job_id": "a", "token": 1, "ts": 1})
        fold.apply(
            {
                "event": "done",
                "job_id": "a",
                "outcomes": {"ATR": {"status": "correct"}},
                "executed": True,
                "ts": 2,
            }
        )
        fold.apply({"event": "failed", "job_id": "a", "error": "late", "ts": 3})
        view = fold.jobs["a"]
        assert view.state == "done"
        assert view.error is None
        assert fold.double_committed() == ["a"]


class TestClusterStore:
    def test_stale_writer_is_fenced_and_store_untouched(self, tmp_path):
        clock = _Clock()
        cs1 = ClusterStore(tmp_path, "r1", RECIPE, ttl=2.0, clock=clock)
        cs2 = ClusterStore(tmp_path, "r2", RECIPE, ttl=2.0, clock=clock)
        stale = cs1.register("job-1", {"spec_id": "S1"})
        clock.now += 2.0
        ((job_id, payload, fresh),) = cs2.adopt_orphans()
        assert (job_id, payload) == ("job-1", {"spec_id": "S1"})
        cell = {"rep": 1, "tm": 0.1, "sm": 0.2, "status": "correct"}
        with pytest.raises(StaleWriterError):
            cs1.commit("job-1", "S1", {"ATR": cell}, stale.token)
        assert cs1.lookup("S1") == {}
        assert cs1.fencing_rejections == 1
        cs2.commit("job-1", "S1", {"ATR": cell}, fresh.token)
        assert cs2.lookup("S1") == {"ATR": cell}
        fold = ClusterFold()
        for record in cs2.ledger.replay():
            fold.apply(record)
        assert fold.fenced_commits == 1
        assert fold.double_committed() == []
        assert fold.tokens_monotonic()

    def test_commit_after_terminal_is_a_duplicate(self, tmp_path):
        clock = _Clock()
        store = ClusterStore(tmp_path, "r1", RECIPE, ttl=5.0, clock=clock)
        lease = store.register("job-1", {"spec_id": "S1"})
        store.commit("job-1", "S1", {}, lease.token)
        with pytest.raises(DuplicateCommitError):
            store.commit_failed("job-1", lease.token + 1, "late failure")
        assert store.duplicate_commits == 1

    def test_drained_jobs_are_adoptable_immediately(self, tmp_path):
        clock = _Clock()
        cs1 = ClusterStore(tmp_path, "r1", RECIPE, ttl=60.0, clock=clock)
        cs2 = ClusterStore(tmp_path, "r2", RECIPE, ttl=60.0, clock=clock)
        cs1.register("job-1", {"spec_id": "S1"})
        cs1.drain(["job-1"])
        adopted = cs2.adopt_orphans()
        assert [job_id for job_id, _, _ in adopted] == ["job-1"]

    def test_torn_submission_gets_a_grace_window(self, tmp_path):
        # A journaled job with no lease yet (the submitter died between
        # the two appends) is only adoptable after one TTL.
        clock = _Clock()
        store = ClusterStore(tmp_path, "r2", RECIPE, ttl=10.0, clock=clock)
        store.ledger.append(
            {
                "event": "submitted",
                "job_id": "job-torn",
                "spec": {"spec_id": "S1"},
                "replica": "r1",
                "ts": clock.now,
            }
        )
        assert store.adopt_orphans() == []
        clock.now += 10.0
        assert [j for j, _, _ in store.adopt_orphans()] == ["job-torn"]

    def test_corrupt_store_mirror_is_a_miss(self, tmp_path):
        clock = _Clock()
        store = ClusterStore(tmp_path, "r1", RECIPE, ttl=5.0, clock=clock)
        lease = store.register("job-1", {"spec_id": "S1"})
        cell = {"rep": 1, "tm": 0.1, "sm": 0.2, "status": "correct"}
        store.commit("job-1", "S1", {"ATR": cell}, lease.token)
        store.store_path.write_text("{scrambled")
        assert store.lookup("S1") == {}
        assert store.missing("S1", ("ATR",)) == ("ATR",)


def _quotas(root, replica, clock, capacity, refill):
    return ClusterStore(
        root, replica, RECIPE, clock=clock,
        bucket_capacity=capacity, bucket_refill=refill,
    )


class TestDurableQuotas:
    """Tenant buckets are ``debit`` records in the ledger, folded per
    tenant with the token bucket's refill math."""

    def test_balance_survives_a_controller_restart(self, tmp_path):
        # A debit by one replica is seen by a reborn one through the fold.
        clock = _Clock()
        first = _quotas(tmp_path, "r1", clock, 4.0, 0.0)
        assert first.debit("t1", 3.0) == 0.0
        reborn = _quotas(tmp_path, "r2", clock, 4.0, 0.0)
        assert reborn.balance("t1") == 1.0
        assert reborn.debit("t1", 2.0) > 0.0
        assert reborn.tenants() == ["t1"]
        # One admission is one appended record; a refusal writes nothing.
        debits = [
            r for r in reborn.ledger.replay() if r["event"] == "debit"
        ]
        assert [(r["tenant"], r["cost"], r["replica"]) for r in debits] == [
            ("t1", 3.0, "r1")
        ]

    def test_refill_uses_the_shared_wall_clock(self, tmp_path):
        clock = _Clock()
        store = _quotas(tmp_path, "r1", clock, 4.0, 2.0)
        assert store.debit("t1", 4.0) == 0.0
        wait = store.debit("t1", 4.0)
        assert wait == pytest.approx(2.0)
        clock.now += 2.0
        assert store.debit("t1", 4.0) == 0.0

    def test_corruption_resets_to_full_buckets(self, tmp_path):
        clock = _Clock()
        store = _quotas(tmp_path, "r1", clock, 4.0, 0.0)
        store.debit("t1", 4.0)
        # Garble the debit record in place: it stops being a debit.
        path = store.ledger.path
        path.write_bytes(path.read_bytes().replace(b'"debit"', b'"deb\x00t'))
        reborn = _quotas(tmp_path, "r2", clock, 4.0, 0.0)
        assert reborn.debit("t1", 4.0) == 0.0
        assert reborn.ledger.corrupt_lines == 1

    def test_shared_bucket_has_the_token_bucket_contract(self, tmp_path):
        clock = _Clock()
        bucket = TokenBucket(2.0, 0.0)
        store = _quotas(tmp_path, "r1", clock, 2.0, 0.0)
        assert store.debit("t1", 2.0) == bucket.wait(clock.now, 2.0) == 0.0
        bucket.take(clock.now, 2.0)
        assert store.debit("t1", 1.0) == bucket.wait(clock.now, 1.0) > 0.0
        assert store.balance("t1") == bucket.level(clock.now) == 0.0


def _cluster_config(socket_dir, cluster_dir, replica, **overrides):
    defaults = dict(
        socket=str(Path(socket_dir) / f"{replica}.sock"),
        benchmark="arepair",
        scale=0.1,
        seed=0,
        workers=1,
        job_timeout=None,
        cluster_dir=str(cluster_dir),
        replica_id=replica,
        lease_ttl=5.0,
    )
    defaults.update(overrides)
    return ServiceConfig(**defaults)


class TestClusterDaemon:
    def test_drained_replicas_jobs_are_adopted_and_finished(
        self, socket_dir, tmp_path
    ):
        cluster_dir = tmp_path / "cluster"
        handle_a = ServiceHandle.start(
            _cluster_config(socket_dir, cluster_dir, "rA")
        )
        handle_b = ServiceHandle.start(
            _cluster_config(socket_dir, cluster_dir, "rB")
        )
        service_b = handle_b.service
        try:
            spec_id = sorted(handle_a.service.jobs_corpus_ids())[0]
            job = JobSpec(
                benchmark="arepair", spec_id=spec_id, techniques=("ATR",)
            )
            handle_a.service.pool.pause()
            outcome = ServiceClient(handle_a.socket).submit(job, watch=False)
            assert outcome.accepted
            job_id = outcome.job_id
            assert job_id.startswith("job-rA-")
            handle_a.drain(grace=0.0)

            assert _wait(
                lambda: job_id in service_b.jobs
                and service_b.jobs[job_id].terminal
            )
            record = service_b.jobs[job_id]
            assert record.adopted is True
            assert record.state.value == "done"
            assert service_b.adopted_jobs == 1

            direct = execute_shard(
                ShardTask(
                    spec=service_b._specs[spec_id],
                    techniques=("ATR",),
                    seed=0,
                )
            )
            cell = record.outcomes["ATR"]
            direct_cell = direct.outcomes["ATR"]
            assert (cell["rep"], cell["status"]) == (
                direct_cell.rep,
                direct_cell.status,
            )

            status = ServiceClient(handle_b.socket).status(job_id)
            assert status["state"] == "done"
            assert status["adopted"] is True

            stats = ServiceClient(handle_b.socket).stats()
            assert stats["cluster"]["adopted_jobs"] == 1
            assert stats["cluster"]["replica"] == "rB"

            fold = ClusterFold()
            for rec in service_b.cluster.ledger.replay():
                fold.apply(rec)
            assert fold.double_committed() == []
            assert fold.tokens_monotonic()
            assert fold.jobs[job_id].adoptions == 1
        finally:
            handle_b.drain(grace=5.0)

    def test_second_replica_serves_committed_cells_from_the_mirror(
        self, socket_dir, tmp_path
    ):
        cluster_dir = tmp_path / "cluster"
        handle_a = ServiceHandle.start(
            _cluster_config(socket_dir, cluster_dir, "rA")
        )
        handle_b = ServiceHandle.start(
            _cluster_config(socket_dir, cluster_dir, "rB")
        )
        try:
            spec_id = sorted(handle_a.service.jobs_corpus_ids())[0]
            job = JobSpec(
                benchmark="arepair", spec_id=spec_id, techniques=("ATR",)
            )
            first = ServiceClient(handle_a.socket).submit_retrying(job)
            assert first.state == "done" and not first.from_store
            second = ServiceClient(handle_b.socket).submit_retrying(job)
            assert second.state == "done"
            assert second.from_store is True
            assert second.outcomes == first.outcomes
            assert handle_b.service.pool.executed == 0
        finally:
            handle_b.drain(grace=5.0)
            handle_a.drain(grace=5.0)

    def test_ledger_answers_status_for_foreign_jobs(
        self, socket_dir, tmp_path
    ):
        cluster_dir = tmp_path / "cluster"
        handle_a = ServiceHandle.start(
            _cluster_config(socket_dir, cluster_dir, "rA")
        )
        handle_b = ServiceHandle.start(
            _cluster_config(socket_dir, cluster_dir, "rB")
        )
        try:
            spec_id = sorted(handle_a.service.jobs_corpus_ids())[0]
            outcome = ServiceClient(handle_a.socket).submit_retrying(
                JobSpec(
                    benchmark="arepair", spec_id=spec_id, techniques=("ATR",)
                )
            )
            assert outcome.state == "done"
            # rB never saw the job; it answers from the shared ledger.
            status = ServiceClient(handle_b.socket).status(outcome.job_id)
            assert status["state"] == "done"
            assert status["from_ledger"] is True
            assert set(status["outcomes"]) == {"ATR"}
        finally:
            handle_b.drain(grace=5.0)
            handle_a.drain(grace=5.0)


class TestReplicaRestart:
    def test_restarted_replica_never_reuses_a_job_id(
        self, socket_dir, tmp_path
    ):
        # A replica reborn under the same id on the same cluster must not
        # re-issue a previous incarnation's job id: the new job's commit
        # would be a duplicate, and its client would get the old cells.
        config = _cluster_config(socket_dir, tmp_path / "cluster", "r0")
        first = ReproService(config)
        first.pool.pause()
        try:
            spec_ids = sorted(first.jobs_corpus_ids())
            record, _ = first.submit(
                JobSpec(
                    benchmark="arepair", spec_id=spec_ids[0],
                    techniques=("ATR",),
                )
            )
            assert record.job_id == "job-r0-000001"
        finally:
            first.pool.stop()
        reborn = ReproService(config)
        reborn.pool.pause()
        try:
            record, _ = reborn.submit(
                JobSpec(
                    benchmark="arepair", spec_id=spec_ids[1],
                    techniques=("BeAFix",),
                )
            )
            assert record.job_id == "job-r0-000002"
        finally:
            reborn.pool.stop()


class TestClientFailover:
    def test_client_rotates_to_a_live_replica(self, socket_dir):
        config = ServiceConfig(
            socket=str(Path(socket_dir) / "svc.sock"),
            benchmark="arepair",
            scale=0.1,
            seed=0,
            workers=1,
            job_timeout=None,
        )
        handle = ServiceHandle.start(config)
        try:
            dead = str(Path(socket_dir) / "dead.sock")
            client = ServiceClient([dead, handle.socket])
            assert client.ping()["type"] == "pong"
            assert client.failovers == 1
            assert client.socket_path == handle.socket
        finally:
            handle.drain(grace=5.0)

    def test_reconnect_backoff_is_seeded_and_bounded(self, socket_dir):
        sleeps: list[float] = []
        client = ServiceClient(
            str(Path(socket_dir) / "nobody.sock"),
            retry_seed=3,
            reconnect_attempts=6,
            sleep=sleeps.append,
        )
        with pytest.raises(ServiceError) as err:
            client.ping()
        assert "6 attempts" in str(err.value)
        assert sleeps == [client._backoff(i) for i in range(6)]
        assert all(0.0 < s <= 1.0 for s in sleeps)
        twin = ServiceClient("x.sock", retry_seed=3)
        assert [twin._backoff(i) for i in range(6)] == sleeps

    def test_watch_stream_death_recovers_via_status_polls(
        self, socket_dir, tmp_path
    ):
        # Submit against rA with a watcher, drain rA mid-watch (the
        # stream dies), and let the client recover the terminal outcome
        # by polling status across the ring — served by rB.
        cluster_dir = tmp_path / "cluster"
        handle_a = ServiceHandle.start(
            _cluster_config(socket_dir, cluster_dir, "rA")
        )
        handle_b = ServiceHandle.start(
            _cluster_config(socket_dir, cluster_dir, "rB")
        )
        try:
            spec_id = sorted(handle_a.service.jobs_corpus_ids())[0]
            client = ServiceClient(
                [handle_a.socket, handle_b.socket], reconnect_attempts=240
            )
            handle_a.service.pool.pause()
            result: dict = {}

            def submit():
                result["outcome"] = client.submit(
                    JobSpec(
                        benchmark="arepair",
                        spec_id=spec_id,
                        techniques=("ATR",),
                    ),
                    watch=True,
                )

            thread = threading.Thread(target=submit, daemon=True)
            thread.start()
            assert _wait(lambda: len(handle_a.service.jobs) == 1)
            handle_a.drain(grace=0.0)
            thread.join(timeout=120.0)
            assert not thread.is_alive()
            outcome = result["outcome"]
            assert outcome.state == "done"
            assert outcome.reconnected is True
            assert client.reconnects == 1
        finally:
            handle_b.drain(grace=5.0)


class TestCorruptClusterState:
    def test_torn_debit_line_is_skipped_and_counted(self, tmp_path):
        clock = _Clock()
        store = _quotas(tmp_path, "r1", clock, 2.0, 0.0)
        assert store.debit("t1", 1.0) == 0.0
        with store.ledger.path.open("ab") as handle:
            handle.write(b'{"event":"debit","tenant":"t1","cost":1.0,"ts"')
        assert store.debit("t1", 1.0) == 0.0
        reborn = _quotas(tmp_path, "r2", clock, 2.0, 0.0)
        # Two real debits, one torn: the bucket is empty, not overdrawn.
        assert reborn.balance("t1") == 0.0
        assert reborn.ledger.corrupt_lines == 1
        assert reborn.snapshot()["ledger_corrupt_lines"] == 1

    def test_corrupt_state_does_not_block_startup(self, socket_dir):
        config = ServiceConfig(
            socket=str(Path(socket_dir) / "svc.sock"),
            benchmark="arepair",
            scale=0.1,
            seed=0,
            workers=1,
            job_timeout=None,
        )
        first = ReproService(config)
        first.pool.stop()
        first.cluster.store_path.write_text('{"schema": "junk"}')
        with first.cluster.ledger.path.open("ab") as handle:
            handle.write(b'{"event":"submitted","job_id":"job-x","sp')
        handle = ServiceHandle.start(config)
        try:
            spec_id = sorted(handle.service.jobs_corpus_ids())[0]
            outcome = ServiceClient(handle.socket).submit_retrying(
                JobSpec(
                    benchmark="arepair", spec_id=spec_id, techniques=("ATR",)
                )
            )
            assert outcome.state == "done"
            assert outcome.from_store is False
            stats = ServiceClient(handle.socket).stats()
            assert stats["cluster"]["ledger_corrupt_lines"] == 1
        finally:
            handle.drain(grace=5.0)
