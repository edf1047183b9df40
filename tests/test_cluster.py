"""Cluster-tier tests: ledger-kept fenced leases, the job ledger,
ledger-folded quotas, client failover, and two in-process replicas handing work over.

The subprocess ``kill -9`` failover path lives in ``repro chaos
--cluster``; these tests pin the component contracts with fake clocks
(lease expiry, quota refill) and deterministic thread races so every
assertion reproduces.
"""

import sys
import tempfile
import threading
import time
from pathlib import Path

import pytest

from repro.experiments.executor import ShardTask, execute_shard
from repro.service.client import ServiceClient
from repro.service.daemon import ReproService, ServiceConfig, ServiceHandle
from repro.service import ledger as ledger_module
from repro.service.ledger import (
    ClusterFold,
    ClusterStore,
    DuplicateCommitError,
    HeartbeatLoop,
    JobLedger,
    StaleWriterError,
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


def _pair(root, clock, ttl=5.0, other_ttl=None):
    return (
        ClusterStore(root, "r1", RECIPE, ttl=ttl, clock=clock),
        ClusterStore(root, "r2", RECIPE, ttl=other_ttl or ttl, clock=clock),
    )


class TestLeaseManager:
    """The lease rules, kept in the ledger fold and checked through
    ``ClusterStore`` on a fake clock."""

    def test_expiry_is_boundary_inclusive(self, tmp_path):
        clock = _Clock()
        owner, peer = _pair(tmp_path, clock)
        owner.register("job-1", {"spec_id": "S1"})
        expires_at = owner.fold().jobs["job-1"].expires_at
        assert expires_at == clock.now + 5.0
        clock.now = expires_at - 1e-6
        assert peer.adopt_orphans() == []
        clock.now = expires_at
        assert [job for job, _, _ in peer.adopt_orphans()] == ["job-1"]

    def test_expiry_exactly_at_heartbeat_boundary(self, tmp_path):
        # A replica that renews at exactly expires_at has already lost:
        # an adopter observing the same instant wins first.
        clock = _Clock()
        owner, peer = _pair(tmp_path, clock, ttl=3.0)
        token = owner.register("job-1", {"spec_id": "S1"})
        clock.now = owner.fold().jobs["job-1"].expires_at
        ((_, _, adopted),) = peer.adopt_orphans()
        assert adopted > token
        assert owner.renew() == ["job-1"]
        assert owner.lost == 1

    def test_two_replicas_racing_to_adopt_one_wins(self, tmp_path):
        clock = _Clock()
        owner = ClusterStore(tmp_path, "r0", RECIPE, ttl=1.0, clock=clock)
        token = owner.register("job-1", {"spec_id": "S1"})
        clock.now += 2.0
        stores = [
            ClusterStore(tmp_path, f"r{i}", RECIPE, ttl=30.0, clock=clock)
            for i in (1, 2)
        ]
        outcomes: list = [None, None]
        barrier = threading.Barrier(2)

        def race(index):
            barrier.wait()
            outcomes[index] = stores[index].adopt_orphans()

        threads = [
            threading.Thread(target=race, args=(i,)) for i in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert sorted(len(adopted) for adopted in outcomes) == [0, 1]
        ((job_id, _, won),) = outcomes[0] or outcomes[1]
        assert job_id == "job-1" and won > token

    def test_renewal_extends_and_keeps_the_token(self, tmp_path):
        clock = _Clock()
        owner, peer = _pair(tmp_path, clock)
        token = owner.register("job-1", {"spec_id": "S1"})
        clock.now += 4.0
        assert owner.renew() == []
        view = peer.fold().jobs["job-1"]
        assert view.token == token
        assert view.expires_at == clock.now + 5.0
        clock.now += 4.0  # past the first expiry, inside the renewed one
        assert peer.adopt_orphans() == []
        (renewed,) = [
            r for r in owner.ledger.replay() if r["event"] == "renewed"
        ]
        assert renewed["leases"] == {"job-1": token}
        assert renewed["replica"] == "r1"

    def test_tokens_stay_monotonic_across_restarts_and_a_torn_lease(
        self, tmp_path
    ):
        clock = _Clock()
        first = ClusterStore(tmp_path, "r1", RECIPE, clock=clock)
        high = max(first.register(f"job-{i}", {}) for i in range(3))
        with first.ledger.path.open("ab") as handle:
            handle.write(b'{"event":"leased","job_id":"job-x","token":9')
        tokens = [high]
        for generation in range(3):
            reborn = ClusterStore(tmp_path, "r1", RECIPE, clock=clock)
            tokens.append(reborn.register(f"job-g{generation}", {}))
        assert tokens == sorted(set(tokens))
        fold = ClusterFold()
        for record in JobLedger(first.ledger.path, first.lock_path).replay():
            fold.apply(record)
        assert fold.tokens_monotonic()
        assert fold.tokens == list(range(1, high + 4))
        assert "job-x" not in fold.jobs

    def test_heartbeat_jitter_is_deterministic_and_bounded(self, tmp_path):
        store = ClusterStore(tmp_path, "r1", RECIPE, ttl=6.0, jitter_seed=7)
        twin = ClusterStore(tmp_path, "r1", RECIPE, ttl=6.0, jitter_seed=7)
        other = ClusterStore(tmp_path, "r2", RECIPE, ttl=6.0, jitter_seed=7)
        delays = [store.heartbeat_delay(beat) for beat in range(8)]
        assert delays == [twin.heartbeat_delay(beat) for beat in range(8)]
        assert delays != [other.heartbeat_delay(beat) for beat in range(8)]
        base = store.ttl / 3.0
        assert all(base * 0.5 <= d < base for d in delays)

    def test_heartbeat_loop_reports_a_lost_lease(self, tmp_path):
        store = ClusterStore(tmp_path, "r1", RECIPE, ttl=0.6)
        rival = ClusterStore(tmp_path, "r2", RECIPE, ttl=30.0)
        token = store.register("job-1", {"spec_id": "S1"})
        lost: list[str] = []
        loop = HeartbeatLoop(store, on_lost=lost.append)
        loop.start()
        try:
            time.sleep(0.9)  # longer than the TTL: only renewals keep it
            view = rival.fold().jobs["job-1"]
            assert view.token == token and view.expires_at > time.time()
            assert rival.adopt_orphans() == []
        finally:
            loop.stop()
        # With the heartbeat stopped the lease lapses; fence it out.
        assert _wait(lambda: rival.adopt_orphans() != [], timeout=5.0)
        loop2 = HeartbeatLoop(store, on_lost=lost.append)
        loop2.start()
        try:
            assert _wait(lambda: lost == ["job-1"], timeout=5.0)
        finally:
            loop2.stop()
        assert lost == ["job-1"]

    def test_stale_renewal_does_not_extend_the_adopters_lease(
        self, tmp_path
    ):
        clock = _Clock()
        owner, peer = _pair(tmp_path, clock)
        stale = owner.register("job-1", {"spec_id": "S1"})
        clock.now += 5.0
        ((_, _, fresh),) = peer.adopt_orphans()
        expires_at = peer.fold().jobs["job-1"].expires_at
        # A paused holder's renewal lands after the adoption.
        owner.ledger.append(
            {
                "event": "renewed",
                "replica": "r1",
                "ts": clock.now,
                "expires_at": clock.now + 60.0,
                "leases": {"job-1": stale},
            }
        )
        view = peer.fold().jobs["job-1"]
        assert (view.token, view.expires_at) == (fresh, expires_at)
        clock.now = expires_at
        third = ClusterStore(tmp_path, "r3", RECIPE, clock=clock)
        assert [job for job, _, _ in third.adopt_orphans()] == ["job-1"]

    def test_fenced_out_holder_learns_it_from_the_fold(self, tmp_path):
        clock = _Clock()
        owner, peer = _pair(tmp_path, clock)
        owner.register("job-1", {"spec_id": "S1"})
        clock.now += 5.0
        assert len(peer.adopt_orphans()) == 1
        lost: list[str] = []
        heartbeat = HeartbeatLoop(owner, on_lost=lost.append)
        heartbeat.beat()
        assert lost == ["job-1"]
        assert owner.snapshot()["leases_held"] == []
        heartbeat.beat()
        assert lost == ["job-1"] and owner.lost == 1

    def test_idle_heartbeat_takes_no_lock_and_appends_nothing(
        self, tmp_path, monkeypatch
    ):
        clock = _Clock()
        store = ClusterStore(tmp_path, "r1", RECIPE, clock=clock)
        token = store.register("job-1", {"spec_id": "S1"})
        store.commit("job-1", "S1", {}, token)
        size = store.ledger.path.stat().st_size

        def no_lock(path):
            raise AssertionError("an idle heartbeat took the cluster lock")

        monkeypatch.setattr(ledger_module, "file_lock", no_lock)
        HeartbeatLoop(store).beat()
        assert store.renew() == []
        assert store.ledger.path.stat().st_size == size

    def test_lease_state_lives_in_the_ledger_alone(self, tmp_path):
        clock = _Clock()
        owner, peer = _pair(tmp_path, clock)
        token = owner.register("job-1", {"spec_id": "S1"})
        owner.renew()
        owner.drain()
        peer.adopt_orphans()
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            ".cluster.lock",
            "ledger.jsonl",
        ]
        assert token < peer.fold().jobs["job-1"].token


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
            cs1.commit("job-1", "S1", {"ATR": cell}, stale, seed=0)
        assert cs1.lookup("S1", 0) == {}
        assert cs1.fencing_rejections == 1
        cs2.commit("job-1", "S1", {"ATR": cell}, fresh, seed=0)
        assert cs2.lookup("S1", 0) == {"ATR": cell}
        fold = ClusterFold()
        for record in cs2.ledger.replay():
            fold.apply(record)
        assert fold.fenced_commits == 1
        assert fold.double_committed() == []
        assert fold.tokens_monotonic()

    def test_commit_after_terminal_is_a_duplicate(self, tmp_path):
        clock = _Clock()
        store = ClusterStore(tmp_path, "r1", RECIPE, ttl=5.0, clock=clock)
        token = store.register("job-1", {"spec_id": "S1"})
        store.commit("job-1", "S1", {}, token)
        with pytest.raises(DuplicateCommitError):
            store.commit_failed("job-1", token + 1, "late failure")
        assert store.duplicate_commits == 1

    def test_drained_jobs_are_adoptable_immediately(self, tmp_path):
        clock = _Clock()
        cs1 = ClusterStore(tmp_path, "r1", RECIPE, ttl=60.0, clock=clock)
        cs2 = ClusterStore(tmp_path, "r2", RECIPE, ttl=60.0, clock=clock)
        cs1.register("job-1", {"spec_id": "S1"})
        cs1.drain()
        adopted = cs2.adopt_orphans()
        assert [job_id for job_id, _, _ in adopted] == ["job-1"]

    def test_drain_ends_the_lease_for_a_late_writer(self, tmp_path):
        # A worker that finishes after its replica drained the job (the
        # shutdown race) must not commit: the job belongs to whoever
        # adopts it next, even if its ``running`` record lands late.
        clock = _Clock()
        cs1, cs2 = _pair(tmp_path, clock, ttl=60.0)
        token = cs1.register("job-1", {"spec_id": "S1"})
        cs1.drain()
        cs1.mark_running("job-1", token)
        cell = {"rep": 1, "tm": 0.1, "sm": 0.2, "status": "correct"}
        with pytest.raises(StaleWriterError):
            cs1.commit("job-1", "S1", {"ATR": cell}, token, seed=0)
        assert cs1.lookup("S1", 0) == {}
        ((job_id, _, fresh),) = cs2.adopt_orphans()
        assert job_id == "job-1" and fresh > token
        cs2.commit("job-1", "S1", {"ATR": cell}, fresh, seed=0)
        assert cs2.fold().jobs["job-1"].state == "done"

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

    def test_cells_are_stored_under_the_job_seed(self, tmp_path):
        clock = _Clock()
        cs1, cs2 = _pair(tmp_path, clock)
        token = cs1.register("job-1", {"spec_id": "S1"})
        cell = {"rep": 0, "tm": 0.89, "sm": 0.5, "status": "not_fixed"}
        cs1.commit("job-1", "S1", {"ATR": cell}, token, seed=1)
        assert cs2.lookup("S1", 0) == {}
        assert cs2.missing("S1", 0, ("ATR",)) == ("ATR",)
        assert cs2.lookup("S1", 1) == {"ATR": cell}
        # The daemon's recipe is part of the key too: a chaos daemon
        # never borrows a clean one's cells.
        chaotic = ClusterStore(
            tmp_path, "r3", {**RECIPE, "ch": "abc"}, clock=clock
        )
        assert chaotic.lookup("S1", 1) == {}

    def test_concurrent_commits_and_lookups_lose_no_cell(self, tmp_path):
        clock = _Clock()
        writers = [
            ClusterStore(tmp_path, f"w{i}", RECIPE, clock=clock)
            for i in range(4)
        ]
        reader = ClusterStore(tmp_path, "reader", RECIPE, clock=clock)
        cells = {
            f"T{i}-{j}": {"rep": i, "tm": j / 10, "sm": 0.5,
                          "status": "correct"}
            for i in range(4)
            for j in range(10)
        }
        errors = []
        done = threading.Event()

        def write(index):
            store = writers[index]
            for j in range(10):
                job_id = f"job-{index}-{j}"
                token = store.register(job_id, {"spec_id": "S1"})
                technique = f"T{index}-{j}"
                store.commit(
                    job_id, "S1", {technique: cells[technique]}, token,
                    seed=0,
                )

        def read():
            while not done.is_set():
                row = reader.lookup("S1", 0)
                if any(cell != cells[t] for t, cell in row.items()):
                    errors.append(dict(row))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            readers = [threading.Thread(target=read) for _ in range(4)]
            threads = [
                threading.Thread(target=write, args=(i,)) for i in range(4)
            ]
            for thread in readers + threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
            done.set()
            for thread in readers:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in readers + threads)
        assert errors == []
        assert reader.lookup("S1", 0) == cells

    def test_done_record_without_store_key_is_a_miss(self, tmp_path):
        # Ad-hoc jobs commit no seed, and records written before cells
        # were keyed carry none: neither is ever served.
        clock = _Clock()
        store = ClusterStore(tmp_path, "r1", RECIPE, ttl=5.0, clock=clock)
        token = store.register("job-1", {"spec_id": "S1"})
        cell = {"rep": 1, "tm": 0.1, "sm": 0.2, "status": "correct"}
        store.commit("job-1", "S1", {"ATR": cell}, token)
        assert store.fold().jobs["job-1"].state == "done"
        assert store.lookup("S1", 0) == {}
        assert store.missing("S1", 0, ("ATR",)) == ("ATR",)

    def test_lookup_sees_a_peer_commit_without_the_cluster_lock(
        self, tmp_path, monkeypatch
    ):
        clock = _Clock()
        cs1, cs2 = _pair(tmp_path, clock)
        assert cs1.lookup("S1", 0) == {}
        token = cs2.register("job-1", {"spec_id": "S1"})
        cell = {"rep": 1, "tm": 0.1, "sm": 0.2, "status": "correct"}
        cs2.commit("job-1", "S1", {"ATR": cell}, token, seed=0)
        size = cs1.ledger.path.stat().st_size

        def no_lock(path):
            raise AssertionError("a store lookup took the cluster lock")

        monkeypatch.setattr(ledger_module, "file_lock", no_lock)
        assert cs1.lookup("S1", 0) == {"ATR": cell}
        assert cs1.missing("S1", 0, ("ATR", "BeAFix")) == ("BeAFix",)
        assert cs1.ledger.path.stat().st_size == size


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

    def test_second_replica_serves_committed_cells_from_the_ledger(
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
    def test_same_id_restart_adopts_its_dead_incarnations_job_at_one_ttl(
        self, tmp_path
    ):
        # The lone-daemon ``kill -9`` restart: the dead incarnation's
        # lease must still expire for a replica reborn under its id.
        clock = _Clock()
        first = ClusterStore(tmp_path, "r0", RECIPE, ttl=5.0, clock=clock)
        token = first.register("job-r0-000001", {"spec_id": "S1"})
        registered = clock.now
        del first  # dies without draining
        reborn = ClusterStore(tmp_path, "r0", RECIPE, ttl=5.0, clock=clock)
        clock.now = registered + 5.0 - 1e-6
        assert reborn.adopt_orphans() == []
        clock.now = registered + 5.0
        ((job_id, payload, fresh),) = reborn.adopt_orphans()
        assert (job_id, payload) == ("job-r0-000001", {"spec_id": "S1"})
        assert fresh > token
        assert reborn.snapshot()["leases_held"] == ["job-r0-000001"]

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

    @pytest.mark.parametrize(
        "record",
        [
            {"event": "leased", "job_id": "j", "token": "garbage"},
            {"event": "submitted", "job_id": "j", "ts": "x"},
            {"event": "debit", "tenant": "t1", "cost": "x", "ts": 1.0},
            {"event": "renewed", "leases": {"j": 1}, "expires_at": "x"},
            {"event": "submitted", "job_id": "j", "spec": [1]},
            {"event": "done", "job_id": "j", "outcomes": "x"},
            {"event": "done", "job_id": "j", "chaos": 5},
        ],
        ids=["token", "ts", "cost", "expires_at", "spec", "outcomes", "chaos"],
    )
    def test_mistyped_field_is_a_corrupt_line(self, socket_dir, record):
        config = ServiceConfig(
            socket=str(Path(socket_dir) / "svc.sock"),
            benchmark="arepair",
            scale=0.1,
            seed=0,
            workers=1,
            job_timeout=None,
        )
        root = config.resolved_cluster_dir()
        JobLedger(root / "ledger.jsonl", root / ".cluster.lock").append(record)
        store = ClusterStore(root, "r1", RECIPE)
        fold = store.fold()
        assert fold.jobs == {} and fold.quotas == {}
        assert store.snapshot()["ledger_corrupt_lines"] == 1
        handle = ServiceHandle.start(config)
        try:
            stats = ServiceClient(handle.socket).stats()
            assert stats["cluster"]["ledger_corrupt_lines"] == 1
        finally:
            handle.drain(grace=5.0)
