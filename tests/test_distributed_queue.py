"""Unit tests for the distributed substrate: spec, queue, leases, worker loop.

Everything here runs against a stub cell runner and a manually advanced
clock, so the claim/steal/heartbeat protocol is exercised deterministically
— no sleeps, no real crashes, no model training.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.distributed import (
    Coordinator,
    DistributedWorker,
    Lease,
    LeaseManager,
    SweepSpec,
    WorkQueue,
    group_id_for,
)
from repro.distributed.queue import GroupTask
from repro.exceptions import ConfigurationError
from repro.runtime import ExperimentResult, JsonlResultStore


class StubRunner:
    """Deterministic, picklable runner: score is a pure function of the seed."""

    def __call__(self, cell):
        score = float(np.random.default_rng(cell.seed).random())
        return ExperimentResult(method=cell.method, dataset=cell.dataset,
                                epsilon=cell.epsilon, repeat=cell.repeat,
                                micro_f1=score)


class FakeClock:
    def __init__(self, start: float = 1000.0):
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def _spec(**overrides):
    params = dict(methods=("m1", "m2"), datasets=("d1",),
                  epsilons=(0.5, 1.0, 2.0), repeats=2)
    params.update(overrides)
    return SweepSpec(**params)


class TestSweepSpec:
    def test_round_trip_preserves_digest(self):
        spec = _spec(epsilons=(0.5, float("inf")), delta=1e-6)
        restored = SweepSpec.from_json(spec.to_json())
        assert restored == spec
        assert restored.digest() == spec.digest()

    def test_digest_covers_every_knob(self):
        base = _spec()
        assert base.digest() != _spec(seed=1).digest()
        assert base.digest() != _spec(scale=0.1).digest()
        assert base.digest() != _spec(epochs=10).digest()

    def test_context_digest_matches_engine_convention(self):
        # The fingerprint stamped by workers must equal what the local
        # engine stamps for the same settings, or stores stop being
        # interchangeable.
        from repro.runtime.engine import context_digest

        spec = _spec()
        expected = context_digest(dict(spec.settings().resume_context(),
                                       delta=None))
        assert spec.context_digest() == expected

    def test_expand_matches_expand_cells_seeds(self):
        from repro.runtime.cells import expand_cells

        spec = _spec()
        direct = expand_cells(spec.methods, spec.datasets, spec.epsilons,
                              spec.repeats, seed=spec.seed)
        assert [c.seed for c in spec.expand()] == [c.seed for c in direct]

    def test_invalid_repeats_rejected(self):
        with pytest.raises(ConfigurationError):
            _spec(repeats=0)

    @pytest.mark.parametrize("edit", [
        lambda payload: [payload],
        lambda payload: dict(payload, fast_sweep=True),
        lambda payload: {k: v for k, v in payload.items() if k != "epochs"},
        lambda payload: dict(payload, epsilons=5),
    ], ids=["non-object", "unknown-field", "missing-field", "bad-value"])
    def test_malformed_payload_raises_configuration_error(self, edit):
        payload = json.loads(_spec().to_json())
        with pytest.raises(ConfigurationError):
            SweepSpec.from_json(json.dumps(edit(payload)))

    @pytest.mark.parametrize("name, value", [
        ("methods", "GCON"), ("datasets", ["d1", 2]), ("epsilons", ["x"]),
        ("repeats", 1.5), ("seed", "7"), ("seed", True), ("scale", "0.25"),
        ("delta", "1e-6"), ("epochs", None), ("lambda_reg", [0.2]),
        ("use_pseudo_labels", 1), ("inference_mode", 0),
    ])
    def test_ill_typed_field_raises_configuration_error(self, name, value):
        payload = dict(json.loads(_spec().to_json()), **{name: value})
        with pytest.raises(ConfigurationError, match=f"ill-typed.*{name}"):
            SweepSpec.from_json(json.dumps(payload))

    def test_invalid_json_raises_configuration_error(self):
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            SweepSpec.from_json("{")

    def test_dist_status_exits_2_on_a_format_1_queue(self, tmp_path, capsys):
        from repro.cli.main import main

        queue = WorkQueue(tmp_path / "q")
        queue.initialize(_spec())
        payload = dict(json.loads(queue.spec_path.read_text(encoding="utf-8")),
                       format=1, fast_sweep=True, sweep_strategy="warm_start")
        queue.spec_path.write_text(json.dumps(payload), encoding="utf-8")
        assert main(["dist", "status", "--dist-dir", str(queue.root)]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        assert "format 1" in lines[0] and "expected 2" in lines[0]


def _task_json() -> str:
    spec = _spec(epsilons=(0.5, float("inf")), repeats=1)
    cells = tuple(c for c in spec.expand() if c.group == 0)
    return GroupTask(group_id=group_id_for(spec.digest(), cells),
                     spec_digest=spec.digest(), cells=cells).to_json()


def _edit_cell(**fields):
    def edit(payload):
        payload["cells"][0].update(fields)
        return payload
    return edit


def _drop_cell_field(name):
    def edit(payload):
        del payload["cells"][0][name]
        return payload
    return edit


class TestGroupTaskFromJson:
    def test_round_trip(self):
        text = _task_json()
        assert GroupTask.from_json(text).to_json() == text

    @pytest.mark.parametrize("edit, message", [
        (lambda payload: [payload], "must be a JSON object"),
        (lambda payload: dict(payload, priority=1), "unknown group task fields"),
        (lambda payload: {k: v for k, v in payload.items() if k != "spec_digest"},
         "missing group task fields: spec_digest"),
        (lambda payload: dict(payload, group_id=7), "ill-typed group task fields"),
        (lambda payload: dict(payload, cells="c0"), "ill-typed group task fields"),
        (lambda payload: dict(payload, cells=[1]), "ill-typed group task fields"),
        (lambda payload: dict(payload, cells=[]), "at least one cell"),
        (lambda payload: dict(payload, format=2), "unsupported task format"),
        (_edit_cell(weight=1.0), "unknown group task cell fields: weight"),
        (_drop_cell_field("seed"), "missing group task cell fields: seed"),
        (_drop_cell_field("epsilon"), "missing group task cell fields: epsilon"),
        (_edit_cell(index="0"), "ill-typed group task cell fields: index"),
        (_edit_cell(seed=True), "ill-typed group task cell fields: seed"),
        (_edit_cell(repeat=0.5), "ill-typed group task cell fields: repeat"),
        (_edit_cell(epsilon="x"), "ill-typed group task cell fields: epsilon"),
        (_edit_cell(method=3), "ill-typed group task cell fields: method"),
        (_edit_cell(group=None), "ill-typed group task cell fields: group"),
    ], ids=["non-object", "unknown-field", "missing-field", "group-id-type",
            "cells-type", "cell-type", "no-cells", "format", "cell-unknown",
            "cell-missing-seed", "cell-missing-epsilon", "cell-index-type",
            "cell-seed-bool", "cell-repeat-type", "cell-epsilon-type",
            "cell-method-type", "cell-group-type"])
    def test_malformed_payload_raises_configuration_error(self, edit, message):
        payload = edit(json.loads(_task_json()))
        with pytest.raises(ConfigurationError, match=message):
            GroupTask.from_json(json.dumps(payload))

    def test_invalid_json_raises_configuration_error(self):
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            GroupTask.from_json("{")

    def test_dist_status_exits_2_on_a_task_missing_a_cell_seed(self, tmp_path,
                                                                capsys):
        from repro.cli.main import main

        coordinator = Coordinator(tmp_path / "q")
        coordinator.submit(_spec())
        path = sorted(coordinator.queue.tasks_dir.glob("*.json"))[0]
        payload = json.loads(path.read_text(encoding="utf-8"))
        del payload["cells"][0]["seed"]
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert main(["dist", "status", "--dist-dir",
                     str(coordinator.queue.root)]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        assert "missing group task cell fields: seed" in lines[0]


class TestWorkQueue:
    def test_initialize_is_idempotent_for_the_same_spec(self, tmp_path):
        queue = WorkQueue(tmp_path / "q")
        assert queue.initialize(_spec()) is True
        assert queue.initialize(_spec()) is False
        assert queue.load_spec() == _spec()

    def test_initialize_refuses_a_different_spec(self, tmp_path):
        queue = WorkQueue(tmp_path / "q")
        queue.initialize(_spec())
        with pytest.raises(ConfigurationError, match="different sweep"):
            queue.initialize(_spec(seed=99))

    def test_uninitialised_queue_raises(self, tmp_path):
        with pytest.raises(ConfigurationError, match="not an initialised queue"):
            WorkQueue(tmp_path / "missing").load_spec()

    def test_task_round_trip_including_infinite_epsilon(self, tmp_path):
        spec = _spec(epsilons=(0.5, float("inf")), repeats=1)
        queue = WorkQueue(tmp_path / "q")
        queue.initialize(spec)
        cells = [c for c in spec.expand() if c.group == 0]
        task = GroupTask(group_id=group_id_for(spec.digest(), cells),
                         spec_digest=spec.digest(), cells=tuple(cells))
        assert queue.enqueue(task) is True
        assert queue.enqueue(task) is False  # already queued
        restored = queue.read_task(task.group_id)
        assert list(restored.cells) == cells

    def test_group_ids_are_filesystem_safe_and_sweep_unique(self):
        spec = _spec(methods=("GCN (non-DP)",), repeats=1)
        cells = spec.expand()
        gid = group_id_for(spec.digest(), cells)
        assert "/" not in gid and " " not in gid and "(" not in gid
        other = group_id_for(_spec(methods=("GCN (non-DP)",), repeats=1,
                                   seed=5).digest(), cells)
        assert gid != other


class TestLeases:
    def test_exclusive_acquire(self, tmp_path):
        clock = FakeClock()
        manager = LeaseManager(tmp_path, ttl=10.0, clock=clock)
        lease = manager.acquire("g1", "alice")
        assert lease is not None
        assert manager.acquire("g1", "bob") is None
        assert manager.holder("g1") == "alice"

    def test_release_makes_group_claimable_again(self, tmp_path):
        manager = LeaseManager(tmp_path, ttl=10.0, clock=FakeClock())
        lease = manager.acquire("g1", "alice")
        manager.release(lease)
        assert manager.acquire("g1", "bob") is not None

    def test_expired_lease_is_stolen(self, tmp_path):
        clock = FakeClock()
        manager = LeaseManager(tmp_path, ttl=10.0, clock=clock)
        assert manager.acquire("g1", "dead-worker") is not None
        clock.advance(5.0)
        assert manager.acquire("g1", "bob") is None  # still fresh
        clock.advance(6.0)  # 11s since the heartbeat: expired
        stolen = manager.acquire("g1", "bob")
        assert stolen is not None
        assert manager.holder("g1") == "bob"

    def test_heartbeat_extends_the_lease(self, tmp_path):
        clock = FakeClock()
        manager = LeaseManager(tmp_path, ttl=10.0, clock=clock)
        lease = manager.acquire("g1", "alice")
        clock.advance(8.0)
        lease = manager.heartbeat(lease)
        assert lease is not None
        clock.advance(8.0)  # 16s since acquire but 8s since the heartbeat
        assert manager.acquire("g1", "bob") is None

    def test_partitioned_worker_detects_its_reaped_lease(self, tmp_path):
        clock = FakeClock()
        manager = LeaseManager(tmp_path, ttl=10.0, clock=clock)
        lease = manager.acquire("g1", "alice")
        clock.advance(11.0)
        assert manager.acquire("g1", "bob") is not None
        # Alice comes back from the partition: heartbeat reports the loss
        # and a release must not evict the new holder.
        assert manager.heartbeat(lease) is None
        manager.release(lease)
        assert manager.holder("g1") == "bob"

    def test_corrupt_lease_file_reads_as_absent(self, tmp_path):
        manager = LeaseManager(tmp_path, ttl=10.0, clock=FakeClock())
        manager.path_for("g1").parent.mkdir(parents=True, exist_ok=True)
        manager.path_for("g1").write_text("not json")
        assert manager.read("g1") is None

    def test_invalid_ttl_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            LeaseManager(tmp_path, ttl=0.0)

    def test_pre_nonce_lease_files_still_parse(self, tmp_path):
        # Claim files written before acquisition nonces existed must keep
        # reading (a rolling upgrade shares the queue with old workers).
        manager = LeaseManager(tmp_path, ttl=10.0, clock=FakeClock())
        manager.path_for("g1").parent.mkdir(parents=True, exist_ok=True)
        manager.path_for("g1").write_text(json.dumps({
            "group_id": "g1", "worker_id": "alice", "acquired_at": 1000.0,
            "heartbeat_at": 1000.0, "ttl": 10.0}))
        lease = manager.read("g1")
        assert lease is not None
        assert lease.nonce == ""
        assert manager.holder("g1") == "alice"

    def test_lease_files_with_a_meta_payload_still_parse(self, tmp_path):
        # Claim files once carried a "meta" payload; a file that still has
        # one reads as a plain claim, and rewriting it drops the key.
        clock = FakeClock()
        manager = LeaseManager(tmp_path, ttl=10.0, clock=clock)
        manager.path_for("g1").parent.mkdir(parents=True, exist_ok=True)
        manager.path_for("g1").write_text(json.dumps({
            "group_id": "g1", "worker_id": "alice", "acquired_at": 1000.0,
            "heartbeat_at": 1000.0, "ttl": 10.0, "nonce": "n1",
            "meta": {"host": "h", "port": 1}}))
        lease = manager.read("g1")
        assert lease is not None and lease.nonce == "n1"
        assert manager.holder("g1") == "alice"
        clock.advance(1.0)
        assert manager.heartbeat(lease) is not None
        assert "meta" not in json.loads(
            manager.path_for("g1").read_text())

    def test_claim_files_hold_exactly_the_claim_fields(self, tmp_path):
        clock = FakeClock()
        manager = LeaseManager(tmp_path, ttl=10.0, clock=clock)
        lease = manager.acquire("g1", "alice")
        fields = {"group_id", "worker_id", "acquired_at", "heartbeat_at",
                  "ttl", "nonce"}
        assert set(json.loads(manager.path_for("g1").read_text())) == fields
        clock.advance(1.0)
        refreshed = manager.heartbeat(lease)
        assert set(json.loads(manager.path_for("g1").read_text())) == fields
        assert Lease.from_json(refreshed.to_json()) == refreshed

    @pytest.mark.parametrize("extra", [
        {"meta": None}, {"meta": {"host": "h", "port": 1}},
        {"written_by": ["a", "later", "version"]}],
        ids=["null-meta", "meta", "unknown-key"])
    def test_unknown_claim_keys_are_ignored(self, extra):
        claim = {"group_id": "g1", "worker_id": "alice",
                 "acquired_at": 1000.0, "heartbeat_at": 1001.0,
                 "ttl": 10.0, "nonce": "n1"}
        assert Lease.from_json(json.dumps({**claim, **extra})) \
            == Lease.from_json(json.dumps(claim)) \
            == Lease(group_id="g1", worker_id="alice", acquired_at=1000.0,
                     heartbeat_at=1001.0, ttl=10.0, nonce="n1")


class TestLeaseRaces:
    """Deterministic reproducers for the check-then-act lease races.

    The old ``release`` and ``heartbeat`` verified ownership with ``read()``
    and then acted (unlink / atomic rewrite); a steal landing inside that
    window was destroyed or silently overwritten.  These tests interleave
    the steal at the exact racy point — by shimming the verification read or
    the refresh write — so they fail on the check-then-act implementations
    and pin the rename-to-token / nonce-verified ones.
    """

    @staticmethod
    def _manager(tmp_path, clock):
        return LeaseManager(tmp_path, ttl=10.0, clock=clock)

    def test_release_in_the_steal_window_spares_the_fresh_claim(self, tmp_path):
        clock = FakeClock()
        manager = self._manager(tmp_path, clock)
        stealer = self._manager(tmp_path, clock)
        stale = manager.acquire("g1", "alice")
        clock.advance(11.0)  # expired: bob is entitled to steal
        state = {"stolen": False}

        def steal_now():
            if not state["stolen"]:
                state["stolen"] = True
                assert stealer.acquire("g1", "bob") is not None

        # If release pre-verifies with read() (the old check-then-unlink),
        # interleave bob's steal right inside that window; the old unlink
        # then deleted bob's valid lease.  The fixed release never calls
        # read() — it renames first — so the steal lands after it returns.
        original_read = manager.read

        def racing_read(group_id):
            current = original_read(group_id)
            steal_now()
            return current

        manager.read = racing_read
        manager.release(stale)
        steal_now()
        assert stealer.holder("g1") == "bob"
        assert stealer.read("g1").worker_id == "bob"

    def test_release_of_a_stale_handle_spares_same_worker_reclaim(self, tmp_path):
        # The same worker id re-acquires after expiry (a restart); a zombie
        # thread still holding the *old* lease object releases.  Only the
        # acquisition nonce distinguishes the two claims — matching on
        # worker id alone deleted the new incarnation's lease.
        clock = FakeClock()
        manager = self._manager(tmp_path, clock)
        stale = manager.acquire("g1", "alice")
        clock.advance(11.0)
        fresh = manager.acquire("g1", "alice")
        assert fresh is not None
        assert fresh.nonce != stale.nonce
        manager.release(stale)
        assert manager.holder("g1") == "alice"
        assert manager.read("g1").nonce == fresh.nonce

    def test_heartbeat_never_resurrects_an_expired_lease(self, tmp_path):
        clock = FakeClock()
        manager = self._manager(tmp_path, clock)
        stealer = self._manager(tmp_path, clock)
        stale = manager.acquire("g1", "alice")
        clock.advance(11.0)
        state = {"stolen": False}

        def steal_now():
            if not state["stolen"]:
                state["stolen"] = True
                assert stealer.acquire("g1", "bob") is not None

        # Old heartbeat: read() saw alice's own (stale) claim, bob stole
        # inside the window, and the atomic rewrite clobbered bob's fresh
        # lease — resurrection.  Fixed heartbeat refuses to refresh an
        # already-expired lease outright.
        original_read = manager.read

        def racing_read(group_id):
            current = original_read(group_id)
            steal_now()
            return current

        manager.read = racing_read
        assert manager.heartbeat(stale) is None
        steal_now()
        assert stealer.holder("g1") == "bob"

    def test_heartbeat_verifies_after_write(self, tmp_path, monkeypatch):
        # The narrower window: the lease expires *between* the ownership
        # read and the refresh rename, and a stealer reaps the freshly
        # written file.  The post-write re-read sees the stealer's nonce
        # and reports the lease lost instead of letting two workers hold
        # the group.
        import repro.distributed.lease as lease_module

        clock = FakeClock()
        manager = self._manager(tmp_path, clock)
        stealer = self._manager(tmp_path, clock)
        lease = manager.acquire("g1", "alice")
        clock.advance(8.0)  # still fresh by alice's clock
        real_write = lease_module.atomic_write_text

        def racing_write(path, text):
            real_write(path, text)
            # The instant the refresh lands, a stealer whose clock already
            # saw the lease expire reaps the file and claims the group.
            assert stealer._reap("g1")
            assert stealer._try_create("g1", "bob") is not None

        monkeypatch.setattr(lease_module, "atomic_write_text", racing_write)
        assert manager.heartbeat(lease) is None
        assert stealer.holder("g1") == "bob"

    def test_heartbeat_with_a_stale_same_worker_handle_is_rejected(self, tmp_path):
        clock = FakeClock()
        manager = self._manager(tmp_path, clock)
        stale = manager.acquire("g1", "alice")
        clock.advance(11.0)
        fresh = manager.acquire("g1", "alice")  # new incarnation, new nonce
        clock.advance(1.0)
        assert manager.heartbeat(stale) is None
        assert manager.read("g1").nonce == fresh.nonce


class TestWorkerLoop:
    def _submitted(self, tmp_path, **overrides):
        coordinator = Coordinator(tmp_path / "q")
        coordinator.submit(_spec(**overrides))
        return coordinator

    def test_worker_drains_the_queue_and_stamps_context(self, tmp_path):
        coordinator = self._submitted(tmp_path)
        report = DistributedWorker(tmp_path / "q", "w1",
                                   cell_runner=StubRunner()).run()
        assert report.groups_completed == 4
        assert report.cells_completed == 12
        status = coordinator.status()
        assert status.complete
        digest = coordinator.spec().context_digest()
        for gid in coordinator.queue.done_ids():
            for record in JsonlResultStore(coordinator.queue.shard_path(gid)).load():
                assert record.extra["sweep_context"] == digest

    def test_max_groups_bounds_one_call(self, tmp_path):
        self._submitted(tmp_path)
        report = DistributedWorker(tmp_path / "q", "w1", max_groups=1,
                                   cell_runner=StubRunner()).run()
        assert report.groups_completed == 1
        report = DistributedWorker(tmp_path / "q", "w2",
                                   cell_runner=StubRunner()).run()
        assert report.groups_completed == 3

    def test_no_wait_exits_when_everything_is_held(self, tmp_path):
        coordinator = self._submitted(tmp_path)
        manager = LeaseManager(coordinator.queue.leases_dir, ttl=1000.0)
        for gid in coordinator.queue.pending_ids():
            assert manager.acquire(gid, "hoarder") is not None
        report = DistributedWorker(tmp_path / "q", "w1", wait_for_completion=False,
                                   cell_runner=StubRunner()).run()
        assert report.groups_completed == 0

    def test_failing_group_leaves_a_breadcrumb_and_no_shard(self, tmp_path):
        coordinator = self._submitted(tmp_path)

        def failing(cell):
            raise RuntimeError("boom")

        report = DistributedWorker(tmp_path / "q", "w1", cell_runner=failing,
                                   max_attempts=1).run()
        assert report.groups_completed == 0
        assert report.groups_failed == 4
        assert report.groups_quarantined == 4
        assert coordinator.queue.failure_count() == 4
        assert coordinator.queue.done_ids() == set()
        assert list(coordinator.queue.shards_dir.glob("*.jsonl")) == []
        # Every lease was released; a healthy worker could take over a
        # transiently failing group (exercised in TestRetryQuarantine).
        for gid in coordinator.queue.pending_ids():
            assert coordinator.leases.read(gid) is None

    def test_heartbeat_pump_keeps_a_long_group_leased(self, tmp_path):
        """A group running far longer than the lease TTL must stay claimed:
        the background heartbeat pump refreshes the lease during execution,
        so a rival can never steal a live worker's group."""
        import threading
        import time as _time

        coordinator = self._submitted(tmp_path, methods=("m1",), repeats=1)
        (gid,) = coordinator.queue.pending_ids()

        def slow(cell):
            _time.sleep(0.2)
            return StubRunner()(cell)

        worker = DistributedWorker(tmp_path / "q", "steady", lease_ttl=0.15,
                                   cell_runner=slow)
        thread = threading.Thread(target=worker.run)
        thread.start()
        try:
            rival = LeaseManager(coordinator.queue.leases_dir, ttl=0.15)
            deadline = _time.monotonic() + 30
            while not list(coordinator.queue.leases_dir.glob("*.lease")) \
                    and not coordinator.queue.is_done(gid) \
                    and _time.monotonic() < deadline:
                _time.sleep(0.01)
            while not coordinator.queue.is_done(gid):
                assert _time.monotonic() < deadline, "worker never finished"
                lease = rival.acquire(gid, "rival")
                if lease is not None:
                    assert coordinator.queue.is_done(gid), \
                        "rival stole a heartbeating worker's lease"
                    rival.release(lease)
                    break
                _time.sleep(0.02)
        finally:
            thread.join()
        assert coordinator.status().complete

    def test_worker_without_spec_raises(self, tmp_path):
        with pytest.raises(ConfigurationError):
            DistributedWorker(tmp_path / "empty", "w1",
                              cell_runner=StubRunner()).run()


class TestRetryQuarantine:
    """The bounded retry-then-quarantine policy for failing groups."""

    def _submitted(self, tmp_path):
        coordinator = Coordinator(tmp_path / "q")
        coordinator.submit(_spec())
        return coordinator

    @staticmethod
    def _flaky(fail_times: int):
        """Fails the (m1, repeat 0) group ``fail_times`` times, then recovers."""
        failures = {"count": 0}

        def runner(cell):
            if cell.method == "m1" and cell.repeat == 0 \
                    and failures["count"] < fail_times:
                failures["count"] += 1
                raise RuntimeError("transient boom")
            return StubRunner()(cell)

        return runner

    def test_transient_failure_is_retried_to_completion(self, tmp_path):
        coordinator = self._submitted(tmp_path)
        report = DistributedWorker(tmp_path / "q", "w1",
                                   cell_runner=self._flaky(2),
                                   max_attempts=3, poll_interval=0.01).run()
        assert report.groups_completed == 4
        assert report.groups_failed == 2
        assert report.groups_quarantined == 0
        assert coordinator.status().complete
        assert coordinator.queue.failure_count() == 2

    def test_deterministic_failure_quarantines_after_max_attempts(self, tmp_path):
        coordinator = self._submitted(tmp_path)

        def always_failing(cell):
            if cell.method == "m1" and cell.repeat == 0:
                raise ValueError("deterministic boom")
            return StubRunner()(cell)

        report = DistributedWorker(tmp_path / "q", "w1",
                                   cell_runner=always_failing,
                                   max_attempts=2, poll_interval=0.01).run()
        # The healthy groups completed; the poisoned one was retried exactly
        # max_attempts times, then quarantined -- and run() terminated
        # instead of re-leasing it forever.
        assert report.groups_completed == 3
        assert report.groups_failed == 2
        assert report.groups_quarantined == 1
        quarantined = coordinator.queue.quarantined_ids()
        assert len(quarantined) == 1
        (gid,) = quarantined
        assert coordinator.queue.attempts(gid) == 2
        assert coordinator.queue.runnable_ids() == []
        payload = json.loads(coordinator.queue.quarantine_path(gid).read_text())
        assert payload["attempts"] == 2
        assert "deterministic boom" in payload["error"]
        assert "ValueError" in payload["traceback"]

    def test_quarantine_surfaces_in_status_wait_and_merge(self, tmp_path):
        coordinator = self._submitted(tmp_path)

        def always_failing(cell):
            if cell.method == "m1" and cell.repeat == 0:
                raise ValueError("deterministic boom")
            return StubRunner()(cell)

        DistributedWorker(tmp_path / "q", "w1", cell_runner=always_failing,
                          max_attempts=1, poll_interval=0.01).run()
        status = coordinator.status()
        assert status.groups_quarantined == 1
        assert status.groups_done == 3
        assert not status.complete
        assert status.stalled
        assert "quarantined: 1 group(s)" in status.summary()
        # wait() must not spin forever on a sweep that can no longer finish.
        assert coordinator.wait(poll_interval=0.01) is False
        with pytest.raises(RuntimeError, match="quarantined"):
            coordinator.merge()
        # The surviving shards are still recoverable explicitly.
        assert coordinator.merge(require_complete=False).records == 9

    def test_another_worker_respects_the_quarantine(self, tmp_path):
        coordinator = self._submitted(tmp_path)

        def always_failing(cell):
            if cell.method == "m1" and cell.repeat == 0:
                raise ValueError("boom")
            return StubRunner()(cell)

        DistributedWorker(tmp_path / "q", "w1", cell_runner=always_failing,
                          max_attempts=1, poll_interval=0.01).run()
        # A healthy rival finds nothing claimable and exits without touching
        # the quarantined group.
        report = DistributedWorker(tmp_path / "q", "w2",
                                   cell_runner=StubRunner(),
                                   poll_interval=0.01).run()
        assert report.groups_completed == 0
        assert coordinator.queue.attempts(
            next(iter(coordinator.queue.quarantined_ids()))) == 1


class TestCoordinatorStatus:
    def test_census_counts_leased_expired_and_done(self, tmp_path):
        clock = FakeClock()
        coordinator = Coordinator(tmp_path / "q", clock=clock)
        coordinator.submit(_spec())
        gids = coordinator.queue.pending_ids()
        manager = LeaseManager(coordinator.queue.leases_dir, ttl=10.0, clock=clock)
        manager.acquire(gids[0], "alice")
        manager.acquire(gids[1], "bob")
        done_worker = DistributedWorker(
            tmp_path / "q", "carol", cell_runner=StubRunner(), max_groups=1,
            clock=clock)
        done_worker.run()  # completes gids[2] (first unleased)
        clock.advance(11.0)  # alice and bob both go stale

        status = coordinator.status()
        assert status.groups_total == 4
        assert status.groups_done == 1
        assert status.groups_expired == 2
        assert status.groups_leased == 0
        assert status.groups_claimable == 3
        assert status.cells_done == 3
        assert not status.complete

    def test_merge_refuses_an_incomplete_sweep(self, tmp_path):
        coordinator = Coordinator(tmp_path / "q")
        coordinator.submit(_spec())
        DistributedWorker(tmp_path / "q", "w1", max_groups=1,
                          cell_runner=StubRunner()).run()
        with pytest.raises(RuntimeError, match="incomplete"):
            coordinator.merge()
        # Partial merge is an explicit opt-in.
        report = coordinator.merge(require_complete=False)
        assert report.records == 3

    def test_wait_times_out_and_still_reports_progress(self, tmp_path):
        import io

        coordinator = Coordinator(tmp_path / "q")
        coordinator.submit(_spec())
        DistributedWorker(tmp_path / "q", "w1", max_groups=1,
                          cell_runner=StubRunner()).run()
        from repro.runtime.progress import ProgressReporter

        stream = io.StringIO()
        reporter = ProgressReporter(12, stream=stream, min_interval=0.0,
                                    label="dist sweep")
        assert coordinator.wait(poll_interval=0.01, timeout=0.05,
                                progress=reporter) is False
        assert "3/12" in stream.getvalue()

    def test_failure_breadcrumb_appears_in_status_summary(self, tmp_path):
        coordinator = Coordinator(tmp_path / "q")
        coordinator.submit(_spec())
        coordinator.queue.record_failure("some-group", "w1", "RuntimeError('x')")
        status = coordinator.status()
        assert status.failures == 1
        assert "failures recorded: 1" in status.summary()
        payload = json.loads(next(
            coordinator.queue.failed_dir.glob("*.json")).read_text())
        assert payload["worker_id"] == "w1"
