"""Unit coverage for the replicated-log primitives and applied state."""

import pytest

from repro.controlplane import Command, ControlState, ReplicatedLog
from repro.controlplane.log import NOOP, Snapshot
from repro.errors import ControlPlaneError


def cmd_register(name, size=100.0):
    return Command("register", (name, size, "generic"))


def cmd_add(name, site, t=0.0):
    return Command("add_replica", (name, site, t))


class TestCommand:
    def test_unknown_op_rejected(self):
        with pytest.raises(ControlPlaneError):
            Command("truncate_everything")

    def test_noop_is_a_command(self):
        assert NOOP.op == "noop"
        assert NOOP.args == ()


class TestReplicatedLog:
    def test_empty_log_sentinel(self):
        log = ReplicatedLog()
        assert log.last_index == 0
        assert log.last_term == 0
        assert log.term_at(0) == 0
        assert log.term_at(1) is None

    def test_append_is_one_based_and_ordered(self):
        log = ReplicatedLog()
        e1 = log.append(1, cmd_register("a"))
        e2 = log.append(2, cmd_register("b"))
        assert (e1.index, e2.index) == (1, 2)
        assert log.term_at(1) == 1
        assert log.term_at(2) == 2
        assert [e.command.args[0] for e in log.entries_from(1)] == ["a", "b"]

    def test_truncate_from_repairs_conflicts(self):
        log = ReplicatedLog()
        for i in range(3):
            log.append(1, cmd_register(f"d{i}"))
        log.truncate_from(2)
        assert log.last_index == 1
        assert log.term_at(2) is None

    def test_compact_keeps_suffix(self):
        log = ReplicatedLog()
        for i in range(4):
            log.append(1, cmd_register(f"d{i}"))
        log.compact(Snapshot(2, 1, {}))
        assert log.base_index == 2
        assert log.last_index == 4
        assert log.term_at(2) == 1          # base sentinel
        assert log.term_at(1) is None       # compacted away
        assert [e.index for e in log.entries_from(3)] == [3, 4]
        with pytest.raises(ControlPlaneError):
            log.entries_from(2)
        with pytest.raises(ControlPlaneError):
            log.truncate_from(2)

    def test_known_term_answers_compacted_prefix(self):
        log = ReplicatedLog()
        terms = [1, 1, 2, 4, 4, 4, 5]
        for i, term in enumerate(terms):
            log.append(term, cmd_register(f"d{i}"))
        log.compact(Snapshot.after(None, log.entries_from(1)[:3]))
        log.compact(Snapshot.after(log.snapshot, log.entries_from(4)[:2]))
        assert log.base_index == 5
        assert log.term_at(3) is None       # term_at stays live-only
        assert [log.known_term(i) for i in range(1, 8)] == terms
        log.install(Snapshot(9, 6, {}))     # a snapshot without term runs
        assert log.known_term(4) is None

    def test_install_replaces_everything(self):
        log = ReplicatedLog()
        log.append(1, cmd_register("old"))
        log.install(Snapshot(7, 3, {"datasets": []}))
        assert len(log) == 0
        assert log.last_index == 7
        assert log.last_term == 3


class TestControlState:
    def _apply_all(self, commands):
        state = ControlState()
        for i, command in enumerate(commands, start=1):
            state.apply(command, i)
        return state

    def test_apply_enforces_order(self):
        state = ControlState()
        state.apply(cmd_register("d"), 1)
        with pytest.raises(ControlPlaneError):
            state.apply(cmd_add("d", "a"), 3)

    def test_replica_lifecycle_bumps_versions(self):
        state = self._apply_all([cmd_register("d"), cmd_add("d", "a")])
        v, dv = state.version, state.dataset_version("d")
        state.apply(Command("drop_replica", ("d", "a")), 3)
        assert state.version == v + 1
        assert state.dataset_version("d") == dv + 1
        assert not state.has_replica("d", "a")

    def test_endpoint_liveness(self):
        """Endpoint transitions are part of the image: the latest state
        per endpoint is in the snapshot, one entry each, and a flip
        changes the fingerprint."""
        state = self._apply_all([
            Command("endpoint_up", ("edge-1",)),
            Command("endpoint_down", ("edge-2",)),
        ])
        assert state.to_snapshot()["endpoints"] == (
            ("edge-1", True), ("edge-2", False))
        assert state.entries == 2
        before = state.fingerprint()
        state.apply(Command("endpoint_up", ("edge-2",)), 3)
        assert state.to_snapshot()["endpoints"] == (
            ("edge-1", True), ("edge-2", True))
        assert state.entries == 2
        assert state.fingerprint() != before

    def test_same_commands_same_fingerprint(self):
        commands = [cmd_register("d"), cmd_add("d", "a", 1.0),
                    cmd_add("d", "b", 2.0), Command("endpoint_down", ("a",))]
        assert (self._apply_all(commands).fingerprint()
                == self._apply_all(commands).fingerprint())

    def test_snapshot_roundtrip_preserves_fingerprint(self):
        state = self._apply_all([
            cmd_register("d"), cmd_add("d", "a", 1.0),
            cmd_register("e"), cmd_add("e", "b", 2.0),
            Command("drop_replica", ("d", "a")),
            Command("endpoint_down", ("b",)),
        ])
        clone = ControlState.from_snapshot(state.to_snapshot())
        assert clone.fingerprint() == state.fingerprint()
        assert clone.applied_index == state.applied_index
