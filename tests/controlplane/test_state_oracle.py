"""Differential test of the applied image against its frozen reference.

:class:`ControlState` inherits its read API from
:class:`~repro.datafabric.catalog.ReplicaCatalog`; the reference in
``tests/oracles/control_state.py`` is the class as it shipped with its
own copy of that API. Fed the same random command sequence — identical
and conflicting re-registers, drops of absent replicas, writes to
unregistered datasets — both must agree after every step on every read,
on the version counters, the entry count and the snapshot document.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.continuum import Link, Site, Tier, Topology
from repro.controlplane import Command, ControlState
from tests.oracles.control_state import ControlState as FrozenControlState

NAMES = ("d0", "d1", "d2", "d3")
SITES = ("a", "b", "c")


def topology():
    """From c, a and b tie (first replica wins); a-b is fast."""
    topo = Topology()
    topo.add_site(Site("a", Tier.CLOUD))
    topo.add_site(Site("b", Tier.EDGE))
    topo.add_site(Site("c", Tier.EDGE))
    topo.add_link("a", "c", Link(0.0, 10.0))
    topo.add_link("b", "c", Link(0.0, 10.0))
    topo.add_link("a", "b", Link(0.0, 1000.0))
    return topo


TOPO = topology()

name = st.sampled_from(NAMES)
site = st.sampled_from(SITES)
command = st.one_of(
    st.just(Command("noop")),
    st.builds(lambda n, size, kind: Command("register", (n, size, kind)),
              name, st.sampled_from([0, 100, 250.0]),
              st.sampled_from(["data", "generic"])),
    st.builds(lambda n, s, t: Command("add_replica", (n, s, t)),
              name, site, st.sampled_from([0, 1.5, 7.0])),
    st.builds(lambda n, s: Command("drop_replica", (n, s)), name, site),
    st.builds(lambda op, s: Command(op, (s,)),
              st.sampled_from(["endpoint_up", "endpoint_down"]), site),
)


def outcome(call):
    """What a read returns, or the type and message of what it raises."""
    try:
        return ("ok", call())
    except Exception as exc:  # noqa: BLE001 - compared, not swallowed
        return (type(exc).__name__, str(exc))


def reads(state):
    out = {
        "applied_index": state.applied_index,
        "version": state.version,
        "entries": state.entries,
    }
    for n in NAMES:
        out[n] = (
            n in state,
            state.dataset_version(n),
            outcome(lambda: state.dataset(n)),
            outcome(lambda: state.locations(n)),
            [state.has_replica(n, s) for s in SITES],
            [outcome(lambda s=s: state.nearest_source(TOPO, n, s))
             for s in SITES],
        )
    # taken last, so a read above that inserted a key would show
    out["snapshot"] = state.to_snapshot()
    return out


@settings(max_examples=300, deadline=None)
@given(commands=st.lists(command, max_size=40))
def test_matches_frozen_control_state(commands):
    state, frozen = ControlState(), FrozenControlState()
    assert reads(state) == reads(frozen)
    for index, cmd in enumerate(commands, start=1):
        assert outcome(lambda: state.apply(cmd, index)) == \
            outcome(lambda: frozen.apply(cmd, index))
        assert reads(state) == reads(frozen)
    clone = ControlState.from_snapshot(state.to_snapshot())
    assert reads(clone) == reads(frozen)
    assert clone.fingerprint() == \
        FrozenControlState.from_snapshot(frozen.to_snapshot()).fingerprint()


def test_sequences_cover_the_log_corner_cases():
    """The corner cases the differential must see, replayed directly."""
    commands = [
        Command("register", ("d0", 100, "data")),
        Command("register", ("d0", 100, "data")),      # identical again
        Command("register", ("d0", 250.0, "generic")),  # first wins
        Command("drop_replica", ("d0", "a")),           # absent: no raise
        Command("add_replica", ("d1", "a", 0)),         # unregistered
        Command("add_replica", ("d0", "b", 1.5)),
    ]
    state, frozen = ControlState(), FrozenControlState()
    for index, cmd in enumerate(commands, start=1):
        assert outcome(lambda: state.apply(cmd, index)) == \
            outcome(lambda: frozen.apply(cmd, index))
        assert reads(state) == reads(frozen)
    assert state.entries == 4
    assert (state.version, state.dataset_version("d0")) == (2, 2)
