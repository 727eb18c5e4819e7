from types import SimpleNamespace

from repro.observe import Tracer


def clocked_tracer(now: float = 0.0):
    """A tracer bound to a settable clock: assign ``clock.now`` to move
    the time its next ``begin``, ``end`` or ``instant`` reads."""
    clock = SimpleNamespace(now=now)
    tracer = Tracer()
    tracer.bind(clock)
    return tracer, clock
