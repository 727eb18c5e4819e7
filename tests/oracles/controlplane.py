"""The control plane's message-by-message loop as the oracle for the
quiescent-round replay.

:func:`stepwise` makes ``ControlPlane._replay_idle_rounds`` decline
every island, so ``advance`` simulates each heartbeat, delivery and
reply one at a time, as it did before idle rounds were replayed in
closed form. The differential tests run the same scenario with and
without it and demand identical node state, counters and tickets.
"""

from __future__ import annotations

from contextlib import contextmanager
from unittest import mock


@contextmanager
def stepwise():
    """Run every control plane inside the block without replaying idle
    heartbeat rounds."""
    with mock.patch(
            "repro.controlplane.cluster.ControlPlane._replay_idle_rounds",
            lambda plane, leader, now: False):
        yield
