"""One source's row of the all-pairs path matrices, as a function.

``Topology.path_rows`` returned this row until batch cost estimation
moved to :meth:`Topology.path_block`, which gathers many sources at
once. The staging oracle and the routing tests still read one source
across every destination, so the accessor lives on here over
``path_block``, with the same unreachable encoding: ``inf`` latency,
``0.0`` bandwidth and ``inf`` dollars.
"""

from __future__ import annotations

import numpy as np


def path_rows(topology, src: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-destination ``(latency_s, bandwidth_Bps, usd_per_gb)`` arrays
    for the routed paths out of ``src``, indexed by
    :attr:`Topology.site_index`."""
    cols = np.arange(len(topology.site_index))
    lat, bw, usd = topology.path_block([src], cols)
    return lat[0], bw[0], usd[0]
