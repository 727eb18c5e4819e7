"""Synthetic workloads shaped like the keynote's motivating domains.

DAG families (map-reduce, layered random, montage-like, stencil)
parameterize the compute-to-data ratio experiments; the science module
builds light-source and climate-ensemble pipelines; the edge-AI module
builds timed inference request streams; the streaming module
provides arrival processes and skewed dataset reference streams.
"""

from repro.workloads.dags import (
    layered_random_dag,
    map_reduce_dag,
    montage_like_dag,
    stencil_dag,
)
from repro.workloads.streaming import (
    poisson_arrivals,
    zipf_dataset_stream,
)
from repro.workloads.science import beamline_pipeline, climate_ensemble
from repro.workloads.edge_ai import InferenceRequest, request_stream

__all__ = [
    "layered_random_dag",
    "map_reduce_dag",
    "montage_like_dag",
    "stencil_dag",
    "poisson_arrivals",
    "zipf_dataset_stream",
    "beamline_pipeline",
    "climate_ensemble",
    "InferenceRequest",
    "request_stream",
]
