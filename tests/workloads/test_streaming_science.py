import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, WorkflowError
from repro.workloads import (
    InferenceRequest,
    beamline_pipeline,
    climate_ensemble,
    poisson_arrivals,
    request_stream,
    zipf_dataset_stream,
)


class TestArrivals:
    def test_poisson_sorted_within_horizon(self):
        rng = np.random.default_rng(0)
        times = poisson_arrivals(10.0, 100.0, rng)
        assert np.all(np.diff(times) >= 0)
        assert times[-1] < 100.0
        # mean count ~ 1000; loose 5-sigma band
        assert 800 < times.size < 1200

    def test_poisson_deterministic_given_rng(self):
        a = poisson_arrivals(5.0, 10.0, np.random.default_rng(7))
        b = poisson_arrivals(5.0, 10.0, np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)

    def test_invalid_rate(self):
        with pytest.raises(ConfigurationError):
            poisson_arrivals(0.0, 1.0, np.random.default_rng(0))


class TestZipf:
    def test_range_and_length(self):
        rng = np.random.default_rng(0)
        stream = zipf_dataset_stream(20, 500, rng=rng)
        assert len(stream) == 500
        assert all(0 <= i < 20 for i in stream)

    def test_skew_head_is_hot(self):
        rng = np.random.default_rng(0)
        stream = zipf_dataset_stream(100, 5000, alpha=1.5, rng=rng)
        head_share = sum(1 for i in stream if i < 10) / len(stream)
        assert head_share > 0.5

    def test_higher_alpha_hotter_head(self):
        mild = zipf_dataset_stream(100, 5000, alpha=0.8,
                                   rng=np.random.default_rng(1))
        steep = zipf_dataset_stream(100, 5000, alpha=2.0,
                                    rng=np.random.default_rng(1))
        share = lambda s: sum(1 for i in s if i == 0) / len(s)  # noqa: E731
        assert share(steep) > share(mild)

    def test_invalid_params(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigurationError):
            zipf_dataset_stream(0, 10, rng=rng)
        with pytest.raises(ConfigurationError):
            zipf_dataset_stream(10, 10, alpha=0.0, rng=rng)

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(1, 50), k=st.integers(0, 200))
    def test_property_valid_indices(self, n, k):
        stream = zipf_dataset_stream(n, k, rng=np.random.default_rng(0))
        assert len(stream) == k
        assert all(0 <= i < n for i in stream)


class TestBeamline:
    def test_shape(self):
        dag, externals = beamline_pipeline(5)
        # per frame: reconstruct + qa; plus aggregate
        assert len(dag) == 11
        assert len(externals) == 5
        assert dag.subgraph_counts()["sinks"] == 1

    def test_reconstruction_kind_set(self):
        dag, _ = beamline_pipeline(2)
        assert dag.task("beamline-reconstruct0").kind == "reconstruction"

    def test_deadline_propagation(self):
        dag, _ = beamline_pipeline(2, deadline_s=1.5)
        assert dag.task("beamline-qa1").deadline_s == 1.5
        dag2, _ = beamline_pipeline(2)
        assert dag2.task("beamline-qa1").deadline_s is None

    def test_data_reduction_through_pipeline(self):
        dag, externals = beamline_pipeline(1, frame_bytes=400.0)
        recon = dag.task("beamline-reconstruct0")
        assert recon.output_bytes == pytest.approx(100.0)

    def test_invalid(self):
        with pytest.raises(WorkflowError):
            beamline_pipeline(0)


class TestClimate:
    def test_shape(self):
        dag, externals = climate_ensemble(4)
        # per member: sim + post; plus stats
        assert len(dag) == 9
        assert len(externals) == 4

    def test_simulation_kind(self):
        dag, _ = climate_ensemble(2)
        assert dag.task("climate-sim0").kind == "simulation"

    def test_stats_depends_on_all_posts(self):
        dag, _ = climate_ensemble(3)
        assert dag.dependencies("climate-stats") == [
            "climate-post0", "climate-post1", "climate-post2"
        ]

    def test_members_parallel(self):
        dag, _ = climate_ensemble(4)
        assert dag.subgraph_counts()["max_width"] == 4


class TestEdgeAI:
    def test_request_stream(self):
        rng = np.random.default_rng(0)
        stream = request_stream(20.0, 10.0, deadline_s=0.3, rng=rng)
        assert all(isinstance(r, InferenceRequest) for r in stream)
        assert all(r.deadline_s == 0.3 for r in stream)
        assert all(0 <= r.arrival_s < 10.0 for r in stream)

    def test_invalid(self):
        with pytest.raises(ConfigurationError):
            request_stream(0.0, 10.0, rng=np.random.default_rng(0))
