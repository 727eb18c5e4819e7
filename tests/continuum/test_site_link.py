import pytest

from repro.continuum import Link, PowerModel, PricingModel, Site, Tier
from repro.continuum.link import FIBER_KM_PER_SECOND, propagation_latency
from repro.errors import ConfigurationError


class TestSite:
    def test_defaults(self):
        s = Site("a", Tier.EDGE)
        assert s.speed == 1.0
        assert s.slots == 1
        assert s.tier is Tier.EDGE

    def test_tier_parsed_from_string(self):
        assert Site("a", "cloud").tier is Tier.CLOUD

    def test_invalid_speed(self):
        with pytest.raises(ConfigurationError):
            Site("a", Tier.EDGE, speed=0)

    def test_invalid_slots(self):
        with pytest.raises(ConfigurationError):
            Site("a", Tier.EDGE, slots=0)

    def test_service_time(self):
        s = Site("a", Tier.EDGE, speed=2.0)
        assert s.service_time(10.0) == 5.0

    def test_specialization_speeds_up_matching_kind(self):
        s = Site("gpu", Tier.CLOUD, speed=2.0, specializations={"dnn": 10.0})
        assert s.effective_speed("dnn") == 20.0
        assert s.effective_speed("other") == 2.0
        assert s.effective_speed() == 2.0

    def test_specialization_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            Site("a", Tier.EDGE, specializations={"x": 0})

    def test_service_time_uses_specialization(self):
        s = Site("gpu", Tier.CLOUD, speed=1.0, specializations={"dnn": 4.0})
        assert s.service_time(8.0, kind="dnn") == 2.0

    def test_distance(self):
        a = Site("a", Tier.EDGE, location_km=(0, 0))
        b = Site("b", Tier.EDGE, location_km=(3, 4))
        assert a.distance_km(b) == 5.0

    def test_str(self):
        assert str(Site("a", Tier.FOG)) == "a(fog)"


class TestPowerModel:
    def test_zero_default(self):
        assert PowerModel().marginal_energy(100) == 0.0

    def test_busy_energy(self):
        pm = PowerModel(busy_watts=40)
        assert pm.marginal_energy(10) == 400.0

    def test_marginal(self):
        pm = PowerModel(busy_watts=40)
        assert pm.marginal_energy(2.0) == 80.0

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            PowerModel(busy_watts=-1)


class TestPricingModel:
    def test_compute_cost(self):
        pm = PricingModel(usd_per_core_hour=0.10)
        assert pm.compute_cost(3600) == pytest.approx(0.10)
        assert pm.compute_cost(1800, slots=2) == pytest.approx(0.10)

    def test_free_default(self):
        pm = PricingModel()
        assert pm.compute_cost(1e6) == 0.0


class TestLink:
    def test_zero_bandwidth_rejected(self):
        with pytest.raises(ConfigurationError):
            Link(0.01, 0)

    def test_negative_latency_rejected(self):
        with pytest.raises(ConfigurationError):
            Link(-0.01, 1e9)


class TestPropagationLatency:
    def test_fiber_speed(self):
        assert propagation_latency(FIBER_KM_PER_SECOND) == pytest.approx(1.0)

    def test_cross_country(self):
        # ~4000 km coast-to-coast => ~20 ms one-way in fibre
        assert propagation_latency(4000) == pytest.approx(0.02)

    def test_zero(self):
        assert propagation_latency(0) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            propagation_latency(-1)
