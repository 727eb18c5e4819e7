import pytest

from repro.errors import ConfigurationError, FaaSError
from repro.faas import ContainerModel, FunctionDef, FunctionRegistry, SerializationModel
from repro.faas.container import WarmPool


class TestFunctionDef:
    def test_defaults(self):
        fn = FunctionDef("f", work=1.0)
        assert fn.kind == "generic"
        assert fn.request_bytes > 0

    def test_empty_name_rejected(self):
        with pytest.raises(FaaSError):
            FunctionDef("", 1.0)

    def test_negative_work_rejected(self):
        with pytest.raises(Exception):
            FunctionDef("f", -1.0)


class TestRegistry:
    def test_register_get(self):
        reg = FunctionRegistry()
        fn = reg.register(FunctionDef("f", 1.0))
        assert reg.get("f") is fn
        assert "f" in reg and len(reg) == 1

    def test_idempotent_reregister(self):
        reg = FunctionRegistry()
        reg.register(FunctionDef("f", 1.0))
        reg.register(FunctionDef("f", 1.0))
        assert len(reg) == 1

    def test_conflicting_reregister_rejected(self):
        reg = FunctionRegistry()
        reg.register(FunctionDef("f", 1.0))
        with pytest.raises(FaaSError):
            reg.register(FunctionDef("f", 2.0))

    def test_unknown_function(self):
        with pytest.raises(FaaSError):
            FunctionRegistry().get("ghost")


class TestContainerModel:
    def test_negative_values_rejected(self):
        with pytest.raises(Exception):
            ContainerModel(cold_start_s=-1)
        with pytest.raises(ConfigurationError):
            ContainerModel(max_warm_per_function=-1)


class TestWarmPool:
    def model(self, **kw):
        defaults = dict(cold_start_s=2.0, warm_start_s=0.01,
                        keep_alive_s=10.0, max_warm_per_function=4)
        defaults.update(kw)
        return ContainerModel(**defaults)

    def test_empty_pool_has_no_warm(self):
        pool = WarmPool(self.model())
        assert not pool.take_warm(0.0)

    def test_put_then_take(self):
        pool = WarmPool(self.model())
        pool.put_warm(0.0)
        assert pool.take_warm(1.0)
        assert not pool.take_warm(1.0)

    def test_expiry(self):
        pool = WarmPool(self.model(keep_alive_s=10.0))
        pool.put_warm(0.0)
        pool.put_warm(0.0)
        assert pool.take_warm(9.9)
        assert not pool.take_warm(10.1)     # the second one expired

    def test_max_warm_cap_keeps_freshest(self):
        pool = WarmPool(self.model(max_warm_per_function=2))
        pool.put_warm(0.0)
        pool.put_warm(1.0)
        pool.put_warm(2.0)
        # cap 2: stalest (expiry 10) dropped; survivors expire at 11 and 12
        assert pool.take_warm(10.5) and pool.take_warm(10.5)
        assert not pool.take_warm(10.5)

    def test_zero_keep_alive_disables_reuse(self):
        pool = WarmPool(self.model(keep_alive_s=0.0))
        pool.put_warm(0.0)
        assert not pool.take_warm(0.0)

    def test_zero_max_warm_disables_reuse(self):
        pool = WarmPool(self.model(max_warm_per_function=0))
        pool.put_warm(0.0)
        assert not pool.take_warm(0.0)


class TestSerialization:
    def test_affine_model(self):
        ser = SerializationModel(base_s=0.001, bytes_per_second=1e6)
        assert ser.time_for(0) == pytest.approx(0.001)
        assert ser.time_for(1e6) == pytest.approx(1.001)

    def test_round_trip(self):
        ser = SerializationModel(base_s=0.001, bytes_per_second=1e6)
        assert ser.round_trip(1e6, 2e6) == pytest.approx(0.001 + 1.0 + 0.001 + 2.0)

    def test_negative_size_rejected(self):
        with pytest.raises(Exception):
            SerializationModel().time_for(-1)
