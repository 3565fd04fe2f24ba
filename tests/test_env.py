"""The typed environment-variable registry (repro.env)."""

import pytest

from repro import env
from repro.errors import EnvVarError, ReproError


class TestRegistry:
    def test_every_entry_is_well_formed(self):
        for name, var in env.REGISTRY.items():
            assert name == var.name
            assert name.startswith("REPRO_")
            assert var.kind in ("int", "float", "str")
            assert var.description

    def test_known_knobs_present(self):
        for name in ("REPRO_SIM_VECTORS", "REPRO_SIM_SEED",
                     "REPRO_CELL_TIMEOUT",
                     "REPRO_CELL_RETRIES", "REPRO_CELL_BACKOFF",
                     "REPRO_FAULT_INJECT", "REPRO_FUZZ_INJECT"):
            assert name in env.REGISTRY

    def test_unregistered_name_is_a_programming_error(self):
        with pytest.raises(KeyError):
            env.read_raw("REPRO_NO_SUCH_KNOB")
        with pytest.raises(KeyError):
            env.read_int("REPRO_NO_SUCH_KNOB")


class TestAccessors:
    def test_unset_returns_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SIM_VECTORS", raising=False)
        assert env.read_int("REPRO_SIM_VECTORS", 4096) == 4096
        assert env.read_raw("REPRO_SIM_VECTORS") is None

    def test_empty_string_means_unset(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_VECTORS", "")
        assert env.read_int("REPRO_SIM_VECTORS", 4096) == 4096
        monkeypatch.setenv("REPRO_FUZZ_INJECT", "")
        assert env.read_str("REPRO_FUZZ_INJECT") is None

    def test_int_parses(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_VECTORS", "128")
        assert env.read_int("REPRO_SIM_VECTORS", 4096) == 128

    def test_float_parses(self, monkeypatch):
        monkeypatch.setenv("REPRO_CELL_BACKOFF", "0.5")
        assert env.read_float("REPRO_CELL_BACKOFF", 0.05) == 0.5

    def test_str_passthrough(self, monkeypatch):
        monkeypatch.setenv("REPRO_FUZZ_INJECT", "delay")
        assert env.read_str("REPRO_FUZZ_INJECT") == "delay"


class TestErrors:
    def test_bad_int_raises_envvarerror(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_VECTORS", "lots")
        with pytest.raises(EnvVarError) as excinfo:
            env.read_int("REPRO_SIM_VECTORS")
        exc = excinfo.value
        assert exc.name == "REPRO_SIM_VECTORS"
        assert exc.raw == "lots"
        assert str(exc).startswith("REPRO_SIM_VECTORS='lots'")

    def test_bad_float_raises_envvarerror(self, monkeypatch):
        monkeypatch.setenv("REPRO_CELL_TIMEOUT", "soon")
        with pytest.raises(EnvVarError):
            env.read_float("REPRO_CELL_TIMEOUT")

    def test_envvarerror_is_reproerror(self):
        assert issubclass(EnvVarError, ReproError)


class TestCallSites:
    """The registry is actually wired into its consumers."""

    def test_bitsim_vectors(self, monkeypatch):
        from repro.network import bitsim

        monkeypatch.setenv("REPRO_SIM_VECTORS", "256")
        assert bitsim.configured_vectors() == 256

    def test_bitsim_rejects_malformed(self, monkeypatch):
        from repro.errors import NetworkError
        from repro.network import bitsim

        monkeypatch.setenv("REPRO_SIM_VECTORS", "many")
        with pytest.raises(NetworkError) as excinfo:
            bitsim.configured_vectors()
        assert "REPRO_SIM_VECTORS" in str(excinfo.value)

    def test_run_policy_resolution_order(self, monkeypatch):
        from repro.perf.parallel import RunPolicy

        assert RunPolicy.resolve(workers=1) == RunPolicy()
        monkeypatch.setenv("REPRO_CELL_RETRIES", "5")
        monkeypatch.setenv("REPRO_CELL_TIMEOUT", "9")
        policy = RunPolicy.resolve(workers=3, retries=1)
        assert policy == RunPolicy(workers=3, cell_timeout=9.0, retries=1)

    def test_runner_rejects_malformed_timeout(self, monkeypatch):
        from repro.errors import RunnerConfigError
        from repro.perf import parallel

        monkeypatch.setenv("REPRO_CELL_TIMEOUT", "later")
        with pytest.raises(RunnerConfigError) as excinfo:
            parallel.RunPolicy.resolve()
        assert "[R002]" in str(excinfo.value)
