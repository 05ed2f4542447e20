"""Regression guard on the public API surface.

Every package's ``__all__`` must resolve, every re-export must exist,
and the top-level layering documented in DESIGN.md must hold (e.g. the
cost model never imports the simulators).
"""

import importlib
import sys

import pytest

PACKAGES = [
    "repro",
    "repro.costmodel",
    "repro.ap",
    "repro.csd",
    "repro.topology",
    "repro.noc",
    "repro.core",
    "repro.workloads",
    "repro.analysis",
    "repro.faults",
    "repro.telemetry",
    "repro.engine",
    "repro.megascale",
    "repro.service",
    "repro.planner",
]


class TestAllResolvable:
    @pytest.mark.parametrize("name", PACKAGES)
    def test_all_names_exist(self, name):
        module = importlib.import_module(name)
        assert hasattr(module, "__all__"), f"{name} lacks __all__"
        for symbol in module.__all__:
            assert hasattr(module, symbol), f"{name}.{symbol} missing"

    @pytest.mark.parametrize("name", PACKAGES)
    def test_no_duplicate_exports(self, name):
        module = importlib.import_module(name)
        assert len(module.__all__) == len(set(module.__all__))

    def test_version_available(self):
        import repro

        assert repro.__version__


class TestErrorHierarchy:
    def test_every_error_derives_from_repro_error(self):
        import repro.errors as errors

        for symbol in errors.__all__:
            exc = getattr(errors, symbol)
            assert issubclass(exc, errors.ReproError)

    def test_errors_are_catchable_as_base(self):
        from repro.errors import CapacityError, ReproError

        with pytest.raises(ReproError):
            raise CapacityError("x")


class TestLayering:
    """The dependency directions DESIGN.md promises."""

    @pytest.fixture(autouse=True)
    def _restore_repro_modules(self):
        """Put the original ``repro`` modules back after each fresh
        import, so later tests do not run against a second copy of the
        package (a second telemetry registry, a second ``ProcessorState``)."""
        saved = {m: mod for m, mod in sys.modules.items() if m.startswith("repro")}
        try:
            yield
        finally:
            for mod in [m for m in sys.modules if m.startswith("repro")]:
                del sys.modules[mod]
            sys.modules.update(saved)

    def _fresh_import(self, name):
        for mod in list(sys.modules):
            if mod.startswith("repro"):
                del sys.modules[mod]
        importlib.import_module(name)
        loaded = {m for m in sys.modules if m.startswith("repro")}
        return loaded

    def test_costmodel_is_self_contained(self):
        loaded = self._fresh_import("repro.costmodel")
        assert not any(
            m.startswith(("repro.noc", "repro.core", "repro.csd", "repro.ap"))
            for m in loaded
        )

    def test_topology_does_not_pull_core(self):
        loaded = self._fresh_import("repro.topology")
        assert not any(m.startswith("repro.core") for m in loaded)

    def test_csd_does_not_pull_noc(self):
        loaded = self._fresh_import("repro.csd")
        assert not any(m.startswith("repro.noc") for m in loaded)

    def test_express_worm_pulls_no_megascale_or_csd(self):
        self._fresh_import("repro.noc")
        noc = sys.modules["repro.noc"]
        net = noc.RouterNetwork(4, 4)
        packet = noc.make_packet((0, 0), (2, 3), n_flits=3, packet_id=0)
        assert net.express_eligible(packet)
        net.deliver_express(packet)
        assert not any(
            m.startswith(("repro.megascale", "repro.csd")) for m in sys.modules
        )
