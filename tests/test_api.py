"""API-surface tests: imports, __all__ integrity, version, docstrings."""

import importlib
import pkgutil
import subprocess
import sys

import pytest

import repro

MODULES = [
    "repro",
    "repro.core",
    "repro.core.config",
    "repro.core.pert",
    "repro.core.pert_pi",
    "repro.core.response",
    "repro.core.srtt",
    "repro.sim",
    "repro.sim.engine",
    "repro.sim.link",
    "repro.sim.monitors",
    "repro.sim.node",
    "repro.sim.packet",
    "repro.sim.queues",
    "repro.sim.topology",
    "repro.tcp",
    "repro.tcp.base",
    "repro.tcp.sack",
    "repro.tcp.vegas",
    "repro.traffic",
    "repro.predictors",
    "repro.predictors.analysis",
    "repro.fluid",
    "repro.fluid.dde",
    "repro.fluid.stability",
    "repro.metrics",
    "repro.experiments",
    "repro.runner",
    "repro.runner.spec",
    "repro.runner.cache",
    "repro.runner.registry",
    "repro.runner.executor",
    "repro.runner.telemetry",
]


@pytest.mark.parametrize("name", MODULES)
def test_module_imports_and_documented(name):
    mod = importlib.import_module(name)
    assert mod.__doc__, f"{name} lacks a module docstring"


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(name)
    for sym in getattr(mod, "__all__", []):
        assert hasattr(mod, sym), f"{name}.__all__ lists missing {sym!r}"


def test_every_subpackage_is_importable():
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        importlib.import_module(info.name)


def test_version():
    assert repro.__version__ == "1.0.0"


def test_the_simulator_imports_without_the_observability_machinery():
    """``obs`` is a slot the components leave empty: ``repro.sim``,
    ``repro.tcp``, ``repro.core`` and ``repro.traffic`` import nothing
    from ``repro.obs`` (it knows them, not the other way round)."""
    code = ("import repro, repro.sim, repro.tcp, repro.core, repro.traffic, sys;"
            "print(sorted(m for m in sys.modules if m.startswith('repro.obs')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"
    assert repro.sim.monitors.__all__ == [
        "QueueSampler", "LinkWindow", "ThroughputSampler", "nearest_sample"]
    # and the run-directory fold does not load the fleet
    code = ("import repro.obs, sys;"
            "print(sorted(m for m in sys.modules"
            "             if m.startswith('repro.fleet')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_public_classes_documented():
    from repro import (
        Dumbbell,
        PertPiSender,
        PertSender,
        PiQueue,
        RedQueue,
        Simulator,
        VegasSender,
    )

    for cls in (PertSender, PertPiSender, Simulator, Dumbbell, RedQueue,
                PiQueue, VegasSender):
        assert cls.__doc__
