"""API-surface tests: every public export is importable and the documented
entry points behave as the README promises."""

import dataclasses
import importlib
import inspect
import math
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

PACKAGES = (
    "repro",
    "repro.core",
    "repro.components",
    "repro.physics",
    "repro.control",
    "repro.sensors",
    "repro.sim",
    "repro.slam",
    "repro.platforms",
    "repro.autopilot",
    "repro.faults",
    "repro.resilience",
    "repro.reference",
    "repro.report",
    "repro.chaos",
    "repro.exec",
    "repro.analysis",
)

#: Packages whose fast paths run without an engine switch.
ONE_ENGINE_PACKAGES = (
    "repro.slam", "repro.platforms", "repro.core", "repro.chaos",
)

#: Public callables that still take an ``engine`` keyword.
ENGINE_KEYWORD_ALLOWLIST = {
    # perfbench/workloads.py passes engine="ensemble", and perfbench only
    # changes in a benchmark-labelled change, which drops this keyword
    # (ROADMAP, ensemble item, step (f)); it accepts nothing but "ensemble".
    "repro.chaos.runner.run_campaign_supervised",
}


def _public_callables(package_name):
    """(qualified name, callable) for every public function, class,
    method, and constructor defined in ``package_name``'s modules."""
    package = importlib.import_module(package_name)
    modules = [package] + [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(package.__path__, package_name + ".")
    ]
    for module in modules:
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{module.__name__}.{name}", obj
            elif inspect.isclass(obj):
                yield f"{module.__name__}.{name}", obj
                for attr, member in vars(obj).items():
                    if not attr.startswith("_") and inspect.isfunction(member):
                        yield f"{module.__name__}.{name}.{attr}", member


class TestExports:
    @pytest.mark.parametrize("package", PACKAGES)
    def test_package_imports(self, package):
        importlib.import_module(package)

    @pytest.mark.parametrize(
        "module",
        [
            "repro.faults",
            "repro.faults.scenarios",
            "repro.chaos",
            "repro.chaos.runner",
        ],
    )
    def test_imports_first_in_a_fresh_interpreter(self, module):
        """The faults scenarios and the chaos harness import each other's
        packages; whichever loads first, neither may find the other
        half-initialized (one process hides this behind import order)."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.run(
            [sys.executable, "-c", f"import {module}"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize(
        "package",
        [p for p in PACKAGES if p not in ("repro", "repro.report")],
    )
    def test_all_names_resolve(self, package):
        module = importlib.import_module(package)
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{package}.{name}"

    def test_paper_metadata(self):
        import repro

        assert "Design-Space" in repro.PAPER_TITLE
        assert repro.PAPER_VENUE == "ASPLOS 2021"
        assert repro.PAPER_DOI.startswith("10.1145/")

    @pytest.mark.parametrize("package", PACKAGES)
    def test_packages_documented(self, package):
        module = importlib.import_module(package)
        assert module.__doc__, f"{package} lacks a module docstring"

    @pytest.mark.parametrize("package", ONE_ENGINE_PACKAGES)
    def test_no_public_engine_switch(self, package):
        """Scalar oracles live in ``repro.oracles``, not behind a keyword."""
        offenders = []
        for name, obj in _public_callables(package):
            try:
                parameters = inspect.signature(obj).parameters
            except (TypeError, ValueError):
                continue
            fields = (
                [f.name for f in dataclasses.fields(obj)]
                if inspect.isclass(obj) and dataclasses.is_dataclass(obj)
                else []
            )
            if "engine" in parameters or "engine" in fields:
                if name not in ENGINE_KEYWORD_ALLOWLIST:
                    offenders.append(name)
        assert offenders == []

    @pytest.mark.parametrize("package", PACKAGES)
    def test_oracles_not_exported(self, package):
        module = importlib.import_module(package)
        assert "oracles" not in getattr(module, "__all__", [])


class TestReadmeQuickstart:
    def test_readme_design_snippet(self):
        """The exact snippet shown in the README must keep working."""
        from repro.core.design import DroneDesign

        design = DroneDesign(
            wheelbase_mm=450, battery_cells=3, battery_capacity_mah=3000,
            compute_power_w=5.0,
        )
        result = design.evaluate()
        text = result.summary()
        assert "hover" in text
        assert result.flight_time_min > 10.0

    def test_readme_flight_snippet(self):
        from repro.autopilot.dronekit import connect

        vehicle = connect()
        vehicle.armed = True
        vehicle.simple_takeoff(5.0)
        assert vehicle.location.altitude > 3.0
        assert 0.9 < vehicle.battery.level <= 1.0


class TestDronekitDetails:
    def test_groundspeed_during_translation(self):
        from repro.autopilot.dronekit import connect

        vehicle = connect()
        vehicle.armed = True
        vehicle.simple_takeoff(5.0, wait_s=6.0)
        start = vehicle.location
        vehicle.simple_goto(8.0, 0.0, 5.0)
        vehicle.wait(1.5)
        end = vehicle.location
        assert math.hypot(end.north - start.north, end.east - start.east) > 0.3

    def test_location_altitude_is_negative_down(self):
        from repro.autopilot.dronekit import LocationLocal

        location = LocationLocal(north=1.0, east=2.0, down=-7.0)
        assert location.altitude == 7.0
