"""The package's import graph: ``import dhcpguard`` loads no submodule, and
the names detect's set-up needs load neither the simulator nor the report
code.  Each check runs in a fresh interpreter, since this one has long
imported every module."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dhcpguard

SRC = str(Path(dhcpguard.__file__).resolve().parents[1])


def _modules_loaded_by(statement):
    """The modules a fresh interpreter adds to ``sys.modules`` while running ``statement``."""
    code = ("import json, sys\nbefore = set(sys.modules)\n" + statement
            + "\nprint(json.dumps(sorted(set(sys.modules) - before)))")
    child = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                           env=dict(os.environ, PYTHONPATH=SRC), timeout=60)
    assert child.returncode == 0, child.stderr
    return set(json.loads(child.stdout))


def test_import_dhcpguard_loads_no_submodule():
    loaded = _modules_loaded_by("import dhcpguard")
    assert "dhcpguard" in loaded
    assert not {name for name in loaded if name.startswith("dhcpguard.")}


def test_detect_set_up_loads_neither_simulator_nor_report_code():
    loaded = _modules_loaded_by(
        "from dhcpguard import DhcpRegistry, Pipeline, Policy, load_signatures")
    assert "dhcpguard.pipeline" in loaded
    unwanted = {"dhcpguard.netsim", "dhcpguard.metrics", "dhcpguard.cli",
                "fractions", "statistics", "logging"}
    assert loaded & unwanted == set()


def test_every_public_name_resolves_to_its_module_s_own_object():
    exported = [name for names in dhcpguard._EXPORTS.values() for name in names]
    assert dhcpguard.__all__ == sorted(exported) and len(set(exported)) == len(exported)
    for module_name, names in dhcpguard._EXPORTS.items():
        module = importlib.import_module(f"dhcpguard.{module_name}")
        for name in names:
            value = getattr(dhcpguard, name)
            assert value is vars(module)[name] is vars(dhcpguard)[name]
            # defined in that module, not imported into it (Ipv4Addr is int, MacAddr bytes)
            if getattr(value, "__module__", "builtins") != "builtins":
                assert value.__module__ == module.__name__, name
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        dhcpguard.no_such_name
