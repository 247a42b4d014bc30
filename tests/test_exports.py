"""The public names: what the benchmark's tracer wraps, and what the package exports.

The traced benchmark run (``perfbench/tracing.py``) wraps phasecov
functions by name, so deleting or renaming one of them would otherwise
fail only there.  The tracer's name lists are read from its source, not
imported, so that the suite needs nothing from ``perfbench`` but the file.
"""

import ast
import importlib
from pathlib import Path

import phasecov

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
SUBMODULES = ("coeffs", "cptp", "dynamics", "mesolve", "models", "nonmarkov")


def _traced_names():
    """The strings of the tracer's FUNCTIONS and SCIPY tuples."""
    names = {}
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and target.id in ("FUNCTIONS", "SCIPY"):
                names[target.id] = ast.literal_eval(node.value)
    return names


def test_every_traced_name_resolves_on_its_module():
    names = _traced_names()
    assert set(names) == {"FUNCTIONS", "SCIPY"}
    for key in names["FUNCTIONS"] + names["SCIPY"]:
        module, name = key.split(".")
        assert callable(getattr(importlib.import_module(f"phasecov.{module}"), name, None)), key


def test_package_exports_exactly_the_submodules_names():
    union = set()
    for module in SUBMODULES:
        union.update(importlib.import_module(f"phasecov.{module}").__all__)
    assert len(phasecov.__all__) == len(set(phasecov.__all__))
    assert set(phasecov.__all__) == union
    for name in phasecov.__all__:
        assert hasattr(phasecov, name), name
