"""The benchmark's trace hooks still name functions the package has.

``perfbench/child.py --trace 1`` replaces each ``module:attr`` site in its
``ENTRY_POINTS`` before running the CLI; a renamed or deleted function
would crash every traced child, so the sites are resolved here.
"""

import importlib.util
from pathlib import Path

import flwf.cli  # noqa: F401  imports every flwf module, as the traced child does

CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"


def _load_child():
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_entry_point_resolves():
    child = _load_child()
    missing = []
    for name, sites in child.ENTRY_POINTS:
        for site in sites:
            try:
                owner, attr = child._resolve(site)
                found = callable(getattr(owner, attr))
            except (AttributeError, KeyError):
                found = False
            if not found:
                missing.append(f"{name} at {site}")
    assert not missing, f"trace entry points without a target: {missing}"
