"""Every public name of the package has a caller outside the tests.

The scan lists each public top-level function and class of
``src/flwf/*.py`` and each public method (properties included) of a
top-level class.  A name is in use when one of these refers to it:

* a name, an attribute or an import in ``src/flwf`` outside
  ``__init__.py`` (its re-exports are not a use);
* any of those in ``demos/`` or ``tools/``;
* a site string of ``perfbench/child.py``'s ``ENTRY_POINTS``.

A method counts only through an attribute access (or a ``Class.method``
site), so a local variable that shares its name does not keep it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "flwf"


def _public(name: str) -> bool:
    return not name.startswith("_")


def _surface() -> dict[str, tuple[str, bool]]:
    """``module.name`` or ``module.Class.method`` -> (the bare name, is a method)."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or not _public(node.name):
                continue
            out[f"{path.stem}.{node.name}"] = (node.name, False)
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and _public(item.name):
                        out[f"{path.stem}.{node.name}.{item.name}"] = (item.name, True)
    return out


def _uses(paths) -> tuple[set[str], set[str]]:
    """(names and imported names, attribute names) referred to in ``paths``."""
    names, attrs = set(), set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rpartition(".")[2])
    return names, attrs


def _entry_point_sites() -> tuple[set[str], set[str]]:
    """(top-level names, attribute names) the benchmark's sites resolve."""
    tree = ast.parse((ROOT / "perfbench" / "child.py").read_text())
    entries = next(ast.literal_eval(node.value) for node in tree.body
                   if isinstance(node, ast.Assign)
                   and any(getattr(t, "id", None) == "ENTRY_POINTS" for t in node.targets))
    names, attrs = set(), set()
    for _, sites in entries:
        for site in sites:
            head, *rest = site.partition(":")[2].split(".")
            names.add(head)
            attrs.update(rest)
    return names, attrs


def unused_public_names() -> list[str]:
    sources = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    sources += sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "tools").glob("*.py"))
    names, attrs = _uses(sources)
    site_names, site_attrs = _entry_point_sites()
    names |= site_names
    attrs |= site_attrs
    return sorted(qualified for qualified, (name, is_method) in _surface().items()
                  if name not in attrs and (is_method or name not in names))


def test_the_surface_scan_sees_functions_classes_and_methods():
    surface = _surface()
    assert surface["network.init_params"] == ("init_params", False)
    assert surface["metrics.MetricsLedger"] == ("MetricsLedger", False)
    assert surface["metrics.MetricsLedger.record_for"] == ("record_for", True)
    assert "network._forward_pass" not in surface
    assert not any(q.endswith("__post_init__") for q in surface)


def test_every_public_name_has_a_caller_outside_the_tests():
    assert unused_public_names() == []


def test_every_name_in_all_resolves_and_every_re_export_is_listed():
    """``from flwf import *`` imports exactly what ``__init__.py`` re-exports:
    each name of ``flwf.__all__`` resolves on the package, once, and each
    public name ``__init__.py`` imports is in ``__all__``."""
    import flwf

    missing = [name for name in flwf.__all__ if not hasattr(flwf, name)]
    assert missing == []
    assert len(set(flwf.__all__)) == len(flwf.__all__)
    imported = {alias.asname or alias.name
                for node in ast.parse((PACKAGE / "__init__.py").read_text()).body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert sorted(name for name in imported if _public(name)) == sorted(flwf.__all__)
