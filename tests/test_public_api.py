"""The public names: every export resolves, and the README's quick tour runs."""

import ast
import importlib
import pathlib
import pkgutil
import re

import arcadeproc

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_every_exported_name_resolves():
    # a deleted function whose name stays in __all__ or in the package's
    # re-exports fails here, not in a user's ``import *``
    missing = []
    for info in pkgutil.iter_modules(arcadeproc.__path__):
        module = importlib.import_module(f"arcadeproc.{info.name}")
        missing += [f"{info.name}.{name}" for name in getattr(module, "__all__", ())
                    if not hasattr(module, name)]
    tree = ast.parse(pathlib.Path(arcadeproc.__file__).read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            module = importlib.import_module(f"arcadeproc.{node.module}")
            exported = getattr(module, "__all__", None)
            missing += [f"{node.module}.{alias.name}" for alias in node.names
                        if not hasattr(module, alias.name)
                        or (exported is not None and alias.name not in exported)]
    assert not missing, f"stale exports: {missing}"


def test_readme_quick_tour_runs():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, flags=re.S | re.M)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {"__name__": "readme_quick_tour"})
