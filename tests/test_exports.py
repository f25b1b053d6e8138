import ast
import importlib
from pathlib import Path

import pytest

MODULES = ["robustport"] + [f"robustport.{name}" for name in (
    "model", "worst_case", "pde", "strategy", "simulate", "csvio",
    "config", "cli")]
README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.mark.parametrize("module", MODULES)
def test_every_export_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing


def test_readme_library_example_imports():
    # run only the example's `from robustport import ...`: the rest solves
    # a full-size model
    section = README.read_text().split("## Library entry points", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    imports = [node for node in ast.parse(block).body
               if isinstance(node, ast.ImportFrom) and node.module == "robustport"]
    assert imports
    exec(compile(ast.Module(body=imports, type_ignores=[]), "README.md", "exec"), {})
