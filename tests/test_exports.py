import ast
import importlib
import shlex
from pathlib import Path

import pytest

from robustport.cli import build_parser

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


def test_readme_cli_examples_parse():
    # every `robustport ...` line of the CLI block, with its optional flags
    # given and each placeholder N read as 1
    section = README.read_text().split("## CLI", 1)[1]
    block = section.split("```bash\n", 1)[1].split("```", 1)[0]
    lines = [line.split("#", 1)[0] for line in block.splitlines()
             if line.startswith("robustport ")]
    assert len(lines) == 8
    parser = build_parser()
    for line in lines:
        argv = ["1" if word == "N" else word
                for word in shlex.split(line.replace("[", " ").replace("]", " "))]
        args = parser.parse_args(argv[1:])
        assert args.command == argv[1]
