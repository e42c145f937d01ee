"""The layout of the package's modules."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "subposet"


def test_no_module_imports_a_private_name_of_another():
    # a helper two modules share has one public home
    private = [f"{path.name}:{node.lineno} imports {alias.name} from {node.module or '.'}"
               for path in sorted(SRC.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.ImportFrom) and node.module != "__future__"
               for alias in node.names if alias.name.startswith("_")]
    assert not private
