"""Every name the package defines has a caller outside the tests.

A word scan, not a call graph: a function, method or class defined in
`src/semfuse/*.py` (dunders excluded) must occur as a word somewhere in
the Python files of `src/`, `scripts/` or `perfbench/` other than its
own `def`/`class` line. Uses in `tests/` do not count, so a helper only
the tests need lives in the tests.
"""
import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CALLER_DIRS = ("src", "scripts", "perfbench")


def defined_names() -> dict:
    """name -> 'file:line' of its first definition in the package."""
    names = {}
    for path in sorted((ROOT / "src" / "semfuse").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not (node.name.startswith("__") and node.name.endswith("__"))):
                names.setdefault(node.name, f"{path.name}:{node.lineno}")
    return names


def test_every_defined_name_has_a_caller_outside_the_tests():
    text = "\n".join(p.read_text() for d in CALLER_DIRS
                     for p in sorted((ROOT / d).rglob("*.py")))
    dead = []
    for name, where in sorted(defined_names().items()):
        word = re.escape(name)
        uses = (len(re.findall(rf"\b{word}\b", text))
                - len(re.findall(rf"\b(?:def|class)\s+{word}\b", text)))
        if uses == 0:
            dead.append(f"{name} ({where})")
    assert not dead, "defined in src/ but used only by tests: " + ", ".join(dead)
