"""Every name and every defaulted parameter the package defines has a
caller outside the tests.

Names: a word scan, not a call graph. A function, method or class
defined in `src/semfuse/*.py` (dunders excluded) must occur as a word
somewhere in the Python files of `src/`, `scripts/` or `perfbench/`
other than its own `def`/`class` line.

Parameters: a parameter with a default on a function or method in
`src/semfuse` must be passed, by keyword or by position, in some call in
those directories, with a value other than its default. Callees match by
name, and a class's `__init__` matches calls to the class name; a call
with `*args` or `**kwargs` counts as passing every parameter, and a
value that is not a literal counts as differing from the default.

Uses in `tests/` do not count, so a helper or a setting only the tests
need lives in the tests, or is a constant.
"""
import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CALLER_DIRS = ("src", "scripts", "perfbench")
NOT_LITERAL = object()

# Test seams: defaulted parameters that only tests and the acceptance
# gate set, each with its reason.
PARAMETER_SEAMS = {
    "cross_attend(weights_sink)": "the acceptance gate reads attention weights through it",
    "check_scalar_fn(n_coords)": "the tests sample fewer coordinates",
}


def package_trees():
    for path in sorted((ROOT / "src" / "semfuse").glob("*.py")):
        yield path, ast.parse(path.read_text())


def caller_files():
    return [p for d in CALLER_DIRS for p in sorted((ROOT / d).rglob("*.py"))]


def defined_names() -> dict:
    """name -> 'file:line' of its first definition in the package."""
    names = {}
    for path, tree in package_trees():
        for node in ast.walk(tree):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not (node.name.startswith("__") and node.name.endswith("__"))):
                names.setdefault(node.name, f"{path.name}:{node.lineno}")
    return names


def literal(node):
    """The value a literal expression spells, else NOT_LITERAL."""
    try:
        return ast.literal_eval(node)
    except (ValueError, TypeError, SyntaxError):
        return NOT_LITERAL


def is_default(value, default) -> bool:
    return (value is not NOT_LITERAL and default is not NOT_LITERAL
            and type(value) is type(default) and value == default)


def defaulted_parameters() -> list:
    """(callee, param, positional index or None, default, 'file:line') for
    each parameter with a default. The index counts positions as a caller
    writes them, so a method's `self` is not counted; None means
    keyword-only. The default is its literal value, or NOT_LITERAL."""
    out = []
    for path, tree in package_trees():
        functions = [(None, n) for n in tree.body
                     if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
            functions += [(cls, n) for n in cls.body
                          if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for cls, fn in functions:
            if fn.name.startswith("__") and fn.name != "__init__":
                continue
            callee = cls.name if fn.name == "__init__" else fn.name
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                         for d in fn.decorator_list)
            positional = fn.args.posonlyargs + fn.args.args
            if cls is not None and not static:
                positional = positional[1:]
            first_default = len(positional) - len(fn.args.defaults)
            where = f"{path.name}:{fn.lineno}"
            out += [(callee, a.arg, i, literal(fn.args.defaults[i - first_default]), where)
                    for i, a in enumerate(positional) if i >= first_default]
            out += [(callee, a.arg, None, literal(d), where)
                    for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d is not None]
    return out


def passed_parameters() -> dict:
    """(callee, param or position) -> the literal values (NOT_LITERAL for
    any other expression) that callers pass it; (callee, '*') is a key for
    a call that spreads `*args` or `**kwargs`."""
    passed = {}
    for path in caller_files():
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = (func.id if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute) else None)
            if name is None:
                continue
            if (any(isinstance(a, ast.Starred) for a in node.args)
                    or any(k.arg is None for k in node.keywords)):
                passed.setdefault((name, "*"), []).append(NOT_LITERAL)
            args = list(enumerate(node.args))
            args += [(k.arg, k.value) for k in node.keywords if k.arg is not None]
            for key, value in args:
                passed.setdefault((name, key), []).append(literal(value))
    return passed


def test_every_defined_name_has_a_caller_outside_the_tests():
    text = "\n".join(p.read_text() for p in caller_files())
    dead = []
    for name, where in sorted(defined_names().items()):
        word = re.escape(name)
        uses = (len(re.findall(rf"\b{word}\b", text))
                - len(re.findall(rf"\b(?:def|class)\s+{word}\b", text)))
        if uses == 0:
            dead.append(f"{name} ({where})")
    assert not dead, "defined in src/ but used only by tests: " + ", ".join(dead)


def test_every_defaulted_parameter_is_set_outside_the_tests():
    passed = passed_parameters()
    unset = {}
    for callee, param, index, default, where in defaulted_parameters():
        keys = [(callee, param), (callee, "*")] + ([(callee, index)] if index is not None else [])
        if all(is_default(v, default) for k in keys for v in passed.get(k, [])):
            unset[f"{callee}({param})"] = where
    flagged = sorted(set(unset) - set(PARAMETER_SEAMS))
    assert not flagged, ("defaulted parameters no caller outside the tests sets to another value: "
                         + ", ".join(f"{k} ({unset[k]})" for k in flagged))
    stale = sorted(set(PARAMETER_SEAMS) - set(unset))
    assert not stale, "allowlisted seams that a caller now sets or that are gone: " + ", ".join(stale)
