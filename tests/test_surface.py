"""Every name and every defaulted parameter the package defines has a
caller outside the tests.

Module-level names: a function or class defined at the top of
`src/semfuse/<m>.py` must be reached by a reference, in the Python files
of `src/`, `scripts/` or `perfbench/`, that resolves to it: `<alias>.f`
where the alias is bound to module `<m>` by an import, or a name `f` that
the standard `symtable` module resolves to `<m>`'s own global `f` (outside
f's own body) or to an import of `f` from `<m>`. A local variable of the
same name is not a use. The autodiff ops that `perfbench/tracer.py` looks
up by string in `OP_GROUPS` are exempt; the list is read from that file.

Other names: a word scan. A method, or a function or class defined inside
a function (dunders excluded), must occur as a word in those files other
than its own `def`/`class` line.

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
import symtable
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CALLER_DIRS = ("src", "scripts", "perfbench")
NOT_LITERAL = object()

# Test seams: defaulted parameters that only tests and the acceptance
# gate set, each with its reason.
PARAMETER_SEAMS = {
    "cross_attend(weights_sink)": "the acceptance gate reads attention weights through it",
    "check_scalar_fn(n_coords)": "the tests sample fewer coordinates",
    "backward(grad)": "perfbench's tracer calls `fn(root, grad)`",
}


def package_trees():
    for path in sorted((ROOT / "src" / "semfuse").glob("*.py")):
        yield path, ast.parse(path.read_text())


def caller_files():
    return [p for d in CALLER_DIRS for p in sorted((ROOT / d).rglob("*.py"))]


def is_definition(node) -> bool:
    return (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not (node.name.startswith("__") and node.name.endswith("__")))


def module_level_names() -> dict:
    """'semfuse.<m>.<name>' -> 'file:line' for each top-level function or class."""
    return {f"semfuse.{path.stem}.{node.name}": f"{path.name}:{node.lineno}"
            for path, tree in package_trees() for node in tree.body if is_definition(node)}


def nested_names() -> dict:
    """name -> 'file:line' of its first definition inside a class or function."""
    names = {}
    for path, tree in package_trees():
        for top in tree.body:
            for node in ast.walk(top):
                if node is not top and is_definition(node):
                    names.setdefault(node.name, f"{path.name}:{node.lineno}")
    return names


def imported_names(tree) -> dict:
    """name -> the dotted target an import anywhere in the file binds it to.
    A relative import is one from `semfuse`, the only package with any."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                head = a.name.partition(".")[0]
                bound[a.asname or head] = a.name if a.asname else head
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["semfuse" if node.level else None, node.module]))
            for a in node.names:
                bound[a.asname or a.name] = f"{base}.{a.name}"
    return bound


def scopes(table, outer=None):
    """Each symbol table under `table`, with the name of the top-level
    def or class it is in (None for the module's own table)."""
    yield table, outer
    for child in table.get_children():
        yield from scopes(child, outer or child.get_name())


def resolved_uses(path) -> set:
    """Dotted targets that the names and attribute chains in `path` refer to."""
    source = path.read_text()
    tree = ast.parse(source)
    bound = imported_names(tree)
    in_package = path.parent == ROOT / "src" / "semfuse"
    own = {node.name for node in tree.body if is_definition(node)} if in_package else set()

    def dotted(node):
        if isinstance(node, ast.Name):
            return bound.get(node.id)
        base = dotted(node.value) if isinstance(node, ast.Attribute) else None
        return base and f"{base}.{node.attr}"

    uses = {dotted(node) for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    top = symtable.symtable(source, str(path), "exec")
    for table, outer in scopes(top):
        for sym in table.get_symbols():
            name = sym.get_name()
            home = top if sym.is_global() else table    # the scope that binds the name
            if not sym.is_referenced() or name not in home.get_identifiers():
                continue                                # unread, or a builtin
            if home.lookup(name).is_imported():
                uses.add(bound[name])
            elif home is top and name in own and outer != name:
                uses.add(f"semfuse.{path.stem}.{name}")
    return uses


def looked_up_ops() -> set:
    """'semfuse.autodiff.<op>' for each op `perfbench/tracer.py`'s OP_GROUPS names."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    groups = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and any(isinstance(t, ast.Name) and t.id == "OP_GROUPS" for t in node.targets))
    return {f"semfuse.autodiff.{op}" for ops in groups.values() for op in ops}


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


def test_every_module_level_name_is_reached_outside_the_tests():
    uses = set().union(*map(resolved_uses, caller_files()))
    defined = module_level_names()
    dead = sorted(set(defined) - uses - looked_up_ops())
    assert not dead, ("defined at the top of src/semfuse but reached only from the tests: "
                      + ", ".join(f"{d.removeprefix('semfuse.')} ({defined[d]})" for d in dead))


def test_every_defined_name_has_a_caller_outside_the_tests():
    text = "\n".join(p.read_text() for p in caller_files())
    dead = []
    for name, where in sorted(nested_names().items()):
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
