import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "hodgecover"


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def local_names(func) -> set[str]:
    """A function's parameters and the names bound anywhere in its body."""
    args = func.args
    names = {a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                             args.vararg, args.kwarg) if a}
    body = func.body if isinstance(func.body, list) else [func.body]
    return names | {node.id for stmt in body for node in ast.walk(stmt)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}


def global_reads(node, shadowed=frozenset()):
    """Names read at ``node`` and below that no enclosing function binds."""
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in shadowed:
        yield node.id
    if not isinstance(node, FUNCTIONS):
        for child in ast.iter_child_nodes(node):
            yield from global_reads(child, shadowed)
        return
    args = node.args
    outer = [*getattr(node, "decorator_list", []), *args.defaults,
             *(d for d in args.kw_defaults if d), getattr(node, "returns", None)]
    outer += [a.annotation for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                     args.vararg, args.kwarg) if a]
    for child in filter(None, outer):
        yield from global_reads(child, shadowed)
    inner = shadowed | local_names(node)
    for child in node.body if isinstance(node.body, list) else [node.body]:
        yield from global_reads(child, inner)


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads, as "line: name".

    A function's own parameter or local of the same name is not a read, and
    names inside string annotations are.  An import statement with
    ``# noqa: F401`` on any of its lines is exempt.
    """
    tree = ast.parse(source)
    lines = source.splitlines()
    reads = set(global_reads(tree))
    annotations = [node.annotation for node in ast.walk(tree)
                   if isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation]
    annotations += [node.returns for node in ast.walk(tree)
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns]
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                reads |= {name.id for name in ast.walk(ast.parse(node.value, mode="eval"))
                          if isinstance(name, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if bound not in reads:
                unused.append(f"{node.lineno}: {bound}")
    return unused


@pytest.mark.parametrize("source, unused", [
    ("import os\n", ["1: os"]),
    ("import os.path\nos.sep\n", []),
    ("from a import (b,  # noqa: F401\n    c)\n", []),
    ("from a import (b,\n    c)\nb\n", ["1: c"]),
    ("from a import B\ndef f(x: 'list[B]') -> None: pass\n", []),
    ("from a import B\ndef f() -> 'B': pass\n", []),
    ("from __future__ import annotations\n", []),
    ("from a import b as c\nb\n", ["1: c"]),
    # a parameter or local of the imported name reads itself, not the import
    ("from a import field\ndef f(field): return field\n", ["1: field"]),
    ("from a import b\ndef f():\n    b = 1\n    return b\n", ["1: b"]),
    ("from a import b\ndef f(x=b): return x\n", []),
    ("from a import b\ndef f():\n    return b\n", []),
])
def test_unused_imports_finds_what_is_never_read(source, unused):
    assert unused_imports(source) == unused


def test_src_imports_only_what_it_reads():
    found = {path.name: unused_imports(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert len(found) > 10
    assert {name: names for name, names in found.items() if names} == {}
