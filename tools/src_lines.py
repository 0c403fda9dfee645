"""Count the code, docstring, comment and blank lines of a Python package.

    python tools/src_lines.py [PACKAGE_DIR]

PACKAGE_DIR defaults to ``src/hodgecover`` next to this script.  One row is
printed for each module in it, sorted by name, then the totals.

A docstring is the string literal that ``ast`` reports as the docstring of
the module, of a class or of a function; all its lines count as docstring
lines, blank ones included.  Outside docstrings, a line is a comment line if
it starts with ``#`` after blanks, a blank line if it holds only blanks, and
a code line otherwise.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")


def docstring_lines(tree: ast.Module) -> set[int]:
    """The 1-based numbers of the lines that docstrings span."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def count(path: Path) -> dict[str, int]:
    """The module's lines of each kind."""
    text = path.read_text()
    docs = docstring_lines(ast.parse(text))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        kind = ("docstring" if number in docs else "comment" if stripped.startswith("#")
                else "blank" if not stripped else "code")
        counts[kind] += 1
    return counts


def main(argv: list[str]) -> None:
    if len(argv) > 1:
        sys.exit(f"usage: {Path(__file__).name} [PACKAGE_DIR]")
    package = Path(argv[0]) if argv else Path(__file__).resolve().parents[1] / "src/hodgecover"
    modules = sorted(package.glob("*.py"))
    if not modules:
        sys.exit(f"no Python modules in {package}")
    total = dict.fromkeys(KINDS, 0)
    print(f"{'module':16} {'total':>6} " + " ".join(f"{kind:>9}" for kind in KINDS))
    for path in modules:
        counts = count(path)
        for kind in KINDS:
            total[kind] += counts[kind]
        print(f"{path.name:16} {sum(counts.values()):>6} "
              + " ".join(f"{counts[kind]:>9}" for kind in KINDS))
    print(f"{'total':16} {sum(total.values()):>6} "
          + " ".join(f"{total[kind]:>9}" for kind in KINDS))


if __name__ == "__main__":
    main(sys.argv[1:])
