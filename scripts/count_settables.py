"""Count the settable values of finslerkit, the figure ROADMAP aim 2 tracks.

A settable value is one of:

- a function parameter with a default in ``src/finslerkit/*.py``;
- a dataclass field with a default there;
- an option flag of a ``finslerkit`` subcommand (``-h`` not counted).

The first two are counted from the syntax tree, the flags from
``cli.build_parser()``.  Run from the repository root:

    PYTHONPATH=src python scripts/count_settables.py

It prints the total, then the source and CLI parts in parentheses.
"""

from __future__ import annotations

import argparse
import ast
from pathlib import Path

from finslerkit import cli

SOURCE = Path(__file__).resolve().parent.parent / "src" / "finslerkit"


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def source_settables(path: Path) -> int:
    """Parameters with a default plus dataclass fields with a default."""
    count = 0
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            count += len(node.args.defaults)
            count += sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            count += sum(
                isinstance(stmt, ast.AnnAssign) and stmt.value is not None
                for stmt in node.body
            )
    return count


def cli_settables() -> int:
    """Option flags per subcommand, without the help flag."""
    parser = cli.build_parser()
    subparsers = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    return sum(
        sum(bool(a.option_strings) and not isinstance(a, argparse._HelpAction)
            for a in sub._actions)
        for sub in subparsers.choices.values()
    )


def main() -> None:
    source = sum(source_settables(path) for path in sorted(SOURCE.glob("*.py")))
    flags = cli_settables()
    print(f"{source + flags} ({source} + {flags})")


if __name__ == "__main__":
    main()
