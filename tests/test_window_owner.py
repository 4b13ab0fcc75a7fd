"""The far root and the asymptotic window have one owner.

A trajectory diagnostic takes the trajectory and the user's own options
and derives the rest in diagnostics: `far_root` gives the root the fields
tend to at infinity, and `select_times` opens its own asymptotic window,
so the `select-times` op and the scattering stage select the same times
by construction.  No caller chooses either: cli names neither `far_root`
nor the window, and no package function takes a `t_min` to restrict the
window from outside.  Each package module is parsed, not imported.
"""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "wavemap"


def _tree(name):
    return ast.parse((PACKAGE / f"{name}.py").read_text())


def _names(tree):
    """Every name a module's source defines, references or imports."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, (ast.alias, ast.FunctionDef)):
            found.add(node.name)
    return found


def test_cli_derives_neither_the_root_nor_the_window():
    assert "far_root" in _names(_tree("diagnostics"))
    assert _names(_tree("cli")) & {"far_root", "asymptotic_start"} == set()


def test_no_function_takes_a_window_start():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                args = node.args
                params = [*args.posonlyargs, *args.args, *args.kwonlyargs]
                if "t_min" in (a.arg for a in params):
                    found.append((path.stem, getattr(node, "name",
                                                     "<lambda>")))
    assert found == []
