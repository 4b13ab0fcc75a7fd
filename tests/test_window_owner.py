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

from source_index import ALIAS, ATTRIBUTE, DEF, NAME, modules, naming

# every name a module's source defines, references or imports
KINDS = (NAME, ATTRIBUTE, ALIAS, DEF)


def test_cli_derives_neither_the_root_nor_the_window():
    found = naming({"far_root", "asymptotic_start"}, *KINDS)
    assert "far_root" in found["diagnostics"] and "cli" not in found


def test_no_function_takes_a_window_start():
    found = []
    for stem, tree in modules().items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                args = node.args
                params = [*args.posonlyargs, *args.args, *args.kwonlyargs]
                if "t_min" in (a.arg for a in params):
                    found.append((stem, getattr(node, "name", "<lambda>")))
    assert found == []
