"""The frame store has one owner.

A store's frames.npy is written by evolution's `write_snapshot` and read
by its `read_snapshot`, both through a `FrameFile`, which reads one frame
at a time by offset.  No package module calls numpy's whole-array file
functions (np.load, np.save, np.memmap, np.fromfile), so no second loader,
one that would hold every frame, grows beside the streaming one; evolution
writes and reads the .npy header through np.lib.format, which no other
module names.  cli reaches frames only through the two frame functions: it
imports both and names no FrameFile.  A store has one writer:
`write_snapshot(fields, path)` opens it, and its header is written at
commit for the frames stored, so no FrameFile holds a planned count, and
cli, which never plans one, names no `_record_stops` and calls
`_step_plan` only as a statement, to refuse a run no count can hold
before any work, discarding the plan: how many frames a run records is
`evolve`'s alone.  Each package module is parsed, not imported or
executed.
"""

import ast
import textwrap

from source_index import ALIAS, ATTRIBUTE, MODULE, NAME, modules, names

FILE_FUNCTIONS = {"load", "save", "memmap", "fromfile"}
KINDS = (NAME, ATTRIBUTE, ALIAS)


def _file_calls(tree):
    """The numpy file functions named under the AST node, called as
    np.<name> or numpy.<name> or imported from numpy."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in FILE_FUNCTIONS \
                and isinstance(node.value, ast.Name) \
                and node.value.id in ("np", "numpy"):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and not node.level \
                and node.module == "numpy":
            found |= {a.name for a in node.names} & FILE_FUNCTIONS
    return found


def test_no_module_calls_a_whole_array_file_function():
    calls = {stem: sorted(_file_calls(tree))
             for stem, tree in modules().items()}
    assert "evolution" in calls
    assert {stem: used for stem, used in calls.items() if used} == {}


def _uses_np_lib(tree):
    return any(isinstance(node, ast.Attribute) and node.attr == "lib"
               and isinstance(node.value, ast.Name)
               and node.value.id in ("np", "numpy")
               for node in ast.walk(tree))


def test_only_evolution_parses_npy_headers():
    assert {stem for stem, tree in modules().items()
            if _uses_np_lib(tree)} == {"evolution"}


def test_cli_reaches_frames_through_the_frame_functions():
    cli = modules()["cli"]
    assert {".evolution.write_snapshot", ".evolution.read_snapshot"} <= \
        names(cli, MODULE)
    assert not {"FrameFile", "readinto", "tofile"} & names(cli, *KINDS)


def _step_plan_uses(tree):
    """(calls of _step_plan, those that are bare statements) under the
    AST node, and every other mention of the name."""
    calls = [n for n in ast.walk(tree) if isinstance(n, ast.Call)
             and getattr(n.func, "id", None) == "_step_plan"]
    bare = [n for n in ast.walk(tree) if isinstance(n, ast.Expr)
            and n.value in calls]
    named = [n for n in ast.walk(tree) if isinstance(n, ast.Name)
             and n.id == "_step_plan"]
    return len(calls), len(bare), len(named)


def test_one_writer_and_no_planned_count():
    trees = modules()
    assert "_record_stops" not in names(trees["cli"], *KINDS)
    calls, bare, named = _step_plan_uses(trees["cli"])
    assert calls == bare == named
    assert _step_plan_uses(ast.parse("n = _step_plan(g, t, c)[1]")) == \
        (1, 0, 1)
    defs = {node.name: node for node in trees["evolution"].body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    args = defs["write_snapshot"].args
    assert [a.arg for a in args.posonlyargs + args.args] == ["fields", "path"]
    assert not (args.vararg or args.kwonlyargs or args.kwarg)
    assert "_planned" not in names(defs["FrameFile"], ATTRIBUTE)


def test_the_guard_sees_every_call_form():
    for text, name in (("np.load(path)", "load"),
                       ("numpy.save(path, a)", "save"),
                       ("x = np.memmap(path, mode='r')", "memmap"),
                       ("from numpy import fromfile", "fromfile"),
                       ("def f():\n    return np.fromfile(fh)", "fromfile")):
        assert _file_calls(ast.parse(text)) == {name}, text
    assert not _file_calls(ast.parse(textwrap.dedent("""
        traj = load_trajectory(path)
        cp.read(manifest)
        np.lib.format.read_magic(fh)
        from .evolution import read_snapshot
        store.save(path)
    """)))
