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
cli, which never plans one, names neither `_record_stops` nor
`_step_plan`: how many frames a run records is `evolve`'s alone.  Each
package module is parsed, not imported or executed.
"""

import ast
import pathlib
import textwrap

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "wavemap"
FILE_FUNCTIONS = {"load", "save", "memmap", "fromfile"}


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


def _names(path):
    """Every name, attribute and imported name in a module's source."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
    return found


def _modules():
    return sorted(PACKAGE.glob("*.py"))


def test_no_module_calls_a_whole_array_file_function():
    calls = {path.stem: sorted(_file_calls(ast.parse(path.read_text())))
             for path in _modules()}
    assert "evolution" in calls
    assert {stem: used for stem, used in calls.items() if used} == {}


def _uses_np_lib(path):
    return any(isinstance(node, ast.Attribute) and node.attr == "lib"
               and isinstance(node.value, ast.Name)
               and node.value.id in ("np", "numpy")
               for node in ast.walk(ast.parse(path.read_text())))


def test_only_evolution_parses_npy_headers():
    assert {path.stem for path in _modules() if _uses_np_lib(path)} \
        == {"evolution"}


def test_cli_reaches_frames_through_the_frame_functions():
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    imported = {a.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                and node.module == "evolution" for a in node.names}
    assert {"write_snapshot", "read_snapshot"} <= imported
    assert not {"FrameFile", "readinto", "tofile"} & _names(PACKAGE /
                                                            "cli.py")


def test_one_writer_and_no_planned_count():
    assert not {"_record_stops", "_step_plan"} & _names(PACKAGE / "cli.py")
    tree = ast.parse((PACKAGE / "evolution.py").read_text())
    defs = {node.name: node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    args = defs["write_snapshot"].args
    assert [a.arg for a in args.posonlyargs + args.args] == ["fields", "path"]
    assert not (args.vararg or args.kwonlyargs or args.kwarg)
    assert "_planned" not in {node.attr for node in
                              ast.walk(defs["FrameFile"])
                              if isinstance(node, ast.Attribute)}


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
