"""Rules that hold across the whole source tree and the README's example."""

import ast
import re
import shlex
from fractions import Fraction
from pathlib import Path

import torus_rect_tiler
from torus_rect_tiler import cli

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _raises_assertion_error(node: ast.AST) -> bool:
    exc = node.exc if isinstance(node, ast.Raise) else None
    if isinstance(exc, ast.Call):
        exc = exc.func
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def _source_trees():
    files = sorted(SRC.rglob("*.py"))
    assert files
    return [(path, ast.parse(path.read_text(encoding="utf-8"))) for path in files]


def _readme_python_blocks() -> list[str]:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return re.findall(r"^```python\n(.*?)^```$", text, re.M | re.S)


def _is_float(node: ast.AST) -> bool:
    if isinstance(node, ast.Constant):
        return isinstance(node.value, float)
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "float"
    )


def test_source_has_no_assert_statements():
    # python -O strips assert, and an AssertionError reads as one, so internal
    # invariants must raise named exceptions explicitly.
    found = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path, tree in _source_trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert) or _raises_assertion_error(node)
    ]
    assert found == []


def test_source_has_no_float():
    # Every quantity is exact: a float literal or float() call would round,
    # and an integer path must divide with // or divmod, never /.
    found = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path, tree in _source_trees()
        for node in ast.walk(tree)
        if _is_float(node)
    ]
    assert found == []


def test_svg_has_no_true_division():
    # The render maps and rounds every coordinate on integers through
    # _round3's one floor division; a / would build a Fraction per value.
    tree = ast.parse((SRC / "torus_rect_tiler" / "svg.py").read_text(encoding="utf-8"))
    found = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)
    ]
    assert found == []


def test_readme_library_example_runs():
    # The README's python block runs as written, and each "expr  # value"
    # line in it holds: both sides are evaluated in the package namespace.
    blocks = _readme_python_blocks()
    assert blocks
    checked = 0
    for block in blocks:
        namespace = {"Fraction": Fraction, **vars(torus_rect_tiler)}
        exec(compile(block, "README.md", "exec"), namespace)
        for line in block.splitlines():
            if match := re.fullmatch(r"(\S.*?)\s{2,}# (.+)", line):
                expr, value = match.groups()
                assert eval(expr, namespace) == eval(value, namespace), line
                checked += 1
    assert checked


def test_readme_shell_examples_run(tmp_path, monkeypatch, capsys):
    # Each torus-rect-tiler line of the README's sh blocks runs, in order and
    # in one directory, through the CLI's main and exits 0.
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```sh\n(.*?)^```$", text, re.M | re.S)
    commands = [
        shlex.split(line)[1:]
        for block in blocks
        for line in block.splitlines()
        if line.startswith("torus-rect-tiler ")
    ]
    assert commands
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert cli.main(argv) == 0, argv
        capsys.readouterr()


def _names_in(node: ast.AST, own: frozenset = frozenset()) -> set[str]:
    # Names a tree uses outside the def or class that binds them: identifiers,
    # attributes, imported names, and the dotted parts of string constants
    # (bench/ names traced functions so).
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        own = own | {node.name}
    if isinstance(node, ast.Name):
        names = {node.id}
    elif isinstance(node, ast.Attribute):
        names = {node.attr}
    elif isinstance(node, ast.alias):
        names = {node.name}
    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
        names = set(node.value.split("."))
    else:
        names = set()
    names -= own
    for child in ast.iter_child_nodes(node):
        names |= _names_in(child, own)
    return names


def _user_trees() -> list[ast.AST]:
    # The code that may use the public API: the package's modules but
    # __init__.py, which only re-exports, the README's example and bench/.
    trees = [tree for path, tree in _source_trees() if path.name != "__init__.py"]
    trees += map(ast.parse, _readme_python_blocks())
    trees += [ast.parse(path.read_text(encoding="utf-8")) for path in ROOT.glob("bench/*.py")]
    return trees


def test_every_public_name_has_a_user():
    # A public name must be used outside its own def or class: by another
    # module of the package, by the README's example or by a bench/ script.
    used = set().union(*map(_names_in, _user_trees()))
    assert sorted(set(torus_rect_tiler.__all__) - used) == []


def _attributes_read(node: ast.AST, own: frozenset = frozenset()) -> set[str]:
    # Attribute names a tree reads outside the def that binds them.
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        own = own | {node.name}
    names = set()
    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        names = {node.attr} - own
    for child in ast.iter_child_nodes(node):
        names |= _attributes_read(child, own)
    return names


def _class_attributes(node: ast.ClassDef) -> set[str]:
    # The names a class defines: its methods and properties, its fields and
    # class attributes, and each self.<name> its methods assign.
    names = {
        self_attr.attr
        for self_attr in ast.walk(node)
        if isinstance(self_attr, ast.Attribute)
        and isinstance(self_attr.ctx, ast.Store)
        and isinstance(self_attr.value, ast.Name)
        and self_attr.value.id == "self"
    }
    for member in node.body:
        if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(member.name)
        elif isinstance(member, ast.AnnAssign) and isinstance(member.target, ast.Name):
            names.add(member.target.id)
        elif isinstance(member, ast.Assign):
            names |= {t.id for t in member.targets if isinstance(t, ast.Name)}
    return names


# A read of a member whose name another src/ class also defines cannot be
# told by name from a read of that class's attribute, so each such member
# names its reader: a file under the root and a text that occurs in it.
SHARED_MEMBER_READERS = {
    "lattice.py:LatticeBasis.covolume": (
        "src/torus_rect_tiler/tiling.py",
        "cov = basis.covolume",
    ),
    "lattice.py:MinLengthReport.to_json_dict": (
        "src/torus_rect_tiler/cli.py",
        "min_length(basis).to_json_dict()",
    ),
    "skeleton.py:VerificationReport.to_json_dict": (
        "src/torus_rect_tiler/cli.py",
        "_emit_json(report.to_json_dict(), args.output)",
    ),
    "skeleton.py:ReductionStep.to_json_dict": (
        "src/torus_rect_tiler/cli.py",
        "[step.to_json_dict() for step in steps]",
    ),
}


def test_every_public_member_has_a_reader():
    # A public method or property of an exported class must be read as an
    # attribute outside its own def: in src/, in the README's example or in a
    # bench/ script; a member only the tests call is dead code.  The check
    # goes by name, and skips _ names: an operator's operand type is not in
    # the AST.  A member whose name another src/ class defines is read where
    # SHARED_MEMBER_READERS says.
    read = set().union(*map(_attributes_read, _user_trees()))
    exported = {
        name
        for name in torus_rect_tiler.__all__
        if isinstance(getattr(torus_rect_tiler, name), type)
    }
    classes = [
        (path, node)
        for path, tree in _source_trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
    ]
    members = [
        (member.name, f"{path.name}:{node.name}.{member.name}", node)
        for path, node in classes
        if node.name in exported
        for member in node.body
        if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not member.name.startswith("_")
    ]
    assert members
    shared = {
        where
        for name, where, node in members
        if any(
            name in _class_attributes(other) for _, other in classes if other is not node
        )
    }
    assert sorted(shared) == sorted(SHARED_MEMBER_READERS)
    for where, (path, text) in SHARED_MEMBER_READERS.items():
        assert text in (ROOT / path).read_text(encoding="utf-8"), where
    unread = [
        where
        for name, where, _ in members
        if where not in shared and name not in read
    ]
    assert unread == []


def test_every_imported_name_is_read_where_it_is_imported():
    # A name a module takes with "from ... import" must be read in that
    # module, so no module re-exports another's names: each name is imported
    # from its home.  __init__.py only re-exports, so it does not count.
    found = []
    for path, tree in _source_trees():
        if path.name == "__init__.py":
            continue
        read = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        found += [
            f"{path.relative_to(SRC)}:{node.lineno} {alias.asname or alias.name}"
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module != "__future__"
            for alias in node.names
            if (alias.asname or alias.name) not in read
        ]
    assert found == []


def test_every_private_helper_has_a_caller():
    # A module-level def, class or assignment whose name has one leading
    # underscore must be read somewhere in src/, as a name or an attribute;
    # a helper kept only for tests is dead code.  Docstrings do not count.
    defined, loaded = [], set()
    for path, tree in _source_trees():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            defined += [
                (name, f"{path.relative_to(SRC)}:{node.lineno}")
                for name in names
                if name.startswith("_") and not name.startswith("__")
            ]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    assert defined
    assert [where for name, where in defined if name not in loaded] == []
