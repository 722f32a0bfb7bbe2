"""Every top-level function and class in ``src/quantadist`` is reached
from a command, and no module there imports a name it never uses.

A name is reached when a chain of loaded names leads to it from a root:
``cli.main`` (the console script), the module-level code of any module
other than its imports, or a function the benchmark tracer wraps (the
``TIMED`` and ``COUNTED`` tables of ``perfbench/tracing.py``, read from
that file).  Names resolve through each module's own definitions and
its ``from .module import name`` imports; reaching a class reaches its
whole body.  Annotations are not references: a class named only in
signatures is never built.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "quantadist").glob("*.py"))
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

#: Unreached names kept on purpose, with the reason.
EXEMPT = {
    ("models", "certificate_to_json"):
        "the certificate writer that `prove` (ROADMAP item 1) will emit through",
}


class _Loads(ast.NodeVisitor):
    """The names a piece of code loads, leaving out annotations and imports."""

    def __init__(self):
        self.names = set()

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load):
            self.names.add(node.id)

    def visit_arg(self, node):
        pass

    def visit_AnnAssign(self, node):
        if node.value is not None:
            self.visit(node.value)

    def visit_FunctionDef(self, node):
        for child in [*node.decorator_list, node.args, *node.body]:
            self.visit(child)

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Import(self, node):
        pass

    visit_ImportFrom = visit_Import


def _traced_roots():
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text(encoding="utf-8"))
    tables = [ast.literal_eval(node.value) for node in tree.body
              if isinstance(node, ast.Assign) and len(node.targets) == 1
              and getattr(node.targets[0], "id", None) in ("TIMED", "COUNTED")]
    assert len(tables) == 2, "perfbench/tracing.py has no TIMED or COUNTED table"
    return {(module.split(".")[1], attr.split(".")[0])
            for table in tables for module, attr, _metric in table}


def _reachability():
    """(defined, reached) top-level functions and classes of the package."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in MODULES}
    bodies = {(m, node.name): node for m, tree in trees.items()
              for node in tree.body if isinstance(node, DEFS)}
    imported = {}
    for m, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                assert node.level == 1 and node.module, f"{m}: an import form not read here"
                for alias in node.names:
                    imported[(m, alias.asname or alias.name)] = (node.module, alias.name)

    def resolve(name):
        while name not in bodies and name in imported:
            name = imported[name]
        return name if name in bodies else None

    def references(m, nodes):
        loads = _Loads()
        for node in nodes:
            loads.visit(node)
        return {resolve((m, name)) for name in loads.names} - {None}

    roots = {("cli", "main")} | _traced_roots()
    assert roots <= bodies.keys(), f"roots not defined in src: {roots - bodies.keys()}"
    for m, tree in trees.items():
        roots |= references(m, [node for node in tree.body if not isinstance(node, DEFS)])
    reached, queue = set(), list(roots)
    while queue:
        name = queue.pop()
        if name not in reached:
            reached.add(name)
            queue.extend(references(name[0], [bodies[name]]))
    return set(bodies), reached


def test_every_top_level_name_is_reached_from_a_command():
    defined, reached = _reachability()
    unreached = sorted(f"{m}.{n}" for m, n in defined - reached - EXEMPT.keys())
    assert not unreached, (f"no command reaches {unreached}: delete them, or move "
                           "them to tests/ if only tests read them")


def test_exemptions_are_defined_and_unreached():
    defined, reached = _reachability()
    assert EXEMPT.keys() <= defined - reached


# __init__.py's imports are the package's public names.
@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(
        f"{local} (line {node.lineno})"
        for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for local in [(a.asname or a.name).split(".")[0] for a in node.names]
        if local not in used)
    assert not unused, f"{path.name} imports names it never uses: {unused}"
