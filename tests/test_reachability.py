"""Every top-level function and class in ``src/quantadist`` is reached
from a command, every method of a class there is read by name, every
parameter default there is overridden by some call, no module there
imports a name it never uses, no function there assigns a local it
never reads, quantale values are validated only where they enter,
only the dataclasses that check outside input define
``__post_init__``, and nothing assigns to a field of a term.

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


def _traced():
    """(module, attribute) for each entry of the tracer's ``TIMED`` and
    ``COUNTED`` tables: a function, or ``Class.method``."""
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text(encoding="utf-8"))
    tables = [ast.literal_eval(node.value) for node in tree.body
              if isinstance(node, ast.Assign) and len(node.targets) == 1
              and getattr(node.targets[0], "id", None) in ("TIMED", "COUNTED")]
    assert len(tables) == 2, "perfbench/tracing.py has no TIMED or COUNTED table"
    return {(module.split(".")[1], attr) for table in tables for module, attr, _metric in table}


def _traced_roots():
    return {(module, attr.split(".")[0]) for module, attr in _traced()}


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


#: Methods that no attribute read in ``src`` names, kept on purpose, with the reason.
METHOD_EXEMPT = {
    "canon": "canon.canon_key reads it with getattr, by a name in a string",
}


def _unread_methods():
    """``module.Class.method`` for each method of a top-level class in
    ``src`` (dunder methods left out) whose name no attribute read in
    ``src`` loads outside the method's own definition, and which the
    tracer's tables do not name."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in MODULES}
    reads = {}  # attribute name -> the ids of the nodes that load it
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.setdefault(node.attr, set()).add(id(node))
    traced = _traced()
    out = set()
    for m, tree in trees.items():
        for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
            for node in cls.body:
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                        or node.name.startswith("__") and node.name.endswith("__") \
                        or (m, f"{cls.name}.{node.name}") in traced:
                    continue
                own = {id(n) for n in ast.walk(node)}
                if not reads.get(node.name, set()) - own:
                    out.add(f"{m}.{cls.name}.{node.name}")
    return out


def test_every_method_is_read_by_name():
    unread = sorted(name for name in _unread_methods()
                    if name.rpartition(".")[2] not in METHOD_EXEMPT)
    assert not unread, (f"nothing in src reads {unread}: delete them, or move them "
                        "to tests/ if only tests call them")


def test_method_exemptions_are_unread():
    exempt = {name.rpartition(".")[2] for name in _unread_methods()}
    assert METHOD_EXEMPT.keys() <= exempt


#: Defaulted parameters no call in ``src`` passes, kept on purpose, with the reason.
CONSTANT_EXEMPT = {
    "galois.gamma_enum.budget": "a refusal threshold that tests lower",
    "behaviour.kleene_gfp.max_iters": "kept while the benchmark tracer wraps kleene_gfp",
    "cli.main.argv": "the console script calls main with no arguments",
}


def _defaulted_parameters():
    """(qualified name, callee names, parameter, position) for each
    parameter with a default of a top-level function or method.  The
    position counts the arguments a call passes before it (None for a
    keyword-only one, after ``self`` for a method); a class's name calls
    its ``__init__``."""
    out = []
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        functions = [(f"{path.stem}.{node.name}", {node.name}, 0, node)
                     for node in tree.body if isinstance(node, ast.FunctionDef)]
        for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
            for node in cls.body:
                if isinstance(node, ast.FunctionDef):
                    names = {node.name, cls.name} if node.name == "__init__" else {node.name}
                    functions.append((f"{path.stem}.{cls.name}.{node.name}", names, 1, node))
        for qualified, names, bound, node in functions:
            args = node.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            for i, arg in enumerate(positional[first:], start=first):
                out.append((f"{qualified}.{arg.arg}", names, arg.arg, i - bound))
            out.extend((f"{qualified}.{arg.arg}", names, arg.arg, None)
                       for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                       if default is not None)
    return out


def _constant_parameters():
    """The defaulted parameters that no call in ``src`` passes.  A call
    passes the keywords it names (``**kwargs`` passes every one) and its
    first positions (``*args`` passes every one)."""
    keywords, positions = {}, {}
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                keywords.setdefault(name, set()).update(kw.arg for kw in node.keywords)
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                positions[name] = max(positions.get(name, 0),
                                      float("inf") if starred else len(node.args))
    return {qualified for qualified, names, arg, position in _defaulted_parameters()
            if not any(arg in keywords.get(n, ()) or None in keywords.get(n, ())
                       or (position is not None and positions.get(n, 0) > position)
                       for n in names)}


def test_every_parameter_default_is_overridden_by_a_call():
    constant = sorted(_constant_parameters() - CONSTANT_EXEMPT.keys())
    assert not constant, (f"no call in src passes {constant}: make each a constant "
                          "in the function body")


def test_parameter_exemptions_are_defaulted_and_never_passed():
    assert CONSTANT_EXEMPT.keys() <= _constant_parameters()


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


#: Nodes that open a scope of their own.
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _own_nodes(scope):
    """The nodes of a function outside the functions, lambdas and classes
    nested in it."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def _unused_locals(tree):
    """(line, function, name) for each name a function binds (an
    assignment, loop or ``with`` target, comprehension variable or
    ``except ... as``) that no code in it, nested functions included,
    reads.  Names starting with ``_`` and names declared ``global`` or
    ``nonlocal`` are left out."""
    out = []
    for scope in ast.walk(tree):
        if not isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        bound, declared = {}, set()
        for node in _own_nodes(scope):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                bound.setdefault(node.id, node.lineno)
            elif isinstance(node, ast.ExceptHandler) and node.name:
                bound.setdefault(node.name, node.lineno)
            elif isinstance(node, (ast.Global, ast.Nonlocal)):
                declared.update(node.names)
        read = {node.id for node in ast.walk(scope)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        out.extend((line, getattr(scope, "name", "<lambda>"), name)
                   for name, line in bound.items()
                   if name not in read and name not in declared and not name.startswith("_"))
    return sorted(out)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_locals(path):
    unused = [f"{name} in {function} (line {line})"
              for line, function, name in _unused_locals(ast.parse(path.read_text(encoding="utf-8")))]
    assert not unused, (f"{path.name} assigns locals it never reads: {unused}; "
                        "delete them, or prefix a name that must be bound with _")


def test_unused_local_guard_sees_each_binding_form():
    code = """
def f(items):
    total = 0
    for key, value in items:
        total += value
    with open(total) as handle:
        pass
    try:
        pass
    except ValueError as exc:
        pass
    squares = [k for k, v in items]
    _skipped = 1
    shared = 2

    def inner():
        nonlocal shared
        shared = 3
    return inner, shared
"""
    assert [name for _line, _function, name in _unused_locals(ast.parse(code))] == \
        ["key", "handle", "exc", "squares", "v"]


#: The functions that may validate a quantale value: the reader of values
#: from model, certificate and graph documents, and the function that
#: builds graphs from values written in code.  Everything else trusts
#: its values.
VALIDATE_BOUNDARY = {("quantale", "value_from_json"), ("vgraph", "graph_from_entries")}


def _validate_references(paths):
    """(module, qualified function, line) for each ``.validate`` reference
    (a call, or a bound method kept to call later) in ``paths``, with the
    classes and functions that enclose it."""
    out = []

    def walk(module, node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, DEFS):
                walk(module, child, scope + (child.name,))
                continue
            if isinstance(child, ast.Attribute) and child.attr == "validate":
                out.append((module, ".".join(scope), child.lineno))
            walk(module, child, scope)

    for path in paths:
        walk(path.stem, ast.parse(path.read_text(encoding="utf-8")), ())
    return out


def test_values_are_validated_only_where_they_enter():
    outside = [f"{module}.{function} (line {line})"
               for module, function, line in _validate_references(MODULES)
               if (module, function.rpartition(".")[2]) not in VALIDATE_BOUNDARY]
    assert not outside, (f"{outside} validate values inside the package: values "
                         "are checked where they enter, by value_from_json or "
                         "graph_from_entries, and trusted after that")


#: The dataclasses that may define ``__post_init__``, with the reason.
#: Every other dataclass is a trusted record: its builders in the package
#: make it right, so it checks nothing.
POST_INIT_ALLOWED = {
    ("vgraph", "Carrier"):
        "builds its position table and refuses duplicate names read from documents",
    ("distlaw", "DetCoalgebra"): "compiles the distance program",
}


def _is_dataclass(node):
    """Whether a class is decorated ``@dataclass`` or ``@dataclass(...)``."""
    decorators = [getattr(d, "func", d) for d in node.decorator_list]
    return any(getattr(d, "id", None) == "dataclass" for d in decorators)


def _post_init_dataclasses(paths):
    """(module, class) for each top-level dataclass in ``paths`` that
    defines ``__post_init__``."""
    out = set()
    for path in paths:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.ClassDef) and _is_dataclass(node) and any(
                    isinstance(item, ast.FunctionDef) and item.name == "__post_init__"
                    for item in node.body):
                out.add((path.stem, node.name))
    return out


def test_only_allowed_dataclasses_check_themselves():
    extra = sorted(f"{m}.{c}" for m, c in _post_init_dataclasses(MODULES)
                   - POST_INIT_ALLOWED.keys())
    assert not extra, (f"{extra} check themselves in __post_init__: check the input "
                       "where it enters the package and trust the record after that")


def test_post_init_allowlist_is_current():
    assert POST_INIT_ALLOWED.keys() <= _post_init_dataclasses(MODULES)


#: The fields of the term classes (``functor.ConstLeaf``, ``IdLeaf``,
#: ``Tup``, ``Inl``, ``Inr``).  Terms are slotted, not frozen, and hash
#: by their fields, so nothing may assign to one after construction.
TERM_FIELDS = {"atom", "payload", "items", "item"}


def _term_field_assignments(tree):
    """(line, field) for each assignment to an attribute named in
    ``TERM_FIELDS``: a plain, augmented, unpacking, loop or ``with``
    target, a ``del``, or a ``setattr`` or ``object.__setattr__`` call
    that names the field in a string."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, (ast.Store, ast.Del)) \
                and node.attr in TERM_FIELDS:
            out.append((node.lineno, node.attr))
        elif isinstance(node, ast.Call) and len(node.args) >= 2 \
                and (getattr(node.func, "id", None) == "setattr"
                     or getattr(node.func, "attr", None) == "__setattr__") \
                and isinstance(node.args[1], ast.Constant) and node.args[1].value in TERM_FIELDS:
            out.append((node.lineno, node.args[1].value))
    return sorted(out)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_term_field_is_assigned(path):
    found = [f"{field} (line {line})"
             for line, field in _term_field_assignments(ast.parse(path.read_text(encoding="utf-8")))]
    assert not found, (f"{path.name} assigns term fields {found}: terms are values "
                       "that hash by their fields; build a new term instead")


def test_term_field_guard_sees_each_binding_form():
    code = """
def f(t, rows):
    t.item = 1
    t.items += (2,)
    first, t.payload = rows
    for t.atom in rows:
        pass
    with open(rows) as t.item:
        pass
    del t.payload
    setattr(t, "items", ())
    object.__setattr__(t, "atom", 0)
    t.other = t.item
    setattr(t, "other", t.items)
    return first
"""
    assert _term_field_assignments(ast.parse(code)) == [
        (3, "item"), (4, "items"), (5, "payload"), (6, "atom"), (8, "item"),
        (10, "payload"), (11, "items"), (12, "atom")]
