"""Every public module-level function and class of the package has a
caller outside its own definition: in the package, the scripts, the
benchmark harness or the README's library example.  Tests do not count,
since a name only its own tests reach delivers nothing.  Every public
method of a package class is read as an attribute in the same sources,
outside its own definition.  The benchmark tracer wraps library
functions and methods by (qualified) name, so there, and only there, a
string constant names what it wraps.

The same sources must pass every defaulted parameter of a package
function somewhere, and no test module may import a name it never
reads."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "coarsehom"
TRACER = ROOT / "perfbench" / "tracer.py"

# names kept although nothing outside the tests calls them
EXEMPT = {
    "EM_object": "acceptance criterion 6: EM(G/H)_0 against the brute-force oracle",
    "burnside_marks": "acceptance criterion 6: marks are multiplicative under composition",
    "component_inclusion": "acceptance criterion 3: the homotopy-category laws",
    "component_projection": "acceptance criterion 3: the homotopy-category laws",
    "spaces_isomorphic": "the library's equality test of spaces, beside spans_isomorphic",
    "random_cospan": "the fuzz grammar's cospan draw, used by the pullback tests",
}

# defaulted parameters no call passes, kept because the benchmark tracer
# wraps their functions; they go with its next change
EXEMPT_PARAMETERS = {
    ("kernel_basis", "m"): "wrapped by the tracer",
    ("kernel_basis", "n"): "wrapped by the tracer",
    ("free_union_copies", "name"): "wrapped by the tracer",
    ("tape_free_union", "born_preset"): "wrapped by the tracer",
    ("tape_free_union", "name"): "wrapped by the tracer",
    ("EM_morphism", "maxdeg"): "wrapped by the tracer",
}


def _sources():
    """(tree, whether its string constants name what they wrap) per source."""
    paths = sorted(PACKAGE.glob("*.py"))
    paths += sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    readme = (ROOT / "README.md").read_text()
    out = [(ast.parse(p.read_text()), p == TRACER) for p in paths]
    out += [(ast.parse(block), False) for block in re.findall(r"```python\n(.*?)```", readme, re.S)]
    return out


def _wrapped(node):
    """The names in a string constant that wraps by qualified name."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value.split(".")
    return []


def _names_used(node, strings):
    """Names and attributes read anywhere under node, and the names in
    its string constants where ``strings`` holds."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif strings:
            yield from _wrapped(sub)


def _public_definitions():
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                out.append((path.name, node.name))
    return out


def _used_names():
    """Every name referenced outside its own top-level definition: a
    reference inside a name's definition (recursion, a class naming
    itself) does not count for that name."""
    used = set()
    for tree, strings in _sources():
        for top in tree.body:
            own = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
            used.update(name for name in _names_used(top, strings) if name != own)
    return used


def test_every_public_name_has_a_caller():
    used = _used_names()
    unreached = [
        f"{module}:{name}"
        for module, name in _public_definitions()
        if name not in used and name not in EXEMPT
    ]
    assert not unreached, f"public names nothing reaches: {unreached}"


def _public_methods():
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for cls in ast.parse(path.read_text()).body:
            if isinstance(cls, ast.ClassDef):
                out += [
                    (path.name, cls.name, f.name)
                    for f in cls.body
                    if isinstance(f, ast.FunctionDef) and not f.name.startswith("_")
                ]
    return out


def _attributes_read(node, strings, enclosing=()):
    """(attribute name, names of the functions around the read) for every
    attribute read under node, string-wrapped names included where
    ``strings`` holds."""
    if isinstance(node, ast.FunctionDef):
        enclosing += (node.name,)
    if isinstance(node, ast.Attribute):
        yield node.attr, enclosing
    elif strings:
        for name in _wrapped(node):
            yield name, enclosing
    for child in ast.iter_child_nodes(node):
        yield from _attributes_read(child, strings, enclosing)


def test_every_public_method_is_read():
    """A read inside a function of the method's own name (its definition,
    or a recursive call) does not count."""
    read = {
        name
        for tree, strings in _sources()
        for name, enclosing in _attributes_read(tree, strings)
        if name not in enclosing
    }
    unread = [f"{m}:{cls}.{name}" for m, cls, name in _public_methods() if name not in read]
    assert not unread, f"public methods nothing reads: {unread}"


def test_exemptions_are_still_needed():
    defined = {name for _module, name in _public_definitions()}
    assert set(EXEMPT) <= defined
    assert not set(EXEMPT) & _used_names()


def _defaulted_parameters():
    """(function, parameter, position) for every parameter with a default
    of a package function or method.  A method's position does not count
    self, and ``__init__`` is called through its class's name; a
    keyword-only parameter has position None."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {
            id(f): cls.name
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef)
            for f in cls.body
            if isinstance(f, ast.FunctionDef)
        }
        for f in ast.walk(tree):
            if not isinstance(f, ast.FunctionDef):
                continue
            method = id(f) in owner
            name = owner[id(f)] if method and f.name == "__init__" else f.name
            params = f.args.posonlyargs + f.args.args
            first = len(params) - len(f.args.defaults)
            for k in range(first, len(params)):
                out.append((name, params[k].arg, k - method))
            for p, default in zip(f.args.kwonlyargs, f.args.kw_defaults):
                if default is not None:
                    out.append((name, p.arg, None))
    return out


def _passed_parameters():
    """Per called name: the most positional arguments any call passes
    (unbounded with a starred argument), and the keywords it passes
    (``**`` for a double-starred one)."""
    positional, keywords = {}, {}
    for tree, _strings in _sources():
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            starred = any(isinstance(a, ast.Starred) for a in call.args)
            positional[name] = max(positional.get(name, 0), float("inf") if starred else len(call.args))
            keywords.setdefault(name, set()).update(k.arg or "**" for k in call.keywords)
    return positional, keywords


def _unpassed_parameters():
    positional, keywords = _passed_parameters()
    return [
        (function, param)
        for function, param, pos in _defaulted_parameters()
        if function not in EXEMPT
        and not ({param, "**"} & keywords.get(function, set()))
        and not (pos is not None and positional.get(function, 0) > pos)
    ]


def test_every_defaulted_parameter_is_passed():
    unpassed = [p for p in _unpassed_parameters() if p not in EXEMPT_PARAMETERS]
    assert not unpassed, f"defaulted parameters no call passes: {unpassed}"


def test_parameter_exemptions_are_still_needed():
    assert set(EXEMPT_PARAMETERS) <= set(_unpassed_parameters())


def test_test_modules_read_every_name_they_import():
    unused = {}
    for path in sorted((ROOT / "tests").glob("test_*.py")):
        tree = ast.parse(path.read_text())
        imported = {
            alias.asname or alias.name.split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        }
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        if imported - read:
            unused[path.name] = sorted(imported - read)
    assert not unused, f"imported and never read: {unused}"
