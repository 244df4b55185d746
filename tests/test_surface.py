"""Every public module-level function and class of the package has a
caller outside its own definition: in the package, the scripts, the
benchmark harness or the README's library example.  Tests do not count,
since a name only its own tests reach delivers nothing.  The benchmark
tracer wraps library functions by name, so a string constant equal to a
name counts as a reference."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "coarsehom"

# names kept although nothing outside the tests calls them
EXEMPT = {
    "EM_object": "acceptance criterion 6: EM(G/H)_0 against the brute-force oracle",
    "burnside_marks": "acceptance criterion 6: marks are multiplicative under composition",
    "component_inclusion": "acceptance criterion 3: the homotopy-category laws",
    "component_projection": "acceptance criterion 3: the homotopy-category laws",
    "spaces_isomorphic": "the library's equality test of spaces, beside spans_isomorphic",
    "random_cospan": "the fuzz grammar's cospan draw, used by the pullback tests",
}


def _sources():
    paths = sorted(PACKAGE.glob("*.py"))
    paths += sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    readme = (ROOT / "README.md").read_text()
    sources = [p.read_text() for p in paths] + re.findall(r"```python\n(.*?)```", readme, re.S)
    return [ast.parse(source) for source in sources]


def _names_used(node):
    """Names, attributes and string constants read anywhere under node."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            yield sub.value


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
    for tree in _sources():
        for top in tree.body:
            own = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
            used.update(name for name in _names_used(top) if name != own)
    return used


def test_every_public_name_has_a_caller():
    used = _used_names()
    unreached = [
        f"{module}:{name}"
        for module, name in _public_definitions()
        if name not in used and name not in EXEMPT
    ]
    assert not unreached, f"public names nothing reaches: {unreached}"


def test_exemptions_are_still_needed():
    defined = {name for _module, name in _public_definitions()}
    assert set(EXEMPT) <= defined
    assert not set(EXEMPT) & _used_names()
