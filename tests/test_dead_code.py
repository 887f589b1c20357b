"""Code that only tests call gets deleted: every public module-level function
and every public method of a module-level class in src/fedtte is referenced
from src/ or scripts/ outside its own body."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fedtte"

# Public functions kept although nothing in src/ or scripts/ calls them.
ALLOWED = {
    "data.load_trajectories": "ingestion API for external trajectory data",
    "graph.load_network": "ingestion API for external road networks",
    "nn.check_gradients": "the finite-difference oracle that certifies every analytic backward pass",
    "nn.serialize_params": "the upload and checkpoint wire format that params_digest and save_params stream; the benchmark sizes uploads with it",
}


def _referenced_names(path):
    """Names used in a file (names, attributes, imports), each top-level
    function's and method's own body excluded for its own name."""
    names = set()

    def visit(node, own):
        if isinstance(node, ast.FunctionDef):
            own = own | {node.name}
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name
        else:
            name = None
        if name is not None and name not in own:
            names.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, own)

    for top in ast.parse(path.read_text(encoding="utf-8")).body:
        visit(top, frozenset())
    return names


def _public_defs(path):
    """(qualified name, name) of the module's public functions and of the
    public methods of its classes."""
    for top in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(top, ast.FunctionDef):
            defs = [(f"{path.stem}.{top.name}", top.name)]
        elif isinstance(top, ast.ClassDef):
            defs = [(f"{path.stem}.{top.name}.{item.name}", item.name) for item in top.body if isinstance(item, ast.FunctionDef)]
        else:
            defs = []
        yield from ((qualname, name) for qualname, name in defs if not name.startswith("_"))


def test_every_public_function_has_a_caller_outside_tests():
    sources = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
    used = set().union(*(_referenced_names(path) for path in sources))
    unused = [
        qualname
        for path in sorted(PACKAGE.glob("*.py"))
        for qualname, name in _public_defs(path)
        if name not in used and qualname not in ALLOWED
    ]
    assert unused == [], f"public functions or methods only tests call (delete them, or allow them with a reason): {unused}"


def test_allowlist_names_existing_functions():
    for qualname in ALLOWED:
        module = qualname.split(".")[0]
        assert qualname in dict(_public_defs(PACKAGE / f"{module}.py")), qualname
