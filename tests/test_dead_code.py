"""Code that only tests call gets deleted: every public module-level function
in src/fedtte is referenced from src/ or scripts/ outside its own body."""

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
    function's own body excluded for its own name."""
    names = set()
    for top in ast.parse(path.read_text(encoding="utf-8")).body:
        own = top.name if isinstance(top, ast.FunctionDef) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name
            else:
                continue
            if name != own:
                names.add(name)
    return names


def test_every_public_function_has_a_caller_outside_tests():
    sources = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
    used = set().union(*(_referenced_names(path) for path in sources))
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            qualname = f"{path.stem}.{top.name}" if isinstance(top, ast.FunctionDef) else None
            if qualname and not top.name.startswith("_") and top.name not in used and qualname not in ALLOWED:
                unused.append(qualname)
    assert unused == [], f"public functions only tests call (delete them, or allow them with a reason): {unused}"


def test_allowlist_names_existing_functions():
    for qualname in ALLOWED:
        module, name = qualname.split(".")
        tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
        assert any(isinstance(top, ast.FunctionDef) and top.name == name for top in tree.body), qualname
