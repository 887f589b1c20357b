"""Code that only tests call gets deleted: every public module-level function
and every public method of a module-level class in src/fedtte is referenced
from src/ or scripts/ outside its own body, and every dataclass field there is
read by name or written out with the whole record by dataclasses.asdict.
Modules import each other at module level, so the import graph reads off
the top of each file."""

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

# Dataclass fields kept although nothing in src/ or scripts/ reads them.
ALLOWED_FIELDS = {
    "ExperimentResult.eval_trajectories": "acceptance test_c03 reads the held-out trips from the result",
    "AttackReport.revealed": "the attack's result record: the edges it ranked",
    "AttackReport.truth": "the attack's result record: the edges it should have found",
}

# Dataclasses whose every field is read by dataclasses.asdict when written out.
SERIALIZED = {
    "RoundRecord": "every field is a round_log.jsonl key: run_experiment writes dataclasses.asdict(record)",
}

# Functions that import a fedtte module in their body.
LOCAL_IMPORTS = {
    "federated.FederatedConfig.dp_upload": "privacy's attack imports federated, so federated imports privacy's mechanism where it noises",
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


def _read_names(path):
    """Names read in a file as an attribute or spelled as a string constant
    (such as the profile fields model._PERSONAL_TABLES reads by name)."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def _dataclass_fields(path):
    """(qualified name, name) of the fields of the module's dataclasses."""
    for top in ast.parse(path.read_text(encoding="utf-8")).body:
        decorators = [d.func if isinstance(d, ast.Call) else d for d in getattr(top, "decorator_list", [])]
        if isinstance(top, ast.ClassDef) and any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators):
            for item in top.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    yield f"{top.name}.{item.target.id}", item.target.id


def test_every_dataclass_field_is_read_outside_tests():
    sources = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
    read = set().union(*(_read_names(path) for path in sources))
    unread = [
        qualname
        for path in sorted(PACKAGE.glob("*.py"))
        for qualname, name in _dataclass_fields(path)
        if name not in read and qualname not in ALLOWED_FIELDS and qualname.split(".")[0] not in SERIALIZED
    ]
    assert unread == [], f"dataclass fields nothing reads outside tests (delete them, or allow them with a reason): {unread}"


def test_field_allowlist_names_existing_fields():
    fields = {qualname for path in sorted(PACKAGE.glob("*.py")) for qualname, _ in _dataclass_fields(path)}
    assert set(ALLOWED_FIELDS) <= fields
    assert set(SERIALIZED) <= {qualname.split(".")[0] for qualname in fields}


def _imports_fedtte(node):
    if isinstance(node, ast.ImportFrom):
        return node.level > 0 or (node.module or "").split(".")[0] == "fedtte"
    return isinstance(node, ast.Import) and any(alias.name.split(".")[0] == "fedtte" for alias in node.names)


def _function_level_fedtte_imports(path):
    """Qualified names of the functions and methods of the module whose
    bodies import a fedtte module, once per such import."""
    found = []

    def visit(node, scope, in_function):
        if in_function and _imports_fedtte(node):
            found.append(".".join([path.stem, *scope]))
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, [*scope, child.name], in_function or not isinstance(child, ast.ClassDef))
            else:
                visit(child, scope, in_function)

    visit(ast.parse(path.read_text(encoding="utf-8")), [], False)
    return found


def test_fedtte_modules_are_imported_at_module_level():
    found = sorted(qualname for path in sorted(PACKAGE.glob("*.py")) for qualname in _function_level_fedtte_imports(path))
    assert found == sorted(LOCAL_IMPORTS), f"fedtte imports inside functions (move them to the module's imports, or allow them with a reason): {found}"
