import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from jsonschema import Draft202012Validator

MODULES = ["sym3", "kernels", "cloud", "reflections", "effective", "fields", "cli"]


@pytest.mark.parametrize("name", MODULES)
def test_public_names_resolve(name):
    module = importlib.import_module(f"refstokes.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing


# relative imports each module may make; a module missing here fails the test
LAYERS = {
    "sym3": set(),
    "errors": set(),
    "kernels": {"sym3", "errors"},
    "fields": {"kernels"},
    "cloud": {"kernels", "errors"},
    "reflections": {"kernels", "cloud", "errors", "sym3"},
    "effective": {"kernels", "cloud", "errors", "fields", "sym3"},
    "cli": {"sym3", "errors", "fields", "kernels", "cloud", "reflections", "effective"},
}


def relative_imports(path):
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                found.add(node.module.split(".")[0])
            else:
                found.update(alias.name for alias in node.names)
    return found


def test_import_layering():
    package = Path(importlib.import_module("refstokes").__file__).parent
    modules = {p.stem: p for p in package.glob("*.py") if p.stem != "__init__"}
    assert set(modules) == set(LAYERS)
    for name, path in modules.items():
        extra = relative_imports(path) - LAYERS[name]
        assert not extra, f"{name} imports {sorted(extra)}"


def test_pair_budget_read_only_in_kernels():
    # one chunk policy: every other module takes its blocks from kernels.row_blocks
    # or kernels.pair_blocks
    package = Path(importlib.import_module("refstokes").__file__).parent
    readers = {path.stem for path in package.glob("*.py")
               for node in ast.walk(ast.parse(path.read_text()))
               if (isinstance(node, ast.Name) and node.id == "PAIR_BUDGET")
               or (isinstance(node, ast.Attribute) and node.attr == "PAIR_BUDGET")}
    assert readers == {"kernels"}


def test_package_namespace_imports_nothing():
    # names are imported from their modules; the package holds only __version__
    init = Path(importlib.import_module("refstokes").__file__)
    tree = ast.parse(init.read_text())
    assert not [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]


def test_cli_leaves_out_scipy(tmp_path):
    # numpy is the one numerical dependency: no verb loads scipy, `validate`
    # and its self-check battery included. jsonschema only explains a rejected
    # document, so no verb loads it on valid inputs. Every module a run pays
    # for counts in its wall time.
    src = str(Path(importlib.import_module("refstokes").__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "seed": 1, "strain": [1.0, 0.0, 0.0, 0.0, 0.0],
        "cloud": {"kind": "lattice", "box": [[0, 0, 0], [1, 1, 1]], "n_per_axis": 2, "a": 0.02},
        "grid": {"n": 8, "padding": 0.5}, "sweep": {"phis": [1e-3]}}))
    cloud = str(tmp_path / "cloud.json")
    argv = [["generate", "--config", str(config), "--out", cloud],
            ["reflect", "--config", str(config), "--cloud", cloud,
             "--out", str(tmp_path / "s.json"), "--oracle"],
            ["einstein", "--config", str(config), "--out", str(tmp_path / "e.csv")],
            ["compare", "--config", str(config), "--out", str(tmp_path / "r.json")]]
    code = f"""
import contextlib, io, sys
from refstokes import cli
def loaded(package):
    return sorted(m for m in sys.modules if m.split('.')[0] == package)
def run(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)
print(loaded('scipy'), loaded('jsonschema'))
print([run(a) for a in {argv!r}], loaded('scipy'), loaded('jsonschema'))
print(run(['validate', '--cloud', {cloud!r}]), loaded('scipy'), loaded('jsonschema'))
"""
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.splitlines() == ["[] []", "[0, 0, 0, 0] [] []", "0 [] []"]


def absolute_imports(path):
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.add(node.module.split(".")[0])
    return found


def test_file_formats_stay_at_the_cli_boundary():
    # cli reads and writes every file; cloud keeps the JSON codec bench/ uses
    package = Path(importlib.import_module("refstokes").__file__).parent
    imports = {p.stem: absolute_imports(p) for p in package.glob("*.py")}
    assert {name for name, found in imports.items() if "json" in found} == {"cli", "cloud"}
    assert {name for name, found in imports.items() if "csv" in found} == {"cli"}


def test_schema_files_are_valid_schemas():
    schemas = Path(importlib.import_module("refstokes").__file__).parent / "schemas"
    paths = sorted(schemas.glob("*.json"))
    assert len(paths) == 4
    for path in paths:
        Draft202012Validator.check_schema(json.loads(path.read_text()))
