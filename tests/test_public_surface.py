"""Every public name, constant and class member of the package has a reader in
the package.

A name in a module's ``__all__``, and a public upper-case module-level
constant, must be used somewhere in ``src/quiverflow`` outside its own
definition: in its own module, or in a module that imports it.  A public
method or property of a class in an ``__all__`` must be read as an attribute
of that name somewhere in the package outside its own definition; the scan
goes by name, not by type.  Re-exports, ``__all__`` entries, docstrings and
comments do not count, so the scan reads the syntax tree, not the text.

Each public name has one home, its module: the package itself re-exports
nothing, so importing it loads no submodule.  An experiment's modules are
loaded by ``runconfig.build_model``, from the ``runconfig.EXPERIMENTS``
table, and by nothing at import: a retract setup loads no flow code, and
``run_experiment`` loads no module that the build did not.
"""

import ast
import json
import os
import pathlib
import subprocess
import sys
from collections import Counter

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "quiverflow"

# public names that need no caller in the package, each with its reason
EXEMPT_MODULES = {
    "presets": "models and seeds that tests and users build from",
}
EXEMPT_NAMES = {
    "search_critical_levels": "exploratory scan that the HN-type enumeration will replace",
}
_SCENE_CONSTRUCTION = "the paper's region Y and collapse map, which acceptance 9 checks"
EXEMPT_MEMBERS = {f"SaddleScene.{name}": _SCENE_CONSTRUCTION
                  for name in ("in_Y", "in_E", "in_E_closure", "retract_R")}


def _attribute_reads(node):
    return Counter(sub.attr for sub in ast.walk(node)
                   if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load))


class _Module:
    """One module's ``__all__``, its public upper-case constants, the public
    methods of its public classes, the names it imports from the package, the
    names it reads per top-level statement and the attributes it reads."""

    def __init__(self, path):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        self.public, self.constants, self.reads = [], [], []
        for node in tree.body:
            if (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and getattr(node.targets[0], "id", None) == "__all__"):
                self.public = [elt.value for elt in node.value.elts]
            defines = ({node.name} if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                       else {getattr(t, "id", None) for t in getattr(node, "targets", ())})
            self.constants += [name for name in defines if isinstance(node, ast.Assign)
                               and name and name.isupper() and not name.startswith("_")]
            self.reads.append((defines, {sub.id for sub in ast.walk(node)
                                         if isinstance(sub, ast.Name)
                                         and isinstance(sub.ctx, ast.Load)}))
        self.imports = {alias.asname or alias.name for node in ast.walk(tree)
                        if isinstance(node, ast.ImportFrom) and node.level >= 1
                        for alias in node.names}
        self.members = [(f"{cls.name}.{fn.name}", fn) for cls in tree.body
                        if isinstance(cls, ast.ClassDef) and cls.name in self.public
                        for fn in cls.body if isinstance(fn, ast.FunctionDef)
                        and not fn.name.startswith("_")]
        self.attribute_reads = _attribute_reads(tree)

    def reads_outside_its_definition(self, name):
        return any(name in names for defines, names in self.reads if name not in defines)


def unreferenced_public_names(exempt=EXEMPT_NAMES, kind="public"):
    """Qualified names of a kind (``public`` or ``constants``) with no reader."""
    modules = {p.stem: _Module(p) for p in sorted(PACKAGE.glob("*.py"))}
    missing = []
    for mod, home in modules.items():
        if mod in EXEMPT_MODULES:
            continue
        for name in getattr(home, kind):
            users = [home] + [m for m in modules.values() if name in m.imports]
            if name not in exempt and not any(m.reads_outside_its_definition(name)
                                              for m in users):
                missing.append(f"{mod}.{name}")
    return missing


def unread_public_members(exempt=EXEMPT_MEMBERS):
    """Qualified ``module.Class.member`` names of public methods and properties
    that the package never reads as an attribute outside their definition."""
    modules = {p.stem: _Module(p) for p in sorted(PACKAGE.glob("*.py"))}
    reads = sum((m.attribute_reads for m in modules.values()), Counter())
    return [f"{mod}.{qual}" for mod, home in modules.items() if mod not in EXEMPT_MODULES
            for qual, fn in home.members
            if qual not in exempt and reads[fn.name] == _attribute_reads(fn)[fn.name]]


def test_every_public_name_has_a_caller_in_the_package():
    assert unreferenced_public_names() == []


def test_each_exempt_name_has_no_caller():
    # an exemption that a caller has made unneeded is dropped
    unused = {qual.split(".")[1] for qual in unreferenced_public_names(exempt=())}
    assert unused == set(EXEMPT_NAMES)


def test_every_public_constant_is_read_in_the_package():
    assert unreferenced_public_names(exempt=(), kind="constants") == []


def test_every_public_class_member_is_read_in_the_package():
    assert unread_public_members() == []


def test_each_exempt_member_has_no_reader():
    # an exemption that a reader has made unneeded is dropped
    unread = {qual.split(".", 1)[1] for qual in unread_public_members(exempt=())}
    assert unread == set(EXEMPT_MEMBERS)


_LOADED = "sorted(m for m in sys.modules if m.startswith('quiverflow.'))"


def _fresh_python(code):
    """The JSON that ``code`` prints last, run in a fresh interpreter on the source tree."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(PACKAGE.parent),
                                                       os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], check=True, env=env,
                         capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


def test_the_package_defines_only_its_version_and_loads_no_submodule():
    submodules, names, version = _fresh_python(
        "import json, sys, quiverflow; print(json.dumps(["
        f"{_LOADED}, "
        "sorted(n for n in vars(quiverflow) if n[:2] != '__' or n[-2:] != '__'), "
        "quiverflow.__version__]))")
    assert (submodules, names) == ([], [])
    assert version


def test_a_retract_setup_loads_only_the_census_modules():
    # runconfig imported flow, moment and quiver, and runner every experiment module
    path = str(PACKAGE / "configs" / "slit_retract.json")
    loaded = _fresh_python(
        "import json, sys\n"
        "from quiverflow import runconfig, runner\n"
        f"runconfig.build_model(runconfig.load_config({path!r}))\n"
        f"print(json.dumps({_LOADED}))")
    assert loaded == [f"quiverflow.{m}"
                      for m in ("archive", "errors", "retract", "runconfig", "runner")]


@pytest.mark.parametrize("name", sorted(p.name for p in (PACKAGE / "configs").glob("*.json")))
def test_a_run_loads_no_module_that_the_build_did_not(tmp_path, name):
    path = str(PACKAGE / "configs" / name)
    built, ran = _fresh_python(
        "import json, sys\n"
        "from quiverflow import runconfig, runner\n"
        f"model = runconfig.build_model(runconfig.load_config({path!r}))\n"
        f"built = {_LOADED}\n"
        f"runner.run_experiment(model, {str(tmp_path)!r})\n"
        f"print(json.dumps([built, {_LOADED}]))")
    assert ran == built
