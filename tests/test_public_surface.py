"""Every public name, constant, class member, option and field of the package
has a user in the package.

A name in a module's ``__all__``, and a public upper-case module-level
constant, must be used somewhere in ``src/quiverflow`` outside its own
definition: in its own module, or in a module that imports it.  A public
method or property of a class in an ``__all__`` must be read as an attribute
of that name somewhere in the package outside its own definition; the scan
goes by name, not by type.  Re-exports, ``__all__`` entries, docstrings and
comments do not count, so the scan reads the syntax tree, not the text.

What a caller can set or read is held to the same rule.  Each defaulted
parameter of a public function, or of the ``__init__``, a static method or a
public method of a public class, is passed, by keyword or by position, by
some call in the package: module functions, constructors and static methods
are matched by qualified name, instance methods by attribute name.  Each
static method of a public class is read as ``Class.member``, and each
annotated field of a public dataclass or ``NamedTuple`` is read as an
attribute, somewhere in the package.

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
# defaulted parameters that no call in the package passes, each with its reason
EXEMPT_OPTIONS = {
    "cli.main(argv)": "the entry point: the console script passes nothing, tests pass argv",
    "runner.run_experiment(threads)": "passed only by perfbench/worker.py (ROADMAP item 1)",
}


def _attribute_reads(node):
    return Counter(sub.attr for sub in ast.walk(node)
                   if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load))


def _is_static(fn):
    return any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)


def _defaulted(fn, bound):
    """(name, position) of each defaulted parameter of ``fn``, counting positions
    after the ``bound`` leading ones (self); a keyword-only one has position None."""
    positional = fn.args.posonlyargs + fn.args.args
    first = len(positional) - len(fn.args.defaults)
    return ([(a.arg, i - bound) for i, a in enumerate(positional) if i >= first]
            + [(a.arg, None) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
               if d is not None])


def _passes(call, name, position):
    if any(kw.arg in (name, None) for kw in call.keywords):
        return True
    return position is not None and (
        len(call.args) > position
        or any(isinstance(a, ast.Starred) for a in call.args[:position + 1]))


class _Module:
    """One module's ``__all__``, its public upper-case constants, the public
    methods, static methods and fields of its public classes, the signatures
    with defaulted parameters, the names it imports from the package, the
    names it reads per top-level statement, the attributes it reads and the
    calls it makes."""

    def __init__(self, path):
        self.stem = path.stem
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
        self.sources = {alias.asname or alias.name: node.module for node in ast.walk(tree)
                        if isinstance(node, ast.ImportFrom) and node.level >= 1
                        for alias in node.names}
        self.imports = set(self.sources)
        self.members = [(f"{cls.name}.{fn.name}", fn) for cls in tree.body
                        if isinstance(cls, ast.ClassDef) and cls.name in self.public
                        for fn in cls.body if isinstance(fn, ast.FunctionDef)
                        and not fn.name.startswith("_")]
        self.attribute_reads = _attribute_reads(tree)
        self.class_reads = {(sub.value.id, sub.attr) for sub in ast.walk(tree)
                            if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)
                            and isinstance(sub.value, ast.Name)}
        self.calls = [sub for sub in ast.walk(tree) if isinstance(sub, ast.Call)]
        self.defined = {node.name for node in tree.body
                        if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        public = [node for node in tree.body if getattr(node, "name", None) in self.public
                  and node.name not in EXEMPT_NAMES]
        classes = [cls for cls in public if isinstance(cls, ast.ClassDef)]
        self.statics = [f"{cls.name}.{fn.name}" for cls in classes for fn in cls.body
                        if isinstance(fn, ast.FunctionDef) and _is_static(fn)]
        self.fields = [f"{cls.name}.{node.target.id}" for cls in classes
                       if any("dataclass" in ast.unparse(d) for d in cls.decorator_list)
                       or any(getattr(b, "id", None) == "NamedTuple" for b in cls.bases)
                       for node in cls.body if isinstance(node, ast.AnnAssign)]
        # (reported name, definition, callee, number of leading bound parameters)
        self.signatures = [(fn.name, fn, f"{self.stem}.{fn.name}", 0)
                           for fn in public if isinstance(fn, ast.FunctionDef)]
        for cls in classes:
            for fn in cls.body:
                if not isinstance(fn, ast.FunctionDef):
                    continue
                if fn.name == "__init__":
                    self.signatures.append((cls.name, fn, f"{self.stem}.{cls.name}", 1))
                elif _is_static(fn):
                    self.signatures.append((f"{cls.name}.{fn.name}", fn,
                                            f"{cls.name}.{fn.name}", 0))
                elif not fn.name.startswith("_"):
                    self.signatures.append((f"{cls.name}.{fn.name}", fn, f".{fn.name}", 1))

    def callees(self, func):
        """What a call to ``func`` is matched by: ``.member`` for any attribute,
        and its qualified name ``module.function``, ``module.Class`` or
        ``Class.member`` when it has one."""
        if isinstance(func, ast.Name):
            home = self.stem if func.id in self.defined else self.sources.get(func.id)
            return [f"{home}.{func.id}"] if home else []
        if isinstance(func, ast.Attribute):
            qualified = [f"{func.value.id}.{func.attr}"] if isinstance(func.value, ast.Name) else []
            return [f".{func.attr}"] + qualified
        return []

    def reads_outside_its_definition(self, name):
        return any(name in names for defines, names in self.reads if name not in defines)


def _modules():
    return {p.stem: _Module(p) for p in sorted(PACKAGE.glob("*.py"))}


def unreferenced_public_names(exempt=EXEMPT_NAMES, kind="public"):
    """Qualified names of a kind (``public`` or ``constants``) with no reader."""
    modules = _modules()
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
    modules = _modules()
    reads = sum((m.attribute_reads for m in modules.values()), Counter())
    return [f"{mod}.{qual}" for mod, home in modules.items() if mod not in EXEMPT_MODULES
            for qual, fn in home.members
            if qual not in exempt and reads[fn.name] == _attribute_reads(fn)[fn.name]]


def unpassed_options(exempt=EXEMPT_OPTIONS):
    """``module.function(parameter)`` for each defaulted parameter that no call in
    the package passes; instance methods are matched by attribute name."""
    modules = _modules()
    calls = {}
    for home in modules.values():
        for call in home.calls:
            for callee in home.callees(call.func):
                calls.setdefault(callee, []).append(call)
    missing = []
    for mod, home in modules.items():
        if mod in EXEMPT_MODULES:
            continue
        for qual, fn, callee, bound in home.signatures:
            missing += [f"{mod}.{qual}({name})" for name, position in _defaulted(fn, bound)
                        if not any(_passes(call, name, position)
                                   for call in calls.get(callee, ()))]
    return [option for option in missing if option not in exempt]


def uncalled_static_members(exempt=EXEMPT_MEMBERS):
    """``module.Class.member`` for each static method of a public class that the
    package never reads as ``Class.member``."""
    modules = _modules()
    reads = set().union(*(m.class_reads for m in modules.values()))
    return [f"{mod}.{qual}" for mod, home in modules.items() if mod not in EXEMPT_MODULES
            for qual in home.statics
            if qual not in exempt and tuple(qual.split(".")) not in reads]


def unread_fields(exempt=EXEMPT_MEMBERS):
    """``module.Class.field`` for each field of a public dataclass or NamedTuple
    that the package never reads as an attribute."""
    modules = _modules()
    reads = sum((m.attribute_reads for m in modules.values()), Counter())
    return [f"{mod}.{qual}" for mod, home in modules.items() if mod not in EXEMPT_MODULES
            for qual in home.fields if qual not in exempt and not reads[qual.split(".")[1]]]


def _exempt_members_of_kind(kind):
    return set(EXEMPT_MEMBERS) & {qual for m in _modules().values() for qual in getattr(m, kind)}


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


def test_every_option_is_passed_in_the_package():
    assert unpassed_options() == []


def test_each_exempt_option_is_not_passed():
    # an exemption that a caller has made unneeded is dropped
    assert set(unpassed_options(exempt=())) == set(EXEMPT_OPTIONS)


def test_every_static_member_is_read_as_a_class_attribute():
    assert uncalled_static_members() == []


def test_each_exempt_static_member_is_not_read():
    unread = {qual.split(".", 1)[1] for qual in uncalled_static_members(exempt=())}
    assert unread == _exempt_members_of_kind("statics")


def test_every_field_is_read_in_the_package():
    assert unread_fields() == []


def test_each_exempt_field_is_not_read():
    unread = {qual.split(".", 1)[1] for qual in unread_fields(exempt=())}
    assert unread == _exempt_members_of_kind("fields")


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
