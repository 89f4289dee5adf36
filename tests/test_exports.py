"""Every name the package and its public modules export in ``__all__`` resolves,
the package re-exports only names its submodules export, no source file
imports a name it never reads, every private top-level function or class
of the package is referenced outside its own definition, every plan
field carries a schema bound unless it is a listed structured field, some
code outside the schema reads every bounded plan field, no dataclass field
is left out of comparison, only the ops that share one
backward computation across their inputs record on the tape without
``tensor._record``, and only a ``Run`` takes a checkpoint directory."""
import ast
import dataclasses
import importlib
import pkgutil
from pathlib import Path

import distillforge
from distillforge._schema import setting
from distillforge.data import GeneratorParams
from distillforge.losses import DistillConfig
from distillforge.nets import NetworkSpec
from distillforge.pipeline import ExperimentPlan, StagePlan, TaskPlan

ROOT = Path(__file__).resolve().parents[1]


def test_every_exported_name_resolves():
    modules = [distillforge] + [importlib.import_module(f"distillforge.{info.name}")
                                for info in pkgutil.iter_modules(distillforge.__path__)
                                if not info.name.startswith("_")]
    assert len(modules) > 8
    for module in modules:
        exported = module.__all__
        assert len(set(exported)) == len(exported), module.__name__
        missing = [name for name in exported if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)


def test_package_reexports_only_submodule_exports():
    # a name a submodule stops exporting cannot linger as a package re-export
    for name in distillforge.__all__:
        if name == "__version__":
            continue
        module = importlib.import_module(getattr(distillforge, name).__module__)
        assert name in module.__all__, (name, module.__name__)


def _unread_imports(source: str) -> list[str]:
    """Names a module imports but never reads; a name in ``__all__`` counts as read."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:  # `import a.b` binds `a`
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update({alias.asname or alias.name: node.lineno for alias in node.names})
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read]


def test_no_module_imports_a_name_it_never_reads():
    files = [path for folder in ("src/distillforge", "tests", "demos")
             for path in sorted((ROOT / folder).glob("*.py"))]
    assert len(files) > 20
    unread = {str(path.relative_to(ROOT)): names for path in files
              if (names := _unread_imports(path.read_text(encoding="utf-8")))}
    assert not unread, unread


def test_unread_import_check_sees_stale_and_exported_names():
    source = ("from __future__ import annotations\n"
              "import os.path\nfrom x import a, b as c, d\n__all__ = ['d']\nos.sep\nc()\n")
    assert _unread_imports(source) == ["a (line 3)"]


def _referenced_name(node: ast.AST) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _unreferenced_private_defs(sources: dict[str, str]) -> list[str]:
    """``path: name`` of each private top-level function or class of a source under
    ``src/`` that no top-level statement of any source but its own definition
    references, as a name, an attribute, an imported name or a string
    (``monkeypatch.setattr(module, "_name", ...)``)."""
    defs, statements = [], []
    for path, source in sources.items():
        for stmt in ast.parse(source).body:
            statements.append((stmt, {_referenced_name(node) for node in ast.walk(stmt)}))
            if (isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and path.startswith("src/")
                    and stmt.name.startswith("_") and not stmt.name.startswith("__")):
                defs.append((path, stmt))
    return [f"{path}: {stmt.name}" for path, stmt in defs
            if not any(stmt.name in names for other, names in statements if other is not stmt)]


def test_every_private_definition_has_a_reference():
    # a branch with no caller goes: a private helper that nothing reads is dead
    files = [path for folder in ("src/distillforge", "tests", "demos")
             for path in sorted((ROOT / folder).glob("*.py"))]
    sources = {str(path.relative_to(ROOT)): path.read_text(encoding="utf-8") for path in files}
    assert sum(path.startswith("src/") for path in sources) > 8
    assert not _unreferenced_private_defs(sources)


def test_unreferenced_private_check_sees_dead_definitions():
    sources = {"src/m.py": ("def _dead():\n    return _dead()\n\ndef _called():\n    pass\n\n"
                            "class _Patched:\n    pass\n\ndef _imported():\n    pass\n\n"
                            "def public():\n    _called()\n\ndef __getattr__(name):\n    pass\n"),
               "tests/t.py": "from m import _imported\nsetattr(m, '_Patched', None)\n_imported()\n",
               "tests/u.py": "def _test_helper():\n    pass\n"}
    assert _unreferenced_private_defs(sources) == ["src/m.py: _dead"]


def _tape_recorders(source: str) -> set[str]:
    """Names of the top-level statements of ``source`` (a function's or class's
    name, else ``line <n>``) that call ``_maybe_record``."""
    return {getattr(stmt, "name", f"line {stmt.lineno}") for stmt in ast.parse(source).body
            if any(isinstance(node, ast.Call) and _referenced_name(node.func) == "_maybe_record"
                   for node in ast.walk(stmt))}


def test_only_shared_backward_ops_record_without_the_helper():
    # every other op states one gradient rule per input and records through _record;
    # affine and triplet_hinge compute one backward for all of their inputs
    source = (ROOT / "src/distillforge/tensor.py").read_text(encoding="utf-8")
    assert _tape_recorders(source) == {"_record", "affine", "triplet_hinge"}


def test_tape_recorder_scan_sees_every_call_site():
    source = ("def op(a):\n    def backward_fn(g):\n        pass\n"
              "    return _maybe_record(a, (a,), backward_fn)\n\n"
              "class C:\n    def m(self):\n        tc._maybe_record(self, (), None)\n\n"
              "f = lambda a: _maybe_record(a, (a,), None)\n\n"
              "def _maybe_record(out, inputs, fn):\n    return out\n")
    assert _tape_recorders(source) == {"op", "C", "line 10"}


def _uncompared_fields(source: str) -> list[str]:
    """``line <n>`` of each call in ``source`` that passes ``compare=False``, as
    a dataclass field left out of equality and hashing is declared."""
    return [f"line {node.lineno}" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and any(
                kw.arg == "compare" and isinstance(kw.value, ast.Constant) and kw.value.value is False
                for kw in node.keywords)]


def test_records_compare_on_every_field():
    # a field left out of == and hash lets two records that differ in it compare
    # and hash equal, so no fingerprint over a record could tell them apart
    files = sorted((ROOT / "src/distillforge").glob("*.py"))
    assert len(files) > 8
    uncompared = {path.name: lines for path in files
                  if (lines := _uncompared_fields(path.read_text(encoding="utf-8")))}
    assert not uncompared, uncompared


def test_uncompared_field_scan_sees_a_planted_field():
    source = ("from dataclasses import dataclass, field\n\n@dataclass(frozen=True)\nclass R:\n"
              "    key: str\n    fn: object = field(compare=False, repr=False)\n"
              "    n: int = field(default=0, compare=True)\n")
    assert _uncompared_fields(source) == ["line 6"]


# plan fields whose values are nested plans or tables, checked by their own
# dataclass or __post_init__ rather than by one schema bound
_STRUCTURED_FIELDS = {
    "ExperimentPlan.generator", "ExperimentPlan.tasks",
    "ExperimentPlan.cls_stage", "ExperimentPlan.alignment_stage",
    "ExperimentPlan.verification_stage", "TaskPlan.grid",
}


_PLANS = (GeneratorParams, NetworkSpec, DistillConfig, StagePlan, TaskPlan, ExperimentPlan)


def test_every_plan_field_is_bounded_or_structured():
    # a scalar setting without a bound goes unchecked, as TaskPlan.include_softmax once did
    unbounded = {f"{plan.__name__}.{f.name}" for plan in _PLANS for f in dataclasses.fields(plan)
                 if "type" not in f.metadata}
    assert unbounded == _STRUCTURED_FIELDS


def _unread_settings(plans, sources: dict[str, str]) -> list[str]:
    """``Plan.field`` of each bounded field of ``plans`` that no source in
    ``sources`` reads as an attribute (``obj.field`` in a load)."""
    read = {node.attr for source in sources.values() for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return [f"{plan.__name__}.{f.name}" for plan in plans for f in dataclasses.fields(plan)
            if "type" in f.metadata and f.name not in read]


def test_every_plan_setting_is_read():
    # a setting that only the schema and the config read changes nothing a run does
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted((ROOT / "src/distillforge").glob("*.py")) if path.name != "_schema.py"}
    assert len(sources) > 8
    assert _unread_settings(_PLANS, sources) == []


def test_unread_setting_scan_sees_a_planted_field():
    @dataclasses.dataclass
    class Planted:
        read: int = setting(int, 1)
        stored: int = setting(int, 2)
        table: tuple = ()

    source = "def f(p):\n    p.stored = 3\n    return p.read + getattr(p, 'stored')\n"
    assert _unread_settings((Planted,), {"m.py": source}) == ["Planted.stored"]


def _ckpt_dir_takers(source: str) -> list[str]:
    """``name`` or ``Class.name`` of each function in ``source`` that takes a
    ``ckpt_dir`` parameter."""
    tree = ast.parse(source)
    owner = {id(fn): f"{cls.name}." for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
             for fn in cls.body}
    return sorted(owner.get(id(node), "") + node.name for node in ast.walk(tree)
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                      arg is not None and arg.arg == "ckpt_dir" for arg in (
                          *node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs,
                          node.args.vararg, node.args.kwarg)))


def test_only_a_run_takes_a_checkpoint_directory():
    # the directory is part of the run, so it cannot drift back into the
    # signatures of the stage runner and the walks
    files = sorted((ROOT / "src/distillforge").glob("*.py"))
    assert len(files) > 8
    takers = {path.name: names for path in files
              if (names := _ckpt_dir_takers(path.read_text(encoding="utf-8")))}
    assert takers == {"pipeline.py": ["Run.__init__"]}


def test_ckpt_dir_scan_sees_functions_and_methods():
    source = ("def f(a, ckpt_dir):\n    pass\n\nclass C:\n"
              "    def m(self, *, ckpt_dir=None):\n        def inner(ckpt_dir, /):\n            pass\n\n"
              "def g(a, *ckpt_dirs, **kw):\n    pass\n\nasync def h(**ckpt_dir):\n    pass\n")
    assert _ckpt_dir_takers(source) == ["C.m", "f", "h", "inner"]
