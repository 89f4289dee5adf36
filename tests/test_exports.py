"""Every name the package and its public modules export in ``__all__`` resolves, and
the package re-exports only names its submodules export."""
import importlib
import pkgutil

import distillforge


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
