"""Every call that perfbench's traced run wraps still exists, once.

``perfbench/spans.py`` wraps the program's calls by name (``TARGETS``).  A
renamed or deleted target only fails the traced run, and two targets that
resolve to one function (an alias, or a subclass that inherits ``run``)
record every call twice.  This test loads the module from its file, without
changing it, and checks each entry the way ``spans.install`` resolves it.
"""

import importlib
import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_spans():
    path = os.path.join(ROOT, "perfbench", "spans.py")
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_target_resolves_to_its_own_function():
    spans = _load_spans()
    for name in spans.IMPORTS:
        importlib.import_module(name)
    resolved = {}
    for module_name, path, layer, _ in spans.TARGETS:
        module = importlib.import_module(module_name)
        if "." in path:
            class_name, method_name = path.split(".")
            owner = getattr(module, class_name, None)
            assert isinstance(owner, type), f"{module_name}.{class_name} is not a class"
            assert method_name in owner.__dict__, (
                f"{module_name}.{path} is not defined on {class_name} itself"
            )
            target = owner.__dict__[method_name]
        else:
            target = getattr(module, path, None)
        assert callable(target), f"{module_name}.{path} ({layer}) does not resolve"
        assert id(target) not in resolved, (
            f"{module_name}.{path} is the same function as {resolved.get(id(target))}"
        )
        resolved[id(target)] = f"{module_name}.{path}"
