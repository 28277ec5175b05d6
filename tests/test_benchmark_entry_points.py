"""The benchmark's per-layer entry points still resolve in the library.

``perfbench/layertrace.py`` splits each benchmark operation's time across
layers by wrapping the functions and methods its ``LAYERS`` table names.
A renamed or moved entry point would silently drop out of that split, so
these tests resolve every target the way the tracer does, reading the
table without installing the tracer.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

pytestmark = pytest.mark.smoke

LAYERTRACE = Path(__file__).resolve().parent.parent / "perfbench" / "layertrace.py"


def load_layers() -> dict:
    spec = importlib.util.spec_from_file_location("layertrace_table", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def test_every_layer_target_resolves():
    unresolved = []
    for layer, targets in load_layers().items():
        for module_name, path, *_observed in targets:
            module = importlib.import_module(module_name)
            if "." in path:
                # Methods are patched on their class, so they must live in
                # the class's own namespace, not only an inherited one.
                class_name, method = path.split(".")
                owner = getattr(module, class_name, None)
                found = owner is not None and method in vars(owner)
            else:
                found = callable(getattr(module, path, None))
            if not found:
                unresolved.append(f"{layer}: {module_name}.{path}")
    assert not unresolved, unresolved


def test_session_binds_the_traced_functions_by_name():
    """The tracer patches functions where ``session.py`` looks them up."""
    import repro.coupling.session as session_module

    definitions = {
        "parse_goal": "repro.prolog.reader",
        "goal_shape": "repro.coupling.global_opt",
        "simplify": "repro.optimize.pipeline",
        "translate": "repro.sql.translate",
    }
    for name, module_name in definitions.items():
        defining = importlib.import_module(module_name)
        assert getattr(session_module, name, None) is getattr(defining, name), name
