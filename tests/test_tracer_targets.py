"""The benchmark tracer's wrap targets must name callables that exist in src/.

The tracer replaces module attributes by name, so a rename in the program
would otherwise only show up as a failed traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


TARGETS = load_targets()


@pytest.mark.parametrize("module,dotted", [(t[0], t[1]) for t in TARGETS])
def test_target_resolves(module, dotted):
    owner = importlib.import_module(module)
    for part in dotted.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
    assert Path(importlib.import_module(module).__file__).resolve().is_relative_to(
        TRACER.parent.parent / "src"
    )
