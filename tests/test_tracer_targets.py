"""The benchmark tracer's wrap targets must name callables that exist in src/.

The tracer replaces module attributes by name, so a rename in the program
would otherwise only show up as a failed traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_targets():
    return load_tracer().TARGETS


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


def test_traced_clearing_records_market_and_dso(six_bus):
    # a clearing run inside the tracer, as perfbench/run.py --trace 1 runs one
    import lemclear.market

    tracer = load_tracer().Tracer()
    with tracer:
        res = lemclear.market.run_clearing(six_bus, prosumer_solver="relax_repair")
    assert res.status == "converged"
    calls = tracer.summary(0)["calls"]
    assert calls["market"] == 1
    assert calls["dso"] == sum(res.inner_iterations_per_outer)
