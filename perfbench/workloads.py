"""Workload table of the clearing benchmark and the scenario each seed draws.

Every workload uses the seeded 69-bus generator cut to four hours, 14:00 to
18:00, with no vehicle batteries.  A full 24-hour day costs 35-45 s per
distributed clearing on a 2-core box, too long to repeat a clearing inside
one timed run, and the generator's vehicle windows need at least 22 hours.
The afternoon window keeps PV output, a rising price for storage to trade
against and a heavy load; night hours would leave every device idle.  The
layer split of the day-long case survives the cut (see README.md).

Run as a script (``python3 workloads.py <workload> <generator seed>``) it
builds one scenario, prints ``ready`` and then the machine-speed probe's
interpreter-kernel time; the benchmark times such child processes to measure set-up
from interpreter start.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path

HORIZON = 4
FIRST_HOUR = 14
P_EV = 0.0
REFERENCE_FILE = Path(__file__).with_name("reference.json")
ROOT = Path(__file__).resolve().parent.parent


def add_source() -> bool:
    """Put the checkout's ``src`` first on the import path; False if absent."""
    src = ROOT / "src"
    if not (src / "lemclear" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(src))
    return True


@dataclass(frozen=True)
class Workload:
    name: str
    penetration: float
    prosumers: int          # hosted prosumers every pool seed must give
    centralized: bool
    solver: str = "exact"
    log_messages: bool = False
    held_out_seed: int = 0  # a --seed value kept out of tuning, for claim checks


WORKLOADS = {
    w.name: w
    for w in (
        # the network layer dominates: few prosumers, fast prosumer path
        Workload("feeder-clear", 0.3, 12, False, solver="relax_repair", held_out_seed=7),
        # every load point hosts a prosumer: the prosumer/miqp layers and the
        # serialized message log carry a large share
        Workload("dense-clear", 1.0, 48, False, solver="exact", log_messages=True,
                 held_out_seed=11),
        # one monolithic cone program; no per-call overhead, no market loop
        Workload("centralized", 0.3, 12, True, held_out_seed=13),
    )
}


def make_scenario(workload: Workload, generator_seed: int):
    """The generator's scenario with its profiles moved to FIRST_HOUR on."""
    from lemclear import io_cli

    tables = io_cli.generate_tables(io_cli.GeneratorSpec(
        seed=generator_seed, penetration=workload.penetration, p_ev=P_EV, horizon=HORIZON))
    for row in tables.profiles:
        hour = FIRST_HOUR + row["t"]
        row.update(
            wem_price=io_cli.WEM_PRICE_24[hour],
            loss_cost=io_cli.LOSS_COST_24[hour],
            load_scale=io_cli.LOAD_SCALE_24[hour],
            pv_cf=io_cli.PV_CF_24[hour],
        )
    return io_cli.assemble_scenario(tables)


def pick(workload: Workload, seed: int) -> tuple[int, float]:
    """(generator seed, reference cost) of a benchmark seed: an entry of the
    workload's pool recorded by record_reference.py."""
    pool = json.loads(REFERENCE_FILE.read_text())[workload.name]
    generator_seed, reference = pool[seed % len(pool)]
    return int(generator_seed), float(reference)


def clear(workload: Workload, scenario):
    """Run the workload's clearing through the public API."""
    if workload.centralized:
        from lemclear.oracle import solve_centralized

        return solve_centralized(scenario)
    from lemclear.market import run_clearing

    return run_clearing(
        scenario,
        prosumer_solver=workload.solver,
        log_messages=workload.log_messages,
    )


if __name__ == "__main__":
    if not add_source():
        sys.exit("no lemclear sources under src/")
    make_scenario(WORKLOADS[sys.argv[1]], int(sys.argv[2]))
    print("ready", flush=True)
    from calibrate import python_speed

    print(python_speed(), flush=True)
