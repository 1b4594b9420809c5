"""Correctness gate and determinism fingerprint applied to every clearing.

A clearing counts as failed when ``check`` returns any issue or when its
fingerprint differs from the first clearing of the same run.
"""

from __future__ import annotations

import math

import numpy as np

from workloads import Workload

REL_TOL = 1e-3      # the acceptance suite's relative gap
TIGHT_TOL = 1e-6    # the repository's cone-tightness tolerance


def total_cost(workload: Workload, result) -> float:
    """Distributed: wholesale + loss + device costs; centralized: objective."""
    if workload.centralized:
        return float(result.objective)
    return (
        result.costs["lmo"]
        + result.costs["dso"]
        + sum(s.cost_devices for s in result.schedules.values())
    )


def check(workload: Workload, scenario, result, reference: float | None) -> list[str]:
    """Every way ``result`` misses the gate; empty when it passes."""
    from lemclear.dso import check_tightness
    from lemclear.market import audit_privacy
    from lemclear.prosumer import validate_schedule

    issues: list[str] = []
    if workload.centralized:
        prices = np.concatenate([np.asarray(v, dtype=float) for v in result.dlmp.values()])
        if not np.all(np.isfinite(prices)):
            issues.append("non-finite price")
        if not math.isfinite(result.objective):
            issues.append("non-finite objective")
    else:
        if result.status != "converged":
            issues.append(f"status {result.status}")
        for pros in scenario.prosumers:
            bad = validate_schedule(pros, result.schedules[pros.id], scenario.dt)
            if bad:
                issues.append(f"schedule {pros.id}: {bad[0]} ({len(bad)} violations)")
        tight = check_tightness(result.dso, tol=TIGHT_TOL)
        if not tight.ok:
            issues.append(f"relaxation loose: max residual {tight.max_residual:.2e}")
        if workload.log_messages:
            privacy = audit_privacy(result.trace)
            if not privacy.ok:
                issues.append(f"privacy audit: {privacy.issues[0]}")
    if reference is not None:
        total = total_cost(workload, result)
        gap = abs(total - reference) / (1.0 + abs(reference))
        if not gap <= REL_TOL:
            issues.append(f"total cost {total!r} off reference {reference!r} (rel {gap:.2e})")
    return issues


def fingerprint(workload: Workload, result) -> dict:
    """Deterministic outcome of a clearing; repeats must match exactly."""
    if workload.centralized:
        return {"objective": repr(float(result.objective))}
    return {
        "digest": result.trace.digest(),
        "outer_passes": result.outer_iterations,
        "inner_passes": list(result.inner_iterations_per_outer),
        "messages_logged": len(result.trace.messages),
    }
