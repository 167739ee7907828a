"""Golden outputs and the correctness gate.

``bench/golden.json`` holds, per workload and seed (0 and 1), every run's
checked simulated outputs.  A run *fails* if it raises, or if one of its
outputs is not finite, or differs from the expected value by more than
:data:`REL_TOL` relative.  Seeds without golden values are checked
against the run's own warm-up pass instead, and the benchmark says so in
its output.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from bench.workloads import Outputs, Step

GOLDEN_PATH = Path(__file__).with_name("golden.json")
GOLDEN_SEEDS = (0, 1)
REL_TOL = 1e-9


def load(path: Path = GOLDEN_PATH) -> dict:
    return json.loads(path.read_text()) if path.exists() else {}


def expected(golden: dict, workload: str, seed: int) -> Outputs | None:
    """The golden outputs of one workload and seed, or None if unchecked."""
    return golden.get(workload, {}).get(str(seed))


def close(value: float, want: float, rel: float = REL_TOL) -> bool:
    return abs(value - want) <= rel * abs(want)


def run_errors(outputs: dict[str, float], want: dict[str, float] | None) -> list[str]:
    """Why one run's outputs fail the gate (empty when they pass)."""
    errors = [f"{k}={v!r} is not finite" for k, v in outputs.items() if not math.isfinite(v)]
    if want is not None:
        if set(outputs) != set(want):
            errors.append(f"outputs {sorted(outputs)} != expected {sorted(want)}")
        else:
            errors += [
                f"{k}={outputs[k]!r} != expected {want[k]!r}"
                for k in sorted(want)
                if not close(outputs[k], want[k])
            ]
    return errors


@dataclass
class CheckedPass:
    """Outcome of one pass: outputs, run counts, and failure reasons."""

    outputs: Outputs = field(default_factory=dict)
    #: Wall seconds of each step, in order.
    step_seconds: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)


def run_pass(
    steps: list[Step],
    reference: Outputs | None,
    before_step: Callable[[], object] | None = None,
) -> CheckedPass:
    """Run every step, checking each run against ``reference`` (if given).

    A step that raises fails all of its runs; the pass goes on with the
    next step, so one failure costs its own runs only.  ``before_step``
    runs untimed ahead of each step.
    """
    result = CheckedPass()
    for step in steps:
        if before_step is not None:
            before_step()
        result.attempted += len(step.runs)
        start = time.perf_counter()
        try:
            produced, missing = step.fn(), "no outputs"
        except Exception as exc:  # a failed run is counted, not fatal
            produced, missing = {}, f"raised {type(exc).__name__}: {exc}"
        result.step_seconds.append(time.perf_counter() - start)
        for rid in step.runs:
            outputs = produced.get(rid)
            if outputs is None:
                result.failed += 1
                result.errors.append(f"{rid}: {missing}")
                continue
            result.outputs[rid] = outputs
            errors = run_errors(outputs, None if reference is None else reference.get(rid))
            if errors:
                result.failed += 1
                result.errors.append(f"{rid}: {'; '.join(errors)}")
    return result
