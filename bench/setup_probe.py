"""Set-up probe: one fresh interpreter sets up one workload.

Times importing what the workload uses, generating its inputs from the
seed, and constructing each distinct Trainer (the fleet: its jobs and
simulator) without running anything, between two samples of the
host-speed reference loop, so ``bench/run.py`` can scale the set-up
seconds to reference host speed.  ``bench/run.py`` starts
seven of these one after another and reports the median as ``setup_s``.
Usage: ``python -m bench.setup_probe WORKLOAD SEED``.
"""

import json
import sys
import time

from bench.hostspeed import reference_seconds


def main() -> int:
    name, seed = sys.argv[1], int(sys.argv[2])
    before = reference_seconds()
    start = time.perf_counter()
    from bench.workloads import WORKLOADS

    workload = WORKLOADS[name]
    built = workload.setup(workload.inputs(seed))
    seconds = time.perf_counter() - start
    references = [before, reference_seconds()]
    print(json.dumps({"setup_s": seconds, "reference_s": references, "built": built}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
