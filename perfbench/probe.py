"""Time one workload's set-up in a fresh interpreter; started by run.py.

    probe.py WORKLOAD

Prints the seconds taken by `import nks3, nks3.cli` (through workloads.py),
`get_tables()` and `make_example` for the workload's families.
"""

import sys
import time

if __name__ == "__main__":
    start = time.perf_counter()
    import workloads
    workloads.WORKLOADS[sys.argv[1]].setup()
    elapsed = time.perf_counter() - start
    workloads.require_checkout_nks3()
    print(elapsed)
