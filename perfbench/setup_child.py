"""One fresh set-up: import ``longrun`` and build a workload's model.

Usage: ``python3 setup_child.py <src dir> <workload>``.  Prints one JSON line
with the import time, the model-building time and ``ready``, the
``time.perf_counter()`` reading once the model exists.  On Linux that clock
is shared between processes, so the parent subtracts its own reading taken
just before it started this interpreter.
"""

import json
import sys
import time


def main() -> None:
    t0 = time.perf_counter()
    sys.path.insert(0, sys.argv[1])
    import longrun

    t1 = time.perf_counter()
    from workloads import build_model

    t2 = time.perf_counter()
    build_model(longrun, sys.argv[2])
    t3 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "model_s": t3 - t2, "ready": t3}))


if __name__ == "__main__":
    main()
