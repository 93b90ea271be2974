"""Time one cold set-up of a workload: package import plus input construction.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED

Prints the host-scaled seconds (see hostspeed.py) from just after
interpreter start-up to inputs ready.  ``run.py`` starts this several times
per run and reports the median as ``setup_s``; a fresh process is the only
way to time the import again.
"""

import sys
import time

from hostspeed import HostSpeed


def main() -> int:
    with HostSpeed() as speed:
        t0 = time.perf_counter()
        import workloads

        workloads.load_package()
        workload = workloads.WORKLOADS[sys.argv[1]]
        state = workload.setup(int(sys.argv[2]))
        seconds = time.perf_counter() - t0
    teardown = getattr(workload, "teardown", None)
    if teardown is not None:
        teardown(state)
    print(repr(seconds * speed.scale()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
