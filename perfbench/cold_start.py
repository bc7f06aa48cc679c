"""Child process of the benchmark: one hexsync CLI command in a fresh interpreter.

    python3 perfbench/cold_start.py setup <hexsync args...>
    python3 perfbench/cold_start.py full <hexsync args...>

`setup` imports hexsync.cli, parses the arguments and builds the simulation
through `dispatch`, and stops when the event loop is first entered. It
prints {"import_s", "first_event_monotonic"}; the parent subtracts its own
time.monotonic() taken before the spawn, which is the same system-wide clock.

`full` runs the command to the end exactly as the `hexsync` entry point
does, CSV on stdout, then writes {"rc", "maxrss_kb"} as the last line of
stderr.
"""

import json
import resource
import sys
import time


class _FirstEvent(BaseException):
    """Raised out of the event loop; not an Exception, so dispatch lets it through."""


def main() -> int:
    mode, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import hexsync.cli
    import_s = time.perf_counter() - start
    if mode == "full":
        rc = hexsync.cli.dispatch(argv)
        sys.stdout.flush()
        maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        sys.stderr.write(json.dumps({"rc": rc, "maxrss_kb": maxrss_kb}) + "\n")
        return 0
    from hexsync.simnet import Sim

    def first_event(self, t_end):
        raise _FirstEvent

    Sim.run_until = first_event
    try:
        rc = hexsync.cli.dispatch(argv)
    except _FirstEvent:
        reached = time.monotonic()
    else:
        sys.stderr.write(f"dispatch returned {rc} before the event loop\n")
        return 1
    print(json.dumps({"import_s": import_s, "first_event_monotonic": reached}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
