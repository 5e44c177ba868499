"""Cold-start probe: a fresh interpreter imports twistell and runs a workload's first item.

Usage: python3 perfbench/coldstart.py <workload> <seed>

`run.py` times this whole process, one start at a time, for `setup_s`.
Thread-count variables come from the environment `run.py` passes down.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (needs the source path above)
from twistell.errors import TwistellError  # noqa: E402


def main(argv: list[str]) -> int:
    name, seed = argv[0], int(argv[1])
    wl = workloads.WORKLOADS[name](seed)
    try:
        wl.execute(wl.pool[0])
    except TwistellError:
        pass    # a documented refusal is an answer too; the timed rounds count it
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
