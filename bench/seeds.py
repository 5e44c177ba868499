"""Run the whole identity suite on a range of sample-plan seeds and list what fails.

Run from the repository root:

    python3 bench/seeds.py 0 400            # seeds 0..399
    python3 bench/seeds.py 0 400 --digest   # and a checksum of every report

Each check of run_all(SamplePlan(seed=s)) runs on its own, so a check that
refuses (raises a TwistellError) does not hide the checks after it. Prints one
line per failing (seed, check), with its largest residual against its tolerance
or the refusal, then a summary line; exits 1 when anything failed, 0 otherwise.
With --digest it also prints, for every (seed, check) that returns a report, the
CRC32 of cli.dumps(report.to_dict()), the bytes `twistell verify --out` writes for
it: the script copied into two checkouts prints the same lines exactly when their
reports agree bit for bit.
"""

from __future__ import annotations

import argparse
import sys
import zlib
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from twistell.cli import dumps  # noqa: E402
from twistell.errors import TwistellError  # noqa: E402
from twistell.identities import SUITE, SamplePlan, run_all  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("lo", type=int, help="first seed")
    parser.add_argument("hi", type=int, help="one past the last seed")
    parser.add_argument("--digest", action="store_true",
                        help="print the CRC32 of every (seed, check) report")
    args = parser.parse_args(argv)
    failures = 0
    for seed in range(args.lo, args.hi):
        plan = SamplePlan(seed=seed)
        for name in SUITE:
            try:
                report, = run_all(plan, names=[name])
            except TwistellError as exc:
                print(f"seed={seed} check={name} refused {type(exc).__name__}: {exc}")
                failures += 1
                continue
            if args.digest:
                crc = zlib.crc32(dumps(report.to_dict()).encode())
                print(f"seed={seed} check={name} crc32={crc:08x}")
            if not report.passed:
                print(f"seed={seed} check={name} max_residual={report.max_residual:.3e} "
                      f"tol={report.tolerance:.1e}")
                failures += 1
    print(f"{failures} failing of {max(args.hi - args.lo, 0) * len(SUITE)} "
          f"(seed, check) pairs, seeds {args.lo}..{args.hi - 1}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
