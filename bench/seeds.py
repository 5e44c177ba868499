"""Run the whole identity suite on a range of sample-plan seeds and list what fails.

Run from the repository root:

    python3 bench/seeds.py 0 400      # seeds 0..399

Each check of run_all(SamplePlan(seed=s)) runs on its own, so a check that
refuses (raises a TwistellError) does not hide the checks after it. Prints one
line per failing (seed, check), with its largest residual against its tolerance
or the refusal, then a summary line; exits 1 when anything failed, 0 otherwise.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from twistell.errors import TwistellError  # noqa: E402
from twistell.identities import SUITE, SamplePlan, run_all  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("lo", type=int, help="first seed")
    parser.add_argument("hi", type=int, help="one past the last seed")
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
            if not report.passed:
                print(f"seed={seed} check={name} max_residual={report.max_residual:.3e} "
                      f"tol={report.tolerance:.1e}")
                failures += 1
    print(f"{failures} failing of {max(args.hi - args.lo, 0) * len(SUITE)} "
          f"(seed, check) pairs, seeds {args.lo}..{args.hi - 1}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
