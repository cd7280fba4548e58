"""Engine benchmark for twapx; README.md in this directory explains it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the package is imported from src/.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv: list[str] | None = None) -> int:
    if not (SRC / "twapx" / "__init__.py").is_file():
        print(f"perfbench: no twapx sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description="twapx engine benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    result = harness.run(
        WORKLOADS[args.workload], args.workload, args.seed, args.seconds, bool(args.trace)
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
