"""Benchmark entry point: host speed of pmpsim's scheduler-comparison grid and
of wide cells, with per-layer spans from a separate traced run.

    python3 perfbench/run.py --workload compare-grid --seed 1 --seconds 30 --trace 0

Run it from anywhere inside a checkout; it uses the pmpsim source in the
checkout's src/ and writes only under the checkout's .perfbench_out/. The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. See perfbench/README.md for the workloads and
metrics.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("compare-grid", "wide-wfq", "wide-dwrr")


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description="pmpsim host-speed benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True,
                   help="workload seed; the same seed gives the same inputs")
    p.add_argument("--seconds", type=float, required=True,
                   help="how long the closed loop runs")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="0: end-to-end metrics; 1: per-layer metrics from traced runs")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    package = SRC / "pmpsim"
    if not (package / "__init__.py").is_file():
        print(f"perfbench: no pmpsim source at {package}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import pmpsim

    if Path(pmpsim.__file__).resolve().parent != package:
        print(f"perfbench: imported pmpsim from {pmpsim.__file__}, not from {package}",
              file=sys.stderr)
        return 2
    import bench

    return bench.run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
