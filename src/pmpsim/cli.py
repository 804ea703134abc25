"""Command-line surface: run, compare, validate, print-scenario.

Flags are spelled in full; a prefix of a flag is not accepted for it.

Exit codes: 0 success, 1 scenario error or bad command-line input (an unknown
command or flag, a value argparse rejects, a seed or duration outside the range
of a file's run.seed or run.duration_us, an output path that cannot be written,
a scheduler or seed given twice), 2 runtime invariant violation.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .bwreq import OversubscribedUgsError
from .engine import ConservationError, run_scenario
from .metrics import read_summary_csv
from .phy import IllegalMapError
from .scenario import FIELDS, INT_MAX, Scenario, ScenarioError, load_scenario
from .sched import SCHEDULER_NAMES

VERDICT_METRICS = (
    ("bs", "delay_s", "lower"),
    ("bs", "throughput_bps", "higher"),
    ("bs", "load_bps", "higher"),
)


def comparison(name: str, schedulers: list[str], seeds: list[int],
               summaries: dict) -> tuple[str, str]:
    """The report and the comparison.csv text of a compare grid, from the
    summary rows of each run by (scheduler, seed)."""
    lines = [f"comparison on {name} ({len(seeds)} seed{'s' if len(seeds) != 1 else ''})"]
    verdicts = []
    low_confidence = " [low confidence: single seed]" if len(seeds) == 1 else ""
    for scope, metric, better in VERDICT_METRICS:
        lines.append(f"  {metric}@{scope}:")
        vals = {sched: [summaries[(sched, seed)][(scope, metric)] for seed in seeds]
                for sched in schedulers}
        for sched in schedulers:
            lines.append(f"    {sched:>5}: mean {sum(vals[sched]) / len(seeds):.6f}  "
                         f"per-seed {['%.6f' % v for v in vals[sched]]}")
        sign = "<" if better == "lower" else ">"
        for i, a in enumerate(schedulers):
            for b in schedulers[i + 1:]:
                wins = sum(va != vb and (va < vb) == (better == "lower")
                           for va, vb in zip(vals[a], vals[b]))
                verdicts.append(f"  verdict: {metric}@{scope}: {a} {sign} {b} "
                                f"in {wins}/{len(seeds)} seeds{low_confidence}")
    # sorted by value, not by text, so that seed 10 comes after seed 2
    cells = sorted((sched, seed, scope, metric) for sched, seed in summaries
                   for scope, metric, _ in VERDICT_METRICS)
    grid = "".join(f"{sched},{seed},{scope},{metric},"
                   f"{summaries[(sched, seed)][(scope, metric)]:.6f}\n"
                   for sched, seed, scope, metric in cells)
    return "\n".join(lines + verdicts), "scheduler,seed,scope,metric,value\n" + grid


def _seed(flag: str, value: int) -> int:
    """A seed given on the command line, held to the bounds of a file's run.seed."""
    _, _, _, parse, _, bound, _, _ = next(row for row in FIELDS if row[:2] == ("run", "seed"))
    return parse(value, flag, bound)


def _duration(value: int) -> int:
    """--duration in seconds, as microseconds held to the bounds of a file's
    run.duration_us."""
    most = INT_MAX // 1_000_000
    if not 1 <= value <= most:
        raise ScenarioError(f"--duration: must lie in 1..{most} seconds, got {value}")
    return value * 1_000_000


def _load(args) -> Scenario:
    sc = load_scenario(args.scenario)
    if getattr(args, "seed", None) is not None:
        sc.seed = _seed("--seed", args.seed)
    if getattr(args, "duration", None) is not None:
        sc.duration_us = _duration(args.duration)
    if getattr(args, "bs_scheduler", None):
        sc.scheduler_bs = args.bs_scheduler
    if getattr(args, "ss_scheduler", None):
        sc.scheduler_ss = args.ss_scheduler
    if getattr(args, "strict_paper", False):
        sc.strict_paper = True
    sc.validate()
    return sc


def _check_out(path: str) -> None:
    """Reject an --out path that names a directory or lies in a missing one,
    before any work is done for it."""
    folder = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path):
        raise ScenarioError(f"--out: {path} is a directory")
    if not os.path.isdir(folder):
        raise ScenarioError(f"--out: no directory {folder}")


def _write(flag: str, path, write) -> None:
    """Write `path` with `write(fh)`; a failure is a bad `flag` value."""
    try:
        with open(path, "w") as fh:
            write(fh)
    except OSError as e:
        raise ScenarioError(f"{flag}: cannot write {path}: {e.strerror}")


def cmd_run(args) -> int:
    sc = _load(args)
    if args.out != "-":
        _check_out(args.out)
    result = run_scenario(sc)
    if args.out == "-":
        result.write_csv(sys.stdout)
    else:
        _write("--out", args.out, result.write_csv)
        print(f"wrote {args.out} ({result.dispatched} events dispatched)")
    return 0


def _unique(flag: str, values: list) -> list:
    for i, v in enumerate(values):
        if v in values[:i]:
            raise ScenarioError(f"{flag}: {v} is given twice")
    return values


def cmd_compare(args) -> int:
    schedulers = [s.strip() for s in args.schedulers.split(",") if s.strip()]
    if len(_unique("--schedulers", schedulers)) < 2:
        raise ScenarioError("compare needs at least two schedulers")
    for sched in schedulers:
        if sched not in SCHEDULER_NAMES:
            raise ScenarioError(f"--schedulers: unknown scheduler {sched!r}")
    try:
        seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    except ValueError:
        raise ScenarioError(f"--seeds: expected comma-separated integers, got {args.seeds!r}")
    if not _unique("--seeds", [_seed("--seeds", seed) for seed in seeds]):
        raise ScenarioError("compare needs at least one seed")
    sc = _load(args)
    out_dir = Path(args.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise ScenarioError(f"--out-dir: cannot create {out_dir}: {e.strerror}")

    summaries = {}
    for sched in schedulers:
        for seed in seeds:
            # a run only reads its scenario, so every run shares the one loaded
            sc.scheduler_bs = sched
            # SS-side scheduler follows the BS unless pinned explicitly
            sc.scheduler_ss = args.ss_scheduler or sched
            sc.seed = seed
            result = run_scenario(sc)
            path = out_dir / f"run_{sched}_seed{seed}.csv"
            _write("--out-dir", path, result.write_csv)
            # verdicts come from the public CSV format, not from memory
            summary = summaries[(sched, seed)] = read_summary_csv(str(path))
            for scope, metric, _ in VERDICT_METRICS:
                if (scope, metric) not in summary:
                    raise ScenarioError(f"{path}: no {metric}@{scope} summary row to compare; "
                                        f"the run moved no packet through {scope}")

    report, grid = comparison(sc.name, schedulers, seeds, summaries)
    _write("--out-dir", out_dir / "comparison.csv", lambda fh: fh.write(grid))
    _write("--out-dir", out_dir / "report.txt", lambda fh: fh.write(report + "\n"))
    print(report)
    return 0


def cmd_validate(args) -> int:
    sc = load_scenario(args.scenario)
    print(f"scenario {sc.name!r} is valid: {sc.station_count} stations, "
          f"{len(sc.flows)} flows, {sc.duration_us / 1e6:.3f} s")
    return 0


def cmd_print_scenario(args) -> int:
    sc = load_scenario(args.scenario)
    text = sc.to_yaml()
    if args.out == "-":
        sys.stdout.write(text)
    else:
        _write("--out", args.out, lambda fh: fh.write(text))
    return 0


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors exit 1, the code of bad command-line input;
    argparse's own code, 2, is that of a runtime invariant violation here."""

    def __init__(self, **kwargs):
        # with prefixes allowed, compare would read --seed 7 as --seeds 7
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="pmpsim",
        description="Discrete-event simulator of an IEEE 802.16 PMP cell "
                    "with pluggable QoS schedulers")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, seeded=True):
        sp.add_argument("--scenario", default="paper-pmp",
                        help="scenario file path or built-in name (default: paper-pmp)")
        if seeded:
            sp.add_argument("--duration", type=int, default=None, metavar="SECONDS")
            sp.add_argument("--ss-scheduler", default=None, choices=SCHEDULER_NAMES)
            sp.add_argument("--strict-paper", action="store_true",
                            help="disable piggyback requests")

    sp = sub.add_parser("run", help="execute one deterministic run, write CSV")
    common(sp)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--bs-scheduler", default=None, choices=SCHEDULER_NAMES)
    sp.add_argument("--out", default="-", help="output CSV path (default: stdout)")
    sp.set_defaults(fn=cmd_run)

    sp = sub.add_parser("compare", help="run a scheduler x seed grid and report orderings")
    common(sp)
    sp.add_argument("--schedulers", default="wfq,dwrr",
                    help="comma-separated scheduler list (default: wfq,dwrr)")
    sp.add_argument("--seeds", default="1,2,3,4,5",
                    help="comma-separated seed list (default: 1,2,3,4,5)")
    sp.add_argument("--out-dir", default="comparison-out")
    sp.set_defaults(fn=cmd_compare)

    sp = sub.add_parser("validate", help="check a scenario file and exit")
    common(sp, seeded=False)
    sp.set_defaults(fn=cmd_validate)

    sp = sub.add_parser("print-scenario", help="dump a scenario as an editable file")
    common(sp, seeded=False)
    sp.add_argument("--out", default="-")
    sp.set_defaults(fn=cmd_print_scenario)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ScenarioError as e:
        print(f"scenario error: {e}", file=sys.stderr)
        return 1
    except (OversubscribedUgsError, ConservationError, IllegalMapError) as e:
        print(f"runtime invariant violation: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
