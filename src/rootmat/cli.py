"""Command line interface.

Each command prints its output and returns its reports, and `main` alone
turns them into the exit code: 0 exactly when every report is PASS (always
for `circuits` and `aut`, which make none), 1 when one is not, and 2 when
the input is bad, a graph's first-path bound does not close, a circuit
enumeration budget runs out before a report is made, or memory runs out
(one line on stderr).
A closed standard output (say, `rootmat circuits ... | head -1`) ends the
command quietly with exit code 141, as a shell reports a SIGPIPE death.

Note on G2: the matroid of a root system forgets root lengths, so the G2
matroid equals that of I2(6); use the system id "I2_6".
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

from . import linmatroid, permgrp, rootsystems, verify
from .errors import BudgetExceededError


class _Parser(argparse.ArgumentParser):
    """Raises an argparse rejection as a ValueError, which `main` reports as one error line."""

    def error(self, message):
        raise ValueError(message)


def build_parser():
    ids = ", ".join(f if row.least is None
                    else f"{rootsystems.series_prefix(f)}<n> (n >= {row.least})"
                    for f, row in rootsystems.FAMILIES.items())
    parser = _Parser(
        prog="rootmat",
        description="Verify automorphism groups of root-system matroids. "
                    f"System ids: {ids}, and direct sums like A2+A2+B3. "
                    "For G2 use I2_6 (same matroid).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="squeeze-certify one system")
    p.add_argument("--system", required=True)

    p = sub.add_parser("table", help="reproduce the classification table")
    p.add_argument("--families", default=verify.TABLE_FAMILIES,
                   help="FAMILY:LO..HI ranges, E/F/H letters and system ids, e.g. I2:13..20,"
                   "Dprime4 (default: %(default)s, the classification table)")
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")

    p = sub.add_parser("circuits", help="dump circuits of a system")
    p.add_argument("--system", required=True)
    p.add_argument("--max-order", type=int, default=3)
    p.add_argument("--format", choices=("text", "json"), default="json")
    p.add_argument("--budget", type=int, default=linmatroid.DEFAULT_NODE_BUDGET,
                   help="node budget of each component's enumeration above order 3 (order 3 "
                   "reads C3 off the lines and enumerates nothing; default %(default)s)")

    p = sub.add_parser("aut", help="compute the graph automorphism group")
    p.add_argument("--system", required=True)
    p.add_argument("--emit-generators", action="store_true")

    p = sub.add_parser("wreath", help="check the wreath-product formula on a sum")
    p.add_argument("--spec", required=True, help='e.g. "A2+A2"')

    p = sub.add_parser("crosscheck", help="check, with no K(R), that each generator of the C3 "
                       "group is induced by a (semi)linear map")
    p.add_argument("--system", required=True)

    return parser


def _print_report(r, label="known"):
    """Print one report line, return r; `label` names known_group_order, left out if 0: "known"
    for |K(R)|, "realized" for the order a `crosscheck` or `wreath` PASS reports, whose
    generators it realized.  A nonempty detail (why a verdict is not PASS) follows the status."""
    known = f"{label}={r.known_group_order:<12} " if r.known_group_order else ""
    detail = f": {r.detail}" if r.detail else ""
    print(f"{r.system_id:>10}  lines={r.num_lines:<4} |C3|={r.c3_count:<5} "
          f"aut={r.aut_order:<12} expected={r.expected_order:<12} "
          f"{known}{r.status}{detail}  ({r.timing_ms} ms)")
    return r


def cmd_verify(args):
    return [_print_report(verify.verify_theorem(args.system))]


def cmd_table(args):
    reports = verify.verify_table(rootsystems.parse_families(args.families))
    if args.format == "json":
        print(json.dumps([r.to_json_dict() for r in reports], indent=2))
    elif args.format == "csv":
        writer = csv.DictWriter(sys.stdout, fieldnames=list(reports[0].to_json_dict()))
        writer.writeheader()
        writer.writerows(r.to_json_dict() for r in reports)
    else:
        for r in reports:
            _print_report(r)
    return reports


def cmd_circuits(args):
    for flag, value in (("--budget", args.budget), ("--max-order", args.max_order)):
        if value < 1:
            raise ValueError(f"{flag} must be at least 1, got {value}")
    system = rootsystems.parse_system_id(args.system)
    circuits = (linmatroid.circuits3(system.lines) if args.max_order == 3
                else verify.circuits_upto(system, args.max_order, args.budget))
    if args.format == "json":
        print(json.dumps({"system": system.system_id, "order": args.max_order,
                          "circuits": [list(c) for c in circuits]}))
    else:
        print(f"# {system.system_id}: {len(circuits)} circuits of order <= {args.max_order}")
        for c in circuits:
            print(" ".join(map(str, c)))
    return []


def cmd_aut(args):
    system = rootsystems.parse_system_id(args.system)
    order, gens = verify.aut_group_from_family(system, linmatroid.circuits3(system.lines))
    print(f"{system.system_id}: |Aut(G(X, C3))| = {order}")
    if args.emit_generators:
        for g in gens:
            print(permgrp.cycle_notation(g))
    return []


def cmd_wreath(args):
    return [_print_report(verify.verify_wreath(args.spec), label="realized")]


def cmd_crosscheck(args):
    return [_print_report(verify.oracle_crosscheck(args.system), label="realized")]


COMMANDS = {"verify": cmd_verify, "table": cmd_table, "circuits": cmd_circuits,
            "aut": cmd_aut, "wreath": cmd_wreath, "crosscheck": cmd_crosscheck}


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        reports = COMMANDS[args.command](args)
        sys.stdout.flush()  # a closed pipe shows here, not in the flush at exit
    except (ValueError, BudgetExceededError, MemoryError) as exc:
        print(f"rootmat: error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # nobody reads the rest; send it to devnull so the flush at exit stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return 0 if all(r.status == verify.PASS for r in reports) else 1


if __name__ == "__main__":
    sys.exit(main())
