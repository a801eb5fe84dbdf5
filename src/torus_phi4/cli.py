"""Command-line front end.

Usage:
    torus-phi4 <command> --config <file> [--seed S] [--out DIR]

Commands: invariance, inviscid, smoothing, verify.  The config file is a
flat ``key = value`` text file; each command's keys, their types and their
defaults are the fields of its config dataclass in
:mod:`torus_phi4.experiments` (`_InvarianceConfig`, `_InviscidConfig`,
`_SmoothingConfig`, `_VerifyConfig`).  For ``verify`` the key ``suite``
selects one of {kernels, counting, tensors, chaos, strichartz, smoothing,
picard, all}.

Exit codes: 0 all assertions passed, 1 an assertion failed, 2 usage error
(an unreadable config, an unknown key, an ill-typed or out-of-range value)
or a run stopped by a mass blow-up, each on one line of standard error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .experiments import (cmd_invariance, cmd_inviscid, cmd_smoothing,
                          cmd_verify, load_config)
from .flows import MassBlowUpError

_COMMANDS = {
    "invariance": cmd_invariance,
    "inviscid": cmd_inviscid,
    "smoothing": cmd_smoothing,
    "verify": cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="torus-phi4",
        description="Seeded experiment harness for the truncated stochastic "
                    "Ginzburg-Landau / Schrodinger flows on the torus.")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", default=None,
                        help="flat key=value config file")
    parser.add_argument("--seed", type=int, default=0, help="master seed")
    parser.add_argument("--out", default=None, help="output directory")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors and 0 on --help
        return int(exc.code) if exc.code else 0

    try:
        report = _COMMANDS[args.command](load_config(args.config),
                                         seed=args.seed, out_dir=args.out)
    except (OSError, ValueError, MassBlowUpError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print(json.dumps(report, indent=2, default=float))
    return 0 if report.get("passed", False) else 1


if __name__ == "__main__":
    sys.exit(main())
