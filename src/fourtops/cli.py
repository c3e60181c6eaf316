"""Command-line front door: the argument parser, the entry point and the
sweep.  ``main`` imports the other commands' handlers, with the input grammar
and the JSON schema, from ``fourtops.commands`` only when one of them runs.
Exit codes: 0 all checks pass, 1 counterexample found, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import FourtopsError, SizeCapExceeded, _require_at_least
from .heyting import DEFAULT_ORACLE_POINT_CAP
from .records import DEFAULT_PAIR_CAP, STRUCTURE_KINDS


def cmd_sweep(args, out) -> int:
    """Every check on every configuration, computed once per isomorphism
    class (see ``sweep.sweep_entries``)."""
    for flag, value in (("--pmax", args.pmax), ("--qmax", args.qmax), ("--cap", args.cap)):
        _require_at_least(flag, value, 0)
    if args.pmax + args.qmax > args.cap:
        raise SizeCapExceeded(f"--pmax + --qmax is {args.pmax + args.qmax}, over --cap {args.cap}")
    from .sweep import sweep_entries

    instances = []
    ok = True
    for label, entry in sweep_entries(args.pmax, args.qmax, args.cap):
        instances.append(entry)
        ok = ok and entry["ok"]
        if not args.json:
            out.write(f"{label}: {'ok' if entry['ok'] else 'FAIL'}\n")
    if args.json:
        from .emit import emit_json

        out.write(emit_json({"result": {"instances": instances, "ok": ok}}))
    else:
        out.write(f"{sum(1 for e in instances if e['ok'])}/{len(instances)} instances ok\n")
    return 0 if ok else 1


# -- entry point -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="fourtops",
        description="compute, convert, render, and check topologies on "
        "presheaves over finite posets",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def add_common(p, json=True):
        p.add_argument("-i", "--input", help="input file ('-' for stdin)")
        p.add_argument("-t", "--text", help="inline input text")
        if json:
            p.add_argument("--json", action="store_true", help="structured output")

    p_show = sub.add_parser("show", help="display h, omega, or the true map")
    p_show.add_argument("what", choices=["h", "omega", "true"])
    add_common(p_show)

    p_chi = sub.add_parser("chi", help="classifying map of a subterminal (y payload)")
    add_common(p_chi)

    p_conv = sub.add_parser("convert", help="convert between representations")
    p_conv.add_argument("--from", dest="source", choices=STRUCTURE_KINDS, required=True)
    p_conv.add_argument("--to", dest="target", choices=STRUCTURE_KINDS, required=True)
    add_common(p_conv)

    p_four = sub.add_parser("fouruple", help="complete all four representations")
    p_four.add_argument("--from", dest="source", choices=STRUCTURE_KINDS, required=True)
    add_common(p_four)

    p_enum = sub.add_parser("enumerate", help="enumerate structures on the poset")
    p_enum.add_argument("family", choices=["nuclei", "grotops", "lttops"])
    p_enum.add_argument("--mode", choices=["formula", "oracle"], default="formula")
    add_common(p_enum)
    p_enum.add_argument(
        "--cap", type=int, help=f"point cap of --mode oracle (default {DEFAULT_ORACLE_POINT_CAP})"
    )

    p_check = sub.add_parser("check", help="run axiom or agreement checkers")
    p_check.add_argument("what", choices=["axioms", "conjectures", "topmost", "roundtrips"])
    add_common(p_check)
    p_check.add_argument(
        "--cap", type=int, help=f"pair cap for check axioms (default {DEFAULT_PAIR_CAP})"
    )

    p_render = sub.add_parser("render", help="text renderings")
    p_render.add_argument("what", choices=["zha", "omega", "j", "grotop", "fouruple"])
    add_common(p_render, json=False)

    p_sweep = sub.add_parser("sweep", help="batch checks over a 2cg family")
    p_sweep.add_argument("--pmax", type=int, default=2)
    p_sweep.add_argument("--qmax", type=int, default=2)
    p_sweep.add_argument("--json", action="store_true")
    p_sweep.add_argument("--cap", type=int, default=DEFAULT_ORACLE_POINT_CAP)
    return top


def main(argv=None, out=None) -> int:
    out = sys.stdout if out is None else out
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    if args.command == "sweep":
        handler = cmd_sweep
    else:
        from . import commands

        handler = getattr(commands, f"cmd_{args.command}")
    try:
        code = handler(args, out)
        # flush here, so a reader that closed the pipe is caught below
        out.flush()
        return code
    except FourtopsError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Python flushes stdout again at exit; pointing it at devnull keeps
        # that flush from failing a second time
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        print("error: the output was closed before it was all written", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
