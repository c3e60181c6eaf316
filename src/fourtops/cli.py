"""Command-line front door: the argument parser, the entry point and the
sweep.  Importing it loads ``fourtops.errors`` alone, and the parser builds
only the subparser that argv's first word names.  ``main`` imports the other
commands' handlers only when one of them runs: ``enumerate`` with the input
reader and the census writer from ``fourtops.commands``, ``check``
from ``fourtops.check``, the rest from ``fourtops.handlers``.
Exit codes: 0 all checks pass, 1 counterexample found, 2 usage or parse error.
``run``, the entry point of ``python -m fourtops.cli`` and of the ``fourtops``
script, ends the process with ``main``'s code once its output is flushed.
"""

from __future__ import annotations

import argparse
import io
import os
import sys

from .errors import (
    DEFAULT_ORACLE_POINT_CAP,
    DEFAULT_PAIR_CAP,
    STRUCTURE_KINDS,
    FourtopsError,
    SizeCapExceeded,
    _require_at_least,
)


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


# the subcommands, in help order
_SUBCOMMANDS = ("show", "chi", "convert", "fouruple", "enumerate", "check", "render", "sweep")


def build_parser(argv=()) -> argparse.ArgumentParser:
    """The CLI's parser.  When ``argv``'s first word names a subcommand,
    only that subparser is built; with no word, ``-h`` or an unknown word,
    all of them are, so the top-level help and usage errors list every
    subcommand.  The usage line names every subcommand either way."""
    top = argparse.ArgumentParser(
        prog="fourtops",
        description="compute, convert, render, and check topologies on "
        "presheaves over finite posets",
    )
    # the metavar argparse gives the choices when all of them are built
    sub = top.add_subparsers(dest="command", required=True, metavar="{" + ",".join(_SUBCOMMANDS) + "}")
    named = argv[0] if argv and argv[0] in _SUBCOMMANDS else None

    def wanted(name, help):
        return sub.add_parser(name, help=help) if named in (None, name) else None

    def add_common(p, json=True):
        p.add_argument("-i", "--input", help="input file ('-' for stdin)")
        p.add_argument("-t", "--text", help="inline input text")
        if json:
            p.add_argument("--json", action="store_true", help="structured output")

    if p := wanted("show", "display h, omega, or the true map"):
        p.add_argument("what", choices=["h", "omega", "true"])
        add_common(p)

    if p := wanted("chi", "classifying map of a subterminal (y payload)"):
        add_common(p)

    if p := wanted("convert", "convert between representations"):
        p.add_argument("--from", dest="source", choices=STRUCTURE_KINDS, required=True)
        p.add_argument("--to", dest="target", choices=STRUCTURE_KINDS, required=True)
        add_common(p)

    if p := wanted("fouruple", "complete all four representations"):
        p.add_argument("--from", dest="source", choices=STRUCTURE_KINDS, required=True)
        add_common(p)

    if p := wanted("enumerate", "enumerate structures on the poset"):
        p.add_argument("family", choices=["nuclei", "grotops", "lttops"])
        p.add_argument("--mode", choices=["formula", "oracle"], default="formula")
        add_common(p)
        p.add_argument(
            "--cap", type=int, help=f"point cap of --mode oracle (default {DEFAULT_ORACLE_POINT_CAP})"
        )

    if p := wanted("check", "run axiom or agreement checkers"):
        p.add_argument("what", choices=["axioms", "conjectures", "topmost", "roundtrips"])
        add_common(p)
        p.add_argument(
            "--cap", type=int, help=f"pair cap for check axioms (default {DEFAULT_PAIR_CAP})"
        )

    if p := wanted("render", "text renderings"):
        p.add_argument("what", choices=["zha", "omega", "j", "grotop", "fouruple"])
        add_common(p, json=False)

    if p := wanted("sweep", "batch checks over a 2cg family"):
        p.add_argument("--pmax", type=int, default=2)
        p.add_argument("--qmax", type=int, default=2)
        p.add_argument("--json", action="store_true")
        p.add_argument("--cap", type=int, default=DEFAULT_ORACLE_POINT_CAP)
    return top


def main(argv=None, out=None) -> int:
    out = sys.stdout if out is None else out
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    if args.command == "sweep":
        handler = cmd_sweep
    elif args.command == "enumerate":
        from .commands import cmd_enumerate as handler
    elif args.command == "check":
        from .check import cmd_check as handler
    else:
        from . import handlers

        handler = getattr(handlers, f"cmd_{args.command}")
    try:
        code = handler(args, out)
        # flush here, so a reader that closed the pipe is caught below
        out.flush()
        return code
    except FourtopsError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return _output_closed()


def _output_closed() -> int:
    # Python flushes stdout again at exit; pointing it at devnull keeps
    # that flush from failing a second time
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    print("error: the output was closed before it was all written", file=sys.stderr)
    return 2


def run() -> None:
    """Run ``main`` on the command line and end the process with its code
    once stdout and stderr are flushed."""
    stdout = sys.stdout
    if isinstance(getattr(stdout, "buffer", None), io.RawIOBase):
        # Unbuffered (``-u`` or PYTHONUNBUFFERED), the text layer hands each
        # write to the raw file and drops what a reader that closed the pipe
        # midway left unwritten; a buffered writer retries it and so meets
        # the closed pipe.  Line buffering keeps each line prompt.
        sys.stdout = io.TextIOWrapper(
            io.BufferedWriter(stdout.buffer),
            encoding=stdout.encoding,
            errors=stdout.errors,
            line_buffering=True,
        )
    code = main()
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        code = _output_closed()
    sys.stderr.flush()
    # The interpreter's teardown frees every object one by one and finalizes
    # the modules that site loaded, 11-19 ms of a run, and nothing the CLI
    # holds needs it: the package registers no atexit handler and the
    # sweep's forked workers have already been reaped.  An exception that
    # escapes main never gets here, so it keeps its traceback and exit 1.
    os._exit(code)


if __name__ == "__main__":
    run()
