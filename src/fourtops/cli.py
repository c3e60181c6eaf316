"""Command-line front door: the grammar, its reader and the entry point.
Importing it loads ``fourtops.errors`` alone.  ``main`` reads the command
line off ``GRAMMAR`` and imports argparse only for help and usage errors; it
imports a command's handler only when that command runs: ``sweep`` from
``fourtops.sweep``, ``enumerate`` with the input reader and the census
writer from ``fourtops.commands``, ``check`` from ``fourtops.check``, the
rest from ``fourtops.handlers``.
Exit codes: 0 all checks pass, 1 counterexample found, 2 usage or parse error.
``run``, the entry point of ``python -m fourtops.cli`` and of the ``fourtops``
script, ends the process with ``main``'s code once its output is flushed.
"""

import io
import os
import sys
from types import SimpleNamespace

from .errors import DEFAULT_ORACLE_POINT_CAP, DEFAULT_PAIR_CAP, STRUCTURE_KINDS, FourtopsError


# -- the command line --------------------------------------------------------------


# A row of the grammar: spellings (none for a positional), dest, kind (``str``,
# ``int``, ``bool`` for a flag, or the tuple of its choices), default, whether
# it is required, and help.
_INPUT = (("-i", "--input"), "input", str, None, False, "input file ('-' for stdin)")
_TEXT = (("-t", "--text"), "text", str, None, False, "inline input text")
_JSON = (("--json",), "json", bool, False, False, "structured output")
_IO = (_INPUT, _TEXT, _JSON)
_FROM = (("--from",), "source", STRUCTURE_KINDS, None, True, "the face the input's structure payload gives")
_TO = (("--to",), "target", STRUCTURE_KINDS, None, True, "the face to write")
_MODE = "formula: one structure per point subset; oracle: search by the axioms alone (default formula)"
_SWEEP_CAP = f"largest p + q, the oracle point cap (default {DEFAULT_ORACLE_POINT_CAP})"
_SHOW = "h: the down-set algebra; omega: the sieves on each point; true: the maximal sieve on each point"
_FAMILY = "nuclei, grotops (covering families) or lttops (classifier endomaps)"
_CHECK = "axioms: the axiom suites of each LT topology; conjectures, topmost, roundtrips: the route reports"
_RENDER = "zha: the down-set lattice; omega: the sieves; j, grotop, fouruple: the payload's endomap, covers or quad"


def _positional(dest, help, *choices):
    return ((), dest, choices, None, True, help)


# The CLI's grammar: each subcommand, in help order, with its help line and
# its rows in usage order.  ``main`` reads the command line off it, and
# ``build_parser`` builds argparse from it for help and usage errors.
GRAMMAR = {
    "show": ("display h, omega, or the true map", (_positional("what", _SHOW, "h", "omega", "true"), *_IO)),
    "chi": ("classifying map of a subterminal (y payload)", _IO),
    "convert": ("convert between representations", (_FROM, _TO, *_IO)),
    "fouruple": ("complete all four representations", (_FROM, *_IO)),
    "enumerate": ("enumerate structures on the poset", (
        _positional("family", _FAMILY, "nuclei", "grotops", "lttops"),
        (("--mode",), "mode", ("formula", "oracle"), "formula", False, _MODE), *_IO,
        (("--cap",), "cap", int, None, False, f"point cap of --mode oracle (default {DEFAULT_ORACLE_POINT_CAP})"),
    )),
    "check": ("run axiom or agreement checkers", (
        _positional("what", _CHECK, "axioms", "conjectures", "topmost", "roundtrips"), *_IO,
        (("--cap",), "cap", int, None, False, f"pair cap for check axioms (default {DEFAULT_PAIR_CAP})"),
    )),
    "render": ("text renderings", (_positional("what", _RENDER, "zha", "omega", "j", "grotop", "fouruple"), _INPUT, _TEXT)),
    "sweep": ("batch checks over a 2cg family", (
        (("--pmax",), "pmax", int, 2, False, "largest left-column height p (default 2)"),
        (("--qmax",), "qmax", int, 2, False, "largest right-column height q (default 2)"),
        _JSON,
        (("--cap",), "cap", int, DEFAULT_ORACLE_POINT_CAP, False, _SWEEP_CAP),
    )),
}


def _is_value(word: str) -> bool:
    # the words every supported argparse reads as a value or a positional;
    # which other words that start with '-' it does differs between versions
    return word[:1] != "-" or word == "-" or word[1:].isdecimal()


def read_command_line(argv: list) -> SimpleNamespace | None:
    """The namespace argparse gives ``argv``, read off ``GRAMMAR``; None for
    argparse to read: help, ``--``, an unknown or ambiguous option, a missing
    value or required row, a bad choice or int, a stray word, or a value that
    starts with '-' and is neither '-' nor a negative integer."""
    if not argv or argv[0] not in GRAMMAR or "--" in argv:
        return None
    rows = GRAMMAR[argv[0]][1]
    spelled = {"-h": None, "--help": None} | {s: row for row in rows for s in row[0]}
    # argparse also takes a prefix of one long spelling alone
    prefixes = [(s[:k], row) for s, row in spelled.items() if s[1] == "-" for k in range(3, len(s))]
    heads = [head for head, _ in prefixes]
    spelled = {head: row for head, row in prefixes if heads.count(head) == 1} | spelled
    positionals = [row for row in rows if not row[0]]
    values = {"command": argv[0]} | {row[1]: row[3] for row in rows}
    words = iter(argv[1:])
    for word in words:
        name, eq, value = word.partition("=")
        if _is_value(word):
            row, value = positionals.pop(0) if positionals else None, word
        elif word in spelled:
            row, value = spelled[word], None
        elif eq and name in spelled:
            row = spelled[name]
        else:  # -tVALUE
            row, value = spelled.get(word[:2]) if word[1] != "-" else None, word[2:]
        if row and row[2] is bool:
            value = True if value is None else None
        elif row and value is None:
            value = next(words, None)
            if value is not None and not _is_value(value):
                return None
        # argparse reads an attached '--' (``--cap=--``) as an empty list
        if row is None or value is None or value == "--":
            return None
        if row[2] is int:
            try:
                value = int(value)
            except ValueError:
                return None
        elif row[2] not in (str, bool) and value not in row[2]:
            return None
        values[row[1]] = value
    # no value read is None, so a required row that is still None was not given
    if any(row[4] and values[row[1]] is None for row in rows):
        return None
    return SimpleNamespace(**values)


def build_parser():
    """The CLI's argparse parser, built from ``GRAMMAR``, for help and usage
    errors."""
    import argparse

    class Store(argparse.Action):
        # argparse on Python 3.11 reads an attached '--' (``--cap=--``, ``-t--``) as []
        def __call__(self, parser, namespace, values, option_string=None):
            if values in ([], "--"):
                raise argparse.ArgumentError(self, "expected one argument")
            setattr(namespace, self.dest, values)

    top = argparse.ArgumentParser(
        prog="fourtops",
        description="compute, convert, render, and check topologies on "
        "presheaves over finite posets",
    )
    # the errors of a missing or unknown subcommand name it by its choices
    sub = top.add_subparsers(dest="command", required=True, metavar="{" + ",".join(GRAMMAR) + "}")
    for name, (help, rows) in GRAMMAR.items():
        p = sub.add_parser(name, help=help)
        for spellings, dest, kind, default, required, help in rows:
            how = {bool: {"action": "store_true"}, int: {"type": int}, str: {}}.get(kind, {"choices": kind})
            if spellings:
                how = {"action": Store, "dest": dest, "required": required} | how
            p.add_argument(*spellings or [dest], default=default, help=help, **how)
    return top


def main(argv=None, out=None) -> int:
    out = sys.stdout if out is None else out
    argv = sys.argv[1:] if argv is None else list(argv)
    args = read_command_line(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as e:
            return 2 if e.code not in (0, None) else 0
    if args.command == "sweep":
        from .sweep import cmd_sweep as handler
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
