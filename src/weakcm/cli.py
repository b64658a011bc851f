"""Command-line front end.

Subcommands map one-to-one onto the library operations; input documents are
JSON files (see README for the schemas), output is a deterministic report
envelope on stdout.  Exit codes: 0 ok (status ``ok``), 1 invalid input
(status ``invalid-input``, a named condition), 2 a math error (status
``math-error``) or an unexpected exception, which is a library bug (status
``internal-error``, condition ``internal``).

Each subcommand compiles only the code it runs: the top level imports
nothing beyond ``argparse``, ``json`` and the error classes, every handler
imports its own modules when it is called, and the Dodson and Hodge
handlers live in ``cli_dodson`` and ``cli_hodge``, imported only by their
subcommands.  ``main`` parses with a parser that holds only the named
subcommand (the full one when the name is missing or unknown), built once
per process.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import InputError, WeakCMError


# --------------------------------------------------------------------------
# handlers


def _cmd_classify_field(args):
    from . import serialize

    field = serialize.parse_field(serialize.load_document(args.input))
    return serialize.field_report(field)


def _cmd_galois(args):
    from . import cmfield, serialize

    field = serialize.parse_field(serialize.load_document(args.input))
    gg = cmfield.galois_group(field)
    return {
        "case": field.case,
        "order": gg.order,
        "conjugation": gg.elements[gg.conj_index].label,
        "embeddings": list(gg.embedding_words),
        "embedding_pairing": list(gg.pairing),
        "elements": [
            {
                "label": g.label,
                "embedding_perm": list(perm),
                "action": g.action_table(),
            }
            for g, perm in zip(gg.elements, gg.action)
        ],
    }


def _cmd_reflex(args):
    from . import serialize

    field = serialize.parse_field(serialize.load_document(args.input))
    return serialize.reflex_report(field)


def _cmd_validate(args):
    from . import serialize, tausplit

    pm = serialize.parse_period_matrix(serialize.load_document(args.input))
    de = tausplit.validate_weak_cm(pm)
    return serialize.validation_report(pm, de)


def _cmd_split(args):
    from . import serialize, tausplit

    pm = serialize.parse_period_matrix(serialize.load_document(args.input))
    cert, verified = tausplit.split(pm)
    return serialize.certificate_report(cert, verified.ok)


# the other subcommands run cli_dodson.cmd_<name> or cli_hodge.cmd_<name>


def _cmd_dodson(args):
    from . import cli_dodson

    return getattr(cli_dodson, "cmd_" + args.subcommand.replace("-", "_"))(args)


def _cmd_hodge(args):
    from . import cli_hodge

    return getattr(cli_hodge, "cmd_" + args.subcommand.replace("-", "_"))(args)


# --------------------------------------------------------------------------
# plumbing


def _emit_text(obj, indent=0, key=None, lines=None):
    lines = [] if lines is None else lines
    prefix = "  " * indent + (f"{key}: " if key is not None else "")
    if isinstance(obj, dict):
        if key is not None:
            lines.append("  " * indent + f"{key}:")
        for k, v in obj.items():
            _emit_text(v, indent + (key is not None), k, lines)
    elif isinstance(obj, list) and obj and isinstance(obj[0], (dict, list)):
        lines.append("  " * indent + f"{key}:")
        for i, v in enumerate(obj):
            _emit_text(v, indent + 1, f"[{i}]", lines)
    else:
        lines.append(prefix + json.dumps(obj))
    return lines


def _print_report(report, emit):
    if emit == "json":
        sys.stdout.write(json.dumps(report, indent=2) + "\n")
    else:
        sys.stdout.write("\n".join(_emit_text(report)) + "\n")


_COMMANDS = {
    "classify-field": (_cmd_classify_field, "classify CM field parameters", True),
    "galois": (_cmd_galois, "Galois group and embedding action", True),
    "reflex": (_cmd_reflex, "reflex field for cases B/C", True),
    "validate": (_cmd_validate, "validate a weak-CM period matrix", True),
    "split": (_cmd_split, "split a period matrix into CM factors", True),
    "dodson-enum": (_cmd_dodson, "enumerate admissible subgroups", False),
    "dodson-classify": (_cmd_dodson, "classify subgroups modulo the slot stabilizer", False),
    "dodson-reflex": (_cmd_dodson, "level-n reflex data of a weight-1 type", True),
    "presets": (_cmd_dodson, "the 13 weight-1 configurations and their reflexes", False),
    "k3t2": (_cmd_hodge, "weak-CM analysis of a K3 x elliptic product", True),
    "product": (_cmd_hodge, "tensor product and factor verdicts", True),
    "weil-griffiths": (_cmd_hodge, "weight-1 repackagings of a weight-3 structure", True),
}


def build_parser(only=None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or, given a subcommand's name, one
    that holds only its subparser.  The top-level usage lists all names
    either way; the full parser leaves them to argparse, whose error text
    then names the argument ``subcommand``."""
    parser = argparse.ArgumentParser(
        prog="weakcm",
        description="exact CM-field classification, Dodson data, and "
                    "isogeny splitting",
    )
    metavar = None if only is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="subcommand", required=True, metavar=metavar)
    for name, (_handler, help_text, takes_input) in _COMMANDS.items():
        if only not in (None, name):
            continue
        p = sub.add_parser(name, help=help_text)
        if takes_input:
            p.add_argument("--input", "-i", default=None,
                           help="input JSON document ('-' or omit for stdin)")
        if name in ("dodson-enum", "dodson-classify"):
            p.add_argument("--n", type=int, required=True)
            # None stands for dodson's default (see cli_dodson._bound), so
            # that building the parser loads no library module
            p.add_argument("--bound", type=int, default=None)
        if name == "dodson-classify":
            p.add_argument("--partition", required=True,
                           help="abl | k3 | cy3 | inline JSON block list")
        p.add_argument("--emit", choices=("json", "text"), default="json")
    return parser


# parsers built so far, keyed by subcommand name (None for the full one)
_PARSERS = {}


def main(argv=None) -> int:
    """Run one subcommand, parsed by its own parser (see ``build_parser``),
    and print its report; returns the exit code.

    Exact results can have more digits than Python converts to a string by
    default, so the limit is lifted while the command runs and restored
    afterwards.  The command line is parsed under the default limit, and
    every number a document supplies is bounded where it is read: rationals
    by ``parse_rational``, integers as JSON literals of at most
    ``RationalTooLarge.DIGITS`` digits.
    """
    if argv is None:
        argv = sys.argv[1:]
    name = argv[0] if argv and argv[0] in _COMMANDS else None
    parser = _PARSERS.get(name)
    if parser is None:
        parser = _PARSERS[name] = build_parser(name)
    args = parser.parse_args(argv)
    digits = getattr(sys, "get_int_max_str_digits", None)
    if digits is None:
        return _run(args)
    saved = digits()
    sys.set_int_max_str_digits(0)
    try:
        return _run(args)
    finally:
        sys.set_int_max_str_digits(saved)


def _run(args) -> int:
    try:
        payload = _COMMANDS[args.subcommand][0](args)
        report = {"status": "ok", "payload": payload, "diagnostics": []}
        code = 0
    except InputError as exc:
        report = {
            "status": "invalid-input",
            "payload": None,
            "diagnostics": [{"condition": exc.condition, "message": str(exc)}],
        }
        code = 1
    except WeakCMError as exc:
        report = {
            "status": "math-error",
            "payload": None,
            "diagnostics": [{"condition": exc.condition, "message": str(exc)}],
        }
        code = 2
    except Exception as exc:  # a library bug: report it, do not crash
        import traceback  # imported here to keep it out of every start-up

        traceback.print_exc(file=sys.stderr)
        report = {
            "status": "internal-error",
            "payload": None,
            "diagnostics": [{"condition": "internal", "message": repr(exc)}],
        }
        code = 2
    _print_report(report, args.emit)
    return code


if __name__ == "__main__":
    sys.exit(main())
