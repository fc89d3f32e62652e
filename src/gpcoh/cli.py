"""Command-line surface over the engines and scenario reports.

Subcommands::

    roots  TYPE RANK                      positive roots, rho, adjoint dimension
    bwb    TYPE RANK --crossed K --weight C1,..,Cn    one bundle through Borel-Weil-Bott
    lr     MU NU --rows R                 Littlewood-Richardson coefficients
    koszul --scenario FILE --twist NAME   one restriction chase from a scenario
    report NAME|FILE                      cayley | vmrt | theorem1 | adjunction, or a scenario file

Weights are comma-separated fundamental-weight coefficients (negatives
allowed); partitions are comma lists like "2,1,1". Bundle labels use the
compact grammar from the schur module: "O(-3)", "L3 U*", "S2 U (-1)",
"W[2,1]U * Q", "T". Output is text or JSON (--format, given before the
subcommand); both carry the same numbers. One table, ``_COMMANDS``, gives each
subcommand its handler, which returns (payload, failures, text lines), its
positionals and its required options; one reader takes ``--opt value`` and
``--opt=value``, and a value may start with one dash (``--weight -3,0``). The
JSON document echoes every read argument as ``command.args``. ``-h`` or
``--help`` prints the block above. Exit status is 0 only when every assertion
made by the invoked command holds; failures are listed machine-readably. A
fault in the arguments or the input exits 2 with one ``error:`` line on stderr,
or the JSON error document on stdout under ``--format json``. ``main`` is the in-process API: it
returns the status. The one process entry point ``run``, of the ``gpcoh`` script and of
``python -m gpcoh.cli``, flushes stdout and stderr after ``main`` and ends the process with
``os._exit``, so the interpreter skips its teardown and no atexit handler runs; it exits 1 with
nothing on stderr when a reader closes stdout early (``| head -1``). Nothing is read from the
environment; text output wraps at 100 columns.
"""

from __future__ import annotations

import json
import os
import sys
from types import SimpleNamespace

from .bott import ParabolicSpace, bwb, euler_characteristic
from .root_system import Weight, adjoint_dimension, build_root_system
from .schur import _int_list, _parse_int, gl_dimension, lr_coefficients, parse_partition
from . import scenarios

SCHEMA_VERSION = 1


def _parse_weight(text: str, rank: int) -> Weight:
    coeffs = _int_list(text, "weight")
    if len(coeffs) != rank:
        raise ValueError(f"weight {text!r} has {len(coeffs)} coefficients, expected {rank}")
    return Weight(coeffs)


def _table_payload(table) -> dict:
    degrees = {str(d): {"total": total} for d, total in table.total_dims}
    return {"degrees": degrees, "euler": euler_characteristic(table)}


# ---------------------------------------------------------------------------
# command handlers: each returns (payload, failures, text_lines)


def _cmd_roots(ns) -> tuple[dict, list, list[str]]:
    import textwrap  # here, its one user, so that no other command compiles its patterns

    rs = build_root_system(ns.type, ns.rank)
    payload = {
        "type": rs.type_letter,
        "rank": rs.rank,
        "cartan": [list(row) for row in rs.cartan],
        "positive_roots": [list(r) for r in rs.positive_roots],
        "num_positive_roots": len(rs.positive_roots),
        "rho": list(rs.rho.coeffs),
        "adjoint_dimension": adjoint_dimension(rs),
    }
    lines = [
        f"root system {rs.name}",
        f"positive roots: {len(rs.positive_roots)}",
        f"dim g = {adjoint_dimension(rs)}",
        f"rho = {rs.rho}",
    ]
    roots_text = "  ".join(
        "(" + ",".join(str(c) for c in r) + ")" for r in rs.positive_roots
    )
    lines.extend(textwrap.wrap("roots: " + roots_text, width=100))
    return payload, [], lines


def _cmd_bwb(ns) -> tuple[dict, list, list[str]]:
    rs = build_root_system(ns.type, ns.rank)
    space = ParabolicSpace(rs=rs, crossed=_int_list(ns.crossed, "crossed nodes"))
    omega = _parse_weight(ns.weight, rs.rank)
    res = bwb(space, omega)
    if res.all_vanish:
        payload = {"space": str(space), "weight": list(omega.coeffs), "outcome": "all_vanish"}
        lines = [f"{space}, weight {omega}: all cohomology vanishes"]
    else:
        payload = {
            "space": str(space),
            "weight": list(omega.coeffs),
            "outcome": "cohomology",
            "degree": res.degree,
            "dimension": res.dimension,
            "cohomology_weight": list(res.weight.coeffs),
            "predual_weight": list(res.predual_weight.coeffs),
        }
        lines = [
            f"{space}, weight {omega}:",
            f"H^{res.degree} has dimension {res.dimension}, highest weight {res.weight}"
            f" (pre-dual {res.predual_weight})",
        ]
    return payload, [], lines


def _cmd_lr(ns) -> tuple[dict, list, list[str]]:
    mu = parse_partition(ns.mu)
    nu = parse_partition(ns.nu)
    coeffs = lr_coefficients(mu, nu, ns.rows)
    items = [(lam, c, gl_dimension(lam, ns.rows)) for lam, c in sorted(coeffs.items())]
    dim_sum = sum(c * dim for _, c, dim in items)
    payload = {
        "mu": list(mu.parts),
        "nu": list(nu.parts),
        "rows": ns.rows,
        "coefficients": [
            {"partition": list(lam.parts), "coefficient": c, "gl_dimension": dim}
            for lam, c, dim in items
        ],
        "gl_dimension_sum": dim_sum,
    }
    lines = [f"LR product {mu} x {nu} in at most {ns.rows} rows:"]
    for lam, c, dim in items:
        lines.append(f"  {lam}: {c}  (dim {dim})")
    lines.append(f"dimension sum over GL({ns.rows}): {dim_sum}")
    return payload, [], lines


def _cmd_koszul(ns) -> tuple[dict, list, list[str]]:
    sc = scenarios.load_scenario(ns.scenario)
    complex_, result = sc.chase_twist(ns.twist)
    space = sc.space
    terms_payload = [
        {"index": j, "bundle": str(complex_.terms[j])}
        for j in range(complex_.section_rank, -1, -1)
    ]
    grid_payload = [
        {"term": j, "degree": q, "dimension": dim}
        for (j, q), dim in result.grid
    ]
    payload = {
        "scenario": sc.name,
        "twist": ns.twist,
        "space": str(space),
        "terms": terms_payload,
        "page": grid_payload,
        "hints_used": [h._asdict() for h in result.hints_used],
        "determined": result.determined,
    }
    failures: list = []
    lines = [f"Koszul chase for scenario {sc.name!r}, twist {ns.twist!r} on {space}"]
    for t in terms_payload:
        lines.append(f"  C_{t['index']} = {t['bundle']}")
    if grid_payload:
        lines.append("nonzero ambient cohomology on the page:")
        for cell in grid_payload:
            lines.append(f"  H^{cell['degree']}(C_{cell['term']}) = {cell['dimension']}")
    else:
        lines.append("every term of the resolution is acyclic")
    for h in result.hints_used:
        lines.append(f"  {'assumed' if h.assumed else 'forced'} {h.describe()}")
    if result.determined:
        payload["table"] = _table_payload(result.table)
        dims = result.table.dims()
        if dims:
            for d in sorted(dims):
                lines.append(f"H^{d}(restriction) = {dims[d]}")
        else:
            lines.append("all cohomology of the restriction vanishes")
    else:
        blocking = [list(p) for p in result.blocking_positions]
        payload["blocking_positions"] = blocking
        failures.append({"kind": "indeterminate_chase", "blocking_positions": blocking})
        lines.append(
            "chase is indeterminate; blocking positions: "
            + ", ".join(str(p) for p in result.blocking_positions)
        )
    return payload, failures, lines


def _cmd_report(ns) -> tuple[dict, list, list[str]]:
    report = scenarios.report(ns.name)
    failures = [
        {"kind": "failed_assertion", "key": ln.key, "text": ln.text}
        for ln in report.failures()
    ]
    payload = report.to_dict()
    lines = report.to_text().splitlines()
    return payload, failures, lines


# each subcommand: its handler, its positionals and its required options, each a (name, kind)
# pair, where a kind is str, int, or the tuple of the values it accepts
_COMMANDS = {
    "roots": (_cmd_roots, (("type", str), ("rank", int)), ()),
    "bwb": (_cmd_bwb, (("type", str), ("rank", int)), (("crossed", str), ("weight", str))),
    "lr": (_cmd_lr, (("mu", str), ("nu", str)), (("rows", int),)),
    "koszul": (_cmd_koszul, (), (("scenario", str), ("twist", str))),
    "report": (_cmd_report, (("name", str),), ()),
}
_FRONT_OPTIONS = {"format": ("text", "json")}  # the options read before the subcommand


def _usage() -> str:
    """The usage line and the ``Subcommands::`` block of this module's docstring."""
    block = (__doc__ or "").partition("Subcommands::\n\n")[2].partition("\n\n")[0]
    return f"usage: gpcoh [--format text|json] SUBCOMMAND ...\n\n{block}"


def _value(what: str, kind, text: str):
    """``text`` read as ``what`` (an argument or an option) of the kind ``kind``."""
    if kind is int:
        try:
            return _parse_int(text)
        except ValueError:
            raise ValueError(f"{what} must be an integer, got {text!r}") from None
    if kind is not str and text not in kind:
        raise ValueError(f"{what} must be one of {', '.join(kind)}, got {text!r}")
    return text


def _read_argv(argv: list[str], args: dict) -> str | None:
    """Read ``argv`` into the empty dict ``args`` by name and return the subcommand, or None when
    ``-h`` or ``--help`` asks for the usage. ``args["format"]`` is set as soon as it is read, so
    a later fault is reported in that format. Every fault raises a one-line ValueError."""
    command, options, positionals = None, _FRONT_OPTIONS, ()
    given = 0  # positionals read so far
    tokens = iter(argv)
    for token in tokens:
        if token in ("-h", "--help"):
            return None
        if token.startswith("--"):
            name, eq, text = token[2:].partition("=")
            if name not in options:
                where = f"for subcommand {command!r}" if command else "before the subcommand"
                known = ", ".join(f"--{o}" for o in options) or "none"
                raise ValueError(f"unknown option {token!r} {where}; known: {known}")
            if name in args:
                raise ValueError(f"option --{name} is given twice")
            if not eq:
                text = next(tokens, None)
                if text is None or text.startswith("--"):
                    raise ValueError(f"option --{name} needs a value")
            args[name] = _value(f"option --{name}", options[name], text)
        elif command is None:
            if token not in _COMMANDS:
                raise ValueError(f"unknown subcommand {token!r}; known: {', '.join(_COMMANDS)}")
            command, (_, positionals, required) = token, _COMMANDS[token]
            options = dict(required)
        elif given == len(positionals):
            takes = ", ".join(name for name, _ in positionals) or "none"
            raise ValueError(f"subcommand {command!r} got an extra argument {token!r}; it takes: {takes}")
        else:
            name, kind = positionals[given]
            args[name] = _value(f"argument {name!r}", kind, token)
            given += 1
    if command is None:
        raise ValueError(f"no subcommand given; known: {', '.join(_COMMANDS)}")
    if given < len(positionals):
        raise ValueError(f"subcommand {command!r} lacks argument {positionals[given][0]!r}")
    for name in options:
        if name not in args:
            raise ValueError(f"subcommand {command!r} lacks option --{name}")
    return command


def main(argv: list[str] | None = None) -> int:
    args: dict = {}
    try:
        command = _read_argv(sys.argv[1:] if argv is None else argv, args)
        if command is None:
            print(_usage())
            return 0
        payload, failures, lines = _COMMANDS[command][0](SimpleNamespace(**args))
    except (ValueError, FileNotFoundError) as exc:
        message = str(exc)
        if args.get("format") == "json":
            print(json.dumps({"schema_version": SCHEMA_VERSION, "error": message}))
        else:
            print(f"error: {message}", file=sys.stderr)
        return 2
    if args.pop("format", "text") == "json":
        # the command echo is every read argument but the output format
        document = {
            "schema_version": SCHEMA_VERSION,
            "command": {"name": command, "args": args},
            "result": payload,
            "failures": failures,
        }
        print(json.dumps(document, indent=2, sort_keys=True))
    else:
        print("\n".join(lines))
        if failures:
            print("failures:")
            for f in failures:
                print(f"  {json.dumps(f, sort_keys=True)}")
    return 0 if not failures else 1


def run() -> None:
    """The process entry point, of the ``gpcoh`` script and of ``python -m gpcoh.cli``: runs
    ``main`` on ``sys.argv``, flushes stdout and stderr and ends the process with ``os._exit`` and
    main's status, or 1 when the reader of stdout has closed it early. So the interpreter does not
    tear its modules down, and no atexit handler runs; gpcoh registers none and leaves no file or
    thread open. An exception that escapes ``main`` ends the process the usual way, with its
    traceback. ``main`` is the in-process API, which returns the status."""
    try:
        status = main()
        sys.stdout.flush()  # in the try, so that a reader gone early is met here
    except BrokenPipeError:
        # Python's signal docs, "Note on SIGPIPE": with stdout on devnull, what is left in its
        # buffer can fail no flush again, should the process still end the usual way
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 1
    sys.stderr.flush()
    os._exit(status)


if __name__ == "__main__":
    run()
