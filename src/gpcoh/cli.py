"""Command-line surface over the engines and scenario reports.

Subcommands::

    roots  TYPE RANK                      positive roots, rho, adjoint dimension
    bwb    TYPE RANK --crossed K --weight C1,..,Cn    one bundle through Borel-Weil-Bott
    lr     MU NU --rows R                 Littlewood-Richardson coefficients
    koszul --scenario FILE --twist NAME   one restriction chase from a scenario
    report NAME                           cayley | vmrt | theorem1 | adjunction (scenarios.REPORTS)

Weights are comma-separated fundamental-weight coefficients (negatives
allowed); partitions are comma lists like "2,1,1". Bundle labels use the
compact grammar from the schur module: "O(-3)", "L3 U*", "S2 U (-1)",
"W[2,1]U * Q", "T". Output is text or JSON (--format); both carry the same
numbers. Each subcommand binds its handler, which returns (payload, failures,
text lines); the JSON document echoes every parsed argument as ``command.args``.
Exit status is 0 only when every assertion made by the invoked command holds;
failures are listed machine-readably. Nothing is read from the environment;
text output wraps at 100 columns.
"""

from __future__ import annotations

import argparse
import json
import sys
import textwrap

from .bott import ParabolicSpace, bwb, euler_characteristic
from .root_system import Weight, adjoint_dimension, build_root_system
from .schur import gl_dimension, lr_coefficients, parse_partition
from . import scenarios
from .scenarios import REPORTS, load_scenario

SCHEMA_VERSION = 1


def _int_list(text: str, what: str) -> tuple[int, ...]:
    """The integers of a comma list; anything else fails naming ``what`` and the text."""
    try:
        return tuple(int(t) for t in text.split(","))
    except ValueError as exc:
        raise ValueError(f"cannot parse {what} from {text!r}") from exc


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
    sc = load_scenario(ns.scenario)
    complex_, result = sc.chase_twist(ns.twist)
    space = sc.space
    terms_payload = [
        {"index": j, "bundle": str(complex_.term(j))}
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
    # looked up on the module by name, so a runner rebound there (a tracing wrapper) is the one run
    report = getattr(scenarios, REPORTS[ns.name].__name__)()
    failures = [
        {"kind": "failed_assertion", "key": ln.key, "text": ln.text}
        for ln in report.failures()
    ]
    payload = report.to_dict()
    lines = report.to_text().splitlines()
    return payload, failures, lines


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gpcoh",
        description="Exact cohomology of equivariant bundles on G/P and rigidity reports.",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_roots = sub.add_parser("roots", help="build a root system and list its data")
    p_roots.add_argument("type", help="simple type letter A-G")
    p_roots.add_argument("rank", type=int)
    p_roots.set_defaults(handler=_cmd_roots)

    p_bwb = sub.add_parser("bwb", help="Borel-Weil-Bott for one bundle weight")
    p_bwb.add_argument("type")
    p_bwb.add_argument("rank", type=int)
    p_bwb.add_argument("--crossed", required=True, help="comma list of crossed nodes")
    p_bwb.add_argument(
        "--weight",
        required=True,
        help="comma list of coefficients; use --weight=-3,0 when the first one is negative",
    )
    p_bwb.set_defaults(handler=_cmd_bwb)

    p_lr = sub.add_parser("lr", help="Littlewood-Richardson coefficients")
    p_lr.add_argument("mu")
    p_lr.add_argument("nu")
    p_lr.add_argument("--rows", type=int, required=True)
    p_lr.set_defaults(handler=_cmd_lr)

    p_koszul = sub.add_parser("koszul", help="run one twisted Koszul chase")
    p_koszul.add_argument("--scenario", required=True)
    p_koszul.add_argument("--twist", required=True)
    p_koszul.set_defaults(handler=_cmd_koszul)

    p_report = sub.add_parser("report", help="run a shipped rigidity report")
    p_report.add_argument("name", choices=REPORTS)
    p_report.set_defaults(handler=_cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    try:
        payload, failures, lines = ns.handler(ns)
    except (ValueError, FileNotFoundError) as exc:
        message = str(exc)
        if ns.format == "json":
            print(json.dumps({"schema_version": SCHEMA_VERSION, "error": message}))
        else:
            print(f"error: {message}", file=sys.stderr)
        return 2
    if ns.format == "json":
        # the command echo is every parsed argument but the output format and the dispatch
        args = {k: v for k, v in vars(ns).items() if k not in ("format", "command", "handler")}
        document = {
            "schema_version": SCHEMA_VERSION,
            "command": {"name": ns.command, "args": args},
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


if __name__ == "__main__":
    sys.exit(main())
