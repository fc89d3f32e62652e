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
numbers. Exit status is 0 only when every assertion made by the invoked
command holds; failures are listed machine-readably. Nothing is read from the
environment; text output wraps at 100 columns.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import textwrap

from .bott import ParabolicSpace, bwb, euler_characteristic
from .root_system import Weight, adjoint_dimension, build_root_system
from .schur import gl_dimension, lr_coefficients, parse_partition
from . import scenarios
from .scenarios import REPORTS, load_scenario

SCHEMA_VERSION = 1


def _parse_weight(text: str, rank: int) -> Weight:
    try:
        coeffs = tuple(int(t) for t in text.split(","))
    except ValueError as exc:
        raise ValueError(f"cannot parse weight from {text!r}") from exc
    if len(coeffs) != rank:
        raise ValueError(f"weight {text!r} has {len(coeffs)} coefficients, expected {rank}")
    return Weight(coeffs)


def _parse_crossed(text: str) -> frozenset[int]:
    try:
        return frozenset(int(t) for t in text.split(","))
    except ValueError as exc:
        raise ValueError(f"cannot parse crossed nodes from {text!r}") from exc


def _document(command: str, args: dict, result: dict, failures: list) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": {"name": command, "args": args},
        "result": result,
        "failures": failures,
    }


def _table_payload(table) -> dict:
    degrees = {}
    for d, total in table.total_dims:
        row: dict = {"total": total}
        if table.entries is not None:
            row["weights"] = [
                {"coeffs": list(w.coeffs), "multiplicity": m}
                for w, m in table.weights_at(d)
            ]
        degrees[str(d)] = row
    return {"degrees": degrees, "euler": euler_characteristic(table)}


# ---------------------------------------------------------------------------
# command handlers: each returns (payload, text_lines)


def _cmd_roots(ns) -> tuple[dict, list[str]]:
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
    return _document("roots", {"type": ns.type, "rank": ns.rank}, payload, []), lines


def _cmd_bwb(ns) -> tuple[dict, list[str]]:
    rs = build_root_system(ns.type, ns.rank)
    space = ParabolicSpace(rs=rs, crossed=_parse_crossed(ns.crossed))
    omega = _parse_weight(ns.weight, rs.rank)
    res = bwb(space, omega)
    args = {"type": ns.type, "rank": ns.rank, "crossed": ns.crossed, "weight": ns.weight}
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
    return _document("bwb", args, payload, []), lines


def _cmd_lr(ns) -> tuple[dict, list[str]]:
    mu = parse_partition(ns.mu)
    nu = parse_partition(ns.nu)
    coeffs = lr_coefficients(mu, nu, ns.rows)
    items = sorted(coeffs.items(), key=lambda kv: kv[0].parts)
    dim_sum = sum(c * gl_dimension(lam, ns.rows) for lam, c in items)
    payload = {
        "mu": list(mu.parts),
        "nu": list(nu.parts),
        "rows": ns.rows,
        "coefficients": [
            {
                "partition": list(lam.parts),
                "coefficient": c,
                "gl_dimension": gl_dimension(lam, ns.rows),
            }
            for lam, c in items
        ],
        "gl_dimension_sum": dim_sum,
    }
    lines = [f"LR product {mu} x {nu} in at most {ns.rows} rows:"]
    for lam, c in items:
        lines.append(f"  {lam}: {c}  (dim {gl_dimension(lam, ns.rows)})")
    lines.append(f"dimension sum over GL({ns.rows}): {dim_sum}")
    return _document("lr", {"mu": ns.mu, "nu": ns.nu, "rows": ns.rows}, payload, []), lines


def _cmd_koszul(ns) -> tuple[dict, list[str]]:
    sc = load_scenario(ns.scenario)
    complex_, result = sc.chase_twist(ns.twist)
    space = sc.space
    args = {"scenario": ns.scenario, "twist": ns.twist}
    terms_payload = [
        {"index": j, "bundle": str(complex_.term(j))}
        for j in range(complex_.section_rank, -1, -1)
    ]
    grid_payload = [
        {"term": j, "degree": q, "dimension": dim}
        for (j, q), dim in result.page.grid
    ]
    hints_payload = [dataclasses.asdict(h) for h in result.page.hints_used]
    payload = {
        "scenario": sc.name,
        "twist": ns.twist,
        "space": str(space),
        "terms": terms_payload,
        "page": grid_payload,
        "hints_used": hints_payload,
        "determined": result.determined,
    }
    if result.page.hints_unreached:
        payload["hints_unreached"] = [dataclasses.asdict(h) for h in result.page.hints_unreached]
    failures: list = []
    lines = [f"Koszul chase for scenario {sc.name!r}, twist {ns.twist!r} on {space}"]
    for t in terms_payload:
        lines.append(f"  C_{t['index']} = {t['bundle']}")
    if grid_payload:
        lines.append("nonzero ambient cohomology on the page:")
        for cell in grid_payload:
            lines.append(
                f"  H^{cell['degree']}(C_{cell['term']}) = {cell['dimension']}"
            )
    else:
        lines.append("every term of the resolution is acyclic")
    for h in result.page.hints_used:
        lines.append(f"  assumed {h.describe()}")
    for h in result.page.hints_unreached:
        lines.append(
            f"  not reached: provided hint at term {h.target_term} degree {h.degree} rank {h.rank}"
        )
    if result.determined:
        payload["table"] = _table_payload(result.table)
        dims = result.table.dims()
        if dims:
            for d in sorted(dims):
                lines.append(f"H^{d}(restriction) = {dims[d]}")
        else:
            lines.append("all cohomology of the restriction vanishes")
    else:
        payload["blocking_positions"] = [list(p) for p in result.blocking_positions]
        failures.append(
            {
                "kind": "indeterminate_chase",
                "blocking_positions": [list(p) for p in result.blocking_positions],
            }
        )
        lines.append(
            "chase is indeterminate; blocking positions: "
            + ", ".join(str(p) for p in result.blocking_positions)
        )
    return _document("koszul", args, payload, failures), lines


def _cmd_report(ns) -> tuple[dict, list[str]]:
    # looked up on the module by name, so a runner rebound there (a tracing wrapper) is the one run
    report = getattr(scenarios, REPORTS[ns.name].__name__)()
    failures = [
        {"kind": "failed_assertion", "key": ln.key, "text": ln.text}
        for ln in report.failures()
    ]
    payload = report.to_dict()
    lines = report.to_text().splitlines()
    return _document("report", {"name": ns.name}, payload, failures), lines


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

    p_bwb = sub.add_parser("bwb", help="Borel-Weil-Bott for one bundle weight")
    p_bwb.add_argument("type")
    p_bwb.add_argument("rank", type=int)
    p_bwb.add_argument("--crossed", required=True, help="comma list of crossed nodes")
    p_bwb.add_argument(
        "--weight",
        required=True,
        help="comma list of coefficients; use --weight=-3,0 when the first one is negative",
    )

    p_lr = sub.add_parser("lr", help="Littlewood-Richardson coefficients")
    p_lr.add_argument("mu")
    p_lr.add_argument("nu")
    p_lr.add_argument("--rows", type=int, required=True)

    p_koszul = sub.add_parser("koszul", help="run one twisted Koszul chase")
    p_koszul.add_argument("--scenario", required=True)
    p_koszul.add_argument("--twist", required=True)

    p_report = sub.add_parser("report", help="run a shipped rigidity report")
    p_report.add_argument("name", choices=REPORTS)

    return parser


_HANDLERS = {
    "roots": _cmd_roots,
    "bwb": _cmd_bwb,
    "lr": _cmd_lr,
    "koszul": _cmd_koszul,
    "report": _cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    try:
        document, lines = _HANDLERS[ns.command](ns)
    except (ValueError, KeyError, FileNotFoundError) as exc:
        # str() of a KeyError is the repr of its argument, quotes included
        message = str(exc.args[0]) if isinstance(exc, KeyError) else str(exc)
        if ns.format == "json":
            print(json.dumps({"schema_version": SCHEMA_VERSION, "error": message}))
        else:
            print(f"error: {message}", file=sys.stderr)
        return 2
    if ns.format == "json":
        print(json.dumps(document, indent=2, sort_keys=True))
    else:
        print("\n".join(lines))
        if document["failures"]:
            print("failures:")
            for f in document["failures"]:
                print(f"  {json.dumps(f, sort_keys=True)}")
    return 0 if not document["failures"] else 1


if __name__ == "__main__":
    sys.exit(main())
