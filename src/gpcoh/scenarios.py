"""Declarative scenarios binding the engines to auditable rigidity reports.

Each report reads one kind of scenario file, whole, once, at load (``_load``). A
zero-locus file names an ambient homogeneous space, a section bundle whose zero
locus is under study, bundles to restrict, and exactly the external constants its
report reads (``_read_constants``); an audit file lists the cases of its report.
Every external constant must carry a provenance string, and reports label each
numeric claim as computed or external. A fault in a file names the file and the
block one way (``_fault``). Each report is written through one ledger (``_Ledger``);
``Scenario.chase_twist`` serves ``cayley`` and ``gpcoh koszul``.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from pathlib import Path
from typing import NamedTuple

from .bott import ParabolicSpace, bwb, canonical_twist_weight
from .koszul import ChaseResult, KoszulComplex, RankHint, build_koszul, chase, solve_sequence
from .root_system import Weight, adjoint_dimension, build_root_system, weyl_dimension
from .schur import BundleSum, exterior_power_sum, grassmannian_kn, label_to_weight, parse_bundle

__all__ = [
    "ExternalConstant",
    "Scenario",
    "ReportLine",
    "ReportSection",
    "RigidityReport",
    "load_scenario",
    "run_cayley",
    "run_vmrt_audit",
    "run_theorem1_audit",
    "run_adjunction_audit",
    "REPORTS",
]

_SCHEMA_VERSION = 1  # the only scenario file layout this loader reads
_TOP = "top level"  # the block name of the file's own keys

# Block kinds, each declared once, map each key to its kind; a key ending in "?" is optional. A kind is a
# JSON type (str or int), [kind] for a list of it, or a block kind.
_ROOT_SYSTEM = {"type": str, "rank": int}
_NAMED_ROOT_SYSTEM = {**_ROOT_SYSTEM, "name": str}
_SPACE = {**_ROOT_SYSTEM, "crossed": [int]}
_NAMED_SPACE = {**_SPACE, "name": str}
_PAIR = {"group_root_system": _ROOT_SYSTEM, "subgroup_root_system": _ROOT_SYSTEM}
_CONSTANT = {"name": str, "value": int, "provenance": str}
_VMRT_CASE = {  # a case of the vmrt report
    "name": str, "vmrt": _NAMED_SPACE, "symmetric_space": {"group": str, "fixed_subgroup": str, **_PAIR},
    "vmrt_ambient_rep": {**_ROOT_SYSTEM, "weight": [int], "name": str}, "hyperplane_section_of": _NAMED_SPACE,
}
_THEOREM1_CASE = {  # a case of the theorem1 report
    "name": str, "aut_root_system": _NAMED_ROOT_SYSTEM, "space_dim": _PAIR,
    "cone_aut_semisimple": _NAMED_ROOT_SYSTEM, "external_constants": [_CONSTANT],
}
# File kinds: the keys every file shares, then those of the report that reads it
_FILE = {"schema_version": int, "name?": str, "title?": str, "description?": str}
_TWIST = {"name": str, "label": str, "rank_hints?": [dict.fromkeys(RankHint._fields, int)]}
_ZERO_LOCUS_FILE = {
    **_FILE, "ambient": _SPACE, "section_bundle": str, "twists?": [_TWIST], "external_constants?": [_CONSTANT],
}
_VMRT_FILE = {**_FILE, "cases": [_VMRT_CASE], "extra_spaces?": [_NAMED_SPACE]}
_THEOREM1_FILE = {**_FILE, "cases": [_THEOREM1_CASE]}
_JSON_TYPES = {dict: "a JSON object", list: "a list", str: "a string", int: "an integer"}


class ExternalConstant(NamedTuple):
    name: str
    value: int
    provenance: str


def _fault(file: str, block: str, message: str) -> ValueError:
    """The one form of every fault that names a block of a scenario file."""
    return ValueError(f"scenario file {file!r}: block {block!r} {message}")


@contextmanager
def _naming(file: str, block: str, key: str):
    """Re-raise an engine ValueError raised inside as the fault of ``key`` in ``block``."""
    try:
        yield
    except ValueError as exc:
        raise _fault(file, block, f"key {key!r}: {exc}") from exc


class Scenario(NamedTuple):
    """A loaded zero-locus file, named as errors name it: the ambient space, the section
    bundle, each twist by name as (its index in the file's ``twists``, its bundle, its rank
    hints), and the external constants by name."""

    file: str
    name: str
    title: str
    space: ParabolicSpace
    section_bundle: BundleSum
    twists: dict[str, tuple[int, BundleSum, tuple[RankHint, ...]]]
    external_constants: dict[str, ExternalConstant]

    def chase_twist(self, name: str) -> tuple[KoszulComplex, ChaseResult]:
        """The Koszul resolution twisted by ``name`` and its chase under that twist's own rank
        hints, which may be indeterminate. An unknown twist, or a section or a hint the engine
        rejects, fails naming the file, the block and the key."""
        if name not in self.twists:
            raise _fault(self.file, "twists", f"has no twist {name!r}; known: {', '.join(self.twists) or 'none'}")
        i, bundle, hints = self.twists[name]
        with _naming(self.file, _TOP, "section_bundle"):
            complex_ = build_koszul(self.space, self.section_bundle, bundle)
        with _naming(self.file, f"twists[{i}]", "rank_hints"):
            return complex_, chase(complex_, hints)


def _read(value, kind, file: str, block: str, key: str) -> None:
    """Check ``value``, the value of ``key`` in ``block``, against ``kind``: its JSON type
    exactly (a bool or a float is no integer), then each item of a list and each key of a
    nested block. Any fault fails naming the file, the block and the key."""
    json_type = kind if isinstance(kind, type) else type(kind)
    if type(value) is not json_type:
        raise _fault(file, block, f"key {key!r} must be {_JSON_TYPES[json_type]}, got {json.dumps(value)}")
    if type(kind) is list:
        for i, item in enumerate(value):
            _read(item, kind[0], file, block, f"{key}[{i}]")
    elif type(kind) is dict:
        _block(value, kind, file, key if block == _TOP else f"{block}.{key}")


def _block(block: dict, kind: dict, file: str, name: str) -> None:
    """Read ``block`` against the block kind ``kind``: a key it does not declare or a
    required key that is absent fails naming the file, the block and the key."""
    keys = {declared.removesuffix("?"): declared for declared in kind}
    for key in block:
        if key not in keys:
            raise _fault(file, name, f"has unknown key {key!r}; known: {', '.join(keys)}")
    for key, declared in keys.items():
        if key in block:
            _read(block[key], kind[declared], file, name, key)
        elif key == declared:
            raise _fault(file, name, f"lacks key {key!r}")


def _constants(items: list[dict], file: str, block: str) -> dict[str, ExternalConstant]:
    """The read constant blocks ``items`` by name; an empty name or provenance, or a name
    repeated within the list, fails naming the file, the block and the key."""
    out: dict[str, ExternalConstant] = {}
    for i, item in enumerate(items):
        where = f"{block}[{i}]"
        const = ExternalConstant(item["name"], item["value"], item["provenance"].strip())
        for key in ("name", "provenance"):
            if not getattr(const, key):
                raise _fault(file, where, f"key {key!r} is empty")
        if const.name in out:
            raise _fault(file, where, f"key 'name' repeats {const.name!r}")
        out[const.name] = const
    return out


def _read_constants(consts: dict, names: tuple[str, ...], file: str, block: str) -> tuple[ExternalConstant, ...]:
    """The constants ``names``, those a report reads, from ``consts``: a constant the report
    does not read, or one it reads that ``consts`` lacks, fails naming the file and the block."""
    for name in consts:
        if name not in names:
            raise _fault(file, block, f"has unknown constant {name!r}; known: {', '.join(names) or 'none'}")
    for name in names:
        if name not in consts:
            raise _fault(file, block, f"lacks key {name!r}")
    return tuple(consts[name] for name in names)


def _root_system(block: dict, file: str, where: str):
    """The root system of a read root-system block, or its ParabolicSpace when the block has
    ``crossed``. A type, rank or crossed set that the engine rejects names the file, the block
    and the key."""
    try:
        rs = build_root_system(block["type"], block["rank"])
        return ParabolicSpace(rs, block["crossed"]) if "crossed" in block else rs
    except ValueError as exc:  # build_root_system's messages start "unknown type" or "invalid rank"
        key = {"unknown type": "type", "invalid rank": "rank"}.get(str(exc)[:12], "crossed")
        raise _fault(file, where, f"key {key!r}: {exc}") from exc


def _json_object(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object; ``json.loads`` alone keeps the last value of a repeated key, here a LookupError."""
    data = dict(pairs)
    if len(data) < len(pairs):
        raise LookupError(next(key for i, (key, _) in enumerate(pairs) if key in dict(pairs[:i])))
    return data


def _load(name_or_path: str | Path, kind: dict) -> tuple[str, dict]:
    """The name or path as errors name it, and the scenario file's JSON object, read whole
    against the file kind ``kind``.

    A string with no directory part that names a report of ``REPORTS``, with or without
    ".json", always means the file ``data/<name>.json`` shipped with the package, whatever
    the current directory holds; a local file of such a name is reached with a directory
    part, as in "./cayley". Anything else is a path. A key given twice in one object, or a
    missing or unsupported ``schema_version``, fails naming the file; a missing, mistyped or
    unknown key in any block, one of another file kind included, names the block and the key too.
    """
    text = str(name_or_path)
    key = text.removesuffix(".json")
    if isinstance(name_or_path, str) and not os.path.dirname(text) and key in REPORTS:
        source = Path(__file__).with_name("data") / f"{key}.json"
    else:
        source = Path(name_or_path)
        if not source.is_file():
            raise FileNotFoundError(f"no scenario file {text!r} and no builtin scenario of that name")
    try:
        data = json.loads(source.read_text(), object_pairs_hook=_json_object)
    except ValueError as exc:
        raise ValueError(f"scenario file {text!r} is not valid JSON: {exc}") from exc
    except LookupError as exc:
        raise ValueError(f"scenario file {text!r}: key {exc.args[0]!r} is given twice in one object") from exc
    if not isinstance(data, dict):
        raise ValueError(f"scenario file {text!r} does not hold a JSON object")
    version = data.get("schema_version")
    if type(version) is not int or version != _SCHEMA_VERSION:
        found = repr(version) if "schema_version" in data else "missing"
        raise ValueError(f"scenario file {text!r}: schema_version {found} is not supported; expected {_SCHEMA_VERSION}")
    _block(data, kind, text, _TOP)
    return text, data


def _title(data: dict) -> str:
    """A report's title: the file's ``title``, else its ``name``, else empty."""
    return data.get("title", data.get("name", ""))


def load_scenario(name_or_path: str | Path) -> Scenario:
    """The zero-locus file ``name_or_path``, found and read as by ``_load``. A space off a
    Grassmannian, a label the grammar rejects (an empty one included), a section summand with
    no global sections (H^0 of an irreducible bundle is nonzero exactly when it is globally
    generated, which makes a general section regular; O(-8) on Gr(4,7) has only H^12, so the
    test is degree 0), or a twist or constant name repeated in its list fails naming the key."""
    file, data = _load(name_or_path, _ZERO_LOCUS_FILE)
    space = _root_system(data["ambient"], file, "ambient")
    with _naming(file, _TOP, "ambient"):
        kn = grassmannian_kn(space)
    with _naming(file, _TOP, "section_bundle"):
        section = parse_bundle(kn, data["section_bundle"])
        for label, _ in section.summands:
            if bwb(space, label_to_weight(label, space)).degree != 0:  # None when all vanishes
                raise ValueError(f"summand {label} has no global sections, so no section is regular")
    twists: dict[str, tuple[int, BundleSum, tuple[RankHint, ...]]] = {}
    for i, tw in enumerate(data.get("twists", ())):
        where, name = f"twists[{i}]", tw["name"]
        if name in twists:
            raise _fault(file, where, f"key 'name' repeats {name!r}")
        with _naming(file, where, "label"):
            bundle = parse_bundle(kn, tw["label"])
        twists[name] = (i, bundle, tuple(RankHint(**h) for h in tw.get("rank_hints", ())))
    return Scenario(
        file=file,
        name=data.get("name", file),
        title=_title(data),
        space=space,
        section_bundle=section,
        twists=twists,
        external_constants=_constants(data.get("external_constants", ()), file, "external_constants"),
    )


# ---------------------------------------------------------------------------
# Report structure


class ReportLine(NamedTuple):
    key: str
    text: str
    value: object
    source: str  # "computed" | "assumed" (a provided rank hint) | "external"
    provenance: str
    passed: bool | None = None  # None marks an informational line


class ReportSection(NamedTuple):
    title: str
    lines: tuple[ReportLine, ...]


class RigidityReport(NamedTuple):
    name: str
    title: str
    sections: tuple[ReportSection, ...]

    @property
    def passed(self) -> bool:
        return not self.failures()

    def failures(self) -> list[ReportLine]:
        return [ln for sec in self.sections for ln in sec.lines if ln.passed is False]

    def lines(self) -> list[ReportLine]:
        return [ln for sec in self.sections for ln in sec.lines]

    def values(self) -> dict[str, object]:
        return {ln.key: ln.value for ln in self.lines()}

    def line(self, key: str) -> ReportLine:
        for ln in self.lines():
            if ln.key == key:
                return ln
        raise KeyError(f"report {self.name!r} has no line {key!r}")

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "title": self.title,
            "passed": self.passed,
            "sections": [
                {"title": sec.title, "lines": [ln._asdict() for ln in sec.lines]}
                for sec in self.sections
            ],
        }

    def to_text(self) -> str:
        out = [f"== {self.title} =="]
        for sec in self.sections:
            out.append(f"-- {sec.title} --")
            for ln in sec.lines:
                status = {True: "[ok]  ", False: "[FAIL]", None: "      "}[ln.passed]
                out.append(f"{status} {ln.text}  ({ln.source}: {ln.provenance})")
        verdict = "PASS" if self.passed else "FAIL"
        out.append(f"== result: {verdict} ==")
        return "\n".join(out)


_NON_CLAIMS = (  # (key, text, value, provenance) of the lines that open a scope section
    ("non_claim_global_rigidity", "global rigidity over a deformation family is not claimed here",
     "not claimed", "analytic family argument outside this engine's scope"),
    ("non_claim_prolongation", "prolongation classification facts enter only as labelled constants",
     "input only", "Fu-Hwang 2018 classification; consumed, not verified"),
)


class _Ledger:
    """One report, written top to bottom: ``section`` opens a section, ``add`` writes a
    computed line into it and ``external`` a line read from an external constant.
    ``report`` closes the report; when it read at least one constant it first adds a
    scope section of the non-claims. Each constant is said once, on its own line."""

    def __init__(self) -> None:
        self._sections: list[tuple[str, list[ReportLine]]] = []
        self._read = False

    def section(self, title: str):
        self._sections.append((title, []))

    def _line(self, key: str, text: str, value, source: str, provenance: str, passed=None):
        self._sections[-1][1].append(ReportLine(key, text, value, source, provenance, passed))

    def add(self, key: str, text: str, value, provenance: str, passed: bool | None = None):
        self._line(key, text, value, "computed", provenance, passed)

    def external(self, key: str, text: str, const: ExternalConstant, passed: bool | None = None):
        self._read = True
        self._line(key, text, const.value, "external", const.provenance, passed)

    def report(self, name: str, title: str) -> RigidityReport:
        if self._read:
            self.section("Scope: externally sourced inputs and non-claims")
            for key, text, value, provenance in _NON_CLAIMS:
                self._line(key, text, value, "external", provenance)
        sections = tuple(ReportSection(t, tuple(lines)) for t, lines in self._sections)
        return RigidityReport(name=name, title=title, sections=sections)


# ---------------------------------------------------------------------------
# Cayley Grassmannian pipeline


def _chase_step(ledger: _Ledger, sc: Scenario, twist: str, title: str):
    """Open the section of the report step ``twist`` and chase the zero locus twisted by
    it; an indeterminate chase fails naming the file and the twist."""
    ledger.section(title)
    complex_, result = sc.chase_twist(twist)
    if not result.determined:
        where = f"twists[{sc.twists[twist][0]}]"
        raise _fault(sc.file, where, f"leaves the chase indeterminate at {result.blocking_positions}")
    return complex_, result


def _chase_record(ledger: _Ledger, twist: str, complex_: KoszulComplex, result: ChaseResult):
    """Audit-trail lines: the source of each rank the chase used, the resolution's terms and its page."""
    for h in result.hints_used:
        word, source, why = (
            ("assumed", "assumed", f"rank hint of twist {twist!r}") if h.assumed
            else ("forced", "computed", "integer rank bounds on the resolution" if h.degree else
                  "left exactness of global sections")
        )
        ledger._line(f"{twist}_hint_{h.target_term}_{h.degree}", f"{word} rank: {h.describe()}", h.rank, source, why)
    terms = [f"C_{j} = {complex_.term(j)}" for j in range(complex_.section_rank, -1, -1)]
    page = {f"H^{q}(C_{j})": dim for (j, q), dim in result.grid}
    ledger.add(
        f"resolution_{twist}",
        "resolution terms: " + "; ".join(terms),
        terms,
        "exterior powers of the dual section bundle",
    )
    ledger.add(
        f"page_{twist}",
        "nonzero ambient cohomology: " + (str(page) if page else "none"),
        page,
        "Borel-Weil-Bott on every term",
    )


def run_cayley(source: str | Path = "cayley") -> RigidityReport:
    """Full local-rigidity computation for the Cayley Grassmannian scenario file ``source``."""
    sc = load_scenario(source)
    (h0_const,) = _read_constants(sc.external_constants, ("h0_tangent_subvariety",), sc.file, "external_constants")
    for twist in ("trivial", "normal", "tangent"):  # checked before any chase runs
        if twist not in sc.twists:
            raise _fault(sc.file, "twists", f"lacks twist {twist!r}")
    ledger = _Ledger()

    triv_complex, triv = _chase_step(ledger, sc, "trivial", "Structure sheaf of the zero locus")
    h0_o = triv.table.total_dimension(0)
    ledger.add(
        "structure_sheaf_h0",
        f"h^0(O_S) = {h0_o}",
        h0_o,
        "Koszul chase of the untwisted resolution",
        h0_o == 1,
    )
    _chase_record(ledger, "trivial", triv_complex, triv)

    # term_tables[0] is the ambient C_0 = F
    normal_complex, normal = _chase_step(
        ledger, sc, "normal", "Sections of the normal bundle on the zero locus"
    )
    normal_h0_ambient = normal.term_tables[0].total_dimension(0)
    normal_h0 = normal.table.total_dimension(0)
    normal_higher = sum(v for d, v in normal.table.total_dims if d >= 1)
    ledger.add(
        "normal_ambient_h0",
        f"h^0(ambient, section bundle) = {normal_h0_ambient}",
        normal_h0_ambient,
        "Borel-Weil-Bott",
        normal_h0_ambient == 35,
    )
    ledger.add(
        "normal_restricted_h0",
        f"h^0(S, section bundle restricted) = {normal_h0}",
        normal_h0,
        "Koszul chase",
        normal_h0 == normal_h0_ambient - 1,
    )
    ledger.add(
        "normal_restricted_higher",
        f"h^i(S, section bundle restricted) = {normal_higher} for i >= 1",
        normal_higher,
        "Koszul chase",
        normal_higher == 0,
    )
    _chase_record(ledger, "normal", normal_complex, normal)

    tangent_complex, tangent = _chase_step(
        ledger, sc, "tangent", "Ambient tangent bundle and its restriction"
    )
    t_amb = tangent.term_tables[0]
    t_amb_h0, t_amb_h1 = t_amb.total_dimension(0), t_amb.total_dimension(1)
    t_res_h0, t_res_h1 = tangent.table.total_dimension(0), tangent.table.total_dimension(1)
    ledger.add("tangent_ambient_h0", f"h^0(ambient, T) = {t_amb_h0}", t_amb_h0, "Borel-Weil-Bott")
    ledger.add(
        "tangent_ambient_h1",
        f"h^1(ambient, T) = {t_amb_h1}",
        t_amb_h1,
        "Borel-Weil-Bott",
        t_amb_h1 == 0,
    )
    ledger.add(
        "tangent_restricted_h0",
        f"h^0(S, T_ambient restricted) = {t_res_h0}",
        t_res_h0,
        "Koszul chase",
        t_res_h0 == t_amb_h0,
    )
    ledger.add(
        "tangent_restricted_h1",
        f"h^1(S, T_ambient restricted) = {t_res_h1}",
        t_res_h1,
        "Koszul chase",
        t_res_h1 == 0,
    )
    _chase_record(ledger, "tangent", tangent_complex, tangent)

    # the normal sequence 0 -> T_S -> T|_S -> N|_S -> 0, solved for H^*(T_S) with the external h^0
    dim_s = sc.space.dimension - normal_complex.section_rank
    with _naming(sc.file, "external_constants", "h0_tangent_subvariety"):
        bounds, dims = solve_sequence(
            (normal.table.dims(), tangent.table.dims()), dim_s, values={0: h0_const.value}, kernel=True
        )
        if dims is None:
            open_cells = [cell for cell, low, high, _ in bounds if low < high]
            raise ValueError(f"the normal sequence leaves ranks open at {open_cells}")
    h1_sub = dims.get(1, 0)
    ledger.section("Normal exact sequence and the conclusion")
    ledger.external("h0_tangent_subvariety", f"h^0(S, T_S) = {h0_const.value}", h0_const)
    ledger.add(
        "h1_tangent_subvariety",
        f"h^1(S, T_S) = {h1_sub}",
        h1_sub,
        "exact rank bounds on the normal sequence",
        h1_sub == 0,
    )
    ledger.add(
        "locally_rigid",
        "h^1(S, T_S) = 0, so the zero locus is locally rigid"
        if h1_sub == 0
        else f"h^1(S, T_S) = {h1_sub}, so the Kodaira-Spencer criterion does not apply",
        h1_sub == 0,
        "Kodaira-Spencer criterion on the computed h^1",  # h1_tangent_subvariety checks it
    )
    return ledger.report("cayley", sc.title)


# ---------------------------------------------------------------------------
# Dimension audits


def _pair_dims(block: dict, file: str, where: str) -> tuple[int, int, int]:
    """dim G, dim H and dim G/H = dim G - dim H for a read block naming both root systems."""
    g_dim, h_dim = (
        adjoint_dimension(_root_system(block[k], file, f"{where}.{k}"))
        for k in ("group_root_system", "subgroup_root_system")
    )
    return g_dim, h_dim, g_dim - h_dim


def _gp_dim(ledger: _Ledger, block: dict, file: str, where: str) -> int:
    """dim G/P of a read block naming a type, a rank and the one crossed node of a maximal
    parabolic, written as a line."""
    space = _root_system(block, file, where)
    if len(block["crossed"]) != 1:
        raise _fault(file, where, f"key 'crossed': {block['crossed']} must name exactly one node")
    rs, dim, node = space.rs, space.dimension, block["crossed"][0]
    ledger.add(
        f"dim_{rs.name}_P{node}",
        f"dim {block['name']} = {dim}  [{rs.name}/P{node}]",
        dim,
        "positive roots off the Levi",
    )
    return dim


def run_vmrt_audit(source: str | Path = "vmrt") -> RigidityReport:
    """Nondegeneracy ledger of the vmrt file ``source``: each VMRT dimension beats half the
    space dimension minus one."""
    file, data = _load(source, _VMRT_FILE)
    ledger = _Ledger()
    for i, case in enumerate(data["cases"]):
        where, name, ss = f"cases[{i}]", case["name"], case["symmetric_space"]
        group, fixed, vmrt_name = ss["group"], ss["fixed_subgroup"], case["vmrt"]["name"]
        ledger.section(f"Case {group}/{fixed}")
        vmrt_dim = _gp_dim(ledger, case["vmrt"], file, f"{where}.vmrt")
        g_dim, h_dim, space_dim = _pair_dims(ss, file, f"{where}.symmetric_space")
        ledger.add(
            f"dim_{name}",
            f"dim {group}/{fixed} = {g_dim} - {h_dim} = {space_dim}",
            space_dim,
            "root-system dimensions of the pair",
        )
        # strict inequality dim VMRT > dim/2 - 1, kept integral as 2d > n - 2
        ok = 2 * vmrt_dim > space_dim - 2
        half, odd = divmod(space_dim - 2, 2)
        bound = f"{space_dim - 2}/2" if odd else half  # exact, and JSON-safe
        ledger.add(
            f"nondegeneracy_{name}",
            f"dim {vmrt_name} = {vmrt_dim} > {bound} = dim/2 - 1",
            ok,
            "strict inequality on computed dimensions",
            ok,
        )
        ledger.add(
            f"bound_{name}",
            f"half-dimension bound = {bound}",
            bound,
            "computed from the symmetric-space dimension",
        )
        rep, rep_where = case["vmrt_ambient_rep"], f"{where}.vmrt_ambient_rep"
        rep_rs = _root_system(rep, file, rep_where)
        with _naming(file, rep_where, "weight"):  # a weight of the wrong length or not dominant
            rep_dim = weyl_dimension(rep_rs, Weight(rep["weight"]))
        proj_dim = rep_dim - 2
        ledger.add(
            f"ambient_rep_dim_{name}",
            f"dim of {rep['name']} = {rep_dim}",
            rep_dim,
            "Weyl dimension formula",
        )
        ledger.add(
            f"ambient_proj_dim_{name}",
            f"{vmrt_name} sits in P^{proj_dim} = hyperplane section of P^{rep_dim - 1}",
            proj_dim,
            "projectivization minus one hyperplane",
        )
        _gp_dim(ledger, case["hyperplane_section_of"], file, f"{where}.hyperplane_section_of")
    for i, sp in enumerate(data.get("extra_spaces", ())):
        if i == 0:
            ledger.section("Companion homogeneous dimensions")
        _gp_dim(ledger, sp, file, f"extra_spaces[{i}]")
    return ledger.report("vmrt", _title(data))


def run_theorem1_audit(source: str | Path = "theorem1") -> RigidityReport:
    """Automorphism balance dim aut(S) + 1 = dim S + dim aut(cone), plus the h^1 <= 1 bound,
    for each case of the theorem1 file ``source``."""
    file, data = _load(source, _THEOREM1_FILE)
    ledger = _Ledger()
    for i, case in enumerate(data["cases"]):
        where, name = f"cases[{i}]", case["name"]
        block = f"{where}.external_constants"
        consts = _constants(case["external_constants"], file, block)
        cone_const, h1_const = _read_constants(consts, ("cone_aut_dim", "h1_general_fiber"), file, block)
        aut, cone = case["aut_root_system"], case["cone_aut_semisimple"]
        aut_dim = adjoint_dimension(_root_system(aut, file, f"{where}.aut_root_system"))
        g_dim, h_dim, space_dim = _pair_dims(case["space_dim"], file, f"{where}.space_dim")
        cone_ss = adjoint_dimension(_root_system(cone, file, f"{where}.cone_aut_semisimple"))
        cone_dim = cone_const.value
        ledger.section(f"Case {name}")
        ledger.add(
            f"aut_dim_{name}",
            f"dim aut(S) = dim {aut['name']} = {aut_dim}",
            aut_dim,
            "adjoint dimension from the root system",
        )
        ledger.add(
            f"space_dim_{name}",
            f"dim S = {g_dim} - {h_dim} = {space_dim}",
            space_dim,
            "root-system dimensions of the pair",
        )
        ledger.add(
            f"cone_aut_semisimple_dim_{name}",
            f"dim {cone['name']} = {cone_ss}",
            cone_ss,
            "adjoint dimension from the root system",
        )
        ledger.external(
            f"cone_aut_dim_{name}",
            f"dim aut(affine VMRT cone) = {cone_dim}",
            cone_const,
            cone_dim == cone_ss + 1,
        )
        ledger.add(
            f"balance_lhs_{name}",
            f"dim aut(S) + 1 = {aut_dim + 1}",
            aut_dim + 1,
            "arithmetic on computed dimensions",
        )
        ledger.add(
            f"balance_rhs_{name}",
            f"dim S + dim aut(cone) = {space_dim} + {cone_dim} = {space_dim + cone_dim}",
            space_dim + cone_dim,
            "arithmetic on computed and external dimensions",
        )
        ledger.add(
            f"balance_{name}",
            f"{aut_dim + 1} = {space_dim + cone_dim}",
            aut_dim + 1 == space_dim + cone_dim,
            "automorphism balance identity",
            aut_dim + 1 == space_dim + cone_dim,
        )
        ledger.external(
            f"h1_general_fiber_{name}",
            f"h^1(S, T_S) = {h1_const.value} on the general fiber",
            h1_const,
        )
        ledger.add(
            f"h0_bound_{name}",
            f"h^0(X_0, T) <= dim aut(S) + 1 = {aut_dim + 1}",
            aut_dim + 1,
            "prolongation chain bound applied to the cone structure",
        )
        ledger.add(
            f"h1_upper_bound_{name}",
            f"h^1(X_0, T) = h^0(X_0, T) - h^0(S, T_S) <= {aut_dim + 1} - {aut_dim} = 1",
            1,  # (aut_dim + 1) - aut_dim by construction, so no pass/fail check
            "Euler characteristic constancy in the family plus the h^0 bound",
        )
    return ledger.report("theorem1", _title(data))


def run_adjunction_audit(source: str | Path = "adjunction") -> RigidityReport:
    """Adjunction arithmetic for the zero locus of the file ``source``: canonical twist, index, dimension."""
    sc = load_scenario(source)
    _read_constants(sc.external_constants, (), sc.file, "external_constants")  # it reads none
    space, section = sc.space, sc.section_bundle
    kappa = canonical_twist_weight(space)
    (k,) = tuple(space.crossed)
    ambient_twist = kappa.coeffs[k - 1]
    rank = section.rank()
    det = exterior_power_sum(section, rank)[rank]
    (det_label, det_mult), *rest = det.summands  # a top exterior power is never zero
    if rest or det_mult != 1 or det_label.u_part.parts or det_label.q_part.parts:
        raise AssertionError("determinant of the section bundle is not a line bundle")
    det_twist = det_label.twist
    sub_twist = ambient_twist + det_twist
    ambient_dim = space.dimension
    sub_dim = ambient_dim - rank
    index = -sub_twist
    ledger = _Ledger()
    ledger.section("Adjunction")
    ledger.add(
        "ambient_canonical_twist",
        f"K_ambient = O({ambient_twist})",
        ambient_twist,
        "minus the sum of nilradical roots",
    )
    ledger.add(
        "section_det_twist",
        f"det(section bundle) = O({det_twist})",
        det_twist,
        "top exterior power",
    )
    ledger.add(
        "subvariety_canonical_twist",
        f"K_S = O({ambient_twist}) (x) O({det_twist}) = O({sub_twist})",
        sub_twist,  # ambient_twist + det_twist by definition, so no pass/fail check
        "adjunction arithmetic",
    )
    ledger.add(
        "ambient_dim",
        f"dim ambient = {ambient_dim}",
        ambient_dim,
        "positive roots off the Levi",
    )
    ledger.add(
        "subvariety_dim",
        f"dim S = {ambient_dim} - {rank} = {sub_dim}",
        sub_dim,
        "expected codimension of a regular zero locus",
    )
    ledger.add(
        "fano_index",
        f"S is Fano of index {index}",
        index,
        "minus the canonical twist",
        index > 0,
    )
    return ledger.report("adjunction", sc.title)


REPORTS = {
    "cayley": run_cayley,
    "vmrt": run_vmrt_audit,
    "theorem1": run_theorem1_audit,
    "adjunction": run_adjunction_audit,
}
