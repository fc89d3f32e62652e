"""Declarative scenarios binding the engines to auditable rigidity reports.

A scenario file names an ambient homogeneous space, a section bundle whose
zero locus is under study, bundles to restrict, and the external constants
the run is allowed to consume. Every external constant must carry a
provenance string; loading fails closed without one, and reports label each
numeric claim as computed or external so imported classification facts are
never silently mixed with engine output. Each report is written through one
ledger (``_Ledger``); ``Scenario.chase_twist`` serves ``cayley`` and ``gpcoh koszul``.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field
from importlib import resources
from pathlib import Path
from typing import Iterable

from .bott import ParabolicSpace, canonical_twist_weight
from .koszul import ChaseResult, KoszulComplex, RankHint, build_koszul, chase, restriction_sequence
from .root_system import Weight, adjoint_dimension, build_root_system, weyl_dimension
from .schur import BundleSum, exterior_power_sum, parse_bundle

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

_TOP_LEVEL_KEYS = (
    "schema_version", "name", "title", "description", "ambient", "section_bundle",
    "twists", "external_constants", "rank_hints", "cases", "extra_spaces",
)


@dataclass(frozen=True)
class ExternalConstant:
    name: str
    value: int
    provenance: str


@dataclass(frozen=True)
class Scenario:
    """A loaded scenario file. ``space`` or ``section_bundle`` is None when
    the file gives none (the dimension audits give neither); ``zero_locus``
    returns both or fails naming the scenario. ``file`` is the name or path it
    was loaded from, as errors name it; ``case_constants[i]`` holds the
    external constants of ``cases[i]``."""

    name: str
    file: str
    title: str
    description: str
    space: ParabolicSpace | None
    section_bundle: BundleSum | None
    twists: tuple[tuple[str, BundleSum], ...]
    external_constants: dict[str, ExternalConstant]
    rank_hints: tuple[RankHint, ...]
    case_constants: tuple[dict[str, ExternalConstant], ...]
    raw: dict = field(repr=False, default_factory=dict)

    def constant(self, name: str) -> ExternalConstant:
        if name not in self.external_constants:
            raise KeyError(f"scenario {self.name!r} declares no external constant {name!r}")
        return self.external_constants[name]

    def twist_named(self, name: str) -> BundleSum:
        for twist_name, bundle in self.twists:
            if twist_name == name:
                return bundle
        known = ", ".join(n for n, _ in self.twists) or "none"
        raise KeyError(f"scenario {self.name!r} has no twist {name!r}; known: {known}")

    def zero_locus(self) -> tuple[ParabolicSpace, BundleSum]:
        if self.space is None or self.section_bundle is None:
            raise ValueError(
                f"scenario {self.name!r} defines no zero locus: "
                "it needs an ambient space and a section bundle"
            )
        return self.space, self.section_bundle

    def chase_twist(self, name: str) -> tuple[KoszulComplex, ChaseResult]:
        """The Koszul resolution twisted by ``name`` and its chase, which may be indeterminate."""
        space, section = self.zero_locus()
        complex_ = build_koszul(space, section, self.twist_named(name))
        return complex_, chase(complex_, self.rank_hints)


_JSON_TYPES = {dict: "a JSON object", list: "a list", str: "a string", int: "an integer"}


def _typed(value, kind: type, file: str, block: str, key: str):
    """``value`` if its JSON type is exactly ``kind`` (a bool or a float is no
    integer); otherwise fail naming the file, the block and the key."""
    if type(value) is not kind:
        raise ValueError(
            f"scenario file {file!r}: block {block!r} key {key!r} must be "
            f"{_JSON_TYPES[kind]}, got {json.dumps(value)}"
        )
    return value


def _items(block: dict, key: str, kind: type, file: str, name: str) -> list:
    """The list ``block[key]``, empty when absent, each item of JSON type ``kind``."""
    items = _typed(block.get(key, []), list, file, name, key)
    return [_typed(item, kind, file, name, f"{key}[{i}]") for i, item in enumerate(items)]


def _fields(block: dict, keys: dict[str, type], file: str, name: str) -> tuple:
    """The values of ``keys`` in ``block``, each of the JSON type it maps to;
    a missing key or a wrong type fails naming the file, the block and the key."""
    for key in keys:
        if key not in block:
            raise ValueError(f"scenario file {file!r}: block {name!r} lacks key {key!r}")
    return tuple(_typed(block[key], kind, file, name, key) for key, kind in keys.items())


def _parse_constants(items: Iterable[dict], file: str, block: str) -> dict[str, ExternalConstant]:
    out: dict[str, ExternalConstant] = {}
    for i, item in enumerate(items):
        where = f"{block}[{i}]"
        name, value = _fields(item, {"name": str, "value": int}, file, where)
        if not name:
            raise ValueError(f"scenario file {file!r}: block {where!r} key 'name' is empty")
        provenance = _typed(item.get("provenance", ""), str, file, where, "provenance").strip()
        if not provenance:
            raise ValueError(
                f"external constant {name!r} lacks a provenance string; refusing to load"
            )
        out[name] = ExternalConstant(name=name, value=value, provenance=provenance)
    return out


def _root_system_block(block: dict, file: str, where: str, **extra: type) -> tuple:
    """The root system of a block {"type": str, "rank": int, ...}, or with ``crossed=list`` its
    ParabolicSpace, then the values of the ``extra`` keys, each checked as ``_fields`` checks
    it. A type, rank or crossed set that the engine rejects names the file, the block and the key."""
    type_letter, rank, *values = _fields(block, {"type": str, "rank": int, **extra}, file, where)
    nodes = frozenset(_items(block, "crossed", int, file, where)) if "crossed" in extra else None
    try:
        rs = build_root_system(type_letter, rank)
        return (rs if nodes is None else ParabolicSpace(rs, nodes), *values)
    except ValueError as exc:  # build_root_system's messages start "unknown type" or "invalid rank"
        key = {"unknown type": "type", "invalid rank": "rank"}.get(str(exc)[:12], "crossed")
        raise ValueError(f"scenario file {file!r}: block {where!r} key {key!r}: {exc}") from exc


def _parse_space(block: dict, file: str) -> ParabolicSpace:
    _typed(block, dict, file, "top level", "ambient")
    return _root_system_block(block, file, "ambient", crossed=list)[0]


def _grassmannian_kn(space: ParabolicSpace) -> tuple[int, int]:
    if space.rs.type_letter != "A" or len(space.crossed) != 1:
        raise ValueError(f"bundle labels need an A-type Grassmannian, got {space}")
    (k,) = tuple(space.crossed)
    return (k, space.rs.rank + 1)


def load_scenario(name_or_path: str | Path) -> Scenario:
    """Load a scenario JSON file by path or by builtin name.

    A string with no directory part that names a report of ``REPORTS``
    (cayley, vmrt, theorem1, adjunction), with or without ".json", always
    loads the file ``data/<name>.json`` shipped with the package, whatever
    the current directory holds; a local file of such a name is reached with
    a directory part, as in "./cayley". Anything else is read as a path. An
    unknown top-level key fails naming the file and the key; a missing
    required key also names its block. A missing or unsupported
    ``schema_version`` fails naming the file. A file without an ambient
    space or a section bundle loads; ``Scenario.zero_locus`` then rejects it.
    """
    text = str(name_or_path)
    key = text.removesuffix(".json")
    if isinstance(name_or_path, str) and not os.path.dirname(text) and key in REPORTS:
        source = resources.files("gpcoh").joinpath("data", f"{key}.json")
    else:
        source = Path(name_or_path)
        if not source.is_file():
            raise FileNotFoundError(
                f"no scenario file {text!r} and no builtin scenario of that name"
            )
    try:
        data = json.loads(source.read_text())
    except ValueError as exc:
        raise ValueError(f"scenario file {text!r} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError(f"scenario file {text!r} does not hold a JSON object")
    unknown = [key for key in data if key not in _TOP_LEVEL_KEYS]
    if unknown:
        known = ", ".join(_TOP_LEVEL_KEYS)
        raise ValueError(f"scenario file {text!r} has unknown key {unknown[0]!r}; known: {known}")
    version = data.get("schema_version")
    if type(version) is not int or version != _SCHEMA_VERSION:
        found = repr(version) if "schema_version" in data else "missing"
        raise ValueError(
            f"scenario file {text!r}: schema_version {found} is not supported; "
            f"expected {_SCHEMA_VERSION}"
        )
    top = "top level"
    space = _parse_space(data["ambient"], text) if "ambient" in data else None
    section = None
    twists: list[tuple[str, BundleSum]] = []
    if space is not None and data.get("section_bundle"):
        kn = _grassmannian_kn(space)
        section = parse_bundle(kn, *_fields(data, {"section_bundle": str}, text, top))
        for i, tw in enumerate(_items(data, "twists", dict, text, top)):
            name, label = _fields(tw, {"name": str, "label": str}, text, f"twists[{i}]")
            twists.append((name, parse_bundle(kn, label)))
    ec = "external_constants"
    constants = _parse_constants(_items(data, ec, dict, text, top), text, ec)
    case_constants = tuple(
        _parse_constants(_items(case, ec, dict, text, f"cases[{i}]"), text, f"cases[{i}].{ec}")
        for i, case in enumerate(_items(data, "cases", dict, text, top))
    )
    hint_keys = dict.fromkeys(("target_term", "degree", "rank"), int)
    hints = tuple(
        RankHint(*_fields(h, hint_keys, text, f"rank_hints[{i}]"))
        for i, h in enumerate(_items(data, "rank_hints", dict, text, top))
    )
    strings = {k: _typed(data[k], str, text, top, k) for k in ("name", "title", "description") if k in data}
    return Scenario(
        name=strings.get("name", text),
        file=text,
        title=strings.get("title", strings.get("name", "")),
        description=strings.get("description", ""),
        space=space,
        section_bundle=section,
        twists=tuple(twists),
        external_constants=constants,
        rank_hints=hints,
        case_constants=case_constants,
        raw=data,
    )


# ---------------------------------------------------------------------------
# Report structure


@dataclass(frozen=True)
class ReportLine:
    key: str
    text: str
    value: object
    source: str  # "computed" | "external"
    provenance: str
    passed: bool | None = None  # None marks an informational line

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class ReportSection:
    title: str
    lines: tuple[ReportLine, ...]


@dataclass(frozen=True)
class RigidityReport:
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
                {"title": sec.title, "lines": [ln.to_dict() for ln in sec.lines]}
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
    scope section: the non-claims, then each constant in the order it was read."""

    def __init__(self) -> None:
        self._sections: list[tuple[str, list[ReportLine]]] = []
        self._read: list[ExternalConstant] = []

    def section(self, title: str):
        self._sections.append((title, []))

    def _line(self, key: str, text: str, value, source: str, provenance: str, passed=None):
        self._sections[-1][1].append(ReportLine(key, text, value, source, provenance, passed))

    def add(self, key: str, text: str, value, provenance: str, passed: bool | None = None):
        self._line(key, text, value, "computed", provenance, passed)

    def external(self, key: str, text: str, const: ExternalConstant, passed: bool | None = None):
        self._read.append(const)
        self._line(key, text, const.value, "external", const.provenance, passed)

    def report(self, name: str, title: str) -> RigidityReport:
        read = tuple(self._read)
        if read:
            self.section("Scope: externally sourced inputs and non-claims")
            for key, text, value, provenance in _NON_CLAIMS:
                self._line(key, text, value, "external", provenance)
            for i, c in enumerate(read):
                text = f"externally sourced constant {c.name} = {c.value}"
                self.external(f"input_{i}_{c.name}", text, c)
        sections = tuple(ReportSection(t, tuple(lines)) for t, lines in self._sections)
        return RigidityReport(name=name, title=title, sections=sections)


# ---------------------------------------------------------------------------
# Cayley Grassmannian pipeline


def _chase_step(ledger: _Ledger, sc: Scenario, twist: str, title: str):
    """Open the section of the report step ``twist`` and chase the zero locus twisted by
    it; any failure, an indeterminate chase included, names the step."""
    ledger.section(title)
    try:
        complex_, result = sc.chase_twist(twist)
        if not result.determined:
            raise RuntimeError(f"chase was indeterminate at {result.blocking_positions}")
    except Exception as exc:
        raise RuntimeError(f"step {twist!r} failed: {exc}") from exc
    return complex_, result


def _chase_record(ledger: _Ledger, twist: str, complex_: KoszulComplex, result: ChaseResult):
    """Audit-trail lines: the resolution's decompositions and its chase page."""
    terms = [f"C_{j} = {complex_.term(j)}" for j in range(complex_.section_rank, -1, -1)]
    page = {f"H^{q}(C_{j})": dim for (j, q), dim in result.page.grid}
    ledger.add(
        f"resolution_{twist}",
        "resolution terms: " + "; ".join(terms),
        terms,
        "exterior powers of the dual section bundle, canonicalized",
    )
    ledger.add(
        f"page_{twist}",
        "nonzero ambient cohomology: " + (str(page) if page else "none"),
        page,
        "Borel-Weil-Bott on every term",
    )


def run_cayley(scenario: Scenario | None = None) -> RigidityReport:
    """Full local-rigidity computation for the Cayley Grassmannian scenario."""
    sc = scenario or load_scenario("cayley")
    sc.zero_locus()  # a scenario without one fails naming itself, before any step
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
    normal_h0_ambient = normal.page.term_tables[0].total_dimension(0)
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
    for h in normal.page.hints_used:
        ledger.add(
            f"normal_hint_{h.target_term}_{h.degree}",
            f"assumed rank: {h.describe()}",
            h.rank,
            "generic-section maximal-rank default" if h.origin == "default_maximal" else "caller-provided rank hint",
        )
    _chase_record(ledger, "normal", normal_complex, normal)

    tangent_complex, tangent = _chase_step(
        ledger, sc, "tangent", "Ambient tangent bundle and its restriction"
    )
    t_amb = tangent.page.term_tables[0]
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

    h0_const = sc.constant("h0_tangent_subvariety")
    try:
        h0_sub, h1_sub = restriction_sequence(h0_const.value, tangent.table, normal.table)
    except Exception as exc:
        raise RuntimeError(f"step 'normal exact sequence' failed: {exc}") from exc
    ledger.section("Normal exact sequence and the conclusion")
    ledger.external("h0_tangent_subvariety", f"h^0(S, T_S) = {h0_const.value}", h0_const)
    ledger.add(
        "h1_tangent_subvariety",
        f"h^1(S, T_S) = {h1_sub}",
        h1_sub,
        "four-term exact sequence arithmetic",
        h1_sub == 0,
    )
    ledger.add(
        "locally_rigid",
        "h^1(S, T_S) = 0, so the zero locus is locally rigid",
        h1_sub == 0,
        "Kodaira-Spencer criterion on the computed h^1",
        h1_sub == 0,
    )
    return ledger.report("cayley", sc.title or "Cayley Grassmannian local rigidity")


# ---------------------------------------------------------------------------
# Dimension audits


def _pair_dims(block: dict, file: str, where: str) -> tuple[int, int, int]:
    """dim G, dim H and dim G/H = dim G - dim H for a block naming both root systems."""
    keys = ("group_root_system", "subgroup_root_system")
    blocks = _fields(block, dict.fromkeys(keys, dict), file, where)
    g_rs, h_rs = (_root_system_block(b, file, f"{where}.{k}")[0] for b, k in zip(blocks, keys))
    g_dim, h_dim = adjoint_dimension(g_rs), adjoint_dimension(h_rs)
    return g_dim, h_dim, g_dim - h_dim


def _gp_dim(ledger: _Ledger, block: dict, file: str, where: str) -> int:
    """dim G/P of a block naming a type, a rank and crossed nodes, written as a line."""
    space, crossed, label = _root_system_block(block, file, where, crossed=list, name=str)
    rs, dim = space.rs, space.dimension
    ledger.add(
        f"dim_{rs.name}_P{crossed[0]}",
        f"dim {label} = {dim}  [{rs.name}/P{crossed[0]}]",
        dim,
        "positive roots off the Levi",
    )
    return dim


def run_vmrt_audit(scenario: Scenario | None = None) -> RigidityReport:
    """Nondegeneracy ledger: each VMRT dimension beats half the space dimension minus one."""
    sc = scenario or load_scenario("vmrt")
    file = sc.file
    ledger = _Ledger()
    blocks = ("vmrt", "symmetric_space", "vmrt_ambient_rep", "hyperplane_section_of")
    case_keys = {"name": str, **dict.fromkeys(blocks, dict)}
    for i, case in enumerate(sc.raw.get("cases", ())):
        where = f"cases[{i}]"
        name, vm, ss, rep, hyperplane = _fields(case, case_keys, file, where)
        ss_where = f"{where}.symmetric_space"
        group, fixed = _fields(ss, {"group": str, "fixed_subgroup": str}, file, ss_where)
        ledger.section(f"Case {group}/{fixed}")
        vmrt_dim = _gp_dim(ledger, vm, file, f"{where}.vmrt")
        g_dim, h_dim, space_dim = _pair_dims(ss, file, ss_where)
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
            f"dim {vm['name']} = {vmrt_dim} > {bound} = dim/2 - 1",
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
        rep_where = f"{where}.vmrt_ambient_rep"
        rep_rs, _, rep_name = _root_system_block(rep, file, rep_where, weight=list, name=str)
        weight = Weight(_items(rep, "weight", int, file, rep_where))
        try:  # a weight of the wrong length or not dominant
            rep_dim = weyl_dimension(rep_rs, weight)
        except ValueError as exc:
            raise ValueError(f"scenario file {file!r}: block {rep_where!r} key 'weight': {exc}") from exc
        proj_dim = rep_dim - 2
        ledger.add(
            f"ambient_rep_dim_{name}",
            f"dim of {rep_name} = {rep_dim}",
            rep_dim,
            "Weyl dimension formula",
        )
        ledger.add(
            f"ambient_proj_dim_{name}",
            f"{vm['name']} sits in P^{proj_dim} = hyperplane section of P^{rep_dim - 1}",
            proj_dim,
            "projectivization minus one hyperplane",
        )
        _gp_dim(ledger, hyperplane, file, f"{where}.hyperplane_section_of")
    for i, sp in enumerate(_items(sc.raw, "extra_spaces", dict, file, "top level")):
        if i == 0:
            ledger.section("Companion homogeneous dimensions")
        _gp_dim(ledger, sp, file, f"extra_spaces[{i}]")
    return ledger.report("vmrt", sc.title)


def run_theorem1_audit(scenario: Scenario | None = None) -> RigidityReport:
    """Automorphism balance dim aut(S) + 1 = dim S + dim aut(cone), plus the h^1 <= 1 bound."""
    sc = scenario or load_scenario("theorem1")
    file = sc.file
    ledger = _Ledger()
    case_keys = {"name": str, "aut_root_system": dict, "space_dim": dict, "cone_aut_semisimple": dict}
    const_keys = dict.fromkeys(("cone_aut_dim", "h1_general_fiber"), ExternalConstant)
    for i, (case, consts) in enumerate(zip(sc.raw.get("cases", ()), sc.case_constants)):
        where = f"cases[{i}]"
        name, aut, pair, cone = _fields(case, case_keys, file, where)
        cone_const, h1_const = _fields(consts, const_keys, file, f"{where}.external_constants")
        aut_rs, aut_name = _root_system_block(aut, file, f"{where}.aut_root_system", name=str)
        aut_dim = adjoint_dimension(aut_rs)
        g_dim, h_dim, space_dim = _pair_dims(pair, file, f"{where}.space_dim")
        cone_rs, cone_name = _root_system_block(cone, file, f"{where}.cone_aut_semisimple", name=str)
        cone_ss = adjoint_dimension(cone_rs)
        cone_dim = cone_const.value
        ledger.section(f"Case {name}")
        ledger.add(
            f"aut_dim_{name}",
            f"dim aut(S) = dim {aut_name} = {aut_dim}",
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
            f"dim {cone_name} = {cone_ss}",
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
    return ledger.report("theorem1", sc.title)


def run_adjunction_audit(scenario: Scenario | None = None) -> RigidityReport:
    """Adjunction arithmetic for the zero locus: canonical twist, index, dimension."""
    sc = scenario or load_scenario("adjunction")
    space, section = sc.zero_locus()
    kappa = canonical_twist_weight(space)
    (k,) = tuple(space.crossed)
    off_node = [c for i, c in enumerate(kappa.coeffs) if i != k - 1]
    if any(off_node):
        raise AssertionError(
            f"canonical weight {kappa} of {space} is not a multiple of the crossed fundamental weight"
        )
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
        "top exterior power, canonicalized",
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
