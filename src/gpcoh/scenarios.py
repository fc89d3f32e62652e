"""Declarative scenarios binding the engines to auditable rigidity reports.

A scenario file names an ambient homogeneous space, a section bundle whose
zero locus is under study, bundles to restrict, and the external constants
the run is allowed to consume. Every external constant must carry a
provenance string; loading fails closed without one, and reports label each
numeric claim as computed or external so imported classification facts are
never silently mixed with engine output.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field
from importlib import resources
from pathlib import Path
from typing import Iterable

from .bott import ParabolicSpace, canonical_twist_weight
from .koszul import RankHint, build_koszul, chase, restriction_sequence
from .root_system import Weight, adjoint_dimension, build_root_system, homogeneous_dimension, weyl_dimension
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
    "get_report_runner",
    "REPORT_NAMES",
]

_BUILTIN_FILES = {
    "cayley": "cayley.json",
    "vmrt": "vmrt_audit.json",
    "vmrt_audit": "vmrt_audit.json",
    "theorem1": "theorem1_audit.json",
    "theorem1_audit": "theorem1_audit.json",
    "adjunction": "adjunction.json",
}

REPORT_NAMES = ("cayley", "vmrt", "theorem1", "adjunction")

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
    returns both or fails naming the scenario."""

    name: str
    title: str
    description: str
    space: ParabolicSpace | None
    section_bundle: BundleSum | None
    twists: tuple[tuple[str, BundleSum], ...]
    external_constants: dict[str, ExternalConstant]
    rank_hints: tuple[RankHint, ...]
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


def _parse_space(block: dict, file: str) -> ParabolicSpace:
    _typed(block, dict, file, "top level", "ambient")
    kinds = {"type": str, "rank": int, "crossed": list}
    type_letter, rank, _ = _fields(block, kinds, file, "ambient")
    crossed = _items(block, "crossed", int, file, "ambient")
    return ParabolicSpace(rs=build_root_system(type_letter, rank), crossed=frozenset(crossed))


def _grassmannian_kn(space: ParabolicSpace) -> tuple[int, int]:
    if space.rs.type_letter != "A" or len(space.crossed) != 1:
        raise ValueError(f"bundle labels need an A-type Grassmannian, got {space}")
    (k,) = tuple(space.crossed)
    return (k, space.rs.rank + 1)


def load_scenario(name_or_path: str | Path) -> Scenario:
    """Load a scenario JSON file by path or by builtin name.

    A string with no directory part that names a builtin (cayley, vmrt,
    vmrt_audit, theorem1, theorem1_audit, adjunction, with or without
    ".json") always loads the file shipped with the package, whatever the
    current directory holds; a local file of such a name is reached with a
    directory part, as in "./cayley". Anything else is read as a path. An
    unknown top-level key fails naming the file and the key; a missing
    required key also names its block. A missing or unsupported
    ``schema_version`` fails naming the file. A file without an ambient
    space or a section bundle loads; ``Scenario.zero_locus`` then rejects it.
    """
    text = str(name_or_path)
    key = text.removesuffix(".json")
    if isinstance(name_or_path, str) and not os.path.dirname(text) and key in _BUILTIN_FILES:
        source = resources.files("gpcoh").joinpath("data", _BUILTIN_FILES[key])
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
    # audit cases carry their own constants; validate them on load as well
    for i, case in enumerate(_items(data, "cases", dict, text, top)):
        _parse_constants(_items(case, ec, dict, text, f"cases[{i}]"), text, f"cases[{i}].{ec}")
    hint_keys = dict.fromkeys(("target_term", "degree", "rank"), int)
    hints = tuple(
        RankHint(*_fields(h, hint_keys, text, f"rank_hints[{i}]"))
        for i, h in enumerate(_items(data, "rank_hints", dict, text, top))
    )
    return Scenario(
        name=data.get("name", str(name_or_path)),
        title=data.get("title", data.get("name", "")),
        description=data.get("description", ""),
        space=space,
        section_bundle=section,
        twists=tuple(twists),
        external_constants=constants,
        rank_hints=hints,
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


def _computed(key: str, text: str, value, provenance: str, passed: bool | None = None) -> ReportLine:
    return ReportLine(key, text, value, "computed", provenance, passed)


def _external(key: str, text: str, const: ExternalConstant, passed: bool | None = None) -> ReportLine:
    return ReportLine(key, text, const.value, "external", const.provenance, passed)


# ---------------------------------------------------------------------------
# Cayley Grassmannian pipeline


def _chase_for(scenario: Scenario, twist_name: str, step: str):
    """Build and chase one twisted resolution; any failure names the report step."""
    space, section = scenario.zero_locus()
    try:
        complex_ = build_koszul(space, section, scenario.twist_named(twist_name))
        result = chase(complex_, scenario.rank_hints)
        if not result.determined:
            raise RuntimeError(
                f"step {twist_name!r}: chase was indeterminate at {result.blocking_positions}"
            )
    except Exception as exc:
        raise RuntimeError(f"step {step!r} failed: {exc}") from exc
    return complex_, result


def _chase_record_lines(twist_name: str, complex_, result) -> tuple[ReportLine, ...]:
    """Audit-trail lines: the resolution's decompositions and its chase page."""
    terms = [
        f"C_{j} = {complex_.term(j)}" for j in range(complex_.section_rank, -1, -1)
    ]
    page = {f"H^{q}(C_{j})": dim for (j, q), dim in result.page.grid}
    return (
        _computed(
            f"resolution_{twist_name}",
            "resolution terms: " + "; ".join(terms),
            terms,
            "exterior powers of the dual section bundle, canonicalized",
        ),
        _computed(
            f"page_{twist_name}",
            "nonzero ambient cohomology: " + (str(page) if page else "none"),
            page,
            "Borel-Weil-Bott on every term",
        ),
    )


def run_cayley(scenario: Scenario | None = None) -> RigidityReport:
    """Full local-rigidity computation for the Cayley Grassmannian scenario."""
    sc = scenario or load_scenario("cayley")
    sections: list[ReportSection] = []

    # step: structure sheaf
    triv_complex, triv = _chase_for(sc, "trivial", "structure sheaf")
    h0_o = triv.table.total_dimension(0)
    sections.append(
        ReportSection(
            "Structure sheaf of the zero locus",
            (
                _computed(
                    "structure_sheaf_h0",
                    f"h^0(O_S) = {h0_o}",
                    h0_o,
                    "Koszul chase of the untwisted resolution",
                    h0_o == 1,
                ),
            )
            + _chase_record_lines("trivial", triv_complex, triv),
        )
    )

    # step: sections of the normal bundle; term_tables[0] is the ambient C_0 = F
    normal_complex, normal = _chase_for(sc, "normal", "normal bundle")
    normal_h0_ambient = normal.page.term_tables[0].total_dimension(0)
    normal_h0 = normal.table.total_dimension(0)
    normal_higher = sum(v for d, v in normal.table.total_dims if d >= 1)
    hint_lines = tuple(
        _computed(
            f"normal_hint_{h.target_term}_{h.degree}",
            f"assumed rank: {h.describe()}",
            h.rank,
            "generic-section maximal-rank default" if h.origin == "default_maximal" else "caller-provided rank hint",
        )
        for h in normal.page.hints_used
    )
    sections.append(
        ReportSection(
            "Sections of the normal bundle on the zero locus",
            (
                _computed(
                    "normal_ambient_h0",
                    f"h^0(ambient, section bundle) = {normal_h0_ambient}",
                    normal_h0_ambient,
                    "Borel-Weil-Bott",
                    normal_h0_ambient == 35,
                ),
                _computed(
                    "normal_restricted_h0",
                    f"h^0(S, section bundle restricted) = {normal_h0}",
                    normal_h0,
                    "Koszul chase",
                    normal_h0 == normal_h0_ambient - 1,
                ),
                _computed(
                    "normal_restricted_higher",
                    f"h^i(S, section bundle restricted) = {normal_higher} for i >= 1",
                    normal_higher,
                    "Koszul chase",
                    normal_higher == 0,
                ),
            )
            + hint_lines
            + _chase_record_lines("normal", normal_complex, normal),
        )
    )

    # step: restricted ambient tangent bundle
    tangent_complex, tangent = _chase_for(sc, "tangent", "ambient tangent")
    ambient_tangent_table = tangent.page.term_tables[0]
    t_amb_h0 = ambient_tangent_table.total_dimension(0)
    t_amb_h1 = ambient_tangent_table.total_dimension(1)
    t_res_h0 = tangent.table.total_dimension(0)
    t_res_h1 = tangent.table.total_dimension(1)
    sections.append(
        ReportSection(
            "Ambient tangent bundle and its restriction",
            (
                _computed(
                    "tangent_ambient_h0",
                    f"h^0(ambient, T) = {t_amb_h0}",
                    t_amb_h0,
                    "Borel-Weil-Bott",
                ),
                _computed(
                    "tangent_ambient_h1",
                    f"h^1(ambient, T) = {t_amb_h1}",
                    t_amb_h1,
                    "Borel-Weil-Bott",
                    t_amb_h1 == 0,
                ),
                _computed(
                    "tangent_restricted_h0",
                    f"h^0(S, T_ambient restricted) = {t_res_h0}",
                    t_res_h0,
                    "Koszul chase",
                    t_res_h0 == t_amb_h0,
                ),
                _computed(
                    "tangent_restricted_h1",
                    f"h^1(S, T_ambient restricted) = {t_res_h1}",
                    t_res_h1,
                    "Koszul chase",
                    t_res_h1 == 0,
                ),
            )
            + _chase_record_lines("tangent", tangent_complex, tangent),
        )
    )

    # step: normal exact sequence
    h0_const = sc.constant("h0_tangent_subvariety")
    try:
        h0_sub, h1_sub = restriction_sequence(h0_const.value, tangent.table, normal.table)
    except Exception as exc:
        raise RuntimeError(f"step 'normal exact sequence' failed: {exc}") from exc
    sections.append(
        ReportSection(
            "Normal exact sequence and the conclusion",
            (
                _external(
                    "h0_tangent_subvariety",
                    f"h^0(S, T_S) = {h0_const.value}",
                    h0_const,
                ),
                _computed(
                    "h1_tangent_subvariety",
                    f"h^1(S, T_S) = {h1_sub}",
                    h1_sub,
                    "four-term exact sequence arithmetic",
                    h1_sub == 0,
                ),
                _computed(
                    "locally_rigid",
                    "h^1(S, T_S) = 0, so the zero locus is locally rigid",
                    h1_sub == 0,
                    "Kodaira-Spencer criterion on the computed h^1",
                    h1_sub == 0,
                ),
            ),
        )
    )

    sections.append(_non_claims_section((h0_const,)))
    return RigidityReport(name="cayley", title=sc.title or "Cayley Grassmannian local rigidity", sections=tuple(sections))


def _non_claims_section(constants: tuple[ExternalConstant, ...]) -> ReportSection:
    lines = [
        ReportLine(
            "non_claim_global_rigidity",
            "global rigidity over a deformation family is not claimed here",
            "not claimed",
            "external",
            "analytic family argument outside this engine's scope",
        ),
        ReportLine(
            "non_claim_prolongation",
            "prolongation classification facts enter only as labelled constants",
            "input only",
            "external",
            "Fu-Hwang 2018 classification; consumed, not verified",
        ),
    ]
    for idx, const in enumerate(constants):
        lines.append(
            _external(
                f"input_{idx}_{const.name}",
                f"externally sourced constant {const.name} = {const.value}",
                const,
            )
        )
    return ReportSection("Scope: externally sourced inputs and non-claims", tuple(lines))


# ---------------------------------------------------------------------------
# Dimension audits


def _adjoint_dim(block: dict) -> int:
    return adjoint_dimension(build_root_system(block["type"], block["rank"]))


def _pair_dims(block: dict) -> tuple[int, int, int]:
    """dim G, dim H and dim G/H = dim G - dim H for a block naming both root systems."""
    g_dim = _adjoint_dim(block["group_root_system"])
    h_dim = _adjoint_dim(block["subgroup_root_system"])
    return g_dim, h_dim, g_dim - h_dim


def _gp_dim_line(sp: dict) -> ReportLine:
    """Ledger line for dim G/P of a block naming a type, a rank and crossed nodes."""
    dim = homogeneous_dimension(build_root_system(sp["type"], sp["rank"]), sp["crossed"])
    return _computed(
        f"dim_{sp['type']}{sp['rank']}_P{sp['crossed'][0]}",
        f"dim {sp['name']} = {dim}  [{sp['type']}{sp['rank']}/P{sp['crossed'][0]}]",
        dim,
        "positive roots off the Levi",
    )


def run_vmrt_audit(scenario: Scenario | None = None) -> RigidityReport:
    """Nondegeneracy ledger: each VMRT dimension beats half the space dimension minus one."""
    sc = scenario or load_scenario("vmrt")
    sections: list[ReportSection] = []
    for case in sc.raw.get("cases", ()):
        name = case["name"]
        vm = case["vmrt"]
        vmrt_line = _gp_dim_line(vm)
        vmrt_dim = vmrt_line.value
        lines = [vmrt_line]
        ss = case["symmetric_space"]
        g_dim, h_dim, space_dim = _pair_dims(ss)
        lines.append(
            _computed(
                f"dim_{name}",
                f"dim {ss['group']}/{ss['fixed_subgroup']} = {g_dim} - {h_dim} = {space_dim}",
                space_dim,
                "root-system dimensions of the pair",
            )
        )
        # strict inequality dim VMRT > dim/2 - 1, kept integral as 2d > n - 2
        ok = 2 * vmrt_dim > space_dim - 2
        half, odd = divmod(space_dim - 2, 2)
        bound = f"{space_dim - 2}/2" if odd else half  # exact, and JSON-safe
        lines.append(
            _computed(
                f"nondegeneracy_{name}",
                f"dim {vm['name']} = {vmrt_dim} > {bound} = dim/2 - 1",
                ok,
                "strict inequality on computed dimensions",
                ok,
            )
        )
        lines.append(
            _computed(
                f"bound_{name}",
                f"half-dimension bound = {bound}",
                bound,
                "computed from the symmetric-space dimension",
            )
        )
        rep = case["vmrt_ambient_rep"]
        rep_rs = build_root_system(rep["type"], rep["rank"])
        rep_dim = weyl_dimension(rep_rs, Weight(tuple(rep["weight"])))
        proj_dim = rep_dim - 2
        lines.append(
            _computed(
                f"ambient_rep_dim_{name}",
                f"dim of {rep['name']} = {rep_dim}",
                rep_dim,
                "Weyl dimension formula",
            )
        )
        lines.append(
            _computed(
                f"ambient_proj_dim_{name}",
                f"{vm['name']} sits in P^{proj_dim} = hyperplane section of P^{rep_dim - 1}",
                proj_dim,
                "projectivization minus one hyperplane",
            )
        )
        lines.append(_gp_dim_line(case["hyperplane_section_of"]))
        sections.append(ReportSection(f"Case {ss['group']}/{ss['fixed_subgroup']}", tuple(lines)))
    extra_lines = [_gp_dim_line(sp) for sp in sc.raw.get("extra_spaces", ())]
    if extra_lines:
        sections.append(ReportSection("Companion homogeneous dimensions", tuple(extra_lines)))
    return RigidityReport(name="vmrt", title=sc.title, sections=tuple(sections))


def run_theorem1_audit(scenario: Scenario | None = None) -> RigidityReport:
    """Automorphism balance dim aut(S) + 1 = dim S + dim aut(cone), plus the h^1 <= 1 bound."""
    sc = scenario or load_scenario("theorem1")
    sections: list[ReportSection] = []
    collected_constants: list[ExternalConstant] = []
    for case in sc.raw.get("cases", ()):
        name = case["name"]
        consts = _parse_constants(case.get("external_constants", ()), sc.name, name)
        cone_const = consts["cone_aut_dim"]
        h1_const = consts["h1_general_fiber"]
        collected_constants.extend([cone_const, h1_const])
        aut_dim = _adjoint_dim(case["aut_root_system"])
        g_dim, h_dim, space_dim = _pair_dims(case["space_dim"])
        cone_ss = _adjoint_dim(case["cone_aut_semisimple"])
        lines = [
            _computed(
                f"aut_dim_{name}",
                f"dim aut(S) = dim {case['aut_root_system']['name']} = {aut_dim}",
                aut_dim,
                "adjoint dimension from the root system",
            ),
            _computed(
                f"space_dim_{name}",
                f"dim S = {g_dim} - {h_dim} = {space_dim}",
                space_dim,
                "root-system dimensions of the pair",
            ),
            _computed(
                f"cone_aut_semisimple_dim_{name}",
                f"dim {case['cone_aut_semisimple']['name']} = {cone_ss}",
                cone_ss,
                "adjoint dimension from the root system",
            ),
            _external(
                f"cone_aut_dim_{name}",
                f"dim aut(affine VMRT cone) = {cone_const.value}",
                cone_const,
                cone_const.value == cone_ss + 1,
            ),
            _computed(
                f"balance_lhs_{name}",
                f"dim aut(S) + 1 = {aut_dim + 1}",
                aut_dim + 1,
                "arithmetic on computed dimensions",
            ),
            _computed(
                f"balance_rhs_{name}",
                f"dim S + dim aut(cone) = {space_dim} + {cone_const.value} = {space_dim + cone_const.value}",
                space_dim + cone_const.value,
                "arithmetic on computed and external dimensions",
            ),
            _computed(
                f"balance_{name}",
                f"{aut_dim + 1} = {space_dim + cone_const.value}",
                aut_dim + 1 == space_dim + cone_const.value,
                "automorphism balance identity",
                aut_dim + 1 == space_dim + cone_const.value,
            ),
            _external(
                f"h1_general_fiber_{name}",
                f"h^1(S, T_S) = {h1_const.value} on the general fiber",
                h1_const,
            ),
            _computed(
                f"h0_bound_{name}",
                f"h^0(X_0, T) <= dim aut(S) + 1 = {aut_dim + 1}",
                aut_dim + 1,
                "prolongation chain bound applied to the cone structure",
            ),
            _computed(
                f"h1_upper_bound_{name}",
                f"h^1(X_0, T) = h^0(X_0, T) - h^0(S, T_S) <= {aut_dim + 1} - {aut_dim} = 1",
                1,
                "Euler characteristic constancy in the family plus the h^0 bound",
                (aut_dim + 1) - aut_dim == 1,
            ),
        ]
        sections.append(ReportSection(f"Case {name}", tuple(lines)))
    sections.append(_non_claims_section(tuple(collected_constants)))
    return RigidityReport(name="theorem1", title=sc.title, sections=tuple(sections))


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
    if len(det.summands) != 1:
        raise AssertionError("determinant of the section bundle is not a line bundle")
    det_label, det_mult = det.summands[0]
    if det_mult != 1 or det_label.u_part.parts or det_label.q_part.parts:
        raise AssertionError("determinant of the section bundle is not a line bundle")
    det_twist = det_label.twist
    sub_twist = ambient_twist + det_twist
    ambient_dim = space.dimension
    sub_dim = ambient_dim - rank
    index = -sub_twist
    lines = (
        _computed(
            "ambient_canonical_twist",
            f"K_ambient = O({ambient_twist})",
            ambient_twist,
            "minus the sum of nilradical roots",
        ),
        _computed(
            "section_det_twist",
            f"det(section bundle) = O({det_twist})",
            det_twist,
            "top exterior power, canonicalized",
        ),
        _computed(
            "subvariety_canonical_twist",
            f"K_S = O({ambient_twist}) (x) O({det_twist}) = O({sub_twist})",
            sub_twist,
            "adjunction arithmetic",
            sub_twist == ambient_twist + det_twist,
        ),
        _computed(
            "ambient_dim",
            f"dim ambient = {ambient_dim}",
            ambient_dim,
            "positive roots off the Levi",
        ),
        _computed(
            "subvariety_dim",
            f"dim S = {ambient_dim} - {rank} = {sub_dim}",
            sub_dim,
            "expected codimension of a regular zero locus",
        ),
        _computed(
            "fano_index",
            f"S is Fano of index {index}",
            index,
            "minus the canonical twist",
            index > 0,
        ),
    )
    return RigidityReport(
        name="adjunction", title=sc.title, sections=(ReportSection("Adjunction", lines),)
    )


def get_report_runner(name: str):
    runners = {
        "cayley": run_cayley,
        "vmrt": run_vmrt_audit,
        "theorem1": run_theorem1_audit,
        "adjunction": run_adjunction_audit,
    }
    if name not in runners:
        raise KeyError(f"unknown report {name!r}; known: {', '.join(REPORT_NAMES)}")
    return runners[name]
