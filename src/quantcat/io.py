"""YAML document formats for quantales, categories, contexts and lattices.

Every document carries a `schema` tag (e.g. `context/v1`).  Degrees are
written as quantale element labels -- exact rationals like `1/2` or names
like `ab` -- never as floating-point decimals.  Serialization is canonical:
parsing a serialized document and serializing again is the identity.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

import yaml

from .adjunction import ConceptLattice
from .completion import _bounds, is_absent
from .distributor import Infomorphism, QDistributor
from .enriched import QCategory, QFunctor, QTypedSet, discrete_category
from .errors import ArrowTypeError, DegreeOutOfHom, PresheafSpaceTooLarge, SchemaError
from .quantaloid import (
    Lattice,
    QuantaleSpec,
    Quantaloid,
    build_boolean,
    build_boolean_algebra_quantale,
    build_boolean_quantale,
    build_godel_chain,
    build_lukasiewicz_chain,
    build_nilpotent_minimum_chain,
    quantaloid_from_divisible_quantale,
    validate_quantale,
)

def load_document(path: str) -> dict:
    try:
        with open(path) as fh:
            doc = yaml.safe_load(fh)
    except yaml.YAMLError as exc:
        raise SchemaError(f"{path}: not valid YAML: {exc}") from None
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: document must be a mapping")
    return doc


def write_document(doc: dict, path: str) -> None:
    with open(path, "w") as fh:
        yaml.safe_dump(doc, fh, sort_keys=False)


def document_bytes(doc: dict) -> bytes:
    return yaml.safe_dump(doc, sort_keys=False).encode()


# The fields each document kind may carry besides `schema`: exactly those
# its parser reads and its serializer writes.  Quantale documents carry the
# fields of their kind (see _QUANTALE_FIELDS).
_DOCUMENT_FIELDS = {
    "quantaloid/v1": ("objects", "homs", "compose", "units"),
    "category/v1": ("quantale", "elements", "hom"),
    "distributor/v1": ("quantale", "source", "target", "matrix"),
    "context/v1": ("quantale", "objects", "attributes", "incidence"),
    "infomorphism/v1": ("quantale", "source", "target", "object_map", "attribute_map"),
}
_HOM_CELL_FIELDS = ("elements", "leq")
_CATEGORY_PART_FIELDS = ("elements", "hom")
_SUB_CONTEXT_FIELDS = ("objects", "attributes", "incidence")


def check_schema(doc: dict, expected: str) -> None:
    """Check the schema tag and, past it, that every field is known."""
    tag = doc.get("schema")
    if tag != expected:
        raise SchemaError(f"schema: expected {expected!r}, found {tag!r}")
    if expected in _DOCUMENT_FIELDS:
        _known_fields(doc, ("schema",) + _DOCUMENT_FIELDS[expected], expected.split("/")[0])


def _known_fields(doc: dict, known, where: str) -> None:
    for key in doc:
        if key not in known:
            raise SchemaError(f"{where}: unknown field {str(key)!r}")


def _req(doc: dict, key: str, where: str):
    if key not in doc:
        raise SchemaError(f"{where}: missing required field {key!r}")
    return doc[key]


def _as_mapping(value, where: str) -> dict:
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise SchemaError(f"{where}: expected a mapping")
    return value


# ---------------------------------------------------------------------------
# Degrees
# ---------------------------------------------------------------------------


def normalize_degree(raw, where: str) -> str:
    """Canonical string form of a degree: a label or a reduced fraction."""
    text = str(raw).strip()
    if not text:
        raise SchemaError(f"{where}: empty degree")
    if "." in text:
        raise SchemaError(
            f"{where}: decimal degree {text!r} not allowed; use an exact "
            "rational like 1/2 or an element label"
        )
    return text


def degree_index(q: QuantaleSpec, raw, where: str) -> int:
    text = normalize_degree(raw, where)
    if text in q.labels:
        return q.labels.index(text)
    try:
        reduced = str(Fraction(text))
    except (ValueError, ZeroDivisionError):
        raise SchemaError(f"{where}: unknown degree {text!r}") from None
    if reduced in q.labels:
        return q.labels.index(reduced)
    raise SchemaError(f"{where}: unknown degree {text!r}")


# ---------------------------------------------------------------------------
# Quantales
# ---------------------------------------------------------------------------

_CHAIN_BUILDERS = {
    "lukasiewicz": build_lukasiewicz_chain,
    "nilpotent-minimum": build_nilpotent_minimum_chain,
    "godel": build_godel_chain,
}

# The fields of each quantale kind besides `kind`.
_QUANTALE_FIELDS = {
    **{kind: ("n",) for kind in _CHAIN_BUILDERS},
    "boolean": (),
    "boolean-algebra": ("atoms",),
    "table": ("elements", "leq", "tensor", "unit"),
}


def parse_quantale(doc: dict) -> QuantaleSpec:
    if not isinstance(doc, dict):
        raise SchemaError("quantale: expected a mapping")
    kind = _req(doc, "kind", "quantale")
    if not isinstance(kind, str) or kind not in _QUANTALE_FIELDS:
        raise SchemaError(f"quantale.kind: unknown kind {kind!r}")
    _known_fields(doc, ("kind",) + _QUANTALE_FIELDS[kind], "quantale")
    if kind == "boolean":
        return build_boolean_quantale()
    if kind != "table":
        (field,) = _QUANTALE_FIELDS[kind]
        size = _req(doc, field, "quantale")
        if type(size) is not int:  # a YAML boolean is an int subclass
            raise SchemaError(f"quantale.{field}: expected an integer")
        return _CHAIN_BUILDERS.get(kind, build_boolean_algebra_quantale)(size)
    # kind == "table"
    elements = _req(doc, "elements", "quantale")
    if not isinstance(elements, list) or not elements:
        raise SchemaError("quantale.elements: expected a nonempty list")
    labels = [normalize_degree(e, "quantale.elements") for e in elements]
    index = {lab: i for i, lab in enumerate(labels)}
    if len(index) != len(labels):
        raise SchemaError("quantale.elements: duplicate labels")

    def look(raw, field):
        text = normalize_degree(raw, field)
        if text not in index:
            raise SchemaError(f"{field}: unknown element {text!r}")
        return index[text]

    leq_raw = _req(doc, "leq", "quantale")
    if not isinstance(leq_raw, list):
        raise SchemaError("quantale.leq: expected a list of pairs")
    pairs = []
    for entry in leq_raw:
        if not isinstance(entry, list) or len(entry) != 2:
            raise SchemaError("quantale.leq: entries must be [lower, upper] pairs")
        pairs.append((look(entry[0], "quantale.leq"), look(entry[1], "quantale.leq")))
    tensor_raw = _req(doc, "tensor", "quantale")
    if not isinstance(tensor_raw, list) or len(tensor_raw) != len(labels):
        raise SchemaError("quantale.tensor: expected one row per element")
    table = []
    for row in tensor_raw:
        if not isinstance(row, list) or len(row) != len(labels):
            raise SchemaError("quantale.tensor: expected one column per element")
        table.append([look(v, "quantale.tensor") for v in row])
    unit = look(_req(doc, "unit", "quantale"), "quantale.unit")
    return QuantaleSpec(labels, pairs, table, unit)


def serialize_quantale(q: QuantaleSpec) -> dict:
    lat = q.lattice
    return {
        "kind": "table",
        "elements": list(q.labels),
        "leq": [
            [q.labels[i], q.labels[j]]
            for i in range(lat.n)
            for j in range(lat.n)
            if lat.leq(i, j)
        ],
        "tensor": [[q.labels[v] for v in row] for row in q.tensor_table],
        "unit": q.labels[q.unit],
    }


def parse_quantale_document(doc: dict) -> QuantaleSpec:
    check_schema(doc, "quantale/v1")
    return parse_quantale({k: v for k, v in doc.items() if k != "schema"})


def quantale_document(q: QuantaleSpec) -> dict:
    return {"schema": "quantale/v1", **serialize_quantale(q)}


# ---------------------------------------------------------------------------
# Quantaloids (explicit tables)
# ---------------------------------------------------------------------------


def parse_quantaloid_document(doc: dict) -> Quantaloid:
    check_schema(doc, "quantaloid/v1")
    objects_raw = _req(doc, "objects", "quantaloid")
    if not isinstance(objects_raw, list) or not objects_raw:
        raise SchemaError("quantaloid.objects: expected a nonempty list")
    objects = [str(o) for o in objects_raw]
    obj_index = {o: i for i, o in enumerate(objects)}
    if len(obj_index) != len(objects):
        raise SchemaError("quantaloid.objects: duplicate labels")
    homs_raw = _as_mapping(_req(doc, "homs", "quantaloid"), "quantaloid.homs")
    homs: dict[tuple[int, int], Lattice] = {}
    for i, src in enumerate(objects):
        row = _as_mapping(homs_raw.get(src), f"quantaloid.homs.{src}")
        for j, tgt in enumerate(objects):
            cell = row.get(tgt)
            where = f"quantaloid.homs.{src}.{tgt}"
            if cell is None:
                raise SchemaError(f"{where}: missing hom lattice")
            cell = _as_mapping(cell, where)
            _known_fields(cell, _HOM_CELL_FIELDS, where)
            elements = _req(cell, "elements", where)
            if not isinstance(elements, list) or not elements:
                raise SchemaError(f"{where}.elements: expected a nonempty list")
            leq = cell.get("leq", [])
            if not isinstance(leq, list):
                raise SchemaError(f"{where}.leq: expected a list")
            labels = [str(e) for e in elements]
            idx = {lab: k for k, lab in enumerate(labels)}
            pairs = []
            for entry in leq:
                if not isinstance(entry, list) or len(entry) != 2:
                    raise SchemaError(f"{where}.leq: entries must be pairs")
                a, b = str(entry[0]), str(entry[1])
                if a not in idx or b not in idx:
                    raise SchemaError(f"{where}.leq: unknown element")
                pairs.append((idx[a], idx[b]))
            homs[(i, j)] = Lattice(labels, pairs)
    compose_raw = _as_mapping(_req(doc, "compose", "quantaloid"), "quantaloid.compose")
    tables = {}
    for i, x in enumerate(objects):
        xrow = _as_mapping(compose_raw.get(x), f"quantaloid.compose.{x}")
        for j, y in enumerate(objects):
            yrow = _as_mapping(xrow.get(y), f"quantaloid.compose.{x}.{y}")
            for k, z in enumerate(objects):
                table = yrow.get(z)
                where = f"quantaloid.compose.{x}.{y}.{z}"
                if table is None:
                    raise SchemaError(f"{where}: missing composition table")
                if not isinstance(table, list):
                    raise SchemaError(f"{where}: expected a table")
                out = []
                for row in table:
                    if not isinstance(row, list):
                        raise SchemaError(f"{where}: expected rows to be lists")
                    out_row = []
                    for v in row:
                        lab = str(v)
                        if lab not in homs[(i, k)].labels:
                            raise SchemaError(f"{where}: unknown result element {lab!r}")
                        out_row.append(homs[(i, k)].labels.index(lab))
                    out.append(out_row)
                tables[(i, j, k)] = out
    units_raw = _as_mapping(_req(doc, "units", "quantaloid"), "quantaloid.units")
    units = []
    for i, x in enumerate(objects):
        if x not in units_raw:
            raise SchemaError(f"quantaloid.units: missing unit for {x!r}")
        lab = str(units_raw[x])
        if lab not in homs[(i, i)].labels:
            raise SchemaError(f"quantaloid.units.{x}: unknown element {lab!r}")
        units.append(homs[(i, i)].labels.index(lab))
    return Quantaloid(objects, homs, tables, units)


def quantaloid_document(Q: Quantaloid) -> dict:
    n = len(Q.objects)
    return {
        "schema": "quantaloid/v1",
        "objects": list(Q.objects),
        "homs": {
            Q.objects[i]: {
                Q.objects[j]: {
                    "elements": list(Q.homs[(i, j)].labels),
                    "leq": [
                        [Q.homs[(i, j)].labels[a], Q.homs[(i, j)].labels[b]]
                        for a in range(Q.homs[(i, j)].n)
                        for b in range(Q.homs[(i, j)].n)
                        if Q.homs[(i, j)].leq(a, b)
                    ],
                }
                for j in range(n)
            }
            for i in range(n)
        },
        "compose": {
            Q.objects[i]: {
                Q.objects[j]: {
                    Q.objects[k]: [
                        [
                            Q.homs[(i, k)].labels[v]
                            for v in row
                        ]
                        for row in Q.compose_tables[(i, j, k)]
                    ]
                    for k in range(n)
                }
                for j in range(n)
            }
            for i in range(n)
        },
        "units": {Q.objects[i]: Q.homs[(i, i)].labels[Q.units[i]] for i in range(n)},
    }


# ---------------------------------------------------------------------------
# Degrees as arrows
# ---------------------------------------------------------------------------
#
# One rule links the degrees a document writes to the arrows of whichever
# quantaloid it is modeled over.  An element's type is the object whose
# unit arrow carries the element's membership degree, and a cell's hom
# index is the position of its degree's label in the hom lattice of its
# row and column types.  Writing a document reads the same labels back.


def _unit_label(Q: Quantaloid, t: int) -> str:
    return Q.homs[(t, t)].labels[Q.units[t]]


def _parse_elements(q: QuantaleSpec, raw, where: str) -> QTypedSet:
    """Element labels with their membership degrees (quantale indices)."""
    mapping = _as_mapping(raw, where)
    if not isinstance(raw, dict):
        raise SchemaError(f"{where}: expected a mapping of element to degree")
    labels = tuple(str(k) for k in mapping)
    if len(set(labels)) != len(labels):
        raise SchemaError(f"{where}: duplicate element labels")
    degrees = tuple(degree_index(q, v, f"{where}.{k}") for k, v in mapping.items())
    return QTypedSet(labels, degrees)


def _str_keys(mapping: dict, known, where: str) -> dict:
    out = {}
    for key, value in mapping.items():
        text = str(key)
        if text not in known:
            raise SchemaError(f"{where}: unknown label {text!r}")
        out[text] = value
    return out


def _quantaloid(doc: dict, q: QuantaleSpec, memberships) -> Quantaloid:
    """The quantaloid a document is modeled over.

    Classical (crisp) data -- the Boolean quantale with every membership 1
    -- is modeled over the one-object Boolean quantaloid, so that its
    concept lattices and completions agree with ordinary subset-based
    analysis; anything else over the quantaloid of the divisible quantale.
    An explicit `kind: table` quantale is checked against the quantale laws
    first, since divisibility alone does not imply them; builders are
    trusted.
    """
    if doc.get("kind") == "table":
        violations = validate_quantale(q)
        if violations:
            raise SchemaError(f"quantale: {violations[0]}")
    if q == build_boolean_quantale() and all(d == q.unit for m in memberships for d in m.types):
        return build_boolean()
    return quantaloid_from_divisible_quantale(q)


def _typed(q: QuantaleSpec, Q: Quantaloid, members: QTypedSet) -> QTypedSet:
    """Each element typed by the object whose unit carries its membership."""
    of_unit = {_unit_label(Q, t): t for t in range(len(Q.objects))}
    return QTypedSet(members.labels, tuple(of_unit[q.labels[d]] for d in members.types))


def _parse_degrees(
    q: QuantaleSpec, Q: Quantaloid, rows, cols, raw, where: str, incidence: bool
) -> list:
    """Hom indices read from a mapping row label -> column label -> degree.

    The hom lattice of a cell holds the degrees below the meet of its row
    and column memberships; past it an incidence cell raises DegreeOutOfHom
    and a hom cell ArrowTypeError.  Missing cells are bottoms, except on the
    diagonal of a hom table, where they are units.
    """
    pos_r = {lab: i for i, lab in enumerate(rows.labels)}
    pos_c = {lab: j for j, lab in enumerate(cols.labels)}
    mapping = _str_keys(_as_mapping(raw, where), pos_r, where)
    matrix = []
    for i, x in enumerate(rows.labels):
        row_raw = _str_keys(
            _as_mapping(mapping.get(x), f"{where}.{x}"), pos_c, f"{where}.{x}"
        )
        row = []
        for j, y in enumerate(cols.labels):
            s, t = rows.types[i], cols.types[j]
            hom = Q.homs[(s, t)]
            text = row_raw.get(y)
            if text is None:
                row.append(Q.units[s] if i == j and not incidence else hom.bottom)
                continue
            cell = f"{where}.{x}.{y}"
            label = q.labels[degree_index(q, text, cell)]
            if label in hom.labels:
                row.append(hom.labels.index(label))
                continue
            bound = f"{_unit_label(Q, s)}∧{_unit_label(Q, t)}"
            if incidence:
                raise DegreeOutOfHom(f"{cell}: degree {label} exceeds {bound}")
            raise ArrowTypeError(f"{cell}: element {label} is not below {bound}")
        matrix.append(row)
    return matrix


def _memberships(Q: Quantaloid, A: QCategory) -> dict:
    return {A.labels[i]: _unit_label(Q, A.types[i]) for i in range(len(A))}


def _degree_table(Q: Quantaloid, A: QCategory, B: QCategory, matrix) -> dict:
    """Row label -> column label -> label of the hom index matrix[row][column]."""
    return {
        A.labels[i]: {
            B.labels[j]: Q.homs[(A.types[i], B.types[j])].labels[v] for j, v in enumerate(row)
        }
        for i, row in enumerate(matrix)
    }


# ---------------------------------------------------------------------------
# Categories
# ---------------------------------------------------------------------------


class CategoryBundle(NamedTuple):
    quantale: QuantaleSpec
    quantaloid: Quantaloid
    category: QCategory


def _parse_category_parts(
    q: QuantaleSpec, quantale_doc: dict, parts: dict
) -> tuple[Quantaloid, list[QCategory]]:
    """The categories of `elements`/`hom` parts, keyed by location, over the
    one quantaloid their memberships together decide."""
    members = {
        where: _parse_elements(q, _req(part, "elements", where), f"{where}.elements")
        for where, part in parts.items()
    }
    Q = _quantaloid(quantale_doc, q, members.values())
    categories = []
    for where, part in parts.items():
        objs = _typed(q, Q, members[where])
        hom = _parse_degrees(q, Q, objs, objs, part.get("hom"), f"{where}.hom", False)
        categories.append(QCategory(Q, objs.labels, objs.types, hom))
    return Q, categories


def parse_category_document(doc: dict) -> CategoryBundle:
    check_schema(doc, "category/v1")
    q = parse_quantale(_req(doc, "quantale", "category"))
    Q, (cat,) = _parse_category_parts(q, doc["quantale"], {"category": doc})
    return CategoryBundle(q, Q, cat)


def _serialize_category_part(Q: Quantaloid, A: QCategory) -> dict:
    return {"elements": _memberships(Q, A), "hom": _degree_table(Q, A, A, A.hom_idx)}


def category_document(bundle: CategoryBundle) -> dict:
    return {
        "schema": "category/v1",
        "quantale": serialize_quantale(bundle.quantale),
        **_serialize_category_part(bundle.quantaloid, bundle.category),
    }


# ---------------------------------------------------------------------------
# Contexts (distributors between discrete categories)
# ---------------------------------------------------------------------------


class ContextBundle(NamedTuple):
    quantale: QuantaleSpec
    quantaloid: Quantaloid
    distributor: QDistributor


def _parse_contexts(
    q: QuantaleSpec, quantale_doc: dict, bodies: dict
) -> tuple[Quantaloid, list[QDistributor]]:
    """The incidence distributors of context bodies (`objects`,
    `attributes`, `incidence`), keyed by location, between the discrete
    categories on their objects and attributes, over the one quantaloid
    their memberships together decide."""
    members = {
        where: [
            _parse_elements(q, _req(body, part, where), f"{where}.{part}")
            for part in ("objects", "attributes")
        ]
        for where, body in bodies.items()
    }
    Q = _quantaloid(quantale_doc, q, [m for pair in members.values() for m in pair])
    contexts = []
    for where, body in bodies.items():
        A, B = (discrete_category(Q, _typed(q, Q, m)) for m in members[where])
        matrix = _parse_degrees(q, Q, A, B, body.get("incidence"), f"{where}.incidence", True)
        contexts.append(QDistributor(A, B, matrix))
    return Q, contexts


def parse_context_document(doc: dict) -> ContextBundle:
    """Read a context document.

    A Boolean-quantale context in which every membership is 1 is the
    classical crisp case: it is modeled over the one-object quantaloid, so
    its concept lattices agree with ordinary subset-based analysis.  Any
    other context is modeled over the quantaloid of the divisible quantale,
    with elements typed by their membership degrees.
    """
    check_schema(doc, "context/v1")
    q = parse_quantale(_req(doc, "quantale", "context"))
    Q, (phi,) = _parse_contexts(q, doc["quantale"], {"context": doc})
    return ContextBundle(q, Q, phi)


def context_document(bundle: ContextBundle) -> dict:
    q, Q, phi = bundle
    A, B = phi.dom, phi.cod
    return {
        "schema": "context/v1",
        "quantale": serialize_quantale(q),
        "objects": _memberships(Q, A),
        "attributes": _memberships(Q, B),
        "incidence": _degree_table(Q, A, B, phi.matrix),
    }


def contexts_equal(a: ContextBundle, b: ContextBundle) -> bool:
    return (
        a.quantale == b.quantale
        and a.distributor.dom.labels == b.distributor.dom.labels
        and a.distributor.dom.types == b.distributor.dom.types
        and a.distributor.cod.labels == b.distributor.cod.labels
        and a.distributor.cod.types == b.distributor.cod.types
        and a.distributor.matrix == b.distributor.matrix
    )


# ---------------------------------------------------------------------------
# General distributors
# ---------------------------------------------------------------------------


DistributorBundle = ContextBundle


def parse_distributor_document(doc: dict) -> DistributorBundle:
    check_schema(doc, "distributor/v1")
    q = parse_quantale(_req(doc, "quantale", "distributor"))
    parts = {}
    for key in ("source", "target"):
        where = f"distributor.{key}"
        parts[where] = _as_mapping(_req(doc, key, "distributor"), where)
        _known_fields(parts[where], _CATEGORY_PART_FIELDS, where)
    Q, (A, B) = _parse_category_parts(q, doc["quantale"], parts)
    matrix = _parse_degrees(q, Q, A, B, doc.get("matrix"), "distributor.matrix", True)
    return DistributorBundle(q, Q, QDistributor(A, B, matrix))


def distributor_document(bundle: DistributorBundle) -> dict:
    q, Q, phi = bundle
    A, B = phi.dom, phi.cod
    return {
        "schema": "distributor/v1",
        "quantale": serialize_quantale(q),
        "source": _serialize_category_part(Q, A),
        "target": _serialize_category_part(Q, B),
        "matrix": _degree_table(Q, A, B, phi.matrix),
    }


# ---------------------------------------------------------------------------
# Infomorphisms between contexts
# ---------------------------------------------------------------------------


class InfomorphismBundle(NamedTuple):
    quantale: QuantaleSpec
    quantaloid: Quantaloid
    source: ContextBundle
    target: ContextBundle
    infomorphism: Infomorphism


def _parse_label_map(raw, dom: QCategory, cod: QCategory, where: str) -> QFunctor:
    mapping = _as_mapping(raw, where)
    normalized = {str(k): str(v) for k, v in mapping.items()}
    values = []
    for lab in dom.labels:
        if lab not in normalized:
            raise SchemaError(f"{where}: missing image for {lab!r}")
        image = normalized[lab]
        if image not in cod.labels:
            raise SchemaError(f"{where}.{lab}: unknown image {image!r}")
        values.append(cod.labels.index(image))
    return QFunctor(dom, cod, values)


def parse_infomorphism_document(doc: dict) -> InfomorphismBundle:
    check_schema(doc, "infomorphism/v1")
    q = parse_quantale(_req(doc, "quantale", "infomorphism"))
    bodies = {}
    for key in ("source", "target"):
        where = f"infomorphism.{key}"
        bodies[where] = _as_mapping(_req(doc, key, "infomorphism"), where)
        _known_fields(bodies[where], _SUB_CONTEXT_FIELDS, where)
    Q, (phi, psi) = _parse_contexts(q, doc["quantale"], bodies)
    F = _parse_label_map(
        _req(doc, "object_map", "infomorphism"), phi.dom, psi.dom, "infomorphism.object_map"
    )
    G = _parse_label_map(
        _req(doc, "attribute_map", "infomorphism"),
        psi.cod,
        phi.cod,
        "infomorphism.attribute_map",
    )
    info = Infomorphism(phi, psi, F, G)
    return InfomorphismBundle(q, Q, ContextBundle(q, Q, phi), ContextBundle(q, Q, psi), info)


def infomorphism_document(bundle: InfomorphismBundle) -> dict:
    info = bundle.infomorphism
    src_doc = context_document(bundle.source)
    tgt_doc = context_document(bundle.target)
    for sub in (src_doc, tgt_doc):
        sub.pop("schema")
        sub.pop("quantale")
    return {
        "schema": "infomorphism/v1",
        "quantale": serialize_quantale(bundle.quantale),
        "source": src_doc,
        "target": tgt_doc,
        "object_map": {
            info.F.dom.labels[i]: info.F.cod.labels[info.F(i)]
            for i in range(len(info.F.dom))
        },
        "attribute_map": {
            info.G.dom.labels[j]: info.G.cod.labels[info.G(j)]
            for j in range(len(info.G.dom))
        },
    }


# ---------------------------------------------------------------------------
# Lattice output documents
# ---------------------------------------------------------------------------


def _weight_entry(Q: Quantaloid, base: QCategory, w) -> dict:
    return {
        base.labels[x]: Q.arrow_label(w.arrow(x)) for x in range(len(base))
    }


def _completeness_certificate(lattice: ConceptLattice, cap: int | None) -> dict:
    Q = lattice.Q
    try:
        bounds = _bounds(lattice, cap)
    except PresheafSpaceTooLarge as exc:
        return {"checked": False, "reason": str(exc)}
    doc = {
        "checked": True,
        "complete": not any(is_absent(value) for pairs in bounds for _, value in pairs),
        "weights_checked": sum(map(len, bounds)),
    }
    for side, pairs in zip(("sup", "inf"), bounds):
        doc[f"{side}_witnesses"] = [
            {
                "type": Q.objects[w.type_idx],
                "weight": _weight_entry(Q, lattice, w),
                side: None if is_absent(value) else lattice.labels[value],
            }
            for w, value in pairs
        ]
    return doc


def lattice_document(
    lattice: ConceptLattice,
    quantale: QuantaleSpec,
    mode: str,
    algorithm: str,
    cap: int | None = None,
) -> dict:
    Q = lattice.Q
    phi = lattice.source
    A, B = phi.dom, phi.cod
    concepts = []
    for i, pair in enumerate(lattice.pairs):
        concepts.append(
            {
                "id": lattice.labels[i],
                "type": Q.objects[pair.extent.type_idx],
                "extent": _weight_entry(Q, A, pair.extent),
                "intent": _weight_entry(Q, B, pair.intent),
                "provenance": lattice.provenance[i],
            }
        )
    per_type = lattice.per_type_counts()
    return {
        "schema": "lattice/v1",
        "mode": mode,
        "algorithm": algorithm,
        "quantale": serialize_quantale(quantale),
        "objects": {A.labels[i]: Q.objects[A.types[i]] for i in range(len(A))},
        "attributes": {B.labels[j]: Q.objects[B.types[j]] for j in range(len(B))},
        "concepts": concepts,
        "hom": [
            [Q.arrow_label(lattice.hom(i, j)) for j in range(len(lattice))]
            for i in range(len(lattice))
        ],
        "completeness": _completeness_certificate(lattice, cap),
        "summary": {
            "concepts": len(lattice),
            "per_type": {k: per_type[k] for k in Q.objects if k in per_type},
        },
    }


def macneille_document(
    lattice: ConceptLattice,
    embedding: QFunctor,
    quantale: QuantaleSpec,
    algorithm: str,
    cap: int | None = None,
) -> dict:
    doc = lattice_document(lattice, quantale, "macneille", algorithm, cap)
    A = embedding.dom
    doc["embedding"] = {
        A.labels[i]: lattice.labels[embedding(i)] for i in range(len(A))
    }
    return doc
