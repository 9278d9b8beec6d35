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

from .adjunction import ConceptLattice, concept_provenance
from .completion import _bounds, is_absent
from .distributor import Infomorphism, Presheaf, QDistributor
from .enriched import QCategory, QFunctor, QTypedSet
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
    check_quantaloid_size,
    quantaloid_from_divisible_quantale,
    validate_quantale,
)

# The safe loader and dumper, through libyaml when PyYAML was built with
# it: the same documents and bytes as the pure-Python classes, faster.
if yaml.__with_libyaml__:
    _LOADER, _DUMPER = yaml.CSafeLoader, yaml.CSafeDumper
else:
    _LOADER, _DUMPER = yaml.SafeLoader, yaml.SafeDumper


def load_document(path: str) -> dict:
    """Read a document from its bytes, whatever the locale: UTF-8, or UTF-16
    by its byte-order mark; a byte that does not decode is not valid YAML."""
    try:
        with open(path, "rb") as fh:
            doc = yaml.load(fh, Loader=_LOADER)
    except yaml.YAMLError as exc:
        raise SchemaError(f"{path}: not valid YAML: {exc}") from None
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: document must be a mapping")
    return doc


def write_document(doc: dict, path: str) -> None:
    with open(path, "wb") as fh:
        fh.write(document_bytes(doc))


def document_bytes(doc: dict) -> bytes:
    return yaml.dump(doc, Dumper=_DUMPER, sort_keys=False).encode()


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
    """A degree's label as written, stripped; never empty, never a decimal."""
    text = str(raw).strip()
    if not text:
        raise SchemaError(f"{where}: empty degree")
    if "." in text:
        raise SchemaError(
            f"{where}: decimal degree {text!r} not allowed; use an exact "
            "rational like 1/2 or an element label"
        )
    return text


def _positions(labels) -> dict:
    return {label: i for i, label in enumerate(labels)}


def _read_label(index: dict, raw, where: str) -> int:
    """The position of a label (label -> position in `index`): the label as
    written, else its reduced fraction."""
    text = normalize_degree(raw, where)
    if text in index:
        return index[text]
    try:
        return index[str(Fraction(text))]
    except (ValueError, ZeroDivisionError, KeyError):
        raise SchemaError(f"{where}: unknown degree {text!r}") from None


def _read_order(doc: dict, where: str) -> tuple[dict, list]:
    """The labels of `elements` (label -> position) and the pairs of `leq`."""
    elements = _req(doc, "elements", where)
    if not isinstance(elements, list) or not elements:
        raise SchemaError(f"{where}.elements: expected a nonempty list")
    index: dict = {}
    for raw in elements:
        label = normalize_degree(raw, f"{where}.elements")
        if label in index:
            raise SchemaError(f"{where}.elements: duplicate label {label!r}")
        index[label] = len(index)
    leq = doc.get("leq", [])
    if not isinstance(leq, list):
        raise SchemaError(f"{where}.leq: expected a list")
    if any(not isinstance(entry, list) or len(entry) != 2 for entry in leq):
        raise SchemaError(f"{where}.leq: entries must be [lower, upper] pairs")
    return index, [tuple(_read_label(index, e, f"{where}.leq") for e in pair) for pair in leq]


def _read_table(raw, index: dict, rows: int, cols: int, where: str) -> list:
    """A rows x cols table of labels, as positions in `index`."""
    if not isinstance(raw, list) or len(raw) != rows or any(
        not isinstance(row, list) or len(row) != cols for row in raw
    ):
        raise SchemaError(f"{where}: expected a {rows}×{cols} table")
    return [[_read_label(index, v, where) for v in row] for row in raw]


def _write_order(lat: Lattice) -> dict:
    return {
        "elements": list(lat.labels),
        "leq": [
            [lat.labels[a], lat.labels[b]]
            for a in range(lat.n)
            for b in range(lat.n)
            if lat.leq(a, b)
        ],
    }


def _write_table(labels, table) -> list:
    return [[labels[v] for v in row] for row in table]


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
        if kind in _CHAIN_BUILDERS:  # refused before its n² tensor is built
            check_quantaloid_size(f"{kind}-{size}", size, range(1, size + 1))
        return _CHAIN_BUILDERS.get(kind, build_boolean_algebra_quantale)(size)
    # kind == "table"
    _req(doc, "leq", "quantale")  # optional only in a quantaloid hom cell
    index, pairs = _read_order(doc, "quantale")
    n = len(index)
    tensor = _read_table(_req(doc, "tensor", "quantale"), index, n, n, "quantale.tensor")
    unit = _read_label(index, _req(doc, "unit", "quantale"), "quantale.unit")
    return QuantaleSpec(list(index), pairs, tensor, unit)


def serialize_quantale(q: QuantaleSpec) -> dict:
    return {
        "kind": "table",
        **_write_order(q.lattice),
        "tensor": _write_table(q.labels, q.tensor_table),
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
    if len(set(objects)) != len(objects):
        raise SchemaError("quantaloid.objects: duplicate labels")
    homs_raw = _as_mapping(_req(doc, "homs", "quantaloid"), "quantaloid.homs")
    orders, homs = {}, {}
    for i, x in enumerate(objects):
        row = _as_mapping(homs_raw.get(x), f"quantaloid.homs.{x}")
        for j, y in enumerate(objects):
            where = f"quantaloid.homs.{x}.{y}"
            cell = _as_mapping(row.get(y), where)
            _known_fields(cell, _HOM_CELL_FIELDS, where)
            orders[(i, j)], pairs = _read_order(cell, where)
            homs[(i, j)] = Lattice(list(orders[(i, j)]), pairs)
    compose_raw = _as_mapping(_req(doc, "compose", "quantaloid"), "quantaloid.compose")
    tables = {}
    for i, x in enumerate(objects):
        xrow = _as_mapping(compose_raw.get(x), f"quantaloid.compose.{x}")
        for j, y in enumerate(objects):
            yrow = _as_mapping(xrow.get(y), f"quantaloid.compose.{x}.{y}")
            for k, z in enumerate(objects):
                where = f"quantaloid.compose.{x}.{y}.{z}"
                size = (homs[(j, k)].n, homs[(i, j)].n)  # g in Q(y, z), f in Q(x, y)
                tables[(i, j, k)] = _read_table(yrow.get(z), orders[(i, k)], *size, where)
    units_raw = _as_mapping(_req(doc, "units", "quantaloid"), "quantaloid.units")
    units = [
        _read_label(
            orders[(i, i)], _req(units_raw, x, "quantaloid.units"), f"quantaloid.units.{x}"
        )
        for i, x in enumerate(objects)
    ]
    return Quantaloid(objects, homs, tables, units)


def quantaloid_document(Q: Quantaloid) -> dict:
    n = len(Q.objects)
    return {
        "schema": "quantaloid/v1",
        "objects": list(Q.objects),
        "homs": {
            Q.objects[i]: {Q.objects[j]: _write_order(Q.homs[(i, j)]) for j in range(n)}
            for i in range(n)
        },
        "compose": {
            Q.objects[i]: {
                Q.objects[j]: {
                    Q.objects[k]: _write_table(Q.homs[(i, k)].labels, Q.compose_tables[(i, j, k)])
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
    index = _positions(q.labels)
    degrees = tuple(_read_label(index, v, f"{where}.{k}") for k, v in mapping.items())
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
    index = _positions(q.labels)
    mapping = _str_keys(_as_mapping(raw, where), rows.labels, where)
    matrix = []
    for i, x in enumerate(rows.labels):
        row_raw = _str_keys(
            _as_mapping(mapping.get(x), f"{where}.{x}"), cols.labels, f"{where}.{x}"
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
            label = q.labels[_read_label(index, text, cell)]
            if label in hom.labels:
                row.append(hom.index(label))
                continue
            bound = f"{_unit_label(Q, s)}∧{_unit_label(Q, t)}"
            if incidence:
                raise DegreeOutOfHom(f"{cell}: degree {label} exceeds {bound}")
            raise ArrowTypeError(f"{cell}: element {label} is not below {bound}")
        matrix.append(row)
    return matrix


def _memberships(Q: Quantaloid, A: QCategory) -> dict:
    return {A.labels[i]: _unit_label(Q, A.types[i]) for i in range(len(A))}


def _labels(Q: Quantaloid, s: int, types, vec, contra: bool = False) -> list:
    """The label of each hom index vec[j] in Q(s, types[j]), or in
    Q(types[j], s) when contra; the label lists of the homs are read once."""
    homs = Q.homs
    labels = [homs[(t, s) if contra else (s, t)].labels for t in range(len(Q.objects))]
    return [labels[t][v] for t, v in zip(types, vec)]


def _degree_table(Q: Quantaloid, A: QCategory, B: QCategory, matrix) -> dict:
    """Row label -> column label -> label of the hom index matrix[row][column]."""
    return {
        x: dict(zip(B.labels, _labels(Q, s, B.types, row)))
        for x, s, row in zip(A.labels, A.types, matrix)
    }


# ---------------------------------------------------------------------------
# Categories
# ---------------------------------------------------------------------------


class CategoryBundle(NamedTuple):
    quantale: QuantaleSpec
    quantaloid: Quantaloid
    category: QCategory


def _parse_parts(q: QuantaleSpec, quantale_doc: dict, parts) -> tuple[Quantaloid, list]:
    """The categories of document parts (where, body, elements field, hom
    field or None), over the one quantaloid their memberships together
    decide; every element set is read before any hom.  A missing hom cell
    is a unit on the diagonal and a bottom elsewhere, so a part without a
    hom field is the discrete category on its elements."""
    members = [
        _parse_elements(q, _req(body, key, where), f"{where}.{key}")
        for where, body, key, _ in parts
    ]
    Q = _quantaloid(quantale_doc, q, members)
    categories = []
    for (where, body, _, key), m in zip(parts, members):
        objs = _typed(q, Q, m)
        raw = key and body.get(key)
        hom = _parse_degrees(q, Q, objs, objs, raw, f"{where}.{key}", False)
        categories.append(QCategory(Q, objs.labels, objs.types, hom))
    return Q, categories


def parse_category_document(doc: dict) -> CategoryBundle:
    check_schema(doc, "category/v1")
    q = parse_quantale(_req(doc, "quantale", "category"))
    Q, (cat,) = _parse_parts(q, doc["quantale"], [("category", doc, "elements", "hom")])
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
    parts on their objects and attributes."""
    sides = ("objects", "attributes")
    parts = [(where, body, key, None) for where, body in bodies.items() for key in sides]
    Q, cats = _parse_parts(q, quantale_doc, parts)
    contexts = []
    for (where, body), A, B in zip(bodies.items(), cats[::2], cats[1::2]):
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


def _context_body(bundle: ContextBundle) -> dict:
    _, Q, phi = bundle
    A, B = phi.dom, phi.cod
    return {
        "objects": _memberships(Q, A),
        "attributes": _memberships(Q, B),
        "incidence": _degree_table(Q, A, B, phi.matrix),
    }


def context_document(bundle: ContextBundle) -> dict:
    return {
        "schema": "context/v1",
        "quantale": serialize_quantale(bundle.quantale),
        **_context_body(bundle),
    }


# ---------------------------------------------------------------------------
# General distributors
# ---------------------------------------------------------------------------


def parse_distributor_document(doc: dict) -> ContextBundle:
    check_schema(doc, "distributor/v1")
    q = parse_quantale(_req(doc, "quantale", "distributor"))
    parts = []
    for key in ("source", "target"):
        where = f"distributor.{key}"
        body = _as_mapping(_req(doc, key, "distributor"), where)
        _known_fields(body, _CATEGORY_PART_FIELDS, where)
        parts.append((where, body, "elements", "hom"))
    Q, (A, B) = _parse_parts(q, doc["quantale"], parts)
    matrix = _parse_degrees(q, Q, A, B, doc.get("matrix"), "distributor.matrix", True)
    return ContextBundle(q, Q, QDistributor(A, B, matrix))


def distributor_document(bundle: ContextBundle) -> dict:
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
    index = _positions(cod.labels)
    values = []
    for lab in dom.labels:
        if lab not in normalized:
            raise SchemaError(f"{where}: missing image for {lab!r}")
        image = normalized[lab]
        if image not in index:
            raise SchemaError(f"{where}.{lab}: unknown image {image!r}")
        values.append(index[image])
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
    maps = (("object_map", phi.dom, psi.dom), ("attribute_map", psi.cod, phi.cod))
    F, G = (
        _parse_label_map(_req(doc, key, "infomorphism"), dom, cod, f"infomorphism.{key}")
        for key, dom, cod in maps
    )
    info = Infomorphism(phi, psi, F, G)
    return InfomorphismBundle(q, Q, ContextBundle(q, Q, phi), ContextBundle(q, Q, psi), info)


def _label_map(F: QFunctor) -> dict:
    """Each label of F's source -> the label of its image."""
    return {x: F.cod.labels[v] for x, v in zip(F.dom.labels, F.mapping)}


def infomorphism_document(bundle: InfomorphismBundle) -> dict:
    info = bundle.infomorphism
    return {
        "schema": "infomorphism/v1",
        "quantale": serialize_quantale(bundle.quantale),
        "source": _context_body(bundle.source),
        "target": _context_body(bundle.target),
        "object_map": _label_map(info.F),
        "attribute_map": _label_map(info.G),
    }


# ---------------------------------------------------------------------------
# Lattice output documents
# ---------------------------------------------------------------------------


def _weight_entry(Q: Quantaloid, base: QCategory, w) -> dict:
    contra = isinstance(w, Presheaf)
    return dict(zip(base.labels, _labels(Q, w.type_idx, base.types, w.weights, contra)))


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
    algorithm: str,
    cap: int | None = None,
) -> dict:
    Q = lattice.Q
    phi = lattice.source
    A, B = phi.dom, phi.cod
    concepts = [
        {
            "id": label,
            "type": Q.objects[pair.extent.type_idx],
            "extent": _weight_entry(Q, A, pair.extent),
            "intent": _weight_entry(Q, B, pair.intent),
            "provenance": provenance,
        }
        for label, pair, provenance in zip(
            lattice.labels, lattice.pairs, concept_provenance(lattice, algorithm)
        )
    ]
    return {
        "schema": "lattice/v1",
        "mode": lattice.kind,
        "algorithm": algorithm,
        "quantale": serialize_quantale(quantale),
        "objects": {A.labels[i]: Q.objects[A.types[i]] for i in range(len(A))},
        "attributes": {B.labels[j]: Q.objects[B.types[j]] for j in range(len(B))},
        "concepts": concepts,
        "hom": [
            _labels(Q, t, lattice.types, row) for t, row in zip(lattice.types, lattice.hom_idx)
        ],
        "completeness": _completeness_certificate(lattice, cap),
        "summary": {
            "concepts": len(lattice),
            "per_type": lattice.per_type_counts(),
        },
    }


def macneille_document(
    lattice: ConceptLattice,
    embedding: QFunctor,
    quantale: QuantaleSpec,
    algorithm: str,
    cap: int | None = None,
) -> dict:
    doc = lattice_document(lattice, quantale, algorithm, cap)
    return {**doc, "mode": "macneille", "embedding": _label_map(embedding)}  # mode keeps its place
