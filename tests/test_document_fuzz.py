"""Fuzzed documents of all six kinds, valid and mutated, through the CLI.

Every run must exit 0, 1 or 2 with a message and no traceback, and every
document the library accepts must survive parse -> serialize -> parse
unchanged.  The quantaloid bound is kept small, so chains near it are
refused before anything large is built.
"""

from __future__ import annotations

import copy
import os
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from quantcat.cli import main
from quantcat.errors import QuantcatError
from quantcat.io import (
    category_document,
    context_document,
    distributor_document,
    infomorphism_document,
    parse_category_document,
    parse_context_document,
    parse_distributor_document,
    parse_infomorphism_document,
    parse_quantale,
    parse_quantale_document,
    parse_quantaloid_document,
    quantale_document,
    quantaloid_document,
    serialize_quantale,
    write_document,
)
from quantcat.laws import fixture_b4, fixture_ql, fixture_two

from invoker import Invoker

# Łukasiewicz-5 needs 160 table cells and is admitted; Łukasiewicz-6 needs
# 254 and the 8-element Boolean algebra 378, and both are refused.
ENV = {"QUANTCAT_QUANTALOID_CAP": "200", "QUANTCAT_PRESHEAF_CAP": "5000"}

KINDS = {
    "quantale": (parse_quantale_document, quantale_document),
    "quantaloid": (parse_quantaloid_document, quantaloid_document),
    "category": (parse_category_document, category_document),
    "distributor": (parse_distributor_document, distributor_document),
    "context": (parse_context_document, context_document),
    "infomorphism": (parse_infomorphism_document, infomorphism_document),
}

# What else each kind is run through besides `validate`.
COMMANDS = {
    "category": [["macneille"], ["macneille", "--algorithm", "brute"]],
    "context": [["concepts", "--mode", "isbell"], ["concepts", "--mode", "kan"]],
}

QUANTALES = st.one_of(
    st.just({"kind": "boolean"}),
    st.fixed_dictionaries(
        {
            "kind": st.sampled_from(["lukasiewicz", "godel", "nilpotent-minimum"]),
            "n": st.integers(2, 7),
        }
    ),
    st.fixed_dictionaries({"kind": st.just("boolean-algebra"), "atoms": st.integers(0, 3)}),
)

# Values of the wrong type or out of range, for any field.
WRONG = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 10**6),
    st.floats(allow_nan=False),
    st.text(max_size=3),
    st.lists(st.sampled_from(["0", "1", 0]), max_size=2),
    st.dictionaries(st.sampled_from(["0", "1", "x"]), st.sampled_from(["0", "1", 1]), max_size=2),
    st.sampled_from(["2", "3/2", "-1", "1/3", "0.5", "1/0", "x", ""]),
)


@st.composite
def parts(draw, q, prefix: str, hom: bool):
    """Elements with memberships and, when `hom`, a hom table whose cells
    lie below the meet of their memberships."""
    lat, labels = q.lattice, q.labels
    names = [f"{prefix}{i}" for i in range(draw(st.integers(0, 3)))]
    members = {x: draw(st.integers(0, lat.n - 1)) for x in names}
    part = {"elements": {x: labels[d] for x, d in members.items()}}
    if hom:
        part["hom"] = draw(cells(q, members, members))
    return part


@st.composite
def cells(draw, q, rows: dict, cols: dict):
    lat, labels = q.lattice, q.labels
    table = {}
    for x, dx in rows.items():
        for y, dy in cols.items():
            below = [d for d in range(lat.n) if lat.leq(d, lat.meet(dx, dy))]
            if draw(st.booleans()):
                table.setdefault(x, {})[y] = labels[draw(st.sampled_from(below))]
    return table


@st.composite
def context_parts(draw, q):
    objects = draw(parts(q, "x", False))["elements"]
    attributes = draw(parts(q, "y", False))["elements"]
    index = {label: i for i, label in enumerate(q.labels)}
    rows = {x: index[d] for x, d in objects.items()}
    cols = {y: index[d] for y, d in attributes.items()}
    return {"objects": objects, "attributes": attributes, "incidence": draw(cells(q, rows, cols))}


@st.composite
def valid_documents(draw, kind: str):
    if kind == "quantaloid":
        Q = draw(st.sampled_from([fixture_two, lambda: fixture_ql(3), fixture_b4]))()
        return quantaloid_document(Q)
    qdoc = draw(QUANTALES)
    q = parse_quantale(qdoc)  # under the default bound, which admits all of QUANTALES
    if kind == "quantale":
        return {"schema": "quantale/v1", **draw(st.sampled_from([qdoc, serialize_quantale(q)]))}
    doc = {"schema": f"{kind}/v1", "quantale": qdoc}
    if kind == "category":
        return {**doc, **draw(parts(q, "e", True))}
    if kind == "distributor":
        source, target = draw(parts(q, "s", True)), draw(parts(q, "t", True))
        index = {label: i for i, label in enumerate(q.labels)}
        rows = {x: index[d] for x, d in source["elements"].items()}
        cols = {y: index[d] for y, d in target["elements"].items()}
        return {**doc, "source": source, "target": target, "matrix": draw(cells(q, rows, cols))}
    if kind == "context":
        return {**doc, **draw(context_parts(q))}
    source, target = draw(context_parts(q)), draw(context_parts(q))

    def label_map(keys, values):
        return {k: draw(st.sampled_from(values)) for k in keys} if values else {}

    return {
        **doc,
        "source": source,
        "target": target,
        "object_map": label_map(source["objects"], list(target["objects"])),
        "attribute_map": label_map(target["attributes"], list(source["attributes"])),
    }


def paths(node, prefix=()):
    """The key path of every value below the root of a nested document."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from paths(value, prefix + (key,))


@st.composite
def documents(draw, kind: str):
    """A valid document, or one with a field replaced by a wrong value,
    deleted, or joined by an unknown field."""
    doc = copy.deepcopy(draw(valid_documents(kind)))  # strategies may share values
    how = draw(st.sampled_from(["valid", "replace", "delete", "unknown"]))
    if how == "valid":
        return doc
    *parent_path, key = draw(st.sampled_from(list(paths(doc))))
    parent = doc
    for step in parent_path:
        parent = parent[step]
    if how == "replace":
        parent[key] = draw(WRONG)
    elif how == "delete" and isinstance(parent, dict):
        del parent[key]
    elif isinstance(parent, dict):
        parent["bogus"] = draw(WRONG)
    return doc


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "doc.yaml"


def check(kind: str, doc: dict, path) -> None:
    write_document(doc, str(path))
    runner = Invoker(env=ENV)
    for args in [["validate", "--kind", kind]] + COMMANDS.get(kind, []):
        result = runner.invoke(main, args + [str(path)])
        assert result.exit_code in (0, 1, 2), result.output
        assert result.exception is None or isinstance(result.exception, SystemExit), (
            args,
            doc,
            repr(result.exception),
        )
    parse, serialize = KINDS[kind]
    with mock.patch.dict(os.environ, ENV):
        try:
            once = serialize(parse(doc))
        except QuantcatError:
            return
        assert serialize(parse(once)) == once


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_fuzzed_documents_end_in_an_exit_code(kind, scratch):
    @settings(
        max_examples=25,
        derandomize=True,
        deadline=None,
        database=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(doc=documents(kind))
    def run(doc):
        check(kind, doc, scratch)

    run()


def test_a_stray_exception_fails_the_check(scratch, monkeypatch):
    # The invoker keeps an exception other than SystemExit as a failed run,
    # so check() refuses a command that would end in a traceback.
    doc = {"schema": "category/v1", "quantale": {"kind": "boolean"}, "elements": {"e0": "1"}}
    check("category", doc, scratch)

    def fail(*args, **kwargs):
        raise IndexError("stray")

    monkeypatch.setattr("quantcat.cli.macneille_completion", fail)
    with pytest.raises(AssertionError, match="IndexError"):
        check("category", doc, scratch)
