"""Document round-trips, schema rejection, and the command-line surface."""

from __future__ import annotations

import os
import subprocess
import sys
import time

import yaml
import pytest

from quantcat import (
    ArrowTypeError,
    DegreeOutOfHom,
    InvalidInfomorphism,
    InvalidSize,
    ObjectMismatch,
    QTypedSet,
    SchemaError,
    build_boolean,
    build_boolean_algebra_quantale,
    build_boolean_quantale,
    build_godel_chain,
    build_lukasiewicz_chain,
    build_nilpotent_minimum_chain,
    concept_functor_image,
    coyoneda_weight,
    direct_image,
    discrete_category,
    inverse_image,
    quantaloid_from_divisible_quantale,
    validate_category,
    validate_infomorphism,
    validate_quantale,
    yoneda_weight,
)
from quantcat import io as qio
from quantcat.cli import main
from quantcat.io import (
    category_document,
    context_document,
    distributor_document,
    document_bytes,
    infomorphism_document,
    lattice_document,
    load_document,
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
from quantcat.adjunction import concept_lattice

from invoker import Invoker
from oracles import quantaloid_violations

# Crisp data is modeled over the one-object quantaloid; anything else over
# the quantaloid of its divisible quantale, whose objects are the elements.
CRISP_OBJECTS = build_boolean().objects
BOOLEAN_OBJECTS = build_boolean_quantale().labels
LUK3_OBJECTS = build_lukasiewicz_chain(3).labels


def ctx1_doc() -> dict:
    return {
        "schema": "context/v1",
        "quantale": {"kind": "boolean"},
        "objects": {"1": "1", "2": "1"},
        "attributes": {"a": "1", "b": "1"},
        "incidence": {"1": {"a": "1", "b": "1"}, "2": {"b": "1"}},
    }


def fuzzy_ctx_doc() -> dict:
    return {
        "schema": "context/v1",
        "quantale": {"kind": "lukasiewicz", "n": 3},
        "objects": {"x": "1", "y": "1/2"},
        "attributes": {"u": "1/2", "v": "1"},
        "incidence": {"x": {"u": "1/2", "v": "1"}, "y": {"v": "1/2"}},
    }


def chain_cat_doc() -> dict:
    return {
        "schema": "category/v1",
        "quantale": {"kind": "boolean"},
        "elements": {"x": "1", "y": "1"},
        "hom": {"x": {"y": "1"}},
    }


def identity_info_doc() -> dict:
    ctx = ctx1_doc()
    part = {k: ctx[k] for k in ("objects", "attributes", "incidence")}
    return {
        "schema": "infomorphism/v1",
        "quantale": {"kind": "boolean"},
        "source": part,
        "target": {k: dict(v) for k, v in part.items()},
        "object_map": {"1": "1", "2": "2"},
        "attribute_map": {"a": "a", "b": "b"},
    }


def mistyped_info_doc() -> dict:
    """Over BA4 the cells x -> u (in hom(a, a)) and y -> v (in hom(b, b))
    have equal indices, but neither map keeps the types of its elements."""
    return {
        "schema": "infomorphism/v1",
        "quantale": {"kind": "boolean-algebra", "atoms": 2},
        "source": {
            "objects": {"x": "a"},
            "attributes": {"u": "a"},
            "incidence": {"x": {"u": "a"}},
        },
        "target": {
            "objects": {"y": "b"},
            "attributes": {"v": "b"},
            "incidence": {"y": {"v": "b"}},
        },
        "object_map": {"x": "y"},
        "attribute_map": {"v": "u"},
    }


class TestQuantaleDocuments:
    @pytest.mark.parametrize(
        "q",
        [
            build_boolean_quantale(),
            build_lukasiewicz_chain(4),
            build_godel_chain(3),
            build_nilpotent_minimum_chain(5),
            build_boolean_algebra_quantale(2),
        ],
    )
    def test_round_trip(self, q):
        assert parse_quantale_document(quantale_document(q)) == q

    def test_builder_kinds(self):
        doc = {"schema": "quantale/v1", "kind": "lukasiewicz", "n": 3}
        assert parse_quantale_document(doc) == build_lukasiewicz_chain(3)
        doc = {"schema": "quantale/v1", "kind": "boolean-algebra", "atoms": 2}
        assert parse_quantale_document(doc) == build_boolean_algebra_quantale(2)

    def test_malformed_tables_are_rejected(self):
        base = {"schema": "quantale/v1", "kind": "table"}
        with pytest.raises(SchemaError):
            parse_quantale_document({**base, "elements": []})
        with pytest.raises(SchemaError):
            parse_quantale_document(
                {**base, "elements": ["0", "0"], "leq": [], "tensor": [], "unit": "0"}
            )
        with pytest.raises(SchemaError):
            parse_quantale_document(
                {
                    **base,
                    "elements": ["0", "1"],
                    "leq": [["0"]],
                    "tensor": [["0", "0"], ["0", "1"]],
                    "unit": "1",
                }
            )
        with pytest.raises(SchemaError):
            parse_quantale_document({**base, "elements": ["0", "1"], "leq": []})

    def test_unknown_kind(self):
        with pytest.raises(SchemaError):
            parse_quantale_document({"schema": "quantale/v1", "kind": "heyting"})


def set_field(path: str, value):
    """Set a nested field of a document, given as a dotted path."""

    def mutate(doc: dict) -> None:
        *outer, last = path.split(".")
        for key in outer:
            doc = doc[key]
        doc[last] = value

    return mutate


# One defect each in a valid document of a kind (DOCUMENT_KINDS: the
# Boolean quantaloid, the Łukasiewicz-3 context), and the one error line
# `validate --kind` gives for it.
DOCUMENT_DEFECTS = {
    "decimal-label": (
        "quantaloid",
        set_field("homs.*.*.elements", ["0", "0.5"]),
        "quantaloid.homs.*.*.elements: decimal degree '0.5' not allowed; "
        "use an exact rational like 1/2 or an element label",
    ),
    "duplicate-label": (
        "quantaloid",
        set_field("homs.*.*.elements", ["0", "1", "1"]),
        "quantaloid.homs.*.*.elements: duplicate label '1'",
    ),
    "unknown-leq-label": (
        "quantaloid",
        set_field("homs.*.*.leq", [["0", "2"]]),
        "quantaloid.homs.*.*.leq: unknown degree '2'",
    ),
    "unknown-compose-label": (
        "quantaloid",
        set_field("compose.*.*.*", [["0", "0"], ["0", "2"]]),
        "quantaloid.compose.*.*.*: unknown degree '2'",
    ),
    "unknown-unit-label": (
        "quantaloid",
        set_field("units.*", "2"),
        "quantaloid.units.*: unknown degree '2'",
    ),
    "ragged-compose-row": (
        "quantaloid",
        set_field("compose.*.*.*", [["0", "0"], ["1"]]),
        "quantaloid.compose.*.*.*: expected a 2×2 table",
    ),
    "duplicate-object": (
        "quantaloid",
        set_field("objects", ["a", "a"]),
        "quantaloid.objects: duplicate labels",
    ),
    "empty-element-degree": (
        "context",
        set_field("objects", {"x": ""}),
        "context.objects.x: empty degree",
    ),
    "null-elements": (
        "context",
        set_field("objects", None),
        "context.objects: expected a mapping of element to degree",
    ),
    "duplicate-element-label": (
        "context",
        set_field("objects", {1: "1", "1": "1"}),
        "context.objects: duplicate element labels",
    ),
}


@pytest.mark.parametrize("defect", sorted(DOCUMENT_DEFECTS))
def test_each_defect_is_named(runner, tmp_path, defect):
    kind, mutate, message = DOCUMENT_DEFECTS[defect]
    make, parse = DOCUMENT_KINDS[kind]
    doc = make()
    mutate(doc)
    with pytest.raises(SchemaError) as caught:
        parse(doc)
    assert str(caught.value) == message
    path = write(tmp_path, f"{kind}.yaml", doc)
    result = runner.invoke(main, ["validate", path, "--kind", kind])
    assert result.exit_code == 1
    assert result.stdout == ""
    assert result.stderr == f"error: {message}\n"


class TestQuantaloidDocuments:
    @pytest.mark.parametrize(
        "Q",
        [
            build_boolean(),
            quantaloid_from_divisible_quantale(build_lukasiewicz_chain(3)),
            quantaloid_from_divisible_quantale(build_lukasiewicz_chain(5)),
            quantaloid_from_divisible_quantale(build_boolean_algebra_quantale(2)),
        ],
        ids=["boolean", "L3", "L5", "B4"],
    )
    def test_round_trip(self, Q):
        doc = quantaloid_document(Q)
        again = quantaloid_document(parse_quantaloid_document(doc))
        assert doc == again

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("leq", 5, "leq: expected a list"),
            ("elements", 5, "elements: expected a nonempty list"),
            ("elements", "01", "elements: expected a nonempty list"),
        ],
    )
    def test_malformed_hom_cell_is_rejected(self, runner, tmp_path, field, value, message):
        doc = quantaloid_document(build_boolean())
        doc["homs"]["*"]["*"][field] = value
        with pytest.raises(SchemaError, match=f"^quantaloid.homs.\\*.\\*.{message}$"):
            parse_quantaloid_document(doc)
        path = write(tmp_path, "quantaloid.yaml", doc)
        result = runner.invoke(main, ["validate", path, "--kind", "quantaloid"])
        assert result.exit_code == 1
        assert result.stderr == f"error: quantaloid.homs.*.*.{message}\n"
        assert isinstance(result.exception, SystemExit)


class TestCategoryDocuments:
    def test_crisp_categories_use_the_one_object_model(self):
        bundle = parse_category_document(chain_cat_doc())
        assert bundle.quantaloid.objects == CRISP_OBJECTS
        assert bundle.category.types == (0, 0)
        assert bundle.category.hom_idx == ((1, 1), (0, 1))

    def test_fuzzy_categories_type_objects_by_membership(self):
        doc = {
            "schema": "category/v1",
            "quantale": {"kind": "lukasiewicz", "n": 3},
            "elements": {"s": "1", "t": "1/2"},
            "hom": {"s": {"t": "1/2"}},
        }
        bundle = parse_category_document(doc)
        QD = bundle.quantaloid
        assert QD.objects == LUK3_OBJECTS
        assert bundle.category.types == (
            QD.object_index("1"),
            QD.object_index("1/2"),
        )

    def test_zero_membership_disables_the_crisp_model(self):
        doc = chain_cat_doc()
        doc["elements"]["y"] = "0"
        doc["hom"] = {}
        bundle = parse_category_document(doc)
        assert bundle.quantaloid.objects == BOOLEAN_OBJECTS

    @pytest.mark.parametrize("make", [chain_cat_doc])
    def test_round_trip_and_byte_stability(self, make):
        first = parse_category_document(make())
        doc = category_document(first)
        second = parse_category_document(doc)
        assert first.category.labels == second.category.labels
        assert first.category.types == second.category.types
        assert first.category.hom_idx == second.category.hom_idx
        assert document_bytes(doc) == document_bytes(category_document(second))


class TestContextDocuments:
    @pytest.mark.parametrize("make", [ctx1_doc, fuzzy_ctx_doc])
    def test_round_trip(self, make):
        bundle = parse_context_document(make())
        again = parse_context_document(context_document(bundle))
        assert document_bytes(context_document(bundle)) == document_bytes(
            context_document(again)
        )

    @pytest.mark.parametrize("make", [ctx1_doc, fuzzy_ctx_doc])
    def test_objects_and_attributes_are_discrete_categories(self, make):
        bundle = parse_context_document(make())
        for A in (bundle.distributor.dom, bundle.distributor.cod):
            discrete = discrete_category(bundle.quantaloid, QTypedSet(A.labels, A.types))
            assert A.hom_idx == discrete.hom_idx
            assert validate_category(A) == []

    def test_crisp_detection(self):
        crisp = parse_context_document(ctx1_doc())
        assert crisp.quantaloid.objects == CRISP_OBJECTS
        doc = ctx1_doc()
        doc["objects"]["2"] = "0"
        doc["incidence"] = {"1": {"a": "1", "b": "1"}}
        graded = parse_context_document(doc)
        assert graded.quantaloid.objects == BOOLEAN_OBJECTS
        fuzzy = parse_context_document(fuzzy_ctx_doc())
        assert fuzzy.quantaloid.objects == LUK3_OBJECTS

    def test_missing_incidence_entries_default_to_bottom(self):
        bundle = parse_context_document(ctx1_doc())
        assert bundle.distributor.matrix == ((1, 1), (0, 1))

    def test_schema_tag_is_required(self):
        doc = ctx1_doc()
        doc["schema"] = "context/v2"
        with pytest.raises(SchemaError):
            parse_context_document(doc)
        del doc["schema"]
        with pytest.raises(SchemaError):
            parse_context_document(doc)

    def test_unknown_labels_are_rejected(self):
        doc = ctx1_doc()
        doc["incidence"]["3"] = {"a": "1"}
        with pytest.raises(SchemaError):
            parse_context_document(doc)
        doc = ctx1_doc()
        doc["incidence"]["1"]["z"] = "1"
        with pytest.raises(SchemaError):
            parse_context_document(doc)

    def test_decimal_and_unknown_degrees_are_rejected(self):
        doc = fuzzy_ctx_doc()
        doc["incidence"]["x"]["u"] = "0.5"
        with pytest.raises(SchemaError, match="decimal"):
            parse_context_document(doc)
        doc = fuzzy_ctx_doc()
        doc["incidence"]["x"]["u"] = "2/3"
        with pytest.raises(SchemaError, match="unknown degree"):
            parse_context_document(doc)

    def test_degrees_above_the_membership_bound_are_rejected(self):
        doc = fuzzy_ctx_doc()
        doc["incidence"]["y"]["v"] = "1"
        with pytest.raises(DegreeOutOfHom, match="exceeds 1/2∧1"):
            parse_context_document(doc)

    def test_fraction_degrees_are_normalized(self):
        doc = fuzzy_ctx_doc()
        doc["incidence"]["x"]["u"] = "2/4"
        assert context_document(parse_context_document(doc)) == context_document(
            parse_context_document(fuzzy_ctx_doc())
        )


class TestDistributorDocuments:
    def test_round_trip(self):
        doc = {
            "schema": "distributor/v1",
            "quantale": {"kind": "lukasiewicz", "n": 3},
            "source": {"elements": {"s": "1", "t": "1/2"}, "hom": {"s": {"t": "1/2"}}},
            "target": {"elements": {"p": "1"}, "hom": {}},
            "matrix": {"s": {"p": "1/2"}, "t": {"p": "1/2"}},
        }
        bundle = parse_distributor_document(doc)
        again = parse_distributor_document(distributor_document(bundle))
        assert bundle.distributor.matrix == again.distributor.matrix
        assert bundle.distributor.dom.hom_idx == again.distributor.dom.hom_idx

    def test_crisp_distributors_use_the_one_object_model(self):
        doc = {
            "schema": "distributor/v1",
            "quantale": {"kind": "boolean"},
            "source": {"elements": {"s": "1"}},
            "target": {"elements": {"p": "1"}},
            "matrix": {"s": {"p": "1"}},
        }
        bundle = parse_distributor_document(doc)
        assert bundle.quantaloid.objects == CRISP_OBJECTS


class TestInfomorphismDocuments:
    def test_round_trip_and_validity(self):
        bundle = parse_infomorphism_document(identity_info_doc())
        assert validate_infomorphism(bundle.infomorphism) == []
        again = parse_infomorphism_document(infomorphism_document(bundle))
        assert context_document(bundle.source) == context_document(again.source)
        assert context_document(bundle.target) == context_document(again.target)
        assert again.infomorphism.F.mapping == bundle.infomorphism.F.mapping
        assert again.infomorphism.G.mapping == bundle.infomorphism.G.mapping

    def test_maps_must_cover_and_hit_known_labels(self):
        doc = identity_info_doc()
        del doc["object_map"]["1"]
        with pytest.raises(SchemaError, match="missing image"):
            parse_infomorphism_document(doc)
        doc = identity_info_doc()
        doc["attribute_map"]["a"] = "zzz"
        with pytest.raises(SchemaError, match="unknown image"):
            parse_infomorphism_document(doc)

    @pytest.mark.parametrize("kind", ["M", "K"])
    def test_concept_images_need_maps_that_keep_types(self, kind):
        info = parse_infomorphism_document(mistyped_info_doc()).infomorphism
        with pytest.raises(InvalidInfomorphism) as caught:
            concept_functor_image(info, kind)
        assert str(caught.value) == (
            "object_map: type not preserved at x; attribute_map: type not preserved at v"
        )

    @pytest.mark.parametrize(
        "image, weight, end",
        [
            (direct_image, yoneda_weight, "dom"),
            (direct_image, coyoneda_weight, "dom"),
            (inverse_image, yoneda_weight, "cod"),
            (inverse_image, coyoneda_weight, "cod"),
        ],
    )
    def test_weight_images_need_a_functor_that_keeps_types(self, image, weight, end):
        F = parse_infomorphism_document(mistyped_info_doc()).infomorphism.F
        with pytest.raises(ObjectMismatch) as caught:
            image(F, weight(getattr(F, end), 0))
        assert str(caught.value) == "type not preserved at x"


class TestLatticeDocuments:
    def test_document_is_deterministic(self):
        bundle = parse_context_document(ctx1_doc())
        lattice = concept_lattice(bundle.distributor, "isbell")
        doc = lattice_document(lattice, bundle.quantale, "generated")
        doc2 = lattice_document(
            concept_lattice(bundle.distributor, "isbell"),
            bundle.quantale,
            "generated",
        )
        assert document_bytes(doc) == document_bytes(doc2)
        assert doc["schema"] == "lattice/v1"
        assert doc["summary"] == {"concepts": 2, "per_type": {"*": 2}}
        assert doc["completeness"]["checked"] is True
        assert doc["completeness"]["complete"] is True


def context_text(label: str) -> str:
    """A crisp context document whose one object is `label`."""
    return (
        "schema: context/v1\nquantale: {kind: boolean}\n"
        f'objects: {{"{label}": "1"}}\nattributes: {{a: "1"}}\nincidence: {{}}\n'
    )


class TestLoadDocument:
    def test_rejects_non_mappings_and_bad_yaml(self, tmp_path):
        listy = tmp_path / "list.yaml"
        listy.write_text("- 1\n- 2\n")
        with pytest.raises(SchemaError, match="mapping"):
            load_document(str(listy))
        broken = tmp_path / "broken.yaml"
        broken.write_text("a: [1, 2\n")
        with pytest.raises(SchemaError, match="YAML"):
            load_document(str(broken))

    @pytest.fixture(params=["CSafeLoader", "SafeLoader"])
    def loader(self, request, monkeypatch):
        """Documents read through libyaml, where PyYAML has it, and through
        the pure-Python loader."""
        if not hasattr(yaml, request.param):
            pytest.skip("PyYAML is built without libyaml")
        monkeypatch.setattr(qio, "_LOADER", getattr(yaml, request.param))

    @pytest.mark.parametrize(
        "raw, message",
        [
            (context_text("\xe9").encode("latin-1"), r'(?s)not valid YAML: .*in ".*doc\.yaml"'),
            (b"\xff\xfe", "document must be a mapping"),
        ],
        ids=["latin-1-byte", "lone-utf16-bom"],
    )
    def test_undecodable_bytes_are_refused_with_a_message(self, tmp_path, loader, raw, message):
        path = tmp_path / "doc.yaml"
        path.write_bytes(raw)
        with pytest.raises(SchemaError, match=message):
            load_document(str(path))

    @pytest.mark.parametrize("encoding", ["utf-8", "utf-16"])
    def test_documents_are_read_as_utf8_or_by_their_bom(self, tmp_path, loader, encoding):
        path = tmp_path / "doc.yaml"
        path.write_bytes(context_text("é").encode(encoding))
        assert list(load_document(str(path))["objects"]) == ["é"]

    def test_the_locale_does_not_decode_documents(self, tmp_path):
        import quantcat

        path = tmp_path / "ctx.yaml"
        path.write_bytes(context_text("é").encode("utf-8"))
        src = os.path.dirname(os.path.dirname(quantcat.__file__))
        env = {**os.environ, "PYTHONPATH": src, "LC_ALL": "C", "PYTHONUTF8": "0"}
        result = subprocess.run(
            [sys.executable, "-m", "quantcat.cli", "validate", str(path), "--kind", "context"],
            capture_output=True, text=True, env=env,
        )
        assert (result.returncode, result.stdout, result.stderr) == (0, "OK\n", "")


@pytest.fixture()
def runner():
    return Invoker()


def write(tmp_path, name, doc) -> str:
    path = tmp_path / name
    write_document(doc, str(path))
    return str(path)


class TestValidateCommand:
    def test_valid_documents(self, runner, tmp_path):
        cases = [
            (ctx1_doc(), "context"),
            (fuzzy_ctx_doc(), "context"),
            (chain_cat_doc(), "category"),
            (identity_info_doc(), "infomorphism"),
            ({"schema": "quantale/v1", "kind": "lukasiewicz", "n": 4}, "quantale"),
        ]
        for i, (doc, kind) in enumerate(cases):
            path = write(tmp_path, f"ok{i}.yaml", doc)
            result = runner.invoke(main, ["validate", path, "--kind", kind])
            assert result.exit_code == 0, result.output
            assert result.output == "OK\n"

    def test_divisibility_flag(self, runner, tmp_path):
        luk = write(
            tmp_path, "luk.yaml", {"schema": "quantale/v1", "kind": "lukasiewicz", "n": 5}
        )
        result = runner.invoke(main, ["validate", luk, "--kind", "quantale", "--require-divisible"])
        assert result.exit_code == 0 and result.output == "OK\n"
        nm = write(
            tmp_path,
            "nm.yaml",
            {"schema": "quantale/v1", "kind": "nilpotent-minimum", "n": 5},
        )
        result = runner.invoke(main, ["validate", nm, "--kind", "quantale", "--require-divisible"])
        assert result.exit_code == 1
        assert "violation: divisibility fails at (3/4, 1/4)" in result.output

    def test_law_violations_are_printed(self, runner, tmp_path):
        doc = {
            "schema": "category/v1",
            "quantale": {"kind": "boolean"},
            "elements": {"x": "1", "y": "1", "z": "1"},
            "hom": {"x": {"y": "1"}, "y": {"z": "1"}},
        }
        path = write(tmp_path, "badcat.yaml", doc)
        result = runner.invoke(main, ["validate", path, "--kind", "category"])
        assert result.exit_code == 1
        assert "violation:" in result.output and "transitivity" in result.output

    def test_broken_infomorphism(self, runner, tmp_path):
        doc = identity_info_doc()
        doc["target"]["incidence"] = {}
        path = write(tmp_path, "badinfo.yaml", doc)
        result = runner.invoke(main, ["validate", path, "--kind", "infomorphism"])
        assert result.exit_code == 1
        assert "violation:" in result.output

    def test_distributor_feet_are_checked_as_categories(self, runner, tmp_path):
        # x <= y and y <= z but not x <= z, on both sides; the empty matrix
        # satisfies the action laws.
        def broken_chain(a, b, c):
            return {"elements": {a: "1", b: "1", c: "1"}, "hom": {a: {b: "1"}, b: {c: "1"}}}

        doc = {
            "schema": "distributor/v1",
            "quantale": {"kind": "boolean"},
            "source": broken_chain("x", "y", "z"),
            "target": broken_chain("p", "q", "r"),
            "matrix": {},
        }
        path = write(tmp_path, "badfeet.yaml", doc)
        result = runner.invoke(main, ["validate", path, "--kind", "distributor"])
        assert result.exit_code == 1
        assert result.stdout == (
            "violation: source: transitivity fails at (x,y,z)\n"
            "violation: target: transitivity fails at (p,q,r)\n"
        )

    def test_infomorphism_maps_must_preserve_types(self, runner, tmp_path):
        # The cells lie in different homs, so comparing their indices would
        # accept the maps.
        path = write(tmp_path, "mistyped.yaml", mistyped_info_doc())
        result = runner.invoke(main, ["validate", path, "--kind", "infomorphism"])
        assert result.exit_code == 1
        assert result.stdout == (
            "violation: object_map: type not preserved at x\n"
            "violation: attribute_map: type not preserved at v\n"
        )

    @pytest.mark.parametrize("kind", ["category", "distributor"])
    def test_hom_cell_above_its_memberships_names_the_cell(self, runner, tmp_path, kind):
        part = {"elements": {"x": "1/2", "y": "1"}, "hom": {"x": {"y": "1"}}}
        quantale = {"kind": "lukasiewicz", "n": 3}
        if kind == "category":
            doc = {"schema": "category/v1", "quantale": quantale, **part}
            parse, where = parse_category_document, "category"
        else:
            doc = {
                "schema": "distributor/v1",
                "quantale": quantale,
                "source": part,
                "target": {"elements": {"p": "1"}},
                "matrix": {},
            }
            parse, where = parse_distributor_document, "distributor.source"
        message = f"{where}.hom.x.y: element 1 is not below 1/2∧1"
        with pytest.raises(ArrowTypeError, match=message):
            parse(doc)
        path = write(tmp_path, "overweight.yaml", doc)
        result = runner.invoke(main, ["validate", path, "--kind", kind])
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr == f"error: {message}\n"

    def test_rejected_documents_fail_with_a_message(self, runner, tmp_path):
        doc = fuzzy_ctx_doc()
        doc["incidence"]["y"]["v"] = "1"
        path = write(tmp_path, "bad.yaml", doc)
        result = runner.invoke(main, ["validate", path, "--kind", "context"])
        assert result.exit_code == 1
        assert result.stderr.startswith("error:")
        assert "exceeds" in result.stderr

    def test_usage_errors_exit_2(self, runner, tmp_path):
        path = write(tmp_path, "c.yaml", ctx1_doc())
        assert runner.invoke(main, ["validate", path, "--kind", "poset"]).exit_code == 2
        assert runner.invoke(main, ["validate", path]).exit_code == 2
        assert runner.invoke(main, ["validate", "/nonexistent.yaml", "--kind", "context"]).exit_code == 2
        for args in (
            [],
            ["frobnicate"],
            ["concepts", path, "--mod", "kan"],
            ["concepts", str(tmp_path), "--mode", "kan"],
            ["laws", "--seed", "x"],
            ["laws", "--mutate", "x"],
            ["concepts", path, "--mode", "kan", "--cap", "x"],
            ["concepts", path, "--mode", "kan", "--out", str(tmp_path)],
        ):
            result = runner.invoke(main, args)
            assert result.exit_code == 2, args
            assert result.stdout == "", args
            assert "Traceback" not in result.stderr, args

    def test_mutated_quantaloid_violations(self, runner, tmp_path):
        Q = quantaloid_from_divisible_quantale(build_lukasiewicz_chain(3))
        one = Q.object_index("1/2")
        mutant = Q.with_patched_compose((one, one, one), 1, 0, 1)
        expected = quantaloid_violations(mutant)
        assert expected
        path = write(tmp_path, "mutant.yaml", quantaloid_document(mutant))
        result = runner.invoke(main, ["validate", path, "--kind", "quantaloid"])
        assert result.exit_code == 1
        assert result.stdout.splitlines() == [f"violation: {v}" for v in expected]


def broken_table_context_doc() -> dict:
    """A 4-chain whose divisible-looking tensor is not associative."""
    return {
        "schema": "context/v1",
        "quantale": {
            "kind": "table",
            "elements": ["0", "1", "2", "3"],
            "leq": [["0", "1"], ["1", "2"], ["2", "3"]],
            "tensor": [
                ["0", "0", "0", "0"],
                ["0", "0", "1", "1"],
                ["0", "1", "1", "2"],
                ["0", "1", "2", "3"],
            ],
            "unit": "3",
        },
        "objects": {"x": "3", "y": "3"},
        "attributes": {"u": "3", "v": "3"},
        "incidence": {},
    }


def left_join_breaking_quantale() -> dict:
    """The diamond 0 <= a, b <= 1 with unit a, whose tensor keeps every
    quantale law but join preservation on the left."""
    return {
        "kind": "table",
        "elements": ["0", "a", "b", "1"],
        "leq": [["0", "a"], ["0", "b"], ["a", "1"], ["b", "1"]],
        "tensor": [
            ["0", "0", "0", "0"],
            ["0", "a", "b", "1"],
            ["0", "b", "0", "b"],
            ["0", "1", "0", "1"],
        ],
        "unit": "a",
    }


def right_join_breaking_quantale() -> dict:
    """The transpose of the left join-breaking table."""
    q = left_join_breaking_quantale()
    return {**q, "tensor": [list(column) for column in zip(*q["tensor"])]}


def unit_breaking_quantale() -> dict:
    """The chain 0 <= 1 with the constant-0 tensor and unit 1."""
    return {
        "kind": "table",
        "elements": ["0", "1"],
        "leq": [["0", "1"]],
        "tensor": [["0", "0"], ["0", "0"]],
        "unit": "1",
    }


def bottom_breaking_quantale() -> dict:
    """The chain 0 <= 1 <= 2 with a.b = max(a, b) and unit 0."""
    return {
        "kind": "table",
        "elements": ["0", "1", "2"],
        "leq": [["0", "1"], ["1", "2"]],
        "tensor": [[str(max(a, b)) for b in range(3)] for a in range(3)],
        "unit": "0",
    }


# Tables that each break one quantale law only, with the report of
# `validate --kind quantale`.
ONE_LAW_BREAKING_QUANTALES = {
    "left-join": (
        left_join_breaking_quantale,
        [
            "tensor not join-preserving on the left at (a∨b; b)",
            "tensor not join-preserving on the left at (a∨1; b)",
        ],
    ),
    "right-join": (
        right_join_breaking_quantale,
        [
            "tensor not join-preserving on the right at (b; a∨b)",
            "tensor not join-preserving on the right at (b; a∨1)",
        ],
    ),
    "unit": (unit_breaking_quantale, ["unit law fails at 1"]),
    "associativity": (
        lambda: broken_table_context_doc()["quantale"],
        ["tensor not associative at (1,2,2)", "tensor not associative at (2,2,1)"],
    ),
    "bottom": (
        bottom_breaking_quantale,
        ["tensor does not absorb bottom at 1", "tensor does not absorb bottom at 2"],
    ),
}


class TestTableQuantaleLaws:
    @pytest.mark.parametrize("law", sorted(ONE_LAW_BREAKING_QUANTALES))
    def test_a_table_that_breaks_one_law_only_is_rejected(self, runner, tmp_path, law):
        make, violations = ONE_LAW_BREAKING_QUANTALES[law]
        q = make()
        path = write(tmp_path, "q.yaml", {"schema": "quantale/v1", **q})
        result = runner.invoke(main, ["validate", path, "--kind", "quantale"])
        assert result.exit_code == 1
        assert result.stdout.splitlines() == [f"violation: {v}" for v in violations]
        context = {
            "schema": "context/v1",
            "quantale": q,
            "objects": {"x": q["unit"]},
            "attributes": {"u": q["unit"]},
            "incidence": {},
        }
        path = write(tmp_path, "c.yaml", context)
        for args in (
            ["validate", path, "--kind", "context"],
            ["concepts", path, "--mode", "isbell"],
        ):
            result = runner.invoke(main, args)
            assert result.exit_code == 1, result.output
            assert result.stdout == ""
            assert result.stderr.splitlines() == [f"error: quantale: {violations[0]}"]

    def test_documents_over_a_lawless_table_quantale_are_rejected(self, runner, tmp_path):
        path = write(tmp_path, "bad.yaml", broken_table_context_doc())
        for args in (["validate", path, "--kind", "context"], ["concepts", path, "--mode", "isbell"]):
            result = runner.invoke(main, args)
            assert result.exit_code == 1, result.output
            assert result.stdout == ""
            assert result.stderr.startswith("error: quantale: tensor not associative")
        with pytest.raises(SchemaError, match="not associative"):
            parse_context_document(broken_table_context_doc())

    def test_validate_quantale_still_lists_every_violation(self, runner, tmp_path):
        doc = {"schema": "quantale/v1", **broken_table_context_doc()["quantale"]}
        expected = validate_quantale(parse_quantale_document(doc))
        assert len(expected) > 1
        result = runner.invoke(main, ["validate", write(tmp_path, "q.yaml", doc), "--kind", "quantale"])
        assert result.exit_code == 1
        assert result.output.splitlines() == [f"violation: {v}" for v in expected]

    def test_category_report_is_pinned(self, runner, tmp_path):
        # Over BA4, with a broken unit at x1 and cycles that skip a step.
        doc = {
            "schema": "category/v1",
            "quantale": {"kind": "boolean-algebra", "atoms": 2},
            "elements": {"x0": "ab", "x1": "b", "x2": "ab", "x3": "a"},
            "hom": {
                "x0": {"x1": "b", "x2": "ab"},
                "x1": {"x0": "b", "x1": "0", "x2": "b"},
                "x2": {"x0": "b", "x3": "a"},
                "x3": {"x0": "a"},
            },
        }
        result = runner.invoke(main, ["validate", write(tmp_path, "c.yaml", doc), "--kind", "category"])
        assert result.exit_code == 1
        assert result.stdout == (
            "violation: unit constraint fails at x1\n"
            "violation: transitivity fails at (x0,x2,x3)\n"
            "violation: transitivity fails at (x1,x0,x1)\n"
            "violation: transitivity fails at (x2,x0,x1)\n"
            "violation: transitivity fails at (x2,x3,x0)\n"
            "violation: transitivity fails at (x3,x0,x2)\n"
        )

    def test_distributor_report_is_pinned(self, runner, tmp_path):
        # A non-transitive source, and cells whose target- and source-action
        # failures interleave: per cell, target failures come first.
        doc = {
            "schema": "distributor/v1",
            "quantale": {"kind": "lukasiewicz", "n": 3},
            "source": {
                "elements": {"s0": "1", "s1": "1", "s2": "1", "s3": "1"},
                "hom": {
                    "s0": {"s1": "1/2", "s2": "1/2", "s3": "1/2"},
                    "s1": {"s0": "1", "s2": "1", "s3": "1"},
                    "s2": {"s0": "1", "s1": "1", "s3": "1/2"},
                    "s3": {"s0": "1", "s1": "1", "s2": "1"},
                },
            },
            "target": {
                "elements": {"t0": "1/2", "t1": "1/2"},
                "hom": {"t0": {"t1": "1/2"}, "t1": {"t0": "1/2"}},
            },
            "matrix": {
                "s0": {"t0": "1/2", "t1": "1/2"},
                "s1": {"t0": "1/2", "t1": "1/2"},
                "s2": {"t1": "1/2"},
                "s3": {"t1": "1/2"},
            },
        }
        path = write(tmp_path, "d.yaml", doc)
        result = runner.invoke(main, ["validate", path, "--kind", "distributor"])
        assert result.exit_code == 1
        assert result.stdout == (
            "violation: source: transitivity fails at (s2,s1,s3)\n"
            "violation: target action fails at (s2,t1,t0)\n"
            "violation: source action fails at (s2,s0,t0)\n"
            "violation: source action fails at (s2,s1,t0)\n"
            "violation: target action fails at (s3,t1,t0)\n"
            "violation: source action fails at (s3,s0,t0)\n"
            "violation: source action fails at (s3,s1,t0)\n"
        )

    def test_lawful_table_quantales_are_accepted(self, runner, tmp_path):
        doc = fuzzy_ctx_doc()
        doc["quantale"] = quantale_document(build_lukasiewicz_chain(3))
        del doc["quantale"]["schema"]
        path = write(tmp_path, "table.yaml", doc)
        assert runner.invoke(main, ["validate", path, "--kind", "context"]).output == "OK\n"


def distributor_doc() -> dict:
    return {
        "schema": "distributor/v1",
        "quantale": {"kind": "lukasiewicz", "n": 3},
        "source": {"elements": {"s": "1", "t": "1/2"}, "hom": {"s": {"t": "1/2"}}},
        "target": {"elements": {"p": "1"}, "hom": {}},
        "matrix": {"s": {"p": "1/2"}, "t": {"p": "1/2"}},
    }


# One valid document of each kind, with its parser and `validate --kind`.
DOCUMENT_KINDS = {
    "quantale": (
        lambda: {"schema": "quantale/v1", "kind": "lukasiewicz", "n": 4},
        parse_quantale_document,
    ),
    "quantaloid": (lambda: quantaloid_document(build_boolean()), parse_quantaloid_document),
    "category": (chain_cat_doc, parse_category_document),
    "distributor": (distributor_doc, parse_distributor_document),
    "context": (fuzzy_ctx_doc, parse_context_document),
    "infomorphism": (identity_info_doc, parse_infomorphism_document),
}


class TestUnknownFields:
    @pytest.mark.parametrize("kind", sorted(DOCUMENT_KINDS))
    def test_top_level(self, kind):
        make, parse = DOCUMENT_KINDS[kind]
        parse(make())
        doc = {**make(), "extra_field": 1}
        with pytest.raises(SchemaError, match=f"^{kind}: unknown field 'extra_field'$"):
            parse(doc)

    @pytest.mark.parametrize(
        "quantale, field",
        [
            ({"kind": "lukasiewicz", "n": 3, "atoms": 2}, "atoms"),
            ({"kind": "boolean", "n": 2}, "n"),
            ({"kind": "boolean-algebra", "atoms": 1, "unit": "a"}, "unit"),
            ({**serialize_quantale(build_lukasiewicz_chain(3)), "n": 3}, "n"),
        ],
    )
    def test_embedded_quantale_fields_depend_on_kind(self, quantale, field):
        doc = fuzzy_ctx_doc()
        doc["quantale"] = quantale
        with pytest.raises(SchemaError, match=f"^quantale: unknown field '{field}'$"):
            parse_context_document(doc)
        with pytest.raises(SchemaError, match=f"^quantale: unknown field '{field}'$"):
            parse_quantale_document({"schema": "quantale/v1", **quantale})

    @pytest.mark.parametrize("side", ["source", "target"])
    def test_nested_parts(self, side):
        doc = identity_info_doc()
        doc[side]["schema"] = "context/v1"
        with pytest.raises(SchemaError, match=f"^infomorphism.{side}: unknown field 'schema'$"):
            parse_infomorphism_document(doc)
        doc = distributor_doc()
        doc[side]["matrix"] = {}
        with pytest.raises(SchemaError, match=f"^distributor.{side}: unknown field 'matrix'$"):
            parse_distributor_document(doc)
        doc = quantaloid_document(build_boolean())
        doc["homs"]["*"]["*"]["unit"] = "1"
        with pytest.raises(SchemaError, match=r"^quantaloid.homs.\*.\*: unknown field 'unit'$"):
            parse_quantaloid_document(doc)

    def test_non_string_kind_is_rejected(self):
        with pytest.raises(SchemaError, match="unknown kind"):
            parse_quantale_document({"schema": "quantale/v1", "kind": ["lukasiewicz"]})

    @pytest.mark.parametrize("command", [["validate", "--kind", "context"], ["concepts", "--mode", "kan"]])
    def test_cli_rejects_with_a_message(self, runner, tmp_path, command):
        path = write(tmp_path, "extra.yaml", {**fuzzy_ctx_doc(), "extra_field": "x"})
        result = runner.invoke(main, [command[0], path, *command[1:]])
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr == "error: context: unknown field 'extra_field'\n"
        assert isinstance(result.exception, SystemExit)


def one_atom_ctx_doc(field: str, value) -> dict:
    """A context whose degrees are those of the one-atom Boolean algebra,
    with a size field that is not an integer."""
    kind = "boolean-algebra" if field == "atoms" else "lukasiewicz"
    return {
        "schema": "context/v1",
        "quantale": {"kind": kind, field: value},
        "objects": {"x": "a"},
        "attributes": {"u": "a"},
        "incidence": {"x": {"u": "a"}},
    }


class TestSizeFields:
    @pytest.mark.parametrize("field", ["atoms", "n"])
    @pytest.mark.parametrize("value", [True, False])
    @pytest.mark.parametrize(
        "command",
        [["validate", "--kind", "context"], ["concepts", "--mode", "isbell"]],
        ids=["validate", "concepts"],
    )
    def test_booleans_are_not_integers(self, runner, tmp_path, field, value, command):
        path = tmp_path / "ctx.yaml"
        path.write_text(yaml.safe_dump(one_atom_ctx_doc(field, value)))
        assert f"{field}: {str(value).lower()}" in path.read_text()
        result = runner.invoke(main, [command[0], str(path), *command[1:]])
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr == f"error: quantale.{field}: expected an integer\n"
        assert isinstance(result.exception, SystemExit)
        with pytest.raises(SchemaError, match=f"^quantale.{field}: expected an integer$"):
            parse_context_document(one_atom_ctx_doc(field, value))

    def test_integer_atoms_still_parse(self):
        bundle = parse_context_document(one_atom_ctx_doc("atoms", 1))
        assert bundle.quantale == build_boolean_algebra_quantale(1)


class TestConceptsCommand:
    def test_crisp_counts(self, runner, tmp_path):
        path = write(tmp_path, "ctx1.yaml", ctx1_doc())
        result = runner.invoke(main, ["concepts", path, "--mode", "isbell"])
        assert result.exit_code == 0, result.output
        assert result.output == "2 concepts\npotential concepts of type *: 2\n"
        result = runner.invoke(main, ["concepts", path, "--mode", "kan"])
        assert result.output == "3 concepts\npotential concepts of type *: 3\n"

    def test_fuzzy_counts_and_algorithm_agreement(self, runner, tmp_path):
        path = write(tmp_path, "fuzzy.yaml", fuzzy_ctx_doc())
        out = runner.invoke(main, ["concepts", path, "--mode", "isbell"])
        assert out.exit_code == 0 and out.output.startswith("4 concepts\n")
        assert "potential concepts of type" in out.output
        brute = runner.invoke(
            main, ["concepts", path, "--mode", "isbell", "--algorithm", "brute"]
        )
        assert brute.exit_code == 0 and brute.output == out.output

    def test_output_document_is_byte_stable(self, runner, tmp_path):
        path = write(tmp_path, "ctx1.yaml", ctx1_doc())
        out1, out2 = str(tmp_path / "a.yaml"), str(tmp_path / "b.yaml")
        assert runner.invoke(
            main, ["concepts", path, "--mode", "isbell", "--out", out1]
        ).exit_code == 0
        assert runner.invoke(
            main, ["concepts", path, "--mode", "isbell", "--out", out2]
        ).exit_code == 0
        b1 = (tmp_path / "a.yaml").read_bytes()
        assert b1 == (tmp_path / "b.yaml").read_bytes()
        doc = yaml.safe_load(b1)
        assert doc["schema"] == "lattice/v1"
        assert doc["summary"]["concepts"] == 2
        assert len(doc["concepts"]) == 2
        assert all("provenance" in c for c in doc["concepts"])

    def test_tiny_cap_suggests_the_generated_algorithm(self, runner, tmp_path):
        path = write(tmp_path, "ctx1.yaml", ctx1_doc())
        result = runner.invoke(
            main, ["concepts", path, "--mode", "isbell", "--algorithm", "brute", "--cap", "1"]
        )
        assert result.exit_code == 1
        assert "algorithm=generated" in result.stderr

    def test_cap_environment_variable(self, runner, tmp_path, monkeypatch):
        path = write(tmp_path, "ctx1.yaml", ctx1_doc())
        monkeypatch.setenv("QUANTCAT_PRESHEAF_CAP", "3")
        result = runner.invoke(
            main, ["concepts", path, "--mode", "isbell", "--algorithm", "brute"]
        )
        assert result.exit_code == 1 and "cap 3" in result.stderr
        monkeypatch.setenv("QUANTCAT_PRESHEAF_CAP", "abc")
        result = runner.invoke(
            main, ["concepts", path, "--mode", "isbell", "--algorithm", "brute"]
        )
        assert result.exit_code == 1 and "integer" in result.stderr

    def test_quantaloid_bound_environment_variable(self, runner, tmp_path, monkeypatch):
        # Ł3: two 3×3 division tables plus the join and meet tables of 1-,
        # 2- and 3-element homs make 46 cells.
        path = write(tmp_path, "fuzzy.yaml", fuzzy_ctx_doc())
        monkeypatch.setenv("QUANTCAT_QUANTALOID_CAP", "45")
        result = runner.invoke(main, ["concepts", path, "--mode", "kan"])
        assert result.exit_code == 1 and result.stdout == ""
        assert result.stderr == (
            "error: the quantaloid of lukasiewicz-3 needs 46 table cells, over the bound 45; "
            "raise QUANTCAT_QUANTALOID_CAP\n"
        )
        monkeypatch.setenv("QUANTCAT_QUANTALOID_CAP", "46")
        assert runner.invoke(main, ["concepts", path, "--mode", "kan"]).exit_code == 0

    def test_a_huge_chain_is_refused_before_it_is_built(self, runner, tmp_path):
        # Building this chain's tensor alone would take 10^12 cells.
        doc = {**fuzzy_ctx_doc(), "quantale": {"kind": "lukasiewicz", "n": 1_000_000}}
        path = write(tmp_path, "huge.yaml", doc)
        start = time.perf_counter()
        result = runner.invoke(main, ["concepts", path, "--mode", "kan"])
        assert time.perf_counter() - start < 1
        assert result.exit_code == 1 and result.stdout == ""
        assert result.stderr == (
            "error: the quantaloid of lukasiewicz-1000000 needs 666669666667000000 table "
            "cells, over the bound 250000; raise QUANTCAT_QUANTALOID_CAP\n"
        )

    @pytest.mark.parametrize(
        "kind, build",
        [
            ("lukasiewicz", build_lukasiewicz_chain),
            ("godel", build_godel_chain),
            ("nilpotent-minimum", build_nilpotent_minimum_chain),
        ],
    )
    def test_a_chain_document_is_bounded_as_its_quantaloid(self, monkeypatch, kind, build):
        # Two n×n division tables and the join and meet tables of homs of
        # 1..n elements: the document and the builder refuse at the same
        # bound.
        for n in range(2, 12):
            cells = 2 * n * n + sum(2 * m * m for m in range(1, n + 1))
            monkeypatch.setenv("QUANTCAT_QUANTALOID_CAP", str(cells - 1))
            with pytest.raises(InvalidSize) as parsed:
                parse_quantale({"kind": kind, "n": n})
            with pytest.raises(InvalidSize) as built:
                quantaloid_from_divisible_quantale(build(n))
            assert str(parsed.value) == str(built.value) == (
                f"the quantaloid of {kind}-{n} needs {cells} table cells, "
                f"over the bound {cells - 1}; raise QUANTCAT_QUANTALOID_CAP"
            )
            monkeypatch.setenv("QUANTCAT_QUANTALOID_CAP", str(cells))
            assert parse_quantale({"kind": kind, "n": n}) == build(n)

    @pytest.mark.parametrize("how", ["option", "environment"])
    def test_cap_leaves_the_default_algorithm_alone(self, runner, tmp_path, monkeypatch, how):
        path = write(tmp_path, "ctx1.yaml", ctx1_doc())
        expected = runner.invoke(main, ["concepts", path, "--mode", "isbell"])
        args = ["concepts", path, "--mode", "isbell"]
        if how == "option":
            args += ["--cap", "1"]
        else:
            monkeypatch.setenv("QUANTCAT_PRESHEAF_CAP", "3")
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        assert result.stdout == expected.stdout

    def test_cap_still_bounds_the_certificate(self, runner, tmp_path):
        path = write(tmp_path, "ctx1.yaml", ctx1_doc())
        out = str(tmp_path / "lattice.yaml")
        result = runner.invoke(
            main, ["concepts", path, "--mode", "isbell", "--cap", "1", "--out", out]
        )
        assert result.exit_code == 0, result.output
        assert load_document(out)["completeness"]["checked"] is False

    @pytest.mark.parametrize("cap", ["0", "-3"])
    def test_cap_must_be_positive(self, runner, tmp_path, cap):
        path = write(tmp_path, "ctx1.yaml", ctx1_doc())
        result = runner.invoke(main, ["concepts", path, "--mode", "isbell", "--cap", cap])
        assert result.exit_code == 2

    def test_mode_is_required(self, runner, tmp_path):
        path = write(tmp_path, "ctx1.yaml", ctx1_doc())
        assert runner.invoke(main, ["concepts", path]).exit_code == 2

    @pytest.mark.parametrize("mode", ["isbell", "kan"])
    def test_cross_check_compares_extents_only(self, runner, tmp_path, monkeypatch, mode):
        import quantcat.adjunction as adjunction

        path = write(tmp_path, "fuzzy.yaml", fuzzy_ctx_doc())
        expected = runner.invoke(main, ["concepts", path, "--mode", mode])
        assembled = []
        original_init = adjunction.ConceptLattice.__init__

        def counting_init(self, source, kind, pairs):
            assembled.append(kind)
            original_init(self, source, kind, pairs)

        monkeypatch.setattr(adjunction.ConceptLattice, "__init__", counting_init)
        scans, kept_weights = [], adjunction._kept_weights

        # extents_differ makes the one brute scan, of the weights the source
        # keeps (adjunction._kept_weights); it is handed them in reverse
        def brute_scan(A, variance, cap):
            (types, vecs), weights = kept_weights(A, variance, cap)
            scans.append(weights)
            return (types[::-1], vecs[::-1]), weights[::-1]

        monkeypatch.setattr(adjunction, "_kept_weights", brute_scan)
        result = runner.invoke(main, ["concepts", path, "--mode", mode])
        assert result.exit_code == 0, result.output
        assert result.stdout == expected.stdout
        # The counts read the fixed pairs; only --out builds the lattice.
        assert assembled == [] and len(scans) == 1
        out = str(tmp_path / "lattice.yaml")
        result = runner.invoke(main, ["concepts", path, "--mode", mode, "--out", out])
        assert result.exit_code == 0, result.output
        assert result.stdout == expected.stdout
        assert assembled == [mode] and len(scans) == 2

        # a scan that misses the first concept's extent
        phi = parse_context_document(load_document(path)).distributor
        first = adjunction.concept_pairs(phi, mode)[0].extent
        missed = (first.type_idx, first.weights)

        def short_scan(A, variance, cap):
            (types, vecs), weights = kept_weights(A, variance, cap)
            kept = [i for i, member in enumerate(zip(types, vecs)) if member != missed]
            assert len(kept) == len(types) - 1
            return (tuple(types[i] for i in kept), tuple(vecs[i] for i in kept)), weights

        monkeypatch.setattr(adjunction, "_kept_weights", short_scan)
        result = runner.invoke(main, ["concepts", path, "--mode", mode])
        assert result.exit_code == 1
        assert result.stderr == "error: generated enumeration disagrees with brute enumeration\n"

    def test_document_is_built_only_for_out(self, runner, tmp_path, monkeypatch):
        path = write(tmp_path, "fuzzy.yaml", fuzzy_ctx_doc())
        expected = runner.invoke(main, ["concepts", path, "--mode", "kan"])

        def refuse(*args, **kwargs):
            raise AssertionError("lattice document built without --out")

        monkeypatch.setattr("quantcat.io.lattice_document", refuse)
        result = runner.invoke(main, ["concepts", path, "--mode", "kan"])
        assert result.exit_code == 0, result.output
        assert result.stdout == expected.stdout
        monkeypatch.setattr("quantcat.io.macneille_document", refuse)
        cat = write(tmp_path, "chain.yaml", chain_cat_doc())
        result = runner.invoke(main, ["macneille", cat])
        assert result.exit_code == 0 and result.stdout.startswith("2 cuts\n")


class TestMacneilleCommand:
    def test_chain_cuts_and_embedding(self, runner, tmp_path):
        path = write(tmp_path, "chain.yaml", chain_cat_doc())
        result = runner.invoke(main, ["macneille", path])
        assert result.exit_code == 0, result.output
        assert result.output == "2 cuts\nembed x -> c0\nembed y -> c1\n"
        out = str(tmp_path / "cuts.yaml")
        assert runner.invoke(main, ["macneille", path, "--out", out]).exit_code == 0
        doc = yaml.safe_load((tmp_path / "cuts.yaml").read_text())
        assert doc["embedding"] == {"x": "c0", "y": "c1"}
        assert doc["mode"] == "macneille"

    def test_brute_algorithm_agrees(self, runner, tmp_path):
        path = write(tmp_path, "chain.yaml", chain_cat_doc())
        gen = runner.invoke(main, ["macneille", path])
        brute = runner.invoke(main, ["macneille", path, "--algorithm", "brute"])
        assert brute.exit_code == 0 and brute.output == gen.output

    @pytest.mark.parametrize(
        "quantale, elements, hom, message",
        [
            (
                {"kind": "boolean"},
                {"x": "1", "y": "1", "z": "1"},
                {"x": {"y": "1"}, "y": {"z": "1"}},
                "transitivity fails at (x,y,z)",
            ),
            (
                {"kind": "lukasiewicz", "n": 3},
                {"x": "1"},
                {"x": {"x": "1/2"}},
                "unit constraint fails at x",
            ),
        ],
        ids=["not-transitive", "unit-below-membership"],
    )
    def test_category_laws_are_checked_first(
        self, runner, tmp_path, quantale, elements, hom, message
    ):
        doc = {"schema": "category/v1", "quantale": quantale, "elements": elements, "hom": hom}
        path = write(tmp_path, "bad.yaml", doc)
        for algorithm in ("generated", "brute"):
            result = runner.invoke(main, ["macneille", path, "--algorithm", algorithm])
            assert result.exit_code == 1
            assert result.exception is None or isinstance(result.exception, SystemExit)
            assert result.stdout == ""
            assert result.stderr == f"error: category: {message}\n"


class TestLawsCommand:
    def test_fixed_seed_is_byte_identical_and_passes(self, runner):
        first = runner.invoke(main, ["laws", "--seed", "3"])
        second = runner.invoke(main, ["laws", "--seed", "3"])
        assert first.exit_code == 0, first.output
        assert first.output == second.output
        lines = first.output.strip().splitlines()
        assert len(lines) == 12
        for line in lines:
            assert line.startswith("law=")
            assert " seed=3 profile=small instances=" in line
            assert line.endswith("status=PASS")

    def test_mutated_composition_fails_with_a_witness(self, runner):
        result = runner.invoke(main, ["laws", "--seed", "3", "--mutate", "compose"])
        assert result.exit_code == 1
        failing = [l for l in result.output.splitlines() if "status=FAIL" in l]
        assert failing
        assert any(
            l.startswith("law=residuation-adjointness") and "witness=" in l
            for l in failing
        )

    def test_unknown_profile_exits_2(self, runner):
        assert runner.invoke(main, ["laws", "--profile", "huge"]).exit_code == 2

    @pytest.mark.parametrize(
        "args",
        [["--help"], ["validate", "{ctx}", "--kind", "context"], ["concepts", "{ctx}", "--mode", "kan"],
         ["macneille", "{cat}"]],
        ids=["help", "validate", "concepts", "macneille"],
    )
    def test_other_commands_do_not_load_the_law_suites(self, tmp_path, args):
        import quantcat

        paths = {"ctx": write(tmp_path, "ctx1.yaml", ctx1_doc()),
                 "cat": write(tmp_path, "chain.yaml", chain_cat_doc())}
        script = (
            "import sys\n"
            "sys.modules['click'] = None\n"
            "from quantcat.cli import main\n"
            "try:\n"
            "    main(args=sys.argv[1:], prog_name='quantcat')\n"
            "except SystemExit as exc:\n"
            "    assert not exc.code, exc.code\n"
            "print('laws loaded' if 'quantcat.laws' in sys.modules else 'laws not loaded')\n"
        )
        src = os.path.dirname(os.path.dirname(quantcat.__file__))
        result = subprocess.run(
            [sys.executable, "-c", script, *(a.format(**paths) for a in args)],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, check=True,
        )
        assert result.stdout.endswith("laws not loaded\n")

    def test_laws_loads_no_document_layer(self):
        import quantcat

        script = (
            "import sys\n"
            "from quantcat import cli\n"
            "cli.main(['laws', '--profile', 'small', '--seed', '0'])\n"
            "print('loaded:', *[m for m in ('yaml', 'quantcat.io') if m in sys.modules])\n"
        )
        src = os.path.dirname(os.path.dirname(quantcat.__file__))
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, check=True,
        )
        assert "status=PASS" in result.stdout
        assert result.stdout.endswith("\nloaded:\n")

    def test_profile_choices_are_the_registered_profiles(self):
        import argparse

        from quantcat import laws
        from quantcat.cli import _parser

        parser = _parser("quantcat")
        (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        profile = next(a for a in commands.choices["laws"]._actions if a.dest == "profile")
        assert list(profile.choices) == sorted(laws.PROFILES)
