"""Byte-level pins of law reports and lattice documents.

Each digest is the sha256 of output produced by a fixed input: `laws`
stdout for two seeds under both profiles, and serialized lattice and cut documents for a few
contexts and categories.  The documents include concept order, provenance
strings and the completeness certificate, so a refactor of the weight
kernels, fixed-point generation or lattice assembly that changes any byte
shows up here.
"""

from __future__ import annotations

import hashlib

import pytest
from click.testing import CliRunner

from quantcat.adjunction import concept_lattice, macneille_completion
from quantcat.cli import main
from quantcat.io import (
    document_bytes,
    lattice_document,
    macneille_document,
    parse_category_document,
    parse_context_document,
)


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


def luk5_ctx_doc() -> dict:
    return {
        "schema": "context/v1",
        "quantale": {"kind": "lukasiewicz", "n": 5},
        "objects": {"a": "1", "b": "1", "c": "1"},
        "attributes": {"p": "1", "q": "1", "r": "1"},
        "incidence": {
            "a": {"p": "3/4", "q": "1/2", "r": "1/4"},
            "b": {"p": "1/2", "q": "1", "r": "0"},
            "c": {"p": "1/4", "q": "1/2", "r": "1"},
        },
    }


def boolean4_ctx_doc() -> dict:
    return {
        "schema": "context/v1",
        "quantale": {"kind": "boolean-algebra", "atoms": 2},
        "objects": {"x": "ab", "y": "a"},
        "attributes": {"u": "ab", "v": "b"},
        "incidence": {"x": {"u": "a", "v": "b"}, "y": {"u": "a"}},
    }


def chain_cat_doc() -> dict:
    return {
        "schema": "category/v1",
        "quantale": {"kind": "boolean"},
        "elements": {"x": "1", "y": "1"},
        "hom": {"x": {"y": "1"}},
    }


def antichain_cat_doc() -> dict:
    return {
        "schema": "category/v1",
        "quantale": {"kind": "boolean"},
        "elements": {"x": "1", "y": "1"},
    }


CONTEXTS = {
    "ctx1": ctx1_doc,
    "fuzzy": fuzzy_ctx_doc,
    "luk5": luk5_ctx_doc,
    "boolean4": boolean4_ctx_doc,
}

CATEGORIES = {"chain": chain_cat_doc, "antichain": antichain_cat_doc}

LAWS_DIGESTS = {
    0: "9fe25b722398a377cbc43b83a1e39dff6fee059c09dd0880862b5192f8cc2254",
    7: "89e2b41b0dad2a0c44ca762c953437920422cb95aff34149228cb066ccd5048f",
}

MEDIUM_LAWS_DIGESTS = {
    0: "47633acd17b04068454cd7fd2db97f73fdaa0e6733df712f9ec56cf6110fa272",
    7: "b3c7ce829f8b84b5de4c4980f3352c96213ba5008a8de1c3a493e37570430dc4",
}

LATTICE_DIGESTS = {
    ("ctx1", "isbell"): "4cc8fe74c596762b6c10f6e226c47d8cf57179a71e5cc199fb3bb4242b825a42",
    ("ctx1", "kan"): "d5c4ae9f01e03fd5138f27a81ec56770480d786bac3160c0be0fa44ca04a7232",
    ("fuzzy", "isbell"): "957535a29e2ab927592064554698657ce782de8a651233b629186bb0002ed890",
    ("fuzzy", "kan"): "944c6da234f68e33d5191535d301a1029fc1b79c7400c0c57cbab9936d5aa1b4",
    ("luk5", "isbell"): "6c59eb542e54d24a86dec4ac29c55c9369d02a1b34e00ba95abc200552ecc97c",
    ("luk5", "kan"): "6b4eeb142410b4257b5e1e12f18f4cbf49f9d650d49aff0a1c22baf712d9537c",
    ("boolean4", "isbell"): "d36699cd8423922ff754284dac1527c91c9c80eba349d3d05b1a92437927bed2",
    ("boolean4", "kan"): "856025a22cef9ff76436812b1794b3e984b38af1a974203cb91a8a6a1974570f",
}

MACNEILLE_DIGESTS = {
    "chain": "bcdb8a6e3d33e792efe3a77ead7af070be5290b8fc4f040a544664c5ea34fabb",
    "antichain": "ce4ba31c8826eb7edd93e7ddecdd40a0b530ac6aac5d0ca5c4128172a33a4d6d",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def laws_stdout(seed: int, profile: str = "small") -> bytes:
    result = CliRunner().invoke(main, ["laws", "--seed", str(seed), "--profile", profile])
    assert result.exit_code == 0, result.output
    return result.stdout_bytes


def lattice_bytes(name: str, mode: str) -> bytes:
    bundle = parse_context_document(CONTEXTS[name]())
    lattice = concept_lattice(bundle.distributor, mode)
    return document_bytes(lattice_document(lattice, bundle.quantale, mode, "generated"))


def macneille_bytes(name: str) -> bytes:
    bundle = parse_category_document(CATEGORIES[name]())
    lattice, embedding = macneille_completion(bundle.category)
    return document_bytes(
        macneille_document(lattice, embedding, bundle.quantale, "generated")
    )


@pytest.mark.parametrize("seed", sorted(LAWS_DIGESTS))
def test_laws_stdout(seed):
    assert sha256(laws_stdout(seed)) == LAWS_DIGESTS[seed]


@pytest.mark.parametrize("seed", sorted(MEDIUM_LAWS_DIGESTS))
def test_laws_medium_stdout(seed):
    assert sha256(laws_stdout(seed, "medium")) == MEDIUM_LAWS_DIGESTS[seed]


@pytest.mark.parametrize("name,mode", sorted(LATTICE_DIGESTS))
def test_lattice_document(name, mode):
    assert sha256(lattice_bytes(name, mode)) == LATTICE_DIGESTS[(name, mode)]


@pytest.mark.parametrize("name", sorted(MACNEILLE_DIGESTS))
def test_macneille_document(name):
    assert sha256(macneille_bytes(name)) == MACNEILLE_DIGESTS[name]
