from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from quantcat import (
    Arrow,
    ArrowTypeError,
    CategoryMismatch,
    QCategory,
    QFunctor,
    QTypedSet,
    compose_functors,
    discrete_category,
    functor_adjoint_check,
    functor_is_isomorphism,
    functor_leq,
    identity_functor,
    objects_isomorphic,
    underlying_preorder,
    validate_category,
    validate_functor,
)
from quantcat.enriched import FullSubcategory
from quantcat.laws import fixture_b4, fixture_ql, fixture_two, rand_category, rand_functor_into

from oracles import category_violations

TWO = fixture_two()
QL3 = fixture_ql(3)

CHAIN = QCategory(TWO, ("x", "y"), (0, 0), [[1, 1], [0, 1]])
ANTICHAIN = discrete_category(TWO, QTypedSet(("x", "y"), (0, 0)))
CODISCRETE = QCategory(TWO, ("x", "y"), (0, 0), [[1, 1], [1, 1]])


class TestCategoryLaws:
    def test_discrete_categories_validate(self):
        assert validate_category(ANTICHAIN) == []
        one = QL3.object_index("1")
        half = QL3.object_index("1/2")
        fuzzy = discrete_category(QL3, QTypedSet(("x", "y"), (one, half)))
        assert validate_category(fuzzy) == []
        # diagonal of a discrete fuzzy set is its membership degree
        assert fuzzy.hom(0, 0) == QL3.unit(one)
        assert fuzzy.hom(1, 1) == QL3.unit(half)

    def test_missing_unit_is_reported(self):
        broken = QCategory(TWO, ("x",), (0,), [[0]])
        report = validate_category(broken)
        assert report and "unit" in report[0]

    def test_broken_transitivity_is_reported(self):
        broken = QCategory(
            TWO, ("x", "y", "z"), (0, 0, 0), [[1, 1, 0], [0, 1, 1], [0, 0, 1]]
        )
        report = validate_category(broken)
        assert any("transitivity" in line for line in report)

    def test_out_of_range_hom_entry_is_a_type_error(self):
        with pytest.raises(ArrowTypeError):
            validate_category(QCategory(TWO, ("x",), (0,), [[7]]))

    @given(st.integers(0, 500))
    def test_seeded_categories_satisfy_the_laws(self, seed):
        rng = random.Random(seed)
        A = rand_category(rng, QL3 if seed % 2 else TWO, 4)
        assert validate_category(A) == []


# Quantaloids whose random categories the table-driven validator is checked on.
VALIDATOR_QUANTALOIDS = {"boolean": TWO, "lukasiewicz-3": QL3, "boolean-4": fixture_b4()}


class TestTableValidator:
    """validate_category against the arrow-by-arrow oracle."""

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(sorted(VALIDATOR_QUANTALOIDS)), st.randoms(), st.data())
    def test_random_and_corrupted_categories(self, name, rng, data):
        Q = VALIDATOR_QUANTALOIDS[name]
        A = rand_category(rng, Q, 4, 1)
        assert validate_category(A) == category_violations(A) == []
        i = data.draw(st.integers(0, len(A) - 1))
        j = data.draw(st.integers(0, len(A) - 1))
        hom = [list(row) for row in A.hom_idx]
        hom[i][j] = data.draw(st.integers(0, Q.homs[(A.types[i], A.types[j])].n - 1))
        corrupted = QCategory(Q, A.labels, A.types, hom)
        assert validate_category(corrupted) == category_violations(corrupted)


class TestUnderlyingPreorder:
    def test_chain_is_skeletal(self):
        order, skeletal = underlying_preorder(CHAIN)
        assert skeletal
        assert order[0][1] and not order[1][0]

    def test_codiscrete_pair_is_not_skeletal(self):
        order, skeletal = underlying_preorder(CODISCRETE)
        assert not skeletal
        assert objects_isomorphic(CODISCRETE, 0, 1)
        assert not objects_isomorphic(CHAIN, 0, 1)


class TestFunctors:
    def test_identity_and_composition(self):
        ident = identity_functor(CHAIN)
        report, fully_faithful = validate_functor(ident)
        assert report == [] and fully_faithful
        assert compose_functors(ident, ident) == ident

    def test_composition_requires_matching_middle(self):
        f = identity_functor(CHAIN)
        g = identity_functor(ANTICHAIN)
        with pytest.raises(CategoryMismatch):
            compose_functors(g, f)

    def test_hom_deflation_is_reported(self):
        # collapsing the chain onto its bottom object reverses an arrow
        collapse = QFunctor(CHAIN, CHAIN, [0, 0])
        report, _ = validate_functor(collapse)
        assert report == []  # x <= y maps to x <= x, still monotone
        swap = QFunctor(CHAIN, CHAIN, [1, 0])
        report, _ = validate_functor(swap)
        assert report != []

    def test_adjoint_functor_pair_on_the_chain(self):
        point = discrete_category(TWO, QTypedSet(("p",), (0,)))
        bang = QFunctor(CHAIN, point, [0, 0])
        top = QFunctor(point, CHAIN, [1])
        bottom = QFunctor(point, CHAIN, [0])
        assert functor_adjoint_check(bang, top)
        assert not functor_adjoint_check(bang, bottom)
        assert functor_adjoint_check(bottom, bang)

    def test_functor_order(self):
        point = discrete_category(TWO, QTypedSet(("p",), (0,)))
        bottom = QFunctor(point, CHAIN, [0])
        top = QFunctor(point, CHAIN, [1])
        assert functor_leq(bottom, top)
        assert not functor_leq(top, bottom)
        assert functor_leq(top, top)

    def test_isomorphisms(self):
        swap = QFunctor(ANTICHAIN, ANTICHAIN, [1, 0])
        assert functor_is_isomorphism(swap)
        collapse = QFunctor(ANTICHAIN, ANTICHAIN, [0, 0])
        assert not functor_is_isomorphism(collapse)
        assert not functor_is_isomorphism(QFunctor(CHAIN, CODISCRETE, [0, 1]))

    @given(st.integers(0, 300))
    def test_seeded_functors_validate_and_compose(self, seed):
        rng = random.Random(seed)
        C = rand_category(rng, TWO, 3, 1)
        G = rand_functor_into(rng, C, rng.randint(1, 3), "b")
        F = rand_functor_into(rng, G.dom, rng.randint(1, 3), "a")
        for func in (F, G):
            report, _ = validate_functor(func)
            assert report == []
        gf = compose_functors(G, F)
        report, _ = validate_functor(gf)
        assert report == []
        assert all(gf(i) == G(F(i)) for i in range(len(F.dom)))


class TestFullSubcategory:
    def test_inclusion_is_fully_faithful(self):
        sub = FullSubcategory(CHAIN, [1])
        inc = sub.inclusion()
        report, fully_faithful = validate_functor(inc)
        assert report == [] and fully_faithful
        assert sub.hom_idx[0][0] == CHAIN.hom_idx[1][1]
        assert list(sub.base_indices) == [1]
        assert sub.base is CHAIN
