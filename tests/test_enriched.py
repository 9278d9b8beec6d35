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


# The Arrow-based bodies that underlying_leq replaced, kept as references.


def reference_underlying_preorder(A):
    Q = A.Q
    n = len(A)
    rel = [
        [
            A.types[i] == A.types[j] and Q.leq(Q.unit(A.types[i]), A.hom(i, j))
            for j in range(n)
        ]
        for i in range(n)
    ]
    skeletal = all(
        not (rel[i][j] and rel[j][i]) for i in range(n) for j in range(n) if i != j
    )
    return rel, skeletal


def reference_objects_isomorphic(A, i, j):
    if A.types[i] != A.types[j]:
        return False
    u = A.Q.unit(A.types[i])
    return A.Q.leq(u, A.hom(i, j)) and A.Q.leq(u, A.hom(j, i))


def reference_functor_leq(F, G):
    B = F.cod
    return all(
        B.types[F(i)] == B.types[G(i)]
        and B.Q.leq(B.Q.unit(B.types[F(i)]), B.hom(F(i), G(i)))
        for i in range(len(F.dom))
    )


class TestUnderlyingOrder:
    """The one underlying-order rule against the bodies it replaced."""

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(sorted(VALIDATOR_QUANTALOIDS)), st.randoms(use_true_random=False))
    def test_matches_the_arrow_bodies(self, name, rng):
        Q = VALIDATOR_QUANTALOIDS[name]
        B = rand_category(rng, Q, 4, 1)
        assert underlying_preorder(B) == reference_underlying_preorder(B)
        for i in range(len(B)):
            for j in range(len(B)):
                assert objects_isomorphic(B, i, j) == reference_objects_isomorphic(B, i, j)
        F = rand_functor_into(rng, B, rng.randint(0, 3))
        # Any parallel map will do: functor_leq does not check functoriality.
        G = QFunctor(F.dom, B, [rng.randrange(len(B)) for _ in range(len(F.dom))])
        for a, b in ((F, G), (G, F), (F, F)):
            assert functor_leq(a, b) == reference_functor_leq(a, b)


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


def reference_functor_adjoint_check(F, G):
    """B(Fx, y) = A(x, Gy) as Arrows, one pair per cell: the body that
    compares hom entries replaced."""
    A, B = F.dom, F.cod
    return all(B.hom(F(i), j) == A.hom(i, G(j)) for i in range(len(A)) for j in range(len(B)))


class TestFunctorAdjointCheck:
    @pytest.mark.parametrize("name", sorted(VALIDATOR_QUANTALOIDS))
    def test_seeded_pairs_match_the_arrow_formula(self, name):
        Q = VALIDATOR_QUANTALOIDS[name]
        verdicts = set()
        for seed in range(150):
            rng = random.Random(seed)
            A = rand_category(rng, Q, 3)
            if seed % 2:  # G a functor into A, F any map along it
                G = rand_functor_into(rng, A, rng.randint(0, 3) if len(A) else 0, "b")
                B = G.dom
            else:  # two categories and any maps, most of them not keeping types
                B = rand_category(rng, Q, 3)
                G = QFunctor(B, A, [rng.randrange(len(A)) for _ in B.labels]) if len(A) else None
            pairs = [(identity_functor(A), identity_functor(A))]
            if G is not None and (len(B) or not len(A)):
                pairs.append((QFunctor(A, B, [rng.randrange(len(B)) for _ in A.labels]), G))
            for F, G in pairs:
                verdict = functor_adjoint_check(F, G)
                assert verdict == reference_functor_adjoint_check(F, G)
                verdicts.add(verdict)
        assert verdicts == {True, False}

    def test_empty_categories(self):
        empty = discrete_category(QL3, QTypedSet((), ()))
        ident = identity_functor(empty)
        assert functor_adjoint_check(ident, ident) and reference_functor_adjoint_check(ident, ident)

    def test_a_type_failure_on_either_side_is_not_an_adjunction(self):
        # Every hom out of the object 0 of Ł3 has one element, index 0: the
        # entries agree cell by cell, and only their types tell them apart.
        zero, half = QL3.object_index("0"), QL3.object_index("1/2")
        A = discrete_category(QL3, QTypedSet(("a",), (zero,)))
        B = discrete_category(QL3, QTypedSet(("b0", "b1"), (zero, half)))
        keeps, back = QFunctor(A, B, [0]), QFunctor(B, A, [0, 0])  # back moves b1's type
        assert not reference_functor_adjoint_check(keeps, back)
        assert not functor_adjoint_check(keeps, back)
        A2 = discrete_category(QL3, QTypedSet(("a0", "a1"), (zero, half)))
        B2 = discrete_category(QL3, QTypedSet(("b",), (zero,)))
        moves, keeps_back = QFunctor(A2, B2, [0, 0]), QFunctor(B2, A2, [0])  # a1 moves
        assert not reference_functor_adjoint_check(moves, keeps_back)
        assert not functor_adjoint_check(moves, keeps_back)


class TestFullSubcategory:
    def test_inclusion_is_fully_faithful(self):
        sub = FullSubcategory(CHAIN, [1])
        inc = sub.inclusion()
        report, fully_faithful = validate_functor(inc)
        assert report == [] and fully_faithful
        assert sub.hom_idx[0][0] == CHAIN.hom_idx[1][1]
        assert list(sub.base_indices) == [1]
        assert sub.base is CHAIN
