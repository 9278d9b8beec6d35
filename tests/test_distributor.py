from __future__ import annotations

import itertools
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from quantcat import (
    CategoryMismatch,
    InvalidInfomorphism,
    PresheafSpaceTooLarge,
    QDistributor,
    QFunctor,
    QTypedSet,
    codirect_image,
    coinverse_image,
    compose_distributors,
    compose_infomorphisms,
    copresheaf_hom,
    coyoneda_weight,
    direct_image,
    discrete_category,
    dist_adjoint_check,
    dist_leq,
    dist_residual,
    enumerate_presheaves,
    functor_leq,
    graph_cograph,
    identity_distributor,
    identity_infomorphism,
    image_functor,
    infomorphism,
    inverse_image,
    membership_distributor,
    presheaf_category,
    presheaf_hom,
    presheaf_join,
    presheaf_meet,
    presheaf_space_bound,
    validate_distributor,
    validate_infomorphism,
    weight_leq,
    yoneda,
    yoneda_infomorphism,
    yoneda_weight,
)
from quantcat import distributor
from quantcat.distributor import (
    Copresheaf,
    Presheaf,
    bottom_presheaf,
    top_presheaf,
    validate_copresheaf,
    validate_presheaf,
)
from quantcat.laws import (
    fixture_b4,
    fixture_ctx1,
    fixture_ql,
    fixture_two,
    rand_category,
    rand_distributor,
    rand_functor_into,
    rand_infomorphism_pair,
    rand_presheaf,
)
from oracles import SINGLETON_HALF_WEIGHT_COUNT

TWO = fixture_two()
QL3 = fixture_ql(3)


def seeded(seed):
    return random.Random(seed)


def all_distributors(A, B):
    """Exhaustive enumeration, for tiny categories only."""
    Q = A.Q
    cells = [(x, y) for x in range(len(A)) for y in range(len(B))]
    sizes = [Q.homs[(A.types[x], B.types[y])].n for x, y in cells]
    for combo in itertools.product(*(range(s) for s in sizes)):
        matrix = [[0] * len(B) for _ in range(len(A))]
        for (x, y), v in zip(cells, combo):
            matrix[x][y] = v
        cand = QDistributor(A, B, matrix)
        if validate_distributor(cand) == []:
            yield cand


class TestDistributorAlgebra:
    @given(st.integers(0, 200))
    def test_identity_laws(self, seed):
        rng = seeded(seed)
        Q = TWO if seed % 2 else QL3
        A = rand_category(rng, Q, 3, 1)
        B = rand_category(rng, Q, 3, 1)
        phi = rand_distributor(rng, A, B)
        assert validate_distributor(phi) == []
        assert compose_distributors(phi, identity_distributor(A)) == phi
        assert compose_distributors(identity_distributor(B), phi) == phi

    @given(st.integers(0, 200))
    def test_composition_is_associative(self, seed):
        rng = seeded(seed)
        Q = TWO if seed % 2 else QL3
        A, B, C, D = (rand_category(rng, Q, 2, 1) for _ in range(4))
        phi = rand_distributor(rng, A, B)
        psi = rand_distributor(rng, B, C)
        chi = rand_distributor(rng, C, D)
        assert compose_distributors(chi, compose_distributors(psi, phi)) == \
            compose_distributors(compose_distributors(chi, psi), phi)

    def test_residuals_are_universal(self):
        # exhaustive over all distributors between two tiny crisp categories
        rng = seeded(5)
        A = rand_category(rng, TWO, 2, 1)
        B = rand_category(rng, TWO, 2, 1)
        C = rand_category(rng, TWO, 2, 1)
        for phi in all_distributors(A, B):
            for chi in all_distributors(A, C):
                lifted = dist_residual("left", chi, phi)
                for psi in all_distributors(B, C):
                    assert dist_leq(compose_distributors(psi, phi), chi) == dist_leq(
                        psi, lifted
                    )
        for psi in all_distributors(B, C):
            for chi in all_distributors(A, C):
                lowered = dist_residual("right", psi, chi)
                for phi in all_distributors(A, B):
                    assert dist_leq(compose_distributors(psi, phi), chi) == dist_leq(
                        phi, lowered
                    )


class TestGraphAndCograph:
    @given(st.integers(0, 200))
    def test_graph_is_left_adjoint_to_cograph(self, seed):
        rng = seeded(seed)
        Q = TWO if seed % 2 else QL3
        B = rand_category(rng, Q, 3, 1)
        F = rand_functor_into(rng, B, rng.randint(0, 3))
        graph, cograph = graph_cograph(F)
        assert validate_distributor(graph) == []
        assert validate_distributor(cograph) == []
        assert dist_adjoint_check(graph, cograph)

    def test_fully_faithful_means_cograph_after_graph_is_identity(self):
        sub = discrete_category(TWO, QTypedSet(("x",), (0,)))
        amb = QCategory = discrete_category(TWO, QTypedSet(("x", "y"), (0, 0)))
        F = QFunctor(sub, amb, [0])
        graph, cograph = graph_cograph(F)
        assert compose_distributors(cograph, graph) == identity_distributor(sub)

    @given(st.integers(0, 150))
    def test_graphs_compose_contravariantly(self, seed):
        rng = seeded(seed)
        Q = TWO if seed % 2 else QL3
        C = rand_category(rng, Q, 2, 1)
        G = rand_functor_into(rng, C, rng.randint(1, 2), "b")
        F = rand_functor_into(rng, G.dom, rng.randint(1, 2), "a")
        from quantcat import compose_functors

        graph_gf, cograph_gf = graph_cograph(compose_functors(G, F))
        graph_f, cograph_f = graph_cograph(F)
        graph_g, cograph_g = graph_cograph(G)
        assert graph_gf == compose_distributors(graph_g, graph_f)
        assert cograph_gf == compose_distributors(cograph_f, cograph_g)

    def test_functor_order_matches_graph_order(self):
        chain = QCategory_chain()
        point = discrete_category(TWO, QTypedSet(("p",), (0,)))
        bottom = QFunctor(point, chain, [0])
        top = QFunctor(point, chain, [1])
        g_bot, c_bot = graph_cograph(bottom)
        g_top, c_top = graph_cograph(top)
        assert functor_leq(bottom, top)
        assert dist_leq(g_top, g_bot)  # graphs reverse the order
        assert dist_leq(c_bot, c_top)  # cographs preserve it


def QCategory_chain():
    from quantcat import QCategory

    return QCategory(TWO, ("x", "y"), (0, 0), [[1, 1], [0, 1]])


class TestWeights:
    def test_crisp_weight_spaces_count_subsets(self):
        A = discrete_category(TWO, QTypedSet(("x", "y"), (0, 0)))
        assert presheaf_space_bound(A, 0) == 4
        assert len(enumerate_presheaves(A, "contra")) == 4
        assert len(enumerate_presheaves(A, "co")) == 4

    def test_fuzzy_singleton_weight_count(self):
        half = QL3.object_index("1/2")
        A = discrete_category(QL3, QTypedSet(("x",), (half,)))
        total = len(enumerate_presheaves(A, "contra"))
        assert total == SINGLETON_HALF_WEIGHT_COUNT

    def test_enumeration_cap(self):
        A = discrete_category(TWO, QTypedSet(tuple("abcdef"), (0,) * 6))
        with pytest.raises(PresheafSpaceTooLarge):
            enumerate_presheaves(A, "contra", cap=10)

    @given(st.integers(0, 150))
    def test_meet_and_join_are_bounds(self, seed):
        rng = seeded(seed)
        Q = TWO if seed % 2 else QL3
        A = rand_category(rng, Q, 3, 1)
        t = rng.randrange(len(Q.objects))
        mu = rand_presheaf(rng, A, t)
        nu = rand_presheaf(rng, A, t)
        meet = presheaf_meet([mu, nu], A, t)
        join = presheaf_join([mu, nu], A, t)
        assert weight_leq(meet, mu) and weight_leq(meet, nu)
        assert weight_leq(mu, join) and weight_leq(nu, join)
        assert weight_leq(meet, join)
        assert presheaf_meet([], A, t) == top_presheaf(A, t)
        assert presheaf_join([], A, t) == bottom_presheaf(A, t)

    def test_hom_is_a_category_structure(self):
        rng = seeded(11)
        A = rand_category(rng, QL3, 2, 1)
        weights = enumerate_presheaves(A, "contra")
        Q = A.Q
        for mu in weights:
            assert Q.leq(Q.unit(mu.type_idx), presheaf_hom(mu, mu))
        for mu in weights:
            for nu in weights:
                for rho in weights:
                    assert Q.leq(
                        Q.compose(presheaf_hom(nu, rho), presheaf_hom(mu, nu)),
                        presheaf_hom(mu, rho),
                    )


def filtered_weights(A, variance):
    """Every candidate weight in itertools.product order, kept when the
    Arrow-based validator finds no action violation."""
    Q = A.Q
    contra = variance == "contra"
    weight, check = (Presheaf, validate_presheaf) if contra else (Copresheaf, validate_copresheaf)
    out = []
    for t in range(len(Q.objects)):
        sizes = [Q.homs[(tx, t) if contra else (t, tx)].n for tx in A.types]
        for weights in itertools.product(*(range(s) for s in sizes)):
            cand = weight(A, t, weights)
            if not check(cand):
                out.append(cand)
    return out


ENUMERATION_FIXTURES = {"two": fixture_two, "ql3": lambda: fixture_ql(3), "b4": fixture_b4}


class TestWeightEnumeration:
    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(0, 10_000),
        st.sampled_from(sorted(ENUMERATION_FIXTURES)),
        st.sampled_from(["contra", "co"]),
    )
    def test_search_equals_filtered_product(self, seed, fixture, variance):
        A = rand_category(seeded(seed), ENUMERATION_FIXTURES[fixture](), 4)
        assert enumerate_presheaves(A, variance) == filtered_weights(A, variance)

    def test_validators_are_not_called(self, monkeypatch):
        def refuse(_):
            raise AssertionError("enumeration must not call the Arrow-based validators")

        rng = seeded(3)
        A = rand_category(rng, QL3, 3, 3)
        expected = {v: filtered_weights(A, v) for v in ("contra", "co")}
        monkeypatch.setattr(distributor, "validate_presheaf", refuse)
        monkeypatch.setattr(distributor, "validate_copresheaf", refuse)
        for variance, weights in expected.items():
            assert enumerate_presheaves(A, variance) == weights

    @pytest.mark.parametrize("variance", ["contra", "co"])
    def test_cap_is_checked_before_any_weight_is_built(self, monkeypatch, variance):
        # Twelve objects of type 1 over the three-chain: the spaces of types
        # 0, 1/2 and 1 hold 1, 2^12 and 3^12 candidates.
        one = QL3.object_index("1")
        A = discrete_category(QL3, QTypedSet(tuple(f"x{i}" for i in range(12)), (one,) * 12))

        def spy(*args):
            raise AssertionError("a weight was built before the cap check")

        monkeypatch.setattr(distributor, "Presheaf", spy)
        monkeypatch.setattr(distributor, "Copresheaf", spy)
        with pytest.raises(PresheafSpaceTooLarge) as exc:
            enumerate_presheaves(A, variance, cap=5000)
        assert (exc.value.bound, exc.value.cap) == (3**12, 5000)
        assert str(exc.value) == str(PresheafSpaceTooLarge(3**12, 5000))

    def test_search_keeps_no_call_stack_per_object(self):
        # 298 objects of type 0 and two of type 1 over the three-chain: one
        # free value per type-1 object, 300 positions deep.
        zero, one = QL3.object_index("0"), QL3.object_index("1")
        types = (zero,) * 298 + (one, one)
        A = discrete_category(QL3, QTypedSet(tuple(f"x{i}" for i in range(300)), types))
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(200)
        try:
            weights = enumerate_presheaves(A, "contra")
        finally:
            sys.setrecursionlimit(limit)
        expected = [
            (t, (0,) * 298 + pair)
            for t in range(len(QL3.objects))
            for pair in itertools.product(range(QL3.homs[(one, t)].n), repeat=2)
        ]
        assert [(w.type_idx, w.weights) for w in weights] == expected


class TestYoneda:
    @given(st.integers(0, 200))
    def test_reduction_identities(self, seed):
        rng = seeded(seed)
        Q = TWO if seed % 2 else QL3
        A = rand_category(rng, Q, 3, 1)
        mu = rand_presheaf(rng, A)
        for a in range(len(A)):
            ya = yoneda_weight(A, a)
            assert presheaf_hom(ya, mu).idx == mu.weights[a]
        lam_type = rng.randrange(len(Q.objects))
        lam = enumerate_presheaves(A, "co")[0]
        for a in range(len(A)):
            assert copresheaf_hom(lam, coyoneda_weight(A, a)).idx == lam.weights[a]

    def test_embedding_into_the_weight_category(self):
        rng = seeded(23)
        A = rand_category(rng, QL3, 2, 1)
        PA = presheaf_category(A)
        emb = yoneda(A, PA)
        from quantcat import validate_functor

        report, fully_faithful = validate_functor(emb)
        assert report == [] and fully_faithful


class TestImageFunctors:
    @given(st.integers(0, 100))
    def test_direct_image_is_left_adjoint_to_inverse_image(self, seed):
        rng = seeded(seed)
        Q = TWO if seed % 2 else QL3
        B = rand_category(rng, Q, 2, 1)
        F = rand_functor_into(rng, B, rng.randint(1, 2))
        A = F.dom
        for mu in enumerate_presheaves(A, "contra"):
            for nu in enumerate_presheaves(B, "contra"):
                if mu.type_idx != nu.type_idx:
                    continue
                assert presheaf_hom(direct_image(F, mu), nu) == presheaf_hom(
                    mu, inverse_image(F, nu)
                )

    @given(st.integers(0, 100))
    def test_coinverse_image_is_left_adjoint_to_codirect_image(self, seed):
        rng = seeded(seed)
        Q = TWO if seed % 2 else QL3
        B = rand_category(rng, Q, 2, 1)
        F = rand_functor_into(rng, B, rng.randint(1, 2))
        A = F.dom
        # hom direction flips because the underlying order of covariant
        # weights is reversed pointwise
        for gam in enumerate_presheaves(B, "co"):
            for nu in enumerate_presheaves(A, "co"):
                if gam.type_idx != nu.type_idx:
                    continue
                assert copresheaf_hom(coinverse_image(F, gam), nu) == copresheaf_hom(
                    gam, codirect_image(F, nu)
                )

    def test_image_functor_wrapping(self):
        rng = seeded(3)
        B = rand_category(rng, TWO, 2, 1)
        F = rand_functor_into(rng, B, 2)
        A = F.dom
        PA, PB = presheaf_category(A), presheaf_category(B)
        fwd = image_functor(F, "ra", PA, PB)
        back = image_functor(F, "la", PB, PA)
        from quantcat import functor_adjoint_check, validate_functor

        for func in (fwd, back):
            report, _ = validate_functor(func)
            assert report == []
        assert functor_adjoint_check(fwd, back)
        with pytest.raises(ValueError):
            image_functor(F, "sideways", PA, PB)
        with pytest.raises(CategoryMismatch):
            image_functor(F, "ra", PB, PA)

    def test_direct_image_extends_the_functor_along_yoneda(self):
        rng = seeded(9)
        B = rand_category(rng, QL3, 2, 1)
        F = rand_functor_into(rng, B, 2)
        A = F.dom
        for a in range(len(A)):
            assert direct_image(F, yoneda_weight(A, a)) == yoneda_weight(B, F(a))


class TestInfomorphisms:
    @given(st.integers(0, 120))
    def test_seeded_pairs_validate_and_compose(self, seed):
        rng = seeded(seed)
        Q = TWO if seed % 2 else QL3
        i1, i2 = rand_infomorphism_pair(rng, Q, 2)
        assert validate_infomorphism(i1) == []
        assert validate_infomorphism(i2) == []
        comp = compose_infomorphisms(i2, i1)
        assert validate_infomorphism(comp) == []
        ident = identity_infomorphism(i1.source)
        assert compose_infomorphisms(i1, ident) == i1

    def test_exchange_violations_are_rejected(self):
        ctx1 = fixture_ctx1()
        A, B = ctx1.dom, ctx1.cod
        other = QDistributor(A, B, [[0, 0], [0, 0]])
        F = QFunctor(A, A, [0, 1])
        G = QFunctor(B, B, [0, 1])
        with pytest.raises(InvalidInfomorphism):
            infomorphism(ctx1, other, F, G)

    def test_membership_distributor_is_the_yoneda_graph(self):
        rng = seeded(4)
        A = rand_category(rng, TWO, 3, 1)
        PA = presheaf_category(A)
        ev = membership_distributor(A, PA)
        assert validate_distributor(ev) == []
        graph, _ = graph_cograph(yoneda(A, PA))
        assert ev == graph

    @given(st.integers(0, 80))
    def test_every_functor_induces_an_infomorphism(self, seed):
        rng = seeded(seed)
        B = rand_category(rng, TWO, 2, 1)
        F = rand_functor_into(rng, B, rng.randint(1, 2))
        PA = presheaf_category(F.dom)
        PB = presheaf_category(B)
        info = yoneda_infomorphism(F, PA, PB)
        assert validate_infomorphism(info) == []
