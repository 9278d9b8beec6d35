"""Galois/extension adjunctions of a distributor, their fixed-point
lattices, duality over a dualizing negation, functoriality, density."""

from __future__ import annotations

import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    ANTICHAIN2_CUT_COUNT,
    CHAIN2_CUT_COUNT,
    CTX1_CLASSICAL,
    CTX1_PROPERTY_ORIENTED,
    EMPTY_CUT_COUNT,
    classical_concepts,
    macneille_cuts,
    powerset,
    property_oriented_concepts,
)
from quantcat import (
    CategoryMismatch,
    ClosureSpace,
    Copresheaf,
    InternalCheckError,
    Presheaf,
    QCategory,
    QDistributor,
    QFunctor,
    QTypedSet,
    closure_from_system,
    closure_to_context,
    compose_functors,
    compose_infomorphisms,
    concept_functor_image,
    concept_lattice,
    coyoneda_weight,
    dense_factorization,
    density_check,
    direct_image,
    discrete_category,
    functor_adjoint_check,
    functor_is_isomorphism,
    girard_duality_check,
    identity_functor,
    identity_infomorphism,
    is_complete,
    isbell_transform,
    kan_transform,
    macneille_completion,
    meet_cotensor_closure,
    negate_copresheaf,
    negate_distributor,
    negate_presheaf,
    presheaf_category,
    state_property_system_check,
    sup_inf,
    validate_functor,
    weighted_colimit_limit,
    yoneda_weight,
)
from quantcat.adjunction import concept_pairs
from quantcat.laws import (
    fixture_b4,
    fixture_ctx1,
    fixture_fuzzy_ctx,
    fixture_girard,
    fixture_ql,
    fixture_two,
    rand_category,
    rand_context,
    rand_distributor,
    rand_infomorphism_pair,
)

TWO = fixture_two()
CTX1 = fixture_ctx1()
FUZZY = fixture_fuzzy_ctx()


def crisp_context(objects, attributes, bits) -> QDistributor:
    A = discrete_category(TWO, QTypedSet(tuple(objects), (0,) * len(objects)))
    B = discrete_category(TWO, QTypedSet(tuple(attributes), (0,) * len(attributes)))
    return QDistributor(A, B, [list(row) for row in bits])


def char_presheaf(A: QCategory, members) -> Presheaf:
    return Presheaf(A, 0, tuple(int(l in members) for l in A.labels))


def char_copresheaf(B: QCategory, members) -> Copresheaf:
    return Copresheaf(B, 0, tuple(int(l in members) for l in B.labels))


def as_set(labels, weights) -> frozenset:
    return frozenset(l for l, w in zip(labels, weights) if w)


def incidence_of(objects, attributes, bits) -> set:
    return {
        (x, y)
        for i, x in enumerate(objects)
        for j, y in enumerate(attributes)
        if bits[i][j]
    }


def crisp_cases(max_side=2):
    names = ("1", "2", "3")
    attrs = ("a", "b", "c")
    for m in range(1, max_side + 1):
        for n in range(1, max_side + 1):
            objects, attributes = names[:m], attrs[:n]
            for flat in product((0, 1), repeat=m * n):
                bits = [flat[i * n : (i + 1) * n] for i in range(m)]
                yield objects, attributes, bits


def concept_sets(lattice, phi):
    out = set()
    for i in range(len(lattice)):
        extent, intent = lattice.concept(i)
        out.add(
            (
                as_set(phi.dom.labels, extent.weights),
                as_set(phi.cod.labels, intent.weights),
            )
        )
    return out


class TestOperatorsAgainstClassicalFCA:
    def test_galois_pair_is_derivation(self):
        for objects, attributes, bits in crisp_cases():
            phi = crisp_context(objects, attributes, bits)
            incidence = incidence_of(objects, attributes, bits)
            for subset in powerset(objects):
                u = set(subset)
                up = isbell_transform(phi, "up", char_presheaf(phi.dom, u))
                assert as_set(attributes, up.weights) == {
                    y for y in attributes if all((x, y) in incidence for x in u)
                }
            for subset in powerset(attributes):
                v = set(subset)
                down = isbell_transform(phi, "down", char_copresheaf(phi.cod, v))
                assert as_set(objects, down.weights) == {
                    x for x in objects if all((x, y) in incidence for y in v)
                }

    def test_extension_pair_is_possibility_and_necessity(self):
        for objects, attributes, bits in crisp_cases():
            phi = crisp_context(objects, attributes, bits)
            incidence = incidence_of(objects, attributes, bits)
            for subset in powerset(attributes):
                v = set(subset)
                star = kan_transform(phi, "star", char_presheaf(phi.cod, v))
                assert as_set(objects, star.weights) == {
                    x for x in objects if any((x, y) in incidence for y in v)
                }
            for subset in powerset(objects):
                u = set(subset)
                lower = kan_transform(phi, "lower", char_presheaf(phi.dom, u))
                assert as_set(attributes, lower.weights) == {
                    y
                    for y in attributes
                    if all(x in u for x in objects if (x, y) in incidence)
                }

    def test_weight_checks(self):
        with pytest.raises(CategoryMismatch):
            isbell_transform(CTX1, "up", char_presheaf(CTX1.cod, ()))
        with pytest.raises(CategoryMismatch):
            kan_transform(CTX1, "lower", char_presheaf(CTX1.cod, ()))
        with pytest.raises(ValueError):
            isbell_transform(CTX1, "sideways", char_presheaf(CTX1.dom, ()))
        with pytest.raises(ValueError):
            kan_transform(CTX1, "up", char_presheaf(CTX1.dom, ()))


class TestConceptLattices:
    @pytest.mark.parametrize("algorithm", ["brute", "generated"])
    def test_crisp_lattices_match_the_classical_oracles(self, algorithm):
        for objects, attributes, bits in crisp_cases():
            phi = crisp_context(objects, attributes, bits)
            incidence = incidence_of(objects, attributes, bits)
            got = concept_sets(concept_lattice(phi, "isbell", algorithm), phi)
            want = {(u, v) for u, v in classical_concepts(objects, attributes, incidence)}
            assert got == want
            got = concept_sets(concept_lattice(phi, "kan", algorithm), phi)
            want = {
                (u, v) for u, v in property_oriented_concepts(objects, attributes, incidence)
            }
            assert got == want

    def test_worked_example_concepts(self):
        isbell = concept_lattice(CTX1, "isbell")
        assert concept_sets(isbell, CTX1) == {
            (u, v) for u, v in CTX1_CLASSICAL
        }
        kan = concept_lattice(CTX1, "kan")
        assert concept_sets(kan, CTX1) == {
            (u, v) for u, v in CTX1_PROPERTY_ORIENTED
        }
        assert isbell.per_type_counts() == {"*": 2}
        assert kan.per_type_counts() == {"*": 3}

    def test_hom_is_extent_inclusion(self):
        for kind in ("isbell", "kan"):
            L = concept_lattice(CTX1, kind)
            for i in range(len(L)):
                for j in range(len(L)):
                    included = all(
                        a <= b
                        for a, b in zip(L.concept(i).extent.weights, L.concept(j).extent.weights)
                    )
                    assert (L.hom_idx[i][j] == 1) == included

    def test_lattices_are_complete(self):
        for kind in ("isbell", "kan"):
            assert is_complete(concept_lattice(CTX1, kind)) == (True, None)
            assert is_complete(concept_lattice(FUZZY, kind)) == (True, None)

    def test_fuzzy_lattices_agree_across_algorithms(self):
        for kind, size in (("isbell", 4), ("kan", 6)):
            gen = concept_lattice(FUZZY, kind, "generated")
            brute = concept_lattice(FUZZY, kind, "brute")
            assert len(gen) == len(brute) == size
            assert [p.extent for p in gen.pairs] == [p.extent for p in brute.pairs]
            assert [p.intent for p in gen.pairs] == [p.intent for p in brute.pairs]

    def test_provenance_describes_each_concept(self):
        isbell = concept_lattice(CTX1, "isbell")
        for tag in isbell.provenance:
            assert (
                tag in ("empty-meet", "meet-of-generators")
                or tag.startswith("cotensor[")
            )
        kan = concept_lattice(CTX1, "kan")
        for tag in kan.provenance:
            assert (
                tag in ("empty-join", "join-of-generators")
                or tag.startswith("tensor[")
            )

    def test_lookup_by_extent_and_intent(self):
        L = concept_lattice(CTX1, "isbell")
        for i in range(len(L)):
            assert L.index_by_extent(L.concept(i).extent) == i
            assert L.index_by_intent(L.concept(i).intent) == i
        with pytest.raises(InternalCheckError):
            L.index_by_extent(char_presheaf(CTX1.dom, ("2",)))

    def test_kind_and_algorithm_are_checked(self):
        with pytest.raises(ValueError):
            concept_lattice(CTX1, "galois")
        with pytest.raises(ValueError):
            concept_lattice(CTX1, "isbell", "magic")
        for algorithm in ("brute", "generated"):
            with pytest.raises(ValueError, match="^kind must be 'isbell' or 'kan', got 'isbel'$"):
                concept_pairs(CTX1, "isbel", algorithm)


class TestMacNeilleCompletion:
    def test_worked_cut_counts(self):
        chain = QCategory(TWO, ("x", "y"), (0, 0), [[1, 1], [0, 1]])
        antichain = QCategory(TWO, ("x", "y"), (0, 0), [[1, 0], [0, 1]])
        empty = QCategory(TWO, (), (), [])
        for algorithm in ("generated", "brute"):
            assert len(macneille_completion(chain, algorithm)[0]) == CHAIN2_CUT_COUNT
            assert (
                len(macneille_completion(antichain, algorithm)[0])
                == ANTICHAIN2_CUT_COUNT
            )
            assert len(macneille_completion(empty, algorithm)[0]) == EMPTY_CUT_COUNT

    def test_counts_match_the_cut_oracle(self):
        vee = QCategory(TWO, ("a", "b", "c"), (0, 0, 0), [[1, 0, 1], [0, 1, 1], [0, 0, 1]])
        for A in (vee,):
            order = {
                (A.labels[i], A.labels[j])
                for i in range(len(A))
                for j in range(len(A))
                if A.hom_idx[i][j] == 1
            }
            lattice, emb = macneille_completion(A)
            assert len(lattice) == len(macneille_cuts(A.labels, order))
            assert validate_functor(emb) == ([], True)

    def test_completion_is_idempotent(self):
        chain = QCategory(TWO, ("x", "y"), (0, 0), [[1, 1], [0, 1]])
        lattice, _ = macneille_completion(chain)
        _, again = macneille_completion(lattice)
        assert functor_is_isomorphism(again)

    def test_complete_skeletal_categories_are_their_own_completion(self):
        chain = QCategory(TWO, ("x", "y"), (0, 0), [[1, 1], [0, 1]])
        P = presheaf_category(chain)
        _, emb = macneille_completion(P)
        assert functor_is_isomorphism(emb)

    def test_existing_suprema_are_preserved(self):
        chain = QCategory(TWO, ("x", "y"), (0, 0), [[1, 1], [0, 1]])
        lattice, emb = macneille_completion(chain)
        for weights in ((0, 0), (1, 0), (1, 1)):
            mu = Presheaf(chain, 0, weights)
            s = sup_inf(chain, "sup", mu)
            image_sup = sup_inf(lattice, "sup", direct_image(emb, mu))
            assert image_sup == emb(s)


class TestGirardDuality:
    def test_negations_are_involutive_on_weights(self):
        G = fixture_girard("two")
        for weights in product((0, 1), repeat=2):
            mu = Presheaf(CTX1.dom, 0, weights)
            assert negate_copresheaf(G, negate_presheaf(G, mu)) == mu
        phi2 = negate_distributor(G, negate_distributor(G, CTX1))
        assert phi2.matrix == CTX1.matrix

    def test_dual_distributor_swaps_endpoints(self):
        G = fixture_girard("two")
        neg = negate_distributor(G, CTX1)
        assert neg.dom is CTX1.cod and neg.cod is CTX1.dom
        assert neg.matrix == ((0, 1), (0, 0))

    def test_worked_example_duality(self):
        G = fixture_girard("two")
        ok, pairing = girard_duality_check(G, CTX1)
        assert ok is True
        assert len(pairing) == len(concept_lattice(CTX1, "kan"))

    def test_exhaustive_small_crisp_duality(self):
        G = fixture_girard("two")
        for objects, attributes, bits in crisp_cases():
            ok, _ = girard_duality_check(G, crisp_context(objects, attributes, bits))
            assert ok is True

    def test_seeded_duality_over_the_four_element_algebra(self):
        Q = fixture_b4()
        G = fixture_girard("b4")
        rng = random.Random(42)
        for _ in range(6):
            A = rand_category(rng, Q, 2, 1)
            B = rand_category(rng, Q, 2, 1)
            ok, _ = girard_duality_check(G, rand_distributor(rng, A, B))
            assert ok is True


    def test_negation_needs_the_weights_quantaloid(self):
        b4_context = rand_context(random.Random(1), fixture_b4())
        for G, phi in ((fixture_girard("b4"), CTX1), (fixture_girard("two"), b4_context)):
            with pytest.raises(CategoryMismatch):
                girard_duality_check(G, phi)
            with pytest.raises(CategoryMismatch):
                negate_distributor(G, phi)
            with pytest.raises(CategoryMismatch):
                negate_presheaf(G, yoneda_weight(phi.dom, 0))
            with pytest.raises(CategoryMismatch):
                negate_copresheaf(G, coyoneda_weight(phi.cod, 0))


class TestConceptFunctoriality:
    def test_identity_infomorphism_induces_identities(self):
        info = identity_infomorphism(CTX1)
        for kind in ("M", "K"):
            left, right = concept_functor_image(info, kind)
            assert left.mapping == tuple(range(len(left.dom)))
            assert right.mapping == tuple(range(len(right.dom)))

    def test_seeded_pairs_compose_and_are_adjoint(self):
        rng = random.Random(5)
        i1, i2 = rand_infomorphism_pair(rng, TWO)
        i21 = compose_infomorphisms(i2, i1)

        for kind in ("M", "K"):
            which = "isbell" if kind == "M" else "kan"
            lat_phi = concept_lattice(i1.source, which)
            lat_psi = concept_lattice(i1.target, which)
            lat_chi = concept_lattice(i2.target, which)
            left1, right1 = concept_functor_image(i1, kind, lat_phi, lat_psi)
            left2, right2 = concept_functor_image(i2, kind, lat_psi, lat_chi)
            left21, right21 = concept_functor_image(i21, kind, lat_phi, lat_chi)
            assert validate_functor(left1)[0] == []
            assert validate_functor(right1)[0] == []
            assert functor_adjoint_check(left1, right1)
            assert functor_adjoint_check(left2, right2)
            if kind == "M":
                assert compose_functors(left2, left1) == left21
                assert compose_functors(right1, right2) == right21
            else:
                assert compose_functors(left1, left2) == left21
                assert compose_functors(right2, right1) == right21

    def test_lattice_ownership_and_kind_are_checked(self):
        info = identity_infomorphism(CTX1)
        with pytest.raises(CategoryMismatch):
            concept_functor_image(info, "M", source_lattice=concept_lattice(FUZZY, "isbell"))
        with pytest.raises(ValueError):
            concept_functor_image(info, "L")
        for phi in (CTX1, FUZZY):
            info = identity_infomorphism(phi)
            right = {"M": concept_lattice(phi, "isbell"), "K": concept_lattice(phi, "kan")}
            for kind, wrong in (("M", right["K"]), ("K", right["M"])):
                for lattices in ((wrong, wrong), (right[kind], wrong), (wrong, right[kind])):
                    with pytest.raises(CategoryMismatch):
                        concept_functor_image(info, kind, *lattices)


class TestDensityAndFactorization:
    @pytest.mark.parametrize("phi", [CTX1, FUZZY])
    def test_both_legs_are_dense(self, phi):
        F, Gf, lattice = dense_factorization(phi)
        ok, witnesses = density_check(F, "sup")
        assert ok is True and set(witnesses) == set(lattice.labels)
        ok, witnesses = density_check(Gf, "inf")
        assert ok is True and set(witnesses) == set(lattice.labels)
        for a in range(len(phi.dom)):
            for b in range(len(phi.cod)):
                assert lattice.hom_idx[F(a)][Gf(b)] == phi.matrix[a][b]

    def test_density_failure_lists_the_unreachable_objects(self):
        antichain = QCategory(TWO, ("x", "y"), (0, 0), [[1, 0], [0, 1]])
        empty = QCategory(TWO, (), (), [])
        none_in = QFunctor(empty, antichain, ())
        assert density_check(none_in, "sup") == (False, ["x", "y"])
        assert density_check(none_in, "inf") == (False, ["x", "y"])
        with pytest.raises(ValueError):
            density_check(none_in, "colim")

    def test_factorization_requires_the_matching_lattice(self):
        with pytest.raises(CategoryMismatch):
            dense_factorization(CTX1, lattice=concept_lattice(FUZZY, "isbell"))
        with pytest.raises(CategoryMismatch):
            dense_factorization(CTX1, lattice=concept_lattice(CTX1, "kan"))


class TestStatePropertySystems:
    def test_closure_space_evaluation_is_a_state_property_system(self):
        chain = QCategory(TWO, ("x", "y"), (0, 0), [[1, 1], [0, 1]])
        P = presheaf_category(chain)
        system = meet_cotensor_closure(chain, [yoneda_weight(chain, 0)])
        C = closure_from_system(P, [P.index_of(p) for p in system])
        zeta = closure_to_context(ClosureSpace(chain, C))
        assert state_property_system_check(chain, zeta.cod, zeta) == (True, None)

    def test_non_skeletal_or_incomplete_targets_are_rejected(self):
        chain = QCategory(TWO, ("x", "y"), (0, 0), [[1, 1], [0, 1]])
        codiscrete = QCategory(TWO, ("x", "y"), (0, 0), [[1, 1], [1, 1]])
        bottom = QDistributor(chain, codiscrete, [[0, 0], [0, 0]])
        ok, witness = state_property_system_check(chain, codiscrete, bottom)
        assert ok is False and witness == "target category is not skeletal"

        antichain = QCategory(TWO, ("x", "y"), (0, 0), [[1, 0], [0, 1]])
        bottom = QDistributor(chain, antichain, [[0, 0], [0, 0]])
        ok, witness = state_property_system_check(chain, antichain, bottom)
        assert ok is False and witness[0] == "incomplete"

    def test_wrong_evaluation_is_detected(self):
        chain = QCategory(TWO, ("x", "y"), (0, 0), [[1, 1], [0, 1]])
        P = presheaf_category(chain)
        matrix = [[P.weight_at(j).weights[x] for j in range(len(P))] for x in range(len(chain))]
        good = QDistributor(chain, P, matrix)
        assert state_property_system_check(chain, P, good) == (True, None)
        bad = [row[:] for row in matrix]
        bad[0][0] = 1 - bad[0][0]
        ok, _ = state_property_system_check(chain, P, QDistributor(chain, P, bad))
        assert ok is False

    def test_endpoints_must_match(self):
        chain = QCategory(TWO, ("x", "y"), (0, 0), [[1, 1], [0, 1]])
        with pytest.raises(CategoryMismatch):
            state_property_system_check(chain, chain, CTX1)


class TestImageLawIndependence:
    def test_a_corrupted_composition_kernel_fails_the_image_law(self, monkeypatch):
        """The Kan side of image-functors-via-kan goes through the
        composition kernel; the image functors are written out by hand, so
        a wrong kernel entry must show up as a mismatch."""
        import quantcat.adjunction as adjunction
        from quantcat.laws import run_law

        kernel = adjunction._compose

        def corrupted(Q, psi, phi):
            out = kernel(Q, psi, phi)
            if not out.m or not out.m[0]:
                return out
            lat = Q.homs[(out.rows[0], out.cols[0])]
            first = out.m[0][0]
            wrong = lat.top if first != lat.top else lat.bottom
            return out._replace(m=((wrong,) + out.m[0][1:],) + out.m[1:])

        assert run_law("image-functors-via-kan", 0, "small").passed
        monkeypatch.setattr(adjunction, "_compose", corrupted)
        result = run_law("image-functors-via-kan", 0, "small")
        assert not result.passed
        assert "image mismatch" in result.witness


SINGLE_PASS_FIXTURES = {"two": fixture_two, "ql3": lambda: fixture_ql(3), "b4": fixture_b4}


class TestSinglePass:
    """Each concept's intent comes from the one pass that closed its
    extent; it must equal the transform of the extent computed alone."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(0, 10_000),
        st.sampled_from(sorted(SINGLE_PASS_FIXTURES)),
        st.sampled_from(["isbell", "kan"]),
    )
    def test_intents_are_transforms_of_their_extents(self, seed, name, kind):
        rng = random.Random(seed)
        Q = SINGLE_PASS_FIXTURES[name]()
        A, B = rand_category(rng, Q, 3, 1), rand_category(rng, Q, 3, 1)
        phi = rand_distributor(rng, A, B)
        for algorithm in ("brute", "generated"):
            lattice = concept_lattice(phi, kind, algorithm)
            assert len(lattice) > 0
            if algorithm == "brute":
                assert set(lattice.provenance) == {"fixed-point-scan"}
            for mu, lam in lattice.pairs:
                if kind == "isbell":
                    assert lam == isbell_transform(phi, "up", mu)
                else:
                    assert lam == kan_transform(phi, "lower", mu)

    @pytest.mark.parametrize("kind", ["isbell", "kan"])
    def test_arrow_images_once_per_column(self, monkeypatch, kind):
        import quantcat.adjunction as adjunction
        import quantcat.completion as completion

        calls = []
        original = completion._arrow_images

        def counting(mu, meet):
            calls.append(mu)
            return original(mu, meet)

        monkeypatch.setattr(completion, "_arrow_images", counting)
        monkeypatch.setattr(adjunction, "_arrow_images", counting)
        rng = random.Random(11)
        Q = fixture_ql(3)
        A, B = rand_category(rng, Q, 3, 3), rand_category(rng, Q, 3, 3)
        phi = rand_distributor(rng, A, B)
        lattice = concept_lattice(phi, kind)
        columns = [Presheaf(A, B.types[y], tuple(row[y] for row in phi.matrix)) for y in range(len(B))]
        assert calls == columns
        assert len(lattice) > 1

    @pytest.mark.parametrize("kind", ["isbell", "kan"])
    def test_generated_weights_must_be_fixed(self, monkeypatch, kind):
        import quantcat.adjunction as adjunction

        saturate = adjunction._saturate
        stray = Presheaf(CTX1.dom, 0, (0, 1))  # object 2 alone is closed in neither mode

        def with_stray(A, images, meet):
            return saturate(A, images, meet) + [stray]

        monkeypatch.setattr(adjunction, "_saturate", with_stray)
        with pytest.raises(InternalCheckError, match="generated weight is not a fixed point"):
            concept_lattice(CTX1, kind)
        assert stray not in [p.extent for p in concept_lattice(CTX1, kind, "brute").pairs]
