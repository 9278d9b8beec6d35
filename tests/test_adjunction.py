"""Galois/extension adjunctions of a distributor, their fixed-point
lattices, duality over a dualizing negation, functoriality, density."""

from __future__ import annotations

import random
import re
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    ANTICHAIN2_CUT_COUNT,
    CHAIN2_CUT_COUNT,
    CTX1_CLASSICAL,
    CTX1_PROPERTY_ORIENTED,
    EMPTY_CUT_COUNT,
    GradedQuantale,
    classical_concepts,
    graded_concepts,
    lectic_concepts,
    macneille_cuts,
    powerset,
    property_oriented_concepts,
)
from quantcat import (
    Arrow,
    CategoryMismatch,
    ClosureSpace,
    Copresheaf,
    GirardReport,
    InternalCheckError,
    Presheaf,
    QCategory,
    QDistributor,
    QFunctor,
    QTypedSet,
    bottom_presheaf,
    build_boolean_algebra_quantale,
    build_boolean_quantale,
    build_godel_chain,
    build_lukasiewicz_chain,
    closure_from_system,
    closure_to_context,
    compose_functors,
    compose_infomorphisms,
    concept_functor_image,
    concept_lattice,
    cotensor_weight,
    coyoneda_weight,
    dense_factorization,
    density_check,
    direct_image,
    discrete_category,
    enumerate_presheaves,
    functor_adjoint_check,
    functor_is_isomorphism,
    girard_duality_check,
    identity_distributor,
    identity_functor,
    identity_infomorphism,
    is_complete,
    isbell_transform,
    kan_transform,
    macneille_completion,
    meet_cotensor_closure,
    negate_distributor,
    negate_presheaf,
    presheaf_category,
    quantaloid_from_divisible_quantale,
    state_property_system_check,
    sup_inf,
    tensor_weight,
    top_presheaf,
    validate_functor,
    weighted_colimit_limit,
    yoneda_weight,
)
from quantcat.adjunction import (
    CROSS_CHECK_LIMIT,
    concept_pairs,
    concept_provenance,
    extents_differ,
)
from quantcat.io import lattice_document
from quantcat.laws import (
    fixture_b4,
    fixture_ctx1,
    fixture_fuzzy_ctx,
    fixture_girard,
    fixture_ql,
    fixture_two,
    _disagreeing_kind,
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


def seeded_crisp_cases(count=120, sides=range(3, 9)):
    """Seeded crisp contexts of every shape from 3x3 to 8x8, each cell
    filled with a probability drawn from 0.2-0.6."""
    rng = random.Random(20140)
    for _ in range(count):
        m, n = rng.choice(sides), rng.choice(sides)
        density = rng.uniform(0.2, 0.6)
        bits = [[int(rng.random() < density) for _ in range(n)] for _ in range(m)]
        yield [f"x{i}" for i in range(m)], [f"y{j}" for j in range(n)], bits


# The graded oracle's quantale and the package's builder for each base.
GRADED_BASES = {
    "lukasiewicz-3": (("lukasiewicz", 3), build_lukasiewicz_chain(3)),
    "lukasiewicz-5": (("lukasiewicz", 5), build_lukasiewicz_chain(5)),
    "godel-4": (("godel", 4), build_godel_chain(4)),
    "boolean-4": (("boolean-algebra", 2), build_boolean_algebra_quantale(2)),
}


def seeded_graded_cases(q, count=25):
    """Seeded contexts over q of every shape up to 3x3: the first 3x3 with
    every membership the top, the rest of random shape and random types;
    each incidence is a random element below both types."""
    rng = random.Random(20141)
    for case in range(count):
        m, n = (3, 3) if case == 0 else (rng.randint(1, 3), rng.randint(1, 3))
        obj_types = [q.top if case == 0 else rng.randrange(q.n) for _ in range(m)]
        att_types = [q.top if case == 0 else rng.randrange(q.n) for _ in range(n)]
        phi = [[rng.choice(q.hom(s, t)) for t in att_types] for s in obj_types]
        yield obj_types, att_types, phi


def graded_lattice_labels(Q, lattice):
    """The concepts of a lattice as (type, extent, intent) labels, and its
    hom as labels keyed by the (type, extent) labels of both ends."""

    def labels(w):
        return tuple(Q.arrow_label(w.arrow(x)) for x in range(len(w.weights)))

    concepts = [
        (Q.objects[p.extent.type_idx], labels(p.extent), labels(p.intent)) for p in lattice.pairs
    ]
    hom = {
        (concepts[i][:2], concepts[j][:2]): Q.arrow_label(lattice.hom(i, j))
        for i in range(len(lattice))
        for j in range(len(lattice))
    }
    return set(concepts), hom


def graded_oracle_labels(q, obj_types, att_types, phi, mode):
    """graded_concepts in the same labels."""
    concepts, hom = graded_concepts(q, obj_types, att_types, phi, mode)
    named = [
        (q.label(t), tuple(map(q.label, mu)), tuple(map(q.label, nu))) for t, mu, nu in concepts
    ]
    return set(named), {(named[i][:2], named[j][:2]): q.label(g) for (i, j), g in hom.items()}


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

    @pytest.mark.parametrize("algorithm", ["brute", "generated"])
    def test_larger_crisp_lattices_match_the_classical_oracles(self, algorithm):
        """Shapes past 4x4 reach kernel positions that the 2x2 cases never
        fold; the hom of every lattice must be extent inclusion."""
        oracles = {"isbell": classical_concepts, "kan": property_oriented_concepts}
        for objects, attributes, bits in seeded_crisp_cases():
            phi = crisp_context(objects, attributes, bits)
            incidence = incidence_of(objects, attributes, bits)
            for kind, oracle in oracles.items():
                lattice = concept_lattice(phi, kind, algorithm)
                assert concept_sets(lattice, phi) == set(oracle(objects, attributes, incidence))
                extents = [as_set(objects, p.extent.weights) for p in lattice.pairs]
                assert lattice.hom_idx == tuple(
                    tuple(int(u <= v) for v in extents) for u in extents
                )

    @pytest.mark.parametrize("algorithm", ["brute", "generated"])
    @pytest.mark.parametrize("base", sorted(GRADED_BASES))
    def test_graded_lattices_match_the_graded_oracle(self, base, algorithm):
        """Extents, intents and homs, against a scan written in quantale
        arithmetic that shares neither kernel nor residual tables."""
        arithmetic, spec = GRADED_BASES[base]
        q, Q = GradedQuantale(*arithmetic), quantaloid_from_divisible_quantale(spec)
        for obj_types, att_types, phi in seeded_graded_cases(q):
            A, B = (
                discrete_category(Q, QTypedSet(tuple(f"{c}{i}" for i in range(len(ts))), tuple(ts)))
                for c, ts in (("x", obj_types), ("y", att_types))
            )
            matrix = [
                [Q.homs[(s, t)].labels.index(q.label(v)) for t, v in zip(att_types, row)]
                for s, row in zip(obj_types, phi)
            ]
            context = QDistributor(A, B, matrix)
            for mode in ("isbell", "kan"):
                got = graded_lattice_labels(Q, concept_lattice(context, mode, algorithm))
                assert got == graded_oracle_labels(q, obj_types, att_types, phi, mode)

    @pytest.mark.parametrize("algorithm", ["brute", "generated"])
    @pytest.mark.parametrize("kind", ["isbell", "kan"])
    @pytest.mark.parametrize("shape", ["2x0", "0x2", "0x0"])
    def test_contexts_with_no_objects_or_no_attributes(self, shape, kind, algorithm):
        """Empty families of weights: over Łukasiewicz-3, one concept per
        type, whose homs are all top."""
        Q = fixture_ql(3)
        typed = QTypedSet(("x", "y"), (Q.object_index("1/2"), Q.object_index("1")))
        two, empty = discrete_category(Q, typed), discrete_category(Q, QTypedSet((), ()))
        A, B = {"2x0": (two, empty), "0x2": (empty, two), "0x0": (empty, empty)}[shape]
        phi = QDistributor(A, B, [()] * len(A))
        lattice = concept_lattice(phi, kind, algorithm)
        assert lattice.types == tuple(range(len(Q.objects)))
        assert lattice.hom_idx == tuple(
            tuple(Q.homs[(s, t)].top for t in lattice.types) for s in lattice.types
        )
        intent = Copresheaf if kind == "isbell" else Presheaf
        extreme = top_presheaf if kind == "isbell" else bottom_presheaf
        for t, (mu, lam) in enumerate(lattice.pairs):
            assert mu == extreme(A, t)
            assert type(lam) is intent and lam.base is B and lam.type_idx == t
            # Every intent is the top weight of its variance (empty unless 0x2).
            ends = [(t, b) if kind == "isbell" else (b, t) for b in B.types]
            assert lam.weights == tuple(Q.homs[end].top for end in ends)

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
        for tag in concept_provenance(isbell, "generated"):
            assert (
                tag in ("empty-meet", "meet-of-generators")
                or tag.startswith("cotensor[")
            )
        kan = concept_lattice(CTX1, "kan")
        for tag in concept_provenance(kan, "generated"):
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

    @pytest.mark.parametrize("algorithm", ["generated", "brute"])
    def test_the_factorization_leg_is_the_represented_cut(self, algorithm):
        """The embedding read off the dense factorization sends each object
        to its represented cut, written out and checked fully faithful."""
        for seed in range(40):
            rng = random.Random(seed)
            Q, size = (fixture_two(), 3) if seed % 2 else (fixture_ql(3), 2)
            A = rand_category(rng, Q, size)
            lattice, embedding = macneille_completion(A, algorithm)
            ident = identity_distributor(A)
            cuts = concept_lattice(ident, "isbell", algorithm)
            represented = [cuts.index_by_extent(yoneda_weight(A, x)) for x in range(len(A))]
            by_hand = QFunctor(A, cuts, represented)
            assert validate_functor(by_hand) == ([], True)
            assert lattice.pairs == cuts.pairs
            assert embedding.dom is A and embedding.cod is lattice
            assert embedding.mapping == by_hand.mapping

    def test_existing_suprema_are_preserved(self):
        chain = QCategory(TWO, ("x", "y"), (0, 0), [[1, 1], [0, 1]])
        lattice, emb = macneille_completion(chain)
        for weights in ((0, 0), (1, 0), (1, 1)):
            mu = Presheaf(chain, 0, weights)
            s = sup_inf(chain, "sup", mu)
            image_sup = sup_inf(lattice, "sup", direct_image(emb, mu))
            assert image_sup == emb(s)


def girard_check_weight_by_weight(G, phi):
    """girard_duality_check one weight at a time, through the public
    transforms, with not f the largest g such that g . f lies below the
    dualizer at f's source, from Q.residual."""
    Q = G.quantaloid

    def negate(w):
        flipped = Copresheaf if isinstance(w, Presheaf) else Presheaf
        arrows = [w.arrow(x) for x in range(len(w.base))]
        return flipped(w.base, w.type_idx, tuple(
            Q.residual("left", G.dualizer(f.src), f).idx for f in arrows))

    columns = [Presheaf(phi.dom, t, col) for t, col in zip(*phi.cols)]
    neg = QDistributor(phi.cod, phi.dom, [negate(c).weights for c in columns])
    for lam in enumerate_presheaves(phi.cod, "contra"):
        if kan_transform(phi, "star", lam) != negate(isbell_transform(neg, "up", lam)):
            return False, (lam, "star")
    for mu in enumerate_presheaves(phi.dom, "contra"):
        if kan_transform(phi, "lower", mu) != isbell_transform(neg, "down", negate(mu)):
            return False, (mu, "lower")
    K, M = concept_lattice(phi, "kan"), concept_lattice(neg, "isbell")
    if len(K) != len(M):
        return False, (len(K), len(M))
    pairing = []
    for i, (mu, lam) in enumerate(K.pairs):
        j = M.index_by_extent(lam)
        if M.concept(j).intent != negate(mu):
            return False, (i, j)
        pairing.append((i, j))
    for i, j in pairing:
        for k, l in pairing:
            if K.hom_idx[i][k] != M.hom_idx[j][l]:
                return False, ((i, k), (j, l))
    return True, pairing


def outcome(check, *args):
    """What a call returns, or the type and text of what it raises."""
    try:
        return check(*args)
    except InternalCheckError as exc:
        return type(exc), str(exc)


GIRARD_REPORTS = {
    "crisp": fixture_girard("two"),
    "l3": GirardReport(fixture_ql(3), (0, 0, 0)),
    "b4": fixture_girard("b4"),
}


class TestGirardDuality:
    def test_negations_are_involutive_on_weights(self):
        G = fixture_girard("two")
        for weights in product((0, 1), repeat=2):
            mu = Presheaf(CTX1.dom, 0, weights)
            assert negate_presheaf(G, negate_presheaf(G, mu)) == mu
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

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000), st.sampled_from(["crisp", "l3", "b4"]))
    def test_matches_the_check_weight_by_weight(self, seed, name):
        # L3 has no dualizing family: its report is built directly, and the
        # check answers whatever the family, as the reference does.
        G = GIRARD_REPORTS[name]
        phi = rand_context(random.Random(seed), G.quantaloid)
        assert outcome(girard_duality_check, G, phi) == outcome(girard_check_weight_by_weight, G, phi)

    def test_a_family_that_is_not_dualizing_fails_as_the_reference(self):
        G = GirardReport(TWO, (1,))  # the top: every negation is the top
        ok, witness = girard_duality_check(G, CTX1)
        assert ok is False
        assert (ok, witness) == girard_check_weight_by_weight(G, CTX1)

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
                negate_presheaf(G, coyoneda_weight(phi.cod, 0))

    def test_negation_checks_the_quantaloid_before_any_column(self):
        # A distributor into an empty category has no column to negate.
        A = fixture_ctx1().dom
        phi = QDistributor(A, QCategory(A.Q, (), (), ()), [[], []])
        with pytest.raises(CategoryMismatch):
            negate_distributor(fixture_girard("b4"), phi)


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
        """The Kan side of image-functors-via-kan goes through the star and
        dag kernels of the transform table; the image functors are written
        out by hand, so a wrong kernel entry must show up as a mismatch."""
        import quantcat.distributor as distributor
        from quantcat.laws import run_law

        def corrupted(name, first_hom):
            class WrongFirstEntry(distributor._Transform):
                def kernel(self, Q, R, C, W):
                    out = super().kernel(Q, R, C, W)
                    if not out or not out[0]:
                        return out
                    lat = Q.homs[first_hom(R, C, W)]
                    first = out[0][0]
                    wrong = lat.top if first != lat.top else lat.bottom
                    return ((wrong,) + out[0][1:],) + out[1:]

            return WrongFirstEntry(*distributor._TRANSFORMS[name])

        assert run_law("image-functors-via-kan", 0, "small").passed
        # The first entry of a star image sits at the first source object,
        # that of a dag image at the first target object.
        star = corrupted("star", lambda R, C, W: (R[0][0], W[0][0]))
        dag = corrupted("dag", lambda R, C, W: (W[0][0], C[0][0]))
        monkeypatch.setitem(distributor._TRANSFORMS, "star", star)
        monkeypatch.setitem(distributor._TRANSFORMS, "dag", dag)
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
                assert set(concept_provenance(lattice, algorithm)) == {"fixed-point-scan"}
            for mu, lam in lattice.pairs:
                if kind == "isbell":
                    assert lam == isbell_transform(phi, "up", mu)
                else:
                    assert lam == kan_transform(phi, "lower", mu)

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(0, 10_000),
        st.sampled_from(sorted(SINGLE_PASS_FIXTURES)),
        st.sampled_from(["isbell", "kan"]),
        st.sampled_from(["brute", "generated"]),
    )
    def test_pairs_come_in_lattice_order(self, seed, name, kind, algorithm):
        # extents_differ and the CLI's per-type counts read the pairs in the
        # order ConceptLattice gives its concepts: by type, then extent weights.
        rng = random.Random(seed)
        Q = SINGLE_PASS_FIXTURES[name]()
        A, B = rand_category(rng, Q, 3, 1), rand_category(rng, Q, 3, 1)
        phi = rand_distributor(rng, A, B)
        pairs = concept_pairs(phi, kind, algorithm)
        keys = [(mu.type_idx, mu.weights) for mu, _ in pairs]
        assert keys == sorted(set(keys))
        assert concept_lattice(phi, kind, algorithm).pairs == tuple(pairs)

    @pytest.mark.parametrize("kind", ["isbell", "kan"])
    def test_generated_pairs_make_exactly_two_kernel_calls(self, monkeypatch, kind):
        # The column images are table reads: the only kernel calls are the
        # transform of the candidates there (up, lower) and the one back
        # (down, star).
        import quantcat.distributor as distributor

        rng = random.Random(11)
        Q = fixture_ql(3)
        A, B = rand_category(rng, Q, 3, 3), rand_category(rng, Q, 3, 3)
        phi = rand_distributor(rng, A, B)
        calls, contract = [], distributor._contract
        monkeypatch.setattr(distributor, "_contract", lambda *a: calls.append(a[1]) or contract(*a))
        pairs = concept_pairs(phi, kind)
        assert calls == {"isbell": ["left", "right"], "kan": ["left", "compose"]}[kind]
        assert len(pairs) > 1

    @pytest.mark.parametrize("kind", ["isbell", "kan"])
    def test_generated_weights_must_be_fixed(self, monkeypatch, kind):
        import quantcat.adjunction as adjunction

        generated = adjunction._generated
        stray = Presheaf(CTX1.dom, 0, (0, 1))  # object 2 alone is closed in neither mode

        def with_stray(A, family, meet, contra):
            types, vecs = generated(A, family, meet, contra)
            return types + (stray.type_idx,), vecs + (stray.weights,)

        monkeypatch.setattr(adjunction, "_generated", with_stray)
        with pytest.raises(InternalCheckError, match="generated weight is not a fixed point"):
            concept_lattice(CTX1, kind)
        assert stray not in [p.extent for p in concept_lattice(CTX1, kind, "brute").pairs]


def sampled_crisp_context(n):
    """The crisp n x n context of the benchmark recipe: round(0.4 n^2) cells
    drawn by random.Random(1).sample from the row-major cell list."""
    objects, attributes = [f"o{i}" for i in range(n)], [f"a{j}" for j in range(n)]
    cells = [(x, y) for x in objects for y in attributes]
    incidence = set(random.Random(1).sample(cells, round(0.4 * n * n)))
    bits = [[int((x, y) in incidence) for y in attributes] for x in objects]
    return objects, attributes, incidence, crisp_context(objects, attributes, bits)


class TestLecticOracle:
    """Crisp lattices too large for any scan, against NextClosure."""

    @pytest.mark.parametrize(
        ("n", "counts"), [(16, (141, 502)), (20, (270, 1180)), (24, (562, 3456))]
    )
    def test_large_crisp_pairs_match_next_closure(self, n, counts):
        objects, attributes, incidence, phi = sampled_crisp_context(n)
        for kind, count in zip(("isbell", "kan"), counts):
            pairs = concept_pairs(phi, kind)
            got = {(as_set(objects, mu.weights), as_set(attributes, lam.weights))
                   for mu, lam in pairs}
            want = lectic_concepts(objects, attributes, incidence, kind)
            assert len(pairs) == len(want) == count and got == set(want)
            # no brute scan confirms these: 2^n weights exceed the cross-check limit
            assert extents_differ(phi, kind, pairs) is None

    def test_next_closure_matches_the_subset_scans(self):
        scans = {"isbell": classical_concepts, "kan": property_oriented_concepts}
        for objects, attributes, bits in seeded_crisp_cases(count=40):
            incidence = incidence_of(objects, attributes, bits)
            for kind, scan in scans.items():
                want = scan(objects, attributes, incidence)
                assert lectic_concepts(objects, attributes, incidence, kind) == want

    def test_the_recipe_writes_the_crisp_20x20_document(self):
        from quantcat.io import load_document, parse_context_document

        path = Path(__file__).parent / "data" / "crisp20-kan.yaml"
        phi = parse_context_document(load_document(str(path))).distributor
        objects, attributes, _, want = sampled_crisp_context(20)
        assert (phi.dom.labels, phi.cod.labels) == (tuple(objects), tuple(attributes))
        assert phi.matrix == want.matrix


class TestCrossCheck:
    """extents_differ is the one place of the cross-check policy."""

    def test_only_spaces_up_to_the_limit_are_scanned(self, monkeypatch):
        import quantcat.adjunction as adjunction

        # the brute scan alone reads the source's kept weights
        scans, scan = [], adjunction._kept_weights
        monkeypatch.setattr(adjunction, "_kept_weights", lambda *a: scans.append(a) or scan(*a))
        # 2^13 = 8192 weights are scanned, 2^14 = 16384 are not
        assert 2**13 <= CROSS_CHECK_LIMIT < 2**14
        for n, want in ((13, False), (14, None)):
            phi = sampled_crisp_context(n)[3]
            pairs = concept_pairs(phi, "kan")
            assert extents_differ(phi, "kan", pairs) is want
            if want is False:
                assert extents_differ(phi, "kan", pairs[1:]) is True
        assert [(len(a[0]), a[1:]) for a in scans] == [(13, ("contra", CROSS_CHECK_LIMIT))] * 2

    def test_the_agreement_law_refuses_an_unscanned_space(self):
        assert _disagreeing_kind(sampled_crisp_context(13)[3]) is None
        assert _disagreeing_kind(sampled_crisp_context(14)[3]) == "isbell"


def provenance_contexts():
    """Seeded crisp contexts and contexts over the Łukasiewicz-3 quantaloid,
    with the quantale each document names."""
    for objects, attributes, bits in seeded_crisp_cases(count=16, sides=range(2, 7)):
        yield build_boolean_quantale(), crisp_context(objects, attributes, bits)
    rng = random.Random(20142)
    for _ in range(16):
        yield build_lukasiewicz_chain(3), rand_context(rng, fixture_ql(3))


PROVENANCE_NAME = re.compile(r"^(cotensor|tensor)\[(.+)\]column\[(.+)\]$")


class TestProvenance:
    """The lattice document names each concept; nothing else does."""

    @pytest.mark.parametrize("kind", ["isbell", "kan"])
    def test_generated_names_match_the_public_images(self, kind):
        meet = kind == "isbell"
        op, image = ("cotensor", cotensor_weight) if meet else ("tensor", tensor_weight)
        empty = "empty-meet" if meet else "empty-join"
        other = "meet-of-generators" if meet else "join-of-generators"
        end = top_presheaf if meet else bottom_presheaf
        named = 0
        for quantale, phi in provenance_contexts():
            A, B, Q = phi.dom, phi.cod, phi.Q
            lattice = concept_lattice(phi, kind)
            doc = lattice_document(lattice, quantale, "generated", cap=1)
            # every (column, arrow) image, by column, then the arrow's other end, then its index
            images = []
            for y, (t, col) in enumerate(zip(*phi.cols)):
                for s in range(len(Q.objects)):
                    ends = (s, t) if meet else (t, s)
                    for g in range(Q.homs[ends].n):
                        arrow = Arrow(*ends, g)
                        images.append((y, arrow, image(arrow, Presheaf(A, t, col))))
            for (mu, _), concept in zip(lattice.pairs, doc["concepts"]):
                name = concept["provenance"]
                assert (name == empty) == (mu == end(A, mu.type_idx))
                makers = [(y, g) for y, g, w in images if w == mu]
                if name == empty:
                    continue
                if name == other:
                    assert makers == []
                    continue
                how, label, column = PROVENANCE_NAME.match(name).groups()
                y, g = makers[0]  # no earlier (column, arrow) gives the extent
                assert (how, column, label) == (op, B.labels[y], Q.arrow_label(g))
                named += 1
        assert named > 0

    @pytest.mark.parametrize("kind", ["isbell", "kan"])
    def test_brute_documents_name_the_scan(self, kind):
        for quantale, phi in provenance_contexts():
            lattice = concept_lattice(phi, kind, "brute")
            doc = lattice_document(lattice, quantale, "brute", cap=1)
            assert {c["provenance"] for c in doc["concepts"]} == {"fixed-point-scan"}

    def test_the_laws_name_no_concept(self, monkeypatch):
        import quantcat.adjunction as adjunction
        import quantcat.io as qio
        from quantcat import laws

        def boom(*args):
            raise AssertionError("a concept was named")

        monkeypatch.setattr(adjunction, "concept_provenance", boom)
        monkeypatch.setattr(qio, "concept_provenance", boom)
        lattice = concept_lattice(CTX1, "kan")
        with pytest.raises(AssertionError, match="a concept was named"):
            lattice_document(lattice, build_boolean_quantale(), "generated")
        assert laws.run_law("concept-enumeration-agreement", 0, "medium").passed
        assert all(result.passed for result in laws.run_all(0, "small"))


FAMILY_FIXTURES = {"ctx1": CTX1, "fuzzy": FUZZY}


class TestFamilyCalls:
    """Every bound the library computes for weights it built itself comes
    from one kernel call on the whole family, however many weights or
    concepts there are.  The lattices are built before the count."""

    @staticmethod
    def counting(monkeypatch) -> list:
        """The kinds of the kernel calls made from here on, through any
        module that holds the kernel."""
        import quantcat.adjunction as adjunction
        import quantcat.completion as completion
        import quantcat.distributor as distributor

        calls = []
        kernel = distributor._contract

        def counted(*args):
            calls.append(args[1])
            return kernel(*args)

        for module in (distributor, adjunction, completion):
            if hasattr(module, "_contract"):
                monkeypatch.setattr(module, "_contract", counted)
        return calls

    @pytest.mark.parametrize("name", sorted(FAMILY_FIXTURES))
    @pytest.mark.parametrize("kind", ["isbell", "kan"])
    def test_completeness_takes_four_calls(self, monkeypatch, name, kind):
        lattice = concept_lattice(FAMILY_FIXTURES[name], kind)
        calls = self.counting(monkeypatch)
        assert is_complete(lattice) == (True, None)
        # The atoms of each variance: the first round is read off the
        # tables, and on a category one compose call confirms it.  Then one
        # up call for every sup and one down call for every inf; the
        # tensors and cotensors of the cross-check are table reads.
        assert calls == ["compose", "compose", "left", "right"]

    @pytest.mark.parametrize("name", sorted(FAMILY_FIXTURES))
    @pytest.mark.parametrize("kind", ["M", "K"])
    def test_concept_functor_image_takes_two_calls(self, monkeypatch, name, kind):
        phi = FAMILY_FIXTURES[name]
        lattice = concept_lattice(phi, "isbell" if kind == "M" else "kan")
        calls = self.counting(monkeypatch)
        left, right = concept_functor_image(identity_infomorphism(phi), kind, lattice, lattice)
        assert len(calls) == 2
        assert left == right == identity_functor(lattice)

    @pytest.mark.parametrize("name", sorted(FAMILY_FIXTURES))
    def test_dense_factorization_closes_every_row_in_one_call(self, monkeypatch, name):
        phi = FAMILY_FIXTURES[name]
        lattice = concept_lattice(phi, "isbell")
        calls = self.counting(monkeypatch)
        dense_factorization(phi, lattice)
        assert calls == ["right"]
