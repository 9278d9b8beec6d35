"""Registered law suites with deterministic instance generators.

Every suite draws its instances from random.Random seeded with the pair
(seed, law id), so a fixed seed reproduces byte-identical reports.  The
`medium` profile uses the reference instance counts; `small` is a quick
subset with the same coverage shape.

A suite is a generator: it yields once as each instance starts, returns
the witness of the first failing instance, and on success simply ends.
`run_law` counts the instances and builds every LawResult, so a failing
report counts the instances run, the failing one included.
"""

from __future__ import annotations

import itertools
import random
from collections.abc import Generator
from functools import lru_cache
from typing import NamedTuple

from .adjunction import (
    concept_functor_image,
    concept_lattice,
    concept_pairs,
    dense_factorization,
    density_check,
    extents_differ,
    girard_duality_check,
    isbell_transform,
    kan_transform,
    macneille_completion,
    negate_distributor,
    state_property_system_check,
)
from .completion import (
    ClosureOperator,
    ClosureSpace,
    closure_from_system,
    closure_to_context,
    identity_closure,
    is_complete,
    meet_cotensor_closure,
    trivial_closure,
    validate_closure_space,
)
from .distributor import (
    CROSS_CHECK_LIMIT,
    _contract,
    Copresheaf,
    Presheaf,
    QDistributor,
    compose_infomorphisms,
    direct_image,
    dist_adjoint_check,
    enumerate_presheaves,
    graph_cograph,
    identity_infomorphism,
    Infomorphism,
    inverse_image,
    presheaf_category,
    presheaf_hom,
    presheaf_space_bound,
    validate_distributor,
    validate_infomorphism,
    weight_leq,
    yoneda_weight,
    coyoneda_weight,
)
from .enriched import (
    QCategory,
    QFunctor,
    QTypedSet,
    compose_functors,
    discrete_category,
    functor_adjoint_check,
    functor_is_isomorphism,
    identity_functor,
    validate_category,
    validate_functor,
)
from .errors import NotDivisible
from .quantaloid import (
    Arrow,
    Quantaloid,
    build_boolean,
    build_boolean_algebra_quantale,
    build_lukasiewicz_chain,
    build_nilpotent_minimum_chain,
    check_divisible,
    girard_structure,
    quantaloid_from_divisible_quantale,
    validate_quantale,
    validate_quantaloid,
)


class Profile(NamedTuple):
    name: str
    categories: int
    triples: int
    functors: int
    crisp_limit: int
    fuzzy_contexts: int
    factorizations: int
    girard_contexts: int
    infomorphism_pairs: int
    macneille_categories: int
    closure_spaces: int


PROFILES = {
    "small": Profile("small", 4, 20, 8, 2, 6, 4, 10, 6, 4, 6),
    "medium": Profile("medium", 20, 200, 50, 3, 30, 20, 50, 30, 20, 20),
}


class LawResult(NamedTuple):
    law_id: str
    instances: int
    passed: bool
    witness: str | None


Suite = Generator[None, None, "str | None"]  # yields per instance, returns a witness


# ---------------------------------------------------------------------------
# Fixtures
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def fixture_two() -> Quantaloid:
    return build_boolean()


@lru_cache(maxsize=None)
def fixture_ql(n: int) -> Quantaloid:
    return quantaloid_from_divisible_quantale(build_lukasiewicz_chain(n))


@lru_cache(maxsize=None)
def fixture_b4() -> Quantaloid:
    return quantaloid_from_divisible_quantale(build_boolean_algebra_quantale(2))


@lru_cache(maxsize=None)
def fixture_girard(which: str):
    Q = fixture_two() if which == "two" else fixture_b4()
    family = tuple(Q.homs[(i, i)].bottom for i in range(len(Q.objects)))
    return girard_structure(Q, family)


@lru_cache(maxsize=None)
def fixture_ctx1() -> QDistributor:
    Q = fixture_two()
    A = discrete_category(Q, QTypedSet(("1", "2"), (0, 0)))
    B = discrete_category(Q, QTypedSet(("a", "b"), (0, 0)))
    return QDistributor(A, B, [[1, 1], [0, 1]])


@lru_cache(maxsize=None)
def fixture_fuzzy_ctx() -> QDistributor:
    """Small graded context over the three-element chain."""
    Q = fixture_ql(3)
    one = Q.object_index("1")
    half = Q.object_index("1/2")
    A = discrete_category(Q, QTypedSet(("x", "y"), (one, half)))
    B = discrete_category(Q, QTypedSet(("u", "v"), (half, one)))
    matrix = [
        [Q.homs[(A.types[i], B.types[j])].index(label) for j, label in enumerate(row)]
        for i, row in enumerate([["1/2", "1"], ["0", "1/2"]])
    ]
    return QDistributor(A, B, matrix)


def fixture_small_categories() -> tuple[QCategory, QCategory, QCategory]:
    """The two-element chain, the two-element antichain and the empty
    category, over the Boolean quantaloid."""
    Q = fixture_two()
    chain = QCategory(Q, ("x", "y"), (0, 0), [[1, 1], [0, 1]])
    anti = discrete_category(Q, QTypedSet(("x", "y"), (0, 0)))
    empty = discrete_category(Q, QTypedSet((), ()))
    return chain, anti, empty


def mutated_ql3() -> Quantaloid:
    """The three-chain quantaloid with one corrupted composition entry."""
    Q = fixture_ql(3)
    one = Q.object_index("1")
    top = Q.homs[(one, one)].n - 1
    return Q.with_patched_compose((one, one, one), top, top, 0)


# ---------------------------------------------------------------------------
# Deterministic instance generators
# ---------------------------------------------------------------------------


def _least_fixpoint(step, m: tuple) -> tuple:
    """Iterate an inflationary step from the matrix m until nothing changes:
    the least fixed point above m, whatever the order of the individual
    joins."""
    while True:
        nxt = step(m)
        if nxt == m:
            return m
        m = nxt


def _close_category(Q: Quantaloid, types: list, hom: list) -> tuple:
    """The least hom matrix above `hom` with units on the diagonal and
    closed under composition."""
    for i, t in enumerate(types):
        hom[i][i] = Q.homs[(t, t)].join(hom[i][i], Q.units[t])
    types = tuple(types)
    return _least_fixpoint(
        lambda m: _contract(Q, "compose", types, (types, tuple(zip(*m))), (types, m)),
        tuple(map(tuple, hom)),
    )


def _close_actions(A: QCategory, B: QCategory, m) -> tuple:
    """The least matrix above m, rows typed by A and columns by B, closed
    under the actions of A and B: (B . m) . A <= m."""
    # A's rows and B's columns as the kernel takes them, read off their homs
    Q, A_rows, B_cols = A.Q, (A.types, A.hom_idx), (B.types, tuple(zip(*B.hom_idx)))

    def step(n):
        Bn = _contract(Q, "compose", B.types, B_cols, (A.types, n), True)  # B . n, by its columns
        return _contract(Q, "compose", A.types, (B.types, Bn), A_rows)

    return _least_fixpoint(step, tuple(map(tuple, m)))


def rand_category(
    rng: random.Random, Q: Quantaloid, max_objects: int = 3, min_objects: int = 0
) -> QCategory:
    n = rng.randint(min_objects, max_objects)
    types = [rng.randrange(len(Q.objects)) for _ in range(n)]
    hom = [
        [rng.randrange(Q.homs[(types[i], types[j])].n) for j in range(n)]
        for i in range(n)
    ]
    return QCategory(Q, [f"x{i}" for i in range(n)], types, _close_category(Q, types, hom))


def rand_presheaf(rng: random.Random, A: QCategory, type_idx: int | None = None) -> Presheaf:
    """The one column of a random distributor into a one-object category."""
    t = rng.randrange(len(A.Q.objects)) if type_idx is None else type_idx
    point = discrete_category(A.Q, QTypedSet(("*",), (t,)))
    return Presheaf(A, t, rand_distributor(rng, A, point).cols[1][0])


def rand_copresheaf(rng: random.Random, A: QCategory, type_idx: int | None = None) -> Copresheaf:
    """The one row of a random distributor out of a one-object category."""
    t = rng.randrange(len(A.Q.objects)) if type_idx is None else type_idx
    point = discrete_category(A.Q, QTypedSet(("*",), (t,)))
    return Copresheaf(A, t, rand_distributor(rng, point, A).matrix[0])


def rand_distributor(rng: random.Random, A: QCategory, B: QCategory) -> QDistributor:
    Q = A.Q
    matrix = [
        [rng.randrange(Q.homs[(A.types[x], B.types[y])].n) for y in range(len(B))]
        for x in range(len(A))
    ]
    return QDistributor(A, B, _close_actions(A, B, matrix))


def rand_functor_into(rng: random.Random, B: QCategory, n: int, prefix: str = "a") -> QFunctor:
    """A random functor with target B, synthesizing a valid source."""
    Q = B.Q
    if n > 0 and len(B) == 0:
        raise ValueError("cannot map a nonempty category into an empty one")
    mapping = [rng.randrange(len(B)) for _ in range(n)]
    types = [B.types[m] for m in mapping]
    hom = []
    for i in range(n):
        row = []
        for j in range(n):
            lat = Q.homs[(types[i], types[j])]
            bound = B.hom_idx[mapping[i]][mapping[j]]
            row.append(rng.choice([v for v in range(lat.n) if lat.leq(v, bound)]))
        hom.append(row)
    A = QCategory(Q, [f"{prefix}{i}" for i in range(n)], types, _close_category(Q, types, hom))
    return QFunctor(A, B, mapping)


def rand_context(rng: random.Random, Q: Quantaloid) -> QDistributor:
    """A random distributor between discrete categories of one to three
    randomly typed objects each."""
    m, n = rng.randint(1, 3), rng.randint(1, 3)
    a_types = tuple(rng.randrange(len(Q.objects)) for _ in range(m))
    b_types = tuple(rng.randrange(len(Q.objects)) for _ in range(n))
    A = discrete_category(Q, QTypedSet(tuple(f"x{i}" for i in range(m)), a_types))
    B = discrete_category(Q, QTypedSet(tuple(f"y{j}" for j in range(n)), b_types))
    return rand_distributor(rng, A, B)


def rand_infomorphism_pair(
    rng: random.Random, Q: Quantaloid, max_objects: int = 2
) -> tuple[Infomorphism, Infomorphism]:
    """Two composable infomorphisms built by restricting one distributor.

    All three contexts are restrictions of a single distributor theta along
    chains of functors on both sides, which makes every exchange identity
    hold by construction.
    """
    A2 = rand_category(rng, Q, max_objects, 1)
    B0 = rand_category(rng, Q, max_objects, 1)
    theta = rand_distributor(rng, A2, B0)
    F1 = rand_functor_into(rng, A2, rng.randint(1, max_objects), "m")
    F0 = rand_functor_into(rng, F1.dom, rng.randint(1, max_objects), "a")
    G0 = rand_functor_into(rng, B0, rng.randint(1, max_objects), "n")
    G1 = rand_functor_into(rng, G0.dom, rng.randint(1, max_objects), "b")
    A0, A1 = F0.dom, F1.dom
    B1, B2 = G0.dom, G1.dom

    def restrict(A, B, f, g):
        return QDistributor(
            A, B, [[theta.matrix[f(x)][g(y)] for y in range(len(B))] for x in range(len(A))]
        )

    phi = restrict(A0, B0, lambda x: F1(F0(x)), lambda y: y)
    psi = restrict(A1, B1, F1, G0)
    chi = restrict(A2, B2, lambda x: x, lambda y: G0(G1(y)))
    i1 = Infomorphism(phi, psi, F0, G0)
    i2 = Infomorphism(psi, chi, F1, G1)
    return i1, i2


def rand_closure_space(rng: random.Random, A: QCategory, PA) -> ClosureSpace:
    kind = rng.choice(("identity", "trivial", "induced", "system"))
    if kind == "identity":
        op = identity_closure(PA)
    elif kind == "trivial":
        op = trivial_closure(PA)
    elif kind == "induced":
        B = rand_category(rng, A.Q, 2, 1)
        phi = rand_distributor(rng, A, B)
        op = ClosureOperator(
            PA,
            [
                PA.index_of(
                    isbell_transform(
                        phi, "down", isbell_transform(phi, "up", PA.weight_at(i))
                    )
                )
                for i in range(len(PA))
            ],
        )
    else:
        seeds = [rand_presheaf(rng, A) for _ in range(rng.randint(0, 3))]
        closed = meet_cotensor_closure(A, seeds)
        op = closure_from_system(PA, [PA.index_of(p) for p in closed])
    return ClosureSpace(A, op)


# ---------------------------------------------------------------------------
# Law suites
# ---------------------------------------------------------------------------


def _residuation_witness(Q: Quantaloid) -> str | None:
    objs = range(len(Q.objects))
    for i, j, k in itertools.product(objs, objs, objs):
        for f_idx in range(Q.homs[(i, j)].n):
            f = Arrow(i, j, f_idx)
            for g_idx in range(Q.homs[(j, k)].n):
                g = Arrow(j, k, g_idx)
                for h_idx in range(Q.homs[(i, k)].n):
                    h = Arrow(i, k, h_idx)
                    lhs = Q.leq(Q.compose(g, f), h)
                    via_left = Q.leq(g, Q.residual("left", h, f))
                    via_right = Q.leq(f, Q.residual("right", g, h))
                    if not (lhs == via_left == via_right):
                        return (
                            f"f={Q.arrow_label(f)} g={Q.arrow_label(g)} "
                            f"h={Q.arrow_label(h)} compose-le={lhs} "
                            f"left-le={via_left} right-le={via_right}"
                        )
    return None


def law_residuation(rng, profile: Profile, mutate: str | None = None) -> Suite:
    fixtures = [
        ("two", fixture_two()),
        ("ql3", fixture_ql(3)),
        ("ql5", fixture_ql(5)),
        ("b4", fixture_b4()),
    ]
    if mutate == "compose":
        fixtures.append(("ql3-mutant", mutated_ql3()))
    for name, Q in fixtures:
        yield
        witness = _residuation_witness(Q)
        if witness is not None:
            return f"{name}: {witness}"


def law_divisible(rng, profile: Profile) -> Suite:
    builders = [(f"lukasiewicz-{n}", build_lukasiewicz_chain, n) for n in range(2, 7)]
    builders += [(f"boolean-{atoms}", build_boolean_algebra_quantale, atoms) for atoms in range(4)]
    for name, build, size in builders:
        yield
        q = build(size)
        if validate_quantale(q):
            return f"{name}: quantale laws"
        ok, _ = check_divisible(q)
        if not ok:
            return f"{name}: not divisible"
        report = validate_quantaloid(quantaloid_from_divisible_quantale(q))
        if report:
            return f"{name}: {report[0]}"
    yield
    nm = build_nilpotent_minimum_chain(5)
    ok, witness = check_divisible(nm)
    if ok or witness != ("3/4", "1/4"):
        return f"nilpotent-minimum-5: expected witness (3/4,1/4), got {witness}"
    try:
        quantaloid_from_divisible_quantale(nm)
    except NotDivisible:
        return None
    return "nilpotent-minimum-5: builder accepted a non-divisible quantale"


def law_yoneda(rng, profile: Profile) -> Suite:
    for idx in range(profile.categories):
        yield
        Q = fixture_two() if idx % 2 == 0 else fixture_ql(3)
        A = rand_category(rng, Q, 3)
        if validate_category(A):
            return f"#{idx}: generator produced an invalid category"
        presheaves = enumerate_presheaves(A, "contra")
        copresheaves = enumerate_presheaves(A, "co")
        for a in range(len(A)):
            ya = yoneda_weight(A, a)
            ca = coyoneda_weight(A, a)
            for mu in presheaves:
                if presheaf_hom(ya, mu).idx != mu.weights[a]:
                    return f"#{idx}: reduction fails at ({A.labels[a]},{mu.weights})"
            for lam in copresheaves:
                if presheaf_hom(lam, ca).idx != lam.weights[a]:
                    return f"#{idx}: coreduction fails at ({A.labels[a]},{lam.weights})"
            for b in range(len(A)):
                if (
                    presheaf_hom(ya, yoneda_weight(A, b)).idx != A.hom_idx[a][b]
                    or presheaf_hom(coyoneda_weight(A, a), coyoneda_weight(A, b)).idx
                    != A.hom_idx[a][b]
                ):
                    return f"#{idx}: embedding not fully faithful at ({a},{b})"


def law_adjointness(rng, profile: Profile) -> Suite:
    for idx in range(profile.triples):
        yield
        Q = fixture_two() if idx % 2 == 0 else fixture_ql(3)
        A = rand_category(rng, Q, 3)
        B = rand_category(rng, Q, 3)
        phi = rand_distributor(rng, A, B)
        mu = rand_presheaf(rng, A)
        lam = rand_copresheaf(rng, B)
        up_mu = isbell_transform(phi, "up", mu)
        down_lam = isbell_transform(phi, "down", lam)
        if presheaf_hom(up_mu, lam) != presheaf_hom(mu, down_lam):
            return f"#{idx}: contravariant hom equality fails"
        if not weight_leq(mu, isbell_transform(phi, "down", up_mu)):
            return f"#{idx}: contravariant unit fails"
        # Counit in the copresheaf category, whose order is reversed pointwise.
        if not weight_leq(lam, isbell_transform(phi, "up", down_lam)):
            return f"#{idx}: contravariant counit fails"
        nu = rand_presheaf(rng, B)
        mu2 = rand_presheaf(rng, A)
        star_nu = kan_transform(phi, "star", nu)
        lower_mu2 = kan_transform(phi, "lower", mu2)
        if presheaf_hom(star_nu, mu2) != presheaf_hom(nu, lower_mu2):
            return f"#{idx}: covariant hom equality fails"
        if not weight_leq(nu, kan_transform(phi, "lower", star_nu)):
            return f"#{idx}: covariant unit fails"
        if not weight_leq(kan_transform(phi, "star", lower_mu2), mu2):
            return f"#{idx}: covariant counit fails"


def law_image_functors(rng, profile: Profile) -> Suite:
    for idx in range(profile.functors):
        yield
        Q = fixture_two() if idx % 2 == 0 else fixture_ql(3)
        B = rand_category(rng, Q, 3, 1)
        F = rand_functor_into(rng, B, rng.randint(0, 3))
        A = F.dom
        graph, cograph = graph_cograph(F)
        if not dist_adjoint_check(graph, cograph):
            return f"#{idx}: graph not left adjoint to cograph"
        # Each image functor against the Kan transform of the graph or cograph.
        pairs = [
            (A, "contra", cograph, "star", direct_image, "direct image"),
            (B, "contra", graph, "star", inverse_image, "inverse image"),
            (B, "co", cograph, "dag", inverse_image, "covariant restriction"),
            (A, "co", graph, "dag", direct_image, "covariant direct image"),
        ]
        for base, variance, dist, transform, image, name in pairs:
            for w in enumerate_presheaves(base, variance):
                if kan_transform(dist, transform, w) != image(F, w):
                    return f"#{idx}: {name} mismatch"


def _disagreeing_kind(phi: QDistributor) -> str | None:
    """The first kind whose generated lattice and brute fixed-point scan
    have different extents, else None."""
    for kind in ("isbell", "kan"):
        brute, _ = concept_pairs(phi, kind, "brute")
        if extents_differ(brute, concept_lattice(phi, kind).pairs):
            return kind
    return None


def law_concept_enumeration(rng, profile: Profile) -> Suite:
    Q = fixture_two()
    for m, n in itertools.product(range(profile.crisp_limit + 1), repeat=2):
        A = discrete_category(Q, QTypedSet(tuple(f"x{i}" for i in range(m)), (0,) * m))
        B = discrete_category(Q, QTypedSet(tuple(f"y{j}" for j in range(n)), (0,) * n))
        for bits in range(1 << (m * n)):
            yield
            matrix = [[(bits >> (i * n + j)) & 1 for j in range(n)] for i in range(m)]
            kind = _disagreeing_kind(QDistributor(A, B, matrix))
            if kind:
                return f"crisp {m}x{n} bits={bits} kind={kind}: enumerations differ"
    yield
    ctx1 = fixture_ctx1()
    isbell = concept_lattice(ctx1, "isbell", "generated")
    kan = concept_lattice(ctx1, "kan", "generated")
    if [(p.extent.weights, p.intent.weights) for p in isbell.pairs] != [
        ((1, 0), (1, 1)),
        ((1, 1), (0, 1)),
    ]:
        return "reference context: contravariant concepts wrong"
    if [(p.extent.weights, p.intent.weights) for p in kan.pairs] != [
        ((0, 0), (0, 0)),
        ((1, 0), (1, 0)),
        ((1, 1), (1, 1)),
    ]:
        return "reference context: covariant concepts wrong"
    QL = fixture_ql(3)
    for idx in range(profile.fuzzy_contexts):
        yield
        phi = rand_context(rng, QL)
        if validate_distributor(phi):
            return f"fuzzy #{idx}: invalid generator output"
        space = sum(presheaf_space_bound(phi.dom, t) for t in range(len(QL.objects)))
        if space > CROSS_CHECK_LIMIT:
            return f"fuzzy #{idx}: space {space} too large"
        kind = _disagreeing_kind(phi)
        if kind:
            return f"fuzzy #{idx} kind={kind}: enumerations differ"


def law_completeness(rng, profile: Profile) -> Suite:
    ctx1 = fixture_ctx1()
    fuzzy = fixture_fuzzy_ctx()
    chain, anti, empty = fixture_small_categories()
    lattices = [
        ("ctx1-contravariant", concept_lattice(ctx1, "isbell")),
        ("ctx1-covariant", concept_lattice(ctx1, "kan")),
        ("fuzzy-contravariant", concept_lattice(fuzzy, "isbell")),
        ("fuzzy-covariant", concept_lattice(fuzzy, "kan")),
        ("cut-chain", macneille_completion(chain)[0]),
        ("cut-antichain", macneille_completion(anti)[0]),
        ("cut-empty", macneille_completion(empty)[0]),
    ]
    for name, lat in lattices:
        yield
        complete, witness = is_complete(lat)
        if not complete:
            return f"{name}: missing (co)limit for {witness}"


def law_dense_factorization(rng, profile: Profile) -> Suite:
    QL = fixture_ql(3)
    contexts = [("ctx1", fixture_ctx1())]
    for idx in range(profile.factorizations):
        contexts.append((f"fuzzy-{idx}", rand_context(rng, QL)))
    for name, phi in contexts:
        yield
        F, G, lattice = dense_factorization(phi)
        ok_sup, wit_sup = density_check(F, "sup")
        if not ok_sup:
            return f"{name}: source leg misses {wit_sup}"
        ok_inf, wit_inf = density_check(G, "inf")
        if not ok_inf:
            return f"{name}: target leg misses {wit_inf}"


def law_girard(rng, profile: Profile) -> Suite:
    for idx in range(profile.girard_contexts):
        yield
        G = fixture_girard("two" if idx % 2 == 0 else "b4")
        phi = rand_context(rng, G.quantaloid)
        if negate_distributor(G, negate_distributor(G, phi)).matrix != phi.matrix:
            return f"#{idx}: negation is not involutive"
        ok, witness = girard_duality_check(G, phi)
        if not ok:
            return f"#{idx}: {witness}"


def law_concept_functoriality(rng, profile: Profile) -> Suite:
    for idx in range(profile.infomorphism_pairs):
        yield
        Q = fixture_two() if idx % 2 == 0 else fixture_ql(3)
        i1, i2 = rand_infomorphism_pair(rng, Q, 2)
        if validate_infomorphism(i1) or validate_infomorphism(i2):
            return f"#{idx}: generator produced invalid infomorphisms"
        composite = compose_infomorphisms(i2, i1)
        for kind in ("M", "K"):
            lat_phi = concept_lattice(i1.source, "isbell" if kind == "M" else "kan")
            lat_psi = concept_lattice(i1.target, "isbell" if kind == "M" else "kan")
            lat_chi = concept_lattice(i2.target, "isbell" if kind == "M" else "kan")
            l1, r1 = concept_functor_image(i1, kind, lat_phi, lat_psi)
            l2, r2 = concept_functor_image(i2, kind, lat_psi, lat_chi)
            lc, rc = concept_functor_image(composite, kind, lat_phi, lat_chi)
            for func in (l1, r1, l2, r2, lc, rc):
                report, _ = validate_functor(func)
                if report:
                    return f"#{idx} {kind}: image is not a functor"
            if not (functor_adjoint_check(l1, r1) and functor_adjoint_check(l2, r2)
                    and functor_adjoint_check(lc, rc)):
                return f"#{idx} {kind}: images are not adjoint"
            if kind == "M":
                how = "preserved"
                composed = lc == compose_functors(l2, l1) and rc == compose_functors(r1, r2)
            else:
                how = "reversed"
                composed = lc == compose_functors(l1, l2) and rc == compose_functors(r2, r1)
            if not composed:
                return f"#{idx} {kind}: composition not {how}"
            li, ri = concept_functor_image(
                identity_infomorphism(i1.source), kind, lat_phi, lat_phi
            )
            if li != identity_functor(lat_phi) or ri != identity_functor(lat_phi):
                return f"#{idx} {kind}: identity not preserved"


def law_macneille(rng, profile: Profile) -> Suite:
    chain, anti, empty = fixture_small_categories()
    for cat, expected in ((chain, 2), (anti, 4), (empty, 1)):
        for algorithm in ("brute", "generated"):
            yield
            lattice, _ = macneille_completion(cat, algorithm)
            if len(lattice) != expected:
                return f"{algorithm} cut count {len(lattice)} != {expected} on {cat.labels}"
    for idx in range(profile.macneille_categories):
        yield
        if idx % 2 == 0:
            A = rand_category(rng, fixture_two(), 3)
        else:
            A = rand_category(rng, fixture_ql(3), 2)
        lattice, _ = macneille_completion(A)
        _, embedding2 = macneille_completion(lattice)
        if not functor_is_isomorphism(embedding2):
            return f"#{idx}: completion is not idempotent"
    for which, Qx, size in (("two", fixture_two(), 2), ("ql3", fixture_ql(3), 1)):
        yield
        A = rand_category(rng, Qx, size, size)
        _, embedding = macneille_completion(presheaf_category(A))
        if not functor_is_isomorphism(embedding):
            return f"{which}: complete skeletal category not isomorphic to its completion"


def law_closure_reconstruction(rng, profile: Profile) -> Suite:
    for idx in range(profile.closure_spaces):
        yield
        if idx % 5 < 3:
            A = rand_category(rng, fixture_two(), 3, 1)
        else:
            A = rand_category(rng, fixture_ql(3), 1, 1)
        PA = presheaf_category(A)
        space = rand_closure_space(rng, A, PA)
        if validate_closure_space(space):
            return f"#{idx}: generator produced an invalid operator"
        zeta = closure_to_context(space)
        for i in range(len(PA)):
            mu = PA.weight_at(i)
            closed = isbell_transform(zeta, "down", isbell_transform(zeta, "up", mu))
            if PA.index_of(closed) != space.operator(i):
                return f"#{idx}: reconstruction differs at weight {mu.weights}"
        ok, witness = state_property_system_check(A, zeta.cod, zeta)
        if not ok:
            return f"#{idx}: axioms fail: {witness}"


LAWS = {
    "residuation-adjointness": law_residuation,
    "divisible-builder": law_divisible,
    "yoneda-lemma": law_yoneda,
    "isbell-kan-adjointness": law_adjointness,
    "image-functors-via-kan": law_image_functors,
    "concept-enumeration-agreement": law_concept_enumeration,
    "concept-lattice-completeness": law_completeness,
    "dense-factorization": law_dense_factorization,
    "girard-duality": law_girard,
    "concept-functoriality": law_concept_functoriality,
    "macneille": law_macneille,
    "closure-reconstruction": law_closure_reconstruction,
}


def run_law(law_id: str, seed: int, profile_name: str, mutate: str | None = None) -> LawResult:
    """Run one suite: count its instances, up to and including a failing
    one, and report the witness it returns."""
    profile = PROFILES[profile_name]
    rng = random.Random(f"{seed}:{law_id}")
    args = (mutate,) if law_id == "residuation-adjointness" else ()
    suite, instances = LAWS[law_id](rng, profile, *args), 0
    while True:
        try:
            next(suite)
        except StopIteration as end:
            return LawResult(law_id, instances, end.value is None, end.value)
        instances += 1


def run_all(seed: int, profile_name: str, mutate: str | None = None) -> list[LawResult]:
    return [run_law(law_id, seed, profile_name, mutate) for law_id in LAWS]


def format_result(result: LawResult, seed: int, profile_name: str) -> str:
    line = (
        f"law={result.law_id} seed={seed} profile={profile_name} "
        f"instances={result.instances} status={'PASS' if result.passed else 'FAIL'}"
    )
    if not result.passed:
        line += f" witness={result.witness}"
    return line
