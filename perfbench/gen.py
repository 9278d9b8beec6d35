"""Seeded job lists for the quantcat benchmark.

This module imports nothing from ``quantcat``: a change under test cannot
change its own inputs.  Lattice sizes are steered with independent
counts, never with the program: the subset-scan oracles of
``tests/oracles.py`` (loaded read-only by the caller) for crisp inputs, and
the brute counter in ``graded.py`` for graded ones.

A workload is a fixed list of *slots*.  Each slot fixes the shape of one
job (command, quantale, size, the number of filled cells and, where an
oracle exists, a band of concept or cut counts); the seed only draws the
random content that fills the slot.  Every seed therefore gets the same
mix of job shapes, which keeps run-to-run spread small while the inputs
still change.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

import graded

CROSS_CHECK_LIMIT = 10_000  # the CLI's brute cross-check switch, in candidates
PRESHEAF_CAP = 200_000  # the CLI's default weight-enumeration bound
DEFAULT_SEED = 0
GRADED_CERTIFICATE_SCAN = 1_000  # most weights a graded job's certificate may scan


@dataclass
class Job:
    """One CLI process: ``python -m quantcat.cli <argv>``.

    ``{in}`` and ``{out}`` in argv are replaced by the input and output
    paths.  ``expect`` drives the output checks, ``profile`` the per-
    workload input profile.
    """

    name: str
    argv: list[str]
    document: dict | None = None
    out: bool = False
    expect: dict = field(default_factory=dict)
    profile: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Quantale arithmetic needed to size inputs (direct definitions)
# ---------------------------------------------------------------------------


def chain_labels(n: int) -> list[str]:
    return [str(Fraction(k, n - 1)) for k in range(n)]


BA2_LABELS = ["0", "a", "b", "ab"]  # powerset of two atoms, as bitmasks 0..3


def below_count(kind: str, x: int, y: int) -> int:
    """Number of quantale elements below x ∧ y: the size of hom(x, y) in the
    quantaloid of a divisible quantale."""
    if kind == "boolean-algebra":
        return 1 << bin(x & y).count("1")
    return min(x, y) + 1


def weight_space(kind: str, n_elems: int, object_types: list[int]) -> int:
    """Candidate count of the CLI's brute cross-check: the sum over
    quantaloid objects t of the product of |hom(type x, t)|."""
    total = 0
    for t in range(n_elems):
        prod = 1
        for x in object_types:
            prod *= below_count(kind, x, t)
        total += prod
    return total


def meet(kind: str, x: int, y: int) -> int:
    return x & y if kind == "boolean-algebra" else min(x, y)


def below(kind: str, bound: int, n_elems: int) -> list[int]:
    if kind == "boolean-algebra":
        return [a for a in range(n_elems) if a & ~bound == 0]
    return list(range(bound + 1))


# ---------------------------------------------------------------------------
# Documents
# ---------------------------------------------------------------------------


def filled_cells(rng: random.Random, n_rows: int, n_cols: int, density: float) -> set:
    """Exactly round(density x cells) cells, chosen at random: a fixed fill
    keeps the cost of a slot's inputs close from seed to seed."""
    cells = [(i, j) for i in range(n_rows) for j in range(n_cols)]
    return set(rng.sample(cells, round(density * len(cells))))


def crisp_context(rng: random.Random, n_obj: int, n_att: int, density: float):
    objs = [f"o{i}" for i in range(n_obj)]
    atts = [f"a{j}" for j in range(n_att)]
    inc = {(objs[i], atts[j]) for i, j in filled_cells(rng, n_obj, n_att, density)}
    return objs, atts, inc


def crisp_context_document(objs, atts, inc) -> dict:
    return {
        "schema": "context/v1",
        "quantale": {"kind": "boolean"},
        "objects": {x: "1" for x in objs},
        "attributes": {y: "1" for y in atts},
        "incidence": {x: {y: "1" for y in atts if (x, y) in inc} for x in objs},
    }


def crisp_concepts(oracles, objs, atts, inc, mode: str) -> list:
    """Concepts from the subset-scan oracle, as (extent, intent) pairs.

    The scan runs over the attribute side (the transposed relation), which
    is the smaller one here: polarity concepts of a relation and of its
    transpose correspond one to one, and so do the property-oriented
    concepts of a relation and the object-oriented concepts of its
    transpose, both being dual to the concepts of the complement relation.
    """
    transposed = {(y, x) for x, y in inc}
    scan = (
        oracles.classical_concepts
        if mode == "isbell"
        else oracles.property_oriented_concepts
    )
    return scan(atts, objs, transposed)


def down_set_count(sets: list) -> int:
    """Number of down-sets of ``sets`` ordered by inclusion.

    For a one-object lattice of N elements, the completeness certificate
    tests all 2^N candidate weights of each variance and keeps the down-sets
    (or up-sets, which are as many), running a sup or inf for each.  A slot
    that fixes N and this count fixes the certificate's work."""
    n = len(sets)
    below = [sum(1 << j for j in range(n) if sets[j] <= sets[i]) for i in range(n)]
    return sum(
        all(below[i] & ~mask == 0 for i in range(n) if mask >> i & 1) for mask in range(1 << n)
    )


def graded_context_document(
    rng: random.Random, quantale: dict, labels: list[str], kind: str,
    obj_types: list[int], att_types: list[int], density: float,
) -> tuple[dict, list[list[int]]]:
    """A context whose incidences lie under the meet of their row and column
    memberships.  Returns the document and the incidence matrix."""
    filled = filled_cells(rng, len(obj_types), len(att_types), density)
    matrix = [
        [
            rng.choice(below(kind, meet(kind, tx, ty), len(labels))[1:] or [0])
            if (i, j) in filled
            else 0
            for j, ty in enumerate(att_types)
        ]
        for i, tx in enumerate(obj_types)
    ]
    objs = [f"o{i}" for i in range(len(obj_types))]
    atts = [f"a{j}" for j in range(len(att_types))]
    doc = {
        "schema": "context/v1",
        "quantale": quantale,
        "objects": {x: labels[t] for x, t in zip(objs, obj_types)},
        "attributes": {y: labels[t] for y, t in zip(atts, att_types)},
        "incidence": {
            x: {y: labels[d] for y, d in zip(atts, row) if d} for x, row in zip(objs, matrix)
        },
    }
    return doc, matrix


def poset_document(rng: random.Random, n: int, edge_p: float):
    """A random crisp poset: a random DAG on a shuffled order, transitively
    closed.  Returns the document, labels and the order as (a, b) pairs."""
    labels = [f"p{i}" for i in range(n)]
    leq = {(a, a) for a in labels}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < edge_p:
                leq.add((labels[i], labels[j]))
    changed = True
    while changed:
        changed = False
        for a, b in list(leq):
            for c, d in list(leq):
                if b == c and (a, d) not in leq:
                    leq.add((a, d))
                    changed = True
    doc = {
        "schema": "category/v1",
        "quantale": {"kind": "boolean"},
        "elements": {a: "1" for a in labels},
        "hom": {a: {b: "1" for b in labels if (a, b) in leq and a != b} for a in labels},
    }
    return doc, labels, leq


def draw_crisp(rng, oracles, n_obj, n_att, density, mode, lo, hi, down_sets=None):
    """Rejection-sample a crisp context whose oracle concept count lies in
    [lo, hi] and, if given, whose lattice has ``down_sets`` down-sets."""
    while True:
        objs, atts, inc = crisp_context(rng, n_obj, n_att, density)
        concepts = crisp_concepts(oracles, objs, atts, inc, mode)
        if not lo <= len(concepts) <= hi:
            continue
        if down_sets is None or down_set_count([c[0] for c in concepts]) == down_sets:
            return crisp_context_document(objs, atts, inc), len(concepts)


def crisp_concepts_job(name, doc, count, mode, n_obj, n_att, out) -> Job:
    space = 1 << n_obj
    return Job(
        name=name,
        argv=["concepts", "{in}", "--mode", mode] + (["--out", "{out}"] if out else []),
        document=doc,
        out=out,
        expect={"first_line": f"{count} concepts", "count": count},
        profile={
            "size": f"{n_obj}x{n_att}",
            "concepts": count,
            "crosscheck": space <= CROSS_CHECK_LIMIT,
            # one-object quantaloid: the certificate's candidate space is 2^N
            "certificate_enumerates": (1 << count) <= PRESHEAF_CAP,
            "quantaloid_objects": 1,
        },
    )


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

# (objects, attributes, density, mode, lowest and highest concept count).
# Contexts with 9 objects have 512 candidate weights, so the CLI runs its
# brute cross-check; those with 14 or 15 objects are past the switch.  Every
# lattice has at least 25 concepts, so the certificate gives up at the cap.
CRISP_FCA_SLOTS = [
    (9, 9, 0.45, "isbell", 29, 33),
    (14, 10, 0.45, "kan", 86, 94),
    (9, 10, 0.45, "isbell", 34, 38),
    (14, 10, 0.35, "isbell", 39, 43),
    (9, 8, 0.40, "kan", 33, 38),
    (15, 10, 0.30, "isbell", 33, 37),
    (9, 9, 0.45, "kan", 39, 43),
    (15, 10, 0.50, "kan", 77, 83),
]


def crisp_fca(rng: random.Random, oracles) -> list[Job]:
    jobs = []
    for k, (n_obj, n_att, density, mode, lo, hi) in enumerate(CRISP_FCA_SLOTS):
        doc, count = draw_crisp(rng, oracles, n_obj, n_att, density, mode, lo, hi)
        jobs.append(crisp_concepts_job(f"crisp{k:02d}-{mode}", doc, count, mode, n_obj, n_att, False))
    return jobs


def quantale_labels(quantale: dict) -> list[str]:
    if quantale["kind"] == "boolean-algebra":
        return BA2_LABELS
    return chain_labels(quantale["n"])


def graded_job(rng, name, quantale, obj_types, att_types, density, mode, lo, hi, out=False) -> Job:
    """Rejection-sample a graded context whose independent brute count lies
    in [lo, hi] and whose certificate gives up after scanning few weights.

    The certificate's cost cliff is measured on the crisp jobs of
    small-docs, where its size is controlled exactly; here it would only
    add a random outlier."""
    labels = quantale_labels(quantale)
    kind = "boolean-algebra" if quantale["kind"] == "boolean-algebra" else "chain"
    q = graded.Quantale(quantale["kind"], len(labels))
    while True:
        doc, matrix = graded_context_document(
            rng, quantale, labels, kind, obj_types, att_types, density
        )
        types = graded.concept_types(q, obj_types, att_types, matrix, mode)
        scanned, complete = graded.certificate_candidates(q, types, PRESHEAF_CAP)
        if lo <= len(types) <= hi and not complete and scanned <= GRADED_CERTIFICATE_SCAN:
            break
    lines = [f"{len(types)} concepts"] + [
        f"potential concepts of type {labels[t]}: {types.count(t)}"
        for t in range(len(labels))
        if t in types
    ]
    return Job(
        name=name,
        argv=["concepts", "{in}", "--mode", mode] + (["--out", "{out}"] if out else []),
        document=doc,
        out=out,
        expect={"stdout": "\n".join(lines) + "\n", "count": len(types)},
        profile={
            "size": f"{len(obj_types)}x{len(att_types)}",
            "concepts": len(types),
            "crosscheck": weight_space(kind, len(labels), obj_types) <= CROSS_CHECK_LIMIT,
            "certificate_enumerates": False,
            "quantaloid_objects": len(labels),
        },
    )


LUK5 = {"kind": "lukasiewicz", "n": 5}
GODEL5 = {"kind": "godel", "n": 5}
BA2 = {"kind": "boolean-algebra", "atoms": 2}

# (quantale, object memberships, attribute memberships, density, mode,
#  lowest and highest concept count); memberships are element indices.
GRADED_FCA_SLOTS = [
    (LUK5, [4, 4, 3, 4], [4, 2, 4, 4], 0.6, "isbell", 98, 108),
    (GODEL5, [4, 3, 4, 4], [4, 4, 2, 4, 4], 0.6, "kan", 88, 96),
    (BA2, [3, 3, 1, 3, 3], [3, 2, 3, 3, 3], 0.6, "isbell", 59, 64),
    (LUK5, [4, 4, 4, 2], [4, 3, 4, 4, 4], 0.7, "kan", 89, 98),
    (GODEL5, [4, 4, 2, 4], [4, 3, 4, 4, 4], 0.6, "isbell", 59, 64),
    (BA2, [3, 2, 3, 3, 3], [3, 3, 3, 1, 3], 0.6, "kan", 65, 71),
]


def graded_fca(rng: random.Random, oracles) -> list[Job]:
    return [
        graded_job(rng, f"graded{k:02d}-{q['kind']}-{mode}", q, ot, at, d, mode, lo, hi)
        for k, (q, ot, at, d, mode, lo, hi) in enumerate(GRADED_FCA_SLOTS)
    ]


# (poset size, edge probability, exact cut count, band of down-set counts).
# The down-set count of the cut lattice fixes the certificate's work; each
# band holds the commonest counts for its size.
SMALL_POSET_SLOTS = [(6, 0.3, 8, 20, 22), (7, 0.3, 10, 28, 30)]
# (objects, attributes, density, mode, exact concept count, exact down-set
#  count, --out); each down-set count is the commonest one for its slot.
SMALL_CONTEXT_SLOTS = [
    (5, 4, 0.4, "isbell", 8, 20, True),
    (5, 5, 0.4, "kan", 10, 27, True),
    (6, 4, 0.4, "kan", 11, 41, False),
]
# (chain, object memberships, mode, lowest and highest concept count).
# Low object memberships keep the lattices small, so building the
# quantaloid of the long chain dominates these jobs.
SMALL_CHAIN_SLOTS = [
    ({"kind": "lukasiewicz", "n": 12}, [1, 2, 1], "kan", 18, 22),
    ({"kind": "godel", "n": 14}, [2, 1, 1], "isbell", 38, 45),
    ({"kind": "lukasiewicz", "n": 16}, [1, 2, 1], "kan", 20, 24),
]


def small_docs(rng: random.Random, oracles) -> list[Job]:
    jobs = []
    for k, (n, p, cuts, lo, hi) in enumerate(SMALL_POSET_SLOTS):
        while True:
            doc, labels, leq = poset_document(rng, n, p)
            found = oracles.macneille_cuts(labels, leq)
            if len(found) == cuts and lo <= down_set_count([c[0] for c in found]) <= hi:
                count = cuts
                break
        jobs.append(
            Job(
                name=f"poset{k:02d}",
                argv=["macneille", "{in}", "--out", "{out}"],
                document=doc,
                out=True,
                expect={"first_line": f"{count} cuts", "count": count},
                profile={
                    "size": f"{n}",
                    "concepts": count,
                    "crosscheck": False,
                    "certificate_enumerates": (1 << count) <= PRESHEAF_CAP,
                    "quantaloid_objects": 1,
                },
            )
        )
    for k, (n_obj, n_att, density, mode, count, down_sets, out) in enumerate(SMALL_CONTEXT_SLOTS):
        doc, got = draw_crisp(rng, oracles, n_obj, n_att, density, mode, count, count, down_sets)
        jobs.append(crisp_concepts_job(f"small{k:02d}-{mode}", doc, got, mode, n_obj, n_att, out))
    for k, (quantale, obj_types, mode, lo, hi) in enumerate(SMALL_CHAIN_SLOTS):
        top = quantale["n"] - 1
        name = f"chain{k:02d}-{quantale['kind']}{quantale['n']}-{mode}"
        jobs.append(graded_job(rng, name, quantale, obj_types, [top] * 3, 0.6, mode, lo, hi))
    return jobs


LAWS_SEEDS = 2


def laws_medium(rng: random.Random, oracles) -> list[Job]:
    seeds = rng.sample(range(1_000_000), LAWS_SEEDS)
    return [
        Job(
            name=f"laws-{s}",
            argv=["laws", "--profile", "medium", "--seed", str(s)],
            expect={"laws": True},
            profile={"size": "medium", "crosscheck": False, "quantaloid_objects": 0},
        )
        for s in seeds
    ]


WORKLOADS = {
    "crisp-fca": crisp_fca,
    "graded-fca": graded_fca,
    "small-docs": small_docs,
    "laws-medium": laws_medium,
}


def make_jobs(workload: str, seed: int, oracles) -> list[Job]:
    rng = random.Random(f"{workload}:{seed}")
    return WORKLOADS[workload](rng, oracles)
