"""Wrap points of the traced run and the per-layer metrics built from them.

Every wrap point lives in ``WRAPS``: the traced launcher replaces the
module (or class) attribute that the caller resolves, so the package itself
is never edited.  A wrap point whose attribute no longer exists is listed
as absent and its metrics read 0; the run goes on.
"""

from __future__ import annotations

# (metric stem, module, attribute path, kind)
#
# kinds:
#   span         time the call and record it as a span
#   count        count calls only (the table kernel is too hot for spans)
#   lattice      span named adjunction.generate, or adjunction.crosscheck for
#                the brute call; counts the concepts of generated lattices
#   enumerate    span; counts the weights returned
#   closure      span; measures the waste of the saturation loop
#   pair         counts pairwise meets/joins made inside a closure span
#   pool         notes weights that enter a closure's pool before pairing
#   certificate  span; counts certificates built and actually checked
#   law          span named laws.<law id>; spans inside it are not recorded,
#                so a law's time is all its own (counts are still kept)
WRAPS = [
    ("io.parse", "quantcat.io", "load_document", "span"),
    ("io.parse", "quantcat.io", "parse_context_document", "span"),
    ("io.parse", "quantcat.io", "parse_category_document", "span"),
    ("quantaloid.build", "quantcat.io", "quantaloid_from_divisible_quantale", "span"),
    ("quantaloid.compose", "quantcat.quantaloid", "Quantaloid.compose", "count"),
    ("quantaloid.residual", "quantcat.quantaloid", "Quantaloid.residual", "count"),
    ("quantaloid.meet", "quantcat.quantaloid", "Quantaloid.meet", "count"),
    ("quantaloid.join", "quantcat.quantaloid", "Quantaloid.join", "count"),
    ("adjunction.lattice", "quantcat.cli", "concept_lattice", "lattice"),
    ("adjunction.lattice", "quantcat.adjunction", "concept_lattice", "lattice"),
    ("adjunction.macneille", "quantcat.cli", "macneille_completion", "span"),
    ("adjunction.assembly", "quantcat.adjunction", "ConceptLattice.__init__", "span"),
    ("adjunction.transform", "quantcat.adjunction", "isbell_transform", "count"),
    ("adjunction.transform", "quantcat.adjunction", "kan_transform", "count"),
    ("distributor.hom", "quantcat.adjunction", "presheaf_hom", "span"),
    ("distributor.hom", "quantcat.adjunction", "copresheaf_hom", "span"),
    ("distributor.enumerate", "quantcat.adjunction", "enumerate_presheaves", "enumerate"),
    ("distributor.enumerate", "quantcat.io", "enumerate_presheaves", "enumerate"),
    ("completion.closure", "quantcat.adjunction", "meet_cotensor_closure", "closure"),
    ("completion.closure", "quantcat.adjunction", "join_tensor_closure", "closure"),
    ("completion.pair", "quantcat.completion", "presheaf_meet", "pair"),
    ("completion.pair", "quantcat.distributor", "presheaf_join", "pair"),
    ("completion.pool", "quantcat.completion", "top_presheaf", "pool"),
    ("completion.pool", "quantcat.distributor", "bottom_presheaf", "pool"),
    ("completion.pool", "quantcat.completion", "cotensor_weight", "pool"),
    ("completion.pool", "quantcat.completion", "tensor_weight", "pool"),
    ("completion.sup_inf", "quantcat.completion", "sup_inf", "span"),
    ("io.document", "quantcat.io", "lattice_document", "span"),
    ("io.document", "quantcat.io", "macneille_document", "span"),
    ("io.certificate", "quantcat.io", "_completeness_certificate", "certificate"),
    ("io.write", "quantcat.io", "write_document", "span"),
    ("laws", "quantcat.laws", "run_law", "law"),
]

LAW_IDS = [
    "residuation-adjointness",
    "divisible-builder",
    "yoneda-lemma",
    "isbell-kan-adjointness",
    "image-functors-via-kan",
    "concept-enumeration-agreement",
    "concept-lattice-completeness",
    "dense-factorization",
    "girard-duality",
    "concept-functoriality",
    "macneille",
    "closure-reconstruction",
]

# Self-time metrics: span name -> metric.
SPAN_METRICS = {
    "quantaloid.build": "quantaloid.build_s",
    "distributor.hom": "distributor.hom_s",
    "distributor.enumerate": "distributor.enumerate_s",
    "completion.closure": "completion.closure_s",
    "completion.sup_inf": "completion.sup_inf_s",
    "adjunction.generate": "adjunction.generate_s",
    "adjunction.assembly": "adjunction.assembly_s",
    "adjunction.crosscheck": "adjunction.crosscheck_s",
    "adjunction.macneille": "adjunction.macneille_s",
    "io.parse": "io.parse_s",
    "io.document": "io.document_s",
    "io.certificate": "io.certificate_s",
    "io.write": "io.write_s",
    **{f"laws.{law}": f"laws.{law}_s" for law in LAW_IDS},
}

# Count metrics: counter or span-count name -> metric.
COUNT_METRICS = {
    "quantaloid.build": "quantaloid.build_calls",
    "quantaloid.compose": "quantaloid.compose_calls",
    "quantaloid.residual": "quantaloid.residual_calls",
    "quantaloid.meet": "quantaloid.meet_calls",
    "quantaloid.join": "quantaloid.join_calls",
    "distributor.hom": "distributor.hom_calls",
    "distributor.weights": "distributor.weights_enumerated",
    "completion.pair_ops": "completion.pair_ops",
    "completion.sup_inf": "completion.sup_inf_calls",
    "adjunction.transform": "adjunction.transform_calls",
    "adjunction.concepts": "adjunction.concepts",
}

# The wrap stems a metric depends on, where its name does not give them;
# a metric is absent when any of them is.
METRIC_STEMS = {
    "completion.pair_ops": ("completion.closure", "completion.pair"),
    "completion.pair_yield": ("completion.closure", "completion.pair", "completion.pool"),
    "distributor.weights_enumerated": ("distributor.enumerate",),
    "adjunction.generate_s": ("adjunction.lattice",),
    "adjunction.crosscheck_s": ("adjunction.lattice",),
    "adjunction.concepts": ("adjunction.lattice",),
    "io.certificate_checked_ratio": ("io.certificate",),
    **{f"laws.{law}_s": ("laws",) for law in LAW_IDS},
}

# Units of every per-layer metric, in report order.
PER_LAYER_UNITS = {
    "quantaloid.build_s": "s",
    "quantaloid.build_calls": "count",
    "quantaloid.compose_calls": "count",
    "quantaloid.residual_calls": "count",
    "quantaloid.meet_calls": "count",
    "quantaloid.join_calls": "count",
    "distributor.hom_s": "s",
    "distributor.hom_calls": "count",
    "distributor.enumerate_s": "s",
    "distributor.weights_enumerated": "count",
    "completion.closure_s": "s",
    "completion.pair_ops": "count",
    "completion.pair_yield": "ratio",
    "completion.sup_inf_s": "s",
    "completion.sup_inf_calls": "count",
    "adjunction.generate_s": "s",
    "adjunction.assembly_s": "s",
    "adjunction.crosscheck_s": "s",
    "adjunction.macneille_s": "s",
    "adjunction.transform_calls": "count",
    "adjunction.concepts": "count",
    "io.parse_s": "s",
    "io.document_s": "s",
    "io.certificate_s": "s",
    "io.certificate_weights": "count",
    "io.certificate_checked_ratio": "ratio",
    "io.write_s": "s",
    "io.out_bytes": "bytes",
    **{f"laws.{law}_s": "s" for law in LAW_IDS},
    "cli.other_s": "s",
    "trace.covered_share": "ratio",
    "trace.overhead_ratio": "ratio",
}


def metric_stems(metric: str) -> tuple[str, ...]:
    return METRIC_STEMS.get(metric, (metric.rsplit("_", 1)[0],))


def covered_seconds(spans) -> float:
    """Seconds covered by root spans (those with no parent)."""
    return sum(end - start for _n, start, end, parent in spans if parent < 0) / 1e9


def span_counts(spans) -> dict[str, int]:
    out: dict[str, int] = {}
    for name, *_rest in spans:
        out[name] = out.get(name, 0) + 1
    return out


# The layer each workload stresses, as the span names whose time (children
# included) it covers.
STRESSED = {
    "crisp-fca": ("closure plus assembly", ["completion.closure", "adjunction.assembly"]),
    "graded-fca": ("distributor.hom", ["distributor.hom"]),
    "small-docs": ("certificate plus quantaloid.build", ["io.certificate", "quantaloid.build"]),
    "laws-medium": ("laws.concept-enumeration-agreement", ["laws.concept-enumeration-agreement"]),
}


def split_by_group(spans, names) -> tuple[float, dict[str, float]]:
    """Seconds spent inside spans named in ``names`` (children included),
    and self seconds per span name of the spans outside them.

    ``spans`` are ``[name, start_ns, end_ns, parent]`` records, parents
    first; a span's self time is its duration minus the durations of its
    direct children (calls are nested, in one thread).  With no names,
    this gives the self time of every span name.
    """
    inside = []
    inclusive = 0.0
    child_ns = [0] * len(spans)
    for name, start, end, parent in spans:
        nested = parent >= 0 and inside[parent]
        inside.append(nested or name in names)
        if name in names and not nested:
            inclusive += (end - start) / 1e9
        if parent >= 0:
            child_ns[parent] += end - start
    others: dict[str, float] = {}
    for (name, start, end, _parent), flag, covered in zip(spans, inside, child_ns):
        if not flag:
            others[name] = others.get(name, 0.0) + (end - start - covered) / 1e9
    return inclusive, others
