"""Command-line surface: validate documents, compute concept lattices and
cut completions, and run the registered law suites.

Exit codes: 0 on success, 1 when a law or validation fails (or a document
is rejected), 2 on usage errors.
"""

from __future__ import annotations

import sys

import click

from . import io as qio
from .adjunction import concept_lattice, concept_pairs, extents_differ, macneille_completion
from .distributor import (
    CROSS_CHECK_LIMIT,
    presheaf_space_bound,
    validate_distributor,
    validate_infomorphism,
)
from .enriched import validate_category
from .errors import InternalCheckError, QuantcatError
from .quantaloid import check_divisible, validate_quantale, validate_quantaloid


def _fail(message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(1)


@click.group()
def cli() -> None:
    """Toolkit for categories enriched in a finite quantaloid."""


@cli.command()
@click.argument("path", type=click.Path(exists=True, dir_okay=False))
@click.option(
    "--kind",
    required=True,
    type=click.Choice(
        ["quantale", "quantaloid", "category", "distributor", "context", "infomorphism"]
    ),
    help="which schema and law set to check the document against",
)
@click.option(
    "--require-divisible",
    is_flag=True,
    default=False,
    help="additionally demand divisibility (quantale documents only)",
)
def validate(path: str, kind: str, require_divisible: bool) -> None:
    """Check a document against the structural laws of its kind."""
    try:
        doc = qio.load_document(path)
        problems: list[str] = []
        if kind == "quantale":
            q = qio.parse_quantale_document(doc)
            problems = [str(p) for p in validate_quantale(q)]
            if not problems and require_divisible:
                ok, witness = check_divisible(q)
                if not ok:
                    problems.append(f"divisibility fails at ({witness[0]}, {witness[1]})")
        elif kind == "quantaloid":
            Q = qio.parse_quantaloid_document(doc)
            problems = [str(p) for p in validate_quantaloid(Q)]
        elif kind == "category":
            bundle = qio.parse_category_document(doc)
            problems = [str(p) for p in validate_category(bundle.category)]
        elif kind == "distributor":
            phi = qio.parse_distributor_document(doc).distributor
            problems = [
                f"{side}: {p}"
                for side, part in (("source", phi.dom), ("target", phi.cod))
                for p in validate_category(part)
            ]
            problems += validate_distributor(phi)
        elif kind == "context":
            cbundle = qio.parse_context_document(doc)
            problems = [str(p) for p in validate_distributor(cbundle.distributor)]
        else:
            ibundle = qio.parse_infomorphism_document(doc)
            problems = [str(p) for p in validate_infomorphism(ibundle.infomorphism)]
    except QuantcatError as exc:
        _fail(str(exc))
    if problems:
        for p in problems:
            click.echo(f"violation: {p}")
        sys.exit(1)
    click.echo("OK")


_ALGORITHM_OPTION = click.option(
    "--algorithm",
    default="generated",
    show_default=True,
    type=click.Choice(["brute", "generated"]),
)
_OUT_OPTION = click.option("--out", type=click.Path(dir_okay=False), default=None)
_CAP_OPTION = click.option(
    "--cap",
    type=click.IntRange(min=1),
    default=None,
    help="presheaf enumeration bound (default: QUANTCAT_PRESHEAF_CAP or 200000)",
)


def _lattice_options(command):
    """The options shared by the lattice-building commands."""
    return _ALGORITHM_OPTION(_OUT_OPTION(_CAP_OPTION(command)))


@cli.command()
@click.argument("path", type=click.Path(exists=True, dir_okay=False))
@click.option("--mode", required=True, type=click.Choice(["isbell", "kan"]))
@_lattice_options
def concepts(path: str, mode: str, algorithm: str, out: str | None, cap: int | None) -> None:
    """Compute the concept lattice of a context document.

    With the default algorithm the result is cross-checked against brute
    enumeration whenever the weight space is small enough.
    """
    try:
        bundle = qio.parse_context_document(qio.load_document(path))
        phi = bundle.distributor
        lattice = concept_lattice(phi, mode, algorithm, cap=cap)
        if algorithm == "generated":
            space = sum(
                presheaf_space_bound(phi.dom, t) for t in range(len(phi.dom.Q.objects))
            )
            if space <= CROSS_CHECK_LIMIT:
                brute, _ = concept_pairs(phi, mode, "brute", cap=CROSS_CHECK_LIMIT)
                if extents_differ(brute, lattice.pairs):
                    raise InternalCheckError(
                        "generated enumeration disagrees with brute enumeration"
                    )
        if out is not None:
            doc = qio.lattice_document(lattice, bundle.quantale, mode, algorithm, cap)
            qio.write_document(doc, out)
        click.echo(f"{len(lattice)} concepts")
        counts = lattice.per_type_counts()
        for label in lattice.Q.objects:
            if label in counts:
                click.echo(f"potential concepts of type {label}: {counts[label]}")
    except QuantcatError as exc:
        _fail(str(exc))


@cli.command()
@click.argument("path", type=click.Path(exists=True, dir_okay=False))
@_lattice_options
def macneille(path: str, algorithm: str, out: str | None, cap: int | None) -> None:
    """Complete a category document by two-sided cuts."""
    try:
        bundle = qio.parse_category_document(qio.load_document(path))
        problems = validate_category(bundle.category)
        if problems:
            _fail(f"category: {problems[0]}")
        lattice, embedding = macneille_completion(bundle.category, algorithm, cap=cap)
        if out is not None:
            doc = qio.macneille_document(lattice, embedding, bundle.quantale, algorithm, cap)
            qio.write_document(doc, out)
        click.echo(f"{len(lattice)} cuts")
        A = bundle.category
        for i in range(len(A)):
            click.echo(f"embed {A.labels[i]} -> {lattice.labels[embedding(i)]}")
    except QuantcatError as exc:
        _fail(str(exc))


@cli.command()
@click.option("--seed", type=int, default=0, show_default=True)
@click.option(
    "--profile",
    default="small",
    show_default=True,
    type=click.Choice(["medium", "small"]),  # sorted(laws.PROFILES)
)
@click.option(
    "--mutate",
    type=click.Choice(["compose"]),
    default=None,
    help="corrupt one composition-table entry to exercise failure reporting",
)
def laws(seed: int, profile: str, mutate: str | None) -> None:
    """Run every registered law suite over seeded random instances."""
    from .laws import format_result, run_all

    results = run_all(seed, profile, mutate)
    for res in results:
        click.echo(format_result(res, seed, profile))
    if any(not res.passed for res in results):
        sys.exit(1)


main = cli


if __name__ == "__main__":
    main()
