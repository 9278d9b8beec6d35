"""Command-line surface: validate documents, compute concept lattices and
cut completions, and run the registered law suites.

Exit codes: 0 on success, 1 when a law or validation fails (or a document
is rejected), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

from .adjunction import (
    ConceptLattice,
    _type_counts,
    concept_pairs,
    extents_differ,
    macneille_completion,
)
from .distributor import validate_distributor, validate_infomorphism
from .enriched import validate_category
from .errors import InternalCheckError, QuantcatError
from .quantaloid import check_divisible, validate_quantale, validate_quantaloid


def _fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(1)


def validate(path: str, kind: str, require_divisible: bool) -> None:
    """Check a document against the structural laws of its kind."""
    from . import io as qio

    doc = qio.load_document(path)
    if kind == "quantale":
        q = qio.parse_quantale_document(doc)
        problems = [str(p) for p in validate_quantale(q)]
        if not problems and require_divisible:
            ok, witness = check_divisible(q)
            if not ok:
                problems.append(f"divisibility fails at ({witness[0]}, {witness[1]})")
    elif kind == "quantaloid":
        problems = [str(p) for p in validate_quantaloid(qio.parse_quantaloid_document(doc))]
    elif kind == "category":
        problems = [str(p) for p in validate_category(qio.parse_category_document(doc).category)]
    elif kind == "distributor":
        phi = qio.parse_distributor_document(doc).distributor
        sides = (("source", phi.dom), ("target", phi.cod))
        problems = [f"{side}: {p}" for side, part in sides for p in validate_category(part)]
        problems += validate_distributor(phi)
    elif kind == "context":
        phi = qio.parse_context_document(doc).distributor
        problems = [str(p) for p in validate_distributor(phi)]
    else:
        info = qio.parse_infomorphism_document(doc).infomorphism
        problems = [str(p) for p in validate_infomorphism(info)]
    if problems:
        for p in problems:
            print(f"violation: {p}")
        sys.exit(1)
    print("OK")


def concepts(path: str, mode: str, algorithm: str, out: str | None, cap: int | None) -> None:
    """Compute the concept lattice of a context document.

    With the default algorithm the result is cross-checked against brute
    enumeration whenever the weight space is small enough.  Only --out
    builds the lattice and its hom; the counts read the fixed pairs.
    """
    from . import io as qio

    bundle = qio.parse_context_document(qio.load_document(path))
    phi = bundle.distributor
    pairs = concept_pairs(phi, mode, algorithm, cap=cap)
    if algorithm == "generated" and extents_differ(phi, mode, pairs):
        raise InternalCheckError("generated enumeration disagrees with brute enumeration")
    if out is not None:
        lattice = ConceptLattice(phi, mode, pairs)
        doc = qio.lattice_document(lattice, bundle.quantale, algorithm, cap)
        qio.write_document(doc, out)
    print(f"{len(pairs)} concepts")
    for label, count in _type_counts(phi.Q, pairs).items():
        print(f"potential concepts of type {label}: {count}")


def macneille(path: str, algorithm: str, out: str | None, cap: int | None) -> None:
    """Complete a category document by two-sided cuts."""
    from . import io as qio

    bundle = qio.parse_category_document(qio.load_document(path))
    lattice, embedding = macneille_completion(bundle.category, algorithm, cap=cap)
    if out is not None:
        doc = qio.macneille_document(lattice, embedding, bundle.quantale, algorithm, cap)
        qio.write_document(doc, out)
    print(f"{len(lattice)} cuts")
    for i, label in enumerate(bundle.category.labels):
        print(f"embed {label} -> {lattice.labels[embedding(i)]}")


def laws(seed: int, profile: str, mutate: str | None) -> None:
    """Run every registered law suite over seeded random instances."""
    from .laws import format_result, run_all

    results = run_all(seed, profile, mutate)
    for res in results:
        print(format_result(res, seed, profile))
    if any(not res.passed for res in results):
        sys.exit(1)


def _file(path: str, must_exist: bool = True) -> str:
    """A PATH argument, or with must_exist false an --out value: never a directory."""
    if must_exist and not os.path.exists(path):
        raise argparse.ArgumentTypeError(f"file {path!r} does not exist")
    if os.path.isdir(path):
        raise argparse.ArgumentTypeError(f"file {path!r} is a directory")
    return path


def _cap(text: str) -> int:
    """A --cap value: an integer of at least 1."""
    with contextlib.suppress(ValueError):
        if int(text) >= 1:
            return int(text)
    raise argparse.ArgumentTypeError(f"{text!r} is not an integer of at least 1")


_HELP = "show this message and exit"
_DEFAULT = "(default: %(default)s)"
_KINDS = ["quantale", "quantaloid", "category", "distributor", "context", "infomorphism"]


def _parser(prog: str) -> argparse.ArgumentParser:
    """One subcommand per command function; `--help` but no `-h`; no abbreviations."""
    plain = {"add_help": False, "allow_abbrev": False}
    parser = argparse.ArgumentParser(
        prog=prog, description="Toolkit for categories enriched in a finite quantaloid.", **plain
    )
    parser.add_argument("--help", action="help", help=_HELP)
    commands = parser.add_subparsers(dest="command", required=True)
    subs = {}
    for run in (validate, concepts, macneille, laws):
        doc = run.__doc__
        sub = subs[run] = commands.add_parser(
            run.__name__, help=doc.splitlines()[0], description=doc, **plain
        )
        sub.add_argument("--help", action="help", help=_HELP)
        sub.set_defaults(run=run)
        if run is not laws:
            sub.add_argument("path", type=_file)
    subs[validate].add_argument(
        "--kind", required=True, choices=_KINDS,
        help="which schema and law set to check the document against",
    )
    subs[validate].add_argument(
        "--require-divisible", action="store_true",
        help="additionally demand divisibility (quantale documents only)",
    )
    subs[concepts].add_argument("--mode", required=True, choices=["isbell", "kan"])
    for sub in (subs[concepts], subs[macneille]):
        sub.add_argument(
            "--algorithm", default="generated", choices=["brute", "generated"], help=_DEFAULT
        )
        sub.add_argument("--out", type=lambda path: _file(path, must_exist=False), metavar="FILE")
        sub.add_argument(
            "--cap", type=_cap,
            help="presheaf enumeration bound (default: QUANTCAT_PRESHEAF_CAP or 200000)",
        )
    sub = subs[laws]
    sub.add_argument("--seed", type=int, default=0, help=_DEFAULT)
    # sorted(laws.PROFILES), written out so that parsing never loads the law suites
    sub.add_argument("--profile", default="small", choices=["medium", "small"], help=_DEFAULT)
    sub.add_argument(
        "--mutate", choices=["compose"],
        help="corrupt one composition-table entry to exercise failure reporting",
    )
    return parser


def main(args: list[str] | None = None, prog_name: str = "quantcat") -> None:
    """Run the command that `args` (default: sys.argv[1:]) names; return on
    success, exit 1 on a failed check or a rejected document, 2 on a usage error."""
    options = vars(_parser(prog_name).parse_args(args))
    del options["command"]
    try:
        options.pop("run")(**options)
        sys.stdout.flush()
    except QuantcatError as exc:
        _fail(str(exc))
    except BrokenPipeError:  # the reader left early (`| head`): exit 1 without a traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)


if __name__ == "__main__":
    main()
