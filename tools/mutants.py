"""Mutation check: every listed mutant must fail the tier-1 tests.

Each mutant is one exact-substring patch of one file under src/quantcat/
that must match exactly once.  For each mutant the script copies src/,
tests/ and pyproject.toml to a temporary directory, applies the patch
there and runs `python -m pytest -x -q` in the copy; the checkout itself
is never changed.  A mutant that passes every test survives, and the
script then exits 1.

    python tools/mutants.py              # every mutant, one after another
    python tools/mutants.py NAME ...     # only these
    python tools/mutants.py --list       # the names
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 900  # a mutant that hangs the suite this long counts as caught


class Mutant(NamedTuple):
    name: str
    path: str  # relative to src/quantcat/
    old: str
    new: str


MUTANTS = [
    Mutant(
        "contract-join-folds-4",
        "distributor.py",
        "acc = empty\n                for tab, i, j in zip(tabs, u, v):",
        "acc = empty\n                for tab, i, j in zip(tabs[:4] if join else tabs, u, v):",
    ),
    Mutant(
        "contract-meet-folds-4",
        "distributor.py",
        "lat.top\n            for tab, i, j in zip(tabs, u, v):",
        "lat.top\n            for tab, i, j in zip(tabs if join else tabs[:4], u, v):",
    ),
    Mutant(
        "one-type-branch-ignores-row-types",
        "distributor.py",
        "if rt and ct and rt.count(rt[0]) == len(rt) and ct.count(ct[0]) == len(ct):",
        "if rt and ct and ct.count(ct[0]) == len(ct):",
    ),
    Mutant(
        "fold-empty-swapped",
        "distributor.py",
        "(lat._join, lat.bottom) if join",
        "(lat._join, lat.top) if join",
    ),
    Mutant(
        "negation-reads-right-residual",
        "adjunction.py",
        'res[("left", i, j, i)]',
        'res[("right", i, j, i)]',
    ),
    Mutant(
        "packed-up-and-down-sets-swapped",
        "distributor.py",
        "(lat._up if join else lat._down)",
        "(lat._down if join else lat._up)",
    ),
    Mutant(
        "packed-cache-key-drops-k",
        "distributor.py",
        "m = packs.get(key)\n                if m is None:\n                    k, y = key\n",
        "k, y = key\n                key = y\n                m = packs.get(key)\n                if m is None:\n",
    ),
    Mutant(
        "distributor-entries-unchecked",
        "distributor.py",
        "if cell := _first_outside(dom.Q, dom.types, cod.types, self.matrix):",
        "if False:",
    ),
    Mutant(
        "right-lists-are-left-lists",
        "quantaloid.py",
        'if kind == "left":\n            return tuple([tables[("left", x, a, b)]',
        'if kind != "compose":\n            return tuple([tables[("left", x, a, b)]',
    ),
    Mutant(
        "left-lists-read-right-tables",
        "quantaloid.py",
        'tables[("left", x, a, b)]',
        'tables[("right", x, a, b)]',
    ),
    Mutant(
        "lattice-joins-read-down-sets",
        "quantaloid.py",
        '[ui & uj for uj in up], least, "least"',
        '[ui & uj for uj in up], greatest, "least"',
    ),
    Mutant(
        "largest-below-skips-lower-covers",
        "quantaloid.py",
        "            for c in covers:\n",
        "            for c in covers[:0]:\n",
    ),
    Mutant(
        "left-residual-table-from-rows",
        "quantaloid.py",
        "hik.largest_below(hjk, col) for col in zip(*comp)",
        "hik.largest_below(hjk, col) for col in comp",
    ),
    Mutant(
        "builder-divides-by-the-meet",
        "quantaloid.py",
        "out_pos, div = positions[meet[i][k]], ldiv[j]",
        "out_pos, div = positions[meet[i][k]], ldiv[meet[i][j]]",
    ),
    Mutant(
        "exceeding-never-fails",
        "enriched.py",
        "                    out.append((i, j, k))\n",
        "                    pass\n",
    ),
    Mutant(
        "category-unit-check-never-fails",
        "enriched.py",
        "if not Q.homs[(t, t)].leq(Q.units[t], hom[i][i])",
        "if False",
    ),
    Mutant(
        "first-outside-finds-nothing",
        "enriched.py",
        "if not _is_index(v, n):",
        "if False:",
    ),
    Mutant(
        "underlying-leq-ignores-types",
        "enriched.py",
        "return t == A.types[y] and A.Q.homs",
        "return A.Q.homs",
    ),
    Mutant(
        "validate-quantale-skips-left-join",
        "quantaloid.py",
        "if q.tensor(j, a) != lat.join(q.tensor(b, a), q.tensor(c, a)):",
        "if False:",
    ),
    Mutant(
        "validate-quantaloid-skips-associativity",
        "quantaloid.py",
        "if t_ikl[h][gf] != t_ijl[t_jkl[h][g]][f]:",
        "if False:",
    ),
    Mutant(
        "closure-keeps-8-per-generator",
        "distributor.py",
        "pool.update(dict.fromkeys(grown))",
        "pool.update(dict.fromkeys(grown[:8]))",
    ),
    Mutant(
        "universal-index-last-wins",
        "completion.py",
        "index.setdefault((t, v), c)",
        "index[(t, v)] = c",
    ),
    Mutant(
        "pointwise-leq-always-true",
        "distributor.py",
        "    return all(\n        homs[(s, t) if contra else (t, s)].leq(u, v)",
        "    return True or all(\n        homs[(s, t) if contra else (t, s)].leq(u, v)",
    ),
    Mutant(
        "generated-hom-stops-after-one-round",
        "distributor.py",
        "        if nxt == m:\n            return m\n        m = nxt\n",
        "        return nxt\n",
    ),
    Mutant(
        "weights-cache-ignores-variance",
        "distributor.py",
        "weights = A._weights.get(variance)",
        "weights = next(iter(A._weights.values()), None)",
    ),
    Mutant(
        "presheaf-cotensor-reads-compose",
        "distributor.py",
        'res[("right", tx, s, t)] if meet else comp[(tx, t, s)]',
        'comp[(tx, t, s)] if meet else comp[(tx, t, s)]',
    ),
    Mutant(
        "copresheaf-images-read-transposed",
        "distributor.py",
        "if contra else tab[v][g] for",
        "if contra else tab[g][v] for",
    ),
    Mutant(
        "generated-hom-diagonal-without-units",
        "distributor.py",
        "m[x][x] = Q.homs[(s, s)]._join[m[x][x]][Q.units[s]]",
        "m[x][x] = m[x][x]",
    ),
    Mutant(
        "enumeration-reads-hom-rows-for-presheaves",
        "distributor.py",
        "(A.types, tuple(zip(*hom)) if contra else hom)",
        "(A.types, hom if contra else tuple(zip(*hom)))",
    ),
    Mutant(
        "run-law-never-counts",
        "laws.py",
        "        instances += 1\n",
        "        instances += 0\n",
    ),
    Mutant(
        "weight-shape-never-fails",
        "distributor.py",
        "    if not isinstance(w, kind or _Weight):\n",
        "    return\n    if not isinstance(w, kind or _Weight):\n",
    ),
    Mutant(
        "weight-range-never-fails",
        "distributor.py",
        "if not _is_index(v, homs[(s, t) if contra else (t, s)].n):",
        "if not isinstance(v, int):",
    ),
    Mutant(
        "weight-entry-need-not-be-an-int",
        "distributor.py",
        "if not _is_index(v, homs[(s, t) if contra else (t, s)].n):",
        "if not 0 <= v < homs[(s, t) if contra else (t, s)].n:",
    ),
    Mutant(
        "lower-dag-reads-the-columns",
        "distributor.py",
        '"lower_dag": _Transform(Copresheaf, "target", "right", False)',
        '"lower_dag": _Transform(Copresheaf, "source", "right", False)',
    ),
    Mutant(
        "type-index-never-fails",
        "quantaloid.py",
        "    if not _is_index(type_idx, len(Q.objects)):\n",
        "    if False:\n",
    ),
    Mutant(
        "homless-part-diagonal-is-bottom",
        "io.py",
        'hom = _parse_degrees(q, Q, objs, objs, raw, f"{where}.{key}", False)',
        'hom = _parse_degrees(q, Q, objs, objs, raw, f"{where}.{key}", key is None)',
    ),
    Mutant(
        "load-document-in-text-mode",
        "io.py",
        'with open(path, "rb") as fh:',
        "with open(path) as fh:",
    ),
    Mutant(
        "compose-skips-the-arrow-rule",
        "quantaloid.py",
        "        _check_arrow(self, g)\n        _check_arrow(self, f)\n        tab = self.compose_tables",
        "        tab = self.compose_tables",
    ),
    Mutant(
        "lattice-skips-antisymmetry",
        "quantaloid.py",
        "if i != j and (up[j] >> i) & 1:",
        "if False:",
    ),
    Mutant(
        "dist-residual-skips-the-common-source",
        "distributor.py",
        '        if a.dom is not b.dom:\n'
        '            raise CategoryMismatch("left residual needs a common source category")\n',
        "",
    ),
    Mutant(
        "cross-check-never-scans",
        "adjunction.py",
        "for t in range(len(phi.Q.objects))) > CROSS_CHECK_LIMIT:",
        "for t in range(len(phi.Q.objects))) >= 0:",
    ),
    Mutant(
        "provenance-takes-last-generator",
        "adjunction.py",
        "if (s, vec) not in first:",
        "if True:",
    ),
    Mutant(
        "category-entries-unchecked",
        "enriched.py",
        "        if not self._computed_homs:\n            _check_homs(self)\n",
        "",
    ),
    Mutant(
        "closure-skips-a-generator",
        "distributor.py",
        "for g in sorted(gens):",
        "for g in sorted(gens)[:-1]:",
    ),
    Mutant(
        "random-weight-unclosed",
        "laws.py",
        'return Presheaf(A, t, _contract(Q, "compose", A.types, mu, (A.types, A.hom_idx), True)[0])',
        "return Presheaf(A, t, mu[1][0])",
    ),
    Mutant(
        "arrow-weight-wrong-end",
        "completion.py",
        "other = g.src if meet else g.tgt",
        "other = g.tgt if meet else g.src",
    ),
    Mutant(
        "continuity-forward-reads-the-unclosed-image",
        "completion.py",
        "underlying_leq(PB, image(C(i)), D(image(i)))",
        "underlying_leq(PB, image(i), D(image(i)))",
    ),
    Mutant(
        "closure-system-order-reversed",
        "completion.py",
        "if underlying_leq(P, i, j)]",
        "if underlying_leq(P, j, i)]",
    ),
    Mutant(
        "functor-check-never-fails",
        "distributor.py",
        "        raise (ObjectMismatch if type_failures(F) else StructureError)(report[0])\n",
        "        pass\n",
    ),
    Mutant(
        "adjoint-check-drops-G-types",
        "enriched.py",
        "if type_failures(F) or type_failures(G):",
        "if type_failures(F):",
    ),
    Mutant(
        "images-check-types-only",
        "distributor.py",
        '    _check_weight(w, F.dom, None, "the functor\'s source")\n    _check_functor(F)\n',
        '    _check_weight(w, F.dom, None, "the functor\'s source")\n'
        "    if type_failures(F):\n        raise ObjectMismatch(type_failures(F)[0])\n",
    ),
    Mutant(
        "infomorphism-maps-checked-for-types-only",
        "distributor.py",
        'report = [f"object_map: {p}" for p in validate_functor(F)[0]]',
        'report = [f"object_map: {p}" for p in type_failures(F)]',
    ),
    Mutant(
        "image-kinds-nra-reads-the-cograph",
        "distributor.py",
        '"nra": (True, "co", 0, "dag"),',
        '"nra": (True, "co", 1, "dag"),',
    ),
    Mutant(
        "tensor-lookup-reads-the-near-end",
        "completion.py",
        'other = side == "tensor", f.tgt if side == "tensor" else f.src',
        'other = side == "tensor", f.src if side == "tensor" else f.tgt',
    ),
    Mutant(
        "closure-system-skips-cotensors",
        "completion.py",
        "if validate_functor(C := ClosureOperator(P, mapping))[0]:",
        "if (C := ClosureOperator(P, mapping)) is None:",
    ),
    Mutant(
        "dense-factorization-skips-the-distributor-check",
        "adjunction.py",
        "    if report := validate_distributor(phi):\n        raise StructureError(report[0])\n",
        "",
    ),
    Mutant(
        "category-rule-never-fails",
        "enriched.py",
        "if not A._computed_homs and (report := validate_category(A)):",
        "if False:",
    ),
    Mutant(
        "girard-cyclic-reads-the-source-dualizer",
        "quantaloid.py",
        'Q.residual("right", f, report.dualizer(f.tgt))',
        'Q.residual("right", f, report.dualizer(f.src))',
    ),
    Mutant(
        "induced-closure-skips-down",
        "laws.py",
        '_, closed = _there_and_back(phi, "up", "down", W)',
        "closed = W[1]",
    ),
    Mutant(
        "empty-degree-accepted",
        "io.py",
        '    if not text:\n        raise SchemaError(f"{where}: empty degree")\n',
        "",
    ),
    Mutant(
        "null-elements-read-as-empty",
        "io.py",
        '    if not isinstance(raw, dict):\n'
        '        raise SchemaError(f"{where}: expected a mapping of element to degree")\n',
        "",
    ),
    Mutant(
        "element-labels-may-repeat",
        "io.py",
        '        raise SchemaError(f"{where}: duplicate element labels")\n',
        "        pass\n",
    ),
    Mutant(
        "quantaloid-objects-may-repeat",
        "io.py",
        '        raise SchemaError("quantaloid.objects: duplicate labels")\n',
        "        pass\n",
    ),
]


def patched(source: str, mutant: Mutant) -> str:
    count = source.count(mutant.old)
    if count != 1:
        raise SystemExit(f"{mutant.name}: the patch matches {count} times in {mutant.path}")
    return source.replace(mutant.old, mutant.new)


def run(mutant: Mutant) -> tuple[bool, float]:
    """Whether the tier-1 tests fail on the mutant, and how long they took."""
    with tempfile.TemporaryDirectory(prefix="quantcat-mutant-") as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part, ignore=ignore)
        shutil.copy2(ROOT / "pyproject.toml", copy / "pyproject.toml")
        target = copy / "src" / "quantcat" / mutant.path
        target.write_text(patched(target.read_text(encoding="utf-8"), mutant), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        start = time.perf_counter()
        try:
            result = subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"],
                cwd=copy,
                env=env,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
                timeout=TIMEOUT_S,
            )
            caught = result.returncode != 0
        except subprocess.TimeoutExpired:
            caught = True
        return caught, time.perf_counter() - start


def main(argv: list[str]) -> int:
    if argv == ["--list"]:
        print("\n".join(m.name for m in MUTANTS))
        return 0
    by_name = {m.name: m for m in MUTANTS}
    unknown = [name for name in argv if name not in by_name]
    if unknown:
        print(f"unknown mutant(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    chosen = [by_name[name] for name in argv] if argv else MUTANTS
    for m in chosen:  # check every patch applies before running any
        patched((ROOT / "src" / "quantcat" / m.path).read_text(encoding="utf-8"), m)
    survivors = []
    for m in chosen:
        caught, seconds = run(m)
        print(f"{'caught ' if caught else 'SURVIVED'} {m.name} ({seconds:.1f} s)", flush=True)
        if not caught:
            survivors.append(m.name)
    print(f"{len(chosen) - len(survivors)} of {len(chosen)} mutants caught")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
