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
        "for tab, i, j in zip(tabs, u, v):",
        "for tab, i, j in zip(tabs[:4] if join else tabs, u, v):",
    ),
    Mutant(
        "contract-meet-folds-4",
        "distributor.py",
        "for tab, i, j in zip(tabs, u, v):",
        "for tab, i, j in zip(tabs if join else tabs[:4], u, v):",
    ),
    Mutant(
        "sliced-walk-reversed",
        "distributor.py",
        "order = up if join else up[::-1]",
        "order = up[::-1] if join else up",
    ),
    Mutant(
        "sliced-or-key-drops-alpha",
        "distributor.py",
        "key = (k, y, alpha)",
        "key = (k, y)",
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
        "if not _is_index(v, Q.homs[(tr, tc)].n):",
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
        "saturate-keeps-8-per-image",
        "completion.py",
        "[_pointwise([p, g], A, t, meet) for p in pool if p.type_idx == t]",
        "[_pointwise([p, g], A, t, meet) for p in pool if p.type_idx == t][:8]",
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
        "assignments-ignore-links",
        "distributor.py",
        "m &= masks[p[j]]",
        "pass",
    ),
    Mutant(
        "assignments-values-descending",
        "distributor.py",
        "values[m] = [(v,) for v in _bits(m)]",
        "values[m] = [(v,) for v in _bits(m)][::-1]",
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
