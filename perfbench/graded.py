"""Independent brute-force concept counts for small graded contexts.

Written from the definitions, sharing no code with ``quantcat``: it steers
the sizes of graded inputs and checks the counts the CLI prints.

Elements of the quantale are integers: chain elements 0..n-1 in order, and
Boolean-algebra elements as bitmasks.  The quantaloid of a divisible
quantale has the elements as objects, hom(X, Y) = {a <= X ∧ Y}, and
composition of a: X -> Y then b: Y -> Z given by b & (Y ↘ a), where
Y ↘ a is the largest c with Y & c <= a.
"""

from __future__ import annotations

import itertools
from functools import lru_cache


class Quantale:
    def __init__(self, kind: str, size: int):
        self.kind = kind  # "lukasiewicz", "godel" or "boolean-algebra"
        self.n = size
        self.top = size - 1

    def leq(self, a: int, b: int) -> bool:
        if self.kind == "boolean-algebra":
            return a & ~b == 0
        return a <= b

    def meet(self, a: int, b: int) -> int:
        return a & b if self.kind == "boolean-algebra" else min(a, b)

    def join(self, a: int, b: int) -> int:
        return a | b if self.kind == "boolean-algebra" else max(a, b)

    def tensor(self, a: int, b: int) -> int:
        if self.kind == "lukasiewicz":
            return max(0, a + b - self.top)
        return self.meet(a, b)

    def below(self, bound: int) -> list[int]:
        return [a for a in range(self.n) if self.leq(a, bound)]

    def largest(self, candidates, ok) -> int:
        """Join of the candidates satisfying ok (the maximum: the solution
        sets below are closed under joins)."""
        acc = 0
        for c in candidates:
            if ok(c):
                acc = self.join(acc, c)
        return acc


class DivisibleQuantaloid:
    def __init__(self, q: Quantale):
        self.q = q
        self.compose = lru_cache(maxsize=None)(self._compose)
        self.left = lru_cache(maxsize=None)(self._left)
        self.right = lru_cache(maxsize=None)(self._right)

    def hom(self, x: int, y: int) -> list[int]:
        return self.q.below(self.q.meet(x, y))

    def _ldiv(self, y: int, a: int) -> int:
        q = self.q
        return q.largest(range(q.n), lambda c: q.leq(q.tensor(y, c), a))

    def _compose(self, y: int, b: int, a: int) -> int:
        """a: X -> y followed by b: y -> Z."""
        return self.q.tensor(b, self._ldiv(y, a))

    def _left(self, x: int, y: int, z: int, h: int, f: int) -> int:
        """Largest g: y -> z with g∘f <= h, for f: x -> y and h: x -> z."""
        q = self.q
        return q.largest(self.hom(y, z), lambda g: q.leq(self.compose(y, g, f), h))

    def _right(self, x: int, y: int, z: int, g: int, h: int) -> int:
        """Largest f: x -> y with g∘f <= h, for g: y -> z and h: x -> z."""
        q = self.q
        return q.largest(self.hom(x, y), lambda f: q.leq(self.compose(y, g, f), h))


def concept_types(q: Quantale, obj_types, att_types, incidence, mode: str) -> list[int]:
    """The type of every concept's extent, by scanning all weights.

    incidence[i][j] is the degree of object i and attribute j.  Isbell
    concepts are the weights mu fixed by down(up(mu)); Kan concepts those
    fixed by star(lower(mu)).
    """
    Q = DivisibleQuantaloid(q)
    xs, ys = range(len(obj_types)), range(len(att_types))
    tx, ty, phi = obj_types, att_types, incidence
    types = []
    for t in range(q.n):
        choices = [Q.hom(tx[x], t) for x in xs]
        for mu in itertools.product(*choices):
            if mode == "isbell":
                # up: largest lam(y): t -> ty with lam(y)∘mu(x) <= phi(x, y)
                lam = [
                    _meet_all(q, q.meet(t, ty[y]), (Q.left(tx[x], t, ty[y], phi[x][y], mu[x]) for x in xs))
                    for y in ys
                ]
                # down: largest nu(x): tx -> t with lam(y)∘nu(x) <= phi(x, y)
                back = tuple(
                    _meet_all(q, q.meet(tx[x], t), (Q.right(tx[x], t, ty[y], lam[y], phi[x][y]) for y in ys))
                    for x in xs
                )
            else:
                # lower: largest nu(y): ty -> t with nu(y)∘phi(x, y) <= mu(x)
                nu = [
                    _meet_all(q, q.meet(ty[y], t), (Q.left(tx[x], ty[y], t, mu[x], phi[x][y]) for x in xs))
                    for y in ys
                ]
                # star: join over y of nu(y)∘phi(x, y)
                back = tuple(
                    _join_all(q, (Q.compose(ty[y], nu[y], phi[x][y]) for y in ys)) for x in xs
                )
            if back == mu:
                types.append(t)
    return types


def _meet_all(q: Quantale, top: int, items) -> int:
    acc = top
    for a in items:
        acc = q.meet(acc, a)
    return acc


def _join_all(q: Quantale, items) -> int:
    acc = 0
    for a in items:
        acc = q.join(acc, a)
    return acc


def certificate_candidates(q: Quantale, types: list[int], cap: int) -> tuple[int, bool]:
    """How many weights the CLI's completeness certificate scans on a lattice
    whose concepts have these types, and whether it scans them all.

    The certificate takes the quantaloid objects in order and scans every
    weight of each, until one object's candidate count exceeds the cap;
    then it gives up.  This counts the contravariant scan, which runs
    first; the covariant one, of equal size, runs only if it completes.
    """
    Q = DivisibleQuantaloid(q)
    total = 0
    for t in range(q.n):
        bound = 1
        for c in types:
            bound *= len(Q.hom(c, t))
        if bound > cap:
            return total, False
        total += bound
    return total, True
