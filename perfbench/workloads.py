"""The four benchmark workloads: inputs from a seed, timed items, oracles.

Each in-process workload has

* ``build(U, rng)``: the seeded input pool, built once per set-up,
* ``run(U, item)``: the timed part of one item (calls into ``uhlenbeck``),
* ``check(item, result)``: an oracle that uses only ``oracle`` arithmetic and
  facts known from how the item was constructed,
* ``corrupt(item, result)``: deliberately wrong results that ``check`` must
  reject (the self-test run before every timed phase),
* ``describe(item)``: plain data for the input fingerprint,
* ``kind(item)``: the item's shape, for per-kind latencies in the detail,
* ``cycle``: the length of the fixed shape schedule (the pool is whole
  cycles, and the timed phase stops only at a cycle boundary),
* ``tail_pct``: the percentile reported as ``item_tail_ms``.

``U`` is a namespace holding the imported ``uhlenbeck`` modules.
"""

from __future__ import annotations

import random
from fractions import Fraction

import oracle


def _fr(x) -> str:
    return str(Fraction(x))


def _mat_desc(m) -> list:
    return [m.rows, m.cols, [_fr(x) for x in m.entries]]


def _partitions(n: int, cap: int | None = None):
    """Partitions of n in decreasing lexicographic order (benchmark-local)."""
    cap = n if cap is None else cap
    if n == 0:
        return [()]
    out = []
    for first in range(min(n, cap), 0, -1):
        out.extend((first,) + rest for rest in _partitions(n - first, first))
    return out


def _rand_invertible(rng: random.Random, k: int, lo: int, hi: int) -> list[list[int]]:
    while True:
        g = [[rng.randint(lo, hi) for _ in range(k)] for _ in range(k)]
        if oracle.rank(g) == k:
            return g


# ---------------------------------------------------------------------------
# verify-points: seeded valid (Y, Z, v) triples and Calogero-Moser pairs


class VerifyPoints:
    """Triples of size k = 1..5 interleaved with Calogero-Moser pairs, n = 2..6.

    A cycle holds one triple of each size, one pair of each size and a second
    pair of size 4, so the median falls inside one latency group instead of
    between two.  The shapes repeat identically for every seed (partitions of
    k are taken in turn); the seed draws eigenvalues, tau and the
    conjugating matrix.
    """

    name = "verify-points"
    tail_pct = 95
    cycle = 11
    cycles = 49  # seven turns of the seven partitions of 5
    pencil_degrees = range(5)
    cm_taus = (Fraction(1), Fraction(2), Fraction(-3, 2))

    def build(self, U, rng):
        bv = U.bvariety
        items = []
        for c in range(self.cycles):
            for k in range(1, 6):
                shapes = _partitions(k)
                lam = shapes[c % len(shapes)]
                us = rng.sample(range(-9, 10), len(lam))
                tau = Fraction(rng.choice([1, 2, -3]), rng.choice([1, 2]))
                pieces = [bv.jordan_triple(p, Fraction(u), tau) for p, u in zip(lam, us)]
                triple = pieces[0]
                for piece in pieces[1:]:
                    triple = bv.direct_sum(triple, piece)
                g = U.core.RatMatrix.from_rows(_rand_invertible(rng, k, -2, 2))
                triple = bv.conjugate_triple(triple, g)
                items.append(("triple", triple, oracle.linear_power_product(zip(us, lam))))
                items.append(self._pair(rng, k + 1, c + k))
            items.append(self._pair(rng, 4, c))
        return items

    def _pair(self, rng, n, turn):
        spectrum = tuple(Fraction(s) for s in rng.sample(range(-9, 10), n))
        return ("cm", spectrum, self.cm_taus[turn % 3])

    def run(self, U, item):
        if item[0] == "triple":
            bv, t = U.bvariety, item[1]
            ok = bv.check_btriple(t).ok
            support = bv.support(t).poly.coeffs
            pencil = [bv.support_poly_p(t, p).coeffs for p in self.pencil_degrees]
            return ok, support, pencil, bv.triple_stabilizer_dim(t)
        _, spectrum, tau = item
        cm = U.calogero
        pair = cm.sample_cm(len(spectrum), spectrum, tau)
        verdict = cm.verify_cm(pair.X, pair.Y, tau)
        return pair, verdict.member, tuple(verdict.signs), cm.joint_centralizer_dim(pair.X, pair.Y)

    def check(self, item, result) -> bool:
        if item[0] == "triple":
            ok, support, pencil, stabilizer = result
            expected = item[2]
            return ok is True and tuple(support) == expected and all(tuple(p) == expected for p in pencil) and stabilizer == 0
        _, spectrum, tau = item
        pair, member, signs, centralizer = result
        n = len(spectrum)
        expected_y = [[Fraction(0) if i == j else tau / (spectrum[i] - spectrum[j]) for j in range(n)] for i in range(n)]
        diag = [[spectrum[i] if i == j else Fraction(0) for j in range(n)] for i in range(n)]
        pair_ok = oracle.rows_of(pair.X) == diag and oracle.rows_of(pair.Y) == expected_y
        return pair_ok and member is True and "minus" in signs and centralizer == 1

    def corrupt(self, item, result):
        if item[0] == "triple":
            ok, support, pencil, stabilizer = result
            bumped = tuple(support[:-1]) + (support[-1] + 1,)
            return [
                (False, support, pencil, stabilizer),
                (ok, bumped, pencil, stabilizer),
                (ok, support, pencil[:-1] + [bumped], stabilizer),
                (ok, support, pencil, 1),
            ]
        pair, member, signs, centralizer = result
        return [(pair, False, signs, centralizer), (pair, member, ("plus",), centralizer), (pair, member, signs, 2)]

    def describe(self, item):
        if item[0] == "triple":
            t = item[1]
            return ["triple", _mat_desc(t.Y), _mat_desc(t.Z), [_fr(x) for x in t.v], _fr(t.tau)]
        return ["cm", [_fr(s) for s in item[1]], _fr(item[2])]

    def kind(self, item) -> str:
        return f"triple k={item[1].size}" if item[0] == "triple" else f"cm n={len(item[1])}"


# ---------------------------------------------------------------------------
# nilpotent-scan: many tiny random matrices plus conjugated nilpotents


class NilpotentScan:
    """Nine random matrices and one conjugated nilpotent per cycle of ten.

    Item time depends almost only on the size k (about 0.05, 0.2, 0.65 and
    1.8 ms at k = 1..4), so the sizes of the random matrices follow a fixed
    schedule that puts three of the nine at k = 3: the median then falls
    inside the k = 3 group instead of on the edge between two groups, where
    it would jump with the seed's share of small matrices.
    """

    name = "nilpotent-scan"
    tail_pct = 99
    cycle = 10
    pool = 2000
    conj_every = 10  # one conjugated nilpotent per ten items
    random_k = (1, 2, 3, 4, 1, 2, 3, 4, 3)

    def build(self, U, rng):
        shapes = [lam for k in range(1, 6) for lam in _partitions(k)]
        items = []
        for i in range(self.pool):
            if i % self.conj_every == self.conj_every - 1:
                lam = shapes[(i // self.conj_every) % len(shapes)]
                k = sum(lam)
                g = _rand_invertible(rng, k, -2, 2)
                z = oracle.matmul(oracle.matmul(g, oracle.jordan_block_matrix(lam)), oracle.inverse(g))
                items.append(("conj", U.core.RatMatrix.from_rows(z), lam, z))
            else:
                k = self.random_k[i % self.conj_every]
                z = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(k)]
                nilpotent = oracle.int_power_is_zero(z)
                lam = oracle.jordan_type_of_nilpotent(z) if nilpotent else None
                items.append(("random", U.core.RatMatrix.from_rows(z), lam, z))
        return items

    def run(self, U, item):
        kind, z = item[0], item[1]
        if kind == "conj":
            lam = U.core.nilpotent_jordan_type(z).parts
            y, hom = U.bvariety.solve_Y_space(z, 1)
            return lam, y, hom
        try:
            return "nilpotent", U.core.nilpotent_jordan_type(z).parts
        except U.core.NotNilpotentError:
            return "solvable", U.bvariety.commutator_system_solvable(z, 1)

    def check(self, item, result) -> bool:
        kind, _, lam, z = item
        if kind == "conj":
            got, y, hom = result
            if tuple(got) != lam or len(hom) != oracle.centralizer_dim_of_nilpotent(lam):
                return False
            zz = [[Fraction(x) for x in row] for row in z]
            z3 = oracle.matmul(oracle.matmul(zz, zz), zz)
            if oracle.commutator(oracle.rows_of(y), zz) != z3:
                return False
            if any(not oracle.is_zero(oracle.commutator(oracle.rows_of(h), zz)) for h in hom):
                return False
            return oracle.rank([list(h.entries) for h in hom]) == len(hom) if hom else True
        if lam is not None:
            return result == ("nilpotent", lam)
        return result == ("solvable", False)

    def corrupt(self, item, result):
        kind, _, lam, _ = item
        if kind == "conj":
            got, y, hom = result
            return [(tuple(got) + (1,), y, hom), (got, y, hom[:-1] if hom else [y])]
        if lam is not None:
            return [("nilpotent", lam + (1,)), ("solvable", False)]
        return [("solvable", True), ("nilpotent", (len(item[3]),))]

    def describe(self, item):
        return [item[0], _mat_desc(item[1])]

    def kind(self, item) -> str:
        return item[0]


# ---------------------------------------------------------------------------
# quiver-search: destabilizer searches and exact (1,2,1) decisions


class QuiverSearch:
    """Eight destabilizer searches and two exact decisions per cycle.

    Sorted by time, a cycle is two decisions, then two searches at each of
    (1,4,1), (1,3,1), (2,5,1) and (2,5,2), in that order.  With ten items
    the median falls in the middle of the (1,3,1) group and the tail
    percentile in the middle of the (2,5,2) group, not on the edge between
    two groups.
    """

    name = "quiver-search"
    tail_pct = 90
    cycle = 10  # eight searches and two exact decisions
    cycles = 10
    budget = 2
    search_rdn = ((1, 0, 1), (2, 0, 1), (2, 1, 2), (1, 0, 2))
    taus = (Fraction(1), Fraction(3, 7))
    decisions_per_cycle = 2
    # (r, d) whose theta0 pairs to zero on alpha(0, 0, 1) = (1, 2, 1)
    point_rd = ((1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2))

    def build(self, U, rng):
        qv = U.quiver
        items = []
        for _ in range(self.cycles):
            for rdn in self.search_rdn:
                dim = qv.alpha(*rdn)
                thetas = qv.polarizations(*rdn)
                for tau in self.taus:
                    rep = None
                    while rep is None:
                        rep = qv.sample_relation_rep(dim, tau, seed=rng.randrange(10**9))
                    items.append(("search", rep, thetas, rng.randrange(10**9)))
            for _ in range(self.decisions_per_cycle):
                h = (0, 0)
                while h == (0, 0):
                    h = (rng.randint(-3, 3), rng.randint(-3, 3))
                r, d = rng.choice(self.point_rd)
                theta0, _ = qv.polarizations(r, d, max(1, d * (d + 1) // 2))
                items.append(("point", qv.monad_of_point(h, rng.choice(self.taus)), theta0, h))
        return items

    def run(self, U, item):
        qv = U.quiver
        rep = item[1]
        relations_ok = qv.check_relations(rep).ok
        if item[0] == "point":
            verdict, _ = qv.decide_stability_121(rep, item[2])
            return relations_ok, verdict
        theta0, theta1 = item[2]
        seed = item[3]
        witnesses = (
            qv.find_destabilizer(rep, theta0, theta1, budget=self.budget, seed=seed),
            qv.find_destabilizer(rep, theta1, theta0, budget=self.budget, seed=seed),
        )
        return relations_ok, witnesses

    def check(self, item, result) -> bool:
        relations_ok, out = result
        if relations_ok is not True:
            return False
        if item[0] == "point":
            return out == "stable"
        theta0, theta1 = item[2]
        rep = item[1]
        return all(
            w is None or self._witness_ok(rep, w, thetas)
            for w, thetas in zip(out, ((theta0, theta1), (theta1, theta0)))
        )

    @staticmethod
    def _witness_ok(rep, w, thetas) -> bool:
        """Closed under F and G, proper, nonzero, slope tuple below zero."""
        bases = [[list(v) for v in s.basis] for s in w.subspaces]
        dims = tuple(oracle.rank(b) if b else 0 for b in bases)
        if dims != tuple(w.dim) or dims == (0, 0, 0) or dims == tuple(rep.dim):
            return False
        for maps, src, dst in ((rep.F, 0, 1), (rep.G, 1, 2)):
            for m in maps.values():
                rows = oracle.rows_of(m)
                for v in bases[src]:
                    if not oracle.in_span(bases[dst], oracle.apply(rows, v)):
                        return False
        slopes = tuple(sum((Fraction(t) * d for t, d in zip(theta.theta, dims)), Fraction(0)) for theta in thetas)
        return tuple(w.slopes) == slopes and slopes < (Fraction(0),) * len(slopes)

    def corrupt(self, item, result):
        relations_ok, out = result
        if item[0] == "point":
            return [(relations_ok, "unstable"), (False, out)]
        bad = [(False, out)]
        witness = next((w for w in out if w is not None), None)
        if witness is not None:
            forged = type(witness)(witness.dim, tuple(-s for s in witness.slopes), witness.subspaces)
            bad.append((relations_ok, (forged, forged)))
        return bad

    def unknowns(self, item, result) -> tuple[int, int]:
        """(searches without a witness, searches) for one item."""
        if item[0] != "search":
            return 0, 0
        return sum(w is None for w in result[1]), len(result[1])

    def describe(self, item):
        rep = item[1]
        mats = [_mat_desc(rep.F[a]) for a in ("xi", "eta", "zeta")] + [_mat_desc(rep.G[a]) for a in ("xi", "eta", "zeta")]
        if item[0] == "point":
            return ["point", list(rep.dim), mats, _fr(rep.tau), [_fr(t) for t in item[2].theta]]
        return ["search", list(rep.dim), mats, _fr(rep.tau), item[3]]

    def kind(self, item) -> str:
        return item[0] if item[0] == "point" else f"search{item[1].dim}"


IN_PROCESS = {wl.name: wl for wl in (VerifyPoints(), NilpotentScan(), QuiverSearch())}
