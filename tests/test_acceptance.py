"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Every test prints a single `ACCEPTANCE Cnn <name>: PASS/FAIL` line (visible
with `pytest -s` or on failure) and then asserts.  All expected values are
either exact identities or frozen from independent oracles computed inside
this module.
"""

import random
import time
from collections import Counter
from fractions import Fraction
from itertools import product

from conftest import rand_invertible, rand_matrix
from test_bvariety import _old_triple_stabilizer_dim
from uhlenbeck.bvariety import (
    check_btriple,
    commutator_system_solvable,
    component_dimension,
    conjugate_triple,
    direct_sum,
    jordan_triple,
    support,
    support_poly_p,
    triple_stabilizer_dim,
)
from uhlenbeck.calogero import cm_fixed_point_count, joint_centralizer_dim, sample_cm, verify_cm
from uhlenbeck.core import NotNilpotentError, RatPoly, commutant_system, kernel_basis, nilpotent_jordan_type, rank
from uhlenbeck.ic import (
    ic_stalk,
    punctual_hilbert_betti,
    smallness_audit,
    strata,
    uhlenbeck_fixed_point_count,
    uhlenbeck_fixed_points,
)
from uhlenbeck.ncalgebra import (
    artin_moduli_determinant,
    dual_graded_dims,
    dual_relation_kernel,
    graded_dim,
    graded_dim_computed,
    relation_kernel,
)
from uhlenbeck.partitions import Partition, partition_count, partitions
from uhlenbeck.quiver import (
    alpha,
    check_relations,
    decide_stability_121,
    monad_of_point,
    polarizations,
    relation_tensor_residual,
    sample_relation_rep,
    slope,
)

T = RatPoly((0, 1))


def report(num: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE C{num:02d} {name}: {status}"
    if detail and not ok:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_c01_ic_stalk_brute_force():
    # independent oracle: enumerate all tuples of partitions per part
    start = time.monotonic()
    bad = []
    for n in range(0, 11):
        for st in strata(n):
            stalk = ic_stalk(n, st.m, st.lam)
            got = Counter({k: int(c) for k, c in enumerate(stalk.poly.coeffs) if c != 0})
            expected = Counter()
            for mus in product(*[partitions(part) for part in st.lam]):
                expected[2 * st.m + sum(2 * mu.length for mu in mus)] += 1
            if got != expected:
                bad.append((n, st.m, st.lam.parts))
    elapsed = time.monotonic() - start
    report(1, "ic-stalk-vs-enumeration", not bad and elapsed < 5.0, f"bad={bad} elapsed={elapsed:.2f}s")


def test_c02_stalk_betti_bridge():
    # the deepest stalk's q^{2k} coefficient against the cells of dimension
    # k - 1 of the punctual Hilbert scheme, counted from torus weights (C14)
    bad = []
    for n in range(1, 31):
        stalk = ic_stalk(n, 0, Partition((n,)))
        cells, zero = _punctual_cells(n, (n + 1,))
        for k in range(1, n + 1):
            if stalk.coefficient(2 * k) != cells[n + 1][k - 1]:
                bad.append((n, k))
        bad += zero
    report(2, "stalk-betti-bridge", not bad, str(bad[:4]))


def test_c03_smallness_audit():
    bad = []
    for n in range(1, 13):
        for row in smallness_audit(n):
            if not row.stratum.is_open and not 2 * row.fiber_bound < row.codim:
                bad.append((n, row.stratum.m, row.stratum.lam.parts))
    report(3, "smallness-strict", not bad, str(bad[:4]))


def test_c04_component_dimensions():
    bad = []
    for k in range(1, 7):
        for lam in partitions(k):
            solved = component_dimension(lam, Fraction(1))
            formula = sum(c * c for c in lam.conjugate().parts)
            if solved.total != k or solved.solution_dim != formula:
                bad.append((lam.parts, solved.total, solved.solution_dim, formula))
    report(4, "component-dimensions", not bad, str(bad[:4]))


def test_c05_jordan_example():
    bad = []
    for tau in (Fraction(1), Fraction(-1), Fraction(3, 7)):
        for k in range(1, 9):
            u = Fraction(2, 3)
            triple = jordan_triple(k, u, tau)
            if not check_btriple(triple).ok:
                bad.append((k, tau, "check"))
            if support(triple).poly != (T - u) ** k:
                bad.append((k, tau, "support"))
    report(5, "jordan-block-triples", not bad, str(bad[:4]))


def test_c06_nilpotency_search():
    rng = random.Random(20240806)
    trials = 10_000
    solvable_non_nilpotent = []
    nilpotent_hits = 0
    for i in range(trials):
        k = rng.randint(1, 4)
        z = rand_matrix(rng, k, k, -3, 3)
        try:
            nilpotent_jordan_type(z)
            nilpotent_hits += 1
            continue
        except NotNilpotentError:
            pass
        if commutator_system_solvable(z, Fraction(1)):
            solvable_non_nilpotent.append(z)
    report(
        6,
        "no-non-nilpotent-solutions",
        not solvable_non_nilpotent,
        f"hits={len(solvable_non_nilpotent)} (nilpotent draws: {nilpotent_hits})",
    )


def _random_valid_triple(rng: random.Random, max_k: int):
    k_total = rng.randint(1, max_k)
    lam = rng.choice(partitions(k_total))
    us = random.Random(rng.randint(0, 10**6)).sample(range(-9, 10), len(lam.parts))
    tau = Fraction(rng.choice([1, 2, -3]), rng.choice([1, 2]))
    pieces = [jordan_triple(p, Fraction(u), tau) for p, u in zip(lam.parts, us)]
    triple = pieces[0]
    for piece in pieces[1:]:
        triple = direct_sum(triple, piece)
    g = rand_invertible(rng, k_total, -2, 2)
    return conjugate_triple(triple, g)


def test_c07_free_action():
    rng = random.Random(77)
    bad = 0
    produced = 0
    while produced < 100:
        triple = _random_valid_triple(rng, 5)
        if not check_btriple(triple).ok:
            continue
        produced += 1
        # the exact route: the kernel of the k^2-column stabilizer system
        exact = _old_triple_stabilizer_dim(triple)
        if exact != 0 or triple_stabilizer_dim(triple) != exact:
            bad += 1
    report(7, "free-action-stabilizers", bad == 0, f"nontrivial={bad}")


def test_c08_support_pencil_p_independence():
    # a proof for every rational p, not a sample: each coefficient of
    # det(tI - Y + p tau Z^2) is a polynomial in p of degree at most rank(Z^2),
    # which is at most 4 here (k <= 6, Z nilpotent), so agreeing at the five
    # p = 0..4 makes it constant
    rng = random.Random(88)
    bad = 0
    produced = 0
    while produced < 100:
        triple = _random_valid_triple(rng, 6)
        if not check_btriple(triple).ok:
            continue
        produced += 1
        assert rank(triple.Z.power(2)) <= 4
        polys = {support_poly_p(triple, p).coeffs for p in range(5)}
        if len(polys) != 1 or next(iter(polys)) != support(triple).poly.coeffs:
            bad += 1
    report(8, "support-p-independence", bad == 0, f"violations={bad}")


def test_c09_factorization():
    bad = []
    for k1 in range(1, 6):
        for k2 in range(1, 7 - k1):
            for u1, u2 in [(Fraction(0), Fraction(1)), (Fraction(-2), Fraction(3)), (Fraction(1, 2), Fraction(2))]:
                t1 = jordan_triple(k1, u1, Fraction(1))
                t2 = jordan_triple(k2, u2, Fraction(1))
                s = direct_sum(t1, t2)
                if not check_btriple(s).ok:
                    bad.append((k1, k2, u1, u2, "cyclic"))
                    continue
                if support(s).poly != support(t1).poly * support(t2).poly:
                    bad.append((k1, k2, u1, u2, "support"))
    same = direct_sum(jordan_triple(1, Fraction(4), Fraction(1)), jordan_triple(1, Fraction(4), Fraction(1)))
    if check_btriple(same).cyclic_ok:
        bad.append(("equal-blocks", "unexpectedly cyclic"))
    report(9, "factorization", not bad, str(bad[:4]))


def test_c10_quiver_foundations():
    bad = []
    # pairings vanish on the grid
    for r in range(1, 5):
        for d in range(0, r):
            for n in range(d * (d + 1) // 2, 9):
                theta0, theta1 = polarizations(r, d, n)
                a = alpha(r, d, n)
                if slope(theta0, a) != 0 or slope(theta1, a) != 0:
                    bad.append(("pairing", r, d, n))
    # relation identities match kernel membership on valid and invalid samples
    rng = random.Random(1010)
    for trial in range(20):
        tau = Fraction(rng.choice([1, -2, 3]), rng.choice([1, 5]))
        dim = (rng.randint(1, 2), rng.randint(1, 3), rng.randint(1, 2))
        rep = sample_relation_rep(dim, tau, seed=rng.randint(0, 10**6))
        if rep is None or trial % 2:
            F = {a: rand_matrix(rng, dim[1], dim[0], -2, 2) for a in ("xi", "eta", "zeta")}
            G = {a: rand_matrix(rng, dim[2], dim[1], -2, 2) for a in ("xi", "eta", "zeta")}
            from uhlenbeck.quiver import QuiverRep

            rep = QuiverRep(dim, F, G, tau)
        kernel = dual_relation_kernel(tau)
        membership = all(relation_tensor_residual(rep, kv).is_zero for kv in kernel)
        if membership != check_relations(rep).ok:
            bad.append(("membership", dim, str(tau)))
    # the point representation is valid and theta0-stable for 0 <= d < r
    for h in [(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)), (Fraction(2), Fraction(-3))]:
        rep = monad_of_point(h, Fraction(1))
        if not check_relations(rep).ok:
            bad.append(("monad-relations", h))
        for r in range(1, 4):
            for d in range(0, r):
                theta0, _ = polarizations(r, d, max(1, d * (d + 1) // 2))
                verdict, _ = decide_stability_121(rep, theta0)
                if verdict != "stable":
                    bad.append(("monad-stability", h, r, d, verdict))
    report(10, "quiver-foundations", not bad, str(bad[:4]))


def test_c11_pencil_determinant():
    det = artin_moduli_determinant()
    from uhlenbeck.ncalgebra import MPoly

    w, tau = MPoly.var("w"), MPoly.var("tau")
    expected = -(tau * w * w * w)
    ok = det.terms == expected.terms
    report(11, "pencil-determinant", ok, f"det={det}")


def test_c12_algebra_dimensions():
    bad = []
    for tau in (Fraction(0), Fraction(1), Fraction(-2)):
        for i in range(0, 11):
            want = (i + 1) * (i + 2) // 2
            if graded_dim(i) != want or graded_dim_computed(i, tau) != want:
                bad.append(("graded", str(tau), i))
        if dual_graded_dims(tau, max_degree=4) != (1, 3, 3, 1, 0):
            bad.append(("dual", str(tau)))
        if len(relation_kernel(tau)) != 3 or len(dual_relation_kernel(tau)) != 6:
            bad.append(("kernels", str(tau)))
    report(12, "algebra-dimensions", not bad, str(bad[:4]))


def test_c13_calogero_moser():
    bad = []
    for n in range(1, 7):
        pair = sample_cm(n, list(range(n)), Fraction(2))
        result = verify_cm(pair.X, pair.Y, Fraction(2))
        if not result.member:
            bad.append(("member", n))
        # the exact route: the kernel of the n^2-column commutant system
        exact = kernel_basis(commutant_system([pair.X, pair.Y])).rows
        if exact != 1 or joint_centralizer_dim(pair.X, pair.Y) != exact:
            bad.append(("centralizer", n))
    for n in range(0, 11):
        if cm_fixed_point_count(n) != len(partitions(n)):
            bad.append(("cm-count", n))
        points = uhlenbeck_fixed_points(n)
        formula = sum(partition_count(m) * (n - m + 1) for m in range(n + 1))
        if len(points) != formula or uhlenbeck_fixed_point_count(n) != formula:
            bad.append(("uhlenbeck-count", n))
        if sum(1 for p in points if p.attracting) != 1:
            bad.append(("attracting", n))
    report(13, "calogero-moser-fixed-points", not bad, str(bad[:4]))


def _tangent_weights(arm_legs: list[tuple[int, int]], N: int) -> list[int]:
    """Weights of the tangent space to Hilb^n(C^2) at the monomial ideal I_lam
    under the subgroup (1, N): (l(s)+1, -a(s)) and (-l(s), a(s)+1) for each
    box s of lam, given its arm a(s) and leg l(s)."""
    return [w for a, l in arm_legs for w in ((l + 1) - N * a, -l + N * (a + 1))]


def _punctual_cells(n: int, Ns: tuple[int, ...]) -> tuple[dict[int, Counter], list[tuple]]:
    """For each N in Ns, the cells of Hilb^n_0(C^2) counted by dimension, one
    per monomial ideal I_lam, under the subgroup (1, N); and each
    ("zero-weight", n, N, lam) where a tangent weight vanishes.

    Ellingsrud-Stromme: for N > n no weight vanishes, and the cell of I_lam
    in the punctual Hilbert scheme has dimension (positive weights) - (n + 1).
    """
    cells, zero = {N: Counter() for N in Ns}, []
    for lam in partitions(n):
        conj = lam.conjugate().parts
        arm_legs = [(row - j - 1, conj[j] - i - 1) for i, row in enumerate(lam.parts) for j in range(row)]
        for N, counts in cells.items():
            weights = _tangent_weights(arm_legs, N)
            if 0 in weights:
                zero.append(("zero-weight", n, N, lam.parts))
            counts[sum(w > 0 for w in weights) - (n + 1)] += 1
    return cells, zero


def test_c14_punctual_hilbert_cells_from_torus_weights():
    bad = []
    for n in range(1, 31):
        cells, zero = _punctual_cells(n, (n + 1, 2 * n + 3, 5 * n))
        bad += zero
        # the largest cell is the fiber bound n - 1 that C03 reads over the
        # stratum (0, (n)); the audit walks every stratum, so up to C03's n = 12
        if n <= 12:
            deepest = [r for r in smallness_audit(n) if r.stratum.m == 0 and r.stratum.lam.parts == (n,)]
            if [r.fiber_bound for r in deepest] != [n - 1]:
                bad.append(("fiber-bound", n))
        betti = punctual_hilbert_betti(n)
        for N, counts in cells.items():
            if sorted(counts) != list(range(n)) or [counts[d] for d in range(n)] != betti:
                bad.append(("betti", n, N))
            if sum(counts.values()) != partition_count(n):
                bad.append(("cell-count", n, N))
            if max(counts) != n - 1:
                bad.append(("largest-cell", n, N, max(counts)))
    report(14, "punctual-hilbert-cells", not bad, str(bad[:4]))
