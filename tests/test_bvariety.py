import random
from fractions import Fraction

import pytest

from conftest import rand_invertible, rand_matrix
from uhlenbeck.bvariety import (
    BTriple,
    check_btriple,
    commutator_system_solvable,
    component_dimension,
    conjugate_triple,
    direct_sum,
    distinct_fiber_probe,
    fiber_probe,
    jordan_nilpotent,
    jordan_triple,
    orbit_dimension,
    solve_commutator_system,
    solve_Y_space,
    support,
    support_poly_p,
    translate,
    triple_stabilizer_dim,
)
from uhlenbeck.core import NotNilpotentError, RatMatrix, RatPoly, char_poly, nilpotent_jordan_type
from uhlenbeck.partitions import Partition, partitions

ONE = Fraction(1)
T = RatPoly.variable("t")


def degenerate_divisor(u, k) -> RatPoly:
    return (T - u) ** k


# ---------------------------------------------------------------------------
# triples and checks


def test_trivial_one_by_one():
    triple = BTriple(RatMatrix.from_rows([[7]]), RatMatrix.zero(1), (ONE,), ONE)
    assert check_btriple(triple).ok
    assert support(triple).poly == T - 7


def test_jordan_triple_valid():
    for k in (1, 2, 3, 5):
        triple = jordan_triple(k, Fraction(2), Fraction(3, 7))
        assert check_btriple(triple).ok


def test_commuting_block_case():
    # Y = 0, Z a 2x2 Jordan block: Z^3 = 0 so the identity reads [Y,Z] = 0
    z = jordan_nilpotent((2,))
    triple = BTriple(RatMatrix.zero(2), z, (ONE, Fraction(0)), ONE)
    assert check_btriple(triple).ok


def test_check_runs_once_per_triple(monkeypatch):
    # the cyclicity test runs exactly once inside each check computation
    import uhlenbeck.bvariety as bvariety

    calls = []
    real = bvariety.krylov_span_dim

    def counting(mats, v):
        calls.append(v)
        return real(mats, v)

    monkeypatch.setattr(bvariety, "krylov_span_dim", counting)
    triples = [jordan_triple(3, Fraction(1), ONE), translate(jordan_triple(2, Fraction(0), ONE), 4)]
    for n, triple in enumerate(triples, start=1):
        assert check_btriple(triple).ok
        support(triple)
        for p in range(5):
            support_poly_p(triple, p)
        assert len(calls) == n


def test_check_flags_failures():
    z = jordan_nilpotent((2,))
    bad_comm = BTriple(RatMatrix.from_rows([[0, 1], [0, 0]]), z, (ONE, Fraction(0)), ONE)
    report = check_btriple(bad_comm)
    assert not report.ok and not report.commutator_ok

    non_nilp = BTriple(RatMatrix.zero(2), RatMatrix.identity(2), (ONE, ONE), ONE)
    report = check_btriple(non_nilp)
    assert not report.nilpotent_ok

    non_cyclic = BTriple(RatMatrix.zero(2), RatMatrix.zero(2), (ONE, Fraction(0)), ONE)
    report = check_btriple(non_cyclic)
    assert report.commutator_ok and report.nilpotent_ok and not report.cyclic_ok


def test_jordan_triple_support_and_type():
    triple = jordan_triple(4, Fraction(5), ONE)
    assert support(triple).poly == degenerate_divisor(Fraction(5), 4)
    assert nilpotent_jordan_type(triple.Z) == Partition((4,))
    k1 = jordan_triple(1, Fraction(-2), ONE)
    assert k1.Y == RatMatrix.from_rows([[-2]]) and k1.Z == RatMatrix.zero(1)


def test_conjugation_invariance():
    rng = random.Random(601)
    triple = jordan_triple(4, Fraction(2), Fraction(3))
    for _ in range(5):
        g = rand_invertible(rng, 4)
        moved = conjugate_triple(triple, g)
        assert check_btriple(moved).ok
        assert support(moved).poly == support(triple).poly


# ---------------------------------------------------------------------------
# Y-solution spaces


def test_solve_Y_zero_matrix():
    y0, hom = solve_Y_space(RatMatrix.zero(3), ONE)
    assert y0.is_zero and len(hom) == 9


def test_solve_Y_j2():
    # Z^3 = 0, so the system is the plain commutant of the block
    _, hom = solve_Y_space(jordan_nilpotent((2,)), ONE)
    assert len(hom) == 2


def test_solve_Y_regular_block():
    y0, hom = solve_Y_space(jordan_nilpotent((4,)), ONE)
    assert len(hom) == 4
    z = jordan_nilpotent((4,))
    assert y0.commutator(z) == z.power(3)


def test_solve_Y_rejects_non_nilpotent():
    with pytest.raises(NotNilpotentError):
        solve_Y_space(RatMatrix.identity(2), ONE)


def test_solution_dim_matches_centralizer_formula():
    # exact Sylvester solve against sum of squared conjugate parts
    for k in range(1, 7):
        for lam in partitions(k):
            _, hom = solve_Y_space(jordan_nilpotent(lam), Fraction(2, 3))
            assert len(hom) == sum(c * c for c in lam.conjugate().parts)


def test_component_dimensions():
    for k in range(1, 7):
        for lam in partitions(k):
            report = component_dimension(lam, ONE)
            assert report.total == k
    rep21 = component_dimension(Partition((2, 1)), ONE)
    assert (rep21.orbit_dim, rep21.solution_dim) == (4, 5)
    repk = component_dimension(Partition((5,)), ONE)
    assert repk.total == 5
    ones = component_dimension(Partition((1, 1, 1)), ONE)
    assert (ones.orbit_dim, ones.solution_dim) == (0, 9)


def test_orbit_dimension():
    assert orbit_dimension(Partition((2, 1))) == 4
    assert orbit_dimension(Partition((3,))) == 6
    assert orbit_dimension(Partition((1, 1, 1))) == 0


def test_solution_space_members_keep_nilpotency_traces():
    # random elements of the affine Y-solution set keep Z nilpotent with all
    # the trace obstructions vanishing
    rng = random.Random(605)
    for lam in [Partition((3,)), Partition((2, 2)), Partition((4, 1))]:
        k = lam.size
        z = jordan_nilpotent(lam)
        y0, hom = solve_Y_space(z, Fraction(2))
        for _ in range(3):
            y = y0
            for h in hom:
                y = y + h.scale(Fraction(rng.randint(-2, 2)))
            assert y.commutator(z) == z.power(3).scale(Fraction(2))
            assert z.power(k).is_zero
            assert all(z.power(j).trace() == 0 for j in range(3, k + 3))


def test_non_nilpotent_solvability_search():
    # no non-nilpotent Z with small integer entries admits a solution
    rng = random.Random(602)
    found = 0
    for _ in range(300):
        k = rng.randint(2, 4)
        z = rand_matrix(rng, k, k, -2, 2)
        try:
            nilpotent_jordan_type(z)
            continue  # nilpotent: solvable by construction, skip
        except NotNilpotentError:
            pass
        fast = commutator_system_solvable(z, ONE)
        slow = solve_commutator_system(z, ONE) is not None
        assert fast == slow  # certificate must agree with the full solve
        if fast:
            found += 1
    assert found == 0


# ---------------------------------------------------------------------------
# supports and pencils


def test_support_direct_sum():
    s = direct_sum(jordan_triple(2, Fraction(0), ONE), jordan_triple(1, Fraction(5), ONE))
    assert check_btriple(s).ok
    assert support(s).poly == T**2 * (T - 5)
    assert [(str(f), m) for f, m in support(s).factors] == [("t-5", 1), ("t", 2)]


def test_direct_sum_requires_matching_tau():
    with pytest.raises(ValueError):
        direct_sum(jordan_triple(1, Fraction(0), ONE), jordan_triple(1, Fraction(1), Fraction(2)))


def test_direct_sum_same_support_not_cyclic():
    s = direct_sum(jordan_triple(1, Fraction(0), ONE), jordan_triple(1, Fraction(0), ONE))
    report = check_btriple(s)
    assert report.commutator_ok and report.nilpotent_ok and not report.cyclic_ok


def test_direct_sum_with_empty_triple():
    empty = BTriple(RatMatrix(0, 0, ()), RatMatrix(0, 0, ()), (), ONE)
    t = jordan_triple(3, Fraction(1), ONE)
    s = direct_sum(t, empty)
    assert s.Y == t.Y and s.Z == t.Z and s.v == t.v


def test_support_pencil_no_correction_at_zero():
    triple = jordan_triple(3, Fraction(2), ONE)
    assert support_poly_p(triple, 0) == char_poly(triple.Y)


def test_support_pencil_k2():
    triple = jordan_triple(2, Fraction(3), Fraction(5))
    for p in range(4):
        assert support_poly_p(triple, p) == degenerate_divisor(Fraction(3), 2)


def test_support_pencil_p_independent_k4():
    triple = jordan_triple(4, Fraction(-1, 2), Fraction(2, 3))
    polys = {support_poly_p(triple, p).coeffs for p in range(4)}
    assert len(polys) == 1


def test_translate():
    triple = jordan_triple(3, Fraction(1), ONE)
    assert translate(triple, Fraction(0)) == triple
    shifted = translate(triple, Fraction(4))
    assert support(shifted).poly == degenerate_divisor(Fraction(5), 3)
    assert translate(translate(triple, Fraction(2)), Fraction(-2)) == triple


def test_translate_equivariance_general():
    rng = random.Random(603)
    s = direct_sum(jordan_triple(2, Fraction(0), ONE), jordan_triple(2, Fraction(3), ONE))
    c = Fraction(rng.randint(-4, 4))
    shift = RatPoly([-c, 1])
    assert support(translate(s, c)).poly == support(s).poly.compose(shift)


# ---------------------------------------------------------------------------
# free action


def test_stabilizer_trivial_for_valid_triples():
    rng = random.Random(604)
    for _ in range(20):
        k_total = rng.randint(1, 5)
        lam = rng.choice(partitions(k_total))
        us = random.Random(rng.randint(0, 10**6)).sample(range(-6, 7), len(lam.parts))
        pieces = [jordan_triple(p, Fraction(u), Fraction(2)) for p, u in zip(lam.parts, us)]
        triple = pieces[0]
        for piece in pieces[1:]:
            triple = direct_sum(triple, piece)
        if not check_btriple(triple).ok:
            continue
        g = rand_invertible(rng, k_total)
        assert triple_stabilizer_dim(conjugate_triple(triple, g)) == 0


# ---------------------------------------------------------------------------
# fiber probes


def test_fiber_probe_point():
    probe = fiber_probe(Partition((1,)), Fraction(2), ONE)
    assert probe.measured == 0 and probe.upper_bound == 0


def test_fiber_probe_two_block():
    probe = fiber_probe(Partition((2,)), Fraction(1), ONE, samples=6, seed=3)
    assert probe.cyclic_found
    assert probe.measured is not None and probe.measured <= probe.upper_bound == 1
    assert probe.stratum_dim == 1


def test_fiber_probe_respects_bound():
    for lam in [Partition((3,)), Partition((2, 1)), Partition((1, 1)), Partition((2, 2))]:
        probe = fiber_probe(lam, Fraction(0), Fraction(2), samples=5, seed=1)
        assert probe.measured is not None
        assert probe.measured <= probe.upper_bound


def test_fiber_probe_two_one_measures_one():
    # the depth-major stratum of the (2,1) component is three-dimensional and
    # pushes the measured fiber dimension over the triple point up to 1
    probe = fiber_probe(Partition((2, 1)), Fraction(1), ONE, samples=6, seed=3)
    assert probe.stratum_dim == 3
    assert probe.measured == 1


def test_depth_major_presentation_keeps_jordan_type():
    from uhlenbeck.bvariety import depth_major_nilpotent

    for k in range(1, 7):
        for lam in partitions(k):
            assert nilpotent_jordan_type(depth_major_nilpotent(lam)) == lam


def test_fiber_probe_regular_block_measures_k_minus_one():
    for k in (2, 3, 4):
        probe = fiber_probe(Partition((k,)), Fraction(1), ONE, samples=6, seed=2)
        assert probe.measured == k - 1


def test_distinct_support_fiber_is_point():
    probe = distinct_fiber_probe([0, 1, 3], ONE, samples=5, seed=4)
    assert probe.cyclic_found and probe.measured == 0
