import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import pytest

from conftest import kernel_vectors, rand_invertible, rand_matrix, solution_vectors
from test_core import (
    PRODUCT_KINDS,
    _old_commutant_system,
    _old_commutator,
    _old_is_zero,
    _old_kernel_basis,
    _old_scale,
    _old_solve_linear,
    _old_sub,
    _product_input,
    _random_factored_poly,
    assert_pinned,
    assert_same_read,
)
from uhlenbeck import bvariety
from uhlenbeck.bvariety import (
    _require_valid,
    _stratum_image_dim,
    _triangular_stratum,
    BTriple,
    FiberProbe,
    SupportDivisor,
    check_btriple,
    commutator_system_solvable,
    component_dimension,
    conjugate_triple,
    depth_major_nilpotent,
    direct_sum,
    distinct_fiber_probe,
    fiber_probe,
    jordan_nilpotent,
    jordan_triple,
    orbit_dimension,
    pair_centralizer_basis,
    solve_commutator_system,
    solve_Y_space,
    support,
    support_poly_p,
    translate,
    triple_stabilizer_dim,
)
from uhlenbeck.core import (
    NotNilpotentError,
    RatMatrix,
    RatPoly,
    Subspace,
    char_poly,
    column_space,
    commutant_system,
    inverse,
    krylov_span_dim,
    nilpotent_jordan_type,
    rat,
    squarefree_factorization,
)
from uhlenbeck.partitions import Partition, partitions

ONE = Fraction(1)
T = RatPoly((0, 1))


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


def _stratum_image_dim_by_intersection(y, v, centralizer, directions):
    # dim slice - dim(slice meet orbit), the formula before it became
    # dim(slice + orbit) - dim orbit
    k = y.rows
    amb = k * k + k
    slice_vecs = [tuple(d.entries) + (Fraction(0),) * k for d in directions]
    slice_vecs += [
        tuple(Fraction(0) for _ in range(k * k)) + tuple(Fraction(1 if i == j else 0) for j in range(k))
        for i in range(k)
    ]
    t_slice = Subspace(amb, slice_vecs)
    orbit_vecs = [tuple(g.commutator(y).entries) + g.apply(v) for g in centralizer]
    t_orbit = Subspace(amb, orbit_vecs)
    return t_slice.dim - t_slice.intersect(t_orbit).dim


def _watch_draws(monkeypatch, on_draw):
    """Call on_draw(member, rng, cyclic) before the draws for each stratum
    member of fiber_probe and distinct_fiber_probe, and let the draws use the
    cyclicity test it returns.  member holds the pair (y, z) the draws are
    tested for, the u of the stratum and n = y - uI (None for
    distinct_fiber_probe), and the centralizer and directions the member's
    dimension is measured with."""
    member = {}
    real = {name: getattr(bvariety, name) for name in ("_triangular_stratum", "_nakayama_test", "pair_centralizer_basis", "_cyclic_drawn")}

    def stratum(y0, hom, u, k):
        base, directions = real["_triangular_stratum"](y0, hom, u, k)
        member.update(u=u, centralizer=hom, directions=directions)
        return base, directions

    def nakayama_test(n, z):
        member.update(y=n + RatMatrix.diagonal([member["u"]] * n.rows), z=z, n=n)
        return real["_nakayama_test"](n, z)

    def centralizer(y, z):
        basis = real["pair_centralizer_basis"](y, z)
        member.update(y=y, z=z, u=None, n=None, centralizer=basis, directions=[])
        return basis

    def drawn(rng, k, cyclic):
        return real["_cyclic_drawn"](rng, k, on_draw(member, rng, cyclic))

    for name, patched in zip(real, (stratum, nakayama_test, centralizer, drawn)):
        monkeypatch.setattr(bvariety, name, patched)


def _krylov_draw(member, rng):
    """The v the Krylov search draws for this member from rng, without moving rng."""
    state = rng.getstate()
    v = _old_sample_cyclic_vector(rng, member["y"], member["z"])
    rng.setstate(state)
    return v


def test_fiber_probes_match_intersection_formula(monkeypatch):
    probes = [
        lambda: fiber_probe(Partition((2, 1)), Fraction(1), ONE, samples=4, seed=3),
        lambda: fiber_probe(Partition((3,)), Fraction(1, 2), Fraction(3, 7), samples=3, seed=1),
        lambda: fiber_probe(Partition((2, 2)), Fraction(0), Fraction(2), samples=2, seed=1),
        lambda: distinct_fiber_probe([0, 1, Fraction(5, 2)], ONE, samples=4, seed=2),
    ]
    measured = [probe().sample_dims for probe in probes]
    by_intersection = []

    def record(member, rng, cyclic):
        # each sample that measures, at the v the Krylov search draws for it
        v = _krylov_draw(member, rng)
        if v is not None:
            by_intersection.append(_stratum_image_dim_by_intersection(member["y"], v, member["centralizer"], member["directions"]))
        return cyclic

    _watch_draws(monkeypatch, record)
    for probe, dims in zip(probes, measured):
        by_intersection.clear()
        assert probe().sample_dims == dims == tuple(by_intersection)
    assert all(measured) and any(any(dims) for dims in measured)


def test_depth_major_presentation_keeps_jordan_type():
    from uhlenbeck.bvariety import depth_major_nilpotent

    for k in range(1, 7):
        for lam in partitions(k):
            assert nilpotent_jordan_type(depth_major_nilpotent(lam)) == lam


# Verbatim copies of the two nilpotent builders before they became two basis
# orders of one lower shift, renamed with ``_old``.


def _old_jordan_nilpotent(lam) -> RatMatrix:
    """Block-diagonal lower-shift nilpotent with block sizes lam."""
    parts = tuple(lam)
    blocks = [
        RatMatrix.from_rows([[1 if i == j + 1 else 0 for j in range(p)] for i in range(p)]) for p in parts
    ]
    return RatMatrix.block_diag(blocks)


def _old_depth_major_nilpotent(lam) -> RatMatrix:
    parts = tuple(lam)
    positions = sorted((depth, block) for block, p in enumerate(parts) for depth in range(p))
    index = {pos: t for t, pos in enumerate(positions)}
    k = sum(parts)
    rows = [[Fraction(0)] * k for _ in range(k)]
    for block, p in enumerate(parts):
        for depth in range(p - 1):
            rows[index[(depth + 1, block)]][index[(depth, block)]] = Fraction(1)
    return RatMatrix.from_rows(rows) if k else RatMatrix(0, 0, ())


def test_nilpotent_builders_match_old_builders():
    cases = [lam for n in range(9) for lam in partitions(n)]
    assert cases[0] == Partition()
    for lam in cases + [(), (2, 3, 1)]:
        assert_pinned(jordan_nilpotent(lam), _old_jordan_nilpotent(lam))  # entrywise, by repr
        assert_pinned(depth_major_nilpotent(lam), _old_depth_major_nilpotent(lam))


def test_fiber_probe_regular_block_measures_k_minus_one():
    for k in (2, 3, 4):
        probe = fiber_probe(Partition((k,)), Fraction(1), ONE, samples=6, seed=2)
        assert probe.measured == k - 1


def test_distinct_support_fiber_is_point():
    probe = distinct_fiber_probe([0, 1, 3], ONE, samples=5, seed=4)
    assert probe.cyclic_found and probe.measured == 0


# ---------------------------------------------------------------------------
# checks, stabilizers and pencils pinned to the Fraction code they replaced


def _old_triple_stabilizer_dim(triple: BTriple) -> int:
    k = triple.size
    if k == 0:
        return 0
    zeros = [Fraction(0)] * k
    gv = RatMatrix.from_rows([zeros * i + list(triple.v) + zeros * (k - 1 - i) for i in range(k)])
    system = _old_commutant_system([triple.Y, triple.Z])
    # RatMatrix.vstack as it was: the entry tuples concatenated
    return len(kernel_vectors(RatMatrix(system.rows + gv.rows, gv.cols, system.entries + gv.entries)))


def _old_support_poly_p(triple: BTriple, p: int) -> RatPoly:
    _require_valid(triple)
    twisted = _old_sub(triple.Y, _old_scale(triple.Z.power(2), rat(triple.tau) * p))
    return char_poly(twisted)


def _old_check(triple: BTriple) -> tuple[bool, bool, bool]:
    y, z, v, tau = triple.Y, triple.Z, triple.v, rat(triple.tau)
    k = y.rows
    comm_ok = _old_commutator(y, z) == _old_scale(z.power(3), tau)
    nil_ok = _old_is_zero(z.power(k)) if k else True
    return comm_ok, nil_ok, krylov_span_dim([y, z], v) == k


def _pinned_triples():
    """Valid triples shaped as the benchmark draws them (Jordan pieces, direct
    sums, a conjugation with fractional entries), and random invalid ones."""
    rng = random.Random(8600)
    empty = RatMatrix(0, 0, ())
    yield BTriple(empty, empty, (), Fraction(3, 5))
    for k in range(1, 6):
        for lam in partitions(k):
            for tau in (Fraction(2), Fraction(-3, 2), Fraction(2**66 + 1, 7)):
                us = rng.sample(range(-9, 10), len(lam.parts))
                pieces = [jordan_triple(p, Fraction(u, 3), tau) for p, u in zip(lam.parts, us)]
                triple = pieces[0]
                for piece in pieces[1:]:
                    triple = direct_sum(triple, piece)
                g = rand_invertible(rng, k, -2, 2) @ RatMatrix.diagonal([Fraction(1, rng.randint(1, 4)) for _ in range(k)])
                yield conjugate_triple(triple, g)
        for kind in PRODUCT_KINDS:
            v = tuple(_product_input(rng, kind, k, 1).entries)
            yield BTriple(_product_input(rng, kind, k, k), _product_input(rng, "mixed", k, k), v, Fraction(3, 5))


def test_check_stabilizer_and_pencil_match_pinned_fraction_code():
    valid = 0
    for triple in _pinned_triples():
        report = check_btriple(triple)
        assert (report.commutator_ok, report.nilpotent_ok, report.cyclic_ok) == _old_check(triple)
        assert triple_stabilizer_dim(triple) == _old_triple_stabilizer_dim(triple)
        if not report.ok:
            continue
        valid += 1
        for p in range(5):
            new, old = support_poly_p(triple, p), _old_support_poly_p(triple, p)
            assert (new.coeffs, new.var) == (old.coeffs, old.var) and all(type(c) is Fraction for c in new.coeffs)
    assert valid >= 3 * sum(len(partitions(k)) for k in range(1, 6)) + 1


def _jordan_sum(rng: random.Random, lam: Partition, tau) -> BTriple:
    """The direct sum of Jordan triples of block sizes lam at distinct integer eigenvalues."""
    us = rng.sample(range(-9, 10), len(lam.parts))
    pieces = [jordan_triple(p, Fraction(u), tau) for p, u in zip(lam.parts, us)]
    triple = pieces[0]
    for piece in pieces[1:]:
        triple = direct_sum(triple, piece)
    return triple


def _stabilizer_fallback_triples():
    """Triples whose v is not cyclic for (Y, Z), and triples at tau = 0, where
    ``check`` raises; each shape also conjugated by a rational matrix."""
    rng = random.Random(8700)
    zero, tau = Fraction(0), Fraction(-3, 2)
    empty = RatMatrix(0, 0, ())
    shapes = []
    for k in range(1, 5):
        for lam in partitions(k):
            triple = _jordan_sum(rng, lam, tau)
            shapes.append(BTriple(triple.Y, triple.Z, (zero,) * k, tau))  # v = 0
            shapes.append(BTriple(triple.Y, triple.Z, triple.v, zero))  # tau = 0, v cyclic
            shapes.append(BTriple(triple.Y, triple.Z, (zero,) * k, zero))  # tau = 0, v = 0
    for a, b in [((2, 1), (3, -2)), ((1, 0), (2, 5)), ((3, 4), (1, 4))]:
        first, second = jordan_triple(a[0], Fraction(a[1]), tau), jordan_triple(b[0], Fraction(b[1]), tau)
        both = direct_sum(first, second)
        shapes.append(BTriple(both.Y, both.Z, first.v + (zero,) * second.size, tau))  # v inside one block
        shapes.append(BTriple(both.Y, both.Z, (zero,) * first.size + second.v, tau))
    for p in (1, 2, 3):
        piece = jordan_triple(p, Fraction(2), tau)
        shapes.append(direct_sum(piece, piece))  # two equal Jordan pieces
    for k in range(1, 5):
        y, z = _product_input(rng, "mixed", k, k), _product_input(rng, "integer", k, k)
        shapes.append(BTriple(y, z, tuple(_product_input(rng, "integer", k, 1).entries), zero))
    shapes += [BTriple(empty, empty, (), zero), BTriple(empty, empty, (), tau)]  # k = 0
    for triple in shapes:
        yield triple
        k = triple.size
        if k:
            g = rand_invertible(rng, k, -2, 2) @ RatMatrix.diagonal([Fraction(1, rng.randint(1, 3)) for _ in range(k)])
            yield conjugate_triple(triple, g)


def test_stabilizer_fallbacks_match_the_exact_system(commutant_calls):
    # the k^2-column system is built exactly when v is not cyclic, and at
    # tau = 0 the stabilizer is measured, not refused
    routes = {True: 0, False: 0}
    nontrivial = 0
    for triple in _stabilizer_fallback_triples():
        commutant_calls.clear()
        cyclic = krylov_span_dim([triple.Y, triple.Z], triple.v) == triple.size
        dim = triple_stabilizer_dim(triple)
        assert dim == _old_triple_stabilizer_dim(triple)
        assert len(commutant_calls) == (0 if cyclic else 1)
        routes[cyclic] += 1
        nontrivial += dim > 0
    assert routes[True] >= 20 and routes[False] >= 40 and nontrivial >= 40


def test_sampled_points_build_no_commutant_system(commutant_calls):
    # valid triples and Calogero-Moser members, drawn as the benchmark draws
    # them, are decided without a k^2-column system
    from uhlenbeck.calogero import joint_centralizer_dim, sample_cm

    rng = random.Random(8800)
    for k in range(1, 6):
        for lam in partitions(k):
            tau = Fraction(rng.choice([1, 2, -3]), rng.choice([1, 2]))
            triple = conjugate_triple(_jordan_sum(rng, lam, tau), rand_invertible(rng, k, -2, 2))
            assert check_btriple(triple).ok and triple_stabilizer_dim(triple) == 0
    for n in range(0, 8):
        for tau in (Fraction(1), Fraction(2), Fraction(-3, 2)):
            pair = sample_cm(n, rng.sample(range(-9, 10), n), tau, [rng.randint(-3, 3) for _ in range(n)])
            assert joint_centralizer_dim(pair.X, pair.Y) == min(n, 1)
    assert commutant_calls == []


# ---------------------------------------------------------------------------
# pencils, translations and fiber probes pinned to the term-by-term sums they
# replaced (verbatim copies)


def _old_support_twist(triple: BTriple, p: int) -> RatMatrix:
    return triple.Y - triple.Z.power(2).scale(rat(triple.tau) * p)


def _old_translate(triple: BTriple, c) -> BTriple:
    c = rat(c)
    k = triple.size
    return BTriple(triple.Y + RatMatrix.identity(k).scale(c), triple.Z, triple.v, triple.tau)


def _random_shift(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-(2**40), 2**40), rng.randint(1, 2**20))


def test_pencil_twist_and_translate_match_pinned_sums(monkeypatch):
    import uhlenbeck.bvariety as bvariety

    twisted = []
    monkeypatch.setattr(bvariety, "char_poly", lambda m: twisted.append(m) or char_poly(m))
    rng = random.Random(8700)
    for triple in _pinned_triples():
        for c in (0, 4, Fraction(-7, 3), Fraction(2**65 + 1, 6), _random_shift(rng)):
            new, old = translate(triple, c), _old_translate(triple, c)
            assert new == old and hash(new) == hash(old) and repr(new) == repr(old)
            assert all(type(x) is Fraction for x in new.Y.entries)
        if not triple.check.ok:
            continue
        for p in range(5):
            twisted.clear()
            support_poly_p(triple, p)
            (new,) = twisted
            old = _old_support_twist(triple, p)
            assert new == old and hash(new) == hash(old) and repr(new) == repr(old)
            assert all(type(x) is Fraction for x in new.entries)


def _old_combine(mats, coeffs, size: int) -> RatMatrix:
    out = RatMatrix.zero(size, size)
    for m, c in zip(mats, coeffs):
        c = rat(c)
        if c != 0:
            out = out + m.scale(c)
    return out


def _old_triangular_stratum(y0, hom, u, k):
    coords = [(i, j) for i in range(k) for j in range(k) if i <= j]
    rows = [[h.entry(i, j) for h in hom] for (i, j) in coords]
    rhs = [(u if i == j else Fraction(0)) - y0.entry(i, j) for (i, j) in coords]
    solved = solution_vectors(RatMatrix.from_rows(rows) if rows else RatMatrix(0, len(hom), ()), rhs)
    if solved is None:
        raise AssertionError("lower-triangular stratum is always nonempty")
    c0, cker = solved
    base = y0 + _old_combine(hom, c0, k)
    directions = [_old_combine(hom, cv, k) for cv in cker]
    return base, directions


def _old_sample_cyclic_vector(rng, y, z):
    k = y.rows
    for _ in range(24):
        cand = tuple(Fraction(rng.randint(-5, 5)) for _ in range(k))
        if krylov_span_dim([y, z], cand) == k:
            return cand
    return None


def _old_fiber_probe(lam, u, tau, samples: int = 8, seed: int = 0) -> FiberProbe:
    lam = lam if isinstance(lam, Partition) else Partition(tuple(lam))
    u, tau = rat(u), rat(tau)
    k = lam.size
    presentations = [jordan_nilpotent(lam)]
    depth = depth_major_nilpotent(lam)
    if depth != presentations[0]:
        presentations.append(depth)

    rng = random.Random(seed)
    sample_dims: list[int] = []
    stratum_dim = 0
    solution_dim = 0
    cyclic_found = False
    target = (RatPoly((0, 1)) - u) ** k if k else RatPoly((1,))
    for z in presentations:
        y0, hom = solve_Y_space(z, tau)
        solution_dim = len(hom)
        base, directions = _old_triangular_stratum(y0, hom, u, k)
        stratum_dim = max(stratum_dim, len(directions))
        for _ in range(max(samples, 1)):
            y = base + _old_combine(directions, [rng.randint(-3, 3) for _ in directions], k)
            if char_poly(y) != target:
                raise AssertionError("stratum member lost the degenerate support")
            v = _old_sample_cyclic_vector(rng, y, z)
            if v is None:
                continue
            cyclic_found = True
            sample_dims.append(_old_stratum_image_dim(y, z, v, hom, directions))
    measured = max(sample_dims) if sample_dims else None
    return FiberProbe(
        lam, k, u, tau, solution_dim, stratum_dim, tuple(sample_dims), measured, max(k - 1, 0), cyclic_found
    )


def _old_distinct_fiber_probe(spectrum, tau, samples: int = 8, seed: int = 0) -> FiberProbe:
    us = [rat(s) for s in spectrum]
    if len(set(us)) != len(us):
        raise ValueError("spectrum must be multiplicity-free")
    tau = rat(tau)
    k = len(us)
    z = RatMatrix.zero(k)
    y = RatMatrix.diagonal(us)
    joint = pair_centralizer_basis(y, z)
    rng = random.Random(seed)
    sample_dims = []
    cyclic_found = False
    for _ in range(max(samples, 1)):
        v = _old_sample_cyclic_vector(rng, y, z)
        if v is None:
            continue
        cyclic_found = True
        sample_dims.append(_old_stratum_image_dim(y, z, v, joint, []))
    measured = max(sample_dims) if sample_dims else None
    lam = Partition((1,) * k) if k else Partition()
    return FiberProbe(lam, k, us[0] if us else Fraction(0), tau, len(joint), 0, tuple(sample_dims), measured, max(k - 1, 0), cyclic_found)


def assert_same_probe(new: FiberProbe, old: FiberProbe):
    assert new == old and hash(new) == hash(old) and repr(new) == repr(old)
    assert type(new.u) is Fraction and type(new.tau) is Fraction


def test_triangular_strata_match_pinned_sums():
    no_directions = 0
    for k in range(5):
        for lam in partitions(k):
            for u, tau in ((0, 1), (Fraction(-7, 3), Fraction(3, 5)), (Fraction(2**65 + 1, 9), -2)):
                u, tau = Fraction(u), Fraction(tau)
                for z in (jordan_nilpotent(lam), depth_major_nilpotent(lam)):
                    y0, hom = solve_Y_space(z, tau)
                    base, directions = _triangular_stratum(y0, hom, u, k)
                    old_base, old_directions = _old_triangular_stratum(y0, hom, u, k)
                    assert len(directions) == len(old_directions)
                    for new, old in zip([base, *directions], [old_base, *old_directions]):
                        assert new == old and hash(new) == hash(old) and repr(new) == repr(old)
                    no_directions += not directions
    assert no_directions >= 6


def test_fiber_probes_match_pinned_code():
    # (1, 1) and (1, 1, 1) draw strata members with no cyclic vector, so some
    # samples measure nothing
    cyclic_missed = 0
    for k in range(5):
        for lam in partitions(k):
            for u, tau, samples, seed in ((0, 1, 1, 0), (Fraction(-7, 3), Fraction(3, 5), 3, 5), (Fraction(1, 2), -2, 6, 11)):
                new, old = fiber_probe(lam, u, tau, samples, seed), _old_fiber_probe(lam, u, tau, samples, seed)
                assert_same_probe(new, old)
                assert fiber_probe(lam.parts, u, tau, samples, seed) == new
                cyclic_missed += len(new.sample_dims) < samples * (1 + (depth_major_nilpotent(lam) != jordan_nilpotent(lam)))
    assert cyclic_missed >= 1
    # with one sample, some seeds draw only members without a cyclic vector
    for lam in ((1, 1), (1, 1, 1)):
        probes = [(fiber_probe(lam, 0, 1, 1, seed), _old_fiber_probe(lam, 0, 1, 1, seed)) for seed in range(13)]
        for new, old in probes:
            assert_same_probe(new, old)
        assert any(not new.cyclic_found and new.measured is None for new, _ in probes)
    for spectrum in ([], [0], [Fraction(1, 2), -3], [0, 1, Fraction(-5, 7), 3], list(range(6))):
        for tau, samples, seed in ((1, 1, 0), (Fraction(3, 5), 4, 7), (-2, 2, 3)):
            new = distinct_fiber_probe(spectrum, tau, samples, seed)
            assert_same_probe(new, _old_distinct_fiber_probe(spectrum, tau, samples, seed))
    with pytest.raises(ValueError, match="multiplicity-free"):
        distinct_fiber_probe([1, 1], 1)


# ---------------------------------------------------------------------------
# one nilpotency test and the Kronecker-form stabilizer and slice, pinned to
# the code they replaced (verbatim copies)


def _old_solve_commutator_system(z: RatMatrix, tau):
    tau = rat(tau)
    k = z.rows
    if k == 0:
        return RatMatrix(0, 0, ()), []
    rhs = z.power(3).scale(tau).entries
    solved = solution_vectors(commutant_system([z]), rhs)
    if solved is None:
        return None
    particular, hom = solved
    to_mat = lambda flat: RatMatrix(k, k, tuple(flat))
    return to_mat(particular), [to_mat(h) for h in hom]


def _old_commutator_system_solvable(z: RatMatrix, tau) -> bool:
    tau = rat(tau)
    k = z.rows
    if tau != 0:
        power = z.power(3)
        for _ in range(k + 1):
            if power.trace() != 0:
                return False
            power = power @ z
    return _old_solve_commutator_system(z, tau) is not None


def _old_solve_Y_space(z: RatMatrix, tau):
    if not z.is_square:
        raise ValueError("Z must be square")
    nilpotent_jordan_type(z)  # raises NotNilpotentError otherwise
    solved = _old_solve_commutator_system(z, tau)
    if solved is None:
        raise AssertionError("commutator system must be solvable for nilpotent Z")
    return solved


def _old_stratum_image_dim(y, z, v, centralizer, directions) -> int:
    k = y.rows
    amb = k * k + k
    slice_vecs = [d.entries + (Fraction(0),) * k for d in directions]
    slice_vecs += [
        tuple(Fraction(0) for _ in range(k * k)) + tuple(Fraction(1 if i == j else 0) for j in range(k))
        for i in range(k)
    ]
    orbit_vecs = [g.commutator(y).entries + g.apply(v) for g in centralizer]
    return Subspace(amb, slice_vecs + orbit_vecs).dim - Subspace(amb, orbit_vecs).dim


def _outcome(call):
    """('ok', value) or ('raised', exception type, message)."""
    try:
        return "ok", call()
    except ValueError as exc:
        return "raised", type(exc), str(exc)


def _assert_same_solution(new, old):
    assert (new is None) == (old is None)
    if new is None:
        return
    (y, hom), (old_y, old_hom) = new, old
    assert type(hom) is type(old_hom) is list and len(hom) == len(old_hom)
    for m, old_m in zip([y, *hom], [old_y, *old_hom]):
        assert_pinned(m, old_m)


TAUS = (Fraction(0), Fraction(1), Fraction(-3, 2), Fraction(2**65 + 1, 7))


def _solver_inputs():
    """Conjugated Jordan types up to k = 5 (with mixed denominators), random
    matrices (mostly not nilpotent) and non-square ones."""
    rng = random.Random(8940)
    yield RatMatrix(0, 0, ())
    for k in range(1, 6):
        for lam in partitions(k):
            g = rand_invertible(rng, k, -2, 2) @ RatMatrix.diagonal([Fraction(1, rng.randint(1, 4)) for _ in range(k)])
            yield g @ jordan_nilpotent(lam) @ inverse(g)
        for kind in PRODUCT_KINDS:
            yield _product_input(rng, kind, k, k)
        yield rand_matrix(rng, k, k, -2, 2)
    yield RatMatrix.zero(2, 3)
    yield RatMatrix.zero(0, 2)


def test_solvability_and_Y_space_match_pinned_code():
    nilpotent = non_nilpotent = 0
    for z in _solver_inputs():
        for tau in TAUS:
            new, old = _outcome(lambda: commutator_system_solvable(z, tau)), _outcome(lambda: _old_commutator_system_solvable(z, tau))
            if z.rows == 0 and z.cols and tau == 0:
                # a 0 x n Z now raises like every other non-square Z; the
                # old k == 0 shortcut called it solvable
                assert old == ("ok", True) and new == ("raised", ValueError, "power of a non-square matrix")
                continue
            assert new == old
            new, old = _outcome(lambda: solve_Y_space(z, tau)), _outcome(lambda: _old_solve_Y_space(z, tau))
            assert new[:1] == old[:1]
            if new[0] == "raised":
                assert new == old
                non_nilpotent += new[1] is NotNilpotentError and new[2] == "matrix is not nilpotent"
                continue
            _assert_same_solution(new[1], old[1])
            nilpotent += 1
            if z.is_square:
                _assert_same_solution(solve_commutator_system(z, tau), _old_solve_commutator_system(z, tau))
                # the nilpotency shortcut never changes the answer of the exact solve
                assert commutator_system_solvable(z, tau) == (solve_commutator_system(z, tau) is not None)
    assert nilpotent >= len(TAUS) * sum(len(partitions(k)) for k in range(6)) and non_nilpotent >= 40
    with pytest.raises(ValueError) as exc:
        solve_Y_space(RatMatrix.zero(2, 3), 1)
    assert str(exc.value) == "Z must be square"


def test_solvability_against_the_exact_solve():
    # tau = 0 is always solvable (Y = 0); tau != 0 exactly when Z is nilpotent
    rng = random.Random(8945)
    cases = [z for z in _solver_inputs() if z.is_square]
    cases += [rand_matrix(rng, k, k, -3, 3) for k in range(1, 6) for _ in range(6)]
    for z in cases:
        for tau in TAUS[:3]:
            solvable = commutator_system_solvable(z, tau)
            assert solvable == (solve_commutator_system(z, tau) is not None)
            assert solvable == (tau == 0 or z.is_nilpotent)


def test_stratum_image_dim_matches_pinned_slice():
    # on the inputs _sample_dim passes: v cyclic for (y, z) and a basis of the
    # centralizer of z
    rng = random.Random(8950)
    checked = 0
    for k in range(5):
        for lam in partitions(k):
            for u, tau in ((0, 1), (Fraction(-7, 3), Fraction(3, 5))):
                for z in (jordan_nilpotent(lam), depth_major_nilpotent(lam)):
                    y0, hom = solve_Y_space(z, tau)
                    base, directions = _triangular_stratum(y0, hom, Fraction(u), k)
                    for _ in range(3):
                        y = RatMatrix.combination([1] + [rng.randint(-3, 3) for _ in directions], [base, *directions])
                        v = _old_sample_cyclic_vector(rng, y, z)
                        if v is not None:
                            assert _stratum_image_dim(hom, directions)(y) == _old_stratum_image_dim(y, z, v, hom, directions)
                            checked += 1
    # centralizers of (y, 0) for diagonal y with distinct entries, and
    # arbitrary matrices as directions
    for k in range(5):
        y = RatMatrix.diagonal(rng.sample(range(-4, 5), k))
        z = RatMatrix.zero(k)
        joint = pair_centralizer_basis(y, z)
        mats = [rand_matrix(rng, k, k, -2, 2) for _ in range(rng.randint(0, 3))]
        for directions in ([], mats):
            v = _old_sample_cyclic_vector(rng, y, z)
            new, old = _stratum_image_dim(joint, directions)(y), _old_stratum_image_dim(y, z, v, joint, directions)
            assert type(new) is type(old) is int and new == old
            checked += 1
    assert checked > 100


def _orbit_span_dim(y, v, centralizer) -> int:
    # the orbit span _stratum_image_dim built before it used len(centralizer)
    k = y.rows
    return Subspace(k * k + k, [g.commutator(y).entries + g.apply(v) for g in centralizer]).dim


def test_orbit_span_has_the_centralizer_dimension_at_every_sample(monkeypatch):
    # the orbit map g -> ([g, y], g v) is injective on the centralizer of z
    # exactly because v is cyclic: at v = 0 the identity is in its kernel
    calls, shrunk = [], 0

    def checked(member, rng, cyclic):
        nonlocal shrunk
        y, centralizer = member["y"], member["centralizer"]
        v = _krylov_draw(member, rng)
        if v is not None:
            assert _orbit_span_dim(y, v, centralizer) == len(centralizer)
            calls.append(y.rows)
        if y.rows:
            assert _orbit_span_dim(y, (Fraction(0),) * y.rows, centralizer) < len(centralizer)
            shrunk += 1
        return cyclic

    _watch_draws(monkeypatch, checked)
    for k in range(7):
        for lam in partitions(k):
            for u, tau in ((0, 1), (Fraction(-7, 3), Fraction(3, 5))):
                fiber_probe(lam, u, tau, samples=3, seed=k)
    for spectrum in ([], [0], [Fraction(1, 2), -3], [0, 1, Fraction(-5, 7), 3]):
        distinct_fiber_probe(spectrum, 1, samples=3, seed=1)
    assert len(calls) > 250 and max(calls) == 6 and calls.count(0) >= 2 and shrunk > 250


def test_span_rule_decides_cyclicity_on_every_draw(monkeypatch):
    # the probes' cyclicity tests (Nakayama in fiber_probe, Vandermonde in
    # distinct_fiber_probe) against the Krylov closure, draw by draw; a member
    # with dim W < k - 1 has no cyclic vector, where "v not in W" alone errs
    verdicts, members, short, bare_wrong = [], 0, 0, 0

    def checked(member, rng, cyclic):
        nonlocal members, short
        y, z, n = member["y"], member["z"], member["n"]
        k = y.rows
        members += 1
        w = None if n is None else column_space(n, z)
        if w is not None and w.dim < k - 1:
            short += 1
            assert _krylov_draw(member, rng) is None

        def test(v):
            nonlocal bare_wrong
            verdict = cyclic(v)
            assert verdict == (krylov_span_dim([y, z], v) == k), (y, z, v)
            assert n is None or verdict == (krylov_span_dim([n, z], v) == k), (n, z, v)
            verdicts.append(verdict)
            bare_wrong += w is not None and verdict != (not w.contains(v))
            return verdict

        return test

    _watch_draws(monkeypatch, checked)
    for k in range(8):
        for lam in partitions(k):
            for u, tau in ((0, 1), (Fraction(-7, 3), Fraction(3, 5)), (2, Fraction(-1, 2))):
                fiber_probe(lam, u, tau, samples=4, seed=3)
    fiber_draws = len(verdicts)
    for k in range(8):
        for seed in range(3):
            distinct_fiber_probe([Fraction(3 * i - 7, i + 2) for i in range(k)], 1, samples=4, seed=seed)
    assert short > 100 and members > 1000 and bare_wrong > 100
    assert fiber_draws > 5000 and True in verdicts[:fiber_draws] and False in verdicts[:fiber_draws]
    assert True in verdicts[fiber_draws:] and False in verdicts[fiber_draws:]


def test_fiber_probes_run_no_krylov_closure(monkeypatch):
    def refuse(mats, v):
        raise AssertionError("a fiber probe ran a Krylov closure")

    monkeypatch.setattr(bvariety, "krylov_span_dim", refuse)
    for lam in ((4, 3, 2, 1), (1, 1, 1), (3,), ()):
        assert fiber_probe(lam, Fraction(-7, 3), Fraction(3, 5), 4, 5) == _old_fiber_probe(lam, Fraction(-7, 3), Fraction(3, 5), 4, 5)
    spectrum = [0, 1, Fraction(-5, 7), 3]
    assert distinct_fiber_probe(spectrum, 1, 4, 1) == _old_distinct_fiber_probe(spectrum, 1, 4, 1)


def test_fiber_probes_run_no_char_poly_and_no_membership_test(monkeypatch):
    # a member is checked by reading N = Y - uI's upper triangle, and a draw
    # by reading one coordinate of v, so neither needs a char poly or W
    cases = [((4, 3, 2, 1), Fraction(-7, 3), Fraction(3, 5)), ((1, 1, 1), 0, 1), ((2, 2, 1), 2, Fraction(-1, 2)), ((), 0, 1)]
    spectrum = [0, 1, Fraction(-5, 7), 3]
    old = [_old_fiber_probe(lam, u, tau, 4, 5) for lam, u, tau in cases] + [_old_distinct_fiber_probe(spectrum, 1, 4, 1)]

    def refuse(*args):
        raise AssertionError("a fiber probe ran a char poly or a membership test")

    monkeypatch.setattr(bvariety, "char_poly", refuse)
    monkeypatch.setattr(Subspace, "contains", refuse)
    new = [fiber_probe(lam, u, tau, 4, 5) for lam, u, tau in cases] + [distinct_fiber_probe(spectrum, 1, 4, 1)]
    for probe, pinned in zip(new, old, strict=True):
        assert_same_probe(probe, pinned)


def test_fiber_probe_rejects_a_member_that_is_not_lower_triangular(monkeypatch):
    # conjugated by the basis reversal, every N = Y - uI of the stratum is
    # strictly upper triangular and keeps the char poly (t - u)^k, so only the
    # triangularity check, the hypothesis of the Nakayama rule, rejects it
    real = bvariety._triangular_stratum

    def reversed_stratum(y0, hom, u, k):
        p = RatMatrix.from_rows([[int(i + j == k - 1) for j in range(k)] for i in range(k)])
        base, directions = real(y0, hom, u, k)
        return p @ base @ p, [p @ d @ p for d in directions]

    cases = (((2, 1), Fraction(1), ONE), ((4, 3, 2, 1), Fraction(-7, 3), Fraction(3, 5)))
    for lam, u, tau in cases:
        k = sum(lam)
        base, directions = reversed_stratum(*solve_Y_space(jordan_nilpotent(lam), tau), u, k)
        y = RatMatrix.combination([1] * (1 + len(directions)), [base, *directions])
        assert char_poly(y) == (RatPoly((0, 1)) - u) ** k and not (y - RatMatrix.diagonal([u] * k)).is_zero
    monkeypatch.setattr(bvariety, "_triangular_stratum", reversed_stratum)
    for lam, u, tau in cases:
        with pytest.raises(AssertionError, match="stratum member N = Y - uI is not strictly lower triangular"):
            fiber_probe(lam, u, tau, 2, 0)


def test_support_multiplies_under_direct_sums_of_disjoint_supports():
    tau = Fraction(3, 5)
    a, b = jordan_triple(2, 1, tau), jordan_triple(3, -2, tau)
    s = support(direct_sum(a, b))
    assert s == support(a) * support(b) and s.degree == 5 == support(a).degree + support(b).degree
    assert str(s) == "(t-1)^2 * (t+2)^3"
    c = translate(direct_sum(jordan_triple(1, 0, tau), jordan_triple(1, 4, tau)), Fraction(1, 2))
    s = support(direct_sum(c, jordan_triple(2, 7, tau)))
    assert s == support(c) * support(jordan_triple(2, 7, tau))
    assert str(s) == "(t^2-5*t+9/4) * (t-7)^2"
    empty = BTriple(RatMatrix(0, 0, ()), RatMatrix(0, 0, ()), (), tau)
    assert support(empty).degree == 0 and str(support(empty)) == "1" and support(empty) * s == s


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: BTriple(RatMatrix.zero(2), RatMatrix.zero(2), (ONE, ONE), 0).check, "tau must be nonzero"),
        (lambda: BTriple(RatMatrix.zero(2), RatMatrix.zero(3), (ONE, ONE), 1).check, "Y and Z must be square of equal size"),
        (lambda: BTriple(RatMatrix.zero(2, 3), RatMatrix.zero(2, 3), (ONE, ONE), 1).check, "Y and Z must be square of equal size"),
        (lambda: BTriple(RatMatrix.zero(2), RatMatrix.zero(2), (ONE,), 1).check, "vector length must match the matrix size"),
        (lambda: triple_stabilizer_dim(BTriple(RatMatrix.zero(2), RatMatrix.zero(3), (ONE, ONE), 1)), "Y and Z must be square of equal size"),
        (lambda: triple_stabilizer_dim(BTriple(RatMatrix.zero(2), RatMatrix.zero(3), (ONE, ONE), 0)), "all matrices must be square of the vector's size"),
        (lambda: jordan_triple(0, 0, 1), "k must be at least 1"),
        (lambda: jordan_triple(2, 0, 0), "tau must be nonzero"),
        (lambda: solve_Y_space(RatMatrix.zero(2, 3), 1), "Z must be square"),
        (lambda: solve_Y_space(RatMatrix.identity(2), 1), "matrix is not nilpotent"),
        (lambda: direct_sum(jordan_triple(1, 0, 1), jordan_triple(1, 1, 2)), "tau mismatch"),
        (lambda: distinct_fiber_probe([1, 1], 1), "spectrum must be multiplicity-free"),
        (lambda: distinct_fiber_probe([0, 1], 1, samples=0), "samples must be at least 1"),
        (lambda: fiber_probe((2, 1), 0, 1, samples=0), "samples must be at least 1"),
        (lambda: fiber_probe((), 0, 1, samples=-1), "samples must be at least 1"),
        (
            lambda: support(BTriple(RatMatrix.zero(1), RatMatrix.identity(1), (ONE,), 1)),  # Z is not nilpotent
            "invalid triple: TripleCheck(ok=False, commutator_ok=False, nilpotent_ok=False, cyclic_ok=True)",
        ),
    ],
)
def test_bvariety_rejects_malformed_input_with_its_message(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


def test_solvability_never_solves_the_system(monkeypatch):
    # the closed form never reaches the exact solve, which the tests above use as its oracle
    cases = list(_solver_inputs())
    expected = [[_outcome(lambda: commutator_system_solvable(z, tau)) for tau in TAUS] for z in cases]

    def refuse(z, tau):
        raise AssertionError("commutator_system_solvable solved the system")

    monkeypatch.setattr(bvariety, "solve_commutator_system", refuse)
    assert [[_outcome(lambda: commutator_system_solvable(z, tau)) for tau in TAUS] for z in cases] == expected
    assert commutator_system_solvable(jordan_nilpotent((3, 1)), "2/3") and not commutator_system_solvable(RatMatrix.identity(2), 1)
    assert commutator_system_solvable(RatMatrix.identity(2), "0")


# ---------------------------------------------------------------------------
# the support divisor reads its factors on demand, pinned to the cached copy


@dataclass(frozen=True)
class _OldSupportDivisor:
    poly: RatPoly

    @cached_property
    def factors(self) -> tuple[tuple[RatPoly, int], ...]:
        return tuple(squarefree_factorization(self.poly)) if self.poly.degree > 0 else ()

    def __str__(self):
        if not self.factors:
            return str(self.poly)
        return " * ".join(f"({f})^{m}" if m > 1 else f"({f})" for f, m in self.factors)


def test_support_divisor_factors_and_text_match_the_pinned_cached_copy():
    rng = random.Random(9500)
    polys = [RatPoly(()), RatPoly((Fraction(-7, 3),)), T, (T - 1) ** 3 * (T + Fraction(2, 5))]
    polys += [_random_factored_poly(rng, "t") for _ in range(40)]
    polys += [char_poly(jordan_triple(k, Fraction(-7, 3), Fraction(3, 5)).Y) for k in range(1, 5)]
    for poly in polys:
        new, old = SupportDivisor(poly), _OldSupportDivisor(poly)
        assert_same_read(new.factors, old.factors)
        assert str(new) == str(old)
        assert "factors" not in vars(new)
    assert any(new.factors for new in map(SupportDivisor, polys)) and any(not SupportDivisor(p).factors for p in polys)


def _forms(mats) -> list:
    return [(m.rows, m.cols, m._d, m._a) for m in mats]


def test_y_solutions_and_centralizers_match_the_fraction_vectors():
    # each matrix read off the integer kernel rows has the integer form (_d, _a)
    # of RatMatrix(k, k, v) over the Fraction vector v the solve wrote before,
    # k = 0 included, on Jordan nilpotents and random conjugates of them
    rng = random.Random(9800)
    for k in range(6):
        for lam in partitions(k):
            jordan = jordan_nilpotent(lam)
            conjugates = [g @ jordan @ inverse(g) for g in (rand_invertible(rng, k, -2, 2) for _ in range(2))]
            for z in (jordan, *conjugates):
                for tau in (Fraction(0), ONE, Fraction(3, 7), Fraction(-2)):
                    old_x, old_hom = _old_solve_linear(commutant_system([z]), z.power(3).scale(tau).entries)
                    y, hom = solve_commutator_system(z, tau)
                    assert _forms([y, *hom]) == _forms([RatMatrix(k, k, v) for v in (old_x, *old_hom)])
                    for other in (y, rand_matrix(rng, k, k, -2, 2)):
                        old = [RatMatrix(k, k, v) for v in _old_kernel_basis(commutant_system([other, z]))]
                        assert _forms(pair_centralizer_basis(other, z)) == _forms(old)
