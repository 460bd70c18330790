from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import pytest

from uhlenbeck.core import RatPoly, convolve, poly_str
from uhlenbeck.ic import (
    GradedStalk,
    _length_counts,
    ic_stalk,
    length_counting_poly,
    punctual_hilbert_betti,
    smallness_audit,
    strata,
    uhlenbeck_fixed_point_count,
    uhlenbeck_fixed_points,
)
from uhlenbeck.partitions import Partition, partition_count, partitions


def brute_force_stalk(n: int, m: int, lam: Partition) -> Counter:
    """Independent multiset of shifts {2m + sum 2 l(mu_i)} over tuples mu_i |- lam_i."""
    assert m + lam.size == n
    shifts = Counter()
    for mus in product(*[partitions(part) for part in lam]):
        shifts[2 * m + sum(2 * mu.length for mu in mus)] += 1
    return shifts


def stalk_counter(stalk: GradedStalk) -> Counter:
    return Counter({k: int(c) for k, c in enumerate(stalk.poly.coeffs) if c != 0})


# ---------------------------------------------------------------------------
# stalks


def test_stalk_deepest_n3():
    stalk = ic_stalk(3, 0, Partition((3,)))
    assert str(stalk) == "q^2+q^4+q^6"


def test_stalk_all_ones():
    for n in range(1, 7):
        for m in range(n + 1):
            lam = Partition((1,) * (n - m))
            assert ic_stalk(n, m, lam).poly == RatPoly((0,) * (2 * n) + (1,), "q")


def test_stalk_example_n4():
    assert str(ic_stalk(4, 1, Partition((2, 1)))) == "q^6+q^8"


def test_stalk_validates_stratum():
    with pytest.raises(ValueError):
        ic_stalk(4, 2, Partition((3,)))


def test_stalk_matches_brute_force_small():
    for n in range(0, 7):
        for m in range(n + 1):
            for lam in partitions(n - m):
                assert stalk_counter(ic_stalk(n, m, lam)) == brute_force_stalk(n, m, lam)


def test_stalk_total_is_product_of_counts():
    for n in range(1, 8):
        for m in range(n + 1):
            for lam in partitions(n - m):
                expected = 1
                for part in lam:
                    expected *= partition_count(part)
                assert ic_stalk(n, m, lam).total == expected


def test_stalk_factorizes_over_parts():
    for n in range(1, 8):
        for m in range(n + 1):
            for lam in partitions(n - m):
                product_poly = RatPoly((0,) * (2 * m) + (1,), "q")
                for part in lam:
                    product_poly = product_poly * ic_stalk(part, 0, Partition((part,))).poly
                assert ic_stalk(n, m, lam).poly == product_poly


def test_stalk_min_shift():
    for n in range(1, 8):
        for m in range(n + 1):
            for lam in partitions(n - m):
                stalk = ic_stalk(n, m, lam)
                assert stalk.min_shift == 2 * m + 2 * lam.length
                assert all(k % 2 == 0 for k, c in enumerate(stalk.poly.coeffs) if c != 0)


def test_length_counting_poly_empty():
    assert length_counting_poly(0) == RatPoly([1], "q")


# ---------------------------------------------------------------------------
# Betti numbers


def test_betti_small():
    assert punctual_hilbert_betti(1) == [1]
    assert punctual_hilbert_betti(3) == [1, 1, 1]
    assert punctual_hilbert_betti(4) == [1, 2, 1, 1]


def test_betti_bridge_to_stalk():
    for n in range(1, 12):
        stalk = ic_stalk(n, 0, Partition((n,)))
        betti = punctual_hilbert_betti(n)
        for k in range(1, n + 1):
            assert stalk.coefficient(2 * k) == betti[k - 1]


# ---------------------------------------------------------------------------
# strata


def test_strata_n1():
    st = strata(1)
    assert [(s.m, s.lam.parts, s.dim) for s in st] == [(1, (), 2), (0, (1,), 1)]


def test_strata_count():
    assert len(strata(2)) == 4
    for n in range(8):
        assert len(strata(n)) == sum(partition_count(n - m) for m in range(n + 1))


def test_open_stratum_dimension():
    for n in range(8):
        st = strata(n)[0]
        assert st.is_open and st.m == n and st.dim == 2 * n


def test_stratum_dims():
    for n in range(8):
        for st in strata(n):
            assert st.dim == 2 * st.m + st.lam.length
            assert st.m + st.lam.size == n


# ---------------------------------------------------------------------------
# smallness


def test_smallness_rows_n1():
    rows = smallness_audit(1)
    closed = [r for r in rows if not r.stratum.is_open]
    assert len(closed) == 1
    assert closed[0].codim == 1 and closed[0].fiber_bound == 0


def test_smallness_n3_deepest():
    rows = {(r.stratum.m, r.stratum.lam.parts): r for r in smallness_audit(3)}
    row = rows[(0, (3,))]
    assert row.codim == 5 and row.fiber_bound == 2
    assert 2 * row.fiber_bound < row.codim


def test_smallness_strict_up_to_12():
    for n in range(1, 13):
        rows = smallness_audit(n)
        for r in rows:
            if not r.stratum.is_open:
                assert 2 * r.fiber_bound < r.codim


def test_fiber_bound_matches_stalk_width():
    # width of the stalk polynomial is twice the fiber bound, as the audit's docstring says
    for n in range(1, 13):
        for r in smallness_audit(n):
            stalk = ic_stalk(n, r.stratum.m, r.stratum.lam)
            if r.stratum.lam.length:
                assert stalk.max_shift - stalk.min_shift == 2 * r.fiber_bound


# ---------------------------------------------------------------------------
# fixed points


def test_fixed_points_n0():
    points = uhlenbeck_fixed_points(0)
    assert len(points) == 1 and points[0].attracting


def test_fixed_points_n2():
    assert len(uhlenbeck_fixed_points(2)) == 7


def test_fixed_point_count_formula_matches_enumeration():
    for n in range(11):
        assert len(uhlenbeck_fixed_points(n)) == uhlenbeck_fixed_point_count(n)


def test_fixed_point_euler_characteristics_sum_to_p_cubed():
    # a consistency check only (it follows from the stalk formula): the fiber
    # over (m, mu, k0, kinf) has chi = p(k0) p(kinf), the total of its stalk,
    # and the sum over all fixed points is [x^n] P(x)^3 with P = sum p(k) x^k
    p = [partition_count(k) for k in range(13)]
    p_cubed = convolve(convolve(p, p), p)
    expected = [1, 3, 9, 22, 51, 108, 221, 429, 810, 1479, 2640, 4599, 7868]
    for n in range(13):
        points = uhlenbeck_fixed_points(n)
        chi = sum(partition_count(pt.k0) * partition_count(pt.kinf) for pt in points)
        assert chi == p_cubed[n] == expected[n]
        for pt in points:
            lam = sorted((k for k in (pt.k0, pt.kinf) if k), reverse=True)
            assert ic_stalk(n, pt.m, lam).total == partition_count(pt.k0) * partition_count(pt.kinf)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: strata(-1), "n must be nonnegative"),
        (lambda: uhlenbeck_fixed_points(-1), "n must be nonnegative"),
        pytest.param(lambda: uhlenbeck_fixed_point_count(-1), "n must be nonnegative", id="fixed_point_count-negative n"),
    ],
)
def test_ic_rejects_malformed_input_with_its_message(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


def test_unique_attracting_point():
    for n in range(1, 8):
        attracting = [p for p in uhlenbeck_fixed_points(n) if p.attracting]
        assert len(attracting) == 1
        p = attracting[0]
        assert p.m == 0 and p.k0 == n and p.kinf == 0


# ---------------------------------------------------------------------------
# integer stalks against the RatPoly-product stalks they replaced
#
# ``OldGradedStalk``, ``old_length_counting_poly`` and ``old_ic_stalk`` are
# verbatim copies of the implementation that multiplied RatPoly factors in
# Fraction arithmetic and evaluated the total at q = 1.


@dataclass(frozen=True)
class OldGradedStalk:
    """Multiset of even shifts, as a polynomial in q."""

    poly: RatPoly

    def __post_init__(self):
        for k, c in enumerate(self.poly.coeffs):
            if c != 0 and (k % 2 == 1 or c != int(c) or c < 0):
                raise ValueError("stalk polynomial must have nonnegative integer coefficients in even degrees")

    @property
    def total(self) -> int:
        return int(self.poly(1))

    @property
    def min_shift(self) -> int:
        if self.poly.is_zero:
            raise ValueError("zero stalk")
        return next(k for k, c in enumerate(self.poly.coeffs) if c != 0)

    @property
    def max_shift(self) -> int:
        return self.poly.degree

    def coefficient(self, shift: int) -> int:
        return int(self.poly[shift])

    def __str__(self):
        return poly_str(self.poly.coeffs, self.poly.var, ascending=True)


def old_length_counting_poly(k: int) -> RatPoly:
    """sum over partitions mu of k of q^{2 l(mu)}, by explicit enumeration."""
    coeffs: dict[int, int] = {}
    for mu in partitions(k):
        coeffs[2 * mu.length] = coeffs.get(2 * mu.length, 0) + 1
    top = max(coeffs) if coeffs else 0
    return RatPoly([coeffs.get(i, 0) for i in range(top + 1)], var="q")


def old_ic_stalk(n: int, m: int, lam) -> OldGradedStalk:
    """IC stalk on the stratum (m, lam): q^{2m} times the product over parts."""
    lam = lam if isinstance(lam, Partition) else Partition(tuple(lam))
    if m < 0 or m + lam.size != n:
        raise ValueError(f"need m + |lam| = n with m >= 0; got m={m}, |lam|={lam.size}, n={n}")
    poly = RatPoly((0,) * (2 * m) + (1,), var="q")
    for part in lam:
        poly = poly * old_length_counting_poly(part)
    return OldGradedStalk(poly)


def test_integer_stalks_match_ratpoly_stalks():
    for n in range(15):
        for st in strata(n):
            new, old = ic_stalk(n, st.m, st.lam), old_ic_stalk(n, st.m, st.lam)
            assert new.poly == old.poly and new.poly.var == old.poly.var == "q"
            assert type(new.total) is int and new.total == old.total
            assert new.min_shift == old.min_shift and new.max_shift == old.max_shift
            for shift in range(-1, new.max_shift + 3):
                assert type(new.coefficient(shift)) is int
                assert new.coefficient(shift) == old.coefficient(shift)
            assert str(new) == str(old)


def _old_integer_ic_stalk(n: int, m: int, lam) -> GradedStalk:
    """The integer stalk as computed before ``convolve`` (verbatim copy)."""
    lam = lam if isinstance(lam, Partition) else Partition(tuple(lam))
    if m < 0 or m + lam.size != n:
        raise ValueError(f"need m + |lam| = n with m >= 0; got m={m}, |lam|={lam.size}, n={n}")
    coeffs = [0] * (2 * m) + [1]
    for part in lam:
        factor = _length_counts(part)
        out = [0] * (len(coeffs) + len(factor) - 1)
        for i, a in enumerate(coeffs):
            if a:
                for j, b in enumerate(factor):
                    out[i + j] += a * b
        coeffs = out
    return GradedStalk(tuple(coeffs))


def test_integer_stalks_match_pinned_integer_loop():
    cases = [(n, st.m, st.lam) for n in range(13) for st in strata(n)]
    cases += [(20, 10, (4, 3, 2, 1)), (30, 0, (30,)), (24, 0, (1,) * 24), (0, 0, ())]
    for n, m, lam in cases:
        new, old = ic_stalk(n, m, lam), _old_integer_ic_stalk(n, m, lam)
        assert new == old and hash(new) == hash(old) and repr(new) == repr(old)
        assert all(type(c) is int for c in new.coeffs)
    for n, m, lam in ((3, -1, (4,)), (3, 1, (1,)), (0, 1, ())):
        with pytest.raises(ValueError) as new:
            ic_stalk(n, m, lam)
        with pytest.raises(ValueError) as old:
            _old_integer_ic_stalk(n, m, lam)
        assert str(new.value) == str(old.value)


def test_length_counting_poly_matches_old_enumeration():
    for k in range(16):
        assert length_counting_poly(k) == old_length_counting_poly(k)
        assert str(length_counting_poly(k)) == str(old_length_counting_poly(k))


def test_graded_stalk_rejects_bad_coefficients():
    for coeffs in [(0, 1), (1, 0, 0), (-1,), (Fraction(1, 2),)]:
        with pytest.raises(ValueError):
            GradedStalk(coeffs)
    with pytest.raises(ValueError):
        GradedStalk(()).min_shift
