import random
from fractions import Fraction

import pytest

from conftest import kernel_vectors, rand_invertible
from test_core import (
    _diagonal_cancelling_pairs,
    _old_add,
    _old_commutant_system,
    _old_commutator,
    _old_scale,
    _old_sub,
    _product_input,
    assert_pinned,
)
from uhlenbeck.calogero import (
    CMVerifyResult,
    cm_fixed_point_count,
    joint_centralizer_dim,
    rescale,
    sample_cm,
    verify_cm,
)
from uhlenbeck.core import RatMatrix, inverse, krylov_span_dim, rank, rat
from uhlenbeck.partitions import partitions


def test_one_by_one_always_member():
    result = verify_cm(RatMatrix.from_rows([[3]]), RatMatrix.from_rows([[7]]), Fraction(2))
    # commutator vanishes, so both sign conventions give a rank-one matrix
    assert result.member and set(result.signs) == {"minus", "plus"}


def test_zero_pair_not_member():
    result = verify_cm(RatMatrix.zero(2), RatMatrix.zero(2), Fraction(1))
    assert not result.member
    assert result.rank_plus == 2 and result.rank_minus == 2


def test_size_mismatch_rejected():
    with pytest.raises(ValueError):
        verify_cm(RatMatrix.zero(2), RatMatrix.zero(3), Fraction(1))


def test_sampler_small_cases():
    pair = sample_cm(1, [Fraction(5)], Fraction(1))
    assert pair.X == RatMatrix.from_rows([[5]]) and pair.Y == RatMatrix.zero(1)
    for n, spectrum, tau in [(2, [0, 1], Fraction(1)), (3, [0, 1, 3], Fraction(2))]:
        pair = sample_cm(n, spectrum, tau)
        result = verify_cm(pair.X, pair.Y, tau)
        assert result.member and "minus" in result.signs


def test_sampler_rejects_repeats():
    with pytest.raises(ValueError):
        sample_cm(2, [1, 1], Fraction(1))


def test_sampler_diagonal_freedom():
    rng = random.Random(501)
    for _ in range(10):
        n = rng.randint(2, 4)
        spectrum = random.Random(rng.randint(0, 10**6)).sample(range(-8, 9), n)
        diagonal = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
        tau = Fraction(rng.choice([1, 2, -3]), rng.choice([1, 2]))
        pair = sample_cm(n, spectrum, tau, diagonal=diagonal)
        assert verify_cm(pair.X, pair.Y, tau).member


def test_sampler_and_rescale_trust_the_rank_one_proof(monkeypatch):
    # [X, Y] + tau I = tau J, so sample_cm verifies nothing and rescale
    # verifies only its input
    from uhlenbeck import calogero

    calls = []

    def counting(x, y, tau):
        calls.append(tau)
        return verify_cm(x, y, tau)

    monkeypatch.setattr(calogero, "verify_cm", counting)
    rng = random.Random(503)
    for n in range(9):
        for tau in (Fraction(1), Fraction(2), Fraction(-3, 2)):
            diagonal = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
            pair = sample_cm(n, rng.sample(range(-9, 10), n), tau, diagonal)
            assert calls == []
            result = verify_cm(pair.X, pair.Y, tau)
            assert result.member and "minus" in result.signs and pair.sign == "minus"
            if n >= 3:  # [X, Y] - tau I = tau (J - 2I) has rank n
                assert result.signs == ("minus",) and result.rank_minus == 1
            unit = rescale(pair)
            assert calls == [tau]
            calls.clear()
            assert verify_cm(unit.X, unit.Y, 1).signs == result.signs


def test_conjugation_invariance():
    rng = random.Random(502)
    tau = Fraction(3, 2)
    pair = sample_cm(3, [0, 2, 5], tau)
    for _ in range(5):
        g = rand_invertible(rng, 3)
        gi = inverse(g)
        moved = verify_cm(g @ pair.X @ gi, g @ pair.Y @ gi, tau)
        assert moved.member and moved.signs == verify_cm(pair.X, pair.Y, tau).signs


def test_rescale():
    tau = Fraction(3)
    pair = sample_cm(2, [0, 1], tau)
    unit = rescale(pair)
    assert unit.tau == 1
    assert verify_cm(unit.X, unit.Y, Fraction(1)).member
    assert rescale(unit) is unit  # idempotent at tau = 1


def test_rescale_empty_pair():
    from uhlenbeck.calogero import CMPair

    pair = CMPair(RatMatrix(0, 0, ()), RatMatrix(0, 0, ()), Fraction(2), "minus")
    out = rescale(pair)
    assert out.X.rows == 0 and out.tau == 1


def test_rescale_requires_member():
    from uhlenbeck.calogero import CMPair

    bad = CMPair(RatMatrix.zero(2), RatMatrix.zero(2), Fraction(2), "minus")
    with pytest.raises(ValueError):
        rescale(bad)


def test_joint_centralizer_dims():
    assert joint_centralizer_dim(RatMatrix.zero(2), RatMatrix.zero(2)) == 4
    pair = sample_cm(2, [0, 1], Fraction(1))
    assert joint_centralizer_dim(pair.X, pair.Y) == 1
    x = RatMatrix.diagonal([0, 1])
    assert joint_centralizer_dim(x, RatMatrix.zero(2)) == 2


def test_sampled_members_have_free_action():
    for n in range(1, 7):
        pair = sample_cm(n, list(range(n)), Fraction(2))
        assert joint_centralizer_dim(pair.X, pair.Y) == 1


def test_fixed_point_counts():
    assert cm_fixed_point_count(0) == 1
    assert cm_fixed_point_count(1) == 1
    assert cm_fixed_point_count(4) == 5
    for n in range(11):
        assert cm_fixed_point_count(n) == len(partitions(n))


# ---------------------------------------------------------------------------
# membership and centralizers pinned to the Fraction code they replaced


def _old_verify_cm(x: RatMatrix, y: RatMatrix, tau) -> CMVerifyResult:
    tau = rat(tau)
    if tau == 0:
        raise ValueError("tau must be nonzero")
    if not (x.is_square and y.is_square and x.rows == y.rows):
        raise ValueError("X and Y must be square of equal size")
    n = x.rows
    if n == 0:
        return CMVerifyResult(True, ("minus", "plus"), 0, 0)
    comm = _old_commutator(x, y)
    tau_id = _old_scale(RatMatrix.identity(n), tau)
    r_plus = rank(_old_sub(comm, tau_id))
    r_minus = rank(_old_add(comm, tau_id))
    signs = tuple(s for s, r in (("minus", r_minus), ("plus", r_plus)) if r == 1)
    return CMVerifyResult(bool(signs), signs, r_plus, r_minus)


def _old_joint_centralizer_dim(x: RatMatrix, y: RatMatrix) -> int:
    if not (x.is_square and y.is_square and x.rows == y.rows):
        raise ValueError("X and Y must be square of equal size")
    return len(kernel_vectors(_old_commutant_system([x, y])))


def _pinned_pairs():
    """Sampled and conjugated members, pairs whose [X, Y] -/+ tau I has zeros on
    the diagonal, and random non-members with mixed and huge entries."""
    rng = random.Random(8500)
    for n in range(0, 7):
        for tau in (Fraction(1), Fraction(-3, 2), Fraction(2**65 + 7, 3)):
            if n:
                pair = sample_cm(n, rng.sample(range(-9, 10), n), tau)
                g = rand_invertible(rng, n, -2, 2)
                yield pair.X, pair.Y, tau
                yield g @ pair.X @ inverse(g), g @ pair.Y @ inverse(g), tau
            for kind_x, kind_y in [("zero", "zero"), ("identity", "mixed"), ("integer", "big"), ("mixed", "mixed")]:
                yield _product_input(rng, kind_x, n, n), _product_input(rng, kind_y, n, n), tau
        if n >= 2:
            yield _diagonal_cancelling_pairs(rng, n)


def test_verify_cm_and_centralizer_match_pinned_fraction_code():
    members = 0
    for x, y, tau in _pinned_pairs():
        result = verify_cm(x, y, tau)
        assert result == _old_verify_cm(x, y, tau) and repr(result) == repr(_old_verify_cm(x, y, tau))
        assert joint_centralizer_dim(x, y) == _old_joint_centralizer_dim(x, y)
        members += result.member
    assert members >= 30


def _centralizer_route_pairs():
    """Pairs for both routes of joint_centralizer_dim: X = 0, scalar X,
    diag(0, 0, 1) and a nonderogatory X on which the all-ones vector is not
    cyclic take the commutant system; n = 0 and 1, conjugated members with
    non-diagonal X and nonderogatory X with a larger joint centralizer take Q[X]."""
    rng = random.Random(8900)

    def ys(n):
        return [RatMatrix.zero(n), RatMatrix.identity(n), _product_input(rng, "integer", n, n), _product_input(rng, "mixed", n, n)]

    for n in (0, 1):
        for y in ys(n):
            yield RatMatrix.zero(n), y
    for n in (2, 3, 4):
        for x in (RatMatrix.zero(n), RatMatrix.identity(n).scale(Fraction(-5, 3))):
            for y in ys(n):
                yield x, y
    for x in (RatMatrix.diagonal([0, 0, 1]), RatMatrix.from_rows([[1, 1], [0, 2]])):
        for y in [*ys(x.rows), x, x.power(2)]:
            yield x, y
    for n in range(2, 7):
        pair = sample_cm(n, rng.sample(range(-9, 10), n), Fraction(-3, 2))
        g = rand_invertible(rng, n, -2, 2) @ RatMatrix.diagonal([Fraction(1, rng.randint(1, 3)) for _ in range(n)])
        x = g @ pair.X @ inverse(g)
        yield x, g @ pair.Y @ inverse(g)
        for y in [*ys(n), x.power(2), RatMatrix.combination([1, 2], [x, x.power(n - 1)])]:
            yield x, y
        yield pair.X, RatMatrix.diagonal(rng.sample(range(-9, 10), n))


def test_centralizer_routes_match_the_exact_kernel(commutant_calls):
    # the n^2-column system is built exactly when the all-ones vector is not
    # cyclic for X; both routes agree with the kernel of the old system
    routes = {True: 0, False: 0}
    wide = 0
    for x, y in _centralizer_route_pairs():
        commutant_calls.clear()
        n = x.rows
        cyclic = krylov_span_dim([x], [1] * n) == n
        dim = joint_centralizer_dim(x, y)
        assert dim == _old_joint_centralizer_dim(x, y)
        assert len(commutant_calls) == (0 if cyclic else 1)
        routes[cyclic] += 1
        wide += cyclic and dim > 1
    assert routes[True] >= 30 and routes[False] >= 30 and wide >= 10


def _old_verify_cm_matrices(x: RatMatrix, y: RatMatrix, tau) -> list[RatMatrix]:
    """The two matrices whose ranks verify_cm read before ``combination``
    (verbatim expressions: a commutator, then -/+ a scaled identity)."""
    tau = rat(tau)
    n = x.rows
    comm = x.commutator(y)
    tau_id = RatMatrix.identity(n).scale(tau)
    return [comm - tau_id, comm + tau_id]


def test_verify_cm_ranks_the_pinned_matrices(monkeypatch):
    import uhlenbeck.calogero as calogero

    ranked = []
    monkeypatch.setattr(calogero, "rank", lambda m: ranked.append(m) or rank(m))
    for x, y, tau in _pinned_pairs():
        ranked.clear()
        result = verify_cm(x, y, tau)
        if not x.rows:
            assert ranked == [] and result == _old_verify_cm(x, y, tau)
            continue
        assert len(ranked) == 2
        for new, old in zip(ranked, _old_verify_cm_matrices(x, y, tau)):
            assert_pinned(new, old)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: verify_cm(RatMatrix.zero(2), RatMatrix.zero(2), 0), "tau must be nonzero"),
        (lambda: verify_cm(RatMatrix.zero(2), RatMatrix.zero(3), 1), "X and Y must be square of equal size"),
        (lambda: sample_cm(2, [0, 1], 0), "tau must be nonzero"),
        (lambda: sample_cm(2, [0], 1), "spectrum length must equal n"),
        (lambda: sample_cm(2, [1, Fraction(2, 2)], 1), "spectrum values must be pairwise distinct"),
        (lambda: sample_cm(2, [0, 1], 1, diagonal=[5]), "diagonal length must equal n"),
        (lambda: joint_centralizer_dim(RatMatrix.zero(2, 3), RatMatrix.zero(2, 3)), "X and Y must be square of equal size"),
        (lambda: joint_centralizer_dim(RatMatrix.zero(2), RatMatrix.zero(3)), "X and Y must be square of equal size"),
    ],
)
def test_calogero_rejects_malformed_input_with_its_message(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message
