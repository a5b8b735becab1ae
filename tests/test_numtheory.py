import pytest

from lsgame import DomainError, discrete_log, make_params, numtheory, smallest_primitive_root
from lsgame.numtheory import MAX_PRIME, is_odd_prime, is_primitive_root

DEMO_PRIMES = (3, 5, 7, 11, 13)


def brute_force_smallest_root(d):
    # independent oracle: enumerate powers until 1 reappears
    for r in range(2, d):
        seen = set()
        x = 1
        for _ in range(d - 1):
            x = (x * r) % d
            seen.add(x)
        if len(seen) == d - 1:
            return r
    raise AssertionError(f"no primitive root for {d}")


def test_smallest_primitive_root_examples():
    assert smallest_primitive_root(3) == 2
    assert smallest_primitive_root(5) == 2
    assert smallest_primitive_root(7) == 3  # 2 fails: 2^3 = 8 = 1 mod 7


def test_smallest_primitive_root_matches_oracle():
    for d in range(3, 60, 2):
        if is_odd_prime(d):
            assert smallest_primitive_root(d) == brute_force_smallest_root(d)


def test_demo_set_roots_are_small():
    for d in DEMO_PRIMES:
        assert smallest_primitive_root(d) in (2, 3, 5)


def test_rejects_bad_d():
    for bad in (1, 2, 4, 9, 15, 21):
        with pytest.raises(DomainError):
            smallest_primitive_root(bad)
        with pytest.raises(DomainError):
            make_params(bad)


def test_make_params_rejects_non_primitive_r():
    with pytest.raises(DomainError):
        make_params(7, r=2)  # order 3, not primitive
    with pytest.raises(DomainError):
        make_params(5, r=1)
    # the cap d <= 31 is the size guard of every strategy build
    assert make_params(31).d == 31
    with pytest.raises(DomainError):
        make_params(37)


def test_discrete_log_examples():
    p = make_params(5, 2)
    assert discrete_log(p, 1) == 0
    assert discrete_log(p, 4) == 2  # 2^2 = 4
    assert discrete_log(p, 3) == 3  # 2^3 = 8 = 3 mod 5


def test_discrete_log_inverts_exponentiation():
    for d in DEMO_PRIMES:
        p = make_params(d)
        for j in range(1, d):
            assert pow(p.r, discrete_log(p, j), d) == j
        # bijectivity
        assert sorted(p.log_table) == list(range(d - 1))


def test_discrete_log_of_zero_fails():
    p = make_params(7)
    with pytest.raises(DomainError):
        discrete_log(p, 0)
    with pytest.raises(DomainError):
        discrete_log(p, 14)


def test_roots_of_unity():
    for d in DEMO_PRIMES:
        p = make_params(d)
        assert abs(abs(p.omega_d) - 1) < 1e-12
        assert abs(p.omega_d**d - 1) < 1e-12
        assert is_primitive_root(p.r, d)
        assert (p.r * p.r_inverse()) % d == 1


def brute_force_primitive(r, d):
    # independent oracle: r is primitive when its powers r^1..r^(d-1) hit every unit
    return len({pow(r, e, d) for e in range(1, d)}) == d - 1


def test_make_params_matches_power_oracle():
    # every (d, r) the cap admits: the primitive r give a log table that
    # inverts exponentiation, and the rest are refused by name
    for d in (d for d in range(3, MAX_PRIME + 1) if is_odd_prime(d)):
        for r in range(2, d):
            if brute_force_primitive(r, d):
                p = make_params(d, r)
                assert (p.d, p.r) == (d, r)
                assert is_primitive_root(r, d)
                for j in range(1, d):
                    assert pow(r, discrete_log(p, j), d) == j, (d, r, j)
            else:
                assert not is_primitive_root(r, d)
                with pytest.raises(DomainError, match=rf"^r={r} is not a primitive root of {d}$"):
                    make_params(d, r)


def test_multiple_of_d_is_not_primitive(monkeypatch):
    # r = 0 mod d has no power equal to 1: refused without walking its powers
    monkeypatch.setattr(numtheory, "_powers", lambda r, d: pytest.fail(f"walked the powers of {r} mod {d}"))
    assert is_primitive_root(14, 7) is False
    assert is_primitive_root(0, 3) is False
