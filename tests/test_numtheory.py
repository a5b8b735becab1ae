import pytest

from lsgame import DomainError, discrete_log, make_params, smallest_primitive_root
from lsgame.numtheory import is_odd_prime, is_primitive_root, multiplicative_order

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
        assert abs(p.omega_dm1 ** (d - 1) - 1) < 1e-12
        assert multiplicative_order(p.r, d) == d - 1
        assert is_primitive_root(p.r, d)
        assert (p.r * p.r_inverse()) % d == 1
