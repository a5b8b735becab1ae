import pytest
from dense_reference import brute_force_primitive

from lsgame import DomainError, discrete_log, make_params, numtheory
from lsgame.numtheory import MAX_PRIME, is_odd_prime

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
    # make_params defaults r to the smallest primitive root
    assert make_params(3).r == 2
    assert make_params(5).r == 2
    assert make_params(7).r == 3  # 2 fails: 2^3 = 8 = 1 mod 7


def test_smallest_primitive_root_matches_oracle():
    for d in range(3, MAX_PRIME + 1, 2):
        if is_odd_prime(d):
            assert make_params(d).r == brute_force_smallest_root(d)


def test_demo_set_roots_are_small():
    for d in DEMO_PRIMES:
        assert make_params(d).r in (2, 3, 5)


def test_rejects_bad_d():
    for bad in (1, 2, 4, 9, 15, 21):
        with pytest.raises(DomainError):
            make_params(bad)
        with pytest.raises(DomainError):
            make_params(bad, 2)


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
        assert brute_force_primitive(p.r, d)


def test_make_params_matches_power_oracle():
    # every (d, r) the cap admits: the primitive r give a log table that
    # inverts exponentiation, and the rest are refused by name
    for d in (d for d in range(3, MAX_PRIME + 1) if is_odd_prime(d)):
        for r in range(2, d):
            if brute_force_primitive(r, d):
                p = make_params(d, r)
                assert (p.d, p.r) == (d, r)
                for j in range(1, d):
                    assert pow(r, discrete_log(p, j), d) == j, (d, r, j)
            else:
                with pytest.raises(DomainError, match=rf"^r={r} is not a primitive root of {d}$"):
                    make_params(d, r)


def test_multiple_of_d_is_not_primitive(monkeypatch):
    # r = 0 mod d has no power equal to 1: refused without walking its powers
    monkeypatch.setattr(numtheory, "_powers", lambda r, d: pytest.fail(f"walked the powers of {r} mod {d}"))
    for d, r in ((7, 14), (3, 0), (3, 3)):
        with pytest.raises(DomainError, match=r"^r must satisfy 2 <= r < d"):
            make_params(d, r)
