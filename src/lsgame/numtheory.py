"""Primitive roots, discrete logarithms and roots of unity.

Everything downstream is parameterized by an odd prime d and a primitive
root r of d, bundled in :class:`PrimeParams`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import DomainError

#: Largest d accepted; matrix dimensions grow as 4(d-1) per side, so this cap
#: is the size guard of every path that builds a strategy.
MAX_PRIME = 31


def is_odd_prime(d: int) -> bool:
    """Trial-division primality check for odd d >= 3."""
    if d < 3 or d % 2 == 0:
        return False
    return all(d % f != 0 for f in range(3, math.isqrt(d) + 1, 2))


def _powers(r: int, d: int) -> list[int]:
    """r^0, r^1, ... mod the odd prime d, up to the last power before 1 comes back.

    r is a primitive root exactly when there are d - 1 of them; entry e is
    then r^e, the inverse of the discrete-log table.  r % d must be nonzero,
    or 1 never comes back.
    """
    powers, x = [1], r % d
    while x != 1:
        powers.append(x)
        x = x * r % d
    return powers


def is_primitive_root(r: int, d: int) -> bool:
    if not is_odd_prime(d):
        raise DomainError(f"d must be an odd prime, got {d}")
    return r % d != 0 and len(_powers(r, d)) == d - 1


def smallest_primitive_root(d: int) -> int:
    """Least r >= 2 generating the multiplicative group mod d.

    Verified by walking each candidate's powers; raises DomainError unless d
    is an odd prime.
    """
    if not is_odd_prime(d):
        raise DomainError(f"d must be an odd prime, got {d}")
    return next(r for r in range(2, d) if len(_powers(r, d)) == d - 1)


@dataclass(frozen=True)
class PrimeParams:
    """Number-theoretic context shared by every module.

    log_table[j-1] is the discrete log of j base r, for j = 1..d-1, so that
    r**log_table[j-1] == j (mod d).
    """

    d: int
    r: int
    log_table: tuple[int, ...]
    omega_d: complex

    def r_inverse(self) -> int:
        """Multiplicative inverse of r mod d."""
        return pow(self.r, self.d - 2, self.d)


def make_params(d: int, r: int | None = None) -> PrimeParams:
    """Validate (d, r) and precompute the discrete-log table.

    d must be an odd prime no larger than MAX_PRIME; the cap is checked
    first, so a huge d costs no trial division.  r defaults to the
    smallest primitive root of d.  Non-minimal primitive roots are accepted;
    non-primitive ones are rejected.
    """
    if d > MAX_PRIME:
        raise DomainError(f"d={d} above the cap {MAX_PRIME}")
    if not is_odd_prime(d):
        raise DomainError(f"d must be an odd prime, got {d}")
    if r is not None and not (2 <= r < d):
        raise DomainError(f"r must satisfy 2 <= r < d, got r={r}")
    # one walk over each candidate's powers decides primitivity and, for the
    # root taken, gives the log table
    for root in range(2, d) if r is None else (r,):
        powers = _powers(root, d)
        if len(powers) == d - 1:
            break
    else:
        raise DomainError(f"r={r} is not a primitive root of {d}")
    log_table = [0] * (d - 1)
    for e, x in enumerate(powers):
        log_table[x - 1] = e
    return PrimeParams(d=d, r=root, log_table=tuple(log_table), omega_d=cmath.exp(2j * math.pi / d))


def discrete_log(params: PrimeParams, j: int) -> int:
    """Exponent e with r**e == j (mod d); DomainError when j == 0 (mod d)."""
    j %= params.d
    if j == 0:
        raise DomainError("0 has no discrete logarithm")
    return params.log_table[j - 1]
