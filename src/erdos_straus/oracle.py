"""Exhaustive brute-force solver of 4/n = 1/x + 1/y + 1/z.

Ground truth for cross-validation: this module never imports the
witness, recover or arith code, so agreement between the two routes is
meaningful. Works for any n >= 2, prime or not.

For x <= y <= z the equation forces n/4 < x <= 3n/4. Fix such an x and
put q = 4x - n > 0 and m = n*x, so 4/n - 1/x = q/m. Then
1/y + 1/z = q/m is m*(y + z) = q*y*z, which is the divisor form

    (q*y - m) * (q*z - m) = m**2.

So u = q*y - m and v = q*z - m are complementary divisors of m**2.
Every solution is found this way: u > 0 because 1/y < q/m, and
u <= m because y <= z means u <= v. Walking the divisors u <= m of
m**2 with u = -m (mod q), and keeping those whose cofactor v also
gives an integer z = (m + v)/q with y >= x, therefore lists every
solution once. Each hit is re-checked by the exact identity.
"""

from __future__ import annotations

from .errors import DomainError, ResourceLimitError

__all__ = ["DEFAULT_CAP", "solve_bruteforce"]

DEFAULT_CAP = 100_000


# Own trial division rather than arith's helpers, so that the oracle
# shares no code with the witness route it is meant to check.
def _factor_into(k: int, exps: dict[int, int]) -> dict[int, int]:
    """Add the prime exponents of k to exps and return it."""
    d = 2
    while d * d <= k:
        while k % d == 0:
            exps[d] = exps.get(d, 0) + 1
            k //= d
        d += 1
    if k > 1:
        exps[k] = exps.get(k, 0) + 1
    return exps


def _square_divisors_upto(exps: dict[int, int], limit: int) -> list[int]:
    """Divisors of (prod p**e)**2 that are <= limit, in no set order."""
    divs = [1]
    for prime, e in exps.items():
        grown = []
        for d in divs:
            for _ in range(2 * e + 1):
                if d > limit:
                    break
                grown.append(d)
                d *= prime
        divs = grown
    return divs


def solve_bruteforce(n: int, *, cap: int = DEFAULT_CAP) -> list[tuple[int, int, int]]:
    """All (x, y, z) with x <= y <= z and 4*x*y*z == n*(yz + xz + xy).

    Lexicographically ordered. The work grows with n times the divisor
    count of (n*x)**2, so a configurable cap guards against accidental
    huge inputs; this is a correctness oracle, not a production search.
    """
    if n < 2:
        raise DomainError(f"solve_bruteforce expects n >= 2, got {n}")
    if n > cap:
        raise ResourceLimitError(f"n={n} exceeds the cap {cap}")
    n_exps = _factor_into(n, {})
    solutions: list[tuple[int, int, int]] = []
    for x in range(n // 4 + 1, (3 * n) // 4 + 1):
        q = 4 * x - n
        m = n * x
        for u in _square_divisors_upto(_factor_into(x, dict(n_exps)), m):
            if (m + u) % q:
                continue
            v = m * m // u
            if (m + v) % q:
                continue
            y, z = (m + u) // q, (m + v) // q
            if y >= x and 4 * x * y * z == n * (y * z + x * z + x * y):
                solutions.append((x, y, z))
    solutions.sort()
    return solutions
