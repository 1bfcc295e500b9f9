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
u <= m because y <= z means u <= v; y >= x means u >= q*x - m.
Walking the divisors u of m**2 in that window with u = -m (mod q),
and keeping those whose cofactor v also gives an integer
z = (m + v)/q, therefore lists every solution. Each hit is re-checked
by y >= x and the exact identity.

The walk is x-major: each x is factored once, and the divisors of x**2
are listed once, for every n that x serves. Every divisor of
m**2 = n**2 * x**2 is a product a*b with a | n**2 and b | x**2, so
the products of the two lists, cut to the window by bisect, cover all
u; when gcd(n, x) > 1 a product can repeat, so the hits are passed
through a set before they are sorted.

The walk yields each (x, n) with a solution as its own group, the
moment x is done with n, so a caller that checks group by group holds
one group at a time; the divisors of n**2 are kept only while x lies
in n's window n/4 < x <= 3n/4. solve_bruteforce(n) joins the groups
of n alone.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterator, Sequence

from .errors import DomainError, ResourceLimitError

__all__ = ["DEFAULT_CAP", "solve_bruteforce"]

DEFAULT_CAP = 100_000

Triple = tuple[int, int, int]


# Own trial division rather than arith's helpers, so that the oracle
# shares no code with the witness route it is meant to check.
def _factor_into(k: int) -> dict[int, int]:
    """The prime exponents of k, by trial division."""
    exps: dict[int, int] = {}
    d = 2
    while d * d <= k:
        while k % d == 0:
            exps[d] = exps.get(d, 0) + 1
            k //= d
        d += 1
    if k > 1:
        exps[k] = exps.get(k, 0) + 1
    return exps


def _square_divisors(k: int) -> list[int]:
    """All divisors of k**2, ascending."""
    divs = [1]
    for prime, e in _factor_into(k).items():
        step = divs
        for _ in range(2 * e):
            step = [d * prime for d in step]
            divs = divs + step
    divs.sort()
    return divs


def solve_bruteforce(n: int, *, cap: int = DEFAULT_CAP) -> list[Triple]:
    """All (x, y, z) with x <= y <= z and 4*x*y*z == n*(yz + xz + xy).

    Lexicographically ordered. The work grows with n times the divisor
    count of (n*x)**2, so a configurable cap guards against accidental
    huge inputs; this is a correctness oracle, not a production search.
    """
    return [t for _, _, triples in _solution_groups((n,), cap) for t in triples]


def _solution_groups(
    ns: Sequence[int], cap: int = DEFAULT_CAP
) -> Iterator[tuple[int, int, list[Triple]]]:
    """(x, n, the solutions of n with that x) for strictly ascending ns.

    One group for each pair with a solution, in (x, n) order; each
    group's triples are sorted and distinct. The input is checked by
    the call, before anything is yielded: DomainError for n < 2 or a
    sequence that does not ascend strictly, ResourceLimitError if the
    largest n exceeds cap. The walk holds the divisors of n**2 only
    while x is in n's window, and no solution past its group.
    """
    for i, n in enumerate(ns):
        if n < 2:
            raise DomainError(f"the brute-force oracle expects n >= 2, got {n}")
        if i and n <= ns[i - 1]:
            raise DomainError(f"n must ascend strictly, got {ns[i - 1]} then {n}")
    if ns and ns[-1] > cap:
        raise ResourceLimitError(f"n={ns[-1]} exceeds the cap {cap}")

    def walk() -> Iterator[tuple[int, int, list[Triple]]]:
        n_divs: dict[int, list[int]] = {}  # n -> divisors of n**2, while x serves n
        done = 0  # x has passed 3n/4 for the n in ns[:done]
        for x in range(ns[0] // 4 + 1, 3 * ns[-1] // 4 + 1):
            # x <= 3 * ns[-1] // 4, so this stops before running off ns.
            while 3 * ns[done] // 4 < x:
                del n_divs[ns[done]]
                done += 1
            # x serves the n with n/4 < x <= 3n/4, that is ceil(4x/3) <= n < 4x.
            first = bisect_left(ns, -(-4 * x // 3), done)
            last = bisect_left(ns, 4 * x, first)
            if first == last:
                continue
            x_divs = _square_divisors(x)
            for n in ns[first:last]:
                if n not in n_divs:
                    n_divs[n] = _square_divisors(n)
                divs = n_divs[n]
                q = 4 * x - n
                m = n * x
                low = q * x - m  # y >= x iff u >= low
                hits = []
                # u = a*b is symmetric in the two lists: bisect in the longer.
                outer, inner = (divs, x_divs) if len(divs) <= len(x_divs) else (x_divs, divs)
                for a in outer:
                    if a > m:
                        break
                    lo = bisect_left(inner, -(-low // a)) if low > 0 else 0
                    for b in inner[lo : bisect_right(inner, m // a)]:
                        u = a * b
                        if (m + u) % q:
                            continue
                        v = m * m // u
                        if (m + v) % q:
                            continue
                        y, z = (m + u) // q, (m + v) // q
                        if y >= x and 4 * x * y * z == n * (y * z + x * z + x * y):
                            hits.append((x, y, z))
                if hits:
                    yield x, n, sorted(set(hits))

    return walk() if ns else iter(())
