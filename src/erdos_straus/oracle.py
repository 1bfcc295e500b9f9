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
    ((_, solutions),) = _solutions_x_major((n,), cap)
    return solutions


def _solutions_x_major(
    ns: Sequence[int], cap: int = DEFAULT_CAP
) -> Iterator[tuple[int, list[Triple]]]:
    """(n, solve_bruteforce(n)) for each of strictly ascending ns, in order.

    The input is checked before the walk starts: DomainError for n < 2
    or a sequence that does not ascend strictly, ResourceLimitError if
    the largest n exceeds cap. Each n is yielded as soon as x passes
    3n/4, so its solution list can be dropped once the caller is done.
    """
    for i, n in enumerate(ns):
        if n < 2:
            raise DomainError(f"the brute-force oracle expects n >= 2, got {n}")
        if i and n <= ns[i - 1]:
            raise DomainError(f"n must ascend strictly, got {ns[i - 1]} then {n}")
    if ns and ns[-1] > cap:
        raise ResourceLimitError(f"n={ns[-1]} exceeds the cap {cap}")
    return _walk(ns) if ns else iter(())


def _walk(ns: Sequence[int]) -> Iterator[tuple[int, list[Triple]]]:
    live: dict[int, tuple[list[int], list[Triple]]] = {}  # n -> (divisors of n**2, hits)
    done = 0  # ns[:done] are yielded
    for x in range(ns[0] // 4 + 1, 3 * ns[-1] // 4 + 1):
        # x <= 3 * ns[-1] // 4, so this stops before running off ns.
        while 3 * ns[done] // 4 < x:
            yield ns[done], sorted(set(live.pop(ns[done])[1]))
            done += 1
        # x serves the n with n/4 < x <= 3n/4, that is ceil(4x/3) <= n < 4x.
        first = bisect_left(ns, -(-4 * x // 3), done)
        last = bisect_left(ns, 4 * x, first)
        if first == last:
            continue
        x_divs = _square_divisors(x)
        for n in ns[first:last]:
            if n not in live:
                live[n] = (_square_divisors(n), [])
            n_divs, hits = live[n]
            q = 4 * x - n
            m = n * x
            low = q * x - m  # y >= x iff u >= low
            # u = a*b is symmetric in the two lists: bisect in the longer.
            outer, inner = (n_divs, x_divs) if len(n_divs) <= len(x_divs) else (x_divs, n_divs)
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
    for n in ns[done:]:
        yield n, sorted(set(live.pop(n)[1]))
