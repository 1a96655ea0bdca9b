"""Fixed reference work: the benchmark's yardstick for the host's speed.

Usage: python3 perfbench/ref_work.py

A cold process doing a fixed amount of the kinds of Python work forestalg
does (sparse Fraction elimination with a column heap, recursive set
partitions, tuple and dict bookkeeping), with no forestalg code.  The
benchmark times it between its ops and scales its times by how long this
took, which cancels the host's speed swings; a change to forestalg cannot
move it.
"""

import heapq
from fractions import Fraction
from itertools import combinations


def sparse_rank(n: int, seed: int) -> int:
    """Rank of a seeded sparse rational matrix by incremental echelon."""
    x = seed
    pivots: dict[int, dict] = {}
    for _ in range(n):
        row = {}
        for _ in range(8):
            x = (x * 1103515245 + 12345) % 2**31
            row[x % n] = Fraction(x % 7 - 3, 1 + x % 4) or Fraction(1)
        heap = sorted(row)
        seen = set()
        while heap:
            c = heapq.heappop(heap)
            if c in seen:
                continue
            seen.add(c)
            v, piv = row.get(c), pivots.get(c)
            if not v or piv is None:
                continue
            for c2, w in piv.items():
                fresh = c2 not in row
                nv = row.get(c2, 0) - v * w
                if nv:
                    row[c2] = nv
                    if fresh and c2 not in seen:
                        heapq.heappush(heap, c2)
                else:
                    row.pop(c2, None)
        if row:
            lead = min(row)
            inv = 1 / row[lead]
            pivots[lead] = {c: v * inv for c, v in row.items()}
    return len(pivots)


def odd_partitions(n: int) -> int:
    """Number of partitions of n labels into blocks of odd size."""
    def rec(rest: tuple) -> int:
        if not rest:
            return 1
        others = rest[1:]
        return sum(rec(tuple(x for x in others if x not in mates))
                   for k in range(0, len(others) + 1, 2)
                   for mates in combinations(others, k))
    return rec(tuple(range(n)))


def triangle_pairs(n: int) -> int:
    """Distinct label multisets of two triples sharing at most one label."""
    seen: dict[tuple, int] = {}
    for t in combinations(range(n), 3):
        for u in combinations(range(n), 3):
            if len(set(t) & set(u)) <= 1:
                key = tuple(sorted(t + u))
                seen[key] = seen.get(key, 0) + 1
    return len(seen)


if __name__ == "__main__":
    print(sparse_rank(70, 12345), odd_partitions(9), triangle_pairs(9))
