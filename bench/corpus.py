"""Seeded inputs of the benchmark.

Everything here is pure Python and independent of the program under
test, so the inputs stay the same across versions of it:

- ``Rng``: a splitmix64 generator.  The screen pool is tied to committed
  expected digests, so its values must never depend on the interpreter's
  own ``random`` module.
- ``survey_tuples``: every tuple the structured search of the seed code
  tests in one (n, index, k, cap) slice, in its order.  It is the survey
  corpus: a unit prefix, middle weights, tails paired with the degrees,
  every excess at least 1.
- ``screen_pool`` / ``screen_sample``: the fixed pool of the ``screen``
  workload and the seeded sample drawn from it.
"""

from __future__ import annotations

MASK64 = (1 << 64) - 1

# Seed of the fixed screen pool.  Changing it or the pool shape voids the
# committed digests in expected.json.
POOL_SEED = 20190627
SMALL_POOL = 5000
LARGE_POOL = 300
LARGE_LO = 900_000_000
LARGE_HI = 1_000_000_000


class Rng:
    """splitmix64; ``below`` has a modulo bias under 2^-40 for our ranges."""

    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        return self.next64() % n

    def between(self, lo: int, hi: int) -> int:
        return lo + self.below(hi - lo + 1)

    def shuffle(self, items: list) -> list:
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]
        return items

    def sample(self, population: int, count: int) -> list[int]:
        """``count`` distinct indices below ``population``, in random order.

        A partial Fisher-Yates shuffle of range(population), kept sparse
        so that the cost is O(count).
        """
        moved: dict[int, int] = {}
        out = []
        for i in range(count):
            j = i + self.below(population - i)
            out.append(moved.get(j, j))
            moved[j] = moved.get(i, i)
        return out


def survey_tuples(n: int, index: int, k: int, cap: int):
    """Yield (weights, degrees) for every tuple the seed search tests.

    Mirrors the structured search: unit prefix of length k + index,
    non-decreasing middle weights up to the cap, tails from the last
    middle up to min(cap, sum(middles) + 1), and degrees d_j = t_j + e_j
    with e_j >= 1, sum(e) = k + sum(middles), degrees non-decreasing and
    the last excess at least the last tail.  Requires k >= 1.
    """
    prefix = (1,) * (k + index)
    middle_count = n - k - index + 1

    def middles(ms):
        if len(ms) == middle_count:
            yield ms
            return
        for value in range(ms[-1] if ms else 1, cap + 1):
            yield from middles(ms + (value,))

    for ms in middles(()):
        msum = sum(ms)
        tail_hi = min(cap, msum + 1)
        lo = ms[-1] if ms else 1

        def tails(ts):
            if len(ts) == k:
                yield ts
                return
            for value in range(ts[-1] if ts else lo, tail_hi + 1):
                yield from tails(ts + (value,))

        for ts in tails(()):
            min_last = ts[-1]

            def excesses(j, prev_degree, rem, ds):
                if j == k - 1:
                    degree = ts[j] + rem
                    if rem >= 1 and rem >= min_last and degree >= prev_degree:
                        yield ds + (degree,)
                    return
                reserve = (k - 2 - j) + max(1, min_last)
                for e in range(max(1, prev_degree - ts[j]), rem - reserve + 1):
                    yield from excesses(j + 1, ts[j] + e, rem - e, ds + (ts[j] + e,))

            weights = prefix + ms + ts
            for degrees in excesses(0, 0, k + msum, ()):
                yield weights, degrees


def survey_sample(slices, totals, size: int, seed: int):
    """A uniform sample of ``size`` tuples from the union of the slices.

    ``totals`` are the expected corpus sizes; the walk checks them and
    raises ValueError on a mismatch, so a sample is only ever drawn from
    the corpus the totals describe.
    """
    population = sum(totals)
    wanted = sorted(Rng(seed).sample(population, size))
    picked = []
    position = 0
    cursor = 0
    for query, total in zip(slices, totals):
        count = 0
        for item in survey_tuples(*query):
            if cursor < len(wanted) and wanted[cursor] == position:
                picked.append(item)
                cursor += 1
            position += 1
            count += 1
        if count != total:
            raise ValueError(f"survey corpus {query} has {count} tuples, expected {total}")
    return Rng(seed ^ 0x5EED).shuffle(picked)


def _small_entry(rng: Rng):
    """Weights <= 20 with a random unit prefix, 1..4 degrees, unsorted."""
    count = rng.between(3, 10)
    weights = [1 if rng.below(5) < 2 else rng.between(2, 20) for _ in range(count)]
    k = rng.between(1, min(4, count - 1))
    degrees = []
    for _ in range(k):
        if rng.below(3) == 0:
            degrees.append(2 * weights[rng.below(count)])
        else:
            degrees.append(rng.between(2, 40))
    return tuple(rng.shuffle(weights)), tuple(rng.shuffle(degrees))


def _large_entry(rng: Rng):
    """Three unit weights, five weights in [9e8, 1e9], 2..4 degrees, unsorted."""
    big = [rng.between(LARGE_LO, LARGE_HI) for _ in range(5)]
    weights = [1, 1, 1] + big
    degrees = []
    for _ in range(rng.between(2, 4)):
        if rng.below(2) == 0:
            degrees.append(2 * big[rng.below(5)])
        else:
            degrees.append(rng.between(LARGE_LO, 4 * LARGE_HI))
    return tuple(rng.shuffle(weights)), tuple(rng.shuffle(degrees))


def screen_pool():
    """The fixed (small, large) pools of the screen workload."""
    rng = Rng(POOL_SEED)
    small = [_small_entry(rng) for _ in range(SMALL_POOL)]
    large = [_large_entry(rng) for _ in range(LARGE_POOL)]
    return small, large


def screen_sample(seed: int, n_small: int, n_large: int):
    """Seeded pool indices: ``n_small`` small then ``n_large`` large entries."""
    rng = Rng(seed)
    return rng.sample(SMALL_POOL, n_small), rng.sample(LARGE_POOL, n_large)
