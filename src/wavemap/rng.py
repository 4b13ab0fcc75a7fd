"""Seeded random numbers for data families: xorshift64*.

The generator is pinned by algorithm, not by library, so that scenario
files reproduce bit-identically across implementations.  State update and
output (Vigna's xorshift64* with the 2685821657736338717 multiplier):

    x ^= x >> 12;  x ^= (x << 25) & (2^64 - 1);  x ^= x >> 27
    output = (x * 2685821657736338717) mod 2^64

Uniform doubles take the top 53 bits of the output over 2^53, giving
values in [0, 1).  A zero seed (invalid for xorshift) is replaced by the
splitmix64 constant 0x9E3779B97F4A7C15.
"""

MASK64 = (1 << 64) - 1
MULTIPLIER = 2685821657736338717
ZERO_SEED_REPLACEMENT = 0x9E3779B97F4A7C15


class XorShift64Star:
    def __init__(self, seed):
        seed = int(seed) & MASK64
        self.state = seed if seed != 0 else ZERO_SEED_REPLACEMENT

    def next_u64(self):
        x = self.state
        x ^= x >> 12
        x = (x ^ (x << 25)) & MASK64
        x ^= x >> 27
        self.state = x
        return (x * MULTIPLIER) & MASK64

    def uniform(self, lo=0.0, hi=1.0):
        u = (self.next_u64() >> 11) * (1.0 / (1 << 53))
        return lo + (hi - lo) * u
