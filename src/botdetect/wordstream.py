"""numpy's `Generator.random`, `integers` and `poisson`, drawn from a PCG64's
raw words.

`draws(bit_generator)` returns three functions that give what
`numpy.random.Generator(bit_generator)` would give for the same calls in the
same order, as Python numbers. They copy numpy's algorithms:

- `random()` is `next_double`: the word's top 53 bits times 2**-53;
- `integers(low, high)` is Lemire's bounded draw on 32-bit values (see
  `forest.feature_subsets`): the half the generator's state holds pending,
  if any, then each word's low half and then its high half, a half left
  pending staying pending across whole-word draws;
- `poisson(lam)` is numpy's `random_poisson`: 0 at lam 0, the
  multiplication method below lam 10 and Hörmann's PTRS (transformed
  rejection with squeeze, with numpy's `random_loggam`) from 10 up.

So the numbers depend only on PCG64's raw words, which NumPy keeps stable
across versions (NEP 19), and on libm's `exp` and `log` (`sqrt` is correctly
rounded everywhere), not on the distribution code inside `Generator`, which
NumPy does not keep stable.

Words are pulled CHUNK_WORDS at a time through `random_raw` and turned into
arrays of doubles and of 32-bit halves once per chunk; every draw then reads
the next word's numbers through C iterators. The stream takes the bit
generator over: it reads up to a chunk ahead, so nothing else may draw from
it afterwards.
"""

from __future__ import annotations

from array import array
from functools import lru_cache
from itertools import chain, repeat
from math import exp, floor, log, sqrt
from operator import itemgetter

# Small: the benchmark harness starts every job from the process that
# generated the job's corpus, and the job's peak RSS counts that process's.
CHUNK_WORDS = 2048

_TWO_32 = 1 << 32

_HALF_LOG_2PI = 0.5 * 1.8378770664093453e+00


def _chunk(bit_generator):
    """The next CHUNK_WORDS words, each as (double, low half, high half).
    The arrays make each word's Python numbers only when it is read."""
    words = bit_generator.random_raw(CHUNK_WORDS)
    return zip(array("d", ((words >> 11) * 2.0**-53).tobytes()),
               array("Q", (words & 0xFFFFFFFF).tobytes()), array("Q", (words >> 32).tobytes()))


def _loggam(x: float) -> float:
    """log Γ(x) for x >= 1, by numpy's `random_loggam`'s operations: below
    7, Stirling's series at x + n for n = int(7 - x), less log(x + n - 1),
    ..., log(x); its Horner loop is written out, from a[9] down."""
    if x == 1.0 or x == 2.0:
        return 0.0
    n = int(7 - x) if x < 7.0 else 0
    x0 = x + n
    x2 = (1.0 / x0) * (1.0 / x0)
    gl0 = ((((((((-1.39243221690590e+00 * x2 + 1.796443723688307e-01) * x2
                 - 2.955065359477124e-02) * x2 + 6.410256410256410e-03) * x2
               - 1.917526917526918e-03) * x2 + 8.417508417508418e-04) * x2
             - 5.952380952380952e-04) * x2 + 7.936507936507937e-04) * x2
           - 2.777777777777778e-03) * x2 + 8.333333333333333e-02
    gl = gl0 / x0 + _HALF_LOG_2PI + (x0 - 0.5) * log(x0) - x0
    for _ in range(n):
        gl -= log(x0 - 1.0)
        x0 -= 1.0
    return gl


@lru_cache(maxsize=64)
def _ptrs_constants(lam: float) -> tuple:
    """PTRS's per-lam constants: 2a, b, v_r, a, log(1 / alpha), log(lam)."""
    b = 0.931 + 2.53 * sqrt(lam)
    a = -0.059 + 0.02483 * b
    invalpha = 1.1239 + 1.1328 / (b - 3.4)
    vr = 0.9277 - 3.6224 / (b - 2)
    return 2 * a, b, vr, a, log(invalpha), log(lam)


def draws(bit_generator):
    """(random, integers, poisson) over `bit_generator`'s raw words; see the
    module docstring. `integers(low, high)` takes ranges of 1 to 2**32 - 1
    values (numpy's `integers(low, high, size=n)` draws n of them in turn);
    `poisson(lam)` takes 0 <= lam."""
    state = bit_generator.state
    words = chain.from_iterable(map(_chunk, repeat(bit_generator)))
    random = map(itemgetter(0), words).__next__
    halves = chain.from_iterable(map(itemgetter(1, 2), words))
    if state["has_uint32"]:
        halves = chain((state["uinteger"],), halves)
    half = halves.__next__

    def integers(low, high):
        n = high - low
        if not 1 < n < _TWO_32:
            if n == 1:
                return low
            raise ValueError(f"integers({low}, {high}) needs 1 to 2**32 - 1 values")
        product = half() * n
        if product & 0xFFFFFFFF < n:  # 2**32 % n < n: a low half >= n is kept
            threshold = _TWO_32 % n
            while product & 0xFFFFFFFF < threshold:
                product = half() * n
        return low + (product >> 32)

    def poisson(lam):
        if not lam >= 10.0:  # NaN included
            if lam > 0.0:  # the multiplication method; 1.0 * U is U
                enlam = exp(-lam)
                x = 0
                prod = random()
                while prod > enlam:
                    x += 1
                    prod *= random()
                return x
            if lam == 0.0:
                return 0
            raise ValueError(f"poisson({lam}) needs lam >= 0")
        a2, b, vr, a, log_invalpha, loglam = _ptrs_constants(lam)
        while True:
            u = random() - 0.5
            v = random()
            us = 0.5 - abs(u)
            if us >= 0.07 and v <= vr:
                return floor((a2 / us + b) * u + lam + 0.43)
            if us == 0.0:
                continue  # C's 2a / us is inf there, so k < 0: numpy draws again
            k = floor((a2 / us + b) * u + lam + 0.43)
            if k < 0 or (us < 0.013 and v > us):
                continue
            # C's log(0) is -inf, which accepts: numpy returns k at v == 0.
            if v == 0.0 or (log(v) + log_invalpha - log(a / (us * us) + b)
                            <= -lam + k * loglam - _loggam(k + 1.0)):
                return k

    return random, integers, poisson
