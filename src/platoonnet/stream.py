"""numpy's seeded uniform streams, reproduced bit for bit in pure Python.

`uniform(entropy, low, high, size)` returns what
`numpy.random.default_rng(entropy).uniform(low, high, size)` returns, and
`generate_state(entropy, n)` what `numpy.random.SeedSequence(entropy)
.generate_state(n)` returns, for an entropy that is a non-negative integer or
a (nested) list or tuple of them:

- SeedSequence: the entropy as little-endian uint32 words, hashed into a
  pool of four words (`hashmix`, then every word `mix`ed with every other),
  and `generate_state` words hashed out of the pool in turn;
- PCG64 (O'Neill, "PCG: A Family of Simple Fast Space-Efficient
  Statistically Good Algorithms for Random Number Generation", 2014): the
  128-bit LCG seeded from four 64-bit state words, stepped before each draw,
  with the XSL-RR output (high ^ low half, rotated right by the top 6 bits);
- `Generator.uniform`: low + (high - low) * ((next64 >> 11) * 2**-53).

So a job that draws a few hundred doubles does not load numpy.random, nor
the OpenSSL library that it pulls in through `secrets`.  numpy's own streams
stay the oracle of the tests.
"""

from __future__ import annotations

from operator import index

_M32 = (1 << 32) - 1
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # hashmix while entropy enters the pool
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # hashmix while state leaves it
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_UNIT = 2.0 ** -53


def _words(entropy) -> list[int]:
    """The entropy as uint32 words, least significant first, a sequence's
    items one after another (0 is one word); a negative integer is refused
    with a ValueError, as numpy refuses it."""
    if isinstance(entropy, (list, tuple)):
        return [word for item in entropy for word in _words(item)]
    value = index(entropy)
    if value < 0:
        raise ValueError("expected non-negative integer")
    words = [value & _M32]
    while value := value >> 32:
        words.append(value & _M32)
    return words


def _hash_constants(init: int, mult: int, count: int) -> list[int]:
    """The first count + 1 constants of one hashmix sequence: call i xors
    with constant i and multiplies by constant i + 1."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & _M32)
    return consts


# the pool's all-with-all mixing, in numpy's order: pool[dst] is mixed with
# hashmix(pool[src]), after the four hashmix calls that fill the pool
_PAIRS = [(src, dst) for src in range(_POOL_SIZE) for dst in range(_POOL_SIZE) if src != dst]
_A = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE + len(_PAIRS))
_MIXES = [(src, dst, _A[i], _A[i + 1]) for i, (src, dst) in enumerate(_PAIRS, _POOL_SIZE)]
_B = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL_SIZE)  # the eight words of PCG64's state


def _pool(words: list[int]) -> list[int]:
    """SeedSequence's mixed pool of four words from the entropy words."""
    pool = []
    for i, word in enumerate((words + [0] * _POOL_SIZE)[:_POOL_SIZE]):
        value = (word ^ _A[i]) * _A[i + 1] & _M32
        pool.append(value ^ value >> 16)
    for src, dst, xor, mult in _MIXES:
        value = (pool[src] ^ xor) * mult & _M32
        value = (_MIX_L * pool[dst] - _MIX_R * (value ^ value >> 16)) & _M32
        pool[dst] = value ^ value >> 16
    # then each word past the fourth is mixed into every pool word in turn
    extra = words[_POOL_SIZE:]
    consts = _hash_constants(_A[-1], _MULT_A, _POOL_SIZE * len(extra))
    for i, (word, dst) in enumerate((word, dst) for word in extra for dst in range(_POOL_SIZE)):
        value = (word ^ consts[i]) * consts[i + 1] & _M32
        value = (_MIX_L * pool[dst] - _MIX_R * (value ^ value >> 16)) & _M32
        pool[dst] = value ^ value >> 16
    return pool


def _state(pool: list[int], n_words: int) -> list[int]:
    """generate_state's uint32 words, hashed out of the pool in turn."""
    b = _B if n_words <= 2 * _POOL_SIZE else _hash_constants(_INIT_B, _MULT_B, n_words)
    out = []
    for i in range(n_words):
        value = (pool[i % _POOL_SIZE] ^ b[i]) * b[i + 1] & _M32
        out.append(value ^ value >> 16)
    return out


def generate_state(entropy, n_words: int) -> list[int]:
    """SeedSequence(entropy).generate_state(n_words): uint32 words."""
    return _state(_pool(_words(entropy)), n_words)


def uniform(entropy, low: float, high: float, size: int | None = None):
    """default_rng(entropy).uniform(low, high, size): one float when size is
    None, else a list of `size` floats.  high - low must be a finite double
    of at least 0; numpy's check of that is left to the callers."""
    low, span = float(low), float(high) - float(low)
    w = _state(_pool(_words(entropy)), 2 * _POOL_SIZE)
    # four uint64 words, each two uint32 words little-end first: the first
    # two are the initial state (high word first), the last two the sequence
    state, seq = w[1] << 96 | w[0] << 64 | w[3] << 32 | w[2], w[5] << 96 | w[4] << 64 | w[7] << 32 | w[6]
    inc = (seq << 1 | 1) & _M128
    state = ((inc + state) * _PCG_MULT + inc) & _M128
    draws = []
    for _ in range(1 if size is None else size):
        state = (state * _PCG_MULT + inc) & _M128
        xsl = (state >> 64 ^ state) & _M64
        rot = state >> 122
        draws.append(low + span * ((((xsl >> rot | xsl << (64 - rot)) & _M64) >> 11) * _UNIT))
    return draws[0] if size is None else draws
