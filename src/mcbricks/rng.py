"""Deterministic, splittable random numbers.

Every stochastic operation in the library consumes an explicit
:class:`RngKey`.  Keys are immutable values, never mutable generator
objects: drawing numbers and deriving child keys are pure functions of the
key, so any computation that receives a key is bitwise reproducible in any
execution order.  Keys, uniforms and permutations come from 64-bit integer
arithmetic and are the same on every platform.  Normal draws also go
through NumPy's ``log``, ``sqrt``, ``cos`` and ``sin``, whose last bits can
differ between NumPy builds and CPUs; they are reproducible on a given
NumPy build, and ``mcbricks selftest`` pins the integer streams.

The construction is counter-based.  A key holds 128 bits of state (two
64-bit words).  Each consumer first derives a 64-bit stream seed by
avalanche-mixing the key words with a small domain tag (one tag per kind of
operation, so e.g. child keys and uniform draws can never collide), then
reads the i-th word of that stream as ``mix64(seed + i * GOLDEN)``.  The
mixing function is the SplitMix64 finalizer, whose output is
equidistributed and passes standard statistical batteries.  Uniform doubles
take the top 53 bits of a word; normal draws pair two uniforms through the
Box-Muller transform.

Because every draw is a pure function of a counter and a key (the
counter-based scheme of Salmon et al. 2011, doi:10.1145/2063384.2063405),
many keys can be served at once.  A key array holds one key per row as an
``(n, 2)`` ``uint64`` matrix (``hi``, ``lo``); :func:`key_rows` builds one
from :class:`RngKey` values.  :func:`split_key_rows`, :func:`fold_in_rows`,
:func:`uniform_rows` and :func:`normal_rows` run the scalar functions'
arithmetic on whole arrays, and row i of their result is bit for bit the
scalar function's result for key i.  Ensembles (the SMC particle cloud)
draw through them, so particle i keeps exactly the stream a loop over
particles would give it.

:func:`fold_in_range` serves the other axis, the steps of one chain: it
returns the keys ``fold_in(key, i)`` for a range of ``i`` as a key array.
``core.step_inputs`` derives a chain's step keys a block at a time with
it, for ``core.run_chain`` and for warmup, and every built-in kernel draws
the whole block's randomness from that array through its draw atom.  NUTS
does too: every number a tree could use is fixed by the step key, so its
atom draws them all up front, whatever size the tree grows to.  The scalar
functions are unchanged by this and stay the path for single calls, such
as the fixed kernels under one ``RngKey`` and the step-size search.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

__all__ = [
    "RngKey",
    "make_key",
    "split_key",
    "fold_in",
    "uniform",
    "uniform_vector",
    "normal_vector",
    "normal_matrix",
    "permutation",
    "key_rows",
    "split_key_rows",
    "fold_in_rows",
    "fold_in_range",
    "uniform_rows",
    "normal_rows",
]

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15

# Domain tags. Distinct tags give unrelated streams for the same key, so a
# key can be used for exactly one operation without draws overlapping.
_TAG_SPLIT = 1
_TAG_UNIFORM = 2
_TAG_NORMAL = 3
_TAG_PERMUTATION = 4

_INV_2_53 = 1.0 / 9007199254740992.0  # 2**-53, exact in binary64

# uint64 operands of the array finalizer, built once instead of per call.
_NP_GOLDEN = np.uint64(_GOLDEN)
_NP_MUL1 = np.uint64(0xBF58476D1CE4E5B9)
_NP_MUL2 = np.uint64(0x94D049BB133111EB)
_NP_11 = np.uint64(11)
_NP_27 = np.uint64(27)
_NP_30 = np.uint64(30)
_NP_31 = np.uint64(31)


class RngKey(NamedTuple):
    """128-bit key for the counter-based generator.

    Treat keys as opaque: obtain the root key from :func:`make_key` and
    child keys from :func:`split_key` or :func:`fold_in`.  Reusing one key
    for two different draws produces correlated output; split instead.
    """

    hi: int
    lo: int


def _mix64(z: int) -> int:
    # SplitMix64 finalizer (Steele et al.), pure-Python 64-bit arithmetic.
    # Literal constants: a global lookup costs more than the arithmetic.
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & 0xFFFFFFFFFFFFFFFF
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


def _mix64_np(z: np.ndarray) -> np.ndarray:
    # Same finalizer on a uint64 array, in place; numpy wraps mod 2**64.
    z ^= z >> _NP_30
    z *= _NP_MUL1
    z ^= z >> _NP_27
    z *= _NP_MUL2
    z ^= z >> _NP_31
    return z


def _stream_seed(key: RngKey, tag: int) -> int:
    # Fold (hi, lo, tag) into a single well-mixed 64-bit stream seed.
    z = _mix64((key.hi + _GOLDEN) & _MASK64) ^ key.lo
    z = _mix64(z) ^ (tag * _GOLDEN & _MASK64)
    return _mix64(z)


def _word(seed: int, index: int) -> int:
    return _mix64((seed + index * _GOLDEN) & _MASK64)


def _words_np(seed, count: int) -> np.ndarray:
    # Words 0..count-1 of the stream, as a fresh array the caller may modify.
    # A column of n seeds (shape (n, 1)) gives the (n, count) words of n streams.
    return _mix64_np(np.arange(count, dtype=np.uint64) * _NP_GOLDEN + np.uint64(seed))


def _unit_doubles(words: np.ndarray) -> np.ndarray:
    # Uniform doubles on [0, 1) from the top 53 bits of each word; shifts
    # ``words`` in place.
    words >>= _NP_11
    draws = words.astype(np.float64)
    draws *= _INV_2_53
    return draws


def _box_muller(words: np.ndarray) -> np.ndarray:
    # Standard normals from pairs of words along the last axis: even words
    # give the radius, odd words the angle, every step in place on strided
    # views.  Adding 2**-53 to k * 2**-53 is exact, so the radius uniform is
    # (k + 1) * 2**-53, on (0, 1], and its logarithm is always finite.
    uniforms = _unit_doubles(words)
    radius = uniforms[..., 0::2]
    radius += _INV_2_53
    np.log(radius, out=radius)
    radius *= -2.0
    np.sqrt(radius, out=radius)
    angle = uniforms[..., 1::2]
    angle *= 2.0 * math.pi
    out = np.empty(uniforms.shape)
    even, odd = out[..., 0::2], out[..., 1::2]
    np.cos(angle, out=even)
    even *= radius
    np.sin(angle, out=odd)
    odd *= radius
    return out


def make_key(seed: int) -> RngKey:
    """Build the root key for a run from a user-supplied integer seed."""
    s = int(seed) & _MASK64
    return RngKey(_mix64(s), _mix64((s + _GOLDEN) & _MASK64))


def fold_in(key: RngKey, index: int) -> RngKey:
    """Derive the ``index``-th child key.

    ``fold_in(key, i) == split_key(key, n)[i]`` for any ``n > i``; use it
    to derive per-iteration keys lazily instead of materialising a long
    list up front.
    """
    if index < 0:
        raise ValueError("child index must be non-negative")
    seed = _stream_seed(key, _TAG_SPLIT)
    return RngKey(_word(seed, 2 * index), _word(seed, 2 * index + 1))


def split_key(key: RngKey, num: int) -> list[RngKey]:
    """Split ``key`` into ``num`` statistically independent child keys.

    A pure function of ``(key, num)``: children are pairwise distinct and
    distinct from the parent, and the same call always returns the same
    children.
    """
    if num < 1:
        raise ValueError("cannot split into fewer than one key")
    seed = _stream_seed(key, _TAG_SPLIT)
    if num <= 8:
        return [
            RngKey(_word(seed, 2 * i), _word(seed, 2 * i + 1))
            for i in range(num)
        ]
    words = _words_np(seed, 2 * num).tolist()
    return list(map(RngKey, words[0::2], words[1::2]))


def uniform(key: RngKey) -> float:
    """One double, uniform on [0, 1): the top 53 bits of one stream word."""
    return (_mix64(_stream_seed(key, _TAG_UNIFORM)) >> 11) * _INV_2_53


def uniform_vector(key: RngKey, num: int) -> np.ndarray:
    """``num`` uniform doubles on [0, 1).

    ``uniform_vector(key, 1)[0] == uniform(key)`` exactly: scalar and
    vector reads consume the same stream.
    """
    if num < 0:
        raise ValueError("draw count must be non-negative")
    return _unit_doubles(_words_np(_stream_seed(key, _TAG_UNIFORM), num))


def normal_vector(key: RngKey, num: int) -> np.ndarray:
    """``num`` independent standard normal doubles.

    Pairs of stream words go through Box-Muller.  The stream seed folds in
    ``num``, so requests of different lengths from the same key do not
    share a prefix.
    """
    if num < 0:
        raise ValueError("draw count must be non-negative")
    pairs = (num + 1) // 2
    seed = _stream_seed(key, _TAG_NORMAL)
    seed = _mix64((seed + num * _GOLDEN) & _MASK64)
    return _box_muller(_words_np(seed, 2 * pairs))[:num]


def normal_matrix(key: RngKey, rows: int, cols: int) -> np.ndarray:
    """Standard normal draws shaped ``(rows, cols)``."""
    return normal_vector(key, rows * cols).reshape(rows, cols)


def permutation(key: RngKey, num: int) -> np.ndarray:
    """A uniform random permutation of ``arange(num)``.

    Sorts ``num`` stream words; ties (probability ~ num**2 / 2**65) are
    broken by index via the stable sort, keeping the result deterministic.
    """
    if num < 0:
        raise ValueError("permutation size must be non-negative")
    words = _words_np(_stream_seed(key, _TAG_PERMUTATION), num)
    return np.argsort(words, kind="stable")


# ----------------------------------------------------------------------
# One key per row.  A key array has shape ``(n, 2)``: column 0 holds the
# ``hi`` words and column 1 the ``lo`` words, as ``uint64``.  Each function
# below is the scalar function of the same stem applied to every row, bit
# for bit, with the per-row arithmetic done in a handful of array calls.


def key_rows(keys) -> np.ndarray:
    """Stack :class:`RngKey` values into an ``(n, 2)`` ``uint64`` key array."""
    rows = np.array(list(keys), dtype=np.uint64)
    if rows.ndim != 2 or rows.shape[1] != 2:
        raise ValueError("key rows need one (hi, lo) pair per row")
    return rows


def _stream_seed_rows(keys: np.ndarray, tag: int) -> np.ndarray:
    # _stream_seed on every row: three _mix64 rounds folding in hi, lo, tag.
    z = _mix64_np(keys[:, 0] + _NP_GOLDEN)
    z ^= keys[:, 1]
    _mix64_np(z)
    z ^= np.uint64(tag * _GOLDEN & _MASK64)
    return _mix64_np(z)


def split_key_rows(keys: np.ndarray, num: int) -> np.ndarray:
    """``split_key`` on every row: shape ``(n, num, 2)``, child j of row i at ``[i, j]``."""
    if num < 1:
        raise ValueError("cannot split into fewer than one key")
    words = _words_np(_stream_seed_rows(keys, _TAG_SPLIT)[:, None], 2 * num)
    return words.reshape(keys.shape[0], num, 2)


def fold_in_rows(keys: np.ndarray, index: int) -> np.ndarray:
    """``fold_in(key, index)`` on every row, as an ``(n, 2)`` key array."""
    if index < 0:
        raise ValueError("child index must be non-negative")
    seed = _stream_seed_rows(keys, _TAG_SPLIT)
    children = np.empty((keys.shape[0], 2), dtype=np.uint64)
    children[:, 0] = seed + np.uint64(2 * index * _GOLDEN & _MASK64)
    children[:, 1] = seed + np.uint64((2 * index + 1) * _GOLDEN & _MASK64)
    return _mix64_np(children)


def fold_in_range(key: RngKey, start: int, stop: int) -> np.ndarray:
    """The keys ``fold_in(key, i)`` for ``start <= i < stop``, as an ``(m, 2)`` key array.

    Child i is words ``2 * i`` and ``2 * i + 1`` of the key's split stream,
    so the whole range is one contiguous run of stream words.
    """
    if not 0 <= start <= stop:
        raise ValueError("child range must satisfy 0 <= start <= stop")
    seed = (_stream_seed(key, _TAG_SPLIT) + 2 * start * _GOLDEN) & _MASK64
    return _words_np(seed, 2 * (stop - start)).reshape(-1, 2)


def uniform_rows(keys: np.ndarray) -> np.ndarray:
    """``uniform`` on every row: one double on [0, 1) per key."""
    return _unit_doubles(_mix64_np(_stream_seed_rows(keys, _TAG_UNIFORM)))


def normal_rows(keys: np.ndarray, num: int) -> np.ndarray:
    """``normal_vector(key, num)`` on every row, shaped ``(n, num)``.

    Both functions run the one Box-Muller body on the same strided views of
    each row's words, so each row gets the scalar draws.
    """
    if num < 0:
        raise ValueError("draw count must be non-negative")
    pairs = (num + 1) // 2
    seed = _stream_seed_rows(keys, _TAG_NORMAL)
    seed += np.uint64(num * _GOLDEN & _MASK64)
    return _box_muller(_words_np(_mix64_np(seed)[:, None], 2 * pairs))[:, :num]
