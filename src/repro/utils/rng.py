"""Deterministic random number stream management.

Experiments in the paper sweep hundreds of thousands of generated cases.  To
keep every case reproducible independently of execution order (and of how
many cases ran before it), each generated artefact — a DAG instance, a
resource pool, a resource-change trace — derives its own seeded
:class:`numpy.random.Generator` from a stable ``(root_seed, *tokens)`` key.

This mirrors common HPC practice of hierarchical seeding: the root seed
identifies the experiment, the tokens identify the artefact, and the derived
stream is independent of all siblings.

Pricing a generated case takes one uniform draw from each of tens of
thousands of such streams (one per job, edge and (job, resource) pair), and
constructing a ``Generator`` costs far more than the draw itself.
:func:`first_outputs` takes those first draws for a whole batch of token
paths, under any number of root seeds, at once: it re-implements NumPy's
``SeedSequence`` → ``PCG64`` seeding and first output on arrays, so element
*k* equals ``spawn_rng(root_k, *path_k).random()`` bit for bit, or the raw
``uint64`` output every first draw derives from.  :func:`spawn_uniforms` is
its one-root call for ``uniform(low, high)`` draws, and
:func:`uniform_blocks` draws whole (prefix, middle, last) grids of streams
straight into one buffer, blocks of it per grid, in one kernel pass.
Streams that take more than one draw of any distribution (the truth
factors of the error models) are drawn by :func:`stream_draws`: the same
kernel stops at each stream's seeded PCG64 state, and one generator is
set to it per stream.  :func:`spawn_rng` stays the single-draw path and
the reference the batched kernel is tested against.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, List, Sequence, Tuple, Union

import numpy as np

Token = Union[int, float, str, bytes]

__all__ = [
    "derive_seed",
    "spawn_rng",
    "first_outputs",
    "spawn_uniforms",
    "stream_draws",
    "uniform_blocks",
    "uniform_draws",
    "RandomSource",
]

#: derived seeds keep 63 bits so they stay positive Python ints
_SEED_MASK = (1 << 63) - 1


def _token_bytes(token: Token) -> bytes:
    """Render a seed token to a canonical byte string.

    NumPy scalars render like the Python value they hold, so a grid built
    with ``np.linspace`` or ``np.arange`` names the same streams as the
    equivalent list of Python numbers.
    """
    if isinstance(token, str):
        return b"s:" + token.encode("utf-8")
    if isinstance(token, np.generic):
        if isinstance(token, np.bool_):
            token = bool(token)
        elif isinstance(token, np.integer):
            token = int(token)
        elif isinstance(token, np.floating):
            token = float(token)
    if isinstance(token, bytes):
        return b"b:" + token
    if isinstance(token, bool):  # bool before int: bool is a subclass of int
        return b"o:" + (b"1" if token else b"0")
    if isinstance(token, int):
        return b"i:" + str(token).encode("ascii")
    if isinstance(token, float):
        # repr() keeps full precision and distinguishes 1.0 from 1
        return b"f:" + repr(token).encode("ascii")
    raise TypeError(f"unsupported seed token type: {type(token)!r}")


def derive_seed(root_seed: int, *tokens: Token) -> int:
    """Derive a 64-bit child seed from ``root_seed`` and a token path.

    The derivation is a SHA-256 hash over the canonical rendering of the
    root seed and each token, truncated to 63 bits so it stays a positive
    Python int accepted by :func:`numpy.random.default_rng`.

    Parameters
    ----------
    root_seed:
        The experiment-level seed.
    tokens:
        Any mix of ints, floats, strings or bytes identifying the artefact
        (e.g. ``("dag", v, ccr, instance_index)``).  NumPy bool, integer
        and floating scalars are normalised to the Python ``bool``/``int``/
        ``float`` they hold: ``np.float64(0.5)`` and ``0.5`` derive the same
        seed.  Any other type raises :class:`TypeError`.
    """
    digest = _extend(_root_hash(root_seed), tokens).digest()
    return int.from_bytes(digest[:8], "little") & _SEED_MASK


def _root_hash(root_seed: int):
    """SHA-256 state after the root seed, open for tokens."""
    return hashlib.sha256(_token_bytes(int(root_seed)))


def _extend(digest, tokens: Iterable[Token]):
    """Feed ``tokens`` into the SHA-256 state ``digest`` and return it."""
    for token in tokens:
        digest.update(b"\x00" + _token_bytes(token))
    return digest


def spawn_rng(root_seed: int, *tokens: Token) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for the given token path.

    The seed is :func:`derive_seed` of the same arguments, so tokens follow
    its normalisation rules (NumPy scalars name the same stream as the
    Python number they hold).
    """
    return np.random.default_rng(derive_seed(root_seed, *tokens))


def first_outputs(
    groups: Iterable[Tuple[int, Sequence[Token], Sequence[Token]]],
    *,
    raw: bool = False,
) -> np.ndarray:
    """First output of many token-path streams, in one vectorised pass.

    ``groups`` yields ``(root_seed, prefix, last_tokens)`` triples; together
    they name the streams ``(root_seed, *prefix, token)`` for every
    ``token`` of ``last_tokens``, group after group.  Element *k* of the
    result is ``spawn_rng(root_k, *path_k).random()`` bit for bit, or with
    ``raw=True`` the ``uint64`` ``spawn_rng(root_k,
    *path_k).bit_generator.random_raw()`` that every first draw derives
    from (``random()`` keeps its top 53 bits, ``integers(0, 2**62)`` is it
    shifted right by two).

    Seeds are hashed as :func:`_stream_seeds` does; a group that passes
    the same ``last_tokens`` object as the group before reuses its
    rendering.  All the seeds go through the generator kernel together, in
    blocks of :data:`_BLOCK`, so temporaries stay small for any batch.
    """
    seeds = _stream_seeds(_rendered_lasts(groups))
    if not seeds.size:
        return np.empty(0, dtype=_U64 if raw else np.float64)
    out = _seed_outputs(seeds)
    return out if raw else _unit_doubles(out)


def _rendered_lasts(
    groups: Iterable[Tuple[int, Sequence[Token], Sequence[Token]]],
) -> Iterator[Tuple[int, Sequence[Token], List[bytes]]]:
    """:func:`first_outputs` groups with each last token rendered as a
    suffix; a repeated ``last_tokens`` object is rendered once."""
    previous = suffixes = None
    for root_seed, prefix, last_tokens in groups:
        if last_tokens is not previous:
            suffixes = [b"\x00" + _token_bytes(token) for token in last_tokens]
            previous = last_tokens
        yield root_seed, prefix, suffixes


def _render(tokens: Sequence[Token]) -> bytes:
    """The bytes :func:`_extend` feeds the hash for ``tokens``."""
    return b"".join(b"\x00" + _token_bytes(token) for token in tokens)


def _stream_seeds(
    groups: Iterable[Tuple[int, Sequence[Token], Sequence[bytes]]],
) -> np.ndarray:
    """The derived seeds of many token-path streams, as a uint64 array.

    ``groups`` yields ``(root_seed, prefix, suffixes)`` triples, each
    suffix the :func:`_render` of the tokens that end a path; element *k*
    is ``derive_seed(root_k, *path_k)``, group after group.  A root seed
    is hashed once for a run of groups that share it, and each prefix once
    per group, whose SHA-256 state is copied per suffix.  Digests join in
    blocks of :data:`_BLOCK`, so no byte string outgrows one block.
    """
    chunks = []
    digests: list = []
    previous_root = root = None
    for root_seed, prefix, suffixes in groups:
        if root is None or root_seed != previous_root:
            root, previous_root = _root_hash(root_seed), root_seed
        copy = _extend(root.copy(), prefix).copy
        for suffix in suffixes:
            digest = copy()
            digest.update(suffix)
            digests.append(digest.digest())
        if len(digests) >= _BLOCK:
            chunks.append(_seed_words(digests))
            digests = []
    chunks.append(_seed_words(digests))
    return np.concatenate(chunks) & _U64(_SEED_MASK)


def uniform_draws(unit: np.ndarray, low, high) -> np.ndarray:
    """``Generator.uniform(low, high)`` of the streams whose first
    ``random()`` is ``unit``; ``low``/``high`` are scalars or arrays with one
    entry per stream."""
    low = np.asarray(low, dtype=np.float64)
    high = np.asarray(high, dtype=np.float64)
    return low + (high - low) * unit


def spawn_uniforms(
    root_seed: int,
    groups: Iterable[Tuple[Sequence[Token], Sequence[Token]]],
    low,
    high,
) -> np.ndarray:
    """First uniform draw of many token-path streams under one root seed.

    ``groups`` yields ``(prefix, last_tokens)`` pairs, as in
    :func:`first_outputs` without the root; element *k* of the result is
    ``float(spawn_rng(root_seed, *path_k).uniform(low_k, high_k))`` bit for
    bit, where ``low``/``high`` are scalars or arrays with one entry per
    path.
    """
    unit = first_outputs((root_seed, prefix, last) for prefix, last in groups)
    return uniform_draws(unit, low, high)


def uniform_blocks(
    grids: Sequence[Tuple[int, Sequence[Token], Sequence[Token], Sequence[Token], object, object]],
) -> List[np.ndarray]:
    """First uniform draws of many grids of streams, in one kernel pass.

    Grid ``(root_seed, prefix, middles, lasts, low, high)`` names the
    streams ``(root_seed, *prefix, middle, last)``; its block is a
    ``len(lasts) × len(middles)`` array whose ``[k, i]`` is
    ``float(spawn_rng(root_seed, *prefix, middles[i], lasts[k]).uniform(
    low[i], high[i]))`` bit for bit (``low``/``high`` are scalars or have
    one entry per middle).

    The blocks are consecutive C-order views of one float64 buffer: each
    derived seed is written into the slot its draw ends in, the kernel
    turns the whole buffer into raw outputs in place, and each block turns
    them into draws a few rows at a time, so no temporary outgrows
    :data:`_BLOCK` entries.  A root and prefix pair is hashed once per
    call, each middle once per grid, and each distinct last token is
    rendered once per call.
    """
    grids = list(grids)
    shapes = [(len(lasts), len(middles)) for _, _, middles, lasts, _, _ in grids]
    buffer = np.empty(sum(rows * cols for rows, cols in shapes), dtype=np.float64)
    seeds = buffer.view(_U64)
    prefixes: dict = {}
    rendered: dict = {}
    blocks = []
    start = 0
    for (root_seed, prefix, middles, lasts, _, _), shape in zip(grids, shapes):
        stop = start + shape[0] * shape[1]
        blocks.append((start, stop, shape))
        key = (int(root_seed), *map(_token_bytes, prefix))
        state = prefixes.get(key)
        if state is None:
            state = prefixes[key] = _extend(_root_hash(root_seed), prefix)
        suffixes = []
        for token in lasts:
            name = (type(token), token)
            suffix = rendered.get(name)
            if suffix is None:
                suffix = rendered[name] = b"\x00" + _token_bytes(token)
            suffixes.append(suffix)
        _hash_columns(state, middles, suffixes, seeds[start:stop].reshape(shape))
        start = stop
    if seeds.size:
        seeds &= _U64(_SEED_MASK)
        _seed_outputs(seeds)
    out = []
    for (start, stop, (rows, cols)), (*_, low, high) in zip(blocks, grids):
        raw = seeds[start:stop].reshape(rows, cols)
        block = buffer[start:stop].reshape(rows, cols)
        step = max(1, _BLOCK // max(cols, 1))
        for row in range(0, rows, step):
            block[row:row + step] = uniform_draws(_unit_doubles(raw[row:row + step]), low, high)
        out.append(block)
    return out


def _hash_columns(state, middles: Sequence[Token], suffixes: Sequence[bytes], out: np.ndarray):
    """Write the unmasked derived seed of ``(state, middles[i], last k)``
    into ``out[k, i]``, where ``suffixes[k]`` is the rendered last token.

    The digests of whole middles gather until about :data:`_BLOCK` are
    pending, then land in ``out`` column by column in one assignment.
    """
    width = len(suffixes)
    if not width:
        return
    per_flush = max(1, _BLOCK // width)
    digests: list = []
    first = 0
    for i, middle in enumerate(middles):
        copy = _extend(state.copy(), (middle,)).copy
        for suffix in suffixes:
            digest = copy()
            digest.update(suffix)
            digests.append(digest.digest())
        if i + 1 - first == per_flush or i + 1 == len(middles):
            chunk = _seed_words(digests).reshape(i + 1 - first, width)
            out[:, first:i + 1] = chunk.T
            digests = []
            first = i + 1


#: uint64 words per SHA-256 digest
_DIGEST_WORDS = 4


def _seed_words(digests: List[bytes]) -> np.ndarray:
    """The unmasked derived seed of each whole SHA-256 digest: its first
    eight bytes, little-endian, read through one strided view."""
    return np.frombuffer(b"".join(digests), dtype="<u8")[::_DIGEST_WORDS]


def stream_draws(
    groups: Iterable[Tuple[
        int, Sequence[Token], Sequence[Sequence[Token]], Callable[[np.random.Generator, Any], Any]
    ]],
) -> List[list]:
    """Draws from many token-path streams, seeded in one kernel pass.

    ``groups`` yields ``(root_seed, prefix, suffixes, draw)``; together
    they name the streams ``(root_seed, *prefix, *suffix)`` for every token
    sequence ``suffix`` of ``suffixes``, group after group.  Entry *k* of
    the result lists ``draw(rng, suffix)`` for every suffix of group *k*,
    where ``rng`` is in the state ``spawn_rng(root_seed, *prefix,
    *suffix)`` starts in, so any draws from it equal that generator's bit
    for bit.

    Every seed is hashed (:func:`_stream_seeds`) before the first draw, and
    one pass of the kernel turns the seeds into generator states.  One
    generator is set to each stream's state in turn, so ``draw`` must not
    keep it past its return.
    """
    groups = list(groups)
    seeds = _stream_seeds(
        (root_seed, prefix, [_render(suffix) for suffix in suffixes])
        for root_seed, prefix, suffixes, _ in groups
    )
    if not seeds.size:
        return [[] for _ in groups]
    columns = _seed_states(seeds)
    states = zip(*(column.tolist() for column in columns))
    bit_generator = np.random.PCG64(0)
    generator = np.random.Generator(bit_generator)
    inner = {"state": 0, "inc": 0}
    state = {"bit_generator": "PCG64", "state": inner, "has_uint32": 0, "uinteger": 0}
    out = []
    for _, _, suffixes, draw in groups:
        drawn = []
        # suffixes first: zip must not take a state past the group's last
        for suffix, (s_hi, s_lo, i_hi, i_lo) in zip(suffixes, states):
            inner["state"] = s_hi << 64 | s_lo
            inner["inc"] = i_hi << 64 | i_lo
            bit_generator.state = state
            drawn.append(draw(generator, suffix))
        out.append(drawn)
    return out


# ----------------------------------------------------------------------
# NumPy's SeedSequence -> PCG64 -> next_double, on arrays of seeds
# ----------------------------------------------------------------------
# The constants and the order of operations follow numpy/random/
# bit_generator.pyx (SeedSequence, pool size 4) and numpy/random/src/pcg64
# (PCG64: 128-bit LCG, XSL-RR output), whose streams NumPy keeps stable
# (NEP 19).  Every step runs on uint32/uint64 arrays, which wrap modulo
# 2**32 / 2**64 exactly like the C code.

_M32 = 0xFFFFFFFF
_U32 = np.uint32
_U64 = np.uint64

#: pairs processed per pass; keeps the ~40 temporaries under about 1 MB
_BLOCK = 4096


def _hash_consts(init: int, mult: int, count: int) -> Tuple[Tuple[int, int], ...]:
    """The (xor, multiply) constants of ``count`` successive hashmix calls.

    SeedSequence's running hash constant depends only on how many values
    were hashed before, never on their content, so the whole sequence is
    fixed.
    """
    out = []
    const = init
    for _ in range(count):
        nxt = (const * mult) & _M32
        out.append((const, nxt))
        const = nxt
    return tuple(out)


def _rows(consts: Sequence[Tuple[int, int]]) -> Tuple[np.ndarray, np.ndarray]:
    """Hashmix constants as ``(xor, multiply)`` uint32 columns, one row per
    call, so a stack of words mixes in one broadcast op."""
    xor, mult = zip(*consts)
    return np.array(xor, dtype=_U32)[:, None], np.array(mult, dtype=_U32)[:, None]


# 4 hashmix calls fill the pool, 12 more mix it: round ``src`` hashes word
# ``src`` once per other word, in ascending order of that destination
_POOL_HASH = _hash_consts(0x43B0D7E5, 0x931E8875, 16)
_FILL = _rows(_POOL_HASH[:4])
#: per round, its constants rotated to the order :func:`_pool` mixes the
#: destinations in: cyclically after the source (``src + 1``, ``src + 2``,
#: ``src + 3`` mod 4)
_ROUNDS = tuple(
    _rows(calls[src:] + calls[:src])
    for src, calls in enumerate(_POOL_HASH[4 + 3 * r:7 + 3 * r] for r in range(4))
)
# generate_state(4, uint64) hashes 8 uint32 words, reading the pool twice
_STATE = _rows(_hash_consts(0x8B51F9DD, 0x58F38DED, 8))
_MIX_L = _U32(0xCA01F9DD)
_MIX_R = _U32(0x4973F715)
_SHIFT = _U32(16)

_PCG_MULT_HI = 0x2360ED051FC65DA4
_PCG_MULT_LO = 0x4385DF649FCCF645


def _hashmix(words: np.ndarray, consts: Tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Hashmix each row of ``words`` with its row of ``consts`` (a new array)."""
    xor, mult = consts
    value = words ^ xor
    value *= mult
    value ^= value >> _SHIFT
    return value


def _pool(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """SeedSequence(seed).pool for seeds with 32-bit halves ``lo``/``hi``,
    as a ``(4, n)`` uint32 stack.

    A seed below 2**32 has one entropy word and the pool pads with zeros,
    which is what a zero high word gives, so every seed takes this path.

    The words live in a 7-row buffer: words 0-3, then copies of words 0-2,
    so round ``src``'s three destinations are the one slice
    ``src + 1 : src + 4``.  The copy a round first reads is taken right
    before it, when its word has had its last mix from an earlier round;
    the pool ends up in rows 4, 5, 6, 3.
    """
    buf = np.zeros((7, lo.size), dtype=_U32)
    buf[0], buf[1] = lo, hi
    buf[:4] = _hashmix(buf[:4], _FILL)
    for src, consts in enumerate(_ROUNDS):
        if src:
            buf[src + 3] = buf[src - 1]
        # the source word stays fixed within its round, so its three mixes
        # are independent
        dst = buf[src + 1:src + 4]
        hashed = _hashmix(buf[src], consts)
        hashed *= _MIX_R
        dst *= _MIX_L
        dst -= hashed
        dst ^= dst >> _SHIFT
    return buf[[4, 5, 6, 3]]


def _generate_state(pool: np.ndarray) -> np.ndarray:
    """``generate_state(4, uint64)`` of the pool, as a ``(4, n)`` uint64 stack."""
    words = _hashmix(np.concatenate((pool, pool)), _STATE).astype(_U64)
    words[1::2] <<= _U64(32)
    return words[0::2] | words[1::2]


def _mulhi64(a: np.ndarray, b: int) -> np.ndarray:
    """High 64 bits of ``a * b`` for uint64 ``a`` and a constant ``b``."""
    a0, a1 = a & _U64(_M32), a >> _U64(32)
    b0, b1 = _U64(b & _M32), _U64(b >> 32)
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> _U64(32)) + (p01 & _U64(_M32)) + (p10 & _U64(_M32))
    return a1 * b1 + (p01 >> _U64(32)) + (p10 >> _U64(32)) + (mid >> _U64(32))


def _add128(ah, al, bh, bl):
    lo = al + bl
    return ah + bh + (lo < al).astype(_U64), lo


def _pcg_step(hi, lo, inc_hi, inc_lo):
    """One PCG64 LCG step: ``state * MULT + inc`` modulo 2**128."""
    mul_lo = lo * _U64(_PCG_MULT_LO)
    mul_hi = _mulhi64(lo, _PCG_MULT_LO) + lo * _U64(_PCG_MULT_HI) + hi * _U64(_PCG_MULT_LO)
    return _add128(mul_hi, mul_lo, inc_hi, inc_lo)


def _seeded_state(seeds: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The PCG64 state ``default_rng(seed)`` starts in, for one block of
    uint64 seeds: ``(state_hi, state_lo, inc_hi, inc_lo)``, the 128-bit
    state and increment as 64-bit halves."""
    lo = (seeds & _U64(_M32)).astype(_U32)
    hi = (seeds >> _U64(32)).astype(_U32)
    s_hi, s_lo, q_hi, q_lo = _generate_state(_pool(lo, hi))
    # pcg64_set_seed: inc = (initseq << 1) | 1; state = inc + initstate,
    # then one step
    inc_hi = (q_hi << _U64(1)) | (q_lo >> _U64(63))
    inc_lo = (q_lo << _U64(1)) | _U64(1)
    hi64, lo64 = _add128(inc_hi, inc_lo, s_hi, s_lo)
    hi64, lo64 = _pcg_step(hi64, lo64, inc_hi, inc_lo)
    return hi64, lo64, inc_hi, inc_lo


def _first_raw(seeds: np.ndarray) -> np.ndarray:
    """``default_rng(seed).bit_generator.random_raw()`` for one block of
    uint64 seeds."""
    hi64, lo64, inc_hi, inc_lo = _seeded_state(seeds)
    # the first draw steps once more and outputs
    hi64, lo64 = _pcg_step(hi64, lo64, inc_hi, inc_lo)
    # XSL-RR: rotate (hi ^ lo) right by the top six bits of the state
    rot = hi64 >> _U64(58)
    xored = hi64 ^ lo64
    return (xored >> rot) | (xored << ((_U64(64) - rot) & _U64(63)))


def _unit_doubles(raw: np.ndarray) -> np.ndarray:
    """``random()`` from raw outputs: the top 53 bits over 2**53."""
    return (raw >> _U64(11)).astype(np.float64) * (1.0 / 9007199254740992.0)


def _seed_outputs(seeds: np.ndarray) -> np.ndarray:
    """Replace every seed ``s`` of a 1-D uint64 array by
    ``np.random.default_rng(int(s)).bit_generator.random_raw()``, in place,
    and return the array.

    Runs in blocks of :data:`_BLOCK` so temporaries stay small whatever
    the batch size.  One call is one pass of the kernel.
    """
    for start in range(0, seeds.size, _BLOCK):
        seeds[start:start + _BLOCK] = _first_raw(seeds[start:start + _BLOCK])
    return seeds


def _seed_states(seeds: np.ndarray) -> List[np.ndarray]:
    """The PCG64 state ``np.random.default_rng(int(s))`` starts in, for
    every seed ``s`` of a 1-D uint64 array: four uint64 columns, the
    128-bit state and increment as high and low halves (see
    :func:`_seeded_state`).

    Runs in blocks of :data:`_BLOCK`; one call is one pass of the kernel.
    """
    columns = [np.empty(seeds.size, dtype=_U64) for _ in range(4)]
    for start in range(0, seeds.size, _BLOCK):
        for column, words in zip(columns, _seeded_state(seeds[start:start + _BLOCK])):
            column[start:start + _BLOCK] = words
    return columns


def _seed_doubles(seeds: np.ndarray) -> np.ndarray:
    """``np.random.default_rng(int(s)).random()`` for every seed ``s`` in
    ``[0, 2**64)``."""
    return _unit_doubles(_seed_outputs(np.array(seeds, dtype=_U64)))


@dataclass(frozen=True)
class RandomSource:
    """A reusable factory of named, independent random streams.

    Examples
    --------
    >>> src = RandomSource(seed=42)
    >>> rng_costs = src.rng("costs", 3)
    >>> rng_shape = src.rng("shape", 3)
    >>> float(rng_costs.random()) != float(rng_shape.random())
    True
    """

    seed: int

    def rng(self, *tokens: Token) -> np.random.Generator:
        """Return the stream identified by ``tokens``."""
        return spawn_rng(self.seed, *tokens)

    def child(self, *tokens: Token) -> "RandomSource":
        """Return a child source whose streams are namespaced by ``tokens``."""
        return RandomSource(seed=derive_seed(self.seed, *tokens))

    def integers(self, low: int, high: int, *tokens: Token) -> int:
        """Draw a single integer in ``[low, high)`` from the named stream."""
        return int(self.rng(*tokens).integers(low, high))

    def choice(self, options: Iterable, *tokens: Token):
        """Pick one element of ``options`` using the named stream."""
        options = list(options)
        if not options:
            raise ValueError("cannot choose from an empty sequence")
        idx = int(self.rng(*tokens).integers(0, len(options)))
        return options[idx]
