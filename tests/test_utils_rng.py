"""Tests for deterministic RNG stream derivation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils import rng as rng_module
from repro.utils.rng import (
    RandomSource,
    _seed_doubles,
    derive_seed,
    first_outputs,
    spawn_rng,
    stream_draws,
    spawn_uniforms,
    uniform_blocks,
)
from repro.workload.streams import TenantSpec


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, "a", 1) == derive_seed(42, "a", 1)

    def test_different_tokens_differ(self):
        assert derive_seed(42, "a") != derive_seed(42, "b")

    def test_different_roots_differ(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_token_order_matters(self):
        assert derive_seed(1, "a", "b") != derive_seed(1, "b", "a")

    def test_int_and_float_tokens_distinct(self):
        assert derive_seed(0, 1) != derive_seed(0, 1.0)

    def test_bool_distinct_from_int(self):
        assert derive_seed(0, True) != derive_seed(0, 1)

    def test_bytes_token(self):
        assert derive_seed(0, b"x") == derive_seed(0, b"x")

    def test_result_fits_in_63_bits(self):
        for token in range(50):
            seed = derive_seed(7, token)
            assert 0 <= seed < 2**63

    def test_unsupported_token_type_raises(self):
        with pytest.raises(TypeError):
            derive_seed(0, object())

    def test_numpy_scalar_tokens_name_the_python_stream(self):
        assert derive_seed(1, np.float64(0.5)) == derive_seed(1, 0.5)
        assert derive_seed(1, np.float32(0.5)) == derive_seed(1, 0.5)
        assert derive_seed(1, np.int64(3)) == derive_seed(1, 3)
        assert derive_seed(1, np.uint8(3)) == derive_seed(1, 3)
        assert derive_seed(1, np.bool_(True)) == derive_seed(1, True)
        assert derive_seed(1, np.str_("a")) == derive_seed(1, "a")
        # a linspace grid names the same streams as the Python list
        grid = np.linspace(0.1, 0.5, 5)
        assert [derive_seed(2, "ccr", x) for x in grid] == [
            derive_seed(2, "ccr", x) for x in grid.tolist()
        ]
        # normalisation keeps NumPy types as distinct as the Python ones
        assert derive_seed(1, np.int64(1)) != derive_seed(1, np.float64(1.0))
        assert derive_seed(1, np.bool_(True)) != derive_seed(1, np.int64(1))

    def test_python_token_seeds_are_pinned(self):
        # values of the original rendering: normalising NumPy scalars must
        # not move any stream named with Python tokens
        assert derive_seed(42, "wij", "n1", "r3") == 1698987325748867214
        assert derive_seed(7, 1, 0.5, True, b"x", "s") == 4911767903557162800
        assert derive_seed(0) == 6962474909302933257


class TestSpawnRng:
    def test_reproducible_stream(self):
        a = spawn_rng(5, "stream").random(10)
        b = spawn_rng(5, "stream").random(10)
        assert np.allclose(a, b)

    def test_independent_streams(self):
        a = spawn_rng(5, "one").random(10)
        b = spawn_rng(5, "two").random(10)
        assert not np.allclose(a, b)


class TestRandomSource:
    def test_named_streams_reproducible(self):
        src = RandomSource(seed=9)
        assert src.rng("x").random() == src.rng("x").random()

    def test_child_namespacing(self):
        src = RandomSource(seed=9)
        child = src.child("sub")
        assert child.rng("x").random() != src.rng("x").random()

    def test_integers_in_range(self):
        src = RandomSource(seed=3)
        for i in range(20):
            value = src.integers(2, 7, "draw", i)
            assert 2 <= value < 7

    def test_choice_picks_member(self):
        src = RandomSource(seed=3)
        options = ["a", "b", "c"]
        assert src.choice(options, "pick") in options

    def test_choice_empty_raises(self):
        src = RandomSource(seed=3)
        with pytest.raises(ValueError):
            src.choice([], "pick")


_tokens = st.one_of(
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=12),
    st.binary(max_size=12),
    st.booleans(),
)


@st.composite
def _batches(draw):
    groups = draw(
        st.lists(
            st.tuples(st.lists(_tokens, max_size=3), st.lists(_tokens, max_size=4)),
            max_size=4,
        )
    )
    n = sum(len(last) for _, last in groups)
    bound = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
    low = draw(st.lists(bound, min_size=n, max_size=n))
    width = draw(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=n, max_size=n))
    return groups, low, [lo + w for lo, w in zip(low, width)]


class TestSpawnUniforms:
    """The batched kernel against the per-path ``Generator`` it replaces.

    CI installs NumPy unpinned; these tests are what notices an upgrade
    that moves the ``SeedSequence``/``PCG64`` streams the kernel mirrors.
    """

    @settings(max_examples=60, deadline=None)
    @given(root=st.integers(min_value=-(2**64), max_value=2**64), batch=_batches())
    def test_equals_spawn_rng_uniform(self, root, batch):
        groups, low, high = batch
        got = spawn_uniforms(root, groups, np.array(low), np.array(high))
        paths = [(*prefix, token) for prefix, last in groups for token in last]
        want = [
            float(spawn_rng(root, *path).uniform(lo, hi))
            for path, lo, hi in zip(paths, low, high)
        ]
        assert got.dtype == np.float64
        assert got.tolist() == want

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**63 - 1])
    def test_seed_to_double_edges(self, seed):
        got = _seed_doubles(np.array([seed], dtype=np.uint64))
        assert got.tolist() == [np.random.default_rng(seed).random()]

    def test_seed_to_double_across_blocks(self):
        seeds = np.random.default_rng(5).integers(0, 2**63, size=9000, dtype=np.uint64)
        want = [np.random.default_rng(int(s)).random() for s in seeds]
        kept = seeds.copy()
        assert _seed_doubles(seeds).tolist() == want
        assert np.array_equal(seeds, kept)  # the caller's seeds stay as they were

    def test_empty_batch(self):
        out = spawn_uniforms(3, [], 0.0, 1.0)
        assert out.shape == (0,) and out.dtype == np.float64
        assert spawn_uniforms(3, [(("a",), [])], 0.0, 1.0).shape == (0,)

    def test_degenerate_range_returns_low(self):
        # beta = 0 (high == low) and a zero base cost: every draw is low
        out = spawn_uniforms(4, [(("wij", "n1"), ["r1", "r2"])], [7.5, 0.0], [7.5, 0.0])
        assert out.tolist() == [7.5, 0.0]
        assert out.tolist() == [
            float(spawn_rng(4, "wij", "n1", "r1").uniform(7.5, 7.5)),
            float(spawn_rng(4, "wij", "n1", "r2").uniform(0.0, 0.0)),
        ]

    def test_shared_last_tokens_are_rendered_per_group(self):
        rids = ["r1", 2, 3.0]
        groups = [(("wij", job), rids) for job in ("n1", "n2")] + [(("x",), [b"r1"])]
        want = [
            float(spawn_rng(9, *prefix, token).uniform(1.0, 2.0))
            for prefix, last in groups
            for token in last
        ]
        assert spawn_uniforms(9, groups, 1.0, 2.0).tolist() == want


_roots = st.integers(min_value=-(2**64), max_value=2**64)


class TestFirstOutputs:
    """The multi-root kernel: many roots in one pass, doubles or raw outputs."""

    @settings(max_examples=60, deadline=None)
    @given(
        groups=st.lists(
            st.tuples(
                _roots,
                st.lists(_tokens, max_size=3),
                st.lists(_tokens, max_size=4),
            ),
            max_size=5,
        )
    )
    def test_multi_root_pass_equals_one_call_per_root(self, groups):
        doubles = first_outputs(groups)
        raw = first_outputs(groups, raw=True)
        paths = [(root, *prefix, token) for root, prefix, last in groups for token in last]
        assert doubles.dtype == np.float64 and raw.dtype == np.uint64
        assert doubles.tolist() == [spawn_rng(*path).random() for path in paths]
        assert raw.tolist() == [spawn_rng(*path).bit_generator.random_raw() for path in paths]
        per_root = [
            spawn_uniforms(root, [(prefix, last)], 0.0, 1.0).tolist()
            for root, prefix, last in groups
        ]
        assert doubles.tolist() == [value for values in per_root for value in values]

    def test_empty_pass(self):
        assert first_outputs([]).dtype == np.float64
        raw = first_outputs([(1, ("a",), [])], raw=True)
        assert raw.shape == (0,) and raw.dtype == np.uint64

    def test_roots_alternating_across_groups(self):
        groups = [(1, ("x",), ["a", "b"]), (2, ("x",), ["a"]), (1, ("y",), ["a"])]
        want = [spawn_rng(1, "x", "a"), spawn_rng(1, "x", "b"), spawn_rng(2, "x", "a"),
                spawn_rng(1, "y", "a")]
        assert first_outputs(groups).tolist() == [rng.random() for rng in want]

    def test_case_seed_is_raw_output_shifted_by_two(self):
        """``integers(0, 2**62)`` — every arrival's case seed — on 12,000 streams."""
        groups = [(root, ("case", "t1"), range(3000)) for root in (0, 7, 2**40 + 3, 99)]
        raw = first_outputs(groups, raw=True)
        want = [
            int(spawn_rng(root, *prefix, index).integers(0, 2**62))
            for root, prefix, last in groups
            for index in last
        ]
        assert (raw >> np.uint64(2)).tolist() == want

    @pytest.mark.parametrize(
        "mix",
        [
            (("random", 0.55), ("blast", 0.15), ("wien2k", 0.15), ("montage", 0.15)),
            (("random", 0.0), ("montage", 2.0), ("blast", 0.0), ("wien2k", 1.0)),
            (("wien2k", 3.0),),
            (("blast", 0.1), ("random", 0.2), ("montage", 0.3), ("wien2k", 1e-300)),
            (("montage", 0.0), ("random", 1.0)),
        ],
    )
    def test_kind_draw_is_choice_of_the_first_double(self, mix):
        """``TenantSpec.kinds`` reproduces ``Generator.choice(k, p=w)`` on
        10,000 streams per mix, zero-weight and one-kind mixes included."""
        spec = TenantSpec(name="t1", mix=mix)
        names = [kind for kind, _ in mix]
        weights = np.asarray([share for _, share in mix], dtype=float)
        p = weights / weights.sum()
        indices = range(10_000)
        got = spec.kinds(first_outputs([(5, ("mix", "t1"), indices)]))
        want = [
            names[int(spawn_rng(5, "mix", "t1", index).choice(len(names), p=p))]
            for index in indices
        ]
        assert got == want


class TestUniformBlocks:
    """``uniform_blocks`` draws whole (prefix, middle, last) grids in one
    kernel pass, each into its own block of one buffer."""

    #: last tokens that compare equal but render differently (1, True, 1.0)
    LASTS = ["r1", 1, True, 1.0, np.int64(1), b"r1", 2.5]

    def _want(self, root, prefix, middles, lasts, low, high):
        low = np.broadcast_to(np.asarray(low, dtype=np.float64), (len(middles),))
        high = np.broadcast_to(np.asarray(high, dtype=np.float64), (len(middles),))
        return [
            [
                float(spawn_rng(root, *prefix, middle, last).uniform(low[i], high[i]))
                for i, middle in enumerate(middles)
            ]
            for last in lasts
        ]

    def test_blocks_equal_the_per_stream_draws(self, monkeypatch):
        passes = []
        seed_outputs = rng_module._seed_outputs

        def counting(seeds):
            passes.append(seeds.size)
            return seed_outputs(seeds)

        monkeypatch.setattr(rng_module, "_seed_outputs", counting)
        middles = [f"n{k}" for k in range(1500)]
        grids = [
            (7, ("wij",), ["a", "b", 3], self.LASTS, np.array([1.0, 2.0, 0.5]), 4.0),
            (7, ("wij",), middles, ["r1", "r2", "r3"], 0.0, np.linspace(1.0, 9.0, 1500)),
            (2**40, ("x", 1), ["a"], [], 0.0, 1.0),
            (9, (), [], ["r1"], 0.0, 1.0),
            (7, ("wij",), ["a", "b", 3], ["r2", 1], 1.0, 1.0),
            # prefixes that compare equal but render differently
            (True, ("x", 1), ["a"], ["r1"], 0.0, 1.0),
            (1, ("x", True), ["a"], ["r1"], 0.0, 1.0),
            (1, ("x", 1.0), ["a"], ["r1"], 0.0, 1.0),
        ]
        blocks = uniform_blocks(grids)
        assert passes == [3 * 7 + 1500 * 3 + 3 * 2 + 3]
        for grid, block in zip(grids, blocks):
            assert block.shape == (len(grid[3]), len(grid[2]))
            assert block.flags.c_contiguous
            assert block.tolist() == self._want(*grid)

    def test_empty_call_makes_no_pass(self, monkeypatch):
        monkeypatch.setattr(rng_module, "_seed_outputs", None)
        assert uniform_blocks([]) == []
        (block,) = uniform_blocks([(1, ("a",), [], ["r1"], 0.0, 1.0)])
        assert block.shape == (1, 0)


def _draws(rng) -> tuple:
    """A few draws of every kind the error models take."""
    return (rng.random(), rng.standard_normal(), rng.uniform(0.5, 1.5), int(rng.integers(0, 99)),
            float(np.exp(rng.standard_normal())))


def _stream_draws(rng, suffix) -> tuple:
    return _draws(rng)


class TestStreamDraws:
    """``stream_draws`` draws from one generator seated in each stream's
    start state."""

    @settings(max_examples=60, deadline=None)
    @given(
        groups=st.lists(
            st.tuples(
                _roots,
                st.lists(_tokens, max_size=3),
                st.lists(st.lists(_tokens, max_size=3), max_size=4),
            ),
            max_size=5,
        )
    )
    def test_draws_equal_spawn_rng(self, groups):
        got = stream_draws(
            (root, prefix, suffixes, _stream_draws) for root, prefix, suffixes in groups
        )
        want = [
            [_draws(spawn_rng(root, *prefix, *suffix)) for suffix in suffixes]
            for root, prefix, suffixes in groups
        ]
        assert got == want

    def test_one_pass_and_one_generator(self, monkeypatch):
        passes = []
        seed_states = rng_module._seed_states

        def counting(seeds):
            passes.append(seeds.size)
            return seed_states(seeds)

        monkeypatch.setattr(rng_module, "_seed_states", counting)
        generators = set()

        def draw(rng, suffix):
            generators.add(id(rng))
            return (suffix, rng.standard_normal())

        pairs = [(f"n{k}", f"r{k % 7}") for k in range(rng_module._BLOCK + 10)]
        groups = [(7, ("error", "gaussian", 0, ""), pairs, draw), (2**40, (), [("x",), ()], draw)]
        got, tail = stream_draws(groups)
        assert passes == [len(pairs) + 2]
        assert len(generators) == 1
        assert [suffix for suffix, _ in got] == pairs
        assert [value for _, value in got[::997]] == [
            spawn_rng(7, "error", "gaussian", 0, "", *pair).standard_normal()
            for pair in pairs[::997]
        ]
        assert tail == [(("x",), spawn_rng(2**40, "x").standard_normal()),
                        ((), spawn_rng(2**40).standard_normal())]

    def test_empty_call_makes_no_pass(self, monkeypatch):
        monkeypatch.setattr(rng_module, "_seed_states", None)
        assert stream_draws([]) == []
        assert stream_draws([(1, ("a",), [], _stream_draws)]) == [[]]
