import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lcmteval import seeding
from lcmteval.seeding import rng_for, rng_replay


@pytest.fixture
def fresh_replay_check():
    """Run rng_replay's first-use check again, in this test and after it."""
    seeding._check_replay.cache_clear()
    yield
    seeding._check_replay.cache_clear()


def _numpy_state(entropy: int) -> list[int]:
    return np.random.SeedSequence(entropy).generate_state(4, np.uint64).tolist()


class TestSeedSequenceStates:
    EDGES = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]

    def test_edge_entropies(self):
        got = seeding._seed_sequence_states(np.array(self.EDGES, dtype=np.uint64))
        assert got.dtype == np.uint64
        assert got.tolist() == [_numpy_state(x) for x in self.EDGES]

    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=20))
    @settings(max_examples=100)
    def test_matches_numpy(self, entropies):
        got = seeding._seed_sequence_states(np.array(entropies, dtype=np.uint64))
        assert got.tolist() == [_numpy_state(x) for x in entropies]


indices_strategy = st.lists(
    st.one_of(st.integers(-(2**70), 2**70), st.text(max_size=8)), max_size=8
)


class TestRngReplay:
    @given(
        st.integers(-(2**80), 2**80),
        st.text(max_size=12),
        indices_strategy,
        st.integers(1, 40),
        st.integers(1, 2**40),
    )
    @example(-3, "perm-bøth·语", ["é", "语", "", "0", 0, -1, 2**64], 24, 2)
    @settings(max_examples=150, deadline=None)
    def test_equals_rng_for(self, master, tag, indices, n, k):
        replayed = rng_replay(master, tag, indices)
        count = 0
        for index, generator in zip(indices, replayed):
            expected = rng_for(master, tag, index)
            assert generator.bit_generator.state == expected.bit_generator.state
            assert generator.random(n).tolist() == expected.random(n).tolist()
            assert (
                generator.integers(0, k, size=n).tolist()
                == expected.integers(0, k, size=n).tolist()
            )
            count += 1
        assert count == len(indices)
        assert next(replayed, None) is None

    def test_empty_indices_yield_nothing(self):
        assert list(rng_replay(0, "perm-both", [])) == []
        assert list(rng_replay(0, "perm-both", range(0))) == []

    def test_replay_drift_raises(self, monkeypatch, fresh_replay_check):
        real = seeding._pcg64_state

        def off_by_one(words):
            state, inc = real(words)
            return state ^ 1, inc

        monkeypatch.setattr(seeding, "_pcg64_state", off_by_one)
        with pytest.raises(RuntimeError, match=f"numpy {np.__version__}"):
            next(rng_replay(0, "perm-both", range(3)))

    def test_replay_check_passes(self, fresh_replay_check):
        assert len(list(rng_replay(0, "perm-both", range(3)))) == 3
        assert seeding._check_replay.cache_info().currsize == 1
