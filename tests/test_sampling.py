import hashlib

import numpy as np
import pytest
from numpy.testing import assert_allclose

from subspace_descent.sampling import SAMPLER_KINDS, Sampler, make_sampler


def draws(sampler, count):
    return [sampler.next_index() for _ in range(count)]


def test_kind_roster():
    assert SAMPLER_KINDS == ("uniform", "proportional", "permutation", "cyclic")


class TestProportional:
    def test_probability_arithmetic(self):
        s = make_sampler("proportional", lipschitz=[1.0, 1.0, 2.0])
        assert_allclose(s.probabilities, [0.25, 0.25, 0.5], rtol=0)

    def test_equal_weights_reduce_to_uniform(self):
        s = make_sampler("proportional", lipschitz=[3.0] * 5)
        assert_allclose(s.probabilities, np.full(5, 0.2), rtol=1e-15)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            w = rng.random(17) + 0.01
            s = make_sampler("proportional", lipschitz=w)
            assert abs(s.probabilities.sum() - 1.0) <= 1e-12

    def test_empirical_frequencies_track_weights(self):
        s = make_sampler("proportional", lipschitz=[1.0, 3.0], seed=5)
        hits = np.bincount(draws(s, 40000), minlength=2) / 40000.0
        assert abs(hits[1] - 0.75) < 0.02

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError):
            make_sampler("proportional", lipschitz=[1.0, 0.0])
        with pytest.raises(ValueError):
            make_sampler("proportional", lipschitz=[1.0, -2.0])


class TestCyclic:
    def test_first_six(self):
        s = make_sampler("cyclic", size=3)
        assert draws(s, 6) == [0, 1, 2, 0, 1, 2]

    def test_consumes_no_randomness(self):
        a = make_sampler("cyclic", size=4, seed=1)
        b = make_sampler("cyclic", size=4, seed=99)
        assert draws(a, 9) == draws(b, 9)


class TestPermutation:
    def test_each_epoch_is_a_permutation(self):
        s = make_sampler("permutation", size=5, seed=3)
        for _ in range(12):
            window = draws(s, 5)
            assert sorted(window) == [0, 1, 2, 3, 4]

    def test_k_epochs_k_appearances(self):
        s = make_sampler("permutation", size=7, seed=11)
        k = 9
        counts = np.bincount(draws(s, 7 * k), minlength=7)
        assert np.array_equal(counts, np.full(7, k))

    def test_epochs_differ(self):
        s = make_sampler("permutation", size=20, seed=0)
        first = draws(s, 20)
        second = draws(s, 20)
        assert first != second  # astronomically unlikely to collide


class TestUniform:
    def test_concentration(self):
        s = make_sampler("uniform", size=4, seed=123)
        freq = np.bincount(draws(s, 40000), minlength=4) / 40000.0
        assert freq.min() >= 0.23 and freq.max() <= 0.27

    def test_range(self):
        s = make_sampler("uniform", size=3, seed=2)
        assert set(draws(s, 300)) == {0, 1, 2}


class TestDeterminism:
    @pytest.mark.parametrize("kind", ["uniform", "proportional", "permutation"])
    def test_same_seed_same_stream(self, kind):
        lip = [1.0, 2.0, 3.0, 4.0]
        a = make_sampler(kind, size=4, lipschitz=lip, seed=77)
        b = make_sampler(kind, size=4, lipschitz=lip, seed=77)
        assert draws(a, 2500) == draws(b, 2500)

    def test_different_seed_different_stream(self):
        a = make_sampler("uniform", size=10, seed=1)
        b = make_sampler("uniform", size=10, seed=2)
        assert draws(a, 100) != draws(b, 100)

    def test_stream_survives_buffer_refills(self):
        # identical streams even when one sampler is interrogated in
        # chunks that straddle the internal batch boundary
        a = make_sampler("uniform", size=6, seed=9)
        b = make_sampler("uniform", size=6, seed=9)
        got_a = draws(a, 3000)
        got_b = []
        for chunk in (1, 1023, 1024, 952):
            got_b.extend(draws(b, chunk))
        assert got_a == got_b


class TestBookkeeping:
    def test_draw_count_advances(self):
        s = make_sampler("uniform", size=3, seed=0)
        assert s.draw_count == 0
        draws(s, 10)
        assert s.draw_count == 10

    @pytest.mark.parametrize("kind", SAMPLER_KINDS)
    def test_draw_count_across_batches(self, kind):
        s = make_sampler(kind, size=7, lipschitz=np.arange(1.0, 8.0), seed=2)
        total = 0
        for chunk in (1, 6, 1016, 1, 1024, 1, 3000):
            draws(s, chunk)
            total += chunk
            assert s.draw_count == total

    @pytest.mark.parametrize("kind", SAMPLER_KINDS)
    def test_generator_shares_the_stream(self, kind):
        lip = np.arange(1.0, 8.0)
        a = make_sampler(kind, size=7, lipschitz=lip, seed=4)
        b = make_sampler(kind, size=7, lipschitz=lip, seed=4)
        # next_index, next() and iteration interleaved, across several
        # batch boundaries
        got = []
        while len(got) < 2500:
            got.append(b.next_index())
            got.append(next(b))
            for i in b:
                got.append(i)
                if len(got) % 7 == 0:
                    break
            assert b.draw_count == len(got)
        assert got == draws(a, len(got))
        assert all(type(i) is int for i in got)

    def test_iterator_protocol(self):
        s = make_sampler("cyclic", size=2)
        it = iter(s)
        assert [next(it) for _ in range(4)] == [0, 1, 0, 1]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            make_sampler("sobol", size=3)

    def test_size_required_without_weights(self):
        with pytest.raises(ValueError):
            make_sampler("uniform")

    def test_size_weight_conflict_rejected(self):
        with pytest.raises(ValueError):
            make_sampler("proportional", size=4, lipschitz=[1.0, 2.0])

    def test_direct_construction_matches_factory(self):
        a = Sampler("cyclic", 3, seed=0)
        b = make_sampler("cyclic", size=3)
        assert draws(a, 7) == draws(b, 7)


def sampler_of(kind, size, seed):
    if kind == "proportional":
        return make_sampler(kind, lipschitz=np.arange(1.0, size + 1.0), seed=seed)
    return make_sampler(kind, size=size, seed=seed)


class TestBatches:
    @pytest.mark.parametrize("kind", SAMPLER_KINDS)
    @pytest.mark.parametrize("size", [1, 7, 1500])
    def test_batches_and_single_draws_share_one_stream(self, kind, size):
        # random mixes of next_index and batch/consume, across many batch
        # boundaries (J for permutation, max(1, 1024 // J) sweeps for
        # cyclic, 1024 for the others)
        expected = draws(sampler_of(kind, size, 9), 9000)
        s, got, mix = sampler_of(kind, size, 9), [], np.random.default_rng(size)
        while len(got) < 6000:
            if mix.random() < 0.3:
                got.append(s.next_index())
            else:
                batch = s.batch()
                assert batch.dtype == np.int64 and batch.size > 0
                assert np.array_equal(s.batch(), batch)  # unread until consumed
                used = int(mix.integers(0, batch.size + 1))
                got.extend(batch[:used].tolist())
                s.consume(used)
            assert s.draw_count == len(got)
        assert got == expected[: len(got)]

    @pytest.mark.parametrize("size, sweeps", [(1, 1024), (63, 16), (512, 2), (513, 1), (1500, 1)])
    def test_cyclic_batches_are_whole_sweeps(self, size, sweeps):
        s = sampler_of("cyclic", size, 0)
        for _ in range(3):
            batch = s.batch()
            assert batch.tolist() == list(range(size)) * sweeps
            s.consume(batch.size)
        assert s.draw_count == 3 * size * sweeps

    @pytest.mark.parametrize("kind", SAMPLER_KINDS)
    def test_whole_batches(self, kind):
        s = sampler_of(kind, 5, 2)
        expected = draws(sampler_of(kind, 5, 2), 3000)
        got = []
        while len(got) < 3000:
            batch = s.batch()
            got.extend(batch.tolist())
            s.consume(batch.size)
        assert got[:3000] == expected and s.draw_count == len(got)


# sha256 of the first 5 000 indices (little-endian int64) at seed 9, with
# proportional weights 1, ..., J.  J = 1500 makes a permutation batch
# longer than the 1 024 draws of a random batch.
STREAM_PINS = {
    ("uniform", 1): "e7e2dcff542de95352682dc186432e98f0188084896773f1973276b0577d5305",
    ("uniform", 7): "b00a52d7659a98cefde602039ffef503bff2668f58614bcb17d071a6ac439b34",
    ("uniform", 1500): "664d969385a6858ba9f6b40030a4a8971a8b5a200f38db0381350c39d939d6cd",
    ("proportional", 1): "e7e2dcff542de95352682dc186432e98f0188084896773f1973276b0577d5305",
    ("proportional", 7): "9f2cddd08c0abfc7284c173961c608a015956f3e5f8c63652f3e0346d22db20d",
    ("proportional", 1500): "de30ee15f254356c6dc08721762be98dd19f49bdd5a3a727304e18f09c88399c",
    ("permutation", 1): "e7e2dcff542de95352682dc186432e98f0188084896773f1973276b0577d5305",
    ("permutation", 7): "c9d1d3827961e8f45d6737cfd75921ff50aba36767f857cdb734b6717f09b81e",
    ("permutation", 1500): "827b454d2c6b4ad32b89af907e93a371cc8dd98d1c3df534c2d35ac0bcecac9b",
    ("cyclic", 1): "e7e2dcff542de95352682dc186432e98f0188084896773f1973276b0577d5305",
    ("cyclic", 7): "52f8becb305c08942961613b169a2d41d058b81750115a5a3478710e067080b4",
    ("cyclic", 1500): "063432873f251f8976fe72bc1fb227bf14be5ad519eb8e39fc540f0a429f78f0",
}


@pytest.mark.parametrize("kind, size", sorted(STREAM_PINS))
def test_stream_pins(kind, size):
    got = np.asarray(draws(sampler_of(kind, size, 9), 5000), dtype="<i8")
    assert hashlib.sha256(got.tobytes()).hexdigest() == STREAM_PINS[kind, size]
