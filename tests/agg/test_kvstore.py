"""Unit tests for the KV store and generation schedules."""

import numpy as np
import pytest

from repro.agg.kvstore import FLUSH_DELAY, KVStore
from repro.agg.policies import ExplicitGroupsPolicy, TimeWindowPolicy
from repro.errors import ConfigurationError
from repro.models.compute import build_compute_profile


@pytest.fixture
def profile(tiny_model, tiny_device):
    return build_compute_profile(tiny_model, tiny_device, batch_size=8)


def test_schedule_covers_all_gradients(profile):
    sched = KVStore().generation_schedule(profile)
    assert sched.num_gradients == 8
    assert sched.sizes.sum() == pytest.approx(profile.model.param_bytes())


def test_c_is_raw_plus_flush_cost(profile):
    ks = KVStore(policy=TimeWindowPolicy(0.0))
    sched = ks.generation_schedule(profile)
    assert np.all(sched.c >= sched.raw)
    # Last-generated bucket flushes at its raw time + fixed cost.
    first_bucket = sched.buckets[0]
    assert sched.c[first_bucket[0]] == sched.raw[first_bucket[0]] + FLUSH_DELAY


def test_flush_times_monotone_in_generation_order(profile):
    sched = KVStore(policy=TimeWindowPolicy(0.0)).generation_schedule(profile)
    flush_times = [sched.c[b[0]] for b in sched.buckets]
    assert flush_times == sorted(flush_times)


def test_gradient_zero_generated_last(profile):
    sched = KVStore().generation_schedule(profile)
    assert sched.c[0] == pytest.approx(sched.c.max())
    assert 0 in sched.buckets[-1]


def test_generation_order_descends_indices_within_bucket(profile):
    sched = KVStore(policy=TimeWindowPolicy(0.0)).generation_schedule(profile)
    order = list(sched.generation_order)
    assert order[0] == 7
    assert order[-1] == 0
    # Full order: strictly the reverse-index order for this model.
    assert order == sorted(order, reverse=True)


def test_bucket_of_matches_buckets(profile):
    sched = KVStore().generation_schedule(profile)
    for b, bucket in enumerate(sched.buckets):
        for g in bucket:
            assert sched.bucket_of[g] == b


def test_scaled_multiplies_times_not_sizes(profile):
    sched = KVStore().generation_schedule(profile)
    scaled = sched.scaled(2.0)
    assert np.allclose(scaled.c, 2 * sched.c)
    assert np.allclose(scaled.raw, 2 * sched.raw)
    assert scaled.backward_time == pytest.approx(2 * sched.backward_time)
    assert np.array_equal(scaled.sizes, sched.sizes)
    assert scaled.buckets == sched.buckets


def test_explicit_groups_policy_roundtrip(profile):
    policy = ExplicitGroupsPolicy(((4, 5, 6, 7), (0, 1, 2, 3)))
    sched = KVStore(policy=policy).generation_schedule(profile)
    assert sched.num_blocks == 2


def test_bad_policy_partition_rejected(profile):
    class BrokenPolicy:
        def buckets(self, model, grads, raw):
            return [[g.index for g in grads[:-1]]]  # drops one gradient

    with pytest.raises(ConfigurationError):
        KVStore(policy=BrokenPolicy()).generation_schedule(profile)


def test_out_of_order_buckets_rejected(profile):
    class OutOfOrderPolicy:
        def buckets(self, model, grads, raw):
            return [[0, 1, 2, 3], [4, 5, 6, 7]]  # gen order reversed

    with pytest.raises(ConfigurationError):
        KVStore(policy=OutOfOrderPolicy()).generation_schedule(profile)
