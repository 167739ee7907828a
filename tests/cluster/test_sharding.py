"""Unit tests for the key→shard assignment and schedule restriction."""

import numpy as np
import pytest

from repro.cluster.sharding import assign_shards, restrict_generation_schedule
from repro.core.profiler import JobProfile
from repro.errors import ConfigurationError

SIZES = [2e6, 8e3, 6e6, 3e6, 64e3, 8e6, 4e3, 4e3]  # the tiny model's tensors


class TestAssignShards:
    def test_deterministic_across_calls(self):
        a = assign_shards(SIZES, 3)
        b = assign_shards(SIZES, 3)
        assert a == b
        c = assign_shards(SIZES, 3, slice_bytes=1e6)
        d = assign_shards(SIZES, 3, slice_bytes=1e6)
        assert c == d

    def test_every_byte_mapped_exactly_once(self):
        assignment = assign_shards(SIZES, 3)
        seen = {}
        for piece in assignment.pieces:
            seen.setdefault(piece.grad, 0.0)
            seen[piece.grad] += piece.nbytes
        assert set(seen) == set(range(len(SIZES)))
        for grad, total in seen.items():
            assert total == pytest.approx(SIZES[grad])

    def test_slicing_covers_tensor_contiguously(self):
        assignment = assign_shards(SIZES, 2, slice_bytes=2.5e6)
        for grad, size in enumerate(SIZES):
            pieces = sorted(assignment.by_grad[grad], key=lambda p: p.part)
            # contiguous: each piece starts where the previous ended
            cursor = 0.0
            for piece in pieces:
                assert piece.offset == pytest.approx(cursor)
                cursor += piece.nbytes
            assert cursor == pytest.approx(size)
            if size > 2.5e6:
                assert len(pieces) > 1
                assert all(p.nbytes <= 2.5e6 + 1e-6 for p in pieces)
            else:
                assert len(pieces) == 1

    def test_lpt_balance_invariant(self):
        """Greedy LPT: load spread never exceeds the largest piece."""
        for k in (2, 3, 4):
            assignment = assign_shards(SIZES, k)
            largest = max(p.nbytes for p in assignment.pieces)
            assert max(assignment.loads) - min(assignment.loads) <= largest + 1e-6

    def test_slicing_tightens_balance(self):
        whole = assign_shards(SIZES, 4)
        sliced = assign_shards(SIZES, 4, slice_bytes=1e6)
        spread_whole = max(whole.loads) - min(whole.loads)
        spread_sliced = max(sliced.loads) - min(sliced.loads)
        assert spread_sliced <= spread_whole

    def test_local_indices_dense_and_priority_ordered(self):
        assignment = assign_shards(SIZES, 3, slice_bytes=1e6)
        for shard_pieces in assignment.by_shard:
            assert [p.local for p in shard_pieces] == list(range(len(shard_pieces)))
            keys = [(p.grad, p.part) for p in shard_pieces]
            assert keys == sorted(keys)

    def test_single_shard_owns_everything(self):
        assignment = assign_shards(SIZES, 1)
        assert all(p.shard == 0 for p in assignment.pieces)
        assert assignment.loads == (pytest.approx(sum(SIZES)),)

    def test_more_servers_than_pieces_raises(self):
        with pytest.raises(ConfigurationError, match="exceeds"):
            assign_shards([1e6, 2e6], 3)
        # ...unless slicing makes enough pieces
        assignment = assign_shards([1e6, 2e6], 3, slice_bytes=0.5e6)
        assert all(len(b) >= 1 for b in assignment.by_shard)

    def test_invalid_inputs_raise(self):
        with pytest.raises(ConfigurationError):
            assign_shards([], 1)
        with pytest.raises(ConfigurationError):
            assign_shards([1.0, 0.0], 1)
        with pytest.raises(ConfigurationError):
            assign_shards([1.0], 0)
        with pytest.raises(ConfigurationError):
            assign_shards([1.0], 1, slice_bytes=0.0)


class TestRestriction:
    @pytest.fixture
    def gen_schedule(self, tiny_model, tiny_device):
        from repro.agg.kvstore import KVStore
        from repro.agg.policies import ExplicitGroupsPolicy
        from repro.models.compute import build_compute_profile

        profile = build_compute_profile(tiny_model, tiny_device, batch_size=8)
        policy = ExplicitGroupsPolicy(((5, 6, 7), (3, 4), (2,), (0, 1)))
        return KVStore(policy=policy).generation_schedule(profile)

    def test_restricted_schedule_partitions_bytes(self, gen_schedule):
        assignment = assign_shards(gen_schedule.sizes, 3)
        shards = [
            restrict_generation_schedule(gen_schedule, assignment, s)
            for s in range(3)
        ]
        assert sum(float(t.sizes.sum()) for t in shards) == pytest.approx(
            float(gen_schedule.sizes.sum())
        )

    def test_pieces_inherit_parent_generation_times(self, gen_schedule):
        assignment = assign_shards(gen_schedule.sizes, 2, slice_bytes=1e6)
        for s in range(2):
            local = restrict_generation_schedule(gen_schedule, assignment, s)
            for piece in assignment.by_shard[s]:
                assert local.c[piece.local] == gen_schedule.c[piece.grad]
                assert local.raw[piece.local] == gen_schedule.raw[piece.grad]
                assert local.sizes[piece.local] == pytest.approx(piece.nbytes)
            assert local.backward_time == gen_schedule.backward_time

    def test_restricted_buckets_keep_flush_order(self, gen_schedule):
        assignment = assign_shards(gen_schedule.sizes, 2)
        for s in range(2):
            local = restrict_generation_schedule(gen_schedule, assignment, s)
            # every local index appears in exactly one bucket, and
            # bucket_of is consistent
            flat = [i for bucket in local.buckets for i in bucket]
            assert sorted(flat) == list(range(len(local.sizes)))
            for b, bucket in enumerate(local.buckets):
                assert all(local.bucket_of[i] == b for i in bucket)
            assert all(len(b) > 0 for b in local.buckets)

    def test_restrict_profile_matches_assignment(self, gen_schedule):
        """A shard's oracle profile, built from its restricted schedule."""
        profile = JobProfile.from_generation_schedule(gen_schedule)
        assignment = assign_shards(gen_schedule.sizes, 3)
        total = 0.0
        for s in range(3):
            local = JobProfile.from_generation_schedule(
                restrict_generation_schedule(gen_schedule, assignment, s)
            )
            assert len(local.c) == len(assignment.by_shard[s])
            # backward order kept: lower local index (front layer) is
            # generated later, never earlier, than higher indices
            assert np.all(np.diff(local.c) <= 0)
            total += float(local.sizes.sum())
        assert total == pytest.approx(float(profile.sizes.sum()))
