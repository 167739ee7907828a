"""Unit tests for the recorder and table formatting."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.report import format_table
from repro.metrics.timeline import Recorder


class TestRecorder:
    def test_gpu_intervals_filtered_and_sorted(self):
        rec = Recorder()
        rec.gpu_busy(0, 0, "fwd", 2.0, 3.0)
        rec.gpu_busy(0, 0, "bwd", 0.0, 1.0)
        rec.gpu_busy(1, 0, "fwd", 5.0, 6.0)
        spans = rec.gpu_busy_intervals(0)
        assert spans.shape == (2, 2)
        assert spans[0][0] == 0.0

    def test_zero_length_interval_dropped(self):
        rec = Recorder()
        rec.gpu_busy(0, 0, "fwd", 1.0, 1.0)
        assert rec.gpu_busy_intervals(0).shape == (0, 2)

    def test_iteration_records_sorted(self):
        rec = Recorder()
        r1 = rec.iteration_record(0, 1)
        r0 = rec.iteration_record(0, 0)
        r1.fwd_start, r0.fwd_start = 1.0, 0.0
        recs = rec.worker_iterations(0)
        assert [r.iteration for r in recs] == [0, 1]

    def test_gradient_records_created_once(self):
        rec = Recorder()
        rec.mark_ready(0, 0, 5, 1.0)
        rec.mark_push_start(0, 0, 5, 2.0)
        (only,) = rec.gradient_records()
        assert (only.ready, only.push_start) == (1.0, 2.0)

    def test_gradient_recording_disabled(self):
        rec = Recorder(record_gradients=False)
        rec.mark_ready(0, 0, 5, 1.0)
        assert rec.gradient_records() == []

    def test_gradient_record_derived_times(self):
        rec = Recorder()
        rec.mark_ready(0, 0, 3, 1.0)
        rec.mark_push_start(0, 0, 3, 1.2)
        rec.mark_push_end(0, 0, 3, 1.5)
        (g,) = rec.gradient_records()
        assert np.isclose(g.wait_time, 0.2)
        assert np.isclose(g.transfer_time, 0.3)
        assert np.isnan(g.pull_end)

    def test_gradient_records_filters(self):
        rec = Recorder()
        rec.mark_ready(0, 0, 1, 0.0)
        rec.mark_ready(0, 1, 2, 0.0)
        rec.mark_ready(1, 0, 3, 0.0)
        assert len(rec.gradient_records(worker=0)) == 2
        assert len(rec.gradient_records(worker=0, iteration=1)) == 1
        assert len(rec.gradient_records()) == 3

    def test_gradient_records_are_fresh_copies(self):
        rec = Recorder()
        rec.mark_ready(0, 0, 1, 1.0)
        rec.gradient_records()[0].ready = 9.0
        assert rec.gradient_records()[0].ready == 1.0


_FIELDS = ("ready", "push_start", "push_end", "pull_end")


@settings(max_examples=100, deadline=None)
@given(
    marks=st.lists(
        st.tuples(
            st.integers(0, 2),
            st.integers(0, 3),
            st.integers(0, 4),
            st.sampled_from(_FIELDS),
            st.floats(0.0, 100.0),
        ),
        max_size=40,
    ),
    worker=st.none() | st.integers(0, 2),
    iteration=st.none() | st.integers(0, 3),
)
def test_gradient_records_match_mark_oracle(marks, worker, iteration):
    """``gradient_records()`` equals, field by field, the last value each
    ``mark_*`` call wrote, NaN where a field was never marked."""
    rec = Recorder()
    oracle: dict[tuple[int, int, int], dict[str, float]] = {}
    for w, i, g, field, t in marks:
        getattr(rec, f"mark_{field}")(w, i, g, t)
        oracle.setdefault((w, i, g), {})[field] = t
    got = rec.gradient_records(worker=worker, iteration=iteration)
    want = sorted(
        key
        for key in oracle
        if (worker is None or key[0] == worker)
        and (iteration is None or key[1] == iteration)
    )
    assert [(r.worker, r.iteration, r.grad) for r in got] == want
    for r in got:
        fields = oracle[(r.worker, r.iteration, r.grad)]
        for field in _FIELDS:
            value = getattr(r, field)
            if field in fields:
                assert value == fields[field]
            else:
                assert np.isnan(value)


class TestFormatTable:
    def test_alignment_and_title(self):
        out = format_table(["a", "bb"], [[1, 2.5], ["xyz", 3]], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert "2.50" in out  # float formatting
        assert "xyz" in out

    def test_empty_rows(self):
        out = format_table(["col"], [])
        assert "col" in out
