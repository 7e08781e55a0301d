"""errors.in_order: a batch raises the refusal of the first job that refuses."""

import pytest

from algebroid.errors import QuadratureStall, StepUnderflow, in_order


def _fake_batch(refusals, calls, error=None):
    """A batch that records each call's jobs, raises error when given, and
    otherwise raises the last refusal among its jobs, as a batch that meets
    a later job's refusal first does; without one it doubles each job."""
    def batch(jobs):
        calls.append(list(jobs))
        if error is not None:
            raise error
        refused = [refusals[job] for job in jobs if job in refusals]
        if refused:
            raise refused[-1]
        return [2 * job for job in jobs]
    return batch


def test_a_batch_that_succeeds_runs_once():
    calls = []
    assert in_order(_fake_batch({}, calls), iter([1, 2, 3])) == [2, 4, 6]
    assert calls == [[1, 2, 3]]


def test_a_refusal_reruns_the_jobs_alone_in_order_up_to_the_first_that_refuses():
    calls = []
    refusals = {2: StepUnderflow("job 2"), 4: QuadratureStall("job 4")}
    with pytest.raises(StepUnderflow, match="job 2"):
        in_order(_fake_batch(refusals, calls), [1, 2, 3, 4])
    assert calls == [[1, 2, 3, 4], [1], [2]]


def test_a_batch_of_one_job_is_not_run_again():
    calls = []
    with pytest.raises(QuadratureStall, match="job 4"):
        in_order(_fake_batch({4: QuadratureStall("job 4")}, calls), [4])
    assert calls == [[4]]


def test_a_value_error_is_not_run_again():
    calls = []
    with pytest.raises(ValueError, match="misplaced"):
        in_order(_fake_batch({}, calls, ValueError("misplaced")), [1, 2])
    assert calls == [[1, 2]]
