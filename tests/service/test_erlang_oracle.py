"""Erlang-B as an independent oracle for the count-policy admit path.

A link whose count policy admits at most ``N`` connections, offered
Poisson arrivals with exponential holding at ``a`` Erlangs, is an
M/M/N/N loss system: its blocking probability is Erlang-B(N, a),
whatever the program's own bookkeeping says.  The oracle below is the
textbook recursion, written here rather than imported so the check
shares no code with the engine, the decision tables or ``drive``.
"""

import numpy as np
import pytest

from repro.atm.qos import QoSRequirement
from repro.models import make_s
from repro.queueing.batch_means import batch_means
from repro.service.drive import drive
from repro.service.engine import AdmissionEngine
from repro.service.workload import ConnectionClass

CAPACITY = 30 * 538.0
BOUNDARY = 30
RHO = 0.95
N_LINKS = 4
REQUESTS_PER_LINK = 20_000
BATCHES_PER_LINK = 10
CONFIDENCE = 0.999


def erlang_b(servers: int, erlangs: float) -> float:
    """Erlang-B blocking by the standard recursion."""
    blocking = 1.0
    for k in range(1, servers + 1):
        blocking = erlangs * blocking / (k + erlangs * blocking)
    return blocking


@pytest.fixture(scope="module")
def blocking_run():
    """Per-link blocked indicators of one serial count-policy drive."""
    outcomes = {}
    original = AdmissionEngine.admit

    def recording(self, link_id, *args, **kwargs):
        decision = original(self, link_id, *args, **kwargs)
        outcomes.setdefault(link_id, []).append(not decision.admitted)
        return decision

    AdmissionEngine.admit = recording
    try:
        report = drive(
            (ConnectionClass("dar1", make_s(1, 0.975)),),
            n_links=N_LINKS,
            capacity=CAPACITY,
            qos=QoSRequirement(max_delay_seconds=0.020, max_clr=1e-6),
            policy="bahadur-rao",
            rho_grid=(RHO,),
            requests_per_link=REQUESTS_PER_LINK,
            holding="exponential",
            seed=20261017,
        )
    finally:
        AdmissionEngine.admit = original
    blocked = np.concatenate(
        [np.asarray(outcomes[f"link-{i}"], dtype=float) for i in range(N_LINKS)]
    )
    estimate = batch_means(
        blocked, N_LINKS * BATCHES_PER_LINK, confidence=CONFIDENCE
    )
    return report, blocked, estimate


class TestErlangBOracle:
    def test_boundary_is_the_paper_operating_point(self, blocking_run):
        report, _, _ = blocking_run
        assert report.admissible == BOUNDARY
        assert report.boundary_violations == 0

    def test_recorded_outcomes_are_the_reported_ones(self, blocking_run):
        report, blocked, estimate = blocking_run
        point = report.points[0]
        assert blocked.size == point.n_requests == N_LINKS * REQUESTS_PER_LINK
        assert int(blocked.sum()) == point.blocked
        assert estimate.mean == pytest.approx(point.blocking_probability)

    def test_pooled_blocking_matches_erlang_b(self, blocking_run):
        _, _, estimate = blocking_run
        oracle = erlang_b(BOUNDARY, RHO * BOUNDARY)
        low, high = estimate.interval
        assert low <= oracle <= high, (
            f"Erlang-B({BOUNDARY}, {RHO * BOUNDARY}) = {oracle:.5f} outside "
            f"the {CONFIDENCE:.1%} batch-means CI [{low:.5f}, {high:.5f}]"
        )

    @pytest.mark.parametrize("servers", [BOUNDARY - 1, BOUNDARY + 1])
    def test_an_off_by_one_boundary_would_be_caught(
        self, blocking_run, servers
    ):
        # The CI is tight enough to tell N from N +/- 1, so a count
        # path that admitted one connection too many or too few fails
        # the oracle above.
        _, _, estimate = blocking_run
        low, high = estimate.interval
        assert not low <= erlang_b(servers, RHO * BOUNDARY) <= high
