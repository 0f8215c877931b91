"""The spool job state machine under arbitrary interleavings (no subprocesses).

One temporary spool, driven rule by rule through the real
:class:`~repro.campaign.distributed.spool.SpoolDir` primitives and the
coordinator's own healing pass (``DistributedBackend._recover``):
publish, claim, complete, steal (a thief may crash between removing the
claim and republishing), republish, a worker that crashes right after its
claim, and the coordinator collecting finished points.  The doorbells ride
along -- rings, lost rings and duplicate rings -- and never decide anything:
whatever the sequence, settling the spool from its files alone ends every
published point with exactly one done marker and one store record, and at
no step is a point in limbo (neither pending, claimed nor done) unless a
crashed thief just dropped it and the next healing pass has not yet run.
"""

import functools
import shutil
import tempfile
import time
from pathlib import Path

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

import repro
from repro.campaign import WorkItem
from repro.campaign.distributed import DistributedBackend, SpoolDir
from repro.campaign.distributed.spool import COORDINATOR, WORKER
from repro.config import ProblemSpec

BASE = ProblemSpec(
    nx=2, ny=2, nz=2, angles_per_octant=1, num_groups=1, num_inners=1,
    engine="vectorized",
)
MAX_POINTS = 6
LIVE, DEAD = "live-worker", "dead-worker"


@functools.lru_cache(maxsize=1)
def stored_result():
    """One real solve; every point stores it (the record's key is the point's)."""
    return repro.run(BASE)


class SpoolMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.root = Path(tempfile.mkdtemp(prefix="spool-sm-"))
        self.spool = SpoolDir(self.root)
        self.backend = DistributedBackend(spool_dir=self.root, max_attempts=99)
        self.published: dict[int, WorkItem] = {}
        self.outstanding: dict[int, WorkItem] = {}  # the coordinator's copy
        self.attempts: dict[int, int] = {}
        self.held = []  # (claim, item) the live worker is executing
        self.lost: set[int] = set()  # dropped by a thief that crashed
        self.bells = {
            WORKER: self.spool.doorbell(WORKER),
            COORDINATOR: self.spool.doorbell(COORDINATOR),
        }

    # ------------------------------------------------------------ the jobs
    @precondition(lambda self: len(self.published) < MAX_POINTS)
    @rule()
    def publish(self):
        index = len(self.published)
        item = WorkItem(spec=BASE.with_(num_inners=index + 1), index=index)
        self.published[index] = self.outstanding[index] = item
        self.attempts[index] = 1
        self.spool.publish(item, max_attempts=99)
        assert self.rang(WORKER)

    @rule()
    def claim(self):
        claim = self.spool.claim_next(LIVE)
        if claim is not None:
            self.held.append((claim, claim.load()[0]))

    @rule()
    def crash_mid_claim(self):
        self.spool.claim_next(DEAD)  # renamed into claims/, never finished

    @precondition(lambda self: self.held)
    @rule(data=st.data())
    def complete(self, data):
        claim, item = self.held.pop(data.draw(st.integers(0, len(self.held) - 1)))
        self.execute(claim, item)
        assert self.rang(COORDINATOR)

    @rule(data=st.data(), thief_survives=st.booleans())
    def steal(self, data, thief_survives):
        claims = [c for c in self.spool.claims() if c.index in self.outstanding]
        if not claims:
            return
        claim = data.draw(st.sampled_from(claims))
        if not self.spool.steal(claim):
            return
        if thief_survives:
            self.backend._republish(self.spool, self.outstanding[claim.index], self.attempts)
        else:
            self.lost.add(claim.index)

    @rule()
    def republish(self):
        """The coordinator's lost-job scan (a lease no claim outlives: no steals)."""
        lost = {index for index in self.outstanding if not self.located(index)}
        assert lost <= self.lost  # only a crashed thief loses a point
        before = dict(self.attempts)
        self.backend._recover(
            self.spool, self.outstanding, self.attempts, lease=1e9, now=time.time()
        )
        # Exactly the lost points are requeued; a settled one never is.
        assert {i for i in self.attempts if self.attempts[i] != before[i]} == lost
        self.lost.clear()
        for index in self.outstanding:
            assert self.located(index), f"point {index} in limbo after a healing pass"

    @rule()
    def collect(self):
        """The coordinator's drain: a done marker settles a point for good."""
        for index, item in list(self.outstanding.items()):
            if self.spool.done_marker(index, item.run_key[:16]) is not None:
                assert self.spool.store.contains(item), "marker without record"
                del self.outstanding[index]

    # ------------------------------------------------------------ the bells
    @rule(role=st.sampled_from([WORKER, COORDINATOR]))
    def ring(self, role):
        self.spool.ring(role)
        assert self.rang(role)

    @rule(role=st.sampled_from([WORKER, COORDINATOR]))
    def drop_ring(self, role):
        self.bells[role].wait(0.0)  # a wake nobody acted on

    @rule(role=st.sampled_from([WORKER, COORDINATOR]))
    def duplicate_ring(self, role):
        self.spool.ring(role)
        self.spool.ring(role)
        assert self.rang(role)
        assert not self.rang(role)  # one wake drained both

    # ----------------------------------------------------------- invariants
    @invariant()
    def nothing_in_limbo(self):
        for index in self.outstanding:
            assert index in self.lost or self.located(index), f"point {index} in limbo"

    @invariant()
    def every_marker_has_its_record(self):
        keys = {item.run_key[:16]: item for item in self.published.values()}
        for path in (self.root / "done").glob("*.json"):
            assert self.spool.store.contains(keys[path.stem.split("-")[1]])

    def teardown(self):
        try:
            self.settle()
            names = {f"{i:06d}-{item.run_key[:16]}.json" for i, item in self.published.items()}
            assert sorted(p.name for p in (self.root / "done").iterdir()) == sorted(names)
            assert self.spool.store.keys() == sorted(i.run_key for i in self.published.values())
            assert self.spool.pending() == []
            # A dead worker's claim on an already settled point may linger;
            # nothing waits on it.
            assert {c.index for c in self.spool.claims()} <= set(self.published)
        finally:
            for bell in self.bells.values():
                bell.close()
            shutil.rmtree(self.root, ignore_errors=True)

    # -------------------------------------------------------------- helpers
    def rang(self, role) -> bool:
        return self.bells[role].wait(0.0)

    def located(self, index) -> bool:
        item = self.outstanding[index]
        return (
            index in self.spool.pending_indexes()
            or any(c.index == index for c in self.spool.claims())
            or self.spool.done_marker(index, item.run_key[:16]) is not None
        )

    def execute(self, claim, item):
        """The worker's success path: record first, then the done marker."""
        self.spool.store.put(item, stored_result())
        self.spool.complete(claim, {"worker_id": LIVE, "attempts": claim.attempts})

    def settle(self):
        """Drive the spool to quiescence from its files alone: the live worker
        finishes, dead claims expire and are stolen, lost points are
        republished, and the queue drains."""
        for _ in range(4):
            for claim, item in self.held:
                self.execute(claim, item)
            self.held = []
            self.backend._recover(
                self.spool, self.outstanding, self.attempts, lease=-1.0, now=time.time()
            )
            self.lost.clear()
            while (claim := self.spool.claim_next(LIVE)) is not None:
                self.execute(claim, claim.load()[0])
            self.collect()
            if not self.outstanding:
                return
        raise AssertionError(f"points never settled: {sorted(self.outstanding)}")


SpoolMachine.TestCase.settings = settings(
    max_examples=40,
    stateful_step_count=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestSpoolStateMachine = SpoolMachine.TestCase
