"""Tusk [18]: certified-DAG asynchronous consensus.

Tusk certifies every DAG vertex with an explicit consistent-broadcast
round (block → acks → certificate, three message delays — enforced in
the simulator by :class:`~repro.sim.node.SimValidator`'s certified
mode), so equivocation never reaches the DAG.  Its commit rule uses
2-round waves:

* the leader of wave ``w`` lives in the wave's first round ``r``;
* the common coin electing that leader opens with the blocks of round
  ``r + 2`` (selected "after the fact", like Mahi-Mahi);
* the leader commits *directly* when at least ``f + 1`` round-``r+1``
  blocks reference it;
* otherwise the decision defers to the next committed leader: an
  earlier leader commits iff it lies in that leader's causal history
  (the DAG-Rider-style recursion).

End-to-end this costs at least nine message delays per commit (three
certified rounds at three delays each), the number the paper quotes for
Tusk (Sections 1 and 2.2).
"""

from __future__ import annotations

from ..block import Block
from ..committee import Committee, CommitteeSchedule, reconfig_commands_in
from ..core.committer import CommitObservation, CommitterStats, FIRST_LEADER_ROUND
from ..core.decider import LeaderElector, UNKNOWN_AUTHORITY
from ..core.slots import Decision, LeaderSlot, SlotStatus
from ..crypto.coin import CommonCoin
from ..crypto.hashing import Digest
from ..dag.store import DagStore
from ..dag.traversal import DagTraversal
from ..errors import ReproError
from ..statesync import DEFAULT_CHECKPOINT_LAG, Checkpoint, CommitLedger

#: Rounds per Tusk wave (leader round + support round).
TUSK_WAVE = 2
#: Rounds after the leader at which its electing coin opens.
TUSK_COIN_DELAY = 2


class TuskCommitter:
    """Tusk's commit rule; same interface as :class:`~repro.core.Committer`."""

    def __init__(
        self,
        store: DagStore,
        committee: "Committee | CommitteeSchedule",
        coin: CommonCoin,
        *,
        first_leader_round: int = FIRST_LEADER_ROUND,
        checkpoint_interval: int = 0,
        checkpoint_lag: int = DEFAULT_CHECKPOINT_LAG,
        reconfig_activation_lag: int = 0,
    ) -> None:
        self._store = store
        self.schedule = CommitteeSchedule.ensure(committee)
        self._first_leader_round = first_leader_round
        self.traversal = DagTraversal(
            store,
            self.schedule.quorum_threshold,
            membership=self.schedule.committee_at,
        )
        self._elector = LeaderElector(store, self.schedule, coin)
        self._decided: dict[int, SlotStatus] = {}
        self._cursor_round = first_leader_round
        self._output: set[Digest] = set()
        self.stats = CommitterStats()
        self.committed_sequence_length = 0
        self.ledger = CommitLedger(
            store,
            self.schedule.genesis_committee.size,
            interval=checkpoint_interval,
            lag=checkpoint_lag,
            schedule=self.schedule,
        )
        self._reconfig_lag = reconfig_activation_lag

    # ------------------------------------------------------------------
    # Wave geometry
    # ------------------------------------------------------------------
    def is_leader_round(self, round_number: int) -> bool:
        """Leader rounds are the first round of each 2-round wave."""
        if round_number < self._first_leader_round:
            return False
        return (round_number - self._first_leader_round) % TUSK_WAVE == 0

    def coin_round(self, leader_round: int) -> int:
        """The round whose blocks open the wave's coin."""
        return leader_round + TUSK_COIN_DELAY

    # ------------------------------------------------------------------
    # Decision rules
    # ------------------------------------------------------------------
    def _direct_decide(self, leader_round: int) -> SlotStatus:
        authority = self._elector.leader(self.coin_round(leader_round), 0, leader_round)
        slot = LeaderSlot(round=leader_round, offset=0, authority=authority)
        if authority == UNKNOWN_AUTHORITY:
            return SlotStatus(slot=slot, decision=Decision.UNDECIDED)
        candidates = self._store.slot_blocks(leader_round, authority)
        validity = self.schedule.validity_threshold(leader_round)
        for candidate in sorted(candidates, key=lambda b: b.digest):
            if self._support(candidate) >= validity:
                return SlotStatus(
                    slot=slot, decision=Decision.COMMIT, block=candidate, direct=True
                )
        return SlotStatus(slot=slot, decision=Decision.UNDECIDED)

    def _support(self, leader: Block) -> int:
        """Distinct round-``r+1`` authors (members of the wave's epoch)
        whose block references ``leader`` directly (certified DAG:
        references are unequivocal votes)."""
        committee = self.schedule.committee_at(leader.round)
        supporters: set[int] = set()
        for block in self._store.round_blocks(leader.round + 1):
            if block.author in supporters or not committee.is_member(block.author):
                continue
            if any(ref.digest == leader.digest for ref in block.parents):
                supporters.add(block.author)
        return len(supporters)

    def _indirect_decide(
        self, leader_round: int, higher: list[SlotStatus]
    ) -> SlotStatus:
        authority = self._elector.leader(self.coin_round(leader_round), 0, leader_round)
        slot = LeaderSlot(round=leader_round, offset=0, authority=authority)
        if authority == UNKNOWN_AUTHORITY:
            return SlotStatus(slot=slot, decision=Decision.UNDECIDED)
        anchor = next(
            (
                status
                for status in higher
                if status.slot.round > leader_round and status.decision is not Decision.SKIP
            ),
            None,
        )
        if anchor is None or anchor.decision is Decision.UNDECIDED:
            return SlotStatus(slot=slot, decision=Decision.UNDECIDED)
        assert anchor.block is not None
        for candidate in sorted(
            self._store.slot_blocks(leader_round, authority), key=lambda b: b.digest
        ):
            if self.traversal.is_link(candidate, anchor.block):
                return SlotStatus(
                    slot=slot, decision=Decision.COMMIT, block=candidate, direct=False
                )
        return SlotStatus(slot=slot, decision=Decision.SKIP, direct=False)

    # ------------------------------------------------------------------
    # TryDecide / ExtendCommitSequence
    # ------------------------------------------------------------------
    def try_decide(self, from_round: int, to_round: int) -> list[SlotStatus]:
        """Classify leader slots in ``[from_round, to_round]``, ascending."""
        statuses: list[SlotStatus] = []
        for round_number in range(to_round, from_round - 1, -1):
            if not self.is_leader_round(round_number):
                continue
            cached = self._decided.get(round_number)
            if cached is not None:
                statuses.insert(0, cached)
                continue
            status = self._direct_decide(round_number)
            if not status.is_decided:
                status = self._indirect_decide(round_number, statuses)
            if status.is_decided:
                self._decided[round_number] = status
            statuses.insert(0, status)
        return statuses

    def extend_commit_sequence(self) -> list[CommitObservation]:
        """Finalize decided slots in order; stop at the first undecided."""
        highest = self._store.highest_round
        if highest < self._cursor_round:
            return []
        statuses = self.try_decide(self._cursor_round, highest)
        observations: list[CommitObservation] = []
        for status in statuses:
            if status.slot.round != self._cursor_round:
                continue
            if not status.is_decided:
                break
            linearized: tuple[Block, ...] = ()
            if status.decision is Decision.COMMIT:
                assert status.block is not None
                linearized = tuple(
                    self.traversal.linearize(
                        [status.block], self._output, floor_round=self._store.lowest_round
                    )
                )
                self.committed_sequence_length += len(linearized)
            tx_count = sum(len(b.transactions) for b in linearized)
            self.stats.record(status, len(linearized), tx_count)
            observations.append(CommitObservation(status=status, linearized=linearized))
            self._decided.pop(self._cursor_round, None)
            slot_round = self._cursor_round
            self._cursor_round += TUSK_WAVE
            self.ledger.extend(linearized)
            epoch_scheduled = False
            if self._reconfig_lag and linearized:
                epoch_scheduled = self._apply_reconfig(linearized, slot_round)
            self.ledger.maybe_capture(self.last_finalized_round, (self._cursor_round, 0))
            if epoch_scheduled:
                # Remaining pre-computed statuses used the pre-epoch
                # schedule; restart the walk (same contract as the
                # Mahi-Mahi committer).
                observations.extend(self.extend_commit_sequence())
                break
        return observations

    def _apply_reconfig(self, linearized: tuple[Block, ...], slot_round: int) -> bool:
        """Activate committed join/leave commands at the deterministic
        commit-walk point ``slot_round + reconfig_activation_lag`` (see
        :meth:`repro.core.committer.Committer._apply_reconfig` — the
        same resolution rules keep the baseline comparison
        apples-to-apples).

        Invalidation is round-scoped like the Mahi-Mahi committer's:
        cached direct decisions below the activation round survive
        (support counting resolves against the leader round's committee,
        unchanged below the activation), while indirect decisions —
        whose anchor may sit at rounds >= the activation — and anything
        at rounds >= the activation are evicted."""
        scheduled = False
        activation: int | None = None
        for command in reconfig_commands_in(linearized):
            epoch = self.schedule.apply_command(command, slot_round + self._reconfig_lag)
            if epoch is not None:
                scheduled = True
                if activation is None or epoch.start_round < activation:
                    activation = epoch.start_round
        if scheduled:
            assert activation is not None
            stale = [
                leader_round
                for leader_round, status in self._decided.items()
                if leader_round >= activation or not status.direct
            ]
            for leader_round in stale:
                del self._decided[leader_round]
            self.traversal.invalidate_above(activation)
            self._elector.invalidate_above(activation)
        return scheduled

    def adopt_checkpoint(self, checkpoint: Checkpoint) -> None:
        """Restore commit state from a quorum-attested checkpoint (same
        contract as :meth:`repro.core.committer.Committer.adopt_checkpoint`)."""
        if self.committed_sequence_length or self._output:
            raise ReproError("only a fresh committer may adopt a checkpoint")
        self._cursor_round = checkpoint.next_slot[0]
        self._decided.clear()
        self._output = {ref.digest for ref in checkpoint.linearized}
        self.committed_sequence_length = checkpoint.sequence_length
        self.ledger.adopt(checkpoint)

    def drop_stamps(self) -> None:
        """Nothing to drop: unlike
        :meth:`repro.core.committer.Committer.drop_stamps`, this walk
        keeps no per-slot input stamps."""

    @property
    def last_finalized_round(self) -> int:
        """Highest fully finalized leader round."""
        return self._cursor_round - TUSK_WAVE


def make_tusk_committer(
    store: DagStore,
    committee: "Committee | CommitteeSchedule",
    coin: CommonCoin,
    *,
    checkpoint_interval: int = 0,
    checkpoint_lag: int = DEFAULT_CHECKPOINT_LAG,
    reconfig_activation_lag: int = 0,
) -> TuskCommitter:
    """Build a Tusk committer over ``store`` (factory used by the sim)."""
    return TuskCommitter(
        store,
        committee,
        coin,
        checkpoint_interval=checkpoint_interval,
        checkpoint_lag=checkpoint_lag,
        reconfig_activation_lag=reconfig_activation_lag,
    )
