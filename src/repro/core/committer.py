"""``TryDecide`` / ``ExtendCommitSequence`` — Algorithm 1 of the paper.

The committer sweeps leader slots from the highest round down to the
first unfinalized one, classifying each with the direct rule and falling
back to the indirect rule (which consults the statuses of the later
slots computed earlier in the same sweep).  It then walks the resulting
slot sequence in ascending order, finalizing every decided prefix slot:
committed leader blocks are linearized into the global commit sequence
(DagRider-style, Section 3.2 step 5) and skipped slots are passed over.
The walk stops at the first undecided slot.

Decided slot classifications are final (Lemmas 4-6), so they are cached
and never recomputed.

The walk is incremental for undecided slots too: each one caches its
status together with an *input stamp*, and an equal stamp returns the
cached status without running the decision rules.  The stamp is the
block counts of the slot's propose, vote and certify rounds plus, for
the indirect rule, the digest of a committed anchor's block; while the
coin is closed it is the certify round's count alone.  The rules read
nothing else: everything below those rounds is their fixed causal
history, and round contents only grow above the cursor (garbage
collection prunes only below it), so an equal count is an equal block
set.  The anchor itself is found in O(1) per slot during the top-down
sweep, and each classification elects the slot's validator once.

Stamps say nothing about the committee schedule, so the memo is dropped
wherever the other caches are invalidated:

* ``_advance_cursor`` pops the finalized slot's stamp (the memo only
  ever holds slots between the cursor and the DAG frontier);
* ``_apply_reconfig`` drops the whole memo, because the schedule moved;
* ``adopt_checkpoint`` drops it, because the cursor jumped;
* ``MahiMahiCore.raise_sync_floor`` drops it (:meth:`drop_stamps`) next
  to the traversal memos it drops below the new floor.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from ..block import Block
from ..committee import Committee, CommitteeSchedule, reconfig_commands_in
from ..config import ProtocolConfig
from ..crypto.coin import CommonCoin
from ..crypto.hashing import Digest
from ..dag.store import DagStore
from ..dag.traversal import DagTraversal
from ..errors import ReproError
from ..statesync import DEFAULT_CHECKPOINT_LAG, Checkpoint, CommitLedger
from .decider import UNKNOWN_AUTHORITY, Decider, LeaderElector
from .slots import Decision, LeaderSlot, SlotStatus

#: The first round that hosts leader slots (genesis round 0 never does).
FIRST_LEADER_ROUND = 1


@dataclass(frozen=True)
class CommitObservation:
    """One finalized leader slot and the blocks it newly linearized."""

    status: SlotStatus
    linearized: tuple[Block, ...]


@dataclass
class CommitterStats:
    """Running counters exposed for the evaluation (Section 5 discusses
    the direct/indirect commit mix and the skip behaviour)."""

    direct_commits: int = 0
    indirect_commits: int = 0
    direct_skips: int = 0
    indirect_skips: int = 0
    blocks_committed: int = 0
    transactions_committed: int = 0

    def record(self, status: SlotStatus, linearized_count: int, tx_count: int) -> None:
        if status.decision is Decision.COMMIT:
            if status.direct:
                self.direct_commits += 1
            else:
                self.indirect_commits += 1
        elif status.decision is Decision.SKIP:
            if status.direct:
                self.direct_skips += 1
            else:
                self.indirect_skips += 1
        self.blocks_committed += linearized_count
        self.transactions_committed += tx_count


class Committer:
    """Drives the decision rules over the whole DAG (Algorithm 1)."""

    def __init__(
        self,
        store: DagStore,
        committee: "Committee | CommitteeSchedule",
        coin: CommonCoin,
        config: ProtocolConfig,
        *,
        wave_stride: int = 1,
        direct_skip_enabled: bool = True,
        first_leader_round: int = FIRST_LEADER_ROUND,
    ) -> None:
        """Create a committer.

        Args:
            store: The local DAG (shared with the protocol core).
            committee: Validator set — a static :class:`Committee` or an
                epoch-versioned
                :class:`~repro.committee.CommitteeSchedule` (shared with
                the protocol core so quorum arithmetic everywhere
                follows the epochs this commit walk activates).
            coin: Common coin used for leader election.
            config: Wave length and leaders-per-round.
            wave_stride: Distance between consecutive propose rounds.
                Mahi-Mahi starts a wave every round (stride 1,
                Section 2.3); Cordial Miners uses non-overlapping waves
                (stride = wave length).
            direct_skip_enabled: Forwarded to the deciders.
            first_leader_round: The first propose round.
        """
        self._store = store
        self.schedule = CommitteeSchedule.ensure(committee)
        self._config = config
        self._wave_stride = wave_stride
        self._first_leader_round = first_leader_round
        self.traversal = DagTraversal(
            store,
            self.schedule.quorum_threshold,
            membership=self.schedule.committee_at,
        )
        self._elector = LeaderElector(store, self.schedule, coin)
        self._deciders = [
            Decider(
                store,
                self.traversal,
                self.schedule,
                self._elector,
                config.wave_length,
                leader_offset,
                direct_skip_enabled=direct_skip_enabled,
            )
            for leader_offset in range(config.leaders_per_round)
        ]
        # Final (decided) slot classifications; decided statuses never
        # change (Lemmas 4-6), so this is a pure cache.
        self._decided: dict[tuple[int, int], SlotStatus] = {}
        # Undecided slot -> (input stamp, status at that stamp); see the
        # module docstring.
        self._stamps: dict[tuple[int, int], tuple[object, SlotStatus]] = {}
        # Next slot to finalize in the global sequence.
        self._cursor_round = first_leader_round
        self._cursor_offset = 0
        # Digests already emitted into the commit sequence.
        self._output: set[Digest] = set()
        self.stats = CommitterStats()
        self.committed_sequence_length = 0
        # Commit-chain digest + periodic checkpoint capture (state
        # transfer, repro.statesync).  The capture horizon follows the
        # GC depth so the two "history below this is settled" lines
        # coincide; without GC a fixed default lag applies.
        self.ledger = CommitLedger(
            store,
            self.schedule.genesis_committee.size,
            interval=config.checkpoint_interval_rounds,
            lag=config.garbage_collection_depth or DEFAULT_CHECKPOINT_LAG,
            schedule=self.schedule,
        )
        # Reconfiguration: with a non-zero activation lag, the walk
        # scans linearized transactions for committed join/leave
        # commands and schedules the resulting epochs.
        self._reconfig_lag = config.reconfig_activation_lag

    # ------------------------------------------------------------------
    # Slot geometry
    # ------------------------------------------------------------------
    def is_leader_round(self, round_number: int) -> bool:
        """Whether ``round_number`` hosts leader slots."""
        if round_number < self._first_leader_round:
            return False
        return (round_number - self._first_leader_round) % self._wave_stride == 0

    def leader_rounds(self, up_to: int) -> list[int]:
        """All leader rounds in ``[first_leader_round, up_to]``."""
        return list(range(self._first_leader_round, up_to + 1, self._wave_stride))

    @property
    def leaders_per_round(self) -> int:
        return self._config.leaders_per_round

    # ------------------------------------------------------------------
    # TryDecide (Algorithm 1 line 11)
    # ------------------------------------------------------------------
    def try_decide(self, from_round: int, to_round: int) -> list[SlotStatus]:
        """Classify every leader slot in ``[from_round, to_round]``.

        Slots are processed from the highest down (so the indirect rule
        can consult later slots) and returned in ascending order.
        """
        statuses: deque[SlotStatus] = deque()
        waves = self._deciders[0]  # every offset shares the wave geometry
        offsets = range(self._config.leaders_per_round - 1, -1, -1)
        # round -> the lowest non-skipped slot at or above it: the
        # anchor (Algorithm 2 line 29) of every slot whose certify round
        # lies just below.
        unskipped_from: dict[int, SlotStatus | None] = {}
        lowest_unskipped: SlotStatus | None = None
        for round_number in range(to_round, from_round - 1, -1):
            if self.is_leader_round(round_number):
                anchor = unskipped_from.get(waves.certify_round(round_number) + 1)
                for offset in offsets:
                    status = self._classify_slot(round_number, offset, anchor)
                    statuses.appendleft(status)
                    if status.decision is not Decision.SKIP:
                        lowest_unskipped = status
            unskipped_from[round_number] = lowest_unskipped
        return list(statuses)

    def _classify_slot(
        self, round_number: int, offset: int, anchor: SlotStatus | None
    ) -> SlotStatus:
        key = (round_number, offset)
        cached = self._decided.get(key)
        if cached is not None:
            return cached
        memo = self._stamps.get(key)
        if memo is not None and memo[0] == self._stamp(memo[1], anchor):
            return memo[1]
        decider = self._deciders[offset]
        authority = decider.elect(round_number)
        status = decider.try_direct_decide(round_number, authority)
        if not status.is_decided and authority != UNKNOWN_AUTHORITY:
            status = decider.try_indirect_decide(round_number, authority, anchor)
        if status.is_decided:
            self._decided[key] = status
            self._stamps.pop(key, None)
        else:
            self._stamps[key] = (self._stamp(status, anchor), status)
        return status

    def _stamp(self, status: SlotStatus, anchor: SlotStatus | None) -> object:
        """Everything the decision rules read to derive the undecided
        ``status``: equal stamps mean an equal status.

        The rules read the blocks of the propose, vote and certify
        rounds (what lies below them is their fixed causal history), and
        the indirect rule reads the anchor's block when it is committed
        (it yields UNDECIDED for any other anchor).  While the coin is
        closed only the certify round's blocks can open it.
        """
        propose_round = status.slot.round
        decider = self._deciders[status.slot.offset]
        size = self._store.round_size
        certify = size(decider.certify_round(propose_round))
        if status.slot.authority == UNKNOWN_AUTHORITY:
            return certify
        return (
            size(propose_round),
            size(decider.vote_round(propose_round)),
            certify,
            None if anchor is None or anchor.block is None else anchor.block.digest,
        )

    # ------------------------------------------------------------------
    # ExtendCommitSequence (Algorithm 1 line 3)
    # ------------------------------------------------------------------
    def extend_commit_sequence(self) -> list[CommitObservation]:
        """Finalize every decided slot after the cursor, in order.

        Idempotent: calling repeatedly without new blocks returns an
        empty extension.  Returns one observation per finalized slot
        (committed slots carry their newly linearized blocks).
        """
        highest = self._store.highest_round
        if highest < self._cursor_round:
            return []
        statuses = self.try_decide(self._cursor_round, highest)
        observations: list[CommitObservation] = []
        for status in statuses:
            expected = (self._cursor_round, self._cursor_offset)
            if (status.slot.round, status.slot.offset) != expected:
                continue  # slots before the cursor were finalized earlier
            if not status.is_decided:
                break  # Algorithm 1 line 7: stop at the first undecided
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
            self.ledger.extend(linearized)
            epoch_scheduled = False
            if self._reconfig_lag and linearized:
                epoch_scheduled = self._apply_reconfig(linearized, status.slot.round)
            self._advance_cursor()
            # Capture is checked after *every* single-slot advance, so a
            # validator that finalizes ten slots in one batch captures
            # the same checkpoints as one that walked them one by one.
            self.ledger.maybe_capture(
                self.last_finalized_round, (self._cursor_round, self._cursor_offset)
            )
            if epoch_scheduled:
                # The remaining pre-computed statuses were classified
                # under the pre-epoch schedule; restart the walk so
                # everything past this slot is re-derived.
                observations.extend(self.extend_commit_sequence())
                break
        return observations

    def _apply_reconfig(self, linearized: tuple[Block, ...], slot_round: int) -> bool:
        """Activate committed reconfiguration commands.

        Commands linearized by the slot at ``slot_round`` activate at
        ``slot_round + reconfig_activation_lag`` — a deterministic
        commit-walk point: every honest validator finalizes the same
        slots with the same linearized blocks in the same order, so all
        schedules agree on every epoch boundary.  The lag keeps the
        activation strictly above every finalized slot, which is what
        makes dropping the not-yet-final decision caches safe: none of
        the dropped classifications was finalized, and they recompute
        under the updated schedule before the cursor reaches them.

        Invalidation is *round-scoped*: only cached state that the new
        epoch can actually change is dropped.  With the activation round
        ``A`` (the minimum ``start_round`` among the epochs just
        scheduled):

        * ``_decided`` — direct decisions at rounds < ``A`` depend only
          on the committee of their own wave (unchanged below ``A``) and
          certificate accumulation is monotone, so they stay.  Cached
          *indirect* decisions are all evicted regardless of round: the
          indirect rule anchors on the first non-skipped slot after the
          certify round, which can sit at rounds >= ``A`` via a skip
          chain, and its classification may change under the new
          committee.  (Everything cached sits above the cursor —
          finalized entries are popped by ``_advance_cursor`` — so this
          still evicts far less than a full clear.)
        * cert memos — ``IsCert`` resolves quorum/membership at the
          *leader's* round, so only leader rounds >= ``A`` are dropped.
        * elector — the cached certify round always bounds the wave's
          epoch round from above, so dropping certify rounds >= ``A``
          covers every entry the new committee could re-judge.
        * input stamps — all dropped: a stamp records round sizes, not
          the committee its status was judged under.

        Returns whether at least one epoch was scheduled.
        """
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
                key
                for key, status in self._decided.items()
                if key[0] >= activation or not status.direct
            ]
            for key in stale:
                del self._decided[key]
            self._stamps.clear()
            self.traversal.invalidate_above(activation)
            self._elector.invalidate_above(activation)
        return scheduled

    def adopt_checkpoint(self, checkpoint: Checkpoint) -> None:
        """Restore commit state from a quorum-attested checkpoint.

        Only a pristine committer (fresh validator core, nothing
        committed) may adopt: the cursor jumps to the checkpoint's
        ``next_slot``, the already-linearized set is seeded from its
        references, and the commit chain continues from its state
        digest.  The caller is responsible for flooring the DAG store
        (:meth:`~repro.dag.store.DagStore.adopt_floor`) so the suffix
        above the checkpoint can be fetched without its pruned history.
        """
        if self.committed_sequence_length or self._output:
            raise ReproError("only a fresh committer may adopt a checkpoint")
        self._cursor_round, self._cursor_offset = checkpoint.next_slot
        self._decided.clear()
        self._stamps.clear()
        self._output = {ref.digest for ref in checkpoint.linearized}
        self.committed_sequence_length = checkpoint.sequence_length
        self.ledger.adopt(checkpoint)

    def drop_stamps(self) -> None:
        """Forget every undecided slot's input stamp, so the next walk
        re-runs the decision rules on all of them (called when the
        state-transfer floor rises under the walk)."""
        self._stamps.clear()

    def _advance_cursor(self) -> None:
        key = (self._cursor_round, self._cursor_offset)
        self._decided.pop(key, None)
        self._stamps.pop(key, None)
        self._cursor_offset += 1
        if self._cursor_offset >= self._config.leaders_per_round:
            self._cursor_offset = 0
            self._cursor_round += self._wave_stride

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def next_slot(self) -> LeaderSlot:
        """The next slot the sequence extension will consider."""
        return LeaderSlot(round=self._cursor_round, offset=self._cursor_offset, authority=-1)

    @property
    def last_finalized_round(self) -> int:
        """Highest round fully finalized (all its slots decided)."""
        if self._cursor_offset == 0:
            return self._cursor_round - self._wave_stride
        return self._cursor_round - 1

    def slot_statuses(self, up_to: int | None = None) -> list[SlotStatus]:
        """Classify and return all slots from the cursor up to ``up_to``
        (defaults to the highest DAG round) without finalizing anything."""
        highest = self._store.highest_round if up_to is None else up_to
        if highest < self._cursor_round:
            return []
        return self.try_decide(self._cursor_round, highest)
