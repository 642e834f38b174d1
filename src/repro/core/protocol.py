"""The transport-agnostic Mahi-Mahi validator core.

:class:`MahiMahiCore` owns a validator's DAG, mempool, proposer and
committer, and exposes three entry points:

* :meth:`MahiMahiCore.add_transaction` — client payloads;
* :meth:`MahiMahiCore.add_block` — blocks from peers (buffered until
  their causal history is complete, per Section 2.3);
* :meth:`MahiMahiCore.maybe_propose` — emits this validator's next
  block once ``2f + 1`` blocks of the previous round arrived.

Every state change calls ``ExtendCommitSequence`` (Appendix A: "called
every time the validator receives a new block") and newly committed
blocks are surfaced to the host (simulator node or asyncio runtime).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from ..block import Block, BlockRef, make_genesis
from ..committee import Committee, CommitteeSchedule
from ..config import ProtocolConfig
from ..crypto.coin import CommonCoin
from ..crypto.hashing import Digest
from ..dag.store import DagStore
from ..dag.validation import BlockVerifier
from ..errors import BlockValidationError, DuplicateBlockError
from ..statesync import Checkpoint
from ..transaction import Transaction
from .committer import Committer, CommitObservation


@dataclass(frozen=True)
class AddBlockResult:
    """Outcome of ingesting one block.

    Attributes:
        accepted: Blocks that entered the DAG (the given block plus any
            previously buffered blocks it unblocked).
        missing: Parent references we do not have; the host should fetch
            them (the runtime's synchronizer does, the simulator's
            in-order delivery makes this rare).
        rejected: Whether the block failed validation outright.
    """

    accepted: tuple[Block, ...] = ()
    missing: tuple[BlockRef, ...] = ()
    rejected: bool = False


class MahiMahiCore:
    """One validator's protocol state machine."""

    def __init__(
        self,
        authority: int,
        committee: "Committee | CommitteeSchedule",
        config: ProtocolConfig,
        coin: CommonCoin,
        *,
        verifier: BlockVerifier | None = None,
        sign: "callable | None" = None,
        committer_factory: "callable | None" = None,
    ) -> None:
        """Create a validator core.

        Args:
            authority: This validator's committee index.
            committee: The validator set — a static :class:`Committee`
                or an epoch-versioned
                :class:`~repro.committee.CommitteeSchedule`.  The core
                and its committer share one schedule, so epochs the
                commit walk activates govern quorum counting and
                proposing here too.
            config: Protocol parameters.
            coin: This validator's common-coin instance (must hold the
                secret share for ``authority`` if shares are real).
            verifier: Optional block verifier; when omitted only
                store-level causal completeness is enforced (the
                simulator's default — Byzantine behaviour is modeled).
            sign: Optional ``bytes -> bytes`` signing callback applied to
                each proposed block's signable bytes.
            committer_factory: ``DagStore -> committer`` override; the
                baselines (Tusk, Cordial Miners) install their own
                commit rules over the same DAG this way.  A committer
                exposing a ``schedule`` attribute shares it with the
                core (pass the core's schedule into the factory to make
                that a single object).
        """
        self.authority = authority
        schedule = CommitteeSchedule.ensure(committee)
        self.config = config
        self.coin = coin
        self.store = DagStore()
        self._verifier = verifier
        self._sign = sign
        if committer_factory is not None:
            self.committer = committer_factory(self.store)
            # Adopt the committer's schedule when it exposes one: the
            # commit walk is what activates epochs, and thresholds here
            # must follow them.
            self.schedule = getattr(self.committer, "schedule", None) or schedule
        else:
            self.schedule = schedule
            self.committer = Committer(self.store, schedule, coin, config)
        self.committee = self.schedule.genesis_committee

        # Genesis blocks exist for every *provisioned* validator — also
        # the ones outside the genesis committee that may join later —
        # so a joiner's round-1 bootstrap looks like everyone else's.
        genesis = make_genesis(self.schedule.provisioned)
        self.store.add_genesis(genesis)
        self._own_last_ref: BlockRef = genesis[authority].reference

        self.mempool: deque[Transaction] = deque()
        self.round = 0  # round of our latest proposal
        # Blocks waiting for missing ancestors: digest -> block, plus a
        # reverse index from missing digest to the blocks waiting on it.
        self._pending: dict[Digest, Block] = {}
        self._waiting_on: dict[Digest, list[Digest]] = {}
        # DAG tips: blocks not yet referenced by any accepted block; the
        # next proposal references all of them (bounded by config).
        self._tips: dict[Digest, BlockRef] = {b.digest: b.reference for b in genesis}
        self.committed: list[CommitObservation] = []
        self.total_proposed = 0

    # ------------------------------------------------------------------
    # Transactions
    # ------------------------------------------------------------------
    def add_transaction(self, tx: Transaction) -> None:
        """Queue a client transaction for inclusion in the next proposal."""
        self.mempool.append(tx)

    @property
    def pending_count(self) -> int:
        """Blocks buffered while waiting for missing ancestors (a
        re-syncing validator is caught up once this drains to zero)."""
        return len(self._pending)

    def missing_frontier(self) -> tuple[BlockRef, ...]:
        """Every parent reference the buffered (pending) blocks still
        wait for — neither stored nor itself buffered.  A re-syncing
        validator fetches exactly this set to pull the next chunk of
        history."""
        refs: dict[Digest, BlockRef] = {}
        floor = self.store.sync_floor
        for block in self._pending.values():
            for ref in block.parents:
                if (
                    ref.round >= floor
                    and ref.digest not in self.store
                    and ref.digest not in self._pending
                ):
                    refs[ref.digest] = ref
        return tuple(refs.values())

    # ------------------------------------------------------------------
    # State transfer
    # ------------------------------------------------------------------
    def adopt_checkpoint(self, checkpoint: Checkpoint) -> None:
        """Fast-forward a fresh core to a quorum-attested checkpoint.

        The DAG store adopts the checkpoint's floor (parents below it
        count as present — their sub-DAGs are summarized by the
        checkpoint), the committer resumes the commit sequence from the
        checkpoint's cursor with its already-linearized set seeded, and
        the proposal round is floored at the checkpoint round so the
        validator can never re-propose in a round its pre-crash
        incarnation used below the adopted frontier.  The host then
        deep-fetches only the suffix at or above the floor.

        A checkpoint carrying an epoch snapshot also seeds this core's
        committee schedule: the reconfiguration commands behind those
        epochs may sit below the floor, where this validator never
        looks, so the attested snapshot is the only way to learn them.
        """
        if checkpoint.epochs and self.schedule.is_static:
            self.schedule.adopt_epochs(checkpoint.epochs)
        self.store.adopt_floor(checkpoint.floor)
        self.committer.adopt_checkpoint(checkpoint)
        self.round = max(self.round, checkpoint.round)

    def raise_sync_floor(self, round_number: int) -> list[Block]:
        """Raise the state-transfer floor mid-recovery.

        Used when a sync peer reports that history inside the adopted
        span is already behind its pruning horizon: pruning happens only
        ``gc_depth`` rounds behind finality, so that span is globally
        settled and this validator may treat it as such too.  Pending
        blocks that were only waiting on now-floored parents are
        re-flowed into the DAG; returns the blocks accepted that way.
        """
        self.store.adopt_floor(round_number)
        self.committer.traversal.invalidate_below(round_number)
        self.committer.drop_stamps()
        accepted: list[Block] = []
        progress = True
        while progress:
            progress = False
            for digest, block in list(self._pending.items()):
                if digest not in self._pending:
                    continue  # flushed as a waiter of an earlier reflow
                if self.store.missing_parents(block):
                    continue
                if any(ref.digest in self._pending for ref in block.parents):
                    continue
                del self._pending[digest]
                accepted.extend(self._insert(block))
                progress = True
        return accepted

    # ------------------------------------------------------------------
    # Block ingestion
    # ------------------------------------------------------------------
    def add_block(self, block: Block) -> AddBlockResult:
        """Ingest a block received from a peer (or replayed from the WAL)."""
        if block.digest in self.store or block.digest in self._pending:
            return AddBlockResult()
        if self._verifier is not None:
            try:
                self._verifier.verify(block)
            except BlockValidationError:
                return AddBlockResult(rejected=True)

        missing = [
            ref for ref in self.store.missing_parents(block) if ref.digest not in self._pending
        ]
        pending_parents = [
            ref for ref in block.parents
            if ref.digest in self._pending
        ]
        if missing or pending_parents:
            self._pending[block.digest] = block
            for ref in block.parents:
                if ref.digest not in self.store:
                    self._waiting_on.setdefault(ref.digest, []).append(block.digest)
            return AddBlockResult(missing=tuple(missing))

        accepted = self._insert(block)
        return AddBlockResult(accepted=tuple(accepted))

    def _insert(self, block: Block) -> list[Block]:
        """Insert a causally-complete block and flush unblocked pending
        blocks, breadth-first."""
        accepted: list[Block] = []
        queue = deque([block])
        while queue:
            current = queue.popleft()
            try:
                self.store.add(current)
            except DuplicateBlockError:
                continue
            accepted.append(current)
            self._track_tips(current)
            for waiter_digest in self._waiting_on.pop(current.digest, []):
                waiter = self._pending.get(waiter_digest)
                if waiter is None:
                    continue
                if not self.store.missing_parents(waiter):
                    del self._pending[waiter_digest]
                    queue.append(waiter)
        return accepted

    def _track_tips(self, block: Block) -> None:
        for ref in block.parents:
            self._tips.pop(ref.digest, None)
        self._tips[block.digest] = block.reference

    # ------------------------------------------------------------------
    # Proposing
    # ------------------------------------------------------------------
    def quorum_round(self) -> int:
        """Highest round ``r`` such that round ``r`` has blocks from at
        least ``2f + 1`` distinct authors *of ``r``'s epoch committee*
        (the next proposal goes to ``r + 1``)."""
        store = self.store
        schedule = self.schedule
        r = store.highest_round
        if schedule.is_static and schedule.genesis_committee.size >= schedule.provisioned:
            # Static contiguous committee covering every provisioned
            # identity: raw author counts are already member counts.
            quorum = schedule.genesis_committee.quorum_threshold
            while r > 0 and store.num_authors_at_round(r) < quorum:
                r -= 1
            return r
        while r > 0:
            committee = schedule.committee_at(r)
            members = committee.count_members(store.authors_at_round(r))
            if members >= committee.quorum_threshold:
                break
            r -= 1
        return r

    def ready_to_propose(self) -> bool:
        """Whether a new proposal round is available."""
        return self.quorum_round() + 1 > self.round

    def maybe_propose(self, now: float = 0.0) -> Block | None:
        """Propose a block for the next round if its quorum is complete.

        The proposal references this validator's own previous block
        first (Section 2.3: "starting with their most recent block"),
        then every current DAG tip — which guarantees at least ``2f + 1``
        distinct previous-round parents and sweeps up late blocks from
        older rounds so their transactions still commit.
        """
        next_round = self.quorum_round() + 1
        if next_round <= self.round:
            return None
        if not self.schedule.committee_at(next_round).is_member(self.authority):
            # Outside the active committee of the target round: a joiner
            # waits for its epoch to activate, a left validator never
            # proposes again.  (Thresholds stopped counting us at the
            # same boundary, so liveness does not depend on this block.)
            return None
        parents = self._select_parents(next_round)
        transactions = self._drain_mempool()
        share = self.coin.share(self.authority, next_round)
        block = Block(
            author=self.authority,
            round=next_round,
            parents=parents,
            transactions=transactions,
            coin_share=share,
        )
        if self._sign is not None:
            block = Block(
                author=block.author,
                round=block.round,
                parents=block.parents,
                transactions=block.transactions,
                coin_share=block.coin_share,
                signature=self._sign(block.signable_bytes()),
            )
        self.round = next_round
        self.total_proposed += 1
        self._insert(block)
        self._own_last_ref = block.reference
        return block

    def restore_own_position(
        self, round_number: int | None = None, ref: BlockRef | None = None
    ) -> None:
        """Restore the proposal round and own-block reference after a
        recovery re-sync (WAL replay, deep fetch, or checkpoint adoption
        plus suffix fetch).

        A freshly restarted core's ``_own_last_ref`` points at its
        genesis block, which garbage collection may have pruned
        everywhere — proposals must lead with the newest *visible*
        own-authored block instead, and never re-use one of its rounds.

        Args:
            round_number: When given, floor the proposal round here (a
                WAL replay knows the exact highest own-authored round).
            ref: When given, lead the next proposal with this reference
                instead of scanning the store (hosts replaying their own
                durable log pass the last logged own block's reference).
        """
        if round_number is not None:
            self.round = max(self.round, round_number)
        if ref is not None:
            self._own_last_ref = ref
            return
        store = self.store
        for r in range(store.highest_round, max(0, store.lowest_round) - 1, -1):
            blocks = store.slot_blocks(r, self.authority)
            if blocks:
                self._own_last_ref = blocks[0].reference
                self.round = max(self.round, r)
                return

    def _select_parents(self, next_round: int) -> tuple[BlockRef, ...]:
        """Pick parent references for a round-``next_round`` proposal.

        Always includes the first-seen block of every author at round
        ``next_round - 1`` (which is a ``2f + 1`` quorum by the propose
        condition, and first-seen only so we never endorse equivocating
        siblings), plus every older DAG tip so late blocks still get
        swept into a causal history.  Our own previous block leads the
        list (Section 2.3) — unless it is no longer in the store (a
        restarted validator whose pre-crash blocks sit behind the GC or
        state-transfer horizon): referencing a pruned block would leave
        every peer unable to complete the causal history.
        """
        previous = next_round - 1
        own = self._own_last_ref
        parents: list[BlockRef] = [own] if own.digest in self.store else []
        seen: set[Digest] = {own.digest} if parents else set()
        for author in sorted(self.store.authors_at_round(previous)):
            ref = self.store.slot_blocks(previous, author)[0].reference
            if ref.digest not in seen:
                seen.add(ref.digest)
                parents.append(ref)
        older_tips = sorted(
            ref
            for ref in self._tips.values()
            # Tips below the GC horizon are dropped: referencing a pruned
            # block would leave peers unable to complete causal histories.
            if self.store.lowest_round <= ref.round < previous and ref.digest not in seen
        )
        parents.extend(older_tips)
        if self.config.max_block_parents:
            # Never drop previous-round parents (validity needs 2f+1).
            required = [p for p in parents if p.round >= previous or p.digest == own.digest]
            optional = [p for p in parents if p not in required]
            budget = max(0, self.config.max_block_parents - len(required))
            parents = required + optional[:budget]
        return tuple(parents)

    def _drain_mempool(self) -> tuple[Transaction, ...]:
        limit = self.config.max_block_transactions
        batch = []
        while self.mempool and len(batch) < limit:
            batch.append(self.mempool.popleft())
        return tuple(batch)

    # ------------------------------------------------------------------
    # Committing
    # ------------------------------------------------------------------
    def try_commit(self) -> list[CommitObservation]:
        """Extend the commit sequence; returns the new observations."""
        observations = self.committer.extend_commit_sequence()
        if observations:
            self.committed.extend(observations)
            self._maybe_garbage_collect()
        return observations

    def committed_blocks(self) -> list[Block]:
        """The full committed block sequence so far (test helper)."""
        return [b for obs in self.committed for b in obs.linearized]

    def _maybe_garbage_collect(self) -> None:
        depth = self.config.garbage_collection_depth
        if not depth:
            return
        horizon = self.committer.last_finalized_round - depth
        if horizon > self.store.lowest_round:
            self.store.prune_below(horizon)
            self.committer.traversal.invalidate_below(horizon)
