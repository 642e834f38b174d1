"""The epoch-resize commit-walk workload (shared by ``bench_micro`` and
the round-scoped invalidation tests).

Builds a canonical lockstep block stream whose transactions carry
committed join/leave :class:`~repro.committee.ReconfigCommand` payloads,
so replaying the stream into a fresh :class:`~repro.core.Committer`
crosses several epoch activations mid-walk.  The stream is produced once
by a *driver* committer (membership per round follows the epochs the
driver's own walk activates) and then replayed round by round into fresh
committers for timing and equivalence checks:

* the **full-clear** baseline (:class:`FullClearCommitter`) reproduces
  the pre-PR-6 behavior — every epoch activation clears all cached
  decisions, cert memos, and elector state, then re-walks from the
  cursor;
* the **incremental** variant (plain :class:`~repro.core.Committer`)
  invalidates only state at rounds >= the activation (plus cached
  indirect decisions, whose anchors may sit above it).

Both must finalize byte-identical observation sequences — that is the
equivalence test — and the incremental walk must be strictly faster on
this workload — that is the recorded before/after comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.block import Block, make_genesis
from repro.committee import Committee, CommitteeSchedule, ReconfigCommand, reconfig_commands_in
from repro.config import ProtocolConfig
from repro.core.committer import CommitObservation, Committer
from repro.crypto.coin import CoinShare, CommonCoin
from repro.crypto.hashing import hash_parts
from repro.dag.store import DagStore
from repro.errors import InsufficientShares
from repro.transaction import Transaction

#: Default lockstep depth of the workload.
DEFAULT_ROUNDS = 40
#: Default activation lag (rounds between a command's slot and its
#: epoch's first round).
DEFAULT_LAG = 4


class _StreamCoin(CommonCoin):
    """A deterministic coin for stream building/replay: value 0 at every
    round (electing the epoch's first member), shares derived by
    hashing.  Reconstruction still demands ``threshold`` distinct
    shares, so election waits for the certify round like the real
    protocol."""

    def share(self, author: int, round_number: int) -> CoinShare:
        value = hash_parts(
            [author.to_bytes(4, "little"), round_number.to_bytes(8, "little")],
            person=b"walk-share",
        )
        return CoinShare(author=author, round=round_number, value=value)

    def verify_share(self, share: CoinShare) -> bool:
        return share == self.share(share.author, share.round)

    def reconstruct(
        self, round_number: int, shares: list[CoinShare], *, threshold: int | None = None
    ) -> int:
        required = 1 if threshold is None else threshold
        distinct = {s.author for s in shares if s.round == round_number and self.verify_share(s)}
        if len(distinct) < required:
            raise InsufficientShares(f"round {round_number}: {len(distinct)} < {required}")
        return 0


class FullClearCommitter(Committer):
    """The pre-PR-6 committer: epoch activation clears every decision
    cache and memo wholesale, forcing the walk to re-derive everything
    above the cursor from scratch.  Kept as the *before* side of the
    commit-walk comparison."""

    def _apply_reconfig(self, linearized: tuple[Block, ...], slot_round: int) -> bool:
        scheduled = False
        for command in reconfig_commands_in(linearized):
            epoch = self.schedule.apply_command(command, slot_round + self._reconfig_lag)
            scheduled = scheduled or epoch is not None
        if scheduled:
            self._decided.clear()
            self._stamps.clear()
            self.traversal.invalidate_certs()
            self._elector.invalidate()
        return scheduled


@dataclass(frozen=True)
class EpochResizeStream:
    """The canonical workload: blocks grouped per round, in causal
    order, plus the deployment parameters a replayer needs."""

    rounds: tuple[tuple[Block, ...], ...]
    genesis_size: int
    provisioned: int
    lag: int

    @property
    def num_blocks(self) -> int:
        return sum(len(blocks) for blocks in self.rounds)


def _make_committer(
    stream_params: "EpochResizeStream | None",
    *,
    genesis_size: int,
    provisioned: int,
    lag: int,
    cls: type[Committer] = Committer,
) -> tuple[DagStore, Committer]:
    store = DagStore()
    store.add_genesis(make_genesis(genesis_size))
    schedule = CommitteeSchedule(Committee.of_size(genesis_size), provisioned=provisioned)
    committer = cls(
        store,
        schedule,
        _StreamCoin(),
        ProtocolConfig(wave_length=5, leaders_per_round=1, reconfig_activation_lag=lag),
    )
    return store, committer


def build_epoch_resize_stream(
    *,
    genesis_size: int = 4,
    provisioned: int = 7,
    rounds: int = DEFAULT_ROUNDS,
    lag: int = DEFAULT_LAG,
    txs_per_block: int = 2,
) -> EpochResizeStream:
    """Build the canonical epoch-resize block stream.

    Join commands for every spare provisioned validator are injected in
    the first third of the run and a leave for the last joiner near the
    two-thirds mark, so the committee grows and then shrinks while the
    commit walk is in flight — each committed command triggering one
    epoch activation mid-walk.
    """
    store, driver = _make_committer(
        None, genesis_size=genesis_size, provisioned=provisioned, lag=lag
    )
    coin = _StreamCoin()
    schedule = driver.schedule
    # Scripted membership commands: (round, command).
    spare = list(range(genesis_size, provisioned))
    scripted: dict[int, ReconfigCommand] = {}
    for i, validator in enumerate(spare):
        scripted[4 + 3 * i] = ReconfigCommand("join", validator)
    if spare:
        scripted[(rounds * 2) // 3] = ReconfigCommand("leave", spare[-1])
    tx_id = 0
    stream: list[tuple[Block, ...]] = []
    previous: list[Block] = list(make_genesis(genesis_size))
    for round_number in range(1, rounds + 1):
        members = sorted(schedule.committee_at(round_number).members)
        parents = tuple(block.reference for block in previous)
        command = scripted.get(round_number)
        this_round: list[Block] = []
        for author in members:
            transactions = []
            for _ in range(txs_per_block):
                tx_id += 1
                transactions.append(Transaction.dummy(tx_id))
            if command is not None and author == members[0]:
                tx_id += 1
                transactions.append(
                    Transaction(tx_id=tx_id, payload=command.encode_payload())
                )
            block = Block(
                author=author,
                round=round_number,
                parents=parents,
                transactions=tuple(transactions),
                coin_share=coin.share(author, round_number),
            )
            store.add(block)
            this_round.append(block)
        stream.append(tuple(this_round))
        previous = this_round
        # Drive the walk so committed commands activate and the *next*
        # rounds' membership follows the new epoch.
        driver.extend_commit_sequence()
    return EpochResizeStream(
        rounds=tuple(stream), genesis_size=genesis_size, provisioned=provisioned, lag=lag
    )


def replay_stream(
    stream: EpochResizeStream,
    *,
    committer_cls: type[Committer] = Committer,
    chunk_rounds: int = 1,
) -> tuple[list[CommitObservation], Committer]:
    """Replay the stream into a fresh committer, extending the commit
    sequence every ``chunk_rounds`` rounds.

    ``chunk_rounds=1`` is the smooth regime the sim runs in;
    larger chunks model a validator catching up (recovery, GC re-sync,
    a burst of deliveries): the walk window spans many rounds, so an
    epoch activation mid-walk restarts over a deep backlog — exactly
    where wholesale cache clearing hurts.  Returns all observations, in
    order."""
    store, committer = _make_committer(
        stream,
        genesis_size=stream.genesis_size,
        provisioned=stream.provisioned,
        lag=stream.lag,
        cls=committer_cls,
    )
    observations: list[CommitObservation] = []
    for index, blocks in enumerate(stream.rounds):
        for block in blocks:
            store.add(block)
        if (index + 1) % chunk_rounds == 0:
            observations.extend(committer.extend_commit_sequence())
    observations.extend(committer.extend_commit_sequence())
    return observations, committer


def replay_stream_oneshot(
    stream: EpochResizeStream, *, committer_cls: type[Committer] = Committer
) -> tuple[list[CommitObservation], Committer]:
    """Replay the whole stream, then walk once from scratch (the
    from-scratch reference the equivalence test compares against)."""
    store, committer = _make_committer(
        stream,
        genesis_size=stream.genesis_size,
        provisioned=stream.provisioned,
        lag=stream.lag,
        cls=committer_cls,
    )
    for blocks in stream.rounds:
        for block in blocks:
            store.add(block)
    return list(committer.extend_commit_sequence()), committer


def observation_fingerprint(observations: "list[CommitObservation]") -> bytes:
    """A byte-exact encoding of a finalized observation sequence: slot,
    decision, deciding rule, leader digest, and every linearized block
    digest, in order.  Two walks agree iff their fingerprints match."""
    parts: list[bytes] = []
    for obs in observations:
        status = obs.status
        parts.append(
            b"|".join(
                (
                    str(status.slot.round).encode(),
                    str(status.slot.offset).encode(),
                    str(status.slot.authority).encode(),
                    status.decision.name.encode(),
                    b"direct" if status.direct else b"indirect",
                    status.block.digest if status.block is not None else b"-",
                )
            )
        )
        parts.extend(block.digest for block in obs.linearized)
    return b"\x00".join(parts)
