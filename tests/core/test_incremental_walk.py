"""Differential test of the incremental commit walk.

The committer re-runs a slot's decision rules only when one of the
slot's inputs moved (its per-slot input stamp; see
``repro.core.committer``).  A freshly built committer over the same
store has empty memos, so it classifies every slot from scratch and
serves as the oracle: after *every* ingested block, the incremental
committer's ``slot_statuses()`` must agree with the oracle's, slot by
slot, on decision, elected authority and committed block digest over the
range both cover.  (The ``direct`` flag is not compared: a slot decided
indirectly earlier may later be decidable directly too.)

Three block sources: the epoch-resize stream (committee activations
mid-walk), random DAGs with equivocating leaders and crashed
validators, and a recovering core that adopts a checkpoint and then
raises its state-transfer floor.
"""

from __future__ import annotations

import random
from typing import Callable, Iterable

import pytest

from benchmarks.commit_walk import _StreamCoin, build_epoch_resize_stream
from repro.baselines.cordial_miners import make_cordial_miners_committer
from repro.block import Block, make_genesis
from repro.committee import Committee, CommitteeSchedule
from repro.config import ProtocolConfig
from repro.core.committer import Committer
from repro.core.protocol import MahiMahiCore
from repro.core.slots import Decision
from repro.crypto.coin import FastCoin
from repro.dag.store import DagStore
from repro.statesync import Checkpoint

from ..helpers import DagBuilder, FixedCoin
from .test_agreement_random import RandomScheduleCluster


def summary(status) -> tuple:
    block = status.block.digest if status.block is not None else None
    return (status.decision, status.slot.authority, block)


def assert_matches_oracle(committer: Committer, oracle: Committer) -> int:
    """Compare the incremental committer's statuses with the oracle's
    over the incremental range; returns how many slots were compared."""
    expected = {
        (s.slot.round, s.slot.offset): summary(s) for s in oracle.slot_statuses()
    }
    compared = 0
    for status in committer.slot_statuses():
        key = (status.slot.round, status.slot.offset)
        assert summary(status) == expected[key], f"slot {key} diverged"
        compared += 1
    return compared


def delayed_delivery(
    blocks: Iterable[Block], present: set[bytes], rng: random.Random
) -> list[Block]:
    """A random delivery order of ``blocks`` in which every block
    follows its parents (those already ``present`` count as delivered).

    Each block is due at its round plus a random delay of up to six
    rounds, so blocks keep arriving at rounds whose coin has already
    opened: late proposals, late votes, late certificates.
    """
    present = set(present)
    due = {
        b.digest: (b.round + (rng.randint(1, 6) if rng.random() < 0.3 else 0), rng.random())
        for b in blocks
    }
    waiting = sorted(blocks, key=lambda b: due[b.digest])
    order: list[Block] = []
    while waiting:
        block = next(b for b in waiting if all(p.digest in present for p in b.parents))
        order.append(block)
        present.add(block.digest)
        waiting.remove(block)
    return order


# ----------------------------------------------------------------------
# Epoch-resize stream
# ----------------------------------------------------------------------
@pytest.mark.parametrize("walk_every", [1, 7])
def test_epoch_resize_stream_matches_from_scratch(walk_every):
    """The commit walk runs after every ``walk_every``-th block, so
    activations land mid-round.  Statuses are compared before and after
    each walk: the comparison before it classifies slots under the old
    committee at the very round sizes the walk then activates a new
    committee under."""
    stream = build_epoch_resize_stream(
        genesis_size=4, provisioned=7, rounds=30, lag=4, txs_per_block=1
    )
    config = ProtocolConfig(
        wave_length=5, leaders_per_round=1, reconfig_activation_lag=stream.lag
    )
    store = DagStore()
    store.add_genesis(make_genesis(stream.genesis_size))
    schedule = CommitteeSchedule(
        Committee.of_size(stream.genesis_size), provisioned=stream.provisioned
    )
    committer = Committer(store, schedule, _StreamCoin(), config)

    def compare() -> int:
        return assert_matches_oracle(
            committer, Committer(store, committer.schedule, _StreamCoin(), config)
        )

    compared = finalized = 0
    for index, block in enumerate(b for blocks in stream.rounds for b in blocks):
        store.add(block)
        compared += compare()
        if (index + 1) % walk_every == 0:
            finalized += len(committer.extend_commit_sequence())
            compared += compare()
    assert len(committer.schedule.epochs()) >= 3, "stream activated no epochs"
    assert finalized and compared


# ----------------------------------------------------------------------
# Random DAGs with equivocators and crashes
# ----------------------------------------------------------------------
def _mahi_mahi(wave: int, leaders: int) -> Callable[..., Committer]:
    config = ProtocolConfig(wave_length=wave, leaders_per_round=leaders)
    return lambda store, schedule, coin: Committer(store, schedule, coin, config)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize(
    "n,crashed,equivocators",
    [(4, (), (1,)), (4, (3,), ()), (7, (5, 6), (2,))],
)
@pytest.mark.parametrize(
    "protocol",
    [(5, 2), (4, 1), "cordial-miners"],
    ids=["mm5-l2", "mm4-l1", "cm"],
)
def test_random_dags_match_from_scratch(seed, n, crashed, equivocators, protocol):
    wave, leaders = (5, 1) if protocol == "cordial-miners" else protocol
    cluster = RandomScheduleCluster(
        n=n, wave=wave, leaders=leaders, seed=seed, crashed=crashed, equivocators=equivocators
    )
    cluster.run(16)
    coin = FastCoin(seed=b"agree", n=n, threshold=cluster.committee.quorum_threshold)
    if protocol == "cordial-miners":
        factory = make_cordial_miners_committer
    else:
        factory = _mahi_mahi(wave, leaders)

    store = DagStore()
    genesis = make_genesis(n)
    store.add_genesis(genesis)
    schedule = CommitteeSchedule(cluster.committee)
    committer = factory(store, schedule, coin)
    rng = random.Random(repr(("walk", seed, n)))
    order = delayed_delivery(cluster.registry.values(), {b.digest for b in genesis}, rng)
    finalized = 0
    for block in order:
        store.add(block)
        finalized += len(committer.extend_commit_sequence())
        assert_matches_oracle(committer, factory(store, schedule, coin))
    assert finalized, "the walk finalized nothing"


# ----------------------------------------------------------------------
# Checkpoint adoption, then a raised state-transfer floor
# ----------------------------------------------------------------------
def _core(authority: int, n: int = 4) -> MahiMahiCore:
    committee = Committee.of_size(n)
    coin = FastCoin(seed=b"walk-ckpt", n=n, threshold=committee.quorum_threshold)
    config = ProtocolConfig(wave_length=5, leaders_per_round=2, checkpoint_interval_rounds=2)
    return MahiMahiCore(authority, committee, config, coin)


def _adopted_oracle(core: MahiMahiCore, checkpoint: Checkpoint) -> Committer:
    oracle = Committer(core.store, core.schedule, core.coin, core.config)
    oracle.adopt_checkpoint(checkpoint)
    return oracle


def test_checkpoint_adoption_then_raised_floor_matches_from_scratch():
    cores = [_core(i) for i in range(4)]
    for _ in range(24):
        blocks = [core.maybe_propose() for core in cores]
        for core in cores:
            for block in blocks:
                if block is not None and block.author != core.authority:
                    core.add_block(block)
            core.try_commit()
    source = cores[0]
    checkpoint = source.committer.ledger.checkpoints[0]

    fresh = _core(3)
    fresh.adopt_checkpoint(checkpoint)
    # A sync peer's pruning horizon lies above the adopted cursor: the
    # core raises its floor there.  Blocks from that round up arrive
    # first and wait in the pending buffer for their parents until the
    # raise re-flows them; the history below arrives last, late.
    raised = checkpoint.next_slot[0] + 2
    suffix = sorted(source.store, key=lambda b: (b.round, b.author))
    held = [b for b in suffix if checkpoint.floor < b.round < raised]
    rest = [b for b in suffix if b.round >= raised]
    rng = random.Random("walk-ckpt")
    compared = 0
    for index, block in enumerate(rest):
        if index == len(rest) // 3:
            assert fresh.pending_count == index
            fresh.raise_sync_floor(raised)
            assert fresh.pending_count == 0
            fresh.try_commit()
            compared += assert_matches_oracle(fresh.committer, _adopted_oracle(fresh, checkpoint))
        fresh.add_block(block)
        fresh.try_commit()
        compared += assert_matches_oracle(fresh.committer, _adopted_oracle(fresh, checkpoint))
    for block in rng.sample(held, len(held)):
        fresh.add_block(block)
        fresh.try_commit()
        compared += assert_matches_oracle(fresh.committer, _adopted_oracle(fresh, checkpoint))
    assert fresh.store.sync_floor == raised
    assert fresh.committer.committed_sequence_length > checkpoint.sequence_length
    assert compared


# ----------------------------------------------------------------------
# A late vote-round block
# ----------------------------------------------------------------------
def test_late_vote_round_block_reclassifies_the_slot():
    """The coin is open and the slot undecided; one more vote-round block
    (a non-vote) completes the skip quorum with no other round moving."""
    committee = Committee.of_size(7)  # quorum 5
    coin = FixedCoin(n=7, threshold=committee.quorum_threshold)
    coin.elect(certify_round=5, validator=6)
    builder = DagBuilder(committee, coin)
    config = ProtocolConfig(wave_length=5, leaders_per_round=1)
    committer = Committer(builder.store, committee, coin, config)
    # Only validator 0's blocks see the leader block (6, 1).
    builder.round(1)
    builder.block(0, 2, parents=[(0, 1), (1, 1), (2, 1), (3, 1), (6, 1)])
    for author in range(1, 7):
        builder.block(author, 2, parents=[(a, 1) for a in range(5)])
    for vote_round in (3, 4):
        builder.block(0, vote_round, parents=[(a, vote_round - 1) for a in range(5)])
        for author in range(1, 7 if vote_round == 3 else 5):
            builder.block(author, vote_round, parents=[(a, vote_round - 1) for a in range(1, 6)])
    builder.round(5, authors=[0, 1, 2, 3, 4])  # opens the coin

    before = committer.slot_statuses()[0]
    assert before.decision is Decision.UNDECIDED and before.slot.authority == 6
    assert_matches_oracle(committer, Committer(builder.store, committee, coin, config))
    builder.block(5, 4, parents=[(a, 3) for a in range(1, 6)])  # a fifth non-vote
    after = committer.slot_statuses()[0]
    assert after.decision is Decision.SKIP
    assert_matches_oracle(committer, Committer(builder.store, committee, coin, config))
