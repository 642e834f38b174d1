"""Differential test of the coin-frontier bound on the commit walk.

``extend_commit_sequence`` sweeps leader slots only up to the coin
frontier: ``highest_round - (wave_length - 1)`` for Mahi-Mahi and
Cordial Miners, ``highest_round - TUSK_COIN_DELAY`` for Tusk.  Slots
above it have an empty coin round, so they are undecided and decide
nothing below them (see ``repro.core.committer``).

The oracle is the same committer over a twin store that reports its
highest round that many rounds higher: its bounded walk therefore
sweeps to the true highest round, which is the unbounded walk.  Both
stores receive the same blocks in the same order, and after every
ingested block the two walks must finalize the same observations: slot,
elected authority, decision, deciding rule and linearized digests.

Block sources: random DAGs with equivocating leaders, crashed
validators and late blocks (Mahi-Mahi with 5-round waves and two
leaders, 4-round waves and one leader, Cordial Miners and Tusk), and the
epoch-resize stream, whose committed join/leave commands restart the
walk after ``_apply_reconfig``.
"""

from __future__ import annotations

import random
from typing import Callable

import pytest

from benchmarks.commit_walk import _StreamCoin, build_epoch_resize_stream
from repro.baselines.cordial_miners import make_cordial_miners_committer
from repro.baselines.tusk import TUSK_COIN_DELAY, TuskCommitter
from repro.block import Block, make_genesis
from repro.committee import Committee, CommitteeSchedule
from repro.config import ProtocolConfig
from repro.core.committer import CommitObservation, Committer
from repro.crypto.coin import CommonCoin, FastCoin
from repro.dag.store import DagStore

from .test_agreement_random import RandomScheduleCluster
from .test_incremental_walk import delayed_delivery

#: ``(store, schedule, coin) -> committer``.
Factory = Callable[[DagStore, CommitteeSchedule, CommonCoin], object]


class LookaheadStore(DagStore):
    """A store whose ``highest_round`` reads ``lookahead`` rounds high,
    so a bounded walk over it reaches the true highest round."""

    def __init__(self, lookahead: int) -> None:
        super().__init__()
        self._lookahead = lookahead

    @property
    def highest_round(self) -> int:
        return super().highest_round + self._lookahead


def observed(observations: list[CommitObservation]) -> list[tuple]:
    return [
        (
            obs.status.slot.round,
            obs.status.slot.offset,
            obs.status.slot.authority,
            obs.status.decision,
            obs.status.direct,
            tuple(block.digest for block in obs.linearized),
        )
        for obs in observations
    ]


class Twins:
    """A bounded committer and its unbounded oracle over twin stores."""

    def __init__(
        self,
        genesis: tuple[Block, ...],
        lookahead: int,
        build: Callable[[DagStore], object],
    ) -> None:
        self.store = DagStore()
        self.oracle_store = LookaheadStore(lookahead)
        for store in (self.store, self.oracle_store):
            store.add_genesis(genesis)
        self.committer = build(self.store)
        self.oracle = build(self.oracle_store)
        self.finalized = 0

    def add(self, block: Block) -> None:
        self.store.add(block)
        self.oracle_store.add(block)

    def walk(self) -> None:
        got = observed(self.committer.extend_commit_sequence())
        want = observed(self.oracle.extend_commit_sequence())
        assert got == want, f"walks diverged at highest round {self.store.highest_round}"
        self.finalized += len(got)


def _mahi_mahi(wave: int, leaders: int, lag: int = 0) -> tuple[int, Factory]:
    config = ProtocolConfig(
        wave_length=wave, leaders_per_round=leaders, reconfig_activation_lag=lag
    )
    return wave - 1, lambda store, schedule, coin: Committer(store, schedule, coin, config)


def _cordial_miners(lag: int = 0) -> tuple[int, Factory]:
    return 4, lambda store, schedule, coin: make_cordial_miners_committer(
        store, schedule, coin, reconfig_activation_lag=lag
    )


def _tusk(lag: int = 0) -> tuple[int, Factory]:
    return TUSK_COIN_DELAY, lambda store, schedule, coin: TuskCommitter(
        store, schedule, coin, reconfig_activation_lag=lag
    )


#: protocol -> ``lag -> (rounds from a leader round to its coin round, factory)``.
PROTOCOLS = {
    "mm5-l2": lambda lag=0: _mahi_mahi(5, 2, lag),
    "mm4-l1": lambda lag=0: _mahi_mahi(4, 1, lag),
    "cm": _cordial_miners,
    "tusk": _tusk,
}


# ----------------------------------------------------------------------
# Random DAGs with equivocators, crashes and late blocks
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize(
    "n,crashed,equivocators",
    [(4, (), (1,)), (4, (3,), ()), (7, (5, 6), (2,))],
)
@pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
def test_random_dags_bounded_walk_matches_unbounded(seed, n, crashed, equivocators, protocol):
    wave, leaders = {"mm5-l2": (5, 2), "mm4-l1": (4, 1)}.get(protocol, (5, 1))
    cluster = RandomScheduleCluster(
        n=n, wave=wave, leaders=leaders, seed=seed, crashed=crashed, equivocators=equivocators
    )
    cluster.run(16)
    coin = FastCoin(seed=b"agree", n=n, threshold=cluster.committee.quorum_threshold)
    lookahead, factory = PROTOCOLS[protocol]()
    genesis = make_genesis(n)
    twins = Twins(
        genesis, lookahead, lambda store: factory(store, CommitteeSchedule(cluster.committee), coin)
    )
    rng = random.Random(repr(("frontier", seed, n)))
    for block in delayed_delivery(cluster.registry.values(), {b.digest for b in genesis}, rng):
        twins.add(block)
        twins.walk()
    assert twins.finalized, "the walk finalized nothing"


# ----------------------------------------------------------------------
# Epoch-resize stream: the walk restarts after each activation
# ----------------------------------------------------------------------
@pytest.mark.parametrize("walk_every", [1, 7])
@pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
def test_epoch_resize_stream_bounded_walk_matches_unbounded(walk_every, protocol):
    stream = build_epoch_resize_stream(
        genesis_size=4, provisioned=7, rounds=30, lag=4, txs_per_block=1
    )
    lookahead, factory = PROTOCOLS[protocol](stream.lag)
    twins = Twins(
        make_genesis(stream.genesis_size),
        lookahead,
        lambda store: factory(
            store,
            CommitteeSchedule(
                Committee.of_size(stream.genesis_size), provisioned=stream.provisioned
            ),
            _StreamCoin(),
        ),
    )
    for index, block in enumerate(b for blocks in stream.rounds for b in blocks):
        twins.add(block)
        if (index + 1) % walk_every == 0:
            twins.walk()
    twins.walk()
    assert len(twins.committer.schedule.epochs()) >= 2, "no epoch activated mid-walk"
    assert twins.finalized
