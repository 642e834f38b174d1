"""The coin's O(1) early-out and its retry trigger.

``LeaderElector.coin_value`` returns ``None`` without collecting shares
while the certify round has fewer distinct authors than the quorum
(member shares can never outnumber distinct authors).  Past that point
it collects one share per member author, and a closed coin is retried
only once the round gains a block.  A round with a quorum of distinct
authors can still be short of member shares: some authors are not
members of the certify round's committee, or their blocks carry no
share.
"""

from __future__ import annotations

from collections import Counter

from repro.block import Block
from repro.committee import Committee, CommitteeSchedule
from repro.core.decider import LeaderElector
from repro.dag.store import DagStore

from ..helpers import DagBuilder, FixedCoin

CERTIFY = 4
VALUE = 3


class ScanCountingStore(DagStore):
    """Counts ``round_blocks`` calls per round: the elector's share
    collection is the only caller in these tests."""

    def __init__(self) -> None:
        super().__init__()
        self.scans: Counter[int] = Counter()

    def round_blocks(self, round_number: int) -> tuple[Block, ...]:
        self.scans[round_number] += 1
        return super().round_blocks(round_number)


def counting_builder(committee: Committee, coin: FixedCoin) -> DagBuilder:
    """A lockstep DAG up to the round below ``CERTIFY`` over a
    :class:`ScanCountingStore`."""
    builder = DagBuilder(committee, coin)
    store = ScanCountingStore()
    store.add_genesis(list(builder.store))
    builder.store = store
    builder.rounds(1, CERTIFY - 1)
    return builder


def shareless_block(builder: DagBuilder, author: int) -> Block:
    parents = tuple(
        builder.ref(a, CERTIFY - 1) for a in sorted(builder.store.authors_at_round(CERTIFY - 1))
    )
    block = Block(author=author, round=CERTIFY, parents=parents)
    builder.store.add(block)
    return block


def test_non_member_authors_keep_the_coin_closed():
    """Validator 2 left at the certify round: with its block the round
    has a quorum of distinct authors (3 of the new committee's quorum
    3) but only two member shares."""
    old = Committee.of_size(5)
    schedule = CommitteeSchedule(old, provisioned=5)
    schedule.schedule_epoch(CERTIFY, old.with_removed(2))
    assert schedule.quorum_threshold(CERTIFY) == 3
    coin = FixedCoin(n=5, threshold=3, values={CERTIFY: VALUE})
    builder = counting_builder(old, coin)
    elector = LeaderElector(builder.store, schedule, coin)

    for author in (2, 0, 1):
        builder.block(author, CERTIFY)
        assert elector.coin_value(CERTIFY) is None
    assert builder.store.num_authors_at_round(CERTIFY) == 3
    builder.block(3, CERTIFY)  # the third member share
    assert elector.coin_value(CERTIFY) == VALUE


def test_blocks_without_a_share_keep_the_coin_closed():
    committee = Committee.of_size(4)  # quorum 3
    coin = FixedCoin(n=4, threshold=3, values={CERTIFY: VALUE})
    builder = counting_builder(committee, coin)
    elector = LeaderElector(builder.store, committee, coin)

    builder.block(0, CERTIFY)
    assert elector.coin_value(CERTIFY) is None
    shareless_block(builder, 1)
    assert elector.coin_value(CERTIFY) is None
    builder.block(2, CERTIFY)
    assert builder.store.num_authors_at_round(CERTIFY) == 3
    assert elector.coin_value(CERTIFY) is None
    builder.block(3, CERTIFY)  # the third share
    assert elector.coin_value(CERTIFY) == VALUE


def test_shares_are_collected_only_at_a_quorum_of_authors_and_on_new_blocks():
    committee = Committee.of_size(4)
    coin = FixedCoin(n=4, threshold=3, values={CERTIFY: VALUE})
    builder = counting_builder(committee, coin)
    store: ScanCountingStore = builder.store  # type: ignore[assignment]
    elector = LeaderElector(store, committee, coin)

    # Below a quorum of distinct authors: closed in O(1), no share scan,
    # also when an equivocation grows the round without a new author.
    assert elector.coin_value(CERTIFY) is None
    builder.block(0, CERTIFY)
    builder.block(0, CERTIFY, tag="twin")
    builder.block(1, CERTIFY)
    for _ in range(3):
        assert elector.coin_value(CERTIFY) is None
    assert store.scans[CERTIFY] == 0

    # A quorum of authors but two shares: one scan, then none until the
    # round gains a block.
    shareless_block(builder, 2)
    for _ in range(3):
        assert elector.coin_value(CERTIFY) is None
    assert store.scans[CERTIFY] == 1
    builder.block(3, CERTIFY)
    assert elector.coin_value(CERTIFY) == VALUE
    assert store.scans[CERTIFY] == 2
    # An open coin is final.
    builder.block(3, CERTIFY, tag="twin")
    assert elector.coin_value(CERTIFY) == VALUE
    assert store.scans[CERTIFY] == 2
