"""Tests for the Tusk baseline committer."""

from repro.baselines.tusk import TUSK_WAVE, TuskCommitter, make_tusk_committer
from repro.committee import Committee
from repro.config import ProtocolConfig
from repro.core.protocol import MahiMahiCore
from repro.core.slots import Decision

from ..helpers import DagBuilder, FixedCoin


def make():
    committee = Committee.of_size(4)
    coin = FixedCoin(n=4, threshold=committee.quorum_threshold)
    builder = DagBuilder(committee, coin)
    committer = TuskCommitter(builder.store, committee, coin)
    return coin, builder, committer


class TestWaveStructure:
    def test_leader_every_two_rounds(self):
        _, _, committer = make()
        assert [r for r in range(1, 10) if committer.is_leader_round(r)] == [1, 3, 5, 7, 9]

    def test_coin_opens_two_rounds_later(self):
        _, _, committer = make()
        assert committer.coin_round(1) == 3
        assert committer.coin_round(5) == 7


class TestDirectCommit:
    def test_f_plus_one_support_commits(self):
        coin, builder, committer = make()
        coin.elect(certify_round=3, validator=0)
        builder.rounds(1, 3)
        status = committer.try_decide(1, 3)[0]
        assert status.decision is Decision.COMMIT
        assert status.direct
        assert status.block == builder.get(0, 1)

    def test_no_commit_before_coin_round(self):
        coin, builder, committer = make()
        builder.rounds(1, 2)
        status = committer.try_decide(1, 2)[0]
        assert status.decision is Decision.UNDECIDED

    def test_insufficient_support_stays_undecided(self):
        coin, builder, committer = make()
        coin.elect(certify_round=3, validator=3)
        builder.round(1)
        # Round-2 blocks skip validator 3's round-1 block entirely, and
        # round-3 references give the coin its quorum.
        for author in range(4):
            builder.block(author, 2, parents=[(0, 1), (1, 1), (2, 1)])
        builder.round(3)
        status = committer.try_decide(1, 3)[0]
        # 0 supporters < f+1 = 2: undecided (Tusk has no direct skip).
        assert status.decision is Decision.UNDECIDED

    def test_support_counts_distinct_authors(self):
        coin, builder, committer = make()
        coin.elect(certify_round=3, validator=0)
        builder.round(1)
        # Only validator 1 references leader (0,1); others skip it.
        builder.block(1, 2, parents=[(0, 1), (1, 1), (2, 1)])
        for author in (0, 2, 3):
            builder.block(author, 2, parents=[(1, 1), (2, 1), (3, 1)])
        builder.round(3)
        status = committer.try_decide(1, 3)[0]
        assert status.decision is Decision.UNDECIDED  # 1 < f+1


class TestIndirectRule:
    def test_undecided_leader_resolved_by_next_committed_leader(self):
        coin, builder, committer = make()
        coin.elect(certify_round=3, validator=3)
        coin.elect(certify_round=5, validator=0)
        builder.round(1)
        for author in range(4):
            builder.block(author, 2, parents=[(0, 1), (1, 1), (2, 1)])
        builder.rounds(3, 5)
        statuses = committer.try_decide(1, 5)
        assert statuses[0].decision is Decision.SKIP  # dead leader skipped
        assert statuses[1].decision is Decision.COMMIT

    def test_earlier_leader_in_history_commits_indirectly(self):
        coin, builder, committer = make()
        coin.elect(certify_round=3, validator=0)
        coin.elect(certify_round=5, validator=1)
        builder.round(1)
        # Support split: only validator 1 references leader block, so
        # round-1 leader is undecided directly...
        builder.block(1, 2, parents=[(0, 1), (1, 1), (2, 1)])
        for author in (0, 2, 3):
            builder.block(author, 2, parents=[(1, 1), (2, 1), (3, 1)])
        # ...but the round-3 leader (committed) reaches it causally.
        builder.rounds(3, 5)
        statuses = committer.try_decide(1, 5)
        assert statuses[1].decision is Decision.COMMIT
        first = statuses[0]
        assert first.decision is Decision.COMMIT
        assert not first.direct


class TestSequenceExtension:
    def test_lockstep_commits_every_wave(self):
        coin, builder, committer = make()
        builder.rounds(1, 13)
        observations = committer.extend_commit_sequence()
        committed = [o for o in observations if o.status.decision is Decision.COMMIT]
        assert len(committed) >= 4
        assert committer.last_finalized_round >= 7

    def test_cursor_advances_by_wave(self):
        coin, builder, committer = make()
        builder.rounds(1, 13)
        committer.extend_commit_sequence()
        assert (committer._cursor_round - 1) % TUSK_WAVE == 0

    def test_idempotent(self):
        _, builder, committer = make()
        builder.rounds(1, 13)
        assert committer.extend_commit_sequence()
        assert committer.extend_commit_sequence() == []

    def test_transactions_linearize_once(self):
        from repro.transaction import Transaction

        _, builder, committer = make()
        tx = 0
        for r in range(1, 14):
            for author in range(4):
                tx += 1
                builder.block(author, r, transactions=(Transaction.dummy(tx),))
        seen = []
        for obs in committer.extend_commit_sequence():
            for block in obs.linearized:
                seen.extend(t.tx_id for t in block.transactions)
        assert len(seen) == len(set(seen))


class TestRecovery:
    def test_core_raises_its_sync_floor(self):
        """A Tusk core takes the same state-transfer path as Mahi-Mahi's,
        which drops the commit walk's memos below the raised floor."""
        committee = Committee.of_size(4)
        coin = FixedCoin(n=4, threshold=committee.quorum_threshold)
        core = MahiMahiCore(
            0,
            committee,
            ProtocolConfig(),
            coin,
            committer_factory=lambda store: make_tusk_committer(store, committee, coin),
        )
        assert core.raise_sync_floor(3) == []
        assert core.store.sync_floor == 3
