"""DAG traversal helpers — Algorithm 3 of the paper.

* :meth:`DagTraversal.voted_block` — ``VotedBlock(b, id, r)``: the first
  block of slot ``(id, r)`` encountered in a depth-first search from
  ``b`` that follows parent references in their listed order.  A vote
  block supports *at most one* equivocating proposal (Observation 1)
  precisely because this traversal is deterministic.
* :meth:`DagTraversal.is_vote` — ``IsVote(b_vote, b_leader)``.
* :meth:`DagTraversal.is_cert` — ``IsCert(b_cert, b_leader)``: at least
  ``2f + 1`` of the certifier's parents (by distinct author) are votes.
* :meth:`DagTraversal.is_link` — ``IsLink(b_old, b_new)``: reachability.
* :meth:`DagTraversal.linearize` — ``LinearizeSubDags``.

``VotedBlock`` results are memoized per target slot: for a fixed
``(id, r)`` the result is a pure function of the starting block, so each
block in the w-round window is resolved once per wave instead of once
per DFS path.
"""

from __future__ import annotations

from typing import Callable, Iterable

from ..block import Block
from ..crypto.hashing import Digest
from .store import DagStore


class DagTraversal:
    """Memoizing traversal utilities over a :class:`DagStore`."""

    def __init__(
        self,
        store: DagStore,
        quorum_threshold: "int | Callable[[int], int]",
        *,
        membership: "Callable[[int], object] | None" = None,
    ) -> None:
        """Create a traversal helper.

        Args:
            store: The DAG to traverse.
            quorum_threshold: ``2f + 1`` for the deployment's committee —
                either a fixed int (static committees) or a
                ``round -> threshold`` resolver (epoch-versioned
                committees: certificates for a leader at round ``r`` are
                judged against the quorum of ``r``'s epoch; pass e.g.
                ``CommitteeSchedule.quorum_threshold``).
            membership: Optional ``round -> Committee`` resolver; when
                set, only votes authored by members of the leader
                round's committee count toward a certificate (a joined-
                but-not-yet-active or already-left validator cannot
                contribute to quorums).
        """
        self._store = store
        if callable(quorum_threshold):
            self._quorum_at = quorum_threshold
        else:
            self._quorum_at = lambda round_number: quorum_threshold
        self._membership = membership
        # (leader author, leader round) -> {start digest -> voted block or None}
        self._vote_cache: dict[tuple[int, int], dict[Digest, Block | None]] = {}
        # leader round -> {(certifier digest, leader digest) -> bool}.
        # Entries are valid as long as the leader round's quorum and
        # committee stay fixed: a block's parents are immutable and the
        # DAG is append-only, so only a committee-schedule change at the
        # leader's round can stale a verdict.  Keying the outer dict by
        # leader round makes invalidation round-scoped (epoch activation
        # drops rounds >= the activation; GC drops rounds below the
        # horizon) instead of wholesale.
        self._cert_cache: dict[int, dict[tuple[Digest, Digest], bool]] = {}

    # ------------------------------------------------------------------
    # VotedBlock / IsVote
    # ------------------------------------------------------------------
    def voted_block(self, start: Block, author: int, round_number: int) -> Block | None:
        """First block of slot ``(author, round_number)`` in DFS preorder
        from ``start`` (Algorithm 3, ``VotedBlock``), or ``None``.

        The search never descends below the target round: a subtree
        rooted at a block with round <= ``round_number`` cannot contain
        the target.
        """
        cache = self._vote_cache.setdefault((author, round_number), {})
        return self._voted_block_memo(start, author, round_number, cache)

    def _voted_block_memo(
        self,
        block: Block,
        author: int,
        round_number: int,
        cache: dict[Digest, Block | None],
    ) -> Block | None:
        if round_number >= block.round:
            return None
        hit = cache.get(block.digest, _MISS)
        if hit is not _MISS:
            return hit
        result: Block | None = None
        for parent_ref in block.parents:
            if parent_ref.author == author and parent_ref.round == round_number:
                result = self._store.get_ref(parent_ref)
                break
            if parent_ref.round <= round_number:
                continue
            found = self._voted_block_memo(
                self._store.get_ref(parent_ref), author, round_number, cache
            )
            if found is not None:
                result = found
                break
        cache[block.digest] = result
        return result

    def is_vote(self, vote: Block, leader: Block) -> bool:
        """``IsVote(b_vote, b_leader)`` — Algorithm 3 line 1."""
        found = self.voted_block(vote, leader.author, leader.round)
        return found is not None and found.digest == leader.digest

    # ------------------------------------------------------------------
    # IsCert
    # ------------------------------------------------------------------
    def is_cert(self, certifier: Block, leader: Block) -> bool:
        """``IsCert(b_cert, b_leader)`` — the certifier's parents include
        votes for the leader from at least ``2f + 1`` distinct authors.
        """
        leader_round = leader.round
        round_cache = self._cert_cache.get(leader_round)
        if round_cache is None:
            round_cache = self._cert_cache[leader_round] = {}
        key = (certifier.digest, leader.digest)
        cached = round_cache.get(key)
        if cached is not None:
            return cached
        leader_author = leader.author
        leader_digest = leader.digest
        # The slot's vote memo is read directly, so a parent is searched
        # only on a miss.  Authors come from the stored parent, not the
        # reference: a reference is its certifier's claim, and counting
        # claims would let a Byzantine certifier pass one author's
        # equivocating votes off as several authors'.
        votes = self._vote_cache.setdefault((leader_author, leader_round), {})
        get = self._store.get
        voting_authors: set[int] = set()
        result = False
        quorum = self._quorum_at(leader_round)
        committee = self._membership(leader_round) if self._membership else None
        for parent_ref in certifier.parents:
            if parent_ref.round <= leader_round:
                continue
            parent = get(parent_ref.digest)
            author = parent.author
            if committee is not None and not committee.is_member(author):
                continue
            voted = votes.get(parent.digest, _MISS)
            if voted is _MISS:
                voted = self._voted_block_memo(parent, leader_author, leader_round, votes)
            if voted is not None and voted.digest == leader_digest:
                voting_authors.add(author)
                if len(voting_authors) >= quorum:
                    result = True
                    break
        round_cache[key] = result
        return result

    # ------------------------------------------------------------------
    # IsLink (reachability)
    # ------------------------------------------------------------------
    def is_link(self, old: Block, new: Block) -> bool:
        """``IsLink(b_old, b_new)`` — whether ``old`` is in ``new``'s
        causal history (a block links to itself).
        """
        if old.digest == new.digest:
            return True
        if old.round >= new.round:
            return False
        target = old.digest
        stack = [new]
        seen: set[Digest] = {new.digest}
        while stack:
            block = stack.pop()
            for parent_ref in block.parents:
                if parent_ref.digest == target:
                    return True
                if parent_ref.round <= old.round or parent_ref.digest in seen:
                    continue
                seen.add(parent_ref.digest)
                stack.append(self._store.get_ref(parent_ref))
        return False

    # ------------------------------------------------------------------
    # Causal history & linearization
    # ------------------------------------------------------------------
    def causal_history(self, block: Block, *, floor_round: int = 0) -> list[Block]:
        """All blocks reachable from ``block`` (inclusive) with round
        >= ``floor_round``, in no particular order."""
        out: list[Block] = []
        stack = [block]
        seen: set[Digest] = {block.digest}
        while stack:
            current = stack.pop()
            out.append(current)
            for parent_ref in current.parents:
                if parent_ref.round < floor_round or parent_ref.digest in seen:
                    continue
                seen.add(parent_ref.digest)
                stack.append(self._store.get_ref(parent_ref))
        return out

    def linearize(
        self,
        leaders: Iterable[Block],
        already_output: set[Digest],
        *,
        floor_round: int = 0,
    ) -> list[Block]:
        """``LinearizeSubDags(L)`` — Algorithm 3 line 20.

        For each committed leader in order, output every block of its
        causal history not yet output, in the deterministic order
        ``(round, author, digest)``; the leader itself closes its
        sub-DAG.  ``already_output`` is updated in place so successive
        calls extend a single global sequence.
        """
        sequence: list[Block] = []
        for leader in leaders:
            # Traversal prunes at already-output blocks: linearization
            # always emits a block's full causal history with it, so an
            # output block's ancestors are all output too.  This keeps
            # each extension proportional to the *new* sub-DAG.
            if leader.digest in already_output:
                continue
            fresh: list[Block] = []
            stack = [leader]
            seen: set[Digest] = {leader.digest}
            while stack:
                block = stack.pop()
                fresh.append(block)
                for parent_ref in block.parents:
                    if (
                        parent_ref.round < floor_round
                        or parent_ref.digest in seen
                        or parent_ref.digest in already_output
                    ):
                        continue
                    seen.add(parent_ref.digest)
                    stack.append(self._store.get_ref(parent_ref))
            fresh.sort(key=lambda b: (b.round, b.author, b.digest))
            for block in fresh:
                already_output.add(block.digest)
            sequence.extend(fresh)
        return sequence

    # ------------------------------------------------------------------
    # Cache management
    # ------------------------------------------------------------------
    def invalidate_certs(self) -> None:
        """Drop every memoized certificate verdict (the pre-PR-6
        wholesale invalidation; :meth:`invalidate_above` is the
        round-scoped variant epoch activation uses)."""
        self._cert_cache.clear()

    def invalidate_above(self, round_number: int) -> int:
        """Drop certificate verdicts for leaders at rounds
        >= ``round_number``.

        Called when an epoch activating at ``round_number`` is
        scheduled: ``is_cert`` judges a certificate against the quorum
        and membership of the *leader's* round, so only verdicts for
        leaders at or above the activation can change.  Vote memos are
        pure DAG structure (committee-independent) and survive.  Returns
        the number of entries dropped (observability).
        """
        stale = [r for r in self._cert_cache if r >= round_number]
        dropped = 0
        for r in stale:
            dropped += len(self._cert_cache.pop(r))
        return dropped

    def invalidate_below(self, round_number: int) -> int:
        """Drop memo entries for target slots and cert-round leaders
        below ``round_number`` (called alongside DAG garbage collection
        and state-transfer floor raises).  Returns the number of entries
        dropped."""
        dropped = 0
        stale_votes = [key for key in self._vote_cache if key[1] < round_number]
        for key in stale_votes:
            dropped += len(self._vote_cache.pop(key))
        stale_certs = [r for r in self._cert_cache if r < round_number]
        for r in stale_certs:
            dropped += len(self._cert_cache.pop(r))
        return dropped

    def memo_size(self) -> int:
        """Total cached entries across the vote and cert memos (the
        accounting hook the invalidation tests assert against)."""
        return sum(len(v) for v in self._vote_cache.values()) + sum(
            len(v) for v in self._cert_cache.values()
        )

    def cache_stats(self) -> dict[str, int]:
        """Size of the vote and cert memos (observability for benchmarks)."""
        return {
            "vote_targets": len(self._vote_cache),
            "vote_entries": sum(len(v) for v in self._vote_cache.values()),
            "cert_rounds": len(self._cert_cache),
            "cert_entries": sum(len(v) for v in self._cert_cache.values()),
        }


class _Miss:
    """Sentinel distinguishing 'not cached' from a cached ``None``."""

    __slots__ = ()


_MISS = _Miss()
