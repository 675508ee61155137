"""Rewriting substrate: one def-use index and a program-ordered worklist.

Peephole passes used to fire one rewrite, rebuild ``fn.use_counts()`` /
``fn.uses()``, walk the whole body in ``fn.replace_uses()`` and restart
their scan from op 0 — O(rewrites x ops).  This module gives them

* :class:`UseIndex` — users and use counts per value, built once in O(n)
  (on first demand, so a pass with no candidate never pays for it) and
  kept exact through ``insert_before`` / ``replace_all_uses`` / ``erase``
  at O(uses touched); ``fn.body`` is rewritten once, by ``compact()``;
* :func:`apply_patterns` — a worklist that pops the lowest body position
  first, so rewrites fire in exactly the order "rescan from the top and
  take the first match" would fire them (fresh ``Value`` ids, and hence
  the printed IR, do not move), but after a rewrite re-queues only the
  ops whose match can have changed.

A pattern is a ``match(op, index) -> Rewrite | None`` function that reads
uses only through ``index.count`` / ``index.users``; the test suite keeps
a naive rebuild-everything driver over the same matchers as the
reference.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Collection, Iterator, NamedTuple

from repro.errors import IRError
from repro.ir.core import Function, Op, Value

#: closes every position key, so an op sorts after whatever was inserted
#: before it: (3, 0, END) < (3, 1, END) < (3, END) < (4, END)
_END = float("inf")


class Rewrite(NamedTuple):
    """One matched peephole, applied at the matched op's position."""

    #: inserted immediately before the matched op, in order
    new_ops: list[Op]
    #: takes over every use of the matched op's result
    replacement: Value
    #: erased afterwards — the matched op first, consumers before producers
    dead: list[Op]


@dataclass
class RewriteTally:
    """Work counter a pass pipeline threads through its rewrite calls."""

    #: ops popped from a worklist and handed to a matcher
    visited: int = 0


class UseIndex:
    """Def-use index over one function, maintained through rewrites.

    Between the first edit and ``compact()``, ``fn.body`` is stale (it
    still lists erased ops and lacks inserted ones); ``compact()`` writes
    the edited body back, after which the index rebuilds on next use.
    """

    def __init__(self, fn: Function):
        self.fn = fn
        self._users: dict[Value, list[Op]] | None = None

    def _live(self) -> dict[Value, list[Op]]:
        """The users map, building the whole index on first demand."""
        if self._users is None:
            fn = self.fn
            self._users = fn.uses()
            self._returned = Counter(fn.returns)
            self._key: dict[Op, tuple] = {
                op: (i, _END) for i, op in enumerate(fn.body)}
            self._inserted: dict[Op, list[Op]] = {}
            self._erased: set[Op] = set()
        return self._users

    # -- queries -----------------------------------------------------------

    def users(self, value: Value) -> list[Op]:
        """Ops consuming ``value``, one entry per operand slot, in no
        particular order.  Read-only."""
        return self._live().get(value, [])

    def count(self, value: Value) -> int:
        """Total uses of ``value``: operand slots plus function returns."""
        return len(self.users(value)) + self._returned[value]

    def erased(self, op: Op) -> bool:
        return self._users is not None and op in self._erased

    def key(self, op: Op) -> tuple:
        """Body position of ``op`` as a totally ordered key."""
        self._live()
        return self._key[op]

    # -- edits -------------------------------------------------------------

    def insert_before(self, anchor: Op, new_ops: list[Op]) -> None:
        """Place ``new_ops`` immediately before ``anchor`` (after anything
        inserted there earlier).  The anchor may be erased later — that is
        how a match is replaced in place."""
        users = self._live()
        slot = self._inserted.setdefault(anchor, [])
        prefix = self._key[anchor][:-1]
        for op in new_ops:
            self._key[op] = prefix + (len(slot), _END)
            slot.append(op)
            for operand in op.operands:
                users.setdefault(operand, []).append(op)

    def replace_all_uses(self, old: Value, new: Value) -> int:
        """Point every use of ``old`` (operands and returns) at ``new``."""
        users = self._live()
        if old is new:
            return 0
        moved = users.pop(old, [])
        for op in moved:  # one entry, and one rewritten slot, per use
            op.operands[op.operands.index(old)] = new
        if moved:
            users.setdefault(new, []).extend(moved)
        returned = self._returned.pop(old, 0)
        if returned:
            returns = self.fn.returns
            for i, value in enumerate(returns):
                if value is old:
                    returns[i] = new
            self._returned[new] += returned
        return len(moved) + returned

    def erase(self, op: Op) -> None:
        """Drop ``op``; its results must have no remaining use."""
        users = self._live()
        for result in op.results:
            if self.count(result):
                raise IRError(
                    f"{self.fn.name}: cannot erase {op!r}: %{result.name} "
                    f"still has {self.count(result)} use(s)")
        for operand in op.operands:
            remaining = users[operand]
            remaining.remove(op)
            if not remaining:
                del users[operand]
        self._erased.add(op)

    def affected(self, new_ops: list[Op], replacement: Value) -> Iterator[Op]:
        """Ops whose match can have changed after a rewrite.

        A matcher reads at most: its op's operands and their producers,
        those producers' operands (pattern C's inner add), and — the
        ``_defer_pays`` look-ahead — the consumers of its op's result and
        what feeds their other operand.  A rewrite changes an operand
        slot only in the users of the replaced value and gives new users
        only to the new ops' operands, so every such reader is one of:
        the new ops, the users of the replacement, the users of *their*
        results, or a producer feeding any of those.
        """
        near = list(new_ops)
        direct = self.users(replacement)
        near.extend(direct)
        for user in direct:
            for result in user.results:
                near.extend(self.users(result))
        for op in near:
            yield op
            for operand in op.operands:
                if operand.producer is not None:
                    yield operand.producer

    def compact(self) -> None:
        """Write the edited op order back to ``fn.body`` (once, O(n))."""
        if self._users is None:
            return
        body: list[Op] = []

        def emit(ops: list[Op]) -> None:
            for op in ops:
                before = self._inserted.get(op)
                if before:
                    emit(before)
                if op not in self._erased:
                    body.append(op)

        emit(self.fn.body)
        self.fn.body = body
        self._users = None


Matcher = Callable[[Op, UseIndex], "Rewrite | None"]


def apply_patterns(fn: Function, roots: Collection[str], match: Matcher,
                   pass_name: str, tally: RewriteTally | None = None) -> int:
    """Fire ``match`` over ``fn`` to fixpoint; returns rewrites applied.

    ``roots`` are the opcodes ``match`` can fire on.  Always the lowest
    matching body position fires next; termination is "queue empty".
    The cap is a guard, not a budget: a confluent pattern set on a DAG
    shrinks or sinks something with every rewrite, so reaching it means
    a matcher undoes another's work — that raises, naming the pass.
    """
    heap = [((i, _END), op) for i, op in enumerate(fn.body)
            if op.opcode in roots]
    if not heap:
        return 0
    index = UseIndex(fn)
    queued = {op for _, op in heap}
    cap = 4 * len(fn.body) + 64
    rewrites = visited = 0
    while heap:
        _, op = heapq.heappop(heap)
        queued.discard(op)
        if index.erased(op):
            continue
        visited += 1
        rewrite = match(op, index)
        if rewrite is None:
            continue
        if rewrites == cap:
            raise IRError(
                f"{pass_name}: {fn.name} not at fixpoint after {cap} "
                f"rewrites on {len(fn.body)} ops (patterns cycle)")
        index.insert_before(op, rewrite.new_ops)
        index.replace_all_uses(op.result, rewrite.replacement)
        for dead in rewrite.dead:
            index.erase(dead)
        rewrites += 1
        for near in index.affected(rewrite.new_ops, rewrite.replacement):
            if (near.opcode in roots and near not in queued
                    and not index.erased(near)):
                queued.add(near)
                heapq.heappush(heap, (index.key(near), near))
    index.compact()
    if tally is not None:
        tally.visited += visited
    return rewrites
