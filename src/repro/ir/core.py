"""Core IR data structures: Value, Op, Function, Module."""

from __future__ import annotations

import hashlib
import itertools
import weakref
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.errors import IRError
from repro.ir.types import Type

_value_ids = itertools.count()


class Value:
    """An SSA value: produced by exactly one op (or a function parameter)."""

    __slots__ = ("id", "type", "name", "producer", "meta")

    def __init__(self, type_: Type, name: str = "", producer: "Op | None" = None):
        self.id = next(_value_ids)
        self.type = type_
        self.name = name or f"v{self.id}"
        self.producer = producer
        #: free-form analysis metadata (scale, level, layout, depth, ...)
        self.meta: dict[str, Any] = {}

    def __repr__(self):
        return f"%{self.name}: {self.type}"


class Op:
    """One IR operation: opcode, operands, results, attributes."""

    __slots__ = ("opcode", "operands", "results", "attrs")

    def __init__(self, opcode: str, operands: list[Value],
                 results: list[Value], attrs: dict[str, Any] | None = None):
        self.opcode = opcode
        self.operands = list(operands)
        self.results = list(results)
        self.attrs = dict(attrs or {})
        for r in self.results:
            r.producer = self

    @property
    def dialect(self) -> str:
        return self.opcode.split(".", 1)[0]

    @property
    def result(self) -> Value:
        if len(self.results) != 1:
            raise IRError(f"{self.opcode} has {len(self.results)} results")
        return self.results[0]

    def __repr__(self):
        outs = ", ".join(f"%{r.name}" for r in self.results)
        ins = ", ".join(f"%{o.name}" for o in self.operands)
        return f"{outs} = {self.opcode}({ins})"


class Function:
    """A flat, topologically ordered op list (inference graphs are DAGs)."""

    def __init__(self, name: str, params: list[Value]):
        self.name = name
        self.params = list(params)
        self.body: list[Op] = []
        self.returns: list[Value] = []

    def append(self, op: Op) -> Op:
        self.body.append(op)
        return op

    def values(self) -> list[Value]:
        out = list(self.params)
        for op in self.body:
            out.extend(op.results)
        return out

    def uses(self) -> dict[Value, list[Op]]:
        """Map each value to the ops consuming it."""
        out: dict[Value, list[Op]] = {}
        for op in self.body:
            for operand in op.operands:
                out.setdefault(operand, []).append(op)
        return out

    def op_count(self, opcode: str | None = None) -> int:
        if opcode is None:
            return len(self.body)
        return sum(1 for op in self.body if op.opcode == opcode)

    def use_counts(self) -> dict[int, int]:
        """Map ``value.id`` to its total number of uses (returns count)."""
        counts: dict[int, int] = {}
        for op in self.body:
            for operand in op.operands:
                counts[operand.id] = counts.get(operand.id, 0) + 1
        for v in self.returns:
            counts[v.id] = counts.get(v.id, 0) + 1
        return counts

    def replace_uses(self, old: Value, new: Value) -> int:
        """Rewrite every use of ``old`` (operands + returns) to ``new``."""
        replaced = 0
        for op in self.body:
            for i, operand in enumerate(op.operands):
                if operand is old:
                    op.operands[i] = new
                    replaced += 1
        for i, v in enumerate(self.returns):
            if v is old:
                self.returns[i] = new
                replaced += 1
        return replaced

    def dce(self) -> int:
        """Remove ops whose results are unused; returns ops removed.

        One reverse sweep: the body is topologically ordered, so by the
        time an op is reached every consumer has already been judged."""
        live: set[int] = {v.id for v in self.returns}
        keep = []
        for op in reversed(self.body):
            for result in op.results:
                if result.id in live:
                    break
            else:
                if not op.attrs.get("has_side_effects", False):
                    continue
            keep.append(op)
            for operand in op.operands:
                live.add(operand.id)
        removed = len(self.body) - len(keep)
        if removed:
            keep.reverse()
            self.body = keep
        return removed


@dataclass
class Module:
    """Top-level container: functions + external weight storage.

    Weights live outside the IR (paper §3.4 stores them in external files
    to keep generated code small); constants in the IR refer to them by
    name via the ``const_name`` attribute.
    """

    name: str = "module"
    functions: dict[str, Function] = field(default_factory=dict)
    constants: dict[str, np.ndarray] = field(default_factory=dict)
    meta: dict[str, Any] = field(default_factory=dict)

    def add_function(self, fn: Function) -> Function:
        if fn.name in self.functions:
            raise IRError(f"duplicate function {fn.name}")
        self.functions[fn.name] = fn
        return fn

    def main(self) -> Function:
        if "main" in self.functions:
            return self.functions["main"]
        if len(self.functions) == 1:
            return next(iter(self.functions.values()))
        raise IRError("no unambiguous main function")

    def add_constant(self, hint: str, array: np.ndarray) -> str:
        name = hint
        if name in self.constants:
            counter = self.meta.setdefault("_const_counters", {})
            index = counter.get(hint, 0)
            while f"{hint}_{index}" in self.constants:
                index += 1
            name = f"{hint}_{index}"
            counter[hint] = index + 1
        self.constants[name] = np.asarray(array)
        return name

    def constant_digest(self, name: str) -> bytes:
        """Content digest of constant ``name``, hashed once per stored array.

        Stored payloads are immutable (clones share them), so an entry
        — name -> (weakref to the array hashed, digest), kept in ``meta``
        so clones and adopted candidates carry it along — is valid for as
        long as ``name`` is bound to that array; rebinding or deleting
        the name drops it.
        """
        arr = self.constants[name]
        digests = self.meta.setdefault("_const_digests", {})
        memo = digests.get(name)
        if memo is None or memo[0]() is not arr:
            digest = hashlib.blake2b(
                np.ascontiguousarray(arr).data, digest_size=16).digest()
            memo = digests[name] = (weakref.ref(arr), digest)
        return memo[1]

    def constant_bytes(self) -> int:
        return sum(a.nbytes for a in self.constants.values())
