"""What every run of a compiled CKKS program shares.

A compiled program runs one way: in program order, on the calling
thread (:func:`repro.runtime.ckks_interp.run_ckks_function`).  Two
things carry over from one run to the next, and both live here:

* the :class:`~repro.ir.schedule.OpSchedule` of the function — its
  def-use edges, the liveness refcounts that drop a dead ciphertext the
  moment its last consumer has run, and the *static* ops no input
  reaches — memoised per function by :func:`cached_schedule`;
* the :class:`ConstPool`: the first run on a backend issues the static
  ops (the weight constants and their encodes) and publishes what the
  rest of the program reads of them; every later run on that backend
  looks those up instead of issuing them again.

Serve worker threads and user threads may run one program on one
backend at once, so both caches are lock-guarded; of two threads
first-running one backend, the first to finish publishes its pool.
"""

from __future__ import annotations

import threading
import weakref

from repro.ir.core import Function, Module
from repro.ir.schedule import OpSchedule, compute_schedule


#: schedules are cheap but serve recomputes per request otherwise;
#: keyed by Function (weak), valid while ``fn.body`` holds the same op
#: objects in the same order and ``fn.returns`` the same values (``Op``
#: and ``Value`` compare by identity, so the check is a pointer walk)
_schedule_cache: "weakref.WeakKeyDictionary[Function, tuple[list, list, OpSchedule]]"
_schedule_cache = weakref.WeakKeyDictionary()
_schedule_cache_lock = threading.Lock()


def cached_schedule(fn: Function) -> OpSchedule:
    """Per-function memoised :func:`compute_schedule` (thread-safe)."""
    with _schedule_cache_lock:
        hit = _schedule_cache.get(fn)
        if hit is not None and hit[0] == fn.body and hit[1] == fn.returns:
            return hit[2]
    schedule = compute_schedule(fn)
    with _schedule_cache_lock:
        _schedule_cache[fn] = (list(fn.body), list(fn.returns), schedule)
    return schedule


#: plaintexts one constant pool pins; static results past the bound are
#: recomputed on every run like ordinary ops, so a pool never holds more
#: than the program asks for or than this
_ENCODE_CACHE_MAX = 4096


class ConstPool:
    """What one function's static ops produce on one backend.

    ``schedule.static`` names the ops no input reaches.  The pool pins,
    in program order, the first ``_ENCODE_CACHE_MAX`` of their results
    that a non-static op or ``fn.returns`` reads (``pin``, filled into
    ``values`` by the first run); ``skip`` is every static op a later
    run therefore need not issue, and ``consumers`` the liveness
    refcounts of the ops that remain.  Static results past the bound,
    and the static ops feeding them, stay issued.

    Valid while the run uses the schedule the pool was planned on
    (:func:`cached_schedule` ties that to the identity of ``fn.body``)
    and every constant name a skipped op read is bound to the same array.
    """

    def __init__(self, module: Module, fn: Function, schedule: OpSchedule):
        body, static = fn.body, schedule.static
        returned = {v.id for v in fn.returns}
        boundary = [
            i for i in sorted(static)
            if body[i].results[0].id in returned
            or any(u not in static for u in schedule.users[i])
        ]
        issued = set()
        stack = boundary[_ENCODE_CACHE_MAX:]
        while stack:
            index = stack.pop()
            if index not in issued:
                issued.add(index)
                stack.extend(schedule.deps[index])
        self.schedule = schedule
        self.skip = static - issued
        self.pin = {body[i].results[0].id
                    for i in boundary[:_ENCODE_CACHE_MAX] if i in self.skip}
        self.values: dict[int, object] = {}
        self.consumers: dict[int, int] = {}
        for index, op in enumerate(body):
            if index in self.skip:
                continue
            for vid in {operand.id for operand in op.operands}:
                if vid not in returned and vid not in self.pin:
                    self.consumers[vid] = self.consumers.get(vid, 0) + 1
        self.constants = [
            (name, module.constants.get(name))
            for name in (body[i].attrs.get("const_name") for i in self.skip)
            if name is not None
        ]
        #: set once a complete run has filled ``values``
        self.published = False

    def plan(self) -> tuple[frozenset[int], dict[int, int]]:
        """(ops a run does not issue, its liveness refcounts): nothing
        skipped on a first run, the steady view once published."""
        if self.published:
            return self.skip, dict(self.consumers)
        return frozenset(), dict(self.schedule.consumers)

    def valid_for(self, module: Module, schedule: OpSchedule) -> bool:
        return schedule is self.schedule and all(
            module.constants.get(name) is array
            for name, array in self.constants
        )


#: backend (weak) -> function (weak) -> its published pool: dropping a
#: backend or a function drops the plaintexts pinned for it
_const_pools: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
_const_pools_lock = threading.Lock()


def const_pool(backend, module: Module, fn: Function,
               schedule: OpSchedule) -> ConstPool:
    """The valid published pool, else a fresh unpublished one to fill."""
    with _const_pools_lock:
        pool = _const_pools.get(backend, {}).get(fn)
    if pool is not None and pool.valid_for(module, schedule):
        return pool
    return ConstPool(module, fn, schedule)


def publish(backend, module: Module, fn: Function, pool: ConstPool) -> None:
    """Publish a pool a complete run filled (double-checked: of two
    threads first-running one backend, the first to finish wins)."""
    pool.published = True
    with _const_pools_lock:
        per_fn = _const_pools.setdefault(backend, weakref.WeakKeyDictionary())
        held = per_fn.get(fn)
        if held is None or not held.valid_for(module, pool.schedule):
            per_fn[fn] = pool
