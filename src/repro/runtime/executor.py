"""Operation-level parallel executor for compiled CKKS programs.

The sequential interpreter issues one homomorphic op at a time, even
though PR 2 vectorised every kernel (numpy releases the GIL inside the
NTT/modmul hot loops) and the compiled op list is full of independent
work — parallel residual branches, independent BSGS giant steps,
per-channel convolutions.  :class:`ParallelExecutor` runs the same op
list through the :mod:`repro.ir.schedule` dependency DAG instead:

* ready ops (all producers retired) are dispatched onto a
  ``concurrent.futures.ThreadPoolExecutor``; completion-driven list
  scheduling, not stage barriers, so a long branch never stalls short
  ones;
* the coordinator thread owns the environment: workers receive
  pre-gathered arguments and return a result, all bookkeeping (env
  insertion, liveness refcounts, dependent wake-up) is single-threaded;
* dead ciphertexts are dropped the moment their last consumer retires
  (the schedule's ``consumers`` refcounts — same eager freeing as the
  sequential interpreter);
* ``jobs=1`` executes the identical dispatch/liveness code in program
  order on the calling thread — the sequential interpreter is literally
  the one-job case of this scheduler;
* ops no input reaches (``OpSchedule.static``: the weight constants and
  their encodes) are issued by the first run on a backend only; a
  :class:`ConstPool` keeps what the rest of the program reads of them
  and every later run looks it up, at every job count.

**Determinism contract**: backends must evaluate each op as a pure
function of its arguments (both bundled backends do — see
``docs/INTERNALS.md`` "Parallel execution"), so results are bit-identical
to sequential execution regardless of completion order.

``jobs`` resolution: explicit argument, else the ``REPRO_JOBS``
environment variable, else 1.  A shared :class:`JobBudget` caps the
*total* worker threads across concurrent executions (the serving layer
hands every worker the same budget so serve threads × executor threads
cannot oversubscribe the host).

**Memory-aware dispatch bounding**: parallelism widens the *working
set* — every in-flight op pins its operands and will materialise a
result ciphertext.  With ``mem_budget`` set (explicit argument or the
``REPRO_MEM_BUDGET`` environment variable, bytes), the coordinator
stops issuing ready ops once live ciphertext bytes plus the Figure-7
projection of in-flight results would exceed the budget — width
degrades toward sequential under memory pressure instead of thrashing
a shard past its container limit.  At least one op always stays in
flight, so progress (and the one-job case) is untouched.  Capped
dispatch decisions are counted in :func:`width_capped_total` (exported
as ``executor_width_capped_total`` by the serving metrics).
"""

from __future__ import annotations

import os
import threading
import weakref
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait

from repro import chaos
from repro.errors import (
    ExecutorStalledError,
    ReproError,
    RuntimeBackendError,
)
from repro.ir.core import Function, Module
from repro.ir.schedule import OpSchedule, compute_schedule


_width_capped_lock = threading.Lock()
_width_capped_total = 0


def width_capped_total() -> int:
    """Process-wide count of dispatch rounds the memory budget capped."""
    with _width_capped_lock:
        return _width_capped_total


def _record_width_cap() -> None:
    global _width_capped_total
    with _width_capped_lock:
        _width_capped_total += 1


def resolve_mem_budget(budget: int | None = None) -> int | None:
    """Effective live-ciphertext byte budget: explicit >
    ``REPRO_MEM_BUDGET`` env > None (unbounded)."""
    if budget is None:
        raw = os.environ.get("REPRO_MEM_BUDGET", "").strip()
        if not raw:
            return None
        try:
            budget = int(raw)
        except ValueError:
            raise ReproError(
                f"REPRO_MEM_BUDGET must be an integer byte count, "
                f"got {raw!r}"
            ) from None
    if budget <= 0:
        raise ReproError(f"mem_budget must be positive, got {budget}")
    return budget


def resolve_jobs(jobs: int | None = None) -> int:
    """Effective job count: explicit > ``REPRO_JOBS`` env > 1."""
    if jobs is None:
        raw = os.environ.get("REPRO_JOBS", "").strip()
        if raw:
            try:
                jobs = int(raw)
            except ValueError:
                raise ReproError(
                    f"REPRO_JOBS must be an integer, got {raw!r}"
                ) from None
        else:
            jobs = 1
    if jobs < 1:
        raise ReproError(f"jobs must be >= 1, got {jobs}")
    return jobs


class JobBudget:
    """A shared cap on concurrent executor worker threads.

    Each execution requests its desired job count and is granted what is
    available — but always at least one, so progress is guaranteed even
    when the budget is exhausted (the grantee then runs sequentially).
    The serving layer creates one budget per process so N serve workers
    each asking for J jobs collectively stay at ~``limit`` threads
    instead of ``N * J``.
    """

    def __init__(self, limit: int):
        if limit < 1:
            raise ReproError(f"job budget must be >= 1, got {limit}")
        self.limit = limit
        self._available = limit
        self._lock = threading.Lock()

    def acquire(self, want: int) -> int:
        """Grant between 1 and ``want`` jobs without blocking."""
        if want <= 1:
            return 1
        with self._lock:
            extra = max(0, min(want - 1, self._available - 1))
            self._available -= 1 + extra
            return 1 + extra

    def release(self, granted: int) -> None:
        with self._lock:
            self._available += granted
            if self._available > self.limit:  # defensive: double release
                self._available = self.limit

    @property
    def available(self) -> int:
        with self._lock:
            return self._available


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


def _publish(backend, module: Module, fn: Function, pool: ConstPool) -> None:
    """Publish a pool a complete run filled (double-checked: of two
    threads first-running one backend, the first to finish wins)."""
    pool.published = True
    with _const_pools_lock:
        per_fn = _const_pools.setdefault(backend, weakref.WeakKeyDictionary())
        held = per_fn.get(fn)
        if held is None or not held.valid_for(module, pool.schedule):
            per_fn[fn] = pool


class ParallelExecutor:
    """Executes a scheduled CKKS-IR function with ``jobs`` worker threads.

    Args:
        backend: the :class:`~repro.backend.interface.HEBackend` issuing
            homomorphic ops; must satisfy the pure-op determinism and
            thread-safety contract for ``jobs > 1``.
        jobs: worker threads (None = ``REPRO_JOBS`` env, default 1).
        budget: optional shared :class:`JobBudget`; the executor acquires
            its thread count from the budget per run and releases it
            after, so concurrent executions cannot oversubscribe.
        watchdog_s: if set, the coordinator declares the execution
            stalled when *no* in-flight op completes for this long
            (a wedged kernel, a dead worker thread), raises the
            transient :class:`repro.errors.ExecutorStalledError`, and
            abandons the stuck threads without joining them — only this
            execution fails; the process keeps serving.
    """

    def __init__(self, backend, jobs: int | None = None,
                 budget: JobBudget | None = None,
                 watchdog_s: float | None = None,
                 mem_budget: int | None = None):
        self.backend = backend
        self.jobs = resolve_jobs(jobs)
        self.budget = budget
        self.watchdog_s = watchdog_s
        self.mem_budget = resolve_mem_budget(mem_budget)
        #: dispatch rounds this instance stopped issuing early because
        #: projected live bytes exceeded ``mem_budget``
        self.width_capped = 0

    # -- public API ---------------------------------------------------------

    def run(
        self,
        module: Module,
        fn: Function,
        inputs: list,
        check_plan: bool = True,
        region_tags: dict[int, str] | None = None,
        schedule: OpSchedule | None = None,
    ) -> list:
        """Execute ``fn``; bit-identical to the sequential interpreter."""
        # interpreter dispatch lives in ckks_interp; imported lazily to
        # keep the module dependency one-directional at import time
        from repro.runtime.ckks_interp import prepare_env

        env = prepare_env(fn, self.backend, inputs)
        if schedule is None:
            schedule = cached_schedule(fn)
        pool = const_pool(self.backend, module, fn, schedule)
        granted = self.budget.acquire(self.jobs) if self.budget else self.jobs
        try:
            if granted == 1:
                self._run_sequential(module, fn, env, pool,
                                     check_plan, region_tags)
            else:
                self._run_parallel(module, fn, env, schedule, pool,
                                   check_plan, region_tags, granted)
        finally:
            if self.budget:
                self.budget.release(granted)
        if not pool.published:
            _publish(self.backend, module, fn, pool)
        return self._values(env, pool, fn.returns)

    # -- shared per-op machinery -------------------------------------------

    def _issue(self, module, op, args, tag, check_plan):
        """Evaluate one op (worker thread or sequential loop)."""
        from repro.runtime.ckks_interp import _check, _eval

        # every execution path (jobs=1 included) funnels through here,
        # making it the executor-level fault-injection point
        chaos.on_executor_op(op.opcode)
        trace = getattr(self.backend, "trace", None)
        if trace is not None and tag:
            with trace.region(tag):
                result = _eval(module, op, args, self.backend)
        else:
            result = _eval(module, op, args, self.backend)
        if check_plan and op.results[0].meta.get("scale") is not None:
            _check(op, result, self.backend)
        return result

    @staticmethod
    def _values(env, pool, values) -> list:
        """Each value live in ``env``, else pooled (looked up, never
        copied into ``env``: the memory budget sees only the live set)."""
        pinned = pool.values
        return [env[v.id] if v.id in env else pinned[v.id] for v in values]

    def _retire(self, fn, env, pool, index, result, live) -> None:
        """Coordinator-side bookkeeping after op ``index`` completes."""
        op = fn.body[index]
        out = op.results[0].id
        env[out] = result
        if out in pool.pin:  # only a first run issues these
            pool.values[out] = result
        for vid in {operand.id for operand in op.operands}:
            remaining = live.get(vid)
            if remaining is None:
                continue
            if remaining <= 1:
                del live[vid]
                env.pop(vid, None)
            else:
                live[vid] = remaining - 1

    @staticmethod
    def _tag_for(op, index, region_tags) -> str | None:
        return (region_tags or {}).get(index) or op.attrs.get("region")

    # -- memory-aware dispatch bounding -------------------------------------

    @staticmethod
    def _value_bytes(value) -> int:
        """Resident bytes of one env value (exact or sim ciphertext)."""
        byte_size = getattr(value, "byte_size", None)
        if callable(byte_size):
            return byte_size()
        values = getattr(value, "values", None)
        nbytes = getattr(values, "nbytes", None)
        return int(nbytes) if nbytes is not None else 0

    def _live_bytes(self, env) -> int:
        return sum(self._value_bytes(value) for value in env.values())

    def _projected_result_bytes(self) -> int:
        """Figure-7 projection for one in-flight op's result.

        Conservative: a fresh 2-part ciphertext over the full modulus
        chain (``parts * (levels+1) * N * 8``).  Ops that rescale or
        return plaintext overshoot, which errs toward narrower width —
        the safe direction for a budget.
        """
        config = getattr(self.backend, "config", None)
        if config is None:
            return 0
        return 2 * (config.num_levels + 1) * config.poly_degree * 8

    def _may_dispatch(self, env, in_flight: int) -> bool:
        """Can one more op be issued without busting ``mem_budget``?

        The first op of a round always dispatches (progress guarantee);
        beyond that, live env bytes + a Figure-7 projection for every
        in-flight result (including the candidate) must fit.
        """
        if self.mem_budget is None or in_flight == 0:
            return True
        projected = (self._live_bytes(env)
                     + (in_flight + 1) * self._projected_result_bytes())
        if projected <= self.mem_budget:
            return True
        self.width_capped += 1
        _record_width_cap()
        return False

    # -- sequential (jobs=1) ------------------------------------------------

    def _run_sequential(self, module, fn, env, pool, check_plan,
                        region_tags) -> None:
        skip, live = pool.plan()
        for index, op in enumerate(fn.body):
            if index in skip:
                continue
            args = self._values(env, pool, op.operands)
            tag = self._tag_for(op, index, region_tags)
            result = self._issue(module, op, args, tag, check_plan)
            self._retire(fn, env, pool, index, result, live)

    # -- parallel -----------------------------------------------------------

    def _run_parallel(self, module, fn, env, schedule, pool, check_plan,
                      region_tags, jobs) -> None:
        body = fn.body
        skip, live = pool.plan()
        # a skipped op counts as already complete: it is no one's pending
        # dependency and is never woken
        remaining_deps = [sum(p not in skip for p in d)
                          for d in schedule.deps]
        # within-wavefront dispatch follows program order (ready is seeded
        # and extended in index order), which keeps trace interleaving and
        # completion scanning deterministic-ish; results are order-free
        ready = [i for i, d in enumerate(remaining_deps)
                 if d == 0 and i not in skip]
        submitted = 0
        completed = 0
        # manual pool lifecycle (no ``with``): when the watchdog fires,
        # the stalled worker threads must be *abandoned*, not joined —
        # a ``with`` exit would block on them forever
        workers = ThreadPoolExecutor(max_workers=jobs,
                                     thread_name_prefix="repro-exec")
        pending = {}
        wait_on_exit = True
        try:
            while completed < len(body) - len(skip):
                while ready:
                    if not self._may_dispatch(env, len(pending)):
                        break  # memory budget: leftover ready ops wait
                    index = ready.pop(0)
                    op = body[index]
                    args = self._values(env, pool, op.operands)
                    tag = self._tag_for(op, index, region_tags)
                    future = workers.submit(
                        self._issue, module, op, args, tag, check_plan
                    )
                    pending[future] = index
                    submitted += 1
                if not pending:
                    raise RuntimeBackendError(
                        "scheduler stalled: dependency cycle in op list"
                    )
                done, _ = wait(pending, return_when=FIRST_COMPLETED,
                               timeout=self.watchdog_s)
                if not done:
                    wait_on_exit = False
                    stuck = sorted(body[i].opcode for i in pending.values())
                    raise ExecutorStalledError(
                        f"watchdog: no op completed within "
                        f"{self.watchdog_s}s; abandoning {len(pending)} "
                        f"in-flight ops ({', '.join(stuck[:4])}...)"
                    )
                for future in done:
                    index = pending.pop(future)
                    result = future.result()  # re-raises op errors
                    self._retire(fn, env, pool, index, result, live)
                    completed += 1
                    for user in schedule.users[index]:
                        remaining_deps[user] -= 1
                        if remaining_deps[user] == 0 and user not in skip:
                            ready.append(user)
                    ready.sort()
        except BaseException:
            for future in pending:
                future.cancel()
            raise
        finally:
            workers.shutdown(wait=wait_on_exit, cancel_futures=True)
