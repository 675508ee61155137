"""repro.chaos — seeded, deterministic fault injection.

A production FHE endpoint fails in ways a unit test never provokes on
its own: a ciphertext corrupted in flight, a key-switch kernel that
stalls, a client that resets its connection mid-frame.  This module
plants *injection points* at three levels of the stack —

* **backend** (``backend.*``): residue corruption, forced
  :class:`~repro.errors.NoiseBudgetExhausted`, latency spikes in the
  NTT/key-switch hot ops (hooked in ``ExactBackend``/``SimBackend``);
* **executor** (``executor.*``): an exception raised as a compiled
  program issues an op (:func:`repro.runtime.ckks_interp._issue`);
* **serve wire** (``wire.*``, ``serve.*``): truncated and oversized
  frames, connection resets, slow-loris writes (hooked in
  ``ServeClient``) and per-request poisoning (hooked in
  ``InferenceWorker.submit``).

— all driven by a :class:`ChaosPlan`: one seed plus a per-site
:class:`SiteSpec` (probability, optional firing cap, optional
site-specific magnitude).  Every site draws from its *own*
``random.Random`` stream seeded by ``(plan seed, site name)``, so the
k-th decision at a site depends only on the seed and k — the same plan
replays the identical fault sequence (site, firing index, detail) no
matter what the other sites did.  Every firing is appended to an
in-memory replay log (:func:`replay_log`, :func:`dump_log`) so a CI
failure ships the exact faults that provoked it.

With no plan installed every hook is a single ``is None`` check.

Activation:

* programmatic — ``install(plan)`` / ``uninstall()`` / ``active(plan)``;
* environment — ``REPRO_CHAOS`` is parsed at import time
  (:meth:`ChaosPlan.from_spec`): either a bare integer seed (the
  conservative :meth:`ChaosPlan.default` site set) or a full spec like
  ``seed=42;wire.reset=0.05@4;executor.job_exception=0.02@8~0.1``
  (``probability`` [``@max_count``] [``~value``]);
* CLI — ``repro serve --chaos-seed N`` / ``--chaos-spec SPEC``.

If ``REPRO_CHAOS_LOG`` names a file, the replay log is written there
*incrementally* — the plan header when the injector installs, each event
as it fires — and rewritten once at interpreter exit (the CI chaos job
uploads it as an artifact).  The incremental flush means a process
killed mid-run (a chaos soak's whole point) still leaves a replayable
log on disk.

:mod:`repro.chaos.soak` builds on this: a long-running seeded
overload+fault scenario against an in-process serving stack, with a
containment report (``repro soak``).
"""

from __future__ import annotations

import atexit
import json
import os
import random
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.errors import ChaosError, NoiseBudgetExhausted, ReproError

# -- fault sites -----------------------------------------------------------

#: backend: corrupt a result ciphertext's residues/values
BACKEND_CORRUPT = "backend.corrupt"
#: backend: raise NoiseBudgetExhausted from a budget-consuming op
BACKEND_NOISE = "backend.noise"
#: backend: sleep ``value`` seconds inside an NTT/key-switch-heavy op
BACKEND_LATENCY = "backend.latency"
#: executor: raise ChaosError as a compiled program issues an op
EXECUTOR_JOB_EXCEPTION = "executor.job_exception"
#: serve: poison one inbound request (fails at execution, not submit)
SERVE_POISON = "serve.poison"
#: serve: server computes a result, then drops the connection instead of
#: replying — the client must treat the silence as transient and retry
SERVE_DROP_REPLY = "serve.drop_reply"
#: serve: server flips bytes in the outbound reply frame
SERVE_CORRUPT_REPLY = "serve.corrupt_reply"
#: serve: server sleeps ``value`` seconds *after* committing the result,
#: before replying (client may have timed out / retried by then)
SERVE_DELAY_REPLY = "serve.delay_reply"
#: serve: server sends the reply frame twice
SERVE_DUP_REPLY = "serve.dup_reply"
#: router: kill a shard process right as a request is forwarded to it
ROUTER_SHARD_KILL = "router.shard_kill"
#: wire: client sends half a frame, then drops the connection
WIRE_TRUNCATE = "wire.truncate"
#: wire: client sends a frame whose length prefix exceeds any sane bound
WIRE_OVERSIZE = "wire.oversize"
#: wire: client hard-closes the connection instead of sending
WIRE_RESET = "wire.reset"
#: wire: client trickles the frame out in tiny chunks (slow loris)
WIRE_SLOW = "wire.slow"

ALL_SITES = (
    BACKEND_CORRUPT, BACKEND_NOISE, BACKEND_LATENCY,
    EXECUTOR_JOB_EXCEPTION,
    SERVE_POISON, SERVE_DROP_REPLY, SERVE_CORRUPT_REPLY,
    SERVE_DELAY_REPLY, SERVE_DUP_REPLY,
    ROUTER_SHARD_KILL,
    WIRE_TRUNCATE, WIRE_OVERSIZE, WIRE_RESET, WIRE_SLOW,
)

#: ops eligible for BACKEND_NOISE / BACKEND_LATENCY (the budget-consuming
#: and key-switch-heavy subset; add/encode etc. stay fault-free so plans
#: target the paths that matter)
_NOISE_OPS = frozenset({"mul", "rescale", "rotate", "relin", "conjugate",
                        "bootstrap", "modswitch"})
_LATENCY_OPS = frozenset({"mul", "rotate", "relin", "conjugate",
                          "bootstrap"})

_DEFAULT_VALUES = {
    BACKEND_LATENCY: 0.02,
    SERVE_DELAY_REPLY: 0.05,
    WIRE_SLOW: 0.005,
}


# -- plan ------------------------------------------------------------------

@dataclass(frozen=True)
class SiteSpec:
    """How one fault site fires.

    ``probability`` is per *opportunity* (each hook call rolls the
    site's own RNG); ``max_count`` caps total firings (None = no cap);
    ``value`` is the site-specific magnitude (seconds for the latency,
    delay and slow-write sites, unused elsewhere).
    """

    probability: float = 1.0
    max_count: int | None = None
    value: float | None = None

    def __post_init__(self):
        if not 0.0 <= self.probability <= 1.0:
            raise ReproError(
                f"site probability must be in [0, 1], got {self.probability}"
            )
        if self.max_count is not None and self.max_count < 0:
            raise ReproError(f"max_count must be >= 0, got {self.max_count}")


@dataclass(frozen=True)
class ChaosEvent:
    """One replayable firing: which site, its k-th firing, and where."""

    site: str
    index: int  # 1-based per-site firing index
    detail: str  # op name / request id / opcode at the firing point

    def key(self) -> tuple[str, int, str]:
        return (self.site, self.index, self.detail)


class ChaosPlan:
    """Seed + per-site specs.  The whole fault sequence replays from it."""

    def __init__(self, seed: int, sites: dict[str, SiteSpec] | None = None):
        self.seed = int(seed)
        self.sites = dict(sites or {})
        for site in self.sites:
            if site not in ALL_SITES:
                raise ReproError(
                    f"unknown chaos site {site!r} (known: {ALL_SITES})"
                )

    @classmethod
    def default(cls, seed: int) -> "ChaosPlan":
        """A conservative plan every containment layer can heal.

        Only sites whose faults the stack recovers from end-to-end
        (client retry, batch repack) — suitable for running a whole
        test suite under (the CI chaos job does exactly that).
        """
        return cls(seed, {
            WIRE_RESET: SiteSpec(0.05, max_count=8),
            WIRE_TRUNCATE: SiteSpec(0.05, max_count=8),
            WIRE_SLOW: SiteSpec(0.02, max_count=4, value=0.002),
            EXECUTOR_JOB_EXCEPTION: SiteSpec(0.01, max_count=4),
            BACKEND_LATENCY: SiteSpec(0.01, max_count=8, value=0.005),
        })

    @classmethod
    def from_spec(cls, spec: str) -> "ChaosPlan":
        """Parse ``"seed=42;site=prob[@max_count][~value];..."``.

        A bare integer is shorthand for :meth:`default` with that seed.
        """
        spec = spec.strip()
        if not spec:
            raise ReproError("empty chaos spec")
        try:
            return cls.default(int(spec))
        except ValueError:
            pass
        seed = 0
        sites: dict[str, SiteSpec] = {}
        for part in spec.split(";"):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise ReproError(f"bad chaos spec fragment {part!r} "
                                 "(want key=value)")
            key, _, val = part.partition("=")
            key = key.strip()
            val = val.strip()
            if key == "seed":
                seed = int(val)
                continue
            value = None
            max_count = None
            if "~" in val:
                val, _, raw = val.partition("~")
                value = float(raw)
            if "@" in val:
                val, _, raw = val.partition("@")
                max_count = int(raw)
            try:
                probability = float(val)
            except ValueError:
                raise ReproError(
                    f"bad probability {val!r} for chaos site {key!r}"
                ) from None
            sites[key] = SiteSpec(probability, max_count, value)
        return cls(seed, sites)

    def to_spec(self) -> str:
        parts = [f"seed={self.seed}"]
        for site in sorted(self.sites):
            spec = self.sites[site]
            frag = f"{site}={spec.probability:g}"
            if spec.max_count is not None:
                frag += f"@{spec.max_count}"
            if spec.value is not None:
                frag += f"~{spec.value:g}"
            parts.append(frag)
        return ";".join(parts)


# -- injector --------------------------------------------------------------

class _SiteState:
    def __init__(self, seed: int, site: str):
        # string seeding hashes via SHA-512 (random.seed version 2):
        # stable across processes and PYTHONHASHSEED values
        self.rng = random.Random(f"{seed}:{site}")
        self.fired = 0
        self.calls = 0


class ChaosInjector:
    """Runtime state of one installed :class:`ChaosPlan`.

    Thread-safe: each site's decision sequence is serialised under one
    lock, so decision k at a site is the same in any thread interleaving
    (full cross-site event *ordering* is only deterministic when the
    workload itself is).
    """

    def __init__(self, plan: ChaosPlan):
        self.plan = plan
        self._lock = threading.Lock()
        self._states = {site: _SiteState(plan.seed, site)
                        for site in plan.sites}
        self._events: list[ChaosEvent] = []

    def should_fire(self, site: str, detail: str = "") -> SiteSpec | None:
        """Roll the site's RNG; returns its spec when the fault fires."""
        spec = self.plan.sites.get(site)
        if spec is None:
            return None
        with self._lock:
            state = self._states[site]
            state.calls += 1
            if spec.max_count is not None and state.fired >= spec.max_count:
                return None
            if state.rng.random() >= spec.probability:
                return None
            state.fired += 1
            event = ChaosEvent(site, state.fired, detail)
            self._events.append(event)
            _append_log(event)
            return spec

    def value(self, site: str, spec: SiteSpec) -> float:
        if spec.value is not None:
            return spec.value
        return _DEFAULT_VALUES.get(site, 0.0)

    def events(self) -> list[ChaosEvent]:
        with self._lock:
            return list(self._events)

    def counts(self) -> dict[str, int]:
        with self._lock:
            return {site: state.fired
                    for site, state in self._states.items() if state.fired}


# -- global installation ---------------------------------------------------

_INJECTOR: ChaosInjector | None = None
_install_lock = threading.Lock()

#: incremental replay-log destination (REPRO_CHAOS_LOG / set_log_path)
_LOG_PATH: str | None = None


def set_log_path(path: str | None) -> None:
    """Point the incremental replay log at ``path`` (None disables).

    Events already fired by an installed injector are written out
    immediately, then every subsequent firing is appended and flushed as
    it happens — a process killed mid-soak still leaves a replayable log.
    """
    global _LOG_PATH
    _LOG_PATH = path
    inj = _INJECTOR
    if path and inj is not None:
        _start_log(inj)


def _start_log(inj: ChaosInjector) -> None:
    """(Re)write the log header + any already-fired events. Best-effort:
    replay logging must never take the workload down with it."""
    if _LOG_PATH is None:
        return
    try:
        with open(_LOG_PATH, "w") as fh:
            fh.write(json.dumps({"plan": inj.plan.to_spec()}) + "\n")
            for event in inj.events():
                fh.write(json.dumps({
                    "site": event.site,
                    "index": event.index,
                    "detail": event.detail,
                }) + "\n")
    except OSError:
        pass


def _append_log(event: ChaosEvent) -> None:
    if _LOG_PATH is None:
        return
    try:
        with open(_LOG_PATH, "a") as fh:
            fh.write(json.dumps({
                "site": event.site,
                "index": event.index,
                "detail": event.detail,
            }) + "\n")
    except OSError:
        pass


def install(plan: ChaosPlan) -> ChaosInjector:
    """Install ``plan`` process-wide; returns the fresh injector."""
    global _INJECTOR
    with _install_lock:
        _INJECTOR = ChaosInjector(plan)
        if _LOG_PATH:
            _start_log(_INJECTOR)
        return _INJECTOR


def uninstall() -> None:
    global _INJECTOR
    with _install_lock:
        _INJECTOR = None


def current() -> ChaosInjector | None:
    return _INJECTOR


@contextmanager
def active(plan: ChaosPlan):
    """Scoped installation for tests; restores the previous injector."""
    global _INJECTOR
    with _install_lock:
        previous = _INJECTOR
        injector = _INJECTOR = ChaosInjector(plan)
    try:
        yield injector
    finally:
        with _install_lock:
            _INJECTOR = previous


def replay_log() -> list[tuple[str, int, str]]:
    """The installed injector's fault sequence as plain tuples."""
    inj = _INJECTOR
    return [e.key() for e in inj.events()] if inj else []


def dump_log(path: str) -> None:
    """Write the replay log (plan spec + events) as JSON lines."""
    inj = _INJECTOR
    if inj is None:
        return
    with open(path, "w") as fh:
        fh.write(json.dumps({"plan": inj.plan.to_spec()}) + "\n")
        for event in inj.events():
            fh.write(json.dumps({
                "site": event.site,
                "index": event.index,
                "detail": event.detail,
            }) + "\n")


# -- hooks (each is a no-op costing one global read when disabled) ---------

def on_backend_op(op: str) -> None:
    """Backend-level faults: forced budget exhaustion, latency spikes."""
    inj = _INJECTOR
    if inj is None:
        return
    if op in _NOISE_OPS and inj.should_fire(BACKEND_NOISE, op):
        raise NoiseBudgetExhausted(
            f"chaos: injected noise-budget exhaustion at {op}"
        )
    if op in _LATENCY_OPS:
        spec = inj.should_fire(BACKEND_LATENCY, op)
        if spec:
            time.sleep(inj.value(BACKEND_LATENCY, spec))


def corrupt_result(op: str, result):
    """Backend-level residue/value corruption of an op result.

    Returns a corrupted *copy* when the site fires (the input object may
    be shared with other requests); the original otherwise.
    """
    inj = _INJECTOR
    if inj is None:
        return result
    if inj.should_fire(BACKEND_CORRUPT, op) is None:
        return result
    corrupted = result.copy()
    parts = getattr(corrupted, "parts", None)
    if parts is not None:  # exact Ciphertext: RNS residue corruption
        residues = parts[0].residues
        modulus = parts[0].basis.moduli[0]
        residues[0, :8] = (residues[0, :8] + modulus // 3 + 1) % modulus
    else:  # SimCipher: blow up the first few slots
        corrupted.values[:8] += 1e6
    return corrupted


def on_executor_op(opcode: str) -> None:
    """Executor-level fault: an exception as the op is issued."""
    inj = _INJECTOR
    if inj is None:
        return
    if inj.should_fire(EXECUTOR_JOB_EXCEPTION, opcode):
        raise ChaosError(f"chaos: injected job exception at {opcode}")


def poison_request(request_id: int) -> bool:
    """serve-level: should this inbound request be poisoned?"""
    inj = _INJECTOR
    if inj is None:
        return False
    return inj.should_fire(SERVE_POISON, f"request {request_id}") is not None


def wire_fault() -> tuple[str, SiteSpec] | None:
    """Client-wire faults: first of truncate/oversize/reset/slow to fire."""
    inj = _INJECTOR
    if inj is None:
        return None
    for site in (WIRE_RESET, WIRE_TRUNCATE, WIRE_OVERSIZE, WIRE_SLOW):
        spec = inj.should_fire(site, "rpc")
        if spec:
            return site, spec
    return None


def reply_fault(detail: str = "") -> tuple[str, SiteSpec] | None:
    """Server-side reply faults: drop/corrupt/dup/delay the outbound frame.

    Fired *after* the server computed (committed) the result — these
    exercise the client's at-most-once machinery: a dropped or corrupt
    reply must surface as a transient error and a retry, a duplicated
    reply must be discarded by request-id correlation, and a delayed
    reply must not pair with the wrong request.
    """
    inj = _INJECTOR
    if inj is None:
        return None
    for site in (SERVE_DROP_REPLY, SERVE_CORRUPT_REPLY,
                 SERVE_DUP_REPLY, SERVE_DELAY_REPLY):
        spec = inj.should_fire(site, detail)
        if spec:
            return site, spec
    return None


def shard_kill(detail: str = "") -> bool:
    """Router-level: should this forwarded request's shard be killed?"""
    inj = _INJECTOR
    if inj is None:
        return False
    return inj.should_fire(ROUTER_SHARD_KILL, detail) is not None


# -- environment activation ------------------------------------------------

_env_spec = os.environ.get("REPRO_CHAOS", "").strip()
if _env_spec:
    install(ChaosPlan.from_spec(_env_spec))

_env_log = os.environ.get("REPRO_CHAOS_LOG", "").strip()
if _env_log:
    # incremental flush while running + an idempotent rewrite at exit
    set_log_path(_env_log)
    atexit.register(dump_log, _env_log)
