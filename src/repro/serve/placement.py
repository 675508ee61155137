"""Key-memory-aware model placement for the scale-out router.

In FHE serving the resource that actually fills a machine is not model
weights but *evaluation keys*: each key-switch key is a digit-decomposed
pair of polynomials over the extended key basis, and a model's rotation
set easily dwarfs its ciphertexts (the Figure-7 observation).  So the
router places models on shards by **resident key bytes**
(:meth:`repro.ckks.keys.KeyChain.byte_size` via
``ModelEntry.key_bytes``), not by request count:

* a new model lands on the shard with the least resident key memory;
* when a shard's ``key_budget`` would be exceeded, the **least recently
  used** resident models are evicted (their key material dropped via
  ``unregister_model``) until the newcomer fits;
* an evicted model stays known to the router — the next request for it
  triggers transparent re-placement and re-registration from the
  router's serialized key blob (a "routed-request miss").

The policy is pure bookkeeping — the router performs the actual RPCs —
which keeps it deterministic and unit-testable: time is a logical clock
bumped per touch, never a wall clock.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.errors import ServeError


@dataclass
class Placement:
    """One model's residency on a shard."""

    model_id: str
    shard: int
    key_bytes: int
    last_used: int  # logical clock, monotonically increasing per touch


class KeyMemoryPlacement:
    """Assign models to shards by resident key memory, with LRU eviction."""

    def __init__(self, num_shards: int, key_budget: int | None = None):
        if num_shards < 1:
            raise ServeError(f"need at least one shard, got {num_shards}")
        if key_budget is not None and key_budget <= 0:
            raise ServeError(f"key_budget must be positive, got {key_budget}")
        self.num_shards = num_shards
        self.key_budget = key_budget
        self._lock = threading.Lock()
        self._placed: dict[str, Placement] = {}
        self._clock = 0

    # -- queries -----------------------------------------------------------

    def shard_of(self, model_id: str) -> int | None:
        """The shard holding ``model_id``'s keys, or None if unplaced."""
        with self._lock:
            placement = self._placed.get(model_id)
            return placement.shard if placement else None

    def resident(self, shard: int) -> list[str]:
        """Model ids resident on ``shard`` (stable id order)."""
        with self._lock:
            return sorted(p.model_id for p in self._placed.values()
                          if p.shard == shard)

    def resident_bytes(self, shard: int) -> int:
        with self._lock:
            return sum(p.key_bytes for p in self._placed.values()
                       if p.shard == shard)

    def snapshot(self) -> dict:
        """Per-shard residency summary (the router's ``metrics`` op)."""
        with self._lock:
            shards = {}
            for index in range(self.num_shards):
                members = [p for p in self._placed.values()
                           if p.shard == index]
                shards[index] = {
                    "models": sorted(p.model_id for p in members),
                    "key_bytes": sum(p.key_bytes for p in members),
                }
            return shards

    # -- mutation ----------------------------------------------------------

    def touch(self, model_id: str) -> None:
        """Record a use of ``model_id`` (moves it to LRU tail)."""
        with self._lock:
            placement = self._placed.get(model_id)
            if placement is not None:
                self._clock += 1
                placement.last_used = self._clock

    def place(self, model_id: str, key_bytes: int) -> tuple[int, list[str]]:
        """Choose a shard for ``model_id`` and mark it resident.

        Returns ``(shard, evicted_ids)``: the shard chosen (least
        resident key bytes, lowest index on ties) and the LRU models
        displaced to fit the newcomer under ``key_budget``.  The caller
        owns the side effects — ``unregister_model`` for each evicted id,
        ``register_model`` for the newcomer.

        A model larger than the whole budget still places (it evicts
        everything else and overshoots alone): refusing it would make a
        single big model unservable, which helps nobody.
        """
        with self._lock:
            existing = self._placed.get(model_id)
            if existing is not None:
                return existing.shard, []
            loads = [0] * self.num_shards
            for placement in self._placed.values():
                loads[placement.shard] += placement.key_bytes
            shard = min(range(self.num_shards), key=lambda i: (loads[i], i))
            evicted: list[str] = []
            if self.key_budget is not None:
                lru = sorted(
                    (p for p in self._placed.values() if p.shard == shard),
                    key=lambda p: p.last_used,
                )
                load = loads[shard]
                while load + key_bytes > self.key_budget and lru:
                    victim = lru.pop(0)
                    del self._placed[victim.model_id]
                    load -= victim.key_bytes
                    evicted.append(victim.model_id)
            self._clock += 1
            self._placed[model_id] = Placement(
                model_id=model_id, shard=shard,
                key_bytes=key_bytes, last_used=self._clock,
            )
            return shard, evicted

    def remove(self, model_id: str) -> int | None:
        """Forget ``model_id``'s residency; returns its former shard."""
        with self._lock:
            placement = self._placed.pop(model_id, None)
            return placement.shard if placement else None

    def drop_shard(self, shard: int) -> list[str]:
        """Forget everything on ``shard`` (a dead process lost its keys).

        Returns the displaced model ids so the caller can re-register
        them after the respawn.
        """
        with self._lock:
            displaced = sorted(p.model_id for p in self._placed.values()
                               if p.shard == shard)
            for model_id in displaced:
                del self._placed[model_id]
            return displaced
