"""CKKS IR interpreter: strict execution of fully scheduled programs.

Unlike the SIHE interpreter, nothing here is managed on the fly: every
rescale/modswitch/relin/bootstrap was placed by the compiler, and this
interpreter simply issues the ops, one at a time in program order on
the calling thread.  When the compiler annotated values with expected
scales/levels (``Value.meta``), the interpreter verifies the runtime
state matches the plan — a strong check on the scale-management pass.

A run issues only what depends on its inputs once a backend has run the
program: the input-independent ops (weight constants and their encodes)
are issued by the first run and kept in a
:class:`repro.runtime.executor.ConstPool`; each value is dropped as soon
as its last consumer has run (the schedule's liveness refcounts).

Rotations of one source share one key-switch decomposition: every
``ckks.rotate`` but the last of its source's group is issued with
``keep=True`` (``OpSchedule.keep_decomposition``), so the backend
decomposes the source once and drops the decomposition at the group's
last rotation — still exactly one ``backend.rotate`` call per op.
"""

from __future__ import annotations

import math

import numpy as np

from repro import chaos
from repro.backend.interface import HEBackend
from repro.errors import RuntimeBackendError
from repro.ir.core import Function, Module
from repro.ir.types import CipherType, PlainType
from repro.runtime.executor import cached_schedule, const_pool, publish
from repro.runtime.vector_interp import _eval as eval_vector_op


def prepare_env(fn: Function, backend: HEBackend, inputs: list) -> dict[int, object]:
    """Bind inputs to parameter value ids (encrypting cleartext ciphers).

    Encryption randomness is drawn in parameter order, before any op
    is issued.
    """
    env: dict[int, object] = {}
    for param, value in zip(fn.params, inputs):
        if isinstance(param.type, CipherType):
            if isinstance(value, np.ndarray) or np.isscalar(value):
                handle = backend.encrypt(value)
            else:
                handle = value  # already a ciphertext (Figure-2 protocol)
        else:
            handle = np.asarray(value, dtype=np.float64)
        env[param.id] = handle
    return env


def run_ckks_function(
    module: Module,
    fn: Function,
    backend: HEBackend,
    inputs: list,
    check_plan: bool = True,
    region_tags: dict[int, str] | None = None,
) -> list:
    """Execute a CKKS-IR function in program order.

    Args:
        region_tags: optional map op-index -> tag; ops are recorded under
            that tag in the backend trace (feeds Figure 6's breakdown).
    """
    env = prepare_env(fn, backend, inputs)
    schedule = cached_schedule(fn)
    pool = const_pool(backend, module, fn, schedule)
    skip, live = pool.plan()
    tags = region_tags or {}
    for index, op in enumerate(fn.body):
        if index in skip:
            continue
        args = _values(env, pool, op.operands)
        tag = tags.get(index) or op.attrs.get("region")
        result = _issue(module, op, args, backend, tag, check_plan,
                        index in schedule.keep_decomposition)
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
    if not pool.published:
        publish(backend, module, fn, pool)
    return _values(env, pool, fn.returns)


def _values(env, pool, values) -> list:
    """Each value live in ``env``, else pooled (looked up, never copied
    into ``env``, which holds only the live set)."""
    pinned = pool.values
    return [env[v.id] if v.id in env else pinned[v.id] for v in values]


def _issue(module: Module, op, args, be: HEBackend, tag, check_plan,
           keep: bool):
    """Evaluate one op: the executor-level fault-injection point.

    ``keep``: a later rotation reads this rotation's source
    (``OpSchedule.keep_decomposition``)."""
    chaos.on_executor_op(op.opcode)
    trace = getattr(be, "trace", None)
    if trace is not None and tag:
        with trace.region(tag):
            result = _eval(module, op, args, be, keep)
    else:
        result = _eval(module, op, args, be, keep)
    if check_plan and op.results[0].meta.get("scale") is not None:
        _check(op, result, be)
    return result


def _check(op, result, be) -> None:
    meta = op.results[0].meta
    if isinstance(result, np.ndarray):
        return
    got_scale = be.scale_of(result)
    want_scale = meta["scale"]
    if not math.isclose(got_scale, want_scale, rel_tol=1e-5):
        raise RuntimeBackendError(
            f"{op.opcode}: runtime scale 2^{math.log2(got_scale):.3f} != "
            f"planned 2^{math.log2(want_scale):.3f}"
        )
    want_level = meta.get("level")
    if want_level is not None and be.level_of(result) != want_level:
        raise RuntimeBackendError(
            f"{op.opcode}: runtime level {be.level_of(result)} != planned "
            f"{want_level}"
        )


def _eval(module: Module, op, args, be: HEBackend, keep: bool):
    code = op.opcode
    if code.startswith("vector."):
        return eval_vector_op(module, op, args)
    if code == "ckks.rotate":
        return be.rotate(args[0], op.attrs["steps"], keep=keep)
    if code == "ckks.conjugate":
        return be.conjugate(args[0])
    if code == "ckks.add":
        if _is_plain(op, 1):
            return be.add_plain(args[0], args[1])
        return be.add(args[0], args[1])
    if code == "ckks.sub":
        if _is_plain(op, 1):
            return be.sub_plain(args[0], args[1])
        return be.sub(args[0], args[1])
    if code == "ckks.neg":
        return be.negate(args[0])
    if code == "ckks.mul":
        if _is_plain(op, 1):
            return be.mul_plain(args[0], args[1])
        return be.mul(args[0], args[1])
    if code == "ckks.relin":
        return be.relinearize(args[0])
    if code == "ckks.rescale":
        return be.rescale(args[0])
    if code == "ckks.modswitch":
        return be.mod_switch(args[0], op.attrs.get("levels", 1))
    if code == "ckks.upscale":
        return be.upscale(args[0], op.attrs["bits"])
    if code == "ckks.downscale":
        target = op.attrs["target_scale"]
        out = args[0]
        while be.scale_of(out) > target * (1 + 1e-6) and be.level_of(out) > 0:
            out = be.rescale(out)
        return out
    if code == "ckks.bootstrap":
        return be.bootstrap(args[0], op.attrs.get("target_level"))
    if code == "ckks.encode":
        return be.encode(args[0], scale=op.attrs["scale"],
                         level=op.attrs["level"])
    if code == "ckks.decode":
        return args[0]
    raise RuntimeBackendError(f"CKKS interpreter: unsupported op {code}")


def _is_plain(op, index: int) -> bool:
    return isinstance(op.operands[index].type, PlainType)
