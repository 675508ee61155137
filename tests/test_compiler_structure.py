"""One lowering for every compile decision (``repro.compiler.driver``).

An AST walk, like ``test_serve_structure.py``: each stage of the
NN -> VECTOR -> SIHE -> CKKS lowering is invoked from exactly one
function — ``ACECompiler._front`` (the front half the layout search's
``price`` shares) or ``ACECompiler._lower`` — so a second copy of the
pipeline growing back inside a search, a replanner or a pricing helper
shows up here as a named caller instead of as two diverging copies.  The
fitting lowering is the one refresh plan, so the names of the deleted
post-optimization refresh and relin replanners must not return either.

The modulus chain lives in ``SchemeConfig``: it alone derives a
power-of-two chain from the prime widths, and ``HEBackend.prime_at`` is
the one reader of it every backend shares.

A compiled program likewise runs one way — in program order, on the
calling thread — so the names of the deleted in-process op thread pool
(its job and memory budgets, width cap and watchdog) must not return.

A rotation has one path too: ``CkksEvaluator.rotate`` alone decomposes a
rotation source (``_key_switch`` decomposes for relinearisation and
conjugation), a missing key raises, and the names of the deleted
composed-rotation fallback, its warning and the unused bootstrap BSGS
split must not return.
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent

#: lowering stage -> the one function allowed to invoke it
STAGES = {
    "NnToVectorLowering": "compiler/driver.py:ACECompiler._front",
    "VectorToSiheLowering": "compiler/driver.py:ACECompiler._front",
    "lower_to_ckks": "compiler/driver.py:ACECompiler._lower",
    "ckks-opt": "compiler/driver.py:ACECompiler._lower",
}

#: deleted second lowering paths and post-optimization replanners,
#: spelled in parts so that searching the tree for them finds only the
#: changelog
GONE = ["_".join(parts) for parts in (
    ("run", "level", "replan"), ("plan", "cost"), ("", "lower", "plan"),
    ("plan", "bootstraps"), ("replan", "relins"), ("", "skip", "pays"),
    ("", "region", "map"), ("", "global", "relin", "placement"),
    ("summarize", "levels", "stats"), ("hint", "plan"))]

#: deleted parallel-execution machinery
GONE_EXECUTION = [
    "ThreadPoolExecutor", "concurrent.futures", "JobBudget", "resolve_jobs",
    "resolve_mem_budget", "REPRO_JOBS", "REPRO_MEM_BUDGET", "watchdog_s",
    "width_capped", "ParallelExecutor", "ExecutorStalledError",
    "EXECUTOR_STALL", "EXECUTOR_THREAD_DEATH",
]

#: deleted composed-rotation fallback and bootstrap BSGS-split knob
GONE_ROTATION = [
    "rotation_fallback", "_fallback_lock", "_warn_missing_rotation_keys",
    "_warned_evaluators", "bootstrap_bsgs_giant", "bsgs_giant=",
    '"bsgs_giant"', "self.bsgs_giant",
]

#: the serve request handle is a ``concurrent.futures.Future`` (callers
#: attach completion callbacks to it); it completes a request, it runs
#: no ops
ALLOWED = {"concurrent.futures": {"serve/batcher.py", "serve/worker.py"}}


def _functions(tree):
    """(qualified name, node) of every top-level function and method; a
    nested def belongs to the function that encloses it."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item


def _stage(call):
    name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
    if name in ("make_opt_pass", "optimize_module"):
        # the CKKS-stage optimizer: its stage is a literal argument
        literals = {arg.value for arg in call.args
                    if isinstance(arg, ast.Constant)}
        return "ckks-opt" if "ckks" in literals else None
    return name if name in STAGES else None


def test_each_lowering_stage_has_one_caller():
    callers = {stage: set() for stage in STAGES}
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for qualname, fn in _functions(tree):
            for node in ast.walk(fn):
                stage = _stage(node) if isinstance(node, ast.Call) else None
                if stage:
                    callers[stage].add(
                        f"{path.relative_to(SRC).as_posix()}:{qualname}")
    for stage, owner in STAGES.items():
        assert callers[stage] == {owner}, (
            f"{stage} is invoked from {sorted(callers[stage])}")


def test_deleted_lowering_paths_stay_deleted():
    offences = [f"{path.relative_to(SRC)} mentions {name}"
                for path in sorted(SRC.rglob("*.py"))
                for name in GONE if name in path.read_text()]
    assert not offences, "\n".join(offences)


def test_deleted_execution_paths_stay_deleted():
    offences = [
        f"{rel} mentions {name}"
        for path in sorted(SRC.rglob("*.py"))
        for rel in [path.relative_to(SRC).as_posix()]
        for name in GONE_EXECUTION + GONE_ROTATION
        if name in path.read_text() and rel not in ALLOWED.get(name, ())
    ]
    assert not offences, "\n".join(offences)


def _builds_power_of_two_chain(node) -> bool:
    """``2 ** <...first_prime_bits>`` / ``1 << <...log_q0>``: the first
    link of a synthetic chain."""
    if not isinstance(node, ast.BinOp) or not isinstance(
            node.left, ast.Constant):
        return False
    if not ((isinstance(node.op, ast.Pow) and node.left.value == 2)
            or (isinstance(node.op, ast.LShift) and node.left.value == 1)):
        return False
    width = ast.unparse(node.right)
    return "first_prime_bits" in width or "log_q0" in width


def test_one_modulus_chain():
    readers, builders = set(), set()
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        tree = ast.parse(path.read_text(), str(path))
        for qualname, fn in _functions(tree):
            if fn.name == "prime_at":
                readers.add(f"{rel}:{qualname}")
        for qualname, fn in [("<module>", tree), *_functions(tree)]:
            nodes = ast.walk(fn) if fn is not tree else (
                child for stmt in tree.body
                if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                for child in ast.walk(stmt))
            if any(_builds_power_of_two_chain(n) for n in nodes):
                builders.add(f"{rel}:{qualname}")
    assert readers == {"backend/interface.py:HEBackend.prime_at"}
    assert builders == {"backend/interface.py:SchemeConfig.__post_init__"}


def test_one_rotation_path():
    callers = set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for qualname, fn in _functions(tree):
            if any(isinstance(node, ast.Call)
                   and getattr(node.func, "attr", None) == "_decompose"
                   for node in ast.walk(fn)):
                callers.add(
                    f"{path.relative_to(SRC).as_posix()}:{qualname}")
    assert callers == {"ckks/evaluator.py:CkksEvaluator.rotate",
                       "ckks/evaluator.py:CkksEvaluator._key_switch"}
