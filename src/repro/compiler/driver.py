"""End-to-end compiler driver: ONNX model -> executable FHE program.

Mirrors the paper's pipeline (Figure 3): front end -> NN IR -> VECTOR IR
-> SIHE IR -> CKKS IR (-> POLY IR), with automatic security-parameter
selection between the SIHE and CKKS stages and per-IR-level pass timing
(the raw data of Figure 5).

The model is imported, range-calibrated and fused once per compile;
every lowering works on a clone of that module.  The lowering through
VECTOR depends on the slot count, while the ring degree is only known
after the SIHE-level depth analysis; the driver therefore runs the front
half provisionally and re-lowers once if the parameter selector picks a
larger N (paper §4.4: N = max(N1, N2)).

Every later decision is a proposal against one plan — a layout (§4.2)
and per-hint refresh overrides (§4.4).  The layout search and the
refresh planner only propose; :meth:`ACECompiler._lower` lowers each
proposal and prices its final CKKS IR, and ``compile`` adopts it only
when :func:`repro.passes.cost.cheaper` says so.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.backend import ExactBackend, SchemeConfig, SimBackend
from repro.errors import CompileError, LoweringError
from repro.ir import Module, Pass, PassManager, schedule_pass
from repro.ir.printer import print_function
from repro.onnx.protos import ModelProto
from repro.params import ParameterSelector, SelectedParameters
from repro.polymath import kernels
from repro.passes import layout_tune, levels
from repro.passes.cost import CostModel, cheaper
from repro.passes.frontend import onnx_to_nn
from repro.passes.opt import (
    bootstrap_count,
    make_opt_pass,
    recompute_rotation_steps,
    summarize_opt_stats,
)
from repro.passes.lowering.nn_to_vector import NnToVectorLowering
from repro.passes.lowering.sihe_to_ckks import DepthAnalysis
from repro.passes.lowering.vector_to_sihe import VectorToSiheLowering
from repro.passes.nn_opt import nn_operator_fusion
from repro.runtime.ckks_interp import run_ckks_function
from repro.runtime.nn_interp import run_nn_function
from repro.utils.bits import next_power_of_two
from repro.utils.timing import TimerRegistry


_CALIBRATED_OPS = ("nn.relu", "nn.sigmoid", "nn.tanh", "nn.exp", "nn.gelu")


def _calibrate_relu_bounds(module: Module, images: list,
                           headroom: float = 1.25) -> None:
    """Measure per-nonlinearity input ranges; attach ``bound`` attrs."""
    fn = module.main()
    bounds: dict[int, float] = {}

    def observe(op, args, _result):
        if op.opcode in _CALIBRATED_OPS:
            peak = float(np.abs(args[0]).max())
            key = id(op)
            bounds[key] = max(bounds.get(key, 0.0), peak)

    for image in images:
        run_nn_function(module, fn, [image], observer=observe)
    for op in fn.body:
        if op.opcode in _CALIBRATED_OPS:
            bound = bounds.get(id(op), 1.0)
            op.attrs["bound"] = max(1.0, headroom * bound)


@dataclass
class CompileOptions:
    """User-facing knobs."""

    #: requested input scale / output precision (paper Table 10 defaults)
    log_scale: int = 56
    log_q0: int = 60
    security_bits: int = 128
    sign_iterations: int = 4
    relu_bound: float = 16.0
    bootstrap_enabled: bool = True
    #: force the slot count (None = derive from tensors, then from N)
    slots: int | None = None
    #: extra chain levels beyond the analysed requirement
    level_margin: int = 2
    #: lower to POLY IR: "off", "stats", or "full"
    poly_mode: str = "stats"
    #: compile against a concrete executable parameter set (exact backend);
    #: scales/levels are then planned with its real prime chain
    exact_params: object | None = None
    #: representative inputs for range calibration: per-ReLU activation
    #: bounds are measured on these (CHET-style data-driven tuning)
    calibration_inputs: list | None = None
    #: ablation: refresh to minimal levels (§4.4) or to the full chain
    minimal_level_bootstrap: bool = True
    #: GEMM lowering strategy: "auto", "dedup" (offset-grouped), or
    #: "bsgs" (baby-step/giant-step diagonals, ~2*sqrt(n) rotations)
    gemm_strategy: str = "auto"
    #: SIMD image batching: pack this many images per ciphertext; all
    #: homomorphic ops are shared, so throughput scales by the factor
    #: (Table 2 "Batching"); must be a power of two
    batch_size: int = 1
    #: op-reduction optimizer: 0 = raw lowering output, 1 = bit-exact
    #: rewrites only (CSE, dedup, folds), 2 = + rotation composition,
    #: lazy relinearization, rescale sinking (see repro.passes.opt)
    opt_level: int = 2
    #: data-layout autotuning (repro.passes.layout_tune): "heuristic"
    #: (default) lowers with the fixed layout heuristic, "search" runs
    #: the cost-model-driven per-layer packing/BSGS search and adopts the
    #: argmin plan when its final CKKS IR prices cheaper
    layout_tune: str = "heuristic"
    #: explicit :class:`repro.passes.layout.LayoutPlan` to lower with
    #: (tests / reproducing a recorded plan); suppresses the search
    layout_plan: object | None = None


@dataclass
class CompiledProgram:
    """Everything the compilation produced."""

    module: Module
    options: CompileOptions
    selection: SelectedParameters
    scheme: SchemeConfig
    rotation_steps: list[int]
    input_layouts: list
    output_layouts: list
    pass_timers: dict[str, float]
    depth: DepthAnalysis
    stats: dict = field(default_factory=dict)

    # -- execution -----------------------------------------------------------

    def make_sim_backend(self, **kwargs) -> SimBackend:
        """A simulation backend matching the compiled scheme shape."""
        return SimBackend(self.scheme, **kwargs)

    def make_exact_backend(self, params, **kwargs) -> ExactBackend:
        """An exact backend; ``params`` must match the compiled slot count.

        The compiler hands the backend exactly the rotation keys the key
        analysis found (paper §4.4) unless overridden, and — when the
        *final* IR contains refresh ops — enables bootstrapping at the
        highest replanned target, so eval/rotation keys always match
        the program that actually executes.
        """
        if params.num_slots * 2 != self.scheme.poly_degree:
            raise CompileError(
                f"params have {params.num_slots} slots; program was "
                f"compiled for {self.scheme.num_slots}"
            )
        kwargs.setdefault("rotation_steps", self.rotation_steps)
        targets = [t for t in self.bootstrap_targets if t is not None]
        if targets and kwargs.get("keychain") is None:
            kwargs.setdefault("enable_bootstrap", True)
            kwargs.setdefault("bootstrap_target_level", max(targets))
        return ExactBackend(params, **kwargs)

    @property
    def bootstrap_targets(self) -> list[int]:
        """Refresh targets in the final IR, in execution order."""
        return levels.bootstrap_targets(self.module.main())

    @property
    def needs_bootstrap(self) -> bool:
        """Whether the *final* (post-replan) IR still contains refreshes."""
        return bool(self.bootstrap_targets)

    @property
    def batch_size(self) -> int:
        return self.options.batch_size

    def pack_input(self, tensor: np.ndarray, index: int = 0) -> np.ndarray:
        """The ANT-ACE-generated *encryptor*'s encoding step (§3).

        With batching enabled the single image occupies batch block 0.
        """
        packed = self.input_layouts[index].pack(np.asarray(tensor))
        if packed.size == self.scheme.num_slots:
            return packed
        out = np.zeros(self.scheme.num_slots)
        out[: packed.size] = packed
        return out

    def pack_batch(self, tensors, index: int = 0) -> np.ndarray:
        """Pack up to ``batch_size`` images into one slot vector."""
        layout = self.input_layouts[index]
        block = layout.slots
        out = np.zeros(self.scheme.num_slots)
        if len(tensors) > self.batch_size:
            raise CompileError(
                f"{len(tensors)} images exceed batch size {self.batch_size}"
            )
        for b, tensor in enumerate(tensors):
            out[b * block : (b + 1) * block] = layout.pack(
                np.asarray(tensor))
        return out

    def unpack_output(self, vector: np.ndarray, index: int = 0) -> np.ndarray:
        """The ANT-ACE-generated *decryptor*'s decoding step (§3)."""
        return self.output_layouts[index].unpack(np.asarray(vector))

    def unpack_batch(self, vector: np.ndarray, count: int,
                     index: int = 0) -> list[np.ndarray]:
        layout = self.output_layouts[index]
        block = layout.slots
        vector = np.asarray(vector)
        return [
            layout.unpack(vector[b * block : (b + 1) * block])
            for b in range(count)
        ]

    def run_batch(self, backend, images, check_plan: bool = False):
        """Encrypted inference over up to ``batch_size`` images at once."""
        packed = self.pack_batch(images)
        fn = self.module.main()
        outs = run_ckks_function(
            self.module, fn, backend, [packed], check_plan=check_plan,
        )
        vec = backend.decrypt(outs[0], num_values=self.scheme.num_slots)
        return self.unpack_batch(vec, len(images))

    def note_measured_seconds(self, seconds: float) -> dict:
        """Record a measured end-to-end latency against the layout plan.

        Completes the predicted-vs-measured pair in ``stats["layout"]``
        (``repro run`` and the layout bench call this after timing an
        execution); returns the updated layout stats.
        """
        info = self.stats.setdefault("layout", {})
        info["measured_seconds"] = float(seconds)
        predicted = info.get("predicted_seconds")
        if predicted and seconds > 0:
            info["predicted_over_measured"] = predicted / seconds
        return info

    def run(self, backend, *tensors, check_plan: bool = True,
            jobs: int | None = None) -> list[np.ndarray]:
        """Encrypt inputs, run the compiled CKKS program, decrypt outputs.

        ``jobs`` is accepted and ignored: a program runs in program order
        on the calling thread.  The keyword stays only for the
        ``runtime.jobs_speedup`` row of ``benchmarks/e2e/layers.py``,
        which still passes it, and goes once that row is retired.
        """
        packed = [self.pack_input(t, i) for i, t in enumerate(tensors)]
        fn = self.module.main()
        outs = run_ckks_function(
            self.module, fn, backend, packed, check_plan=check_plan,
        )
        results = []
        for i, out in enumerate(outs):
            vec = backend.decrypt(out, num_values=self.scheme.num_slots)
            results.append(self.unpack_output(vec, i))
        return results

    def dump_ir(self) -> str:
        return print_function(self.module.main())


class ACECompiler:
    """Compile ONNX models for encrypted inference."""

    def __init__(self, model: ModelProto, options: CompileOptions | None = None):
        self.model = model
        self.options = options or CompileOptions()

    def compile(self) -> CompiledProgram:
        opts = self.options
        if opts.layout_tune not in ("heuristic", "search"):
            raise CompileError(
                f"unknown layout_tune mode {opts.layout_tune!r} "
                "(heuristic|search)"
            )
        self._timers = TimerRegistry()
        nn = self._import()
        slots, selection, front = self._select_parameters(nn)
        # the chain and the pricer every lowering of this compile targets
        self._scheme, self._moduli = self._build_scheme(
            slots, selection, front[1]["depth_analysis"])
        pricer = self._pricer = CostModel(self._scheme.poly_degree,
                                          self._scheme.num_special_primes)
        # the initial plan: the given (or heuristic) layout, no hints
        module, context, cost = self._lower(front)
        layout_stats: dict = {"mode": opts.layout_tune}
        if opts.layout_plan is not None:
            layout_stats["plan"] = opts.layout_plan.describe()
        elif opts.layout_tune == "search":
            # the search ranks layouts at the VECTOR level (fixed limbs,
            # no refreshes), so its argmin is priced again on its final
            # CKKS IR like every other proposal
            result = self._search_plan(nn, slots, selection)
            layout_stats.update(result.info, adopted=False)
            candidate = None
            if len(result.plan):
                try:
                    plan_front = self._front(nn, slots, result.plan)
                    candidate = self._lower(plan_front)
                except (LoweringError, CompileError):
                    pass  # the plan does not fit this scheme
            if candidate is not None:
                layout_stats["predicted_final_seconds"] = {
                    "heuristic": cost, "chosen": candidate[2]}
                if cheaper(candidate[2], cost):
                    front, (module, context, cost) = plan_front, candidate
                    layout_stats["adopted"] = True
        levels_stats = None
        if opts.opt_level >= 2:
            levels_stats = {
                "enabled": True, "rounds": [],
                "bootstraps_before": bootstrap_count(module),
                "targets_before": levels.bootstrap_targets(module.main()),
                "cost_before": cost,
            }
            # refresh hints are proposed from the optimized IR only when
            # refreshes are both enabled and minimally targeted (the
            # ablation flag pins them to the full chain on purpose)
            rounds = 3 if (opts.bootstrap_enabled
                           and opts.minimal_level_bootstrap) else 0
            hints: dict[int, dict] = {}
            for round_no in range(1, rounds + 1):
                with self._timers.measure("CKKS"):
                    proposal = levels.plan_bootstraps(
                        module.main(), pricer, len(self._moduli) - 1,
                        self._moduli)[0]
                merged = {**hints, **proposal}
                if merged == hints:
                    break
                try:
                    new_module, new_context, new_cost = self._lower(
                        front, merged)
                except LoweringError:
                    break
                row = {
                    "round": round_no,
                    "proposal": {
                        h: ("skip" if d.get("skip") else d.get("target"))
                        for h, d in merged.items()
                    },
                    "bootstraps_before": bootstrap_count(module),
                    "bootstraps_after": bootstrap_count(new_module),
                    "ops_before": module.main().op_count(),
                    "ops_after": new_module.main().op_count(),
                    "cost_before": cost,
                    "cost_after": new_cost,
                    "adopted": cheaper(new_cost, cost),
                }
                levels_stats["rounds"].append(row)
                if not row["adopted"]:
                    break
                module, context, cost = new_module, new_context, new_cost
                hints = merged
                if (row["ops_after"] == row["ops_before"]
                        and row["bootstraps_after"]
                        == row["bootstraps_before"]):
                    break  # the program is stable
        # global relin placement, then the rotation-key working set and
        # the wavefront/DAG schedule: properties of the *final* op list
        pm = PassManager(timers=self._timers)
        if levels_stats is not None:
            pm.add(Pass(
                "ckks-relin-placement", "CKKS",
                lambda m, c: levels_stats.__setitem__(
                    "relin", levels.replan_relins(m.main(), pricer)),
                "whole-DAG relinearisation placement",
            ))
        pm.add(Pass("rotation-key-analysis", "CKKS",
                    recompute_rotation_steps))
        pm.add(schedule_pass())
        pm.run(module, context)
        final_cost = pricer.function_cost(module.main())
        if levels_stats is not None:
            levels_stats.update(
                bootstraps_after=bootstrap_count(module),
                targets_after=levels.bootstrap_targets(module.main()),
                cost_after=final_cost,
            )
        stats = {
            "ckks_ops": module.main().op_count(),
            "rotations": len(context["rotation_steps"]),
            "schedule": context["schedules"][module.main().name].describe(),
            "opt": summarize_opt_stats(context.get("opt_stats", []),
                                       opts.opt_level),
            "levels": levels.summarize_levels_stats(levels_stats),
            # which NTT/RNS kernel backend executions will run on (the
            # process-global --kernel / REPRO_KERNEL selection)
            "kernel_backend": kernels.active_name(),
        }
        # predicted end-to-end seconds of the *final* CKKS IR; `repro
        # run` / the layout bench pair it with a measurement via
        # note_measured_seconds
        layout_stats["predicted_seconds"] = final_cost
        layout_stats["schedule_max_width"] = stats["schedule"].get(
            "max_width")
        stats["layout"] = layout_stats
        if opts.poly_mode != "off":
            stats["poly"] = self._poly_stage(module, context)
        return CompiledProgram(
            module=module,
            options=opts,
            selection=selection,
            scheme=self._scheme,
            rotation_steps=context["rotation_steps"],
            input_layouts=context["input_layouts"],
            output_layouts=context["output_layouts"],
            pass_timers=dict(self._timers.totals),
            depth=context["depth_analysis"],
            stats=stats,
        )

    # -- internals ---------------------------------------------------------

    def _import(self) -> Module:
        """Import, range-calibrate and fuse the model — once per compile;
        every lowering works on a clone (:meth:`_front`)."""
        opts = self.options
        with self._timers.measure("Others"):
            module = onnx_to_nn(self.model)
        pm = PassManager(timers=self._timers)
        if opts.calibration_inputs:
            pm.add(Pass(
                "range-calibration", "NN",
                lambda m, c: _calibrate_relu_bounds(
                    m, opts.calibration_inputs),
                "data-driven per-ReLU activation bounds",
            ))
        pm.add(Pass("nn-operator-fusion", "NN", nn_operator_fusion))
        pm.run(module)
        return module

    def _select_parameters(self, nn: Module):
        """Front-lower the given (or heuristic) layout at a provisional
        slot count and select security parameters, re-lowering while the
        activations or the selected ring need more slots (see the module
        docstring).  Returns ``(slots, selection, front)``."""
        opts = self.options
        given = (opts.exact_params.num_slots
                 if opts.exact_params is not None else None)
        slots = given or opts.slots or (
            opts.batch_size * self._minimum_slots())
        for _attempt in range(16):
            try:
                front = self._front(nn, slots, opts.layout_plan)
            except LoweringError:
                # activations did not fit the provisional slot count
                slots *= 2
                continue
            if given is not None and slots > given:
                raise CompileError(
                    f"the model needs {slots} slots but the exact "
                    f"parameters give {given}"
                )
            selection = ParameterSelector(opts.security_bits).select(
                depth=front[1]["depth_analysis"].max_depth
                + opts.level_margin,
                simd_width=slots,
                log_scale=opts.log_scale,
                log_q0=opts.log_q0,
            )
            required_slots = selection.degree // 2
            if given is not None or required_slots <= slots:
                return slots, selection, front
            slots = required_slots
        raise CompileError("parameter selection did not converge")

    def _build_scheme(self, slots, selection, analysis: DepthAnalysis):
        """The scheme shape and modulus chain every lowering targets."""
        opts = self.options
        # without bootstrapping the chain must cover the whole program
        needed = opts.level_margin + (
            analysis.max_depth if opts.bootstrap_enabled
            else max(analysis.input_requirement
                     + sum(analysis.hint_requirements.values()),
                     analysis.max_depth)
        )
        params = opts.exact_params
        if params is None:
            scheme = SchemeConfig(
                poly_degree=2 * slots,
                scale_bits=opts.log_scale,
                first_prime_bits=opts.log_q0,
                num_levels=needed,
                num_special_primes=selection.num_special_primes,
            )
            return scheme, [float(2**opts.log_q0)] + [
                float(2**opts.log_scale)] * needed
        if params.num_levels < needed:
            raise CompileError(
                f"exact parameters provide {params.num_levels} levels "
                f"but the program needs {needed}"
            )
        scheme = SchemeConfig(
            poly_degree=params.poly_degree,
            scale_bits=params.scale_bits,
            first_prime_bits=params.first_prime_bits,
            num_levels=params.num_levels,
            num_special_primes=params.num_special_primes,
            secret_hamming_weight=params.secret_hamming_weight,
        )
        return scheme, [float(q) for q in params.moduli]

    def _search_plan(self, nn: Module, slots: int, selection):
        """Propose a layout: search per-layer packings, pricing each
        candidate on this compiler's own front half stopped after the
        vector optimizer (cleartext numpy — a candidate costs
        milliseconds, not a compile) with a calibrated pricer; returns
        the argmin plan and the search's stats."""
        model = CostModel.calibrated(
            poly_degree=2 * slots,
            num_special_primes=max(1, selection.num_special_primes),
        )

        def price(layout) -> float:
            try:
                vector, _ = self._front(nn, slots, layout, sihe=False)
            except LoweringError:
                return float("inf")
            return model.function_cost(vector.main())

        return layout_tune.search_plan(nn, slots, self.options, price)

    def _minimum_slots(self) -> int:
        largest = 1
        for value_info in list(self.model.graph.input) + list(
            self.model.graph.output
        ):
            size = 1
            for d in value_info.shape:
                size *= max(d, 1)
            largest = max(largest, size)
        return next_power_of_two(max(largest, 2))

    def _front(self, nn: Module, slots: int, layout, sihe: bool = True):
        """The front half of a lowering, on a clone of the fused module:
        NN -> VECTOR under ``layout`` and the vector optimizer, then —
        unless ``sihe`` is false, which is how the layout search prices
        a candidate — VECTOR -> SIHE, the SIHE optimizer and the depth
        analysis.  Returns ``(module, context)``; raises
        ``LoweringError`` when the activations do not fit ``slots``."""
        opts = self.options
        pm = PassManager(timers=self._timers)
        pm.add(Pass(
            "nn-to-vector", "VECTOR",
            NnToVectorLowering(slots, opts.gemm_strategy,
                               opts.batch_size,
                               layout_plan=layout).run,
            "data layout selection, batching, conv/matmul optimisation",
        ))
        if opts.opt_level >= 1:
            pm.add(Pass(
                "vector-opt", "VECTOR",
                make_opt_pass("vector", opts.opt_level),
                "op reduction: CSE, roll dedup/composition",
            ))
        if sihe:
            pm.add(Pass(
                "vector-to-sihe", "SIHE",
                VectorToSiheLowering(opts.sign_iterations,
                                     opts.relu_bound).run,
                "FHE computation recognition, nonlinear approximation",
            ))
            if opts.opt_level >= 1:
                pm.add(Pass(
                    "sihe-opt", "SIHE",
                    make_opt_pass("sihe", opts.opt_level),
                    "op reduction: CSE, rotation dedup/composition",
                ))
            pm.add(Pass(
                "sihe-depth-analysis", "CKKS",
                lambda m, c: c.__setitem__(
                    "depth_analysis", DepthAnalysis(m.main())
                ),
            ))
        module = levels.clone_module(nn)
        return module, pm.run(module, {})

    def _lower(self, front, hints: dict[int, dict] | None = None):
        """Lower one plan into the selected scheme: ``(module, context,
        cost)``.

        A plan is a layout plus per-hint refresh overrides; ``front`` is
        the layout's SIHE half (:meth:`_front`).  The CKKS lowering only
        reads it, so every hint proposal for one layout shares it.
        ``cost`` prices the optimized, verified CKKS IR.  Raises
        ``LoweringError`` when no refresh target can fit the chain.
        """
        opts = self.options
        sihe, front_context = front
        context = dict(front_context, cost_model=self._pricer,
                       opt_stats=list(front_context.get("opt_stats", [])))

        def to_ckks(m, ctx):
            ckks, ckks_ctx = levels.lower_to_ckks(
                m, self._moduli, self._scheme.scale, opts, hints)
            m.functions, m.constants, m.meta = (
                ckks.functions, ckks.constants, ckks.meta)
            ctx.update(ckks_ctx)

        pm = PassManager(timers=self._timers)
        pm.add(Pass(
            "sihe-to-ckks", "CKKS", to_ckks,
            "rescale/relin/bootstrap placement, key analysis",
        ))
        if opts.opt_level >= 1:
            pm.add(Pass(
                "ckks-opt", "CKKS",
                make_opt_pass("ckks", opts.opt_level),
                "op reduction: CSE, rotation composition, lazy relin, "
                "rescale sinking",
            ))
        module = levels.shallow_copy(sihe)
        pm.run(module, context)
        return module, context, self._pricer.function_cost(module.main())

    def _poly_stage(self, module, context) -> dict:
        from repro.passes.lowering.ckks_to_poly import poly_statistics

        result: dict = {}
        pm = PassManager(timers=self._timers, verify_between=False)
        pm.add(Pass(
            "ckks-to-poly", "POLY",
            lambda m, c: result.update(
                poly_statistics(m.main(), self._scheme,
                                full=self.options.poly_mode == "full",
                                module=m)
            ),
            "polynomial operator fusion, RNS loop fusion",
        ))
        pm.run(module, context)
        return result
