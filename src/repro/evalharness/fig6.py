"""Figure 6: per-image inference time, ANT-ACE vs Expert, by phase.

For each model both implementations run one encrypted inference on the
simulation backend (recording every homomorphic op with its region tag
and limb count); the calibrated cost model converts the traces into
single-thread seconds split into Conv / Bootstrap / ReLU / Other.
"""

from __future__ import annotations

from repro.backend import SchemeConfig, SimBackend
from repro.evalharness.models import (
    EVAL_MODELS,
    compiled_model,
    nn_module_for,
)
from repro.expert import ExpertConfig, ExpertInference
from repro.passes.cost import CostModel

REGIONS = ("Conv", "Bootstrap", "ReLU", "Other")


def _bucket(trace_seconds: dict[str, float]) -> dict[str, float]:
    out = {r: 0.0 for r in REGIONS}
    for tag, seconds in trace_seconds.items():
        out[tag if tag in out else "Other"] += seconds
    return out


def ace_inference_trace(name: str, scale: str = "ci"):
    """Run one ACE-compiled encrypted inference; returns (trace, scheme)."""
    program, _model, dataset = compiled_model(name, scale)
    backend = program.make_sim_backend(inject_noise=False, seed=0)
    image, _ = dataset.sample(1, seed=123)
    program.run(backend, image[0][None], check_plan=False)
    return backend.trace, program.scheme


def expert_inference_trace(name: str, scale: str = "ci",
                           config: ExpertConfig | None = None):
    """Run one expert-style encrypted inference; returns (trace, scheme,
    expert) — the expert instance records the rotation steps it used."""
    module, _model, dataset = nn_module_for(name, scale)
    cfg = config or ExpertConfig()
    ace_program, _, _ = compiled_model(name, scale)
    # chain = ReLU approximation depth + slack for the convolutions between
    # ReLUs (Lee et al. size their chain the same way); what the expert
    # lacks is ACE's *minimal-level* bootstrapping, not raw level slack
    levels = 4 * cfg.sign_iterations + 8
    scheme = SchemeConfig(
        poly_degree=ace_program.scheme.poly_degree,
        scale_bits=ace_program.scheme.scale_bits,
        first_prime_bits=ace_program.scheme.first_prime_bits,
        num_levels=levels,
    )
    backend = SimBackend(scheme, inject_noise=False, seed=0)
    expert = ExpertInference(module, backend, cfg)
    image, _ = dataset.sample(1, seed=123)
    expert.run(image[0][None])
    return backend.trace, scheme, expert


def inference_rows(models=EVAL_MODELS, scale: str = "ci") -> list[dict]:
    rows = []
    for name in models:
        ace_trace, ace_scheme = ace_inference_trace(name, scale)
        exp_trace, exp_scheme, _ = expert_inference_trace(name, scale)
        ace_cost = CostModel(ace_scheme.poly_degree,
                             ace_scheme.num_special_primes)
        exp_cost = CostModel(exp_scheme.poly_degree,
                             exp_scheme.num_special_primes)
        ace = _bucket(ace_cost.trace_seconds(ace_trace))
        exp = _bucket(exp_cost.trace_seconds(exp_trace))
        rows.append({
            "model": name,
            "ace": ace,
            "expert": exp,
            "speedup": sum(exp.values()) / max(sum(ace.values()), 1e-12),
        })
    return rows


def average_speedup(rows: list[dict]) -> float:
    return sum(r["speedup"] for r in rows) / len(rows)


def phase_reductions(rows: list[dict]) -> dict[str, float]:
    """Average % time reduction per phase (paper: Conv 31.5, Boot 63.3,
    ReLU 44.6)."""
    out = {}
    for region in ("Conv", "Bootstrap", "ReLU"):
        reductions = []
        for row in rows:
            expert = row["expert"][region]
            if expert > 0:
                reductions.append(100.0 * (1 - row["ace"][region] / expert))
        out[region] = sum(reductions) / len(reductions) if reductions else 0.0
    return out


def render(rows: list[dict]) -> str:
    lines = ["Figure 6 — per-image inference time (modelled seconds)"]
    lines.append(
        f"{'model':<12}{'impl':<8}" + "".join(f"{r:>11}" for r in REGIONS)
        + f"{'total':>11}"
    )
    for row in rows:
        for impl in ("ace", "expert"):
            phases = row[impl]
            lines.append(
                f"{row['model']:<12}{impl:<8}"
                + "".join(f"{phases[r]:>11.3f}" for r in REGIONS)
                + f"{sum(phases.values()):>11.3f}"
            )
        lines.append(f"{'':<12}speedup {row['speedup']:.2f}x")
    reductions = phase_reductions(rows)
    lines.append(
        "phase reductions vs Expert: "
        + ", ".join(f"{k} {v:.1f}%" for k, v in reductions.items())
        + f"; average speedup {average_speedup(rows):.2f}x"
    )
    return "\n".join(lines)
