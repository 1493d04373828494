"""Per-layer metrics derived from the spans of one traced command."""

from __future__ import annotations

from .tracer import SpanTable

# name -> (unit, better); the order is the order of BENCHMARK.json.
PER_LAYER = {
    "forward.solve_ibvp.calls": ("count", "lower"),
    "forward.solve_ibvp.us_per_step": ("us", "lower"),
    "forward.solve_ibvp.self_us_per_step": ("us", "lower"),
    "forward.field_mb_computed": ("MB", "lower"),
    "adjoint.solve_adjoint.calls": ("count", "lower"),
    "adjoint.solve_adjoint.us_per_step": ("us", "lower"),
    "adjoint.solve_adjoint.self_us_per_step": ("us", "lower"),
    "adjoint.assemble_gradient.total_s": ("s", "lower"),
    "adjoint.compute_gradient.self_s": ("s", "lower"),
    "pchip.eval.calls": ("count", "lower"),
    "pchip.eval.self_s": ("s", "lower"),
    "pchip.grad_wrt_values_many.calls": ("count", "lower"),
    "pchip.grad_wrt_values_many.self_s": ("s", "lower"),
    "material.diffusivity_at.calls": ("count", "lower"),
    "material.diffusivity_at.self_s": ("s", "lower"),
    "observation.observe.calls": ("count", "lower"),
    "observation.observe.total_s": ("s", "lower"),
    "observation.adjoint_source.calls": ("count", "lower"),
    "observation.adjoint_source.total_s": ("s", "lower"),
    "config.self_s": ("s", "lower"),
    "optimizer.k_star": ("count", "lower"),
    "optimizer.line_search.trials": ("count", "lower"),
    "optimizer.line_search.accept_ratio": ("ratio", "higher"),
    "optimizer.forward_solves_per_iter": ("solves/iter", "lower"),
    "optimizer.field_cache.hit_ratio": ("ratio", "higher"),
    "optimizer.guard_rejections": ("count", "lower"),
    "optimizer.bfgs.skipped": ("count", "lower"),
    "optimizer.self_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.bytes_written": ("B", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
    "trace.outside_frac": ("ratio", "lower"),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def cache_hits(spans: SpanTable) -> tuple[int, int]:
    """(gradient calls that started no forward solve, all gradient calls)."""
    grads = spans.select("optimizer.problem.gradient")
    grad_set = {int(i) for i in grads}
    solving = {
        spans.nearest_ancestor(int(i), grad_set) for i in spans.select("forward.solve_ibvp")
    }
    solving.discard(-1)
    return len(grads) - len(solving), len(grads)


def layer_metrics(spans: SpanTable, counters: dict, k_star: int) -> dict:
    """Per-layer values for the spans of one command; `counters` come from
    the tracer's return hooks over the same command."""
    fwd_steps = counters.get("forward.steps", 0)
    adj_steps = counters.get("adjoint.steps", 0)
    fwd_calls = spans.count("forward.solve_ibvp")
    trials = spans.count("optimizer.problem.objective")
    hits, grads = cache_hits(spans)
    return {
        "forward.solve_ibvp.calls": fwd_calls,
        "forward.solve_ibvp.us_per_step": 1e6 * _ratio(spans.total("forward.solve_ibvp"), fwd_steps),
        "forward.solve_ibvp.self_us_per_step": 1e6
        * _ratio(spans.self_total("forward.solve_ibvp"), fwd_steps),
        "forward.field_mb_computed": counters.get("forward.field_bytes", 0) / 1e6,
        "adjoint.solve_adjoint.calls": spans.count("adjoint.solve_adjoint"),
        "adjoint.solve_adjoint.us_per_step": 1e6
        * _ratio(spans.total("adjoint.solve_adjoint"), adj_steps),
        "adjoint.solve_adjoint.self_us_per_step": 1e6
        * _ratio(spans.self_total("adjoint.solve_adjoint"), adj_steps),
        "adjoint.assemble_gradient.total_s": spans.total("adjoint.assemble_gradient"),
        "adjoint.compute_gradient.self_s": spans.self_total("adjoint.compute_gradient"),
        "pchip.eval.calls": spans.count("pchip.eval"),
        "pchip.eval.self_s": spans.self_total("pchip.eval"),
        "pchip.grad_wrt_values_many.calls": spans.count("pchip.grad_wrt_values_many"),
        "pchip.grad_wrt_values_many.self_s": spans.self_total("pchip.grad_wrt_values_many"),
        "material.diffusivity_at.calls": spans.count("material.diffusivity_at"),
        "material.diffusivity_at.self_s": spans.self_total("material.diffusivity_at"),
        "observation.observe.calls": spans.count("observation.observe"),
        "observation.observe.total_s": spans.total("observation.observe"),
        "observation.adjoint_source.calls": spans.count("observation.adjoint_source"),
        "observation.adjoint_source.total_s": spans.total("observation.adjoint_source"),
        "config.self_s": spans.self_total_prefix("config."),
        "optimizer.k_star": k_star,
        "optimizer.line_search.trials": trials,
        "optimizer.line_search.accept_ratio": _ratio(k_star, trials),
        "optimizer.forward_solves_per_iter": _ratio(fwd_calls, k_star),
        "optimizer.field_cache.hit_ratio": _ratio(hits, grads),
        "optimizer.guard_rejections": max(grads - k_star - 1, 0),
        "optimizer.bfgs.skipped": counters.get("optimizer.bfgs.skipped", 0),
        "optimizer.self_s": spans.self_total_prefix("optimizer."),
        "cli.self_s": spans.self_total_prefix("cli."),
    }
