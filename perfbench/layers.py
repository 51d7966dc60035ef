"""The layer boundaries the traced run wraps, and the per-layer metrics
derived from the spans recorded there.

Layer names follow the program's modules (``core.histapprox``,
``tdn.graph``, ...). Which end-to-end metric each layer metric should
move, on which workload, is tabled in ``perfbench/README.md``.
"""
from __future__ import annotations

from repro.core import basic_reduction, histapprox, sieve, sieve_adn
from repro.experiments import runner
from repro.tdn import graph, influence

from spans import Tracer

RUN_TRACKER = "experiments.runner.run_tracker"
REPLAY = "streaming.driver.replay_stream"
ON_BATCH = "streaming.driver.on_batch"
WRITE_CHUNKS = "streaming.driver.write_stream_chunks"


def _add_len(key: str):
    def after(tracer: Tracer, args: tuple, result) -> None:
        tracer.counts[key] += len(result)

    return after


def _instances_peak(tracer: Tracer, args: tuple, result) -> None:
    peaks = tracer.peaks
    peaks["core.histapprox.instances_peak"] = max(
        peaks["core.histapprox.instances_peak"], args[0].n_instances
    )


def install(tracer: Tracer) -> None:
    """Wrap every layer's public entry points; undo with ``tracer.restore()``."""
    p = tracer.patch
    p(histapprox.HistApprox, "step", "core.histapprox.step", _instances_peak)
    p(basic_reduction.BasicReduction, "step", "core.basic_reduction.step")
    # The runner calls the name it imported, so that is the one to wrap.
    p(runner, "lazy_greedy", "core.greedy.lazy_greedy")
    p(sieve_adn.SieveADN, "process_batch", "core.sieve_adn.process_batch",
      _add_len("core.sieve_adn.affected_nodes"))
    p(sieve_adn.SieveADN, "copy", "core.sieve_adn.copy")
    p(sieve.ThresholdSieve, "process_node", "core.sieve.process_node")
    p(sieve.ThresholdSieve, "best", "core.sieve.best")
    p(influence.InfluenceOracle, "spread", "tdn.influence.spread")
    p(influence.InfluenceOracle, "marginal_gain", "tdn.influence.marginal_gain")
    p(graph.DiGraph, "reachable", "tdn.graph.reachable",
      _add_len("tdn.graph.reachable_nodes"))
    p(graph.DiGraph, "reverse_reachable", "tdn.graph.reverse_reachable",
      _add_len("tdn.graph.reverse_reachable_nodes"))
    p(graph.DiGraph, "copy", "tdn.graph.copy")
    p(graph.TDNGraph, "advance_to", "tdn.graph.advance_to",
      _add_len("tdn.graph.expired_edges"))
    p(graph.TDNGraph, "add_edges", "tdn.graph.add_edges")
    p(graph.TDNGraph, "edges_with_lifetime", "tdn.graph.edges_with_lifetime",
      _add_len("tdn.graph.edges_with_lifetime_rows"))


def metrics(tr: Tracer, untraced_s: float, traced_s: float) -> dict[str, float]:
    """Every per-layer metric; a layer the workload does not reach reads 0.

    ``untraced_s``/``traced_s`` time the same traced region (the
    ``run_tracker`` call, or the driver-side ``foreachBatch`` work) in the
    untraced and the traced pass; their difference is the tracing overhead.
    """
    wall = tr.total_s(RUN_TRACKER)
    runner_self = tr.self_s(RUN_TRACKER)
    replay_s, on_batch_s = tr.total_s(REPLAY), tr.total_s(ON_BATCH)
    c = tr.counts
    return {
        "experiments.runner.wall_s": wall,
        "experiments.runner.self_s": runner_self,
        "experiments.runner.self_share": runner_self / wall if wall else 0.0,
        "core.histapprox.step_calls": tr.calls("core.histapprox.step"),
        "core.histapprox.step_s": tr.total_s("core.histapprox.step"),
        "core.histapprox.self_s": tr.self_s("core.histapprox.step"),
        "core.histapprox.instances_peak": tr.peaks["core.histapprox.instances_peak"],
        "core.basic_reduction.step_s": tr.total_s("core.basic_reduction.step"),
        "core.basic_reduction.self_s": tr.self_s("core.basic_reduction.step"),
        "core.greedy.lazy_greedy_calls": tr.calls("core.greedy.lazy_greedy"),
        "core.greedy.lazy_greedy_s": tr.total_s("core.greedy.lazy_greedy"),
        "core.sieve_adn.process_batch_calls": tr.calls("core.sieve_adn.process_batch"),
        "core.sieve_adn.process_batch_s": tr.total_s("core.sieve_adn.process_batch"),
        "core.sieve_adn.process_batch_self_s": tr.self_s("core.sieve_adn.process_batch"),
        "core.sieve_adn.affected_nodes": c["core.sieve_adn.affected_nodes"],
        "core.sieve_adn.copy_calls": tr.calls("core.sieve_adn.copy"),
        "core.sieve_adn.copy_s": tr.total_s("core.sieve_adn.copy"),
        "core.sieve.process_node_calls": tr.calls("core.sieve.process_node"),
        "core.sieve.process_node_s": tr.total_s("core.sieve.process_node"),
        "core.sieve.best_calls": tr.calls("core.sieve.best"),
        "core.sieve.best_s": tr.total_s("core.sieve.best"),
        "tdn.influence.spread_calls": tr.calls("tdn.influence.spread"),
        "tdn.influence.marginal_gain_calls": tr.calls("tdn.influence.marginal_gain"),
        "tdn.graph.reachable_calls": tr.calls("tdn.graph.reachable"),
        "tdn.graph.reachable_s": tr.total_s("tdn.graph.reachable"),
        "tdn.graph.reachable_nodes": c["tdn.graph.reachable_nodes"],
        "tdn.graph.reverse_reachable_calls": tr.calls("tdn.graph.reverse_reachable"),
        "tdn.graph.reverse_reachable_s": tr.total_s("tdn.graph.reverse_reachable"),
        "tdn.graph.reverse_reachable_nodes": c["tdn.graph.reverse_reachable_nodes"],
        "tdn.graph.copy_calls": tr.calls("tdn.graph.copy"),
        "tdn.graph.copy_s": tr.total_s("tdn.graph.copy"),
        "tdn.graph.advance_to_s": tr.total_s("tdn.graph.advance_to"),
        "tdn.graph.expired_edges": c["tdn.graph.expired_edges"],
        "tdn.graph.add_edges_s": tr.total_s("tdn.graph.add_edges"),
        "tdn.graph.edges_with_lifetime_s": tr.total_s("tdn.graph.edges_with_lifetime"),
        "tdn.graph.edges_with_lifetime_rows": c["tdn.graph.edges_with_lifetime_rows"],
        "streaming.driver.batches": tr.calls(ON_BATCH),
        "streaming.driver.rows": c["streaming.driver.rows"],
        "streaming.driver.replay_s": replay_s,
        "streaming.driver.on_batch_s": on_batch_s,
        "streaming.driver.spark_s": replay_s - on_batch_s if replay_s else 0.0,
        # Set-up writes the chunks several times; this is the mean write.
        "streaming.driver.write_chunks_s": (
            tr.total_s(WRITE_CHUNKS) / tr.calls(WRITE_CHUNKS) if tr.calls(WRITE_CHUNKS) else 0.0
        ),
        "trace.untraced_s": untraced_s,
        "trace.traced_s": traced_s,
        "trace.overhead_s": traced_s - untraced_s,
        "trace.overhead_frac": (traced_s - untraced_s) / untraced_s,
    }
