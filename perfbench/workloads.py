"""The benchmark's workloads: input generation, timed passes and the
correctness gate.

Every workload is single-process and a closed loop: the next timestep is
fed only after the previous one returns. The three ``run_tracker``
workloads feed one interaction per step (paper §V-B) through the
experiment runner and score every step. ``stream-replay`` drains parquet
chunks that already exist through ``streaming.driver.replay_stream`` into
a ``foreachBatch`` callback doing what ``jobs/track_stream.py`` does.

A run repeats whole passes over one generated stream for about
``seconds`` (at least two run_tracker passes, or one replay); the
oracle-call count and the value ratio must be the same in every pass. The
run_tracker passes and stream generation are timed at reference host speed
(``hostspeed``); stream-replay, mostly Spark's JVM, by the wall clock.
"""
from __future__ import annotations

import ctypes
import gc
import os
import subprocess
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from statistics import median

import numpy as np
import pandas as pd

from repro.core.greedy import lazy_greedy
from repro.core.histapprox import HistApprox
from repro.experiments import runner
from repro.experiments.datasets import make_stream
from repro.streaming import driver
from repro.tdn.graph import DiGraph
from repro.tdn.lifetimes import GeometricLifetime

import layers
from hostspeed import HostSpeed
from spans import Tracer


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str
    n_steps: int
    #: a ``run_tracker`` algorithm, or ``"stream"`` for the replay job
    algo: str
    L: int
    p: float
    eps: float = 0.3
    k: int = 10
    #: the guarantee checked against Greedy at each checkpoint (1/3 for
    #: HistApprox, 1/2 for BasicReduction, less ε); None for Greedy, which
    #: must equal the reference's Greedy exactly
    factor: float | None = None
    #: stream-replay writes this many chunks; the run_tracker workloads
    #: report "batches" of the same share of the stream (n_steps / n_chunks
    #: consecutive steps)
    n_chunks: int = 100
    checkpoint_every: int = 50


WORKLOADS = {
    w.name: w
    for w in (
        Workload("ha-longlife", "brightkite", 2000, "histapprox", L=1000, p=0.001, factor=1 / 3),
        Workload("br-churn", "twitter-higgs", 2000, "basicreduction", L=100, p=0.02, factor=1 / 2),
        Workload("greedy-longlife", "brightkite", 2000, "greedy", L=1000, p=0.001),
        Workload(
            "stream-replay", "brightkite", 4000, "stream", L=500, p=0.005, eps=0.2,
            factor=1 / 3, checkpoint_every=100,
        ),
    )
}

#: Stream generation is timed in rounds of GEN_PER_ROUND generations, for
#: SETUP_SAMPLE_S seconds before the passes and again after each pass of an
#: untraced run, so that the rounds span the run as the pass timings do;
#: the median round, per generation, is the generation time. For
#: stream-replay, chunk writing is repeated WRITE_REPEATS times and the
#: Spark session started SPARK_STARTS times, and the medians are added.
SETUP_SAMPLE_S = 0.75
GEN_PER_ROUND = 50
WRITE_REPEATS = 5
SPARK_STARTS = 3


def make_inputs(w: Workload, seed: int) -> pd.DataFrame:
    """The generated stream: ``u, v, t`` plus lifetimes ``l`` for the
    run_tracker workloads (stream-replay draws lifetimes per micro-batch,
    as the streaming job does)."""
    stream = make_stream(w.dataset, w.n_steps, seed)
    if w.algo == "stream":
        return stream
    return runner.assign_lifetimes(stream, w.p, w.L, seed)


@dataclass
class Pass:
    """One closed-loop pass over the stream."""

    wall_s: float
    #: per-step and per-batch time: at reference speed in a sampled pass,
    #: wall clock otherwise
    step_ms: np.ndarray
    batch_ms: np.ndarray
    calls: int
    #: checkpoint t -> f(S_t) (run_tracker) or S_t (stream-replay)
    at_checkpoint: dict
    #: seconds spent in the traced region (run_tracker call / foreachBatch)
    region_s: float
    #: stream-replay only: delivered (batch_id, frame with lifetimes)
    delivered: list = field(default_factory=list)
    final_seeds: frozenset = frozenset()


# -- run_tracker workloads --------------------------------------------------


def tracker_pass(
    w: Workload, stream: pd.DataFrame, tracer: Tracer | None = None, sample: bool = False,
) -> Pass:
    """One ``run_tracker`` pass; with ``sample`` the host's speed is
    sampled throughout and the step latencies are scaled to reference speed."""
    run = runner.run_tracker
    if tracer is not None:
        run = tracer.wrap(layers.RUN_TRACKER, run)
    speed = HostSpeed()
    with speed if sample else nullcontext():
        t0 = time.perf_counter()
        rec = run(stream, w.algo, k=w.k, eps=w.eps, L=w.L)
        wall = time.perf_counter() - t0
    if len(rec) != w.n_steps:
        raise RuntimeError(f"{w.name}: {len(rec)} scored steps, expected {w.n_steps}")
    # run_tracker stamps each step's end, so consecutive stamps are the
    # per-step latencies (tracker step + reference update + scoring).
    step_ms = np.diff(rec["wall_s"].to_numpy(), prepend=0.0) * 1e3
    if sample:
        ends = t0 + np.cumsum(step_ms) / 1e3
        step_ms = speed.scale(np.concatenate([[t0], ends[:-1]]), ends) * 1e3
    values = {
        int(t): float(v)
        for t, v in zip(rec["t"], rec["value"])
        if t % w.checkpoint_every == 0
    }
    return Pass(
        wall_s=wall,
        step_ms=step_ms,
        batch_ms=np.array([b.sum() for b in np.array_split(step_ms, w.n_chunks)]),
        calls=int(rec["calls"].iloc[-1]),
        at_checkpoint=values,
        region_s=wall,
    )


# -- stream-replay ----------------------------------------------------------


def start_spark(work: str):
    """Local Spark session whose files all stay under ``work``."""
    from pyspark.sql import SparkSession

    # Read by every JVM spark-submit starts, its launcher included.
    os.environ["JAVA_TOOL_OPTIONS"] = f"-XX:-UsePerfData -Djava.io.tmpdir={work}"
    os.environ["SPARK_LOCAL_DIRS"] = work
    threads = len(os.sched_getaffinity(0))
    spark = (
        SparkSession.builder.master(f"local[{threads}]")
        .appName("perfbench")
        .config("spark.driver.memory", "1g")
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.sql.warehouse.dir", os.path.join(work, "warehouse"))
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.sql.shuffle.partitions", str(threads))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session and wait for the JVM it launched to exit."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None:
        return
    proc = getattr(gateway, "proc", None)
    gateway.shutdown()
    SparkContext._gateway = SparkContext._jvm = None
    if proc is not None:
        proc.stdin.close()  # the gateway JVM exits when its stdin closes
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def stream_pass(
    w: Workload, spark, in_dir: str, checkpoint_dir: str, seed: int,
    tracer: Tracer | None = None,
) -> Pass:
    """One replay of the chunks, timed by the wall clock: most of it is
    Spark's JVM, and reference slices timed in the callback (a py4j thread
    that the host-speed signal does not reach) did not steady it."""
    tracker = HistApprox(w.k, w.eps, w.L)
    lifetimes = GeometricLifetime(w.p, w.L, seed=seed)
    p = Pass(0.0, np.empty(0), np.empty(0), 0, {}, 0.0)
    step_start: list[float] = []
    step_end: list[float] = []
    batch_end: list[float] = []

    def on_batch(pdf: pd.DataFrame, batch_id: int) -> None:
        b0 = time.perf_counter()
        pdf = pdf.copy()
        pdf["l"] = lifetimes.sample(len(pdf))
        for t, grp in pdf.groupby("t", sort=True):
            step_start.append(time.perf_counter())
            seeds, _ = tracker.step(list(grp[["u", "v", "l"]].itertuples(index=False)))
            step_end.append(time.perf_counter())
            if t % w.checkpoint_every == 0:
                p.at_checkpoint[int(t)] = seeds
            p.final_seeds = seeds
        p.delivered.append((batch_id, pdf))
        end = time.perf_counter()
        p.region_s += end - b0
        batch_end.append(end)

    replay, callback = driver.replay_stream, on_batch
    if tracer is not None:
        replay = tracer.wrap(layers.REPLAY, replay)
        callback = tracer.wrap(layers.ON_BATCH, on_batch, _count_rows)
    t0 = time.perf_counter()
    replay(spark, in_dir, callback, checkpoint_dir=checkpoint_dir)
    p.wall_s = time.perf_counter() - t0
    # A batch's time runs from the previous batch's end (or the query's
    # start): Spark's read, toPandas and scheduling, then the callback.
    p.step_ms = (np.array(step_end) - np.array(step_start)) * 1e3
    p.batch_ms = np.diff([t0, *batch_end]) * 1e3
    p.calls = tracker.oracle_calls
    return p


def _count_rows(tracer: Tracer, args: tuple, result) -> None:
    tracer.counts["streaming.driver.rows"] += len(args[0])


# -- correctness gate -------------------------------------------------------


def alive_graph(u: np.ndarray, v: np.ndarray, t: np.ndarray, l: np.ndarray, now: int) -> DiGraph:
    """``G_now`` rebuilt from the stream: an edge arriving at ``t`` with
    lifetime ``l`` is alive while ``t <= now < t + l``."""
    g = DiGraph()
    alive = (t <= now) & (now < t + l) & (u != v)
    for a, b in zip(u[alive].tolist(), v[alive].tolist()):
        g.add_edge(a, b)
    return g


def check_tracker(w: Workload, stream: pd.DataFrame, passes: list[Pass]) -> tuple[int, float]:
    """Failed steps and the value ratio of the run_tracker passes.

    At each checkpoint the runner's scored f(S_t) is compared with lazy
    Greedy on ``G_t`` rebuilt here from the stream: Greedy ≤ OPT, so the
    (1/3−ε) and (1/2−ε) guarantees must hold against it, and Greedy run
    through the runner must equal it exactly. Every pass must repeat the
    first one's values and oracle calls."""
    cols = [stream[c].to_numpy() for c in ("u", "v", "t", "l")]
    first = passes[0]
    failed, ratios = 0, []
    for now, value in first.at_checkpoint.items():
        greedy = lazy_greedy(alive_graph(*cols, now), w.k)[1]
        if w.factor is None:
            ok = value == greedy
        else:
            ok = value >= (w.factor - w.eps) * greedy
        failed += not ok
        ratios.append(value / greedy if greedy else 1.0)
    for p in passes[1:]:
        if p.calls != first.calls or p.at_checkpoint != first.at_checkpoint:
            failed += w.n_steps
    if not ratios:
        raise RuntimeError(f"{w.name}: no checkpoint in {w.n_steps} steps")
    return failed, float(np.mean(ratios))


def check_stream(w: Workload, stream: pd.DataFrame, passes: list[Pass]) -> tuple[int, float]:
    """Failed batches and the value ratio of the stream-replay passes.

    Each pass must deliver every chunk exactly once, in order, and its
    seeds must equal those from feeding the same rows and lifetimes
    straight to ``HistApprox.step``. At each checkpoint f(S_t) on the
    rebuilt ``G_t`` must be at least (1/3−ε)·Greedy."""
    ordered = stream.sort_values("t", kind="stable")[["u", "v", "t"]]
    bounds = [round(i * len(ordered) / w.n_chunks) for i in range(w.n_chunks + 1)]
    chunks = [
        ordered.iloc[lo:hi].sort_values(["t", "u", "v"], kind="stable").to_numpy()
        for lo, hi in zip(bounds, bounds[1:])
    ]
    first = passes[0]
    failed = 0
    for p in passes:
        failed += max(0, w.n_chunks - len(p.delivered))
        for i, (batch_id, pdf) in enumerate(p.delivered):
            rows = pdf[["u", "v", "t"]].to_numpy()
            if batch_id != i or i >= w.n_chunks or not np.array_equal(rows, chunks[i]):
                failed += 1
        if p is not first and (
            p.calls != first.calls or p.at_checkpoint != first.at_checkpoint
        ):
            failed += 1

    fed = pd.concat([pdf for _, pdf in first.delivered], ignore_index=True)
    direct = HistApprox(w.k, w.eps, w.L)
    direct_at: dict[int, frozenset] = {}
    seeds: frozenset = frozenset()
    for t, grp in fed.groupby("t", sort=True):
        seeds, _ = direct.step(list(grp[["u", "v", "l"]].itertuples(index=False)))
        if t % w.checkpoint_every == 0:
            direct_at[int(t)] = seeds
    if seeds != first.final_seeds or direct_at != first.at_checkpoint:
        failed += 1

    cols = [fed[c].to_numpy() for c in ("u", "v", "t", "l")]
    ratios = []
    for now, s in first.at_checkpoint.items():
        g = alive_graph(*cols, now)
        value = float(len(g.reachable(s))) if s else 0.0
        greedy = lazy_greedy(g, w.k)[1]
        failed += value < (w.factor - w.eps) * greedy
        ratios.append(value / greedy if greedy else 1.0)
    if not ratios:
        raise RuntimeError(f"{w.name}: no checkpoint in {w.n_steps} steps")
    return failed, float(np.mean(ratios))


# -- one run ----------------------------------------------------------------


@dataclass
class Result:
    attempted: int
    failed: int
    metrics: dict[str, float]
    spans: list[dict] = field(default_factory=list)
    #: figures printed for reference only, such as wall-clock throughput
    notes: dict[str, float] = field(default_factory=dict)


def proc_status_kb(field: str) -> int:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise RuntimeError(f"/proc/self/status has no {field}")


def reset_peak_rss() -> int:
    """Return freed memory to the OS, reset the process's peak RSS to its
    current RSS and return that RSS in kB, so that the peak read after the
    passes less this figure is what the passes themselves added."""
    gc.collect()
    ctypes.CDLL("libc.so.6").malloc_trim(0)
    with open("/proc/self/clear_refs", "w") as f:
        f.write("5")
    return proc_status_kb("VmRSS")


def generation_rounds(w: Workload, seed: int) -> list[float]:
    """Per-generation time, at reference speed, of rounds of GEN_PER_ROUND
    stream generations, repeated for SETUP_SAMPLE_S seconds."""
    starts: list[float] = []
    ends: list[float] = []
    with HostSpeed() as speed:
        stop = time.perf_counter() + SETUP_SAMPLE_S
        while time.perf_counter() < stop:
            starts.append(time.perf_counter())
            for _ in range(GEN_PER_ROUND):
                make_inputs(w, seed)
            ends.append(time.perf_counter())
    return list(speed.scale(starts, ends) / GEN_PER_ROUND)


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def run(w: Workload, seed: int, seconds: float, trace: bool, work: str) -> Result:
    """One benchmark run: set up, measure passes for ``seconds`` (or one
    untraced and one traced pass), gate the outputs, derive metrics."""
    is_stream = w.algo == "stream"
    spark = None
    tracer = Tracer() if trace else None
    try:
        # Set-up is timed several times and the median is reported, so
        # that one slow repetition does not decide the figure.
        gen_s = generation_rounds(w, seed)
        stream = make_inputs(w, seed)
        setup_s = 0.0
        if is_stream:
            write = driver.write_stream_chunks
            if tracer is not None:
                write = tracer.wrap(layers.WRITE_CHUNKS, write)
            dirs = [os.path.join(work, f"in{i}") for i in range(WRITE_REPEATS)]
            setup_s += median(_timed(lambda d=d: write(stream, d, w.n_chunks))[0] for d in dirs)
            in_dir = dirs[-1]
            starts = []
            for _ in range(SPARK_STARTS):
                if spark is not None:
                    stop_spark(spark)
                    spark = None
                spark_s, spark = _timed(lambda: start_spark(work))
                starts.append(spark_s)
            setup_s += median(starts)

        def one_pass(tr: Tracer | None) -> Pass:
            if not is_stream:
                # Host-speed sampling would add its slices to the traced
                # run's untraced/traced comparison, so only timed runs sample.
                return tracker_pass(w, stream, tr, sample=not trace)
            ckpt = os.path.join(work, f"checkpoint{len(passes)}")
            return stream_pass(w, spark, in_dir, ckpt, seed, tr)

        passes: list[Pass] = []
        rss0_kb = reset_peak_rss()
        if trace:
            passes.append(one_pass(None))
            layers.install(tracer)
            try:
                passes.append(one_pass(tracer))
            finally:
                tracer.restore()
        else:
            # Stop when another pass would end past ``seconds`` by more
            # than half of it, so a run measures about ``seconds``; the
            # p99 step needs two run_tracker passes.
            start = time.perf_counter()
            while len(passes) < (1 if is_stream else 2) or (
                time.perf_counter() - start + passes[-1].wall_s / 2 < seconds
            ):
                passes.append(one_pass(None))
                gen_s += generation_rounds(w, seed)
        peak_rss_mb = (proc_status_kb("VmHWM") - rss0_kb) / 1024
    finally:
        if spark is not None:
            stop_spark(spark)

    check = check_stream if is_stream else check_tracker
    failed, value_ratio = check(w, stream, passes)
    attempted = len(passes) * (w.n_chunks if is_stream else w.n_steps)

    if trace:
        m = layers.metrics(tracer, passes[0].region_s, passes[1].region_s)
        return Result(attempted, min(failed, attempted), m, tracer.table())

    def per_pass(stat) -> float:
        """The median over passes, so that one pass caught in a host stall
        does not decide the figure."""
        return float(median(stat(p) for p in passes))

    # The p99 step is taken over each step's faster time in the first two
    # passes. Both feed the same stream through the same program, so a step
    # does the same work in both; the faster time is the one less disturbed
    # by stalls shorter than host-speed sampling resolves, which otherwise
    # decide which steps make the slowest 1%. stream-replay makes one pass.
    fastest = passes[0].step_ms if is_stream else np.minimum(passes[0].step_ms, passes[1].step_ms)

    metrics = {
        # The batches cover each pass from its start to the last batch's end.
        "interactions_per_s": per_pass(lambda p: len(stream) / (p.batch_ms.sum() / 1e3)),
        "step_p50_ms": per_pass(lambda p: np.percentile(p.step_ms, 50)),
        "step_p99_ms": float(np.percentile(fastest, 99)),
        "batch_p50_ms": per_pass(lambda p: np.percentile(p.batch_ms, 50)),
        "batch_p90_ms": per_pass(lambda p: np.percentile(p.batch_ms, 90)),
        "oracle_calls": passes[0].calls,
        "value_ratio": value_ratio,
        "peak_rss_mb": peak_rss_mb,
        "setup_s": setup_s + median(gen_s),
    }
    notes = {"wall_clock_interactions_per_s": len(stream) * len(passes) / sum(p.wall_s for p in passes)}
    return Result(attempted, min(failed, attempted), metrics, notes=notes)
