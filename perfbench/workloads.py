"""The three benchmark workloads.  Each runs in a fresh child process (see
``run.py``) and calls only the public surface of ``repro``.

Every workload has the same shape: set up ``SETUP_REPS`` times (only the
last set-up goes on to the timed windows; ``setup_s`` is the median), run
fixed amounts of work sized from ``--seconds``, then check the outputs.  The
amounts are fixed, not time-boxed, so one seed always runs the same steps
and requests and yields the same accuracy; the nominal per-unit times below
only turn ``--seconds`` into those amounts (measured on a 2-core x86
container with one BLAS thread).

CPU-bound time metrics are scaled to a reference host speed; see
:func:`host_factor`.
"""

from __future__ import annotations

import gc
import math
import resource
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import api, data
from repro.core import AimTS, AimTSConfig, FineTuneConfig
from repro.engine import Callback, Trainer
from repro.serving import DeadlineExceededError, ServerOverloadedError

from perfbench.loadgen import run_open_loop
from perfbench.spec import LAYERS
from perfbench.stats import chunk_rates, tail_summary
from perfbench.tracing import SpanRecorder, Tracer, summarize

#: the eight generator families of the multi-source pool
FAMILIES = ("ecg", "motion", "starlight", "device", "eeg", "vibration", "spectro", "traffic")
LENGTH = 96
#: training steps before the timed window (arena and cache warm-up)
WARMUP_STEPS = 4
#: set-ups per run; ``setup_s`` is their median
SETUP_REPS = 3
#: held-out samples for the ridge probe (half fit, half scored), labelled by
#: generator family
HELDOUT_SAMPLES = 2048
#: calls or requests per latency sub-window: enough for a p99 with 10
#: samples beyond it
SUBWINDOW = 1000
#: rows per ``encode`` request in the latency window of the pre-training
#: workloads (a small embedding request; one row is too short a call to time
#: steadily against the host's jitter)
REQUEST_ROWS = 16
#: layers that do their work in set-up (read from set-up spans when the timed
#: windows never call them)
SETUP_LAYERS = {"data.build", "api.save", "api.load", "imaging.render"}


# --------------------------------------------------------------------------- #
# host speed
# --------------------------------------------------------------------------- #
_SMALL = np.random.default_rng(0).random((64, 64)).astype(np.float32)
_LARGE = np.random.default_rng(1).random((128, 128))
_WIDE = np.random.default_rng(2).random((3, 1 << 18)).astype(np.float32)
#: time of the reference kernel on the reference host when it runs at full speed
REFERENCE_S = 0.002


def host_factor() -> float:
    """How many times slower than the reference host this host runs now.

    The shared host this benchmark was built on changes speed by up to half
    from one minute to the next (a fixed NumPy loop slows the same way, so
    it is not CPU time lost to scheduling).  Each CPU-bound time metric is
    therefore scaled by this factor, sampled right next to the interval it
    scales: rates are multiplied by it, times divided.  The kernel is the
    benchmark's own (float32 and float64 matmuls, elementwise maths over
    cache-sized and memory-sized arrays, interpreter work; no ``repro`` code), so no program change can move it;
    the fastest of three runs is used.
    """
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        total = 0.0
        for index in range(40):
            product = _SMALL @ _SMALL
            total += float(np.tanh(product[:8]).sum())
            if index % 4 == 0:
                total += float((_LARGE @ _LARGE)[0, 0])
            if index % 8 == 0:
                total += float(np.multiply(_WIDE[0], _WIDE[1], out=_WIDE[2])[0])
            for value in range(40):
                total += value
        best = min(best, time.perf_counter() - start)
    return best / REFERENCE_S


@dataclass
class Context:
    """Run-wide state of one workload process."""

    workload: str
    seed: int
    seconds: int
    trace: bool
    tmp: Path
    recorder: SpanRecorder | None = None
    tracer: Tracer | None = None
    metrics: dict = field(default_factory=dict)
    layer: dict = field(default_factory=dict)
    checks: dict = field(default_factory=dict)
    report: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    def __post_init__(self):
        if self.trace:
            self.recorder = SpanRecorder(f"{self.workload}-seed{self.seed}")
            self.tracer = Tracer(self.recorder)
            self.tracer.install()

    def phase(self, name: str, *, traced: bool) -> None:
        """Enter a phase; in the traced run, also switch the span wrappers."""
        if not self.trace:
            return
        self.recorder.phase = name
        if traced:
            self.tracer.install()
        else:
            self.tracer.uninstall()

    def amount(self, share: float, unit_seconds: float, multiple: int) -> int:
        """Units of work that fill ``share`` of ``--seconds`` at the nominal
        pace, rounded up to a multiple of ``2 * multiple`` (whole chunks or
        sub-windows in both halves of a traced window)."""
        step = 2 * multiple
        return step * max(1, math.ceil(self.seconds * share / unit_seconds / step))

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks[name] = bool(ok)
        if not ok:
            self.report.append(f"CHECK FAILED {name}: {detail}")


# --------------------------------------------------------------------------- #
# training-step clock
# --------------------------------------------------------------------------- #
class StepClock(Callback):
    """Times training steps from outside the engine.

    ``durations[k]`` runs from the end of the previous ``on_batch_end`` to
    the start of this one, so the work done here (window switches,
    host-speed samples) stays out of it.  A host factor is sampled after
    step ``WARMUP_STEPS`` (it scales set-up) and after every ``chunk`` steps
    of the window; ``actions[n]`` runs after step ``n``; the fit stops after
    ``stop_at`` steps.
    """

    def __init__(self, ctx: Context, stop_at: int, chunk: int, actions=None):
        self.ctx = ctx
        self.stop_at = stop_at
        self.chunk = chunk
        self.actions = dict(actions or {})
        self.durations: list[float] = []
        self.losses: list[float] = []
        self.factors: list[float] = []
        self.setup_end = math.nan
        self.trainer = None
        self.traced_from: int | None = None
        self._resume = time.perf_counter()

    def on_batch_end(self, trainer, logs):
        now = time.perf_counter()
        self.durations.append(now - self._resume)
        self.losses.append(float(logs["loss"]))
        step = len(self.durations)
        if self.traced_from is not None and step > self.traced_from:
            self.ctx.recorder.add("engine.step", self._resume, now)
        if step == WARMUP_STEPS:
            self.setup_end = now
        action = self.actions.get(step)
        if action is not None:
            action(trainer)
        if step >= WARMUP_STEPS and (step - WARMUP_STEPS) % self.chunk == 0:
            self.factors.append(host_factor())
        if step >= self.stop_at:
            trainer.state.stop_training = True
        self._resume = time.perf_counter()


@contextmanager
def clocked(clock: StepClock):
    """Attach ``clock`` to every ``Trainer.fit`` run inside the block (the
    fine-tune API takes no callbacks, so the clock rides on the engine)."""
    original = Trainer.fit

    def fit(trainer, epochs):
        clock.trainer = trainer
        trainer.callbacks.append(clock)
        clock._resume = time.perf_counter()
        return original(trainer, epochs)

    Trainer.fit = fit
    try:
        yield clock
    finally:
        Trainer.fit = original


def step_clock(ctx: Context, last: bool, n_steps: int, chunk: int):
    """The clock of one set-up.  Only the last set-up runs the timed window;
    it opens after warm-up, and the traced run leaves its first half
    untraced and traces the second."""
    if not last:
        return StepClock(ctx, WARMUP_STEPS, chunk), {}
    arena = {}

    def open_window(trainer):
        gc.collect()
        ctx.phase("window", traced=False)
        arena["misses"] = trainer.arena_stats().get("misses", 0)

    def close_window(trainer):
        ctx.phase("other", traced=True)

    actions = {WARMUP_STEPS: open_window, WARMUP_STEPS + n_steps: close_window}
    clock = StepClock(ctx, WARMUP_STEPS + n_steps, chunk, actions)
    if ctx.trace:
        half = WARMUP_STEPS + n_steps // 2

        def traced_half(trainer):
            ctx.phase("window", traced=True)
            clock.traced_from = half

        clock.actions[half] = traced_half
    return clock, arena


def finish_training(ctx: Context, clock: StepClock, arena: dict, *, batch: int, n_steps: int) -> None:
    """Train-window metrics and checks from the clock of the last set-up."""
    ran = len(clock.durations) - WARMUP_STEPS
    ctx.check("train_steps", ran == n_steps, f"ran {ran} timed steps, expected {n_steps}")
    finite = int(np.isfinite(clock.losses).sum())
    ctx.check("losses_finite", finite == len(clock.losses), f"{len(clock.losses) - finite} non-finite losses")
    ctx.attempted += ran
    ctx.failed += len(clock.losses) - finite
    raw = chunk_rates(clock.durations[WARMUP_STEPS:], batch, clock.chunk)
    scaled = [rate * factor for rate, factor in zip(raw, clock.factors[1:])]
    untraced = scaled[: len(scaled) // 2] if ctx.trace else scaled
    if ctx.trace:
        ctx.layer["trace.train_rate_ratio"] = float(np.median(scaled[len(scaled) // 2 :]) / np.median(untraced))
    ctx.metrics["train_samples_per_s"] = float(np.median(untraced))
    ctx.report.append(
        f"train: {ran} steps x {batch} samples in {len(raw)} chunks of {clock.chunk} steps; "
        f"median chunk rate {np.median(raw):.1f}/s as measured, {np.median(scaled):.1f}/s at reference "
        f"speed (host factor {np.median(clock.factors[1:]):.3f})"
    )
    stats = clock.trainer.arena_stats()
    ctx.layer["nn.arena_misses"] = float(stats.get("misses", 0) - arena.get("misses", 0))
    ctx.layer["nn.arena_peak_mb"] = stats.get("peak_bytes", 0) / 2**20


def median_setup(ctx: Context, raw: list[float], factors: list[float]) -> None:
    scaled = [seconds / factor for seconds, factor in zip(raw, factors)]
    ctx.metrics["setup_s"] = float(np.median(scaled))
    ctx.report.append(
        "setup: " + ", ".join(f"{value:.3f}" for value in raw) + " s as measured; "
        + ", ".join(f"{value:.3f}" for value in scaled) + " s at reference speed (median reported)"
    )


def latency_metrics(ctx: Context, windows: list[np.ndarray], factors: list[float] | None, what: str) -> None:
    """lat_p50/p99: the median over sub-windows of each sub-window's p50 and
    p99, from the untraced sub-windows; the traced run also reports traced /
    untraced p50.  ``windows`` hold latencies in seconds; ``factors`` (one
    per sub-window) scale them to reference speed."""
    factors = factors or [1.0] * len(windows)
    summaries = [tail_summary(window * 1e3 / factor) for window, factor in zip(windows, factors)]
    untraced = summaries[: len(summaries) // 2] if ctx.trace else summaries
    ctx.metrics["lat_p50_ms"] = float(np.median([s["p50"] for s in untraced]))
    ctx.metrics["lat_p99_ms"] = float(np.median([s["p99"] for s in untraced]))
    if ctx.trace:
        traced = summaries[len(summaries) // 2 :]
        ctx.layer["trace.lat_p50_ratio"] = float(np.median([s["p50"] for s in traced])) / ctx.metrics["lat_p50_ms"]
    whole = tail_summary(np.concatenate(windows) * 1e3)
    top = f"p{whole['top_q']:g} {whole['top']:.3f} ms" if whole["top_q"] else "none"
    ctx.report.append(
        f"latency ({what}): {len(windows)} sub-windows of {len(windows[0])}; whole window as measured: "
        f"n={whole['n']}, p50 {whole['p50']:.3f} ms, p99 {whole['p99']:.3f} ms ({whole['p99_beyond']} beyond), "
        f"highest supported percentile {top}; sub-window p99s "
        + ", ".join(f"{s['p99']:.3f}" for s in summaries)
    )


# --------------------------------------------------------------------------- #
# encoder-side windows of the pre-training workloads
# --------------------------------------------------------------------------- #
def heldout_split(ctx: Context, rep_dir: Path, n_variables: int):
    corpus = data.build_synthetic_corpus(
        rep_dir / "heldout", list(FAMILIES), HELDOUT_SAMPLES,
        length=LENGTH, n_variables=n_variables, seed=ctx.seed + 7919, overwrite=True,
    )
    # build_synthetic_corpus lays samples out family-major in equal shares
    families = np.repeat(np.arange(len(FAMILIES)), HELDOUT_SAMPLES // len(FAMILIES))
    return corpus.materialize(), families


def ridge_probe(features: np.ndarray, labels: np.ndarray, seed: int, ridge: float = 1.0) -> float:
    """Accuracy of a one-vs-rest ridge classifier fit on a seeded half of
    ``features`` and scored on the other half."""
    order = np.random.default_rng(seed).permutation(len(labels))
    fit, score = order[: len(order) // 2], order[len(order) // 2 :]
    F = features.astype(np.float64)
    mean, std = F[fit].mean(axis=0), F[fit].std(axis=0) + 1e-8
    A = np.hstack([(F - mean) / std, np.ones((len(F), 1))])
    classes = np.unique(labels[fit])
    targets = np.where(labels[fit, None] == classes[None, :], 1.0, -1.0)
    gram = A[fit].T @ A[fit] + ridge * np.eye(A.shape[1])
    weights = np.linalg.solve(gram, A[fit].T @ targets)
    predicted = classes[np.argmax(A[score] @ weights, axis=1)]
    return float(np.mean(predicted == labels[score]))


def encoder_windows(ctx: Context, model: AimTS, X: np.ndarray, y: np.ndarray, *, n_requests: int, n_bulk: int) -> None:
    """``encode`` request latency, bulk ``encode`` throughput and the probe."""
    misses = model.workspace_stats()["misses"]
    gc.collect()
    ctx.phase("window", traced=False)
    windows, factors = [], []
    n_windows = n_requests // SUBWINDOW
    starts = np.arange(n_requests) * REQUEST_ROWS % (len(X) - REQUEST_ROWS)
    for k in range(n_windows):
        if ctx.trace and k == n_windows // 2:
            ctx.phase("window", traced=True)
        latencies = np.empty(SUBWINDOW)
        for index in range(SUBWINDOW):
            first = starts[k * SUBWINDOW + index]
            request = X[first : first + REQUEST_ROWS]
            start = time.perf_counter()
            model.encode(request)
            latencies[index] = time.perf_counter() - start
        windows.append(latencies)
        factors.append(host_factor())
    latency_metrics(ctx, windows, factors, f"{REQUEST_ROWS}-row encode requests, closed loop")
    ctx.phase("window", traced=True)
    raw, scaled, passes = [], [], []
    for _ in range(n_bulk):
        start = time.perf_counter()
        passes.append(model.encode(X))
        raw.append(len(X) / (time.perf_counter() - start))
        scaled.append(raw[-1] * host_factor())
    ctx.phase("other", traced=True)
    reps = passes[0]
    ctx.check("bulk_deterministic", all(np.array_equal(p, reps) for p in passes[1:]), "bulk encode passes differ")
    ctx.check("representations_finite", bool(np.isfinite(reps).all()), "non-finite representation")
    ctx.attempted += n_requests + n_bulk
    ctx.metrics["infer_samples_per_s"] = float(np.median(scaled))
    ctx.layer["nn.inference.workspace_misses"] = float(model.workspace_stats()["misses"] - misses)
    accuracy = ridge_probe(reps, y, ctx.seed)
    chance = 1.0 / len(np.unique(y))
    ctx.check("probe_above_chance", accuracy > chance, f"probe accuracy {accuracy:.3f} <= chance {chance:.3f}")
    ctx.metrics["accuracy"] = accuracy
    ctx.report.append(
        f"infer: {n_bulk} bulk encode passes of {len(X)} rows, median {np.median(raw):.1f} rows/s as measured; "
        f"probe_accuracy {accuracy:.4f} on {len(y) - len(y) // 2} held-out rows (family labels, chance {chance:.3f})"
    )


# --------------------------------------------------------------------------- #
# workloads
# --------------------------------------------------------------------------- #
PRETRAIN_POOL = 1024
PRETRAIN_STEP_S = 0.17
PRETRAIN_REQUEST_S = 0.0012
PRETRAIN_BULK_S = 0.2


def _pretrain_reps(ctx: Context, config: AimTSConfig, make_corpus, *, corpus_size: int, n_steps: int, chunk: int):
    """The set-ups of a pre-training workload; returns the last one's model
    and held-out split."""
    epochs = math.ceil((WARMUP_STEPS + n_steps) / (corpus_size // config.batch_size)) + 1

    def one_setup(rep: int):
        rep_dir = ctx.tmp / f"setup{rep}"
        gc.collect()
        start_factor = host_factor()
        start = time.perf_counter()
        corpus = make_corpus(rep_dir)
        X, y = heldout_split(ctx, rep_dir, config.n_variables)
        model = AimTS(config)
        clock, arena = step_clock(ctx, rep == SETUP_REPS - 1, n_steps, chunk)
        with clocked(clock):
            model.pretrain(corpus, epochs=epochs)
        factor = (start_factor + clock.factors[0]) / 2
        return clock.setup_end - start, factor, (model, X, y, clock, arena)

    raw, factors = [], []
    for rep in range(SETUP_REPS):
        state = None  # free the previous set-up before building the next
        seconds, factor, state = one_setup(rep)
        raw.append(seconds)
        factors.append(factor)
    median_setup(ctx, raw, factors)
    model, X, y, clock, arena = state
    finish_training(ctx, clock, arena, batch=config.batch_size, n_steps=n_steps)
    return model, X, y


def pretrain(ctx: Context) -> None:
    """In-RAM multi-source pool, full objective, default architecture, float32."""
    chunk = 2
    config = AimTSConfig(compute_dtype="float32", image_dtype="float32", batch_size=64, seed=ctx.seed)

    def make_pool(rep_dir):
        return data.build_synthetic_corpus(
            rep_dir / "pool", list(FAMILIES), PRETRAIN_POOL, length=LENGTH, seed=ctx.seed, overwrite=True
        ).materialize()

    model, X, y = _pretrain_reps(
        ctx, config, make_pool, corpus_size=PRETRAIN_POOL,
        n_steps=ctx.amount(0.75, PRETRAIN_STEP_S, chunk), chunk=chunk,
    )
    cache = model.pretrainer.render_cache.stats()
    ctx.layer["imaging.cache_hit_ratio"] = cache["hits"] / max(1, cache["hits"] + cache["misses"])
    ctx.check("render_cache_warm", cache["misses"] == 0, f"{cache['misses']} render-cache misses")
    encoder_windows(
        ctx, model, X, y,
        n_requests=ctx.amount(0.12, PRETRAIN_REQUEST_S, SUBWINDOW), n_bulk=ctx.amount(0.08, PRETRAIN_BULK_S, 1),
    )


STREAM_CORPUS = 4096
STREAM_STEP_S = 0.056
STREAM_REQUEST_S = 0.0008
STREAM_BULK_S = 0.2


def pretrain_stream(ctx: Context) -> None:
    """On-disk sharded (3, 96) corpus, series-image objective only, render
    cache off, small encoder, inline schedule, float32."""
    chunk = 4
    config = AimTSConfig(
        n_variables=3, repr_dim=16, hidden_channels=8, depth=1, panel_size=24,
        use_prototype_loss=False, cache_images=False, n_producers=0,
        compute_dtype="float32", image_dtype="float32", batch_size=64, seed=ctx.seed,
    )

    def make_corpus(rep_dir):
        return data.build_synthetic_corpus(
            rep_dir / "corpus", list(FAMILIES), STREAM_CORPUS,
            length=LENGTH, n_variables=3, shard_size=1024, seed=ctx.seed, overwrite=True,
        )

    model, X, y = _pretrain_reps(
        ctx, config, make_corpus, corpus_size=STREAM_CORPUS,
        n_steps=ctx.amount(0.75, STREAM_STEP_S, chunk), chunk=chunk,
    )
    encoder_windows(
        ctx, model, X, y,
        n_requests=ctx.amount(0.12, STREAM_REQUEST_S, SUBWINDOW), n_bulk=ctx.amount(0.08, STREAM_BULK_S, 1),
    )


FINETUNE_FAMILIES = ("ecg", "motion", "device")
FINETUNE_SAMPLES = 1200
FINETUNE_STEP_S = 0.024
SERVE_RATE = 800.0
BULK_PASS_S = 0.31
WARM_REQUESTS = 64


def _classify(error: BaseException) -> str:
    if isinstance(error, ServerOverloadedError):
        return "refused"
    if isinstance(error, DeadlineExceededError):
        return "expired"
    return "failed"


def finetune_serve(ctx: Context) -> None:
    """Fine-tune at batch 16, save / load / serve, open-loop single-row
    requests at one fixed rate, then bulk predict over the test split."""
    batch, chunk = 16, 8
    n_steps = ctx.amount(0.3, FINETUNE_STEP_S, chunk)

    def one_setup(rep: int):
        last = rep == SETUP_REPS - 1
        rep_dir = ctx.tmp / f"setup{rep}"
        rep_dir.mkdir(parents=True, exist_ok=True)
        gc.collect()
        factors = [host_factor()]
        start = time.perf_counter()
        corpus = data.build_synthetic_corpus(
            rep_dir / "labelled", list(FINETUNE_FAMILIES), FINETUNE_SAMPLES,
            length=LENGTH, n_variables=3, seed=ctx.seed, overwrite=True,
        )
        X, y = corpus.materialize(), np.asarray(corpus.labels)
        # fixed split sizes, so every seed serves and predicts the same shapes
        order = np.random.default_rng(ctx.seed).permutation(len(y))
        train, test = order[: len(y) // 2], order[len(y) // 2 :]
        dataset = data.dataset_from_arrays("finetune", X[train], y[train], X_test=X[test], y_test=y[test])
        epochs = math.ceil((WARMUP_STEPS + n_steps) / math.ceil(len(train) / batch)) + 1
        model = AimTS(AimTSConfig(n_variables=3, seed=ctx.seed))
        clock, arena = step_clock(ctx, last, n_steps, chunk)
        with clocked(clock):
            model.fine_tune(dataset, FineTuneConfig(epochs=epochs, batch_size=batch, seed=ctx.seed))
        seconds = clock.setup_end - start
        if last:
            ctx.phase("setup", traced=True)
        gc.collect()
        factors += [clock.factors[0], host_factor()]
        start = time.perf_counter()
        bundle = model.save(rep_dir / "model.npz")
        direct = api.load_estimator(bundle, eval_mode=True)
        server = api.serve(bundle, n_workers=2)
        X_test, y_test = dataset.test.X, dataset.test.y
        for index in range(WARM_REQUESTS):
            server.submit(X_test[index % len(X_test)]).result(timeout=60)
        seconds += time.perf_counter() - start
        factors.append(host_factor())
        if not last:
            server.close()
        return seconds, float(np.mean(factors)), (direct, server, X_test, y_test, clock, arena)

    raw, factors = [], []
    for rep in range(SETUP_REPS):
        state = None  # free the previous set-up before building the next
        seconds, factor, state = one_setup(rep)
        raw.append(seconds)
        factors.append(factor)
    median_setup(ctx, raw, factors)
    direct, server, X_test, y_test, clock, arena = state
    finish_training(ctx, clock, arena, batch=batch, n_steps=n_steps)
    try:
        served = serve_window(ctx, server, X_test, ctx.amount(0.4, 1.0 / SERVE_RATE, SUBWINDOW))
    finally:
        server.close()
    bulk_window(ctx, direct, X_test, y_test, served, ctx.amount(0.08, BULK_PASS_S, 1))


def serve_window(ctx: Context, server, X_test: np.ndarray, n_requests: int):
    """The open-loop window; returns the generator's result.

    Latencies stay as measured: they include the batcher's wall-clock flush
    wait, which does not scale with host speed."""
    before = server.stats()
    gc.collect()
    ctx.phase("window", traced=False)
    result = run_open_loop(
        # submit is looked up per call, so the traced half sees its wrapper
        lambda row: server.submit(row), X_test, rate=SERVE_RATE, n_requests=n_requests, classify=_classify,
        at_half=(lambda: ctx.phase("window", traced=True)) if ctx.trace else None,
    )
    after = server.stats()
    ctx.phase("other", traced=True)
    counts = {name: result.count(name) for name in ("ok", "failed", "refused", "expired")}
    ctx.check(
        "requests_accounted",
        result.sent == n_requests and sum(counts.values()) == result.sent,
        f"sent {result.sent}, outcomes {counts}",
    )
    ctx.attempted += result.sent
    ctx.failed += result.sent - counts["ok"]
    windows = [result.latencies(start, start + SUBWINDOW) for start in range(0, n_requests, SUBWINDOW)]
    latency_metrics(ctx, windows, None, f"open loop at {SERVE_RATE:g} req/s")
    late = tail_summary(result.lateness * 1e3)
    batches = after.get("batches", 0) - before.get("batches", 0)
    samples = after.get("batched_samples", 0) - before.get("batched_samples", 0)
    ctx.layer.update({
        "serving.batch_size_mean": samples / batches if batches else 0.0,
        "serving.shed": float(after["shed_requests"] - before["shed_requests"]),
        "serving.deadline_expired": float(after["deadline_expired"] - before["deadline_expired"]),
        "serving.errors": float(after.get("errors", 0) - before.get("errors", 0)),
        "serving.gen_late_p99_ms": late["p99"],
        "nn.inference.workspace_misses": float(after["workspace"]["misses"] - before["workspace"]["misses"]),
    })
    ctx.report.append(
        f"serve: sent {result.sent}, ok {counts['ok']}, failed {counts['failed']}, "
        f"refused {counts['refused']}, expired {counts['expired']}; generator lateness "
        f"p50 {late['p50']:.3f} / p99 {late['p99']:.3f} ms; mean batch {ctx.layer['serving.batch_size_mean']:.2f}"
    )
    return result


def bulk_window(ctx: Context, direct, X_test, y_test, served, n_bulk: int) -> None:
    """Bulk ``predict`` throughput, then the serving-contract checks."""
    misses = direct.workspace_stats()["misses"]
    gc.collect()
    ctx.phase("window", traced=True)
    raw, scaled, passes = [], [], []
    for _ in range(n_bulk):
        start = time.perf_counter()
        passes.append(direct.predict(X_test))
        raw.append(len(X_test) / (time.perf_counter() - start))
        scaled.append(raw[-1] * host_factor())
    ctx.phase("other", traced=True)
    bulk = passes[0]
    ctx.check("bulk_deterministic", all(np.array_equal(p, bulk) for p in passes[1:]), "bulk predict passes differ")
    ctx.attempted += n_bulk
    ctx.metrics["infer_samples_per_s"] = float(np.median(scaled))
    ctx.layer["nn.inference.workspace_misses"] += float(direct.workspace_stats()["misses"] - misses)

    by_row: dict[int, set] = {}
    for index, (outcome, value) in enumerate(zip(served.outcome, served.values)):
        if outcome == "ok":
            by_row.setdefault(index % len(X_test), set()).add(int(value))
    rows = sorted(by_row)
    single = {row: int(direct.predict(X_test[row : row + 1])[0]) for row in rows}
    mismatch_single = [row for row in rows if by_row[row] != {single[row]}]
    mismatch_bulk = [row for row in rows if by_row[row] != {int(bulk[row])}]
    ctx.check("served_equals_direct", not mismatch_single, f"rows {mismatch_single[:5]} differ from direct predict")
    ctx.check("served_equals_bulk", not mismatch_bulk, f"rows {mismatch_bulk[:5]} differ from bulk predict")
    ctx.check("all_test_rows_served", len(rows) == len(X_test), f"{len(rows)} of {len(X_test)} rows served")
    accuracy = float(np.mean([single[row] == y_test[row] for row in rows]))
    ctx.metrics["accuracy"] = accuracy
    ctx.report.append(
        f"infer: {n_bulk} bulk predict passes of {len(X_test)} rows, median {np.median(raw):.1f} rows/s as measured; "
        f"served accuracy {accuracy:.4f} on {len(rows)} test rows"
    )


# --------------------------------------------------------------------------- #
# per-layer report of the traced run
# --------------------------------------------------------------------------- #
def layer_metrics(ctx: Context) -> dict[str, float]:
    """Per-layer figures: mean self time per call from the spans, plus the
    counters the workload collected; layers a workload never calls read 0.
    Span times are as measured (not scaled to reference speed)."""
    spans = ctx.recorder.spans
    window = [span for span in spans if span.phase == "window"]
    in_window = {span.name for span in window}
    chosen = window + [
        span for span in spans
        if span.phase != "window" and span.name in SETUP_LAYERS and span.name not in in_window
    ]
    table = summarize(chosen)

    def per_call(name: str, scale: float) -> float:
        entry = table.get(name)
        return scale * entry["self_s"] / entry["calls"] if entry else 0.0

    def attr(name: str, key: str) -> float:
        entry = table.get(name)
        return float(entry["attrs"].get(key, 0.0)) if entry else 0.0

    gather_s = table["data.gather"]["total_s"] if "data.gather" in table else 0.0
    inference_calls = table["nn.inference.call"]["calls"] if "nn.inference.call" in table else 0
    waits = table["serving.materialize"]["lists"]["waits"] if "serving.materialize" in table else []
    out = {layer.name: 0.0 for layer in LAYERS}
    out.update({
        "data.build_s": per_call("data.build", 1.0),
        "data.gather_ms": per_call("data.gather", 1e3),
        "data.gather_mb_per_s": attr("data.gather", "bytes") / 1e6 / gather_s if gather_s else 0.0,
        "imaging.render_ms": per_call("imaging.render", 1e3),
        "imaging.render_samples": attr("imaging.render", "rows"),
        "imaging.cache_get_ms": per_call("imaging.cache_get", 1e3),
        "augmentations.two_views_ms": per_call("augmentations.two_views", 1e3),
        "encoders.ts_forward_ms": per_call("encoders.ts_forward", 1e3),
        "encoders.image_forward_ms": per_call("encoders.image_forward", 1e3),
        "core.loss_ms": per_call("core.loss", 1e3),
        "nn.backward_ms": per_call("nn.backward", 1e3),
        "nn.optim_ms": per_call("nn.optim", 1e3),
        "engine.step_ms": (
            1e3 * table["engine.step"]["total_s"] / table["engine.step"]["calls"] if "engine.step" in table else 0.0
        ),
        "engine.self_ms": per_call("engine.step", 1e3),
        "api.save_s": per_call("api.save", 1.0),
        "api.load_s": per_call("api.load", 1.0),
        "nn.inference.call_ms": per_call("nn.inference.call", 1e3),
        "nn.inference.rows_per_call": attr("nn.inference.call", "rows") / inference_calls if inference_calls else 0.0,
        "serving.submit_us": per_call("serving.submit", 1e6),
        "serving.queue_wait_ms": 1e3 * float(np.mean(waits)) if len(waits) else 0.0,
        "latency.p99_ms": ctx.metrics["lat_p99_ms"],
    })
    for name, value in ctx.layer.items():
        out[name] = float(value)
    return out


def run(workload: str, *, seed: int, seconds: int, trace: bool, tmp: Path, out: Path) -> dict:
    """Run one workload in this process; returns the child's result record."""
    ctx = Context(workload, seed, seconds, trace, tmp)
    WORKLOADS[workload](ctx)
    ctx.metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if trace:
        ctx.tracer.uninstall()
        out.mkdir(parents=True, exist_ok=True)
        ctx.recorder.write(out / f"trace-{workload}-seed{seed}.jsonl")
        metrics = layer_metrics(ctx)
    else:
        metrics = dict(ctx.metrics)
    ctx.report.append(
        f"operations: attempted {ctx.attempted}, failed {ctx.failed}, "
        f"fail_ratio {ctx.failed / max(1, ctx.attempted):.6f}"
    )
    return {
        "correct": all(ctx.checks.values()) and bool(ctx.checks),
        "checks": ctx.checks,
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "metrics": metrics,
        "untraced": ctx.metrics,
        "report": ctx.report,
    }


WORKLOADS = {
    "pretrain": pretrain,
    "pretrain_stream": pretrain_stream,
    "finetune_serve": finetune_serve,
}
