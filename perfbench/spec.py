"""What the benchmark measures: workloads, metric names and units, and the
layer -> end-to-end mapping each per-layer metric is read against.

``BENCHMARK.json`` at the repository root carries the same names plus the
regression bounds; :func:`check_benchmark_json` validates it against this
module and against the file-format rules (the self-tests run it).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

#: metric and workload names: a letter or digit, then up to 63 of [A-Za-z0-9_.-]
NAME_PATTERN = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_PATTERN = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
PATH_PATTERN = re.compile(r"[A-Za-z0-9_./-]{1,200}")

WORKLOADS = ("pretrain", "pretrain_stream", "finetune_serve")


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str


@dataclass(frozen=True)
class Layer:
    name: str
    unit: str
    better: str
    #: the end-to-end metric this layer metric should move
    moves: str
    #: the workloads on which it should move it
    on: str


END_TO_END = (
    EndToEnd("setup_s", "s", "lower"),
    EndToEnd("train_samples_per_s", "1/s", "higher"),
    EndToEnd("accuracy", "ratio", "higher"),
    EndToEnd("lat_p50_ms", "ms", "lower"),
    EndToEnd("infer_samples_per_s", "1/s", "higher"),
    EndToEnd("peak_rss_mb", "MB", "lower"),
)

LAYERS = (
    Layer("data.build_s", "s", "lower", "setup_s", "pretrain, pretrain_stream"),
    Layer("data.gather_ms", "ms", "lower", "train_samples_per_s", "pretrain_stream"),
    Layer("data.gather_mb_per_s", "MB/s", "higher", "train_samples_per_s", "pretrain_stream"),
    Layer("imaging.render_ms", "ms", "lower", "train_samples_per_s / setup_s", "pretrain_stream / pretrain"),
    Layer("imaging.render_samples", "count", "lower", "train_samples_per_s / setup_s", "pretrain_stream / pretrain"),
    Layer("imaging.cache_get_ms", "ms", "lower", "train_samples_per_s", "pretrain"),
    Layer("imaging.cache_hit_ratio", "ratio", "higher", "train_samples_per_s", "pretrain"),
    Layer("augmentations.two_views_ms", "ms", "lower", "train_samples_per_s", "pretrain"),
    Layer("encoders.ts_forward_ms", "ms", "lower", "train_samples_per_s", "all"),
    Layer("encoders.image_forward_ms", "ms", "lower", "train_samples_per_s", "pretrain, pretrain_stream"),
    Layer("core.loss_ms", "ms", "lower", "train_samples_per_s", "pretrain"),
    Layer("nn.backward_ms", "ms", "lower", "train_samples_per_s", "pretrain, finetune_serve"),
    Layer("nn.optim_ms", "ms", "lower", "train_samples_per_s", "pretrain, finetune_serve"),
    Layer("nn.arena_misses", "count", "lower", "peak_rss_mb / train_samples_per_s", "all"),
    Layer("nn.arena_peak_mb", "MB", "lower", "peak_rss_mb", "all"),
    Layer("engine.step_ms", "ms", "lower", "train_samples_per_s", "finetune_serve"),
    Layer("engine.self_ms", "ms", "lower", "train_samples_per_s", "finetune_serve"),
    Layer("api.save_s", "s", "lower", "setup_s", "finetune_serve"),
    Layer("api.load_s", "s", "lower", "setup_s", "finetune_serve"),
    Layer("nn.inference.call_ms", "ms", "lower", "lat_p50_ms / infer_samples_per_s", "all"),
    Layer("nn.inference.rows_per_call", "count", "higher", "lat_p50_ms / infer_samples_per_s", "all"),
    Layer("nn.inference.workspace_misses", "count", "lower", "latency.p99_ms", "all"),
    Layer("serving.submit_us", "us", "lower", "lat_p50_ms / latency.p99_ms", "finetune_serve"),
    Layer("serving.queue_wait_ms", "ms", "lower", "lat_p50_ms / latency.p99_ms", "finetune_serve"),
    Layer("serving.batch_size_mean", "count", "higher", "lat_p50_ms / infer_samples_per_s", "finetune_serve"),
    Layer("serving.shed", "count", "lower", "failed (fail_ratio)", "finetune_serve"),
    Layer("serving.deadline_expired", "count", "lower", "failed (fail_ratio)", "finetune_serve"),
    Layer("serving.errors", "count", "lower", "failed (fail_ratio)", "finetune_serve"),
    Layer("serving.gen_late_p99_ms", "ms", "lower", "validity of the open loop, not a target", "finetune_serve"),
    # the tail of the latency window; its run-to-run spread on the build host
    # (about a third) exceeds the largest bound an end-to-end metric may carry
    Layer("latency.p99_ms", "ms", "lower", "lat_p50_ms (tail of the same window)", "all"),
    Layer("trace.train_rate_ratio", "ratio", "higher", "tracing overhead: traced / untraced train_samples_per_s", "all"),
    Layer("trace.lat_p50_ratio", "ratio", "lower", "tracing overhead: traced / untraced lat_p50_ms", "all"),
)

BENCHMARK_KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}


def check_benchmark_json(doc: dict) -> list[str]:
    """Every way ``doc`` breaks the file-format rules or disagrees with this module."""
    errors: list[str] = []
    if set(doc) != BENCHMARK_KEYS:
        return [f"keys must be exactly {sorted(BENCHMARK_KEYS)}, got {sorted(doc)}"]

    command = doc["command"]
    if not (isinstance(command, list) and 1 <= len(command) <= 32):
        errors.append("command must be a list of 1..32 strings")
    else:
        for part in command:
            if not isinstance(part, str) or len(part) > 200:
                errors.append(f"command part {part!r} is not a string of <= 200 characters")
            elif part.startswith("/") or ".." in part.split("/"):
                errors.append(f"command part {part!r} leaves the repository")

    paths = doc["paths"]
    if not (isinstance(paths, list) and 1 <= len(paths) <= 16):
        errors.append("paths must list 1..16 directories")
    else:
        for path in paths:
            if not (isinstance(path, str) and PATH_PATTERN.fullmatch(path)):
                errors.append(f"bad path {path!r}")
            elif path.startswith("/") or ".." in path.split("/"):
                errors.append(f"path {path!r} leaves the repository")

    seconds = doc["run_seconds"]
    if not (isinstance(seconds, int) and not isinstance(seconds, bool) and 1 <= seconds <= 60):
        errors.append("run_seconds must be a whole number from 1 to 60")

    names: list[str] = []
    workloads = doc["workloads"]
    if not (isinstance(workloads, list) and 2 <= len(workloads) <= 8):
        errors.append("workloads must list 2..8 entries")
        workloads = []
    for entry in workloads:
        if set(entry) != {"name", "why"}:
            errors.append(f"workload {entry} must have exactly name and why")
            continue
        why = entry["why"]
        if not isinstance(why, str) or not why or len(why) > 200 or "\n" in why:
            errors.append(f"workload {entry['name']!r}: why must be one line of <= 200 characters")
        names.append(entry["name"])
    if tuple(entry.get("name") for entry in workloads) != WORKLOADS:
        errors.append(f"workloads must be {WORKLOADS}")

    def check_metrics(key: str, expected, limit: int, keys: set[str]) -> None:
        entries = doc[key]
        if not (isinstance(entries, list) and 1 <= len(entries) <= limit):
            errors.append(f"{key} must list 1..{limit} metrics")
            return
        for entry in entries:
            if set(entry) != keys:
                errors.append(f"{key} entry {entry} must have exactly {sorted(keys)}")
                continue
            if not (isinstance(entry["unit"], str) and UNIT_PATTERN.fullmatch(entry["unit"])):
                errors.append(f"{entry['name']}: bad unit {entry['unit']!r}")
            if entry["better"] not in ("lower", "higher"):
                errors.append(f"{entry['name']}: better must be lower or higher")
            if "bound" in keys:
                bound = entry["bound"]
                if not (isinstance(bound, (int, float)) and 0 < bound <= 0.25):
                    errors.append(f"{entry['name']}: bound must be in (0, 0.25]")
            names.append(entry["name"])
        got = [(e.get("name"), e.get("unit"), e.get("better")) for e in entries]
        want = [(m.name, m.unit, m.better) for m in expected]
        if got != want:
            errors.append(f"{key} must be {want}, got {got}")

    check_metrics("end_to_end", END_TO_END, 16, {"name", "unit", "better", "bound"})
    check_metrics("per_layer", LAYERS, 128, {"name", "unit", "better"})

    for name in names:
        if not (isinstance(name, str) and NAME_PATTERN.fullmatch(name)):
            errors.append(f"bad name {name!r}")
    if len(set(names)) != len(names):
        errors.append("names must be unique")
    setup = [e for e in doc["end_to_end"] if isinstance(e, dict) and e.get("name") == "setup_s"]
    if not setup or setup[0].get("unit") != "s" or setup[0].get("better") != "lower":
        errors.append("setup_s must be an end-to-end metric in s, lower is better")
    else:
        bounds = [e.get("bound", 0) for e in doc["end_to_end"] if isinstance(e, dict)]
        if setup[0].get("bound") != max(bounds):
            errors.append("setup_s must carry the largest bound")
    return errors
