"""The measured process: runs one workload's program calls and checks them.

Usage: python3 workload.py PLAN_JSON TRACE(0|1) RESULT_JSON [SPANS_JSON]

The parent (``run.py``) generates the inputs and starts this process, so
``peak_rss_mb`` covers only the program's work.  BLAS is pinned to one
thread before numpy is imported.  The result file holds raw metric values
by name, the operation and failure counts, the failed check names, sample
counts and the environment record.  If a program call raises, the
operations it covered count as failed, the run stops there and the result
is still written, with ``metrics`` set to null.
"""

import os
import sys

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

from milrank.features import load_bags, load_manifest  # noqa: E402
from milrank.metrics import evaluate_manifest, score_video  # noqa: E402
from milrank.network import load_checkpoint  # noqa: E402
from milrank.optim import TrainConfig, train_on_bags  # noqa: E402
from spans import NULL_TRACER, Tracer, summarize  # noqa: E402

SEGMENTS = 32


class Aborted(Exception):
    """A program call raised; its operations are counted as failed and the run stops."""


class Checks:
    """Counts operations, failed operations and failed output checks for ``error_rate``."""

    def __init__(self):
        self.attempted = 0
        self.failed_ops = 0
        self.failed: list[str] = []

    def fail(self, name: str, n: int, error: BaseException | None = None) -> None:
        self.failed_ops += n
        self.failed.append(f"{name} ({type(error).__name__}: {error})" if error else name)

    def expect(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.fail(name, 1)

    @contextmanager
    def operations(self, name: str, n: int):
        """Count ``n`` operations; if the block raises, all ``n`` fail under ``name``."""
        self.attempted += n
        try:
            yield
        except Exception as e:
            self.fail(name, n, e)
            raise Aborted from e


def environment(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name, blas_version = blas.get("name"), blas.get("version")
    except (TypeError, KeyError):
        blas_name = blas_version = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_version": blas_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "seed": seed,
    }


def quantile(values, q: float) -> float:
    return float(np.quantile(np.asarray(values), q))


def rank_auc(labels: np.ndarray, scores: np.ndarray) -> float:
    """Mann-Whitney AUC with ties at half credit, from average ranks."""
    order = np.argsort(scores, kind="stable")
    s = scores[order]
    starts = np.flatnonzero(np.r_[True, s[1:] != s[:-1]])
    ends = np.r_[starts[1:], s.size]
    ranks = np.empty(s.size)
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    return float((ranks[labels].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def check_evaluation(evaluation, truth: dict, checks: Checks, reference_auc: float | None) -> None:
    """One timeline of n_frames per video, and an AUC the rank statistic agrees with."""
    timelines = evaluation.timelines
    checks.expect("eval.one_timeline_per_video", len(timelines) == len(truth))
    labels, scores = [], []
    for tl in timelines:
        n_frames, intervals = truth.get(tl.video_id, (None, []))
        checks.expect("eval.timeline_frames", tl.n_frames == n_frames)
        frame_labels = np.zeros(tl.n_frames, dtype=bool)
        for start, end in intervals:
            frame_labels[start:end] = True
        labels.append(frame_labels)
        scores.append(tl.frame_scores)
    independent = rank_auc(np.concatenate(labels), np.concatenate(scores))
    checks.expect("eval.rank_auc_matches", abs(independent - evaluation.curve.auc) <= 1e-9)
    if reference_auc is not None:
        checks.expect("eval.auc_repeats", evaluation.curve.auc == reference_auc)


def check_log(log, iterations: int, checks: Checks) -> None:
    checks.expect("train.one_row_per_iteration",
                  [row[0] for row in log.rows] == list(range(1, iterations + 1)))
    checks.expect("train.losses_finite", all(np.isfinite(row[1:]).all() for row in log.rows))


class EvalPhase:
    """Repeated evaluate_manifest passes with a score_video scorer."""

    def __init__(self, manifest, model, truth: dict, checks: Checks):
        self.manifest = manifest
        self.model = model
        self.truth = truth
        self.checks = checks
        self.auc = None
        self.videos = 0
        self.pass_rates: list[float] = []  # videos per second of each timed pass
        self.video_ms: list[float] = []

    def run_pass(self, tracer=NULL_TRACER):
        """One checked pass; returns its wall time, scorer-call stamps and the evaluation."""
        stamps = []
        model = self.model

        def scorer(f):
            stamps.append(perf_counter())
            return score_video(model, f, SEGMENTS)[0]

        n_videos = len(self.manifest.entries)
        start = perf_counter()
        with self.checks.operations("eval.pass", n_videos), tracer.installed(), \
                tracer.span("metrics.evaluate_manifest"):
            evaluation = evaluate_manifest(self.manifest, tracer.wrap(scorer, "metrics.score_video"),
                                           m=SEGMENTS)
        elapsed = perf_counter() - start
        check_evaluation(evaluation, self.truth, self.checks, self.auc)
        if self.auc is None:
            self.auc = evaluation.curve.auc
        return elapsed, stamps, evaluation

    def run_for(self, seconds: float) -> None:
        """Timed passes for about ``seconds``, at least one."""
        start = perf_counter()
        while True:
            elapsed, stamps, _ = self.run_pass()
            self.videos += len(self.manifest.entries)
            self.pass_rates.append(len(self.manifest.entries) / elapsed)
            self.video_ms.extend(np.diff(stamps) * 1000.0)
            if perf_counter() - start + elapsed / 2 > seconds:
                return


def feature_bytes(manifest) -> int:
    return sum(os.stat(entry.feature_path).st_size for entry in manifest.entries)


def per_video_metrics(summary: dict, videos: int, passes: int, bytes_per_pass: int) -> dict:
    load_s = summary["features.load_features"]["total_s"]
    roc = summary["metrics.roc_auc"]
    return {
        "features.load_features.ms_per_video": 1000.0 * load_s / videos,
        "features.load_features.mb_per_s": bytes_per_pass * passes / 1e6 / load_s if load_s else 0.0,
        "features.make_bag.calls_per_video": summary["features.make_bag"]["calls"] / videos,
        "features.make_bag.ms_per_video": 1000.0 * summary["features.make_bag"]["total_s"] / videos,
        "network.forward.ms_per_video": 1000.0 * summary["network.forward"]["total_s"] / videos,
        "metrics.expand_scores.calls_per_video": summary["metrics.expand_scores"]["calls"] / videos,
        "metrics.roc_auc.ms": 1000.0 * roc["total_s"] / roc["calls"] if roc["calls"] else 0.0,
        "metrics.evaluate_manifest.self_ms_per_video":
            1000.0 * summary["metrics.evaluate_manifest"]["self_s"] / videos,
    }


def per_step_metrics(summary: dict, steps: int, flops_forward: float, flops_backward: float) -> dict:
    def ms(name):
        return 1000.0 * summary[name]["total_s"] / steps

    def gflops(name, flops):
        s = summary[name]
        return flops * s["calls"] / s["total_s"] / 1e9 if s["total_s"] else 0.0

    return {
        "network.dropout_masks.calls_per_step": summary["network.dropout_masks"]["calls"] / steps,
        "network.dropout_masks.ms_per_step": ms("network.dropout_masks"),
        "loss.pair_loss.calls_per_step": summary["loss.pair_loss"]["calls"] / steps,
        "loss.pair_loss.ms_per_step": ms("loss.pair_loss"),
        "loss.pair_loss_grad.ms_per_step": ms("loss.pair_loss_grad"),
        "loss.weight_decay.ms_per_step": ms("loss.weight_decay_term") + ms("loss.weight_decay_grads"),
        "validation.check_score_vector.calls_per_step":
            summary["validation.check_score_vector"]["calls"] / steps,
        "optim.sample_pair_indices.ms_per_step": ms("optim.sample_pair_indices"),
        "optim.adagrad_step.ms_per_step": ms("optim.adagrad_step"),
        "optim.train_on_bags.self_ms_per_step": 1000.0 * summary["optim.train_on_bags"]["self_s"] / steps,
        "network.forward_with_masks.ms_per_step": ms("network.forward_with_masks"),
        "network.backward.ms_per_step": ms("network.backward"),
        "network.forward_with_masks.gflops": gflops("network.forward_with_masks", flops_forward),
        "network.backward.gflops": gflops("network.backward", flops_backward),
    }


def layer_flops(rows: int, dim: int, h1: int, h2: int) -> tuple[float, float]:
    """Multiply-add FLOPs of one stacked forward and backward, from shapes.

    Forward: X @ W1.T, H1 @ W2.T, H2 @ w3.T.  Backward: dW1 = dZ1.T @ X,
    dW2 = dH2.T @ H1, dH1 = dH2 @ W2 and the two rank-1 products of layer 3.
    """
    forward = 2.0 * rows * (dim * h1 + h1 * h2 + h2)
    backward = 2.0 * rows * (h1 * dim + 2 * h1 * h2 + 2 * h2)
    return forward, backward


def frames_pooled(evaluation) -> float:
    return float(sum(tl.n_frames for tl in evaluation.timelines))


def run_rounds(seconds: float, setup, work, setup_share: float) -> None:
    """Alternate ``work()`` with calls of ``setup()`` for about ``seconds``.

    After each round of work, set-ups run until they have taken about
    ``setup_share`` of the time so far.  The machine's speed drifts by tens
    of percent over seconds to minutes, so every quantity is sampled
    throughout the run rather than in one block.
    """
    start = perf_counter()
    setup_s = 0.0
    while True:
        round_start = perf_counter()
        work()
        now = perf_counter()
        if now - start + (now - round_start) / 2 > seconds:
            return
        while setup_s < setup_share * (perf_counter() - start):
            setup_start = perf_counter()
            setup()
            setup_s += perf_counter() - setup_start


def run_train(plan: dict, traced: bool, checks: Checks, spans_path: str | None) -> tuple[dict, dict]:
    t = plan["train"]
    iterations = t["iterations"]
    cfg = TrainConfig(iterations=iterations, seed=plan["seed"], batch_pos=t["batch"],
                      batch_neg=t["batch"], segments_per_bag=t["segments"], snapshot_every=1)
    tracer = Tracer() if traced else NULL_TRACER
    setup_times = []
    state = {}

    def setup():
        state.clear()  # drop the previous bags first, so peak RSS holds one copy
        gc.collect()  # so that the set-up pays for no earlier garbage
        start = perf_counter()
        with tracer.span("features.load_manifest"):
            manifest = load_manifest(plan["manifest"], "train")
        with tracer.span("features.load_bags"):
            bags = load_bags(manifest, t["segments"])
        setup_times.append(perf_counter() - start)
        state["pos"] = [b for b in bags if b.label == 1]
        state["neg"] = [b for b in bags if b.label == 0]

    def timed_run(run_tracer=NULL_TRACER):
        stamps = []
        hook = lambda it, model: stamps.append(perf_counter())  # noqa: E731
        start = perf_counter()
        with checks.operations("train.run", iterations), run_tracer.installed(), \
                run_tracer.span("optim.train_on_bags"):
            model, log = train_on_bags(state["pos"], state["neg"], cfg, snapshot_hook=hook)
        elapsed = perf_counter() - start
        check_log(log, iterations, checks)
        return model, log.to_csv(), stamps, elapsed

    setup()
    test_manifest = load_manifest(plan["test_manifest"], "test")
    with checks.operations("train.warm_up", 2):
        train_on_bags(state["pos"], state["neg"], replace(cfg, iterations=2, snapshot_every=0))
    phase = EvalPhase(test_manifest, None, plan["truth"], checks)

    if not traced:
        step_ms, timed_iters, timed_wall, logs = [], 0, 0.0, []
        share = t["train_share"]

        def work():
            nonlocal timed_iters, timed_wall
            model, csv, stamps, elapsed = timed_run()
            step_ms.extend(np.diff(stamps) * 1000.0)
            timed_iters += len(stamps) - 1
            timed_wall += stamps[-1] - stamps[0]
            logs.append(csv)
            phase.model = model
            if len(logs) == 1:
                phase.run_pass()  # warm-up, untimed
            phase.run_for(elapsed * (1.0 - share) / share)

        run_rounds(plan["seconds"], setup, work, plan["setup_share"])
        checks.expect("train.repeat_log_identical", all(csv == logs[0] for csv in logs))
        samples = {"steps": len(step_ms), "training_runs": len(logs), "eval_videos": phase.videos,
                   "setups": len(setup_times)}
        metrics = {
            "setup_s": median(setup_times),
            "train_iter_per_s": timed_iters / timed_wall,
            "step_ms_p50": quantile(step_ms, 0.5),
            "step_ms_p90": quantile(step_ms, 0.9),
            "auc": phase.auc,
            "eval_videos_per_s": median(phase.pass_rates),
        }
        return metrics, samples

    # Untraced, traced, untraced: comparing the traced run's median step with
    # the mean of its neighbours' cancels a linear drift in machine speed.
    phase.model, plain_csv, before, _ = timed_run()
    _, traced_csv, traced, _ = timed_run(tracer)
    _, after_csv, after, _ = timed_run()
    checks.expect("trace.log_identical", traced_csv == plain_csv)
    checks.expect("train.repeat_log_identical", after_csv == plain_csv)
    phase.run_pass()  # sets the AUC the traced pass must reproduce
    evaluation = phase.run_pass(tracer)[2]
    if spans_path:
        tracer.write(spans_path)

    flops_f, flops_b = layer_flops(2 * t["batch"] * t["segments"], t["dim"], cfg.hidden1, cfg.hidden2)
    n_videos = len(test_manifest.entries)
    metrics = per_step_metrics(summarize(tracer.spans, "optim.train_on_bags"), iterations,
                               flops_f, flops_b)
    metrics.update(per_video_metrics(summarize(tracer.spans, "metrics.evaluate_manifest"),
                                     n_videos, 1, feature_bytes(test_manifest)))
    metrics["metrics.roc_auc.frames"] = frames_pooled(evaluation)
    metrics["features.load_bags.s"] = summarize(
        tracer.spans, "features.load_bags")["features.load_bags"]["total_s"]
    metrics["network.load_checkpoint.s"] = 0.0
    metrics["network.checkpoint_mb"] = 0.0
    plain_step = (np.median(np.diff(before)) + np.median(np.diff(after))) / 2.0
    metrics["trace.overhead_frac"] = float(np.median(np.diff(traced)) / plain_step - 1.0)
    samples = {"steps": iterations, "eval_videos": n_videos, "absent": tracer.absent}
    return metrics, samples


def run_eval(plan: dict, traced: bool, checks: Checks, spans_path: str | None) -> tuple[dict, dict]:
    seconds = plan["seconds"]
    tracer = Tracer() if traced else NULL_TRACER
    setup_times = []
    phase = EvalPhase(None, None, plan["truth"], checks)

    def setup():
        phase.model = phase.manifest = None
        gc.collect()  # so that the set-up pays for no earlier garbage
        start = perf_counter()
        with tracer.span("network.load_checkpoint"):
            phase.model = load_checkpoint(plan["checkpoint"])
        with tracer.span("features.load_manifest"):
            phase.manifest = load_manifest(plan["manifest"], "test")
        setup_times.append(perf_counter() - start)

    setup()
    phase.run_pass()  # warm-up, untimed
    n_videos = len(phase.manifest.entries)

    if not traced:
        run_rounds(seconds, setup, lambda: phase.run_for(plan["round_seconds"]), plan["setup_share"])
        samples = {"steps": len(phase.video_ms), "eval_videos": phase.videos, "setups": len(setup_times)}
        metrics = {
            "setup_s": median(setup_times),
            "train_iter_per_s": len(phase.video_ms) / (sum(phase.video_ms) / 1000.0),
            "step_ms_p50": quantile(phase.video_ms, 0.5),
            "step_ms_p90": quantile(phase.video_ms, 0.9),
            "auc": phase.auc,
            "eval_videos_per_s": median(phase.pass_rates),
        }
        return metrics, samples

    ratios = []  # traced over untraced time of adjacent passes
    start = perf_counter()
    while True:
        plain_s = phase.run_pass()[0]
        traced_s, _, evaluation = phase.run_pass(tracer)
        ratios.append(traced_s / plain_s)
        if perf_counter() - start + (perf_counter() - start) / len(ratios) > seconds:
            break
    passes = len(ratios)
    if spans_path:
        tracer.write(spans_path)
    # eval-paper runs no training step, so every per-step metric reads 0.
    metrics = per_step_metrics(summarize([], "optim.train_on_bags"), 1, 0.0, 0.0)
    metrics.update(per_video_metrics(summarize(tracer.spans, "metrics.evaluate_manifest"),
                                     n_videos * passes, passes, feature_bytes(phase.manifest)))
    metrics["metrics.roc_auc.frames"] = frames_pooled(evaluation)
    metrics["features.load_bags.s"] = 0.0
    metrics["network.load_checkpoint.s"] = summarize(
        tracer.spans, "network.load_checkpoint")["network.load_checkpoint"]["total_s"]
    metrics["network.checkpoint_mb"] = os.stat(plan["checkpoint"]).st_size / 1e6
    metrics["trace.overhead_frac"] = float(np.median(ratios) - 1.0)
    samples = {"passes": passes, "eval_videos": n_videos * passes, "absent": tracer.absent}
    return metrics, samples


def main(argv: list[str]) -> int:
    plan_path, trace_flag, result_path = argv[:3]
    spans_path = argv[3] if len(argv) > 3 else None
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    traced = trace_flag == "1"
    checks = Checks()
    runner = run_eval if plan["kind"] == "eval" else run_train
    try:
        metrics, samples = runner(plan, traced, checks, spans_path)
    except Aborted:
        metrics, samples = None, {}
    except Exception as e:  # a call outside any counted operation, e.g. a set-up
        checks.attempted += 1
        checks.fail("workload", 1, e)
        metrics, samples = None, {}
    if metrics is not None and not traced:
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    result = {
        "metrics": metrics,
        "attempted": checks.attempted,
        "failed": checks.failed_ops,
        "failed_checks": checks.failed,
        "samples": samples,
        "env": environment(plan["seed"]),
    }
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
