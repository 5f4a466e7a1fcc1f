"""The benchmark still runs against the package, and every name bound by
string still resolves.

``bench/`` calls the public ``milrank`` API by name (``load_bags``,
``train_on_bags``, ``TrainConfig`` fields, ``evaluate_manifest`` ...) and its
traced runs wrap the functions listed in ``bench/spans.WRAPPED`` by module
and attribute name, so an API change that breaks it shows here rather than
only when it is next run.  A span whose name no longer resolves is skipped
by the tracer, so its per-layer metric silently reads 0.
"""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

from milrank.features import load_bags, load_manifest
from milrank.metrics import evaluate_manifest, score_video
from milrank.optim import TrainConfig, train_on_bags
from milrank.synthetic import SynthSpec, generate

ROOT = Path(__file__).resolve().parent.parent

# Spans on the per-pair loss wrappers that ``ranking_loss_and_grad`` replaced.
# They wait on the benchmark repair (ROADMAP item 1), which re-points them.
STALE_SPANS = {
    ("milrank.optim", "pair_loss"),
    ("milrank.optim", "pair_loss_grad"),
    ("milrank.loss", "pair_loss"),
}


def test_bench_self_test_passes():
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "run.py"), "self-test"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_bench_spans_bind():
    spans = load_spans()
    unbound = {(module, attr) for module, attr, _ in spans.WRAPPED
               if getattr(importlib.import_module(module), attr, None) is None}
    assert unbound <= STALE_SPANS, sorted(unbound - STALE_SPANS)


def test_bench_spans_called(tmp_path, monkeypatch):
    """A short training run and one evaluation, as the benchmark runs them,
    call every wrapped name that is not stale.  A name that stays bound but
    is no longer called would make its per-layer metric read 0."""
    spans = load_spans()
    # one span name per (module, attr), so one binding cannot stand in for another
    monkeypatch.setattr(spans, "WRAPPED", tuple((module, attr, f"{module}:{attr}")
                                                for module, attr, _ in spans.WRAPPED))
    generate(SynthSpec(n_pos_videos=2, n_neg_videos=2, dim=8, clips_per_video=8), tmp_path,
             test_pos=1, test_neg=1)
    bags = load_bags(load_manifest(tmp_path / "manifest.txt", "train"), 4)
    cfg = TrainConfig(iterations=2, batch_pos=2, batch_neg=2, segments_per_bag=4, hidden1=8, hidden2=4)
    tracer = spans.Tracer()
    with tracer.installed():
        model, _ = train_on_bags([b for b in bags if b.label == 1], [b for b in bags if b.label == 0], cfg)
        evaluate_manifest(load_manifest(tmp_path / "manifest_test.txt", "test"),
                          lambda f: score_video(model, f, 4)[0], m=4)
    recorded = {name for name, *_ in tracer.spans}
    uncalled = [name for module, attr, name in spans.WRAPPED
                if (module, attr) not in STALE_SPANS and name not in recorded]
    assert not uncalled
