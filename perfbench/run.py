"""hermsig benchmark: whole `hermsig run` sessions in fresh interpreters.

    python3 perfbench/run.py --workload sig_tables --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The seeded generator in workloads.py
writes one session document; each sample runs it in a new interpreter
(perfbench/child.py), one sample at a time (a closed loop with one client),
until --seconds have passed.  A fresh process per sample matters: hermsig
keeps a process-wide reference-form cache and per-ordering refinement
state, which a `hermsig run` user pays for on every run.

Before each untraced sample, a fixed job of exact rational arithmetic with
no hermsig code in it (reference.py) runs in its own fresh interpreter.  On
a shared machine, speed can drift by up to a factor of two over minutes;
the two jobs drift alike, so session time divided by reference time stays
steady where plain seconds do not.

With --trace 0 the last line reports the end-to-end metrics: median session
time over median reference time, median import (set-up) time and median
peak RSS of the child.  With --trace 1, half the time runs untraced samples
and half traced ones (tracer.py), and the last line reports the per-layer
metrics.  After the timed samples, the report is checked against
independent oracles (checks.py) and must be byte-identical across samples.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

MIN_SAMPLES = 3
# A session that runs longer than this is stopped; its records count failed.
SESSION_CAP_S = 60.0

SAMPLE_UNITS = {"setup_s": "s", "peak_rss_mb": "MB"}

_COMMON_TARGETS = {
    "session.parse", "cli.render", "hermitian.raw_signature",
    "hermitian.find_reference_form", "quadforms.diagonalize",
    "field.mul.calls", "field.inverse", "field.sign_at", "algebras.is_invertible",
}
# Wrapped functions each workload must call: a wrapper that sees no call on
# the workload meant to use it points at a binding the tracer missed.
EXPECTED_TARGETS = {
    "sig_tables": _COMMON_TARGETS | {"hermitian.sylvester_decompose"},
    "small_forms": _COMMON_TARGETS,
    "cone_search": _COMMON_TARGETS | {
        "algebras.mul.calls", "cones.contains", "cones.find_sos_certificate",
        "spectra.cone_space_topology", "spectra.topology_compare",
        "spectra.generate_topology", "spectra.prime_property_sample",
        "spectra.morphism_distinctness"},
}


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_reference() -> float:
    """Seconds the fixed reference job takes in a fresh interpreter."""
    proc = subprocess.run([sys.executable, str(HERE / "reference.py")],
                          capture_output=True, text=True, check=True,
                          timeout=SESSION_CAP_S)
    return json.loads(proc.stdout.splitlines()[-1])["ref_s"]


def run_child(doc_path: Path, spans_path: Path | None = None) -> dict:
    """One session in a fresh interpreter.  Returns the child's timings and
    its report text, or {"timed_out": True} past SESSION_CAP_S."""
    report_path = WORK / "report.json"
    cmd = [sys.executable, str(HERE / "child.py"), str(doc_path), str(report_path)]
    if spans_path is not None:
        cmd.append(str(spans_path))
    try:
        proc = subprocess.run(cmd, env=_child_env(), capture_output=True,
                              text=True, timeout=SESSION_CAP_S)
    except subprocess.TimeoutExpired:
        return {"timed_out": True}
    if proc.returncode != 0:
        raise RuntimeError(f"session process failed ({proc.returncode}):\n"
                           f"{proc.stderr}")
    sample = json.loads(proc.stdout.splitlines()[-1])
    sample["report"] = report_path.read_text(encoding="utf-8")
    return sample


def collect(doc_path: Path, seconds: float, traced: bool = False,
            min_samples: int = MIN_SAMPLES) -> list[dict]:
    """Samples one after another until the next one would end past
    `seconds`, and at least `min_samples` of them.  An untraced sample
    also times the reference job, just before its session."""
    samples = []
    walls = []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        spans_path = WORK / f"spans{len(samples)}.bin" if traced else None
        ref_s = None if traced else run_reference()
        sample = run_child(doc_path, spans_path)
        sample["ref_s"] = ref_s
        if spans_path is not None:
            sample["spans_path"] = spans_path
        samples.append(sample)
        walls.append(time.monotonic() - t0)
        if sample.get("timed_out"):
            break
        elapsed = time.monotonic() - start
        if len(samples) >= min_samples and \
                elapsed + statistics.median(walls) > seconds:
            break
    return samples


def tally(samples: list[dict], n_records: int, bad: list[int]) -> tuple[int, int]:
    """(attempted, failed) records over all samples.  A record fails when
    its status is error, when it fails the output check, or when its
    session hit the time cap."""
    attempted = failed = 0
    bad_set = set(bad)
    for sample in samples:
        attempted += n_records
        if sample.get("timed_out"):
            failed += n_records
            continue
        records = json.loads(sample["report"])
        failed += sum(1 for r in records
                      if r["status"] == "error" or r["index"] in bad_set)
    return attempted, failed


def assess(doc, samples: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) for the samples of one session
    document.  Any problem makes the run incorrect: distinct reports, a
    record with status error or failing the output check, a session at the
    time cap."""
    from checks import check_report

    done = [s for s in samples if not s.get("timed_out")]
    records = json.loads(done[0]["report"]) if done else []
    bad = check_report(doc, records)
    attempted, failed = tally(samples, len(doc.commands), bad)
    problems = []
    reports = {s["report"] for s in done}
    if len(reports) > 1:
        problems.append(f"{len(reports)} distinct reports across samples")
    errors = [r["index"] for r in records if r["status"] == "error"]
    if errors:
        problems.append(f"records with status error: {errors}")
    if bad:
        problems.append(f"records failing the output check: {bad}")
    if len(done) < len(samples):
        problems.append("a session hit the time cap")
    return attempted, failed, problems


def _median(samples: list[dict], key: str) -> float:
    return statistics.median(s[key] for s in samples)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _layer_unit(name: str) -> str:
    if name.endswith(".s"):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hermsig" / "__init__.py").is_file():
        print(f"hermsig sources not found under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from hermsig.session import parse_session
    from tracer import Spans, called_targets, layer_metrics
    from workloads import WORKLOADS, generate

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    text = generate(args.workload, args.seed)
    doc_path = WORK / "session.json"
    doc_path.write_text(text, encoding="utf-8")
    # compile the bytecode cache once, so no sample's set-up pays for it
    subprocess.run([sys.executable, "-c", "import hermsig.cli"],
                   env=_child_env(), check=True, timeout=SESSION_CAP_S)

    budget = args.seconds / 2 if args.trace else args.seconds
    samples = collect(doc_path, budget)
    traced = collect(doc_path, budget, traced=True, min_samples=2) \
        if args.trace else []

    # untimed output check
    doc = parse_session(text)
    attempted, failed, problems = assess(doc, samples + traced)
    done = [s for s in samples + traced if not s.get("timed_out")]

    untimed = [s for s in samples if not s.get("timed_out")]
    digest = hashlib.sha256(done[0]["report"].encode()).hexdigest() if done else "-"
    print(f"workload={args.workload} seed={args.seed} records={len(doc.commands)} "
          f"samples={len(untimed)} traced_samples={len(traced)} "
          f"failed_ratio={failed / attempted:.4f} report_sha256={digest}")

    metrics = {}
    if not args.trace and untimed:
        session_s, ref_s = _median(untimed, "session_s"), _median(untimed, "ref_s")
        metrics["session_vs_ref"] = _metric(session_s / ref_s, "ratio")
        for key, unit in SAMPLE_UNITS.items():
            metrics[key] = _metric(_median(untimed, key), unit)
        print(f"median session_s={session_s:.4f} ref_s={ref_s:.4f}")
        for key in ("session_s", "ref_s"):
            print(f"{key} samples: " + " ".join(f"{s[key]:.3f}" for s in untimed))
    elif args.trace and untimed and traced and len(done) == len(samples + traced):
        per_sample = []
        for s in traced:
            spans = Spans.load(str(s["spans_path"]))
            per_sample.append(layer_metrics(spans))
            missing = (EXPECTED_TARGETS[args.workload]
                       | {f"cli.op.{c['op']}" for c in doc.commands}) \
                - called_targets(spans)
            if missing:
                problems.append(f"wrapped names with no call: {sorted(missing)}")
        for key in per_sample[0]:
            metrics[key] = _metric(statistics.median(m[key] for m in per_sample),
                                   _layer_unit(key))
        metrics["trace.overhead_ratio"] = _metric(
            _median(traced, "session_s") / _median(untimed, "session_s"), "ratio")

    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps({"correct": not problems and bool(metrics),
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
