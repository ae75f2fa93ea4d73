"""Benchmark of the lm_infinite package, end to end and per layer.

    python3 benchmark/run.py --workload rope --seed 1 --seconds 50 --trace 0

Run from a source checkout: the package is imported from ``src/``. The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` they are the
per-layer ones from a traced run, and the spans are written to
``.bench_out/``. See NOTES.md beside this file for what each number means.

Load shape: one process, one stream, closed loop (each call starts when
the previous one returned), BLAS capped at one thread before numpy loads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import asdict
from pathlib import Path

import stats
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Each workload is named after the positional encoding of its model.
WORKLOADS = ("rope", "alibi")
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "LMINF_THREADS",
)
SETUP_PROBES = 5

# name -> unit, in the order BENCHMARK.json lists them
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "train_tok_s": "tok/s",
    "encode_tok_s_lambda": "tok/s",
    "encode_tok_s_vanilla": "tok/s",
    "diag_s": "s",
    "ttft_s_lambda": "s",
    "ttft_s_vanilla": "s",
    "decode_ms_p50_lambda": "ms",
    "decode_ms_p90_lambda": "ms",
    "decode_ms_p50_vanilla": "ms",
    "trunc_tok_s": "tok/s",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=50.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--setup-probe",
        action="store_true",
        help="only time one set-up in this process and print it (used by the run)",
    )
    return p.parse_args(argv)


def cap_threads():
    """Pin BLAS and friends to one thread; must run before numpy loads."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return {var: os.environ[var] for var in THREAD_VARS}


def process_threads():
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def metadata(args, caps, numpy_preloaded, sizes, inputs):
    import numpy as np
    import scipy

    import lm_infinite as lmi

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "configuration": blas.get("openblas configuration"),
        },
        "thread_caps": caps,
        "numpy_loaded_before_cap": numpy_preloaded,
        "process_threads": process_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "lm_infinite": lmi.__version__,
        "model_config": asdict(inputs.model.config),
        "sizes": {k: v for k, v in asdict(sizes).items() if k != "config"},
    }


def setup_probe(args):
    """One set-up in this fresh process, as the CLI pays it: imports included."""
    import workloads

    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        _, ok = workloads.setup(args.workload, args.seed, tmp)
    print(json.dumps({"ok": ok}))
    return 0


def timed_setups(args, timer, log):
    """Time SETUP_PROBES fresh set-up processes, start to exit, one after
    another, under ``setup_s`` in ``log``; return whether each was correct."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed),
    ]
    oks = []
    for _ in range(SETUP_PROBES):
        with timer.block(log, "setup_s", "small"):  # imports are interpreter-bound
            done = timer.timed(
                subprocess.run, cmd, capture_output=True, text=True, timeout=120, check=True
            )
        oks.append(json.loads(done.stdout.strip().splitlines()[-1])["ok"])
    timer.run_reference()
    return oks


def end_to_end(samples, sizes):
    """Round metrics (all but set-up and memory) from per-call seconds."""

    def median(name):
        return stats.median(samples[name])

    train_tokens = sizes.train_batch * sizes.config.train_len
    decode_ms = {m: [1e3 * s for s in samples[f"decode_s_{m}"]] for m in ("lambda", "vanilla")}
    return {
        "train_tok_s": train_tokens / median("train_s"),
        "encode_tok_s_lambda": sizes.encode_len / median("encode_s_lambda"),
        "encode_tok_s_vanilla": sizes.encode_len / median("encode_s_vanilla"),
        "diag_s": median("diag_s"),
        "ttft_s_lambda": median("ttft_s_lambda"),
        "ttft_s_vanilla": median("ttft_s_vanilla"),
        "decode_ms_p50_lambda": stats.percentile(decode_ms["lambda"], 50),
        "decode_ms_p90_lambda": stats.percentile(decode_ms["lambda"], 90),
        "decode_ms_p50_vanilla": stats.percentile(decode_ms["vanilla"], 50),
        "trunc_tok_s": sizes.trunc_gen / median("trunc_s"),
    }


def overhead(untraced, traced):
    """Per round metric: how much slower the traced rounds were, in %."""
    out = {}
    for name, base in untraced.items():
        if END_TO_END[name] == "tok/s":
            out[name] = 100.0 * (base / traced[name] - 1.0)
        else:
            out[name] = 100.0 * (traced[name] / base - 1.0)
    return out


def run_rounds(workloads, inputs, sizes, seconds, timer, patches):
    """Rounds until the next one would end past ``seconds``. With a span
    recorder, every second round is traced and logged apart."""
    logs = {False: workloads.RoundLog(), True: workloads.RoundLog()}
    min_rounds = 2
    durations = []
    start = time.perf_counter()
    r = 0
    with timer.probe_points():
        while True:
            timer.tracing = traced = timer.recorder is not None and r % 2 == 1
            begun = time.perf_counter()
            try:
                if traced:
                    with patches:
                        workloads.run_round(inputs, sizes, r, timer, logs[True])
                else:
                    workloads.run_round(inputs, sizes, r, timer, logs[False])
            except Exception:  # a failed round is counted, the run goes on
                traceback.print_exc(file=sys.stderr)
                logs[traced].tally.record(False)
            durations.append(time.perf_counter() - begun)
            r += 1
            elapsed = time.perf_counter() - start
            if r >= min_rounds and elapsed + sorted(durations)[len(durations) // 2] > seconds:
                return logs, r


def main(argv=None):
    args = parse_args(argv)
    numpy_preloaded = "numpy" in sys.modules
    caps = cap_threads()
    if not (SRC / "lm_infinite" / "__init__.py").is_file():
        print(f"benchmark: no package source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    if args.setup_probe:
        return setup_probe(args)

    import layers  # these two import numpy, which must follow cap_threads()
    import workloads

    sizes = workloads.Sizes()
    recorder = setup_recorder = patches = None
    if args.trace:
        setup_recorder = tracing.SpanRecorder()
        recorder = tracing.SpanRecorder()
        patches = layers.build_patches(recorder)
        setup_patches = layers.build_patches(setup_recorder)

    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        if args.trace:
            with setup_patches:
                setup_recorder.active = True
                inputs, setup_ok = workloads.setup(args.workload, args.seed, tmp, sizes)
                setup_recorder.active = False
        else:
            inputs, setup_ok = workloads.setup(args.workload, args.seed, tmp, sizes)
    timer = workloads.Timer(recorder)
    setup_log = workloads.RoundLog()
    probes = [] if args.trace else timed_setups(args, timer, setup_log)
    workloads.warmup(inputs, sizes)
    meta = metadata(args, caps, numpy_preloaded, sizes, inputs)
    print("meta " + json.dumps(meta))

    logs, n_rounds = run_rounds(workloads, inputs, sizes, args.seconds, timer, patches)
    print(f"reference kernel: {len(timer.references)} runs")
    tally = workloads.Tally()
    tally.record(setup_ok)
    for ok in probes:
        tally.record(ok)
    for log in logs.values():
        tally.attempted += log.tally.attempted
        tally.failed += log.tally.failed
    print(f"digest {logs[False].digest()}")
    print(f"rounds {n_rounds}")

    if args.trace:
        untraced = end_to_end(timer.scaled(logs[False]), sizes)
        traced = end_to_end(timer.scaled(logs[True]), sizes)
        slowdown = overhead(untraced, traced)
        n_traced = n_rounds // 2
        metrics = layers.per_layer_metrics(
            recorder, n_traced, setup_recorder, stats.median(list(slowdown.values()))
        )
        for name, base in untraced.items():
            print(
                f"traced {name} {traced[name]:.6g} untraced {base:.6g} "
                f"{END_TO_END[name]} overhead {slowdown[name]:+.2f}%"
            )
        for layer, seconds in layers.layer_table(recorder, n_traced).items():
            print(f"layer {layer} self {seconds:.6g} s/round")
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        recorder.write(
            trace_path,
            {
                "meta": meta,
                "missing_entry_points": patches.missing,
                "traced_rounds": n_traced,
                "overhead_pct": slowdown,
                "setup_spans": setup_recorder.spans,
            },
        )
        print(f"spans -> {trace_path}")
    else:
        wall = end_to_end(logs[False].samples, sizes)
        wall["setup_s"] = stats.median(setup_log.samples["setup_s"])
        for name, value in wall.items():
            print(f"wall {name} {value:.6g} {END_TO_END[name]}")
        values = end_to_end(timer.scaled(logs[False]), sizes)
        values["setup_s"] = stats.median(timer.scaled(setup_log)["setup_s"])
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
        for mode in ("lambda", "vanilla"):
            n = len(logs[False].samples[f"decode_s_{mode}"])
            print(
                f"decode {mode}: {n} steps, highest percentile with "
                f"{stats.MIN_BEYOND} beyond it: p{stats.highest_percentile(n):g}"
            )

    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
