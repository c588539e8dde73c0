"""lidartrack benchmark: one seeded workload per process, timed in CPU time.

    python3 perfbench/run.py --workload mv_dense --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

The workload's inputs are built from ``--seed`` alone.  The set-up is
repeated and timed, then whole tracking rounds run until ``--seconds`` of
wall time have passed; untraced, the rounds cover every noise variant of
the workload and at least ``MIN_FRAMES`` frames.
Every round is checked against the synthetic ground truth.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` alternates untraced and
traced rounds and reports the per-layer metrics plus the tracing overhead.
Lines starting with ``#`` are reference information; the last line is the
result as one JSON object.  ``--workload all`` runs every workload, each in
a fresh process.
"""
import os

# one BLAS/OpenMP thread, fixed before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import ctypes.util
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

SETUP_REPEATS = 9
MIN_FRAMES = 100   # so that ten samples lie beyond the 90th percentile
NAMES = ("mv_dense", "fbf_outliers", "cli_wide")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_all(args) -> int:
    worst = 0
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        print(f"# workload {name}", flush=True)
        worst = max(worst, subprocess.run(cmd, check=False).returncode)
    return worst


# glibc mallopt parameters, fixed so that page faults do not depend on the
# heap's history.  Left dynamic, glibc maps a large block afresh or reuses
# heap memory depending on what was freed before, and the occlusion filter's
# full-image temporaries at 960x320 took anywhere from 7.1 M to 11.2 M minor
# faults per 60-frame cli_wide round for the same work.  With these values
# every workload keeps the faults it takes under the default policy at its
# worst: none for the per-image arrays of the 240x80 and 480x160 cameras
# (153 KB and 614 KB, kept on the heap, which is never trimmed), and one
# fresh mapping per 2.4 MB temporary at 960x320.
MALLOPT = {"M_TRIM_THRESHOLD": (-1, 64 << 20), "M_MMAP_THRESHOLD": (-3, 1 << 20)}


def pin_malloc() -> str:
    try:
        libc = ctypes.CDLL(ctypes.util.find_library("c"))
        libc.mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
        libc.mallopt.restype = ctypes.c_int
    except (OSError, AttributeError):
        return "malloc=default"
    return " ".join(f"{name}={value if libc.mallopt(param, value) == 1 else 'default'}"
                    for name, (param, value) in MALLOPT.items())


def host_line(np, malloc) -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return (f"# host: nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={np.__version__} blas={blas} OPENBLAS_NUM_THREADS=1 {malloc}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not (SRC / "lidartrack").is_dir():
        print(f"no lidartrack sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # the checkout's sources, never an installed copy
    malloc = pin_malloc()

    import numpy as np
    from lidartrack.tracker import Tracker
    from tracing import StepTimer, Tracer, layer_metrics
    from workloads import WORKLOADS

    def percentile(values, q):
        return float(np.percentile(values, q)) if values else 0.0

    print(host_line(np, malloc))
    work_dir = OUT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    wl = WORKLOADS[args.workload](args.seed, work_dir)
    tracer = Tracer() if args.trace else None
    timer = StepTimer(Tracker, wl.step_method, tracer)
    problems = []
    try:
        # set-up, repeated; every repeat must build the same inputs
        if tracer is not None:
            tracer.enable()
        setup_cpu, digests = [], set()
        for _ in range(SETUP_REPEATS):
            c0 = time.process_time()
            wl.setup()
            setup_cpu.append(time.process_time() - c0)
            digests.add(wl.inputs_digest())
        if len(digests) != 1:
            problems.append("set-up built different inputs from the same seed")
        if tracer is not None:
            tracer.disable()
            tracer.phase = "loop"

        # whole rounds until the time is up.  Untraced, rounds cycle through
        # the workload's variants; traced, each variant runs twice in a row,
        # untraced then traced, so the overhead compares identical work.
        timer.install()
        rounds, round_cpu, round_wall = 0, 0.0, 0.0
        plain_faults, plain_sys, plain_cpu = 0, 0.0, 0.0   # untraced rounds only
        failed_steps = commands = failed_commands = traced_commands = 0
        firsts = {}   # variant -> its first round
        deadline = time.perf_counter() + args.seconds
        while True:
            traced = tracer is not None and rounds % 2 == 1
            variant = (rounds // 2 if tracer is not None else rounds) % wl.variants
            if traced:
                tracer.enable()
            before = timer.succeeded
            ru0 = resource.getrusage(resource.RUSAGE_SELF)
            w0, c0 = time.perf_counter(), time.process_time()
            raw = wl.run_round(variant)
            c1, w1 = time.process_time(), time.perf_counter()
            ru1 = resource.getrusage(resource.RUSAGE_SELF)
            if traced:
                tracer.disable()
            else:
                plain_faults += ru1.ru_minflt - ru0.ru_minflt
                plain_sys += ru1.ru_stime - ru0.ru_stime
                plain_cpu += c1 - c0
            res = wl.outcome(raw)
            rounds += 1
            round_cpu += c1 - c0
            round_wall += w1 - w0
            failed_steps += wl.planned_steps - (timer.succeeded - before)
            commands += res.commands
            traced_commands += res.commands if traced else 0
            failed_commands += res.failed_commands
            problems += wl.check(res, firsts[variant].digest if variant in firsts else None)
            firsts.setdefault(variant, res)
            if tracer is not None:
                done = rounds % 2 == 0   # whole untraced/traced pairs
            else:
                done = rounds >= wl.variants and len(timer.cpu_ms) >= MIN_FRAMES
            if done and time.perf_counter() >= deadline:
                break
        timer.uninstall()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    steps = rounds * wl.planned_steps
    attempted = steps + commands + SETUP_REPEATS * wl.setup_commands
    failed = failed_steps + failed_commands + wl.failed_setup_commands
    cpu, wall = timer.cpu_ms, timer.wall_ms
    ran = [firsts[v] for v in sorted(firsts)]
    digest = hashlib.sha256("".join(r.digest for r in ran).encode()).hexdigest()
    print(f"# trajectory_sha256 over {len(ran)} of {wl.variants} variants: {digest}")
    if wl.outages:
        print(f"# scripted outage frames: centre RMSE {wl.ate_cm(ran, outage=True):.4f} cm "
              f"(not part of ate_cm)")
    print(f"# rounds={rounds} frames={len(cpu)} steps_planned={steps} "
          f"commands={commands + SETUP_REPEATS * wl.setup_commands}")
    print(f"# wall (reference only): frame_wall_ms_p50={percentile(wall, 50):.4f} "
          f"frame_wall_ms_p90={percentile(wall, 90):.4f} "
          f"cpu/wall={round_cpu / round_wall:.4f}")

    if tracer is None:
        metrics = {
            "frame_cpu_ms_p50": {"value": percentile(cpu, 50), "unit": "ms"},
            "frame_cpu_ms_p90": {"value": percentile(cpu, 90), "unit": "ms"},
            "frames_per_cpu_s": {"value": len(cpu) / round_cpu, "unit": "1/s"},
            "setup_s": {"value": statistics.median(setup_cpu), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
            "ate_cm": {"value": wl.ate_cm(ran), "unit": "cm"},
        }
    else:
        traced_ms = [t for t, on in zip(cpu, timer.traced) if on]
        plain_ms = [t for t, on in zip(cpu, timer.traced) if not on]
        metrics, check = layer_metrics(tracer, SETUP_REPEATS, traced_commands,
                                       percentile(traced_ms, 50) - percentile(plain_ms, 50))
        plain_frames = max(len(plain_ms), 1)
        metrics["process.minor_faults"] = {"value": plain_faults / plain_frames,
                                           "unit": "faults/frame"}
        metrics["process.sys_cpu_share"] = {"value": plain_sys / plain_cpu, "unit": "ratio"}
        if check["residual_s"] > 1e-9 or check["min_self_s"] < -1e-9:
            problems.append(f"layer self times do not add up to the step times: {check}")
        layers = " ".join(f"{k}={v:.4f}" for k, v in check["layers_ms_per_frame"].items())
        print(f"# traced frames={check['frames']} self ms/frame: {layers} "
              f"sum={sum(check['layers_ms_per_frame'].values()):.4f} "
              f"step={check['step_ms_per_frame']:.4f}")
        OUT.mkdir(parents=True, exist_ok=True)
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.dump(trace_path)
        print(f"# spans written to {trace_path.relative_to(HERE.parent)}")

    for p in problems:
        print(f"# CHECK FAILED: {p}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
