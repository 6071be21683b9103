#!/usr/bin/env python3
"""Wall-clock benchmark of the hetsort workspace.

Run from the repository root:

    python3 perfbench/run.py --workload ext_merge_uniform --seed 1 --seconds 30 --trace 0

Workloads:

* ``ext_merge_uniform`` -- ``extsort::polyphase_sort`` (what ``hetsort sort``
  runs) on real files: n = 2^25 uniform u32, M = 2^20, T = 8, 256 KiB blocks,
  ``--workers <nproc> --merge-workers auto``. 32 runs, four merge phases.
* ``ext_fit_zipf`` -- the same engine on n = 2^25 Zipf keys with M = n: one
  run, no merge pass.
* ``cluster_p16`` -- ``hetsort::run_trial`` (what ``hetsort cluster`` runs):
  p = 16, speeds {1,1,4,4} x 4, n = 2^24 uniform, 2^18 records of memory per
  node, in-memory disks, staged Algorithm 1, event runtime.

The script builds the ``perfbench`` package (``cargo build --release``, into
``$CARGO_TARGET_DIR``, default ``.bench_build``), then runs one child process
per unit of work so that each child's peak resident memory and CPU time come
from ``wait4``. Scratch files live under ``.bench_scratch`` at the repository
root and are removed at the end.

With ``--trace 0`` it repeats the workload's timed call for ``--seconds``
seconds, checks every output, and reports the end-to-end metrics as medians
over the repetitions. Set-up is input generation: each ``ext_*`` repetition
generates its input before the timed call; ``run_trial`` generates inside the
call, so ``cluster_p16`` times the same set-up in separate children.

With ``--trace 1`` it makes the same repetitions and then a traced run that
times the calls into each crate's public functions, and reports the
per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The lines before it
hold the provenance, the per-repetition figures and, with ``--trace 1``, the
spans and stage accounting.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ext_merge_uniform", "ext_fit_zipf", "cluster_p16")
# Wall-time budget of one invocation after the build, kept under the
# 180 s a run may take.
RUN_BUDGET_S = 165.0
# Repetitions of the timed call a run makes at least, whatever --seconds.
MIN_REPS = 3
# Set-ups the cluster workload times on their own per run (`run_trial`
# generates its inputs inside the timed call).
CLUSTER_SETUPS = 5
FLUSH_POLICY = "no fsync; the engine issues none"

# Per-layer metrics the traced child reports; it gives each its unit and
# says whether it is a directly timed stage, one derived by difference, a
# count or a model output.
LAYER_METRICS = (
    "workloads.gen_s",
    "pdm.read_gbs",
    "pdm.write_gbs",
    "pdm.blocks_read",
    "pdm.blocks_written",
    "pdm.random_reads",
    "pdm.files_created",
    "pdm.encode_gbs",
    "pdm.decode_gbs",
    "kernel.sort_mrec_s",
    "kernel.key_ops_per_rec",
    "run_formation.s",
    "run_formation.runs",
    "polyphase.merge_s",
    "polyphase.initial_runs",
    "polyphase.merge_phases",
    "merge.k7_mrec_s",
    "merge.k32_mrec_s",
    "loser_tree.k8_ns_per_rec",
    "parmerge.w1_mrec_s",
    "parmerge.w2_mrec_s",
    "parmerge.probe_reads",
    "planner.merge_workers",
    "verify.check_s",
    "core.local_sort_s",
    "core.partition_s",
    "core.pivot_s",
    "core.final_merge_s",
    "core.s_max",
    "cluster.virtual_makespan_s",
    "cluster.sent_bytes",
    "cluster.ring_rounds_per_s",
    "obs.trace_overhead_frac",
    "ref.incore_s",
    "ref.fs_read_gbs",
    "ref.fs_write_gbs",
)


class Failure(Exception):
    """The benchmark cannot produce a result (build failure, no sample)."""


def run_child(argv, deadline):
    """Runs one child to completion, killing it at ``deadline``.

    Returns (parsed JSON lines, exit code, rusage, wall seconds)."""
    start = time.monotonic()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, cwd=ROOT)
    timer = threading.Timer(max(deadline - start, 0.0), proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
    finally:
        _, status, rusage = os.wait4(proc.pid, 0)
        timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
    wall = time.monotonic() - start
    lines = []
    for line in out.decode(errors="replace").splitlines():
        try:
            lines.append(json.loads(line))
        except ValueError:
            pass
    return lines, proc.returncode, rusage, wall


def build():
    """Builds the benchmark binary and returns its path."""
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(HERE, "Cargo.toml")
    result = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        env=env,
        stdout=sys.stderr,
    )
    if result.returncode != 0:
        raise Failure(f"cargo build failed with code {result.returncode}")
    return os.path.join(target, "release", "perfbench")


def command_output(argv):
    try:
        return subprocess.run(argv, capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def source_digest():
    """SHA-256 over the sources the benchmark builds, for checkouts without git."""
    h = hashlib.sha256()
    files = [os.path.join(ROOT, "Cargo.toml"), os.path.join(ROOT, "Cargo.lock")]
    for top in ("crates", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            files.extend(os.path.join(dirpath, f) for f in sorted(filenames))
    for path in files:
        if os.path.isfile(path):
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def filesystem_of(path):
    """(fstype, source) of the mount holding ``path``, from /proc/mounts."""
    best = ("unknown", "unknown", "")
    path = os.path.realpath(path)
    try:
        with open("/proc/mounts") as f:
            for line in f:
                source, mount, fstype = line.split()[:3]
                inside = path == mount or path.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) >= len(best[2]):
                    best = (fstype, source, mount)
    except OSError:
        pass
    return {"type": best[0], "source": best[1], "mount": best[2]}


def provenance(args, scratch):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "rustc": command_output(["rustc", "--version"]),
        "git_rev": command_output(["git", "-C", ROOT, "rev-parse", "HEAD"]),
        "source_sha256": source_digest(),
        "kernel": platform.release(),
        "scratch_fs": filesystem_of(scratch),
        "flush_policy": FLUSH_POLICY,
    }


def ext_rep_ok(rep, ref):
    return (
        rep.get("sorted") is True
        and rep.get("permutation") is True
        and ref is not None
        and rep.get("digest") == ref.get("digest")
        and rep.get("records") == ref.get("records")
    )


def cluster_rep_ok(rep, _ref):
    return rep.get("verified") is True


def measure(binary, args, scratch, deadline):
    """Repeats the workload's timed call for ``args.seconds`` seconds."""
    ext = args.workload.startswith("ext_")
    common = ["--workload", args.workload, "--seed", str(args.seed), "--dir", scratch]
    ref = None
    if ext:
        lines, code, _, _ = run_child([binary, "ext-ref"] + common, deadline)
        ref = lines[-1] if code == 0 and lines else None
    setups = []
    for _ in range(0 if ext else CLUSTER_SETUPS):
        lines, code, _, _ = run_child([binary, "cluster-setup"] + common, deadline)
        if code != 0 or not lines:
            raise Failure(f"cluster set-up failed: {lines[-1] if lines else 'no output'}")
        setups.append(lines[-1]["setup_s"])
    ok_fn = ext_rep_ok if ext else cluster_rep_ok
    reps = []
    spent = 0.0
    while len(reps) < MIN_REPS or spent + statistics.median(r["wall"] for r in reps) <= args.seconds:
        if time.monotonic() >= deadline:
            break
        lines, code, rusage, wall = run_child(
            [binary, "ext-sort" if ext else "cluster"] + common, deadline
        )
        spent += wall
        rep = dict(lines[-1]) if lines else {}
        rep["wall"] = wall
        rep["ok"] = code == 0 and "sort_wall_s" in rep and ok_fn(rep, ref)
        rep["peak_rss_mb"] = rusage.ru_maxrss / 1024.0
        rep["cpu_s"] = rusage.ru_utime + rusage.ru_stime
        reps.append(rep)
        if ext and "setup_s" in rep:
            setups.append(rep["setup_s"])
    return reps, setups


def timed_reps(reps):
    timed = [r for r in reps if "sort_wall_s" in r]
    if not timed:
        raise Failure("no repetition produced a timing")
    return timed


def end_to_end(reps, setups):
    timed = timed_reps(reps)

    def med(key):
        return statistics.median(r[key] for r in timed)

    return {
        "sort_wall_s": {"value": med("sort_wall_s"), "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "io_bytes_per_input_byte": {
            "value": statistics.median(r["io_bytes"] / r["input_bytes"] for r in timed),
            "unit": "B/B",
        },
        "peak_rss_mb": {"value": med("peak_rss_mb"), "unit": "MB"},
    }


def per_layer(binary, args, scratch, reps, deadline):
    """The traced run: per-layer metrics plus the host and accounting rows."""
    argv = [binary, "layers", "--workload", args.workload, "--seed", str(args.seed),
            "--dir", scratch]
    lines, code, _, _ = run_child(argv, deadline)
    if code != 0:
        raise Failure(f"traced run failed: {lines[-1] if lines else 'no output'}")
    metrics, timing, checks, spans, stages = {}, {}, [], [], {}
    for line in lines:
        if "metric" in line:
            metrics[line["metric"]] = {"value": line["value"], "unit": line["unit"]}
            timing[line["metric"]] = line["timing"]
        elif "check" in line:
            checks.append(line)
        elif "span" in line:
            spans.append(line)
        elif "stages_timed_s" in line:
            stages = line
    missing = set(LAYER_METRICS) - set(metrics)
    if missing:
        raise Failure(f"traced run did not report {sorted(missing)}")

    timed = timed_reps(reps)
    wall = statistics.median(r["sort_wall_s"] for r in timed)
    metrics["host.cpu_per_wall"] = {
        "value": statistics.median(r["cpu_s"] / r["wall"] for r in timed),
        "unit": "ratio",
    }
    metrics["layers.unaccounted_frac"] = {
        "value": 1.0 - stages["stages_timed_s"] / wall,
        "unit": "ratio",
    }
    timing.update({"host.cpu_per_wall": "direct", "layers.unaccounted_frac": "derived"})
    detail = {
        "stage_timing": timing,
        "stages_timed_s": stages["stages_timed_s"],
        "sort_wall_s_median": wall,
        "spans": spans,
        "checks": checks,
    }
    return metrics, checks, detail


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        binary = build()
    except Failure as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_BUDGET_S
    scratch = os.path.join(ROOT, ".bench_scratch", f"run-{os.getpid()}")
    os.makedirs(scratch)
    try:
        print(json.dumps({"provenance": provenance(args, scratch)}))
        reps, setups = measure(binary, args, scratch, deadline)
        print(json.dumps({"repetitions": reps, "setup_s": setups}))
        attempted = len(reps)
        failed = sum(not r["ok"] for r in reps)
        if args.trace:
            metrics, checks, detail = per_layer(binary, args, scratch, reps, deadline)
            print(json.dumps({"trace": detail}))
            attempted += len(checks)
            failed += sum(not c["ok"] for c in checks)
        else:
            metrics = end_to_end(reps, setups)
    except Failure as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(scratch))
        except OSError:
            pass
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
