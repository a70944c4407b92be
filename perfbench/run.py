#!/usr/bin/env python3
"""End-to-end benchmark of BlobSeer over real daemons.

Usage (from anywhere; paths are resolved from this file):

    python3 perfbench/run.py --workload <e1_stripe|append_small|vm_clone> \
        --seed <n> --seconds <s> --trace <0|1>

Builds the load generator and blobseer_serverd from this checkout into
.bench_build/perfbench (first run only), checks the generator's own
arithmetic (--selftest), then lets it spawn a manager daemon plus three
provider daemons on loopback, drive four closed-loop clients for the
measured phase and verify every byte read. Prints a human-readable report
(each metric with its unit and sample count, the daemon flags, build type,
compiler, nproc and commit) and, as the last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list. Exits non-zero on any verification mismatch,
daemon death, build failure or missing source tree.
"""

import argparse
import json
import multiprocessing
import os
import shutil
import signal
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_ROOT = os.path.join(ROOT, ".bench_work")
# e1_stripe keeps ~2.2 GB on disk at its peak (1 GiB of writes, replicated
# twice); leave headroom for the page cache to write it back.
MIN_FREE_BYTES = 4 << 30
# Wall time for all measurement attempts of one run (the build excluded).
RUN_BUDGET_S = 160
# The runs share a 4-vCPU guest whose hypervisor can lend its CPUs to
# other guests, in episodes that last minutes. A run during which more
# than STEAL_LIMIT of the CPU time was stolen measures the neighbours more
# than the program (throughput fell by a third at 8-10% steal), so the
# benchmark waits up to QUIET_WAIT_S for the host to calm down, measures
# once more with the same seed, and reports the attempt with less steal.
# The same rule applies on every commit.
STEAL_LIMIT = 0.02
MAX_ATTEMPTS = 2
QUIET_WAIT_S = 45


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def require_sources():
    """The benchmark builds the program from this checkout's sources."""
    needed = ["CMakeLists.txt", "src", os.path.join("tools", "blobseer_serverd.cpp"),
              "BENCHMARK.json"]
    missing = [p for p in needed if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        fail("source tree incomplete, missing: " + ", ".join(missing), code=2)


def build():
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    with open(log_path, "a") as log:
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            cmd = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                fail("cmake configure failed, see " + log_path)
        jobs = str(min(4, os.cpu_count() or 1))
        cmd = ["cmake", "--build", BUILD_DIR, "-j", jobs,
               "--target", "perfbench_gen", "blobseer_serverd"]
        if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
            with open(log_path) as f:
                sys.stderr.write(f.read()[-4000:])
            fail("build failed, see " + log_path)
    gen = os.path.join(BUILD_DIR, "perfbench_gen")
    serverd = os.path.join(BUILD_DIR, "blobseer", "blobseer_serverd")
    return gen, serverd


def build_record():
    cache = {}
    with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as f:
        for line in f:
            if "=" in line and ":" in line.split("=", 1)[0]:
                key, value = line.rstrip("\n").split("=", 1)
                cache[key.split(":", 1)[0]] = value
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True, timeout=10).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.SubprocessError):
        version = compiler
    try:
        commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                capture_output=True, text=True,
                                timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {
        "build_type": cache.get("CMAKE_BUILD_TYPE", "?"),
        "compiler": version,
        "nproc": str(os.cpu_count()),
        "commit": commit or "unknown (not a git checkout)",
    }


def stop_group(proc):
    """Kill whatever is left of the generator's process group (the daemons
    die with the generator; this is the backstop) and wait until it is gone."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)
    fail("processes of the run outlived it")


def cpu_times():
    try:
        with open("/proc/stat") as f:
            return [int(x) for x in f.readline().split()[1:]]
    except OSError:
        return []


def steal_share(before, after):
    """Share of CPU time stolen by the hypervisor between two readings."""
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / max(1, sum(delta)) if len(delta) > 7 else 0.0


def _spin(seconds):
    end = time.monotonic() + seconds
    while time.monotonic() < end:
        pass


def wait_for_quiet_host(deadline):
    """Until deadline, load every CPU for half a second at a time and
    return as soon as the hypervisor steals at most STEAL_LIMIT of it (an
    idle guest shows no steal, so the probe has to ask for CPU)."""
    while time.monotonic() < deadline:
        before = cpu_times()
        procs = [multiprocessing.Process(target=_spin, args=(0.5,))
                 for _ in range(os.cpu_count() or 1)]
        for p in procs:
            p.start()
        for p in procs:
            p.join()
        if steal_share(before, cpu_times()) <= STEAL_LIMIT:
            return
        time.sleep(2)


def run_generator(cmd, timeout):
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        stop_group(proc)
        fail("generator exceeded %d s" % timeout)
    code = proc.returncode
    stop_group(proc)
    lines = [l for l in out.splitlines() if l.strip()]
    if not lines:
        fail("generator printed nothing (exit code %d)" % code)
    try:
        return code, json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("generator output is not JSON: " + lines[-1][:400])


def fmt_metric(name, m):
    text = "  %-42s %16.4f %-6s" % (name, m["value"], m["unit"])
    if m["n"]:
        text += " n=%d" % m["n"]
        if name.endswith("_p95_us"):
            text += " beyond=%d%s" % (m["beyond"],
                                      " (thin tail)" if m["beyond"] < 10 else "")
    return text


def report_predictions(workload, layers):
    """Print whether the recorded per-layer profile still holds."""
    with open(os.path.join(BENCH_DIR, "predictions.json")) as f:
        predictions = json.load(f)[workload]
    compare = {"<": lambda a, b: a < b, "<=": lambda a, b: a <= b,
               "==": lambda a, b: a == b, ">=": lambda a, b: a >= b,
               ">": lambda a, b: a > b}
    print("predicted profile:")
    for name, op, bound, why in predictions:
        value = layers[name]["value"]
        verdict = "holds" if compare[op](value, bound) else "DOES NOT HOLD"
        print("  %-42s %s %g: %s (%.4g) -- %s" % (name, op, bound, verdict, value, why))


def main():
    require_sources()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    free = shutil.disk_usage(ROOT).free
    if free < MIN_FREE_BYTES:
        fail("only %.1f GiB free, the run needs %.1f GiB" % (free / 2**30, MIN_FREE_BYTES / 2**30))

    gen, serverd = build()
    if subprocess.call([gen, "--selftest"], stdout=sys.stderr) != 0:
        fail("generator self-test failed")

    work = os.path.join(WORK_ROOT, "%s-%d" % (args.workload, os.getpid()))
    attempts = []  # (steal, exit code, result)
    started = time.monotonic()
    while True:
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        cpu0 = cpu_times()
        t0 = time.monotonic()
        try:
            code, res = run_generator([gen, "--workload", args.workload,
                                       "--seed", str(args.seed),
                                       "--seconds", str(args.seconds),
                                       "--trace", str(args.trace),
                                       "--serverd", serverd, "--work", work],
                                      timeout=RUN_BUDGET_S - (time.monotonic() - started))
        finally:
            shutil.rmtree(work, ignore_errors=True)
            try:
                os.rmdir(WORK_ROOT)
            except OSError:
                pass
        steal = steal_share(cpu0, cpu_times())
        attempts.append((steal, code, res))
        failed = code != 0 or not res["correct"]
        took = time.monotonic() - t0
        if (failed or steal <= STEAL_LIMIT or len(attempts) >= MAX_ATTEMPTS
                or time.monotonic() - started + 1.5 * took > RUN_BUDGET_S):
            break
        wait_for_quiet_host(min(time.monotonic() + QUIET_WAIT_S,
                                started + RUN_BUDGET_S - 1.5 * took))
    # A failed attempt is reported as it is, never measured again.
    steal, code, res = attempts[-1] if failed else min(attempts, key=lambda a: a[0])
    record = build_record()
    record["host_cpu_steal"] = "%.3f (attempts: %s)" % (
        steal, ", ".join("%.3f" % a[0] for a in attempts))
    print("perfbench %s seed=%d seconds=%g trace=%d" % (args.workload, args.seed,
                                                        args.seconds, args.trace))
    for key in ("build_type", "compiler", "nproc", "commit", "host_cpu_steal"):
        print("  %-14s %s" % (key, record[key]))
    print("  %-14s %s" % ("manager flags", " ".join(res["manager_flags"])))
    print("  %-14s %s" % ("provider flags", " ".join(res["provider_flags"])))
    for key, value in sorted(res["info"].items()):
        print("  %-14s %s" % (key, value))
    print("end to end%s:" % (" (traced pass)" if args.trace else ""))
    for name, m in res["end_to_end"].items():
        print(fmt_metric(name, m))
    if res["per_layer"]:
        print("per layer:")
        for name, m in res["per_layer"].items():
            print(fmt_metric(name, m))
        report_predictions(args.workload, res["per_layer"])
    if res["error"]:
        print("ERROR: " + res["error"])

    if code != 0 or not res["correct"]:
        return 1
    section = "per_layer" if args.trace else "end_to_end"
    wanted = [m["name"] for m in spec[section]]
    missing = [n for n in wanted if n not in res[section]]
    if missing:
        fail("the generator reported no " + ", ".join(missing))
    metrics = {n: {"value": res[section][n]["value"], "unit": res[section][n]["unit"]}
               for n in wanted}
    print(json.dumps({"correct": True, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
