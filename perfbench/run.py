#!/usr/bin/env python3
"""The corechase benchmark.

Run from the root of a corechase checkout:

    python3 perfbench/run.py --workload paper-core --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

A run builds the benchmark program and the corechase CLI from source
with dune, runs one workload for --seconds seconds and prints, as the
last line of its standard output, one JSON object with the keys
correct, attempted, failed and metrics.  --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones.
Scratch files live in a temporary directory under .perfbench-tmp/ that
is removed on exit; the traced run's spans are written to
.perfbench-out/<workload>.spans.jsonl.

--self-test runs every workload at a tiny size, traced and untraced,
and checks that every metric of BENCHMARK.json is emitted with its
unit, that every output check passes, and that the traced counts of
the two deterministic workloads repeat across two runs.

See perfbench/README.md for the workloads and metrics.
"""

import argparse
import glob
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile

WORKLOADS = ["paper-core", "datalog-durable", "serve-mixed"]
BENCH_EXE = "_build/default/perfbench/corebench.exe"
CLI_EXE = "_build/default/bin/corechase_cli.exe"
BUILD_TIMEOUT_S = 850
# Per-layer metrics with these units are counts that must repeat
# exactly across two traced runs with the same seed.
COUNT_UNITS = {"count", "words"}
DETERMINISTIC = ["paper-core", "datalog-durable"]


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def find_dune():
    dune = shutil.which("dune")
    if dune is None:
        found = sorted(glob.glob(os.path.expanduser("~/.opam/*/bin/dune")))
        dune = found[-1] if found else None
    if dune is None:
        die("dune not found")
    return dune


def check_checkout():
    for path in ["dune-project", "lib", "bin", "perfbench/dune", "BENCHMARK.json"]:
        if not os.path.exists(path):
            die(f"not the root of a corechase checkout: {path} is missing")


def build():
    dune = find_dune()
    env = dict(os.environ)
    env["PATH"] = os.path.dirname(dune) + os.pathsep + env.get("PATH", "")
    # dune's shared cache lives outside the checkout
    env["DUNE_CACHE"] = "disabled"
    cmd = [dune, "build", "--root", ".", "./perfbench/corebench.exe", "./bin/corechase_cli.exe"]
    try:
        r = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("build timed out")
    if r.returncode != 0 or not os.path.exists(BENCH_EXE):
        die("build failed")


def run_program(workload, seed, seconds, trace, tiny=False):
    """Run one workload; return (exit code, stdout text)."""
    os.makedirs(".perfbench-tmp", exist_ok=True)
    os.makedirs(".perfbench-out", exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=".perfbench-tmp")
    cmd = [BENCH_EXE, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--tmp", tmp,
           "--out", ".perfbench-out", "--cli", CLI_EXE]
    if tiny:
        cmd.append("--tiny")
    # its own process group, so the daemon it starts goes down with it
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=seconds + 120)
    except BaseException:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        raise
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(".perfbench-tmp")
        except OSError:
            pass
    return proc.returncode, out


def result_line(out):
    lines = [l for l in out.splitlines() if l.strip()]
    if not lines:
        return None
    try:
        res = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    if not isinstance(res, dict) or set(res) != {"correct", "attempted", "failed", "metrics"}:
        return None
    return res


def self_test():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    errors = []
    counts = {}
    for workload in WORKLOADS:
        for trace, key in [(0, "end_to_end"), (1, "per_layer")]:
            runs = 2 if trace == 1 and workload in DETERMINISTIC else 1
            for n in range(runs):
                before = len(errors)
                code, out = run_program(workload, 1, 1, trace, tiny=True)
                res = result_line(out)
                tag = f"{workload} trace={trace} run {n + 1}"
                if code != 0 or res is None:
                    errors.append(f"{tag}: exit {code}, no result line")
                    continue
                if not res["correct"] or res["failed"] != 0 or res["attempted"] < 1:
                    errors.append(f"{tag}: correct={res['correct']} failed={res['failed']} "
                                  f"attempted={res['attempted']}")
                    errors += [f"  {l}" for l in out.splitlines() if l.startswith("FAILED")]
                want = {m["name"]: m["unit"] for m in spec[key]}
                got = {k: v.get("unit") for k, v in res["metrics"].items()}
                if got != want:
                    errors.append(f"{tag}: metrics/units differ from BENCHMARK.json {key}: "
                                  f"missing {sorted(set(want) - set(got))}, "
                                  f"extra {sorted(set(got) - set(want))}, "
                                  f"wrong unit {sorted(k for k in want if k in got and got[k] != want[k])}")
                if trace == 1 and workload in DETERMINISTIC:
                    counts.setdefault(workload, []).append(
                        {k: v["value"] for k, v in res["metrics"].items()
                         if v.get("unit") in COUNT_UNITS})
                print(f"self-test: {tag}: {'ok' if len(errors) == before else 'FAILED'}",
                      file=sys.stderr)
    for workload, runs in counts.items():
        if len(runs) == 2 and runs[0] != runs[1]:
            diff = sorted(k for k in runs[0] if runs[0][k] != runs[1].get(k))
            errors.append(f"{workload}: traced counts differ between two runs: {diff}")
    for e in errors:
        print(f"self-test: FAIL {e}", file=sys.stderr)
    print("self-test: " + ("FAILED" if errors else "passed"))
    return 1 if errors else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")
    # a SIGTERM unwinds through the finally blocks like Ctrl-C does
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    check_checkout()
    build()
    if args.self_test:
        sys.exit(self_test())
    code, out = run_program(args.workload, args.seed, args.seconds, args.trace)
    if code != 0 or result_line(out) is None:
        sys.stderr.write(out)
        die(f"benchmark program failed (exit {code})")
    sys.stdout.write(out)


if __name__ == "__main__":
    main()
