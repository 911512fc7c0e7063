#!/usr/bin/env python3
"""Build and run the end-to-end benchmark from a checkout of this repository.

One run (the result is the last line of standard output):
  python3 bench/e2e/run.py --workload NAME --seed N --seconds T --trace 0|1

Several runs, appended one JSON line each to FILE:
  python3 bench/e2e/run.py --sweep --seeds 1-10 [--workloads a,b,...]
                           [--seconds T] [--trace 0|1] --out FILE

Medians, quartile spread and regressions of two sweeps, judged against the
bounds in BENCHMARK.json (one file: its spread alone):
  python3 bench/e2e/run.py --compare A.jsonl [B.jsonl]

The build (the repository as a CMake subproject of bench/e2e) and every
scratch file live under .bench_build/ at the root of the checkout.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / ".bench_build" / "e2e"
BENCH = BUILD / "icgmm_bench"
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise SystemExit("run.py: the repository sources are not next to bench/e2e")
    BUILD.mkdir(parents=True, exist_ok=True)
    if not (BUILD / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD), *generator,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs,
                    "--target", "icgmm_bench"], stdout=sys.stderr, check=True)


def run_once(workload, seed, seconds, trace):
    """Runs icgmm_bench once; returns (exit code, stdout)."""
    cmd = [str(BENCH), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    if trace:
        cmd += ["--traced", "--spans", str(BUILD / f"spans-{workload}-{seed}.json")]
    # Its own process group, so a timeout takes the daemon down with it.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"run.py: {workload} seed {seed} timed out")
    return proc.returncode, out


def result_line(out):
    lines = [line for line in out.splitlines() if line.strip()]
    return json.loads(lines[-1]) if lines else None


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def sweep(args):
    names = args.workloads.split(",") if args.workloads else [
        w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    with open(args.out, "a") as out:
        for seed in parse_seeds(args.seeds):
            for name in names:
                code, text = run_once(name, seed, args.seconds, args.trace)
                result = result_line(text)
                log(f"{name} seed {seed}: exit {code}, correct "
                    f"{result and result['correct']}")
                out.write(json.dumps({"workload": name, "seed": seed,
                                      "trace": args.trace, "result": result}) + "\n")
                out.flush()


def load_runs(path):
    runs = {}
    for line in Path(path).read_text().splitlines():
        rec = json.loads(line)
        if rec["trace"] or not rec["result"]:
            continue
        for metric, m in rec["result"]["metrics"].items():
            runs.setdefault((rec["workload"], metric), []).append(m["value"])
    return runs


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return med, (q3 - q1) / med if med else 0.0


def compare(paths):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sides = [load_runs(p) for p in paths]
    workloads = sorted({w for side in sides for (w, _) in side})
    regressions = 0
    header = f"{'workload':20} {'metric':18} {'bound':>6}"
    for i in range(len(paths)):
        header += f" {'median ' + 'AB'[i]:>12} {'spread ' + 'AB'[i]:>9}"
    print(header + ("   delta  verdict" if len(paths) == 2 else "  verdict"))
    for w in workloads:
        for m in spec["end_to_end"]:
            cells = [side.get((w, m["name"])) for side in sides]
            if not all(cells):
                continue
            stats = [summary(c) for c in cells]
            row = f"{w:20} {m['name']:18} {m['bound']:6.3f}"
            for med, spread in stats:
                row += f" {med:12.5g} {spread:9.2%}"
            # The setup_s spread is not held to its bound (it measures
            # process starts); every other spread must sit within it.
            unresolved = any(spread > m["bound"] for _, spread in stats) \
                and m["name"] != "setup_s"
            if len(paths) == 1:
                verdict = "unresolved" if unresolved else (
                    "ok" if stats[0][1] <= m["bound"] / 3 else "ok (spread > bound/3)")
            else:
                (a, _), (b, _) = stats
                change = (b - a) / a if a else 0.0
                worse = change if m["better"] == "lower" else -change
                row += f" {change:+7.2%}"
                if worse > m["bound"]:
                    verdict = "REGRESSION"
                    regressions += 1
                else:
                    verdict = "unresolved" if unresolved else "ok"
            print(f"{row}  {verdict}")
    return 1 if regressions else 0


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=35)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--sweep", action="store_true")
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--workloads")
    p.add_argument("--out")
    p.add_argument("--compare", nargs="+", metavar="RUNS")
    args = p.parse_args()

    if args.compare:
        if len(args.compare) > 2:
            p.error("--compare takes one or two files")
        return compare(args.compare)
    build()
    if args.sweep:
        if not args.out:
            p.error("--sweep needs --out")
        sweep(args)
        return 0
    if not args.workload:
        p.error("--workload is required")
    code, out = run_once(args.workload, args.seed, args.seconds, args.trace)
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
