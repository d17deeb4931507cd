#!/usr/bin/env python3
"""The repository benchmark: build, run one workload, check, report.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest
    python3 perfbench/run.py --compare OLD.log NEW.log

Run from the repository root. The first run builds perfbench/ (and the
library under src/) into $CARGO_TARGET_DIR, or .bench_build when that is
unset, and runs the reference checks' self-test. Each run then executes the
perfbench binary, whose last stdout line is the result:

    {"correct": .., "attempted": .., "failed": .., "metrics": {..}}

This script also
  * checks the metric names against BENCHMARK.json (end_to_end for
    --trace 0, per_layer for --trace 1);
  * compares the run's deterministic per-op records and counts with the
    previous run of the same workload, seed and trace flag, and marks the
    result incorrect when they disagree (a drifting count is a benchmark
    bug, not noise);
  * for a traced run, prints the tracing overhead against the last untraced
    run of the same seed.
Comparisons of records or metrics across host fingerprints are refused.
"""
import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("explore-table", "explore-compiled", "trials", "service")


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "perfbench")


def build():
    """Configures and builds the perfbench binary; returns its path."""
    out = build_dir()
    binary = os.path.join(out, "perfbench")
    before = os.path.getmtime(binary) if os.path.exists(binary) else None
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cfg = subprocess.run(
            ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, stderr=sys.stderr)
        if cfg.returncode != 0:
            sys.exit("perfbench: cmake configure failed")
    made = subprocess.run(
        ["cmake", "--build", out, "-j", str(os.cpu_count() or 1)],
        stdout=sys.stderr, stderr=sys.stderr)
    if made.returncode != 0 or not os.path.exists(binary):
        sys.exit("perfbench: build failed")
    if before != os.path.getmtime(binary):
        # A fresh binary: prove the reference checks still catch wrong answers.
        test = subprocess.run([binary, "--selftest"], capture_output=True,
                              text=True)
        if test.returncode != 0:
            sys.stderr.write(test.stderr + test.stdout)
            sys.exit("perfbench: self-test of the reference checks failed")
    return binary


def state_path(name):
    d = os.path.join(os.path.dirname(build_dir()), "perfbench-state")
    os.makedirs(d, exist_ok=True)
    return os.path.join(d, name)


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError):
        return None


def compare_records(old, new):
    """Problems found comparing two runs' records; [] when they agree."""
    if old is None:
        return []
    if old.get("fingerprint") != new.get("fingerprint"):
        log("earlier records come from another host fingerprint; not compared")
        return []
    problems = []
    if old.get("counts") != new.get("counts"):
        problems.append(f"counts differ: {old.get('counts')} vs {new.get('counts')}")
    for stream, items in new.get("records", {}).items():
        before = old.get("records", {}).get(stream, [])
        for i, (a, b) in enumerate(zip(before, items)):
            if a != b:
                problems.append(f"{stream}[{i}] differs: {a} vs {b}")
                break
    return problems


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {m["name"] for m in bench["per_layer" if trace else "end_to_end"]}


def overhead(traced, untraced):
    """Relative change of each end-to-end metric with tracing on."""
    return {name: round(traced[name]["value"] / m["value"] - 1.0, 4)
            for name, m in untraced.items()
            if name in traced and m["value"]}


def run(args):
    binary = build()
    # State is kept per binary: another build is another program.
    digest = hashlib.sha256()
    with open(binary, "rb") as f:
        for block in iter(lambda: f.read(1 << 16), b""):
            digest.update(block)
    program = digest.hexdigest()[:12]
    key = f"{program}-{args.workload}-{args.seed}-{args.trace}"
    records = state_path(f"records-{key}.json")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--records", records + ".new"]
    if args.trace:
        cmd += ["--spans", state_path(f"spans-{args.workload}-{args.seed}.json")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"perfbench: the benchmark binary exited with {proc.returncode}")
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    summary = next((json.loads(l.split(" ", 2)[2]) for l in lines
                    if l.startswith("perfbench summary ")), {})

    problems = []
    names = set(result["metrics"])
    want = expected_metrics(args.trace)
    if names != want:
        problems.append(f"metric names {sorted(names ^ want)} disagree with BENCHMARK.json")
    new = load_json(records + ".new")
    problems += compare_records(load_json(records), new)
    os.replace(records + ".new", records)

    e2e_path = state_path(f"e2e-{program}-{args.workload}-{args.seed}.json")
    if args.trace:
        untraced = load_json(e2e_path)
        if untraced and untraced["fingerprint"] == new["fingerprint"]:
            print("perfbench tracing-overhead " + json.dumps(
                overhead(summary.get("end_to_end", {}), untraced["metrics"])))
        else:
            log("no untraced run of this seed with this fingerprint yet; "
                "tracing overhead not reported")
    else:
        with open(e2e_path, "w") as f:
            json.dump({"fingerprint": new["fingerprint"],
                       "metrics": result["metrics"]}, f)

    for p in problems:
        log("check failed: " + p)
    if problems:
        result["correct"] = False
    print(json.dumps(result))


def parse_log(path):
    """(fingerprints, {metric: [values]}) from saved benchmark output."""
    fingerprints, values = set(), {}
    with open(path) as f:
        for line in f:
            if line.startswith("perfbench fingerprint "):
                fingerprints.add(line.split(" ", 2)[2].strip())
            elif line.startswith('{"correct"'):
                for name, m in json.loads(line)["metrics"].items():
                    values.setdefault(name, []).append(m["value"])
    return fingerprints, values


def compare(old_path, new_path):
    old_fp, old = parse_log(old_path)
    new_fp, new = parse_log(new_path)
    if len(old_fp) != 1 or old_fp != new_fp:
        sys.exit("perfbench: refusing to compare runs from different host "
                 f"fingerprints: {sorted(old_fp)} vs {sorted(new_fp)}")
    for name in sorted(set(old) & set(new)):
        a, b = statistics.median(old[name]), statistics.median(new[name])
        change = (b / a - 1.0) if a else float("nan")
        print(f"{name:36s} {a:14.6g} -> {b:14.6g}  {change:+.2%}  "
              f"(n={len(old[name])}/{len(new[name])})")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true")
    p.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = p.parse_args()
    if args.compare:
        compare(*args.compare)
    elif args.selftest:
        sys.exit(subprocess.run([build(), "--selftest"]).returncode)
    elif args.workload:
        run(args)
    else:
        p.error("--workload, --selftest or --compare is required")


if __name__ == "__main__":
    main()
