#!/usr/bin/env python3
"""Build and run the zam layer ledger.

    python3 perfbench/run.py --workload login_attack --seed 1 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run from the root of a zam checkout. The first run configures and builds
the zam libraries and the zam_ledger program (perfbench/CMakeLists.txt) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when it is unset;
later runs rebuild only what changed. Build output goes to stderr.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
and writes the spans of the first traced requests next to the binary
(spans-<workload>.jsonl); the last line of stdout is one JSON object either
way. The exit code is
nonzero when the build fails or any oracle or digest check fails.

--workload all runs every workload, untraced and traced, prints every
metric and the cross-workload layer-separation checks, and ends with one
JSON object whose metric names are prefixed by the workload.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ["login_attack", "rsa_decrypt", "corpus_observed"]
RUN_TIMEOUT_S = 170


def fail(msg):
    print("error: " + msg, file=sys.stderr)
    sys.exit(2)


def build(root):
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("zam sources (src/) not found next to perfbench/; run from a "
             "zam checkout")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, target, "perfbench")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"), "-B",
                      build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build step failed: " + " ".join(cmd))
    return os.path.join(build_dir, "zam_ledger")


def run_one(binary, root, workload, seed, seconds, trace):
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds",
           str(seconds), "--trace", str(trace), "--expected",
           os.path.join(root, "perfbench", "expected_digests.txt")]
    if trace:
        cmd += ["--spans", os.path.join(os.path.dirname(binary),
                                        "spans-%s.jsonl" % workload)]
    try:
        proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    lines = proc.stdout.splitlines()
    print("\n".join(lines[:-1]))
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    if result is None:
        fail("%s printed no result (exit %d)" % (workload, proc.returncode))
    return proc.returncode, result


def run_all(binary, root, seed, seconds):
    """Every workload, untraced and traced, plus the separation checks."""
    code, total = 0, {"correct": True, "attempted": 0, "failed": 0,
                      "metrics": {}}
    layers = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            print("== %s trace=%d" % (workload, trace))
            rc, res = run_one(binary, root, workload, seed, seconds, trace)
            code = code or rc
            total["correct"] = total["correct"] and res["correct"]
            total["attempted"] += res["attempted"]
            total["failed"] += res["failed"]
            for name, m in res["metrics"].items():
                total["metrics"][workload + "." + name] = m
            if trace:
                layers[workload] = {k: v["value"]
                                    for k, v in res["metrics"].items()}
    print("== layer separation")
    # Expected order, highest share first: per-run set-up weighs most on
    # login_attack and least on rsa_decrypt; the hardware model weighs most
    # on rsa_decrypt, then login_attack.
    for key, expected in (
            ("compile.share",
             ["login_attack", "corpus_observed", "rsa_decrypt"]),
            ("hw.share", ["rsa_decrypt", "login_attack", "corpus_observed"])):
        ranked = sorted(WORKLOADS, key=lambda w: -layers[w][key])
        print("%s: %s -> %s" % (
            key, ", ".join("%s %.4f" % (w, layers[w][key]) for w in ranked),
            "separated as expected" if ranked == expected else
            "NOT separated as expected (%s)" % " > ".join(expected)))
    for layer in ("frontend", "obs"):
        key = layer + ".self_share"
        others = [w for w in WORKLOADS if w != "corpus_observed"]
        worst = max(layers[w][key] for w in others)
        print("%s: corpus_observed %.4f, elsewhere at most %.4f: %s" %
              (key, layers["corpus_observed"][key], worst,
               "separated" if worst < 0.05 and
               worst < layers["corpus_observed"][key] else
               "NOT separated"))
    print(json.dumps(total))
    return code


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    binary = build(root)
    sys.stdout.flush()
    if args.workload == "all":
        return run_all(binary, root, args.seed, args.seconds)
    code, res = run_one(binary, root, args.workload, args.seed, args.seconds,
                        args.trace)
    print(json.dumps(res))
    return code


if __name__ == "__main__":
    sys.exit(main())
