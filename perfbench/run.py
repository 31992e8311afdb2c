#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root.  Builds perfbench/bench.exe with dune,
runs the workload in a fresh process (plus the layer probes in another
when --trace 1), and prints a readable report followed, as the last
line of stdout, by one JSON object with the keys correct, attempted,
failed and metrics.  The metric names come from BENCHMARK.json:
end_to_end ones with --trace 0, per_layer ones with --trace 1.
See perfbench/README.md.
"""

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
SPANS_DIR = os.path.join(HERE, "out")
WORKLOADS = ("kernels", "wire", "resident", "service")

# Ambient configuration the program would otherwise pick up: a backend
# override and the auto-mapping file.  The workloads pin their context,
# so these are recorded and removed before the program starts.
AMBIENT = ("TRIOLET_BACKEND", "TRIOLET_MAPPINGS")

# Seconds a run may take once built; the limit is 180.
RUN_BUDGET = 170.0
BUILD_TIMEOUT = 850.0


def die(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[1].strip())
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = p.parse_args()
    if not a.seconds > 0:
        p.error("--seconds must be positive")
    return a


def clean_env():
    env = dict(os.environ)
    overridden = {k: env.pop(k) for k in AMBIENT if k in env}
    # Keep dune's outputs inside the checkout.
    env["DUNE_CACHE"] = "disabled"
    return env, overridden


def run_child(cmd, env, timeout):
    """Run cmd in its own process group; kill the group on timeout."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        die("%s did not finish within %.0f s" % (" ".join(cmd[:3]), timeout))
    return proc.returncode, out


def build(env):
    dune = shutil.which("dune", path=env.get("PATH"))
    opam = shutil.which("opam", path=env.get("PATH"))
    if dune is not None:
        prefix = [dune]
    elif opam is not None:
        prefix = [opam, "exec", "--", "dune"]
    else:
        die("neither dune nor opam is on PATH")
    cmd = prefix + ["build", "--root", ROOT, "./perfbench/bench.exe"]
    code, out = run_child(cmd, env, BUILD_TIMEOUT)
    if out:
        sys.stderr.write(out)
    if code != 0 or not os.path.isfile(EXE):
        die("build failed (%s exited %d)" % (" ".join(cmd), code))


def phase(args, env, deadline):
    code, out = run_child([EXE] + args, env, max(1.0, deadline - time.monotonic()))
    lines = [l for l in out.splitlines() if l.strip()]
    if code != 0 or not lines:
        die("bench.exe %s exited %d without a result" % (args[0], code))
    try:
        return json.loads(lines[-1])
    except ValueError:
        die("bench.exe %s printed no JSON result" % args[0])


def main():
    a = parse_args()
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        die("no Triolet source tree (dune-project, lib/) around %s" % HERE, 2)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    env, overridden = clean_env()
    build(env)

    deadline = time.monotonic() + RUN_BUDGET
    common = ["--workload", a.workload, "--seed", str(a.seed),
              "--seconds", repr(a.seconds)]
    if a.trace:
        os.makedirs(SPANS_DIR, exist_ok=True)
        spans = os.path.join(SPANS_DIR, "spans-%s-%d.json" % (a.workload, a.seed))
        results = [phase(["run"] + common + ["--trace", "--spans", spans], env, deadline),
                   phase(["probe", "--seed", str(a.seed)], env, deadline)]
        wanted = spec["per_layer"]
    else:
        results = [phase(["run"] + common, env, deadline)]
        wanted = spec["end_to_end"]

    measured = {}
    for r in results:
        measured.update(r["metrics"])
    attempted = sum(int(r["attempted"]) for r in results)
    failed = sum(int(r["failed"]) for r in results)
    metrics = {}
    for m in wanted:
        got = measured.get(m["name"])
        if got is None or not math.isfinite(got["value"]):
            die("metric %s was not measured" % m["name"])
        if got["unit"] != m["unit"]:
            die("metric %s measured in %s, declared in %s"
                % (m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}

    w = results[0]
    print("perfbench workload=%s seed=%d seconds=%g trace=%d"
          % (a.workload, a.seed, a.seconds, a.trace))
    print("context: " + " ".join("%s=%s" % kv for kv in w["ctx"].items()))
    for k, v in overridden.items():
        print("inherited %s=%r removed before the run" % (k, v))
    print("samples: " + " ".join("%s=%d" % kv for kv in w["samples"].items()))
    print("fail_rate: %d/%d = %.6f" % (failed, attempted, failed / max(1, attempted)))
    for r in results:
        for note in r["failures"]:
            print("  failure (%s): %s" % (r["phase"], note))
    for name, m in metrics.items():
        print("  %-28s %14.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
