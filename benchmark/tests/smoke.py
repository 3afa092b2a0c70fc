#!/usr/bin/env python3
"""Smoke tests for atlas-bench; ctest runs them (see ../CMakeLists.txt).

  --case workloads   every workload at scale 0.01 with one rep: exit 0, the
                     scale-0.01 golden trace, every metric BENCHMARK.json
                     names printed with its unit, a parseable results JSON
                     and Chrome trace, --compare of the results with
                     themselves finding no change, and the one-workload JSON
                     result line for --trace 0 and --trace 1.
  --case one-thread  paper_week and sim_week at --threads 1: every rep's
                     work stays on one thread (util.cpu_per_wall <= 1.2).
"""
import argparse
import json
import os
import subprocess
import sys

# scenarios/paper_study.toml at seed 42, which every workload's spec is at
# scale 0.01.
GOLDEN_TRACE = "0xef475dbcd9a33c2d"


def run(args, bench, repo):
    done = subprocess.run([bench, *args], cwd=repo, capture_output=True,
                          text=True, timeout=300)
    return done.returncode, done.stdout, done.stderr


def metric_lines(stdout):
    """{(workload, metric): (value, unit)} from `workload metric value unit`."""
    out = {}
    for line in stdout.splitlines():
        fields = line.split()
        if len(fields) >= 4 and not line.startswith("{"):
            out[(fields[0], fields[1])] = (fields[2], fields[3])
    return out


def check(cond, what, failures):
    if not cond:
        failures.append(what)


def case_workloads(bench, repo, work, failures):
    spec = json.load(open(os.path.join(repo, "BENCHMARK.json")))
    results = os.path.join(work, "results.json")
    chrome = os.path.join(work, "trace.json")
    code, stdout, stderr = run(
        ["--workloads", "all", "--scale", "0.01", "--reps", "1", "--seed",
         "42", "--work-dir", work, "--out", results, "--trace-json", chrome],
        bench, repo)
    check(code == 0, f"exit status {code}: {stderr.strip()}", failures)
    check(" FAILED " not in stdout, "a rep failed a check", failures)
    lines = metric_lines(stdout)
    for w in spec["workloads"]:
        for m in spec["end_to_end"] + spec["per_layer"]:
            got = lines.get((w["name"], m["name"]))
            check(got is not None and got[1] == m["unit"],
                  f"{w['name']} {m['name']} not printed in {m['unit']}: {got}",
                  failures)
        artifact = ("digest.input" if w["name"] == "replay_analyze"
                    else "digest.trace")
        check(lines.get((w["name"], artifact), ("",))[0] == GOLDEN_TRACE,
              f"{w['name']} {artifact} is not {GOLDEN_TRACE}", failures)
    for w in spec["workloads"]:
        check(float(lines[(w["name"], "bench.span_coverage")][0]) >= 0.95,
              f"{w['name']} span coverage below 0.95", failures)
    check(len(json.load(open(chrome))["traceEvents"]) > 0, "empty Chrome trace",
          failures)
    saved = json.load(open(results))
    check(saved["meta"]["nproc"] >= 1 and len(saved["workloads"]) == 4,
          "results JSON lacks meta or workloads", failures)

    code, stdout, stderr = run(["--compare", results, "--", results],
                               bench, repo)
    rows = stdout.splitlines()[1:]
    check(code == 0 and rows and all("no change" in r for r in rows),
          f"--compare of a file with itself: {stdout}{stderr}", failures)

    for trace, names in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
        code, stdout, stderr = run(
            ["--workload", "sim_week", "--scale", "0.01", "--seed", "7",
             "--seconds", "0.01", "--trace", trace, "--work-dir", work],
            bench, repo)
        result = json.loads(stdout.strip().splitlines()[-1])
        check(code == 0 and result["correct"] and result["failed"] == 0,
              f"--trace {trace}: {result}", failures)
        check(sorted(result) == ["attempted", "correct", "failed", "metrics"],
              f"--trace {trace}: result keys {sorted(result)}", failures)
        check(sorted(result["metrics"]) == sorted(m["name"] for m in names),
              f"--trace {trace}: metrics {sorted(result['metrics'])}", failures)


def case_one_thread(bench, repo, work, failures):
    code, stdout, stderr = run(
        ["--workloads", "paper_week,sim_week", "--threads", "1", "--scale",
         "0.01", "--reps", "1", "--work-dir", work], bench, repo)
    check(code == 0, f"exit status {code}: {stderr.strip()}", failures)
    lines = metric_lines(stdout)
    for w in ("paper_week", "sim_week"):
        ratio = float(lines[(w, "util.cpu_per_wall")][0])
        check(ratio <= 1.2, f"{w} util.cpu_per_wall {ratio} > 1.2", failures)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--bench", required=True)
    parser.add_argument("--repo", required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--case", required=True,
                        choices=["workloads", "one-thread"])
    args = parser.parse_args()
    work = os.path.abspath(os.path.join(args.work, args.case))
    os.makedirs(work, exist_ok=True)
    failures = []
    {"workloads": case_workloads, "one-thread": case_one_thread}[args.case](
        os.path.abspath(args.bench), os.path.abspath(args.repo), work, failures)
    for f in failures:
        print("FAIL:", f)
    print("ok" if not failures else f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
