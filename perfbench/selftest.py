"""Self-test of the benchmark at toy sizes; exits 0 when every check holds.

    python3 perfbench/selftest.py

Checks that every workload runs with and without tracing and prints every
metric BENCHMARK.json declares, by name and with its unit; that counts
repeat exactly between two traced runs of one seed; that a corrupted input
(a truncated SEG-Y volume) fails one operation without ending the run; and
that the benchmark refuses to run where the seishet sources are missing.
"""

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
COUNT_UNITS = ("count", "B_computed")


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc


def result_of(proc, what):
    if proc.returncode != 0:
        raise AssertionError("%s exited %d: %s" % (what, proc.returncode, proc.stderr[-2000:]))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError("%s: result keys %s" % (what, sorted(result)))
    return result


def check_metrics(result, declared, what):
    got = result["metrics"]
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        raise AssertionError("%s: correct=%s attempted=%s failed=%s"
                             % (what, result["correct"], result["attempted"], result["failed"]))
    names = [m["name"] for m in declared]
    if sorted(got) != sorted(names):
        raise AssertionError("%s: missing %s, extra %s" % (
            what, sorted(set(names) - set(got)), sorted(set(got) - set(names))))
    for m in declared:
        value = got[m["name"]]
        if value["unit"] != m["unit"] or not math.isfinite(value["value"]):
            raise AssertionError("%s: %s printed as %s" % (what, m["name"], value))


def test_workloads(spec):
    for w in spec["workloads"]:
        name = w["name"]
        base = ["--workload", name, "--seed", "5", "--seconds", "1", "--size", "tiny"]
        check_metrics(result_of(bench(*base, "--trace", "0"), name),
                      spec["end_to_end"], name + " untraced")
        first = result_of(bench(*base, "--trace", "1"), name)
        check_metrics(first, spec["per_layer"], name + " traced")
        second = result_of(bench(*base, "--trace", "1"), name)
        for m in spec["per_layer"]:
            if m["unit"] in COUNT_UNITS:
                a = first["metrics"][m["name"]]["value"]
                b = second["metrics"][m["name"]]["value"]
                if a != b:
                    raise AssertionError("%s: count %s differs between runs: %r vs %r"
                                         % (name, m["name"], a, b))
        print("ok   %s: every metric printed with its unit; counts repeat" % name)


def test_corrupted_input():
    sys.path.insert(0, HERE)
    import run
    from workloads import TINY, PredictSegy
    run.cap_blas_threads()
    modules = run.import_seishet()
    workdir = os.path.join(ROOT, ".perfbench", "selftest-%d" % os.getpid())
    os.makedirs(workdir)
    try:
        wl = PredictSegy(modules, TINY["predict_segy"], 3, workdir)
        wl.write_inputs()
        wl.setup()
        good = wl.volume_path(0)
        with open(good, "rb") as fh:
            data = fh.read()
        truncated = os.path.join(workdir, "truncated.sgy")
        with open(truncated, "wb") as fh:
            fh.write(data[:-100])
        wl.volume_path = lambda index: truncated if index == 1 else good
        record = run.measure(wl, 0.0, "untraced")
        for index in (1, 2):
            wl.call(record, index)
        ok_frac = run.end_to_end(record, 0.0)["ok_frac"]
        if (record.attempted, record.failed) != (3, 1) or "FormatError" not in record.errors[0]:
            raise AssertionError("truncated volume: attempted %d failed %d errors %s"
                                 % (record.attempted, record.failed, record.errors))
        if abs(ok_frac - 2.0 / 3.0) > 1e-12:
            raise AssertionError("ok_frac %r after one failure in three" % ok_frac)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("ok   truncated SEG-Y volume counts one failed operation of 3; run goes on")


def test_refuses_without_sources():
    bare = os.path.join(ROOT, ".perfbench", "bare-%d" % os.getpid())
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("--workload", "ingest", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        raise AssertionError("ran without seishet sources: exit %d, stdout %r"
                             % (proc.returncode, proc.stdout[-500:]))
    print("ok   refuses to run without src/seishet (exit %d)" % proc.returncode)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    test_refuses_without_sources()
    test_corrupted_input()
    test_workloads(spec)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
