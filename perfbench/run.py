#!/usr/bin/env python3
"""RMA benchmark launcher.

Builds the benchmark and the repository's main sources with sbt (once per
source state), then runs one measurement in a fresh driver JVM:

    python3 perfbench/run.py --workload qqr_tall --seed 1 --seconds 10 --trace 0

Run it from the repository root. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics. Build
output, spans and Spark scratch files go under $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench) inside the repository.
"""
import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# qqr_tall and inv_square are not in BENCHMARK.json (see README.md) but run the same way.
WORKLOADS = ("qqr_tall", "ols_sql", "add_select", "inv_square")
# Fixed heap and a fixed 1 GB young generation: with the heap collected before
# each query (perfbench.JvmCounters), no collection runs inside a query, so
# peak_heap_mb reads live data plus what the query allocates.
HEAP_OPTS = ["-Xms3g", "-Xmx3g", "-Xmn1g"]
RUN_LIMIT_S = 175       # a run must end within 180 s
BUILD_RUN_LIMIT_S = 880  # a run that also builds must end within 900 s

# What Spark's own launcher passes to a Java 17 driver.
JAVA_MODULE_OPTS = [
    "-XX:+IgnoreUnrecognizedVMOptions",
    "--add-modules=jdk.incubator.vector",
    "-Djdk.reflect.useDirectMethodHandle=false",
    "-Dio.netty.tryReflectionSetAccessible=true",
] + ["--add-opens=java.base/%s=ALL-UNNAMED" % p for p in (
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net", "java.nio",
    "java.util", "java.util.concurrent", "java.util.concurrent.atomic", "jdk.internal.ref",
    "sun.nio.ch", "sun.nio.cs", "sun.security.action", "sun.util.calendar")]


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def source_files():
    """Every file the build reads from the repository, in a stable order."""
    files = [ROOT / "build.sbt", ROOT / "project" / "build.properties",
             HERE / "build.sbt", HERE / "project" / "build.properties"]
    for d in (ROOT / "src" / "main", ROOT / "jobs", HERE / "src" / "main"):
        if d.is_dir():
            files += sorted(p for p in d.rglob("*") if p.is_file())
    return [f for f in files if f.is_file()]


def source_sha():
    h = hashlib.sha256()
    for f in source_files():
        h.update(str(f.relative_to(ROOT)).encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def commit():
    if not (ROOT / ".git").exists():
        return "unavailable (not a git checkout)"
    r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unavailable"


def run_group(cmd, cwd, env, timeout, stdout):
    """Run cmd in its own process group. The whole group is killed, and
    waited for, on timeout and when this launcher is terminated."""
    p = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=stdout, stderr=sys.stderr,
                         start_new_session=True)

    def kill(*_):
        try:
            os.killpg(p.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        p.wait()

    def terminated(signum, _frame):
        kill()
        sys.exit(128 + signum)

    old = {s: signal.signal(s, terminated) for s in (signal.SIGTERM, signal.SIGINT)}
    try:
        out, _ = p.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        kill()
        fail("timed out after %.0f s: %s" % (timeout, " ".join(cmd[:3])), 1)
    finally:
        for s, h in old.items():
            signal.signal(s, h)
    return p.returncode, out


def build(out_dir, sha, deadline):
    """sbt build of the benchmark against the repository's main sources;
    returns the runtime classpath."""
    stamp = out_dir / "classpath.sha256"
    cp_file = out_dir / "classpath.txt"
    if stamp.is_file() and cp_file.is_file() and stamp.read_text() == sha:
        return cp_file.read_text().strip(), False
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    if not env.get("SBT_OPTS"):
        opts = ["-Dsbt.offline=true", "-Xmx2g"]
        repos = Path.home() / ".sbt" / "repositories"
        if repos.is_file():
            opts += ["-Dsbt.override.build.repos=true", "-Dsbt.repository.config=%s" % repos]
        env["SBT_OPTS"] = " ".join(opts)
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
           "export Runtime/fullClasspath"]
    rc, out = run_group(cmd, HERE, env, deadline - time.time(), subprocess.PIPE)
    lines = out.decode(errors="replace").splitlines()
    (out_dir / "build.log").write_text("\n".join(lines) + "\n")
    if rc != 0:
        sys.stderr.write("\n".join(lines[-40:]) + "\n")
        fail("sbt build failed (exit %d)" % rc, 1)
    cps = [l.strip() for l in lines if l.strip() and not l.startswith("[") and ".jar" in l]
    if not cps:
        fail("sbt printed no classpath; see %s" % (out_dir / "build.log"), 1)
    cp_file.write_text(cps[-1] + "\n")
    stamp.write_text(sha)
    return cps[-1], True


def main():
    start = time.time()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    a = ap.parse_args()

    for need in ("build.sbt", "src/main/scala/repro/core/Rma.scala", "perfbench/build.sbt"):
        if not (ROOT / need).is_file():
            fail("%s not found: run from a full checkout of the repository" % need)

    out_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    (out_dir / "tmp").mkdir(parents=True, exist_ok=True)
    sha = source_sha()
    classpath, built = build(out_dir, sha, start + BUILD_RUN_LIMIT_S - 60)
    limit = BUILD_RUN_LIMIT_S if built else RUN_LIMIT_S

    cores = len(os.sched_getaffinity(0))
    java = str(Path(os.environ["JAVA_HOME"]) / "bin" / "java") if os.environ.get("JAVA_HOME") else "java"
    cmd = ([java] + HEAP_OPTS + ["-Djava.io.tmpdir=%s" % (out_dir / "tmp")]
           + JAVA_MODULE_OPTS
           + ["-cp", classpath, "perfbench.Main",
              "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
              "--trace", a.trace, "--out", str(out_dir), "--cores", str(cores),
              "--commit", commit(), "--source-sha", sha])
    env = dict(os.environ, SPARK_LOCAL_DIRS=str(out_dir / "spark-local"))
    rc, out = run_group(cmd, ROOT, env, start + limit - time.time(), subprocess.PIPE)
    text = out.decode(errors="replace")
    if rc != 0:
        sys.stderr.write(text)
        fail("benchmark JVM exited with %d" % rc, 1)
    lines = text.rstrip("\n").splitlines()
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError, AssertionError):
        sys.stderr.write(text)
        fail("benchmark printed no result line", 1)
    sys.stdout.write("\n".join(lines) + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    main()
