#!/usr/bin/env python3
"""Live stats-endpoint smoke (CI check for src/obs/stats_server).

Starts `bench/throughput_concurrent --smoke` with AQE_STATS_PORT=0 (the
engine picks an ephemeral port and the bench prints it), then, while the
bench is running, exercises every route of the in-process stats server:

  - GET /metrics returns Prometheus text-format 0.0.4: at least 30
    well-formed `# TYPE` series of known types, every sample line
    syntactically valid, histogram series carrying cumulative
    `_bucket{le=...}` samples ending in `le="+Inf"`, the PR-10
    resource-accounting gauges (aqe_mem_current_bytes,
    aqe_mem_peak_bytes) present, and the catalog-footprint gauges
    (aqe_catalog_column_bytes, aqe_catalog_index_bytes) present and > 0,
    so peak RSS splits into catalog and query memory
  - GET /trace.json parses as a Chrome trace with a traceEvents array
  - GET /profiles parses as JSON with a non-empty "profiles" array
    (every completed query's EXPLAIN ANALYZE lands there, so the bench's
    first queries fill it) and an "anomalies" array
  - GET /profile returns the continuous profiler's collapsed stacks as
    text/plain, every non-empty line `frame[;frame...] <count>`
  - an unknown path returns 404

After the bench exits it validates the BENCH_observability.json metrics
dump through check_perf_floors.load_metrics_snapshot (same loader the
perf gate uses), so the snapshot serializer is round-tripped in CI.

Usage: check_metrics_endpoint.py [build_dir]   (default: build)
"""

import json
import os
import re
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from check_perf_floors import load_metrics_snapshot  # noqa: E402

PORT_LINE = re.compile(r"stats server: http://127\.0\.0\.1:(\d+)")
TYPE_LINE = re.compile(r"^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) "
                       r"(counter|gauge|histogram)$")
SAMPLE_LINE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? "
    r"(-?\d+(\.\d+)?([eE][+-]?\d+)?|\+Inf|-Inf|NaN)$")
COLLAPSED_LINE = re.compile(r"^\S[^ ]* \d+$")  # "frame;frame;... count"
REQUIRED_GAUGES = ("aqe_mem_current_bytes", "aqe_mem_peak_bytes")
# Set once at engine construction from the loaded catalog; never 0 there.
POSITIVE_GAUGES = ("aqe_catalog_column_bytes", "aqe_catalog_index_bytes")


def http_get(port, path):
    with urllib.request.urlopen(
            f"http://127.0.0.1:{port}{path}", timeout=10) as resp:
        return resp.status, resp.headers.get("Content-Type", ""), \
            resp.read().decode()


def check_metrics_text(body, errors):
    series = {}
    for lineno, line in enumerate(body.splitlines(), 1):
        if not line:
            continue
        if line.startswith("# TYPE "):
            m = TYPE_LINE.match(line)
            if not m:
                errors.append(f"/metrics line {lineno}: bad TYPE line "
                              f"{line!r}")
                continue
            series[m.group(1)] = m.group(2)
        elif line.startswith("#"):
            continue  # HELP / comments
        elif not SAMPLE_LINE.match(line):
            errors.append(f"/metrics line {lineno}: malformed sample "
                          f"{line!r}")
    if len(series) < 30:
        errors.append(f"/metrics: only {len(series)} # TYPE series, "
                      f"expected >= 30")
    hist = [name for name, kind in series.items() if kind == "histogram"]
    if not hist:
        errors.append("/metrics: no histogram series")
    for name in hist:
        if f'{name}_bucket{{le="+Inf"}}' not in body:
            errors.append(f"/metrics: histogram {name} lacks a "
                          f'+Inf bucket sample')
    for name in REQUIRED_GAUGES:
        if series.get(name) != "gauge":
            errors.append(f"/metrics: missing resource-accounting gauge "
                          f"{name}")
    for name in POSITIVE_GAUGES:
        if series.get(name) != "gauge":
            errors.append(f"/metrics: missing catalog gauge {name}")
            continue
        m = re.search(rf"^{name} (\S+)$", body, re.MULTILINE)
        if not m or float(m.group(1)) <= 0:
            errors.append(f"/metrics: catalog gauge {name} is not > 0")
    return len(series)


def main():
    build = sys.argv[1] if len(sys.argv) > 1 else "build"
    bench = os.path.join("bench", "throughput_concurrent")
    env = dict(os.environ)
    env.setdefault("AQE_SF", "0.01")
    env.setdefault("AQE_BENCH_SECONDS", "2.0")
    env["AQE_STATS_PORT"] = "0"

    proc = subprocess.Popen(
        [bench, "--smoke"], cwd=build, env=env, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT)

    # The bench flushes the stats-server banner as soon as the engine is
    # up; read until we see it (or the process dies without printing it).
    port = None
    lines = []
    for line in proc.stdout:
        lines.append(line)
        m = PORT_LINE.search(line)
        if m:
            port = int(m.group(1))
            break
    if port is None:
        proc.wait(timeout=60)
        print("metrics endpoint check FAILED: bench never announced a "
              "stats port. Output:")
        sys.stdout.write("".join(lines))
        return 1
    print(f"bench up, stats server on port {port}")

    # Keep draining stdout so the bench never blocks on a full pipe.
    drain = threading.Thread(
        target=lambda: [lines.append(l) for l in proc.stdout], daemon=True)
    drain.start()

    errors = []
    try:
        status, ctype, body = http_get(port, "/metrics")
        if status != 200:
            errors.append(f"/metrics: HTTP {status}")
        if not ctype.startswith("text/plain"):
            errors.append(f"/metrics: content-type {ctype!r}")
        nseries = check_metrics_text(body, errors)
        print(f"/metrics: {nseries} series, "
              f"{len(body.splitlines())} lines")

        status, ctype, body = http_get(port, "/trace.json")
        if status != 200 or "application/json" not in ctype:
            errors.append(f"/trace.json: HTTP {status}, type {ctype!r}")
        else:
            trace = json.loads(body)
            events = trace.get("traceEvents")
            if not isinstance(events, list) or not events:
                errors.append("/trace.json: empty or missing traceEvents")
            else:
                print(f"/trace.json: {len(events)} events")

        # The stats port is announced before the bench's first query
        # completes: poll until one has landed (or 5 s pass).
        for _ in range(50):
            status, ctype, body = http_get(port, "/profiles")
            if status != 200 or '"profiles":[]' not in body:
                break
            time.sleep(0.1)
        if status != 200 or "application/json" not in ctype:
            errors.append(f"/profiles: HTTP {status}, type {ctype!r}")
        else:
            doc = json.loads(body)
            if not isinstance(doc.get("profiles"), list):
                errors.append("/profiles: missing profiles array")
            elif not doc["profiles"]:
                errors.append("/profiles: no query profiles")
            if not isinstance(doc.get("anomalies"), list):
                errors.append("/profiles: missing anomalies array")
            if isinstance(doc.get("profiles"), list):
                print(f"/profiles: {len(doc['profiles'])} query profiles, "
                      f"{len(doc.get('anomalies', []))} anomalies")

        status, ctype, body = http_get(port, "/profile")
        if status != 200:
            errors.append(f"/profile: HTTP {status}")
        if not ctype.startswith("text/plain"):
            errors.append(f"/profile: content-type {ctype!r}")
        stack_lines = [l for l in body.splitlines() if l]
        bad = [l for l in stack_lines if not COLLAPSED_LINE.match(l)]
        if bad:
            errors.append(f"/profile: {len(bad)} malformed collapsed-stack "
                          f"lines, e.g. {bad[0]!r}")
        print(f"/profile: {len(stack_lines)} collapsed stacks")

        try:
            http_get(port, "/nope")
            errors.append("/nope: expected HTTP 404, got 200")
        except urllib.error.HTTPError as e:
            if e.code != 404:
                errors.append(f"/nope: expected 404, got {e.code}")
    except Exception as e:  # connection refused, timeout, bad JSON ...
        errors.append(f"endpoint probe failed: {e!r}")

    rc = proc.wait(timeout=300)
    drain.join(timeout=10)
    if rc != 0:
        errors.append(f"bench exited with rc {rc}")
        sys.stdout.write("".join(lines[-40:]))

    obs_path = os.path.join(build, "BENCH_observability.json")
    try:
        snap = load_metrics_snapshot(obs_path)
        print(f"BENCH_observability.json: {len(snap['counters'])} counters, "
              f"{len(snap['histograms'])} histograms round-trip")
    except (OSError, ValueError, json.JSONDecodeError) as e:
        errors.append(f"BENCH_observability.json: {e}")

    if errors:
        print("metrics endpoint check FAILED:")
        for e in errors[:20]:
            print(f"  {e}")
        return 1
    print("metrics endpoint check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
