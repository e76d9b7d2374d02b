"""The served workloads: a real ``repro serve`` process over HTTP.

One closed-loop client sends its next request only after the previous
reply arrived, like a notebook or dashboard caller.  With two clients
(on a 2-core machine) a query's latency was mostly a draw of
which other query it overlapped and whether it or its neighbour paid a
plan rebuild: across seeds the p50 spread was 0.19 on ``serve-read``
and 0.44 on ``serve-rw``.  With one client every latency is the
query's own cost through the service.  On ``serve-rw`` every third
request is a ``POST /update``, so batches commit in list order: the
final oracle check knows the exact graph, and the traced and the
untraced pass run each query on the same version.
"""

import collections
import http.client
import json
import os
import re
import select
import signal
import subprocess
import sys
import time

import inputs
import oracle

#: Queries per second of ``--seconds``: a run sends whole cycles of
#: queries (``inputs.CYCLE``), as many as come closest to this rate, and
#: on serve-rw one update after every second query.  Every run of a
#: seed therefore does the same work; on serve-rw that fixes the number
#: of compactions, which otherwise decided whether one landed inside
#: update_p90_ms.
QUERIES_PER_SECOND = 4.0
_READY = re.compile(r"serving on http://([\d.]+):(\d+)")


class Server:
    """One ``repro serve`` subprocess serving ``prefix`` as ``g``."""

    def __init__(self, prefix, log_path, spans_path=None):
        argv = ["serve", "--db", "g=" + prefix, "--store-mode", "mmap",
                "--port", "0"]
        if spans_path is None:
            command = [sys.executable, "-m", "repro"] + argv
        else:
            command = [sys.executable,
                       os.path.join(inputs.HERE, "traced_serve.py"),
                       "--spans", spans_path, "--"] + argv
        env = dict(os.environ, PYTHONPATH=inputs.SRC)
        self._log = open(log_path, "ab")
        self.proc = subprocess.Popen(command, cwd=inputs.ROOT, env=env,
                                     stdout=subprocess.PIPE,
                                     stderr=self._log)
        try:
            self.port = self._wait_ready(120.0)
        except BaseException:
            self.stop()
            raise

    def _wait_ready(self, timeout):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 1.0)
            if ready:
                line = self.proc.stdout.readline().decode()
                match = _READY.search(line)
                if match:
                    return int(match.group(2))
                if not line and self.proc.poll() is not None:
                    break
        raise RuntimeError("server did not start (see %s)" % self._log.name)

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the server process")

    def stop(self):
        """SIGTERM (the server drains and exits 0), then wait."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()
        return self.proc.returncode


class Client:
    """A keep-alive HTTP connection to the server."""

    def __init__(self, port):
        self.port = port
        self.conn = http.client.HTTPConnection("127.0.0.1", port,
                                               timeout=120)

    def post(self, path, body):
        """``(status, reply or None, latency seconds)``; a transport
        error is status 0."""
        data = json.dumps(body).encode()
        start = time.perf_counter()
        try:
            self.conn.request("POST", path, body=data,
                              headers={"Content-Type": "application/json"})
            response = self.conn.getresponse()
            raw = response.read()
            latency = time.perf_counter() - start
            status = response.status
        except (OSError, http.client.HTTPException):
            self.conn.close()
            self.conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                                   timeout=120)
            return 0, None, time.perf_counter() - start
        try:
            return status, json.loads(raw), latency
        except ValueError:
            return status, None, latency

    def get(self, path):
        self.conn.request("GET", path)
        return json.loads(self.conn.getresponse().read())

    def close(self):
        self.conn.close()


def _query(algorithm, start, query_id=None, include_values=False):
    body = {"database": "g", "algorithm": algorithm}
    if start is not None:
        body["params"] = {"start": start}
    if query_id is not None:
        body["query_id"] = query_id
    if include_values:
        body["include_values"] = True
    return body


def _update(ops):
    return {"database": "g", "batch": {"ops": ops},
            "compact_threshold": inputs.COMPACT_THRESHOLD}


def _committed(status, reply, version):
    """An update reply acknowledging one whole batch on a newer version
    (compaction also takes a version, so the step may exceed one), with
    the overlay compacted once it reached the threshold."""
    return (status == 200 and reply["topology_version"] > version
            and reply["edges_inserted"] == inputs.UPDATE_EDGES
            and reply["delta_bytes"] < inputs.COMPACT_THRESHOLD)


def fingerprint(reply):
    return (reply["execution"], reply["elapsed_seconds"],
            reply["num_rounds"], reply["edges_traversed"])


def _warm_up(client, queries):
    """One query per distinct algorithm; returns the failures."""
    failed = 0
    seen = set()
    for algorithm, start in queries:
        if algorithm not in seen:
            seen.add(algorithm)
            status, _, _ = client.post("/query", _query(algorithm, start))
            failed += status != 200
    return failed


def _timed(client, queries, batches, requests, read_write):
    """The closed loop; returns (records, acknowledged batches, last
    committed version, elapsed seconds)."""
    records = []
    acked = version = 0
    seen = -1
    begin = time.perf_counter()
    position = 0
    for sent in range(requests):
        if read_write and sent % 3 == 2:
            status, reply, latency = client.post(
                "/update", _update(batches[acked]))
            ok = _committed(status, reply, version)
            if ok:
                acked += 1
                version = reply["topology_version"]
            records.append({"kind": "update", "ok": ok,
                            "latency_ms": 1000.0 * latency})
        else:
            algorithm, start = queries[position]
            query_id = "q%d" % position
            status, reply, latency = client.post(
                "/query", _query(algorithm, start, query_id))
            record = {"kind": "query", "ok": status == 200,
                      "key": (algorithm, start), "query_id": query_id,
                      "latency_ms": 1000.0 * latency}
            if record["ok"]:
                record["fingerprint"] = fingerprint(reply)
                record["version"] = reply["snapshot_version"] or 0
                # Snapshot isolation: the topology never goes backwards,
                # and a query sees every batch acknowledged before it.
                record["ok"] = record["version"] >= max(seen, version)
                seen = record["version"]
            records.append(record)
            position += 1
    return records, acked, version, time.perf_counter() - begin


def mark_mismatches(queries, want):
    """Fail every timed reply whose fingerprint differs from the one-shot
    run of the same query."""
    for record in queries:
        if record["ok"] and record["fingerprint"] != want[record["key"]]:
            record["ok"] = False


def run_pass(workload, seed, seconds, setups, work, spans_path=None):
    """One pass of a served workload; returns a dict of raw results."""
    read_write = workload == "serve-rw"
    data = inputs.served_dir()
    num_vertices, sources, targets, weights = inputs.load_edges(data)
    cycles = max(1, round(seconds * QUERIES_PER_SECOND / inputs.CYCLE))
    queries = inputs.query_list(seed, sources, cycles)
    # serve-read commits the same number of updates after its timed
    # phase, to an idle server (the write probe), with the same
    # compaction threshold: without compaction the overlay grows and
    # every commit slows.
    batches = inputs.update_batches(seed, num_vertices, len(queries) // 2)
    requests = len(queries) + (len(batches) if read_write else 0)
    failures = collections.Counter()
    attempted = 0
    setup_s = []
    server = None
    try:
        for k in range(setups):
            prefix = inputs.fresh_copy(data, os.path.join(work,
                                                          "setup%d" % k))
            start = time.perf_counter()
            server = Server(prefix, os.path.join(work, "server.log"),
                            spans_path if k == setups - 1 else None)
            client = Client(server.port)
            failures["warm-up"] += _warm_up(client,
                                            inputs.pool_queries(sources))
            attempted += len(inputs.ALGORITHMS)
            setup_s.append(time.perf_counter() - start)
            if k < setups - 1:
                client.close()
                server.stop()
                server = None
        records, acked, version, elapsed = _timed(
            client, queries, batches, requests, read_write)
        updates = [r for r in records if r["kind"] == "update"]
        if not read_write:
            for ops in batches:
                status, reply, latency = client.post("/update",
                                                     _update(ops))
                ok = _committed(status, reply, version)
                if ok:
                    acked += 1
                    version = reply["topology_version"]
                updates.append({"kind": "update", "ok": ok,
                                "latency_ms": 1000.0 * latency})
        checks = []
        for algorithm, start in inputs.check_queries(seed, sources):
            status, reply, _ = client.post(
                "/query", _query(algorithm, start, include_values=True))
            checks.append((algorithm, start, status, reply))
        stats = client.get("/stats")
        peak_rss = server.peak_rss_mb()
        client.close()
        code = server.stop()
        server = None
        failures["server exit"] += code != 0
    finally:
        if server is not None:
            server.stop()
    graph = oracle.graph_from_edges(num_vertices, sources, targets,
                                    weights, batches[:acked])
    for algorithm, start, status, reply in checks:
        attempted += 1
        if status != 200 or reply["snapshot_version"] < version:
            failures["final %s reply" % algorithm] += 1
        elif not oracle.values_match(
                oracle.expected(graph, algorithm, start), reply["values"]):
            failures["final %s values" % algorithm] += 1
    queries = [r for r in records if r["kind"] == "query"]
    failures["timed queries"] += sum(not r["ok"] for r in queries)
    if not read_write:
        before = sum(not r["ok"] for r in queries)
        mark_mismatches(queries, inputs.load_digest(data))
        failures["digest"] += sum(not r["ok"] for r in queries) - before
    failures["updates"] += sum(not r["ok"] for r in updates)
    attempted += len(queries) + len(updates)
    good = [r for r in queries if r["ok"]]
    return {
        "setup_s": setup_s,
        "latency_ms": [r["latency_ms"] for r in good],
        "qps": len(good) / elapsed if elapsed > 0 else 0.0,
        "update_ms": [r["latency_ms"] for r in updates if r["ok"]],
        "peak_rss_mb": peak_rss,
        "attempted": attempted,
        "failures": +failures,
        "fingerprints": {r["query_id"]: r["fingerprint"] for r in good},
        "client_ms": {r["query_id"]: r["latency_ms"] for r in good},
        "stats": stats,
    }
