#!/usr/bin/env python3
"""Smoke-test the rule-serving daemon over its real TCP wire protocol.

Usage: serve_smoke.py DMC_BINARY DATA_FILE [METRICS_FILE]

    DMC_BINARY    path to the `dmc` CLI (the script runs `dmc serve`)
    DATA_FILE     transaction file to mine and serve
    METRICS_FILE  optional --metrics destination; the daemon writes its
                  v8 run report there after shutdown

Starts `dmc serve DATA_FILE --minconf 0.9 --addr 127.0.0.1:0
--telemetry-addr 127.0.0.1:0`, waits for the `telemetry on` and
`listening on HOST:PORT` lines, then exercises every request type over
one connection: `stats`, `rule`, `rules_ge`, a garbage frame and a
1 MiB frame of nested `[` (each must produce an error response without
killing the connection or the daemon), `RULE_ROUND_TRIPS` sequential
`rule` requests that must finish within `RULE_BUDGET_S`, `ingest`,
`metrics` — whose per-request-type histogram counts must sum exactly
to the frames sent so far — and finally `shutdown`. Between
`metrics` and `shutdown` it scrapes the Prometheus exposition listener
once and asserts the same reconciliation there. Asserts the daemon
exits 0 and, when METRICS_FILE is given, that the report carries
non-null `serve`, `ingest` and `telemetry` sections consistent with
what the script did.

Exits 0 on success, 1 with a diagnostic otherwise. CI runs this in the
serve-smoke job; the Rust test suite covers the same surface in-process
(crates/serve), so this script guards the shipped binary end to end.
"""

import json
import os
import socket
import struct
import subprocess
import sys
import time

# Sequential `rule` round trips timed on one plain (Nagle-on) socket, and
# the budget they must fit: a daemon that splits a frame over two writes
# waits ~40 ms per round trip for a delayed ACK (~17 s in all).
RULE_ROUND_TRIPS = 200
RULE_BUDGET_S = 2.0


def send_frame(sock, payload: bytes) -> None:
    sock.sendall(struct.pack(">I", len(payload)) + payload)


def recv_frame(sock) -> dict:
    header = b""
    while len(header) < 4:
        chunk = sock.recv(4 - len(header))
        assert chunk, "connection closed while reading a frame header"
        header += chunk
    (length,) = struct.unpack(">I", header)
    payload = b""
    while len(payload) < length:
        chunk = sock.recv(length - len(payload))
        assert chunk, "connection closed mid-payload"
        payload += chunk
    return json.loads(payload)


def request(sock, obj: dict) -> dict:
    send_frame(sock, json.dumps(obj).encode())
    return recv_frame(sock)


def parse_addr(line: str) -> tuple:
    host, _, port = line.rpartition(" ")[2].rpartition(":")
    return host.strip("[]"), int(port)


def wait_for_listen_line(proc, timeout=60.0) -> tuple:
    """Returns ((host, port), (telemetry_host, telemetry_port) or None).

    The daemon prints `telemetry on HOST:PORT` (when scraping is on)
    strictly before `listening on HOST:PORT`.
    """
    telemetry = None
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            raise AssertionError(
                f"daemon exited before announcing readiness "
                f"(code {proc.poll()})")
        line = line.strip()
        print(f"daemon: {line}")
        if line.startswith("telemetry on "):
            telemetry = parse_addr(line)
        if line.startswith("listening on "):
            return parse_addr(line), telemetry
    raise AssertionError("timed out waiting for the listening line")


def scrape_exposition(addr) -> str:
    """One plain-HTTP scrape of the Prometheus text exposition."""
    with socket.create_connection(addr, timeout=30) as sock:
        sock.settimeout(30)
        sock.sendall(b"GET /metrics HTTP/1.0\r\n\r\n")
        raw = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            raw += chunk
    head, _, body = raw.partition(b"\r\n\r\n")
    assert b"200 OK" in head.splitlines()[0], head
    return body.decode()


def prometheus_counts(body: str, prefix: str) -> dict:
    """Histogram totals: `<name>_count VALUE` lines under `prefix`."""
    counts = {}
    for line in body.splitlines():
        if line.startswith("#") or not line.strip():
            continue
        name, _, value = line.partition(" ")
        if name.startswith(prefix) and name.endswith("_count"):
            counts[name] = int(float(value))
    return counts


def check(binary, data, metrics):
    cmd = [binary, "serve", data, "--minconf", "0.9",
           "--addr", "127.0.0.1:0", "--telemetry-addr", "127.0.0.1:0"]
    if metrics:
        cmd += ["--metrics", metrics]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        (host, port), telemetry_addr = wait_for_listen_line(proc)
        assert telemetry_addr is not None, "no 'telemetry on' line"
        sock = socket.create_connection((host, port), timeout=30)
        sock.settimeout(30)
        with sock:
            stats = request(sock, {"type": "stats"})
            assert stats["ok"] is True, stats
            s = stats["stats"]
            assert s["algorithm"] == "implication", s
            assert s["rules"] > 0, f"mined rule set is empty: {s}"
            rows_before = s["rows"]

            answer = request(sock, {"type": "rule", "lhs": 0, "rhs": 1})
            assert answer["ok"] is True, answer
            a = answer["answer"]
            assert a["hits"] <= min(a["lhs_ones"], a["rhs_ones"]), a

            listing = request(
                sock, {"type": "rules_ge", "threshold": 0.9, "limit": 5})
            assert listing["ok"] is True, listing
            assert len(listing["rules"]) <= 5, listing
            assert listing["total"] >= len(listing["rules"]), listing
            for rule in listing["rules"]:
                assert rule["confidence"] >= 0.9 - 1e-9, rule

            # A garbage frame draws an error response and must not
            # poison the connection.
            send_frame(sock, b"this is not json")
            err = recv_frame(sock)
            assert err["ok"] is False and err["error"], err

            # Neither may a frame nested far past the parser's depth cap.
            send_frame(sock, b"[" * (1 << 20))
            err = recv_frame(sock)
            assert err["ok"] is False, err
            assert "nesting too deep" in err["error"], err

            start = time.monotonic()
            for _ in range(RULE_ROUND_TRIPS):
                answer = request(sock, {"type": "rule", "lhs": 0, "rhs": 1})
                assert answer["ok"] is True, answer
            elapsed = time.monotonic() - start
            print(f"{RULE_ROUND_TRIPS} rule round trips in {elapsed:.3f} s")
            assert elapsed < RULE_BUDGET_S, \
                f"{RULE_ROUND_TRIPS} rule round trips took {elapsed:.2f} s"

            ingest = request(
                sock, {"type": "ingest", "rows": [[0, 1], [0, 1], [2]]})
            assert ingest["ok"] is True, ingest
            assert ingest["report"]["rows"] == 3, ingest

            stats2 = request(sock, {"type": "stats"})
            assert stats2["ok"] is True, stats2
            s2 = stats2["stats"]
            assert s2["rows"] == rows_before + 3, (s, s2)
            assert s2["errors"] >= 2, s2
            assert s2["requests"] > s2["errors"], s2

            # Last frame but one on this connection; the daemon records
            # the metrics request itself before snapshotting, so the
            # per-request-type histogram counts must sum to exactly the
            # frames sent so far.
            rules = 1 + RULE_ROUND_TRIPS
            frames = 7 + 1 + RULE_ROUND_TRIPS
            snapshot = request(sock, {"type": "metrics"})
            assert snapshot["ok"] is True, snapshot
            hists = snapshot["metrics"]["histograms"]
            by_type = {name: h["count"] for name, h in hists.items()
                       if name.startswith("serve.request.")}
            assert sum(by_type.values()) == frames, by_type
            assert by_type.get("serve.request.stats") == 2, by_type
            assert by_type.get("serve.request.rule") == rules, by_type
            assert by_type.get("serve.request.error") == 2, by_type
            assert by_type.get("serve.request.metrics") == 1, by_type
            for h in hists.values():
                assert h["p50_us"] <= h["p90_us"] <= h["p99_us"] \
                    <= h["max_us"], hists

            # One Prometheus scrape; no daemon frame is involved, so
            # the exposition must agree with the in-band snapshot.
            body = scrape_exposition(telemetry_addr)
            scraped = prometheus_counts(body, "serve_request_")
            assert sum(scraped.values()) == frames, scraped
            assert scraped.get("serve_request_rule_count") == rules, scraped
            assert "serve_in_flight" in body, body

            bye = request(sock, {"type": "shutdown"})
            assert bye["ok"] is True, bye

        code = proc.wait(timeout=60)
        assert code == 0, f"daemon exited {code}"
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()

    if metrics:
        assert os.path.exists(metrics), f"missing report {metrics}"
        with open(metrics) as f:
            report = json.load(f)
        serve = report["serve"]
        assert serve is not None and serve["connections"] >= 1, serve
        assert serve["errors"] >= 2, serve
        assert serve["errors"] <= serve["requests"], serve
        ingested = report["ingest"]
        assert ingested is not None and ingested["rows_ingested"] == 3, \
            ingested
        telemetry = report["telemetry"]
        assert telemetry is not None, "report missing telemetry section"
        final = sum(h["count"] for h in telemetry["histograms"]
                    if h["name"].startswith("serve.request."))
        assert final == serve["requests"], (final, serve)

    print("serve smoke: ok")


def main(argv):
    if len(argv) not in (3, 4):
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    try:
        check(argv[1], argv[2], argv[3] if len(argv) == 4 else None)
    except AssertionError as e:
        print(f"serve smoke: FAILED: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
