"""Self-tests of the benchmark's own logic (no build needed):

    python3 perfbench/test_perfbench.py
"""

import json
import math
import os
import re
import socket
import sys
import tempfile
import threading
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import harness  # noqa: E402
import metrics  # noqa: E402
import workloads  # noqa: E402


class Generators(unittest.TestCase):
    def write(self, seed, make):
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "x.csv")
            harness.write_csv(path, make(harness.Rng(seed)))
            with open(path, "rb") as f:
                return f.read()

    def test_same_seed_same_bytes(self):
        walks = lambda rng: [harness.unit_variance(
            harness.random_walk(rng, 500)) for _ in range(3)]
        repeats = lambda rng: harness.smoothed_repeats(rng, 400, 3, 100, 0.005)
        for make in (walks, repeats):
            self.assertEqual(self.write(7, make), self.write(7, make))
            self.assertNotEqual(self.write(7, make), self.write(8, make))

    def test_seeds_give_unrelated_streams(self):
        a, b = harness.Rng(7), harness.Rng(8)
        first = {a.next64() for _ in range(1000)}
        self.assertFalse(first & {b.next64() for _ in range(1000)})

    def test_pinned_amplitude(self):
        column = harness.unit_variance(harness.random_walk(harness.Rng(3), 999))
        self.assertAlmostEqual(sum(column) / len(column), 0.0, places=9)
        self.assertAlmostEqual(sum(x * x for x in column) / len(column), 1.0,
                               places=9)

    def test_zipf_mix(self):
        a = harness.zipf_mix(harness.Rng(5), 240, 96, 0.99)
        self.assertEqual(a, harness.zipf_mix(harness.Rng(5), 240, 96, 0.99))
        b = harness.zipf_mix(harness.Rng(6), 240, 96, 0.99)
        self.assertNotEqual(a, b)
        self.assertEqual(sorted(a), sorted(b))  # the seed orders, not mixes
        self.assertEqual(len(a), 240)
        self.assertTrue(all(0 <= r < 96 for r in a))
        self.assertGreater(a.count(0), a.count(1))
        self.assertEqual(len(set(a)), 83)  # more than the 64-entry cache


class MetricNames(unittest.TestCase):
    NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

    def setUp(self):
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
            self.bench = json.load(f)

    def test_names_and_units_are_valid_and_unique(self):
        entries = self.bench["end_to_end"] + self.bench["per_layer"]
        names = [e["name"] for e in entries + self.bench["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for entry in entries:
            self.assertRegex(entry["name"], self.NAME)
            self.assertRegex(entry["unit"], self.UNIT)
            self.assertIn(entry["better"], ("higher", "lower"))
        bounds = [e["bound"] for e in self.bench["end_to_end"]]
        self.assertTrue(all(0 < b <= 0.25 for b in bounds))
        setup = [e for e in self.bench["end_to_end"]
                 if e["name"] == "setup_s"][0]
        self.assertEqual(setup, {"name": "setup_s", "unit": "s",
                                 "better": "lower", "bound": max(bounds)})
        for w in self.bench["workloads"]:
            self.assertRegex(w["name"], self.NAME)
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])

    def test_every_listed_name_is_implemented_and_explained(self):
        self.assertEqual(sorted(w["name"] for w in self.bench["workloads"]),
                         sorted(workloads.WORKLOADS))
        self.assertEqual(sorted(e["name"] for e in self.bench["end_to_end"]),
                         sorted(metrics.END_TO_END))
        self.assertEqual(sorted(e["name"] for e in self.bench["per_layer"]),
                         sorted(metrics.SHOULD_MOVE))

    def test_layer_metrics_names_are_listed(self):
        layers = {"wall_s": 2.0, "kernels.row_s": 1.0, "kernels.rows": 4,
                  "kernels.cells": 16, "kernels.ops_computed": 1,
                  "kernels.bytes_computed": 1, "checkpoint.bytes": 1}
        run = type("R", (), {"notes": []})()
        out = workloads.layer_metrics(run, layers, {}, [(0, 1.0), (1, 3.0)],
                                      None, 0.5, 1.0)
        self.assertLessEqual(set(out),
                             {e["name"] for e in self.bench["per_layer"]})
        self.assertEqual(out["resilient.imbalance"], 1.5)
        self.assertEqual(out["trace.coverage"], 0.5)


class StealSelection(unittest.TestCase):
    def test_least_disturbed_half(self):
        samples = [(1.0, 0.3), (2.0, 0.0), (3.0, 0.1), (4.0, 0.2), (5.0, 0.4)]
        kept = harness.least_disturbed(samples, lambda s: s[1])
        self.assertEqual([s[0] for s in kept], [2.0, 3.0, 4.0])
        self.assertEqual(harness.least_disturbed([7], lambda s: 0), [7])
        self.assertEqual(harness.net(2.0, 0.25), 1.5)


class Percentiles(unittest.TestCase):
    def test_p95_of_200_has_10_beyond(self):
        value, beyond = harness.percentile(list(range(1, 201)), 0.95)
        self.assertEqual((value, beyond), (190, 10))

    def test_p50_and_small_counts(self):
        self.assertEqual(harness.percentile([3, 1, 2], 0.5), (2, 1))
        self.assertEqual(harness.percentile([5], 0.95), (5, 0))

    def test_failures_miss_every_limit(self):
        value, _ = harness.percentile([1.0] * 9 + [math.inf], 0.95)
        self.assertEqual(value, math.inf)
        self.assertEqual(harness.finite(math.inf), 1e300)


class FakeServer:
    """Answers `query --id=K`: key 0 correctly, key 1 with an error
    header, key 2 with a wrong payload."""

    def __init__(self, path):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.bind(path)
        self.sock.listen(8)
        self.thread = threading.Thread(target=self.serve, daemon=True)
        self.thread.start()

    def serve(self):
        while True:
            try:
                conn, _ = self.sock.accept()
            except OSError:
                return
            threading.Thread(target=self.answer, args=(conn,),
                             daemon=True).start()

    def answer(self, conn):
        with conn, conn.makefile("rb") as lines:
            for line in lines:
                key = int(line.split(b"--id=")[1])
                if key == 1:
                    conn.sendall(b'{"status": "error", "bytes": 0}\n')
                else:
                    payload = b"good" if key == 0 else b"bad!"
                    conn.sendall(b'{"status": "ok", "bytes": 4, '
                                 b'"cached": true}\n' + payload)

    def close(self):
        self.sock.close()


class ClosedLoop(unittest.TestCase):
    def test_error_and_wrong_payload_count_as_failed(self):
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "s.sock")
            server = FakeServer(path)
            try:
                clients = [[(k, "query --id=%d" % k) for k in (0, 1, 2, 0)],
                           [(0, "query --id=0")]]
                records = harness.closed_loop(path, clients,
                                              {0: b"good", 1: b"", 2: b"good"})
            finally:
                server.close()
        self.assertEqual(len(records), 5)
        ok = [r for r in records if r[3]]
        failed = [r for r in records if not r[3]]
        self.assertEqual(len(ok), 3)
        self.assertEqual(sorted(r[0] for r in failed), [1, 2])
        self.assertTrue(all(r[1] == math.inf for r in failed))
        self.assertTrue(all(math.isfinite(r[1]) for r in ok))

    def test_refused_connection_fails_every_request(self):
        with tempfile.TemporaryDirectory() as d:
            records = harness.closed_loop(
                os.path.join(d, "absent.sock"),
                [[(0, "query"), (1, "query")], [(2, "query")]],
                {0: b"", 1: b"", 2: b""})
        self.assertEqual(len(records), 3)
        self.assertTrue(all(not r[3] and r[1] == math.inf for r in records))

    def test_evicted_keys_are_misses_after_an_answer(self):
        # (key, latency, cached, ok, start)
        records = [(1, 1.0, False, True, 0.0),   # first miss of key 1
                   (1, 1.0, False, True, 0.5),   # concurrent miss: no eviction
                   (1, 0.1, True, True, 2.0),    # hit
                   (1, 1.0, False, True, 3.0),   # miss after an answer
                   (2, 1.0, False, True, 0.0),
                   (2, math.inf, False, False, 4.0)]  # failed: not counted
        self.assertEqual(harness.evicted_keys(records), 1)


if __name__ == "__main__":
    unittest.main()
