#!/usr/bin/env python3
"""Self-test of the repository benchmark at a small scale.

    python3 perfbench/tests/test_perfbench.py

Builds the benchmark the way perfbench/run.py does, then runs its binary directly with a
small --scale on the default seed and on the held-out seed. Takes about two minutes.
"""

import json
import math
import os
import re
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import run  # noqa: E402  (perfbench/run.py)

DEFAULT_SEED = 1
# Later changes must not be tuned against this seed; it checks that a claim carries over.
HELD_OUT_SEED = 7177
# Smallest scales at which every reported percentile still has ten samples beyond it.
SCALES = {"desktop": 0.01, "video": 0.55, "roaming": 0.25}
EXACT = ("display_bytes_per_op", "latency_sim_ms_p50", "latency_sim_ms_tail",
         "ops_on_time_per_sim_s")

_cache = {}


def bench(workload, seed, scale=None, trace_out=None, env=None, fresh=False):
    """Runs the binary once; returns (exit code, stdout lines, parsed result or None)."""
    key = (workload, seed, scale, trace_out)
    if not fresh and env is None and key in _cache:
        return _cache[key]
    cmd = [run.BINARY, "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", "1" if trace_out else "0",
           "--scale", str(SCALES[workload] if scale is None else scale)]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    done = subprocess.run(cmd, capture_output=True, text=True, check=False,
                          env=dict(os.environ, **(env or {})), timeout=300)
    lines = done.stdout.strip().split("\n")
    result = json.loads(lines[-1]) if lines[-1].startswith("{") else None
    out = (done.returncode, lines, result)
    if env is None:
        _cache[key] = out
    return out


class PerfbenchSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        if not run.build():
            raise RuntimeError("the benchmark does not build")

    def test_same_seed_repeats_exact_metrics(self):
        per_round = lambda lines: next(l for l in lines if l.startswith("ops:")).split("(")[1]
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            for workload in SCALES:
                _, lines, first = bench(workload, seed)
                _, again_lines, again = bench(workload, seed, fresh=True)
                for name in EXACT:
                    self.assertEqual(first["metrics"][name], again["metrics"][name],
                                     f"{workload} seed {seed}: {name}")
                # How many rounds fit in a run depends on the host; a round's ops do not.
                self.assertEqual(per_round(lines), per_round(again_lines))

    def test_seeds_change_the_input_schedule(self):
        for workload in SCALES:
            schedules = [next(l for l in bench(workload, seed)[1] if l.startswith("inputs:"))
                         for seed in (DEFAULT_SEED, HELD_OUT_SEED)]
            self.assertNotEqual(schedules[0], schedules[1], workload)

    def test_no_op_fails(self):
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            for workload in SCALES:
                code, lines, result = bench(workload, seed)
                self.assertEqual(code, 0, "\n".join(lines))
                self.assertTrue(result["correct"], "\n".join(lines))
                self.assertEqual(result["failed"], 0)
                self.assertGreater(result["attempted"], 0)

    def test_percentiles_have_ten_samples_beyond(self):
        for workload in SCALES:
            _, lines, _ = bench(workload, DEFAULT_SEED)
            shown = [l for l in lines if re.search(r"\(p[0-9.]+ of \d+", l)]
            self.assertEqual(len(shown), 4, workload)
            for line in shown:
                p, n = re.search(r"\(p([0-9.]+) of (\d+)", line).groups()
                rank = math.ceil(float(p) / 100 * int(n))
                self.assertGreaterEqual(int(n) - rank, 10, line)
        # Twenty moves cannot support a p90 with ten samples beyond it: no result at all.
        code, lines, result = bench("roaming", DEFAULT_SEED, scale=0.05)
        self.assertEqual(code, 3)
        self.assertIsNone(result)
        self.assertTrue(any("fewer than 10 samples beyond it" in l for l in lines))

    def test_traced_run_writes_valid_spans(self):
        for workload in SCALES:
            with tempfile.TemporaryDirectory() as tmp:
                path = os.path.join(tmp, "spans.json")
                code, lines, result = bench(workload, DEFAULT_SEED, trace_out=path)
                self.assertEqual(code, 0, "\n".join(lines))
                check = subprocess.run([run.VALIDATOR, "--trace", path], capture_output=True,
                                       text=True, check=False)
                self.assertEqual(check.returncode, 0, check.stdout + check.stderr)
            metrics = result["metrics"]
            self.assertGreaterEqual(metrics["obs.span_coverage_pct"]["value"], 95.0, workload)
            self.assertIn("obs.trace_overhead_pct", metrics)
            for name in ("apps.render_us_per_op", "server.flush_us_per_op",
                         "sim.loop_self_us_per_op"):
                self.assertGreater(metrics[name]["value"], 0.0, f"{workload}: {name}")

    def test_library_overrides_are_cleared(self):
        _, lines, result = bench("desktop", DEFAULT_SEED,
                                 env={"SLIM_KERNELS": "scalar", "SLIM_FLIGHT_DIR": "/nonexistent",
                                      "SLIM_ENCODE_THREADS": "4"})
        env_line = next(l for l in lines if l.startswith("env:"))
        for name in ("SLIM_KERNELS", "SLIM_FLIGHT_DIR", "SLIM_ENCODE_THREADS"):
            self.assertIn(name, env_line)
        self.assertTrue(result["correct"])
        _, _, plain = bench("desktop", DEFAULT_SEED)
        for name in EXACT:
            self.assertEqual(result["metrics"][name], plain["metrics"][name], name)


if __name__ == "__main__":
    unittest.main(verbosity=2)
