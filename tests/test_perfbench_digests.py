"""
The benchmark's recorded output digests, replayed at full size.

``perfbench/digests.json`` pins the sha256 digest of each workload's primary
and alt streams at seeds 1 and 7.  A benchmark run checks them while it
times, so a drift in output bits would show only there.  This test builds
each workload's full-size inputs with ``perfbench/workloads.py``'s own
``build``, runs each stream once with a clock that does not time, and
compares the digests with the recorded ones.  It runs in a fresh
interpreter with one BLAS thread, as the benchmark does.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 7)
STREAMS = ("primary", "alt")

REPLAY = """
import json, sys, tempfile
sys.path[:0] = [{src!r}, {perfbench!r}]
from workloads import WORKLOADS

class Untimed:
    def time(self, fn, *args, **kwargs):
        return fn(*args, **kwargs), 0.0
    time_parallel = time

observed = {{}}
for name, cls in WORKLOADS.items():
    for seed in {seeds!r}:
        with tempfile.TemporaryDirectory() as workdir:
            workload = cls(cls.build(seed, False), workdir, seed, Untimed())
            for stream in {streams!r}:
                rnd = getattr(workload, stream)()
                observed.setdefault(name, {{}}).setdefault(str(seed), {{}})[stream] = [
                    rnd.digest, rnd.problems]
print(json.dumps(observed))
"""


def test_recorded_digests_replay_at_full_size():
    script = REPLAY.format(src=str(ROOT / "src"), perfbench=str(ROOT / "perfbench"),
                           seeds=SEEDS, streams=STREAMS)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", MRTPOWER_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    observed = json.loads(proc.stdout)
    with open(ROOT / "perfbench" / "digests.json", encoding="utf-8") as fh:
        recorded = json.load(fh)
    assert set(observed) == set(recorded)
    for name, by_seed in recorded.items():
        for seed in SEEDS:
            for stream in STREAMS:
                digest, problems = observed[name][str(seed)][stream]
                assert problems == [], (name, seed, stream, problems)
                assert digest == by_seed[str(seed)][stream], (name, seed, stream)
