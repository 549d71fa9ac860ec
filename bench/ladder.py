"""Before/after timings and memory of the critical bulk ladder: the command that wrote BENCH_17.json and BENCH_19.json.

    python3 bench/ladder.py --base <git rev> --out BENCH_<n>.json [--scratch DIR]

Compares the source at `--base` with the working tree of this repository in
the ten alternating (ABBA) rounds of bench/boltzmann.py; every measurement runs
in a fresh Python process with 2 BLAS threads.  For each side the record holds
the median and quartiles over the rounds of:

- as `field_ladder`, the perfbench `field-ladder` call (the default ladder)
  and its smoke call (levels 6-8) at seed 11, wall and CPU seconds summed and
  the larger peak RSS: not the workload's own `wall_s`; and the level
  8-10 ladder {"kind": "bulk", "levels": [8, 9, 10], "n_replicas": [1000,
  600, 500]}: wall seconds, CPU seconds, peak RSS, and the sha256 of each CSV;
- per level 4-10, the `SectorSampler` build: seconds, and the peak traced by
  tracemalloc (numpy buffers included) in a second build;
- level 9 of the default ladder, its 1,500 replicas in the side's replica
  blocks: the block size, and the mean seconds per block of the noise draw,
  the FFTs (rfft and irfft), the eigenblock products and the masses, each
  step as `gff.circulant_fields` and `critical.bulk_ladder_totals` take it;
- the noise of the default ladder at seed 11, in one process: the seconds of
  drawing and coarsening every replica segment in one serial loop (the work
  that the ladder's worker thread does beside the fields), and, where
  `bulk_ladder_totals` reports them, the seconds its main thread waited on
  that worker (`noise_wait_s`) and its segment count;
- for the working tree only, the default ladder with `critical.NOISE_BLOCK`
  set to 2**16 .. 2**20 values in the child process: wall, CPU, peak RSS and
  the CSV digests.
"""

import json
import sys

from boltzmann import cli_run, compare, timed

SEED = 11
FIELD_LADDER = ({"kind": "bulk"}, {"kind": "bulk", "levels": [6, 7, 8], "n_replicas": [4000, 2000, 1000]})
LADDER_8_10 = {"kind": "bulk", "levels": [8, 9, 10], "n_replicas": [1000, 600, 500]}
BUDGETS = range(16, 21)
SWEEP = "import sys; from lqgdisk import critical; critical.NOISE_BLOCK = 2**{}; from lqgdisk.cli import main; sys.exit(main())"
LAYERS = r"""
import json, math, time, tracemalloc
import numpy as np
from lqgdisk import critical
from lqgdisk.gff import RngStream
from lqgdisk.gmc import bulk_masses
out = {}
for k in range(4, 11):
    t = time.perf_counter()
    critical.SectorSampler(k)
    out[f"sector_build_s.level{k}"] = time.perf_counter() - t
    tracemalloc.start()
    critical.SectorSampler(k)
    out[f"sector_build_peak_mb.level{k}"] = tracemalloc.get_traced_memory()[1] / 2**20
    tracemalloc.stop()
s = critical.SectorSampler(9)
if hasattr(critical, "NOISE_BLOCK"):
    block = max(1, critical.NOISE_BLOCK // math.prod(s.noise_shape))
else:
    block = critical.REPLICA_BLOCK
weights, gen = s.grid.density_weights(2.0), np.random.default_rng(1)
steps = dict.fromkeys(["draw", "fft", "products", "masses"], 0.0)
n_blocks = 0
for start in range(0, 1500, block):
    n = min(block, 1500 - start)
    t0 = time.perf_counter()
    noise = gen.standard_normal((n, *s.noise_shape))
    t1 = time.perf_counter()
    spec = np.ascontiguousarray(np.fft.rfft(noise, axis=-1).transpose(2, 1, 0))
    t2 = time.perf_counter()
    spec = np.matmul(s._root, spec.view(float)).view(complex)
    t3 = time.perf_counter()
    x = np.fft.irfft(spec.transpose(2, 1, 0), n=noise.shape[-1], axis=-1)
    t4 = time.perf_counter()
    bulk_masses(x[:, :, : s.n_angles].reshape(n, -1), s.variances, weights, 2.0).sum(axis=1)
    t5 = time.perf_counter()
    for key, dt in zip(steps, (t1 - t0, t2 - t1 + t4 - t3, t3 - t2, t5 - t4)):
        steps[key] += dt
    n_blocks += 1
out["level9.block_replicas"] = block
out.update({f"level9.{key}_s_per_block": v / n_blocks for key, v in steps.items()})
levels, counts = [4, 5, 6, 7, 8, 9], [20000, 20000, 10000, 5000, 2500, 1500]
shapes = [critical.SectorSampler(k).noise_shape for k in levels]
gen, r, t = RngStream(11, 0).generator(), 0, time.perf_counter()
while r < max(counts):
    finest = max(i for i, n in enumerate(counts) if n > r)
    end = min(counts[finest], r + max(1, critical.NOISE_BLOCK // math.prod(shapes[finest])))
    noise = gen.standard_normal((end - r, *shapes[finest]))
    for i in range(finest, 0, -1):
        for _ in range(levels[i] - levels[i - 1]):
            noise = critical.coarsen_noise(noise)
    r = end
out["ladder.draw_and_coarsen_s"] = time.perf_counter() - t
report = {}
critical.bulk_ladder_totals(levels, counts, RngStream(11, 0), report)
out.update({f"ladder.{key}": report[key] for key in ("noise_wait_s", "segments") if key in report})
print(json.dumps(out))
"""


def ladder_run(values, digests, name, root, env, work, config, launcher=("-m", "lqgdisk.cli")):
    run, digests[name] = cli_run(root, env, work, "critical-ladder", config, SEED, launcher)
    values.update({f"{name}.{k}": v for k, v in run.items()})


def one_round(side, root, env, work):
    """Every measurement of one side, once: ({metric: value}, {run: CSV digests})."""
    values, digests, calls = {}, {}, {}
    for i, config in enumerate(FIELD_LADDER):
        ladder_run(calls, digests, f"field-ladder call {i}", root, env, work, config)
    values["field_ladder.wall_s"] = sum(v for k, v in calls.items() if k.endswith(".wall_s"))
    values["field_ladder.cpu_s"] = sum(v for k, v in calls.items() if k.endswith(".cpu_s"))
    values["field_ladder.peak_rss_mb"] = max(v for k, v in calls.items() if k.endswith(".peak_rss_mb"))
    ladder_run(values, digests, "ladder_8_10", root, env, work, LADDER_8_10)
    layers = json.loads(timed([sys.executable, "-c", LAYERS], root, env)[3].strip().splitlines()[-1])
    values.update({f"layers.{k}": v for k, v in layers.items()})
    if side == "head":
        for b in BUDGETS:
            launcher = ("-c", SWEEP.format(b))
            ladder_run(values, digests, f"noise_block_2**{b}", root, env, work, FIELD_LADDER[0], launcher)
    return values, digests


if __name__ == "__main__":
    compare("bench/ladder.py", __doc__, one_round)
