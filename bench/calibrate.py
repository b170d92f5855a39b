"""Fixed reference work that the benchmark times next to every CLI process.

The benchmark runs this file as a cold process right before each CLI
process and scales the CLI's times by this one's, so that changes in
the speed of a shared machine, which slow both alike, cancel out.  It
does the kinds of work the CLI does, on fixed inputs and without the
package: import numpy, scipy.special and regex; parse CSV rows into a
dict of 120k (x, z) cells; sort the cells into arrays and take weighted
moments, several times over; count grapheme clusters; transform normal
draws; and format and write CSV rows.  It never changes with the
program under test.

It prints ``work_s``, the time of the work after the imports, as one
JSON object.  The benchmark scales the CLI by this process's wall time
and import-only processes by the part of it outside ``work_s``: start-up,
imports and exit.
"""

import json
import time

import numpy as np
import regex
from scipy.special import ndtr, ndtri

imported = time.perf_counter()

text = "\n".join(f"{x},{x + dz},{(x * 7919 + dz * 104729) % 997 + 1}"
                 for x in range(1, 81) for dz in range(1500))
cells = {}
for line in text.splitlines():
    x, z, n = line.split(",")
    key = (int(x), int(z))
    cells[key] = cells.get(key, 0) + int(n)

moments = []
for _ in range(3):
    rows = [(x, z, cells[(x, z)]) for x, z in sorted(cells)]
    xs = np.array([r[0] for r in rows], dtype=np.int64)
    zs = np.array([r[1] for r in rows], dtype=np.int64)
    ns = np.array([r[2] for r in rows], dtype=np.int64)
    w = ns / ns.sum()
    mx, mz = float(w @ xs), float(w @ zs)
    moments.append(float(w @ ((xs - mx) * (zs - mz))))

words = "-".join(["ka", "ʃí̄", "ŋö", "tą́", "õ̞m"] * 10_000)
clusters = len(regex.findall(r"\X", words))

rng = np.random.default_rng(0)
u = ndtr(rng.standard_normal((100_000, 2)))
draws = ndtri(np.clip(u, 1e-12, 1 - 1e-12))
lines = [f"{a:.6f},{b:.6f}" for a, b in draws.tolist()]

with open("calibration.csv", "w", encoding="utf-8") as out:
    out.write("\n".join(lines) + "\n")
    out.write(f"# {clusters} {moments}\n")
print(json.dumps({"work_s": time.perf_counter() - imported}))
