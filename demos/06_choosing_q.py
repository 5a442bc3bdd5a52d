"""Data-driven choice of q by watching the kappa path stabilize.

The ratio rule walks a descending q grid, computes the relative changes
dkappa_k = |kappa_{k-1}/kappa_k - 1| between neighboring fits, and accepts
the leading q of a pass once the changes are mutually comparable
(max <= L min with L = 4).  Otherwise it refines an equally spaced grid
from the last unstable point and tries again; if the span runs out it
falls back to q* = 1, the safe choice when no plateau exists.

Takes about a minute: the contaminated example needs n = 400 locations
for the kappa path to flatten inside the grid.
"""

import time

from lqmatern import (ContaminationSpec, FitChain, MaternParams, SimConfig,
                      default_kappa_spec, select_q_kappa, simulate_dataset)

theta0 = MaternParams(1.0, 0.1, 0.5)


def show(sel):
    print("  selected q* = %g (%s) after %d passes" %
          (sel.q_star, sel.reason, len(sel.trace)))
    for p in sel.trace:
        print("   pass %d grid: %s" % (p.pass_index,
                                       ["%.4g" % v for v in p.grid]))
        if p.series:
            print("          dkap: %s  k* = %s" %
                  (["%.3g" % v for v in p.series], p.k_star))


# --- clean data: no plateau needed, fall back to the MLE --------------------

cfg = SimConfig(theta0, n=100, m=100, layout="grid", seed=0)
locs, reps, _ = simulate_dataset(cfg)
t0 = time.time()
sel = select_q_kappa(FitChain(reps, locs), default_kappa_spec())
print("clean data (n = 100, m = 100), %.0fs:" % (time.time() - t0))
show(sel)

# --- contaminated data: the path plateaus and the walk settles --------------

cfgx = SimConfig(theta0, n=400, m=50, layout="grid", seed=0,
                 contamination=ContaminationSpec(r=0.1, noise_sd=1.0))
locsx, repsx, flagsx = simulate_dataset(cfgx)
t0 = time.time()
selx = select_q_kappa(FitChain(repsx, locsx), default_kappa_spec())
print("\ncontaminated data (n = 400, m = 50, %d replicates hit), %.0fs:"
      % (int(flagsx.sum()), time.time() - t0))
show(selx)
print("\nthe big dkappa step right after q = 1 is the outlier weight being"
      "\nwithdrawn; once the path flattens, the refined pass accepts.")
