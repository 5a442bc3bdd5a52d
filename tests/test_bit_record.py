"""``bit_record.py --quick`` runs, and two runs print the same record.

The two runs go side by side, about 5 s on a 2-core box.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent / "bit_record.py"


def test_quick_record_is_deterministic(tmp_path):
    env = dict(os.environ, TMPDIR=str(tmp_path))
    env.pop("LQMATERN_OUT", None)
    procs = [subprocess.Popen([sys.executable, str(SCRIPT), "--quick"], cwd=tmp_path,
                              env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True) for _ in range(2)]
    outs = [p.communicate(timeout=120) for p in procs]
    for p, (_out, err) in zip(procs, outs):
        assert p.returncode == 0, err[-2000:]
    first, second = (out for out, _err in outs)
    assert first == second
    rec = json.loads(first)
    assert rec["quick"] and rec["blas_threads"] == "1"
    for base in ("7700", "9110000", "3301"):
        designs = rec[base]
        assert "uniform400" not in designs
        assert len(designs["grid100-rough"]["fits"]) == 3
        assert len(designs["uniform150"]["profile"]) == 5
        for name in ("sweep-kappa-grid", "sweep-sqv-grid", "sweep-kappa-uniform"):
            assert designs[name]["rc"] == 0 and designs[name]["sweep.csv"]
    # the scratch directories of the CLI sweeps are removed
    assert not list(tmp_path.glob("bit_record_*"))
