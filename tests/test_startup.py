"""Start-up: a fresh interpreter imports relay_aloha and its CLI without
numpy, the closed forms, series and figs 2-4 never load it, and every
entry point that builds arrays works when it is the first to load it."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# Run first in a fresh interpreter, then in this one for the comparison.
PRELUDE = """
import contextlib, io, sys
import relay_aloha, relay_aloha.cli
from relay_aloha import *

def cli(line):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = relay_aloha.cli.cli_main(line.split())
    return code, out.getvalue()
"""
PROBE = PRELUDE + """
import json
before = "numpy" in sys.modules
value = {expr}
print(json.dumps([before, "numpy" in sys.modules, repr(value)]))
"""

_P = "SystemParams(1.5, 3, 0.3, 0.2, 0.5)"
_FLAGS = "--k 3 --eps-u 0.3 --eps-d 0.2 --delta 0.5"

# (id, expression, whether it loads numpy)
CASES = [
    ("eval", "cli('eval --g 1 --k 2 --eps-u 0.3 --eps-d 0.3 --delta 0.5')",
     False),
    ("bound", "cli('bound --g 1.5 --k 40 --eps-u 0.3')", False),
    ("sweep-analytic", f"cli('sweep --axis g --values 0.5,1,2 {_FLAGS} "
     "--outputs analytic,bound')", False),
    ("fig2", "cli('reproduce fig2')", False),
    ("fig3", "cli('reproduce fig3')", False),
    ("fig4", "cli('reproduce fig4')", False),
    ("closed-and-series", f"[throughput({_P}), bound(1.5, 40, 0.3), "
     f"throughput_closed({_P}), throughput_series({_P}), "
     "bound_closed(1.5, 3, 0.3), bound_series(1.5, 3, 0.3), "
     "delta_star_k2(0.3, 0.2), s_star_k2(0.3, 0.2)]", False),
    ("optimize_delta", "optimize_delta(1.5, 3, 0.3, 0.2)", True),
    ("optimize_load", "optimize_load(3, 0.3, 0.2, 0.5)", True),
    ("optimize_k", "optimize_k(0.3, 0.2, k_max=4)", True),
    ("simulate", f"simulate(SimConfig({_P}, 5000, seed=7))", True),
    ("simulate_trace",
     f"simulate_trace(SimConfig({_P}, 50, warmup_slots=5, seed=7))", True),
    ("rng_substream", "rng_substream(7, 2).random(4).tolist()", True),
    ("sweep-simulated", f"cli('sweep --axis g --values 0.5,1,2 {_FLAGS} "
     "--outputs analytic,simulated --slots 5000')", True),
]


@pytest.mark.parametrize("expr,loads_numpy",
                         [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_numpy_loads_only_at_the_first_array(expr, loads_numpy):
    done = subprocess.run(
        [sys.executable, "-c", PROBE.format(expr=expr)],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=120, check=True)
    before, after, value = json.loads(done.stdout.splitlines()[-1])
    assert not before
    assert after == loads_numpy
    namespace = {}
    exec(PRELUDE, namespace)
    assert value == repr(eval(expr, namespace))
