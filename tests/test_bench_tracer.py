"""The benchmark's tracer (``perfbench/tracing.py``) wraps voacalc names
from outside; a rename that leaves it counting nothing fails here."""

import json
import subprocess
import sys
from pathlib import Path

import voacalc

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# install wraps module attributes in place, so the run gets its own process
SCRIPT = """
import json, sys
sys.path[:0] = [{src!r}, {perfbench!r}]
import tracing
from voacalc import cli
tracer = tracing.Tracer()
algebras = tracing.install(tracer)
suites = list(cli.SUITES)
cli.run_suites(suites, cli.SuiteConfig(level=3))
print(json.dumps([tracing.layer_metrics(tracer, algebras, suites, 1.0),
                  [span[2] for span in tracer.spans]]))
"""


def test_tracer_counts_every_suite_run():
    src = str(Path(voacalc.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT.format(src=src, perfbench=str(PERFBENCH))],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    metrics, spans = json.loads(proc.stdout)
    # every loss test reaches the wrapped ``axioms.VOAAction.true_nonzero``
    # (the bracket formulas test the raise of each top-weight w once per
    # call), and the run computes each structure constant it reads once,
    # on its one algebra per level, the moduli evaluations only those at
    # the weights their pairings read
    assert metrics["axioms.true_nonzero.calls"] == 197
    assert metrics["fock.mode_basis.computed"] == 604
    assert metrics["fock.apply_mode.calls"] > 0
    assert metrics["fock.float_coeffs"] == 0
    # the delta suite's 25 fundamental checks plus the two- and three-term
    assert spans.count("series.check_delta_identity") == 27
