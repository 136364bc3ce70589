"""perfbench/tracing.py binds the package's functions by name: each binding
site must still resolve, and the proof tally must find what it reads, or a
traced benchmark run silently loses its per-layer numbers."""

import importlib.util
import os

from streamcert.moments import MODE_STRICT, Shape
from streamcert.sumcheck import DenseProver

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                     "tracing.py")
_spec = importlib.util.spec_from_file_location("perfbench_tracing", _PATH)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


def test_every_binding_site_resolves():
    missing = [tracing.site_name(module, path)
               for module, path, _, _ in tracing.SITES
               if tracing._resolve(module, path) is None]
    assert missing == []


def test_proof_tally_reads_a_dense_prover():
    params = Shape(64, 8, 4, 4, MODE_STRICT, mains=(2,)).main_params()[2]
    prover = DenseProver(params)
    prover.update(0, 3, 5)
    prover.update(0, 7, 1)
    assert tracing._proof_tally(prover) == {
        "proof_points": params.proof_len, "proof_nonzeros": 2}
