import re
import sys

import numpy as np
import pytest

from netexpr import cgp
from netexpr.affine import AffineParams
from netexpr.mlp import LayerTrace
from netexpr.surrogate import LayerChromosome, NetGenotype


def pytest_runtest_logreport(report):
    """One always-visible pass/fail line per acceptance criterion."""
    if report.when != "call" or "test_acceptance.py" not in report.nodeid:
        return
    m = re.search(r"test_c(\d+)", report.nodeid)
    if not m:
        return
    status = "PASS" if report.passed else "FAIL"
    print(f"[acceptance] criterion {m.group(1)}: {status} "
          f"({report.duration:.2f}s)", file=sys.__stderr__)


def build_three_output_genome() -> cgp.Genotype:
    """Hand-encoded 2x5 genome with three outputs.

    Decodes to -x1, 2*x0*x1 + x1^2, and 2*x0 + x1; the last grid column
    is deliberately left unreachable.
    """
    cfg = cgp.CgpConfig(n_inputs=2, n_rows=2, n_cols=5, n_constants=0, n_outputs=3)
    add, sub, mul, div, sin = 0, 1, 2, 3, 6
    genes = np.array([
        # col 0
        [add, 1, 1],   # src 2: 2*x1
        [mul, 0, 1],   # src 3: x0*x1
        # col 1
        [sub, 1, 2],   # src 4: x1 - 2*x1 = -x1
        [add, 3, 3],   # src 5: 2*x0*x1
        # col 2
        [mul, 1, 1],   # src 6: x1^2
        [add, 0, 0],   # src 7: 2*x0
        # col 3
        [add, 5, 6],   # src 8: 2*x0*x1 + x1^2
        [add, 7, 1],   # src 9: 2*x0 + x1
        # col 4 (inactive)
        [div, 0, 1],   # src 10
        [sin, 0, 0],   # src 11
    ], dtype=np.int64)
    outputs = np.array([4, 8, 9], dtype=np.int64)
    constants = np.zeros(0)
    g = cgp.Genotype(cfg, genes, outputs, constants)
    cgp.validate_genotype(g)
    return g


@pytest.fixture
def three_output_genome():
    return build_three_output_genome()


def single_op_chromosome(op_name: str, source: int, n_inputs: int, w, b,
                         layer_index: int) -> LayerChromosome:
    """Chromosome whose scalar is one unary op (or a passthrough) of an input.

    ``op_name`` of "id" wires the output gene straight to the input.
    """
    cfg = cgp.CgpConfig(n_inputs=n_inputs, n_rows=1, n_cols=1, n_constants=0)
    if op_name == "id":
        genes = np.array([[0, 0, 0]], dtype=np.int64)
        out = np.array([source])
    else:
        code = cgp.FUNCTION_SET.by_name(op_name).code
        genes = np.array([[code, source, source]], dtype=np.int64)
        out = np.array([n_inputs])
    g = cgp.Genotype(cfg, genes, out, np.zeros(0))
    return LayerChromosome(g, AffineParams(np.asarray(w, float),
                                           np.asarray(b, float)), layer_index)


def planted_regression_setup(seed: int = 0, n: int = 60):
    """A trace that is exactly an affine chain of expressible scalars.

    Layer 0: sin(x0) scaled per neuron; layer 1 (output): passthrough of
    hidden column 0.  Returns (trace, the genotype that reproduces it).
    """
    rng = np.random.default_rng(seed)
    X = rng.uniform(-2, 2, size=(n, 2))
    w0 = np.array([1.5, -0.5, 2.0])
    b0 = np.array([0.1, 0.2, -0.3])
    c0 = single_op_chromosome("sin", 0, 2, w0, b0, 0)
    f0 = np.sin(X[:, 0])
    h0 = f0[:, None] * w0 + b0
    w1 = np.array([0.75])
    b1 = np.array([-0.25])
    c1 = single_op_chromosome("id", 0, 3, w1, b1, 1)
    y = h0[:, :1] * w1 + b1
    trace = LayerTrace(X, [h0], y)
    return trace, NetGenotype((c0, c1))
