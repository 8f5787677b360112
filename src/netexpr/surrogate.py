"""Layer chromosomes and whole-network genotypes.

Each chromosome models one network layer as an affine wrap around a
single-output symbolic function: the layer's surrogate output is
``w * f(prev) + b`` with one scalar f shared by every neuron and
per-neuron (w, b).  A network genotype chains chromosomes so layer i
consumes layer i-1's wrapped output.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import cgp
from .affine import AffineParams
from .errors import DimensionMismatch, SchemaError


@dataclass(frozen=True, eq=False)
class LayerChromosome:
    genotype: cgp.Genotype          # single-output genome
    affine: AffineParams
    layer_index: int

    def __post_init__(self):
        if self.genotype.config.n_outputs != 1:
            raise ValueError("layer chromosomes use single-output genomes")

    @property
    def n_inputs(self) -> int:
        return self.genotype.config.n_inputs

    @property
    def width(self) -> int:
        return self.affine.width

    def with_affine(self, params: AffineParams) -> "LayerChromosome":
        return LayerChromosome(self.genotype, params, self.layer_index)


@dataclass(frozen=True, eq=False)
class LayerOutput:
    """Scalar symbolic outputs and their affine-wrapped layer values."""
    f_values: np.ndarray     # (n_samples,)
    h_values: np.ndarray     # (n_samples, width)


@dataclass(frozen=True, eq=False)
class NetGenotype:
    """One chromosome per network layer, output layer included."""
    chromosomes: tuple[LayerChromosome, ...]

    def __post_init__(self):
        for prev, cur in zip(self.chromosomes, self.chromosomes[1:]):
            if cur.n_inputs != prev.width:
                raise DimensionMismatch(
                    f"layer {cur.layer_index}: expects {cur.n_inputs} inputs "
                    f"but layer {prev.layer_index} is {prev.width} wide")

    @property
    def widths(self) -> list[int]:
        return [c.width for c in self.chromosomes]


def apply_affine(f: np.ndarray, params: AffineParams) -> np.ndarray:
    """Exactly w[j] * f[k] + b[j], elementwise; overflow propagates silently."""
    with np.errstate(over="ignore", invalid="ignore"):
        return f[:, None] * params.w[None, :] + params.b[None, :]


def chromosome_scalar(c: LayerChromosome, inputs: np.ndarray) -> np.ndarray:
    """The shared scalar f over the given layer inputs."""
    inputs = np.asarray(inputs, dtype=float)
    if inputs.ndim != 2 or inputs.shape[1] != c.n_inputs:
        raise DimensionMismatch(
            f"layer {c.layer_index}: expected {c.n_inputs} input columns, "
            f"got shape {inputs.shape}")
    return cgp.evaluate_genotype(c.genotype, inputs)[0]


def chromosome_forward(c: LayerChromosome, inputs: np.ndarray) -> LayerOutput:
    f = chromosome_scalar(c, inputs)
    return LayerOutput(f, apply_affine(f, c.affine))


def genotype_forward(g: NetGenotype, x: np.ndarray) -> list[LayerOutput]:
    """Chain every chromosome; the last element's h_values is the net output."""
    outputs = []
    current = np.asarray(x, dtype=float)
    for c in g.chromosomes:
        out = chromosome_forward(c, current)
        outputs.append(out)
        current = out.h_values
    return outputs


def random_net_genotypes(n_inputs: int, widths: list[int], fset: cgp.FunctionSet,
                         rng: np.random.Generator, n: int, n_rows: int, n_cols: int,
                         n_constants: int = cgp.CgpConfig.n_constants
                         ) -> list[NetGenotype]:
    """n random networks of the given layer widths, one ``cgp.random_genotypes``
    wave per position in order; affines start at w=1, b=0, to be fitted."""
    waves = [cgp.random_genotypes(cgp.CgpConfig(prev, n_rows, n_cols, n_constants),
                                  fset, n, rng) for prev in [n_inputs, *widths[:-1]]]
    return _zip_waves(waves, [AffineParams(np.ones(w), np.zeros(w)) for w in widths],
                      range(len(widths)))


def random_net_genotype(n_inputs: int, widths: list[int], fset: cgp.FunctionSet,
                        rng: np.random.Generator, n_rows: int, n_cols: int,
                        n_constants: int = cgp.CgpConfig.n_constants) -> NetGenotype:
    """One random network: ``random_net_genotypes`` with n = 1."""
    return random_net_genotypes(n_inputs, widths, fset, rng, 1, n_rows, n_cols,
                                n_constants)[0]


def mutate_net(g: NetGenotype, per_gene_prob: float, rng: np.random.Generator,
               n: int) -> list[NetGenotype]:
    """n offspring of one network: one ``cgp.mutate_many`` wave per
    position, in position order; affine params carry over as-is."""
    waves = [cgp.mutate_many(c.genotype, n, per_gene_prob, rng)
             for c in g.chromosomes]
    return _zip_waves(waves, [c.affine for c in g.chromosomes],
                      [c.layer_index for c in g.chromosomes])


def _zip_waves(waves, affines, layer_indices) -> list[NetGenotype]:
    return [NetGenotype(tuple(map(LayerChromosome, genomes, affines, layer_indices)))
            for genomes in zip(*waves)]


def net_to_dict(g: NetGenotype) -> dict:
    return {"chromosomes": [{
        "cgp": cgp.genotype_to_dict(c.genotype),
        "w": [float(v) for v in c.affine.w],
        "b": [float(v) for v in c.affine.b],
        "layer_index": c.layer_index,
    } for c in g.chromosomes]}


def net_from_dict(d: dict, fset: cgp.FunctionSet | None = None) -> NetGenotype:
    try:
        chroms = tuple(
            LayerChromosome(cgp.genotype_from_dict(rec["cgp"], fset),
                            AffineParams(np.array(rec["w"], dtype=float),
                                         np.array(rec["b"], dtype=float)),
                            int(rec["layer_index"]))
            for rec in d["chromosomes"])
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, SchemaError):
            raise
        raise SchemaError(f"bad genotype record: {exc}") from exc
    return NetGenotype(chroms)


def net_to_json(g: NetGenotype) -> str:
    return json.dumps(net_to_dict(g), indent=2)


def net_from_json(text: str, fset: cgp.FunctionSet | None = None) -> NetGenotype:
    try:
        d = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"bad genotype JSON: {exc}") from exc
    return net_from_dict(d, fset)


def layer_var_names(layer_index: int, n_inputs: int) -> list[str]:
    """x0.. for the first layer, h{i-1}_j for later ones."""
    if layer_index == 0:
        return [f"x{i}" for i in range(n_inputs)]
    return [f"h{layer_index - 1}_{j}" for j in range(n_inputs)]


def expression_report(g: NetGenotype,
                      feature_names: list[str] | None = None) -> list[dict]:
    """Per-layer infix expression with its fitted affine vectors."""
    report = []
    for c in g.chromosomes:
        names = (list(feature_names) if c.layer_index == 0 and feature_names
                 else layer_var_names(c.layer_index, c.n_inputs))
        tree = cgp.decode(c.genotype)[0]
        report.append({
            "layer": c.layer_index,
            "expression": cgp.to_infix(tree, names, c.genotype.constants),
            "w": [float(v) for v in c.affine.w],
            "b": [float(v) for v in c.affine.b],
        })
    return report
