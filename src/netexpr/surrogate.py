"""Layer chromosomes and whole-network genotypes.

Each chromosome models one network layer as an affine wrap around a
single-output symbolic function: the layer's surrogate output is
``w * f(prev) + b`` with one scalar f shared by every neuron and
per-neuron (w, b).  A network genotype chains chromosomes so layer i
consumes layer i-1's wrapped output.
A ``Population`` keeps each position's genomes as ``cgp.Wave``s; only
an individual picked out becomes a chromosome.  ``net_from_json`` reads
a genotype file back and raises ``SchemaError`` unless chromosome i has
layer_index i, integer genes, and affine params and constants that are
finite JSON numbers.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import cgp
from .affine import AffineParams
from .errors import DimensionMismatch, SchemaError, json_floats


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


@dataclass(frozen=True, eq=False)
class Population:
    """Networks as waves by position: ``waves[pos]`` holds the genomes of
    consecutive individuals at position pos (one wave for a drawn or
    mutated population, one per run of equal grid configs for a listed
    one), and ``affines[pos][i]`` is individual i's params there;
    offspring share their parent's object, as the parent, their wave's
    last row, does."""
    waves: tuple[tuple[cgp.Wave, ...], ...]
    affines: tuple[tuple[AffineParams, ...], ...]

    @classmethod
    def of(cls, nets: Sequence[NetGenotype]) -> "Population":
        """The population of networks made one at a time."""
        columns = list(zip(*(net.chromosomes for net in nets)))
        runs = [itertools.groupby((c.genotype for c in col), lambda g: g.config)
                for col in columns]
        return cls(tuple(tuple(cgp.stack(list(run)) for _, run in pos) for pos in runs),
                   tuple(tuple(c.affine for c in col) for col in columns))

    def __len__(self) -> int:
        return len(self.affines[0])

    def _row(self, pos: int, i: int) -> tuple[cgp.Wave, int]:
        """The wave that holds individual i at position pos, and i's row in it."""
        i = range(len(self))[i]
        for wave in self.waves[pos]:
            if i < len(wave):
                return wave, i
            i -= len(wave)

    def chromosome(self, pos: int, i: int) -> LayerChromosome:
        """Individual i's chromosome at position pos, owning copies of its
        genes, and keeping their one-row wave for evaluation."""
        wave, row = self._row(pos, i)
        return LayerChromosome(wave[row], self.affines[pos][i], pos)

    def __getitem__(self, i: int) -> NetGenotype:
        return NetGenotype(tuple(self.chromosome(pos, i)
                                 for pos in range(len(self.waves))))


def random_net_genotypes(n_inputs: int, widths: list[int], rng: np.random.Generator,
                         n: int, n_rows: int, n_cols: int,
                         n_constants: int = cgp.CgpConfig.n_constants) -> Population:
    """n random networks of the given layer widths, one ``cgp.random_genotypes``
    wave per position in order; affines start at w=1, b=0, to be fitted."""
    return Population(
        tuple((cgp.random_genotypes(cgp.CgpConfig(prev, n_rows, n_cols, n_constants),
                                    n, rng),) for prev in [n_inputs, *widths[:-1]]),
        tuple((AffineParams(np.ones(w), np.zeros(w)),) * n for w in widths))


def mutate_net(g: NetGenotype, per_gene_prob: float, rng: np.random.Generator,
               n: int) -> Population:
    """n offspring of one network, then the network itself as individual
    n: one ``cgp.mutate_many`` wave of n + 1 rows per position, in
    position order; affine params carry over as-is."""
    return Population(tuple((cgp.mutate_many(c.genotype, n, per_gene_prob, rng),)
                            for c in g.chromosomes),
                      tuple((c.affine,) * (n + 1) for c in g.chromosomes))


def net_to_dict(g: NetGenotype) -> dict:
    return {"chromosomes": [{
        "cgp": cgp.genotype_to_dict(c.genotype),
        "w": [float(v) for v in c.affine.w],
        "b": [float(v) for v in c.affine.b],
        "layer_index": c.layer_index,
    } for c in g.chromosomes]}


def net_from_dict(d: dict) -> NetGenotype:
    """The network of a ``net_to_dict`` record: chromosome i must have
    layer_index i and affine params that are finite JSON numbers."""
    chroms = []
    try:
        for i, rec in enumerate(d["chromosomes"]):
            if type(rec["layer_index"]) is not int or rec["layer_index"] != i:
                raise SchemaError(f"layer {i}: layer_index is {rec['layer_index']!r}")
            affine = AffineParams(json_floats(rec["w"], f"layer {i} w"),
                                  json_floats(rec["b"], f"layer {i} b"))
            if not (np.isfinite(affine.w).all() and np.isfinite(affine.b).all()):
                raise SchemaError(f"layer {i}: affine params w and b must be finite")
            chroms.append(LayerChromosome(cgp.genotype_from_dict(rec["cgp"]), affine, i))
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"bad genotype record: {exc}") from exc
    return NetGenotype(tuple(chroms))


def net_to_json(g: NetGenotype) -> str:
    return json.dumps(net_to_dict(g), indent=2)


def net_from_json(text: str) -> NetGenotype:
    try:
        d = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"bad genotype JSON: {exc}") from exc
    return net_from_dict(d)


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
