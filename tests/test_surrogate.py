import numpy as np
import pytest

from netexpr import cgp, surrogate
from netexpr.affine import AffineParams
from netexpr.errors import DimensionMismatch

from oracles import random_net_genotype_one_at_a_time


def passthrough_chromosome(n_inputs, w, b, layer_index=0, column=0):
    """Chromosome whose scalar f is just input column `column`."""
    cfg = cgp.CgpConfig(n_inputs=n_inputs, n_rows=1, n_cols=1, n_constants=0)
    genes = np.array([[0, 0, 0]], dtype=np.int64)
    g = cgp.Genotype(cfg, genes,
                     np.array([column]), np.zeros(0))
    return surrogate.LayerChromosome(g, AffineParams(np.asarray(w, float),
                                                     np.asarray(b, float)),
                                     layer_index)


class TestChromosomeForward:
    def test_affine_arithmetic(self):
        c = passthrough_chromosome(1, [2.0, 0.0], [1.0, 5.0])
        out = surrogate.chromosome_forward(c, np.array([[3.0]]))
        assert np.array_equal(out.f_values, [3.0])
        assert np.array_equal(out.h_values, [[7.0, 5.0]])

    def test_zero_weights_give_bias_rows(self):
        rng = np.random.default_rng(0)
        c = passthrough_chromosome(2, [0.0, 0.0, 0.0], [1.0, -2.0, 0.5])
        X = rng.normal(size=(10, 2))
        out = surrogate.chromosome_forward(c, X)
        assert np.array_equal(out.h_values, np.tile([1.0, -2.0, 0.5], (10, 1)))

    def test_affine_exactness(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            cfg = cgp.CgpConfig(n_inputs=3, n_rows=2, n_cols=3, n_constants=1)
            g = cgp.random_genotypes(cfg, 1, rng)[0]
            width = int(rng.integers(1, 5))
            c = surrogate.LayerChromosome(
                g, AffineParams(rng.normal(size=width), rng.normal(size=width)), 0)
            X = rng.uniform(-1, 1, size=(16, 3))
            out = surrogate.chromosome_forward(c, X)
            recon = out.f_values[:, None] * c.affine.w + c.affine.b
            assert np.array_equal(out.h_values, recon, equal_nan=True)

    def test_width_mismatch_names_layer(self):
        c = passthrough_chromosome(2, [1.0], [0.0], layer_index=3)
        with pytest.raises(DimensionMismatch, match="layer 3"):
            surrogate.chromosome_forward(c, np.zeros((4, 5)))

    def test_constant_minus_cos_at_zero(self):
        # f(u) = 0.88 - cos(u); at u=0 the scalar is -0.12
        cfg = cgp.CgpConfig(n_inputs=1, n_rows=1, n_cols=2, n_constants=1)
        genes = np.array([[7, 0, 0],    # src 2: cos(u)
                          [1, 1, 2]],   # src 3: const - cos(u)
                         dtype=np.int64)
        g = cgp.Genotype(cfg, genes, np.array([3]), np.array([0.88]))
        w = np.array([2.0, -1.0])
        b = np.array([0.5, 0.0])
        c = surrogate.LayerChromosome(g, AffineParams(w, b), 1)
        out = surrogate.chromosome_forward(c, np.array([[0.0]]))
        assert np.allclose(out.f_values, [-0.12], atol=1e-15)
        assert np.allclose(out.h_values, [[-0.12 * 2 + 0.5, 0.12]], atol=1e-15)


class TestGenotypeForward:
    def test_single_chromosome_equals_chromosome_forward(self):
        rng = np.random.default_rng(2)
        c = passthrough_chromosome(2, [1.5], [0.25])
        net = surrogate.NetGenotype((c,))
        X = rng.normal(size=(8, 2))
        direct = surrogate.chromosome_forward(c, X)
        chained = surrogate.genotype_forward(net, X)
        assert len(chained) == 1
        assert np.array_equal(chained[0].h_values, direct.h_values)

    def test_two_passthroughs_compose_to_identity(self):
        c0 = passthrough_chromosome(1, [1.0], [0.0], layer_index=0)
        c1 = passthrough_chromosome(1, [1.0], [0.0], layer_index=1)
        net = surrogate.NetGenotype((c0, c1))
        X = np.linspace(-2, 2, 9).reshape(-1, 1)
        outs = surrogate.genotype_forward(net, X)
        assert np.array_equal(outs[-1].h_values[:, 0], X[:, 0])

    def test_three_layer_widths_chain(self):
        rng = np.random.default_rng(3)
        net = surrogate.random_net_genotypes(2, [4, 4, 1], rng, 1,
                                             n_rows=2, n_cols=3)[0]
        X = rng.uniform(-1, 1, size=(12, 2))
        outs = surrogate.genotype_forward(net, X)
        assert [o.h_values.shape[1] for o in outs] == [4, 4, 1]

    def test_mismatched_chain_rejected(self):
        c0 = passthrough_chromosome(1, [1.0, 1.0], [0.0, 0.0], layer_index=0)
        c1 = passthrough_chromosome(3, [1.0], [0.0], layer_index=1)
        with pytest.raises(DimensionMismatch, match="layer 1"):
            surrogate.NetGenotype((c0, c1))

    def test_forward_is_pure(self):
        rng = np.random.default_rng(4)
        net = surrogate.random_net_genotypes(1, [3, 1], rng, 1, n_rows=2,
                                             n_cols=2)[0]
        X = rng.normal(size=(6, 1))
        first = surrogate.genotype_forward(net, X)
        second = surrogate.genotype_forward(net, X)
        for a, b in zip(first, second):
            assert np.array_equal(a.h_values, b.h_values, equal_nan=True)


class TestRandomNets:
    @pytest.mark.parametrize("n_constants", [0, 1, 3])
    @pytest.mark.parametrize("n_inputs,widths", [(1, [3, 1]), (2, [4, 4, 2]), (3, [1])])
    def test_one_net_draws_as_the_one_at_a_time_oracle(self, n_constants, n_inputs,
                                                       widths):
        for seed in range(10):
            mine, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(2):
                a = surrogate.random_net_genotypes(n_inputs, widths, mine, 1, 2,
                                                   3, n_constants)[0]
                b = random_net_genotype_one_at_a_time(n_inputs, widths, ref, 2,
                                                      3, n_constants)
                assert surrogate.net_to_dict(a) == surrogate.net_to_dict(b)
            assert mine.bit_generator.state == ref.bit_generator.state

    def test_nets_are_one_wave_per_position(self):
        nets = surrogate.random_net_genotypes(2, [3, 3, 1],
                                              np.random.default_rng(6), 5, 2, 3)
        rng = np.random.default_rng(6)
        waves = [cgp.random_genotypes(cgp.CgpConfig(n_in, 2, 3), 5, rng)
                 for n_in in (2, 3, 3)]
        assert len(nets) == 5
        for wave, (mine,), affines in zip(waves, nets.waves, nets.affines):
            assert mine.keys == wave.keys
            assert np.array_equal(mine.genes, wave.genes)
            assert all(a is affines[0] for a in affines)
        for k, net in enumerate(nets):
            assert net.widths == [3, 3, 1]
            for i, c in enumerate(net.chromosomes):
                assert c.layer_index == i
                assert (cgp.genotype_to_dict(c.genotype)
                        == cgp.genotype_to_dict(waves[i][k]))
                assert c.affine.w.tolist() == [1.0] * c.width
                assert c.affine.b.tolist() == [0.0] * c.width


class TestPopulation:
    def test_listed_nets_make_one_wave_per_run_of_equal_grids(self):
        rng = np.random.default_rng(7)
        small = surrogate.random_net_genotypes(2, [3, 1], rng, 3, 2, 3)
        other = surrogate.random_net_genotypes(2, [3, 1], rng, 1, 1, 1)
        nets = [small[0], small[1], other[0], small[2]]
        pop = surrogate.Population.of(nets)
        assert len(pop) == 4
        for pos in range(2):
            assert [len(w) for w in pop.waves[pos]] == [2, 1, 1]
            for i, net in enumerate(nets):
                c, want = pop.chromosome(pos, i), net.chromosomes[pos]
                assert c.layer_index == pos
                assert c.affine is want.affine
                assert (cgp.genotype_to_dict(c.genotype)
                        == cgp.genotype_to_dict(want.genotype))
        assert surrogate.net_to_dict(pop[-1]) == surrogate.net_to_dict(small[2])
        with pytest.raises(IndexError):
            pop.chromosome(0, 4)


class TestSerialization:
    def test_round_trip(self):
        rng = np.random.default_rng(5)
        net = surrogate.random_net_genotypes(2, [3, 1], rng, 1, n_rows=2,
                                             n_cols=2)[0]
        text = surrogate.net_to_json(net)
        net2 = surrogate.net_from_json(text)
        assert surrogate.net_to_json(net2) == text
        X = rng.normal(size=(5, 2))
        a = surrogate.genotype_forward(net, X)[-1].h_values
        b = surrogate.genotype_forward(net2, X)[-1].h_values
        assert np.array_equal(a, b, equal_nan=True)


class TestExpressionReport:
    def test_layer_names_and_shape(self):
        c0 = passthrough_chromosome(2, [1.0, 2.0], [0.0, 0.5], layer_index=0, column=1)
        c1 = passthrough_chromosome(2, [1.0], [0.0], layer_index=1)
        report = surrogate.expression_report(surrogate.NetGenotype((c0, c1)))
        assert report[0]["expression"] == "x1"
        assert report[1]["expression"] == "h0_0"
        assert report[0]["w"] == [1.0, 2.0]

    def test_feature_names_used_on_first_layer(self):
        c0 = passthrough_chromosome(2, [1.0], [0.0], column=0)
        report = surrogate.expression_report(surrogate.NetGenotype((c0,)),
                                             feature_names=["mass", "speed"])
        assert report[0]["expression"] == "mass"
