import io

import numpy as np
import pytest

from netexpr import cgp
from netexpr import evolve as ev
from netexpr.errors import DimensionMismatch
from netexpr.mlp import LayerTrace

from oracles import parse_infix


def small_config(**kw):
    base = dict(n_inputs=3, n_rows=2, n_cols=3, n_constants=1)
    base.update(kw)
    return cgp.CgpConfig(**base)


class TestRandomGenotype:
    def test_single_node_addresses_only_input(self, fset):
        cfg = cgp.CgpConfig(n_inputs=1, n_rows=1, n_cols=1, n_constants=0)
        for seed in range(20):
            g = cgp.random_genotype(cfg, fset, np.random.default_rng(seed))
            assert g.function_genes.shape == (1, 3)
            assert g.function_genes[0, 1] == 0
            assert g.function_genes[0, 2] == 0

    def test_same_seed_same_genotype(self, fset):
        cfg = small_config()
        a = cgp.random_genotype(cfg, fset, np.random.default_rng(7))
        b = cgp.random_genotype(cfg, fset, np.random.default_rng(7))
        assert np.array_equal(a.function_genes, b.function_genes)
        assert np.array_equal(a.output_genes, b.output_genes)
        assert np.array_equal(a.constants, b.constants)

    def test_opcode_coverage_over_many_draws(self, fset):
        cfg = small_config()
        rng = np.random.default_rng(0)
        seen = set()
        for _ in range(1000):
            g = cgp.random_genotype(cfg, fset, rng)
            seen.update(int(x) for x in g.function_genes[:, 0])
        assert seen == set(range(len(fset)))

    def test_always_valid(self, fset):
        rng = np.random.default_rng(3)
        for lb in (1, 2, 3):
            cfg = small_config(levels_back=lb)
            for _ in range(50):
                cgp.validate_genotype(cgp.random_genotype(cfg, fset, rng))

    def test_constants_in_unit_interval(self, fset):
        cfg = small_config(n_constants=4)
        rng = np.random.default_rng(1)
        for _ in range(100):
            g = cgp.random_genotype(cfg, fset, rng)
            assert np.all(g.constants >= -1) and np.all(g.constants <= 1)


class TestDecode:
    def test_passthrough_output(self, fset):
        cfg = cgp.CgpConfig(n_inputs=2, n_rows=1, n_cols=1, n_constants=0)
        genes = np.array([[0, 0, 1]], dtype=np.int64)
        g = cgp.Genotype(cfg, fset, genes, np.array([0]), np.zeros(0))
        (tree,) = cgp.decode(g)
        assert tree == cgp.Var(0)

    def test_single_add_node(self, fset):
        # op '+' with inputs x0, x1 sitting at the first node slot
        cfg = cgp.CgpConfig(n_inputs=2, n_rows=1, n_cols=1, n_constants=0)
        genes = np.array([[0, 0, 1]], dtype=np.int64)
        g = cgp.Genotype(cfg, fset, genes, np.array([2]), np.zeros(0))
        (tree,) = cgp.decode(g)
        assert tree == cgp.Call(fset[0], (cgp.Var(0), cgp.Var(1)))
        assert cgp.to_infix(tree, ["x0", "x1"]) == "(x0 + x1)"

    def test_three_output_genome_functions(self, three_output_genome):
        trees = cgp.decode(three_output_genome)
        X = np.random.default_rng(5).uniform(-3, 3, size=(100, 2))
        x0, x1 = X[:, 0], X[:, 1]
        got = [cgp.evaluate(t, X) for t in trees]
        assert np.array_equal(got[0], -x1)
        assert np.array_equal(got[1], 2 * x0 * x1 + x1 * x1)
        assert np.array_equal(got[2], 2 * x0 + x1)


class TestEvaluate:
    def test_sum_of_inputs(self, fset):
        tree = cgp.Call(fset.by_name("+"), (cgp.Var(0), cgp.Var(1)))
        out = cgp.evaluate(tree, np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert np.array_equal(out, [3.0, 7.0])

    def test_ln_at_zero_is_sentinel(self, fset):
        tree = cgp.Call(fset.by_name("ln"), (cgp.Var(0),))
        out = cgp.evaluate(tree, np.array([[0.0], [1.0]]))
        assert out[0] == cgp.LN_SENTINEL
        assert out[1] == 0.0

    def test_hand_value_of_product_sum(self, three_output_genome):
        # 2*x0*x1 + x1^2 at (1, 1) -> 3
        tree = cgp.decode(three_output_genome)[1]
        out = cgp.evaluate(tree, np.array([[1.0, 1.0]]))
        assert out[0] == 3.0

    def test_dimension_mismatch(self, fset):
        tree = cgp.Call(fset.by_name("+"), (cgp.Var(0), cgp.Var(3)))
        with pytest.raises(DimensionMismatch):
            cgp.evaluate(tree, np.zeros((4, 2)))

    def test_protected_division(self):
        assert cgp.p_div(np.array([5.0]), np.array([0.0]))[0] == 5.0
        assert cgp.p_div(np.array([6.0]), np.array([2.0]))[0] == 3.0

    def test_never_raises_and_flags_overflow(self, fset):
        rng = np.random.default_rng(11)
        cfg = small_config(n_rows=4, n_cols=6)
        X = rng.uniform(-1e8, 1e8, size=(32, 3))
        for _ in range(200):
            g = cgp.random_genotype(cfg, fset, rng)
            out = cgp.evaluate_genotype(g, X)[0]
            assert out.shape == (32,)
            assert out.dtype == np.float64


class TestActiveNodes:
    def test_output_on_input_gives_empty_set(self, fset):
        cfg = cgp.CgpConfig(n_inputs=2, n_rows=1, n_cols=2, n_constants=0)
        genes = np.array([[0, 0, 1], [0, 0, 1]], dtype=np.int64)
        g = cgp.Genotype(cfg, fset, genes, np.array([0]), np.zeros(0))
        assert cgp.active_nodes(g) == set()

    def test_chain_all_active(self, fset):
        cfg = cgp.CgpConfig(n_inputs=1, n_rows=1, n_cols=3, n_constants=0)
        genes = np.array([[6, 0, 0], [6, 1, 1], [6, 2, 2]], dtype=np.int64)
        g = cgp.Genotype(cfg, fset, genes, np.array([3]), np.zeros(0))
        assert cgp.active_nodes(g) == {0, 1, 2}

    def test_three_output_genome_excludes_unreached(self, three_output_genome):
        # reachability worked out by hand from the gene table in conftest
        assert cgp.active_nodes(three_output_genome) == {0, 1, 2, 3, 4, 5, 6, 7}


class TestMutate:
    def test_prob_zero_is_identity(self, fset):
        g = cgp.random_genotype(small_config(), fset, np.random.default_rng(0))
        m = cgp.mutate(g, 0.0, np.random.default_rng(1))
        assert np.array_equal(m.function_genes, g.function_genes)
        assert np.array_equal(m.output_genes, g.output_genes)
        assert np.array_equal(m.constants, g.constants)

    def test_output_genes_never_change(self, fset):
        rng = np.random.default_rng(2)
        g = cgp.random_genotype(small_config(), fset, rng)
        for _ in range(50):
            m = cgp.mutate(g, 1.0, rng)
            assert np.array_equal(m.output_genes, g.output_genes)
            cgp.validate_genotype(m)

    def test_original_untouched(self, fset):
        g = cgp.random_genotype(small_config(), fset, np.random.default_rng(4))
        snapshot = g.function_genes.copy()
        cgp.mutate(g, 1.0, np.random.default_rng(5))
        assert np.array_equal(g.function_genes, snapshot)

    def test_empirical_change_rate(self, fset):
        # change rate per gene should be p * (1 - 1/k), k = valid value count
        cfg = small_config(n_constants=0)
        rng = np.random.default_rng(6)
        g = cgp.random_genotype(cfg, fset, rng)
        p = 0.4
        trials = 10_000
        changed = np.zeros_like(g.function_genes, dtype=float)
        for _ in range(trials):
            m = cgp.mutate(g, p, rng)
            changed += m.function_genes != g.function_genes
        rate = changed / trials
        base = cfg.n_sources_before_nodes
        for j in range(cfg.n_nodes):
            col = cfg.node_column(j)
            for slot in range(3):
                k = len(fset) if slot == 0 else cfg.input_choices(col)
                q = p * (1 - 1 / k)
                sigma = np.sqrt(q * (1 - q) / trials)
                assert abs(rate[j, slot] - q) < 3 * sigma, (j, slot, rate[j, slot], q)

    def test_mutation_closure_over_sequences(self, fset):
        rng = np.random.default_rng(8)
        for lb in (1, 3):
            g = cgp.random_genotype(small_config(levels_back=lb), fset, rng)
            for _ in range(200):
                g = cgp.mutate(g, rng.uniform(0, 1), rng)
                cgp.validate_genotype(g)

    def test_neutral_mutation_leaves_output_bit_identical(self, three_output_genome):
        g = three_output_genome
        genes = g.function_genes.copy()
        genes[8] = [2, 3, 4]   # only touches an inactive node
        genes[9] = [0, 2, 2]
        g2 = cgp.Genotype(g.config, g.fset, genes, g.output_genes.copy(), g.constants.copy())
        X = np.random.default_rng(9).normal(size=(64, 2))
        for a, b in zip(cgp.evaluate_genotype(g, X), cgp.evaluate_genotype(g2, X)):
            assert np.array_equal(a, b)

    def test_same_seed_same_mutation_stream(self, fset):
        g = cgp.random_genotype(small_config(), fset, np.random.default_rng(10))
        r1, r2 = np.random.default_rng(42), np.random.default_rng(42)
        for _ in range(20):
            a = cgp.mutate(g, 0.5, r1)
            b = cgp.mutate(g, 0.5, r2)
            assert np.array_equal(a.function_genes, b.function_genes)
            assert np.array_equal(a.constants, b.constants)


class TestMutateMany:
    def test_empirical_change_rate_over_one_wave(self, fset):
        # per gene, the share of a 10 000-wide wave that differs from the
        # parent should be p * (1 - 1/k), k = valid value count
        cfg = small_config(n_constants=0)
        rng = np.random.default_rng(16)
        g = cgp.random_genotype(cfg, fset, rng)
        p = 0.4
        trials = 10_000
        wave = cgp.mutate_many(g, trials, p, rng)
        changed = sum((m.function_genes != g.function_genes).astype(float)
                      for m in wave)
        rate = changed / trials
        for j in range(cfg.n_nodes):
            col = cfg.node_column(j)
            for slot in range(3):
                k = len(fset) if slot == 0 else cfg.input_choices(col)
                q = p * (1 - 1 / k)
                sigma = np.sqrt(q * (1 - q) / trials)
                assert abs(rate[j, slot] - q) < 3 * sigma, (j, slot, rate[j, slot], q)

    @pytest.mark.parametrize("levels_back", [1, 3])
    @pytest.mark.parametrize("p", [0.03, 0.4, 1.0])
    def test_every_offspring_valid(self, fset, levels_back, p):
        rng = np.random.default_rng(17)
        g = cgp.random_genotype(small_config(levels_back=levels_back, n_cols=4,
                                             n_constants=2), fset, rng)
        wave = cgp.mutate_many(g, 300, p, rng)
        assert len(wave) == 300
        for m in wave:
            cgp.validate_genotype(m)
            assert np.array_equal(m.output_genes, g.output_genes)

    def test_prob_zero_gives_exact_copies(self, fset):
        g = cgp.random_genotype(small_config(n_constants=2), fset,
                                np.random.default_rng(18))
        wave = cgp.mutate_many(g, 5, 0.0, np.random.default_rng(19))
        assert len(wave) == 5
        for m in wave:
            assert np.array_equal(m.function_genes, g.function_genes)
            assert np.array_equal(m.output_genes, g.output_genes)
            assert np.array_equal(m.constants, g.constants)

    def test_parent_untouched(self, fset):
        g = cgp.random_genotype(small_config(n_constants=2), fset,
                                np.random.default_rng(20))
        before = (g.function_genes.copy(), g.output_genes.copy(), g.constants.copy())
        cgp.mutate_many(g, 50, 1.0, np.random.default_rng(21))
        after = (g.function_genes, g.output_genes, g.constants)
        for a, b in zip(before, after):
            assert np.array_equal(a, b)

    def test_offspring_share_no_memory(self, fset):
        g = cgp.random_genotype(small_config(n_constants=2), fset,
                                np.random.default_rng(22))
        wave = cgp.mutate_many(g, 6, 0.4, np.random.default_rng(23))
        genomes = wave + [g]
        fields = ("function_genes", "output_genes", "constants")
        for i, a in enumerate(genomes):
            for b in genomes[i + 1:]:
                for field in fields:
                    assert not np.shares_memory(getattr(a, field), getattr(b, field))
        # each offspring owns its buffers: a view would keep the wave alive
        for m in wave:
            for field in fields:
                assert getattr(m, field).base is None

    def test_bad_probability_rejected(self, fset):
        g = cgp.random_genotype(small_config(), fset, np.random.default_rng(24))
        for p in (-0.1, 1.5):
            with pytest.raises(ValueError):
                cgp.mutate_many(g, 3, p, np.random.default_rng(0))

    @pytest.mark.parametrize("p", [0.0, 0.1, 0.5, 1.0])
    def test_mutate_is_a_wave_of_one(self, fset, p):
        g = cgp.random_genotype(small_config(n_constants=2), fset,
                                np.random.default_rng(25))
        r1, r2 = np.random.default_rng(26), np.random.default_rng(26)
        for _ in range(10):
            a = cgp.mutate(g, p, r1)
            (b,) = cgp.mutate_many(g, 1, p, r2)
            assert np.array_equal(a.function_genes, b.function_genes)
            assert np.array_equal(a.output_genes, b.output_genes)
            assert np.array_equal(a.constants, b.constants)

    @pytest.mark.parametrize("task", [ev.REGRESSION, ev.CLASSIFICATION])
    def test_evolve_csv_repeats_for_a_seed(self, task):
        rng = np.random.default_rng(27)
        X = rng.uniform(-1, 1, size=(40, 2))
        h = [rng.normal(size=(40, 3))]
        z = rng.normal(size=(40, 2))
        y = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True) \
            if task == ev.CLASSIFICATION else z[:, :1]
        trace = LayerTrace(X, h, y)
        cfg = ev.EvolveConfig(n_offspring=12, max_generations=8, mutation_prob=0.3,
                              fitness_target=1e-12, seed=5, n_rows=2, n_cols=3)
        streams = [io.StringIO(), io.StringIO()]
        for stream in streams:
            ev.evolve(trace, task, cfg, log_stream=stream, include_timing=False)
        assert streams[0].getvalue() == streams[1].getvalue()
        assert len(streams[0].getvalue().splitlines()) == 1 + 8


def stacked(genomes):
    return (np.stack([g.function_genes for g in genomes]),
            np.stack([g.output_genes for g in genomes]),
            np.stack([g.constants for g in genomes]))


def with_genes(g, genes=None, constants=None):
    """A fresh genome (empty phenotype cache) with some fields replaced."""
    return cgp.Genotype(g.config, g.fset,
                        g.function_genes.copy() if genes is None else genes,
                        g.output_genes.copy(),
                        g.constants.copy() if constants is None else constants)


class TestPhenotypes:
    @pytest.mark.parametrize("levels_back", [1, None])
    @pytest.mark.parametrize("n_outputs", [1, 3])
    def test_wave_pass_matches_active_nodes(self, fset, levels_back, n_outputs):
        cfg = small_config(n_rows=3, n_cols=5, n_constants=2,
                           levels_back=levels_back, n_outputs=n_outputs)
        rng = np.random.default_rng(30)
        genomes = [cgp.random_genotype(cfg, fset, rng) for _ in range(300)]
        steps, keys = cgp.phenotypes(cfg, fset, *stacked(genomes))
        assert len(steps) == len(keys) == len(genomes)
        for g, s in zip(genomes, steps):
            nodes = list(s[0::4])
            assert nodes == sorted(cgp.active_nodes(g))
            for j, code, a, b in zip(*(s[k::4] for k in range(4))):
                assert (code, a) == tuple(g.function_genes[j, :2])
                assert b == (g.function_genes[j, 2] if fset[code].arity == 2 else -1)

    def test_wave_cache_matches_a_pass_of_one(self, fset):
        g = cgp.random_genotype(small_config(n_rows=3, n_cols=4, n_constants=2),
                                fset, np.random.default_rng(31))
        for m in cgp.mutate_many(g, 40, 0.3, np.random.default_rng(32)):
            alone = with_genes(m)
            assert cgp.phenotype_keys([m]) == cgp.phenotype_keys([alone])
            assert m._steps == alone._steps

    def test_equal_keys_give_bit_equal_outputs(self, fset):
        cfg = small_config(n_rows=2, n_cols=3, n_constants=2, n_outputs=2)
        rng = np.random.default_rng(33)
        X = rng.uniform(-3, 3, size=(50, 3))
        groups: dict = {}
        for _ in range(10):
            parent = cgp.random_genotype(cfg, fset, rng)
            for m in cgp.mutate_many(parent, 60, 0.15, rng):
                groups.setdefault(cgp.phenotype_keys([m])[0], []).append(m)
        shared = [ms for ms in groups.values() if len(ms) > 1]
        # the duplicates are not all plain copies of their genes
        assert any(not np.array_equal(ms[0].function_genes, m.function_genes)
                   or not np.array_equal(ms[0].constants, m.constants)
                   for ms in shared for m in ms[1:])
        for ms in shared:
            first = cgp.evaluate_genotype(ms[0], X)
            for m in ms[1:]:
                for a, b in zip(first, cgp.evaluate_genotype(m, X)):
                    assert np.array_equal(a, b, equal_nan=True)

    def test_constants_in_the_key_only_when_read(self, fset):
        cfg = cgp.CgpConfig(n_inputs=2, n_rows=1, n_cols=2, n_constants=2)
        add, sin = fset.by_name("+").code, fset.by_name("sin").code
        # node 0 = x0 + c0 (source 2); node 1 = sin(node 0); c1 is never read
        genes = np.array([[add, 0, 2], [sin, 4, 1]], dtype=np.int64)
        g = cgp.Genotype(cfg, fset, genes, np.array([5]), np.array([0.5, -0.25]))

        def key(genes=None, constants=None):
            return cgp.phenotype_keys([with_genes(g, genes, constants)])[0]

        unread = key(constants=np.array([0.5, 0.75]))
        assert unread == key()
        assert key(constants=np.array([np.nextafter(0.5, 1.0), -0.25])) != key()
        # sin ignores its second input gene, and nothing reads node 0 twice
        other_b = genes.copy()
        other_b[1, 2] = 0
        assert key(genes=other_b) == key()
        other_a = genes.copy()
        other_a[0, 1] = 1
        assert key(genes=other_a) != key()

    def test_inactive_genes_do_not_change_the_key(self, three_output_genome):
        g = three_output_genome
        genes = g.function_genes.copy()
        genes[8] = [2, 3, 4]      # column 4 is unreachable
        genes[9] = [0, 2, 2]
        assert (cgp.phenotype_keys([with_genes(g, genes)])
                == cgp.phenotype_keys([with_genes(g)]))

    def test_evaluate_runs_the_cached_steps(self, fset, monkeypatch):
        rng = np.random.default_rng(34)
        g = cgp.random_genotype(small_config(n_rows=3, n_cols=4), fset, rng)
        X = rng.uniform(-1, 1, size=(20, 3))
        expected = cgp.evaluate_genotype(with_genes(g), X)

        def no_walk(genome):
            raise AssertionError("evaluate_genotype walked the graph")

        monkeypatch.setattr(cgp, "active_nodes", no_walk)
        cgp.analyse([g])
        for a, b in zip(expected, cgp.evaluate_genotype(g, X)):
            assert np.array_equal(a, b, equal_nan=True)

    def test_analyse_groups_mixed_configs(self, fset):
        rng = np.random.default_rng(35)
        cfgs = [small_config(n_rows=2, n_cols=3), small_config(n_rows=4, n_cols=2)]
        genomes = [cgp.random_genotype(cfgs[i % 2], fset, rng) for i in range(20)]
        keys = cgp.phenotype_keys(genomes)
        assert keys == [cgp.phenotype_keys([with_genes(g)])[0] for g in genomes]


class TestDecodeEvaluateConsistency:
    def test_tree_matches_graph_on_random_genomes(self, fset):
        rng = np.random.default_rng(12)
        cfg = small_config(n_rows=3, n_cols=4, n_constants=2)
        X = rng.uniform(-2, 2, size=(100, 3))
        for _ in range(50):
            g = cgp.random_genotype(cfg, fset, rng)
            via_graph = cgp.evaluate_genotype(g, X)
            via_tree = [cgp.evaluate(t, X, g.constants) for t in cgp.decode(g)]
            for a, b in zip(via_graph, via_tree):
                assert np.array_equal(a, b, equal_nan=True)


class TestToInfix:
    def test_basic_forms(self, fset):
        t = cgp.Call(fset.by_name("+"), (cgp.Var(0), cgp.Var(1)))
        assert cgp.to_infix(t, ["x0", "x1"]) == "(x0 + x1)"
        t = cgp.Call(fset.by_name("square"), (cgp.Var(1),))
        assert cgp.to_infix(t, ["x0", "x1"]) == "((x1)^2)"
        t = cgp.Call(fset.by_name("sin"), (cgp.Const(0),))
        assert cgp.to_infix(t, ["x0"], [0.25]) == "sin(0.25)"

    def test_deterministic(self, three_output_genome):
        trees = cgp.decode(three_output_genome)
        names = ["x0", "x1"]
        first = [cgp.to_infix(t, names) for t in trees]
        second = [cgp.to_infix(t, names) for t in trees]
        assert first == second

    def test_round_trip_through_reference_parser(self, fset):
        rng = np.random.default_rng(13)
        cfg = small_config(n_rows=3, n_cols=4, n_constants=1)
        names = ["x0", "x1", "x2"]
        X = rng.uniform(-2, 2, size=(50, 3))
        for _ in range(40):
            g = cgp.random_genotype(cfg, fset, rng)
            tree = cgp.decode(g)[0]
            text = cgp.to_infix(tree, names, g.constants)
            reparsed = parse_infix(text, names)
            assert np.array_equal(reparsed(X), cgp.evaluate(tree, X, g.constants),
                                  equal_nan=True)


class TestValidateGenotype:
    @pytest.mark.parametrize("levels_back", [1, 2, 4])
    def test_input_window_matches_straight_line_oracle(self, fset, levels_back):
        cfg = small_config(n_inputs=2, n_cols=4, n_constants=1,
                           levels_back=levels_back)
        g = cgp.random_genotype(cfg, fset, np.random.default_rng(19))
        base = cfg.n_sources_before_nodes
        for j in range(cfg.n_nodes):
            col = j // cfg.n_rows
            first = max(0, col - levels_back)
            window = (set(range(base))
                      | set(range(base + first * cfg.n_rows, base + col * cfg.n_rows)))
            for slot in (1, 2):
                for src in range(-2, cfg.n_sources + 2):
                    genes = g.function_genes.copy()
                    genes[j, slot] = src
                    m = cgp.Genotype(cfg, fset, genes, g.output_genes.copy(),
                                     g.constants.copy())
                    if src in window:
                        cgp.validate_genotype(m)
                    else:
                        with pytest.raises(ValueError) as exc:
                            cgp.validate_genotype(m)
                        assert str(exc.value) == f"node {j} input gene {slot} out of range"

    def test_first_bad_gene_is_named(self, fset):
        cfg = small_config(levels_back=1)
        g = cgp.random_genotype(cfg, fset, np.random.default_rng(20))
        genes = g.function_genes.copy()
        genes[3, 2] = genes[4, 1] = cfg.n_sources
        m = cgp.Genotype(cfg, fset, genes, g.output_genes.copy(), g.constants.copy())
        with pytest.raises(ValueError, match="node 3 input gene 2 out of range"):
            cgp.validate_genotype(m)


class TestSerialization:
    def test_round_trip(self, fset):
        g = cgp.random_genotype(small_config(), fset, np.random.default_rng(14))
        text = cgp.genotype_to_json(g)
        g2 = cgp.genotype_from_json(text, fset)
        assert np.array_equal(g.function_genes, g2.function_genes)
        assert np.array_equal(g.output_genes, g2.output_genes)
        assert np.array_equal(g.constants, g2.constants)
        assert cgp.genotype_to_json(g2) == text

    def test_stable_field_order(self, three_output_genome):
        import json
        text = cgp.genotype_to_json(three_output_genome)
        assert list(json.loads(text)) == ["config", "function_genes",
                                          "output_genes", "constants"]
        assert text.index('"config"') < text.index('"function_genes"') \
            < text.index('"output_genes"') < text.index('"constants"')

    def test_bad_json_is_schema_error(self):
        from netexpr.errors import SchemaError
        with pytest.raises(SchemaError):
            cgp.genotype_from_json("{not json")
        with pytest.raises(SchemaError):
            cgp.genotype_from_json('{"config": {"n_inputs": 1}}')
