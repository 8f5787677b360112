import dataclasses
import io

import numpy as np
import pytest

from netexpr import cgp
from netexpr import evolve as ev
from netexpr.errors import DimensionMismatch
from netexpr.mlp import LayerTrace

from oracles import (PLAIN_OPS, mutate_many_masked, parse_infix,
                     random_genotype_one_at_a_time)


def small_config(**kw):
    base = dict(n_inputs=3, n_rows=2, n_cols=3, n_constants=1)
    base.update(kw)
    return cgp.CgpConfig(**base)


class TestFunctionSet:
    def test_opcodes_are_pinned(self):
        # every genotype.json stores opcodes as indices into this table
        assert [(op.code, op.name, op.arity) for op in cgp.FUNCTION_SET.ops] == [
            (0, "+", 2), (1, "-", 2), (2, "*", 2), (3, "/", 2), (4, "sqrt", 1),
            (5, "square", 1), (6, "sin", 1), (7, "cos", 1), (8, "ln", 1),
            (9, "tan", 1), (10, "exp", 1)]
        assert cgp.Genotype.fset is cgp.FUNCTION_SET


class TestRandomGenotype:
    def test_single_node_addresses_only_input(self):
        cfg = cgp.CgpConfig(n_inputs=1, n_rows=1, n_cols=1, n_constants=0)
        for seed in range(20):
            g = cgp.random_genotypes(cfg, 1, np.random.default_rng(seed))[0]
            assert g.function_genes.shape == (1, 3)
            assert g.function_genes[0, 1] == 0
            assert g.function_genes[0, 2] == 0

    def test_same_seed_same_genotype(self):
        cfg = small_config()
        a = cgp.random_genotypes(cfg, 1, np.random.default_rng(7))[0]
        b = cgp.random_genotypes(cfg, 1, np.random.default_rng(7))[0]
        assert np.array_equal(a.function_genes, b.function_genes)
        assert np.array_equal(a.output_genes, b.output_genes)
        assert np.array_equal(a.constants, b.constants)

    def test_opcode_coverage_over_many_draws(self):
        cfg = small_config()
        rng = np.random.default_rng(0)
        seen = set()
        for _ in range(1000):
            g = cgp.random_genotypes(cfg, 1, rng)[0]
            seen.update(int(x) for x in g.function_genes[:, 0])
        assert seen == set(range(len(cgp.FUNCTION_SET)))

    def test_always_valid(self):
        rng = np.random.default_rng(3)
        for n_cols in (1, 2, 3):
            cfg = small_config(n_cols=n_cols)
            for _ in range(50):
                cgp.validate_genotype(cgp.random_genotypes(cfg, 1, rng)[0])

    def test_constants_in_unit_interval(self):
        cfg = small_config(n_constants=4)
        rng = np.random.default_rng(1)
        for _ in range(100):
            g = cgp.random_genotypes(cfg, 1, rng)[0]
            assert np.all(g.constants >= -1) and np.all(g.constants <= 1)


class CountingRng:
    """A generator that counts the calls made to it."""

    def __init__(self, rng):
        self.rng = rng
        self.calls = 0

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def call(*args, **kwargs):
            self.calls += 1
            return method(*args, **kwargs)
        return call


def same_genes(a, b):
    return (np.array_equal(a.function_genes, b.function_genes)
            and np.array_equal(a.output_genes, b.output_genes)
            and np.array_equal(a.constants, b.constants))


class TestRandomGenotypes:
    @pytest.mark.parametrize("n_constants", [0, 1, 3])
    @pytest.mark.parametrize("n_outputs", [1, 3])
    def test_one_genome_draws_as_the_one_at_a_time_oracle(self, n_constants, n_outputs):
        cfg = small_config(n_rows=3, n_cols=4, n_constants=n_constants,
                           n_outputs=n_outputs)
        for seed in range(30):
            mine, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(2):
                assert same_genes(cgp.random_genotypes(cfg, 1, mine)[0],
                                  random_genotype_one_at_a_time(cfg, ref))
            assert mine.bit_generator.state == ref.bit_generator.state

    def test_wave_genomes_are_valid_keyed_and_own_their_arrays(self):
        cfg = small_config(n_rows=3, n_cols=4, n_constants=2, n_outputs=2)
        wave = cgp.random_genotypes(cfg, 60, np.random.default_rng(36))
        assert len(wave) == 60
        genomes = list(wave)
        fields = ("function_genes", "output_genes", "constants")
        for i, g in enumerate(genomes):
            cgp.validate_genotype(g)
            assert cgp.stack([g]).keys == [wave.keys[i]]
            for field in fields:
                assert getattr(g, field).base is None
                assert not any(np.shares_memory(getattr(g, field), getattr(h, field))
                               for h in genomes[i + 1:])

    def test_rng_calls_do_not_depend_on_n(self):
        cfg = small_config(n_constants=2)
        calls = []
        for n in (1, 7, 60):
            rng = CountingRng(np.random.default_rng(37))
            cgp.random_genotypes(cfg, n, rng)
            calls.append(rng.calls)
        assert calls == [5, 5, 5]

    def test_wave_draws_every_valid_value(self):
        cfg = small_config(n_rows=2, n_cols=3, n_constants=2)
        wave = cgp.random_genotypes(cfg, 3000, np.random.default_rng(38))
        genes = np.stack([g.function_genes for g in wave])
        assert set(genes[:, :, 0].ravel().tolist()) == set(range(len(cgp.FUNCTION_SET)))
        for j in range(cfg.n_nodes):
            valid = set(range(cfg.input_choices(cfg.node_column(j))))
            for slot in (1, 2):
                assert set(genes[:, j, slot].tolist()) == valid
        outputs = np.concatenate([g.output_genes for g in wave])
        assert set(outputs.tolist()) == set(range(cfg.n_sources))
        constants = np.stack([g.constants for g in wave])
        assert constants.min() >= -1.0 and constants.max() <= 1.0


class TestDecode:
    def test_passthrough_output(self):
        cfg = cgp.CgpConfig(n_inputs=2, n_rows=1, n_cols=1, n_constants=0)
        genes = np.array([[0, 0, 1]], dtype=np.int64)
        g = cgp.Genotype(cfg, genes, np.array([0]), np.zeros(0))
        (tree,) = cgp.decode(g)
        assert tree == cgp.Var(0)

    def test_single_add_node(self):
        # op '+' with inputs x0, x1 sitting at the first node slot
        cfg = cgp.CgpConfig(n_inputs=2, n_rows=1, n_cols=1, n_constants=0)
        genes = np.array([[0, 0, 1]], dtype=np.int64)
        g = cgp.Genotype(cfg, genes, np.array([2]), np.zeros(0))
        (tree,) = cgp.decode(g)
        assert tree == cgp.Call(cgp.FUNCTION_SET[0], (cgp.Var(0), cgp.Var(1)))
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
    def test_sum_of_inputs(self):
        tree = cgp.Call(cgp.FUNCTION_SET.by_name("+"), (cgp.Var(0), cgp.Var(1)))
        out = cgp.evaluate(tree, np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert np.array_equal(out, [3.0, 7.0])

    def test_ln_at_zero_is_sentinel(self):
        tree = cgp.Call(cgp.FUNCTION_SET.by_name("ln"), (cgp.Var(0),))
        out = cgp.evaluate(tree, np.array([[0.0], [1.0]]))
        assert out[0] == cgp.LN_SENTINEL
        assert out[1] == 0.0

    def test_hand_value_of_product_sum(self, three_output_genome):
        # 2*x0*x1 + x1^2 at (1, 1) -> 3
        tree = cgp.decode(three_output_genome)[1]
        out = cgp.evaluate(tree, np.array([[1.0, 1.0]]))
        assert out[0] == 3.0

    def test_dimension_mismatch(self):
        tree = cgp.Call(cgp.FUNCTION_SET.by_name("+"), (cgp.Var(0), cgp.Var(3)))
        with pytest.raises(DimensionMismatch):
            cgp.evaluate(tree, np.zeros((4, 2)))

    def test_protected_division(self):
        assert cgp.p_div(np.array([5.0]), np.array([0.0]))[0] == 5.0
        assert cgp.p_div(np.array([6.0]), np.array([2.0]))[0] == 3.0

    def test_never_raises_and_flags_overflow(self):
        rng = np.random.default_rng(11)
        cfg = small_config(n_rows=4, n_cols=6)
        X = rng.uniform(-1e8, 1e8, size=(32, 3))
        for _ in range(200):
            g = cgp.random_genotypes(cfg, 1, rng)[0]
            out = cgp.evaluate_genotype(g, X)[0]
            assert out.shape == (32,)
            assert out.dtype == np.float64


    @pytest.mark.parametrize("genes,output,filled", [
        ([["+", 0, 3], ["sin", 5, 0]], 6, [-0.25]),    # sin(x0 + c1)
        ([["+", 0, 1], ["*", 5, 1]], 6, []),           # (x0 + x1) * x1
        ([["-", 2, 4], ["cos", 5, 3]], 6, [0.5, 2.0]),  # cos(c0 - c2); ignores c1
        ([["+", 0, 3], ["sin", 5, 0]], 4, [2.0]),      # the output gene reads c2
    ])
    def test_a_row_only_for_each_constant_read(self, monkeypatch, genes,
                                              output, filled):
        cfg = cgp.CgpConfig(n_inputs=2, n_rows=1, n_cols=2, n_constants=3)
        table = np.array([[cgp.FUNCTION_SET.by_name(op).code, a, b] for op, a, b in genes])
        g = cgp.Genotype(cfg, table, np.array([output]),
                         np.array([0.5, -0.25, 2.0]))
        X = np.random.default_rng(13).uniform(-2, 2, size=(9, 2))
        tree = cgp.decode(g)[0]
        expected = cgp.evaluate(tree, X, g.constants)
        made = []
        empty = np.empty
        monkeypatch.setattr(np, "empty", lambda *a, **k: made.append(empty(*a, **k))
                            or made[-1])
        (out,) = cgp.evaluate_genotype(g, X)
        # the value buffer's rows: the inputs, the constants read, the steps
        (buf,) = [a for a in made
                  if a.ndim == 2 and a.shape[1] == 9 and a is not out.base]
        assert np.array_equal(buf[:2], X.T)
        consts = buf[2:2 + len(filled)]
        assert np.array_equal(consts, np.repeat(np.array(filled)[:, None], 9, axis=1))
        steps = buf[2 + len(filled):]
        active = sorted(cgp.active_nodes(g))
        assert len(steps) == len(active)
        for row, j in zip(steps, active):
            node = cgp.Genotype(cfg, table, np.array([5 + j]), g.constants)
            assert np.array_equal(row, cgp.evaluate(cgp.decode(node)[0], X, g.constants))
        assert np.array_equal(out, expected)


class TestActiveNodes:
    def test_output_on_input_gives_empty_set(self):
        cfg = cgp.CgpConfig(n_inputs=2, n_rows=1, n_cols=2, n_constants=0)
        genes = np.array([[0, 0, 1], [0, 0, 1]], dtype=np.int64)
        g = cgp.Genotype(cfg, genes, np.array([0]), np.zeros(0))
        assert cgp.active_nodes(g) == set()

    def test_chain_all_active(self):
        cfg = cgp.CgpConfig(n_inputs=1, n_rows=1, n_cols=3, n_constants=0)
        genes = np.array([[6, 0, 0], [6, 1, 1], [6, 2, 2]], dtype=np.int64)
        g = cgp.Genotype(cfg, genes, np.array([3]), np.zeros(0))
        assert cgp.active_nodes(g) == {0, 1, 2}

    def test_three_output_genome_excludes_unreached(self, three_output_genome):
        # reachability worked out by hand from the gene table in conftest
        assert cgp.active_nodes(three_output_genome) == {0, 1, 2, 3, 4, 5, 6, 7}


class TestMutate:
    def test_prob_zero_is_identity(self):
        g = cgp.random_genotypes(small_config(), 1, np.random.default_rng(0))[0]
        m = cgp.mutate_many(g, 1, 0.0, np.random.default_rng(1))[0]
        assert np.array_equal(m.function_genes, g.function_genes)
        assert np.array_equal(m.output_genes, g.output_genes)
        assert np.array_equal(m.constants, g.constants)

    def test_output_genes_never_change(self):
        rng = np.random.default_rng(2)
        g = cgp.random_genotypes(small_config(), 1, rng)[0]
        for _ in range(50):
            m = cgp.mutate_many(g, 1, 1.0, rng)[0]
            assert np.array_equal(m.output_genes, g.output_genes)
            cgp.validate_genotype(m)

    def test_original_untouched(self):
        g = cgp.random_genotypes(small_config(), 1, np.random.default_rng(4))[0]
        snapshot = g.function_genes.copy()
        cgp.mutate_many(g, 1, 1.0, np.random.default_rng(5))[0]
        assert np.array_equal(g.function_genes, snapshot)

    def test_empirical_change_rate(self):
        # change rate per gene should be p * (1 - 1/k), k = valid value count
        cfg = small_config(n_constants=0)
        rng = np.random.default_rng(6)
        g = cgp.random_genotypes(cfg, 1, rng)[0]
        p = 0.4
        trials = 10_000
        changed = np.zeros_like(g.function_genes, dtype=float)
        for _ in range(trials):
            m = cgp.mutate_many(g, 1, p, rng)[0]
            changed += m.function_genes != g.function_genes
        rate = changed / trials
        base = cfg.n_sources_before_nodes
        for j in range(cfg.n_nodes):
            col = cfg.node_column(j)
            for slot in range(3):
                k = len(cgp.FUNCTION_SET) if slot == 0 else cfg.input_choices(col)
                q = p * (1 - 1 / k)
                sigma = np.sqrt(q * (1 - q) / trials)
                assert abs(rate[j, slot] - q) < 3 * sigma, (j, slot, rate[j, slot], q)

    def test_mutation_closure_over_sequences(self):
        rng = np.random.default_rng(8)
        for n_cols in (1, 3):
            g = cgp.random_genotypes(small_config(n_cols=n_cols), 1, rng)[0]
            for _ in range(200):
                g = cgp.mutate_many(g, 1, rng.uniform(0, 1), rng)[0]
                cgp.validate_genotype(g)

    def test_neutral_mutation_leaves_output_bit_identical(self, three_output_genome):
        g = three_output_genome
        genes = g.function_genes.copy()
        genes[8] = [2, 3, 4]   # only touches an inactive node
        genes[9] = [0, 2, 2]
        g2 = cgp.Genotype(g.config, genes, g.output_genes.copy(), g.constants.copy())
        X = np.random.default_rng(9).normal(size=(64, 2))
        for a, b in zip(cgp.evaluate_genotype(g, X), cgp.evaluate_genotype(g2, X)):
            assert np.array_equal(a, b)

    def test_same_seed_same_mutation_stream(self):
        g = cgp.random_genotypes(small_config(), 1, np.random.default_rng(10))[0]
        r1, r2 = np.random.default_rng(42), np.random.default_rng(42)
        for _ in range(20):
            a = cgp.mutate_many(g, 1, 0.5, r1)[0]
            b = cgp.mutate_many(g, 1, 0.5, r2)[0]
            assert np.array_equal(a.function_genes, b.function_genes)
            assert np.array_equal(a.constants, b.constants)


class TestMutateMany:
    def test_empirical_change_rate_over_one_wave(self):
        # per gene, the share of a 10 000-wide wave that differs from the
        # parent should be p * (1 - 1/k), k = valid value count
        cfg = small_config(n_constants=0)
        rng = np.random.default_rng(16)
        g = cgp.random_genotypes(cfg, 1, rng)[0]
        p = 0.4
        trials = 10_000
        wave = cgp.mutate_many(g, trials, p, rng)
        changed = sum((m.function_genes != g.function_genes).astype(float)
                      for m in wave)
        rate = changed / trials
        for j in range(cfg.n_nodes):
            col = cfg.node_column(j)
            for slot in range(3):
                k = len(cgp.FUNCTION_SET) if slot == 0 else cfg.input_choices(col)
                q = p * (1 - 1 / k)
                sigma = np.sqrt(q * (1 - q) / trials)
                assert abs(rate[j, slot] - q) < 3 * sigma, (j, slot, rate[j, slot], q)

    @pytest.mark.parametrize("p", [0.03, 0.4, 1.0])
    def test_every_offspring_valid(self, p):
        rng = np.random.default_rng(17)
        g = cgp.random_genotypes(small_config(n_cols=4, n_constants=2), 1, rng)[0]
        wave = cgp.mutate_many(g, 300, p, rng)
        assert len(wave) == 301     # the offspring, then the parent
        for m in wave:
            cgp.validate_genotype(m)
            assert np.array_equal(m.output_genes, g.output_genes)

    def test_prob_zero_gives_exact_copies(self):
        g = cgp.random_genotypes(small_config(n_constants=2), 1,
                                 np.random.default_rng(18))[0]
        wave = cgp.mutate_many(g, 5, 0.0, np.random.default_rng(19))
        assert len(wave) == 6
        for m in wave:
            assert np.array_equal(m.function_genes, g.function_genes)
            assert np.array_equal(m.output_genes, g.output_genes)
            assert np.array_equal(m.constants, g.constants)

    def test_parent_untouched(self):
        g = cgp.random_genotypes(small_config(n_constants=2), 1,
                                 np.random.default_rng(20))[0]
        before = (g.function_genes.copy(), g.output_genes.copy(), g.constants.copy())
        cgp.mutate_many(g, 50, 1.0, np.random.default_rng(21))
        after = (g.function_genes, g.output_genes, g.constants)
        for a, b in zip(before, after):
            assert np.array_equal(a, b)

    def test_offspring_share_no_memory(self):
        g = cgp.random_genotypes(small_config(n_constants=2), 1,
                                 np.random.default_rng(22))[0]
        wave = cgp.mutate_many(g, 6, 0.4, np.random.default_rng(23))
        genomes = list(wave) + [g]
        fields = ("function_genes", "output_genes", "constants")
        for i, a in enumerate(genomes):
            for b in genomes[i + 1:]:
                for field in fields:
                    assert not np.shares_memory(getattr(a, field), getattr(b, field))
        # each offspring owns its buffers: a view would keep the wave alive
        for m in wave:
            for field in fields:
                assert getattr(m, field).base is None

    def test_bad_probability_rejected(self):
        g = cgp.random_genotypes(small_config(), 1, np.random.default_rng(24))[0]
        for p in (-0.1, 1.5):
            with pytest.raises(ValueError):
                cgp.mutate_many(g, 3, p, np.random.default_rng(0))

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


class TestMutateManyMatchesMaskedOracle:
    @pytest.mark.parametrize("n", [1, 7, 200])
    @pytest.mark.parametrize("p", [0.0, 0.2, 1.0])
    @pytest.mark.parametrize("shape", [
        dict(),
        dict(n_constants=0),
        dict(n_outputs=3, n_constants=2),
        dict(n_cols=5),
    ])
    def test_bit_for_bit(self, n, p, shape):
        cfg = small_config(**shape)
        g = cgp.random_genotypes(cfg, 1, np.random.default_rng(61))[0]
        r1, r2 = np.random.default_rng(62), np.random.default_rng(62)
        wave = cgp.mutate_many(g, n, p, r1)
        # the n offspring, then the parent unmutated as row n
        for got, want in ((wave.take(range(n)), mutate_many_masked(g, n, p, r2)),
                          (wave.take([n]), cgp.stack([g]))):
            for field in ("genes", "outputs", "constants", "steps", "n_steps"):
                a, b = getattr(got, field), getattr(want, field)
                assert a.dtype == b.dtype and np.array_equal(a, b), field
            assert got.keys == want.keys
        # the generator is left at the same point of its stream
        assert r1.random() == r2.random()


def stacked(genomes):
    return (np.stack([g.function_genes for g in genomes]),
            np.stack([g.output_genes for g in genomes]),
            np.stack([g.constants for g in genomes]))


def with_genes(g, genes=None, constants=None):
    """A fresh genome with some fields replaced."""
    return cgp.Genotype(g.config,
                        g.function_genes.copy() if genes is None else genes,
                        g.output_genes.copy(),
                        g.constants.copy() if constants is None else constants)


class TestPhenotypes:
    @pytest.mark.parametrize("n_outputs", [1, 3])
    def test_wave_pass_matches_active_nodes(self, n_outputs):
        cfg = small_config(n_rows=3, n_cols=5, n_constants=2, n_outputs=n_outputs)
        rng = np.random.default_rng(30)
        genomes = [cgp.random_genotypes(cfg, 1, rng)[0] for _ in range(300)]
        wave = cgp.phenotypes(cfg, *stacked(genomes))
        assert len(wave) == len(wave.n_steps) == len(genomes)
        assert wave.steps.shape == (wave.n_steps.sum(), 4)
        ends = np.cumsum(wave.n_steps)[:-1]
        for g, s in zip(genomes, np.split(wave.steps, ends)):
            assert s[:, 0].tolist() == sorted(cgp.active_nodes(g))
            for j, code, a, b in s.tolist():
                assert (code, a) == tuple(g.function_genes[j, :2])
                assert b == (g.function_genes[j, 2] if cgp.FUNCTION_SET[code].arity == 2 else -1)

    def test_wave_matches_a_pass_of_one(self):
        g = cgp.random_genotypes(small_config(n_rows=3, n_cols=4, n_constants=2),
                                 1, np.random.default_rng(31))[0]
        wave = cgp.mutate_many(g, 40, 0.3, np.random.default_rng(32))
        ends = np.cumsum(wave.n_steps)
        for i, m in enumerate(wave):
            alone = cgp.stack([with_genes(m)])
            assert alone.keys == [wave.keys[i]]
            assert np.array_equal(alone.steps, wave.steps[ends[i] - wave.n_steps[i]:ends[i]])

    def test_take_of_unsorted_rows_equals_a_stack_of_its_genomes(self):
        cfg = small_config(n_rows=3, n_cols=4, n_constants=2, n_outputs=2)
        wave = cgp.random_genotypes(cfg, 30, np.random.default_rng(35))
        for rows in ([7], [29, 3, 3, 0, 18, 4], [5, 4, 3, 2, 1, 0]):
            taken, stacked_ = wave.take(rows), cgp.stack([wave[i] for i in rows])
            assert taken.keys == stacked_.keys
            for field in ("steps", "n_steps", "genes", "outputs", "constants"):
                assert np.array_equal(getattr(taken, field), getattr(stacked_, field))

    def test_equal_keys_give_bit_equal_outputs(self):
        cfg = small_config(n_rows=2, n_cols=3, n_constants=2, n_outputs=2)
        rng = np.random.default_rng(33)
        X = rng.uniform(-3, 3, size=(50, 3))
        groups: dict = {}
        for _ in range(10):
            parent = cgp.random_genotypes(cfg, 1, rng)[0]
            wave = cgp.mutate_many(parent, 60, 0.15, rng)
            for m, key in zip(wave, wave.keys):
                groups.setdefault(key, []).append(m)
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

    def test_constants_in_the_key_only_when_read(self):
        cfg = cgp.CgpConfig(n_inputs=2, n_rows=1, n_cols=2, n_constants=2)
        add, sin = cgp.FUNCTION_SET.by_name("+").code, cgp.FUNCTION_SET.by_name("sin").code
        # node 0 = x0 + c0 (source 2); node 1 = sin(node 0); c1 is never read
        genes = np.array([[add, 0, 2], [sin, 4, 1]], dtype=np.int64)
        g = cgp.Genotype(cfg, genes, np.array([5]), np.array([0.5, -0.25]))

        def key(genes=None, constants=None):
            return cgp.stack([with_genes(g, genes, constants)]).keys[0]

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
        assert cgp.stack([with_genes(g, genes)]).keys == cgp.stack([g]).keys

    def test_evaluate_runs_the_wave_steps(self, monkeypatch):
        rng = np.random.default_rng(34)
        wave = cgp.random_genotypes(small_config(n_rows=3, n_cols=4), 1, rng)
        X = rng.uniform(-1, 1, size=(20, 3))
        expected = [cgp.evaluate(t, X, wave[0].constants) for t in cgp.decode(wave[0])]

        def no_walk(genome):
            raise AssertionError("evaluate_genotype walked the graph")

        monkeypatch.setattr(cgp, "active_nodes", no_walk)
        for got in (cgp.evaluate_many(wave, X), cgp.evaluate_genotype(wave[0], X)):
            for a, b in zip(expected, got):
                assert np.array_equal(a, b, equal_nan=True)


class TestDecodeEvaluateConsistency:
    def test_tree_matches_graph_on_random_genomes(self):
        rng = np.random.default_rng(12)
        cfg = small_config(n_rows=3, n_cols=4, n_constants=2)
        X = rng.uniform(-2, 2, size=(100, 3))
        for _ in range(50):
            g = cgp.random_genotypes(cfg, 1, rng)[0]
            via_graph = cgp.evaluate_genotype(g, X)
            via_tree = [cgp.evaluate(t, X, g.constants) for t in cgp.decode(g)]
            for a, b in zip(via_graph, via_tree):
                assert np.array_equal(a, b, equal_nan=True)


def same_bits(a, b) -> bool:
    """Equal shapes and equal bits, any NaN matching any NaN."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    nan = np.isnan(a)
    return (a.shape == b.shape and np.array_equal(nan, np.isnan(b))
            and np.array_equal(np.where(nan, 0.0, a).view(np.int64),
                               np.where(nan, 0.0, b).view(np.int64)))


def awkward_inputs(rng, n, d):
    """Inputs that reach every op's protected or overflowing branch."""
    X = rng.uniform(-3, 3, size=(n, d))
    X[:4] = np.resize([0.0, -0.0, 1e3, -1e3, 1e-12, np.pi / 2, 710.0, 1e-300], (4, d))
    return X


class TestEvaluateMany:
    @staticmethod
    def genomes(cfg, rng, n):
        """n random genomes, a fifth of them with every output gene on an
        input or a constant (no steps), a fifth with one such output."""
        base = cfg.n_sources_before_nodes
        out = []
        for i, g in enumerate(cgp.random_genotypes(cfg, n, rng)):
            outputs = g.output_genes.copy()
            if i % 5 == 0:
                outputs = rng.integers(0, base, cfg.n_outputs)
            elif i % 5 == 1:
                outputs[0] = rng.integers(0, base)
            out.append(cgp.Genotype(cfg, g.function_genes.copy(), outputs,
                                    g.constants.copy()))
        return out

    @pytest.mark.parametrize("n_constants,n_outputs", [(0, 1), (2, 1), (3, 3)])
    @pytest.mark.parametrize("n,block,slab", [
        (20, None, None),     # the buffer's own sizes: one block
        (20, 200, 60),        # 10-row buffer, 3-row slabs: many blocks and slabs
        (8000, None, None),   # 8-row buffer, one-row slabs read in place
    ])
    def test_equals_each_genome_alone_and_its_trees(self, monkeypatch, n_constants,
                                                    n_outputs, n, block, slab):
        if block is not None:
            monkeypatch.setattr(cgp, "EVAL_BLOCK", block)
            monkeypatch.setattr(cgp, "EVAL_SLAB", slab)
        cfg = small_config(n_rows=3, n_cols=4, n_constants=n_constants,
                           n_outputs=n_outputs)
        rng = np.random.default_rng(37)
        X = awkward_inputs(rng, n, cfg.n_inputs)
        genomes = self.genomes(cfg, rng, 40)
        many = cgp.evaluate_many(genomes, X)
        assert many.shape == (len(genomes) * n_outputs, n)
        for d, g in enumerate(genomes):
            alone = cgp.evaluate_genotype(g, X)
            trees = [cgp.evaluate(t, X, g.constants) for t in cgp.decode(g)]
            assert len(alone) == len(trees) == n_outputs
            for j in range(n_outputs):
                assert same_bits(many[d * n_outputs + j], alone[j])
                assert same_bits(alone[j], trees[j])

    def test_one_genome_and_no_steps(self):
        cfg = small_config(n_constants=2, n_outputs=2)
        X = awkward_inputs(np.random.default_rng(38), 9, 3)
        genes = np.zeros((cfg.n_nodes, 3), dtype=np.int64)
        g = cgp.Genotype(cfg, genes, np.array([1, 4]), np.array([0.5, -2.0]))
        out = cgp.evaluate_many([g], X)
        assert same_bits(out, [X[:, 1], np.full(9, -2.0)])

    def test_writes_into_out(self):
        rng = np.random.default_rng(39)
        genomes = cgp.random_genotypes(small_config(), 12, rng)
        X = awkward_inputs(rng, 15, 3)
        out = np.full((12, 15), 7.0)
        assert cgp.evaluate_many(genomes, X, out=out) is out
        assert same_bits(out, cgp.evaluate_many(genomes, X))

    def test_listed_rows_of_a_wave_equal_their_genomes_stacked(self):
        cfg = small_config(n_rows=3, n_cols=4, n_constants=2, n_outputs=2)
        rng = np.random.default_rng(41)
        wave = cgp.random_genotypes(cfg, 13, rng)
        genomes = list(wave)
        X = awkward_inputs(rng, 20, 3)
        # the rows are read from the steps, output genes and constants alone
        blind = dataclasses.replace(wave, genes=None)
        for rows in ([0], [12, 7, 0, 7, 3, 8], list(range(13))[::-1]):
            want = cgp.evaluate_many([genomes[i] for i in rows], X)
            assert same_bits(cgp.evaluate_many(blind, X, rows=rows), want)
        assert same_bits(cgp.evaluate_many(blind, X), cgp.evaluate_many(genomes, X))
        for rows in ([len(wave)], [-1]):
            with pytest.raises(IndexError):
                cgp.evaluate_many(wave, X, rows=rows)

    @staticmethod
    def offspring_position():
        """The wave and rows selection hands ``evaluate_many`` at one
        position: the distinct rows of one parent's wave, its 200 offspring
        (p = 0.4) and then the parent, on 3 inputs.  The parent, the largest
        of 50 random genomes, has 10 active steps; its offspring need about
        1 500 buffer rows, as a K0 position's do after the first generation."""
        cfg = cgp.CgpConfig(n_inputs=3)
        rng = np.random.default_rng(0)
        pool = cgp.random_genotypes(cfg, 50, rng)
        parent = pool[int(np.argmax(pool.n_steps))]
        wave = cgp.mutate_many(parent, 200, 0.4, rng)
        first: dict = {}
        for i, key in enumerate(wave.keys):
            first.setdefault(key, i)
        return wave, np.array(list(first.values()))

    @pytest.mark.parametrize("n", [160, 8000])
    def test_one_sweep_of_the_groups_unless_n_is_large(self, monkeypatch, n):
        wave, rows = self.offspring_position()
        cfg = wave.config
        X = awkward_inputs(np.random.default_rng(n), n, cfg.n_inputs)
        calls, buffers = [], []

        def counting(fn):
            def call(*args, out):
                calls.append(fn)
                buffers.append(out.base.size)     # the value buffer it writes
                return fn(*args, out=out)
            return call

        monkeypatch.setattr(cgp, "_FNS", [counting(fn) for fn in cgp._FNS])
        got = cgp.evaluate_many(wave, X, rows=rows)
        assert max(buffers) <= max(cgp.EVAL_BLOCK,
                                   (cfg.n_inputs + cfg.n_constants + cfg.n_nodes) * n)
        if n == 160:
            # one call per (column, opcode) group and slab, as with no bound
            ops = len(calls)
            calls.clear()
            monkeypatch.setattr(cgp, "EVAL_BLOCK", 1 << 40)
            assert same_bits(cgp.evaluate_many(wave, X, rows=rows), got)
            assert ops <= len(calls)
        else:
            # blocks of whole genomes, each row as its genome gives it alone
            for d, row in enumerate(rows):
                assert same_bits(got[d], cgp.evaluate_many(wave, X, rows=[row])[0])

    def test_mixed_configs_and_bad_widths_rejected(self):
        rng = np.random.default_rng(40)
        a = cgp.random_genotypes(small_config(), 1, rng)[0]
        b = cgp.random_genotypes(small_config(n_rows=3), 1, rng)[0]
        with pytest.raises(ValueError, match="share a config"):
            cgp.evaluate_many([a, b], np.zeros((5, 3)))
        with pytest.raises(DimensionMismatch):
            cgp.evaluate_many([a], np.zeros((5, 2)))


class TestOpsOnSlabs:
    """``evaluate_many`` runs an op once on a gathered (k, n) slab, or on
    one row in place, writing into its buffer; a genome's own row would
    be a strided input column.  All must give the plain expression's bits
    on the CPU that runs the tests."""

    @pytest.mark.parametrize("n", [7, 160, 500, 8000])
    def test_slab_equals_each_row(self, n):
        rng = np.random.default_rng(n)
        k = 37
        special = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e-10, -1e-10, 1e-300,
                   710.0, -750.0, np.pi / 2, 1e300]
        columns = []         # (n, k): column i is slab row i, strided
        for _ in range(2):
            x = rng.normal(0.0, 3.0, size=(n, k))
            hit = rng.choice(n * k, min(n * k, 80), replace=False)
            x.flat[hit] = rng.choice(special, hit.size)
            columns.append(x)
        slabs = [np.ascontiguousarray(x.T) for x in columns]
        for op in cgp.FUNCTION_SET.ops:
            args = slabs[:op.arity]
            with np.errstate(all="ignore"):
                whole = op.fn(*args)
                into = np.empty((k, n))
                op.fn(*args, out=into)
                for i in range(k):
                    strided = [x[:, i] for x in columns[:op.arity]]
                    expected = PLAIN_OPS[op.name](*strided)
                    row = np.empty(n)
                    op.fn(*(s[i] for s in args), out=row)
                    assert same_bits(op.fn(*strided), expected), op.name
                    assert same_bits(whole[i], expected), op.name
                    assert same_bits(into[i], expected), op.name
                    assert same_bits(row, expected), op.name


    @pytest.mark.parametrize("name,fn", [("tan", np.tan), ("exp", np.exp)])
    def test_clamps_equal_the_clip_form_bit_for_bit(self, name, fn):
        # tan and exp clamp by np.maximum / np.minimum (exp by np.minimum
        # only, as it is never negative), not np.clip: the same raw bits,
        # NaN sign and payload included, written in place or not
        C = cgp.CLAMP
        x = np.array([np.inf, -np.inf, np.nan, -np.nan, C, -C, -0.0, 0.0, 1e300,
                      -1e300, np.pi / 2, -np.pi / 2, 27.7, 710.0, -750.0])
        op = cgp.FUNCTION_SET.by_name(name)
        with np.errstate(all="ignore"):
            want = np.clip(fn(x), -C, C).view(np.int64)
            into = np.empty_like(x)
            assert op.fn(x, out=into) is into
            assert np.array_equal(op.fn(x).view(np.int64), want)
        assert np.array_equal(into.view(np.int64), want)
        assert np.abs(into[~np.isnan(into)]).max() == C     # the clamp acted


class TestToInfix:
    def test_basic_forms(self):
        t = cgp.Call(cgp.FUNCTION_SET.by_name("+"), (cgp.Var(0), cgp.Var(1)))
        assert cgp.to_infix(t, ["x0", "x1"]) == "(x0 + x1)"
        t = cgp.Call(cgp.FUNCTION_SET.by_name("square"), (cgp.Var(1),))
        assert cgp.to_infix(t, ["x0", "x1"]) == "((x1)^2)"
        t = cgp.Call(cgp.FUNCTION_SET.by_name("sin"), (cgp.Const(0),))
        assert cgp.to_infix(t, ["x0"], [0.25]) == "sin(0.25)"

    def test_deterministic(self, three_output_genome):
        trees = cgp.decode(three_output_genome)
        names = ["x0", "x1"]
        first = [cgp.to_infix(t, names) for t in trees]
        second = [cgp.to_infix(t, names) for t in trees]
        assert first == second

    def test_round_trip_through_reference_parser(self):
        rng = np.random.default_rng(13)
        cfg = small_config(n_rows=3, n_cols=4, n_constants=1)
        names = ["x0", "x1", "x2"]
        X = rng.uniform(-2, 2, size=(50, 3))
        for _ in range(40):
            g = cgp.random_genotypes(cfg, 1, rng)[0]
            tree = cgp.decode(g)[0]
            text = cgp.to_infix(tree, names, g.constants)
            reparsed = parse_infix(text, names)
            assert np.array_equal(reparsed(X), cgp.evaluate(tree, X, g.constants),
                                  equal_nan=True)


class TestValidateGenotype:
    def test_input_window_matches_straight_line_oracle(self):
        cfg = small_config(n_inputs=2, n_cols=4, n_constants=1)
        g = cgp.random_genotypes(cfg, 1, np.random.default_rng(19))[0]
        base = cfg.n_sources_before_nodes
        for j in range(cfg.n_nodes):
            col = j // cfg.n_rows
            window = set(range(base + col * cfg.n_rows))   # every earlier column
            for slot in (1, 2):
                for src in range(-2, cfg.n_sources + 2):
                    genes = g.function_genes.copy()
                    genes[j, slot] = src
                    m = cgp.Genotype(cfg, genes, g.output_genes.copy(),
                                     g.constants.copy())
                    if src in window:
                        cgp.validate_genotype(m)
                    else:
                        with pytest.raises(ValueError) as exc:
                            cgp.validate_genotype(m)
                        assert str(exc.value) == f"node {j} input gene {slot} out of range"

    def test_first_bad_gene_is_named(self):
        cfg = small_config()
        g = cgp.random_genotypes(cfg, 1, np.random.default_rng(20))[0]
        genes = g.function_genes.copy()
        genes[3, 2] = genes[4, 1] = cfg.n_sources
        m = cgp.Genotype(cfg, genes, g.output_genes.copy(), g.constants.copy())
        with pytest.raises(ValueError, match="node 3 input gene 2 out of range"):
            cgp.validate_genotype(m)


class TestSerialization:
    def test_round_trip(self):
        g = cgp.random_genotypes(small_config(), 1, np.random.default_rng(14))[0]
        text = cgp.genotype_to_json(g)
        g2 = cgp.genotype_from_json(text)
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
