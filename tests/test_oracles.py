import inspect
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from suita_lab import geometry as geo
from suita_lab import green as gr
from suita_lab import oracles as oc
from suita_lab import sublevel as sl
from suita_lab import verify as vf
from suita_lab.errors import ConvergenceFailure, InvalidArgument, PointOutsideDomain, UnsupportedDomain
from suita_lab.geometry import Annulus, Disc, MoebiusImage, Polygon


class TestCounterUniform:
    def test_pure_function(self):
        a = oc.counter_uniform(42, 1, np.arange(1000))
        b = oc.counter_uniform(42, 1, np.arange(1000))
        assert np.array_equal(a, b)

    def test_seeds_decorrelate(self):
        a = oc.counter_uniform(42, 1, np.arange(1000))
        b = oc.counter_uniform(43, 1, np.arange(1000))
        assert np.max(np.abs(a - b)) > 0.1

    def test_streams_decorrelate(self):
        a = oc.counter_uniform(42, 1, np.arange(1000))
        b = oc.counter_uniform(42, 2, np.arange(1000))
        assert not np.array_equal(a, b)

    def test_range_and_moments(self):
        u = oc.counter_uniform(7, 1, np.arange(1_000_000))
        assert np.all((u >= 0) & (u < 1))
        assert np.mean(u) == pytest.approx(0.5, abs=2e-3)
        assert np.var(u) == pytest.approx(1 / 12, rel=1e-2)

    @given(st.integers(min_value=0, max_value=2**62), st.integers(min_value=0, max_value=2**30))
    def test_scheduling_independence(self, seed, offset):
        # the value at a counter does not depend on which block computed it
        block = oc.counter_uniform(seed, 3, np.arange(offset, offset + 8))
        single = oc.counter_uniform(seed, 3, np.array([offset + 5]))
        assert block[5] == single[0]


class TestUnitDirections:
    def test_matches_high_precision_trig(self):
        # 2 pi u against 120-bit cos and sin, on random counters and on the
        # edges of the table: u = 0, each table entry +- 1 ulp of u, u < 1
        mpmath = pytest.importorskip("mpmath")
        step = 1 << (53 - oc._TABLE_BITS)
        edges = np.arange(1 << oc._TABLE_BITS, dtype=np.uint64) * np.uint64(step)
        k = np.concatenate(
            [
                oc._key_bits(oc._counter_keys(oc._stream_base(5, 1), np.arange(10_000))),
                edges,
                edges[1:] - np.uint64(1),
                edges + np.uint64(1),
                np.array([0, (1 << 53) - 1], dtype=np.uint64),
            ]
        )
        cos, sin = oc._unit_directions(k.copy())
        worst = 0.0
        with mpmath.workprec(120):
            for ki, c, s in zip(k.tolist(), cos.tolist(), sin.tolist()):
                angle = 2 * mpmath.pi * mpmath.mpf(ki) / 2**53
                worst = max(worst, abs(c - mpmath.cos(angle)), abs(s - mpmath.sin(angle)))
        assert worst <= 8e-16

    def test_stepped_keys_are_the_step_counters(self):
        # the walker steps a walk's key by step * golden: that must be the
        # key of the counter (walk << _STEP_BITS) | step
        base = oc._stream_base(42, oc._STREAM_WOS)
        first = np.arange(50, dtype=np.uint64) << np.uint64(oc._STEP_BITS)
        for step in (0, 1, 7, oc.MAX_STEPS - 1):
            with np.errstate(over="ignore"):
                stepped = oc._counter_keys(base, first) + np.uint64(step) * oc._GOLDEN
            assert np.array_equal(stepped, oc._counter_keys(base, first | np.uint64(step)))


class TestWosGreen:
    # (mean, std_error) of the plain estimator log|z - w| - mean(score) on
    # the walks of the default plan's four calls at their former walk
    # counts, frozen from the walker that drew directions with exp(2 pi i u)
    PLAN = [
        (Annulus(0.5), 0.7 + 0j, 0.55 + 0.3j, 100_000, 42, -0.1785200601995981, 0.001150966359231513),
        (Annulus(0.5), 0.7 + 0j, -0.62 + 0.1j, 100_000, 42, 0.0006505589762011987, 0.000517528528740207),
        (Polygon((0j, 1 + 0j, 1 + 1j, 1j)), 0.5 + 0.5j, 0.25 + 0.25j, 50_000, 42, -0.44102212590352197, 0.0003704399847705794),
        (Polygon((0j, 1 + 0j, 1 + 1j, 1j)), 0.25 + 0.25j, 0.5 + 0.5j, 50_000, 43, -0.441166772046783, 0.0020353783846669073),
    ]
    # (mean, std_error) of wos_green on the same calls at the plan's walk
    # counts today, a tenth of the above.  The fit moves both by rounding:
    # the mean by ulps of its O(1) terms, the bound by ulps of those terms
    # over a residual range of 1e-4 to 1e-2.
    CONTROLLED = [
        (-0.17814711290996282, 1.4137152010798044e-06),
        (-2.9985435089947826e-06, 1.4134109159593847e-06),
        (-0.4406871506473335, 1.0096060187428854e-06),
        (-0.440692890907541, 4.740562285226926e-05),
    ]
    IDS = ["annulus_a", "annulus_b", "square_a", "square_b"]

    @pytest.mark.parametrize("call", range(4), ids=IDS)
    def test_plan_calls_reproduce_frozen_estimates(self, call):
        # the walker is pinned: its exits give the plain estimate and its
        # sample standard error as they were frozen
        domain, w, z, walks, seed, mean, std_error = self.PLAN[call]
        scores = np.log(np.abs(oc._walk(domain, z, walks, seed) - w))
        assert math.log(abs(z - w)) - float(np.mean(scores)) == pytest.approx(mean, rel=1e-12)
        assert float(np.std(scores, ddof=1) / math.sqrt(walks)) == pytest.approx(std_error, rel=1e-12)

    @pytest.mark.parametrize("call", range(4), ids=IDS)
    def test_plan_calls_reproduce_frozen_control_estimates(self, call):
        domain, w, z, walks, seed, _, old_std_error = self.PLAN[call]
        mean, std_error = self.CONTROLLED[call]
        est = oc.wos_green(domain, w, z, walks // 10, seed)
        assert est.mean == pytest.approx(mean, rel=0, abs=1e-15)
        assert est.std_error == pytest.approx(std_error, rel=1e-9)
        assert est.std_error <= old_std_error / 10

    @pytest.mark.parametrize("seed", range(16))
    def test_bound_is_honest_on_plan_lines(self, seed):
        # the plan's three lines at its walk counts, against the series on
        # the annulus and against the symmetry G(z, w) = G(w, z) on the square
        ann, square = Annulus(0.5), Polygon((0j, 1 + 0j, 1 + 1j, 1j))
        for z in (0.55 + 0.3j, -0.62 + 0.1j):
            est = oc.wos_green(ann, 0.7 + 0j, z, 10_000, seed)
            assert abs(est.mean - gr.green_eval(ann, 0.7 + 0j, z).value) <= 3 * est.std_error
        a = oc.wos_green(square, 0.5 + 0.5j, 0.25 + 0.25j, 5_000, seed)
        b = oc.wos_green(square, 0.25 + 0.25j, 0.5 + 0.5j, 5_000, seed + 1)
        assert abs(a.mean - b.mean) <= 3 * math.hypot(a.std_error, b.std_error)

    def test_independent_of_green_module(self, monkeypatch):
        # the referee reads nothing of the series it referees
        def refuse(*args, **kwargs):
            raise AssertionError("wos_green called into green")

        for name, obj in vars(gr).items():
            if inspect.isfunction(obj) and obj.__module__ == gr.__name__:
                monkeypatch.setattr(gr, name, refuse)
        with pytest.raises(AssertionError):
            gr.green_eval(Annulus(0.5), 0.7 + 0j, 0.2 + 0.6j)
        for domain, w, z in self.PLAN_POINTS + [(Disc(1 + 2j, 3.0), 1.5 + 2.5j, 0.2 + 1j)]:
            assert oc.wos_green(domain, w, z, 200, 1).std_error > 0

    PLAN_POINTS = [(domain, w, z) for domain, w, z, *_ in PLAN]

    @pytest.mark.parametrize("call", range(4), ids=IDS)
    def test_capture_shell_shift_below_bound(self, call, monkeypatch):
        domain, w, z, walks, seed, *_ = self.PLAN[call]
        est = oc.wos_green(domain, w, z, walks // 10, seed)
        monkeypatch.setattr(oc, "CAPTURE_EPS", oc.CAPTURE_EPS / 2)
        half = oc.wos_green(domain, w, z, walks // 10, seed)
        assert abs(half.mean - est.mean) < 1e-2 * est.std_error

    @pytest.mark.parametrize("w", [0.5 + 0.5j, 1.5 + 0.5j, 0.5 + 1.5j, 0.9 + 0.9j, 1.9 + 0.1j, 0.1 + 1.9j])
    def test_l_shape_controls_regular_in_closed_domain(self, w):
        # the reflections in the lines of the reentrant edges fall inside
        # the L for some poles; they are dropped, and every control left is
        # finite on the boundary and inside
        ell = Polygon((0j, 2 + 0j, 2 + 1j, 1 + 1j, 1 + 2j, 2j))
        _, poles, _ = spec = oc._control_spec(ell, w)
        v = ell.vertices
        stars = [a + (b - a) * ((w - a) / (b - a)).conjugate() for a, b in zip(v, v[1:] + v[:1])]
        assert poles == [p for p in stars if not geo.contains(ell, p) and ell._wall(np.array([p]))[0] > 0]
        for p in poles:
            assert not geo.contains(ell, p)
            assert ell._wall(np.array([p]))[0] > 1e-9
        xs = np.linspace(0.0, 2.0, 81)
        grid = (xs[:, None] + 1j * xs[None, :]).ravel()
        closed = np.concatenate([ell._nodes(4096)[0], grid[geo.contains_mask(ell, grid)]])
        for col in oc._control_columns(spec, closed):
            assert np.all(np.isfinite(col))
        est = oc.wos_green(ell, w, 0.3 + 0.4j, 2_000, 1)
        assert math.isfinite(est.mean) and 0 < est.std_error < 0.1

    def test_many_edged_polygon_fits_four_nodes_per_control(self):
        # a regular 300-gon keeps the pole's reflections in all its edges:
        # 309 controls, more than the 256 fit nodes of a short boundary
        ngon = Polygon([complex(math.cos(a), math.sin(a)) for a in 2 * math.pi * np.arange(300) / 300])
        _, poles, powers = oc._control_spec(ngon, 0.1 + 0j)
        assert 1 + len(poles) + 2 * len(powers) > oc._FIT_NODES
        est = oc.wos_green(ngon, 0.1 + 0j, -0.3 + 0.2j, 200, 1)
        assert math.isfinite(est.mean) and math.isfinite(est.std_error) and est.std_error > 0
        # nearly collinear reflection columns get no weight, so the bound is
        # the residual's, not the rounding floor of huge coefficients
        assert est.std_error < 1e-3
        disc_g = math.log(abs(-0.4 + 0.2j) / abs(1 - 0.1 * (-0.3 + 0.2j)))  # the circumscribed unit disc's G
        assert abs(est.mean - disc_g) <= 3 * est.std_error

    def test_collinear_edges_share_a_reflection(self):
        # the two bottom edges reflect the pole to one point: the fit
        # gives the second copy no weight, and the estimate stays honest
        # against the square's symmetry
        square = Polygon((0j, 0.5 + 0j, 1 + 0j, 1 + 1j, 1j))
        _, poles, _ = oc._control_spec(square, 0.5 + 0.5j)
        assert poles.count(0.5 - 0.5j) == 2
        a = oc.wos_green(square, 0.5 + 0.5j, 0.25 + 0.25j, 5_000, 42)
        b = oc.wos_green(square, 0.25 + 0.25j, 0.5 + 0.5j, 5_000, 43)
        assert 0 < a.std_error < 1e-4
        assert abs(a.mean - b.mean) <= 3 * math.hypot(a.std_error, b.std_error)

    def test_capture_shell_start_scores_on_step_zero(self, unit_disc):
        # every walk starts inside the shell, so it is projected where it
        # starts: onto 1, which the projection's complex division reads one
        # ulp low
        z = complex(1 - 0.5 * oc.CAPTURE_EPS)
        exits = oc._walk(unit_disc, z, 1000, 8)
        assert np.all(exits == unit_disc._project(np.array([z])))
        assert abs(exits[0] - 1) <= 2**-53

    @pytest.mark.parametrize("domain", [Annulus(0.5), Polygon((0j, 1 + 0j, 1 + 1j, 1j))], ids=["annulus", "square"])
    def test_block_size_does_not_change_estimate(self, domain, monkeypatch):
        # each draw depends on (walk, step) alone, and captured walks are
        # scored by walk index, so neither the blocks nor the order in
        # which compaction leaves the live walks can move a bit
        w, z = (0.7 + 0j, -0.6 + 0.2j) if isinstance(domain, Annulus) else (0.5 + 0.5j, 0.2 + 0.3j)
        ref = oc.wos_green(domain, w, z, 1000, 17)
        monkeypatch.setattr(oc, "_BLOCK", 96)
        assert oc.wos_green(domain, w, z, 1000, 17) == ref

    def test_uncaptured_walks_refused(self, annulus_half, monkeypatch):
        monkeypatch.setattr(oc, "MAX_STEPS", 3)
        with pytest.raises(ConvergenceFailure):
            oc.wos_green(annulus_half, 0.7 + 0j, -0.6 + 0.1j, 1000, 1)

    def test_too_few_walks_refused(self, unit_disc):
        for walks in (-1, 0, 1):
            with pytest.raises(InvalidArgument):
                oc.wos_green(unit_disc, 0j, 0.5 + 0j, walks, 1)

    def test_disc_center_exact(self, unit_disc):
        est = oc.wos_green(unit_disc, 0j, 0.5 + 0j, 20_000, 42)
        # score variance is ~0 here: every exit point has |x| = 1
        assert abs(est.mean - math.log(0.5)) <= max(3 * est.std_error, 1e-9)

    def test_deterministic(self, unit_disc):
        a = oc.wos_green(unit_disc, 0.2 + 0j, 0.5 + 0.1j, 5_000, 7)
        b = oc.wos_green(unit_disc, 0.2 + 0j, 0.5 + 0.1j, 5_000, 7)
        assert a == b

    def test_annulus_matches_series(self, annulus_half):
        z = 0.55 + 0.3j
        est = oc.wos_green(annulus_half, 0.7 + 0j, z, 100_000, 11)
        ref = gr.green_eval(annulus_half, 0.7 + 0j, z).value
        assert abs(est.mean - ref) <= 3 * est.std_error

    def test_square(self, unit_square):
        est = oc.wos_green(unit_square, 0.5 + 0.5j, 0.25 + 0.25j, 30_000, 3)
        rev = oc.wos_green(unit_square, 0.25 + 0.25j, 0.5 + 0.5j, 30_000, 4)
        assert abs(est.mean - rev.mean) <= 3 * math.hypot(est.std_error, rev.std_error)

    def test_rotation_equivariance(self, annulus_half):
        base = oc.wos_green(annulus_half, 0.7 + 0j, -0.6 + 0.1j, 50_000, 5)
        for k, angle in enumerate((0.7, 2.0, -1.1)):
            rot = complex(math.cos(angle), math.sin(angle))
            est = oc.wos_green(annulus_half, 0.7 * rot, (-0.6 + 0.1j) * rot, 50_000, 50 + k)
            assert abs(est.mean - base.mean) <= 3 * math.hypot(est.std_error, base.std_error)

    def test_estimate_fields_are_floats(self, unit_disc):
        est = oc.wos_green(unit_disc, 0.3 + 0j, -0.2 + 0.4j, 100, 9)
        assert type(est.mean) is float and type(est.std_error) is float

    def test_std_error_definition(self, unit_disc):
        est = oc.wos_green(unit_disc, 0.3 + 0j, -0.2 + 0.4j, 10_000, 9)
        assert est.samples == 10_000
        assert est.std_error > 0

    def test_guards(self, unit_disc, annulus_half):
        with pytest.raises(PointOutsideDomain):
            oc.wos_green(unit_disc, 0j, 2 + 0j, 100, 1)
        with pytest.raises(PointOutsideDomain):
            oc.wos_green(annulus_half, 0.7 + 0j, 0.7 + 0j, 100, 1)
        with pytest.raises(UnsupportedDomain):
            oc.wos_green(MoebiusImage(unit_disc, 1 + 0j, 0j, 0j, 1 + 0j), 0j, 0.5 + 0j, 100, 1)


class TestMcArea:
    def test_disc_level(self, unit_disc):
        (est,) = oc.mc_area(unit_disc, 0j, [-1.0], 400_000, 11)
        assert abs(est.mean - math.pi * math.exp(-2.0)) <= 3 * est.std_error

    def test_deep_level_nearly_empty(self, unit_disc):
        (est,) = oc.mc_area(unit_disc, 0j, [-20.0], 100_000, 13)
        assert est.mean <= 3 * est.std_error + 1e-12

    def test_annulus_matches_grid(self, annulus_half):
        (est,) = oc.mc_area(annulus_half, 0.7 + 0j, [-0.5], 200_000, 12)
        ref = sl.LevelField(annulus_half, 0.7 + 0j).area(-0.5).value
        assert abs(est.mean - ref) <= 3 * est.std_error

    def test_too_few_samples_refused(self, unit_disc):
        for samples in (-5, 0):
            with pytest.raises(InvalidArgument, match="sample"):
                oc.mc_area(unit_disc, 0j, [-1.0], samples, 1)
        assert oc.mc_area(unit_disc, 0j, [-1.0], 1, 1)[0].samples == 1

    def test_deterministic(self, annulus_half):
        a = oc.mc_area(annulus_half, 0.7 + 0j, [-0.5], 50_000, 21)
        b = oc.mc_area(annulus_half, 0.7 + 0j, [-0.5], 50_000, 21)
        assert a == b

    def test_block_size_does_not_change_estimate(self, annulus_half, monkeypatch):
        # each sample is a function of its index, and the hits are counted
        # per block, so the blocks cannot move the estimate
        ref = oc.mc_area(annulus_half, 0.7 + 0j, [-0.5], 20_000, 9)
        monkeypatch.setattr(oc, "_BLOCK", 96)
        assert oc.mc_area(annulus_half, 0.7 + 0j, [-0.5], 20_000, 9) == ref

    @pytest.mark.parametrize("block", [oc._BLOCK, 96])
    @pytest.mark.parametrize("literal, w", [("annulus:0.5", 0.7 + 0j), ("moebius:1,0.15,0.15,1;base=annulus:0.5", 0.75 + 0j)])
    def test_levels_share_one_draw(self, monkeypatch, block, literal, w):
        # every level counts its hits on the same samples and the same values
        # of G, so each estimate is that of a call with its level alone
        domain = geo.parse_domain(literal)
        monkeypatch.setattr(oc, "_BLOCK", block)
        levels = (-1.0, -0.3, -2.5)
        alone = {t: oc.mc_area(domain, w, [t], 20_000, 9)[0] for t in levels}
        for order in itertools.permutations(levels):
            together = oc.mc_area(domain, w, order, 20_000, 9)
            assert [(e.mean.hex(), e.std_error.hex(), e.samples, e.seed) for e in together] == [
                (alone[t].mean.hex(), alone[t].std_error.hex(), alone[t].samples, alone[t].seed) for t in order
            ]
        assert oc.mc_area(domain, w, [-0.3, -0.3], 20_000, 9) == [alone[-0.3], alone[-0.3]]


def _unfiltered_mc_area(domain, w, levels, samples, seed):
    """mc_area's estimator without the comparison disc: the same draw, with
    every sample inside the domain put through the series."""
    x0, x1, y0, y1 = geo.bounding_box(domain)
    idx = np.arange(samples, dtype=np.uint64)
    pts = x0 + (x1 - x0) * oc.counter_uniform(seed, oc._STREAM_AREA_X, idx)
    pts = pts + 1j * (y0 + (y1 - y0) * oc.counter_uniform(seed, oc._STREAM_AREA_Y, idx))
    g = gr.green_values_raw(domain, w, pts[geo.contains_mask(domain, pts)])
    box = (x1 - x0) * (y1 - y0)
    out = []
    for t in levels:
        p = float(np.count_nonzero(g < t)) / samples
        out.append((box * p, box * math.sqrt(max(p * (1.0 - p), 1.0 / samples) / samples)))
    return out


_FILTER_CASES = [("disc:0,0,1", 0j), ("disc:0,0,1", 0.9 + 0j), ("disc:2,1,3", 3.2 + 0.4j)]
_FILTER_CASES += [
    (f"annulus:{q}", (q + share * (1 - q)) * complex(math.cos(0.4), math.sin(0.4)))
    for q in (0.3, 0.5, 0.8, 0.95)
    for share in (0.02, 0.5, 0.98)
]
_FILTER_CASES += [(lit, w) for lit, w in vf.default_plan() if lit.startswith("moebius")]


class TestMcAreaFilter:
    """The comparison disc drops only samples that cannot be hits: every
    estimate is that of the sampler that puts each inside sample through
    the series."""

    @pytest.mark.parametrize("literal, w", _FILTER_CASES)
    def test_matches_unfiltered_estimator(self, literal, w):
        domain = geo.parse_domain(literal)
        levels = (-0.01, -0.5, -3.0, -20.0)
        ref = dict(zip(levels, _unfiltered_mc_area(domain, w, levels, 20_000, 9)))
        for asked in [[t] for t in levels] + [list(levels)]:
            got = [(e.mean.hex(), e.std_error.hex()) for e in oc.mc_area(domain, w, asked, 20_000, 9)]
            assert got == [(ref[t][0].hex(), ref[t][1].hex()) for t in asked]

    def test_series_sees_only_the_disc(self, annulus_half, monkeypatch):
        # at t = -3 the pseudo-hyperbolic disc about 0.7 is about 5e-3 of the
        # box, so few of the 20,000 samples reach the series
        fed = []
        field = gr.green_values_raw
        monkeypatch.setattr(gr, "green_values_raw", lambda d, w, z: fed.append(z.size) or field(d, w, z))
        oc.mc_area(annulus_half, 0.7 + 0j, [-3.0], 20_000, 9)
        assert sum(fed) < 200

    def test_comparison_disc_covers_the_pseudo_hyperbolic_disc(self):
        # the circle |zeta - zeta_w| = rho |1 - conj(zeta_w) zeta| lies inside
        # the padded disc, and the circle of rho e^1e-5, moved out by 2e-9
        # (twice the core pad), outside it
        u = np.exp(2j * math.pi * np.arange(64) / 64)
        for zeta_w in (0j, 0.5 + 0j, -0.3 + 0.8j, 0.999 + 0j):
            for t in (-0.01, -1.0, -20.0):
                centre, radius = oc._comparison_disc(zeta_w, t)
                near, far = ((s * math.exp(t) * u + zeta_w) / (1 + np.conj(zeta_w) * s * math.exp(t) * u) for s in (1, math.exp(1e-5)))
                assert np.all(np.abs(near - centre) < radius)
                assert np.all(np.abs(far - centre) + 2e-9 > radius)
        assert oc._comparison_disc(0.5 + 0j, -1e-7) == (0j, math.inf)

    def test_empty_levels(self, annulus_half, monkeypatch):
        # nothing is drawn for no level, and the arguments are still checked
        monkeypatch.setattr(oc, "counter_uniform", None)
        assert oc.mc_area(annulus_half, 0.7 + 0j, [], 200_000, 1) == []
        assert oc.mc_area(annulus_half, 0.7 + 0j, iter(()), 1, 1) == []
        with pytest.raises(InvalidArgument, match="sample"):
            oc.mc_area(annulus_half, 0.7 + 0j, [], 0, 1)
        with pytest.raises(UnsupportedDomain):
            oc.mc_area(Polygon((0j, 1 + 0j, 1j)), 0.3 + 0.3j, [], 100, 1)
        with pytest.raises(PointOutsideDomain):
            oc.mc_area(annulus_half, 0.2 + 0j, [], 100, 1)


class TestGridArea:
    # The plan's three blb profiles and the Moebius annulus, at both ends of
    # their windows: the slice quadrature lies inside the grid's error bar.
    @pytest.mark.parametrize(
        "literal, w, t_min, t_max",
        vf.SuiteConfig().blb_entries + [("moebius:1,0.15,0.15,1;base=annulus:0.5", 0.75 + 0j, -1.2, -0.2)],
    )
    def test_referees_slice_quadrature(self, literal, w, t_min, t_max):
        domain = geo.parse_domain(literal)
        for t in (t_min, t_max):
            ref = oc.grid_area(domain, w, t, 2048)
            assert abs(sl.LevelField(domain, w).area(t).value - ref.value) <= ref.err_est

    def test_level_guard(self, annulus_half):
        with pytest.raises(InvalidArgument, match="need t < 0"):
            oc.grid_area(annulus_half, 0.7 + 0j, 0.0, 64)

    def test_coarsest_grid_that_sees_the_set(self, annulus_half):
        # n = 1..4 are refused (the support matrix); n = 8 already sees the
        # set, and its estimate holds the slice quadrature's area
        est = oc.grid_area(annulus_half, 0.7 + 0j, -0.5, 8)
        area = sl.LevelField(annulus_half, 0.7 + 0j).area(-0.5).value
        assert est.value > 0 and abs(est.value - area) <= est.err_est

    def test_polygon_unsupported(self, unit_square):
        with pytest.raises(UnsupportedDomain):
            oc.grid_area(unit_square, 0.5 + 0.5j, -1.0, 64)


class TestRobinExtrapolate:
    def test_disc_center(self, unit_disc):
        c, residual = oc.robin_extrapolate(unit_disc, 0j, [0.1 / 2**k for k in range(5)])
        assert c == pytest.approx(1.0, abs=1e-8)
        assert 0.0 <= residual <= 1e-4  # a larger gap is refused

    def test_disc_offcenter(self, unit_disc):
        c, _ = oc.robin_extrapolate(unit_disc, 0.5 + 0j, [0.1 / 2**k for k in range(5)])
        assert c == pytest.approx(4.0 / 3.0, abs=1e-6)

    def test_annulus_matches_series(self, annulus_half):
        c, _ = oc.robin_extrapolate(annulus_half, 0.7 + 0j, [0.08 / 2**k for k in range(5)])
        assert c == pytest.approx(gr.robin_capacity(annulus_half, 0.7 + 0j).capacity, abs=1e-6)

    def test_moebius_transport_validated(self, blaschke_disc):
        w = 0.2 + 0.1j
        series = gr.robin_capacity(blaschke_disc, w).capacity
        limit, _ = oc.robin_extrapolate(blaschke_disc, w, [0.15 / 2**k for k in range(5)])
        assert limit == pytest.approx(series, abs=1e-6)

    # the plan's three oracle_robin rows, then poles next to a circle, where
    # the rounding of the angular means (about eps |w| / r) is largest
    @pytest.mark.parametrize(
        "literal, w, limit",
        [(row[1], row[2], 1e-10) for row in vf.REFEREE_ROWS if row[0] == "oracle_robin"]
        + [("annulus:0.5", 0.505 + 0j, 1e-7), ("annulus:0.8", 0.998 + 0j, 1e-7), ("disc:100,0,1", 100.99 + 0j, 1e-7)],
    )
    def test_residual_bounds_the_error(self, literal, w, limit):
        # the residual covers the gap to the series capacity beyond that
        # capacity's own bound; it read 0 on Annulus(0.5) at 0.7 when it was
        # only the gap between the last two extrapolants
        domain = geo.parse_domain(literal)
        radii = [0.25 * geo.boundary_distance(domain, w) / 2**k for k in range(5)]
        c, residual = oc.robin_extrapolate(domain, w, radii)
        series = gr.robin_capacity(domain, w)
        assert abs(c - series.capacity) <= residual + series.capacity * series.truncation_bound
        assert residual <= limit

    def test_radii_validation(self, unit_disc):
        with pytest.raises(ValueError):
            oc.robin_extrapolate(unit_disc, 0j, [0.1, 0.2, 0.05, 0.02])  # not decreasing
        with pytest.raises(ValueError):
            oc.robin_extrapolate(unit_disc, 0j, [0.1, 0.05, 0.02])  # too few
        with pytest.raises(ValueError):
            oc.robin_extrapolate(unit_disc, 0.9 + 0j, [0.2, 0.1, 0.05, 0.02])  # exceeds delta/2


class TestGridMinGradient:
    def test_annulus_seed_near_saddle(self, annulus_half):
        seeds = oc.grid_min_gradient(annulus_half, 0.7 + 0j, 512)
        assert len(seeds) >= 1
        best = seeds[0]
        assert abs(best.imag) < 0.01
        assert best.real < 0

    def test_disc_image_empty(self, unit_disc):
        identity = MoebiusImage(unit_disc, 1 + 0j, 0j, 0j, 1 + 0j)
        assert oc.grid_min_gradient(identity, 0.3 + 0j, 512) == []

    def test_rotation_equivariance(self, annulus_half):
        seeds = oc.grid_min_gradient(annulus_half, 0.7 + 0j, 512)
        rot = complex(math.cos(math.pi / 3), math.sin(math.pi / 3))
        rotated = oc.grid_min_gradient(annulus_half, 0.7 * rot, 512)
        cell = 2.0 / 511
        assert len(rotated) == len(seeds)
        assert abs(rotated[0] - seeds[0] * rot) <= cell * math.sqrt(2)

    # The lattice scan referees critical_points, which searches only the far
    # ray: one point, negative level, on the ray, and within 1e-9 of the
    # Newton-polished best lattice seed.  The Annulus(0.3) saddle radius
    # 0.547742439 is a 40-digit mpmath root (benchmark/README.md).
    @pytest.mark.parametrize(
        "case",
        ["q03", "q05_angle0", "q05_angle1", "q05_angle2", "q05_angle3", "q08", "moebius"],
    )
    def test_referee_critical_points(self, case, annulus_half, annulus_thin, moebius_annulus):
        if case == "q03":
            domain, zeta_w = Annulus(0.3), 0.55 + 0.2j
        elif case.startswith("q05"):
            angle = (0.3 + int(case[-1])) * math.pi / 2
            domain, zeta_w = annulus_half, 0.7 * complex(math.cos(angle), math.sin(angle))
        elif case == "q08":
            domain, zeta_w = annulus_thin, 0.9 + 0j
        else:
            domain, zeta_w = moebius_annulus, 0.7 + 0j
        core, coeffs = geo.flatten_moebius(domain)
        w = complex(geo.moebius_forward(coeffs, zeta_w))
        cps = gr.critical_points(domain, w)
        assert len(cps) == 1
        cp = cps[0]
        assert cp.level < 0
        along = complex(geo.moebius_inverse(coeffs, cp.location)) * (-zeta_w / abs(zeta_w)).conjugate()
        assert abs(along.imag) <= 1e-12
        assert core.q < along.real < 1.0
        if case == "q03":
            assert along.real == pytest.approx(0.547742439, abs=1e-9)
        z = oc.grid_min_gradient(domain, w, 512)[0]
        for _ in range(60):
            f1, f2 = gr.green_field(domain, w, z, ("f1", "f2"))
            step = complex(f1) / complex(f2)
            z -= step
            if abs(step) <= 1e-14 * abs(z):
                break
        assert abs(cp.location - z) <= 1e-9
