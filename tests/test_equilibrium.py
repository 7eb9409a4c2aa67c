import warnings

import numpy as np
import pytest

import foamlab as fl
from foamlab.constructions import _quasi_rows
from foamlab.cluster import _admit, _checks, _jacobian, area_jacobian, rigid_motion_basis
from foamlab.equilibrium import (
    SOLVE_TOL,
    STEP_RCOND,
    _check_topology,
    _gauss_newton_step,
    lm_minimize,
    numeric_jacobian,
    residual_jacobian,
)
from foamlab.geometry import arc_carrier
from foamlab.errors import (
    GeometryDomainError,
    NonConvergence,
    PathInconsistent,
    StructuralError,
    TopologyBreakdown,
)


class TestResiduals:
    def test_equilibrium_presets_tiny(self, equilibrium_presets):
        for name, c in equilibrium_presets.items():
            rep = fl.residuals(c)
            assert rep.angle_sup < 1e-9, name
            kscale = max(1.0, np.abs(c.kappas).max(), 1.0 / c.diameter())
            assert rep.cocycle_sup < 1e-9 * kscale, name

    def test_perturbation_breaks_angles(self, double, rng):
        x = double.chart() + 1e-3 * rng.standard_normal(double.chart().size)
        assert fl.residuals(double.with_chart(x)).angle_sup > 1e-6

    def test_quasi_fails_cocycle_only(self, quasi_presets):
        for name, c in quasi_presets.items():
            rep = fl.residuals(c)
            assert rep.angle_sup < 1e-9, name
            assert rep.cocycle_sup > 1e-3, name


class TestPressures:
    def test_double_bubble_values(self):
        # each lobe's pressure is 1/radius of its outer arc
        p = fl.pressures(fl.double_bubble(1.0, 0.5))
        assert p[0] == 0.0
        assert p[1] == pytest.approx(1.0, abs=1e-12)
        assert p[2] == pytest.approx(2.0, abs=1e-12)

    def test_interface_curves_toward_higher_pressure(self):
        p = fl.pressures(fl.double_bubble(1.0, 0.5))
        assert p[2] > p[1]

    def test_equal_double_bubble_flat_interface(self):
        c = fl.double_bubble(1.0, 1.0)
        flat = [j for j in range(c.e) if abs(c.edges[j].bulge) < 1e-14]
        assert len(flat) == 1

    def test_path_independence_all_presets(self, equilibrium_presets):
        for name, c in equilibrium_presets.items():
            p = fl.pressures(c)
            kscale = max(1.0, np.abs(c.kappas).max(), 1.0 / c.diameter())
            for ed in c.edges:
                kappa = arc_carrier(c.arc_of(ed.id))[0]
                assert p[ed.left] - p[ed.right] == pytest.approx(kappa, abs=1e-9 * kscale), name

    def test_quasi_pressures_ill_defined(self, quasi_presets):
        for name, c in quasi_presets.items():
            with pytest.raises(PathInconsistent):
                fl.pressures(c)

    @pytest.mark.parametrize("amount", [1e-9, 1e-8, 1e-7, 1e-6])
    def test_undefined_exactly_where_classify_sees_quasi(self, amount):
        # pressure is well defined exactly when the cocycle condition holds,
        # and pressures decides it by the same test as classify
        c = fl.quasi_variant("four_stretched", amount)
        assert fl.classify(c) is fl.Verdict.QUASI_EQUILIBRIUM
        with pytest.raises(PathInconsistent):
            fl.pressures(c)

    def test_defect_is_the_largest_edge_residual(self, quasi_presets):
        # one row p_left - p_right = kappa per edge, p_0 = 0, solved in the
        # least-squares sense: the defect is its largest residual
        for name, c in quasi_presets.items():
            rows = np.zeros((c.e, c.n + 1))
            for j, ed in enumerate(c.edges):
                rows[j, ed.left] += 1.0
                rows[j, ed.right] -= 1.0
            kappa = np.array([arc_carrier(c.arc_of(j))[0] for j in range(c.e)])
            p = np.linalg.lstsq(rows[:, 1:], kappa, rcond=None)[0]
            with pytest.raises(PathInconsistent) as err:
                fl.pressures(c)
            residual = np.abs(rows[:, 1:] @ p - kappa).max()
            assert err.value.defect == pytest.approx(residual, rel=1e-9), name


class TestClassify:
    def test_presets(self, equilibrium_presets, quasi_presets):
        for name, c in equilibrium_presets.items():
            assert fl.classify(c) is fl.Verdict.EQUILIBRIUM, name
        for name, c in quasi_presets.items():
            assert fl.classify(c) is fl.Verdict.QUASI_EQUILIBRIUM, name

    @pytest.mark.parametrize("s", [1e-9, 1e-6, 1.0, 1e6, 1e9])
    def test_verdicts_are_scale_covariant(self, equilibrium_presets, quasi_presets, s):
        m = fl.MobiusMap.scaling(s)
        for name, c in equilibrium_presets.items():
            assert fl.classify(fl.mobius_apply_cluster(m, c)) is fl.Verdict.EQUILIBRIUM, name
        for name, c in quasi_presets.items():
            image = fl.mobius_apply_cluster(m, c)
            assert fl.classify(image) is fl.Verdict.QUASI_EQUILIBRIUM, name

    def test_random_perturbation_not_equilibrium(self, double, rng):
        x = double.chart() + 1e-2 * rng.standard_normal(double.chart().size)
        assert fl.classify(double.with_chart(x)) is fl.Verdict.NON_EQUILIBRIUM

    def test_degree_violation_raises(self, double):
        # dropping an edge leaves degree-2 vertices
        bad = fl.Cluster(double.vertices, double.edges[:2], 2)
        for check in (fl.residuals, residual_jacobian, fl.pressures):
            with pytest.raises(StructuralError):
                check(bad)


class TestLmMinimize:
    def test_iteration_limit(self, triple):
        target = fl.region_areas(triple) * [1.05, 0.95, 1.05]
        with pytest.raises(NonConvergence, match="^iteration limit$") as err:
            fl.solve(triple, target, max_iter=1)
        assert len(err.value.history) == 2

    def test_breakdown_at_a_trial_point_is_a_rejected_step(self, triple, monkeypatch):
        # the first trial breaks down: its step is halved, and the solve
        # still reaches its target
        calls, check = [], fl.equilibrium._check_topology

        def first_trial_breaks(c):
            calls.append(c)
            if len(calls) == 2:
                raise TopologyBreakdown("edge 0 chord collapsed")
            return check(c)

        monkeypatch.setattr(fl.equilibrium, "_check_topology", first_trial_breaks)
        target = fl.region_areas(triple) * [1.05, 0.95, 1.05]
        out = fl.solve(triple, target)
        assert len(calls) > 2
        assert fl.region_areas(out) == pytest.approx(target, abs=1e-9)
        assert fl.classify(out) is fl.Verdict.EQUILIBRIUM

    @pytest.mark.parametrize("kind", ["two_lens_recurved", "four_stretched"])
    def test_history_strictly_decreases(self, kind):
        _, history = lm_minimize(*_quasi_rows(kind, 0.15), 200)
        assert np.all(np.diff(history) < 0.0)
        assert len(history) > 2 and history[-1] < SOLVE_TOL

    def test_rank_deficient_stack_converges(self, two_lens):
        # the stacked [angle; cocycle; area; gauge] Jacobian of two_lens has
        # rank 13 in 14 columns: minimum-norm steps still converge
        unit = two_lens.unit()
        J = np.concatenate([_jacobian(unit), rigid_motion_basis(unit)])
        assert np.linalg.matrix_rank(J) < J.shape[1]
        target = fl.region_areas(two_lens) * (1.0 + 0.02 * np.resize([1.0, -1.0, 0.5], two_lens.n))
        out = fl.solve(two_lens, target)
        assert fl.region_areas(out) == pytest.approx(target, abs=1e-9)
        assert fl.classify(out) is fl.Verdict.EQUILIBRIUM

    @pytest.mark.parametrize(
        "call",
        [
            lambda: fl.solve(fl.triple_bubble(), [1e300, 1.0, 1.0]),
            lambda: fl.solve(fl.triple_bubble(), [1e200] * 3),
            lambda: fl.continue_family(fl.triple_bubble(), [1e300, 1.0, 1.0]),
            lambda: fl.quasi_variant("two_lens_recurved", 1e300),
            lambda: fl.quasi_variant("four_stretched", 1e300),
        ],
        ids=["solve_1e300", "solve_1e200", "continue_1e300", "recurved_1e300", "stretched_1e300"],
    )
    def test_huge_residual_norm_does_not_overflow(self, call):
        # |f| far past 1e154, where a sum of squares overflows: the solver
        # stalls with its typed error and no overflow warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonConvergence, match="^stalled step"):
                call()

    def test_numeric_jacobian(self):
        fun = lambda x: np.array([x[0] ** 2, x[0] * x[1]])
        J = numeric_jacobian(fun, np.array([2.0, 3.0]), 1e-6)
        assert J == pytest.approx(np.array([[4.0, 0.0], [3.0, 2.0]]), abs=1e-8)


LSTSQ = np.linalg.lstsq


def lstsq_step(M):
    """``lstsq``'s minimum-norm step on the stack ``M = [A | f]``."""
    return LSTSQ(M[:, :-1], -M[:, -1], rcond=STEP_RCOND)[0]


@pytest.fixture()
def lstsq_calls(monkeypatch):
    """The shapes of the stacks every ``np.linalg.lstsq`` call sees."""
    calls = []
    monkeypatch.setattr(np.linalg, "lstsq", lambda a, *args, **kwargs: calls.append(a.shape) or LSTSQ(a, *args, **kwargs))
    return calls


def start_stack(unit, rows, jac):
    """The stack [J; R | f] that :func:`lm_minimize` meets at the unit chart point ``unit``."""
    R = rigid_motion_basis(unit)
    return np.column_stack([np.concatenate([jac(unit), R]), np.concatenate([rows(unit), np.zeros(len(R))])])


class TestGaussNewtonStep:
    def test_full_rank_stacks_take_the_qr_step(self, equilibrium_presets, lstsq_calls, monkeypatch):
        # every stack met on the benchmark's solves (the six presets at their
        # areas times 1 + U(-0.05, 0.05), then a 4-step triple continuation
        # to 1 + U(-0.2, 0.2)) at seeds 1-3: off two_lens, whose fixed-area
        # modulus makes its start stack rank-deficient, the QR step is
        # lstsq's step and lstsq is never called
        stacks, step = [], fl.equilibrium._gauss_newton_step

        def recorded(M):
            before = len(lstsq_calls)
            delta = step(M)
            stacks.append((name, M.copy(), delta.copy(), len(lstsq_calls) - before))  # copied before any halving
            return delta

        monkeypatch.setattr(fl.equilibrium, "_gauss_newton_step", recorded)
        for seed in (1, 2, 3):
            rng = np.random.default_rng(seed)
            for name in ("double", "triple", "four", "two_lens", "flower", "necklace6"):
                c = equilibrium_presets[name]
                fl.solve(c, fl.region_areas(c) * (1.0 + rng.uniform(-0.05, 0.05, c.n)))
            name, c = "continue", equilibrium_presets["triple"]
            fl.continue_family(c, fl.region_areas(c) * (1.0 + rng.uniform(-0.2, 0.2, c.n)), steps=4)
        assert {name for name, *_ in stacks} == {"double", "triple", "four", "two_lens", "flower", "necklace6", "continue"}
        for name, M, delta, calls in stacks:
            if name != "two_lens":
                ref = lstsq_step(M)
                assert calls == 0 and np.linalg.norm(delta - ref) <= 1e-12 * np.linalg.norm(ref), name
        # two_lens: the start stack falls back, the later ones are near-singular
        # along the modulus and agree to the rounding their conditioning allows
        lens = [(M, delta, calls) for name, M, delta, calls in stacks if name == "two_lens"]
        assert [calls for *_, calls in lens] == [1, 0, 0] * 3
        for M, delta, _ in lens:
            ref = lstsq_step(M)
            bound = 10.0 * np.finfo(float).eps * np.linalg.cond(M[:, :-1])
            assert np.linalg.norm(delta - ref) <= bound * np.linalg.norm(ref)
        assert len(lstsq_calls) == 3

    @pytest.mark.parametrize("case", ["two_lens", "necklace7", "two_lens_recurved"])
    def test_rank_deficient_stacks_fall_back_to_lstsq(self, case, lstsq_calls, rng):
        # two_lens (rank 13 of 14) and necklace(7) (45 of 49) at their
        # equilibria, with a perturbed area target, and the recurved
        # variant's base stack (13 of 14): lstsq's minimum-norm step
        if case == "two_lens_recurved":
            base, rows, jac = _quasi_rows(case, 0.15)
        else:
            base = fl.two_lens() if case == "two_lens" else fl.necklace(7)
            target = fl.region_areas(base.unit()) * (1.0 + 0.02 * rng.uniform(-1.0, 1.0, base.n))
            rows, jac = lambda c: stacked_rows(c) - np.concatenate([np.zeros(3 * c.v), target]), _jacobian
        M = start_stack(base.unit(), rows, jac)
        assert np.linalg.matrix_rank(M[:, :-1]) < M.shape[1] - 1
        delta = _gauss_newton_step(M)
        assert lstsq_calls == [M[:, :-1].shape]
        assert np.array_equal(delta, lstsq_step(M))

    def test_underdetermined_stack_goes_to_lstsq(self, triple, lstsq_calls):
        # the area rows alone with the gauge: 3 + 3 rows on 14 columns, every
        # step lstsq's minimum-norm one
        unit = triple.unit()
        target = fl.region_areas(unit) * [1.05, 0.95, 1.0]
        rows = lambda c: fl.region_areas(c) - target
        M = start_stack(unit, rows, area_jacobian)
        assert M.shape == (6, 15)
        assert np.array_equal(_gauss_newton_step(M), lstsq_step(M)) and lstsq_calls == [(6, 14)]
        out, history = lm_minimize(triple, rows, area_jacobian, 20)
        assert len(lstsq_calls) == len(history) and history[-1] < SOLVE_TOL  # one above, one per step
        assert fl.region_areas(out) / triple.diameter() ** 2 == pytest.approx(target, abs=1e-9)


def _scaled(c, s):
    return c.with_chart(np.concatenate([s * c.points.view(float), c.phis]))


class TestAdmission:
    #: a result holds its chart and shares its start's type, and caches nothing
    CHART_FIELDS = {"points", "ends", "phis", "labels", "region_count", "region_labels", "_type"}

    def test_results_pass_a_fresh_validate_and_cache_nothing(self, equilibrium_presets):
        # the seven presets at three seeded targets each, three Mobius
        # images and copies scaled by 1e-6 and 1e6, then both quasi variants
        starts = []
        for name, c in equilibrium_presets.items():
            starts += [(c, np.random.default_rng(seed)) for seed in (1, 2, 3)]
            starts += [(_scaled(c, s), np.random.default_rng(4)) for s in (1e-6, 1e6)]
        for seed, name in enumerate(("triple", "flower", "necklace7"), start=1):
            c, rng = equilibrium_presets[name], np.random.default_rng(seed)
            starts.append((fl.mobius_apply_cluster(fl.random_mobius(c, rng), c), rng))
        results = [fl.solve(c, fl.region_areas(c) * (1.0 + rng.uniform(-0.05, 0.05, c.n))) for c, rng in starts]
        results += [fl.quasi_variant(kind) for kind in ("two_lens_recurved", "four_stretched")]
        for out in results:
            assert set(out.__dict__) == self.CHART_FIELDS
            assert fl.validate(out).ok

    @staticmethod
    def _refused(name):
        t = fl.triple_bubble()
        x, phis = t.chart(), t.phis.copy()
        if name == "mirrored":
            x[1 : 2 * t.v : 2] *= -1.0
            x[2 * t.v :] *= -1.0
            return t.with_chart(x)
        if name == "collapsed":
            x[6:8] = x[4:6] + 1e-12
            return t.with_chart(x)
        if name == "wide":
            phis[3] = 3.2
        return fl.Cluster.from_arrays(t.points, t.ends, phis, t.labels, t.n)

    @pytest.mark.parametrize(
        # powers of two scale every world value exactly; the last two lose the
        # areas to underflow and the bulges to overflow
        "name, scale",
        [("mirrored", 8.0), ("collapsed", 0.5), ("wide", 4.0), ("triple", 2.0 ** -560), ("triple", 2.0 ** 1000)],
    )
    @pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
    def test_a_refused_result_raises_what_validated_raises(self, name, scale):
        c = self._refused(name)
        with pytest.raises(GeometryDomainError, match="^invalid cluster: ") as world:
            fl.validated(c.with_chart(c.chart() * np.repeat([scale, 1.0], [2 * c.v, c.e])))
        with pytest.raises(GeometryDomainError) as admitted:
            _admit(_checks(c, scale))
        assert str(admitted.value) == str(world.value)


class TestIterateCheck:
    def test_collapsed_chord_is_a_breakdown(self, double):
        # vertex 1 moved onto vertex 0 with every half-angle kept: the chords
        # are tested before the frame divides by a collapsed chord
        x = double.chart()
        x[2:4] = x[0:2] + [1e-12, 0.0]
        trial = double.with_chart(x / double.chart_units())  # in the unit frame
        with pytest.raises(TopologyBreakdown, match="chord collapsed"):
            _check_topology(trial)

    @staticmethod
    def collapse(double, max_iter):
        # every full Gauss-Newton step lands both ends of edge 0 on points
        # 1e-12 apart about their midpoint, the vertex centroid, which the
        # gauge rows keep: the pinned rows never converge
        p = double.unit().points
        goal = p.mean() + 0.5e-12 * (p - p.mean()) / np.abs(p - p.mean())
        rows = lambda c: c.chart()[:4] - goal.view(float)
        jac = lambda c: np.eye(c.chart().size)[:4]
        return lm_minimize(double, rows, jac, max_iter)

    def test_step_onto_a_collapsed_chord_is_rejected(self, double):
        # each full step is a rejected trial, each halved one is accepted,
        # and no GeometryDomainError escapes the solver
        why = r"^iteration limit \(last rejected trial: edge 0 chord collapsed\)$"
        with pytest.raises(NonConvergence, match=why) as err:
            self.collapse(double, 5)
        assert len(err.value.history) == 6

    def test_stalled_step_names_the_last_breakdown(self, double):
        # near the collapse, no step cut to 2^-52 of itself is accepted
        why = r"^stalled step \(last rejected trial: edge 0 chord collapsed\)$"
        with pytest.raises(NonConvergence, match=why):
            self.collapse(double, 100)

    @pytest.mark.parametrize("size, accepted", [(3e-9, True), (1e-9, False)])
    def test_validate_and_the_iterate_check_share_one_chord_floor(self, triple, size, accepted):
        # the smallest chords are 2.3e-9 and 7.6e-10 diameters, either side
        # of the floor: validate and the solver's check agree on both.
        # decorate refuses the smaller bubble, so it is the size-3e-9 one
        # with its three new vertices scaled about the straight junction,
        # the origin
        c = fl.decorate(triple, 0, 3e-9)
        x = c.chart()
        x[2 * (c.v - 3) : 2 * c.v] *= size / 3e-9
        c = c.with_chart(x)
        assert fl.validate(c).ok is accepted
        if accepted:
            _check_topology(c.unit())
        else:
            with pytest.raises(TopologyBreakdown, match="chord collapsed"):
                _check_topology(c.unit())


def residual_rows(c):
    rep = fl.residuals(c)
    return np.concatenate([rep.angle_block, rep.cocycle_block])


def stacked_rows(c):
    return np.concatenate([residual_rows(c), fl.region_areas(c)])


def fd_error(rows, jac, c):
    """Largest gap between ``jac(c)`` and central differences of ``rows`` over
    c's chart, relative to the largest exact entry.  The steps are 1e-7 in
    the unit chart: 1e-7 diameters on coordinates and 1e-7 on half-angles
    (at 1e-6 diameters the truncation error on necklace(7)'s short edges
    alone reaches 6e-7)."""
    units = c.chart_units()
    fd = numeric_jacobian(lambda y: rows(c.with_chart(y * units)), c.chart() / units, 1e-7) / units
    J = jac(c)
    return np.abs(J - fd).max() / np.abs(J).max()


def perturbed(c, rng):
    return c.with_chart(c.chart() + 1e-3 * c.diameter() * rng.standard_normal(c.chart().size))


class TestExactJacobians:
    def test_residual_jacobian(self, equilibrium_presets, rng):
        for name, c in equilibrium_presets.items():
            assert residual_jacobian(c).shape == (3 * c.v, 2 * c.v + c.e)
            for d in (c, perturbed(c, rng)):
                assert fd_error(residual_rows, residual_jacobian, d) <= 1e-7, name

    def test_stacked_jacobian(self, equilibrium_presets, rng):
        # every preset, three Mobius images of each and a decorated triple
        # bubble, each also at a perturbed chart point
        cases = {"decorated": fl.decorate(fl.triple_bubble(), 0, 0.05)}
        for name, c in equilibrium_presets.items():
            cases[name] = c
            for k in range(3):
                cases[f"{name} image {k}"] = fl.mobius_apply_cluster(fl.random_mobius(c, rng), c)
        for name, c in cases.items():
            assert _jacobian(c).shape == (3 * c.v + c.n, 2 * c.v + c.e)
            for d in (c, perturbed(c, rng)):
                assert fd_error(stacked_rows, _jacobian, d) <= 1e-7, name

    @pytest.mark.parametrize("kind", ["two_lens_recurved", "four_stretched"])
    def test_quasi_rows(self, kind, quasi_presets, rng):
        base, rows, jac = _quasi_rows(kind, 0.15)
        for d in (base, quasi_presets[kind], perturbed(base, rng)):
            assert fd_error(rows, jac, d) <= 1e-7, kind


class TestSolve:
    @pytest.mark.parametrize("seed", [None, *range(1, 11)])
    def test_reaches_target_areas(self, triple, necklace7, seed):
        # the triple bubble at fixed targets, and necklace(7) at its areas
        # times 1 + U(-0.05, 0.05), drawn with default_rng(seed)
        if seed is None:
            c, target = triple, np.array([1.15, 0.9, 1.02])
        else:
            c = necklace7
            spread = np.random.default_rng(seed).uniform(-0.05, 0.05, c.n)
            target = fl.region_areas(c) * (1.0 + spread)
        out = fl.solve(c, target)
        assert fl.region_areas(out) == pytest.approx(target, abs=1e-9)
        assert fl.classify(out) is fl.Verdict.EQUILIBRIUM

    def test_one_solve_makes_one_unit_copy(self, triple, monkeypatch):
        # lm_minimize's start is the solve's only unit frame
        calls, unit = [], fl.Cluster.unit
        monkeypatch.setattr(fl.Cluster, "unit", lambda c: calls.append(c) or unit(c))
        fl.solve(triple, np.array([1.1, 0.9, 1.0]))
        assert calls == [triple]

    def test_one_solve_measures_the_diameter_once(self, triple, monkeypatch):
        # the unit frame, the target's scale and the map back share one scale;
        # the result's own admission reads the result's
        calls, diameter = [], fl.Cluster.diameter
        monkeypatch.setattr(fl.Cluster, "diameter", lambda c: calls.append(c) or diameter(c))
        start = fl.loads(fl.dumps(triple))
        fl.solve(start, np.array([1.1, 0.9, 1.0]))
        assert [c for c in calls if c is start] == [start]

    @pytest.mark.parametrize(
        "start, target",
        [(None, (1.611, 1.611, 100.0)), ((1, 1, 1), (1, 1, 100.0)), ((1, 1, 1), (1, 1, 1000.0))],
    )
    def test_one_solve_reaches_a_lopsided_triple(self, start, target):
        # one call, no continuation: the third bubble grows 60 to 1000 times
        out = fl.solve(fl.triple_bubble(start), np.array(target))
        assert fl.classify(out) is fl.Verdict.EQUILIBRIUM
        assert fl.validate(out, check_disjoint=True).ok
        assert np.abs(fl.region_areas(out) - target).max() <= 1e-8 * out.diameter() ** 2

    def test_recovers_from_perturbed_start(self, double, rng):
        target = fl.region_areas(double)
        x = double.chart() + 1e-2 * rng.standard_normal(double.chart().size)
        out = fl.solve(double.with_chart(x), target)
        assert fl.classify(out) is fl.Verdict.EQUILIBRIUM
        assert fl.region_areas(out) == pytest.approx(target, abs=1e-9)

    def test_mirrored_start_is_topology_breakdown(self, triple):
        # a mirror image of the chart point turns every star clockwise
        x = triple.chart()
        x[0 : 2 * triple.v : 2] *= -1.0
        x[2 * triple.v :] *= -1.0
        with pytest.raises(TopologyBreakdown, match="turns against the order of its regions"):
            fl.solve(triple.with_chart(x), fl.region_areas(triple))

    def test_gauge_keeps_centroid_and_orientation(self, triple):
        # without the gauge rows R (x - x0) this solve turns by 1e-3
        out = fl.solve(triple, np.array([1.3, 0.8, 1.0]))
        assert abs(out.points.mean() - triple.points.mean()) < 1e-10
        R = rigid_motion_basis(triple)
        assert np.abs(R @ (out.chart() - triple.chart())).max() < 1e-10

    @pytest.mark.parametrize("scale", [1e-6, 1e-3, 1e3, 1e6])
    @pytest.mark.parametrize(
        "preset", ["double", "triple", "four", "two_lens", "flower", "necklace6"]
    )
    def test_solves_at_any_scale(self, preset, scale, request):
        c = request.getfixturevalue(preset)
        c = c.with_chart(np.concatenate([scale * c.points.view(float), c.phis]))
        target = fl.region_areas(c) * (1.0 + 0.02 * np.resize([1.0, -1.0, 0.5], c.n))
        out = fl.solve(c, target)
        assert fl.classify(out) is fl.Verdict.EQUILIBRIUM
        assert fl.region_areas(out) == pytest.approx(target, abs=1e-9 * c.diameter() ** 2)

    def test_gauss_newton_iteration_counts(self, equilibrium_presets, monkeypatch):
        # lm_minimize's history lengths (one more than its steps) on the six
        # presets at their areas times 1 + U(-0.05, 0.05), then a 4-step
        # continuation of the triple bubble to 1 + U(-0.2, 0.2), all drawn
        # in turn from default_rng(1): cheaper steps must not change them;
        # from step 2 on the secant start saves one step (4 from the last point)
        lengths = []
        minimize = fl.equilibrium.lm_minimize

        def recorded(*args, **kwargs):
            out, history = minimize(*args, **kwargs)
            lengths.append(len(history))
            return out, history

        monkeypatch.setattr(fl.equilibrium, "lm_minimize", recorded)
        rng = np.random.default_rng(1)
        for name in ("double", "triple", "four", "two_lens", "flower", "necklace6"):
            c = equilibrium_presets[name]
            fl.solve(c, fl.region_areas(c) * (1.0 + rng.uniform(-0.05, 0.05, c.n)))
        c = equilibrium_presets["triple"]
        fl.continue_family(c, fl.region_areas(c) * (1.0 + rng.uniform(-0.2, 0.2, c.n)), steps=4)
        assert lengths == [4, 4, 4, 4, 4, 5] + [4, 3, 3, 3]

    def test_rejects_bad_targets(self, double):
        with pytest.raises(ValueError):
            fl.solve(double, np.array([1.0]))
        with pytest.raises(ValueError):
            fl.solve(double, np.array([1.0, -1.0]))

    @pytest.mark.parametrize(
        # no result could hold a subnormal area that validate accepts, nor
        # areas whose sum overflows
        "target", [[1.0], [1.0, -1.0], [1.0, 0.0], [np.inf, 1.0], [np.nan, 1.0], [1e-320, 1.0], [1e308, 1e308]]
    )
    def test_bad_targets_are_typed_errors(self, double, target):
        with pytest.raises(GeometryDomainError, match="target"):
            fl.solve(double, np.array(target))

    @pytest.mark.parametrize("max_iter", [0, -1])
    def test_no_iteration_budget_is_a_domain_error(self, double, max_iter):
        with pytest.raises(GeometryDomainError, match="max_iter must be at least 1"):
            fl.solve(double, fl.region_areas(double), max_iter=max_iter)

    @pytest.mark.parametrize("max_iter", [2.5, True, None, "100", np.float64(100.0)])
    def test_non_integer_iteration_budget_is_a_domain_error(self, double, max_iter):
        with pytest.raises(GeometryDomainError, match="max_iter must be an integer"):
            fl.solve(double, fl.region_areas(double), max_iter=max_iter)

    def test_numpy_integer_iteration_budget(self, double):
        target = fl.region_areas(double) * [1.1, 1.0]
        assert fl.region_areas(fl.solve(double, target, max_iter=np.int32(100))) == pytest.approx(target)
