
import numpy as np
import pytest

import foamlab as fl
from foamlab.constructions import _quasi_rows
from foamlab.equilibrium import (
    curvature_scale,
    lm_minimize,
    numeric_jacobian,
    pin_gauge,
    residual_jacobian,
)
from foamlab.geometry import arc_carrier
from foamlab.errors import NonConvergence, PathInconsistent, StructuralError, TopologyBreakdown


class TestResiduals:
    def test_equilibrium_presets_tiny(self, equilibrium_presets):
        for name, c in equilibrium_presets.items():
            rep = fl.residuals(c)
            assert rep.angle_sup < 1e-9, name
            assert rep.cocycle_sup < 1e-9 * max(1.0, curvature_scale(c)), name

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
            for ed in c.edges:
                kappa = arc_carrier(c.arc_of(ed.id)).A
                assert p[ed.left] - p[ed.right] == pytest.approx(
                    kappa, abs=1e-9 * max(1.0, curvature_scale(c))
                ), name

    def test_quasi_pressures_ill_defined(self, quasi_presets):
        for name, c in quasi_presets.items():
            with pytest.raises(PathInconsistent):
                fl.pressures(c)


class TestClassify:
    def test_presets(self, equilibrium_presets, quasi_presets):
        for name, c in equilibrium_presets.items():
            assert fl.classify(c) is fl.Verdict.EQUILIBRIUM, name
        for name, c in quasi_presets.items():
            assert fl.classify(c) is fl.Verdict.QUASI_EQUILIBRIUM, name

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
    def test_quadratic_bowl(self):
        fun = lambda x: np.array([x[0] - 1.0, 2.0 * (x[1] + 3.0), x[0] * x[1] + 3.0])
        jac = lambda x: np.array([[1.0, 0.0], [0.0, 2.0], [x[1], x[0]]])
        x, history = lm_minimize(fun, jac, np.zeros(2))
        assert np.linalg.norm(fun(x)) < 1e-10
        assert history[-1] < history[0]

    def test_rank_deficient_system(self):
        # one equation, two unknowns: minimum-norm steps still converge
        fun = lambda x: np.array([x[0] + x[1] - 2.0])
        jac = lambda x: np.array([[1.0, 1.0]])
        x, _ = lm_minimize(fun, jac, np.zeros(2))
        assert abs(x[0] + x[1] - 2.0) < 1e-10

    def test_nonconvergence_raises(self):
        fun = lambda x: np.array([1.0 + x[0] ** 2])
        jac = lambda x: np.array([[2.0 * x[0]]])
        with pytest.raises(NonConvergence):
            lm_minimize(fun, jac, np.array([1.0]), max_iter=5,
                        converged=lambda x, f: False)

    def test_numeric_jacobian(self):
        fun = lambda x: np.array([x[0] ** 2, x[0] * x[1]])
        J = numeric_jacobian(fun, np.array([2.0, 3.0]), 1e-6)
        assert J == pytest.approx(np.array([[4.0, 0.0], [3.0, 2.0]]), abs=1e-8)


def residual_rows(c):
    rep = fl.residuals(c)
    return np.concatenate([rep.angle_block, rep.cocycle_block])


def fd_error(rows, jac, c):
    """Largest gap between ``jac(c)`` and central differences of ``rows`` over
    c's chart, relative to the largest exact entry.  At h = 1e-6 diameter the
    truncation error on necklace(7)'s short edges alone reaches 6e-7."""
    fd = numeric_jacobian(lambda x: rows(c.with_chart(x)), c.chart(), 1e-7 * c.diameter())
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

    def test_gauge_rows(self, equilibrium_presets, rng):
        for name, c in equilibrium_presets.items():
            rows, jac = pin_gauge(c)
            for d in (c, perturbed(c, rng)):
                assert fd_error(rows, jac, d) <= 1e-7, name

    @pytest.mark.parametrize("kind", ["two_lens_recurved", "four_stretched"])
    def test_quasi_rows(self, kind, quasi_presets, rng):
        base, rows, jac = _quasi_rows(kind, 0.15)
        for d in (base, quasi_presets[kind], perturbed(base, rng)):
            assert fd_error(rows, jac, d) <= 1e-7, kind


class TestSolve:
    def test_reaches_target_areas(self, triple):
        target = np.array([1.15, 0.9, 1.02])
        out = fl.solve(triple, target)
        assert fl.region_areas(out) == pytest.approx(target, abs=1e-9)
        assert fl.classify(out) is fl.Verdict.EQUILIBRIUM

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
        with pytest.raises(TopologyBreakdown, match="star order"):
            fl.solve(triple.with_chart(x), fl.region_areas(triple))

    def test_gauge_pins_vertex(self, triple):
        out = fl.solve(triple, np.array([1.1, 1.0, 1.0]))
        assert abs(out.vertices[0].z - triple.vertices[0].z) < 1e-9

    def test_rejects_bad_targets(self, double):
        with pytest.raises(ValueError):
            fl.solve(double, np.array([1.0]))
        with pytest.raises(ValueError):
            fl.solve(double, np.array([1.0, -1.0]))

    @pytest.mark.parametrize("target", [[1.0], [1.0, -1.0], [1.0, 0.0]])
    def test_bad_targets_are_typed_errors(self, double, target):
        with pytest.raises(fl.FoamlabError):
            fl.solve(double, np.array(target))
