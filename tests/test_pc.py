from pathlib import Path

import numpy as np
import pytest

from bandvie import quadrature
from bandvie.config import load_problem
from bandvie.errors import ProblemDefinitionError, SolverError
from bandvie.newton import iterate
from bandvie.pc import (
    Mesh,
    PCDiscretization,
    PiecewiseConstantSolution,
    solve_linear_pc,
)
from bandvie.problem import (
    CurveFamily,
    VolterraSystem,
    band_quadrature_residual,
    linearize,
)
from bandvie.registry import builtin

from helpers import (
    initial_values,
    pc_psi_evaluator,
    pc_solve_reference,
    segment_index,
    system_rhs,
)

SAMPLE_PROBLEM = (Path(__file__).resolve().parents[1]
                  / "bench" / "problems" / "sample_problem.yaml")

#: agreement of a solve with the step loop, relative to the largest value
SOLVE_RTOL = 1e-12


def sup_errors(system, solution, samples=2001):
    out = []
    for i in range(1, system.n_components + 1):
        ts = np.linspace(0.0, system.component_domain(i), samples)
        exact = np.broadcast_to(
            np.asarray(system.exact[i - 1](t=ts), float), ts.shape)
        out.append(float(np.max(np.abs(exact - solution.component_values(i, ts)))))
    return out


def test_segment_index_examples():
    mesh = Mesh.uniform(1.0, 4)
    assert segment_index(mesh, 0.3) == 2
    assert segment_index(mesh, 0.5) == 2   # node belongs to the left segment
    assert segment_index(mesh, 0.0) == 1
    assert segment_index(mesh, 1.0) == 4
    with pytest.raises(ValueError):
        segment_index(mesh, -0.1)
    with pytest.raises(ValueError):
        segment_index(mesh, 1.2)


def test_mesh_validation():
    with pytest.raises(ValueError):
        Mesh(np.array([0.0, 0.5, 0.5, 1.0]))
    with pytest.raises(ValueError):
        Mesh(np.array([0.1, 0.5, 1.0]))
    # NaN compares false both ways: a node must be finite and increase
    for bad in ([0.0, np.nan, 2.0], [0.0, 1.0, np.inf]):
        with pytest.raises(ValueError, match="finite"):
            Mesh(np.array(bad))
    assert Mesh.uniform(2.0, 8).h == pytest.approx(0.25)


@pytest.mark.parametrize("kwargs, name", [
    (dict(n_segments=2.5), "n_segments"), (dict(n_segments=0), "n_segments"),
    (dict(n_segments=-3), "n_segments"), (dict(n_segments=True), "n_segments"),
    (dict(n_segments=8.7), "n_segments"), (dict(n_segments=1), "n_segments")])
def test_one_shot_pc_rejects_unusable_counts(model01, kwargs, name):
    # a count is not truncated (8.7 is not 8 segments), is not a bool, and
    # one below its minimum is named before any plan is laid
    with pytest.raises(ValueError, match=name):
        solve_linear_pc(model01, **kwargs)
    with pytest.raises(ValueError, match=name):
        PCDiscretization(linearize(model01), Mesh.uniform(
            2.0, kwargs["n_segments"]))


def test_initial_values_match_exact_starts(model01, model02, scalar, sys1):
    assert np.allclose(initial_values(model01), [1.0, 0.0], atol=1e-10)
    assert np.allclose(initial_values(model02), [1.0, 0.0, 0.0], atol=1e-10)
    # zero right-hand-side derivative at 0 gives the zero vector
    assert np.allclose(initial_values(scalar), [0.0], atol=1e-14)
    assert np.allclose(initial_values(sys1), [0.0, 0.0], atol=1e-14)


def test_initial_values_match_exact_for_all_builtins():
    # with the iteration right-hand side taken at the exact solution, the
    # start-value system reproduces x*(0) for every builtin
    for name in ("model01", "model02", "nonlinear-scalar",
                 "nonlinear-sys1", "nonlinear-sys2"):
        system = builtin(name)
        lin = linearize(system)
        exact = system.exact_iterate()
        x0 = lin.start_values(lin.derivative_at_zero(exact))
        expected = [float(system.exact[i](t=0.0))
                    for i in range(system.n_components)]
        assert np.allclose(x0, expected, atol=1e-10), name


def test_singular_start_system_reports():
    system = VolterraSystem(
        curves=CurveFamily(1.0, ("t/2",)),
        kernels=[["1", "-1"], ["1", "-1"]],
        nonlinearities=[["x", "x"], ["x", "x"]],
        rhs=["t", "t"],
    )
    with pytest.raises(SolverError, match="t = 0"):
        initial_values(system)


def test_pc_component_values_conventions():
    mesh = Mesh.uniform(1.0, 4)
    sol = PiecewiseConstantSolution(
        mesh, start=[7.0], values=[[1.0, 2.0, 3.0, 4.0]],
        component_domains=(1.0,))
    ts = np.array([0.0, 1.0, 0.6, 0.5])
    # start value at 0; 0.6 lies inside segment 3; the node 0.5 belongs to
    # the left segment
    assert list(sol.component_values(1, ts)) == [7.0, 4.0, 3.0, 2.0]
    assert list(sol.breakpoints_in(0.0, 1.0)) == [0.25, 0.5, 0.75]


def test_constant_problem_is_exact_for_any_mesh():
    system = VolterraSystem(
        curves=CurveFamily(1.5, ()),
        kernels=[["1"]],
        nonlinearities=[["x"]],
        rhs=["2*t"],
        exact=["2"],
    )
    for n in (5, 17, 64):
        sol = solve_linear_pc(system, n_segments=n)
        assert sup_errors(system, sol)[0] <= 1e-10


def test_model01_accuracy_and_first_order_convergence(model01):
    errors = {}
    for n in (64, 128, 256, 512):
        sol = solve_linear_pc(model01, n_segments=n)
        errors[n] = max(sup_errors(model01, sol))
    assert errors[128] <= 0.05
    for n in (64, 128, 256):
        ratio = errors[n] / errors[2 * n]
        assert 1.4 <= ratio <= 3.0, (n, ratio)


def test_scalar_linearized_at_exact_matches_table_order(scalar):
    # the linear inner solve alone, frozen and driven at the exact solution,
    # must show the same first-order error level as the full iteration
    lin = linearize(scalar, scalar.exact_iterate())
    disc, evaluator = pc_psi_evaluator(lin, Mesh.uniform(1.0, 128))
    sol = disc.solve(evaluator.values(lin.x0),
                     lin.derivative_at_zero(lin.x0))
    err = sup_errors(scalar, sol)[0]
    assert 7.30057e-4 <= err <= 7.30057e-2  # within a factor 10 of 7.30057e-3


def test_residual_oracle_decreases_with_mesh(model01):
    previous = None
    for n in (32, 64, 128):
        sol = solve_linear_pc(model01, n_segments=n)
        worst = max(
            abs(v)
            for t in np.linspace(0.1, 2.0, 20)
            for v in band_quadrature_residual(model01, sol, float(t),
                                              panels=2000))
        h = 2.0 / n
        assert worst <= 0.5 * h
        if previous is not None:
            assert worst < previous
        previous = worst


def test_scalar_shared_unknown_assigns_every_segment(scalar):
    sol = solve_linear_pc(scalar, n_segments=40)
    assert np.all(np.isfinite(sol.values))


def test_model01_components_assigned_up_to_their_domains(model01):
    sol = solve_linear_pc(model01, n_segments=64)
    # component 1 is only determined on [0, 1]: segments 1..32
    assert np.all(np.isfinite(sol.values[0][:32]))
    assert np.all(np.isnan(sol.values[0][32:]))
    assert np.all(np.isfinite(sol.values[1]))


def test_discretization_solve_is_deterministic(model01):
    lin = linearize(model01)
    disc = PCDiscretization(lin, Mesh.uniform(2.0, 32))
    rhs = system_rhs(disc)
    a = disc.solve(*rhs)
    b = disc.solve(*rhs)
    assert np.array_equal(a.values, b.values, equal_nan=True)
    assert np.array_equal(a.start, b.start)


def _gap_system():
    # this curve has slope > 1 later on, so alpha jumps across two mesh
    # segments in one step, skips one, and the skipped value is demanded by
    # a later history integral
    return VolterraSystem(
        curves=CurveFamily(2.0, ("0.3*t + t^2/3",)),
        kernels=[["1", "1"], ["1+t", "-1"]],
        nonlinearities=[["x", "x"], ["x", "x"]],
        rhs=["t", "t^2"],
    )


def test_history_gap_raises_for_too_fast_curves():
    with pytest.raises(SolverError, match="too coarse|never assigned"):
        solve_linear_pc(_gap_system(), n_segments=16)


def _fault_system(curves, unknown_of_band):
    """Two equations on [0, 1] with all G = x and kernels 1 to 3 (+ t)."""
    n_bands = len(curves) + 1
    return VolterraSystem(
        curves=CurveFamily(1.0, curves),
        kernels=[[f"{1 + (i + 2 * j) % 3}+{(i + j) % 2}*t"
                  for j in range(n_bands)] for i in range(2)],
        nonlinearities=[["x"] * n_bands] * 2,
        rhs=["t", "t^2"], unknown_of_band=unknown_of_band, guess=["0", "0"])


#: (system, N, message) of every step fault, the messages pinned word for
#: word.  The fault systems other than the history gap have curves flat at
#: t = 0, so their start-value systems are singular; the constructor
#: raises the step fault before any solve reaches them
STEP_FAULTS = {
    "history-gap-8": (_gap_system, 8,
                      "step 7: history for component 1 needs segment 6 "
                      "which was never assigned"),
    "history-gap-16": (_gap_system, 16,
                       "step 14: history for component 1 needs segment 12 "
                       "which was never assigned"),
    # the band on segment 2 lies below component 1's active segment 3 and
    # reads segment 2 before it is assigned; the jump of component 1 at
    # the same node comes after it
    "known-segment": (lambda: _fault_system(("t^4/2", "t^3", "t^2"),
                                            (1, 1, 1, 2)), 4,
                      "step 3: band mapped to component 1 refers to segment "
                      "2 before it was assigned (band map (1, 1, 1, 2))"),
    "jump": (lambda: _fault_system(("0.3*t^4", "0.9*t^4", "t^4"),
                                   (1, 1, 2, 1)), 3,
             "step 3: component 2 jumps from segment 1 to 3; the mesh is "
             "too coarse for the curve speed"),
    # at t = 1 both curves meet t: component 1's bands are empty there
    "singular": (lambda: _fault_system(("t^2", "t^2"), (1, 2, 2)), 3,
                 "singular step system at node 3 (t = 1): matrix "
                 "numerically singular at elimination step 2 (pivot "
                 "0.000e+00, threshold 1.000e-13)"),
}


@pytest.mark.parametrize("name", sorted(STEP_FAULTS))
def test_step_faults_keep_their_message_and_node(name):
    make, n, message = STEP_FAULTS[name]
    system = make()
    with pytest.raises(SolverError) as exc:
        PCDiscretization(linearize(system),
                         Mesh.uniform(system.curves.horizon, n))
    assert str(exc.value) == message
    with pytest.raises(SolverError) as exc:
        solve_linear_pc(system, n_segments=n)
    assert str(exc.value) == message


def test_non_square_band_map_rejected(model01):
    # two equations, one component: no step system can be square
    with pytest.raises(ProblemDefinitionError) as exc:
        VolterraSystem(
            curves=model01.curves,
            kernels=model01.kernels,
            nonlinearities=model01.nonlinearities,
            rhs=model01.rhs,
            unknown_of_band=(1, 1),
            guess=["0"],
        )
    assert str(exc.value) == (
        "unknown_of_band (1, 1) gives 1 component(s) for 2 equation(s); "
        "it must give one component per equation")


def test_non_finite_rhs_names_equation_node_and_time(model01):
    disc = PCDiscretization(linearize(model01), Mesh.uniform(2.0, 16))
    values, derivative_at_zero = system_rhs(disc)
    values[0, 5] = np.nan
    with pytest.raises(SolverError, match=r"right-hand side of equation 1 is "
                                          r"nan at node 6 \(t = 0\.75\)"):
        disc.solve(values, derivative_at_zero)


@pytest.mark.parametrize("shape", [(2, 15), (1, 16), (32,)])
def test_rhs_of_the_wrong_shape_names_the_expected_one(model01, shape):
    disc = PCDiscretization(linearize(model01), Mesh.uniform(2.0, 16))
    with pytest.raises(SolverError, match=r"right-hand side has shape "
                       rf"\({shape[0]},.*expected \(2, 16\)"):
        disc.solve(np.zeros(shape), np.zeros(2))


def test_step_systems_are_factorized_once_per_discretization(model01,
                                                             monkeypatch):
    from bandvie import linalg, pc

    shapes = []
    original = linalg.LUFactorization.__init__
    original_stack = pc.lu_factor_stack

    def counting(self, a):
        shapes.append(np.shape(a))
        original(self, a)

    def counting_stack(a):
        shapes.append(np.shape(a))
        return original_stack(a)

    monkeypatch.setattr(linalg.LUFactorization, "__init__", counting)
    monkeypatch.setattr(pc, "lu_factor_stack", counting_stack)
    disc = PCDiscretization(linearize(model01), Mesh.uniform(2.0, 16))
    # the 16 step systems in one stack, at construction
    assert shapes == [(16, 2, 2)]
    rhs = system_rhs(disc)
    first = disc.solve(*rhs)
    second = disc.solve(*rhs)
    # then the start-value system, at the first solve; no step system is
    # factorized per solve
    assert shapes == [(16, 2, 2), (2, 2)]
    assert np.array_equal(first.values, second.values, equal_nan=True)


def test_model02_solves_where_a_curve_meets_a_node_in_exact_arithmetic(
        model02):
    # t_15 / 3 lands 1 ulp above mesh node 5 at N = 24 and 48; before band
    # edges were moved onto the nodes, the sub-ulp unknown range beside it
    # made step 15 singular
    errors = {}
    for n in (24, 48):
        _, report = iterate(model02, method="pc", n_segments=n)
        assert report.stop_reason == "tolerance"
        errors[n] = report.records[-1].aggregate_error
    assert 1.4 <= errors[24] / errors[48] <= 3.0


def _assert_solve_matches_step_loop(disc, psi, derivative_at_zero):
    got = disc.solve(psi, derivative_at_zero).values
    ref = pc_solve_reference(disc, psi)
    np.testing.assert_array_equal(np.isnan(got), np.isnan(ref))
    known = ~np.isnan(ref)
    assert known.any()
    assert np.max(np.abs(got[known] - ref[known])) <= \
        SOLVE_RTOL * np.max(np.abs(ref[known]))


@pytest.mark.parametrize("n", [8, 16, 32, 64, 128])
@pytest.mark.parametrize("name", ["model01", "model02", "nonlinear-scalar",
                                  "nonlinear-sys1", "nonlinear-sys2",
                                  "sample"])
def test_solve_matches_step_loop(name, n):
    system = load_problem(SAMPLE_PROBLEM) if name == "sample" else builtin(name)
    disc = PCDiscretization(linearize(system),
                            Mesh.uniform(system.curves.horizon, n))
    _assert_solve_matches_step_loop(disc, *system_rhs(disc))


@pytest.mark.parametrize("n", [12, 24, 48])
def test_solve_matches_step_loop_with_band_edges_on_nodes(model02, n):
    # t_15 / 3 lands 1 ulp above mesh node 5 at N = 24 and 48, and is moved
    # onto it
    disc = PCDiscretization(linearize(model02),
                            Mesh.uniform(model02.curves.horizon, n))
    _assert_solve_matches_step_loop(disc, *system_rhs(disc))


def _curved_system():
    """Three bands of one unknown, the first curve curved, and a G that is
    not x in the first two bands, so psi sums on them."""
    return VolterraSystem(
        curves=CurveFamily(1.0, ("t/3+t^2/6", "2*t/3")),
        kernels=[["1+t", "2", "1+s"]], nonlinearities=[["x+x^2", "x^2", "x"]],
        rhs=["t"], unknown_of_band=(1, 1, 1))


@pytest.mark.parametrize("n", [2, 3, 7, 12, 24, 48, 64])
@pytest.mark.parametrize("name", ["model02", "nonlinear-scalar", "curved"])
def test_each_piece_reads_the_mesh_segment_that_holds_it(name, n):
    # pc takes a piece's segment from its lower edge; the segment that
    # holds it is the one of its upper edge, found among the nodes cut
    # from the (snapped) band edges.  model02's curves meet mesh nodes
    # only in exact arithmetic
    system = _curved_system() if name == "curved" else builtin(name)
    mesh = Mesh.uniform(system.curves.horizon, n)
    disc = PCDiscretization(linearize(system), mesh)
    cuts = mesh.nodes[1:-1]
    edges = quadrature.band_edges(disc.times, system.curves, snap=cuts)
    held, history = [], []
    for j in range(1, system.n_bands + 1):
        held.append([])
        history.append([])
        for lo, hi in zip(edges[:, j - 1], edges[:, j]):
            uppers = [b for _, b in quadrature.split_interval(lo, hi, cuts)]
            segments = (mesh.segment_indices(uppers) - 1).tolist()
            held[-1] += segments
            history[-1] += segments[:-1]    # the last is the unknown range
    bands, *_ = disc._assemble()
    assert [band[3].tolist() for band in bands] == history
    assert [band.segment.tolist() for band in disc._psi] == [
        held[band.band] for band in disc._psi]
    assert len(disc._psi) == {"model02": 0, "nonlinear-scalar": 1,
                              "curved": 2}[name]


@pytest.mark.parametrize("n", [16, 64])
def test_solve_matches_step_loop_for_psi(sys2, n):
    # psi at the guess and at the first pc iterate, not only f
    lin = linearize(sys2)
    disc, evaluator = pc_psi_evaluator(
        lin, Mesh.uniform(sys2.curves.horizon, n))
    current = lin.x0
    for _ in range(2):
        rhs = (evaluator.values(current), lin.derivative_at_zero(current))
        _assert_solve_matches_step_loop(disc, *rhs)
        current = disc.solve(*rhs)
