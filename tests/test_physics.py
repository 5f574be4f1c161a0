import json
import tracemalloc

import numpy as np
import pytest

from mixopt.diffnet import (
    InputNorm,
    NetworkSpec,
    forward,
    forward_jac,
    init_params,
    param_gradient,
)
from mixopt.diffnet.tape import leaf
from mixopt.errors import DomainError, NumericalError
from mixopt.geometry import ChannelDims
from mixopt.physics import (
    RESIDUAL_NAMES,
    FieldSample,
    LossReport,
    LossWeights,
    boundary_residuals,
    loss_node,
    massflow_penalty,
    pde_residuals,
    total_loss,
)
from mixopt.sampling import (
    BoundaryGroup,
    CollocationCounts,
    CollocationSet,
    PenaltySlice,
    SampleBounds,
    generate_collocation,
)


def zero_sample(n):
    z = np.zeros(n)
    names = [f.name for f in FieldSample.__dataclass_fields__.values()]
    return FieldSample(**{name: z.copy() for name in names})


def poiseuille_sample(y, re):
    """Fully developed channel closure: parabolic u, linear p, matching stresses."""
    y = np.asarray(y, dtype=float)
    x = np.linspace(0.5, 6.5, y.size)
    z = np.zeros_like(y)
    p = 12.0 / re * (7.0 - x)
    return FieldSample(
        u=6.0 * y * (1.0 - y), v=z.copy(), p=p,
        txx=-p, tyy=-p, txy=(6.0 - 12.0 * y) / re,
        c=np.full_like(y, 0.5), jx=z.copy(), jy=z.copy(),
        ux=z.copy(), uy=6.0 - 12.0 * y, vx=z.copy(), vy=z.copy(),
        px=np.full_like(y, -12.0 / re), py=z.copy(),
        txx_x=np.full_like(y, 12.0 / re), txx_y=z.copy(),
        tyy_x=np.full_like(y, 12.0 / re), tyy_y=z.copy(),
        txy_x=z.copy(), txy_y=np.full_like(y, -12.0 / re),
        cx=z.copy(), cy=z.copy(),
        jx_x=z.copy(), jx_y=z.copy(), jy_x=z.copy(), jy_y=z.copy(),
    )


def diffusion_sample(y, slope=0.8, offset=0.1, pressure=0.7):
    """Quiescent fluid with a linear concentration ramp and its constant flux."""
    y = np.asarray(y, dtype=float)
    z = np.zeros_like(y)
    p = np.full_like(y, pressure)
    return FieldSample(
        u=z.copy(), v=z.copy(), p=p, txx=-p, tyy=-p, txy=z.copy(),
        c=offset + slope * y, jx=z.copy(), jy=np.full_like(y, -slope),
        ux=z.copy(), uy=z.copy(), vx=z.copy(), vy=z.copy(),
        px=z.copy(), py=z.copy(),
        txx_x=z.copy(), txx_y=z.copy(), tyy_x=z.copy(), tyy_y=z.copy(),
        txy_x=z.copy(), txy_y=z.copy(),
        cx=z.copy(), cy=np.full_like(y, slope),
        jx_x=z.copy(), jx_y=z.copy(), jy_x=z.copy(), jy_y=z.copy(),
    )


def test_zero_fields_zero_residuals():
    res = pde_residuals(zero_sample(6), re=10.0, sc=5.0)
    assert set(res) == set(RESIDUAL_NAMES)
    for r in res.values():
        assert np.all(r == 0.0)


def test_poiseuille_closure_zeroes_all_residuals():
    y = np.linspace(0.0, 1.0, 17)
    for re in (1.0, 10.0, 37.5):
        res = pde_residuals(poiseuille_sample(y, re), re=re, sc=12.0)
        for name, r in res.items():
            assert np.max(np.abs(r)) <= 1e-12, name


def test_pure_diffusion_closure_zeroes_all_residuals():
    y = np.linspace(0.0, 1.0, 9)
    res = pde_residuals(diffusion_sample(y), re=25.0, sc=3.0)
    for name, r in res.items():
        assert np.max(np.abs(r)) <= 1e-12, name


def test_residuals_deterministic():
    y = np.linspace(0.0, 1.0, 5)
    s = poiseuille_sample(y, 8.0)
    a = pde_residuals(s, 8.0, 2.0)
    b = pde_residuals(s, 8.0, 2.0)
    for name in RESIDUAL_NAMES:
        assert np.array_equal(a[name], b[name])


def test_residuals_validate_inputs():
    s = zero_sample(3)
    with pytest.raises(DomainError):
        pde_residuals(s, re=-1.0, sc=2.0)
    bad = zero_sample(3)
    bad.u[1] = np.nan
    with pytest.raises(NumericalError):
        pde_residuals(bad, re=1.0, sc=1.0)
    s2 = FieldSample(**{k: np.zeros(3) for k in ("u", "v", "p", "txx", "tyy", "txy", "c", "jx", "jy")})
    with pytest.raises(DomainError):
        pde_residuals(s2, re=1.0, sc=1.0)


def test_inlet_residuals_vanish_on_exact_profile():
    n = 8
    xi = np.linspace(0.0, 1.0, n)
    prof = 3.0 * xi * (1.0 - xi)
    s = zero_sample(n)
    s.v = -prof
    s.c = np.ones(n)
    targets = {"u": np.zeros(n), "v": -prof, "c": np.ones(n)}
    res = boundary_residuals(s, "inlet_top", targets=targets)
    assert len(res) == 3
    for r in res:
        assert np.all(r == 0.0)


def test_wall_residuals_no_slip_and_no_flux():
    n = 5
    s = zero_sample(n)
    normals = np.tile([0.6, 0.8], (n, 1))
    scale = np.linspace(-2.0, 2.0, n)
    s.jx = -0.8 * scale
    s.jy = 0.6 * scale  # flux parallel to the wall
    res = boundary_residuals(s, "baffle", normals=normals)
    assert np.max(np.abs(res[2])) < 1e-15
    s.jx = normals[:, 0] * 0.5
    s.jy = normals[:, 1] * 0.5
    res = boundary_residuals(s, "wall", normals=normals)
    assert np.allclose(res[2], 0.5)


def test_outlet_residuals_pin_pressure_and_streamwise_flux():
    s = zero_sample(4)
    s.p = np.array([0.0, 0.1, -0.2, 0.0])
    s.jx = np.array([0.0, 0.0, 0.3, 0.0])
    res = boundary_residuals(s, "outlet")
    assert np.array_equal(res[0], s.p)
    assert np.array_equal(res[1], s.jx)


def test_unknown_boundary_kind_rejected():
    with pytest.raises(DomainError):
        boundary_residuals(zero_sample(2), "lid")
    with pytest.raises(DomainError):
        boundary_residuals(zero_sample(2), "inlet_top", targets={"u": np.zeros(2)})


def test_massflow_penalty_cases():
    u = np.array([1.0, 1.0])
    w = np.array([0.5, 0.5])
    assert massflow_penalty(u, w, 1.0) == 0.0
    assert abs(massflow_penalty(u, w, 2.0) - 1.0) < 1e-15
    with pytest.raises(DomainError):
        massflow_penalty(np.array([1.0]), np.array([1.0]), 1.0)
    with pytest.raises(DomainError):
        massflow_penalty(np.array([1.0, 2.0, 3.0]), w, 1.0)


def test_massflow_parabola_quadrature_error_small():
    y = np.linspace(0.0, 1.0, 101)
    u = 6.0 * y * (1.0 - y)
    w = np.full(101, 0.01)
    w[0] = w[-1] = 0.005
    assert massflow_penalty(u, w, 1.0) < 1e-6


def test_loss_weights_validation():
    with pytest.raises(DomainError):
        LossWeights(pde=-1.0)
    with pytest.raises(DomainError):
        LossWeights(pde=0, inlet_top=0, inlet_bottom=0, wall=0, baffle=0, outlet=0, massflow=0)


def tiny_colloc(seed=0):
    return generate_collocation(
        ChannelDims(),
        SampleBounds(),
        CollocationCounts(interior=40, per_boundary=6, per_slice=8),
        seed=seed,
    )


def test_zero_network_loss_matches_hand_computation():
    colloc = tiny_colloc(seed=3)
    spec = NetworkSpec()
    params = init_params(spec, seed=0)
    params = params.with_flat(np.zeros_like(params.flat))
    report = total_loss(colloc, params)

    assert report.families["pde"] == 0.0
    assert report.families["wall"] == 0.0
    assert report.families["baffle"] == 0.0
    assert report.families["outlet"] == 0.0
    for kind in ("inlet_top", "inlet_bottom"):
        g = colloc.boundary[kind]
        want = (np.sum(g.targets["v"] ** 2) + np.sum(g.targets["c"] ** 2)) / (3 * len(g.X))
        assert abs(report.families[kind] - want) < 1e-14
    assert abs(report.families["massflow"] - 1.0) < 1e-14
    want_total = 10.0 * (report.families["inlet_top"] + report.families["inlet_bottom"] + 1.0)
    assert abs(report.total - want_total) < 1e-12


def test_loss_single_family_isolation():
    colloc = tiny_colloc(seed=1)
    params = init_params(NetworkSpec(), seed=5)
    solo = LossWeights(pde=1.0, inlet_top=0, inlet_bottom=0, wall=0, baffle=0, outlet=0, massflow=0)
    report = total_loss(colloc, params, solo)
    assert abs(report.total - report.families["pde"]) < 1e-15


def test_loss_scales_linearly_with_weights():
    colloc = tiny_colloc(seed=2)
    params = init_params(NetworkSpec(), seed=6)
    base = total_loss(colloc, params)
    double_pde = total_loss(colloc, params, LossWeights(pde=2.0))
    assert abs((double_pde.total - base.total) - base.families["pde"]) < 1e-12


def test_loss_node_hand_check_two_points():
    """Independent numpy recomputation of every family on a minimal set."""
    spec = NetworkSpec(hidden=(5,))
    params = init_params(spec, seed=9)
    interior = np.array([
        [2.0, 0.3, 0.1, -0.2, 0.3, 10.0, 20.0],
        [5.0, 0.7, 0.1, -0.2, 0.3, 10.0, 20.0],
    ])
    wall_X = np.array([[4.0, 0.0, 0.1, -0.2, 0.3, 10.0, 20.0]])
    wall_n = np.array([[0.0, -1.0]])
    slice_y = np.linspace(0.0, 1.0, 5)
    slice_X = np.column_stack([np.full(5, 6.0), slice_y, np.tile([0.1, -0.2, 0.3, 10.0, 20.0], (5, 1))])
    w = np.full(5, 0.25)
    w[0] = w[-1] = 0.125
    colloc = CollocationSet(
        interior=interior,
        boundary={"wall": BoundaryGroup(kind="wall", X=wall_X, normals=wall_n)},
        slices=(PenaltySlice(station=6.0, X=slice_X, weights=w, target=1.0),),
    )
    node, report = loss_node(colloc, leaf(params.flat), params, LossWeights())

    out = forward(params, interior)
    _, jac = forward_jac(params, interior)
    u, v, p = out[:, 0], out[:, 1], out[:, 2]
    txx, tyy, txy, c, jx, jy = out[:, 3], out[:, 4], out[:, 5], out[:, 6], out[:, 7], out[:, 8]
    d = {name: (jac[:, i, 0], jac[:, i, 1]) for i, name in
         enumerate(["u", "v", "p", "txx", "tyy", "txy", "c", "jx", "jy"])}
    re, sc = 10.0, 20.0
    rs = [
        d["u"][0] + d["v"][1],
        u * d["u"][0] + v * d["u"][1] - d["txx"][0] - d["txy"][1],
        u * d["v"][0] + v * d["v"][1] - d["txy"][0] - d["tyy"][1],
        -p + 2.0 / re * d["u"][0] - txx,
        -p + 2.0 / re * d["v"][1] - tyy,
        1.0 / re * (d["u"][1] + d["v"][0]) - txy,
        u * d["c"][0] + v * d["c"][1] + 1.0 / (re * sc) * (d["jx"][0] + d["jy"][1]),
        jx + d["c"][0],
        jy + d["c"][1],
    ]
    pde_ms = sum(np.sum(r ** 2) for r in rs) / (9 * 2)

    # loss_node runs the wall and slice rows as one stacked pass; a 1-row and
    # a 5-row pass may differ from it in the last bit under some BLAS kernels
    stacked = forward(params, np.concatenate([wall_X, slice_X]))
    wout, sout = stacked[:1], stacked[1:]
    wall_ms = (wout[0, 0] ** 2 + wout[0, 1] ** 2 + (-wout[0, 8]) ** 2) / 3

    flux = np.sum(sout[:, 0] * w)
    mass_ms = (flux - 1.0) ** 2

    assert abs(report.families["pde"] - pde_ms) < 1e-12
    assert abs(report.families["wall"] - wall_ms) < 1e-12
    assert abs(report.families["massflow"] - mass_ms) < 1e-12
    want_total = 1.0 * pde_ms + 10.0 * wall_ms + 10.0 * mass_ms
    assert abs(report.total - want_total) < 1e-12
    assert abs(float(node.value) - want_total) < 1e-15


def test_loss_report_json_stable():
    report = LossReport(total=1.5, families={"pde": 0.5, "wall": 1.0}, step=3)
    assert report.to_json() == '{"pde": 0.5, "step": 3, "total": 1.5, "wall": 1.0}'


def test_stacked_loss_node_matches_per_family_numpy_sums():
    """All five boundary kinds and the slices share one value-only pass;
    each family must still equal its own numpy mean square."""
    colloc = generate_collocation(ChannelDims(), SampleBounds(),
                                  CollocationCounts(interior=300, per_boundary=30, per_slice=16),
                                  seed=4)
    assert sorted(colloc.boundary) == ["baffle", "inlet_bottom", "inlet_top", "outlet", "wall"]
    params = init_params(NetworkSpec(hidden=(16, 16)), seed=7)
    node, report = loss_node(colloc, leaf(params.flat), params, LossWeights())

    want = {}
    I = colloc.interior
    sample = FieldSample.from_net(forward(params, I), forward_jac(params, I)[1])
    res = pde_residuals(sample, I[:, 5], I[:, 6])
    want["pde"] = sum(np.sum(res[name] ** 2) for name in RESIDUAL_NAMES) / (9 * len(I))
    for kind, group in colloc.boundary.items():
        res = boundary_residuals(FieldSample.from_net(forward(params, group.X)), kind,
                                 group.normals, group.targets)
        want[kind] = sum(np.sum(r ** 2) for r in res) / (len(res) * len(group.X))
    want["massflow"] = np.mean([
        (np.sum(forward(params, sl.X)[:, 0] * sl.weights) - sl.target) ** 2
        for sl in colloc.slices])

    assert set(report.families) == set(want)
    for name, value in want.items():
        assert abs(report.families[name] - value) <= 1e-12 * abs(value), name
    weights = LossWeights().as_dict()
    want_total = sum(weights[name] * value for name, value in want.items())
    assert abs(report.total - want_total) <= 1e-12 * want_total
    assert float(node.value) == report.total


def test_stacked_loss_node_gradient_matches_central_difference():
    colloc = generate_collocation(ChannelDims(), SampleBounds(),
                                  CollocationCounts(interior=300, per_boundary=30, per_slice=16),
                                  seed=5)
    params = init_params(NetworkSpec(hidden=(16, 16)), seed=8)
    p_leaf = leaf(params.flat)
    node, _ = loss_node(colloc, p_leaf, params)
    rng = np.random.default_rng(0)
    direction = rng.normal(size=params.flat.size)
    direction /= np.linalg.norm(direction)
    exact = float(np.dot(param_gradient(node, p_leaf), direction))
    h = 1e-5
    plus = total_loss(colloc, params.with_flat(params.flat + h * direction)).total
    minus = total_loss(colloc, params.with_flat(params.flat - h * direction)).total
    assert abs((plus - minus) / (2.0 * h) - exact) <= 1e-6 * abs(exact)


def assert_reports_equal(report, ref):
    assert np.array_equal(report.total, ref.total)
    assert list(report.families) == list(ref.families)
    for name, value in ref.families.items():
        assert np.array_equal(report.families[name], value), name


def tape_report(colloc, params, weights=None):
    return loss_node(colloc, leaf(params.flat), params, weights)[1]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("activation", ["tanh"])  # the only one; keeps the test ids
def test_value_only_total_loss_is_the_tape_report_bit_for_bit(seed, activation):
    colloc = generate_collocation(ChannelDims(), SampleBounds(), CollocationCounts(), seed=seed)
    norm = InputNorm.from_bounds(SampleBounds().pairs())
    params = init_params(NetworkSpec(), norm=norm, seed=40 + seed)
    assert_reports_equal(total_loss(colloc, params), tape_report(colloc, params))
    weights = LossWeights(pde=0.5, wall=3.0, massflow=0.0)
    assert_reports_equal(total_loss(colloc, params, weights), tape_report(colloc, params, weights))


# numpy squares a float64 scalar with pow; for this input pow(x, 2) is one ulp
# above x * x on glibc, so a penalty written as defect ** 2 leaves the tape's bits
POW_ULP_DEFECT = 0.687611213910762


def test_massflow_penalty_squares_by_multiplication_on_arrays_and_nodes():
    x = POW_ULP_DEFECT
    u, w = np.array([x, 0.0]), np.array([1.0, 0.5])
    want = np.float64(x) * np.float64(x)
    assert massflow_penalty(u, w, 0.0) == want
    node_u = leaf(u)
    penalty = massflow_penalty(node_u, w, 0.0)
    assert penalty.value == want
    # mul's cotangent g*d + g*d is square's g * (2 d), bit for bit
    assert np.array_equal(param_gradient(penalty, node_u), np.array([2.0 * x, x]))

    # a zero network makes every slice's defect -target
    colloc = tiny_colloc(seed=6)
    sl = colloc.slices[0]
    slices = (PenaltySlice(station=sl.station, X=sl.X, weights=sl.weights, target=x),)
    colloc = CollocationSet(interior=colloc.interior, boundary=colloc.boundary, slices=slices)
    params = init_params(NetworkSpec(), seed=0)
    params = params.with_flat(np.zeros_like(params.flat))
    report = total_loss(colloc, params)
    assert report.families["massflow"] == want
    assert_reports_equal(report, tape_report(colloc, params))


def test_total_loss_keeps_no_reverse_caches():
    """The value-only loss peaks below a quarter of the tape path's memory."""
    colloc = generate_collocation(ChannelDims(), SampleBounds(), CollocationCounts(), seed=3)
    params = init_params(NetworkSpec(), norm=InputNorm.from_bounds(SampleBounds().pairs()), seed=3)
    peaks = {}
    for name, fn in (("value", total_loss), ("tape", tape_report)):
        tracemalloc.start()
        try:
            fn(colloc, params)
            peaks[name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks["value"] < peaks["tape"] / 4, peaks


def reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_loss_report_json_writes_non_finite_values_as_null():
    report = LossReport(total=float("nan"), families={"pde": float("inf"), "wall": 1.0}, step=2)
    text = report.to_json()
    assert json.loads(text, parse_constant=reject_constant) == {
        "pde": None, "step": 2, "total": None, "wall": 1.0}

