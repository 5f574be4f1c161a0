import tracemalloc

import numpy as np
import pytest

from mixopt.diffnet import (
    InputNorm,
    NetworkSpec,
    forward,
    forward_vjp,
    init_params,
    param_gradient,
)
from mixopt.diffnet.tape import leaf
from mixopt import physics
from mixopt.errors import DomainError
from mixopt.geometry import CHANNEL, ChannelDims
from mixopt.physics import (
    FIELD_INDEX,
    RESIDUAL_NAMES,
    LossWeights,
    boundary_residuals,
    inlet_speed,
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
from tape_oracle import tape_report


def field_arrays(n, **fields):
    """A network's (out, jac) at n rows: values by name (``u``, ``txx``) and
    x/y derivatives by name and axis (``u_y``, ``txx_x``); the rest zero."""
    out = np.zeros((n, len(FIELD_INDEX)))
    jac = np.zeros((n, len(FIELD_INDEX), 2))
    for name, value in fields.items():
        field, _, axis = name.partition("_")
        if axis:
            jac[:, FIELD_INDEX[field], "xy".index(axis)] = value
        else:
            out[:, FIELD_INDEX[field]] = value
    return out, jac


def poiseuille_fields(y, re):
    """Fully developed channel closure: parabolic u, linear p, matching stresses."""
    y = np.asarray(y, dtype=float)
    x = np.linspace(0.5, 6.5, y.size)
    p = 12.0 / re * (7.0 - x)
    return field_arrays(
        y.size, u=6.0 * y * (1.0 - y), p=p, txx=-p, tyy=-p, txy=(6.0 - 12.0 * y) / re, c=0.5,
        u_y=6.0 - 12.0 * y, p_x=-12.0 / re, txx_x=12.0 / re, tyy_x=12.0 / re, txy_y=-12.0 / re)


def diffusion_fields(y, slope=0.8, offset=0.1, pressure=0.7):
    """Quiescent fluid with a linear concentration ramp and its constant flux."""
    y = np.asarray(y, dtype=float)
    return field_arrays(y.size, p=pressure, txx=-pressure, tyy=-pressure,
                        c=offset + slope * y, jy=-slope, c_y=slope)


def test_zero_fields_zero_residuals():
    res = pde_residuals(*field_arrays(6), re=10.0, sc=5.0)
    assert set(res) == set(RESIDUAL_NAMES)
    for r in res.values():
        assert np.all(r == 0.0)


def test_poiseuille_closure_zeroes_all_residuals():
    y = np.linspace(0.0, 1.0, 17)
    for re in (1.0, 10.0, 37.5):
        res = pde_residuals(*poiseuille_fields(y, re), re=re, sc=12.0)
        for name, r in res.items():
            assert np.max(np.abs(r)) <= 1e-12, name


def test_pure_diffusion_closure_zeroes_all_residuals():
    y = np.linspace(0.0, 1.0, 9)
    res = pde_residuals(*diffusion_fields(y), re=25.0, sc=3.0)
    for name, r in res.items():
        assert np.max(np.abs(r)) <= 1e-12, name


def test_residuals_deterministic():
    y = np.linspace(0.0, 1.0, 5)
    out, jac = poiseuille_fields(y, 8.0)
    a = pde_residuals(out, jac, 8.0, 2.0)
    b = pde_residuals(out, jac, 8.0, 2.0)
    for name in RESIDUAL_NAMES:
        assert np.array_equal(a[name], b[name])


def test_residuals_validate_inputs():
    out, jac = field_arrays(3)
    with pytest.raises(DomainError):
        pde_residuals(out, jac, re=-1.0, sc=2.0)
    with pytest.raises(DomainError):
        pde_residuals(out, jac, re=1.0, sc=np.array([1.0, np.inf, 1.0]))
    # a non-finite field is not an input error: it reaches the residuals, so
    # the training loss comes out NaN and the run aborts instead of raising
    out[1, FIELD_INDEX["u"]] = np.nan
    res = pde_residuals(out, jac, re=1.0, sc=1.0)
    assert np.isnan(res["momentum_x"][1]) and np.isnan(res["transport"][1])
    assert np.all(res["continuity"] == 0.0)
    assert not np.isnan(res["momentum_x"][[0, 2]]).any()


def inlet_rows(seed=4, per_boundary=40):
    colloc = generate_collocation(ChannelDims(), SampleBounds(),
                                  CollocationCounts(interior=10, per_boundary=per_boundary),
                                  seed=seed)
    return colloc.boundary["inlet_top"], colloc.boundary["inlet_bottom"]


def test_inlet_rows_on_mouths_with_profile_targets():
    """Inlet rows sit on the arm mouths, and from the rows alone the exact
    inflow (a parabola of mean 0.5 per unit-wide mouth, into the channel,
    with c 1 at the top and 0 at the bottom) zeroes every inlet residual."""
    width = CHANNEL.W / CHANNEL.H
    assert width == 1.0  # so the profile below is 3 xi (1 - xi), xi = x
    top, bot = inlet_rows()
    assert np.allclose(top.X[:, 1], 1.0, atol=1e-12)
    assert np.allclose(bot.X[:, 1], 0.0, atol=1e-12)
    assert np.allclose(top.normals, [0.0, 1.0])
    for group, sign, c_in in ((top, -1.0, 1.0), (bot, 1.0, 0.0)):
        xi = group.X[:, 0]
        assert np.all((xi >= 0.0) & (xi <= width))
        out, _ = field_arrays(len(xi), v=sign * 3.0 * xi * (1.0 - xi), c=c_in)
        res = boundary_residuals(out, group.kind, group.X, group.normals)
        assert len(res) == 3
        for r in res:
            assert np.max(np.abs(r)) <= 1e-15
        # each residual reads its own column
        for k, name in enumerate(("u", "v", "c")):
            moved = out.copy()
            moved[:, FIELD_INDEX[name]] += 0.25
            shifted = boundary_residuals(moved, group.kind, group.X, group.normals)
            assert np.allclose(shifted[k], 0.25, atol=1e-15)


def test_inlet_profile_mean_is_half_per_arm():
    width = CHANNEL.W / CHANNEL.H
    x = np.linspace(0.0, width, 20001)
    prof = inlet_speed(x)
    flux = np.sum(0.5 * (prof[1:] + prof[:-1]) * np.diff(x))
    assert abs(flux - 0.5) < 1e-8
    assert prof[0] == 0.0 and prof[-1] == 0.0
    # outside the mouth the profile stays clipped to zero
    assert np.all(inlet_speed(np.array([-0.5, width + 0.5])) == 0.0)


def test_inlet_residuals_vanish_on_exact_profile():
    n = 8
    x = np.linspace(0.0, CHANNEL.W / CHANNEL.H, n)
    X = np.zeros((n, 7))
    X[:, 0] = x
    out, _ = field_arrays(n, v=-inlet_speed(x), c=1.0)
    res = boundary_residuals(out, "inlet_top", X, np.tile([0.0, 1.0], (n, 1)))
    assert len(res) == 3
    for r in res:
        assert np.all(r == 0.0)


def test_wall_residuals_no_slip_and_no_flux():
    n = 5
    normals = np.tile([0.6, 0.8], (n, 1))
    scale = np.linspace(-2.0, 2.0, n)
    X = np.zeros((n, 7))
    out, _ = field_arrays(n, jx=-0.8 * scale, jy=0.6 * scale)  # flux parallel to the wall
    res = boundary_residuals(out, "baffle", X, normals)
    assert np.max(np.abs(res[2])) < 1e-15
    out, _ = field_arrays(n, jx=normals[:, 0] * 0.5, jy=normals[:, 1] * 0.5)
    res = boundary_residuals(out, "wall", X, normals)
    assert np.allclose(res[2], 0.5)


def test_outlet_residuals_pin_pressure_and_streamwise_flux():
    p = np.array([0.0, 0.1, -0.2, 0.0])
    jx = np.array([0.0, 0.0, 0.3, 0.0])
    out, _ = field_arrays(4, p=p, jx=jx)
    res = boundary_residuals(out, "outlet", np.zeros((4, 7)), np.tile([1.0, 0.0], (4, 1)))
    assert np.array_equal(res[0], p)
    assert np.array_equal(res[1], jx)


def test_unknown_boundary_kind_rejected():
    out, _ = field_arrays(2)
    with pytest.raises(DomainError):
        boundary_residuals(out, "lid", np.zeros((2, 7)), np.zeros((2, 2)))


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
    # a zero field misses the inflow 3 xi (1 - xi) on both mouths (W = H, so
    # xi = x) and the concentration 1 on the top one
    for kind, c_in in (("inlet_top", 1.0), ("inlet_bottom", 0.0)):
        g = colloc.boundary[kind]
        xi = g.X[:, 0]
        v_in = 3.0 * xi * (1.0 - xi)
        want = (np.sum(v_in ** 2) + len(g.X) * c_in ** 2) / (3 * len(g.X))
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
        slices=(PenaltySlice(station=6.0, X=slice_X, weights=w),),
    )
    node, report = loss_node(colloc, leaf(params.flat), params, LossWeights())

    out = forward(params, interior)
    _, jac, _ = forward_vjp(params, interior, need_jac=True)
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
    res = pde_residuals(forward(params, I), forward_vjp(params, I, need_jac=True)[1], I[:, 5], I[:, 6])
    want["pde"] = sum(np.sum(res[name] ** 2) for name in RESIDUAL_NAMES) / (9 * len(I))
    for kind, group in colloc.boundary.items():
        res = boundary_residuals(forward(params, group.X), kind, group.X, group.normals)
        want[kind] = sum(np.sum(r ** 2) for r in res) / (len(res) * len(group.X))
    want["massflow"] = np.mean([
        (np.sum(forward(params, sl.X)[:, 0] * sl.weights) - 1.0) ** 2
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


def test_massflow_penalty_squares_by_multiplication_on_arrays_and_nodes(monkeypatch):
    x = POW_ULP_DEFECT
    u, w = np.array([x, 0.0]), np.array([1.0, 0.5])
    want = np.float64(x) * np.float64(x)
    assert massflow_penalty(u, w, 0.0) == want
    node_u = leaf(u)
    penalty = massflow_penalty(node_u, w, 0.0)
    assert penalty.value == want
    # mul's cotangent g*d + g*d is square's g * (2 d), bit for bit
    assert np.array_equal(param_gradient(penalty, node_u), np.array([2.0 * x, x]))

    # a zero network makes every slice's defect -FLUX_TARGET
    monkeypatch.setattr(physics, "FLUX_TARGET", x)
    colloc = tiny_colloc(seed=6)
    colloc = CollocationSet(interior=colloc.interior, boundary=colloc.boundary,
                            slices=colloc.slices[:1])
    params = init_params(NetworkSpec(), seed=0)
    params = params.with_flat(np.zeros_like(params.flat))
    report = total_loss(colloc, params)
    assert report.families["massflow"] == want
    assert_reports_equal(report, tape_report(colloc, params))


def test_total_loss_keeps_no_reverse_caches():
    """The value-only loss peaks below a quarter of the tape oracle's memory."""
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
