import copy
import json
import os
import pickle
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixopt import cli, metrics
from mixopt.diffnet import InputNorm, NetworkSpec, forward, forward_vjp, init_params, load_params, network
from mixopt.errors import DomainError
from mixopt.geometry import CHANNEL, build_spline
from mixopt.metrics import (
    BaselineTable,
    DesignCandidate,
    MixingReport,
    baseline_table,
    compute_mixing_report,
    inlet_pressure,
    mixing_efficiency,
    mixing_index,
    outlet_concentration,
    pressure_cost,
)


# the default training bounds of (x, y, cp1, cp2, cp3, re, sc)
TRAINED = [(0.0, 7.0), (0.0, 1.0), (-0.5, 0.5), (-0.5, 0.5), (-0.5, 0.5), (5.0, 40.0), (1.0, 100.0)]


def make_params(seed=0, hidden=(8, 8)):
    spec = NetworkSpec(hidden=hidden)
    return init_params(spec, seed=seed)


def output_layer(flat, spec):
    """The output layer's (W, b) as writable views into a flat copy."""
    (rows, cols), _ = spec.layer_shapes[-1]
    return flat[-rows * (cols + 1):-rows].reshape(rows, cols), flat[-rows:]


def ones(x):
    """Unit weights, one per sample of x."""
    return np.ones(np.shape(x))


def test_mixing_index_perfectly_mixed():
    assert mixing_index(np.full(33, 0.5), np.ones(33)) == 1.0
    assert mixing_index(np.full(101, 0.5), metrics.OUTLET_WEIGHTS) == 1.0


def test_mixing_index_segregated():
    c = np.concatenate([np.zeros(50), np.ones(50)])
    assert mixing_index(c, ones(c)) == 0.0
    assert mixing_index(c, np.random.default_rng(2).uniform(0.1, 1.0, 100)) == 0.0


def test_mixing_index_quarter_three_quarter():
    assert mixing_index([0.25, 0.75], [1.0, 1.0]) == pytest.approx(0.5, abs=1e-15)
    assert mixing_index([0.25, 0.75], [0.2, 0.7]) == pytest.approx(0.5, abs=1e-15)


def test_mixing_index_permutation_invariant():
    # permuting the samples together with their weights leaves the index alone
    rng = np.random.default_rng(3)
    c = rng.uniform(0, 1, 64)
    w = rng.uniform(0.1, 1.0, 64)
    assert mixing_index(c, w) == pytest.approx(mixing_index(c[::-1], w[::-1]), abs=1e-15)
    order = rng.permutation(64)
    assert mixing_index(c, w) == pytest.approx(mixing_index(c[order], w[order]), abs=1e-15)


def test_mixing_index_drops_when_sample_moves_off_center():
    c = np.full(16, 0.5)
    base = mixing_index(c, ones(c))
    c[4] = 0.8
    worse = mixing_index(c, ones(c))
    c[4] = 0.95
    worst = mixing_index(c, ones(c))
    assert base > worse > worst


def test_mixing_index_rejects_empty_and_nonfinite():
    with pytest.raises(DomainError, match="at least one sample"):
        mixing_index([], [])
    with pytest.raises(DomainError, match="finite"):
        mixing_index([0.5, np.nan], [1.0, 1.0])
    with pytest.raises(DomainError, match="one weight per sample"):
        mixing_index([0.5, 0.5], [1.0])


def test_pressure_cost_means():
    # the weighted mean sum(w p) / sum(w)
    assert pressure_cost(np.full(7, 2.0), np.ones(7)) == 2.0
    assert pressure_cost([1.0, 3.0], [1.0, 1.0]) == 2.0
    assert pressure_cost([1.0, 3.0], [3.0, 1.0]) == 1.5
    assert pressure_cost([-1.5, 1.5], [0.25, 0.25]) == 0.0
    assert pressure_cost(np.full(16, 0.75), metrics.INLET_WEIGHTS) == pytest.approx(0.75, rel=1e-15)
    with pytest.raises(DomainError, match="at least one sample"):
        pressure_cost([], [])
    with pytest.raises(DomainError, match="one weight per sample"):
        pressure_cost(np.ones(16), metrics.OUTLET_WEIGHTS)


def test_reductions_keep_numpy_mean_bits():
    # the scores' reductions are numpy's pairwise sums, so unit weights give
    # np.mean's sum and divide
    rng = np.random.default_rng(3)
    for shape in [(101,), (202,), (7, 13), (1,)]:
        c = rng.uniform(-0.2, 1.2, shape)
        assert mixing_index(c, ones(c)) == float(1.0 - np.sqrt(np.mean(((c - 0.5) / 0.5) ** 2)))
        p = rng.normal(0.05, 0.2, shape)
        assert pressure_cost(p, ones(p)) == float(np.mean(p))


def test_mixing_efficiency_identities():
    assert mixing_efficiency(0.7, 3.0, 0.7, 3.0) == pytest.approx(1.0, abs=1e-15)
    assert mixing_efficiency(0.8, 8.0, 0.4, 1.0) == pytest.approx(1.0, abs=1e-12)
    assert mixing_efficiency(0.6, 2.0, 0.5, 2.0) == pytest.approx(1.2, abs=1e-12)


def test_mixing_efficiency_guards():
    with pytest.raises(DomainError):
        mixing_efficiency(0.5, 0.0, 0.5, 1.0)
    with pytest.raises(DomainError):
        mixing_efficiency(0.5, 1.0, 0.5, -2.0)
    with pytest.raises(DomainError):
        mixing_efficiency(0.5, 1.0, 0.0, 1.0)
    # non-finite costs and baselines: before, cp0 = inf divided by zero and
    # mi0 = inf gave 0.0
    for cp, mi0, cp0 in [(0.5, 0.7, np.inf), (np.inf, 0.7, 0.5), (0.5, np.inf, 0.5),
                         (np.nan, 0.7, 0.5), (0.5, np.nan, 0.5), (0.5, 0.7, np.nan)]:
        with pytest.raises(DomainError):
            mixing_efficiency(0.8, cp, mi0, cp0)


@settings(max_examples=60, deadline=None)
@given(
    k=st.floats(min_value=1e-3, max_value=1e3),
    m=st.floats(min_value=1e-3, max_value=1e3),
    mi=st.floats(min_value=0.01, max_value=1.0),
    cp=st.floats(min_value=0.01, max_value=100.0),
)
def test_mixing_efficiency_scale_law(k, m, mi, cp):
    mi0, cp0 = 0.4, 3.0
    lhs = mixing_efficiency(k * mi, m * cp, mi0, cp0)
    rhs = k / m ** (1.0 / 3.0) * mixing_efficiency(mi, cp, mi0, cp0)
    assert lhs == pytest.approx(rhs, rel=1e-10)


# a bad field per row, with the message every way of making a design gives
BAD_DESIGNS = [
    ((0.0, 0.7, 0.0, 10.0), "cp2=0.7 outside [-0.5, 0.5]"),
    ((-0.6, 0.0, 0.0, 10.0), "cp1=-0.6 outside [-0.5, 0.5]"),
    ((0.0, 0.0, np.nan, 10.0), "cp3=nan outside [-0.5, 0.5]"),
    ((np.inf, 0.0, 0.0, 10.0), "cp1=inf outside [-0.5, 0.5]"),
    ((0.0, 0.0, 0.0, 4.0), "re=4.0 outside [5.0, 40.0]"),
    ((0.0, 0.0, 0.0, np.nan), "re=nan outside [5.0, 40.0]"),
    ((0.0, 0.0, 0.0, -np.inf), "re=-inf outside [5.0, 40.0]"),
    ((0.0, 0.9, 0.0, 50.0), "cp2=0.9 outside [-0.5, 0.5]"),  # the first bad field is named
]


def test_design_candidate_bounds():
    d = DesignCandidate(-0.5, 0.0, 0.5, 5.0)
    assert DesignCandidate(cp1=-0.5, cp2=0.0, cp3=0.5, re=5.0) == d
    assert DesignCandidate._make([-0.5, 0.0, 0.5, 5.0]) == d
    assert d._replace(re=40.0) == DesignCandidate(-0.5, 0.0, 0.5, 40.0)
    for fields, message in BAD_DESIGNS:
        names = dict(zip(("cp1", "cp2", "cp3", "re"), fields))
        for make in (lambda: DesignCandidate(*fields), lambda: DesignCandidate(**names),
                     lambda: DesignCandidate._make(fields), lambda: d._replace(**names)):
            with pytest.raises(DomainError) as err:
                make()
            assert str(err.value) == message
    # unpickling and copying construct through the same checks
    assert pickle.loads(pickle.dumps(d)) == d and copy.copy(d) == d
    smuggled = pickle.dumps(tuple.__new__(DesignCandidate, (0.0, 0.0, 0.0, 4.0)))
    with pytest.raises(DomainError, match=r"^re=4.0 outside \[5.0, 40.0\]$"):
        pickle.loads(smuggled)
    for name in ("cp1", "cp2", "cp3", "re", "other"):
        with pytest.raises(AttributeError):
            setattr(d, name, 0.0)
    design = DesignCandidate(0.1, -0.2, 0.3, 25.0)
    assert repr(design) == "DesignCandidate(cp1=0.1, cp2=-0.2, cp3=0.3, re=25.0)"
    assert (design.cp1, design.cp2, design.cp3, design.re) == (0.1, -0.2, 0.3, 25.0)
    twin = DesignCandidate(*[0.1, -0.2, 0.3, 25.0])
    assert twin == design and twin is not design and hash(twin) == hash(design)
    assert design != DesignCandidate(0.1, -0.2, 0.3, 25.5)
    assert len({design, twin, d}) == 2
    assert np.array(design).tobytes() == np.array([0.1, -0.2, 0.3, 25.0]).tobytes()


def test_design_candidate_array_and_polygon():
    d = DesignCandidate(0.1, -0.2, 0.3, 25.0)
    assert np.array_equal(np.array(d), [0.1, -0.2, 0.3, 25.0])
    # the control polygon is the first three entries, as build_spline takes them
    assert np.array_equal(build_spline(np.array(d)[:3]), build_spline((d.cp1, d.cp2, d.cp3)))


def test_outlet_concentration_clamped_unit_interval():
    params = make_params(seed=5)
    d = DesignCandidate(0.2, -0.1, 0.4, 20.0)
    c = outlet_concentration(params, d, sc=30.0)
    assert c.shape == (101,)
    assert np.all(c >= 0.0) and np.all(c <= 1.0)


def test_inlet_pressure_covers_both_mouths():
    params = make_params(seed=6)
    d = DesignCandidate(0.0, 0.0, 0.0, 10.0)
    p = inlet_pressure(params, d, sc=10.0)
    assert p.shape == (16,)
    assert np.all(np.isfinite(p))


def linear_table():
    re = np.array([5.0, 20.0, 40.0])
    sc = np.array([1.0, 50.0, 100.0])
    R, S = np.meshgrid(re, sc, indexing="ij")
    return BaselineTable(re_values=re, sc_values=sc,
                         mi0=0.3 + 0.01 * R + 0.002 * S,
                         cp0=2.0 + 0.05 * R - 0.003 * S)


def test_baseline_lookup_exact_at_nodes():
    table = linear_table()
    for i, re in enumerate(table.re_values):
        for j, sc in enumerate(table.sc_values):
            mi0, cp0 = table.lookup(re, sc)
            assert mi0 == pytest.approx(table.mi0[i, j], abs=1e-14)
            assert cp0 == pytest.approx(table.cp0[i, j], abs=1e-14)


def test_baseline_lookup_reproduces_bilinear_function():
    # mi0/cp0 are affine in (re, sc), so interpolation must be exact inside the hull
    table = linear_table()
    for re, sc in [(7.3, 22.0), (19.99, 99.0), (33.0, 1.5)]:
        mi0, cp0 = table.lookup(re, sc)
        assert mi0 == pytest.approx(0.3 + 0.01 * re + 0.002 * sc, rel=1e-12)
        assert cp0 == pytest.approx(2.0 + 0.05 * re - 0.003 * sc, rel=1e-12)


def test_baseline_lookup_clamps_outside_hull():
    table = linear_table()
    assert table.lookup(1.0, 50.0) == table.lookup(5.0, 50.0)
    assert table.lookup(20.0, 500.0) == table.lookup(20.0, 100.0)


def array_lookup(table, re, sc):
    """The bilinear lookup in float64 arithmetic on the table's arrays."""
    re = min(max(float(re), float(table.re_values[0])), float(table.re_values[-1]))
    sc = min(max(float(sc), float(table.sc_values[0])), float(table.sc_values[-1]))
    i = min(max(int(np.searchsorted(table.re_values, re)) - 1, 0), len(table.re_values) - 2)
    j = min(max(int(np.searchsorted(table.sc_values, sc)) - 1, 0), len(table.sc_values) - 2)
    r0, r1 = table.re_values[i], table.re_values[i + 1]
    s0, s1 = table.sc_values[j], table.sc_values[j + 1]
    tr = 0.0 if r1 == r0 else (re - r0) / (r1 - r0)
    ts = 0.0 if s1 == s0 else (sc - s0) / (s1 - s0)

    def blend(grid):
        return ((1 - tr) * (1 - ts) * grid[i, j] + tr * (1 - ts) * grid[i + 1, j]
                + (1 - tr) * ts * grid[i, j + 1] + tr * ts * grid[i + 1, j + 1])

    return float(blend(table.mi0)), float(blend(table.cp0))


def test_baseline_lookup_has_the_array_arithmetics_bits():
    rng = np.random.default_rng(5)
    re_axis = np.linspace(5.0, 40.0, metrics.BASELINE_GRID)
    sc_axis = np.linspace(1.0, 100.0, metrics.BASELINE_GRID)
    table = BaselineTable(re_values=re_axis, sc_values=sc_axis,
                          mi0=rng.uniform(0.7, 1.0, (metrics.BASELINE_GRID,) * 2),
                          cp0=rng.uniform(0.003, 0.07, (metrics.BASELINE_GRID,) * 2))
    queries = np.column_stack([rng.uniform(0.0, 45.0, 20000), rng.uniform(-5.0, 110.0, 20000)])
    nodes = [(re, sc) for re in re_axis for sc in sc_axis]
    for re, sc in [*queries.tolist(), *nodes]:
        assert table.lookup(re, sc) == array_lookup(table, re, sc)


def test_baseline_table_arrays_are_read_only_copies():
    re = np.array([5.0, 40.0])
    table = BaselineTable(re_values=re, sc_values=np.array([1.0, 100.0]),
                          mi0=np.full((2, 2), 0.4), cp0=np.full((2, 2), 2.0))
    for arr in (table.re_values, table.sc_values, table.mi0, table.cp0):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1.0
    re[0] = 6.0  # the caller's array stays its own
    assert table.re_values[0] == 5.0 and table.lookup(5.0, 1.0) == (0.4, 2.0)


def test_baseline_table_finite_positive():
    params = init_params(NetworkSpec(hidden=(8, 8)), norm=InputNorm.from_bounds(TRAINED), seed=7)
    table = baseline_table(params)
    assert np.all(np.isfinite(table.mi0))
    assert np.all(np.isfinite(table.cp0))
    assert np.all(table.mi0 <= 1.0)
    assert_table_matches_reference(params, table)


def test_baseline_axes_span_the_trained_re_and_sc_ranges():
    default = baseline_table(field_net())
    assert np.array_equal(default.re_values, np.linspace(5.0, 40.0, metrics.BASELINE_GRID))
    assert np.array_equal(default.sc_values, np.linspace(1.0, 100.0, metrics.BASELINE_GRID))
    narrowed = [*TRAINED[:5], (10.0, 20.0), (2.0, 50.0)]
    params = init_params(NetworkSpec(hidden=(8, 8)), norm=InputNorm.from_bounds(narrowed), seed=8)
    table = baseline_table(params)
    assert (table.re_values[0], table.re_values[-1]) == (10.0, 20.0)
    assert (table.sc_values[0], table.sc_values[-1]) == (2.0, 50.0)
    assert_table_matches_reference(params, table)


def test_baseline_table_spans_a_re_range_wider_than_the_design_box():
    # a checkpoint trained on Re in [1, 60] has its flat wall scored at Re 1
    # and 60, outside the [5, 40] box a DesignCandidate accepts
    params = field_net(bounds=[*TRAINED[:5], (1.0, 60.0), TRAINED[6]])
    table = baseline_table(params)
    assert (table.re_values[0], table.re_values[-1]) == (1.0, 60.0)
    assert np.all(np.isfinite(table.mi0)) and np.all(table.cp0 > 0.0)
    assert_table_matches_reference(params, table)
    with pytest.raises(DomainError, match="re=1.0 outside"):
        DesignCandidate(0.0, 0.0, 0.0, 1.0)


SURROGATE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench", "data", "field_surrogate.ckpt")


def test_pinned_surrogate_baseline_keeps_the_flat_design_candidates_bits():
    # the benchmark's set-up compares these tables bit for bit, and its GA
    # check rescores designs against them exactly
    params, _ = load_params(SURROGATE)
    table = baseline_table(params)
    assert (table.re_values[0], table.re_values[-1]) == (5.0, 40.0)
    for i, re in enumerate(table.re_values.tolist()):
        for j, sc in enumerate(table.sc_values.tolist()):
            flat = DesignCandidate(0.0, 0.0, 0.0, re)
            assert table.mi0[i, j] == mixing_index(outlet_concentration(params, flat, sc),
                                                   metrics.OUTLET_WEIGHTS)
            assert table.cp0[i, j] == pressure_cost(inlet_pressure(params, flat, sc),
                                                    metrics.INLET_WEIGHTS)
            report = compute_mixing_report(params, flat, sc)
            assert (report.mi0, report.cp0) == (table.mi0[i, j], table.cp0[i, j])


def test_baseline_table_needs_a_seven_input_network(monkeypatch):
    calls = counting_forward(monkeypatch)
    with pytest.raises(DomainError, match="7 inputs"):
        baseline_table(init_params(NetworkSpec(input_dim=1, hidden=(4,)), seed=0))
    assert calls == []


def well_posed_params(seed=11, hidden=(8, 8)):
    # small random net nudged so p stays positive and c lands strictly
    # inside (0, 1): shrink the output weights and set the output biases
    params = make_params(seed=seed, hidden=hidden)
    flat = params.flat.copy()
    W, b = output_layer(flat, params.spec)
    W *= 0.05
    b[2] = 2.0   # p
    b[6] = 0.55  # c
    return params.with_flat(flat)


def test_report_is_unity_against_own_baseline():
    # flat candidate scored against a freshly evaluated flat baseline at the
    # same (re, sc) and checkpoint must give exactly 1
    params = well_posed_params()
    report = compute_mixing_report(params, DesignCandidate(0.0, 0.0, 0.0, 17.0), sc=42.0)
    assert report.me == pytest.approx(1.0, abs=1e-14)
    assert report.mi == report.mi0
    assert report.cp == report.cp0


def test_report_json_fields():
    params = well_posed_params(seed=12)
    report = compute_mixing_report(params, DesignCandidate(0.1, 0.2, -0.3, 12.0), sc=5.0)
    payload = json.loads(cli._dumps(cli._report_payload(report)))
    assert payload["design"]["cp3"] == -0.3
    assert payload["n"] == 101
    assert set(payload) == {"mi", "cp", "mi0", "cp0", "me", "n", "sc", "design", "note"}


def test_report_json_writes_non_finite_values_as_null():
    report = MixingReport(mi=float("nan"), cp=-float("inf"), mi0=0.5, cp0=1.0, me=float("nan"),
                          sc=2.0, design=DesignCandidate(0.1, 0.2, -0.3, 12.0))

    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    payload = json.loads(cli._dumps(cli._report_payload(report)), parse_constant=reject)
    assert payload["mi"] is None and payload["cp"] is None and payload["me"] is None
    assert payload["mi0"] == 0.5 and payload["design"]["re"] == 12.0


# Reference scoring built the way the rows were first assembled: fresh
# column_stack rows per design, evaluated through the tape path's forward.
# The outlet takes 101 equispaced rows and the trapezoid rule's weights,
# built here; each inlet mouth takes the Gauss-Legendre rule, whose nodes and
# weights tests/test_quadrature.py checks, and weighs one half. How close
# the rules come to the integrals is checked there, against the dense
# scorer of tests/score_oracle.py.
OUTLET_N = 101
TRAPEZOID = np.full(OUTLET_N, 1.0 / (OUTLET_N - 1))
TRAPEZOID[[0, -1]] /= 2.0
GAUSS_X = metrics.INLET_ROWS[:8, 0].copy()
GAUSS_W = metrics.INLET_WEIGHTS[:8].copy()


def reference_outlet(params, design, sc):
    n = OUTLET_N
    X = np.column_stack([
        np.full(n, CHANNEL.L / CHANNEL.H), np.linspace(0.0, 1.0, n),
        np.tile([design.cp1, design.cp2, design.cp3], (n, 1)),
        np.full(n, design.re), np.full(n, sc),
    ])
    return np.clip(forward_vjp(params, X)[0][:, 6], 0.0, 1.0)


def reference_inlet(params, design, sc):
    x = GAUSS_X
    n = len(x)
    X = np.vstack([np.column_stack([
        x, np.full(n, y), np.tile([design.cp1, design.cp2, design.cp3], (n, 1)),
        np.full(n, design.re), np.full(n, sc),
    ]) for y in (1.0, 0.0)])
    return forward_vjp(params, X)[0][:, 2]


def reference_scores(params, design, sc):
    return (mixing_index(reference_outlet(params, design, sc), TRAPEZOID),
            pressure_cost(reference_inlet(params, design, sc), np.concatenate([GAUSS_W, GAUSS_W])))


def assert_table_matches_reference(params, table):
    """Every cell of a baseline table equals the reference rows' flat-wall scores."""
    assert table.mi0.shape == table.cp0.shape == (metrics.BASELINE_GRID,) * 2
    for i, re in enumerate(table.re_values):
        for j, sc in enumerate(table.sc_values):
            flat = SimpleNamespace(cp1=0.0, cp2=0.0, cp3=0.0, re=re)
            mi0, cp0 = reference_scores(params, flat, sc)
            assert np.array_equal(table.mi0[i, j], mi0)
            assert np.array_equal(table.cp0[i, j], cp0)


def field_net(seed=3, bounds=TRAINED):
    # default 64x4 field architecture with the training input normalization,
    # output layer nudged so p stays positive and c inside (0, 1)
    params = init_params(NetworkSpec(), norm=InputNorm.from_bounds(bounds), seed=seed)
    flat = params.flat.copy()
    W, b = output_layer(flat, params.spec)
    W *= 0.05
    b[2] = 2.0
    b[6] = 0.55
    return params.with_flat(flat)


def test_scoring_is_bit_identical_to_reference_rows():
    params = field_net()
    rng = np.random.default_rng(17)
    for _ in range(200):
        cps = rng.uniform(-0.5, 0.5, 3)
        design = DesignCandidate(cps[0], cps[1], cps[2], rng.uniform(5.0, 40.0))
        sc = rng.uniform(1.0, 100.0)
        mi, cp = reference_scores(params, design, sc)
        mi0, cp0 = reference_scores(params, DesignCandidate(0.0, 0.0, 0.0, design.re), sc)
        report = compute_mixing_report(params, design, sc)
        assert np.array_equal(report.me, mixing_efficiency(mi, cp, mi0, cp0))

    assert_table_matches_reference(params, baseline_table(params))


def counting_forward(monkeypatch):
    calls = []

    def counted(params, X):
        calls.append(len(X))
        return forward(params, X)

    monkeypatch.setattr(metrics, "forward", counted)
    return calls


def test_rejected_design_skips_the_outlet_pass(monkeypatch):
    table = BaselineTable(re_values=np.array([5.0, 40.0]), sc_values=np.array([1.0, 100.0]),
                          mi0=np.full((2, 2), 0.4), cp0=np.full((2, 2), 2.0))
    design = DesignCandidate(0.1, 0.0, -0.1, 20.0)
    good = field_net()
    flat = good.flat.copy()
    output_layer(flat, good.spec)[1][2] = -2.0  # inlet pressure negative: cp <= 0
    bad = good.with_flat(flat)
    calls = counting_forward(monkeypatch)
    report = compute_mixing_report(good, design, 30.0, baseline=table)
    assert np.isfinite(report.me) and report.cp > 0
    assert calls == [16, 101]  # inlet, then outlet
    calls.clear()
    with pytest.raises(DomainError, match="pressure costs"):
        compute_mixing_report(bad, design, 30.0, baseline=table)
    assert calls == [16]
    calls.clear()
    bad_baseline = BaselineTable(table.re_values, table.sc_values, table.mi0, -table.cp0)
    with pytest.raises(DomainError, match="pressure costs"):
        compute_mixing_report(good, design, 30.0, baseline=bad_baseline)
    assert calls == [16]


@pytest.mark.parametrize("sc", [np.nan, -5.0, 0.0, np.inf, -np.inf])
def test_report_rejects_bad_schmidt_number_before_scoring(sc, monkeypatch):
    calls = counting_forward(monkeypatch)
    with pytest.raises(DomainError, match="Schmidt number"):
        compute_mixing_report(field_net(), DesignCandidate(0.1, 0.0, -0.1, 20.0), sc)
    assert calls == []


def test_second_score_leaves_first_results_and_grid_alone():
    params = field_net(seed=4)
    first = DesignCandidate(0.3, -0.2, 0.1, 12.0)
    c1 = outlet_concentration(params, first, 20.0)
    p1 = inlet_pressure(params, first, 20.0)
    kept_c, kept_p = c1.copy(), p1.copy()
    grids = [g.copy() for g in (metrics.OUTLET_ROWS, metrics.INLET_ROWS)]

    second = DesignCandidate(-0.4, 0.4, -0.1, 33.0)
    c2 = outlet_concentration(params, second, 80.0)
    p2 = inlet_pressure(params, second, 80.0)
    assert np.array_equal(c1, kept_c) and np.array_equal(p1, kept_p)
    assert not np.array_equal(c1, c2) and not np.array_equal(p1, p2)
    for kept, before in zip((metrics.OUTLET_ROWS, metrics.INLET_ROWS), grids):
        assert np.array_equal(kept, before)
        assert not kept.flags.writeable
    assert np.array_equal(c1, reference_outlet(params, first, 20.0))


def test_each_score_pass_is_one_row_block():
    # each pass's rows come with one weight each, and fit one block
    for rows, weights in ((metrics.OUTLET_ROWS, metrics.OUTLET_WEIGHTS),
                          (metrics.INLET_ROWS, metrics.INLET_WEIGHTS)):
        assert weights.shape == (len(rows),) and not weights.flags.writeable
        assert len(rows) <= network.ROW_BLOCK
