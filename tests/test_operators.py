"""Primary operators and expression trees against an independent dense route.

Every primary and tree shape is cross-checked by building the same operator
as an explicit matrix (np.diag / np.kron) and comparing matrix @ vec with
the application of the compiled offset diagonals.
"""

import cmath
import math
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtraj import (
    ATOM,
    FIELD,
    SPIN,
    FreedomSpec,
    StateVector,
    apply,
    apply_in_place,
    basis_state,
    coherent_state,
    create,
    destroy,
    expectation,
    momentum,
    number,
    position,
    product_state,
    sigma_minus,
    sigma_plus,
    sigma_z,
    to_dense,
    transition,
)
from qtraj.hilbert import StepError, used_view
from qtraj import operators
from qtraj.operators import (
    GATHER_BLOCK,
    MAX_POWER,
    CenteredForm,
    Power,
    Primary,
    Product,
    ScalarMul,
    Sum,
    TimeFnMul,
    _shape_of,
    compile_operator,
)


def rand_state(rng, dims, ptypes=None):
    total = math.prod(dims)
    amps = rng.standard_normal(total) + 1j * rng.standard_normal(total)
    if ptypes is None:
        ptypes = [FIELD] * len(dims)
    frs = [FreedomSpec(pt, d) for pt, d in zip(ptypes, dims)]
    return StateVector(frs, amps)


# --- single-kernel dense equivalence ---------------------------------------


def test_sigma_plus_matrix_convention():
    # index 0 is down, 1 is up
    assert np.array_equal(to_dense(sigma_plus(0), (2,)),
                          np.array([[0, 0], [1, 0]], dtype=complex))
    assert np.array_equal(to_dense(sigma_minus(0), (2,)),
                          np.array([[0, 1], [0, 0]], dtype=complex))
    assert np.array_equal(to_dense(sigma_z(0), (2,)),
                          np.diag([-1.0 + 0j, 1.0]))


def test_destroy_matrix_dim3():
    want = np.array([[0, 1, 0], [0, 0, math.sqrt(2)], [0, 0, 0]], dtype=complex)
    assert np.allclose(to_dense(destroy(0), (3,)), want, atol=1e-15)
    assert np.allclose(to_dense(create(0), (3,)), want.conj().T, atol=1e-15)


def test_transition_matrix():
    m = to_dense(transition(0, 2, 0), (3,))
    want = np.zeros((3, 3), dtype=complex)
    want[2, 0] = 1.0
    assert np.array_equal(m, want)
    # applying tr(2,0) to |0> gives |2>
    psi = basis_state(3, 0, ATOM)
    out = apply(transition(0, 2, 0), psi)
    assert out.amps[2] == 1.0 and out.amps[0] == 0.0


def test_transition_rejects_bad_levels():
    with pytest.raises(ValueError):
        transition(0, 1, 1)
    with pytest.raises(ValueError):
        transition(0, -1, 0)


def test_number_position_momentum_with_center():
    dim = 7
    c = 0.4 - 0.9j
    a = np.diag(np.sqrt(np.arange(1, dim)), 1)
    eye = np.eye(dim)
    a_phys = a + c * eye
    n_want = a_phys.conj().T @ a_phys
    x_want = (a_phys + a_phys.conj().T) / math.sqrt(2)
    p_want = 1j * (a_phys.conj().T - a_phys) / math.sqrt(2)
    centers = (c,)
    assert np.allclose(to_dense(number(0), (dim,), centers), n_want, atol=1e-13)
    assert np.allclose(to_dense(position(0), (dim,), centers), x_want, atol=1e-13)
    assert np.allclose(to_dense(momentum(0), (dim,), centers), p_want, atol=1e-13)


def test_kernels_match_dense_on_random_states():
    rng = np.random.default_rng(11)
    dims = (4, 3, 2)
    ptypes = (FIELD, ATOM, SPIN)
    prims = [destroy(0), create(0), number(0), position(0), momentum(0),
             transition(1, 0, 2), transition(1, 2, 1),
             sigma_plus(2), sigma_minus(2), sigma_z(2)]
    for _ in range(25):
        psi = rand_state(rng, dims, ptypes)
        for op in prims:
            mat = to_dense(op, dims)
            got = apply(op, psi).amps
            assert np.allclose(got, mat @ psi.amps, atol=1e-12), op


def test_top_level_annihilated_by_create():
    psi = basis_state(4, 3)
    out = apply(create(0), psi)
    assert np.allclose(out.amps, 0.0)


# --- expression trees -------------------------------------------------------


def test_sum_and_product_flatten_on_construction():
    a, b, c = destroy(0), create(0), number(0)
    s = (a + b) + c
    assert isinstance(s, Sum) and len(s.children) == 3
    p = (a * b) * c
    assert isinstance(p, Product) and len(p.children) == 3
    s2 = a + (b + c)
    assert len(s2.children) == 3


def test_product_applies_right_to_left():
    # sp*sm on |up> keeps |up>; sm*sp annihilates it
    up = basis_state(2, 1, SPIN)
    assert apply(sigma_plus(0) * sigma_minus(0), up).amps[1] == 1.0
    assert np.allclose(apply(sigma_minus(0) * sigma_plus(0), up).amps, 0.0)


def test_scalar_folding_nested():
    psi = basis_state(3, 1)
    expr = 2.0 * (3.0j * (0.5 * destroy(0)))
    out = apply(expr, psi)
    assert out.amps[0] == pytest.approx(3.0j)


def test_power_identities():
    dims = (5,)
    rng = np.random.default_rng(3)
    psi = rand_state(rng, dims)
    base = destroy(0) + 0.3 * create(0)
    m = to_dense(base, dims)
    for k in (1, 2, 3, 5):
        got = apply(base ** k, psi).amps
        want = np.linalg.matrix_power(m, k) @ psi.amps
        assert np.allclose(got, want, atol=1e-11)


def test_power_exponent_validation():
    a = destroy(0)
    with pytest.raises(ValueError):
        a ** 0
    with pytest.raises(ValueError):
        a ** (MAX_POWER + 1)
    with pytest.raises(TypeError):
        a ** 1.5
    with pytest.raises(TypeError):
        Power(a, True)


def test_hc_distributes_and_reverses():
    dims = (4, 2)
    z = 1.5 - 2.0j
    expr = ScalarMul(z, destroy(0) * sigma_plus(1))
    m = to_dense(expr, dims)
    mhc = to_dense(expr.hc(), dims)
    assert np.allclose(mhc, m.conj().T, atol=1e-13)
    # hc(z A B) = conj(z) hc(B) hc(A)
    manual = to_dense(ScalarMul(np.conj(z), sigma_minus(1) * create(0)), dims)
    assert np.allclose(mhc, manual, atol=1e-13)


def test_hc_is_involution():
    expr = (2.0j * destroy(0) + number(0)) * create(0)
    d1 = to_dense(expr, (4,))
    d2 = to_dense(expr.hc().hc(), (4,))
    assert np.allclose(d1, d2, atol=1e-14)


def test_time_fn_mul_evaluation_and_hc():
    psi = basis_state(3, 1)
    fn = lambda t: (2.0 + 1.0j) * t
    expr = fn * destroy(0)
    assert isinstance(expr, TimeFnMul)
    out = apply(expr, psi, t=0.5)
    assert out.amps[0] == pytest.approx((1.0 + 0.5j))
    outh = apply(expr.hc(), basis_state(3, 0), t=0.5)
    assert outh.amps[1] == pytest.approx((1.0 - 0.5j))


def test_apply_in_place_matches_apply():
    rng = np.random.default_rng(5)
    psi = rand_state(rng, (4, 3), (FIELD, FIELD))
    expr = destroy(0) * create(1) + 0.7j * number(1)
    ref = apply(expr, psi)
    psi2 = psi.copy()
    apply_in_place(expr, psi2)
    assert np.array_equal(ref.amps, psi2.amps)


def test_imul_applies_in_place():
    rng = np.random.default_rng(6)
    psi = rand_state(rng, (4, 3), (FIELD, FIELD))
    expr = destroy(0) * create(1) + 0.7j * number(1)
    ref = apply(expr, psi)
    same = psi
    psi *= expr
    assert psi is same
    assert np.array_equal(psi.amps, ref.amps)
    buf = psi.amps
    psi *= 2.0
    assert psi is same and psi.amps is buf
    assert np.array_equal(psi.amps, 2.0 * ref.amps)
    with pytest.raises(TypeError):
        psi *= "x"


def test_linearity():
    rng = np.random.default_rng(9)
    a = rand_state(rng, (4,))
    b = rand_state(rng, (4,))
    expr = destroy(0) + number(0) * destroy(0)
    lhs = apply(expr, 0.3j * a + 2.0 * b)
    rhs = 0.3j * apply(expr, a) + 2.0 * apply(expr, b)
    assert np.allclose(lhs.amps, rhs.amps, atol=1e-12)


def test_ptype_mismatch_rejected():
    psi = basis_state(4, 0, FIELD)
    with pytest.raises(TypeError):
        apply(sigma_plus(0), psi)
    with pytest.raises(ValueError):
        apply(destroy(1), psi)  # freedom out of range


def test_dense_cap():
    with pytest.raises(ValueError):
        to_dense(number(0), (5000,))


def test_dim_used_slots_stay_zero():
    psi = product_state([basis_state(6, 1), basis_state(2, 1, SPIN)])
    psi.freedoms[0].dim_used = 3
    expr = create(0) * sigma_minus(1)
    out = apply(expr, psi)
    flat = out.amps.reshape(6, 2)
    assert np.all(flat[3:, :] == 0.0)


# --- random tree sweep (the dual-route oracle) ------------------------------


def random_tree(rng, n_freedoms, depth=0):
    prims = [
        lambda f: destroy(f), lambda f: create(f), lambda f: number(f),
        lambda f: position(f), lambda f: momentum(f),
    ]
    if depth > 3 or rng.random() < 0.35:
        f = int(rng.integers(0, n_freedoms))
        return prims[int(rng.integers(0, len(prims)))](f)
    kind = rng.random()
    if kind < 0.3:
        return random_tree(rng, n_freedoms, depth + 1) + random_tree(rng, n_freedoms, depth + 1)
    if kind < 0.6:
        return random_tree(rng, n_freedoms, depth + 1) * random_tree(rng, n_freedoms, depth + 1)
    if kind < 0.75:
        z = complex(rng.standard_normal(), rng.standard_normal())
        return z * random_tree(rng, n_freedoms, depth + 1)
    if kind < 0.9:
        return random_tree(rng, n_freedoms, depth + 1).hc()
    return random_tree(rng, n_freedoms, depth + 1) ** int(rng.integers(1, 4))


def test_random_trees_match_dense():
    rng = np.random.default_rng(2024)
    dims = (4, 3)
    for _ in range(60):
        expr = random_tree(rng, len(dims))
        psi = rand_state(rng, dims)
        mat = to_dense(expr, dims)
        got = apply(expr, psi).amps
        want = mat @ psi.amps
        scale = max(1.0, np.abs(want).max())
        assert np.abs(got - want).max() <= 1e-10 * scale


def test_random_trees_adjoint_identity():
    rng = np.random.default_rng(77)
    dims = (3, 3)
    for _ in range(30):
        expr = random_tree(rng, 2)
        phi = rand_state(rng, dims)
        psi = rand_state(rng, dims)
        lhs = phi.inner(apply(expr, psi))
        rhs = np.conj(psi.inner(apply(expr.hc(), phi)))
        scale = max(1.0, abs(lhs), abs(rhs))
        assert abs(lhs - rhs) <= 1e-10 * scale


# --- compiled form on truncated, displaced bases (property test) ------------
#
# Freedoms: field (alloc 4), atom (alloc 3), spin, field (alloc 4).  Trees
# are applied with used dims below the allocation and nonzero field centers,
# the case a moving-basis trajectory runs, and compared with to_dense on the
# used dims.  The same tree is then applied in a second basis and at a second
# time, so a stale compiled form or a stale time factor would show.

_PROP_ALLOC = (4, 3, 2, 4)
_PROP_LEAVES = (
    destroy(0), create(0), number(0), position(0), momentum(0),
    transition(1, 0, 1), transition(1, 2, 0), sigma_plus(2), sigma_minus(2),
    sigma_z(2), destroy(3), create(3), number(3), position(3), momentum(3),
)
_TIME_FNS = (lambda t: math.cos(2.0 * t), lambda t: (0.5 - 1.0j) * t + 0.25j)

_scalars = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)


def _extend(children):
    return st.one_of(
        st.tuples(children, children).map(lambda p: p[0] + p[1]),
        st.tuples(children, children).map(lambda p: p[0] * p[1]),
        st.tuples(_scalars, children).map(lambda p: ScalarMul(p[0], p[1])),
        st.tuples(st.sampled_from(_TIME_FNS), children).map(lambda p: TimeFnMul(*p)),
        st.tuples(children, st.integers(1, 3)).map(lambda p: p[0] ** p[1]),
        children.map(lambda e: e.hc()),
    )


_trees = st.recursive(st.sampled_from(_PROP_LEAVES), _extend, max_leaves=6)
_centers = st.complex_numbers(min_magnitude=0.1, max_magnitude=2.0,
                              allow_nan=False, allow_infinity=False)


def _columns(rng, n, b, layout):
    """An (n, b) complex block laid out as C, Fortran or every other column."""
    if layout == "col_step":
        return _columns(rng, n, 2 * b, "c")[:, ::2]
    y = rng.standard_normal((n, b)) + 1j * rng.standard_normal((n, b))
    return np.asfortranarray(y) if layout == "f" else y


def _assert_per_column(op, ys, t, rng):
    """op gives each column of ys, at t or at a time of its own, the bits it gets alone."""
    ts = rng.choice(np.array([t, t + 0.5, -0.3]), size=ys.shape[1])
    for at in (t, ts):
        whole = op.apply(ys, at)
        for j in range(ys.shape[1]):
            one = op.apply(ys[:, j:j + 1].copy(), at if np.isscalar(at) else float(at[j]))
            assert one.tobytes() == whole[..., j:j + 1].copy().tobytes()


def _check_against_dense(expr, used, centers, t, rng, b, layout):
    frs = [FreedomSpec(FIELD, 4, used[0], centers[0]), FreedomSpec(ATOM, 3, used[1]),
           FreedomSpec(SPIN, 2), FreedomSpec(FIELD, 4, used[2], centers[1])]
    dims = tuple(f.dim_used for f in frs)
    block = rng.standard_normal(dims) + 1j * rng.standard_normal(dims)
    psi = StateVector(frs, np.zeros(math.prod(_PROP_ALLOC), dtype=complex))
    used_view(psi.as2d(), psi.freedoms)[..., 0] = block
    out = apply(expr, psi, t)
    got = used_view(out.as2d(), out.freedoms)[..., 0].reshape(-1)
    mat = to_dense(expr, dims, (centers[0], 0, 0, centers[1]), t)
    want = mat @ block.reshape(-1)
    scale = 1.0 + np.abs(mat).sum(axis=1).max() * np.abs(block).max()
    assert np.abs(got - want).max() <= 1e-12 * scale
    rest = out.as2d().copy()
    used_view(rest, frs)[...] = 0
    assert not rest.any()  # slots outside the used block stay zero
    n = len(want)
    diags = compile_operator(expr, frs).diagonals(t)
    assert all(np.abs(diags.get(o, np.zeros(n))[max(0, -o):n - max(0, o)]
                      - np.diagonal(mat, o)).max() <= 1e-12 * scale for o in range(1 - n, n))
    # the kernel is chosen by the form, never by B: a block applied one
    # column at a time gives the bits of the whole block, in any layout, at
    # one time or at per-trajectory times, and so does a stacked family
    ys = _columns(rng, n, b, layout)
    _assert_per_column(compile_operator(expr, frs), ys, t, rng)
    stacked = CenteredForm((expr, expr.hc()), _shape_of(frs)).bind([f.center for f in frs])
    _assert_per_column(stacked, ys, t, rng)


@settings(max_examples=100, deadline=None)
@given(expr=_trees, used=st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3)),
       centers=st.tuples(_centers, _centers), times=st.sampled_from(((0.0, 0.7), (1.3, -0.4))),
       b=st.integers(1, 300), layout=st.sampled_from(["c", "f", "col_step"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_compiled_matches_dense_on_truncated_displaced_basis(expr, used, centers, times, b,
                                                             layout, seed):
    rng = np.random.default_rng(seed)
    _check_against_dense(expr, used, centers, times[0], rng, b, layout)
    _check_against_dense(expr, used, centers, times[1], rng, b, layout)
    moved = (centers[0] + 0.25, centers[1] - 0.5j)
    _check_against_dense(expr, (used[0] + 1, used[1], used[2]), moved, times[0], rng, b, layout)


# --- rebinding centers (property test) ---------------------------------------
#
# A compiled form depends on the types and used dimensions only; the centers
# are bound afterwards.  Binding a form to new centers must give what the
# dense route and a fresh compile give at those centers.  That a model
# rebinds rather than compiles again when only the centers moved is
# tested with ModelOperators in test_steppers.py.

_maybe_centers = st.one_of(st.just(0j), _centers)


def _prop_freedoms(used, centers):
    return [FreedomSpec(FIELD, 4, used[0], centers[0]), FreedomSpec(ATOM, 3, used[1]),
            FreedomSpec(SPIN, 2), FreedomSpec(FIELD, 4, used[2], centers[1])]


@settings(max_examples=100, deadline=None)
@given(expr=_trees, used=st.tuples(st.integers(1, 4), st.integers(1, 3), st.integers(1, 4)),
       first=st.tuples(_maybe_centers, _maybe_centers),
       second=st.tuples(_maybe_centers, _maybe_centers),
       t=st.sampled_from((0.0, 0.7, -1.3)), seed=st.integers(0, 2 ** 32 - 1))
def test_rebound_centers_match_dense_and_fresh_compile(expr, used, first, second, t, seed):
    rng = np.random.default_rng(seed)
    frs = _prop_freedoms(used, first)
    dims = tuple(f.dim_used for f in frs)
    y = (rng.standard_normal((2, math.prod(dims)))
         + 1j * rng.standard_normal((2, math.prod(dims)))).T.copy()

    moved = _prop_freedoms(used, second)
    got = compile_operator(expr, moved).apply(y, t)
    mat = to_dense(expr, dims, (second[0], 0, 0, second[1]), t)
    want = mat @ y
    scale = 1.0 + np.abs(mat).sum(axis=1).max() * np.abs(y).max()
    assert np.abs(got - want).max() <= 1e-12 * scale
    fresh = compile_operator(expr, moved).apply(y, t)
    assert np.abs(got - fresh).max() <= 1e-12 * scale

    # one form, bound back and forth, gives the same bits each time
    form = CenteredForm(expr, tuple((f.ptype, f.dim_used) for f in frs))
    back = form.bind([f.center for f in frs]).apply(y, t)
    again = form.bind([f.center for f in moved]).apply(y, t)
    assert np.array_equal(again, got)
    assert np.array_equal(form.bind([f.center for f in frs]).apply(y, t), back)


def test_zero_centers_skip_every_center_term():
    # with every center 0 a bound form holds only the local diagonals
    expr = number(0) * position(1) + momentum(0) ** 2 + create(1) * destroy(0)
    frs = [FreedomSpec(FIELD, 5, 4), FreedomSpec(FIELD, 3)]
    form = CenteredForm(expr, tuple((f.ptype, f.dim_used) for f in frs))
    local = form.bind([0j, 0j])
    nonlocal_ = form.bind([0.3j, -0.2])
    assert (sum(len(b) for _, b in local.groups)
            < sum(len(b) for _, b in nonlocal_.groups))
    mat = to_dense(expr, (4, 3))
    y = np.arange(12.0)[:, None] * (1 + 0.5j)
    assert np.abs(local.apply(y) - mat @ y).max() <= 1e-12 * np.abs(mat).sum()


# --- the two kernels and families of trees --------------------------------------


def _family(exprs, frs):
    """The trees exprs compiled as one family and bound to the basis of frs."""
    form = CenteredForm(tuple(exprs), tuple((f.ptype, f.dim_used) for f in frs))
    return form.bind([f.center for f in frs])


def _bands(op):
    return sum(len(bands) for _, bands in op.groups)


def _many_band_op():
    """A 15-band form over 20 states, with a time group and a band short of some columns."""
    expr = (number(0) * position(1) + (lambda t: math.cos(t)) * (create(1) * destroy(0))
            + 0.3j * momentum(0) ** 2)
    return expr, [FreedomSpec(FIELD, 5, 5, 0.3 - 0.1j), FreedomSpec(FIELD, 4, 4, -0.2j)]


def test_gathered_kernel_matches_the_slice_loop_and_keeps_nan_in_its_row(monkeypatch):
    # the gathered sweep gives the slice loop's values to round-off, a
    # C-contiguous block, and a NaN in trajectory 1 reaches no other one
    expr, frs = _many_band_op()
    op = compile_operator(expr, frs)
    assert op.gathered
    rng = np.random.default_rng(3)
    y = (rng.standard_normal((3, op.size)) + 1j * rng.standard_normal((3, op.size))).T.copy()
    got = op.apply(y, 0.6)
    assert got.flags.c_contiguous and got.shape == y.shape
    monkeypatch.setattr(operators, "GATHER_MIN_BANDS", _bands(op) + 1)
    want = compile_operator(expr, frs).apply(y, 0.6)
    monkeypatch.undo()
    assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()
    y[5, 1] = np.nan
    with np.errstate(invalid="ignore"):
        got = op.apply(y, 0.6)
    assert np.isnan(got[:, 1]).any() and np.isfinite(got[:, [0, 2]]).all()


@pytest.mark.parametrize("centers", [(0j, 0j), (0.4 + 0.2j, -0.3)], ids=["local", "displaced"])
def test_stacked_operator_returns_each_operator_in_its_channel(centers):
    # slice loop (few bands, local basis) and gathered sweep (displaced basis);
    # a channel whose operator has no band at this basis reads zero
    exprs = [destroy(0), (lambda t: 1.5 + t) * number(1), transition(2, 2, 1),
             destroy(0) * create(1)]
    frs = [FreedomSpec(FIELD, 4, 3, centers[0]), FreedomSpec(FIELD, 3, 2, centers[1]),
           FreedomSpec(ATOM, 3, 2)]
    ops = [compile_operator(e, frs) for e in exprs]
    stacked = _family(exprs, frs)
    assert stacked.channels == 4 and not ops[2].groups
    assert stacked.gathered == (centers[0] != 0)
    rng = np.random.default_rng(9)
    y = (rng.standard_normal((5, ops[0].size))
         + 1j * rng.standard_normal((5, ops[0].size))).T.copy()
    got = stacked.apply(y, 0.3)
    assert got.shape == (4, ops[0].size, 5) and got.flags.c_contiguous
    for j, op in enumerate(ops):
        want = op.apply(y, 0.3)
        assert np.abs(got[j] - want).max() <= 1e-15 * max(np.abs(want).max(), 1.0)


def test_kernel_follows_band_count_channels_and_size():
    # the gathered sweep needs 4 bands, one more per further channel, and at
    # most 32 states: a family of 4 one-band trees or a 36-state form keep the loop
    local = [FreedomSpec(FIELD, 6, 4), FreedomSpec(FIELD, 6, 4)]
    one_band = (destroy(0), destroy(1), create(0), create(1) * destroy(0))
    assert all(_bands(compile_operator(e, local)) == 1 for e in one_band)
    assert not _family(one_band, local).gathered
    displaced = [FreedomSpec(FIELD, 6, 4, 0.5), FreedomSpec(FIELD, 6, 4, -0.3j)]
    four = compile_operator(position(0) + position(1), displaced)
    assert _bands(four) == 5 and four.gathered
    assert not compile_operator(position(0) + position(1),
                                [FreedomSpec(FIELD, 6, 6, 0.5),
                                 FreedomSpec(FIELD, 6, 6, -0.3j)]).gathered
    # a family of 5 bands over 2 channels gathers, one of 4 over 3 does not
    assert _bands(compile_operator(position(0), local)) == 2
    pair = _family((position(0) + position(1), destroy(0)), local)
    assert _bands(pair) == 5 and pair.gathered
    assert not _family((position(0), destroy(0), destroy(1)), local).gathered


def test_gathered_rows_come_in_chunks_with_the_bits_of_one_block(monkeypatch):
    # 3000 trajectories of a 15-band form over 20 states: gathered whole
    # they would make a 14 MB block; in chunks the peak stays near the
    # result's size
    expr, frs = _many_band_op()
    op = compile_operator(expr, frs)
    assert op.gathered and _bands(op) == 15
    y = np.random.default_rng(4).standard_normal((3000, 40)).view(complex).T.copy()
    tracemalloc.start()
    try:
        got = op.apply(y, 0.4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= got.nbytes + 3 * 16 * GATHER_BLOCK
    # one trajectory per chunk gives the same bits
    monkeypatch.setattr(operators, "GATHER_BLOCK", 1)
    assert op.apply(y, 0.4).tobytes() == got.tobytes()


def test_gathered_times_of_their_own_scale_each_chunk(monkeypatch):
    # 3000 trajectories, each at a time of its own: the time group's
    # diagonals are scaled chunk by chunk, never as one (bands, 20, 3000)
    # stack, and each column has the bits it has applied alone
    expr, frs = _many_band_op()
    op = compile_operator(expr, frs)
    y = np.random.default_rng(5).standard_normal((3000, 40)).view(complex).T.copy()
    t = np.linspace(0.0, 2.0, 3000)
    tracemalloc.start()
    try:
        got = op.apply(y, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= got.nbytes + 3 * 16 * GATHER_BLOCK + 4 * t.nbytes
    monkeypatch.setattr(operators, "GATHER_BLOCK", 2 * op._gather[0].size)
    assert op.apply(y, t).tobytes() == got.tobytes()
    for j in (0, 1, 1234, 2999):
        assert op.apply(y[:, j:j + 1], t[j]).tobytes() == got[:, j:j + 1].tobytes()


@pytest.mark.parametrize("fn", [lambda t: cmath.exp(400 * t), lambda t: math.inf if t > 1.75 else 1.0],
                         ids=["raises-overflow", "returns-inf"])
@pytest.mark.parametrize("kernel", ["sliced", "gathered"])
def test_a_time_factor_that_overflows_names_its_trajectory(fn, kernel):
    # only column 2's time is past the overflow; the error names that column
    # and its time, whether fn raises OverflowError or returns inf
    if kernel == "sliced":
        op = compile_operator(fn * number(0), [FreedomSpec(FIELD, 3)])
    else:
        expr, frs = _many_band_op()
        op = compile_operator(expr + fn * number(1), frs)
    assert op.gathered == (kernel == "gathered")
    y = np.ones((op.size, 4), dtype=complex)
    with pytest.raises(StepError, match=r"^a time-dependent factor overflows at t=1\.8$") as err:
        op.apply(y, np.array([0.0, 1.0, 1.8, 0.5]))
    assert err.value.row == 2
    assert np.isfinite(op.apply(y, np.array([0.0, 1.0, 1.7, 0.5]))).all()


def test_an_adjoint_time_factor_is_a_flag():
    # hc() conjugates a time factor by a flag, so adjoints nest nothing
    expr = (lambda t: (1 + 2j) * t) * destroy(0)
    assert expr.hc().hc() == expr
    assert expr.hc().fn is expr.fn and expr.hc().conj
    got = to_dense(expr.hc(), (3,), t=0.5)
    assert got.tobytes() == ((0.5 - 1j) * to_dense(create(0), (3,))).tobytes()


def test_a_stacked_operator_has_no_single_diagonals():
    stacked = _family((destroy(0),), [FreedomSpec(FIELD, 4)])
    with pytest.raises(ValueError, match="per channel"):
        stacked.diagonals()


# --- trees are plain values ----------------------------------------------------


def _nodes(expr):
    yield expr
    for child in getattr(expr, "children", ()) + ((expr.child,) if hasattr(expr, "child") else ()):
        yield from _nodes(child)


def test_compiling_and_applying_leave_a_tree_unchanged():
    # a tree holds no compile state: compiling, applying and measuring it
    # leave its pickle as it was, and no node has a __dict__ to hold any
    expr = (0.5 * (create(0) * destroy(0) ** 2) + sigma_z(1)
            - 1j * position(0).hc() + math.cos * number(0))
    psi = product_state([coherent_state(6, 0.4), basis_state(2, 1, SPIN)])
    psi.freedoms[0].center = 0.3 - 0.2j
    psi.freedoms[0].dim_used = 5
    psi.as2d().reshape(1, 6, 2)[:, 5] = 0  # amplitudes above dim_used stay zero
    size = len(pickle.dumps(expr))
    compile_operator(expr, psi.freedoms)
    apply(expr, psi, 0.4)
    expectation(expr, psi, 0.4)
    psi *= expr
    assert len(pickle.dumps(expr)) == size
    assert pickle.loads(pickle.dumps(expr)) == expr
    nodes = list(_nodes(expr))
    assert {type(node) for node in nodes} == {Sum, Product, ScalarMul, TimeFnMul, Power,
                                             Primary}
    assert not any(hasattr(node, "__dict__") for node in nodes)
