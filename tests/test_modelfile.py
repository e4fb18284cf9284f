"""Model-file grammar: parsing, lowering, validation, canonical echo."""

import io
import math
import pathlib
import re
import textwrap
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qtraj import (
    ATOM,
    IntegratorConfig,
    ModelError,
    ModelParseError,
    ModelValidationError,
    Power,
    TimeFnMul,
    Unraveling,
    build_model,
    coherent_state,
    create,
    destroy,
    load_model,
    number,
    parse_model,
    print_model,
    run_single,
    sigma_minus,
    sigma_plus,
    to_dense,
)
from qtraj.cli import main
from qtraj.operators import compile_operator

TEMPLATE = """\
freedoms:
  m field 4
  s spin

hamiltonian:
  {ham}

initial:
  m fock 0
  s down

output:
  n.out n(m)

run:
  dt = 0.01
  numdts = 2
  numsteps = 1
"""


def mk(ham="n(m)"):
    return TEMPLATE.format(ham=ham)


# --- basics --------------------------------------------------------------------


def test_minimal_model_parses_and_builds():
    mf = parse_model(mk())
    model, psi0, cfg, outspec = build_model(mf)
    assert model.hamiltonian is not None
    assert model.lindblads == ()
    assert psi0.amps[0] == 1.0 and abs(psi0.norm() - 1.0) < 1e-12
    assert [f.dim_alloc for f in psi0.freedoms] == [4, 2]
    assert cfg.dt == 0.01 and cfg.numdts == 2 and cfg.numsteps == 1
    assert cfg.n_trajectories == 1 and cfg.seed == 0
    assert cfg.unraveling is Unraveling.QSD
    assert cfg.integrator == IntegratorConfig("rk4", 1e-6)
    assert cfg.moving is None
    assert outspec.pipe == (1, 2, 3, 4)
    assert outspec.file_names == ("n.out",)


def test_two_mode_spin_model_dense_equality():
    # the declarative form must lower to exactly the same matrices as the
    # library expression trees
    text = textwrap.dedent("""\
        freedoms:
          m1 field 5
          m2 field 5
          s spin

        params:
          E = 2.0
          chi = 0.4
          omega = -0.7
          eta = 0.001
          gamma1 = 1.0
          gamma2 = 1.0
          kappa = 0.1

        hamiltonian:
          E*i*(adag(m1) - a(m1))
            + 0.5*chi*i*(adag(m1)^2*a(m2) - a(m1)^2*adag(m2))
            + omega*sp(s)*sm(s)
            + eta*i*(a(m2)*sp(s) - adag(m2)*sm(s))

        lindblads:
          sqrt(2*gamma1)*a(m1)
          sqrt(2*gamma2)*a(m2)
          sqrt(2*kappa)*sm(s)

        initial:
          m1 fock 0
          m2 fock 0
          s down

        output:
          a2.out a(m2)

        run:
          dt = 0.01
          numdts = 2
          numsteps = 1
        """)
    model, psi0, cfg, outspec = build_model(parse_model(text))
    dims = (5, 5, 2)
    e_amp, chi, omega, eta = 2.0, 0.4, -0.7, 0.001
    want_h = (
        (1j * e_amp) * (create(0) - destroy(0))
        + (0.5j * chi) * (Power(create(0), 2) * destroy(1)
                          - Power(destroy(0), 2) * create(1))
        + omega * (sigma_plus(2) * sigma_minus(2))
        + (1j * eta) * (destroy(1) * sigma_plus(2) - create(1) * sigma_minus(2))
    )
    assert np.abs(to_dense(model.hamiltonian, dims) - to_dense(want_h, dims)).max() < 1e-12
    want_ls = [math.sqrt(2.0) * destroy(0), math.sqrt(2.0) * destroy(1),
               math.sqrt(0.2) * sigma_minus(2)]
    assert len(model.lindblads) == 3
    for got, want in zip(model.lindblads, want_ls):
        assert np.abs(to_dense(got, dims) - to_dense(want, dims)).max() < 1e-12


def test_params_chain_and_complex_literals():
    text = mk().replace("hamiltonian:", textwrap.dedent("""\
        params:
          k1 = 2i
          k2 = 1.5e-3i
          k3 = i
          k4 = 2 + 3i
          k5 = 2*k4

        hamiltonian:""")) \
        .replace("initial:", "lindblads:\n  (k1 + k2 + k3 + k4 + k5)*a(m)\n\ninitial:")
    model, _, _, _ = build_model(parse_model(text))
    scalar = 2j + 1.5e-3j + 1j + (2 + 3j) + 2 * (2 + 3j)
    got = to_dense(model.lindblads[0], (4, 2))
    want = scalar * to_dense(destroy(0), (4, 2))
    assert np.abs(got - want).max() < 1e-12


def test_time_dependent_hamiltonian():
    mf = parse_model(mk("sin(2*t)*(a(m) + adag(m))"))
    model, _, _, _ = build_model(mf)
    assert isinstance(model.hamiltonian, TimeFnMul)
    got = to_dense(model.hamiltonian, (4, 2), t=0.4)
    want = math.sin(0.8) * to_dense(destroy(0) + create(0), (4, 2))
    assert np.abs(got - want).max() < 1e-12


def test_hermiticity_check():
    with pytest.raises(ModelValidationError, match="Hermitian"):
        build_model(parse_model(mk("a(m)")))
    # passes at t=0 but not later; the check samples several times
    with pytest.raises(ModelValidationError, match="Hermitian"):
        build_model(parse_model(mk("t*a(m)")))
    build_model(parse_model(mk("t*(a(m) + adag(m))")))
    build_model(parse_model(mk("i*(sp(s)*a(m) - adag(m)*sm(s))")))


def test_dissipative_model_without_hamiltonian():
    text = mk().replace("hamiltonian:\n  n(m)\n\n", "") \
               .replace("output:", "lindblads:\n  0.3*a(m)\n\noutput:")
    model, _, _, _ = build_model(parse_model(text))
    assert model.hamiltonian is None
    assert len(model.lindblads) == 1


# --- expression-level errors ------------------------------------------------------


EXPRESSION_ERRORS = [
    ("q(m)", "unknown function"),
    ("foo", "unknown identifier"),
    ("m", "without an operator"),
    ("sp(m)", "needs a spin freedom"),
    ("a(s)", "needs a field freedom"),
    ("a(z)", "unknown freedom"),
    ("2 + a(m)", "scalar and an operator"),
    ("a(m) - 2", "scalar and an operator"),
    ("a(m)^1.5", "integer literal"),
    ("a(m)^-2", "NUM"),
    ("a(m)^k", "NUM"),
    ("(a(m)", "expected"),
    ("a(m))", "trailing"),
    ("a(m) n(m)", "trailing"),
    ("sin(a(m))", "scalars"),
    ("sqrt(2, 3)", "one argument"),
    ("tr(s, 0, 1)", "needs a atom freedom"),
    ("tr(m)", "freedom"),
    ("a(m).foo()", "postfix"),
    ("a(m)^0", "power"),
    ("@", "unexpected character"),
    ("a(2)", "freedom name"),
]


@pytest.mark.parametrize("ham,msg", EXPRESSION_ERRORS)
def test_expression_errors(ham, msg):
    with pytest.raises(ModelParseError, match=msg):
        build_model(parse_model(mk(ham)))


# the whole message of every EXPRESSION_ERRORS case, location included: a
# syntax error anywhere in an expression wins over a lowering error, and of
# several lowering errors the first one a walk of the parse tree meets wins
EXPRESSION_ERROR_MESSAGES = {
    "q(m)": "line 6, col 3: unknown function 'q'",
    "foo": "line 6, col 3: unknown identifier 'foo'",
    "m": "line 6, col 3: freedom 'm' used without an operator (write a(...), sp(...), ...)",
    "sp(m)": "line 6, col 6: sp() needs a spin freedom, 'm' is field",
    "a(s)": "line 6, col 5: a() needs a field freedom, 's' is spin",
    "a(z)": "line 6, col 5: unknown freedom 'z'",
    "2 + a(m)": "line 6, col 5: cannot add a scalar and an operator",
    "a(m) - 2": "line 6, col 8: cannot add a scalar and an operator",
    "a(m)^1.5": "line 6, col 8: exponent must be an integer literal",
    "a(m)^-2": "line 6, col 8: expected 'NUM', found '-'",
    "a(m)^k": "line 6, col 8: expected 'NUM', found 'k'",
    "(a(m)": "line 6, col 8: expected ')', found 'end of input'",
    "a(m))": "line 6, col 7: unexpected trailing ')'",
    "a(m) n(m)": "line 6, col 8: unexpected trailing 'n'",
    "sin(a(m))": "line 6, col 3: sin() applies to scalars, not operators",
    "sqrt(2, 3)": "line 6, col 3: sqrt() takes one argument",
    "tr(s, 0, 1)": "line 6, col 6: tr() needs a atom freedom, 's' is spin",
    "tr(m)": "line 6, col 3: tr() takes (freedom, i, j)",
    "a(m).foo()": "line 6, col 8: unknown postfix '.foo'",
    "a(m)^0": "line 6, col 7: power exponent must be in 1..32",
    "@": "line 6, col 3: unexpected character '@'",
    "a(2)": "line 6, col 5: a() expects a freedom name",
    # two errors each: the syntax error comes later in the text but wins
    "foo + (": "line 6, col 10: expected a value, found 'end of input'",
    "a(m + 1)": "line 6, col 7: a() expects a freedom name",
    "q(foo + 1": "line 6, col 12: expected ')', found 'end of input'",
    "2*t + a(m)) ": "line 6, col 13: unexpected trailing ')'",
    # two lowering errors: the call's own check comes before its argument's
    "sqrt(foo, 1)": "line 6, col 3: sqrt() takes one argument",
    "tr(m + foo)": "line 6, col 3: tr() takes (freedom, i, j)",
}


def test_expression_error_messages_cover_every_case():
    assert {ham for ham, _ in EXPRESSION_ERRORS} <= set(EXPRESSION_ERROR_MESSAGES)


@pytest.mark.parametrize("ham", list(EXPRESSION_ERROR_MESSAGES))
def test_expression_error_messages(ham):
    with pytest.raises(ModelParseError) as err:
        parse_model(mk(ham))
    assert str(err.value) == EXPRESSION_ERROR_MESSAGES[ham]


def test_error_location_points_at_hamiltonian_line():
    with pytest.raises(ModelParseError, match="line 6"):
        parse_model(mk("foo"))


def test_error_location_on_continued_line():
    # the hamiltonian spans lines 6-7; the bad token is on line 7
    with pytest.raises(ModelParseError, match="line 7"):
        parse_model(mk("n(m)\n    + foo"))


def test_deep_nesting_is_rejected():
    expr = "(" * 200 + "n(m)" + ")" * 200
    with pytest.raises(ModelParseError, match="deeply"):
        parse_model(mk(expr))
    # each unary minus nests one level too: a long run of them is a located
    # parse error, not a RecursionError
    with pytest.raises(ModelParseError, match=r"^line 6, col \d+: expression nested too deeply$"):
        parse_model(mk("-" * 3000 + "n(m)"))
    with pytest.raises(ModelParseError, match=r"^line 21, col \d+: expression nested too deeply$"):
        parse_model(mk() + "\nparams:\n  kappa = " + "-" * 3000 + "0.1\n")
    # what the lowering nests around an operator is bounded too: ScalarMul,
    # TimeFnMul and Power; compiling them used to exceed the recursion limit
    # at build or run
    for chain in ("n(m)" + "*2" * 3000, "n(m)" + "*t" * 3000, "n(m)" + "^1" * 3000):
        with pytest.raises(ModelParseError,
                           match=r"^line 6, col \d+: expression nested too deeply$"):
            parse_model(mk(chain))
    # operator + and * chains flatten into one Sum or Product, and constants fold
    for chain in (" + ".join(["n(m)"] * 3000), "*".join(["n(m)"] * 3000),
                  "*".join(["1"] * 3000) + "*n(m)"):
        parse_model(mk(chain))


def tree_depth(node):
    """Operator nodes on the longest path down node's tree."""
    kids = (node.child,) if hasattr(node, "child") else getattr(node, "children", ())
    return 1 + max(map(tree_depth, kids), default=0)


@pytest.mark.parametrize("chain", [
    "t*" * 3000 + "n(m)",
    "n(m)" + ".hc()" * 3000,
    "(t*n(m))" + ".hc()" * 3000,
    "t" + ".hc()" * 3000 + "*n(m)",
], ids=["time-factors", "adjoints", "timed-adjoints", "time-adjoints"])
def test_long_time_and_adjoint_chains_parse_build_run_and_echo(chain, tmp_path):
    # a scalar in t lowers to one flat program and an adjoint flips a flag,
    # so none of these chains nests, however long it is (each parse takes
    # well under a second; the bound only catches a gross slowdown)
    start = time.perf_counter()
    mf = parse_model(mk(chain))
    assert time.perf_counter() - start < 10.0
    assert tree_depth(mf.lowered[0]) <= 2
    assert parse_model(print_model(mf)) == mf
    model, psi0, cfg, outspec = build_model(mf, out_dir=str(tmp_path))
    assert to_dense(model.hamiltonian, (4, 2), t=1.0).tobytes() == \
        to_dense(number(0), (4, 2)).tobytes()
    result = run_single(psi0, model, cfg, outspec, stream=io.StringIO())
    assert len(result.times) == 2 and np.isfinite(result.expectations).all()


def nested_sums(n):
    """(a(m) + (a(m) + ... a(m))) with n - 1 nested sums."""
    base = "a(m)"
    for _ in range(n - 1):
        base = f"(a(m) + {base})"
    return base


def test_every_accepted_power_chain_echoes_back():
    # the echo parenthesizes every base of a power chain, (x(m)^1)^1
    for base in ("x(m)", nested_sums(10)):
        accepted = 0
        for k in range(1, 200):
            text = mk().replace("n.out n(m)", "n.out " + base + "^1" * k)
            try:
                mf = parse_model(text)
            except ModelParseError as err:
                assert re.fullmatch(r"line 13, col \d+: expression nested too deeply", str(err))
                break
            assert parse_model(print_model(mf)) == mf
            accepted = k
        assert 100 <= accepted < k


@pytest.mark.parametrize("sums, powers", [(65, 65), (80, 50), (100, 30)])
def test_a_power_chain_whose_echo_nests_too_deeply_is_a_located_error(sums, powers, tmp_path,
                                                                       capsys):
    # the input nests about 66 levels, but its echo wraps the base's
    # parentheses in the chain's; the expression is rejected at its last ^
    output = nested_sums(sums) + "^1" * powers
    path = tmp_path / "deep.qt"
    path.write_text(mk().replace("n.out n(m)", "n.out " + output))
    assert main(["print-model", "--model", str(path)]) == 2
    col = len("  n.out ") + len(output) - 1
    assert capsys.readouterr().err == (
        f"qtraj: {path}: line 13, col {col}: expression nested too deeply\n")


def test_errors_on_right_hand_sides_count_columns_from_the_line_start():
    text = mk() + "\nparams:\n  kappa = foo\n"
    with pytest.raises(ModelParseError, match=r"^line 21, col 11: unknown identifier 'foo'$"):
        parse_model(text)
    with pytest.raises(ModelParseError, match=r"^line 13, col 16: unknown identifier 'foo'$"):
        parse_model(mk().replace("n.out n(m)", "n.out n(m) + foo"))
    with pytest.raises(ModelParseError, match=r"^line 9, col 17: 't' is not allowed"):
        parse_model(mk().replace("m fock 0", "m amps 1, 2,  t"))
    with pytest.raises(ModelParseError, match=r"^line 16, col 9: unexpected trailing 'e'$"):
        parse_model(mk().replace("dt = 0.01", "dt = 1e"))
    # an error about the whole line keeps column 1
    with pytest.raises(ModelParseError, match=r"^line 16, col 1: dt must be positive$"):
        parse_model(mk().replace("dt = 0.01", "dt = -1"))


# --- section-level errors ----------------------------------------------------------


def test_section_structure_errors():
    with pytest.raises(ModelParseError, match="unknown section"):
        parse_model(mk() + "\nwibble:\n  x = 1\n")
    with pytest.raises(ModelParseError, match="duplicate section"):
        parse_model(mk() + "\nrun:\n  dt = 0.1\n")
    with pytest.raises(ModelParseError, match="before any section"):
        parse_model("  n(m)\n" + mk())
    with pytest.raises(ModelParseError, match="missing required section 'run'"):
        parse_model("freedoms:\n  m field 4\ninitial:\n  m fock 0\n")
    with pytest.raises(ModelParseError, match="missing required section 'freedoms'"):
        parse_model("run:\n  dt = 0.1\n")


def test_output_section_required_nonempty():
    text = mk().replace("output:\n  n.out n(m)\n\n", "")
    with pytest.raises(ModelParseError, match="output section"):
        parse_model(text)
    with pytest.raises(ModelParseError, match="'filename expression'"):
        parse_model(mk().replace("n.out n(m)", "n.out"))
    with pytest.raises(ModelParseError, match="duplicate output"):
        parse_model(mk().replace("n.out n(m)", "n.out n(m)\n  n.out n(m)"))


@pytest.mark.parametrize("decl,msg", [
    ("m banana 4", "unknown freedom type"),
    ("m field", "needs a dimension"),
    ("m field zero", "bad dimension"),
    ("m field 0", ">= 1"),
    ("m spin 3", "dimension 2"),
    ("m atom 1", ">= 2"),
    ("t field 4", "shadows a builtin"),
    ("sqrt spin", "shadows a builtin"),
    ("2m field 4", "bad freedom name"),
])
def test_freedom_errors(decl, msg):
    text = mk().replace("m field 4", decl)
    with pytest.raises(ModelParseError, match=msg):
        parse_model(text)


def test_duplicate_freedom():
    text = mk().replace("m field 4", "m field 4\n  m field 4")
    with pytest.raises(ModelParseError, match="duplicate freedom"):
        parse_model(text)


def test_param_errors():
    def with_params(lines):
        return mk().replace("hamiltonian:", "params:\n" + lines + "\nhamiltonian:")
    with pytest.raises(ModelParseError, match="constant scalar"):
        parse_model(with_params("  k = a(m)"))
    with pytest.raises(ModelParseError, match="not allowed"):
        parse_model(with_params("  k = 2*t"))
    with pytest.raises(ModelParseError, match="already defined"):
        parse_model(with_params("  k = 1\n  k = 2"))
    with pytest.raises(ModelParseError, match="already defined"):
        parse_model(with_params("  m = 1"))
    with pytest.raises(ModelParseError, match="shadows"):
        parse_model(with_params("  sin = 1"))
    with pytest.raises(ModelParseError, match="unknown identifier"):
        parse_model(with_params("  k = j2"))
    with pytest.raises(ModelParseError, match="'name = expression'"):
        parse_model(with_params("  k 2"))


def test_initial_errors():
    with pytest.raises(ModelParseError, match="unknown freedom"):
        parse_model(mk().replace("m fock 0", "q fock 0"))
    with pytest.raises(ModelParseError, match="duplicate initial"):
        parse_model(mk().replace("m fock 0", "m fock 0\n  m fock 1"))
    with pytest.raises(ModelParseError, match="missing initial"):
        parse_model(mk().replace("  s down\n", ""))
    with pytest.raises(ModelParseError, match="does not apply"):
        parse_model(mk().replace("m fock 0", "m up"))
    with pytest.raises(ModelParseError, match="does not apply"):
        parse_model(mk().replace("s down", "s fock 0"))
    with pytest.raises(ModelParseError, match="expected an integer"):
        parse_model(mk().replace("m fock 0", "m fock half"))
    with pytest.raises(ModelValidationError, match="outside"):
        build_model(parse_model(mk().replace("m fock 0", "m fock 7")))
    with pytest.raises(ModelValidationError, match="outside"):
        build_model(parse_model(mk().replace("m fock 0", "m fock -1")))
    with pytest.raises(ModelValidationError, match="zero"):
        build_model(parse_model(mk().replace("m fock 0", "m amps 0, 0")))
    with pytest.raises(ModelValidationError, match="exceed"):
        build_model(parse_model(mk().replace("m fock 0", "m amps 1,1,1,1,1")))


def test_initial_state_values():
    text = mk().replace("m fock 0", "m coherent 0.5 - 0.25i")
    _, psi0, _, _ = build_model(parse_model(text))
    want = coherent_state(4, 0.5 - 0.25j)
    got = psi0.amps.reshape(4, 2)[:, 0]
    assert np.abs(got - want.amps).max() < 1e-12

    text = mk().replace("s down", "s amps 1, 1")
    _, psi0, _, _ = build_model(parse_model(text))
    got = psi0.amps.reshape(4, 2)[0]
    assert np.abs(got - 1 / math.sqrt(2)).max() < 1e-12

    text = mk().replace("s spin", "s atom 3").replace("s down", "s level 2") \
               .replace("sp(s)*sm(s)", "tr(s,2,2)")
    _, psi0, _, _ = build_model(parse_model(text))
    assert psi0.freedoms[1].ptype is ATOM
    assert psi0.amps.reshape(4, 3)[0, 2] == 1.0


def test_atom_transition_model():
    # tr(f, i, j) = |i><j|, i != j; diagonal projectors come from products
    text = mk("tr(s2, 1, 0) + tr(s2, 1, 0).hc() + n(m)") \
        .replace("s spin", "s2 atom 3").replace("s down", "s2 level 0")
    model, psi0, _, _ = build_model(parse_model(text))
    got = to_dense(model.hamiltonian, (4, 3))
    assert got.shape == (12, 12)
    assert np.abs(got - got.conj().T).max() < 1e-12
    with pytest.raises(ModelParseError, match="differ"):
        parse_model(mk("tr(s2, 1, 1)").replace("s spin", "s2 atom 3")
                    .replace("s down", "s2 level 0"))


def test_atom_transition_level_out_of_range():
    # a tr() level at or above the atom's dimension is an error at the call
    text = mk().replace("s spin", "q atom 2").replace("s down", "q level 0") \
        .replace("n.out n(m)", "n.out n(m)\n  q.out tr(q, 5, 0)")
    with pytest.raises(ModelParseError) as err:
        parse_model(text)
    assert str(err.value) == "line 14, col 9: tr() level 5 outside freedom 'q' dimension 2"
    with pytest.raises(ModelParseError, match="level 2 outside freedom 'q' dimension 2"):
        parse_model(text.replace("tr(q, 5, 0)", "tr(q, 0, 2)"))


# Hamiltonians beyond test_hermiticity_check, with the verdict of the check:
# exact on the compiled diagonals, top field level masked
HERMITICITY_CASES = [
    ("x(m)*p(m)", False),
    ("x(m)*p(m) + p(m)*x(m)", True),
    ("n(m) + 1e-6i*sz(s)", False),
    ("0.5*(sp(s)*a(m) + sm(s)*adag(m))", True),   # Jaynes-Cummings
    ("sin(t)*a(m) + sin(t)*adag(m)", True),       # one time group per term
    ("n(m) + sin(6.283185307179586*t)*i*n(m)", False),  # zero at t = 0, 0.5, 1
    ("models/shg.qt", True),
]


@pytest.mark.parametrize("ham, hermitian", HERMITICITY_CASES,
                         ids=[ham for ham, _ in HERMITICITY_CASES])
def test_hermiticity_parity(ham, hermitian):
    if ham.endswith(".qt"):
        with open(ham) as fh:
            text = fh.read()
    else:
        text = mk(ham)
    mf = parse_model(text)
    if hermitian:
        build_model(mf)
    else:
        with pytest.raises(ModelValidationError, match="Hermitian"):
            build_model(mf)


def test_run_key_handling():
    runs = textwrap.dedent("""\
        run:
          dt = 0.02
          numdts = 4
          numsteps = 3
          trajectories = 12
          seed = 5
          unraveling = orthojump
          integrator = adaptive
          eps = 1e-8
          moving = 1
          cutoff_epsilon = 0.02
          pad = 3
          shift_accuracy = 1e-5
          pipe = 2 2 3 4
        """)
    text = mk().split("run:")[0] + runs
    mf = parse_model(text)
    model, psi0, cfg, outspec = build_model(mf)
    assert cfg.n_trajectories == 12 and cfg.seed == 5
    assert cfg.unraveling is Unraveling.ORTHO_JUMP
    assert cfg.integrator == IntegratorConfig("adaptive", 1e-8)
    assert cfg.moving.n_moving == 1
    assert cfg.moving.cutoff_epsilon == 0.02
    assert cfg.moving.pad_size == 3
    assert cfg.moving.shift_accuracy == 1e-5
    assert outspec.pipe == (2, 2, 3, 4)
    assert mf.run_dict()["unraveling"] == "orthojump"


@pytest.mark.parametrize("old,new,msg", [
    ("numsteps = 1", "numsteps = 1\n  wibble = 3", "unknown run key"),
    ("numsteps = 1", "numsteps = 1\n  dt = 0.02", "duplicate run key"),
    ("dt = 0.01", "dt = -1", "positive"),
    ("dt = 0.01", "dt = 2i", "must be real"),
    ("numdts = 2", "numdts = 0", ">= 1"),
    ("numdts = 2", "numdts = 1.5", "integer"),
    ("numsteps = 1", "numsteps = -1", ">= 0"),
    ("numsteps = 1", "numsteps = 1\n  unraveling = diffusion", "must be one of"),
    ("numsteps = 1", "numsteps = 1\n  integrator = euler", "must be one of"),
    ("numsteps = 1", "numsteps = 1\n  pipe = 1 2 3", "exactly 4"),
    ("numsteps = 1", "numsteps = 1\n  pipe = 1 2 3 x", "integers"),
    ("numsteps = 1", "numsteps = 1\n  pipe = 0 1 2 3", "outside"),
    ("numsteps = 1", "numsteps = 1\n  pipe = 1 2 3 9", "outside"),
    ("numsteps = 1", "numsteps = 1\n  cutoff_epsilon = 0.1", "moving"),
])
def test_run_key_errors(old, new, msg):
    text = mk().replace(old, new)
    with pytest.raises(ModelParseError, match=msg):
        parse_model(text)


def test_missing_required_run_keys():
    text = mk().replace("  dt = 0.01\n", "")
    with pytest.raises(ModelParseError, match="must set 'dt'"):
        parse_model(text)
    text = mk().replace("  numdts = 2\n", "")
    with pytest.raises(ModelParseError, match="must set 'numdts'"):
        parse_model(text)


def test_moving_requires_leading_fields():
    text = mk().replace("m field 4\n  s spin", "s spin\n  m field 4") \
               .replace("numsteps = 1", "numsteps = 1\n  moving = 1")
    with pytest.raises(ModelValidationError, match="leading field"):
        build_model(parse_model(text))


def test_out_dir_prefixes_file_names(tmp_path):
    mf = parse_model(mk())
    _, _, _, outspec = build_model(mf, out_dir=str(tmp_path))
    assert outspec.file_names[0] == str(tmp_path / "n.out")


def test_comments_and_blank_lines_ignored():
    text = mk().replace("hamiltonian:", "# a comment\n\nhamiltonian:  # trailing")
    assert parse_model(text) == parse_model(mk())


# --- canonical echo ------------------------------------------------------------------


# every initial-state constructor, with complex arguments where it takes them
EVERY_CONSTRUCTOR = """\
freedoms:
  m field 4
  k field 3
  s spin
  u spin
  d spin
  q atom 3
  r atom 3

initial:
  m coherent 0.5 - 0.25i
  k fock 1
  s amps 0.6, -0.8i
  u up
  d down
  q level 2
  r amps 1, 0.5 - 2i, 3i

output:
  n.out n(m)

run:
  dt = 0.01
  numdts = 1
  numsteps = 1
"""

ROUND_TRIP_SAMPLES = [
    mk(),
    mk("-n(m)^2 + 2.5*x(m) - (a(m) + adag(m))*n(m)"),
    mk("(2 - 0.5i)*a(m).hc()*a(m) + ((a(m)*sm(s)).hc() + a(m)*sm(s))"),
    mk("cos(3*t)*(p(m) + p(m).hc())"),
    EVERY_CONSTRUCTOR,
]


@pytest.mark.parametrize("text", ROUND_TRIP_SAMPLES)
def test_round_trip_parse_print_parse(text):
    mf = parse_model(text)
    echoed = print_model(mf)
    again = parse_model(echoed)
    assert again == mf
    assert print_model(again) == echoed


def test_echo_builds_the_same_initial_state():
    # the echoed constructor arguments build psi0 to the bit
    mf = parse_model(EVERY_CONSTRUCTOR)
    again = parse_model(print_model(mf))
    assert build_model(again)[1].amps.tobytes() == build_model(mf)[1].amps.tobytes()


# expression -> canonical text: parentheses only where precedence needs them
# (^ above unary minus above * above + -, binary operators left-associative),
# numbers by repr, number literals parenthesized before .hc()
CANONICAL_TEXT = [
    ("-n(m)^2", "-n(m)^2"),
    ("(-a(m))^2", "(-a(m))^2"),
    ("a(m) - (n(m) - x(m))", "a(m) - (n(m) - x(m))"),
    ("(a(m) - n(m)) - x(m)", "a(m) - n(m) - x(m)"),
    ("a(m)*(n(m)*x(m))", "a(m)*(n(m)*x(m))"),
    ("(a(m)*n(m))*x(m)", "a(m)*n(m)*x(m)"),
    ("-(-a(m))", "--a(m)"),
    ("-a(m)*n(m)", "-a(m)*n(m)"),
    ("-(a(m)*n(m))", "-(a(m)*n(m))"),
    ("(a(m)*n(m))^2", "(a(m)*n(m))^2"),
    ("x(m)^2^3", "(x(m)^2)^3"),
    ("-a(m).hc()", "-a(m).hc()"),
    ("(-a(m)).hc()", "(-a(m)).hc()"),
    ("(a(m)^2).hc()", "(a(m)^2).hc()"),
    ("(a(m) + n(m)).hc()", "(a(m) + n(m)).hc()"),
    ("2*-a(m)", "2.0*-a(m)"),
    ("a(m) - -n(m)", "a(m) - -n(m)"),
    ("(2 - 0.5i)*a(m)", "(2.0 - 0.5i)*a(m)"),
    ("cos(3*t)*(p(m) + p(m).hc())", "cos(3.0*t)*(p(m) + p(m).hc())"),
    ("tr(q, 1, 0)", "tr(q, 1.0, 0.0)"),
    ("(2).hc()", "(2.0).hc()"),
    ("i.hc()", "(1.0i).hc()"),
    ("(u).hc()", "u.hc()"),
    ("1e-3i", "0.001i"),
    ("2.5e2", "250.0"),
    ("(2)^2", "2.0^2"),
    ("exp(-(u))", "exp(-u)"),
    ("sqrt(2*u)", "sqrt(2.0*u)"),
]

CANONICAL_MODEL = """\
freedoms:
  m field 4
  s spin
  q atom 3

params:
  u = 2
  k = {scalar}

initial:
  m fock 0
  s down
  q level 0

output:
  o.out {op}

run:
  dt = 0.01
  numdts = 1
  numsteps = 1
"""


@pytest.mark.parametrize("expr, text", CANONICAL_TEXT, ids=[e for e, _ in CANONICAL_TEXT])
def test_canonical_text(expr, text):
    # operator expressions go to the output line, scalars to a param
    scalar = not any(c in expr for c in ("(m)", "(q"))
    mf = parse_model(CANONICAL_MODEL.format(scalar=expr if scalar else "1",
                                            op="n(m)" if scalar else expr))
    assert (mf.params[1][1] if scalar else mf.outputs[0][1]) == text
    echoed = print_model(mf)
    assert (f"  k = {text}\n" if scalar else f"  o.out {text}\n") in echoed
    assert parse_model(echoed) == mf


_SCALARS = st.recursive(
    st.sampled_from(["2", "0.5", "1.5e-1", "3i", "i", "u", "1e-3i", ".25", "t"]),
    lambda s: st.one_of(
        st.tuples(st.sampled_from(["sin", "cos", "exp", "sqrt"]), s).map("{0[0]}({0[1]})".format),
        s.map("-({})".format),
        st.tuples(s, st.integers(0, 3)).map("({0[0]})^{0[1]}".format),
        s.map("({}).hc()".format),
        st.tuples(s, st.sampled_from(["+", "-", "*"]), s).map("({0[0]}) {0[1]} ({0[2]})".format),
    ),
    max_leaves=4)
_OPERATORS = st.recursive(
    st.sampled_from(["a(m)", "adag(m)", "n(m)", "x(m)", "p(m)", "sp(s)", "sm(s)", "sz(s)",
                     "tr(q, 0, 1)", "tr(q, 2, 1)"]),
    lambda o: st.one_of(
        st.tuples(o, st.sampled_from(["+", "-", "*"]), o).map("({0[0]}) {0[1]} ({0[2]})".format),
        st.tuples(_SCALARS, o).map("({0[0]})*({0[1]})".format),
        st.tuples(o, _SCALARS).map("({0[0]})*({0[1]})".format),
        o.map("-({})".format),
        st.tuples(o, st.integers(1, 3)).map("({0[0]})^{0[1]}".format),
        o.map("({}).hc()".format),
    ),
    max_leaves=6)


@settings(max_examples=200, deadline=None)
@given(_OPERATORS)
def test_print_parse_is_idempotent_and_keeps_operators(expr):
    mf = parse_model(CANONICAL_MODEL.format(scalar="1", op=expr))
    echoed = print_model(mf)
    again = parse_model(echoed)
    assert print_model(again) == echoed
    assert again == mf
    (got,), (want,) = again.lowered[2], mf.lowered[2]
    for t in (0.0, 0.37):
        assert to_dense(got, (4, 2, 3), t=t).tobytes() == to_dense(want, (4, 2, 3), t=t).tobytes()


@settings(max_examples=150, deadline=None)
@given(_SCALARS.filter(lambda e: re.search(r"\bt\b", e)))
def test_time_function_equals_the_constant_at_each_time(expr):
    # a scalar in t lowers to a time function; its value at each time has the
    # bits of the constant that the expression with that time written in lowers to
    def lowered(scalar):
        return parse_model(CANONICAL_MODEL.format(scalar="1", op=f"({scalar})*n(m)")).lowered[2][0]

    fn = lowered(expr).fn
    for t in (0.0, 0.37, 1 / math.sqrt(2), 2.5):
        try:
            want = lowered(re.sub(r"\bt\b", f"({t!r})", expr)).scalar
        except ModelParseError as err:
            assert "value overflows" in str(err)
            continue
        got = fn(t)
        assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())



def test_time_functions_differing_in_a_zero_sign_stay_apart():
    # -1*t and (0-1)*t differ only in the sign of a zero, which the branch
    # cut of sqrt reads: -i*sqrt(t) and +i*sqrt(t), so H is Hermitian; its
    # two time functions must scale their own terms
    mf = parse_model(mk("sqrt(-1*t)*a(m) + sqrt((0-1)*t)*adag(m)"))
    model, psi0, _, _ = build_model(mf)
    op = compile_operator(model.hamiltonian, psi0.freedoms)
    for t in (0.37, 1.0, 2.5):
        got = op.apply(np.eye(op.size, dtype=complex), t)
        assert np.array_equal(got, to_dense(model.hamiltonian, (4, 2), t=t))
        assert np.array_equal(got, got.conj().T)


ROOT = pathlib.Path(__file__).resolve().parents[1]
SHIPPED_MODELS = sorted(p.relative_to(ROOT).as_posix()
                        for pattern in ("models/*.qt", "perfbench/models/*.qt")
                        for p in ROOT.glob(pattern))


@pytest.mark.parametrize("path", SHIPPED_MODELS)
def test_round_trip_shipped_models(path):
    # every model the project ships echoes to itself and builds without a warning
    text = (ROOT / path).read_text(encoding="utf-8")
    mf = parse_model(text)
    again = parse_model(print_model(mf))
    assert again == mf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        build_model(mf)


def test_building_shg_allocates_no_apply_state():
    # the build checks compile H and each L_j at all 5000 allocated states;
    # forms that large keep the slice loop, so they build no gather stacks
    # (about 1.5 MiB for a many-band form there)
    text = (ROOT / "models" / "shg.qt").read_text(encoding="utf-8")
    tracemalloc.start()
    try:
        build_model(parse_model(text))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * 2 ** 20


def test_load_model_shg():
    mf, model, psi0, cfg, outspec = load_model("models/shg.qt")
    assert len(model.lindblads) == 3
    assert psi0.amps.size == 50 * 50 * 2
    assert cfg.dt == 0.01 and cfg.numdts == 50
    assert cfg.moving.n_moving == 2
    assert outspec.pipe == (1, 5, 13, 17)
    assert len(outspec.operators) == 5


# --- fuzzing ----------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(st.one_of(
    st.text(max_size=300),
    st.text(alphabet="amnspt()^+-*.hci012 =\n:fockdownrules", max_size=300),
))
def test_parser_total_over_arbitrary_text(text):
    # any input either parses or raises the documented error family
    try:
        parse_model(text)
    except ModelError:
        pass


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_parser_total_over_mutated_model(seed):
    rng = np.random.default_rng(seed)
    text = list(mk("n(m) + 0.5*(a(m) + a(m).hc())^2"))
    for _ in range(rng.integers(1, 6)):
        k = int(rng.integers(0, len(text)))
        text[k] = chr(int(rng.integers(32, 127)))
    try:
        parse_model("".join(text))
    except ModelError:
        pass
