import io
import json
from contextlib import redirect_stderr

from hypothesis import given, settings
from hypothesis import strategies as st

from forestalg import clear_caches, keel, lambda_alg, quadratic_dual
from forestalg.cli import main
from forestalg.lambda_alg import Presentation
from forestalg.rings import QQ
from forestalg.skewpoly import poly_from_json_terms


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_hilbert_spec_example(capsys):
    code, out = run(capsys, ["hilbert", "--n", "7"])
    assert code == 0
    rep = json.loads(out)
    assert rep["poincare"] == [1, 20, 64]


def test_poset_homology_spec_example(capsys):
    code, out = run(capsys, ["poset-homology", "--n", "5"])
    assert code == 0
    rep = json.loads(out)
    assert rep["degree"] == 2 and rep["rank"] == 9 and rep["torsion"] == []


def test_jacobi_spec_example(capsys):
    code, out = run(capsys, ["jacobi"])
    assert code == 0
    rep = json.loads(out)
    assert rep["rank"] == 9
    assert rep["alternating_sum"] == "zero"
    assert rep["kernel_dim"] == 1


def test_reduce_element(capsys):
    element = json.dumps(
        [{"monomial": [[1, 4, 5], [2, 3, 5]], "numerator": 1, "denominator": 1}])
    code, out = run(capsys, ["reduce", "--n", "6", "--element", element])
    assert code == 0
    rep = json.loads(out)
    assert len(rep["normal_form"]) == 4


def test_usage_error_exit_code(capsys):
    assert main(["no-such-command"]) == 2
    assert main(["reduce", "--n", "6", "--element", "{not json"]) == 2


def test_argparse_errors_are_one_line(capsys):
    for argv in (["reduce", "--n", "6", "--element", "-1e+16"],
                 ["reduce", "--n", "6", "--element", "-Infinity"],
                 ["no-such-command"],
                 [],
                 ["hilbert"],
                 ["hilbert", "--n", "six"],
                 ["hilbert", "--n", "6", "--variant", "cubic"],
                 ["keel-count", "--n", "5", "--no-such-flag"],
                 ["--format", "xml", "jacobi"]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, argv


def test_reduce_malformed_element(capsys):
    for element in (
            [1],
            [{"monomial": [[1, 4, 5]], "numerator": 1, "denominator": 0}],
            {"monomial": [[1, 4, 5]]},
            [{"monomial": [1, 4, 5]}],
            [{"monomial": [[1, 4, 5]], "numerator": 1.5}],
            [{"monomial": [[1, 4, 5]], "denominator": "2"}]):
        assert main(["reduce", "--n", "6", "--element", json.dumps(element)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


def test_reduce_generator_errors_name_the_cause(capsys):
    # labels of `reduce --n 5` are 1..4 and its generators take three
    for monomial, err in (
            ([[1, 2]], "error: generator [1, 2] has 2 indices, expected 3\n"),
            ([[1, 2, 9]],
             "error: generator [1, 2, 9] has a label outside [1, 2, 3, 4]\n")):
        element = json.dumps([{"monomial": monomial}])
        assert main(["reduce", "--n", "5", "--element", element]) == 2
        assert capsys.readouterr().err == err


# arbitrary JSON values, and term lists that pass the parser's outer checks
# often enough to reach the inner ones (labels of `reduce --n 6` are 1..5)
_keys = st.sampled_from(["monomial", "numerator", "denominator"]) | st.text(max_size=3)
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-1, 7) | st.floats()
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(_keys, inner, max_size=3),
    max_leaves=12)
_coefficients = st.integers(-2, 2) | _json_values
_term_lists = st.lists(st.fixed_dictionaries(
    {"monomial": st.lists(st.lists(st.integers(-1, 7), max_size=4), max_size=3)
     | _json_values},
    optional={"numerator": _coefficients, "denominator": _coefficients}),
    max_size=3)
_UNIVERSE = Presentation("tri", range(1, 6)).universe


@settings(max_examples=300, deadline=None)
@given(data=_json_values | _term_lists)
def test_element_parser_fuzz(data):
    try:
        poly_from_json_terms(QQ, _UNIVERSE, data)
    except (ValueError, KeyError):
        err = io.StringIO()
        with redirect_stderr(err):
            # one argv word, so argparse does not take a leading "-" (as in
            # -1e+16) for an option
            code = main(["reduce", "--n", "6", f"--element={json.dumps(data)}"])
        assert code == 2
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1


_triples = st.lists(st.integers(1, 5), min_size=3, max_size=3, unique=True)


@settings(max_examples=200, deadline=None)
@given(terms=st.lists(st.fixed_dictionaries({
    "monomial": st.lists(_triples, max_size=3),
    "numerator": st.integers(-9, 9),
    "denominator": st.integers(-4, 4).filter(bool)}), max_size=4))
def test_element_json_round_trip(terms):
    x = poly_from_json_terms(QQ, _UNIVERSE, terms)
    data = x.to_json_terms(_UNIVERSE)
    assert poly_from_json_terms(QQ, _UNIVERSE, data) == x
    assert poly_from_json_terms(QQ, _UNIVERSE, json.loads(json.dumps(data))) == x


def test_deterministic_output(capsys):
    _, out1 = run(capsys, ["bound", "--n", "4"])
    _, out2 = run(capsys, ["bound", "--n", "4"])
    assert out1 == out2


def test_out_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, _ = run(capsys, ["egf", "--order", "6", "--out", str(path)])
    assert code == 0
    rep = json.loads(path.read_text())
    assert rep["arcsin_ode"] is True


def test_csv_format(capsys):
    code, out = run(capsys, ["--format", "csv", "bound", "--n", "4"])
    assert code == 0
    assert "equal,True" in out


def test_basis_and_bockstein(capsys):
    code, out = run(capsys, ["basis", "--n", "7", "--degree", "2"])
    assert code == 0
    assert json.loads(out)["certified"]
    code, out = run(capsys, ["bockstein", "--n", "5"])
    assert code == 0
    rep = json.loads(out)
    assert rep["match"] is True
    code, out = run(capsys, ["bockstein", "--n", "4", "--twisted"])
    assert code == 0
    assert sum(json.loads(out)["dims"].values()) == 3


def test_keel_count_and_dual(capsys):
    code, out = run(capsys, ["keel-count", "--n", "5", "--order", "6"])
    assert code == 0
    rep = json.loads(out)
    assert rep["functional_equation_zero"] and rep["rows"]["5"]["match"]
    code, out = run(capsys, ["dual", "--n", "5"])
    assert code == 0
    assert json.loads(out)["match"]


def test_keel_count_beyond_the_enumeration(capsys):
    # the counts come from the recursion on label-set size, so n = 14 is cheap
    code, out = run(capsys, ["keel-count", "--n", "10-14", "--order", "10"])
    assert code == 0
    rows = json.loads(out)["rows"]
    assert list(rows) == [str(n) for n in range(10, 15)]
    assert all(row["match"] is True for row in rows.values())


def test_pairing_and_whitney(capsys):
    code, out = run(capsys, ["pairing", "--n", "6"])
    assert code == 0
    assert json.loads(out)["triangular"]
    code, out = run(capsys, ["whitney", "--n", "5"])
    assert code == 0
    assert json.loads(out)["exact"]


def test_cooperad_check(capsys):
    code, out = run(capsys, ["cooperad-check", "--trials", "5", "--seed", "1"])
    assert code == 0
    rep = json.loads(out)
    assert rep["coassociativity_all"] and rep["relation_preservation"]


def test_degenerate_input_is_a_usage_error(capsys, monkeypatch, tmp_path):
    def assert_usage_error(argv):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    for argv in (["keel-count", "--n", "5-3"], ["pairing", "--n", "-2"],
                 ["cooperad-check", "--trials", "-3"],
                 ["poset-homology", "--n", "1"], ["bockstein", "--n", "-3"],
                 ["whitney", "--n", "1"], ["hilbert", "--n", "-1"],
                 ["keel-count", "--n", "3", "--order", "1"],
                 ["egf", "--order", "1"],
                 ["dual", "--n", "5", "--degree", "-1"],
                 ["basis", "--n", "5", "--degree", "-1"],
                 # OverflowError is an ArithmeticError, not an invariant
                 ["hilbert", "--n", "99999999999999999999"],
                 ["hilbert", "--n", "5",
                  "--out", str(tmp_path / "missing" / "x.json")]):
        assert_usage_error(argv)
    monkeypatch.setenv("FORESTALG_JOBS", "abc")
    assert_usage_error(["poset-homology", "--n", "5"])
    monkeypatch.delenv("FORESTALG_JOBS")
    # the smallest sizes with a nontrivial answer still run
    code, out = run(capsys, ["whitney", "--n", "2"])
    assert code == 0 and json.loads(out)["exact"]
    code, out = run(capsys, ["dual", "--n", "5", "--degree", "0"])
    assert code == 0 and json.loads(out)["dims"] == [1]


def test_bockstein_at_one_label(capsys):
    code, out = run(capsys, ["bockstein", "--n", "1"])
    assert code == 0 and json.loads(out)["dims"] == {"0": 1}
    # the twisted differential needs a KeelRing, so at least two labels
    assert main(["bockstein", "--n", "1", "--twisted"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --n must be >= 2\n"


def test_step_limit_and_pbw_failures_are_reported(capsys, monkeypatch):
    def step_limit(n):
        raise RuntimeError("rewriting exceeded the step limit")

    def pbw(n, up_to_degree):
        raise ArithmeticError("inconsistent Lie dimension at degree 2: -1")

    monkeypatch.setattr(keel, "canonical_count_report", step_limit)
    monkeypatch.setattr(quadratic_dual, "koszul_numerator_check", pbw)
    assert main(["keel-count", "--n", "4"]) == 2
    assert capsys.readouterr().err == "error: rewriting exceeded the step limit\n"
    assert main(["dual", "--n", "5"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("invariant failure: ") and err.count("\n") == 1


def test_reports_do_not_depend_on_cache_state(capsys):
    argvs = [["hilbert", "--n", "6"], ["bockstein", "--n", "5"],
             ["keel-count", "--n", "6"], ["whitney", "--n", "5"]]

    def reports(order):
        out = {}
        for argv in order:
            code, text = run(capsys, argv)
            assert code == 0
            out[tuple(argv)] = text
        return out

    first = reports(argvs)
    assert keel.hbeta_connected_block.cache_info().currsize
    clear_caches()
    assert not lambda_alg._killed_classes
    assert keel.hbeta_connected_block.cache_info().currsize == 0
    assert lambda_alg.block_dimension.cache_info().currsize == 0
    assert reports(reversed(argvs)) == first


def test_resource_exhaustion_is_its_own_exit_code(capsys, monkeypatch):
    def out_of_memory(n, twisted=False):
        raise MemoryError()

    def too_deep(n):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(keel, "bockstein_cohomology", out_of_memory)
    monkeypatch.setattr(keel, "canonical_count_report", too_deep)
    assert main(["bockstein", "--n", "5"]) == 3
    assert capsys.readouterr().err == "error: resource exhausted: MemoryError\n"
    # a RecursionError is a RuntimeError, yet not a usage error
    assert main(["keel-count", "--n", "4"]) == 3
    assert capsys.readouterr().err == ("error: resource exhausted: RecursionError: "
                                       "maximum recursion depth exceeded\n")
