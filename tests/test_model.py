"""Model schema parsing, validation, initial moments, bundled benchmarks."""

import json
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sdemoments.model import (
    InitialCondition,
    MissingMomentError,
    ModelError,
    benchmark_names,
    initial_moment,
    load_benchmark,
    load_model,
    parse_rational,
)
from sdemoments.poly import Monomial, parse_polynomial


def model_doc(**overrides) -> str:
    doc = {
        "name": "toy",
        "variables": ["x1", "x2"],
        "brownian_dim": 1,
        "drift": ["-x1", "x1 - x2"],
        "diffusion": [["1"], ["x1"]],
        "initial": {"kind": "point", "values": ["0", "0"]},
    }
    doc.update(overrides)
    return json.dumps(doc)


def make_model(**overrides):
    return load_model(model_doc(**overrides))


def moments(table):
    return {"kind": "moments", "table": table}


class TestParseRational:
    def test_integers_and_fractions(self):
        assert parse_rational("1") == 1
        assert parse_rational("-11/8") == Fraction(-11, 8)

    def test_decimals_exact(self):
        assert parse_rational("0.3") == Fraction(3, 10)
        assert parse_rational("-1.25") == Fraction(-5, 4)

    def test_garbage_rejected(self):
        with pytest.raises(ModelError):
            parse_rational("one half")


class TestLoadModel:
    def test_minimal_model(self):
        model = make_model()
        assert model.dimension == 2
        assert model.brownian_dim == 1
        assert model.drift[0] == parse_polynomial("-x1", model.variables)
        assert model.diffusion[1][0] == parse_polynomial("x1", model.variables)

    def test_missing_field(self):
        with pytest.raises(ModelError, match="missing field"):
            load_model(json.dumps({"name": "x", "variables": ["a"]}))

    def test_invalid_json(self):
        with pytest.raises(ModelError, match="JSON"):
            load_model("{not json")

    def test_duplicate_variables(self):
        with pytest.raises(ModelError):
            make_model(variables=["x1", "x1"])

    def test_wrong_drift_length(self):
        with pytest.raises(ModelError, match="drift"):
            make_model(drift=["-x1"])

    def test_ragged_diffusion(self):
        with pytest.raises(ModelError, match="diffusion"):
            make_model(diffusion=[["1"], ["x1", "2"]])

    def test_bad_polynomial_labels_location(self):
        with pytest.raises(ModelError, match=r"drift\[1\]"):
            make_model(drift=["-x1", "x1 +"])

    def test_wrong_point_length(self):
        with pytest.raises(ModelError, match="point"):
            make_model(initial={"kind": "point", "values": ["0"]})

    def test_unknown_variable_in_drift(self):
        with pytest.raises(ModelError):
            make_model(drift=["-x3", "x1"])

    def test_moment_table_initial(self):
        model = make_model(
            initial={"kind": "moments", "table": {"(1,0)": "2", "(2,0)": "5"}}
        )
        assert model.initial.kind == "moments"
        assert initial_moment(model.initial, Monomial((1, 0))) == 2

    def test_round_trip_all_benchmarks(self):
        for name in benchmark_names():
            model = load_benchmark(name)
            names = model.variables
            for p in model.drift + tuple(entry for row in model.diffusion for entry in row):
                assert parse_polynomial(p.to_text(names), names) == p


class TestMalformedInput:
    @pytest.mark.parametrize(
        "overrides, fragment",
        [
            ({"variables": "x1"}, "variables must be a non-empty list of strings"),
            ({"variables": []}, "variables must be a non-empty list of strings"),
            ({"variables": ["x1", 2]}, "variables must be a non-empty list of strings"),
            ({"variables": ["x1", "x1"]}, "variable names must be unique"),
            ({"brownian_dim": 1.0}, "brownian_dim must be a positive integer"),
            ({"brownian_dim": "1"}, "brownian_dim must be a positive integer"),
            ({"brownian_dim": 0}, "brownian_dim must be a positive integer"),
            ({"drift": "-x1"}, "drift must be a list of expression strings"),
            ({"drift": ["-x1", 2]}, "drift[1] must be an expression string, got 2"),
            ({"diffusion": ["1", "x1"]}, "diffusion must be a list of rows"),
            ({"diffusion": [["1"]]}, "diffusion has 1 rows, expected 2"),
            ({"initial": "point"}, 'initial must be an object with a "kind" field'),
            ({"initial": {"values": ["0", "0"]}}, 'initial must be an object with a "kind" field'),
            ({"initial": {"kind": "point"}}, "initial point needs a values list"),
            ({"initial": {"kind": "moments"}}, "initial moments need a table object"),
            ({"initial": {"kind": "sample"}}, "unknown initial condition kind 'sample'"),
            ({"initial": {"kind": "point", "values": [0, 0]}}, "expected a rational string, got 0"),
            ({"initial": moments({"(1,x)": "1"})}, "invalid moment index key '(1,x)'"),
            ({"initial": moments({"(1,0,0)": "1"})}, "must list 2 non-negative exponents"),
            ({"initial": moments({"(-1,0)": "1"})}, "must list 2 non-negative exponents"),
            ({"initial": moments({"(0,0)": "2"})}, "the empty moment index must map to 1"),
        ],
    )
    def test_error_messages(self, overrides, fragment):
        with pytest.raises(ModelError) as info:
            make_model(**overrides)
        assert fragment in str(info.value)

    def test_repeated_json_key_rejected(self):
        text = model_doc(initial=moments({"(1,0)": "1"})).replace(
            '"(1,0)": "1"', '"(1,0)": "1", "(1,0)": "2"'
        )
        with pytest.raises(ModelError, match=r"duplicate key '\(1,0\)' in a JSON object"):
            load_model(text)

    def test_document_must_be_an_object(self):
        with pytest.raises(ModelError, match="model document must be a JSON object"):
            load_model("[1, 2]")

    @pytest.mark.parametrize(
        "overrides, fragment",
        [
            ({"brownian_dim": True}, "brownian_dim must be a positive integer, got True"),
            ({"name": {"a": 1}}, "name must be a string, got {'a': 1}"),
            ({"initial": moments({"(1,,0)": "1"})}, "invalid moment index key '(1,,0)'"),
            (
                {"initial": moments({"(1,0)": "1", "1,0": "2"})},
                "moment index key '1,0' repeats the index (1,0)",
            ),
            # int() and Fraction() read these as 10, 1, 1 and 1000.
            ({"initial": moments({"(1_0,0)": "1"})}, "invalid moment index key '(1_0,0)'"),
            ({"initial": moments({"(+1,0)": "1"})}, "invalid moment index key '(+1,0)'"),
            ({"initial": moments({"(١,0)": "1"})}, "invalid moment index key '(١,0)'"),
            ({"initial": {"kind": "point", "values": ["1_000", "0"]}}, "invalid rational literal '1_000'"),
        ],
        ids=[
            "bool-brownian-dim", "non-string-name", "empty-key-part", "one-moment-twice",
            "underscore-exponent", "plus-exponent", "arabic-indic-exponent", "underscore-rational",
        ],
    )
    def test_strict_fields(self, overrides, fragment):
        with pytest.raises(ModelError) as info:
            make_model(**overrides)
        assert fragment in str(info.value)

    def test_empty_index_mapping_to_one_is_accepted(self):
        model = make_model(initial=moments({"(0,0)": "1", " 1 , 0 ": "2"}))
        assert model.initial.table == {Monomial((0, 0)): 1, Monomial((1, 0)): 2}


class TestInitialMoment:
    def test_degree_zero_is_one(self):
        ic = InitialCondition.from_point((Fraction(3), Fraction(4)))
        assert initial_moment(ic, Monomial((0, 0))) == 1

    def test_point_moments_are_monomial_values(self):
        ic = InitialCondition.from_point((Fraction(2), Fraction(-3)))
        assert initial_moment(ic, Monomial((2, 1))) == Fraction(4 * -3)

    @given(
        st.tuples(
            st.fractions(min_value=-4, max_value=4, max_denominator=8),
            st.fractions(min_value=-4, max_value=4, max_denominator=8),
        ),
        st.tuples(st.integers(0, 3), st.integers(0, 3)),
        st.tuples(st.integers(0, 3), st.integers(0, 3)),
    )
    def test_point_moments_multiplicative(self, point, e1, e2):
        # Dirac initial law: E[x^a * x^b] = E[x^a] * E[x^b]
        ic = InitialCondition.from_point(point)
        a, b = Monomial(e1), Monomial(e2)
        assert initial_moment(ic, a * b) == initial_moment(ic, a) * initial_moment(
            ic, b
        )

    def test_missing_table_entry(self):
        ic = InitialCondition.from_moments({Monomial((1, 0)): Fraction(1)})
        with pytest.raises(MissingMomentError) as info:
            initial_moment(ic, Monomial((0, 1)))
        assert info.value.index == Monomial((0, 1))


class TestBenchmarks:
    def test_all_names_load(self):
        assert set(benchmark_names()) == {
            "ou-env",
            "gene",
            "consensus",
            "vehicles",
            "oscillator",
            "coupled3d",
            "double-well",
        }
        for name in benchmark_names():
            model = load_benchmark(name)
            assert model.dimension >= 1

    def test_ou_env_shape(self):
        model = load_benchmark("ou-env")
        assert model.variables == ("x1", "x2")
        assert model.brownian_dim == 2
        names = model.variables
        assert model.drift[0] == parse_polynomial("-x1", names)
        assert model.drift[1] == parse_polynomial("-2*x2 + x1 + x1^2", names)
        assert model.diffusion[0][0] == parse_polynomial("1", names)
        assert model.diffusion[0][1] == parse_polynomial("0", names)
        assert model.diffusion[1][0] == parse_polynomial("0", names)
        assert model.diffusion[1][1] == parse_polynomial("x1", names)
        assert model.initial.point == (0, 0)

    def test_vehicles_shape(self):
        model = load_benchmark("vehicles")
        assert model.variables == ("p1", "v1", "p2", "v2")
        names = model.variables
        assert model.drift[0] == parse_polynomial("v1", names)
        assert model.drift[1] == parse_polynomial("-v1 + 1", names)
        assert model.drift[2] == parse_polynomial("v2", names)
        assert model.drift[3] == parse_polynomial("-v2 + v1^2 - 2*v1 + 3/2", names)
        assert model.initial.point == (1, 0, 0, 0)

    def test_consensus_shape(self):
        model = load_benchmark("consensus")
        names = model.variables
        assert model.drift[0] == parse_polynomial("-2*x1 + x2", names)
        assert model.drift[1] == parse_polynomial("x1 - 2*x2", names)
        assert model.initial.point == (1, 0)

    def test_double_well_is_scalar(self):
        model = load_benchmark("double-well")
        assert model.dimension == 1
        assert model.drift[0] == parse_polynomial("x1 - x1^3", ("x1",))

    def test_unknown_benchmark(self):
        with pytest.raises(ModelError):
            load_benchmark("no-such-benchmark")


class TestValidation:
    def test_frozen(self):
        model = make_model()
        with pytest.raises(Exception):
            model.name = "other"
