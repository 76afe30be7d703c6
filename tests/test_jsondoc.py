import pytest

from ionfab.errors import SchemaError
from ionfab.jsondoc import (decode, each, fixed_array, integer, number, parse_json,
                            require_keys, string)


class TestLoadJson:
    """File bytes through ``decode`` and ``parse_json``, as the CLI reads them."""

    @pytest.mark.parametrize("content, message", [
        (b"", "empty file"),
        (b"  \n", "empty file"),
        (b"[1,\n", "invalid JSON at line 2"),
        (b"\xff\xfe{}", "not UTF-8 text"),
        (b"[" * 100_000 + b"]" * 100_000, "invalid JSON: maximum recursion depth"),
        (b"1" * 5000, "invalid JSON: Exceeds the limit"),
    ])
    def test_bad_text_is_schema_error_at_root(self, content, message):
        with pytest.raises(SchemaError, match=message) as info:
            parse_json(decode(content))
        assert info.value.path == "$"

    def test_nan_and_infinity_decode(self):
        assert str(parse_json("[NaN, Infinity]")) == "[nan, inf]"


class TestHelpers:
    def test_array_items_are_indexed_in_paths(self):
        with pytest.raises(SchemaError, match=r"^\$\.row\[1\]: expected integer, got 'a'$"):
            integer([0, "a"], 1, "$.row")
        with pytest.raises(SchemaError, match=r"^\$\.x: expected string"):
            string({"x": 1}, "x", "$")

    def test_bools_are_not_numbers(self):
        with pytest.raises(SchemaError):
            number([True], 0, "$")
        with pytest.raises(SchemaError):
            integer([False], 0, "$")

    def test_number_beyond_float_range(self):
        with pytest.raises(SchemaError, match=r"^\$\[0\]: number out of range"):
            number([10 ** 400], 0, "$")

    def test_fixed_array(self):
        assert fixed_array([1, 2], 2, "[a, b]") == [1, 2]
        for bad in ([1], [1, 2, 3], "ab", {"a": 1}):
            with pytest.raises(SchemaError, match=r"^\$\.p: expected \[a, b\]$"):
                fixed_array(bad, 2, "[a, b]", "$.p")


class TestRequireKeys:
    @pytest.mark.parametrize("obj", [{"a": 1, "b": 2}, {"a": 1, "b": 2, "c": 3}])
    def test_required_and_optional_keys_pass(self, obj):
        require_keys(obj, "$", {"a", "b"}, {"c"})

    @pytest.mark.parametrize("obj, message", [
        ({"a": 1}, "$.p: missing required key(s): b"),
        ({"a": 1, "b": 2, "d": 4}, "$.p: unknown key(s): d"),
        ({"d": 4}, "$.p: unknown key(s): d"),  # unknown keys are named first
        ([], "$.p: expected object, got list"),
    ])
    def test_faults(self, obj, message):
        with pytest.raises(SchemaError) as err:
            require_keys(obj, "$.p", {"a", "b"}, {"c"})
        assert str(err.value) == message


class TestEach:
    def test_parses_every_item(self):
        assert each([1, 2], "$.xs", lambda v: integer([v], 0, "$") * 10) == [10, 20]

    def test_errors_are_rerooted_at_the_item(self):
        def pair(row):
            fixed_array(row, 2, "[i, x]")
            return integer(row, 0, "$"), number(row, 1, "$")

        with pytest.raises(SchemaError, match=r"^\$\.rows\[2\]\[1\]: expected number"):
            each([[0, 1.0], [1, 2.0], [2, "x"]], "$.rows", pair)
        with pytest.raises(SchemaError, match=r"^\$\.rows\[0\]: expected \[i, x\]$"):
            each([[0]], "$.rows", pair)

    def test_nested_arrays(self):
        def outer(entry):
            return each(entry, "$.inner", lambda v: integer([v], 0, "$"))

        with pytest.raises(SchemaError, match=r"^\$\[1\]\.inner\[0\]\[0\]: expected integer"):
            each([[1], ["a"]], "$", outer)

    def test_not_an_array(self):
        with pytest.raises(SchemaError, match=r"^\$\.xs: expected array, got dict$"):
            each({}, "$.xs", int)
