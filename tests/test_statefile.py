import re

import numpy as np
import pytest

import hardywitness as hw
from hardywitness.errors import ParseError

from conftest import random_state


class TestRoundtrip:
    def test_exact_roundtrip(self, tmp_path):
        rng = np.random.default_rng(1)
        v = random_state(rng, (3, 2))
        path = tmp_path / "state.json"
        hw.dump_state(v, path)
        back = hw.load_state(path)
        assert back.dims == v.dims
        np.testing.assert_allclose(back.amps, v.amps, atol=1e-15)

    def test_unnormalized_input_is_normalized(self):
        v = hw.parse_state_text('{"dims": [2], "amps": [[3, 0], [0, 4]]}')
        np.testing.assert_allclose(np.abs(v.amps), [0.6, 0.8], atol=1e-15)


class TestParseErrors:
    def test_syntax_error_reports_line_and_column(self):
        with pytest.raises(ParseError, match=r"line 2, column"):
            hw.parse_state_text('{"dims": [2],\n "amps": }')

    def test_missing_field(self):
        with pytest.raises(ParseError, match="missing field 'amps'"):
            hw.parse_state_text('{"dims": [2]}')

    def test_dims_not_integers(self):
        with pytest.raises(ParseError, match="dims"):
            hw.parse_state_text('{"dims": [2.5], "amps": [[1, 0], [0, 0]]}')

    @pytest.mark.parametrize(
        "text, field",
        [
            ('{"dims": [2, 2], "amps": [[true, false], [0, 0], [0, 0], [1, 0]]}', "amps"),
            ('{"dims": [2, true], "amps": [[1, 0], [0, 0]]}', "dims"),
        ],
        ids=["amps", "dims"],
    )
    def test_booleans_are_not_numbers(self, text, field):
        with pytest.raises(ParseError, match=f"{field} must be a list of"):
            hw.parse_state_text(text)

    def test_amps_not_pairs(self):
        with pytest.raises(ParseError, match="amps"):
            hw.parse_state_text('{"dims": [2], "amps": [1, 0]}')

    def test_length_mismatch(self):
        with pytest.raises(ParseError, match="expected 4 amplitudes"):
            hw.parse_state_text('{"dims": [2, 2], "amps": [[1, 0], [0, 0]]}')

    def test_zero_vector(self):
        with pytest.raises(ParseError, match="normalize"):
            hw.parse_state_text('{"dims": [2], "amps": [[0, 0], [0, 0]]}')

    def test_overflowing_norm(self):
        text = '{"dims": [2, 2], "amps": [[1e308, 0], [0, 0], [0, 0], [1e308, 0]]}'
        with pytest.raises(ParseError, match="norm inf"):
            hw.parse_state_text(text)

    def test_integer_too_large_for_a_float(self):
        text = '{"dims": [2, 2], "amps": [[%s, 0], [0, 0], [0, 0], [1, 0]]}' % ("9" * 400)
        with pytest.raises(ParseError, match=r"^<string>: amplitude too large for a float"):
            hw.parse_state_text(text)

    def test_integer_longer_than_the_digit_limit(self):
        text = '{"dims": [2], "amps": [[%s, 0], [0, 0]]}' % ("9" * 5000)
        with pytest.raises(ParseError, match=r"^<string>: invalid JSON: "):
            hw.parse_state_text(text)

    @pytest.mark.parametrize("closed", [False, True], ids=["unclosed", "closed"])
    def test_deep_nesting(self, closed):
        depth = 10**5
        text = '{"dims": [2], "amps": ' + "[" * depth + ("]" * depth + "}" if closed else "")
        with pytest.raises(ParseError, match=r"^<string>: JSON nested too deeply$"):
            hw.parse_state_text(text)

    def test_dimension_below_two(self):
        with pytest.raises(ParseError, match=">= 2"):
            hw.parse_state_text('{"dims": [1, 4], "amps": [[1,0],[0,0],[0,0],[0,0]]}')

    def test_top_level_not_object(self):
        with pytest.raises(ParseError, match="top level"):
            hw.parse_state_text("[1, 2, 3]")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError, match="cannot read"):
            hw.load_state(tmp_path / "does-not-exist.json")

    def test_not_utf8_names_the_file(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"dims": [2], "amps": [[1, 0], [0, 0]]} \u00e9'.encode("latin-1"))
        with pytest.raises(ParseError, match=rf"^{re.escape(str(path))}: not UTF-8 text"):
            hw.load_state(path)
