"""The shared refusal of work that cannot be held, and the number test."""

import sys
from fractions import Fraction

import numpy as np
import pytest

from coevobn import ValidationError, errors
from coevobn.errors import check_number, is_number, refuse_out_of_memory


class TestRefuseOutOfMemory:
    def test_a_need_past_maxsize_is_refused_before_the_block_runs(self):
        ran = []
        with pytest.raises(ValidationError) as info:
            with refuse_out_of_memory("holding it all:", sys.maxsize + 1):
                ran.append(True)
        assert str(info.value) == f"out of memory holding it all: {sys.maxsize + 1} bytes"
        assert ran == []

    def test_a_need_past_the_address_space_limit_is_refused_at_once(self, monkeypatch):
        monkeypatch.setattr(errors.resource, "getrlimit",  # a soft limit of 8 bytes
                            lambda which: (8, errors.resource.RLIM_INFINITY))
        ran = []
        with pytest.raises(ValidationError) as info:
            with refuse_out_of_memory("holding it all:", 9):
                ran.append(True)
        assert str(info.value) == "out of memory holding it all: 9 bytes"
        assert ran == []
        with refuse_out_of_memory("holding it all:", 8):
            ran.append(True)
        assert ran == [True]

    def test_a_memory_error_in_the_block_becomes_the_same_refusal(self):
        with pytest.raises(ValidationError) as info:
            with refuse_out_of_memory("holding it all:", 8):
                raise MemoryError
        assert str(info.value) == "out of memory holding it all: 8 bytes"
        assert info.value.__suppress_context__

    def test_any_other_outcome_passes_through(self):
        with refuse_out_of_memory("holding it all:", sys.maxsize):
            value = 1
        assert value == 1
        with pytest.raises(KeyError):
            with refuse_out_of_memory("holding it all:", 8):
                raise KeyError("not memory")


class TestIsNumber:
    @pytest.mark.parametrize("value", [0, -3, 2 ** 80, np.int64(5), np.uint8(1)])
    def test_integers_are_numbers_of_both_kinds(self, value):
        assert is_number(value) and is_number(value, integer=True)

    @pytest.mark.parametrize("value", [0.5, float("inf"), np.float64(2.0),
                                       Fraction(1, 3)])
    def test_reals_are_numbers_but_not_integers(self, value):
        assert is_number(value) and not is_number(value, integer=True)

    @pytest.mark.parametrize("value", [True, False, np.bool_(True), "1", None,
                                       [1], 1j])
    def test_bools_and_non_numbers_are_neither(self, value):
        assert not is_number(value) and not is_number(value, integer=True)

    def test_check_number_refuses_what_is_number_refuses(self):
        for value in (True, "1", 0.5):
            with pytest.raises(ValidationError, match="must be an integer"):
                check_number("count", value, integer=True)
        with pytest.raises(ValidationError, match="must be a number, got True"):
            check_number("rate", True)
        check_number("rate", 0.5, low=0, high=1)
