"""The shared refusal of work that cannot be held."""

import sys

import pytest

from coevobn import ValidationError
from coevobn.errors import refuse_out_of_memory


class TestRefuseOutOfMemory:
    def test_a_need_past_maxsize_is_refused_before_the_block_runs(self):
        ran = []
        with pytest.raises(ValidationError) as info:
            with refuse_out_of_memory("holding it all:", sys.maxsize + 1):
                ran.append(True)
        assert str(info.value) == f"out of memory holding it all: {sys.maxsize + 1} bytes"
        assert ran == []

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
