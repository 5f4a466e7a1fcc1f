import pytest

from milrank.rng import derive_rng, mix_to_seed


@pytest.mark.parametrize("key", [(-1,), (0, -1)])
@pytest.mark.parametrize("keyed", [derive_rng, mix_to_seed])
def test_negative_key_part_rejected(keyed, key):
    with pytest.raises(ValueError, match="non-negative"):
        keyed(*key)
