"""Pinned MPS digests: the LP text every approach emits stays byte-identical.

A refactor of lowering or row emission must reproduce these exactly; a
change that is meant to alter the LP updates the pins in the same commit.
"""

import hashlib

import pytest

from flowgraph import (
    Approach,
    CaseSpec,
    build_model,
    hybrid_fixture,
    mps_string,
    scale_horizon,
    tri_area_case,
)

HYBRID = {
    "3BB-4F": "98d86c24abeba49ba07bd6cfd48cd11d5c187af9b1c9766d1cc2b9bec7cd6d74",
    "2BB-2F": "caff1f3b66fd85579b7a2b314e1df0e86c1554bad9c8a7cb526ddd0794cfff6d",
    "2BB-1F": "f217a8e19fc4b8f8dc200781fa727b61016de2c9e4ee1249631a946fbed7da7e",
    "1BB-1F": "a9c89997f2989de82fc0fbf08f8b2c7e3d5a3c2f842154fee0d8cce9d9a6e551",
}

TRI_AREA_T24 = {
    "3BB-4F": "8a849160ccce0ba3cc6947d2a913587f8887eff1c22732ee7e126f3043266dcb",
    "2BB-2F": "58f91ad46ef823cb218a0f49def8317d652662367579730625d4cea4542d57f3",
    "2BB-1F": "c2f4019f092d590218dc104e56172e6c0bbe951472c37ba995645e3aa3ce92a7",
    "1BB-1F": "91a88991623bce21b40caff589d75cba50b8c9e6790aa47794260e5bd55ca6e2",
}

CASES = {
    "hybrid": (hybrid_fixture, HYBRID),
    "tri-area-t24": (lambda: scale_horizon(tri_area_case(CaseSpec()), 24), TRI_AREA_T24),
}


@pytest.mark.parametrize("approach", list(Approach), ids=lambda a: a.value)
@pytest.mark.parametrize("case", sorted(CASES))
def test_mps_digest_pinned(case, approach):
    make, pins = CASES[case]
    text = mps_string(build_model(make(), approach))
    assert hashlib.sha256(text.encode()).hexdigest() == pins[approach.value]
