"""Seeded outputs of the samplers, pinned by sha256 digest.

The samplers' draws are part of their contract: a faster lookup, a
different array layout or a narrower dtype must leave every seeded output
identical to the bit.  Each digest below was recorded before the samplers'
per-draw searches and row reductions were replaced, so these tests hold the
new code to the old draws.
"""

import hashlib
import json
from fractions import Fraction as F

import numpy as np
import pytest

from pitman_lab import (
    Params,
    PointMass,
    RngStream,
    parse_initial_law,
    rejection_oracle,
    sample_chain,
    v_law_from_initial,
    verify_tropical,
)
from pitman_lab.sampling import _chain_rows


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(f"{part.dtype.str}{part.shape}".encode())
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(json.dumps(part, sort_keys=True).encode())
    return h.hexdigest()[:24]


_ORACLE_CASES = {"I": (Params(F(1, 2), F(1)), PointMass(1)),
                 "II": (Params(F(3, 2), F(1, 2)), PointMass(2))}

# (t, part, pad) -> digest of the entries in order, ``accepted`` and
# ``truncation_bound.hex()`` of rejection_oracle(..., n_samples=60000,
# rng=RngStream(7)); 60000 walks cross one _REJECTION_CHUNK edge
ORACLE_PINS = {
    (0, "I", 60): "1e02d6d00870520d4d2a1a64",
    (0, "I", 130): "20961819d07a821bb0fca48a",
    (0, "I", 300): "d9092b706323b67306cb83dc",
    (0, "II", 60): "d60235f9ae67661aa4b76aed",
    (0, "II", 130): "8e4f565524a272a629a1cefe",
    (0, "II", 300): "fb7b659371109efd211425b6",
    (3, "I", 0): "f1750c4402deb40c38420a5a",
    (3, "I", 60): "cf48bb3417dda2a7cd786dc9",
    (3, "I", 130): "a849571679f3e11e951edd9b",
    (3, "I", 300): "36bf9f2e4c7b6334e9dc86ff",
    (3, "II", 0): "dcf73839e6f98386f2a1dcf3",
    (3, "II", 60): "1d62fe68b7321c5adf31286e",
    (3, "II", 130): "36c034901c69e6da35281497",
    (3, "II", 300): "04c8b654428c322ecbe86a80",
    (5, "I", 0): "bd48b6baa1ca479784bc88cc",
    (5, "I", 60): "aad0950cbced5b13749e4bb7",
    (5, "I", 130): "eea426aa43f5b57a7e524aa7",
    (5, "I", 300): "f594741a24aade6897eaa88d",
    (5, "II", 0): "5131c381e0013bc59fcb9b9d",
    (5, "II", 60): "c6c25e398a4b610c2896cdcf",
    (5, "II", 130): "d552aa4be1bd1e82abe6e7c2",
    (5, "II", 300): "a524123928d13d9c7323746a",
    (12, "I", 0): "f27b82b51755d5e1fffa2504",
    (12, "I", 60): "48acef09bcf3bf8015e6a2b1",
    (12, "I", 130): "cc9e164ec4f0822f09eb2817",
    (12, "I", 300): "afbf00c08c6c48fa3303dc0d",
    (12, "II", 0): "dfb89fdf968edc76a3038fd9",
    (12, "II", 60): "196edf99250e3d7b3449bbb4",
    (12, "II", 130): "ad868782015f953d008718d0",
    (12, "II", 300): "d7775fa356ababf29b3f8766",
}


@pytest.mark.parametrize("t,part,pad", sorted(ORACLE_PINS), ids=str)
def test_rejection_oracle_draws_are_pinned(t, part, pad):
    params, law = _ORACLE_CASES[part]
    vlaw = v_law_from_initial(law, params, part)
    res = rejection_oracle(t, vlaw, params, part, horizon_pad=pad, n_samples=60000,
                           rng=RngStream(7))
    entries = [[str(path), p.hex()] for path, p in res["table"].entries.items()]
    got = _digest(entries, res["accepted"], res["truncation_bound"].hex())
    assert got == ORACLE_PINS[t, part, pad]


# (initial, rho, sigma) -> digests of sample_chain(400, ..., RngStream(5),
# n=5000) and of the starts and two-row ring of _chain_rows at the same
# arguments: 2 * 10^6 steps, enough for some digits to tie a threshold
CHAIN_PINS = {
    ("point:1", "1", "0"): ("0a03d1c77da4e815746ffaad", "b40018bffec25141a3d5e57b"),
    ("point:3", "2/3", "1"): ("1db3c685f983b40ed114ee30", "d3d0c89556fa9fc2c7e21238"),
    ("finite:0=1/2,40000=1/2", "3/2", "1/3"): ("f059f8fcb77ef612b549091a",
                                                "62810786f7d5767a9761316e"),
}


@pytest.mark.parametrize("initial,rho,sigma", sorted(CHAIN_PINS), ids=str)
def test_chain_draws_are_pinned(initial, rho, sigma):
    law, params = parse_initial_law(initial), Params(F(rho), F(sigma))
    paths = sample_chain(400, law, params, RngStream(5), n=5000)
    start, ring = _chain_rows(400, law, params, RngStream(5), 5000, 2)
    assert (_digest(paths), _digest(start, ring)) == CHAIN_PINS[initial, rho, sigma]


def test_tropical_report_is_pinned():
    report = verify_tropical(7, 50, 10000, 60, 11)
    assert report["status"] == "PASS"
    assert _digest(report) == "de42211b1c9ba7044b4921a5"
