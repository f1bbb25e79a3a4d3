"""Property-based tests for JobSpec canonicalization and hashing.

The properties are driven by a seeded numpy generator rather than
hypothesis: a few hundred random nested plain-data payloads per
property, fully reproducible from the seed alone. The invariants under test are the
load-bearing ones for the cache and the distributed queue:

- ``to_dict`` / ``from_dict`` round-trips preserve the content hash
  (the broker stores specs as canonical JSON and rebuilds them in
  whichever worker leases them);
- the hash is invariant under dict key order, tuple-vs-list spelling
  and numpy-vs-Python scalar spelling;
- ``label`` and ``extra`` are provably cosmetic: any relabeling leaves
  hash and identity dict untouched;
- anything without a canonical JSON form is rejected at construction.
"""

import json

import numpy as np
import pytest

from repro.errors import ExecError
from repro.exec import (
    Broker,
    JobSpec,
    canonical_json,
    canonical_value,
    json_roundtrip,
)

N_CASES = 200

_SCALAR_MAKERS = (
    lambda rng: None,
    lambda rng: bool(rng.integers(0, 2)),
    lambda rng: int(rng.integers(-(10**12), 10**12)),
    lambda rng: float(rng.standard_normal() * 10.0 ** rng.integers(-8, 9)),
    lambda rng: float(rng.integers(-5, 6)),  # integral floats survive too
    lambda rng: np.float64(rng.standard_normal()),
    lambda rng: np.int32(rng.integers(-(2**31), 2**31)),
    lambda rng: np.bool_(rng.integers(0, 2)),
    lambda rng: "".join(
        chr(int(c))
        for c in rng.integers(32, 0x2FF, size=int(rng.integers(0, 12)))
    ),
)


def random_value(rng, depth=3):
    """One random canonicalizable value, nesting up to ``depth`` levels."""
    if depth <= 0 or rng.random() < 0.5:
        return _SCALAR_MAKERS[rng.integers(0, len(_SCALAR_MAKERS))](rng)
    roll = rng.random()
    n = int(rng.integers(0, 5))
    if roll < 0.4:
        return [random_value(rng, depth - 1) for _ in range(n)]
    if roll < 0.6:
        return tuple(random_value(rng, depth - 1) for _ in range(n))
    return {
        f"k{i}_{rng.integers(0, 1000)}": random_value(rng, depth - 1)
        for i in range(n)
    }


def random_kwargs(rng, depth=3):
    return {
        f"arg{i}": random_value(rng, depth) for i in range(int(rng.integers(0, 6)))
    }


def random_spec(rng, kwargs=None):
    seeded = bool(rng.integers(0, 2))
    return JobSpec(
        fn="repro.exec.demo:scaled_sum",
        kwargs=random_kwargs(rng) if kwargs is None else kwargs,
        seed_entropy=int(rng.integers(0, 2**63)) if seeded else None,
        spawn_key=tuple(
            int(k) for k in rng.integers(0, 100, size=int(rng.integers(0, 3)))
        )
        if seeded
        else (),
        version=f"v{int(rng.integers(0, 10))}",
    )


def shuffled_copy(value, rng):
    """Deep copy with every dict's key insertion order randomized."""
    if isinstance(value, dict):
        keys = list(value)
        rng.shuffle(keys)
        return {k: shuffled_copy(value[k], rng) for k in keys}
    if isinstance(value, list):
        return [shuffled_copy(v, rng) for v in value]
    return value


class TestRoundTrip:
    def test_to_dict_from_dict_preserves_hash_and_identity(self):
        rng = np.random.default_rng(20230811)
        for _ in range(N_CASES):
            spec = random_spec(rng)
            rebuilt = JobSpec.from_dict(spec.to_dict(), label="renamed")
            assert rebuilt.content_hash() == spec.content_hash()
            assert rebuilt.to_dict() == spec.to_dict()

    def test_round_trip_through_json_text(self):
        """The broker's wire format: canonical JSON text, then rebuild."""
        rng = np.random.default_rng(774411)
        for _ in range(N_CASES):
            spec = random_spec(rng)
            wire = canonical_json(spec.to_dict())
            rebuilt = JobSpec.from_dict(json.loads(wire))
            assert rebuilt.content_hash() == spec.content_hash()
            assert canonical_json(rebuilt.to_dict()) == wire

    def test_kwargs_survive_json_exactly(self):
        rng = np.random.default_rng(99)
        for _ in range(N_CASES):
            spec = random_spec(rng)
            assert json_roundtrip(spec.kwargs) == spec.kwargs

    def test_round_trip_through_a_real_broker(self, tmp_path):
        """Lease returns a spec whose identity equals the submitted one."""
        rng = np.random.default_rng(31337)
        specs = [random_spec(rng) for _ in range(25)]
        with Broker(str(tmp_path / "queue.db")) as broker:
            broker.submit(specs)
            seen = {}
            while True:
                lease = broker.lease("prop")
                if lease is None:
                    break
                seen[lease.content_hash] = lease.job
                broker.complete("prop", lease.content_hash, None)
        # duplicates collapse: every distinct hash came back exactly once
        assert set(seen) == {s.content_hash() for s in specs}
        for spec in specs:
            rebuilt = seen[spec.content_hash()]
            assert rebuilt.to_dict() == spec.to_dict()
            assert rebuilt.content_hash() == spec.content_hash()


class TestHashInvariance:
    def test_hash_invariant_under_dict_key_order(self):
        rng = np.random.default_rng(555)
        for _ in range(N_CASES):
            kwargs = random_kwargs(rng)
            spec = JobSpec(fn="m:f", kwargs=kwargs, version="v")
            shuffled = JobSpec(
                fn="m:f", kwargs=shuffled_copy(kwargs, rng), version="v"
            )
            assert shuffled.content_hash() == spec.content_hash()
            assert canonical_json(shuffled.to_dict()) == canonical_json(spec.to_dict())

    def test_hash_invariant_under_tuple_vs_list_spelling(self):
        rng = np.random.default_rng(556)

        def listify(value):
            if isinstance(value, (list, tuple)):
                return [listify(v) for v in value]
            if isinstance(value, dict):
                return {k: listify(v) for k, v in value.items()}
            return value

        for _ in range(N_CASES):
            kwargs = random_kwargs(rng)
            a = JobSpec(fn="m:f", kwargs=kwargs)
            b = JobSpec(fn="m:f", kwargs=listify(kwargs))
            assert a.content_hash() == b.content_hash()

    def test_hash_invariant_under_numpy_scalar_spelling(self):
        cases = [
            ({"x": np.float64(0.1)}, {"x": 0.1}),
            ({"x": np.int64(7)}, {"x": 7}),
            ({"x": np.bool_(True)}, {"x": True}),
            ({"x": [np.float32(1.5), np.int16(2)]}, {"x": [1.5, 2]}),
        ]
        for numpy_kwargs, plain_kwargs in cases:
            a = JobSpec(fn="m:f", kwargs=numpy_kwargs)
            b = JobSpec(fn="m:f", kwargs=plain_kwargs)
            assert a.content_hash() == b.content_hash()

    def test_distinct_payloads_get_distinct_hashes(self):
        """Sanity bound: no accidental collisions over the random corpus."""
        rng = np.random.default_rng(557)
        seen = {}
        for _ in range(N_CASES):
            spec = random_spec(rng)
            blob = canonical_json(spec.to_dict())
            previous = seen.setdefault(spec.content_hash(), blob)
            assert previous == blob

    def test_every_hashed_field_matters(self):
        base = dict(fn="m:f", kwargs={"x": 1}, seed_entropy=7, spawn_key=(1,),
                    version="v1")
        spec = JobSpec(**base)
        perturbed = [
            JobSpec(**{**base, "fn": "m:g"}),
            JobSpec(**{**base, "kwargs": {"x": 2}}),
            JobSpec(**{**base, "seed_entropy": 8}),
            JobSpec(**{**base, "spawn_key": (2,)}),
            JobSpec(**{**base, "version": "v2"}),
        ]
        hashes = {p.content_hash() for p in perturbed}
        assert spec.content_hash() not in hashes
        assert len(hashes) == len(perturbed)


class TestCosmeticFields:
    def test_label_and_extra_are_provably_cosmetic(self):
        rng = np.random.default_rng(888)
        for _ in range(N_CASES):
            kwargs = random_kwargs(rng)
            plain = JobSpec(fn="m:f", kwargs=kwargs, version="v")
            decorated = JobSpec(
                fn="m:f",
                kwargs=kwargs,
                version="v",
                label="".join(chr(int(c)) for c in rng.integers(33, 127, size=8)),
                extra={"side_channel": random_value(rng, depth=2)},
            )
            assert decorated.content_hash() == plain.content_hash()
            assert decorated.to_dict() == plain.to_dict()
            assert "label" not in decorated.to_dict()
            assert "extra" not in decorated.to_dict()

    def test_extra_must_not_shadow_kwargs(self):
        with pytest.raises(ExecError, match="shadow"):
            JobSpec(fn="m:f", kwargs={"x": 1}, extra={"x": 2})


class TestRejection:
    @pytest.mark.parametrize(
        "bad",
        [
            {"x": object()},
            {"x": {1: "non-string key"}},
            {"x": {(1, 2): "tuple key"}},
            {"x": {"nested": [1, {"deep": set()}]}},
            {"x": np.arange(3)},  # arrays must travel encoded, not raw
            {"x": lambda: None},
            {"x": b"bytes"},
        ],
    )
    def test_non_plain_data_rejected_at_construction(self, bad):
        with pytest.raises(ExecError):
            JobSpec(fn="m:f", kwargs=bad)

    def test_canonical_value_output_vocabulary(self):
        """Whatever comes out is built from the 6 canonical types only."""
        rng = np.random.default_rng(4242)

        def check(value):
            if isinstance(value, (bool, int, float, str)) or value is None:
                return
            if isinstance(value, list):
                for v in value:
                    check(v)
                return
            if isinstance(value, dict):
                for k, v in value.items():
                    assert type(k) is str
                    check(v)
                return
            raise AssertionError(f"non-canonical type {type(value)!r} leaked")

        for _ in range(N_CASES):
            check(canonical_value(random_value(rng)))
