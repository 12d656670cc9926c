"""The contract of the request model: the hand-written ``CanonicalRequest.__init__``
matches the fields it sets, and the instances behave as frozen dataclasses."""

from __future__ import annotations

import copy
import dataclasses
import inspect
import pickle

import pytest

from iostack import AccessMode, CanonicalRequest, Op, Origin, RequestRecord

ARGS = (10, Origin.APP, Op.WRITE, 3, 4096, 512, 8192, AccessMode.WRITE_THROUGH)
FIELDS = dataclasses.fields(CanonicalRequest)


def request(**changes) -> CanonicalRequest:
    values = {f.name: value for f, value in zip(FIELDS, ARGS)}
    return CanonicalRequest(**{**values, **changes})


class TestCanonicalRequest:
    def test_frozen_and_slotted(self):
        r = CanonicalRequest(*ARGS)
        with pytest.raises(dataclasses.FrozenInstanceError):
            r.length_bytes = 0
        assert not hasattr(r, "__dict__")

    def test_init_signature_matches_fields(self):
        params = list(inspect.signature(CanonicalRequest).parameters.values())
        assert [p.name for p in params] == [f.name for f in FIELDS]
        assert [p.default for p in params] == [
            inspect.Parameter.empty if f.default is dataclasses.MISSING else f.default for f in FIELDS
        ]

    def test_positional_and_keyword_construction_agree(self):
        positional, keyword = CanonicalRequest(*ARGS), request()
        assert positional == keyword and hash(positional) == hash(keyword)
        assert [getattr(positional, f.name) for f in FIELDS] == list(ARGS)
        assert CanonicalRequest(*ARGS[:-1]).mode is AccessMode.NORMAL

    def test_replace_pickle_and_deepcopy_round_trip(self):
        r = CanonicalRequest(*ARGS)
        moved = dataclasses.replace(r, disk_byte_addr=0)
        assert moved.disk_byte_addr == 0 and dataclasses.replace(moved, disk_byte_addr=8192) == r
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(r, protocol)) == r
        assert copy.deepcopy(r) == r

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"issue_time_us": -1}, "issue_time_us must be >= 0"),
            ({"file_offset_bytes": -1}, "offset and length must be >= 0"),
            ({"length_bytes": -1}, "offset and length must be >= 0"),
            ({"disk_byte_addr": -1}, "disk_byte_addr must be >= 0"),
            # The checks run in this order: the time is named first.
            ({"issue_time_us": -1, "disk_byte_addr": -1}, "issue_time_us must be >= 0"),
        ],
    )
    def test_checks_raise_their_messages(self, changes, message):
        with pytest.raises(ValueError) as exc:
            request(**changes)
        assert str(exc.value) == message


class TestRequestRecord:
    def test_slotted_and_checked(self):
        record = RequestRecord(0, 5, 9, 512, Op.READ, AccessMode.NORMAL, Origin.APP)
        assert not hasattr(record, "__dict__") and record.latency_us == 4
        with pytest.raises(ValueError, match="complete_us must be >= issue_us"):
            RequestRecord(0, 9, 5, 512, Op.READ, AccessMode.NORMAL, Origin.APP)
