"""Unit tests for the 8-byte address scheme (repro.msg.address)."""

import pytest

from repro.errors import AddressError
from repro.msg import (
    ADDRESS_SIZE,
    Address,
    make_group_address,
    make_process_address,
)


def test_pack_is_eight_bytes():
    addr = make_process_address(3, 1, 42, entry=7)
    assert len(addr.pack()) == ADDRESS_SIZE


def test_pack_unpack_roundtrip():
    addr = make_process_address(65535, 255, 65535, entry=255)
    assert Address.unpack(addr.pack()) == addr


def test_group_flag_roundtrip():
    gid = make_group_address(2, 9)
    assert gid.is_group
    assert Address.unpack(gid.pack()).is_group


def test_null_address():
    null = Address.null()
    assert null.is_null
    assert Address.unpack(null.pack()).is_null


def test_unpack_rejects_wrong_length():
    with pytest.raises(AddressError):
        Address.unpack(b"\x00" * 7)


def test_field_range_validation():
    with pytest.raises(AddressError):
        Address(site=70000)
    with pytest.raises(AddressError):
        Address(incarnation=300)
    with pytest.raises(AddressError):
        Address(local_id=-1)
    with pytest.raises(AddressError):
        Address(entry=256)


def test_with_entry_changes_only_entry():
    addr = make_process_address(1, 0, 5, entry=0)
    entry9 = addr.with_entry(9)
    assert entry9.entry == 9
    assert entry9.process() == addr.process()


def test_same_process_ignores_entry():
    a = make_process_address(1, 2, 3, entry=4)
    b = make_process_address(1, 2, 3, entry=200)
    c = make_process_address(1, 2, 4, entry=4)
    assert a.same_process(b)
    assert not a.same_process(c)


def test_incarnation_distinguishes_restarted_site():
    before = make_process_address(1, 0, 3)
    after = make_process_address(1, 1, 3)
    assert not before.same_process(after)


def test_addresses_are_hashable_and_ordered():
    a = make_process_address(1, 0, 1)
    b = make_process_address(1, 0, 2)
    assert len({a, b, a}) == 2
    assert sorted([b, a]) == [a, b]


def test_str_forms():
    assert "grp" in str(make_group_address(1, 2))
    assert "proc" in str(make_process_address(1, 0, 2))
    assert str(Address.null()) == "<null>"


def test_process_of_entryless_address_is_itself():
    addr = make_process_address(1, 0, 5)
    assert addr.process() is addr
    gid = make_group_address(2, 9)
    assert gid.process() is gid


def test_process_and_with_entry_keep_value_semantics():
    base = make_process_address(1, 2, 3)
    entry9 = base.with_entry(9)
    twin = entry9.process()
    assert twin == base and hash(twin) == hash(base)
    assert twin.entry == 0 and entry9.entry == 9
    assert entry9.process() is twin            # memoised, not rebuilt
    assert entry9 != base and entry9 == make_process_address(1, 2, 3, entry=9)
    assert hash(entry9) == hash(make_process_address(1, 2, 3, entry=9))
    assert sorted([entry9, base]) == [base, entry9]
    assert len({base, twin, entry9}) == 2


def test_unpack_shares_one_instance_per_packed_form():
    raw = make_process_address(7, 1, 42, entry=3).pack()
    assert Address.unpack(raw) is Address.unpack(bytes(raw))
    assert Address.unpack(bytearray(raw)) is Address.unpack(raw)
    assert Address.unpack(raw) == make_process_address(7, 1, 42, entry=3)


def test_intern_table_stays_bounded():
    from repro.msg import address as address_module

    cap = address_module._INTERN_CAP
    for n in range(cap + 500):
        addr = Address.unpack(
            make_process_address(n & 0xFFFF, n >> 16, 1).pack())
        assert addr.site == n & 0xFFFF
        assert len(address_module._interned) <= cap
    # Cleared, not corrupted: a dropped form decodes to an equal address.
    assert Address.unpack(make_process_address(0, 0, 1).pack()) == \
        make_process_address(0, 0, 1)


def test_unpack_still_rejects_malformed_input():
    good = make_process_address(1, 0, 1).pack()
    for bad in (b"", good[:7], good + b"\x00", bytearray(good[:3])):
        with pytest.raises(AddressError):
            Address.unpack(bad)
    with pytest.raises(AddressError):
        make_process_address(1, 0, 1).with_entry(256)
    with pytest.raises(AddressError):
        make_process_address(1, 0, 1).with_entry(-1)


def test_packed_bytes_and_hash_are_memos_not_fields():
    import dataclasses

    fields_before = [f.name for f in dataclasses.fields(Address)]
    for addr in (make_process_address(3, 1, 42, entry=7),
                 make_group_address(2, 9), Address.null()):
        packed, hashed = addr.pack(), hash(addr)
        assert addr.pack() is packed               # memoised, not rebuilt
        fresh = dataclasses.replace(addr)
        assert fresh.pack() == packed and hash(fresh) == hashed
        # the hash a frozen dataclass derives from its fields
        assert hashed == hash(dataclasses.astuple(addr))
        assert fresh == addr and not fresh < addr and not addr < fresh
        assert Address.unpack(packed) == addr
    assert [f.name for f in dataclasses.fields(Address)] == fields_before == [
        "site", "incarnation", "local_id", "entry", "is_group", "is_null"]
