import itertools
import random
import struct

import pytest

from dhcpguard.dhcp import (
    AddressPool,
    BadChecksum,
    BadLength,
    BODY_SIZE,
    ClientState,
    DhcpClient,
    DhcpCodecError,
    DhcpMessage,
    DhcpServer,
    InvalidField,
    MAX_IPV4,
    MsgType,
    PoolExhausted,
    UNASSIGNED,
    UnknownType,
    WIRE_SIZE,
    checksum16,
    decode_message,
    encode_message,
    format_ipv4,
    format_mac,
    parse_ipv4,
    parse_mac,
)


def random_message(rng):
    msg_type = rng.choice(list(MsgType))
    your_ip = UNASSIGNED if msg_type is MsgType.DISCOVER else rng.getrandbits(32)
    if msg_type in (MsgType.OFFER, MsgType.ACK):
        server_id = rng.randrange(1, 2**32)
    else:
        server_id = rng.getrandbits(32)
    return DhcpMessage(
        msg_type=msg_type,
        xid=rng.getrandbits(32),
        client_mac=bytes(rng.randrange(256) for _ in range(6)),
        your_ip=your_ip,
        server_id=server_id,
        gateway=rng.getrandbits(32),
        dns=rng.getrandbits(32),
        lease_secs=rng.getrandbits(24),
    )


ADDRESS_FIELDS = ("your_ip", "server_id", "gateway", "dns")


def address_extreme_messages():
    """Every valid message with each address field at 0 or 2**32 - 1."""
    for msg_type in MsgType:
        for ips in itertools.product((0, MAX_IPV4), repeat=len(ADDRESS_FIELDS)):
            fields = dict(zip(ADDRESS_FIELDS, ips))
            if msg_type is MsgType.DISCOVER and fields["your_ip"]:
                continue
            if msg_type in (MsgType.OFFER, MsgType.ACK) and not fields["server_id"]:
                continue
            yield DhcpMessage(msg_type, 0x01020304, b"\x02" * 6, lease_secs=60, **fields)


# -- codec ----------------------------------------------------------------


def test_zero_discover_layout():
    msg = DhcpMessage(MsgType.DISCOVER, 0, b"\x00" * 6)
    data = encode_message(msg)
    assert len(data) == WIRE_SIZE == 32
    assert data[0] == 1
    assert all(b == 0 for b in data[1:BODY_SIZE])
    # only the type byte contributes: checksum is the complement of its
    # high-byte column sum
    assert int.from_bytes(data[BODY_SIZE:], "big") == (~(1 << 8)) & 0xFFFF == 0xFEFF


def test_offer_round_trip():
    msg = DhcpMessage(
        MsgType.OFFER,
        xid=0xDEADBEEF,
        client_mac=parse_mac("02:00:00:00:00:04"),
        your_ip=parse_ipv4("10.0.1.7"),
        server_id=parse_ipv4("10.0.0.2"),
        gateway=parse_ipv4("10.0.0.1"),
        dns=parse_ipv4("10.0.0.1"),
        lease_secs=3600,
    )
    assert decode_message(encode_message(msg)) == msg


def test_round_trip_corpus():
    rng = random.Random(20240817)
    for _ in range(1000):
        msg = random_message(rng)
        assert decode_message(encode_message(msg)) == msg


def test_decode_returns_int_addresses():
    msg = decode_message(encode_message(DhcpMessage(
        MsgType.ACK, 7, b"\x02" * 6, your_ip=parse_ipv4("10.0.1.7"),
        server_id=parse_ipv4("10.0.0.2"), gateway=parse_ipv4("10.0.0.1"),
        dns=parse_ipv4("255.255.255.255"))))
    for name in ADDRESS_FIELDS:
        assert type(getattr(msg, name)) is int, name
    assert (msg.your_ip, msg.server_id, msg.gateway, msg.dns) == (
        0x0A000107, 0x0A000002, 0x0A000001, MAX_IPV4)


def test_address_fields_sit_big_endian_at_their_wire_offsets():
    msg = DhcpMessage(MsgType.OFFER, 1, b"\x02" * 6, your_ip=0x01020304,
                      server_id=0x05060708, gateway=0x090A0B0C, dns=0x0D0E0F10)
    assert encode_message(msg)[11:27] == bytes(range(1, 17))


def test_checksum_detects_every_single_byte_corruption():
    rng = random.Random(99)
    for _ in range(5):
        data = bytearray(encode_message(random_message(rng)))
        for pos in range(BODY_SIZE):
            corrupted = bytearray(data)
            corrupted[pos] ^= rng.randrange(1, 256)
            with pytest.raises(BadChecksum):
                decode_message(bytes(corrupted))


def test_bad_length():
    with pytest.raises(BadLength):
        decode_message(b"\x00" * 31)
    with pytest.raises(BadLength):
        decode_message(b"\x00" * 33)


def _with_checksum(body: bytes) -> bytes:
    return body + checksum16(body).to_bytes(2, "big")


def test_unknown_type():
    body = bytearray(BODY_SIZE)
    body[0] = 9  # not a known message type
    with pytest.raises(UnknownType):
        decode_message(_with_checksum(bytes(body)))


def test_invalid_field_offer_without_server_id():
    body = bytearray(BODY_SIZE)
    body[0] = int(MsgType.OFFER)  # server_id stays 0.0.0.0
    with pytest.raises(InvalidField):
        decode_message(_with_checksum(bytes(body)))


def _reference_checksum16(data: bytes) -> int:
    """Word-at-a-time loop the struct-based checksum16 must agree with."""
    if len(data) % 2:
        data = data + b"\x00"
    total = 0
    for i in range(0, len(data), 2):
        total += (data[i] << 8) | data[i + 1]
    while total > 0xFFFF:
        total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF


def test_checksum16_matches_reference_loop():
    rng = random.Random(1613)
    for length in range(65):
        bodies = [bytes(rng.randrange(256) for _ in range(length)) for _ in range(20)]
        bodies += [b"\xff" * length, b"\x00" * length]
        for body in bodies:
            assert checksum16(body) == _reference_checksum16(body), (length, body)
    # all-0xff words overflow 16 bits many times, so the carry fold runs
    assert checksum16(b"\xff" * 64) == _reference_checksum16(b"\xff" * 64) == 0


def test_flipped_byte_in_valid_offer_is_bad_checksum():
    msg = DhcpMessage(MsgType.OFFER, 1, b"\x02" * 6, server_id=parse_ipv4("10.0.0.2"))
    data = bytearray(encode_message(msg))
    data[12] ^= 0x40
    with pytest.raises(BadChecksum):
        decode_message(bytes(data))


_HEAD = struct.Struct(">BI6sIIII")


def _reference_decode(data: bytes) -> DhcpMessage:
    """The decode the one-unpack decoder must agree with: :func:`checksum16`
    on the body, the type through ``MsgType(b)``, and the 24-bit lease
    through ``int.from_bytes``."""
    if len(data) != WIRE_SIZE:
        raise BadLength(f"expected {WIRE_SIZE} bytes, got {len(data)}")
    body, stored = data[:BODY_SIZE], int.from_bytes(data[BODY_SIZE:], "big")
    if checksum16(body) != stored:
        raise BadChecksum("checksum mismatch")
    type_byte, xid, mac, your_ip, server_id, gateway, dns = _HEAD.unpack_from(body)
    try:
        msg_type = MsgType(type_byte)
    except ValueError:
        raise UnknownType(f"unknown message type {type_byte}") from None
    try:
        return DhcpMessage(msg_type, xid, mac, your_ip, server_id, gateway, dns,
                           int.from_bytes(body[_HEAD.size:], "big"))
    except ValueError as exc:
        raise InvalidField(str(exc)) from None


def _decoded(decode, data):
    """The message ``decode`` makes of ``data``, or its error's class, reason and text."""
    try:
        return decode(data)
    except DhcpCodecError as exc:
        return type(exc), exc.reason, str(exc)


def _zero_checksum_frame() -> bytes:
    """A valid DISCOVER whose checksum is 0x0000: the gateway's middle bytes, the
    word at offset 20, top the body's word sum up to 0xFFFF."""
    body = encode_message(DhcpMessage(MsgType.DISCOVER, 0x0BADCAFE, b"\x02" * 6))[:BODY_SIZE]
    frame = encode_message(DhcpMessage(MsgType.DISCOVER, 0x0BADCAFE, b"\x02" * 6,
                                       gateway=checksum16(body) << 8))
    assert frame[BODY_SIZE:] == b"\x00\x00"
    return frame


def _decode_cases():
    rng = random.Random(2713)
    for length in range(65):
        for _ in range(40):
            data = bytes(rng.randrange(256) for _ in range(length))
            yield data
            if length == WIRE_SIZE:
                yield _with_checksum(data[:BODY_SIZE])
    valid = [encode_message(random_message(rng)) for _ in range(20)]
    valid += [encode_message(msg) for msg in address_extreme_messages()]
    zero = _zero_checksum_frame()
    # Ones-complement 0x0000 and 0xFFFF are both zero, but only the exact
    # checksum is due: folding all 16 words to 0xFFFF would accept this frame.
    yield zero[:BODY_SIZE] + b"\xff\xff"
    valid.append(zero)
    for frame in valid:
        yield frame
        for pos in range(WIRE_SIZE):
            for mask in (0x01, 0x80, 0xFF, rng.randrange(1, 256)):
                flipped = bytearray(frame)
                flipped[pos] ^= mask
                yield bytes(flipped)
                yield _with_checksum(bytes(flipped[:BODY_SIZE]))


def test_decode_agrees_with_the_reference_decode():
    outcomes = set()
    for data in _decode_cases():
        got = _decoded(decode_message, data)
        assert got == _decoded(_reference_decode, data), data.hex()
        outcomes.add(got[0] if type(got) is tuple else DhcpMessage)
    assert outcomes == {DhcpMessage, BadLength, BadChecksum, UnknownType, InvalidField}


def test_encode_appends_the_checksum16_of_the_body():
    rng = random.Random(3301)
    for msg in [random_message(rng) for _ in range(500)] + list(address_extreme_messages()):
        frame = encode_message(msg)
        assert frame[BODY_SIZE:] == checksum16(frame[:BODY_SIZE]).to_bytes(2, "big")


# -- domain types ----------------------------------------------------------


def test_mac_parse_and_format():
    mac = parse_mac("aa:bb:cc:dd:ee:ff")
    assert mac == bytes.fromhex("aabbccddeeff")
    assert format_mac(mac) == "aa:bb:cc:dd:ee:ff"
    assert parse_mac("0A:fF:00:Bc:00:01") == bytes.fromhex("0aff00bc0001")


def test_mac_text_round_trips():
    rng = random.Random(25)
    for _ in range(200):
        mac = rng.randbytes(6)
        assert parse_mac(format_mac(mac)) == mac


@pytest.mark.parametrize("text", [
    "aa:bb:cc", "0x1:+2: 3:1_0:4:5", "aa:bb:cc:dd:ee:ff:00", "aa-bb-cc-dd-ee-ff",
    "aabbccddeeff", "", "aa:bb:cc:dd:ee:fg", "a:bb:cc:dd:ee:fff", "100:0:0:0:0:0",
    " aa:bb:cc:dd:ee:ff", "aa:bb:cc:dd:ee:ff\n", "aa:bb:cc:dd:ee: f",
    "aa:bb:cc:dd:ee:\u0661\u0662",  # non-ASCII digits
])
def test_mac_parse_refuses_what_is_not_six_hex_pairs(text):
    with pytest.raises(ValueError, match="bad MAC"):
        parse_mac(text)


@pytest.mark.parametrize("mac", [b"\x02" * 5, b"\x02" * 7, b"", bytearray(b"\x02" * 6),
                                 "02:00:00:00:00:01"])
def test_message_refuses_a_client_mac_that_is_not_six_bytes(mac):
    with pytest.raises(ValueError, match="client_mac must be 6 bytes"):
        DhcpMessage(MsgType.DISCOVER, 1, mac)


def test_message_invariants():
    mac = b"\x02" * 6
    with pytest.raises(ValueError):
        DhcpMessage(MsgType.OFFER, 1, mac)  # zero server_id
    with pytest.raises(ValueError):
        DhcpMessage(MsgType.DISCOVER, 1, mac, your_ip=parse_ipv4("1.2.3.4"))
    with pytest.raises(ValueError):
        DhcpMessage(MsgType.DISCOVER, 2**32, mac)
    with pytest.raises(ValueError):
        DhcpMessage(MsgType.DISCOVER, 1, mac, lease_secs=2**24)


@pytest.mark.parametrize("field", ADDRESS_FIELDS)
@pytest.mark.parametrize("value", [-1, 2**32])
def test_message_rejects_addresses_beyond_32_bits(field, value):
    with pytest.raises(ValueError, match=field):
        DhcpMessage(MsgType.REQUEST, 1, b"\x02" * 6, **{field: value})


def test_message_names_the_first_address_out_of_range():
    with pytest.raises(ValueError, match=r"^server_id out of range: -1$"):
        DhcpMessage(MsgType.REQUEST, 1, b"\x02" * 6, server_id=-1, dns=2**32)


@pytest.mark.parametrize("text", ["10.0.0.2", "10.0.0.1", "0.0.0.0", "255.255.255.255"])
def test_ipv4_text_round_trips(text):
    ip = parse_ipv4(text)
    assert type(ip) is int and 0 <= ip <= MAX_IPV4
    assert format_ipv4(ip) == text


@pytest.mark.parametrize("text", ["10.0.0", "10.0.0.256", "", "::1", "10.0.0.1 "])
def test_parse_ipv4_rejects_non_addresses(text):
    with pytest.raises(ValueError):
        parse_ipv4(text)


# -- address pool -----------------------------------------------------------


def _pool(size=10, lease=100):
    start = parse_ipv4("10.0.1.1")
    return AddressPool(start, start + size - 1, lease)


def test_pool_lowest_free_first():
    pool = _pool()
    assert pool.allocate((1).to_bytes(6, "big"), now=0.0) == parse_ipv4("10.0.1.1")
    assert pool.allocate((2).to_bytes(6, "big"), now=0.0) == parse_ipv4("10.0.1.2")


def test_pool_lease_stability():
    pool = _pool()
    mac = (7).to_bytes(6, "big")
    first = pool.allocate(mac, now=0.0)
    assert pool.allocate(mac, now=1.0) == first


def test_pool_exhaustion_after_exactly_size_allocations():
    pool = _pool(size=10)
    # brute-force count: exactly 10 distinct macs succeed
    for i in range(10):
        pool.allocate(i.to_bytes(6, "big"), now=0.0)
    with pytest.raises(PoolExhausted):
        pool.allocate((10).to_bytes(6, "big"), now=0.0)


def test_pool_release_and_reuse():
    pool = _pool(size=2)
    a, b = (1).to_bytes(6, "big"), (2).to_bytes(6, "big")
    ip_a = pool.allocate(a, now=0.0)
    pool.allocate(b, now=0.0)
    pool.release(a)
    assert pool.allocate((3).to_bytes(6, "big"), now=0.0) == ip_a


def test_pool_expiry_reclaims():
    pool = _pool(size=1, lease=10)
    pool.allocate((1).to_bytes(6, "big"), now=0.0)
    with pytest.raises(PoolExhausted):
        pool.allocate((2).to_bytes(6, "big"), now=5.0)
    assert pool.allocate((2).to_bytes(6, "big"), now=11.0) == parse_ipv4("10.0.1.1")


def test_pool_injectivity_under_random_operations():
    rng = random.Random(4242)
    pool = _pool(size=8, lease=20)
    macs = [i.to_bytes(6, "big") for i in range(14)]
    now = 0.0
    for _ in range(400):
        now += rng.random() * 3
        mac = rng.choice(macs)
        if rng.random() < 0.7:
            try:
                pool.allocate(mac, now)
            except PoolExhausted:
                pass
        else:
            pool.release(mac)
        active = pool.active_leases(now)
        ips = list(active.values())
        assert len(ips) == len(set(ips)), "two active leases share an address"
        assert all(ip in pool for ip in ips)


class _ScanPool:
    """The original scan-based pool, kept as the oracle for AddressPool."""

    def __init__(self, start, end, default_lease_secs):
        self.start, self.end = start, end
        self.default_lease_secs = default_lease_secs
        self._leases = {}

    def active_leases(self, now):
        return {mac: ip for mac, (ip, expires) in self._leases.items() if expires > now}

    def lease_for(self, mac, now):
        lease = self._leases.get(mac)
        if lease is not None and lease[1] > now:
            return lease[0]
        return None

    def free_count(self, now):
        return self.end - self.start + 1 - len(self.active_leases(now))

    def allocate(self, mac, now, lease_secs=None):
        secs = self.default_lease_secs if lease_secs is None else lease_secs
        existing = self.lease_for(mac, now)
        if existing is not None:
            self._leases[mac] = (existing, now + secs)
            return existing
        taken = set(self.active_leases(now).values())
        for ip in range(self.start, self.end + 1):
            if ip not in taken:
                self._leases[mac] = (ip, now + secs)
                return ip
        raise PoolExhausted

    def release(self, mac):
        self._leases.pop(mac, None)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except PoolExhausted:
        return PoolExhausted


@pytest.mark.parametrize("size", [1, 2, 8, 64])
@pytest.mark.parametrize("lease", [0, 1, 20])
def test_pool_agrees_with_scan_oracle(size, lease):
    rng = random.Random(size * 1000 + lease)
    start = parse_ipv4("10.0.1.1")
    end = start + size - 1
    pool, oracle = AddressPool(start, end, lease), _ScanPool(start, end, lease)
    macs = [i.to_bytes(6, "big") for i in range(size + 6)]
    now = 0.0
    for step in range(600):
        # steps of 0 make leases expire exactly at a call's ``now``
        now += rng.choice((0.0, 0.0, 0.5, 1.0, rng.random() * 3))
        mac = rng.choice(macs)
        op = rng.random()
        if op < 0.35:
            got = (_outcome(pool.allocate, mac, now), _outcome(oracle.allocate, mac, now))
        elif op < 0.55:
            secs = rng.choice((0, 1, 2, 20, lease))
            got = (_outcome(pool.allocate, mac, now, secs),
                   _outcome(oracle.allocate, mac, now, secs))
        elif op < 0.7:
            got = (pool.release(mac), oracle.release(mac))
        elif op < 0.85:
            got = (pool.lease_for(mac, now), oracle.lease_for(mac, now))
        else:
            got = (pool.free_count(now), oracle.free_count(now))
        assert got[0] == got[1], (step, op, got)
        assert pool.free_count(now) == oracle.free_count(now), step
        assert pool.active_leases(now) == oracle.active_leases(now), step


def test_pool_rejects_time_going_backwards():
    pool = _pool()
    pool.allocate((1).to_bytes(6, "big"), now=5.0)
    assert pool.free_count(5.0) == 9  # the same ``now`` again is fine
    with pytest.raises(ValueError):
        pool.allocate((2).to_bytes(6, "big"), now=4.0)
    with pytest.raises(ValueError):
        pool.free_count(4.999)
    with pytest.raises(ValueError):
        pool.active_leases(0.0)


def test_pool_over_a_slash_8_is_built_lazily():
    pool = AddressPool(parse_ipv4("10.0.0.0"), parse_ipv4("10.255.255.255"))
    got = [pool.allocate(i.to_bytes(6, "big"), now=0.0) for i in range(3)]
    assert got == [parse_ipv4("10.0.0.0"), parse_ipv4("10.0.0.1"), parse_ipv4("10.0.0.2")]
    assert pool.free_count(0.0) == 2**24 - 3
    assert pool.size == 2**24


@pytest.mark.parametrize("start, end", [(-1, 10), (0, 2**32), (2**32, 2**32), (5, 4)])
def test_pool_rejects_ranges_beyond_32_bits_or_reversed(start, end):
    with pytest.raises(ValueError):
        AddressPool(start, end)


def test_pool_may_span_the_whole_address_space():
    pool = AddressPool(0, MAX_IPV4)
    assert pool.size == 2**32
    assert pool.allocate((1).to_bytes(6, "big"), now=0.0) == 0


# -- server / client state machines -----------------------------------------


def _server(size=10, lease=100):
    return DhcpServer(
        server_id=parse_ipv4("10.0.0.2"),
        pool=_pool(size, lease),
        gateway=parse_ipv4("10.0.0.1"),
        dns=parse_ipv4("10.0.0.1"),
        lease_secs=lease,
    )


def test_server_offers_lowest_free():
    server = _server()
    offer = server.step(DhcpMessage(MsgType.DISCOVER, 1, (5).to_bytes(6, "big")), now=0.0)
    assert offer.msg_type is MsgType.OFFER
    assert offer.your_ip == parse_ipv4("10.0.1.1")
    assert offer.server_id == parse_ipv4("10.0.0.2")


def test_server_two_step_replay_acks_same_address():
    server = _server()
    mac = (5).to_bytes(6, "big")
    offer = server.step(DhcpMessage(MsgType.DISCOVER, 9, mac), now=0.0)
    request = DhcpMessage(MsgType.REQUEST, 9, mac, your_ip=offer.your_ip,
                          server_id=offer.server_id)
    ack = server.step(request, now=0.1)
    assert ack.msg_type is MsgType.ACK
    assert ack.your_ip == offer.your_ip


def test_server_silent_when_exhausted():
    server = _server(size=2)
    for i in range(2):
        assert server.step(DhcpMessage(MsgType.DISCOVER, i, i.to_bytes(6, "big")), 0.0)
    assert server.step(DhcpMessage(MsgType.DISCOVER, 99, (99).to_bytes(6, "big")), 0.0) is None


def test_server_naks_unoffered_address():
    server = _server()
    mac = (5).to_bytes(6, "big")
    server.step(DhcpMessage(MsgType.DISCOVER, 1, mac), now=0.0)
    bogus = DhcpMessage(MsgType.REQUEST, 1, mac, your_ip=parse_ipv4("10.0.9.9"),
                        server_id=parse_ipv4("10.0.0.2"))
    assert server.step(bogus, now=0.1).msg_type is MsgType.NAK


def test_server_ignores_request_for_other_server_and_frees_lease():
    server = _server(size=1)
    mac = (5).to_bytes(6, "big")
    server.step(DhcpMessage(MsgType.DISCOVER, 1, mac), now=0.0)
    foreign = DhcpMessage(MsgType.REQUEST, 1, mac, your_ip=parse_ipv4("10.0.66.100"),
                          server_id=parse_ipv4("10.0.66.1"))
    assert server.step(foreign, now=0.1) is None
    # the tentative lease is gone, so a different client can take it
    offer = server.step(DhcpMessage(MsgType.DISCOVER, 2, (6).to_bytes(6, "big")), now=0.2)
    assert offer.your_ip == parse_ipv4("10.0.1.1")


def test_server_release_frees_lease():
    server = _server(size=1)
    mac = (5).to_bytes(6, "big")
    server.step(DhcpMessage(MsgType.DISCOVER, 1, mac), now=0.0)
    server.step(DhcpMessage(MsgType.RELEASE, 2, mac), now=0.5)
    assert server.step(DhcpMessage(MsgType.DISCOVER, 3, (6).to_bytes(6, "big")), 1.0) is not None


def test_server_forgets_each_offer_once_it_is_answered():
    server = _server()
    for cycle in range(30):
        mac = (cycle % 5).to_bytes(6, "big")
        offer = server.step(DhcpMessage(MsgType.DISCOVER, cycle, mac), now=float(cycle))
        asked = offer.your_ip if cycle % 3 else parse_ipv4("10.0.9.9")
        reply = server.step(DhcpMessage(MsgType.REQUEST, cycle, mac, your_ip=asked,
                                        server_id=offer.server_id), now=cycle + 0.5)
        assert reply.msg_type is (MsgType.ACK if cycle % 3 else MsgType.NAK)
    assert server._offered == {}


def test_dora_liveness():
    # one client + one server with a free pool completes all four messages
    server = _server()
    xids = iter(range(100, 200))
    client = DhcpClient((42).to_bytes(6, "big"), lambda: next(xids))
    wire = [client.discover()]
    hops = 0
    while wire and hops < 10:
        msg = wire.pop()
        hops += 1
        for peer in (server.step(msg, now=hops * 0.1), client.step(msg)):
            if peer is not None:
                wire.append(peer)
    assert client.binding is not None
    assert client.binding.ip in server.pool
    assert client.binding.gateway == parse_ipv4("10.0.0.1")
    assert hops == 4  # exactly DISCOVER, OFFER, REQUEST, ACK


def test_client_binds_only_to_the_ack_of_the_server_it_requested():
    xids = iter(range(100, 200))
    client = DhcpClient((42).to_bytes(6, "big"), lambda: next(xids))
    discover = client.discover()
    legit, rogue = parse_ipv4("10.0.0.2"), parse_ipv4("10.0.66.1")
    request = client.step(DhcpMessage(MsgType.OFFER, discover.xid, client.mac,
                                      your_ip=parse_ipv4("10.0.1.9"), server_id=legit))
    assert request.msg_type is MsgType.REQUEST and request.server_id == legit
    foreign = DhcpMessage(MsgType.ACK, discover.xid, client.mac,
                          your_ip=parse_ipv4("10.0.66.100"), server_id=rogue)
    assert client.step(foreign) is None
    assert client.binding is None and client.state is ClientState.REQUESTING
    client.step(DhcpMessage(MsgType.ACK, discover.xid, client.mac,
                            your_ip=parse_ipv4("10.0.1.9"), server_id=legit))
    assert client.state is ClientState.BOUND
    assert (client.binding.ip, client.binding.server_id) == (parse_ipv4("10.0.1.9"), legit)
