#!/usr/bin/env python3
"""Hostile and malformed request lines over a raw socket to a running
isomit-serve daemon, checking that each gets its structured reply and
that the daemon lives on, and that a second client that never reads its
replies stalls no one else.

Usage: python3 .github/scripts/raw_probe.py HOST:PORT SNAPSHOT.json

Run it after `isomit-cli rid --snapshot SNAPSHOT.json` has primed the
result cache: the by-fingerprint cases expect a cached answer. The
snapshot's fingerprint is FNV-1a over the file's canonical bytes.
Standard library only; exits non-zero on the first failed check.
"""

import socket
import sys
import threading
import time


def main():
    host, port = sys.argv[1].rsplit(":", 1)
    stream = socket.create_connection((host, int(port))).makefile("rw")

    def ask(line):
        stream.write(line + "\n")
        stream.flush()
        return stream.readline()

    def check(reply, *needles):
        for needle in needles:
            assert needle in reply, "expected %r in %r" % (needle, reply[:300])

    # 99 bytes naming 2^32 - 1 nodes: bad_request, and the daemon lives on.
    check(
        ask('{"id":2,"type":"rid","snapshot":{"graph":{"nodes":4294967295,'
            '"edges":[]},"states":[],"mapping":[]}}'),
        "bad_request", "disagree on node count")
    check(ask('{"id":3,"type":"health"}'), '"ok":true')

    # 100,000 nested brackets, bare and as a rid snapshot: bad_request
    # past 128 levels, and the daemon lives on.
    deep = "[" * 100000 + "]" * 100000
    for line in (deep, '{"id":5,"type":"rid","snapshot":%s}' % deep):
        check(ask(line), "bad_request", "nesting deeper than 128")
    check(ask('{"id":3,"type":"health"}'), '"ok":true')

    # A primed by-fingerprint line hits the cache; with `"x":nul` it
    # must not.
    fingerprint = 0xCBF29CE484222325
    with open(sys.argv[2], "rb") as snapshot:
        for byte in snapshot.read().strip():
            fingerprint = ((fingerprint ^ byte) * 0x100000001B3) % 2**64
    line = '"type":"rid","fingerprint":"%d"' % fingerprint
    check(ask('{"id":4,%s}' % line), '"ok":true')
    check(ask('{"id":4,%s,"x":nul}' % line), "bad_request")

    # The parser reads the id `5.0` as 5, so the cache answers it too.
    check(ask('{"id":5.0,%s}' % line), '{"id":5,"ok":true')

    # JSON spells a \u escape with exactly four hex digits, so the primed
    # fingerprint with its last digit written as `\u+03` and that digit
    # is refused, not read as the digit and answered from the cache.
    digits = str(fingerprint)
    signed = digits[:-1] + "\\u+03" + digits[-1]
    check(ask('{"id":4,"type":"rid","fingerprint":"%s"}' % signed),
          "bad_request", "escape")
    # Nor is `6.` a JSON number.
    check(ask('{"id":6.,"type":"health"}'), "bad_request", "invalid number")

    # Every reply echoes id 2^53 as an integer.
    check(ask('{"id":9007199254740992,"type":"health"}'),
          '{"id":9007199254740992,')

    # A second client writes `health` lines and never reads a reply,
    # until the daemon stops reading it and a send times out. Meanwhile,
    # and after, every round trip on this connection stays under 1 s.
    flood = socket.create_connection((host, int(port)))
    flood.settimeout(2.0)

    def flood_until_refused():
        chunk = b'{"id":1,"type":"health"}\n' * 1024
        try:
            while True:
                flood.sendall(chunk)
        except OSError:  # the send timed out: the daemon stopped reading
            pass

    flooder = threading.Thread(target=flood_until_refused)
    flooder.start()
    after = 0
    while after < 20:
        if not flooder.is_alive():
            after += 1
        started = time.monotonic()
        check(ask('{"id":7,"type":"health"}'), '"ok":true')
        took = time.monotonic() - started
        assert took < 1.0, "health took %.3f s beside a stalled client" % took
    flooder.join()
    flood.close()
    print("raw probe: all checks passed")


if __name__ == "__main__":
    main()
