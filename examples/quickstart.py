#!/usr/bin/env python3
"""Quickstart: build an RSSD, write data, lose it, get it back.

The device comes from :mod:`repro.api`, the stable public facade; the
rollback and the incident record both come from
:class:`repro.forensics.ForensicsEngine`, the one post-attack analysis
surface.

Run with::

    python examples/quickstart.py
"""

from repro.api import RSSDConfig, build_rssd
from repro.forensics import ForensicsEngine


def main() -> None:
    # An RSSD with a small simulated flash array, an embedded NIC on a
    # 1 GbE NVMe-oE link, and a tiered remote (storage server + cloud).
    rssd = build_rssd(RSSDConfig.small())

    print("== write some user data ==")
    rssd.write(lba=0, data=b"family-photos.tar: irreplaceable bytes")
    rssd.write(lba=1, data=b"thesis-draft.docx: three years of work")
    for lba in range(2, 12):
        rssd.write(lba=lba, data=b"spreadsheet row data, quite compressible " * 90)
    print("lba 0:", rssd.read(0)[:38])
    print("lba 1:", rssd.read(1)[:38])

    # Remember the clean point in (simulated) time.
    clean_point_us = rssd.clock.now_us
    rssd.clock.advance(1_000)

    print("\n== ransomware strikes: read, encrypt, overwrite, trim ==")
    from repro.crypto.cipher import StreamCipher

    cipher = StreamCipher.from_passphrase("pay 1.5 BTC")
    for lba in range(12):
        if lba == 1:
            continue
        plaintext = rssd.read(lba)
        rssd.write(lba=lba, data=cipher.encrypt(plaintext, nonce=lba), stream_id=13)
    rssd.trim(lba=1, npages=1, stream_id=13)  # physically erase the original
    print("lba 0 now:", rssd.read(0)[:12], "...")
    print("lba 1 now:", rssd.read(1)[:12], "(trimmed reads as zeroes)")

    print("\n== but nothing was actually lost ==")
    print("retained locally:", rssd.retained_pages_local,
          "| offloaded remotely:", rssd.retained_pages_remote,
          "| data loss pages:", rssd.data_loss_pages)

    recovery = ForensicsEngine(rssd).recovery()
    image = recovery.rebuild_image(clean_point_us, simulate_fetch=True)
    written = recovery.apply(image)
    print(f"recovery restored {written} pages "
          f"({len(image.recovered_remote)} fetched over NVMe-oE), "
          f"unrecoverable: {image.pages_lost}")
    print("lba 0:", rssd.read(0)[:38])
    print("lba 1:", rssd.read(1)[:38])

    print("\n== and the whole incident is on the record ==")
    # A fresh engine: an engine caches its timeline, and the rollback
    # above added operations to the log.
    report = ForensicsEngine(rssd).investigate()
    print("evidence chain verified:", report.chain_verified,
          "| logged operations:", report.total_entries,
          "| suspected streams:", report.malicious_streams)

    print("\ndevice summary:", rssd.summary())


if __name__ == "__main__":
    main()
