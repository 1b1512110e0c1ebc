"""Golden bytes: fixed simulate -> detect runs must reproduce these files exactly.

Each case pins the sha256 of the trace, the alert log and the counters
file written by the CLI.  A change that alters any of these bytes on
purpose updates the digests here and says why in its change notes.
"""

import hashlib

import pytest

from dhcpguard.cli import EXIT_OK, main

ALT_WINDOWS = ("--window", "2.5", "--anomaly-window", "0.5", "--warmup", "10", "--block")

CASES = {
    "mixed-3": (
        ("--scenario", "mixed", "--seed", "3", "--duration", "60"),
        (),
        {
            "trace": "2d9c4b4bfa6b0faf0297f34858b45b9f05c399b9ce8a7b07b05dec1eb1b88bfd",
            "alerts": "63d3deaa5f8e116f24a8a6af467f7655cb7be8605ce71fe63179fcdc6eec18f8",
            "counters": "0f0bdd416c620a6492ebf8cbd73a1334825abdc258d37623058711dd792b7917",
        },
    ),
    "rogue-race-42-alt-windows": (
        ("--scenario", "rogue-race", "--seed", "42"),
        ALT_WINDOWS,
        {
            "trace": "2618c1aefa22767da4fcd283f09ba850fa71e33fa2e455be9990a9c0b8e1a7a3",
            "alerts": "dfccfa83aad72ebefead1f6fcff497afb187c0d1312d36548c1836adc322fac6",
            "counters": "a82454e07cf4efb5e96f74c008f861809b6fe64626a9279d947f0f7944a834e7",
        },
    ),
    # Tampered frames (validity alerts) and flows relayed through the rogue.
    "masquerade-2-tamper": (
        ("--scenario", "masquerade", "--seed", "2", "--tamper"),
        (),
        {
            "trace": "e5d3b2fe338ee747486c407633d9bced0e0d78181829a7633bd310195b15c422",
            "alerts": "1c33a5c665fcd345c3bb4b5760cf9ad997385a958dcd464c010acb03e6fed3a7",
            "counters": "ce71eba204489c2738585e3ec1d6d94446373e8801b535ba2a5459906a318c88",
        },
    ),
    "starvation-5-pool-200": (
        ("--scenario", "starvation", "--seed", "5", "--pool-size", "200"),
        (),
        {
            "trace": "35f7648e3799e329cf0615d085fedaba46b43c2a8cb0fb0a2e6b63919e67049f",
            "alerts": "970bb73cddec40c5b967c5be293adedff800867f5e3dca2d32d01432ff1ab62b",
            "counters": "85c389f3d6c072893e39f34e1ebd58479ff536255ddadc2dd259683b447f1fff",
        },
    ),
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_case(tmp_path, simulate_args, detect_args) -> dict[str, str]:
    trace, registry = tmp_path / "trace.jsonl", tmp_path / "registry.json"
    alerts, counters = tmp_path / "alerts.jsonl", tmp_path / "counters.json"
    assert main(["simulate", *simulate_args,
                 "--out", str(trace), "--registry-out", str(registry)]) == EXIT_OK
    main(["detect", "--trace", str(trace), "--registry", str(registry),
          "--alerts", str(alerts), "--counters", str(counters), *detect_args])
    return {"trace": _sha256(trace), "alerts": _sha256(alerts), "counters": _sha256(counters)}


@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_match_golden_digests(tmp_path, name):
    simulate_args, detect_args, expected = CASES[name]
    assert run_case(tmp_path, simulate_args, detect_args) == expected
