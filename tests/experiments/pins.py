"""SHA-256 pins of every experiment driver's formatted output.

Each pin hashes the exact text a driver prints for one small, fixed
run, so any change to how a sweep is fanned out, regrouped or reduced
that moves a single character of a table fails here.  The runs are
sized to keep the whole set within a few seconds of tier-1 time.
"""

import hashlib

PINS = {
    "table1": "688b1bfdbd79cfe6c837b8cb99d7ff478886970f9a4ada862042a37a2b037631",
    "table2": "1e97f710c77e64bcbbc2c182aa7db44296f571b1abc96609190cf2d532932372",
    "figure2-tiny": "47fe028444d2374e4d9d6331d9571a65ee7e2e0c01115bab5db5a0ce78f953c1",
    "figure3-smoke": "cd5e569321c3e127956b2cd5ea043597f202dd5d09d7523aefad950a54e7d19d",
    "figure4-tiny": "a202faef3c767d54da193fab21cf28cff6cc1c3ba55d3552112fe5aa5b177845",
    "quality-tiny": "eb120a28dd5804fdcbd83a5c10c463c07b24c49af3ea18b5d01408494b2fdefb",
    "warp_study-tiny": "3f3a267e03b605c8f9141c6aced18b63dfe93b529ae439273c2b323a3593be2e",
    "scale_study-tiny": "21d7c9ef5e69a74074c1b255408fb24d927684589eab45e6cc54cfe796473a6d",
    "race_report-tiny": "c6cedb89f0cd54644cdb55fcb5cc3919c378f1ce16bf8a7378e64b2d5422f708",
}


def sha256(text: str) -> str:
    """Hex SHA-256 of ``text`` encoded as UTF-8."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
