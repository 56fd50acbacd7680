"""Server specification files (paper §5).

"The server is initialized from a specification file which determines
the initial group size, the rekeying strategy, the key tree degree, the
encryption algorithm, the message digest algorithm, the digital
signature algorithm, etc."

The format is ``key = value`` lines with ``#`` comments:

.. code-block:: ini

    # keyserver.spec — the paper's experimental configuration
    group-id          = 1
    graph             = tree
    initial-size      = 8192
    degree            = 4
    strategy          = group        # user | key | group | hybrid
    cipher            = des          # des | des3 | aes128 | aes256
    digest            = md5          # md5 | sha1 | sha256 | none
    signature         = rsa-512      # rsa-<bits> | none
    signing           = merkle       # none | per-message | merkle
    seed              = sigcomm98    # deterministic runs; omit for random
    access-list       = alice, bob   # omit for an open group
    workers           = 0            # serve-layer worker pool (0 = auto)

Keys starting with ``slo-`` declare service-level objectives and are
parsed by :mod:`repro.observability.slo` rather than here:

.. code-block:: ini

    slo-join-p99      = latency rekey_seconds op=join threshold=50ms target=99%
    slo-availability  = availability target=99.5%
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

from .core.server import ServerConfig, ServerError
from .crypto.suite import suite_from_spec


class SpecError(ValueError):
    """Raised on malformed specification files."""

_KNOWN_KEYS = {
    "group-id", "graph", "initial-size", "degree", "strategy", "cipher",
    "digest", "signature", "signing", "seed", "access-list", "workers",
}

_DEFAULTS = {
    "group-id": "1",
    "graph": "tree",
    "initial-size": "0",
    "degree": "4",
    "strategy": "group",
    "cipher": "des",
    "digest": "md5",
    "signature": "rsa-512",
    "signing": "merkle",
    "workers": "0",
}


def parse_spec(text: str) -> Dict[str, str]:
    """Parse spec text into a key-value dict (validated keys)."""
    values: Dict[str, str] = {}
    for line_number, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise SpecError(f"line {line_number}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        value = value.strip()
        if key not in _KNOWN_KEYS and not key.startswith("slo-"):
            raise SpecError(f"line {line_number}: unknown key {key!r}")
        if key in values:
            raise SpecError(f"line {line_number}: duplicate key {key!r}")
        if not value:
            raise SpecError(f"line {line_number}: empty value for {key!r}")
        values[key] = value
    return values


def _parse_int(values: Dict[str, str], key: str, minimum: int) -> int:
    try:
        result = int(values[key])
    except ValueError:
        raise SpecError(f"{key} must be an integer") from None
    if result < minimum:
        raise SpecError(f"{key} must be >= {minimum}")
    return result


def config_from_spec(text: str) -> Tuple[ServerConfig, int]:
    """Build a :class:`ServerConfig` plus the initial group size."""
    values = dict(_DEFAULTS)
    values.update(parse_spec(text))

    digest = values["digest"]
    signature = values["signature"]
    try:
        suite = suite_from_spec(values["cipher"],
                                None if digest == "none" else digest,
                                None if signature == "none" else signature)
    except ValueError as exc:
        raise SpecError(str(exc)) from None

    access_list: Optional[Set[str]] = None
    if "access-list" in values:
        access_list = {name.strip()
                       for name in values["access-list"].split(",")
                       if name.strip()}
        if not access_list:
            raise SpecError("access-list present but empty")

    seed = values.get("seed")
    config = ServerConfig(
        group_id=_parse_int(values, "group-id", 0),
        graph=values["graph"],
        degree=_parse_int(values, "degree", 2),
        strategy=values["strategy"],
        suite=suite,
        signing=values["signing"],
        seed=seed.encode("utf-8") if seed is not None else None,
        access_list=access_list,
        workers=_parse_int(values, "workers", 0),
    )
    try:
        config.validate()
    except ServerError as exc:
        raise SpecError(str(exc)) from None
    return config, _parse_int(values, "initial-size", 0)

