"""Server specification files (paper §5 initialization)."""

import pytest

from repro.core.server import GroupKeyServer
from repro.serve.config import from_spec_file
from repro.specfile import SpecError, config_from_spec, parse_spec

PAPER_SPEC = """
# the paper's experimental configuration
group-id     = 1
graph        = tree
initial-size = 8192
degree       = 4
strategy     = group
cipher       = des
digest       = md5
signature    = rsa-512
signing      = merkle
seed         = sigcomm98
"""


def test_paper_spec_parses():
    config, initial_size = config_from_spec(PAPER_SPEC)
    assert initial_size == 8192
    assert config.degree == 4
    assert config.strategy == "group"
    assert config.suite.cipher_name == "des"
    assert config.suite.digest_name == "md5"
    assert config.suite.signature_bits == 512
    assert config.signing == "merkle"
    assert config.seed == b"sigcomm98"
    assert config.access_list is None


def test_defaults_fill_in():
    config, initial_size = config_from_spec("")
    assert initial_size == 0
    assert config.degree == 4
    assert config.strategy == "group"
    assert config.seed is None


def test_server_builds_from_spec():
    config, initial_size = config_from_spec(
        "initial-size = 16\nsigning = none\nsignature = none\n"
        "digest = none\nseed = t")
    server = GroupKeyServer(config)
    server.bootstrap([(f"m{i}", server.new_individual_key())
                      for i in range(initial_size)])
    assert server.n_users == 16


def test_comments_and_whitespace():
    values = parse_spec("  degree = 8   # big fanout\n\n# only a comment\n")
    assert values == {"degree": "8"}


def test_access_list():
    config, _ = config_from_spec("access-list = alice , bob,carol\n"
                                 "signing = none\nsignature = none")
    assert config.access_list == {"alice", "bob", "carol"}


@pytest.mark.parametrize("bad,fragment", [
    ("nonsense line", "expected"),
    ("unknown-key = 1", "unknown key"),
    ("degree = one", "integer"),
    ("degree = 1", ">= 2"),
    ("degree = 4\ndegree = 8", "duplicate"),
    ("cipher =", "empty value"),
    ("cipher = rot13", "cipher"),
    ("signature = dsa-1024", "signature"),
    ("strategy = psychic", "strategy"),
    ("signing = merkle\ndigest = none\nsignature = none", "signing"),
    ("access-list = ,", "empty"),
    ("initial-size = -4", ">= 0"),
    ("backend = columnar", "backend"),
])
def test_rejections(bad, fragment):
    with pytest.raises(SpecError) as excinfo:
        config_from_spec(bad)
    assert fragment.lower() in str(excinfo.value).lower()


def test_backend_key_is_rejected():
    """Every server runs one tree engine: the grammar has no ``backend``
    key, not even for the engine every server builds."""
    for value in ("flat", "object"):
        with pytest.raises(SpecError, match="unknown key 'backend'"):
            config_from_spec(PAPER_SPEC + f"backend = {value}\n")


def test_spec_file_from_disk(tmp_path):
    path = tmp_path / "keyserver.spec"
    path.write_text(PAPER_SPEC)
    config, initial_size = from_spec_file(str(path))
    assert initial_size == 8192
    assert config.suite.signature_bits == 512
    assert config.signing == "merkle"
