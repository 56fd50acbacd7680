"""ServeConfig validation and spec-file wiring."""

import pytest

from repro.core.server import ServerConfig
from repro.serve.config import (DEFAULT_WORKERS, ServeConfig, ServeError,
                                from_spec_file, worker_count)


def test_defaults_validate():
    ServeConfig().validate()


@pytest.mark.parametrize("kwargs", [
    {"max_inflight": 0},
    {"client_rate": -1.0},
    {"client_burst": 0},
    {"coalesce_interval": 0.0},
    {"coalesce_max": 0},
    {"tick_interval": -1.0},
])
def test_invalid_config_rejected(kwargs):
    with pytest.raises(ServeError):
        ServeConfig(**kwargs).validate()


def test_worker_count_auto_and_explicit():
    assert worker_count(ServerConfig(workers=0)) == DEFAULT_WORKERS
    assert worker_count(ServerConfig(workers=7)) == 7


def test_workers_key_parses_from_spec(tmp_path):
    spec = tmp_path / "group.spec"
    spec.write_text("group-id = 1\ninitial-size = 4\nworkers = 3\n")
    config, initial_size = from_spec_file(str(spec))
    assert config.workers == 3
    assert initial_size == 4


def test_server_config_rejects_negative_workers():
    from repro.core.server import ServerError
    with pytest.raises(ServerError):
        ServerConfig(workers=-1).validate()
