"""Tests for repro.host: the one reader of the process environment."""

import ast
from dataclasses import fields
from pathlib import Path

import pytest

import repro
from repro import host
from repro.host import Settings

SRC = Path(repro.__file__).resolve().parent
KNOBS = tuple(f"REPRO_{field.name.upper()}" for field in fields(Settings))


@pytest.fixture
def clean_env(monkeypatch):
    for name in KNOBS:
        monkeypatch.delenv(name, raising=False)
    return monkeypatch


def _reads_environment(tree: ast.AST) -> bool:
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv")
                and isinstance(node.value, ast.Name) and node.value.id == "os"):
            return True
        if isinstance(node, ast.ImportFrom) and node.module == "os" and any(
                alias.name in ("environ", "getenv") for alias in node.names):
            return True
    return False


def test_environment_is_read_in_one_module():
    readers = [
        path.relative_to(SRC).as_posix()
        for path in sorted(SRC.rglob("*.py"))
        if _reads_environment(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert readers == ["host.py"]


def test_unset_knobs_take_the_defaults(clean_env):
    assert host.settings() == Settings()


def test_blank_knob_is_unset(clean_env):
    clean_env.setenv("REPRO_WORKERS", "  ")
    clean_env.setenv("REPRO_CACHE_DIR", "")
    assert host.settings() == Settings()


def test_every_knob_is_read(clean_env, tmp_path):
    env = {
        "REPRO_WORKERS": "3", "REPRO_JOB_TIMEOUT_S": "30",
        "REPRO_CACHE": "yes", "REPRO_CACHE_DIR": str(tmp_path / "c"),
        "REPRO_CACHE_MAX_MB": "1.5",
        "REPRO_REGISTRY": "TRUE", "REPRO_REGISTRY_DIR": str(tmp_path / "r"),
        "REPRO_TELEMETRY": "on", "REPRO_TELEMETRY_DIR": str(tmp_path / "t"),
        "REPRO_PROFILE": "1", "REPRO_PROFILE_DIR": str(tmp_path / "p"),
    }
    assert set(env) == set(KNOBS)
    for name, value in env.items():
        clean_env.setenv(name, value)
    assert host.settings() == Settings(
        workers=3, job_timeout_s=30.0,
        cache=True, cache_dir=str(tmp_path / "c"), cache_max_mb=1.5,
        registry=True, registry_dir=str(tmp_path / "r"),
        telemetry=True, telemetry_dir=str(tmp_path / "t"),
        profile=True, profile_dir=str(tmp_path / "p"),
    )


@pytest.mark.parametrize("value", ["0", "off", "no", "false", "2"])
def test_flag_is_off_unless_truthy(clean_env, value):
    clean_env.setenv("REPRO_CACHE", value)
    assert host.settings().cache is False


def test_profile_dir_defaults_to_the_telemetry_dir(clean_env, tmp_path):
    clean_env.setenv("REPRO_TELEMETRY_DIR", str(tmp_path))
    assert host.settings().profile_dir == str(tmp_path)


def test_settings_are_parsed_per_call(clean_env):
    clean_env.setenv("REPRO_WORKERS", "2")
    assert host.settings().workers == 2
    clean_env.setenv("REPRO_WORKERS", "4")
    assert host.settings().workers == 4


@pytest.mark.parametrize("name", ["REPRO_WORKERS", "REPRO_JOB_TIMEOUT_S", "REPRO_CACHE_MAX_MB"])
@pytest.mark.parametrize("value", ["garbage", "0", "-1", "nan", "inf"])
def test_malformed_numeric_knob_raises_naming_it(clean_env, name, value):
    """Any settings read fails on a bad numeric knob, used or not."""
    clean_env.setenv(name, value)
    with pytest.raises(ValueError, match=name):
        host.settings()


class TestAtomicWrite:
    @pytest.mark.parametrize("content", [b"\x00bytes\n", "text µ\n"])
    def test_writes_bytes_and_text(self, tmp_path, content):
        path = tmp_path / "deep" / "file"
        host.atomic_write(path, content)
        expected = content.encode() if isinstance(content, str) else content
        assert path.read_bytes() == expected
        assert sorted(p.name for p in path.parent.iterdir()) == ["file"]

    def test_failed_write_leaves_the_old_file(self, tmp_path):
        path = tmp_path / "file"
        host.atomic_write(path, b"old")

        def fail(handle):
            handle.write(b"partial")
            raise OSError("disk full")

        with pytest.raises(OSError):
            host.atomic_write(path, fail)
        assert path.read_bytes() == b"old"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]
