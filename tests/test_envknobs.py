"""Env-knob parsing policy: invalid values are never silent.

Every runtime knob read from the environment goes through
:mod:`repro.envknobs`: unset (or empty) means the default silently,
anything else either parses or produces a :class:`RuntimeWarning`
naming the variable and the bad value — a typo'd
``REPRO_SWEEP_WORKERS=4x`` must not quietly run with a different worker
count.
"""

import warnings

import pytest

from repro.envknobs import env_dir, env_float, env_int

pytestmark = pytest.mark.serve

KNOB = "REPRO_TEST_KNOB"


class TestEnvInt:
    def test_unset_is_the_default_silently(self, monkeypatch):
        monkeypatch.delenv(KNOB, raising=False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert env_int(KNOB, 7) == 7

    def test_empty_and_whitespace_are_the_default_silently(self, monkeypatch):
        for raw in ("", "   "):
            monkeypatch.setenv(KNOB, raw)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert env_int(KNOB, 7) == 7

    def test_valid_value_parses(self, monkeypatch):
        monkeypatch.setenv(KNOB, " 42 ")
        assert env_int(KNOB, 7) == 42

    @pytest.mark.parametrize("raw", ["256MB", "abc", "1.5", "0x10", "--"])
    def test_garbage_warns_and_falls_back(self, monkeypatch, raw):
        monkeypatch.setenv(KNOB, raw)
        with pytest.warns(RuntimeWarning, match=KNOB) as record:
            assert env_int(KNOB, 7) == 7
        message = str(record[0].message)
        assert raw.strip() in message or repr(raw) in message, (
            "the warning must name the bad value"
        )

    def test_below_minimum_warns_and_clamps(self, monkeypatch):
        monkeypatch.setenv(KNOB, "-3")
        with pytest.warns(RuntimeWarning, match=KNOB):
            assert env_int(KNOB, 7, minimum=0) == 0
        monkeypatch.setenv(KNOB, "0")
        with pytest.warns(RuntimeWarning, match=KNOB):
            assert env_int(KNOB, 4, minimum=1) == 1

    def test_negative_without_minimum_is_accepted(self, monkeypatch):
        monkeypatch.setenv(KNOB, "-3")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert env_int(KNOB, 7) == -3


class TestEnvFloat:
    def test_unset_and_empty_are_the_default_silently(self, monkeypatch):
        monkeypatch.delenv(KNOB, raising=False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert env_float(KNOB, 1.5) == 1.5
        monkeypatch.setenv(KNOB, "  ")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert env_float(KNOB, 1.5) == 1.5

    def test_valid_values_parse(self, monkeypatch):
        for raw, want in (("2.5", 2.5), (" 10 ", 10.0), ("1e2", 100.0)):
            monkeypatch.setenv(KNOB, raw)
            assert env_float(KNOB, 1.5) == want

    @pytest.mark.parametrize("raw", ["300s", "abc", "--", "1,5"])
    def test_garbage_warns_and_falls_back(self, monkeypatch, raw):
        monkeypatch.setenv(KNOB, raw)
        with pytest.warns(RuntimeWarning, match=KNOB) as record:
            assert env_float(KNOB, 1.5) == 1.5
        assert raw in str(record[0].message), (
            "the warning must name the bad value"
        )

    def test_below_minimum_warns_and_clamps(self, monkeypatch):
        monkeypatch.setenv(KNOB, "0.2")
        with pytest.warns(RuntimeWarning, match=KNOB):
            assert env_float(KNOB, 300.0, minimum=1.0) == 1.0

    def test_loadtest_timeout_knob_goes_through_this_policy(self):
        import inspect

        from repro.serve import loadtest
        source = inspect.getsource(loadtest)
        assert 'env_float("REPRO_LOADTEST_TIMEOUT"' in source


class TestEnvDir:
    def test_unset_and_empty_are_none(self, monkeypatch):
        monkeypatch.delenv(KNOB, raising=False)
        assert env_dir(KNOB) is None
        monkeypatch.setenv(KNOB, "")
        assert env_dir(KNOB) is None

    def test_plain_path_passes_through(self, monkeypatch, tmp_path):
        monkeypatch.setenv(KNOB, str(tmp_path))
        assert env_dir(KNOB) == str(tmp_path)

    def test_existing_non_directory_warns(self, monkeypatch, tmp_path):
        f = tmp_path / "a-file"
        f.write_text("x")
        monkeypatch.setenv(KNOB, str(f))
        with pytest.warns(RuntimeWarning, match=KNOB):
            assert env_dir(KNOB) is None
