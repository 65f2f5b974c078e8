"""The suite's warning filters, run on a throwaway suite in a subprocess."""

from __future__ import annotations

from pathlib import Path

pytest_plugins = ["pytester"]

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_falsified_property_reports_its_example(pytester):
    # a fresh process imports hypothesis's patch writer, and with it the
    # deprecated mypy_extensions.TypedDict, only once a property fails
    pytester.makefile(".toml", pyproject=PYPROJECT.read_text())
    pytester.makepyfile(
        test_inner="""
        import warnings

        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_falsified(x):
            assert x < 10

        def test_runs_after():
            pass

        def test_package_deprecation_fails():
            warnings.warn("old call", DeprecationWarning)
        """
    )
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider", "test_inner.py")
    result.assert_outcomes(passed=1, failed=2)
    assert result.ret == 1
    result.stdout.fnmatch_lines(["*Falsifying example*"])
    result.stdout.no_fnmatch_line("*INTERNALERROR*")
