"""tools/code_lines.py on a small synthetic module and package."""

import importlib.util
import os

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools",
                     "code_lines.py")
_spec = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

MODULE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment leaves the line a code line

# a comment line


class A:
    """Class docstring."""

    x = """a string that is no docstring,
spanning two lines"""

    def f(self, y):
        """Function
        docstring."""
        return (y +
                1)


async def g():
    """Async docstring."""
    s = "s"
    return s
'''

# import; class; x = (2 lines); def; return (2 lines); async def; s =; return
CODE_LINES = 10


def test_counts_code_lines_only():
    assert code_lines.code_lines(MODULE) == CODE_LINES


def test_empty_and_docstring_only_modules_count_zero():
    assert code_lines.code_lines("") == 0
    assert code_lines.code_lines('"""Only a docstring."""\n\n# and a comment\n') == 0


def test_package_counts_and_total(tmp_path, capsys):
    package = tmp_path / "src" / "streamcert"
    package.mkdir(parents=True)
    (package / "a.py").write_text(MODULE)
    (package / "b.py").write_text("x = 1\n")
    (package / "notes.txt").write_text("x = 1\n")
    assert code_lines.count_package(package) == {"a.py": CODE_LINES, "b.py": 1}
    assert code_lines.main([str(tmp_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split() for line in out] == [
        [str(CODE_LINES), "a.py"], ["1", "b.py"], [str(CODE_LINES + 1), "total"]]
