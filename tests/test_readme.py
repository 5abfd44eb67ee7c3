import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_prints_what_its_comments_say(capsys):
    # each print(...) line of the README's "Library example" ends in a comment
    # that gives what it prints
    block = re.search(r"## Library example\n+```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S).group(1)
    expected = [line.split("# ", 1)[1] for line in block.splitlines() if line.startswith("print(")]
    assert len(expected) == 6
    exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out.splitlines() == expected
