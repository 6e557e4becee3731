from pathlib import Path

import edgering

README = Path(__file__).resolve().parent.parent / "README.md"


def test_all_names_exist():
    missing = [name for name in edgering.__all__ if not hasattr(edgering, name)]
    assert missing == []


def test_all_has_no_duplicates():
    assert len(edgering.__all__) == len(set(edgering.__all__))


def test_readme_library_example():
    # the first fenced block after the heading, run as written
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    assert "analyze_record" in block
    exec(compile(block, f"{README}:## Library", "exec"), {})
