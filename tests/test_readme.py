import dataclasses
import functools
import importlib
import json
import re
from pathlib import Path

import imbtab
from imbtab.models import FAMILIES, ModelConfig
from imbtab.pipeline import Prepared, parse_config

README = Path(__file__).resolve().parents[1] / "README.md"


def root_exports(text):
    """The backticked names README's Library section lists as exported from the package root."""
    library = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    listed = re.search(r"\(([^()]*)\) are exported from the package root", library)
    return re.findall(r"`(\w+)`", listed.group(1))


def test_every_name_readme_exports_from_the_package_root_exists():
    names = root_exports(README.read_text(encoding="utf-8"))
    assert names
    assert [n for n in names if not hasattr(imbtab, n)] == []


def resolves(dotted):
    """Whether the dotted name is its longest importable prefix followed by attributes."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            module = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        try:
            functools.reduce(getattr, parts[cut:], module)
        except AttributeError:
            return False
        return True
    return False


def test_every_dotted_imbtab_name_in_readme_resolves():
    # `imbtab.pipeline.prepare(cfg)` names imbtab.pipeline.prepare
    names = re.findall(r"`(imbtab(?:\.\w+)+)(?:\([^`]*\))?`", README.read_text(encoding="utf-8"))
    assert names
    assert [n for n in names if not resolves(n)] == []


def test_readmes_minimal_config_parses():
    text = README.read_text(encoding="utf-8")
    example = re.search(r"A minimal config:\n\n```json\n(.*?)```", text, re.S)
    cfg = parse_config(example.group(1))
    assert [m.name for m in cfg.models] == ["SMOTE-LR", "SMOTE-RF"]


def test_readme_lists_the_model_families_in_order():
    bullet = re.search(r"^- Model families: (.*?)\.", README.read_text(encoding="utf-8"), re.M)
    assert tuple(re.findall(r"`(\w+)`", bullet.group(1))) == FAMILIES


def test_readme_lists_the_fields_prepare_returns_in_order():
    text = README.read_text(encoding="utf-8")
    listed = re.search(r"returns\s+a\s+`Prepared`\s+whose\s+fields\s+are\s+(.*?):", text, re.S)
    assert re.findall(r"`(\w+)`", listed.group(1)) == [f.name for f in dataclasses.fields(Prepared)]


def family_keys(text):
    """{family: [(key, default), ...]} from the sub-bullets of README's model families bullet."""
    bullet = re.search(r"^- Model families: .*?(?=^- |^$)", text, re.M | re.S).group(0)
    listed = {}
    for entry in re.findall(r"^  - `(\w+)`: (.*?)(?=^  - |\Z)", bullet, re.M | re.S):
        pairs = re.findall(r"`(\w+)`\s+(true|false|null|-?\d+(?:\.\d+)?(?:e-?\d+)?)", entry[1])
        listed[entry[0]] = [(key, json.loads(value)) for key, value in pairs]
    return listed


def test_readme_lists_each_familys_keys_and_defaults():
    listed = family_keys(README.read_text(encoding="utf-8"))
    assert tuple(listed) == FAMILIES
    for family, keys in listed.items():
        cfg = ModelConfig.for_family(family)
        own = [f for f in dataclasses.fields(cfg) if f.name not in ("name", "threshold")]
        assert keys == [(f.name, f.default) for f in own], family
