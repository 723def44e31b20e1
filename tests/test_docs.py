"""The README's library example, its FlowExpr operations and the package's
public names."""

from fractions import Fraction
from pathlib import Path
import re

import taylorcert

README = Path(__file__).resolve().parent.parent / "README.md"


def library_surface_block() -> str:
    section = README.read_text().split("## Library surface", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_surface_runs():
    code = library_surface_block()
    assert "cert.remainder_bound       # Fraction, < 1e-10 for this problem" in code
    namespace: dict = {}
    exec(code, namespace)
    cert = namespace["cert"]
    assert all(type(c) is Fraction for c in cert.coefficients)
    assert type(cert.remainder_bound) is Fraction
    assert cert.remainder_bound < Fraction(1, 10**10)
    assert cert.yrange.range.lo == Fraction(-1)


def test_readme_flowexpr_operations_exist():
    text = " ".join(README.read_text().split())
    listed = re.search(r"is `y\^2`\. (.*?) run on `Fraction`s", text).group(1)
    names = re.findall(r"`([^`]+)`", listed)
    assert "flow_derivative" in names
    dunder = {"+": "__add__", "-": "__sub__", "*": "__mul__"}
    for name in names:
        assert callable(getattr(taylorcert.FlowExpr, dunder.get(name, name))), name


def test_every_public_name_resolves():
    assert len(set(taylorcert.__all__)) == len(taylorcert.__all__)
    for name in taylorcert.__all__:
        assert hasattr(taylorcert, name), name
