"""Code lines per module of src/taylorcert at HEAD, and their net change
against BASE when it is given.

    python3 tools/src_lines.py [BASE]

A code line holds a token other than a comment and lies outside every
docstring, so that a trimmed comment or docstring does not count as removed
code.  Files are read from git at each revision, not from the working tree.
"""

import ast
import io
import subprocess
import sys
import tokenize


def git(*args):
    return subprocess.run(["git", *args], capture_output=True, text=True,
                          check=True).stdout


def code_lines(source):
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        body = getattr(node, "body", None)
        if (isinstance(body, list) and body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            docstrings.update(range(body[0].lineno, body[0].end_lineno + 1))
    skip = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER}
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in skip:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def counts(rev):
    paths = git("ls-tree", "--name-only", rev, "src/taylorcert/").split()
    return {p: code_lines(git("show", f"{rev}:{p}")) for p in paths
            if p.endswith(".py")}


def main(argv):
    head = counts("HEAD")
    for path, n in head.items():
        print(f"{n:8} {path}")
    print(f"{sum(head.values()):8} code lines")
    if argv:
        net = sum(head.values()) - sum(counts(argv[0]).values())
        print(f"net src/ code lines: {net:+d}")


if __name__ == "__main__":
    main(sys.argv[1:])
