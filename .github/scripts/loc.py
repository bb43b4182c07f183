"""Count the code lines of Python files: lines that hold a token other than
a comment, with blank lines and docstrings left out.

A docstring here is any statement made of string literals alone.  A line
counts once however many tokens it holds; a string or a bracketed expression
over several lines counts every line it spans.  A directory argument stands
for its own ``*.py`` files, sorted.  Prints one count per file and their
total, as ``wc -l`` does:

    python .github/scripts/loc.py src/dcgridlab
"""

import sys
import tokenize
from pathlib import Path

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path: str) -> int:
    rows, statement = set(), []
    with open(path, "rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in SKIPPED:
                statement.append(tok)
            elif tok.type in (tokenize.NEWLINE, tokenize.ENDMARKER) and statement:
                if any(t.type != tokenize.STRING for t in statement):
                    for t in statement:
                        rows.update(range(t.start[0], t.end[0] + 1))
                statement = []
    return len(rows)


def main(paths: list[str]) -> None:
    files = [str(f) for p in map(Path, paths)
             for f in (sorted(p.glob("*.py")) if p.is_dir() else [p])]
    counts = [(code_lines(p), p) for p in files]
    for n, p in counts:
        print(f"{n:7d} {p}")
    print(f"{sum(n for n, _ in counts):7d} total")


if __name__ == "__main__":
    main(sys.argv[1:])
