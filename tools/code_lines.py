"""Count code lines per Python module: lines that hold a token of code.

Docstrings (and any other statement that is only a string), comments and
blank lines do not count; a string literal inside code counts every line
it spans.  Usage:

    python tools/code_lines.py [PATH ...]    (default: src/swarmform)

Prints one "<lines>  <module>" row per .py file under each PATH, sorted by
path, then "<lines>  total".
"""

import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path):
    """The number of code lines in one Python source file."""
    lines = set()
    statement = []
    with open(path, "rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type not in _LAYOUT:
                statement.append(tok)
            elif tok.type in (tokenize.NEWLINE, tokenize.ENDMARKER) and statement:
                if any(t.type != tokenize.STRING for t in statement):
                    lines.update(row for t in statement for row in range(t.start[0], t.end[0] + 1))
                statement = []
    return len(lines)


def main(argv):
    paths = [Path(p) for p in argv] or [Path("src/swarmform")]
    files = sorted(f for p in paths for f in ([p] if p.is_file() else p.rglob("*.py")))
    total = 0
    for f in files:
        n = code_lines(f)
        total += n
        print(f"{n:6d}  {f}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
