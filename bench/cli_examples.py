"""Regenerate cli_examples.json from the worked examples in docs/commands/.

    python3 bench/cli_examples.py

Run from the repository root.  Each docs page ends in a worked example: an
`input.json` block, then a console block whose first line is
`$ troplab <command> input.json` and whose remaining lines are the output.
The benchmark keeps its own copy, so that editing the docs does not change
its inputs; the cli-cold workload compares each CLI result with the stored
output by value.
"""

import json
import re
from pathlib import Path

HERE = Path(__file__).resolve().parent
DOCS = HERE.parent / "docs" / "commands"
BLOCK = re.compile(r"```(json|console)\n(.*?)```", re.S)


def example(page):
    text = page.read_text().split("## Worked example", 1)[1]
    blocks = {}
    for kind, body in BLOCK.findall(text):
        blocks.setdefault(kind, body)
    first, _, output = blocks["console"].strip().partition("\n")
    words = first.split()
    if words[:2] != ["$", "troplab"] or words[3:] != ["input.json"]:
        raise SystemExit(f"{page.name}: unexpected console line {first!r}")
    return {"command": words[2], "input": json.loads(blocks["json"]),
            "output": json.loads(output)}


def main():
    examples = [example(page) for page in sorted(DOCS.glob("*.md"))]
    (HERE / "cli_examples.json").write_text(json.dumps(examples, indent=1) + "\n")
    print(f"wrote {len(examples)} examples")


if __name__ == "__main__":
    main()
