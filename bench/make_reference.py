"""Write reference.json: every workload's results on the reference seed.

    PYTHONPATH=src python3 bench/make_reference.py

The stored values are what the library computed when the benchmark was
written; the benchmark checks runs on that seed against them to 1e-9.
Regenerate only for a change that is meant to alter the numbers.
"""
import json

from workloads import DEFAULT_SEED, REFERENCE_PATH, WORKLOADS


def main() -> None:
    lines = [f'{{"seed": {DEFAULT_SEED}, "workloads": {{']
    for i, (name, wl) in enumerate(WORKLOADS.items()):
        (key, rows), = wl.reference(wl.build(DEFAULT_SEED)).items()
        lines.append(f" {json.dumps(name)}: {{{json.dumps(key)}: [")
        lines.append(",\n".join(f"  {json.dumps(row)}" for row in rows))
        lines.append(" ]}" + ("," if i + 1 < len(WORKLOADS) else ""))
    lines.append("}}")
    REFERENCE_PATH.write_text("\n".join(lines) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
