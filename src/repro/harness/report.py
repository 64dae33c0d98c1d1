"""One-shot reproduction report: every artifact plus verdicts.

``repro-sim report`` (or :func:`generate_report`) regenerates Table 1,
Table 2, Figures 4-6 and E1 at the current configuration, grades every
claim of :mod:`repro.harness.claims` on the fresh numbers (PASS, FAIL,
or n/a below the claim's scale), and emits a single markdown document
— the quickest way to see whether a configuration still reproduces
the paper.
"""

from __future__ import annotations

from repro.harness.claims import evaluate
from repro.harness.experiment import ExperimentRunner
from repro.harness.extensions import generate_speedup
from repro.harness.figures import generate_fig4, generate_fig5, generate_fig6
from repro.harness.table1 import generate_table1
from repro.harness.table2 import generate_table2


def generate_report(runner: ExperimentRunner | None = None) -> str:
    """The full markdown report."""
    runner = runner or ExperimentRunner()
    verdicts = evaluate(runner)
    applying = [v for v in verdicts if v.holds is not None]
    held = sum(1 for v in applying if v.holds)
    lines = [
        "# Reproduction report",
        "",
        "Study of a Multilevel Approach to Partitioning for Parallel "
        "Logic Simulation (IPPS 2000).",
        "",
        f"Configuration: `{runner.config.describe()}`",
        "",
        f"## Claims — {held}/{len(applying)} that apply hold",
        "",
    ]
    for v in verdicts:
        lines.append(
            f"- **[{v.mark}]** {v.claim.id} ({v.claim.artifact}): "
            f"{v.claim.text} — {v.evidence}"
        )
    lines.append("")
    for title, text in (
        ("Table 1", generate_table1(runner)),
        ("Table 2", generate_table2(runner)),
        ("Figure 4", generate_fig4(runner)),
        ("Figure 5", generate_fig5(runner)),
        ("Figure 6", generate_fig6(runner)),
        ("E1", generate_speedup(runner)),
    ):
        lines.append(f"## {title}")
        lines.append("")
        lines.append("```")
        lines.append(text)
        lines.append("```")
        lines.append("")
    return "\n".join(lines)
