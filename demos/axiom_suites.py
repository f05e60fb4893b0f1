"""Randomized verification of the three axioms at and off alpha = 1.

Each suite samples seeded three-point scenarios and checks the axiom's
conclusion by direct evaluation.  At alpha = 1 all suites come back clean;
at other exponents the spread axiom finds violations among the scenarios
whose lateral spread ratio c_bar lies close to 1.
"""

from netpolar import run_suite


def main() -> None:
    for axiom in ("A1", "A2", "A3"):
        report = run_suite(axiom, alpha=1.0, count=5000, seed=2024)
        print(f"{axiom} at alpha = 1.0: {report.failures} failures "
              f"in {report.samples} scenarios")
    print()
    report = run_suite("A3", alpha=1.5, count=5000, seed=2024)
    print(f"A3 at alpha = 1.5 with spread ratios in (1, 2): "
          f"{report.failures} failures in {report.samples} scenarios")
    if report.witness is not None:
        s = report.witness["scenario"]
        print(f"  first witness: p = {s['p']:.3f}, q = {s['q']:.3f}, "
              f"c_bar = {s['c_bar']:.4f}")


if __name__ == "__main__":
    main()
