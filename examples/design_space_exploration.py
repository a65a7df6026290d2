"""Design-space exploration of the iTask accelerator.

Sweeps array geometry and clock frequency for the deployed quantized
model, prints the full grid with area/latency/energy, extracts the
Pareto frontier, and shows the op-level execution timeline (Gantt) of the
chosen configuration — the analysis behind a DAC paper's
"why this configuration" section.

Run:  python examples/design_space_exploration.py
"""

from repro.core import ArtifactBuilder
from repro.hw import (
    AcceleratorConfig,
    Compiler,
    Simulator,
    pareto_front,
    sweep,
)


def main() -> None:
    print("=== iTask accelerator design-space exploration ===")
    builder = ArtifactBuilder(seed=0)
    model = builder.quantized().model

    points = sweep(
        model,
        array_sizes=((8, 8), (16, 16), (24, 24), (32, 32)),
        clocks_mhz=(250.0, 500.0, 800.0),
    )

    header = (f"{'array':>7} {'clock':>7} {'latency_ms':>11} "
              f"{'energy_uJ':>10} {'area_mm2':>9} {'util%':>6}")
    print("\nfull grid:")
    print(header)
    for point in points:
        row = point.as_row()
        print(f"{row['array']:>7} {row['clock_mhz']:>7.0f} "
              f"{row['latency_ms']:>11.4f} {row['energy_uj']:>10.2f} "
              f"{row['area_mm2']:>9.3f} {row['util_pct']:>6.1f}")

    front = pareto_front(points)
    print(f"\nPareto frontier ({len(front)} of {len(points)} points):")
    print(header)
    for point in front:
        row = point.as_row()
        print(f"{row['array']:>7} {row['clock_mhz']:>7.0f} "
              f"{row['latency_ms']:>11.4f} {row['energy_uj']:>10.2f} "
              f"{row['area_mm2']:>9.3f} {row['util_pct']:>6.1f}")

    # Timeline of the paper's default configuration.
    default = AcceleratorConfig.edge_default()
    program = Compiler(default).compile(model)
    report = Simulator(default).simulate(program)
    print(f"\nexecution timeline on {default.name} "
          f"({default.array_rows}x{default.array_cols} @ "
          f"{default.clock_mhz:.0f} MHz):")
    print(report.gantt())


if __name__ == "__main__":
    main()
