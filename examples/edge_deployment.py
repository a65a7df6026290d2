"""Edge deployment: serve a mission end to end on the edge stack.

Walks the full deployment path the paper describes: mission prepared
once through the session cache → scenes served by the micro-batching
:class:`repro.serve.DetectionEngine` → post-training-quantized ViT
compiled to the accelerator → cycle-level simulation → comparison
against the edge-GPU baseline running the float network — latency,
utilization, per-component energy, and the streaming platform energy
that underlies the paper's "3.5× speedup / 40% energy reduction"
headline.

Run:  python examples/edge_deployment.py
"""

import time

from repro.core import ArtifactBuilder, ITaskPipeline, TaskSpec
from repro.data import SceneConfig, SceneGenerator, get_task
from repro.hw import (
    AcceleratorConfig,
    Compiler,
    GPUConfig,
    GPUModel,
    Simulator,
    streaming_comparison,
)
from repro.serve import EngineConfig


def main() -> None:
    print("=== iTask edge deployment ===")
    builder = ArtifactBuilder(seed=0)
    pipeline = ITaskPipeline(builder.quantized())
    quantized = builder.quantized().model
    print(f"\nquantized model: w{quantized.weight_bits()}a8, "
          f"{quantized.model_size_bytes() / 1024:.0f} KiB on device")

    # Serving layer: prepare the mission once, then micro-batch a stream
    # of scenes through the engine (each flush takes what is queued).
    task = get_task("roadside_hazards")
    session = pipeline.session(TaskSpec.from_definition(task))
    scenes = SceneGenerator(SceneConfig(grid=3), seed=3).generate_batch(32)
    with session.engine(EngineConfig(max_batch=8, workers=1)) as engine:
        engine.detect_many(scenes[:4])  # warm the kernels
        start = time.perf_counter()
        results = engine.detect_many(scenes)
        elapsed = time.perf_counter() - start
    detections = sum(len(r) for r in results)
    print(f"\nserved {len(scenes)} scenes through the engine in "
          f"{elapsed * 1e3:.1f} ms ({len(scenes) / elapsed:.0f} scenes/s, "
          f"{detections} detections, configuration: {session.decision.kind})")

    accel_config = AcceleratorConfig.edge_default()
    program = Compiler(accel_config).compile(quantized, batch=1)
    print(f"\ncompiled program: {program.summary()}")

    accel = Simulator(accel_config).simulate(program)
    print(f"\n--- accelerator ({accel_config.name}, "
          f"{accel_config.array_rows}x{accel_config.array_cols} @ "
          f"{accel_config.clock_mhz:.0f} MHz) ---")
    print(accel.summary())

    gpu = GPUModel(GPUConfig.jetson_class()).simulate(quantized.config)
    print("\n--- edge GPU baseline ---")
    print(gpu.summary())

    print("\n--- headline comparison (30 fps stream) ---")
    comparison = streaming_comparison(accel.latency_s, gpu.latency_s, fps=30.0)
    print(f"  speedup                 : {comparison['speedup']:.2f}x")
    print(f"  accel energy/frame      : "
          f"{comparison['accel_energy_per_frame_mj']:.1f} mJ")
    print(f"  gpu energy/frame        : "
          f"{comparison['gpu_energy_per_frame_mj']:.1f} mJ")
    print(f"  platform energy saving  : "
          f"{comparison['energy_reduction_pct']:.1f} %")
    print(f"  per-inference core energy: accel "
          f"{accel.energy_per_inference_j * 1e6:.1f} uJ vs GPU "
          f"{gpu.energy_per_inference_j * 1e6:.1f} uJ")


if __name__ == "__main__":
    main()
